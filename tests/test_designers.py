"""Designer networks: structure, matchings, and target states."""

import math

import numpy as np
import pytest

from lqngraph.designers import (
    color_vector,
    design_cluster4,
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from lqngraph.entanglement import (
    Verdict,
    finest_partition,
    theorem1_check,
    theorem2_w_optimal_check,
)
from lqngraph.errors import BadLength, InvalidArgument, NoPresetForN, RowNotNormalized
from lqngraph.graphs import diagram_of_network, elementary_cycles, to_directed
from lqngraph.io import parse_network, serialize_network
from lqngraph.model import Color, Statistics, to_adjacency
from lqngraph.states import assemble_network_state, max_amplitude_difference, normalize

from conftest import matchings, max_error_up_to_phase


def concurrence(state):
    """Two-detector concurrence 2|ad - bc| of a normalized state."""
    a, b = state.amplitude("uu"), state.amplitude("ud")
    c, d = state.amplitude("du"), state.amplitude("dd")
    return 2 * abs(a * d - b * c)


def edge_pairs(spec):
    return {(t.source, t.detector) for t in spec.transitions}


class TestGHZ:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_two_matchings_and_balanced_state(self, n):
        spec = design_ghz(n)
        assert len(matchings(spec)) == 2
        state = normalize(assemble_network_state(spec))
        h = 1 / math.sqrt(2)
        assert state.amplitude("u" * n) == pytest.approx(h, abs=1e-12)
        assert state.amplitude("d" * n) == pytest.approx(h, abs=1e-12)

    def test_color_vector_controls_the_two_kets(self):
        spec = design_ghz(4, colors="uddu")
        state = normalize(assemble_network_state(spec))
        assert abs(state.amplitude("uddu")) == pytest.approx(1 / math.sqrt(2))
        assert abs(state.amplitude("duud")) == pytest.approx(1 / math.sqrt(2))

    def test_colored_three_vertex_amplitudes(self):
        spec = design_ghz(3, colors="dud")
        T = {(t.source, t.detector): t.amplitude for t in spec.transitions}
        state = assemble_network_state(spec)
        assert state.amplitude("dud") == pytest.approx(
            T[(1, 1)] * T[(2, 2)] * T[(3, 3)]
        )
        assert state.amplitude("udu") == pytest.approx(
            T[(1, 2)] * T[(2, 3)] * T[(3, 1)]
        )

    def test_structure_checks(self):
        diag = diagram_of_network(design_ghz(5))
        assert theorem1_check(diag).verdict is Verdict.MAY_BE_GENUINE
        assert finest_partition(
            normalize(assemble_network_state(design_ghz(5)))
        ) == ((1, 2, 3, 4, 5),)

    def test_rejects_tiny_n(self):
        with pytest.raises(BadLength):
            design_ghz(1)
        with pytest.raises(BadLength):
            design_ghz(4, colors="ud")

    def test_rejects_unknown_color(self):
        with pytest.raises(InvalidArgument):
            color_vector("uxd", 3)


class TestW:
    def test_star_structure_n5(self):
        spec = design_w(5, form="star")
        colors = {(t.source, t.detector): t.color for t in spec.transitions}
        assert colors[(1, 1)] is Color.DOWN
        for a in range(2, 6):
            assert colors[(a, a)] is Color.UP
            assert colors[(1, a)] is Color.DOWN
            assert colors[(a, 1)] is Color.UP
        assert edge_pairs(spec) == (
            {(1, 1)}
            | {(1, a) for a in range(2, 6)}
            | {(a, a) for a in range(2, 6)}
            | {(a, 1) for a in range(2, 6)}
        )

    def test_ring_structure_n5(self):
        spec = design_w(5, form="ring")
        colors = {(t.source, t.detector): t.color for t in spec.transitions}
        assert edge_pairs(spec) == (
            {(1, a) for a in range(1, 6)}
            | {(a, a) for a in range(2, 6)}
            | {(a, a - 1) for a in range(2, 6)}
        )
        for a in range(1, 6):
            assert colors[(1, a)] is Color.DOWN
        for a in range(2, 6):
            assert colors[(a, a)] is Color.UP
            assert colors[(a, a - 1)] is Color.UP

    @pytest.mark.parametrize("form", ["star", "ring"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_n_matchings_single_red_each(self, form, n):
        spec = design_w(n, form=form)
        pms = matchings(spec)
        assert len(pms) == n
        for _, colors in pms:
            assert sum(1 for c in colors if c is Color.DOWN) == 1
        assert theorem2_w_optimal_check(diagram_of_network(spec)).ok

    def test_uniform_w_state(self):
        state = normalize(assemble_network_state(design_w(4, "star")))
        kets = {"duuu", "uduu", "uudu", "uuud"}
        assert set(state.amplitudes) == kets
        for ket in kets:
            assert abs(state.amplitude(ket)) == pytest.approx(0.5, abs=1e-12)

    def test_star_and_ring_agree_in_magnitude(self):
        star = normalize(assemble_network_state(design_w(5, "star")))
        ring = normalize(assemble_network_state(design_w(5, "ring")))
        assert set(star.amplitudes) == set(ring.amplitudes)
        for ket in star.amplitudes:
            assert abs(star.amplitude(ket)) == pytest.approx(
                abs(ring.amplitude(ket)), abs=1e-12
            )

    @pytest.mark.parametrize("form", ["star", "ring"])
    def test_colored_three_vertex_basis(self, form):
        spec = design_w(3, form=form, colors="uud")
        T = {(t.source, t.detector): t.amplitude for t in spec.transitions}
        state = assemble_network_state(spec)
        # flipping happens at the hub loop, then once per two-cycle
        assert state.amplitude("dud") == pytest.approx(
            T[(1, 1)] * T[(2, 2)] * T[(3, 3)]
        )
        assert state.amplitude("udd") == pytest.approx(
            T[(2, 1)] * T[(1, 2)] * T[(3, 3)]
        )
        if form == "star":
            third = T[(3, 1)] * T[(1, 3)] * T[(2, 2)]
        else:
            third = T[(2, 1)] * T[(3, 2)] * T[(1, 3)]
        assert state.amplitude("uuu") == pytest.approx(third)

    def test_genuine_for_generic_amplitudes(self):
        for form in ("star", "ring"):
            state = normalize(assemble_network_state(design_w(5, form)))
            assert finest_partition(state) == ((1, 2, 3, 4, 5),)

    def test_rejects_tiny_n(self):
        with pytest.raises(BadLength):
            design_w(2)


class TestDicke:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matching_count_and_ket_pattern(self, n):
        spec = design_dicke2(n)
        assert len(matchings(spec)) == 1 + 2 * (n - 2) + 4 * math.comb(n - 2, 2)
        state = assemble_network_state(spec)
        assert len(state.amplitudes) == math.comb(n, 2)
        for ket in state.amplitudes:
            assert ket.count("d") == 2

    def test_preset_n4_is_flat(self):
        state = assemble_network_state(design_dicke2(4, preset="paper-n4"))
        for _, amp in state.sorted_terms():
            assert amp == pytest.approx(1 / 9, abs=1e-12)

    def test_preset_n5_is_flat(self):
        state = assemble_network_state(design_dicke2(5, preset="paper-n5"))
        assert len(state.amplitudes) == 10
        magnitudes = [abs(a) for _, a in state.sorted_terms()]
        for m in magnitudes:
            assert m == pytest.approx(magnitudes[0], abs=1e-12)
        normalized = normalize(state)
        for _, amp in normalized.sorted_terms():
            assert abs(amp) == pytest.approx(1 / math.sqrt(10), abs=1e-12)

    def test_generic_double_excitation_factorizes(self):
        rng = np.random.default_rng(97)
        overrides = {}
        spec = design_dicke2(4)
        for t in spec.transitions:
            overrides[(t.source, t.detector)] = complex(
                rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.random())
            )
        generic = design_dicke2(4, amplitudes=overrides)
        T = overrides
        state = assemble_network_state(generic)
        expected = (
            (T[(1, 3)] * T[(2, 4)] + T[(2, 3)] * T[(1, 4)])
            * (T[(3, 1)] * T[(4, 2)] + T[(3, 2)] * T[(4, 1)])
        )
        assert state.amplitude("uudd") == pytest.approx(expected)

    def test_preset_errors(self):
        with pytest.raises(NoPresetForN):
            design_dicke2(5, preset="paper-n4")
        with pytest.raises(NoPresetForN):
            design_dicke2(4, preset="paper-n7")
        with pytest.raises(BadLength):
            design_dicke2(3)


class TestCluster4:
    def test_state_matches_target(self):
        state = normalize(assemble_network_state(design_cluster4()))
        target = {"uuuu": 0.5, "uudd": 0.5, "dduu": 0.5, "dddd": -0.5}
        assert max_error_up_to_phase(state, target) <= 1e-10

    def test_three_elementary_cycles(self):
        cycles = elementary_cycles(to_directed(to_adjacency(design_cluster4())))
        assert set(cycles) == {(1, 2), (3, 4), (1, 2, 3, 4)}

    def test_passes_necessary_conditions(self):
        report = theorem1_check(diagram_of_network(design_cluster4()))
        assert report.verdict is Verdict.MAY_BE_GENUINE


class TestTritter:
    def test_unitary_and_six_matchings(self):
        spec = preset_tritter()
        w = to_adjacency(spec).weights
        assert np.max(np.abs(w @ w.conj().T - np.eye(3))) <= 1e-9
        assert len(matchings(spec)) == 6

    def test_uniform_w_with_probability_one_ninth(self):
        state = normalize(assemble_network_state(preset_tritter()))
        assert state.postselect_probability == pytest.approx(1 / 9, abs=1e-12)
        t = 1 / math.sqrt(3)
        uniform = {"uud": t, "udu": t, "duu": t}
        assert max_error_up_to_phase(state, uniform) <= 1e-12


class TestBeamSplitter:
    def test_balanced_crossing_is_maximally_entangled(self):
        h = 1 / math.sqrt(2)
        state = normalize(assemble_network_state(preset_beamsplitter(h, h, h, h)))
        assert concurrence(state) == pytest.approx(1.0)

    def test_no_spatial_coherence_is_separable(self):
        h = 1 / math.sqrt(2)
        spec = preset_beamsplitter(1.0, 0.0, h, h)
        assert len(matchings(spec)) == 1
        state = normalize(assemble_network_state(spec))
        assert set(state.amplitudes) == {"uu"}
        assert concurrence(state) == pytest.approx(0.0)

    def test_fermion_relative_sign(self):
        h = 1 / math.sqrt(2)
        boson = assemble_network_state(preset_beamsplitter(h, h, h, h))
        fermion = assemble_network_state(
            preset_beamsplitter(h, h, h, h, Statistics.FERMION)
        )
        assert fermion.amplitude("uu") == pytest.approx(boson.amplitude("uu"))
        assert fermion.amplitude("dd") == pytest.approx(-boson.amplitude("dd"))

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(RowNotNormalized):
            preset_beamsplitter(0.9, 0.1, 1.0, 0.0)


class TestColorVector:
    def test_parsing(self):
        assert color_vector("ud", 2) == (Color.UP, Color.DOWN)
        assert color_vector(None, 3) == (Color.UP,) * 3
        assert color_vector([Color.DOWN, "u"], 2) == (Color.DOWN, Color.UP)
        with pytest.raises(BadLength):
            color_vector("ud", 3)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: design_ghz(4),
        lambda: design_ghz(3, colors="dud"),
        lambda: design_w(5, "star"),
        lambda: design_w(5, "ring"),
        lambda: design_dicke2(4, preset="paper-n4"),
        lambda: design_dicke2(5, preset="paper-n5"),
        lambda: design_cluster4(),
        lambda: preset_tritter(),
    ],
)
def test_designer_serialization_roundtrip(factory):
    spec = factory()
    again = parse_network(serialize_network(spec))
    assert again == spec
    diff = max_amplitude_difference(
        assemble_network_state(spec), assemble_network_state(again)
    )
    assert diff == 0.0
