"""Core model: validation, the directed edge view, library argument errors,
and the records as named tuples."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lqngraph.designers import (
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from lqngraph.entanglement import Bipartition
from lqngraph.errors import (
    DimensionMismatch,
    DuplicateEdge,
    IndexOutOfRange,
    InvalidArgument,
    NonFiniteValue,
    RowNotNormalized,
    ZeroAmplitude,
)
from lqngraph.io import DotRenderOptions, View
from lqngraph.model import Color, Transition, validate_network
from lqngraph.states import NoBunchState

from conftest import networks

BS_AMPS = (0.6, 0.8j, 1 / math.sqrt(2), -1 / math.sqrt(2))


def beamsplitter_edges(a1=BS_AMPS[0], b1=BS_AMPS[1], a2=BS_AMPS[2], b2=BS_AMPS[3]):
    return [
        (1, 1, a1, "up"),
        (1, 2, b1, "down"),
        (2, 1, a2, "down"),
        (2, 2, b2, "up"),
    ]


class TestValidateNetwork:
    def test_accepts_normalized_beamsplitter(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            phi = rng.uniform(0, 2 * np.pi, 4)
            th1, th2 = rng.uniform(0, np.pi / 2, 2)
            a1, b1 = np.cos(th1) * np.exp(1j * phi[0]), np.sin(th1) * np.exp(1j * phi[1])
            a2, b2 = np.cos(th2) * np.exp(1j * phi[2]), np.sin(th2) * np.exp(1j * phi[3])
            spec = validate_network(
                2, "boson", beamsplitter_edges(a1, b1, a2, b2), "strict"
            )
            assert spec.n == 2

    def test_accepts_identity_single_particle(self):
        spec = validate_network(1, "boson", [(1, 1, 1.0, "up")], "strict")
        assert spec.transitions[0].color is Color.UP

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            validate_network(
                2, "boson", [(1, 1, 0.6, "up"), (1, 1, 0.8, "down")], "design"
            )

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(IndexOutOfRange):
            validate_network(2, "boson", [(1, 3, 1.0, "up")], "design")
        with pytest.raises(IndexOutOfRange):
            validate_network(0, "boson", [], "design")

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ZeroAmplitude):
            validate_network(1, "boson", [(1, 1, 0.0, "up")], "design")

    def test_strict_rejects_unnormalized_row(self):
        with pytest.raises(RowNotNormalized) as info:
            validate_network(1, "boson", [(1, 1, 0.9, "up")], "strict")
        assert info.value.row == 1
        assert info.value.actual_sum == pytest.approx(0.81)

    def test_design_mode_skips_row_check(self):
        spec = validate_network(1, "boson", [(1, 1, 0.9, "up")], "design")
        assert spec.n == 1

    def test_strict_accepts_designer_presets(self):
        # presets whose rows are exactly normalized must pass strict checks
        assert preset_tritter().n == 3
        assert design_dicke2(4, preset="paper-n4").n == 4


def matrices_of(spec):
    """Weight and color matrices read back from the edges w_a → w_j."""
    weights = np.zeros((spec.n, spec.n), dtype=complex)
    colors = np.full((spec.n, spec.n), None, dtype=object)
    for t in spec.transitions:
        weights[t.source - 1, t.detector - 1] = t.amplitude
        colors[t.source - 1, t.detector - 1] = t.color
    return weights, colors


class TestDirectedEdges:
    def test_beamsplitter_matrices(self):
        a1, b1, a2, b2 = BS_AMPS
        weights, colors = matrices_of(
            validate_network(2, "boson", beamsplitter_edges(), "strict")
        )
        assert np.allclose(weights, [[a1, b1], [a2, b2]])
        assert colors[0, 0] is Color.UP and colors[0, 1] is Color.DOWN
        assert colors[1, 0] is Color.DOWN and colors[1, 1] is Color.UP

    def test_identity_network_is_diagonal(self):
        spec = validate_network(
            3, "boson", [(a, a, 1.0, "up") for a in (1, 2, 3)], "strict"
        )
        weights, colors = matrices_of(spec)
        assert np.allclose(weights, np.eye(3))
        assert all(colors[i, i] is Color.UP for i in range(3))
        assert all(
            colors[i, j] is None for i in range(3) for j in range(3) if i != j
        )

    def test_tritter_matrix(self):
        w = cmath.exp(2j * math.pi / 3)
        expected = np.array([[1, w, w**2], [w, 1, w**2], [1, 1, 1]]) / math.sqrt(3)
        weights, colors = matrices_of(preset_tritter())
        assert np.allclose(weights, expected)
        for j in range(3):
            assert colors[0, j] is Color.UP
            assert colors[1, j] is Color.UP
            assert colors[2, j] is Color.DOWN


def test_beamsplitter_preset_drops_zero_edges():
    spec = preset_beamsplitter(1.0, 0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert {(t.source, t.detector) for t in spec.transitions} == {(1, 1), (2, 1), (2, 2)}


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "x")], "design"),
        lambda: validate_network(1, "anyon", [(1, 1, 1.0, "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "up")], "loose"),
        lambda: NoBunchState(2, {"ux": 1.0}),
        lambda: NoBunchState(2.5, {}),
        lambda: NoBunchState(2, {"ud": "x"}),
        lambda: NoBunchState(2, {5: 1.0}),
        lambda: NoBunchState(-1, {}),
        lambda: NoBunchState(0, {"": 1.0}),
        lambda: design_w(3, form="tri"),
        lambda: design_dicke2(4, preset="paper-n4", amplitudes={(1, 1): 1.0}),
        lambda: design_dicke2(4, amplitudes={(1, 2): 1.0}),
        lambda: validate_network(1, "boson", [(1, 1, "x", "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, None, "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, "1", "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, True, "up")], "strict"),
        lambda: validate_network(1, "boson", [(1, 1, 1.0)], "design"),
        lambda: design_dicke2(4, amplitudes={(1, 1): "x"}),
        lambda: design_dicke2(4, amplitudes={(1, 1): None}),
        lambda: preset_beamsplitter("x", 1, 1, 1),
        lambda: preset_beamsplitter(None, 1, 1, 1),
        lambda: design_ghz(3, colors=123),
        lambda: validate_network(1, "boson", 5, "design"),
        lambda: validate_network(1, "boson", None, "strict"),
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "up")], "strict", row_tol="x"),
        lambda: validate_network(1, "boson", [(1, 1, 5.0, "up")], "strict", row_tol=math.nan),
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "up")], "strict", row_tol=-1),
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "up")], "strict", row_tol=math.inf),
        lambda: validate_network(1, "boson", [(1, 1, 1.0, "up")], "design", row_tol=None),
    ],
    ids=[
        "color",
        "statistics",
        "mode",
        "ket",
        "state-n-float",
        "amplitude-not-a-number",
        "ket-not-a-string",
        "state-n-negative",
        "state-n-zero",
        "w-form",
        "dicke-preset-and-amplitudes",
        "override-on-absent-edge",
        "edge-amplitude-string",
        "edge-amplitude-none",
        "edge-amplitude-numeric-string",
        "edge-amplitude-bool",
        "edge-of-three-items",
        "dicke-override-string",
        "dicke-override-none",
        "beamsplitter-string",
        "beamsplitter-none",
        "ghz-colors-not-iterable",
        "transitions-not-iterable",
        "transitions-none",
        "row-tol-string",
        "row-tol-nan",
        "row-tol-negative",
        "row-tol-inf",
        "row-tol-none-in-design-mode",
    ],
)
def test_bad_argument_is_invalid_argument(call):
    # an LQNError, so callers can tell bad input from a bug; still a ValueError
    with pytest.raises(InvalidArgument):
        call()


@pytest.mark.parametrize(
    "amp", [math.inf, complex(0, math.nan), 10**400], ids=["inf", "nan", "int-beyond-float"]
)
def test_amplitude_that_is_not_a_finite_float_is_refused(amp):
    # 10**400 is an int no float holds: refused as non-finite, not raised bare
    with pytest.raises(NonFiniteValue):
        validate_network(1, "boson", [(1, 1, amp, "up")], "design")


@pytest.mark.parametrize("amp", [1e200, complex(1e308, 1e308)])
def test_strict_row_whose_square_overflows_is_not_normalized(amp):
    with pytest.raises(RowNotNormalized) as info:
        validate_network(2, "boson", [(1, 1, 1.0, "up"), (2, 2, amp, "up")], "strict")
    assert info.value.row == 2
    assert info.value.actual_sum == math.inf


@pytest.mark.parametrize(
    "transitions, row", [([], 1), ([(1, 1, 1.0, "up")], 2)], ids=["no-edges", "row-1-only"]
)
def test_strict_check_on_huge_n_stops_at_first_empty_row(transitions, row):
    with pytest.raises(RowNotNormalized) as info:
        validate_network(10**20, "boson", transitions, "strict")
    assert info.value.row == row
    assert info.value.actual_sum == 0.0


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.floats(0.1, 1.2)),
        max_size=12,
        unique_by=lambda e: e[:2],
    ),
    st.sampled_from([1e-9, 0.5, 1.0, 2.0]),
)
def test_strict_check_reports_the_lowest_failing_row(edges, row_tol):
    sums = [0.0] * 5
    for a, _, amp in edges:
        sums[a - 1] += amp**2
    failing = [a for a, s in enumerate(sums, start=1) if abs(s - 1.0) > row_tol]
    transitions = [(a, j, amp, "up") for a, j, amp in edges]
    if not failing:
        assert validate_network(5, "boson", transitions, "strict", row_tol=row_tol).n == 5
        return
    with pytest.raises(RowNotNormalized) as info:
        validate_network(5, "boson", transitions, "strict", row_tol=row_tol)
    assert (info.value.row, info.value.actual_sum) == (failing[0], sums[failing[0] - 1])


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_n=8, modes=("design", "strict")))
def test_spec_fields_validate_back_to_the_spec(spec):
    # a Transition is the (source, detector, amplitude, color) edge itself
    again = validate_network(spec.n, spec.statistics, spec.transitions, spec.normalization_mode)
    assert again == spec
    assert validate_network(*spec) == spec


CUT = Bipartition(frozenset({1}), 3)
STATE = NoBunchState(2, {"ud": 1.0})
OPTS = DotRenderOptions()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Bipartition(frozenset({4}), 3), DimensionMismatch),
        (lambda: CUT._replace(n=1), DimensionMismatch),
        (lambda: Bipartition._make([frozenset({1}), "3"]), IndexOutOfRange),
        (lambda: NoBunchState(2, {"ud": 1.0}, "yes"), InvalidArgument),
        (lambda: STATE._replace(amplitudes={"udu": 1.0}), InvalidArgument),
        (lambda: NoBunchState._make([2, {"ud": math.nan}]), NonFiniteValue),
        (lambda: DotRenderOptions("bipartite"), InvalidArgument),
        (lambda: OPTS._replace(view="directed"), InvalidArgument),
        (lambda: DotRenderOptions._make(["pm_diagram", False, None]), InvalidArgument),
    ],
    ids=[
        "cut-new",
        "cut-replace",
        "cut-make",
        "state-new",
        "state-replace",
        "state-make",
        "dot-new",
        "dot-replace",
        "dot-make",
    ],
)
def test_every_way_to_build_a_checked_record_checks(build, error):
    with pytest.raises(error):
        build()


def test_checked_records_coerce_through_replace_and_make():
    # a set is kept as a frozenset, however the cut is built
    assert type(CUT._replace(subset={2, 3}).subset) is frozenset
    assert Bipartition._make([{1, 2}, 3]) == Bipartition(frozenset({1, 2}), 3)
    assert STATE._replace(normalized=True).normalized is True
    opts = DotRenderOptions(View.DIRECTED, True, 0)
    assert DotRenderOptions._make([View.DIRECTED, True, 0]) == opts


def test_records_are_immutable_tuples():
    t = Transition(1, 2, 0.5j, Color.UP)
    assert tuple(t) == (1, 2, 0.5j, Color.UP) and t[2] == 0.5j
    assert t._replace(detector=3) == (1, 3, 0.5j, Color.UP)
    with pytest.raises(AttributeError):
        t.source = 2
    with pytest.raises(AttributeError):
        STATE.n = 3
