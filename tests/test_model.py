"""Core model: validation, adjacency mapping, library argument errors."""

import cmath
import math

import numpy as np
import pytest

from lqngraph.designers import (
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from lqngraph.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidArgument,
    RowNotNormalized,
    ZeroAmplitude,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.io import DotRenderOptions, View, export_dot
from lqngraph.model import Color, to_adjacency, validate_network
from lqngraph.states import NoBunchState

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


class TestToAdjacency:
    def test_beamsplitter_matrices(self):
        a1, b1, a2, b2 = BS_AMPS
        adj = to_adjacency(validate_network(2, "boson", beamsplitter_edges(), "strict"))
        assert np.allclose(adj.weights, [[a1, b1], [a2, b2]])
        assert adj.colors[0, 0] is Color.UP and adj.colors[0, 1] is Color.DOWN
        assert adj.colors[1, 0] is Color.DOWN and adj.colors[1, 1] is Color.UP

    def test_identity_network_is_diagonal(self):
        spec = validate_network(
            3, "boson", [(a, a, 1.0, "up") for a in (1, 2, 3)], "strict"
        )
        adj = to_adjacency(spec)
        assert np.allclose(adj.weights, np.eye(3))
        assert all(adj.colors[i, i] is Color.UP for i in range(3))
        assert all(
            adj.colors[i, j] is None for i in range(3) for j in range(3) if i != j
        )

    def test_tritter_matrix(self):
        w = cmath.exp(2j * math.pi / 3)
        expected = np.array([[1, w, w**2], [w, 1, w**2], [1, 1, 1]]) / math.sqrt(3)
        adj = to_adjacency(preset_tritter())
        assert np.allclose(adj.weights, expected)
        for j in range(3):
            assert adj.colors[0, j] is Color.UP
            assert adj.colors[1, j] is Color.UP
            assert adj.colors[2, j] is Color.DOWN


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
        lambda: design_w(3, form="tri"),
        lambda: design_dicke2(4, preset="paper-n4", amplitudes={(1, 1): 1.0}),
        lambda: design_ghz(3, amplitudes={(1, 3): 1.0}),
        lambda: export_dot(
            diagram_of_network(preset_tritter()), DotRenderOptions(view=View.BIPARTITE)
        ),
    ],
    ids=[
        "color",
        "statistics",
        "mode",
        "ket",
        "w-form",
        "dicke-preset-and-amplitudes",
        "override-on-absent-edge",
        "dot-view-of-diagram",
    ],
)
def test_bad_argument_is_invalid_argument(call):
    # an LQNError, so callers can tell bad input from a bug; still a ValueError
    with pytest.raises(InvalidArgument):
        call()
