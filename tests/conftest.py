"""Shared helpers: deterministic random networks and brute-force references."""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from lqngraph.graphs import DirectedView, walk_matchings
from lqngraph.model import Color, NetworkSpec, Statistics, validate_network

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def random_network(
    rng: np.random.Generator,
    n: int,
    statistics: Statistics | None = None,
    edge_prob: float = 0.6,
) -> NetworkSpec:
    """Strict-mode network with random sparsity, amplitudes and colors."""
    if statistics is None:
        statistics = Statistics.BOSON if rng.random() < 0.5 else Statistics.FERMION
    edges = []
    for a in range(1, n + 1):
        cols = [j for j in range(1, n + 1) if rng.random() < edge_prob]
        if not cols:
            cols = [int(rng.integers(1, n + 1))]
        amps = rng.uniform(0.3, 1.0, len(cols)) * np.exp(
            2j * np.pi * rng.random(len(cols))
        )
        amps /= np.linalg.norm(amps)
        for j, amp in zip(cols, amps):
            color = "u" if rng.random() < 0.5 else "d"
            edges.append((a, j, complex(amp), color))
    return validate_network(n, statistics, edges, "strict")


def matchings(spec: NetworkSpec) -> list[tuple[tuple[int, ...], tuple[Color, ...]]]:
    """(assignment, colors by particle) of every perfect matching, lexicographic."""
    edges = ((t.source, t.detector, t.amplitude, t.color) for t in spec.transitions)
    return [
        (tuple(assignment), tuple(tags[j - 1] for j in assignment))
        for assignment, tags, _, _ in walk_matchings(spec.n, edges)
    ]


def random_network_with_pm(
    rng: np.random.Generator, n: int, statistics: Statistics | None = None
) -> NetworkSpec:
    while True:
        spec = random_network(rng, n, statistics)
        edges = ((t.source, t.detector, t.amplitude, None) for t in spec.transitions)
        if next(walk_matchings(n, edges), None) is not None:
            return spec


def max_error_up_to_phase(state, target: dict) -> float:
    """Largest amplitude deviation after aligning the global phase."""
    overlap = sum(v.conjugate() * state.amplitude(k) for k, v in target.items())
    if overlap == 0:
        return math.inf
    phase = overlap / abs(overlap)
    keys = set(state.amplitudes) | set(target)
    return max(abs(state.amplitude(k) / phase - target.get(k, 0)) for k in keys)


def brute_force_assignments(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """All perfect matchings by scanning every permutation."""
    present = {(t.source, t.detector) for t in spec.transitions}
    out = []
    for perm in itertools.permutations(range(1, spec.n + 1)):
        if all((a, j) in present for a, j in enumerate(perm, start=1)):
            out.append(perm)
    return out


# 14-edge, five-detector example: row 2 fans out everywhere but only its
# (2, X2) and (2, X5) edges can ever be matched.
N5_EDGES = (
    (1, 1, "d"), (1, 4, "d"),
    (2, 1, "d"), (2, 2, "d"), (2, 3, "d"), (2, 4, "d"), (2, 5, "d"),
    (3, 1, "u"), (3, 3, "u"),
    (4, 1, "u"), (4, 3, "u"), (4, 4, "u"),
    (5, 2, "u"), (5, 5, "u"),
)

N5_DEAD_EDGES = {(2, 1), (2, 3), (2, 4)}


def n5_network(
    rng: np.random.Generator | None = None,
    statistics: Statistics = Statistics.BOSON,
) -> NetworkSpec:
    """The five-detector example with generic row-normalized amplitudes."""
    rng = rng or np.random.default_rng(2024)
    rowsum: dict[int, float] = {}
    amps = []
    for a, j, _ in N5_EDGES:
        z = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.random())
        amps.append(z)
        rowsum[a] = rowsum.get(a, 0.0) + abs(z) ** 2
    edges = [
        (a, j, z / math.sqrt(rowsum[a]), c)
        for (a, j, c), z in zip(N5_EDGES, amps)
    ]
    return validate_network(5, statistics, edges, "strict")


def superposed_subsystem_network() -> NetworkSpec:
    """Three-vertex network passing the structural genuineness conditions
    while its amplitudes put detector X1 in a separable superposed state."""
    t = 1 / math.sqrt(3)
    h = 1 / math.sqrt(2)
    edges = [
        (1, 1, t, "u"), (1, 2, t, "u"), (1, 3, t, "u"),
        (2, 1, t, "d"), (2, 2, t, "u"), (2, 3, t, "u"),
        (3, 2, h, "d"), (3, 3, h, "d"),
    ]
    return validate_network(3, Statistics.BOSON, edges, "strict")


def brute_force_cycles(view: DirectedView) -> list[tuple[int, ...]]:
    """All elementary cycles (length >= 2) by scanning vertex orderings."""
    edges = {(e.tail, e.head) for e in view.edges}
    found = set()
    vertices = range(1, view.n + 1)
    for k in range(2, view.n + 1):
        for subset in itertools.combinations(vertices, k):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cycle = (first,) + rest
                if all(
                    (cycle[i], cycle[(i + 1) % k]) in edges for i in range(k)
                ):
                    found.add(cycle)
    return sorted(found)
