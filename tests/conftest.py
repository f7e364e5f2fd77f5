"""Shared helpers: deterministic random networks and brute-force references."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from lqngraph.entanglement import SV_TOL
from lqngraph.graphs import walk_matchings
from lqngraph.model import Color, NetworkSpec, Statistics, Transition, validate_network
from lqngraph.states import NoBunchState

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


@st.composite
def networks(draw, min_n=1, max_n=7, modes=("design",)):
    """Networks of every density, boson or fermion, in one of ``modes``.

    A strict-mode network gives each empty row one edge and scales every
    row to unit norm.
    """
    n = draw(st.integers(min_n, max_n), label="n")
    statistics = draw(st.sampled_from(["boson", "fermion"]))
    mode = draw(st.sampled_from(modes))
    density = draw(st.sampled_from([0.2, 0.45, 0.7, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    edges = [
        (a, j, complex(*rng.uniform(-1.5, 1.5, 2)), "ud"[rng.integers(0, 2)])
        for a in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < density
    ]
    if mode == "strict":
        rows = [0.0] * (n + 1)
        for a, _, amp, _ in edges:
            rows[a] += abs(amp) ** 2
        for a in range(1, n + 1):
            if not rows[a]:
                edges.append((a, int(rng.integers(1, n + 1)), 1.0, "u"))
                rows[a] = 1.0
        edges = [(a, j, amp / rows[a] ** 0.5, c) for a, j, amp, c in edges]
    return validate_network(n, statistics, edges, mode)


def matchings(spec: NetworkSpec) -> list[tuple[tuple[int, ...], tuple[Color, ...]]]:
    """(assignment, colors by particle) of every perfect matching, lexicographic."""
    return [
        (tuple(assignment), tuple(Color(ket[j - 1]) for j in assignment))
        for assignment, ket, _, _ in walk_matchings(spec)
    ]


def random_network_with_pm(
    rng: np.random.Generator, n: int, statistics: Statistics | None = None
) -> NetworkSpec:
    while True:
        spec = random_network(rng, n, statistics)
        if next(walk_matchings(spec), None) is not None:
            return spec


def generic_amplitudes(spec: NetworkSpec, rng: random.Random) -> NetworkSpec:
    """Redraw amplitudes generically in floats, keeping everything else of ``spec``.

    The float reference for ``build_report``'s exact numeric route. Per
    transition, in spec order, two ``rng.random()`` draws give a magnitude
    0.3 + 0.7u in [0.3, 1] and then a phase 2πu, and each row is then
    normalized, which avoids both accidental cancellations and accidental
    product structure beyond what the topology forces.
    """
    transitions = spec.transitions
    drawn = [
        cmath.rect(0.3 + 0.7 * rng.random(), 2.0 * math.pi * rng.random())
        for _ in transitions
    ]
    row_norm = [0.0] * spec.n
    for t, amp in zip(transitions, drawn):
        row_norm[t.source - 1] += abs(amp) ** 2
    transitions = tuple(
        Transition(t.source, t.detector, amp / row_norm[t.source - 1] ** 0.5, t.color)
        for t, amp in zip(transitions, drawn)
    )
    return NetworkSpec(spec.n, spec.statistics, transitions, spec.normalization_mode)


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


def brute_force_cycles(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """All elementary cycles (length >= 2) of the digraph w_a → w_j per
    transition a → X_j, by scanning vertex orderings."""
    edges = {(t.source, t.detector) for t in spec.transitions}
    found = set()
    vertices = range(1, spec.n + 1)
    for k in range(2, spec.n + 1):
        for subset in itertools.combinations(vertices, k):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cycle = (first,) + rest
                if all(
                    (cycle[i], cycle[(i + 1) % k]) in edges for i in range(k)
                ):
                    found.add(cycle)
    return sorted(found)


def _reference_tensor(state: NoBunchState) -> np.ndarray:
    """Amplitudes as a (2,)*n tensor; axis j-1 = detector X_j, 0=up, 1=down."""
    tensor = np.zeros((2,) * state.n, dtype=complex)
    for ket, amp in state.amplitudes.items():
        tensor[tuple(0 if ch == "u" else 1 for ch in ket)] = amp
    return tensor


def _reference_rank_across(tensor: np.ndarray, axes: tuple[int, ...]):
    """``(rank, left, right)`` across ``axes`` from one SVD of one matrix:
    the leading factors, whose outer product is the tensor at rank 1."""
    m = tensor.ndim
    rest = tuple(i for i in range(m) if i not in axes)
    mat = np.transpose(tensor, axes + rest).reshape(2 ** len(axes), 2 ** len(rest))
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    top = s[0]
    rank = int(np.sum(s > SV_TOL * top)) if top > 0 else 0
    left = (u[:, 0] * s[0]).reshape((2,) * len(axes))
    right = vh[0, :].reshape((2,) * len(rest))
    return rank, left, right


def reference_schmidt_rank(state: NoBunchState, subset) -> int:
    """Schmidt rank across the detectors ``subset`` (1-based), one SVD."""
    axes = tuple(d - 1 for d in sorted(subset))
    return _reference_rank_across(_reference_tensor(state), axes)[0]


def reference_finest_partition(state: NoBunchState) -> tuple[tuple[int, ...], ...]:
    """Finest product partition by a sequential search, one SVD per cut.

    Cuts are tried smallest first in ``itertools.combinations`` order,
    half cuts only with axis 0, and the state splits on the first rank-1
    cut into the factors that cut's SVD gives.
    """
    blocks = []

    def split(detectors, tensor):
        m = len(detectors)
        for size in range(1, m // 2 + 1):
            for axes in itertools.combinations(range(m), size):
                if 2 * size == m and 0 not in axes:
                    continue
                rank, left, right = _reference_rank_across(tensor, axes)
                if rank == 1:
                    split(tuple(detectors[i] for i in axes), left)
                    split(tuple(detectors[i] for i in range(m) if i not in axes), right)
                    return
        blocks.append(detectors)

    split(tuple(range(1, state.n + 1)), _reference_tensor(state))
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@st.composite
def planted_product_states(draw, max_n=8):
    """``(state, planted partition)``: a tensor product of planted factors.

    The detectors 1..n are split into random blocks. A block is a
    single-detector factor (a basis state or a generic one), an exact
    product of generic single-detector states, or, from two detectors
    up, a generic factor: magnitudes in [0.3, 1] and uniform phases on
    every ket, which is entangled across each of its cuts. The planted
    partition is the finest one: a product factor counts as singletons.
    """
    n = draw(st.integers(1, max_n), label="n")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    order = [int(d) for d in rng.permutation(np.arange(1, n + 1))]
    blocks, factors, planted = [], [], []
    while order:
        size = draw(st.integers(1, min(4, len(order))), label="block size")
        block, order = order[:size], order[size:]
        kind = draw(st.sampled_from(["generic", "product", "basis"]), label="kind")
        if size == 1 and kind == "basis":
            factor = np.zeros(2, dtype=complex)
            factor[int(rng.integers(0, 2))] = 1.0
        elif size == 1 or kind == "generic":
            factor = rng.uniform(0.3, 1.0, 2**size) * np.exp(2j * np.pi * rng.random(2**size))
        else:
            factor = np.ones(1, dtype=complex)
            for _ in block:
                one = rng.uniform(0.3, 1.0, 2) * np.exp(2j * np.pi * rng.random(2))
                factor = np.kron(factor, one)
        blocks.extend(block)
        factors.append(factor)
        if size == 1 or kind == "generic":
            planted.append(tuple(sorted(block)))
        else:
            planted.extend((d,) for d in block)
    vector = np.ones(1, dtype=complex)
    for factor in factors:
        vector = np.kron(vector, factor)
    # axis i of the product tensor is detector blocks[i]; put X_1..X_n in order
    tensor = np.transpose(vector.reshape((2,) * n), np.argsort(blocks))
    amplitudes = {
        "".join("ud"[b] for b in idx): complex(tensor[idx])
        for idx in itertools.product((0, 1), repeat=n)
        if tensor[idx] != 0
    }
    return NoBunchState(n, amplitudes), tuple(sorted(planted))
