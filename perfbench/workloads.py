"""Workload generators: network files plus the answer each op must give.

Every input is drawn from ``numpy.random.default_rng([seed, workload])``,
so one seed always yields byte-identical files. Expected answers are
computed here without calling lqngraph: a permutation sum for the dense
unitaries, closed forms for the designer rings, and the planted block
structure for the block unions. ``lqngraph.designers`` only builds the
ring and block inputs.

An ``Op`` holds the ``argv`` passed to ``cli_main``, the ``expected`` value
passed to ``check.check_output``, the input's n and a label. A pass is the
ordered op list that a run repeats whole.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expected: dict
    n: int
    label: str


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    #: per-op time limit in seconds; a longer op fails (PAR-2 scoring)
    limit_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-unitary", 15.0),
        Workload("sparse-rings", 20.0),
        Workload("block-analyze", 2.0),
    )
}

_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def _edge(a: int, j: int, amp: complex, color: str) -> dict:
    return {
        "from": a,
        "to": j,
        "amp": {"re": float(amp.real), "im": float(amp.imag)},
        "color": color,
    }


def _write(path: Path, n: int, statistics: str, edges: list[dict]) -> str:
    doc = {"version": 1, "n": n, "statistics": statistics, "mode": "strict", "edges": edges}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _color_name(c) -> str:
    return "up" if c.value == "u" else "down"


# --------------------------------------------------------------------------
# dense-unitary


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def permutation_sum(weights: np.ndarray, down: np.ndarray, fermion: bool) -> dict[str, complex]:
    """Unnormalized no-bunching state by summing over all n! assignments.

    Permutation sigma sends particle a to detector sigma(a); detector j's
    character is the color of the edge that reaches it ('d' where ``down``
    is set). Fermionic terms carry the parity of sigma.
    """
    n = weights.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    rows = np.arange(n)
    terms = np.prod(weights[rows, perms], axis=1)
    if fermion:
        inversions = np.zeros(len(perms), dtype=np.int64)
        for i in range(n):
            for k in range(i + 1, n):
                inversions += perms[:, i] > perms[:, k]
        terms = np.where(inversions % 2 == 1, -terms, terms)
    bits = down[rows, perms].astype(np.int64)  # bit of the detector each particle hits
    codes = np.sum(bits << (n - 1 - perms), axis=1)
    re = np.bincount(codes, weights=terms.real, minlength=2**n)
    im = np.bincount(codes, weights=terms.imag, minlength=2**n)
    state = {}
    for code in np.flatnonzero((re != 0) | (im != 0)):
        ket = format(int(code), f"0{n}b").replace("0", "u").replace("1", "d")
        state[ket] = complex(re[code], im[code])
    return state


def normalized(state: dict[str, complex]) -> tuple[dict[str, complex], float]:
    norm_sq = sum(abs(v) ** 2 for v in state.values())
    scale = norm_sq**-0.5
    return {k: v * scale for k, v in state.items()}, norm_sq


def _dense(rng: np.random.Generator, seed: int, out: Path) -> list[Op]:
    # One n=8 per pass adds the 40,320-matching case without filling the
    # run. With 5 n=6 and 8 n=7 (4 boson, 4 fermion) per pass, the median
    # lands mid-way in the n=7 bosons and the 11th-largest time mid-way in
    # the n=7 fermions, not on a group boundary, for three to five passes.
    sizes = [6] * 5 + [7] * 8 + [8]
    ops = []
    for i, n in enumerate(sizes):
        fermion = (i + seed) % 2 == 1
        u = haar_unitary(rng, n)
        down = rng.integers(0, 2, (n, n)).astype(bool)
        edges = [
            _edge(a + 1, j + 1, complex(u[a, j]), "down" if down[a, j] else "up")
            for a in range(n)
            for j in range(n)
        ]
        stats = "fermion" if fermion else "boson"
        path = _write(out / f"dense-{i:02d}-n{n}.json", n, stats, edges)
        # the reference reads the amplitudes back as written, bit for bit
        weights = np.array(
            [[complex(e["amp"]["re"], e["amp"]["im"]) for e in edges[a * n:(a + 1) * n]]
             for a in range(n)]
        )
        amps, norm_sq = normalized(permutation_sum(weights, down, fermion))
        ops.append(Op(
            ("compute", path, "--json"),
            {"kind": "state", "n": n, "amps": amps, "norm_sq": norm_sq},
            n,
            f"dense n={n} {stats}",
        ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------------------
# sparse-rings

SPARSE_SIZES = (64, 128, 256, 512, 1024, 2048)
SPARSE_FAMILIES = ("ghz", "w-ring", "w-star")


def _flip(ket: str, positions) -> str:
    chars = list(ket)
    for p in positions:
        chars[p] = "d" if chars[p] == "u" else "u"
    return "".join(chars)


def _sparse(rng: np.random.Generator, seed: int, out: Path) -> list[Op]:
    from lqngraph import designers

    ops = []
    for ni, n in enumerate(SPARSE_SIZES):
        for fi, family in enumerate(SPARSE_FAMILIES):
            # alternate default and random color vectors over the grid
            if (ni + fi + seed) % 2 == 0:
                colors = None
                c = "u" * n
            else:
                c = "".join("ud"[b] for b in rng.integers(0, 2, n))
                colors = c
            if family == "ghz":
                spec = designers.design_ghz(n, colors=colors)
                amps = {c: 2**-0.5, _flip(c, range(n)): 2**-0.5}
                norm_sq = 2.0 * 2.0**-n
            else:
                spec = designers.design_w(n, form=family[2:], colors=colors)
                amps = {_flip(c, [k]): n**-0.5 for k in range(n)}
                norm_sq = 2.0 ** -(n - 1)
            edges = [
                _edge(t.source, t.detector, t.amplitude, _color_name(t.color))
                for t in spec.transitions
            ]
            tag = "default" if colors is None else "random"
            path = _write(out / f"{family}-n{n}-{tag}.json", n, "boson", edges)
            label = f"{family} n={n} {tag}"
            ops.append(Op(
                ("compute", path, "--json"),
                {"kind": "state", "n": n, "amps": amps, "norm_sq": norm_sq},
                n,
                "compute " + label,
            ))
            ops.append(Op(
                ("analyze", path, "--json"),
                {
                    "kind": "report",
                    "n": n,
                    "blocks": [list(range(1, n + 1))],
                    "pinned": [],
                    "numeric": None,
                },
                n,
                "analyze " + label,
            ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------------------
# block-analyze

# Block plans per n, the same for every seed, so the mix of block kinds
# (and with it the op cost) does not move with the seed. The seed draws the
# colors, amplitudes, cross edges, statistics and the --numeric seed.
PLANS = {
    6: ("w-star:3 ghz:3", "dicke2:4 ghz:2", "cluster4:4 single:1 single:1", "w-ring:4 ghz:2"),
    7: ("cluster4:4 w-star:3", "dicke2:5 ghz:2", "w-ring:3 ghz:4", "ghz:3 w-star:3 single:1"),
    8: ("dicke2:4 cluster4:4", "w-ring:4 w-star:4", "ghz:2 ghz:3 w-ring:3", "dicke2:5 ghz:2 single:1"),
    9: ("dicke2:5 cluster4:4", "ghz:4 w-star:3 ghz:2", "w-ring:4 w-star:4 single:1",
        "cluster4:4 ghz:3 single:1 single:1"),
    10: ("dicke2:5 w-ring:4 single:1", "cluster4:4 w-star:3 ghz:3", "ghz:2 ghz:2 ghz:2 w-star:4",
         "dicke2:4 w-ring:3 ghz:3"),
}


def _block_edges(kind: str, size: int, rng: np.random.Generator):
    """(a, j, amp, color) edges of one block in local 1-based labels."""
    from lqngraph import designers

    if kind == "single":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return [(1, 1, complex(math.cos(phase), math.sin(phase)), "ud"[rng.integers(0, 2)])]
    colors = "".join("ud"[b] for b in rng.integers(0, 2, size))
    if kind == "ghz":
        spec = designers.design_ghz(size, colors=colors)
    elif kind in ("w-star", "w-ring"):
        spec = designers.design_w(size, form=kind[2:], colors=colors)
    elif kind == "dicke2":
        spec = designers.design_dicke2(size)
    else:
        spec = designers.design_cluster4()
    return [(t.source, t.detector, t.amplitude, t.color.value) for t in spec.transitions]


def _block_union(rng: np.random.Generator, plan: str):
    blocks, edges, offset = [], [], 0
    for kind, size in (item.split(":") for item in plan.split()):
        size = int(size)
        for a, j, amp, color in _block_edges(kind, size, rng):
            edges.append([a + offset, j + offset, complex(amp), color])
        blocks.append((kind, list(range(offset + 1, offset + size + 1))))
        offset += size
    # Forward cross edges (earlier block -> later block) lie in no perfect
    # matching: the first block's detectors are reachable only from its own
    # particles, and so on by induction.
    for _ in range(rng.integers(1, 4)):
        i, k = sorted(rng.choice(len(blocks), 2, replace=False))
        a = int(rng.choice(blocks[i][1]))
        j = int(rng.choice(blocks[k][1]))
        if any(e[0] == a and e[1] == j for e in edges):
            continue
        amp = rng.uniform(0.2, 0.6) * complex(np.exp(2j * math.pi * rng.random()))
        edges.append([a, j, amp, "ud"[rng.integers(0, 2)]])
    row = [0.0] * (offset + 1)
    for a, _, amp, _ in edges:
        row[a] += abs(amp) ** 2
    for e in edges:
        e[2] /= math.sqrt(row[e[0]])
    return blocks, edges


def _loop_color(edges, v: int) -> str:
    return next(c for a, j, _, c in edges if a == v and j == v)


def _blocks(rng: np.random.Generator, seed: int, out: Path) -> list[Op]:
    ops = []
    plans = [(n, plan) for n, group in PLANS.items() for plan in group]
    for i, (n, plan) in enumerate(plans):
        stats = "fermion" if (i + seed) % 2 else "boson"
        blocks, raw = _block_union(rng, plan)
        edges = [_edge(a, j, amp, "up" if c == "u" else "down") for a, j, amp, c in raw]
        path = _write(out / f"blocks-{i:02d}-n{n}.json", n, stats, edges)
        pinned = [
            [members[0], "up" if _loop_color(raw, members[0]) == "u" else "down"]
            for kind, members in blocks
            if kind == "single"
        ]
        numeric_seed = int(rng.integers(0, 2**31))
        ops.append(Op(
            ("analyze", path, "--numeric", str(numeric_seed), "--json"),
            {
                "kind": "report",
                "n": n,
                "blocks": [members for _, members in blocks],
                "pinned": pinned,
                "numeric": [members for _, members in blocks],
            },
            n,
            "blocks n=%d %s: %s" % (n, stats, "+".join(k for k, _ in blocks)),
        ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


_GENERATORS = {
    "dense-unitary": _dense,
    "sparse-rings": _sparse,
    "block-analyze": _blocks,
}


def generate(name: str, seed: int, out: Path) -> list[Op]:
    """Write the workload's network files under ``out`` and return one pass."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[name]])
    return _GENERATORS[name](rng, seed, out)
