"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import itertools
import math
import random
import time

import numpy as np

from lqngraph.designers import (
    design_cluster4,
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from lqngraph.entanglement import (
    Bipartition,
    Verdict,
    finest_partition,
    generic_amplitudes,
    lemma1_separable_vertices,
    lemma2_partition,
    schmidt_rank,
    theorem1_check,
    theorem2_w_optimal_check,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.model import Color, Statistics
from lqngraph.states import (
    assemble_network_state,
    max_amplitude_difference,
    normalize,
    oracle_state,
)

from conftest import (
    matchings,
    max_error_up_to_phase,
    n5_network,
    random_network,
    random_network_with_pm,
)
from lqngraph.designers import color_vector


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def all_bipartitions(n):
    detectors = list(range(2, n + 1))
    for r in range(len(detectors) + 1):
        for extra in itertools.combinations(detectors, r):
            subset = frozenset({1, *extra})
            if len(subset) < n:
                yield Bipartition(subset, n)


def test_criterion_1_two_mode_crossing_amplitudes():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        th1, th2 = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        a1, b1 = np.cos(th1) * phases[0], np.sin(th1) * phases[1]
        a2, b2 = np.cos(th2) * phases[2], np.sin(th2) * phases[3]
        statistics = Statistics.BOSON if trial % 2 else Statistics.FERMION
        spec = preset_beamsplitter(a1, b1, a2, b2, statistics)
        state = assemble_network_state(spec)
        sign = 1 if statistics is Statistics.BOSON else -1
        worst = max(
            worst,
            abs(state.amplitude("uu") - a1 * b2),
            abs(state.amplitude("dd") - sign * b1 * a2),
        )
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 1: crossing state A1*B2|uu> +/- B1*A2|dd>, "
        f"worst error {worst:.2e}, {elapsed:.2f}s",
        worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_2_tritter_uniform_w():
    spec = preset_tritter()
    pms = matchings(spec)
    state = normalize(assemble_network_state(spec))
    target = 1 / math.sqrt(3)
    magnitudes_ok = set(state.amplitudes) == {"uud", "udu", "duu"} and all(
        abs(abs(a) - target) < 1e-12 for a in state.amplitudes.values()
    )
    # the three amplitudes are exactly equal: a uniform W with no relative
    # phases between the strings (the permutation sum is the authority)
    values = list(state.amplitudes.values())
    phases_equal = all(abs(v - values[0]) < 1e-12 for v in values)
    prob_ok = abs(state.postselect_probability - 1 / 9) < 1e-12
    _report(
        f"criterion 2: tritter gives {len(pms)} matchings, uniform W "
        f"(equal phases: {phases_equal}), probability {state.postselect_probability:.12f}",
        len(pms) == 6 and magnitudes_ok and phases_equal and prob_ok,
    )


def test_criterion_3_five_detector_worked_example():
    spec = n5_network()
    pms = matchings(spec)
    expected_assignments = {
        (1, 2, 3, 4, 5),
        (1, 5, 3, 4, 2),
        (4, 2, 1, 3, 5),
        (4, 2, 3, 1, 5),
        (4, 5, 1, 3, 2),
        (4, 5, 3, 1, 2),
    }
    diag = diagram_of_network(spec)
    removed_ok = set(diag.removed_bipartite_pairs()) == {(2, 1), (2, 3), (2, 4)}
    lemma1_ok = lemma1_separable_vertices(diag) == [(3, Color.UP)]
    lemma2_ok = lemma2_partition(diag) == ((1, 3, 4), (2, 5))
    generic = generic_amplitudes(spec, random.Random(103))
    numeric = finest_partition(normalize(assemble_network_state(generic)))
    _report(
        f"criterion 3: 5-detector example: {len(pms)} matchings, removed "
        f"{diag.removed_bipartite_pairs()}, numeric partition {numeric}",
        {assignment for assignment, _ in pms} == expected_assignments
        and len(pms) == 6
        and removed_ok
        and lemma1_ok
        and lemma2_ok
        and numeric == ((1, 4), (2, 5), (3,)),
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(107)
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for trial in range(100):
            statistics = Statistics.BOSON if trial % 2 else Statistics.FERMION
            spec = random_network(rng, n, statistics)
            worst = max(
                worst,
                max_amplitude_difference(
                    assemble_network_state(spec), oracle_state(spec)
                ),
            )
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 4: matching assembly vs permutation oracle on 500 random "
        f"networks, worst {worst:.2e}, {elapsed:.1f}s",
        worst < 1e-12 and elapsed < 60.0,
    )


def test_criterion_5_ghz_family():
    rng = np.random.default_rng(109)
    ok = True
    h = 1 / math.sqrt(2)
    for n in range(3, 7):
        for _ in range(8):
            colors = color_vector(
                ["u" if rng.random() < 0.5 else "d" for _ in range(n)], n
            )
            spec = design_ghz(n, colors=colors)
            pms = matchings(spec)
            ok &= len(pms) == 2
            state = normalize(assemble_network_state(spec))
            ket = "".join(c.value for c in colors)
            flipped = "".join(c.flipped().value for c in colors)
            ok &= max_error_up_to_phase(state, {ket: h, flipped: h}) < 1e-12
            ok &= all(
                schmidt_rank(state, cut) == 2 for cut in all_bipartitions(n)
            )
    _report(
        "criterion 5: ring networks give (|c> + |c+1>)/sqrt(2) with Schmidt "
        "rank 2 across every cut (n=3..6, 8 color vectors each)",
        ok,
    )


def test_criterion_6_w_family():
    rng = random.Random(113)
    ok = True
    for n in range(3, 7):
        for form in ("star", "ring"):
            spec = design_w(n, form=form)
            pms = matchings(spec)
            ok &= len(pms) == n
            ok &= all(
                sum(1 for c in colors if c is Color.DOWN) == 1 for _, colors in pms
            )
            ok &= theorem2_w_optimal_check(diagram_of_network(spec)).ok
            generic = generic_amplitudes(spec, rng)
            state = normalize(assemble_network_state(generic))
            ok &= finest_partition(state) == (tuple(range(1, n + 1)),)
    _report(
        "criterion 6: W networks (star and ring, n=3..6): n matchings, one "
        "red edge each, hub layout, genuinely entangled for generic amplitudes",
        ok,
    )


def test_criterion_7_dicke_presets_flat():
    worst = 0.0
    for n, preset in ((4, "paper-n4"), (5, "paper-n5")):
        state = assemble_network_state(design_dicke2(n, preset=preset))
        assert len(state.amplitudes) == math.comb(n, 2)
        magnitudes = [abs(a) for a in state.amplitudes.values()]
        worst = max(worst, max(magnitudes) - min(magnitudes))
    _report(
        f"criterion 7: flat-amplitude presets give uniform two-excitation "
        f"states, magnitude spread {worst:.2e}",
        worst < 1e-12,
    )


def test_criterion_8_cluster_state():
    spec = design_cluster4()
    state = normalize(assemble_network_state(spec))
    target = {"uuuu": 0.5, "uudd": 0.5, "dduu": 0.5, "dddd": -0.5}
    worst = max_error_up_to_phase(state, target)
    report = theorem1_check(diagram_of_network(spec))
    _report(
        f"criterion 8: cluster network reproduces the four-term target, "
        f"worst error {worst:.2e}, necessary conditions {report.verdict.value}",
        worst < 1e-10 and report.verdict is Verdict.MAY_BE_GENUINE,
    )


def test_criterion_9_structural_soundness_sweep():
    rng = np.random.default_rng(127)
    lemma1_failures = lemma2_failures = contrapositive_failures = 0
    contrapositive_checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        spec = random_network_with_pm(rng, n)
        diag = diagram_of_network(spec)
        pms = matchings(spec)

        for vertex, color in lemma1_separable_vertices(diag):
            detector = diag.detector_of_vertex(vertex)
            for assignment, colors in pms:
                a = assignment.index(detector)
                if colors[a] is not color:
                    lemma1_failures += 1

        state = normalize(assemble_network_state(spec))
        blocks = lemma2_partition(diag)
        if len(blocks) > 1:
            for r in range(1, len(blocks)):
                for chosen in itertools.combinations(blocks, r):
                    subset = frozenset(d for block in chosen for d in block)
                    if schmidt_rank(state, Bipartition(subset, n)) != 1:
                        lemma2_failures += 1

        report = theorem1_check(diag)
        if report.verdict is Verdict.CANNOT_BE_GENUINE:
            contrapositive_checked += 1
            generic = generic_amplitudes(spec, rng)
            numeric = finest_partition(
                normalize(assemble_network_state(generic))
            )
            if len(numeric) <= 1:
                contrapositive_failures += 1

    _report(
        f"criterion 9: structural soundness on 500 random networks "
        f"(lemma1 {lemma1_failures} fail, lemma2 {lemma2_failures} fail, "
        f"contrapositive {contrapositive_failures}/{contrapositive_checked} fail)",
        lemma1_failures == 0
        and lemma2_failures == 0
        and contrapositive_failures == 0
        and contrapositive_checked > 0,
    )
