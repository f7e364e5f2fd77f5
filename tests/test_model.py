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
from lqngraph.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidArgument,
    LQNError,
    NonFiniteValue,
    RowNotNormalized,
    ZeroAmplitude,
)
from lqngraph.io import DotRenderOptions, View
from lqngraph.model import (
    Color,
    NetworkSpec,
    NormalizationMode,
    Statistics,
    Transition,
    validate_network,
)
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
        lambda: validate_network(1, "boson", [(1, 1, "x", "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, None, "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, "1", "up")], "design"),
        lambda: validate_network(1, "boson", [(1, 1, True, "up")], "strict"),
        lambda: validate_network(1, "boson", [(1, 1, 1.0)], "design"),
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
        "edge-amplitude-string",
        "edge-amplitude-none",
        "edge-amplitude-numeric-string",
        "edge-amplitude-bool",
        "edge-of-three-items",
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
    assert NetworkSpec(*spec) == spec


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_n=8, modes=("design", "strict")))
def test_validated_spec_keeps_its_own_records(spec):
    # every field of a validated Transition has its exact type already
    for again in (validate_network(*spec).transitions, NetworkSpec(*spec).transitions):
        assert len(again) == len(spec.transitions)
        assert all(made is given_edge for made, given_edge in zip(again, spec.transitions))


STATE = NoBunchState(2, {"ud": 1.0})
OPTS = DotRenderOptions()
SPEC = validate_network(2, "boson", beamsplitter_edges(), "strict")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: NoBunchState(2, {"ud": 1.0}, "yes"), InvalidArgument),
        (lambda: STATE._replace(amplitudes={"udu": 1.0}), InvalidArgument),
        (lambda: NoBunchState._make([2, {"ud": math.nan}]), NonFiniteValue),
        (lambda: DotRenderOptions("bipartite"), InvalidArgument),
        (lambda: OPTS._replace(view="directed"), InvalidArgument),
        (lambda: DotRenderOptions._make(["pm_diagram", False, None]), InvalidArgument),
        (lambda: NetworkSpec(2, "boson", SPEC.transitions * 2, "strict"), DuplicateEdge),
        (lambda: SPEC._replace(n=1), IndexOutOfRange),
        (lambda: NetworkSpec._make([2, "anyon", SPEC.transitions, "strict"]), InvalidArgument),
    ],
    ids=[
        "state-new",
        "state-replace",
        "state-make",
        "dot-new",
        "dot-replace",
        "dot-make",
        "spec-new",
        "spec-replace",
        "spec-make",
    ],
)
def test_every_way_to_build_a_checked_record_checks(build, error):
    with pytest.raises(error):
        build()


def test_checked_records_coerce_through_replace_and_make():
    assert STATE._replace(normalized=True).normalized is True
    opts = DotRenderOptions(View.DIRECTED, True, 0)
    assert DotRenderOptions._make([View.DIRECTED, True, 0]) == opts
    assert SPEC._replace(statistics="fermion").statistics is Statistics.FERMION


#: values of no field: none, strings, bools, NaN, ints out of any range, wrong enum members
JUNK = st.sampled_from(
    [None, "", "x", "1", True, False, math.nan, math.inf, -1, 0, 10**30, -(10**30), 2.0]
    + [Color.UP, Statistics.BOSON, NormalizationMode.DESIGN, View.DIRECTED, b"u", ()]
)


def mixed(valid, *wrong):
    """``valid`` nine times in ten, else one of the ``wrong`` values of its kind or junk."""
    return st.integers(0, 19).flatmap(
        lambda k: valid if k > 1 else st.sampled_from(wrong) if k and wrong else JUNK
    )


AMPLITUDE = mixed(
    st.sampled_from([1.0, 0.5j, 1, complex(0.6, -0.8)]), 0, 10**400, complex(math.nan, 1)
)
COLOR = mixed(st.sampled_from([Color.UP, Color.DOWN, "u", "down", "↑", "up "]), "x", 1)


@st.composite
def spec_builds(draw):
    """A call that builds a spec, in one of four ways, from valid and junk values.

    The edges are tuples, unchecked ``Transition`` records or junk; their
    indices lie in 1..n but for the wrong ones, and one may be repeated.
    """
    n = draw(mixed(st.integers(1, 3)), label="n")
    top = n if type(n) is int and 1 <= n <= 3 else 3
    index = mixed(st.integers(1, top), top + 1, 10**20)
    parts = (index, index, AMPLITUDE, COLOR)
    edges = draw(st.lists(mixed(st.tuples(*parts) | st.builds(Transition, *parts)), max_size=4))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges), label="repeated"))
    fields = [
        n,
        draw(mixed(st.sampled_from([*Statistics, "boson", "fermion"]), "anyon", "Boson")),
        draw(mixed(st.just(edges))),
        draw(mixed(st.sampled_from([*NormalizationMode, "strict", "design"]), "x")),
    ]
    way = draw(st.sampled_from(["new", "validate", "make", "replace"]))
    if way == "new":
        return lambda: NetworkSpec(*fields)
    if way == "validate":
        row_tol = draw(mixed(st.sampled_from([1e-9, 0.5, 2.0]), -1.0, math.nan), label="row_tol")
        return lambda: validate_network(*fields, row_tol=row_tol)
    if way == "make":
        return lambda: NetworkSpec._make(fields)
    name = draw(st.sampled_from(NetworkSpec._fields))
    return lambda: SPEC._replace(**{name: fields[NetworkSpec._fields.index(name)]})


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(spec_builds())
def test_every_spec_built_is_checked(build):
    try:
        spec = build()
    except LQNError:
        return
    assert type(spec) is NetworkSpec and type(spec.n) is int and spec.n >= 1
    assert type(spec.statistics) is Statistics
    assert type(spec.normalization_mode) is NormalizationMode
    assert type(spec.transitions) is tuple
    for t in spec.transitions:
        assert type(t) is Transition and type(t.amplitude) is complex and type(t.color) is Color
        assert type(t.source) is int and type(t.detector) is int
        assert 1 <= t.source <= spec.n and 1 <= t.detector <= spec.n
        assert t.amplitude and cmath.isfinite(t.amplitude)
    assert len({(t.source, t.detector) for t in spec.transitions}) == len(spec.transitions)
    again = NetworkSpec(*spec)
    assert again == spec
    assert all(made is kept for made, kept in zip(again.transitions, spec.transitions))


def test_records_are_immutable_tuples():
    t = Transition(1, 2, 0.5j, Color.UP)
    assert tuple(t) == (1, 2, 0.5j, Color.UP) and t[2] == 0.5j
    assert t._replace(detector=3) == (1, 3, 0.5j, Color.UP)
    with pytest.raises(AttributeError):
        t.source = 2
    with pytest.raises(AttributeError):
        STATE.n = 3


class _Index:
    """An integer-like object: ``operator.index`` reads it, ``int`` is not its type."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([(2, 2, 1.0)], InvalidArgument, "transition (2, 2, 1.0) is not (source, "
         "detector, amplitude, color)"),
        ([(True, 2.0, 1.0, "up")], IndexOutOfRange,
         "transition source must be an integer, got True"),
        ([(2, 2.0, 1.0, "up")], IndexOutOfRange, "transition detector must be an integer, got 2.0"),
        ([(_Index(1), _Index(1), 1.0, "up")], DuplicateEdge, "more than one transition on (1, 1)"),
        ([(2, 2, -0.0, "up")], ZeroAmplitude, "transition (2, 2) has zero amplitude"),
        ([(2, 2, 0j, "up")], ZeroAmplitude, "transition (2, 2) has zero amplitude"),
        ([(2, 2, complex(math.nan, 0), "up")], NonFiniteValue,
         "transition (2, 2) has amplitude (nan+0j)"),
        ([(2, 2, complex(0, -math.inf), "up")], NonFiniteValue,
         "transition (2, 2) has amplitude -infj"),
        ([(2, 2, 10**400, "up")], NonFiniteValue,
         "transition (2, 2) has an amplitude beyond the float range"),
        ([(2, 2, "1", "up")], InvalidArgument, "transition (2, 2) has amplitude '1', not a number"),
        ([(2, 2, 1.0, "sideways")], InvalidArgument, "not a color: 'sideways'"),
        # two defects: the first in check order is the one raised
        ([(1, 1, 0.0, "up")], DuplicateEdge, "more than one transition on (1, 1)"),
        ([(2, 2, 0.0, "x")], ZeroAmplitude, "transition (2, 2) has zero amplitude"),
    ],
    ids=[
        "three-items",
        "bool-source-before-float-detector",
        "float-detector",
        "index-objects-on-a-seen-pair",
        "minus-zero",
        "complex-zero",
        "nan-real-part",
        "minus-inf-imaginary-part",
        "int-beyond-float",
        "numeric-string",
        "bad-color",
        "duplicate-before-zero-amplitude",
        "zero-amplitude-before-bad-color",
    ],
)
def test_first_defect_of_a_raw_edge_is_raised(edges, error, message):
    # the defect sits in the second edge, after a valid loop on (1, 1)
    with pytest.raises(error) as info:
        validate_network(3, "boson", [(1, 1, 1.0, "up"), *edges], "design")
    assert type(info.value) is error
    assert str(info.value) == message


def test_transition_with_a_coerced_field_is_built_anew():
    given_edges = (
        Transition(1, 1, 1 + 0j, "down"),
        Transition(_Index(2), 2, 1j, Color.UP),
        Transition(3, 3, 1.0, Color.UP),
    )
    spec = validate_network(3, "boson", given_edges, "design")
    assert spec.transitions == (
        (1, 1, 1 + 0j, Color.DOWN),
        (2, 2, 1j, Color.UP),
        (3, 3, 1 + 0j, Color.UP),
    )
    for made, given_edge in zip(spec.transitions, given_edges):
        assert type(made) is Transition and made is not given_edge
        assert type(made.amplitude) is complex and type(made.source) is int
