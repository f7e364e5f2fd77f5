"""Command-line interface.

Subcommands: compute, analyze, pm-diagram, design, verify, dot. Exit codes:
0 success, 1 usage error, 2 validation/parse error, 3 verification
mismatch. The environment variable LQN_TOL overrides the default row
normalization tolerance (1e-9) used when reading network files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from . import designers, entanglement, io, states
from .errors import LQNError, ParseError
from .graphs import diagram_of_network
from .model import DEFAULT_TOL, NetworkSpec
from .states import NoBunchState

VERIFY_TOL = 1e-12

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_tol() -> float:
    raw = os.environ.get("LQN_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ParseError(f"LQN_TOL must be a finite number >= 0, got {raw!r}")
    return tol


def _load(path: str) -> NetworkSpec:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return io.parse_network(text, row_tol=_env_tol())


def _print_state(state: NoBunchState, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(io.serialize_state(state))
        return
    prob = state.postselect_probability
    if prob is not None:
        print(f"post-selection probability: {prob:.12g}")
    for ket, amp in state.sorted_terms():
        print(f"  |{states.ket_glyphs(ket)}>  {io.format_complex(amp, 12)}")


def _blocks_text(partition) -> str:
    return " | ".join(
        "(" + ",".join(f"X{d}" for d in block) + ")" for block in partition
    )


def _cmd_compute(args) -> int:
    spec = _load(args.file)
    state = states.normalize(states.assemble_network_state(spec))
    _print_state(state, args.json)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    """The separability report as text, or with ``--json`` as the document
    ``io.serialize_report`` writes, byte for byte what
    ``json.dumps(doc, indent=2)`` and a newline would give. The generic
    finest partition is shown only with ``--numeric``; its SEED is read
    and ignored."""
    spec = _load(args.file)
    report = entanglement.build_report(spec)
    if args.numeric is None:
        report = report._replace(numeric_finest_partition=None)
    if args.json:
        sys.stdout.write(io.serialize_report(report))
        return EXIT_OK

    if report.lemma1_vertices:
        print("single-color vertices (pinned detectors):")
        for v, color in report.lemma1_vertices:
            det = report.diagram.detector_of_vertex(v)
            print(f"  w{v} -> X{det} pinned to {color.glyph}")
    else:
        print("single-color vertices: none")
    print(f"guaranteed separability blocks: {_blocks_text(report.lemma2_partition)}")
    bad = [
        f"w{v}"
        for v, ok in enumerate(report.theorem1.color_condition_ok, start=1)
        if not ok
    ]
    print(
        "both incoming colors at every vertex: "
        + ("yes" if not bad else "no (" + ", ".join(bad) + ")")
    )
    print(
        "strongly connected: "
        + ("yes" if report.theorem1.strongly_connected else "no")
    )
    print(f"verdict: {report.theorem1.verdict.value}")
    if report.numeric_finest_partition is not None:
        print(f"numeric finest partition: {_blocks_text(report.numeric_finest_partition)}")
    return EXIT_OK


def _cmd_pm_diagram(args) -> int:
    spec = _load(args.file)
    if args.dot:
        sys.stdout.write(io.export_dot(spec, io.DotRenderOptions(view=io.View.PM_DIAGRAM)))
        return EXIT_OK
    diag = diagram_of_network(spec)
    print("retained edges (particle, detector):")
    for a, j in diag.kept_bipartite_pairs():
        print(f"  ({a}, X{j})")
    removed = diag.removed_bipartite_pairs()
    if removed:
        print("removed edges (in no perfect matching):")
        for a, j in removed:
            print(f"  ({a}, X{j})")
    else:
        print("removed edges: none")
    return EXIT_OK


def _parse_complex(text: str) -> complex:
    """A complex literal whose imaginary unit may be a trailing ``i``.

    Only the last character is read as the unit, so ``inf`` and ``nan``
    parse as Python spells them and are rejected by validation instead.
    """
    literal = text.strip()
    if literal.endswith("i"):
        literal = literal[:-1] + "j"
    try:
        return complex(literal)
    except ValueError as exc:
        raise _UsageError(f"not a complex number: {text!r}") from exc


def _cmd_design(args) -> int:
    family = args.family
    if family == "ghz":
        spec = designers.design_ghz(args.n, colors=args.colors)
    elif family == "w":
        spec = designers.design_w(args.n, form=args.form, colors=args.colors)
    elif family == "dicke":
        spec = designers.design_dicke2(args.n, preset=args.preset)
    elif family == "cluster4":
        spec = designers.design_cluster4()
    elif family == "tritter":
        spec = designers.preset_tritter()
    else:
        amps = [_parse_complex(x) for x in args.amps]
        spec = designers.preset_beamsplitter(*amps)
    text = io.serialize_network(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load(args.file)
    # the reference raises TooLarge above its size limit, before any walk
    reference = states.oracle_state(spec)
    assembled = states.assemble_network_state(spec)
    diff = states.max_amplitude_difference(assembled, reference)
    print(f"max |assembled - reference| = {diff:.3e}")
    return EXIT_OK if diff <= VERIFY_TOL else EXIT_MISMATCH


_VIEWS = {
    "bb": io.View.BIPARTITE,
    "d": io.View.DIRECTED,
    "pm": io.View.PM_DIAGRAM,
}


def _cmd_dot(args) -> int:
    spec = _load(args.file)
    opts = io.DotRenderOptions(
        view=_VIEWS[args.view],
        show_weights=args.weights,
        highlight_pm=args.highlight,
    )
    sys.stdout.write(io.export_dot(spec, opts))
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="lqn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="post-selected state of a network file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--text", dest="json", action="store_false")
    p.set_defaults(func=_cmd_compute, json=False)

    p = sub.add_parser("analyze", help="structural and numeric separability report")
    p.add_argument("file")
    p.add_argument(
        "--numeric",
        nargs="?",
        const=0,
        default=None,
        type=int,
        metavar="SEED",
        help="also show the finest partition for generic amplitudes "
        "(SEED is accepted and ignored)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pm-diagram", help="retained/removed edge report")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_pm_diagram)

    p = sub.add_parser("design", help="emit a designer network as JSON")
    p.add_argument(
        "family",
        choices=["ghz", "w", "dicke", "cluster4", "tritter", "beamsplitter"],
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--colors", help="color vector like uddu")
    p.add_argument("--form", choices=["star", "ring"], default="star")
    p.add_argument("--preset", choices=["paper-n4", "paper-n5"])
    p.add_argument(
        "--amps",
        nargs=4,
        default=["0.7071067811865476", "0.7071067811865476",
                 "0.7071067811865476", "0.7071067811865476"],
        metavar=("A1", "B1", "A2", "B2"),
        help="beam-splitter amplitudes (complex literals)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("verify", help="check matching assembly against brute force")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="DOT export of a network view")
    p.add_argument("file")
    p.add_argument("--view", choices=sorted(_VIEWS), required=True)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--highlight", type=int, default=None, metavar="PM_INDEX")
    p.set_defaults(func=_cmd_dot)

    return parser


def _amps_as_values(argv: list[str]) -> list[str]:
    """``argv`` with a space before each negative literal given to ``--amps``.

    argparse takes a word that starts with ``-`` and is not a plain negative
    decimal (``-0.5i``, ``-1+2i``, ``-inf``) for a flag; ``_parse_complex``
    strips the space. ``--amps`` may be abbreviated, as argparse allows. A
    ``--amps=V`` word is split into the flag and ``V`` first, since argparse
    binds only one value to that form.
    """
    words = []
    for word in argv:
        flag, eq, value = word.partition("=")
        if eq and len(flag) > 2 and "--amps".startswith(flag):
            words += [flag, value]
        else:
            words.append(word)
    argv = words
    for k in [k for k, word in enumerate(argv) if len(word) > 2 and "--amps".startswith(word)]:
        for m in range(k + 1, min(k + 5, len(argv))):
            if argv[m].startswith("-"):
                with contextlib.suppress(_UsageError):  # not a literal: left as it is
                    _parse_complex(argv[m])
                    argv[m] = " " + argv[m]
    return argv


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_amps_as_values(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, LQNError) as exc:  # OSError: design --out could not write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
