"""Answer checkers: compare one op's captured stdout with its expected value.

The expected values come from ``workloads`` and never from lqngraph, so a
wrong amplitude, sign, partition or verdict in the program shows up here.
"""

from __future__ import annotations

import json

AMP_TOL = 1e-12
PROB_RTOL = 1e-9


def check_output(expected: dict, stdout: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if expected["kind"] == "state":
        return _check_state(expected, doc)
    return _check_report(expected, doc)


def _check_state(expected: dict, doc: dict) -> str | None:
    n = expected["n"]
    if doc.get("n") != n or doc.get("normalized") is not True:
        return f"header n={doc.get('n')} normalized={doc.get('normalized')}"
    try:
        got = {
            t["ket"]: complex(t["amp"]["re"], t["amp"]["im"]) for t in doc["terms"]
        }
        prob = float(doc["postselect_probability"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed state: {exc!r}"
    want = expected["amps"]
    for ket in set(got) | set(want):
        diff = abs(got.get(ket, 0j) - want.get(ket, 0j))
        if not diff <= AMP_TOL:
            return f"ket {ket[:16]}{'...' if len(ket) > 16 else ''}: off by {diff:.3g}"
    norm_sq = expected["norm_sq"]
    if not abs(prob - norm_sq) <= PROB_RTOL * norm_sq:
        return f"postselect_probability {prob!r}, expected {norm_sq!r}"
    return None


def _check_report(expected: dict, doc: dict) -> str | None:
    n = expected["n"]
    blocks = sorted(expected["blocks"])
    pinned = {v for v, _ in expected["pinned"]}
    try:
        lemma1 = sorted([d["vertex"], d["color"]] for d in doc["lemma1_vertices"])
        lemma2 = sorted(doc["lemma2_partition"])
        theorem1 = doc["theorem1"]
        numeric = doc["numeric_finest_partition"]
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    if lemma1 != sorted(expected["pinned"]):
        return f"lemma1_vertices {lemma1}, expected {sorted(expected['pinned'])}"
    if lemma2 != blocks:
        return f"lemma2_partition has {len(lemma2)} blocks, expected {len(blocks)}"
    color_ok = [v not in pinned for v in range(1, n + 1)]
    if theorem1.get("color_condition_ok") != color_ok:
        return "theorem1.color_condition_ok differs"
    strong = len(blocks) == 1
    if theorem1.get("strongly_connected") is not strong:
        return f"theorem1.strongly_connected is {theorem1.get('strongly_connected')}"
    verdict = "may_be_genuine" if strong and not pinned else "cannot_be_genuine"
    if theorem1.get("verdict") != verdict:
        return f"verdict {theorem1.get('verdict')}, expected {verdict}"
    want_numeric = None if expected["numeric"] is None else sorted(expected["numeric"])
    got_numeric = None if numeric is None else sorted(numeric)
    if got_numeric != want_numeric:
        return f"numeric_finest_partition {got_numeric}, expected {want_numeric}"
    return None
