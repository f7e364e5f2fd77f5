"""Span tracing from outside the program.

``Tracer.installed()`` replaces every public function of the six layer
modules with a wrapper, in every lqngraph namespace that holds it, so
calls between modules (``states`` calling ``model.to_bipartite``, ``cli``
calling ``io.parse_network``) are seen without editing a source file.
A span is ``[name, start, end, parent, op, error]``; spans stay in memory
until the run writes them out. Counts are read from the returned objects.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "model", "graphs", "states", "entanglement")

#: per-layer time metric -> public functions whose self time it sums
TIME_GROUPS = {
    "cli.self_s": ("cli.cli_main", "cli.main"),
    "io.parse_s": ("io.parse_network", "model.validate_network", "model.polar_amplitude"),
    "io.serialize_s": ("io.serialize_state", "io.serialize_network", "io.format_complex"),
    "model.views_s": ("model.to_adjacency", "model.to_bipartite", "graphs.to_directed"),
    "graphs.enumerate_s": ("graphs.enumerate_pms", "graphs.initial_perfect_matching"),
    "graphs.diagram_s": (
        "graphs.diagram_of_network",
        "graphs.pm_diagram",
        "graphs.relabel_to_loops",
        "graphs.elementary_cycles",
        "graphs.weak_components",
        "graphs.strongly_connected",
    ),
    "states.assemble_s": ("states.assemble_network_state", "states.assemble_state"),
    "states.normalize_s": ("states.normalize",),
    "entanglement.checks_s": (
        "entanglement.lemma1_separable_vertices",
        "entanglement.lemma2_partition",
        "entanglement.theorem1_check",
    ),
    "entanglement.generic_s": ("entanglement.generic_amplitudes",),
    "entanglement.partition_s": ("entanglement.finest_partition",),
}


def _diagram_counts(d):
    kept, removed = len(d.view.edges), len(d.removed)
    return {"cycles": len(d.cycles), "removed": removed, "kept": kept}


#: public function -> counts taken from its return value
COUNTERS = {
    "model.to_bipartite": lambda r: {"edges": len(r.edges)},
    "graphs.to_directed": lambda r: {"edges": len(r.edges)},
    "graphs.enumerate_pms": lambda r: {"matchings": len(r)},
    "graphs.pm_diagram": _diagram_counts,
    "graphs.strongly_connected": lambda r: {"sccs": len(r[1])},
    "states.assemble_state": lambda r: {"kets": len(r.amplitudes)},
    "entanglement.finest_partition": lambda r: {"blocks": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        #: op -> public function whose call raised first, i.e. innermost
        self.raised: dict[int, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lqngraph.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "lqngraph" or mod_name.startswith("lqngraph."):
                for name, value in vars(module).items():
                    if inspect.isfunction(value) and value in wrappers:
                        self._swaps.append((module, name, value, wrappers[value]))

    def _wrap(self, name, fn):
        spans, stack, counts, raised = self.spans, self._stack, self.counts, self.raised
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raised.setdefault(self.op, name)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counts[index] = counter(result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the return type changed; the count is skipped
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        self.op = op
        for module, name, _, wrapper in self._swaps:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original, _ in self._swaps:
                setattr(module, name, original)
            self._stack.clear()


def summarize(tracer: Tracer, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics over the traced ops in ``scale`` (op -> speed factor).

    Span times are multiplied by their op's factor, as op times are. Times
    and counts are means per op; ``<layer>.failed`` totals come from the
    caller. ``trace.coverage`` is the share of the time inside ``cli``
    spans that is spent inside a public call of a lower layer.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    below_cli = in_cli = 0.0
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if op not in scale:
            continue
        self_time[name] += (end - start - child_time[i]) * scale[op]
        if parent < 0:
            below_cli += child_time[i] * scale[op]
            in_cli += (end - start) * scale[op]
    totals = defaultdict(float)
    for index, counts in tracer.counts.items():
        if spans[index][4] in scale:
            for key, value in counts.items():
                totals[key] += value
    ops = max(len(scale), 1)
    metrics = {
        group: sum(self_time[f] for f in names) / ops for group, names in TIME_GROUPS.items()
    }
    enumerate_total = sum(self_time[f] for f in TIME_GROUPS["graphs.enumerate_s"])
    kept_edges = totals["kept"]
    diagram_edges = kept_edges + totals["removed"]
    metrics.update({
        "model.edges": totals["edges"] / ops,
        "graphs.matchings": totals["matchings"] / ops,
        "graphs.matchings_per_s": (
            totals["matchings"] / enumerate_total if enumerate_total > 0 else 0.0
        ),
        "graphs.cycles": totals["cycles"] / ops,
        "graphs.removed_edges": totals["removed"] / ops,
        "graphs.kept_edge_frac": kept_edges / diagram_edges if diagram_edges else 0.0,
        "graphs.sccs": totals["sccs"] / ops,
        "states.kets": totals["kets"] / ops,
        "states.kets_per_matching": (
            totals["kets"] / totals["matchings"] if totals["matchings"] else 0.0
        ),
        "entanglement.blocks": totals["blocks"] / ops,
        "trace.coverage": below_cli / in_cli if in_cli > 0 else 0.0,
    })
    return metrics
