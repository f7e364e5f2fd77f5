"""lqngraph benchmark: closed-loop CLI ops on generated network files.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-unitary --seed 1 --seconds 25 --trace 0

One process, one thread, one client: each op calls ``lqngraph.cli.cli_main``
in-process on a generated file with stdout captured (twice if the first
call is short), waits for it, checks the answer, then starts the next. A run repeats whole passes over the
workload's op list until ``--seconds`` have elapsed. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every op once plain and once traced
and prints the per-layer metrics. The last stdout line is the JSON result;
the lines before it are the human report. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from check import check_output
from speed import REFERENCE_S, loop_time
from tracing import LAYERS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15
#: a setup child taking longer ends the setup measurement
SETUP_TIMEOUT_S = 10.0
TAIL_BEYOND = 10
#: an op whose first call passed in less time is called a second time
SECOND_CALL_BELOW_S = 1.0
#: a run stops starting ops after this many seconds, whole pass or not
HARD_STOP_S = 110.0

_SETUP_CHILD = """
import contextlib, io, json, sys, time
from speed import loop_time
before = loop_time()
t0 = time.perf_counter()
import lqngraph.cli
t1 = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    rc = lqngraph.cli.cli_main(sys.argv[1:])
t2 = time.perf_counter()
loops = (before + loop_time()) / 2
sys.stdout.write(json.dumps({"seconds": t2 - t0, "loop_s": loops, "rc": rc, "out": out.getvalue()}))
"""


class OpTimeout(BaseException):
    """Raised by the alarm when an op outlives its limit.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


@dataclass
class Outcome:
    label: str
    n: int
    #: wall time of the call
    seconds: float
    #: ``seconds`` at reference host speed (see speed.py)
    scaled: float
    #: None when the op passed; else exception, exit, wrong or timeout
    failure: str | None = None
    exc: str | None = None
    layer: str | None = None
    site: str | None = None
    #: traced runs: the innermost public function whose call raised
    call: str | None = None
    detail: str = ""


def _innermost_lqn_frame(frames):
    """(layer, site) of the last lqngraph frame in outer-to-inner ``frames``."""
    found = (None, None)
    for frame, _ in frames:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("lqngraph.") and module != "lqngraph.errors":
            layer = module.split(".")[1]
            found = (layer, f"{layer}.{getattr(frame.f_code, 'co_qualname', frame.f_code.co_name)}")
    return found


class Runner:
    """Runs ops one at a time and classifies each result.

    While a Runner is open, ``LQNError.__init__`` records the class and
    raise site of every program error, because ``cli_main`` turns those
    into exit code 2 and the exception is otherwise gone.

    After each op the Runner collects garbage and times the reference loop;
    the loop times before and after an op scale it to reference speed.
    """

    def __init__(self, limit_s: float):
        import lqngraph.cli
        from lqngraph import errors

        self.cli = lqngraph.cli
        self.limit_s = limit_s
        self._errors = errors
        self._armed = False
        self._last_error: tuple | None = None

    def __enter__(self):
        runner = self

        def recording_init(exc, *args):
            Exception.__init__(exc, *args)
            frames = traceback.walk_stack(sys._getframe(1))
            layer, site = _innermost_lqn_frame(reversed(list(frames)))
            runner._last_error = (type(exc).__name__, layer, site)

        self._saved_init = self._errors.LQNError.__dict__.get("__init__")
        self._errors.LQNError.__init__ = recording_init
        self._saved_alarm = signal.signal(signal.SIGALRM, self._on_alarm)
        gc.collect()
        self._loop_s = loop_time()
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_alarm)
        if self._saved_init is None:
            del self._errors.LQNError.__init__
        else:
            self._errors.LQNError.__init__ = self._saved_init

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise OpTimeout(f"op exceeded {self.limit_s} s")

    def call(self, argv) -> tuple[float, int | None, BaseException | None, str, str]:
        """(seconds, exit code, escaped exception, stdout, stderr) of one call."""
        out, err = io.StringIO(), io.StringIO()
        rc, escaped = None, None
        self._last_error = None
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.cli_main(list(argv))
            finally:
                seconds = perf_counter() - start
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, OpTimeout) as exc:  # the op's failure is the measurement
            escaped = exc
        return seconds, rc, escaped, out.getvalue(), err.getvalue()

    def run(self, op, second_call: bool = True) -> Outcome:
        """One op: a call, and a second one if the first passed in under 1 s.

        The faster call counts; both answers are checked. The second call
        drops the host's stalls and speed changes inside a short call, which
        the loop times around it cannot see; a long call averages them out.
        """
        first = self._once(op)
        if not second_call or first.failure is not None or first.seconds >= SECOND_CALL_BELOW_S:
            return first
        second = self._once(op)
        if second.failure is not None:
            return second
        return min(first, second, key=lambda o: o.scaled)

    def _once(self, op) -> Outcome:
        seconds, rc, escaped, out, err = self.call(op.argv)
        gc.collect()
        before, self._loop_s = self._loop_s, loop_time()
        result = Outcome(op.label, op.n, seconds, seconds * REFERENCE_S * 2 / (before + self._loop_s))
        if isinstance(escaped, OpTimeout):
            result.failure, result.exc = "timeout", "OpTimeout"
        elif escaped is not None:
            result.failure, result.exc = "exception", type(escaped).__name__
        elif rc != 0:
            result.failure = "exit"
            result.detail = f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            if self._last_error is not None:
                result.exc, result.layer, result.site = self._last_error
            return result
        else:
            reason = check_output(op.expected, out)
            if reason is not None:
                result.failure, result.detail = "wrong", reason
            return result
        result.layer, result.site = _innermost_lqn_frame(traceback.walk_tb(escaped.__traceback__))
        result.detail = str(escaped)[:120]
        return result


def par2(outcome: Outcome, limit_s: float) -> float:
    """PAR-2 score: a failed op counts as L plus its own time, at most 2L."""
    if outcome.failure is None:
        return outcome.scaled
    return limit_s + min(outcome.scaled, limit_s)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def max_n_ok(outcomes: list[Outcome]) -> int:
    by_n: dict[int, bool] = {}
    for o in outcomes:
        by_n[o.n] = by_n.get(o.n, True) and o.failure is None
    return max((n for n, ok in by_n.items() if ok), default=0)


def measure_setup(op) -> tuple[float, list[float], str | None]:
    """Median seconds to import lqngraph.cli and run ``op`` in a fresh python.

    Also returns every sample and, if the op's answer came out wrong, why.
    A child that crashes or times out is timed from outside.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), **BLAS_ENV)
    samples, wrong = [], None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, *op.argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            samples.append(perf_counter() - start)
            break
        if proc.returncode != 0:
            samples.append(perf_counter() - start)
            continue
        doc = json.loads(proc.stdout)
        samples.append(doc["seconds"] * REFERENCE_S / doc["loop_s"])
        if doc["rc"] == 0:
            wrong = wrong or check_output(op.expected, doc["out"])
    return statistics.median(samples), samples, wrong


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def passes(ops, seconds: float, start: float):
    """Yield ops in whole passes until ``seconds`` have elapsed since start."""
    while True:
        for op in ops:
            if perf_counter() - start > HARD_STOP_S:
                print(f"hard stop at {HARD_STOP_S} s inside a pass")
                return
            yield op
        if perf_counter() - start >= seconds:
            return


def failure_lines(outcomes: list[Outcome]) -> list[str]:
    groups = Counter()
    sizes: dict[tuple, set] = {}
    for o in outcomes:
        if o.failure is None:
            continue
        site = o.site or o.layer or "-"
        if o.call and o.call != site:
            site += f" in {o.call}"
        key = (o.failure, o.exc or "-", site, o.label.split(" n=")[0])
        groups[key] += 1
        sizes.setdefault(key, set()).add(o.n)
    lines = []
    for key, count in sorted(groups.items(), key=lambda kv: (-kv[1], kv[0])):
        failure, exc, site, op = key
        ns = sorted(sizes[key])
        lines.append(f"  {count:4d}x {op:18s} {failure:9s} {exc:16s} at {site}  n={ns}")
    return lines


def smallest(ops):
    """The op on the smallest input, ties to the first label: setup and warm-up use it."""
    return min(ops, key=lambda op: (op.n, op.label))


def run_plain(workload, ops, seconds: float) -> tuple[dict, int, int, bool, dict]:
    setup_s, setup_samples, setup_wrong = measure_setup(smallest(ops))
    outcomes: list[Outcome] = []
    with Runner(workload.limit_s) as runner:
        runner.run(smallest(ops))  # warm-up, not counted
        gc.freeze()  # the harness heap stays out of the program's collections
        start = perf_counter()
        for op in passes(ops, seconds, start):
            outcomes.append(runner.run(op))
        elapsed = perf_counter() - start
    scores = [par2(o, workload.limit_s) for o in outcomes]
    tail_value, tail_pct = tail(scores)
    failed = sum(o.failure is not None for o in outcomes)
    wrong = [o for o in outcomes if o.failure == "wrong"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(scores), "s"),
        "op_tail_s": (tail_value, "s"),
        "ok_frac": ((len(outcomes) - failed) / len(outcomes), "frac"),
        "max_n_ok": (float(max_n_ok(outcomes)), "n"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"ops: {len(outcomes)} attempted, {failed} failed "
          f"(fail_frac {failed / len(outcomes):.4f}), {len(outcomes) // len(ops)} "
          f"passes of {len(ops)} in {elapsed:.1f} s, limit L = {workload.limit_s} s")
    speeds = [o.scaled / o.seconds for o in outcomes]
    print(f"host speed: wall time x {statistics.median(speeds):.3f} (median; "
          f"{min(speeds):.3f}..{max(speeds):.3f}) gives reference-speed time; "
          f"wall op_p50 {statistics.median(o.seconds for o in outcomes):.6g} s")
    print(f"setup_s: median of {len(setup_samples)} fresh interpreters: "
          + " ".join(f"{s:.4f}" for s in setup_samples))
    print(f"op_tail_s: p{tail_pct:.1f} of {len(scores)} samples ({TAIL_BEYOND} beyond it)")
    for line in failure_lines(outcomes):
        print(line)
    for o in wrong[:10]:
        print(f"  WRONG {o.label}: {o.detail}")
    if setup_wrong:
        print(f"  WRONG in setup: {setup_wrong}")
    report = {
        "outcomes": [o.__dict__ for o in outcomes],
        "setup_samples": setup_samples,
        "tail_percentile": tail_pct,
    }
    return metrics, len(outcomes), failed, not wrong and setup_wrong is None, report


def run_traced(workload, ops, seconds: float) -> tuple[dict, int, int, bool, dict]:
    plain: dict[int, Outcome] = {}
    traced: dict[int, Outcome] = {}
    with Runner(workload.limit_s) as runner:
        tracer = Tracer()
        runner.run(smallest(ops))
        gc.freeze()
        start = perf_counter()
        for op_id, op in enumerate(passes(ops, seconds, start)):
            # alternate which of the pair goes first
            for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
                if not with_trace:
                    plain[op_id] = runner.run(op, second_call=False)
                    continue
                with tracer.installed(op_id):
                    outcome = runner.run(op, second_call=False)
                if outcome.failure is not None and op_id in tracer.raised:
                    outcome.call = tracer.raised[op_id]
                    outcome.layer = outcome.call.split(".")[0]
                traced[op_id] = outcome
    outcomes = list(plain.values()) + list(traced.values())
    failed = sum(o.failure is not None for o in outcomes)
    wrong = [o for o in outcomes if o.failure == "wrong"]
    traced_times = {op_id: o.scaled for op_id, o in traced.items()}
    values = summarize(tracer, {op_id: o.scaled / o.seconds for op_id, o in traced.items()})
    values["trace.overhead_frac"] = statistics.median(
        traced[op_id].scaled / plain[op_id].scaled for op_id in traced
    ) - 1.0
    by_layer = Counter(o.layer for o in traced.values() if o.failure is not None)
    for layer in LAYERS:
        values[f"{layer}.failed"] = float(by_layer.get(layer, 0))
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    mean_op = sum(traced_times.values()) / max(len(traced_times), 1)
    print(f"ops: {len(outcomes)} attempted ({len(traced)} traced), {failed} failed; "
          f"mean traced op {mean_op:.4f} s")
    print("share of traced op time per layer metric:")
    for name in sorted(values):
        if _is_time(name) and mean_op > 0:
            print(f"  {name:28s} {values[name] / mean_op:7.1%}")
    for line in failure_lines(list(traced.values())):
        print(line)
    for o in wrong[:10]:
        print(f"  WRONG {o.label}: {o.detail}")
    claims = {
        "dense-unitary": "graphs.enumerate_s",
        "block-analyze": "entanglement.partition_s",
    }
    if workload.name in claims and mean_op > 0:
        name = claims[workload.name]
        top = max(filter(_is_time, values), key=values.get)
        verdict = "confirmed" if top == name else f"refuted, the largest is {top}"
        print(f"claim: {name} dominates {workload.name}: "
              f"{values[name] / mean_op:.1%} of op time, {verdict}")
    report = {
        "outcomes": {"plain": [o.__dict__ for o in plain.values()],
                     "traced": [o.__dict__ for o in traced.values()]},
        "spans": [s + [tracer.counts.get(i)] for i, s in enumerate(tracer.spans)],
    }
    return metrics, len(outcomes), failed, not wrong, report


def _is_time(name: str) -> bool:
    return name.endswith("_s") and not name.endswith("_per_s")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.coverage":
        return "frac"
    if name == "states.kets_per_matching":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    ops = generate(workload.name, args.seed, inputs)
    print(f"workload {workload.name} seed {args.seed}: {len(ops)} ops per pass, "
          f"inputs digest {digest(inputs)}")
    runner = run_traced if args.trace else run_plain
    metrics, attempted, failed, correct, report = runner(workload, ops, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    shutil.rmtree(inputs)
    report.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  metrics={k: v for k, (v, _) in metrics.items()})
    (run_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "lqngraph" / "cli.py").is_file():
        print(f"perfbench: no lqngraph sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_ENV)  # before numpy loads, so SVDs stay on one thread
    sys.path.insert(0, str(SRC))
    sys.exit(main())
