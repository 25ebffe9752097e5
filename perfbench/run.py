"""isolab benchmark: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py --workload closed_form|stokes_oracle|ladder_flow \
        [--seed 2026] [--seconds 10] [--trace 0|1]

Run from the repository root.  One process, one thread, a closed loop with a
single caller: each operation starts when the previous one has been checked.
isolab is imported from ``src/`` next to this directory and its public
functions are called directly, as ``cli_harness`` calls them.

``--trace 0`` times whole passes over the workload's fixed set of inputs with
tracing off and reports the end-to-end metrics; ``--seconds`` only decides
how many passes.  ``--trace 1`` alternates untraced and traced rounds of the
workload's reference operations and reports the per-layer metrics and the
tracing overhead; the exact counters of every traced round, and of a traced
round in a fresh process with another string-hash seed, must equal those of
the first, or the run fails.

Every operation is checked against the closed form at the tolerances pinned
in ``tests/test_acceptance.py``.  A failure is a tolerance miss, a typed
``IsolabError``, a raw exception or a numpy floating-point warning.  The run
is correct only if it passes the gate in :func:`verdict`.  The metrics named
in ``BENCHMARK.json`` are printed by name and unit; the last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: the benchmark measures the
# single-threaded library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speed import REF_S, SpeedGauge  # noqa: E402
from tracer import ODE_TARGET, TARGETS, Totals, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAYERS = ("special_fn", "core_linalg", "arrows", "ode_engine", "stokes_numeric",
          "pvi_trajectory", "jmms_flow", "cli_harness", "errors")
SETUP_REPEATS = 9
#: the fresh process of the exact-count check must end within this
FRESH_TIMEOUT_S = 150
#: op_p90_ms needs this many operations; fewer leave too few beyond p90
P90_MIN_OPS = 100
FAIL_KINDS = ("tolerance_miss", "typed_error", "raw_exception", "numpy_warning")
#: errors below this are below double-precision resolution for the O(1)
#: quantities checked, and count as this much
ERR_FLOOR = 1e-17
#: the gate judges a kind of operation over its inputs only if it had this
#: many distinct ones; with fewer, one draw would decide the verdict
MIN_INPUTS = 3


class BenchError(Exception):
    """The benchmark itself cannot run or its results are not trustworthy."""


def load_tolerances(path: Path) -> dict[str, float]:
    """The module-level ``TOL_*`` constants of the acceptance test."""
    tol = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.startswith("TOL_")):
            tol[node.targets[0].id] = float(ast.literal_eval(node.value))
    return tol


def import_isolab() -> dict:
    """Import isolab afresh from ``src/`` and return its layer modules by name."""
    for name in [n for n in sys.modules if n == "isolab" or n.startswith("isolab.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"isolab.{name}") for name in LAYERS}
    origin = Path(modules["arrows"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise BenchError(f"isolab was imported from {origin}, not from {SRC}")
    return modules


# --------------------------------------------------------------------------
# checked operations


@dataclass
class Tally:
    #: (operation kind, check) pairs whose misses the gate exempts
    known_misses: frozenset = frozenset()
    attempted: int = 0
    kinds: dict = field(default_factory=lambda: dict.fromkeys(FAIL_KINDS, 0))
    worst_log10: float = -math.inf  # largest log10(error / tolerance)
    #: (operation kind, check) -> [log10(err/tol)]
    by_check: dict = field(default_factory=dict)
    #: operation kind -> [attempted, checked, missed]; an operation missed if
    #: it fired a numpy warning or missed a check not in ``known_misses``
    by_kind: dict = field(default_factory=dict)
    #: operation kind -> indices of its distinct inputs
    inputs: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    def add(self, index: int, op_kind: str, failure: str | None, checks,
            detail: str) -> None:
        self.attempted += 1
        counts = self.by_kind.setdefault(op_kind, [0, 0, 0])
        counts[0] += 1
        self.inputs.setdefault(op_kind, set()).add(index)
        counts[1] += checks is not None
        missed = set()
        for name, err, tol in checks or ():
            ratio = _log10_ratio(err, tol)
            self.worst_log10 = max(self.worst_log10, ratio)
            self.by_check.setdefault((op_kind, name), array("d")).append(ratio)
            if not err < tol:
                missed.add((op_kind, name))
        counts[2] += failure == "numpy_warning" or bool(missed - self.known_misses)
        if failure is not None:
            self.kinds[failure] += 1
            example = f"item {index}: {failure}: {detail}"
            if len(self.examples) < 5 and example not in self.examples:
                self.examples.append(example)

    def judged(self) -> set:
        """Kinds of operation with at least ``MIN_INPUTS`` distinct inputs."""
        return {kind for kind, seen in self.inputs.items() if len(seen) >= MIN_INPUTS}

    def headroom_log10(self) -> float:
        """Mean over (operation kind, check) of the median log10(tolerance / error)."""
        return -statistics.fmean(statistics.median(v) for v in self.by_check.values())


def _log10_ratio(err: float, tol: float) -> float:
    """log10(err / tol), with errors below double-precision resolution floored."""
    if not err >= 0.0 or math.isinf(err):  # NaN or infinite error
        return math.inf
    return math.log10(max(err, ERR_FLOOR) / tol)


def verdict(workload, tally: Tally) -> list[str]:
    """Why the run is not correct; empty when it is.

    A typed ``IsolabError`` is an outcome isolab promises, so it only counts
    in ``failed``.  The run is not correct if an untyped exception escaped.
    Each kind of operation with at least ``MIN_INPUTS`` distinct inputs is
    also judged over them: the run is not correct if such a kind never
    returned outputs to check, if the median of any of its checks misses its
    tolerance, or if more than the workload's ``max_miss_share`` of the
    operations of these kinds missed.  Checks in the workload's
    ``known_misses`` are exempt from the last two rules.  A timed run judges
    every kind; a traced run repeats one round, where some kinds have a
    single input, and those are judged by the timed runs over the whole set.
    """
    reasons = []
    if tally.kinds["raw_exception"]:
        reasons.append(f"{tally.kinds['raw_exception']} operations raised an "
                       "untyped exception")
    judged = tally.judged()
    for kind in judged:
        if not tally.by_kind[kind][1]:
            reasons.append(f"no '{kind}' operation returned outputs to check")
    for (kind, check), ratios in tally.by_check.items():
        if (kind in judged and (kind, check) not in tally.known_misses
                and not statistics.median(ratios) < 0):
            reasons.append(f"the median '{check}' of '{kind}' misses its tolerance")
    attempted = sum(tally.by_kind[kind][0] for kind in judged)
    missed = sum(tally.by_kind[kind][2] for kind in judged)
    if missed > workload.max_miss_share * attempted:
        reasons.append(f"{missed} of {attempted} operations missed a "
                       f"tolerance or fired a numpy warning; at most "
                       f"{workload.max_miss_share:g} of them may")
    return reasons


def attempt(workload, lib, tol: dict, item, caught: list):
    """Run one operation; return (failure kind or None, checks, detail)."""
    del caught[:]
    try:
        checks = workload.run(lib, tol, item)
    except lib.errors.IsolabError as exc:
        return "typed_error", None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # every untyped escape is a counted failure
        return "raw_exception", None, f"{type(exc).__name__}: {exc}"
    fp_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if fp_warnings:
        return "numpy_warning", checks, str(fp_warnings[0].message)
    misses = [f"{name} {err:.3e} >= {t:.0e}" for name, err, t in checks
              if not err < t]
    if misses:
        return "tolerance_miss", checks, ", ".join(misses)
    return None, checks, ""


# --------------------------------------------------------------------------
# runs


def set_up(workload, seed: int, gauge: SpeedGauge):
    """Import isolab and make the inputs, several times.

    Returns the modules and inputs of the last set-up and, for each set-up,
    its raw time and the bounds of the speed readings around it.
    """
    timings = []
    for _ in range(SETUP_REPEATS):
        start = gauge.mark()
        modules = import_isolab()
        items = workload.generate(SimpleNamespace(**modules), seed,
                                  workload.set_rounds)
        timings.append(gauge.span(start, gauge.mark()))
    return modules, items, timings


class OpLog:
    """Per-operation timings, kept in arrays so that the log of a long run of
    short operations does not swell the peak RSS being measured."""

    def __init__(self) -> None:
        self.raw = array("d")  # seconds, without speed readings
        self.lo = array("l")  # speed readings lo:hi are around the operation
        self.hi = array("l")
        self.kinds: list[str] = []
        self.checked = bytearray()  # 1 if it returned outputs that were checked

    def add(self, timing: tuple, kind: str, checked: bool) -> None:
        raw, lo, hi = timing
        self.raw.append(raw)
        self.lo.append(lo)
        self.hi.append(hi)
        self.kinds.append(kind)
        self.checked.append(checked)


def run_timed(workload, lib, tol: dict, items: list, seconds: float,
              gauge: SpeedGauge):
    """Closed loop of whole passes over the inputs.

    A pass is run while the passes so far, at their mean time, leave room for
    it within ``seconds``; the first pass is always run.  Every run thus
    times the same operations, however fast the code is.
    """
    tally = Tally(known_misses=workload.known_misses)
    log = OpLog()
    passes = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for item in items[:workload.warmup]:
            attempt(workload, lib, tol, item, caught)
        gc.collect()
        first = gauge.mark()
        while not passes or (gauge.mark()[0] - first[0]) * (passes + 1) / passes <= seconds:
            for index, item in enumerate(items):
                start = gauge.mark()
                failure, checks, detail = attempt(workload, lib, tol, item, caught)
                timing = gauge.span(start, gauge.mark())
                op_kind = workload.kind(item)
                log.add(timing, op_kind, checks is not None)
                tally.add(index, op_kind, failure, checks, detail)
            passes += 1
    return tally, log, passes


def run_round(workload, lib, tol: dict, seed: int, tally: Tally, caught: list,
              tracer: Tracer | None = None) -> float:
    """One round of the reference operations, inputs made inside it; its raw time."""
    if tracer is not None:
        tracer.install(vars(lib))
    t0 = time.perf_counter()
    try:
        for i, item in enumerate(workload.generate(lib, seed, 1)):
            if tracer is not None:
                tracer.op_id = i
            tally.add(i, workload.kind(item), *attempt(workload, lib, tol, item,
                                                       caught))
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
            tracer.uninstall()
    return elapsed


def exact_counts(workload, tol: dict, seed: int) -> dict:
    """Exact counts of a traced round after an untraced one, in this process."""
    lib = SimpleNamespace(**import_isolab())
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_round(workload, lib, tol, seed, Tally(), caught)
        run_round(workload, lib, tol, seed, Tally(), caught, tracer)
    return {name: t.exact() for name, t in tracer.end_round().items()}


def fresh_exact_counts(workload, seed: int) -> dict:
    """:func:`exact_counts` in a fresh process with another string-hash seed,
    so that nondeterminism between processes (set or dict order) shows."""
    current = os.environ.get("PYTHONHASHSEED", "")
    other = str((int(current) + 1) % 2**32) if current.isdigit() else "0"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload.name, "--seed", str(seed), "--exact-counts"]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=other),
                              timeout=FRESH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the fresh exact-count process took over "
                         f"{FRESH_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"the fresh exact-count process failed: {proc.stderr[-500:]}")
    counts = json.loads(proc.stdout.splitlines()[-1])
    return {name: tuple(value) for name, value in counts.items()}


def count_mismatch(reference: dict, counts: dict) -> dict:
    """Targets whose (calls, nfev, naccept, nreject) differ: name -> (reference, counts)."""
    return {n: (reference.get(n), counts.get(n)) for n in set(reference) | set(counts)
            if reference.get(n) != counts.get(n)}


def run_traced(workload, modules: dict, tol: dict, seed: int, seconds: float,
               spans_path: Path):
    """Alternating untraced and traced rounds of the reference operations."""
    lib = SimpleNamespace(**modules)
    tally = Tally(known_misses=workload.known_misses)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        plain, traced, rounds = [], [], []
        # One untraced round and one traced round (the fresh process below
        # repeats it), then alternation while time is left, so that drift in
        # machine speed does not leak into the overhead.
        while not rounds or time.perf_counter() - start < seconds:
            if len(plain) <= len(traced):
                plain.append(run_round(workload, lib, tol, seed, tally, caught))
                continue
            traced.append(run_round(workload, lib, tol, seed, tally, caught, tracer))
            rounds.append(tracer.end_round())
    tracer.write_spans(spans_path)

    reference = {name: t.exact() for name, t in rounds[0].items()}
    for r, totals in enumerate(rounds[1:], start=1):
        diff = count_mismatch(reference, {name: t.exact() for name, t in totals.items()})
        if diff:
            raise BenchError(f"exact counts of traced round {r} differ from "
                             f"round 0 (calls, nfev, naccept, nreject): {diff}")
    diff = count_mismatch(reference, fresh_exact_counts(workload, seed))
    if diff:
        raise BenchError("exact counts of a traced round in a fresh process differ "
                         f"from round 0 (calls, nfev, naccept, nreject): {diff}")

    per_round = [layer_values(totals, workload.round_size) for totals in rounds]
    values = {name: statistics.median(v[name] for v in per_round)
              for name in per_round[0]}
    values["trace.overhead_share"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    values["loc.src"] = count_lines(SRC / "isolab")
    values["loc.tests"] = count_lines(ROOT / "tests")
    return tally, values, len(plain), len(rounds)


def layer_values(totals: dict, ops: int) -> dict[str, float]:
    """Per-operation figures of one traced round for every wrapped target."""
    out = {}
    for name in TARGETS:
        t = totals.get(name, Totals())
        out[f"{name}.calls"] = t.calls / ops
        out[f"{name}.busy_s"] = t.busy / ops
        out[f"{name}.steps"] = t.steps / ops
        out[f"{name}.us_per_call"] = 1e6 * t.busy / t.calls if t.calls else 0.0
        out[f"{name}.self_us_per_call"] = (1e6 * t.self_time / t.calls
                                           if t.calls else 0.0)
        if name == ODE_TARGET:
            out[f"{name}.nfev"] = t.nfev / ops
            out[f"{name}.naccept"] = t.naccept / ops
            out[f"{name}.nreject"] = t.nreject / ops
            out[f"{name}.accept_ratio"] = t.naccept / t.steps if t.steps else 0.0
            out[f"{name}.us_per_step"] = 1e6 * t.busy / t.steps if t.steps else 0.0
    return out


def count_lines(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(directory.rglob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# report


def describe_failures(tally: Tally) -> str:
    kinds = ", ".join(f"{k} {v}" for k, v in tally.kinds.items())
    return f"{tally.failed}/{tally.attempted} ({kinds})"


def print_checks(tally: Tally) -> None:
    """Each kind's operation counts and each check's median headroom."""
    judged = tally.judged()
    for kind, (attempted, checked, missed) in tally.by_kind.items():
        note = "" if kind in judged else (
            f", not judged: {len(tally.inputs[kind])} distinct input(s)")
        print(f"operations       {kind}: {attempted} attempted, {checked} checked, "
              f"{missed} missed{note}")
    for (kind, check), ratios in tally.by_check.items():
        known = ", known miss" if (kind, check) in tally.known_misses else ""
        print(f"headroom         {kind} {check}: {-statistics.median(ratios):.4f} "
              f"(median log10(tol/err) over {len(ratios)}{known})")


def mix_median(kinds: list, latencies: list, round_kinds: list) -> float:
    """Median latency of each operation kind, averaged with the kind's share of a round.

    With one kind this is the median.  A workload that mixes kinds of very
    different cost would otherwise have a median that jumps between kinds as
    the mix of a run shifts.
    """
    by_kind: dict[str, list] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    share = Counter(round_kinds)
    present = [kind for kind in share if kind in by_kind]
    if len(present) > 1:
        print("op_p50 by kind   " + ", ".join(
            f"{kind} {1e3 * statistics.median(by_kind[kind]):.1f} ms"
            for kind in present))
    return (sum(share[kind] * statistics.median(by_kind[kind]) for kind in present)
            / sum(share[kind] for kind in present))


def end_to_end(workload, items: list, tally: Tally, log: OpLog, passes: int,
               setups: list, gauge: SpeedGauge) -> dict:
    """End-to-end metrics from scaled times; raw times are printed beside them.

    Throughput and latency count the operations that returned checked
    outputs; the time of those that raised still counts against throughput.
    """
    scaled = [gauge.scaled(*timing) for timing in zip(log.raw, log.lo, log.hi)]
    done = [i for i, checked in enumerate(log.checked) if checked]
    if not done:
        raise BenchError("no operation returned outputs to check")
    done_scaled = [scaled[i] for i in done]
    round_kinds = [workload.kind(item) for item in items[:workload.round_size]]
    print(f"input size       {workload.input_note}")
    print(f"machine speed    gauge kernel '{workload.gauge}' median "
          f"{gauge.median_ms():.4f} ms over {len(gauge.readings)} readings; times "
          f"below are scaled to a kernel time of {1e3 * REF_S:g} ms")
    print(f"raw wall         setup {statistics.median(t[0] for t in setups):.4f} s, "
          f"{len(done) / sum(log.raw):.4f} ops/s, p50 "
          f"{1e3 * statistics.median(log.raw[i] for i in done):.4f} ms")
    values = {
        "setup_s": statistics.median(gauge.scaled(*t) for t in setups),
        "ops_per_s": len(done) / sum(scaled),
        "op_p50_ms": 1e3 * mix_median([log.kinds[i] for i in done], done_scaled,
                                      round_kinds),
        "peak_rss_mb": peak_rss_mb(),
    }
    values["err_headroom_log10"] = tally.headroom_log10()
    print(f"err_to_tol_log10 {tally.worst_log10:.4f}  (largest over the run; "
          "<= 0 means every check passed)")
    n = len(done_scaled)
    if n >= P90_MIN_OPS:
        p90 = 1e3 * statistics.quantiles(done_scaled, n=10)[8]
        print(f"op_p90_ms        {p90:.4f} ms  ({n} samples)")
    else:
        print(f"op_p90_ms        not defined: {n} < {P90_MIN_OPS} operations")
    print(f"fail_share       {tally.failed / tally.attempted:.6f}  "
          f"failed {describe_failures(tally)}")
    print(f"samples          {n} checked of {len(log.raw)} operations in {passes} "
          f"passes; setup is the median of {SETUP_REPEATS}")
    return values


def emit(declared: list, values: dict, tally: Tally, correct: bool) -> None:
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:.6g} {m['unit']}")
    for line in tally.examples:
        print(f"failure          {line}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: print the exact counts of one traced round (run_traced's
    # fresh-process check)
    parser.add_argument("--exact-counts", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if not (SRC / "isolab").is_dir():
            raise BenchError(f"no isolab sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tol = load_tolerances(ROOT / "tests" / "test_acceptance.py")
        sys.path.insert(0, str(SRC))
        np.seterr(divide="warn", over="warn", invalid="warn", under="ignore")
        workload = WORKLOADS[args.workload]
        if args.exact_counts:
            print(json.dumps(exact_counts(workload, tol, args.seed)))
            return 0
        print(f"workload         {workload.name}  seed {args.seed}  "
              f"seconds {args.seconds:g}  trace {args.trace}")
        if args.trace:
            modules = import_isolab()
            spans = BENCH_DIR / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tally, values, n_plain, n_traced = run_traced(
                workload, modules, tol, args.seed, args.seconds, spans)
            print(f"rounds           {n_plain} untraced, {n_traced} traced, "
                  f"{workload.round_size} operations each; exact counts repeat, "
                  f"also in a fresh process; spans of round 0 in "
                  f"{spans.relative_to(ROOT)}")
            print(f"fail_share       {tally.failed / tally.attempted:.6f}  "
                  f"failed {describe_failures(tally)}")
            declared = spec["per_layer"]
        else:
            with SpeedGauge(workload.gauge) as gauge:
                modules, items, setups = set_up(workload, args.seed, gauge)
                tally, log, passes = run_timed(workload, SimpleNamespace(**modules),
                                               tol, items, args.seconds, gauge)
            values = end_to_end(workload, items, tally, log, passes, setups, gauge)
            declared = spec["end_to_end"]
        print_checks(tally)
        reasons = verdict(workload, tally)
        for reason in reasons:
            print(f"not correct      {reason}")
        emit(declared, values, tally, not reasons)
    except (BenchError, ImportError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
