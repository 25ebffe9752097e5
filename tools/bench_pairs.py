"""Alternating parent/change pairs of perfbench runs, summarised per workload.

    python3 tools/bench_pairs.py --parent REV --change REV --seeds 9601 9610 \
        --out BENCH_30.json [--what "one line on the change"]

Each revision is extracted with ``git archive`` into its own temporary copy,
and ``perfbench/run.py --trace 0`` is run unchanged from that copy's root, one
run at a time, for the ``run_seconds`` and every workload of
``BENCHMARK.json``.  For every workload and every seed in the inclusive range
both sides run once at that seed; the parent runs first on odd seeds, the change
on even ones.  ``--out`` is rewritten after every run, so an interrupted
survey keeps the runs it made.

The file holds ``runs`` (one entry per run: workload, seed, side, whether it
ran first, ``correct``, ``attempted``, ``failed``, ``passes`` and the
end-to-end metrics) and ``summary`` (per workload: the number of pairs,
whether every run of a side was correct, per-seed ``[seed, failed,
attempted]`` and ``[seed, passes]`` lists of each side, each side's pooled
``[failed, attempted]`` over its seeds and its one-pass share, whether each
seed has the same failed/attempted share on both sides, and, for each end-to-end
metric of ``BENCHMARK.json``, its bound, the inclusive quartiles of each side,
the parent's IQR, the pairs the change won and the signed median change,
positive when better: relative, or absolute for a log10 metric).  A timed run
makes as many whole passes over its workload's fixed set as its time allows,
and ``attempted`` counts every pass; ``passes`` is the count perfbench
prints ("... in N passes").  The pooled share weights each seed by its
passes, while the one-pass share, sum(failed / passes) / sum(attempted /
passes), weights every seed once; a pooled share that moves while the
one-pass share stays moved only because the pass counts differ.  Both
shares are printed per workload at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PASSES = re.compile(r" in (\d+) passes;")


def extract(rev: str, into: Path) -> Path:
    """A ``git archive`` copy of ``rev`` in a new directory under ``into``."""
    dest = Path(tempfile.mkdtemp(prefix="bench-", dir=into))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's closing JSON line of one untraced run, with its passes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    passes = PASSES.search(proc.stdout)
    if not lines or not lines[-1].startswith("{") or passes is None:
        raise RuntimeError(f"{workload} seed {seed} in {copy} printed no result:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "passes": int(passes.group(1))}


def quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(med, 6), round(q3, 6)]


def metric_summary(spec: dict, pairs: list[tuple[dict, dict]]) -> dict:
    name, higher = spec["name"], spec["better"] == "higher"
    parent = [p["metrics"][name] for p, _ in pairs]
    change = [c["metrics"][name] for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
    out = {"bound": spec["bound"], "parent_q1_med_q3": pq, "change_q1_med_q3": cq,
           "parent_iqr": round(pq[2] - pq[0], 6), "change_wins": f"{wins}/{len(pairs)}"}
    if spec["unit"] == "log10":
        out["median_change_abs"] = round(gain, 6)
    else:
        out["median_change_rel"] = round(gain / pq[1], 4)
    return out


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [(s["parent"], s["change"]) for s in by_seed.values() if len(s) == 2]
        if len(pairs) < 2:  # quartiles need two pairs
            continue
        entry = {"pairs": len(pairs)}
        for i, side in enumerate(SIDES):
            entry[f"{side}_correct"] = all(pair[i]["correct"] for pair in pairs)
            entry[f"{side}_failed_attempted"] = [
                [pair[i]["seed"], pair[i]["failed"], pair[i]["attempted"]] for pair in pairs]
            entry[f"{side}_passes"] = [[pair[i]["seed"], pair[i]["passes"]]
                                       for pair in pairs]
            runs_of_side = [pair[i] for pair in pairs]
            entry[f"{side}_pooled_failed_attempted"] = [
                sum(r["failed"] for r in runs_of_side),
                sum(r["attempted"] for r in runs_of_side)]
            entry[f"{side}_one_pass_share"] = round(
                sum(r["failed"] / r["passes"] for r in runs_of_side)
                / sum(r["attempted"] / r["passes"] for r in runs_of_side), 8)
        entry["same_share_every_seed"] = all(
            p["failed"] * c["attempted"] == c["failed"] * p["attempted"] for p, c in pairs)
        entry["same_passes_every_seed"] = all(p["passes"] == c["passes"] for p, c in pairs)
        for spec in specs:
            entry[spec["name"]] = metric_summary(spec, pairs)
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--seeds", type=int, nargs=2, required=True,
                    metavar=("FIRST", "LAST"), help="inclusive seed range")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="directory for the two copies (default: system temp)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                                 check=True, capture_output=True, text=True).stdout.strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.workdir) as tmp:
        copies = {side: extract(rev, Path(tmp)) for side, rev in revs.items()}
        report = {
            "what": args.what,
            "machine": (f"{os.cpu_count()}-vCPU {platform.system()}, Python "
                        f"{platform.python_version()}, OpenBLAS pinned to 1 thread"),
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                        f"{seconds:g} --trace 0"),
            "protocol": (
                f"parent {revs['parent']} against change {revs['change']}; "
                f"{args.seeds[1] - args.seeds[0] + 1} pairs per workload at seeds "
                f"{args.seeds[0]}-{args.seeds[1]}; both sides of a pair use the same "
                "seed, each in its own git-archive copy of its revision; the parent "
                "runs first on odd seeds; runs are sequential; quartiles inclusive; "
                "median_change_rel is signed so that positive means better; a log10 "
                "metric reports median_change_abs; failed/attempted counts every "
                "operation of every pass, and passes is the count perfbench prints"),
            "summary": {},
            "runs": [],
        }
        for workload in workloads:
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for first, side in zip((True, False), order):
                    result = run_once(copies[side], workload, seed, seconds)
                    report["runs"].append({
                        "workload": workload, "seed": seed, "side": side,
                        "first": first, "correct": result["correct"],
                        "attempted": result["attempted"], "failed": result["failed"],
                        "passes": result["passes"],
                        "metrics": {s["name"]: result["metrics"][s["name"]]["value"]
                                    for s in specs},
                    })
                    print(f"{workload} {seed} {side}: "
                          + json.dumps(report["runs"][-1]["metrics"]), flush=True)
                report["summary"] = summarise(report["runs"], specs)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["summary"].items():
        for side in SIDES:
            failed, attempted = entry[f"{side}_pooled_failed_attempted"]
            print(f"{workload} {side}: pooled {failed}/{attempted}, "
                  f"one-pass share {entry[f'{side}_one_pass_share']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
