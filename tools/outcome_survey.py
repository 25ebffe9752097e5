"""Outcome of every operation of a perfbench workload's fixed set, per seed.

For each seed the workload's fixed set of inputs (``set_rounds`` rounds, as
one timed pass of ``perfbench/run.py`` makes them) is run once, untimed,
through perfbench's own ``attempt`` at the tolerances perfbench reads from
``tests/test_acceptance.py``, with the same numpy error settings and warning
capture as a timed run:

    python3 tools/outcome_survey.py --workload stokes_oracle --seeds 1 300

Standard output is deterministic: one line per failed operation (seed,
index, kind, failure class, detail), a ``failed/attempted`` table per seed,
perfbench's per-kind operation counts and median headroom log10(tol / err)
of each check over every seed, and the SHA-256 digest of every operation's
seed, index and failure class and every check's ``(name, repr(error))``, so
two versions of the code can be compared with ``diff``.  It needs only numpy
and is run from the repository root.  Per-layer timings are not reported
here; ``perfbench/run.py --trace 1`` reports them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

# perfbench's run module pins the BLAS threads before numpy loads
from run import Tally, attempt, import_isolab, load_tolerances, print_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs=2, required=True,
                    metavar=("FIRST", "LAST"), help="inclusive seed range")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tol = load_tolerances(ROOT / "tests" / "test_acceptance.py")
    lib = SimpleNamespace(**import_isolab())
    np.seterr(divide="warn", over="warn", invalid="warn", under="ignore")

    digest = hashlib.sha256()
    tally = Tally(known_misses=workload.known_misses)
    table = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            items = workload.generate(lib, seed, workload.set_rounds)
            failed = 0
            for index, item in enumerate(items):
                failure, checks, detail = attempt(workload, lib, tol, item, caught)
                # each (seed, index) is a distinct input of its kind
                tally.add(tally.attempted, workload.kind(item), failure, checks, detail)
                digest.update(f"{seed} {index} {failure}\n".encode())
                for name, err, _ in checks or ():
                    digest.update(f"{name} {err!r}\n".encode())
                if failure is not None:
                    failed += 1
                    print(f"failed {seed} {index} {workload.kind(item)}: "
                          f"{failure}: {detail}")
            table.append((seed, failed, len(items)))

    print(f"outcome survey: {workload.name}, seeds {args.seeds[0]}-{args.seeds[1]}")
    print("seed failed/attempted")
    for seed, failed, attempted in table:
        print(f"{seed} {failed}/{attempted}")
    print(f"total {sum(t[1] for t in table)}/{sum(t[2] for t in table)}")
    print_checks(tally)
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
