"""Survey the trajectory bridge and the Stokes oracle over seeded narrow draws.

Each draw ``SampleSpec(seed, narrow=True)`` index ``i`` is bridged to Phi at
``U_BASE`` (``cli_harness.bridged_phi_at_u0``), run through
``stokes_matrices(rtol=1e-12)`` and compared entrywise with
``arrow_g(arrow_q(d))``; the triangularity and diagonal residuals are checked
too, all at the ``TOL_STOKES_*`` values of ``tests/test_acceptance.py``.

    python3 tools/bridge_survey.py --seeds 1000 1059 --draws 3

Standard output is deterministic: the outcome counts (pass, typed errors by
class, tolerance misses, numpy warnings, untyped exceptions), one line per
draw that did not pass, and the median headroom log10(tol / err) of each
check over the draws that returned.  Timings and work counts go to standard
error, summed over the draws: the time spent in the lattice solve
(``pvi_trajectory._solve_lattice_series``); the time and the accepted and
rejected DOP853 steps of the trajectory integration
(``pvi_trajectory.integrate``); and the time in ``stokes_matrices`` with the
Taylor steps and terms that it reported.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from isolab import pvi_trajectory  # noqa: E402
from isolab.arrows import arrow_g, arrow_q  # noqa: E402
from isolab.cli_harness import (  # noqa: E402
    U_BASE, SampleSpec, bridged_phi_at_u0, sample_parameters)
from isolab.errors import IsolabError  # noqa: E402
from isolab.stokes_numeric import IrregularSystem, stokes_matrices  # noqa: E402

CHECKS = ("entry", "triangularity", "diagonal")


def stokes_tolerances() -> dict[str, float]:
    """TOL_STOKES_{ENTRY,TRI,DIAG}, read from the acceptance tests."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tol = {node.targets[0].id: ast.literal_eval(node.value)
           for node in tree.body
           if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
           and node.targets[0].id.startswith("TOL_STOKES_")}
    return dict(zip(CHECKS, (tol["TOL_STOKES_ENTRY"], tol["TOL_STOKES_TRI"],
                             tol["TOL_STOKES_DIAG"])))


def check_draw(d, cost: Counter) -> dict[str, float]:
    closed = arrow_g(arrow_q(d))
    system = IrregularSystem(U_BASE, bridged_phi_at_u0(d))
    t0 = time.perf_counter()
    try:
        num = stokes_matrices(system, rtol=1e-12)
    finally:
        cost["stokes_s"] += time.perf_counter() - t0
    cost["steps"] += num.steps
    cost["terms"] += num.terms
    entry = max(float(np.max(np.abs(num.s_plus - closed.s_plus))),
                float(np.max(np.abs(num.s_minus - closed.s_minus))))
    return dict(zip(CHECKS, (entry, num.triangularity_residual, num.diag_residual)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1000, 1059),
                    metavar=("FIRST", "LAST"), help="inclusive seed range")
    ap.add_argument("--draws", type=int, default=3, help="narrow draws 0..N-1 per seed")
    args = ap.parse_args(argv)
    tol = stokes_tolerances()

    solve = pvi_trajectory._solve_lattice_series
    solve_s = [0.0]

    def timed_solve(*a, **k):
        t0 = time.perf_counter()
        try:
            return solve(*a, **k)
        finally:
            solve_s[0] += time.perf_counter() - t0

    pvi_trajectory._solve_lattice_series = timed_solve

    step = pvi_trajectory.integrate
    dop853: Counter = Counter()

    def counted_integrate(*a, **k):
        t0 = time.perf_counter()
        try:
            sol = step(*a, **k)
        finally:
            dop853["s"] += time.perf_counter() - t0
        dop853["accepted"] += sol.naccept
        dop853["rejected"] += sol.nreject
        return sol

    pvi_trajectory.integrate = counted_integrate

    seeds = range(args.seeds[0], args.seeds[1] + 1)
    outcomes: Counter = Counter()
    cost: Counter = Counter()
    failures: list[str] = []
    headroom: dict[str, list[float]] = {c: [] for c in CHECKS}
    for seed in seeds:
        spec = SampleSpec(seed=seed, narrow=True)
        for i in range(args.draws):
            d = sample_parameters(spec, i)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    errs = check_draw(d, cost)
                except IsolabError as exc:
                    kind, note = f"typed_error {type(exc).__name__}", str(exc)
                except Exception as exc:  # noqa: BLE001 - a survey counts every outcome
                    kind, note = f"untyped_error {type(exc).__name__}", str(exc)
                else:
                    for c in CHECKS:
                        headroom[c].append(float(np.log10(tol[c] / max(errs[c], 1e-300))))
                    missed = [c for c in CHECKS if not errs[c] < tol[c]]
                    kind = "tolerance_miss" if missed else "pass"
                    note = ", ".join(f"{c} {errs[c]:.2e}" for c in missed)
                if caught and kind == "pass":
                    kind, note = "numpy_warning", str(caught[0].message)
            outcomes[kind] += 1
            if kind != "pass":
                failures.append(f"  {seed} {i} {kind}: {note[:100]}")

    print(f"bridge survey: seeds {seeds.start}-{seeds.stop - 1}, narrow draws "
          f"0-{args.draws - 1}, {len(seeds) * args.draws} draws")
    for kind in sorted(outcomes):
        print(f"{kind}: {outcomes[kind]}")
    if failures:
        print("not passed:")
        print("\n".join(failures))
    for c in CHECKS:
        if headroom[c]:
            print(f"median headroom {c}: {statistics.median(headroom[c]):.2f}")
    print(f"lattice solve: {solve_s[0]:.2f} s", file=sys.stderr)
    print(f"trajectory DOP853: {dop853['s']:.2f} s, {dop853['accepted']} accepted, "
          f"{dop853['rejected']} rejected steps", file=sys.stderr)
    print(f"stokes_matrices: {cost['stokes_s']:.2f} s, {cost['steps']} steps, "
          f"{cost['terms']} terms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
