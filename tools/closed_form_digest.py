"""Digest every output of the closed-form maps over seeded draws.

For each seed and both sampler boxes (the default box and the narrow one),
draw ``i`` of ``SampleSpec(seed, narrow=...)`` runs through

* the cycle Q -> G -> P -> F (``arrow_q``, ``arrow_g``, ``arrow_p``,
  ``arrow_f``), whose ``cubic`` check of ``cli_harness.closed_form_checks``
  is held to the ``TOL_CUBIC`` of ``tests/test_acceptance.py``;
* ``arrow_q_inverse(arrow_q(d))``;
* ``arrow_g_direct(d, 1.3-0.2j, 0.8+0.5j)``;
* ``genericity_margin(d)`` and ``sorted(validate_generic(d, tol=0.05))``,
  messages included.

    python3 tools/closed_form_digest.py --seeds 2026 401 --draws 4000

Standard output is deterministic: per seed and box, the number of draws,
the cubic misses, the errors by class and a SHA-256 over the raw bytes of
every output (an error contributes its class name), then one line per draw
that missed or raised and the totals.  Two versions of the code compute
bit-identical closed forms exactly when their outputs are identical, so
they can be compared with ``diff``.  The run time goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

# perfbench's run module pins the BLAS threads before numpy loads
from run import load_tolerances  # noqa: E402

import numpy as np  # noqa: E402

from isolab.arrows import (  # noqa: E402
    arrow_f, arrow_g, arrow_g_direct, arrow_p, arrow_q, arrow_q_inverse,
    genericity_margin, validate_generic)
from isolab.cli_harness import (  # noqa: E402
    SampleSpec, closed_form_checks, sample_parameters)
from isolab.errors import IsolabError  # noqa: E402

#: Gauge of the ``arrow_g_direct`` call, away from the k1 = k2 = 1 default.
GAUGE = (1.3 - 0.2j, 0.8 + 0.5j)

#: Tolerance of the hashed ``validate_generic`` call: above the sampler's
#: margin of 0.02, so some draws list violated conditions.
GENERIC_TOL = 0.05


def _cycle(d):
    b = arrow_q(d)
    s = arrow_g(b)
    m = arrow_p(s, d.thetas)
    sigma, j = arrow_f(m, d.thetas)
    traces = [m.p12, m.p13, m.p23, m.p1, m.p2, m.p3, m.p_inf]
    cubic = dict(closed_form_checks(d, m, (sigma, j)))["cubic"]
    return [b.phi0, s.s_plus, s.s_minus, traces, [sigma, j]], cubic


def _inverse(d):
    r = arrow_q_inverse(arrow_q(d))
    return [[*r.thetas, r.sigma, r.J]], None


def _direct(d):
    g = arrow_g_direct(d, *GAUGE)
    return [g.s_plus, g.s_minus], None


STAGES = (("cycle", _cycle), ("q_inverse", _inverse), ("g_direct", _direct))


def digest_box(spec: SampleSpec, draws: int, tol: float, notes: list[str]):
    """(SHA-256 hex, cubic misses, Counter of error classes) over one box."""
    box = "narrow" if spec.narrow else "default"
    h = hashlib.sha256()
    misses = 0
    errors: Counter = Counter()
    for i in range(draws):
        d = sample_parameters(spec, i)
        h.update(np.float64(genericity_margin(d)).tobytes())
        h.update("\n".join(sorted(validate_generic(d, tol=GENERIC_TOL))).encode() + b"\0")
        for name, stage in STAGES:
            try:
                outs, cubic = stage(d)
            except Exception as exc:  # untyped escapes are counted, not fatal
                cls = type(exc).__name__
                if not isinstance(exc, IsolabError):
                    cls += " (untyped)"
                errors[cls] += 1
                h.update(f"{name}:{cls};".encode())
                notes.append(f"seed {spec.seed} {box} {i}: {name} raised {cls}")
                continue
            for out in outs:
                h.update(np.asarray(out, dtype=complex).tobytes())
            if cubic is not None and not cubic < tol:
                misses += 1
                notes.append(f"seed {spec.seed} {box} {i}: cubic {cubic:.6e}")
    return h.hexdigest(), misses, errors


def _fmt_errors(errors: Counter) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(errors.items())) or "none"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[2026],
                    help="sampler seeds")
    ap.add_argument("--draws", type=int, default=4000,
                    help="draws 0..N-1 per seed and box")
    args = ap.parse_args(argv)
    tol = load_tolerances(ROOT / "tests" / "test_acceptance.py")["TOL_CUBIC"]

    t0 = time.perf_counter()
    total = hashlib.sha256()
    notes: list[str] = []
    n_misses = 0
    all_errors: Counter = Counter()
    for seed in args.seeds:
        for narrow in (False, True):
            spec = SampleSpec(seed=seed, narrow=narrow)
            hexd, misses, errors = digest_box(spec, args.draws, tol, notes)
            total.update(hexd.encode())
            n_misses += misses
            all_errors.update(errors)
            print(f"seed {seed} {'narrow' if narrow else 'default'}: "
                  f"{args.draws} draws, {misses} cubic misses, "
                  f"errors: {_fmt_errors(errors)}, sha256 {hexd}")
    for line in notes:
        print(line)
    n_draws = 2 * len(args.seeds) * args.draws
    print(f"total: {n_draws} draws, {n_misses} cubic misses at TOL_CUBIC={tol:g}, "
          f"errors: {_fmt_errors(all_errors)}")
    print(f"sha256 {total.hexdigest()}")
    print(f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
