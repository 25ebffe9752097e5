"""Acceptance gate: nine end-to-end criteria for the whole correspondence.

Each criterion is one test that prints a single ``criterion N: PASS/FAIL``
line with the measured numbers; the assertion carries the same line, so the
verdicts are visible both in the run log (via ``-rA``) and in any failure
output.  Tolerances are pinned here and must not be loosened to make a
criterion pass; ``cli_harness.TOLERANCES``, at which the ``isolab``
subcommands gate, must equal them.

The first four criteria share one deterministic 100-sample sweep of the
closed-form maps; the later ones drive the ODE oracles (numerical Stokes
matrices, the Painleve VI trajectory ladder, and the isomonodromic
deformation flow) against the same closed forms.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
import pytest

from isolab.arrows import (
    PviAsymptoticData,
    arrow_f,
    arrow_g,
    arrow_p,
    arrow_q,
    genericity_margin,
)
from isolab.cli_harness import (
    TOLERANCES,
    U_BASE,
    SampleSpec,
    _random_flow_state,
    bridged_phi_at_u0,
    closed_form_checks,
    flow_checks,
    ladder_checks,
    rhs_checks,
    sample_parameters,
    shrink_checks,
    shrink_sample,
    stokes_checks,
)
from isolab.core_linalg import delta_k, matrix_power_scalar
from isolab.jmms_flow import flow_path, shrinking_check
from isolab.pvi_trajectory import regularized_limits
from isolab.special_fn import gamma_c
from isolab.stokes_numeric import IrregularSystem, stokes_matrices

N_SWEEP = 100
TOL_ROUNDTRIP = 1e-8
TOL_TRACE_IDENTITY = 1e-9
TOL_CUBIC = 1e-8
TOL_P12 = 1e-10
TOL_STOKES_ENTRY = 1e-6
TOL_STOKES_TRI = 1e-6
TOL_STOKES_DIAG = 1e-8
TOL_LADDER_ENTRY = 1e-4
TOL_LADDER_EXPONENT = 0.1
TOL_JMMS_DIAG = 1e-10
TOL_JMMS_SPECTRUM = 1e-8
TOL_JMMS_EQUIV = 1e-13
TOL_BAND = 1e-3
TOL_GAMMA = 1e-10
TOL_MATRIX_POWER = 1e-10


def test_cli_gates_at_these_tolerances():
    # every ``isolab`` subcommand reads its tolerances from this one table
    assert TOLERANCES == {
        "roundtrip": TOL_ROUNDTRIP,
        "trace_identity": TOL_TRACE_IDENTITY,
        "cubic": TOL_CUBIC,
        "p12": TOL_P12,
        "stokes_entry": TOL_STOKES_ENTRY,
        "stokes_triangularity": TOL_STOKES_TRI,
        "stokes_diagonal": TOL_STOKES_DIAG,
        "ladder_entry": TOL_LADDER_ENTRY,
        "ladder_exponent": TOL_LADDER_EXPONENT,
        "flow_diag": TOL_JMMS_DIAG,
        "flow_spectrum": TOL_JMMS_SPECTRUM,
        "rhs_equivalence": TOL_JMMS_EQUIV,
        "shrink_band": TOL_BAND,
    }


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """100 deterministic generic samples pushed through F.P.G.Q."""
    spec = SampleSpec()
    t0 = time.perf_counter()
    rows = []
    for i in range(N_SWEEP):
        d = sample_parameters(spec, i)
        # the sweep must stay inside the advertised sampling window
        assert genericity_margin(d) >= 0.02
        assert 0.05 <= d.sigma.real <= 0.95
        assert all(abs(t) <= 2.0 for t in d.thetas) and abs(d.J) <= 2.0
        m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
        rows.append(dict(closed_form_checks(d, m, arrow_f(m, d.thetas))))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stokes_batch():
    """5 generic boundary values checked against the numerical Stokes oracle."""
    spec = SampleSpec(narrow=True)
    t0 = time.perf_counter()
    rows = []
    for i in range(5):
        d = sample_parameters(spec, i)
        closed = arrow_g(arrow_q(d))
        phi = bridged_phi_at_u0(d)
        num = stokes_matrices(IrregularSystem(U_BASE, phi), rtol=1e-12)
        rows.append(dict(stokes_checks(closed, num)))
    return rows, time.perf_counter() - t0


def test_criterion_1_roundtrip_identity(sweep):
    rows, elapsed = sweep
    worst = max(r["roundtrip"] for r in rows)
    _criterion(
        1, worst < TOL_ROUNDTRIP,
        f"F.P.G.Q roundtrip on (sigma, J): max rel err {worst:.3e} < "
        f"{TOL_ROUNDTRIP:.0e} over {len(rows)} samples ({elapsed:.2f}s)",
    )


def test_criterion_2_trace_identity(sweep):
    rows, _ = sweep
    worst = max(r["trace_identity"] for r in rows)
    _criterion(
        2, worst < TOL_TRACE_IDENTITY,
        f"a + b = d/(L J) residual: max {worst:.3e} < {TOL_TRACE_IDENTITY:.0e} "
        f"over {len(rows)} samples",
    )


def test_criterion_3_fricke_cubic(sweep):
    rows, _ = sweep
    worst = max(r["cubic"] for r in rows)
    _criterion(
        3, worst < TOL_CUBIC,
        f"Fricke cubic residual of P.G.Q traces: max {worst:.3e} < "
        f"{TOL_CUBIC:.0e} over {len(rows)} samples",
    )


def test_criterion_4_p12_cosine(sweep):
    rows, _ = sweep
    worst = max(r["p12"] for r in rows)
    _criterion(
        4, worst < TOL_P12,
        f"p12 = 2cos(pi sigma): max abs err {worst:.3e} < {TOL_P12:.0e} "
        f"over {len(rows)} samples",
    )


def test_criterion_5_stokes_oracle(stokes_batch):
    rows, elapsed = stokes_batch
    entry = max(r["stokes_entry"] for r in rows)
    tri = max(r["stokes_triangularity"] for r in rows)
    diag = max(r["stokes_diagonal"] for r in rows)
    ok = (entry < TOL_STOKES_ENTRY and tri < TOL_STOKES_TRI
          and diag < TOL_STOKES_DIAG)
    _criterion(
        5, ok,
        f"numerical vs closed-form Stokes matrices at u = i diag(0,1,3): "
        f"max entry err {entry:.3e} < {TOL_STOKES_ENTRY:.0e}, triangularity "
        f"{tri:.3e} < {TOL_STOKES_TRI:.0e}, diagonal law {diag:.3e} < "
        f"{TOL_STOKES_DIAG:.0e} on {len(rows)} samples ({elapsed:.1f}s)",
    )


def test_criterion_6_regularized_limits():
    base = sample_parameters(SampleSpec(), 0)
    t0 = time.perf_counter()
    entry_errs, exp_errs = [], []
    for re_sigma in (0.25, 0.5, 0.75):
        d = PviAsymptoticData(base.theta1, base.theta2, base.theta3,
                              base.theta_inf, complex(re_sigma, 0.05), base.J)
        err = dict(ladder_checks(d, regularized_limits(d, x_small=1e-5, n_ladder=14)))
        entry_errs.append(err["ladder_entry"])
        exp_errs.append(err["ladder_exponent"])
    elapsed = time.perf_counter() - t0
    ok = (max(entry_errs) < TOL_LADDER_ENTRY
          and max(exp_errs) < TOL_LADDER_EXPONENT)
    _criterion(
        6, ok,
        f"trajectory ladder to x = 1e-5 at Re sigma in (0.25, 0.5, 0.75): "
        f"max entrywise err {max(entry_errs):.3e} < {TOL_LADDER_ENTRY:.0e}, "
        f"max exponent err {max(exp_errs):.3f} < {TOL_LADDER_EXPONENT} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_7_deformation_flow_conservation():
    t0 = time.perf_counter()
    equiv = 0.0
    rng = np.random.default_rng([2026, 0])
    for _ in range(1000):
        u, phi = _random_flow_state(rng, 3)
        k = int(rng.integers(0, 3))
        equiv = max(equiv, dict(rhs_checks(u, phi, k))["rhs_equivalence"])

    drifts = {}
    for index, n in ((0, 3), (1, 4)):
        rng = np.random.default_rng([2026, 10 + index])
        u, phi = _random_flow_state(rng, n)
        pts = [u]
        for _ in range(10):
            pts.append(pts[-1] + 0.3 * (rng.normal(size=n)
                                        + 1j * rng.normal(size=n)))
        err = dict(flow_checks(phi, flow_path(pts, phi, rtol=1e-12)))
        drifts[n] = (err["flow_diag"], err["flow_spectrum"])
    elapsed = time.perf_counter() - t0

    diag = max(v[0] for v in drifts.values())
    spec = max(v[1] for v in drifts.values())
    ok = (equiv < TOL_JMMS_EQUIV and diag < TOL_JMMS_DIAG
          and spec < TOL_JMMS_SPECTRUM)
    _criterion(
        7, ok,
        f"deformation flow over length-10 paths at n = 3, 4: diag drift "
        f"{diag:.3e} < {TOL_JMMS_DIAG:.0e}, spectral drift {spec:.3e} < "
        f"{TOL_JMMS_SPECTRUM:.0e}; entrywise vs commutator right-hand side "
        f"{equiv:.3e} < {TOL_JMMS_EQUIV:.0e} on 1000 states ({elapsed:.1f}s)",
    )


def test_criterion_8_shrinking_band():
    spec = SampleSpec(narrow=True)
    t0 = time.perf_counter()
    errs = []
    reach = 1e10
    for i in range(3):
        d, _ = shrink_sample(spec, 100 * (i + 1))
        phi = bridged_phi_at_u0(d)
        rep = shrinking_check(U_BASE, phi, reach=reach)
        errs.append(dict(shrink_checks(d, rep))["shrink_band"])
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    _criterion(
        8, worst < TOL_BAND,
        f"shrinking-band rays of reach {reach:.0e}: max |band - |Re sigma|| "
        f"{worst:.3e} < {TOL_BAND:.0e} on {len(errs)} states ({elapsed:.1f}s)",
    )


def test_criterion_9_special_function_laws():
    # gamma on a deterministic grid clear of the poles of both z and 1 - z
    zs = [complex(x, y)
          for x in np.linspace(-3.63, 4.37, 21)
          for y in np.linspace(-2.5, 2.5, 11)
          if min(abs(complex(x, y) - n) for n in range(-6, 7)) > 0.15]
    assert len(zs) > 150
    rec = max(abs(gamma_c(z + 1) - z * gamma_c(z)) / abs(gamma_c(z + 1))
              for z in zs)
    refl = max(abs(gamma_c(z) * gamma_c(1 - z) - math.pi / cmath.sin(math.pi * z))
               / abs(math.pi / cmath.sin(math.pi * z)) for z in zs)

    rng = np.random.default_rng(99)
    inv = 0.0
    for _ in range(50):
        a = delta_k(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 2)
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        prod = matrix_power_scalar(a, s) @ matrix_power_scalar(-a, s)
        inv = max(inv, float(np.max(np.abs(prod - np.eye(3)))))

    ok = (rec < TOL_GAMMA and refl < TOL_GAMMA and inv < TOL_MATRIX_POWER)
    _criterion(
        9, ok,
        f"gamma recurrence {rec:.3e} and reflection {refl:.3e} < "
        f"{TOL_GAMMA:.0e} on {len(zs)} grid points; matrix power inverse law "
        f"{inv:.3e} < {TOL_MATRIX_POWER:.0e}",
    )
