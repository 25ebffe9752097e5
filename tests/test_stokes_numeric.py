"""Tests for the numerical Stokes extraction: canonical frames continued
around the irregular point, triangularity/diagonal structure, agreement with
the closed-form pair, rescaling covariance, and the monodromy law.

Independent oracles: the exact diagonal solution e^{-i pi phi_kk} for a
diagonal residue, the closed-form Gamma-product Stokes pair reached through
the trajectory bridge, and the spectral monodromy law
eig(S- S+) = exp(-2 pi i eig(Phi)).
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isolab import stokes_numeric
from isolab.arrows import PviAsymptoticData, arrow_g, arrow_q
from isolab.cli_harness import stokes_checks
from isolab.core_linalg import as_matrix
from isolab.errors import AccuracyError, DomainError
from isolab.stokes_numeric import IrregularSystem, monodromy_mismatch, stokes_matrices

U3 = np.array([0.0, 1.0j, 3.0j])
D_SAMPLE = PviAsymptoticData(0.21, -0.33, 0.41, 0.52, 0.45, 1.1)


def rescaled_phi(phi, t: complex, sheet: int = 0) -> np.ndarray:
    """Transported residue t^{-dPhi} Phi t^{dPhi} matching the rescaling u -> t u.

    The Stokes matrices satisfy S(t u, Phi) = t^{dPhi} S(u, Phi) t^{-dPhi};
    transporting Phi this way therefore leaves them invariant.
    """
    m = as_matrix(phi)
    log_t = cmath.log(complex(t)) + 2j * cmath.pi * sheet
    e = np.exp(log_t * np.diag(m))
    return (1.0 / e)[:, None] * m * e[None, :]


@pytest.fixture(scope="module")
def bridged():
    """One bridged sample (Phi at the base configuration, numeric and closed S)."""
    from isolab.cli_harness import U_BASE, bridged_phi_at_u0

    phi = bridged_phi_at_u0(D_SAMPLE)
    system = IrregularSystem(np.array(U_BASE), phi)
    num = stokes_matrices(system, rtol=1e-10)
    closed = arrow_g(arrow_q(D_SAMPLE))
    return system, num, closed


class TestSystemValidation:
    """Convention checks on (u, Phi) at construction."""

    def test_rejects_real_u(self):
        with pytest.raises(DomainError, match="purely imaginary"):
            IrregularSystem(np.array([0.0, 1.0, 3.0]), np.zeros((3, 3)))

    def test_rejects_unordered_u(self):
        with pytest.raises(DomainError, match="increasing"):
            IrregularSystem(np.array([3.0j, 1.0j, 0.0]), np.zeros((3, 3)))

    def test_rejects_resonant_diagonal(self):
        phi = np.diag([0.7, -0.3, 0.1]).astype(complex)  # 0.7 - (-0.3) = 1
        with pytest.raises(DomainError, match="resonant diagonal"):
            IrregularSystem(U3, phi)

    def test_rejects_resonant_spectrum(self):
        phi = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # eigs {0, 1}
        with pytest.raises(DomainError, match="resonant spectrum"):
            IrregularSystem(np.array([0.0, 2.0j]), phi)


class TestDiagonalResidue:
    """For diagonal Phi both Stokes matrices are exactly e^{-i pi Phi}."""

    def test_diagonal_case(self):
        phi = np.diag([0.21 + 0.1j, -0.33, 0.41 - 0.05j])
        system = IrregularSystem(U3, phi)
        res = stokes_matrices(system, rtol=1e-11)
        want = np.exp(-1j * np.pi * np.diag(phi))
        for s in (res.s_plus, res.s_minus):
            assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-10
            assert_allclose(np.diag(s), want, rtol=0, atol=1e-8)
        assert res.triangularity_residual < 1e-10
        assert res.diag_residual < 1e-8


class TestBridgedAgreement:
    """Numeric Stokes of the bridged system against the closed form."""

    def test_entrywise_agreement(self, bridged):
        _, num, closed = bridged
        assert dict(stokes_checks(closed, num))["stokes_entry"] < 1e-6

    def test_structure_residuals(self, bridged):
        _, num, _ = bridged
        assert num.triangularity_residual < 1e-6
        assert num.diag_residual < 1e-8
        assert num.series_tail_estimate < 1e-8

    def test_monodromy_law(self, bridged):
        system, num, _ = bridged
        assert monodromy_mismatch(system, num.s_plus, num.s_minus) < 1e-6

    def test_radius_doubling_stability(self, bridged, monkeypatch):
        system, num, _ = bridged
        monkeypatch.setattr(stokes_numeric, "default_radius", lambda _: 2 * num.radius)
        num2 = stokes_matrices(system, rtol=1e-9)
        assert num2.radius == 2 * num.radius
        assert np.max(np.abs(num2.s_plus - num.s_plus)) < 1e-6
        assert np.max(np.abs(num2.s_minus - num.s_minus)) < 1e-6

    def test_rescaling_invariance(self, bridged):
        # transporting Phi with the rescaling of u leaves the pair invariant
        system, num, _ = bridged
        t = 2.0
        sys_t = IrregularSystem(t * system.u, rescaled_phi(system.phi, t))
        num_t = stokes_matrices(sys_t, rtol=1e-9)
        assert np.max(np.abs(num_t.s_plus - num.s_plus)) < 1e-6
        assert np.max(np.abs(num_t.s_minus - num.s_minus)) < 1e-6

    def test_raw_rescaling_conjugates(self, bridged):
        # with Phi held fixed, S(t u) = t^{dPhi} S(u) t^{-dPhi}
        system, num, _ = bridged
        t = 2.0
        sys_raw = IrregularSystem(t * system.u, system.phi)
        num_raw = stokes_matrices(sys_raw, rtol=1e-9)
        e = t ** np.diag(system.phi)
        assert np.max(np.abs(num_raw.s_plus - e[:, None] * num.s_plus / e[None, :])) < 1e-6
        assert np.max(np.abs(num_raw.s_minus - e[:, None] * num.s_minus / e[None, :])) < 1e-6


class TestAccuracyGuard:
    """The structural residual check fails loudly, not silently."""

    def test_unattainable_check_tol_raises(self, bridged, monkeypatch):
        system, _, _ = bridged
        monkeypatch.setattr(stokes_numeric, "_CHECK_TOL", 1e-15)
        with pytest.raises(AccuracyError) as exc_info:
            stokes_matrices(system, rtol=1e-8)
        assert exc_info.value.residual > 1e-15


class TestRescaledPhi:
    """The transported-residue helper itself."""

    def test_conjugation_form(self):
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 1.5 - 0.5j
        got = rescaled_phi(phi, t)
        d = np.diag(phi)
        e = np.exp(np.log(complex(t)) * d)
        assert_allclose(got, (1.0 / e)[:, None] * phi * e[None, :], rtol=1e-13)
        assert_allclose(np.diag(got), d, rtol=1e-14)

    def test_sheet_shifts_branch(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = rescaled_phi(phi, 2.0, sheet=0)
        up = rescaled_phi(phi, 2.0, sheet=1)
        d = np.diag(phi)
        factors = np.exp(2j * np.pi * (d[None, :] - d[:, None]))
        assert_allclose(up, base * factors, rtol=1e-12)
