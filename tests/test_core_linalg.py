"""Tests for the small dense linear-algebra kernel.

Eigenvalue routines are cross-checked against two independent oracles: a
hand-rolled Cardano solve of the characteristic cubic and numpy's general
eigensolver.  The structured matrix power is checked against the Sylvester
interpolation formula and against the explicit two-power closed form of the
boundary-block case.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from isolab.core_linalg import (
    as_matrix,
    delta_k,
    eigen2,
    eigen3,
    matrix_power_scalar,
    minor,
)
from isolab.errors import DegenerateSpectrumError, DomainError


def cardano_roots(c2: complex, c1: complex, c0: complex) -> list[complex]:
    """Roots of z^3 + c2 z^2 + c1 z + c0 by Cardano's formula (oracle)."""
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    u3 = -q / 2.0 + cmath.sqrt(disc)
    if u3 == 0:
        u3 = -q / 2.0 - cmath.sqrt(disc)
    u = u3 ** (1.0 / 3.0)
    if u == 0:
        return [-c2 / 3.0] * 3
    omega = complex(-0.5, cmath.sqrt(3).real / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        roots.append(uk - p / (3.0 * uk) - c2 / 3.0)
    return roots


def char_coeffs(m: np.ndarray) -> tuple[complex, complex, complex]:
    e1 = complex(np.trace(m))
    e2 = (e1 * e1 - complex(np.trace(m @ m))) / 2.0
    e3 = complex(np.linalg.det(m))
    return -e1, e2, -e3


def sorted_vals(vals) -> list[complex]:
    return sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag))


class TestEigen2:
    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            pair = eigen2(m)
            ref = sorted_vals(np.linalg.eigvals(m))
            got = sorted_vals([pair.lambda1, pair.lambda2])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_ordering_convention(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = eigen2(m).sigma
            assert s.real > 0 or (s.real == 0 and s.imag >= 0)

    def test_tie_breaks_by_imaginary_part(self):
        pair = eigen2(np.diag([1.0 - 2.0j, 1.0 + 3.0j]))
        assert pair.sigma == pytest.approx(5.0j)

    def test_cancellation_guard_on_widely_split_spectrum(self):
        m = np.array([[1e8, 1.0], [1.0, 1e-8]], dtype=complex)
        pair = eigen2(m)
        ref = sorted_vals(np.linalg.eigvals(m))
        assert abs(pair.lambda2 - ref[1]) < 1e-14 * max(1.0, abs(ref[1]))

    def test_degenerate_flag(self):
        assert eigen2(np.array([[2.0, 1.0], [0.0, 2.0]])).degenerate
        assert not eigen2(np.diag([1.0, 2.0])).degenerate


class TestEigen3:
    def test_against_cardano_and_numpy(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            got = eigen3(m)
            ref_np = sorted_vals(np.linalg.eigvals(m))
            ref_cardano = sorted_vals(cardano_roots(*char_coeffs(m)))
            np.testing.assert_allclose(got, ref_np, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(got, ref_cardano, rtol=1e-7,
                                       atol=1e-7)

    def test_triangular_matrix(self):
        m = np.array([[3.0 + 1j, 5.0, -2.0], [0, -1.0, 7.0], [0, 0, 2.0 - 4j]])
        got = eigen3(m)
        np.testing.assert_allclose(got,
                                   sorted_vals([3.0 + 1j, -1.0, 2.0 - 4j]),
                                   rtol=1e-12, atol=1e-12)

    def test_characteristic_polynomial_residual(self):
        # entries of modulus <= 10; absolute residual of p(lambda) below 1e-10
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = rng.uniform(-7, 7, size=(3, 3)) + 1j * rng.uniform(-7, 7, (3, 3))
            c2, c1, c0 = char_coeffs(m)
            for lam in eigen3(m):
                res = abs(lam ** 3 + c2 * lam ** 2 + c1 * lam + c0)
                assert res < 1e-10
            pair = eigen2(m[:2, :2])
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            for lam in (pair.lambda1, pair.lambda2):
                assert abs(lam * lam - tr * lam + det) < 1e-10


class TestShapeHelpers:
    def test_as_matrix_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DomainError):
            as_matrix(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            as_matrix(np.array([[np.inf, 0], [0, 1.0]]))
        with pytest.raises(DomainError):
            as_matrix(np.eye(2), n=3)

    def test_delta_k_masks(self):
        m = np.arange(9, dtype=complex).reshape(3, 3) + 1.0
        d0 = delta_k(m, 0)
        assert np.array_equal(d0, np.diag(np.diag(m)))
        d2 = delta_k(m, 2)
        expected = np.diag(np.diag(m))
        expected[:2, :2] = m[:2, :2]
        assert np.array_equal(d2, expected)
        assert np.array_equal(delta_k(m, 3), m)
        with pytest.raises(DomainError):
            delta_k(m, 4)

    def test_minor_matches_numpy_det(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert minor(m, (), ()) == 1.0
        assert minor(m, (2,), (1,)) == m[2, 1]
        np.testing.assert_allclose(
            minor(m, (0, 2), (1, 3)),
            np.linalg.det(m[np.ix_([0, 2], [1, 3])]),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            minor(m, (0, 1, 2), (0, 1, 3)),
            np.linalg.det(m[np.ix_([0, 1, 2], [0, 1, 3])]),
            rtol=1e-12,
        )

    def test_public_routines_reject_wrong_size_and_nonfinite(self):
        nonfinite = np.eye(3, dtype=complex)
        nonfinite[1, 0] = np.nan
        for call, wrong_size, bad in [
            (eigen2, np.eye(3), nonfinite[:2, :2]),
            (eigen3, np.eye(2), nonfinite),
            (lambda a: minor(a, (0, 1), (0, 1)), np.zeros((2, 3)), nonfinite),
        ]:
            with pytest.raises(DomainError):
                call(wrong_size)
            with pytest.raises(DomainError):
                call(bad)

    def test_minor_rejects_bad_selections(self):
        m = np.eye(3)
        with pytest.raises(DomainError):
            minor(m, (0, 1), (0,))
        with pytest.raises(DomainError):
            minor(m, (1, 0), (0, 1))
        with pytest.raises(DomainError):
            minor(m, (0, 5), (0, 1))


def sylvester_power_2x2(block: np.ndarray, log_s: complex) -> np.ndarray:
    """s**B for 2x2 B with distinct eigenvalues (Lagrange interpolation)."""
    lam = np.linalg.eigvals(block)
    l1, l2 = lam[0], lam[1]
    e1, e2 = cmath.exp(log_s * l1), cmath.exp(log_s * l2)
    eye = np.eye(2, dtype=complex)
    return (e1 * (block - l2 * eye) - e2 * (block - l1 * eye)) / (l1 - l2)


def boundary_block_power(th1: complex, th2: complex, sigma: complex,
                         x: float) -> np.ndarray:
    """Closed form of x**(-B) for the normalised boundary 2x2 block.

    B = [[-th1, (th1-th2-sigma)/2], [(-th1+th2-sigma)/2, -th2]] has
    eigenvalues -(th1+th2 -/+ sigma)/2; expanding the Sylvester formula gives
    each entry as a combination of x**((th1+th2-sigma)/2) and
    x**((th1+th2+sigma)/2).
    """
    pm = x ** ((th1 + th2 - sigma) / 2.0)
    pp = x ** ((th1 + th2 + sigma) / 2.0)
    return np.array(
        [
            [
                ((-th1 + th2 + sigma) * pm + (th1 - th2 + sigma) * pp) / (2 * sigma),
                ((th1 - th2 - sigma) * pm + (-th1 + th2 + sigma) * pp) / (2 * sigma),
            ],
            [
                ((-th1 + th2 - sigma) * pm + (th1 - th2 + sigma) * pp) / (2 * sigma),
                ((th1 - th2 + sigma) * pm + (-th1 + th2 + sigma) * pp) / (2 * sigma),
            ],
        ],
        dtype=complex,
    )


class TestMatrixPowerScalar:
    def random_block_diag(self, rng, n=3):
        m = np.zeros((n, n), dtype=complex)
        m[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for i in range(2, n):
            m[i, i] = rng.normal() + 1j * rng.normal()
        return m

    def test_against_sylvester_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = self.random_block_diag(rng)
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
            got = matrix_power_scalar(m, s)
            ref = sylvester_power_2x2(m[:2, :2], cmath.log(s))
            np.testing.assert_allclose(got[:2, :2], ref, rtol=1e-11, atol=1e-12)
            assert got[2, 2] == pytest.approx(s ** m[2, 2])
            assert np.all(got[2, :2] == 0) and np.all(got[:2, 2] == 0)

    def test_boundary_block_closed_form(self):
        th1, th2, sigma = 0.31 + 0.02j, -0.225 + 0.04j, 0.57 - 0.08j
        b = np.array(
            [[-th1, (th1 - th2 - sigma) / 2], [(-th1 + th2 - sigma) / 2, -th2]],
            dtype=complex,
        )
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = -b  # x**(-B) = matrix_power_scalar(-B, x)
        m[2, 2] = 0.41
        for x in (1e-4, 1e-2, 0.3):
            got = matrix_power_scalar(m, x)
            ref = boundary_block_power(th1, th2, sigma, x)
            np.testing.assert_allclose(got[:2, :2], ref, rtol=1e-12, atol=1e-14)

    def test_inverse_law(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = self.random_block_diag(rng)
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
            p = matrix_power_scalar(m, s)
            q = matrix_power_scalar(m, 1.0 / s, log_s=-cmath.log(s))
            np.testing.assert_allclose(p @ q, np.eye(3), rtol=0, atol=1e-10)

    def test_explicit_log_selects_sheet(self):
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = np.diag([0.3 + 0.1j, -0.2j])
        m[2, 2] = 0.7
        x = 0.25
        base = matrix_power_scalar(m, x)
        shifted = matrix_power_scalar(m, x, log_s=cmath.log(x) + 2j * cmath.pi)
        factor = np.exp(2j * cmath.pi * np.diag(m))
        np.testing.assert_allclose(np.diag(shifted), np.diag(base) * factor,
                                   rtol=1e-12)

    def test_coincident_diagonal_block_is_allowed(self):
        m = np.diag([0.5, 0.5, 1.0]).astype(complex)
        got = matrix_power_scalar(m, 2.0)
        np.testing.assert_allclose(np.diag(got), [2 ** 0.5, 2 ** 0.5, 2.0],
                                   rtol=1e-14)

    def test_nondiagonalisable_block_rejected(self):
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = np.array([[1.0, 1.0], [0.0, 1.0]])
        m[2, 2] = 2.0
        with pytest.raises(DegenerateSpectrumError):
            matrix_power_scalar(m, 2.0)

    def test_shape_and_base_validation(self):
        full = np.ones((3, 3), dtype=complex)
        with pytest.raises(DomainError):
            matrix_power_scalar(full, 2.0)
        ok = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(DomainError):
            matrix_power_scalar(ok, 0.0)
        with pytest.raises(DomainError):
            matrix_power_scalar(ok, -1.0)
        # negative real base works once a log sheet is chosen explicitly
        got = matrix_power_scalar(ok, -1.0, log_s=1j * cmath.pi)
        np.testing.assert_allclose(np.diag(got),
                                   np.exp(1j * cmath.pi * np.array([1, 2, 3])),
                                   rtol=1e-12)
