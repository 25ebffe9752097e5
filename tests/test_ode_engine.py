"""Tests for the adaptive Dormand-Prince 8(5,3) integrator.

Order and accuracy are certified against closed-form solutions (matrix
exponentials, elementary ODEs) rather than against another library: halving
the step of the integrator's own one-step function must shrink the error by
~2^8.  The error norm is checked against its definition, and the step
controller's work counts are pinned.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from isolab.errors import BudgetError, DomainError, SingularityError
from isolab.ode_engine import _error_norm, _step, integrate


def linear_rhs(a: np.ndarray):
    return lambda t, y: a @ y


def fixed_steps(f, t0: float, t1: float, y0, n: int) -> np.ndarray:
    """``n`` equal steps of the integrator's DOP853 step from t0 to t1."""
    y = np.asarray(y0, dtype=complex)
    k = np.empty((13, y.shape[0]), dtype=complex)
    h = (t1 - t0) / n
    for i in range(n):
        k[0] = f(t0 + i * h, y)
        y = _step(f, t0 + i * h, y, h, k)
    return y


def expm_oracle(a: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(vals * t)) @ np.linalg.inv(vecs)


class TestAccuracy:
    def test_linear_system_matches_exponential(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        sol = integrate(linear_rhs(a), 0.0, 2.0, y0, rtol=1e-12, atol=1e-14)
        ref = expm_oracle(a, 2.0) @ y0
        np.testing.assert_allclose(sol.y_end, ref, rtol=1e-10, atol=1e-11)

    def test_backward_integration(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        y0 = np.array([1.0, 0.0], dtype=complex)
        fwd = integrate(linear_rhs(a), 0.0, 3.0, y0, rtol=1e-12, atol=1e-14)
        back = integrate(linear_rhs(a), 3.0, 0.0, fwd.y_end, rtol=1e-12,
                         atol=1e-14)
        np.testing.assert_allclose(back.y_end, y0, rtol=0, atol=1e-10)

    def test_tolerance_is_respected_on_stiffish_decay(self):
        sol = integrate(lambda t, y: -8.0 * y, 0.0, 4.0,
                        np.array([1.0 + 0j]), rtol=1e-11, atol=1e-13)
        assert abs(sol.y_end[0] - math.exp(-32.0)) < 1e-11


class TestOrder:
    def test_fixed_step_halving_shows_eighth_order(self):
        # y' = y*cos(t), exact y = exp(sin(t)); the global error of the
        # eighth-order scheme falls by ~2^8 when h is halved (accept 180..360)
        def err_at(n):
            y = fixed_steps(lambda t, y: y * math.cos(t), 0.0, 2.0, [1.0], n)
            return abs(y[0] - math.exp(math.sin(2.0)))

        e1, e2 = err_at(5), err_at(10)
        ratio = e1 / e2
        assert 180.0 < ratio < 360.0


class TestErrorNorm:
    def test_matches_definition(self):
        # |h| n5 / sqrt((n5 + 0.01 n3) 2n), n5 and n3 summed over the 2n real
        # and imaginary parts, each weighted by
        # atol + rtol * max(|y0 part|, |y1 part|)
        rng = np.random.default_rng(7)
        n = 40

        def draw():
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v[:5] = 0.0
            v[5:10] = rng.normal(size=5) * 1e8 + 1j * rng.normal(size=5) * 1e-8
            v[10:13] = 1j * rng.normal(size=3)
            return v

        for rtol, atol, h in ((1e-10, 1e-12, 0.3), (1e-6, 1e-14, -2.5),
                              (1e-12, 1e-3, 1e-4)):
            e5, e3, y0, y1 = draw() * 1e-9, draw() * 1e-7, draw(), draw()
            parts = [np.concatenate([v.real, v.imag]) for v in (e5, e3, y0, y1)]
            sk = atol + rtol * np.maximum(np.abs(parts[2]), np.abs(parts[3]))
            n5 = np.sum((parts[0] / sk) ** 2)
            n3 = np.sum((parts[1] / sk) ** 2)
            ref = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 2 * n)
            got = _error_norm(np.array([e5, e3]), h, y0, y1, rtol, atol)
            assert abs(got - ref) <= 1e-14 * ref

    def test_zero_when_both_estimates_vanish(self):
        y = np.array([1.0 + 1j, 0.0])
        assert _error_norm(np.zeros((2, 2), dtype=complex), 0.5, y, y,
                           1e-10, 1e-12) == 0.0


class TestControllerPinned:
    """Exact (nfev, naccept, nreject): the step sequence is the controller's."""

    def test_linear_system(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        sol = integrate(linear_rhs(a), 0.0, 2.0, y0, rtol=1e-12, atol=1e-14)
        assert (sol.nfev, sol.naccept, sol.nreject) == (698, 58, 0)

    def test_nonlinear(self):
        sol = integrate(lambda t, y: y * y + t, 0.0, 1.0,
                        np.array([0.5 + 0.1j]))
        assert (sol.nfev, sol.naccept, sol.nreject) == (194, 16, 0)

    def test_with_rejected_steps(self):
        sol = integrate(lambda t, y: np.sin(20.0 * t) * y, 0.0, 3.0,
                        np.array([1.0 + 0j]))
        assert (sol.nfev, sol.naccept, sol.nreject) == (1550, 122, 7)


class TestFailureModes:
    def test_movable_singularity_detected(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        with pytest.raises(SingularityError) as exc:
            integrate(lambda t, y: y * y, 0.0, 2.0, np.array([1.0 + 0j]),
                      rtol=1e-10, atol=1e-12)
        assert abs(complex(exc.value.location) - 1.0) < 1e-3

    def test_step_floor_follows_t_near_origin(self):
        # y' = y/t from t0 = 1e-15 (exact y = t) needs steps of about 1e-15,
        # far below 1e-13 of the span but not below 1e-13 of |t|
        sol = integrate(lambda t, y: y / t, 1e-15, 1.0, [1e-15])
        assert abs(sol.y_end[0] - 1.0) < 1e-10

    def test_interior_pole_away_from_origin_detected(self):
        # y' = y^2, y(100) = 1 blows up at t = 101
        with pytest.raises(SingularityError) as exc:
            integrate(lambda t, y: y * y, 100.0, 103.0, np.array([1.0 + 0j]),
                      max_steps=1000)
        assert abs(complex(exc.value.location) - 101.0) < 1e-3

    @pytest.mark.parametrize("rhs, t0, t1", [
        (lambda t, y: y * y, -1.0, 1.0),  # y = -1/t, crossed at t = 0
        (lambda t, y: -y / t, 1.0, 0.0),  # y = 1/t, reached at the end t = 0
    ], ids=["crossed", "at_end"])
    def test_pole_at_origin_detected_within_budget(self, rhs, t0, t1):
        # the span-relative backstop stops the approach to t = 0, where the
        # |t|-relative floor alone would keep shrinking the step
        with pytest.raises(SingularityError) as exc:
            integrate(rhs, t0, t1, np.array([1.0 + 0j]), max_steps=1000)
        assert abs(complex(exc.value.location)) < 1e-10

    def test_division_by_zero_in_rhs_is_a_singularity(self):
        # the last stage of the step from t = -0.5 evaluates 1/t at t = 0
        with pytest.raises(SingularityError) as exc:
            fixed_steps(lambda t, y: np.array([1.0 / t]), -1.0, 1.0, [0.0], 4)
        assert exc.value.location == -0.5

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            integrate(lambda t, y: np.sin(50.0 * t) * y, 0.0, 100.0,
                      np.array([1.0 + 0j]), rtol=1e-12, atol=1e-14,
                      max_steps=10)

    def test_invalid_input_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t, y: y, 0.0, 1.0, np.ones((2, 2), dtype=complex))

    def test_zero_span_returns_initial(self):
        y0 = np.array([2.0 + 1j])
        sol = integrate(lambda t, y: y, 1.0, 1.0, y0)
        np.testing.assert_array_equal(sol.y_end, y0)
