"""Tests for the trajectory oracle: series seeding, upward integration,
residue matrices, and the regularised x -> 0 limit families.

Independent oracles: numpy eigenvalues for spectral conservation along the
trajectory, the closed-form boundary value as the limit target, synthetic
power-law data for the extrapolators, and seed/extend self-consistency at
two different seed points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isolab.arrows import PviAsymptoticData, arrow_q
from isolab.core_linalg import delta_k
from isolab.cli_harness import SampleSpec, ladder_checks, sample_parameters
from isolab.errors import ConvergenceError, DomainError, SingularityError
from isolab import pvi_trajectory
from isolab.pvi_trajectory import (
    PuiseuxSeries,
    TrajectorySeed,
    _basis_series,
    _check_cancellation,
    _residual_series,
    _solve_lattice_series,
    correction_powers,
    extend_trajectory,
    extrapolate_known_powers,
    gamma_exponents,
    omega_from_state,
    a_matrix,
    pvi_rhs,
    regularized_limits,
    seed_asymptotic,
)

D_REAL = PviAsymptoticData(0.21, -0.33, 0.41, 0.52, 0.5, 1.1)
D_COMPLEX = PviAsymptoticData(0.21 + 0.04j, -0.33 - 0.06j, 0.41 + 0.07j,
                              0.52 - 0.03j, 0.3 + 0.1j, 1.1 - 0.4j)
D_MIXED = PviAsymptoticData(0.21 + 0.05j, -0.33 - 0.11j, 0.41 + 0.07j,
                            0.52 - 0.09j, 0.445 + 0.12j, 1.1 * cmath.exp(0.7j))


def leading_order_seed(d: PviAsymptoticData, x0: float) -> TrajectorySeed:
    """The leading term y = J x^(1-sigma) as a seed, for tests that need no accuracy."""
    g1, g2 = gamma_exponents(d.thetas, d.sigma)
    return TrajectorySeed(x0, d.J * x0 ** (1 - d.sigma),
                          d.J * (1 - d.sigma) * x0 ** -d.sigma,
                          g1 * math.log(x0), g2 * math.log(x0), truncation_error=x0)


class TestPuiseuxSeries:
    """Finite Puiseux series on the (1 - sigma, sigma) exponent lattice."""

    SIGMA = 0.4 + 0.1j

    def test_monomial_evaluation(self):
        s = PuiseuxSeries.monomial(self.SIGMA, 10.0, (2, 1), 3.0 - 1.0j)
        x0 = 0.37
        want = (3.0 - 1.0j) * x0 ** (2 * (1 - self.SIGMA) + self.SIGMA)
        assert_allclose(s.evaluate(x0), want, rtol=1e-14)

    def test_ring_operations_match_pointwise(self):
        a = PuiseuxSeries(self.SIGMA, 10.0, {(1, 0): 2.0, (0, 1): 1.0 - 0.5j})
        b = PuiseuxSeries(self.SIGMA, 10.0, {(1, 1): -0.7, (2, 0): 0.3j})
        x0 = 0.21
        assert_allclose((a + b).evaluate(x0), a.evaluate(x0) + b.evaluate(x0), rtol=1e-14)
        assert_allclose((a - b).evaluate(x0), a.evaluate(x0) - b.evaluate(x0), rtol=1e-14)
        assert_allclose((a * b).evaluate(x0), a.evaluate(x0) * b.evaluate(x0), rtol=1e-13)
        assert_allclose(a.scale(2.0j).evaluate(x0), 2.0j * a.evaluate(x0), rtol=1e-14)

    def test_product_truncates_at_cap(self):
        a = PuiseuxSeries(self.SIGMA, 1.5, {(1, 0): 1.0, (1, 1): 1.0})
        b = PuiseuxSeries(self.SIGMA, 1.5, {(1, 0): 1.0})
        prod = a * b
        # (2, 1) has real exponent 2(1-s) + s = 1.6 > cap and must be dropped
        assert prod.coeff((2, 1)) == 0
        assert prod.coeff((2, 0)) == 1.0

    def test_derivative_shifts_lattice_keys(self):
        s = PuiseuxSeries.monomial(self.SIGMA, 10.0, (2, 1), 1.5)
        e = 2 * (1 - self.SIGMA) + self.SIGMA
        d = s.derivative()
        assert_allclose(d.coeff((1, 0)), 1.5 * e, rtol=1e-14)
        x0 = 0.3
        assert_allclose(d.evaluate(x0), 1.5 * e * x0 ** (e - 1), rtol=1e-14)

    def test_inverse_is_multiplicative_inverse(self):
        # truncation leaves a residual of order x^cap
        s = PuiseuxSeries(self.SIGMA, 4.0, {(0, 0): 1.0, (0, 1): 0.4, (1, 0): -0.2j})
        x0 = 0.01
        assert_allclose(s.inverse().evaluate(x0) * s.evaluate(x0), 1.0, rtol=1e-9)

    def test_primitive_splits_log_term(self):
        s = PuiseuxSeries(self.SIGMA, 4.0, {(-1, -1): 2.5, (0, 1): 1.0})
        g, prim = s.primitive_skip_log()
        assert g == 2.5
        e = self.SIGMA
        assert_allclose(prim.coeff((1, 2)), 1.0 / (e + 1), rtol=1e-14)

    def test_incompatible_series_rejected(self):
        a = PuiseuxSeries(0.4, 4.0, {(1, 0): 1.0})
        b = PuiseuxSeries(0.5, 4.0, {(1, 0): 1.0})
        with pytest.raises(DomainError):
            _ = a + b

    def test_evaluate_requires_positive_point(self):
        s = PuiseuxSeries.monomial(self.SIGMA, 4.0, (1, 0))
        with pytest.raises(DomainError):
            s.evaluate(0.0)


class TestSeeding:
    """Series seeds for the trajectory near x = 0."""

    def test_lattice_agrees_with_three_term_at_leading_orders(self):
        # reference: the explicit three-term expansion J x^(1-s) + j1 x^(1+s) + j2 x
        d, x0 = D_MIXED, 1e-4
        t1, t2, s, J = d.theta1, d.theta2, d.sigma, d.J
        j1 = (s * s - (t1 - t2) ** 2) * (s * s - (t1 + t2) ** 2) / (16 * s ** 4 * J)
        j2 = (t1 * t1 - t2 * t2 + s * s) / (2 * s * s)
        three_term = J * x0 ** (1 - s) + j1 * x0 ** (1 + s) + j2 * x0
        seed = seed_asymptotic(d, x0)
        assert abs(seed.y - three_term) / abs(seed.y) < 0.05

    def test_seed_then_integrate_matches_higher_seed(self):
        # integrate up from a deep seed and compare against seeding directly
        # at the higher point; gauges compared at the k = exp(w) level (w
        # itself is only defined modulo the integration path)
        s_lo = seed_asymptotic(D_MIXED, 1e-4, target_rel=1e-10)
        pt = extend_trajectory(D_MIXED.thetas, s_lo, [1e-3], rtol=1e-12)[0]
        s_hi = seed_asymptotic(D_MIXED, 1e-3)
        assert abs(pt.y - s_hi.y) / abs(s_hi.y) < 1e-6
        assert abs(pt.yp - s_hi.yp) / abs(s_hi.yp) < 5e-6
        assert abs(pt.k1 - cmath.exp(s_hi.w1)) / abs(cmath.exp(s_hi.w1)) < 1e-6
        assert abs(pt.k2 - cmath.exp(s_hi.w2)) / abs(cmath.exp(s_hi.w2)) < 1e-6

    def test_target_rel_moves_seed_down(self):
        seed = seed_asymptotic(D_MIXED, 1e-3, target_rel=1e-8)
        assert seed.x0 <= 1e-3
        assert seed.truncation_error <= 1e-8

    def test_descent_rechecks_the_estimate_after_each_halving(self):
        # seed 1002 draw 0 meets its target after 24 halvings, at 5.96e-13,
        # below the descent's former floor of 1e-12
        d = sample_parameters(SampleSpec(seed=1002, narrow=True), 0)
        seed = seed_asymptotic(d, 1e-5, target_rel=1e-9)
        assert seed.x0 == 1e-5 * 0.5 ** 24
        assert seed.truncation_error <= 1e-9

    def test_descent_stops_at_its_floor(self):
        with pytest.raises(ConvergenceError, match="unattainable") as info:
            seed_asymptotic(D_MIXED, 1e-3, target_rel=1e-300)
        x_last = float(str(info.value).split("at x = ")[1].split()[0])
        assert 1e-15 <= x_last < 2e-15

    def test_seed_point_validation(self):
        with pytest.raises(DomainError):
            seed_asymptotic(D_MIXED, 0.6)

    def test_re_sigma_zero_is_refused(self):
        d = PviAsymptoticData(0.25, -0.52, 0.31, 0.47, 0.3j, 1.0)
        with pytest.raises(DomainError, match=r"Re\(sigma\) = 0.0 is not in \(0, 1\)"):
            seed_asymptotic(d, 1e-4)


class TestTrajectory:
    """Upward integration and the residue matrices along the trajectory."""

    def test_extend_rejects_targets_below_seed(self):
        seed = leading_order_seed(D_MIXED, 1e-3)
        with pytest.raises(DomainError):
            extend_trajectory(D_MIXED.thetas, seed, [1e-4])

    def test_extend_empty_targets(self):
        seed = leading_order_seed(D_MIXED, 1e-3)
        assert extend_trajectory(D_MIXED.thetas, seed, []) == []

    def test_tolerance_consistency(self):
        seed = seed_asymptotic(D_COMPLEX, 1e-4, target_rel=1e-9)
        lo = extend_trajectory(D_COMPLEX.thetas, seed, [0.05], rtol=1e-9)[0]
        hi = extend_trajectory(D_COMPLEX.thetas, seed, [0.05], rtol=1e-12)[0]
        assert abs(lo.y - hi.y) / abs(hi.y) < 1e-7
        assert abs(lo.k1 - hi.k1) / abs(hi.k1) < 1e-7

    def test_residue_spectrum_is_conserved(self):
        # isomonodromy: the residue matrix keeps the spectrum
        # {0, (+-theta_inf - theta1 - theta2 - theta3)/2} at every x
        d = D_MIXED
        seed = seed_asymptotic(d, 1e-4, target_rel=1e-8)
        pts = extend_trajectory(d.thetas, seed, [1e-3, 1e-2, 0.05], rtol=1e-12)
        total = d.theta1 + d.theta2 + d.theta3
        want = sorted([0.0, (d.theta_inf - total) / 2, (-d.theta_inf - total) / 2],
                      key=lambda z: (complex(z).real, complex(z).imag))
        for pt in pts:
            om = omega_from_state(d.thetas, pt.x, pt.y, pt.yp, pt.k1, pt.k2)
            got = sorted(np.linalg.eigvals(om), key=lambda z: (z.real, z.imag))
            assert_allclose(got, want, rtol=0, atol=1e-11)

    def test_omega_diagonal(self):
        d = D_MIXED
        seed = seed_asymptotic(d, 1e-4, target_rel=1e-8)
        pt = extend_trajectory(d.thetas, seed, [1e-3])[0]
        om = omega_from_state(d.thetas, pt.x, pt.y, pt.yp, pt.k1, pt.k2)
        assert_allclose(np.diag(om), [-d.theta1, -d.theta2, -d.theta3], rtol=0, atol=0)

    def test_a_matrix_is_truncation_of_conjugated_omega(self):
        d = D_MIXED
        seed = seed_asymptotic(d, 1e-4, target_rel=1e-8)
        pt = extend_trajectory(d.thetas, seed, [1e-3])[0]
        a = a_matrix(d.thetas, pt)
        # delta_2 shape: zero outside the upper 2x2 block and the diagonal
        assert a[0, 2] == 0 and a[1, 2] == 0 and a[2, 0] == 0 and a[2, 1] == 0
        om = omega_from_state(d.thetas, pt.x, pt.y, pt.yp, pt.k1, pt.k2)
        lx = np.log(pt.x)
        e = np.exp(np.array([-lx * t for t in d.thetas[:3]], dtype=complex))
        conj = (e[:, None] * om) / e[None, :]
        assert_allclose(a[:2, :2], conj[:2, :2], rtol=0, atol=1e-15)

    def test_singularity_location_is_an_x_value(self, monkeypatch):
        # the integration variable is t = log x; a singularity met at t is
        # reported at x = e^t
        def raising(f, t0, t1, y0, **kwargs):
            raise SingularityError("step size collapsed", location=math.log(0.0371))

        monkeypatch.setattr(pvi_trajectory, "integrate", raising)
        seed = leading_order_seed(D_MIXED, 1e-3)
        with pytest.raises(SingularityError) as info:
            extend_trajectory(D_MIXED.thetas, seed, [0.05])
        assert info.value.location == pytest.approx(0.0371, rel=1e-14)


class TestExtrapolation:
    """Power-law extrapolators on synthetic data."""

    def test_known_powers_recovery(self):
        sigma = 0.3
        powers = correction_powers(sigma)
        xs = np.array([1e-5 * 2 ** j for j in range(8)])
        limit = np.array([[1.0, -2.0j], [0.5 + 0.5j, 3.0]])
        rng = np.random.default_rng(5)
        coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in powers]
        mats = [limit + sum(c * x ** p for c, p in zip(coeffs, powers)) for x in xs]
        got = extrapolate_known_powers(xs, mats, powers)
        assert_allclose(got, limit, rtol=1e-8, atol=1e-10)

    def test_correction_powers_sorted_and_deduplicated(self):
        assert correction_powers(0.5) == [0.5, 1.0]
        got = correction_powers(0.3)
        assert got == [0.3, 0.6, 0.7, 1.0]


class TestRegularizedLimits:
    """End-to-end ladder: the regularised families converge to the closed form."""

    def test_b_family_converges_to_boundary_value(self):
        rep = regularized_limits(D_REAL, x_small=1e-5, n_ladder=14)
        assert dict(ladder_checks(D_REAL, rep))["ladder_entry"] < 1e-5

    def test_a_family_converges_to_truncated_boundary_value(self):
        rep = regularized_limits(D_REAL, x_small=1e-5, n_ladder=14)
        assert np.max(np.abs(rep.a_limit - delta_k(arrow_q(D_REAL).phi0, 2))) < 1e-5

    def test_exponent_reports(self):
        # y correction: slope of y/(J x^(1-sigma)) - 1 -> min(Re s, 1 - Re s)
        rep = regularized_limits(D_REAL, x_small=1e-5, n_ladder=14)
        assert dict(ladder_checks(D_REAL, rep))["ladder_exponent"] < 0.1
        assert not rep.degraded

    def test_exponent_reports_complex_sigma(self):
        rep = regularized_limits(D_COMPLEX, x_small=1e-5, n_ladder=14)
        err = dict(ladder_checks(D_COMPLEX, rep))
        assert err["ladder_exponent"] < 0.1
        assert err["ladder_entry"] < 1e-5

    def test_degraded_flag_near_power_collision(self):
        # sigma = 0.52: the correction powers 0.52 and 0.48 nearly collide
        d = PviAsymptoticData(0.21, -0.33, 0.41, 0.52, 0.52, 1.1)
        rep = regularized_limits(d, x_small=1e-4, n_ladder=8)
        assert rep.degraded

    def test_ladder_must_stay_small(self):
        with pytest.raises(DomainError, match="ladder"):
            regularized_limits(D_REAL, x_small=0.05, n_ladder=3)

    def test_empty_ladder_rejected(self):
        with pytest.raises(DomainError, match="n_ladder"):
            regularized_limits(D_REAL, n_ladder=0)

    def test_rejects_nongeneric(self):
        d = PviAsymptoticData(1.0, -0.33, 0.41, 0.52, 0.5, 1.1)
        with pytest.raises(DomainError):
            regularized_limits(d)

    def test_ladder_metadata(self):
        rep = regularized_limits(D_REAL, x_small=1e-4, n_ladder=6)
        assert len(rep.xs) == 6 == len(rep.a_values) == len(rep.b_values)
        assert rep.xs == sorted(rep.xs)
        assert rep.seed.x0 < rep.xs[0]
        assert rep.seed.truncation_error <= 1e-8


class TestRhsSeriesConsistency:
    """The lattice series and the direct right-hand side validate each other."""

    def test_series_second_derivative_matches_rhs(self):
        y_series, _ = _solve_lattice_series(D_MIXED, 2.2)
        x0 = 1e-3
        y0 = y_series.evaluate(x0)
        yp0 = y_series.derivative().evaluate(x0)
        ypp0 = y_series.derivative().derivative().evaluate(x0)
        out = pvi_rhs(D_MIXED.thetas)(x0, np.array([y0, yp0, 0.0, 0.0], dtype=complex))
        assert out[0] == yp0
        assert abs(out[1] - ypp0) / abs(ypp0) < 1e-4


LATTICE_DRAWS = pytest.mark.parametrize("d", [
    D_MIXED,
    # coefficients up to 2e8
    sample_parameters(SampleSpec(seed=1007, narrow=True), 1),
], ids=["mixed", "seed1007-narrow1"])


class TestLatticeLevels:
    """What the level-by-level solve relies on: within a level a + b, the
    residual at base + (a, b) is affine in that key's coefficient alone,
    with slope E^2, E = a(1 - sigma) + b sigma."""

    BASE = (-1, -2)

    @LATTICE_DRAWS
    def test_coefficient_moves_only_its_own_key_by_e_squared(self, d):
        y, lam = _solve_lattice_series(d, 2.2)
        basis = _basis_series(y.sigma, y.cap)
        res = _residual_series(y, d.thetas, *basis)
        delta = 1e-3 * max(abs(v) for v in y.c.values())
        for a, b in lam:
            e = a * (1.0 - d.sigma) + b * d.sigma
            key = (self.BASE[0] + a, self.BASE[1] + b)
            moved = PuiseuxSeries(y.sigma, y.cap, y.c, valid=y.valid)
            moved.c[(1 + a, b)] = moved.coeff((1 + a, b)) + delta
            shift = (_residual_series(moved, d.thetas, *basis).coeff(key)
                     - res.coeff(key))
            assert abs(shift - e * e * delta) <= 1e-9 * abs(e * e * delta)
            others = [self.BASE] + [
                (self.BASE[0] + a2, self.BASE[1] + b2) for a2, b2 in lam
                if a2 + b2 <= a + b and (a2, b2) != (a, b)]
            _check_cancellation(moved, d.thetas, others, basis)

    @LATTICE_DRAWS
    def test_one_residual_evaluation_per_level(self, d, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _residual_series(*args)

        monkeypatch.setattr(pvi_trajectory, "_residual_series", counted)
        _, lam = _solve_lattice_series(d, 2.2)
        assert len(calls) <= len({a + b for a, b in lam}) + 2


class TestLatticeCancellation:
    """The cancellation check of the lattice series is sharp at any scale."""

    @pytest.mark.parametrize("d", [
        D_MIXED,
        # coefficients up to 2e8, where a unit secant step loses the slope
        sample_parameters(SampleSpec(seed=1007, narrow=True), 1),
    ], ids=["mixed", "seed1007-narrow1"])
    def test_perturbed_coefficient_fails(self, d):
        y, lam = _solve_lattice_series(d, 2.2)
        keys = [(-1, -2)] + [(a - 1, b - 2) for a, b in lam]
        _check_cancellation(y, d.thetas, keys)
        scale = max(abs(v) for v in y.c.values())
        # some keys (e.g. (0, 3) at these thetas) vanish identically and hold
        # rounding noise only; a relative perturbation of those means nothing
        solved = [(a, b) for a, b in lam if abs(y.coeff((1 + a, b))) > 1e-12 * scale]
        assert len(solved) >= 10
        for a, b in solved:
            bad = PuiseuxSeries(y.sigma, y.cap, y.c, valid=y.valid)
            bad.c[(1 + a, b)] *= 1.0 + 1e-6
            with pytest.raises(ConvergenceError, match="did not cancel"):
                _check_cancellation(bad, d.thetas, keys)

    def test_majorant_bounds_moduli(self):
        a = PuiseuxSeries(0.4 + 0.1j, 6.0, {(1, 0): 2.0, (0, 1): 1.0 - 0.5j})
        b = PuiseuxSeries(0.4 + 0.1j, 6.0, {(0, 0): 1.0, (1, 1): -0.7j})
        plain = (a - b) * b.inverse()
        bound = (a.to_majorant() - b.to_majorant()) * b.to_majorant().inverse()
        assert bound.c.keys() >= plain.c.keys()
        for k, v in plain.c.items():
            assert abs(v) <= bound.c[k].real * (1 + 1e-14)
        assert all(v.imag == 0 and v.real >= 0 for v in bound.c.values())
