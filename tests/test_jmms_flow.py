"""Tests for the deformation flow in the pole configuration u: right-hand
side forms, straight-segment transport, conservation laws, the shrinking-band
ray, and the bridge from the trajectory residue to a u-space state.

Independent oracles: the entrywise and nested-commutator right-hand sides
validate each other; transported states are checked against reversibility,
conserved quantities (diagonal, spectrum), and, for the shrinking ray, a
direct short-reach transport without the co-moving gauge.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isolab import jmms_flow
from isolab.cli_harness import flow_checks, rhs_checks
from isolab.errors import DomainError, SingularityError
from isolab.jmms_flow import (
    ShrinkReport,
    b_field,
    b_field_commutator,
    diag_drift,
    flow,
    flow_path,
    jmms_rhs,
    phi_from_omega,
    shrinking_check,
    spectral_drift,
)
from isolab.jmms_flow import _band, _flow_rhs, _shrink_rhs
from isolab.ode_engine import integrate


def random_state(rng: np.random.Generator, n: int = 3, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_u(rng: np.random.Generator, n: int = 3, minsep: float = 0.3) -> np.ndarray:
    while True:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if min(abs(u[i] - u[j]) for i in range(n) for j in range(i + 1, n)) > minsep:
            return u


class TestRightHandSides:
    """The entrywise and commutator forms are the same vector field."""

    def test_equivalence_many_states_n3(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(1000):
            u = random_u(rng)
            m = random_state(rng)
            k = int(rng.integers(0, 3))
            worst = max(worst, dict(rhs_checks(u, m, k))["rhs_equivalence"])
        assert worst < 1e-13

    def test_equivalence_n4(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            u = random_u(rng, 4)
            m = random_state(rng, 4)
            for k in range(4):
                assert dict(rhs_checks(u, m, k))["rhs_equivalence"] < 1e-12

    def test_b_field_forms_agree(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            u = random_u(rng)
            m = random_state(rng)
            k = int(rng.integers(0, 3))
            assert_allclose(b_field(u, m, k), b_field_commutator(u, m, k),
                            rtol=0, atol=1e-13)

    def test_rhs_diagonal_vanishes(self):
        rng = np.random.default_rng(74)
        u = random_u(rng)
        m = random_state(rng)
        for k in range(3):
            assert np.max(np.abs(np.diag(jmms_rhs(u, m, k)))) == 0.0

    def test_flow_rhs_matches_commutator_with_exact_diagonal(self):
        # the entrywise sum_j phi_ij phi_jl (W_ij - W_jl) is [W o Phi, Phi]
        rng = np.random.default_rng(76)
        for n in (3, 4):
            for _ in range(100):
                u0 = random_u(rng, n)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                m = random_state(rng, n)
                t = float(rng.uniform(0.0, 0.3))
                got = _flow_rhs(u0, v)(t, m.ravel()).reshape(n, n)
                w = (v[:, None] - v[None, :]) / (u0[:, None] - u0[None, :] + np.eye(n)
                                                 + t * (v[:, None] - v[None, :]))
                bw = w * m
                want = bw @ m - m @ bw
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.all(np.diag(got) == 0)

    def test_shrink_rhs_matches_commutator_plus_gauge(self):
        # u_k [B_k, Psi] at u_k = e^tau u_k(0) plus the constant gauge term
        rng = np.random.default_rng(77)
        for n in (3, 4):
            for _ in range(100):
                uu = random_u(rng, n)
                k = int(rng.integers(0, n))
                delta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                psi = random_state(rng, n)
                tau = float(rng.uniform(0.0, 2.0))
                got = _shrink_rhs(uu, k, delta)(tau, psi.ravel()).reshape(n, n)
                u = uu.copy()
                u[k] = math.exp(tau) * uu[k]
                b = b_field(u, psi, k)
                want = ((delta[:, None] - delta[None, :]) * psi
                        + u[k] * (b @ psi - psi @ b))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_coordinate_index_validated(self):
        rng = np.random.default_rng(75)
        u = random_u(rng)
        m = random_state(rng)
        with pytest.raises(DomainError):
            jmms_rhs(u, m, 3)
        with pytest.raises(DomainError):
            b_field(u, m, -1)


class TestFlow:
    """Straight-segment transport and its conservation laws."""

    def test_reversibility(self):
        rng = np.random.default_rng(81)
        u0 = random_u(rng)
        u1 = random_u(rng)
        m = random_state(rng)
        there = flow(u0, u1, m)
        back = flow(u1, u0, there)
        assert np.max(np.abs(back - m)) < 1e-9

    def test_conservation_laws_along_path(self):
        rng = np.random.default_rng(820)
        m = random_state(rng)
        path = [2.0 * random_u(rng, minsep=0.8) for _ in range(6)]
        err = dict(flow_checks(m, flow_path(path, m)))
        assert err["flow_diag"] < 1e-12
        assert err["flow_spectrum"] < 1e-10

    def test_single_coordinate_flow_matches_rhs_integration(self):
        # moving only one coordinate, the directional transport must agree
        # with direct integration of the k-coordinate right-hand side
        from isolab.ode_engine import integrate

        rng = np.random.default_rng(83)
        u0 = np.array([0.0, 1.0j, 3.0j])
        m = random_state(rng)
        k, shift = 2, 1.5 + 0.5j

        def rhs(t, state):
            u = u0.copy()
            u[k] = u0[k] + t * shift
            return (shift * jmms_rhs(u, state.reshape(3, 3), k)).ravel()

        sol = integrate(rhs, 0.0, 1.0, m.ravel(), rtol=1e-12, atol=1e-14)
        u1 = u0.copy()
        u1[k] = u0[k] + shift
        assert np.max(np.abs(flow(u0, u1, m) - sol.y_end.reshape(3, 3))) < 1e-9

    def test_collision_rejected(self):
        m = np.eye(3, dtype=complex)
        u0 = np.array([0.0 + 0j, 1.0, 3.0])
        u1 = np.array([2.0 + 0j, 1.0, 3.0])  # coordinate 0 crosses coordinate 1
        with pytest.raises(DomainError, match="collide"):
            flow(u0, u1, m)

    def test_far_coordinate_does_not_poison_collision_scale(self):
        # the collision threshold is per-pair: a huge third coordinate must
        # not flag the unit-separated fixed pair
        m = 0.1 * np.ones((3, 3), dtype=complex)
        u0 = np.array([0.0 + 0j, 1.0j, 3e11 * 1j])
        u1 = np.array([0.0 + 0j, 1.0j, 4e11 * 1j])
        flow(u0, u1, m, rtol=1e-10)

    def test_path_needs_two_points(self):
        with pytest.raises(DomainError):
            flow_path([np.array([0.0, 1.0, 2.0])], np.eye(3))


class TestShrinkingCheck:
    """Band contraction along a radial ray."""

    def test_matches_direct_flow_at_short_reach(self):
        # the co-moving gauge must reproduce the plain transport
        rng = np.random.default_rng(91)
        phi = 0.4 * random_state(rng)
        u0 = np.array([0.0, 1.0j, 3.0j])
        rep = shrinking_check(u0, phi, reach=10.0)
        direct = flow(u0, rep.u_final, phi, rtol=1e-12)
        assert np.max(np.abs(rep.phi_final - direct)) < 1e-9
        # the two matrices are conjugate by a diagonal gauge, so their bands
        # agree only up to rounding
        assert abs(_band(rep.phi_final) - rep.bands[-1]) <= 1e-12 * max(1.0, rep.bands[-1])

    def test_conservation_laws(self):
        # an imaginary diagonal keeps the undone gauge factors unimodular, so
        # the reconstructed entries stay moderate; even then the eigensolver
        # conditioning on the regrown off-diagonal entries limits the
        # spectral comparison at large reach
        rng = np.random.default_rng(92)
        phi = 0.4 * random_state(rng)
        np.fill_diagonal(phi, 1j * np.diag(phi).imag)
        u0 = np.array([0.0, 1.0j, 3.0j])
        rep = shrinking_check(u0, phi, reach=1e6)
        assert diag_drift(phi, rep.phi_final) < 1e-11
        assert spectral_drift(phi, rep.phi_final) < 1e-6

    def test_diagonal_state_has_constant_band(self):
        phi = np.diag([0.3 + 0.1j, -0.2 + 0.05j, 0.4 + 0j])
        u0 = np.array([0.0, 1.0j, 3.0j])
        rep = shrinking_check(u0, phi, reach=1e6)
        assert rep.bands[0] == pytest.approx(0.5, abs=1e-14)
        assert max(abs(b - rep.bands[0]) for b in rep.bands) < 1e-12

    def test_small_norm_four_point_band_stays_below_one(self):
        rng = np.random.default_rng(93)
        u0 = np.array([0.0, 1.0, 1.0j, 5.0])
        phi = random_state(rng, 4, scale=0.1)
        rep = shrinking_check(u0, phi, reach=1e3)
        assert all(b < 1.0 for b in rep.bands)
        assert rep.u_final[3] == pytest.approx(5e3)

    def test_checkpoints_are_log_spaced_multiples(self):
        rng = np.random.default_rng(94)
        phi = 0.3 * random_state(rng)
        u0 = np.array([0.0, 1.0j, 3.0j])
        rep = shrinking_check(u0, phi, reach=1e4)
        assert len(rep.factors) == len(rep.bands) == jmms_flow._N_CHECKPOINTS
        assert rep.factors[0] == 1.0
        assert_allclose(np.diff(np.log10(rep.factors)), 4.0 / (len(rep.factors) - 1),
                        rtol=1e-12)
        assert abs(rep.u_final[2]) == pytest.approx(3e4, rel=1e-9)

    def test_reports_repeatable_work(self):
        rng = np.random.default_rng(98)
        phi = 0.3 * random_state(rng)
        u0 = np.array([0.0, 1.0j, 3.0j])
        a = shrinking_check(u0, phi, reach=1e3)
        b = shrinking_check(u0, phi, reach=1e3)
        work = (a.nfev, a.naccept, a.nreject)
        assert a.nfev > 0 and a.naccept > 0 and a.nreject >= 0
        assert (b.nfev, b.naccept, b.nreject) == work

    def test_work_is_the_sum_over_segments(self, monkeypatch):
        seen = []

        def counting(*args, **kwargs):
            sol = integrate(*args, **kwargs)
            seen.append((sol.nfev, sol.naccept, sol.nreject))
            return sol

        monkeypatch.setattr(jmms_flow, "integrate", counting)
        rng = np.random.default_rng(99)
        phi = 0.3 * random_state(rng)
        u0 = np.array([0.0, 1.0j, 3.0j])
        rep = shrinking_check(u0, phi, reach=1e4)
        assert len(seen) == jmms_flow._N_CHECKPOINTS - 1
        assert (rep.nfev, rep.naccept, rep.nreject) == tuple(map(sum, zip(*seen)))

    def test_criterion_8_ray_is_not_noise_limited(self):
        # criterion 8's index-200 draw grows psi entries to ~7e4 by reach
        # 1e10; a right-hand side that cancels c_i psi psi - c_j psi psi there
        # feeds rounding noise to the error estimate and multiplies the steps
        from isolab.cli_harness import U_BASE, SampleSpec, bridged_phi_at_u0, shrink_sample

        d, _ = shrink_sample(SampleSpec(narrow=True), 200)
        rep = shrinking_check(U_BASE, bridged_phi_at_u0(d), reach=1e10)
        assert rep.naccept < 1000

    def test_criterion_8_ray_steps_in_log_reach(self):
        # in tau = log c the gauge term (delta_i - delta_j) psi is constant;
        # stepped in s = c - 1, the same ray needs about 490 accepted steps
        from isolab.cli_harness import U_BASE, SampleSpec, bridged_phi_at_u0, shrink_sample

        d, _ = shrink_sample(SampleSpec(narrow=True), 200)
        rep = shrinking_check(U_BASE, bridged_phi_at_u0(d), reach=1e10)
        assert rep.naccept < 250

    def test_singularity_location_is_an_s_value(self, monkeypatch):
        # the ray scales u_3 = 3i by c = e^tau, so a singularity met at tau is
        # reported at s = c - 1 = expm1(tau)
        def raising(f, t0, t1, y0, **kwargs):
            raise SingularityError("step size collapsed", location=math.log1p(41.5))

        monkeypatch.setattr(jmms_flow, "integrate", raising)
        phi = 0.3 * random_state(np.random.default_rng(96))
        with pytest.raises(SingularityError) as info:
            shrinking_check(np.array([0.0, 1.0j, 3.0j]), phi, reach=1e3)
        assert info.value.location == pytest.approx(41.5, rel=1e-14)

    def test_invalid_rays_rejected(self):
        phi = np.diag([0.1, 0.2, 0.3]).astype(complex)
        u0 = np.array([0.0, 1.0j, 3.0j])
        with pytest.raises(DomainError, match="reach"):
            shrinking_check(u0, phi, reach=1.0)
        with pytest.raises(DomainError):
            shrinking_check(np.array([0.0, 1.0j, 0.0]), phi, reach=10.0)


class TestBandTowardSigma:
    """The band contracts onto |Re sigma| of the seeding asymptotic data."""

    def test_band_converges_for_bridged_state(self):
        from isolab.arrows import PviAsymptoticData
        from isolab.cli_harness import U_BASE, bridged_phi_at_u0, shrink_checks

        d = PviAsymptoticData(0.21, -0.33, 0.41, 0.52, 0.45, 1.1)
        phi = bridged_phi_at_u0(d)
        rep = shrinking_check(np.array(U_BASE), phi, reach=1e4)
        band = dict(shrink_checks(d, rep))["shrink_band"]
        assert band < 5e-3
        # the ray genuinely contracts the band toward the target
        assert band < 0.2 * abs(rep.bands[0] - abs(d.sigma.real))


class TestBridge:
    """Conjugation bridge between a residue matrix and a u-space state."""

    def test_principal_sheet_is_plain_conjugation(self):
        rng = np.random.default_rng(96)
        om = random_state(rng)
        thetas = (0.21, -0.33, 0.41, 0.52)
        scale = 2.0 - 1.0j
        got = phi_from_omega(om, thetas, scale)
        t = np.array(thetas[:3], dtype=complex)
        e = np.exp(cmath.log(scale) * t)
        assert_allclose(got, (e[:, None] * om) / e[None, :], rtol=1e-13)
