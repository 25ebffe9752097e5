"""Tests for the closed-form maps between asymptotic data, boundary values,
Stokes pairs, and trace coordinates.

Independent oracles used here: numpy eigenvalue routines for spectral claims,
the closed-form trace expressions as a second route to ``arrow_p``, and the
Fricke-type cubic / leading-coefficient identities as algebraic invariants
every composed tuple must satisfy.
"""

from __future__ import annotations

import cmath
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isolab.arrows import (
    BoundaryValue,
    MonodromyData,
    PviAsymptoticData,
    StokesPair,
    arrow_f,
    arrow_g,
    arrow_g_direct,
    arrow_p,
    arrow_q,
    arrow_q_inverse,
    arrow_q_sigma0,
    cubic_residual,
    genericity_margin,
    p23_p13_closed_form,
    validate_generic,
)
from isolab.cli_harness import SampleSpec, closed_form_checks, sample_parameters
from isolab.core_linalg import eigen2
from isolab.errors import DisambiguationError, DomainError

PI = np.pi


def draw(rng: np.random.Generator, re_ti_sign: int | None = None) -> PviAsymptoticData:
    """A generic parameter draw with comfortable margin from the excluded loci."""
    while True:
        th = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)) for _ in range(4)]
        if re_ti_sign is not None and th[3].real * re_ti_sign < 0:
            th[3] = -th[3]
        sigma = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.25, 0.25))
        j = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-PI, PI))
        d = PviAsymptoticData(th[0], th[1], th[2], th[3], sigma, j)
        if genericity_margin(d) >= 0.05:
            return d


FIXED = PviAsymptoticData(
    theta1=0.21 + 0.05j,
    theta2=-0.33 - 0.11j,
    theta3=0.41 + 0.07j,
    theta_inf=0.52 - 0.09j,
    sigma=0.445 + 0.12j,
    J=1.1 * cmath.exp(0.7j),
)


#: Distance from the excluded locus at which ``LOCUS_PLACEMENTS`` puts its data.
DELTA = 1e-4


def _on_locus(**fields) -> PviAsymptoticData:
    return PviAsymptoticData(**{**FIXED.__dict__, **fields})


_T1, _T2, _T3, _TI, _S = (FIXED.theta1, FIXED.theta2, FIXED.theta3,
                          FIXED.theta_inf, FIXED.sigma)

#: One data point DELTA away from each of the 19 excluded loci, with a pattern
#: matching the locus's message.  Every other locus is at least 0.04 away,
#: except that sigma = 0 also puts Re sigma at DELTA and theta_inf = 0 is
#: also an integer.
LOCUS_PLACEMENTS = [
    ("re_sigma_0", _on_locus(sigma=DELTA + 0.12j), r"^Re\(sigma\) = .* is not in \(0, 1\)$"),
    ("re_sigma_1", _on_locus(sigma=1 - DELTA + 0.12j), r"^Re\(sigma\) = .* is not below 1$"),
    ("sigma_0", _on_locus(sigma=DELTA + 0j), r"^sigma = 0 \(use the logarithmic variant\)$"),
    ("J_0", _on_locus(J=DELTA * cmath.exp(0.7j)), r"^J = 0$"),
    ("theta1_int", _on_locus(theta1=1 + DELTA + 0j), r"^theta1 = .* is an integer$"),
    ("theta2_int", _on_locus(theta2=-1 + DELTA + 0j), r"^theta2 = .* is an integer$"),
    ("theta3_int", _on_locus(theta3=DELTA + 0j), r"^theta3 = .* is an integer$"),
    ("theta_inf_int", _on_locus(theta_inf=1 + DELTA + 0j), r"^theta_inf = .* is an integer$"),
    ("theta_inf_0", _on_locus(theta_inf=DELTA * 1j), r"^theta_inf = 0$"),
    ("theta_inf_plus_sum", _on_locus(theta_inf=_T1 + _T2 + _T3 + DELTA),
     r"^theta_inf = \+/-\(theta1 \+ theta2 \+ theta3\)$"),
    ("theta_inf_minus_sum", _on_locus(theta_inf=-(_T1 + _T2 + _T3) + DELTA),
     r"^theta_inf = \+/-\(theta1 \+ theta2 \+ theta3\)$"),
    ("t1+t2+s", _on_locus(theta2=DELTA - _T1 - _S),
     r"^theta1 \+ theta2 \+ sigma = .* is an even integer$"),
    ("t1+t2-s", _on_locus(theta2=DELTA - _T1 + _S),
     r"^theta1 \+ theta2 - sigma = .* is an even integer$"),
    ("t1-t2+s", _on_locus(theta2=_T1 + _S - DELTA),
     r"^theta1 - theta2 \+ sigma = .* is an even integer$"),
    ("t1-t2-s", _on_locus(theta2=_T1 - _S - DELTA),
     r"^theta1 - theta2 - sigma = .* is an even integer$"),
    ("ti+t3+s", _on_locus(theta3=DELTA - _TI - _S),
     r"^theta_inf \+ theta3 \+ sigma = .* is an even integer$"),
    ("ti+t3-s", _on_locus(theta3=DELTA - _TI + _S),
     r"^theta_inf \+ theta3 - sigma = .* is an even integer$"),
    ("ti-t3+s", _on_locus(theta3=_TI + _S - DELTA),
     r"^theta_inf - theta3 \+ sigma = .* is an even integer$"),
    ("ti-t3-s", _on_locus(theta3=_TI - _S - DELTA),
     r"^theta_inf - theta3 - sigma = .* is an even integer$"),
]


def sorted_vals(values) -> list[complex]:
    return sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))


class TestArrowQ:
    """Structure of the boundary value produced from asymptotic data."""

    def test_diagonal_is_minus_theta(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = draw(rng)
            phi = arrow_q(d).phi0
            assert_allclose(np.diag(phi), [-d.theta1, -d.theta2, -d.theta3], rtol=0, atol=1e-14)

    def test_upper_block_eigenvalues_encode_sigma(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = draw(rng)
            pair = eigen2(arrow_q(d).phi0[:2, :2])
            lo, hi = sorted_vals([pair.lambda1, pair.lambda2])
            assert_allclose(lo, -(d.theta1 + d.theta2 + d.sigma) / 2, rtol=1e-12, atol=1e-13)
            assert_allclose(hi, -(d.theta1 + d.theta2 - d.sigma) / 2, rtol=1e-12, atol=1e-13)
            assert_allclose(pair.sigma, d.sigma, rtol=1e-12, atol=1e-13)

    def test_full_spectrum(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = draw(rng)
            total = d.theta1 + d.theta2 + d.theta3
            got = sorted_vals(np.linalg.eigvals(arrow_q(d).phi0))
            want = sorted_vals([0.0, (d.theta_inf - total) / 2, (-d.theta_inf - total) / 2])
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_default_gauge_is_unit(self):
        b = arrow_q(FIXED)
        assert b.k1 == 1.0 and b.k2 == 1.0

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("sigma", 1e-13 + 0.3j, "Re(sigma)"),
            ("sigma", 0.999999999999 + 0.1j, "not below 1"),
            ("theta1", 1.0 + 0.0j, "integer"),
            ("J", 0.0j, "J = 0"),
        ],
    )
    def test_rejects_nongeneric(self, field, value, fragment):
        d = PviAsymptoticData(**{**FIXED.__dict__, field: value})
        bad = validate_generic(d)
        assert any(fragment in msg for msg in bad)
        with pytest.raises(DomainError):
            arrow_q(d)

    def test_rejects_even_integer_combination(self):
        d = PviAsymptoticData(0.9, 0.646, 0.55, 0.3, 0.454, 1.0)
        # theta1 + theta2 + sigma = 2 exactly up to roundoff
        bad = validate_generic(d, tol=1e-6)
        assert any("even integer" in msg for msg in bad)

    def test_rejects_theta_inf_sum_locus(self):
        d = PviAsymptoticData(0.2, 0.3, 0.1, 0.6, 0.445 + 0.1j, 1.0)
        bad = validate_generic(d)
        assert any("theta_inf = +/-" in msg for msg in bad)
        with pytest.raises(DomainError):
            arrow_q(d)


class TestGenericityMargin:
    """The margin functional reports the distance to the nearest excluded locus."""

    def test_positive_for_generic_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            assert genericity_margin(draw(rng)) >= 0.05

    def test_sigma_strip_boundary_dominates(self):
        d = PviAsymptoticData(0.21, -0.33, 0.41, 0.52, 0.007 + 0.2j, 1.0)
        assert genericity_margin(d) == pytest.approx(0.007, rel=1e-12)

    def test_even_combination_dominates(self):
        d = PviAsymptoticData(0.9, 0.646, 0.55, 0.3, 0.45, 1.0)
        assert genericity_margin(d) == pytest.approx(0.004, rel=1e-9)

    def test_validate_empty_for_generic(self):
        assert validate_generic(FIXED) == []

    @pytest.mark.parametrize("d, pattern", [c[1:] for c in LOCUS_PLACEMENTS],
                             ids=[c[0] for c in LOCUS_PLACEMENTS])
    def test_each_locus_is_named_at_its_distance(self, d, pattern):
        assert genericity_margin(d) == pytest.approx(DELTA, rel=1e-6)
        assert any(re.match(pattern, msg) for msg in validate_generic(d, tol=2 * DELTA))
        assert validate_generic(d, tol=DELTA / 2) == []

    def test_validate_agrees_with_margin_on_sampler_boxes(self):
        seen = set()
        for narrow in (False, True):
            spec = SampleSpec(seed=2026, margin=1e-12, narrow=narrow)
            for i in range(200):
                d = sample_parameters(spec, i)
                margin = genericity_margin(d)
                for tol in (0.01, 0.05, 0.1):
                    generic = validate_generic(d, tol) == []
                    assert generic == (margin >= tol)
                    seen.add(generic)
        assert seen == {True, False}


class TestArrowQSigma0:
    """Logarithmic-regime boundary value."""

    def test_full_spectrum(self):
        for thetas in [(0.25, -0.5, 0.31, 0.47), (0.3, -0.62, 0.11, -0.52)]:
            b = arrow_q_sigma0(thetas, 0.37 + 0.21j)
            total = sum(thetas[:3])
            got = sorted_vals(np.linalg.eigvals(b.phi0))
            want = sorted_vals([0.0, (thetas[3] - total) / 2, (-thetas[3] - total) / 2])
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_diagonal_and_degenerate_block(self):
        # dyadic thetas make the discriminant cancellation exact
        thetas = (0.25, -0.5, 0.3125, 0.4375)
        b = arrow_q_sigma0(thetas, 0.375)
        assert_allclose(np.diag(b.phi0), [-0.25, 0.5, -0.3125], rtol=0, atol=0)
        pair = eigen2(b.phi0[:2, :2])
        assert pair.degenerate
        assert_allclose(pair.lambda1, -(thetas[0] + thetas[1]) / 2, rtol=0, atol=1e-14)

    def test_requires_distinct_thetas(self):
        with pytest.raises(DomainError):
            arrow_q_sigma0((0.3, 0.3, 0.1, 0.5), 1.0)
        with pytest.raises(DomainError):
            arrow_q_sigma0((0.3, -0.3, 0.1, 0.5), 1.0)

    def test_inverse_rejects_logarithmic_matrix(self):
        b = arrow_q_sigma0((0.25, -0.5, 0.3125, 0.4375), 0.375)
        with pytest.raises(DomainError, match="logarithmic"):
            arrow_q_inverse(b)


class TestArrowQInverse:
    """Recovery of the asymptotic data from the boundary value."""

    def test_roundtrip_principal_sign(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d = draw(rng, re_ti_sign=+1)
            r = arrow_q_inverse(arrow_q(d))
            assert_allclose(
                [r.theta1, r.theta2, r.theta3, r.theta_inf, r.sigma, r.J],
                [d.theta1, d.theta2, d.theta3, d.theta_inf, d.sigma, d.J],
                rtol=1e-10, atol=1e-12,
            )

    def test_roundtrip_returns_partner_for_negative_sign(self):
        # the map to gauge classes is 2:1; the representative with
        # Re(theta_inf) >= 0 is returned, with J rescaled accordingly
        rng = np.random.default_rng(22)
        for _ in range(25):
            d = draw(rng, re_ti_sign=-1)
            r = arrow_q_inverse(arrow_q(d))
            ti, s, t3 = d.theta_inf, d.sigma, d.theta3
            rho = ((ti - s) ** 2 - t3 ** 2) / ((ti + s) ** 2 - t3 ** 2)
            assert_allclose(r.theta_inf, -ti, rtol=1e-10, atol=1e-12)
            assert_allclose(r.J, d.J * rho, rtol=1e-9, atol=1e-12)
            assert_allclose(r.sigma, d.sigma, rtol=1e-10, atol=1e-13)

    def test_partner_data_rebuilds_same_gauge_orbit(self):
        rng = np.random.default_rng(23)
        d = draw(rng, re_ti_sign=-1)
        phi = arrow_q(d).phi0
        r = arrow_q_inverse(phi)
        rebuilt = arrow_q(r).phi0
        # same diagonal-gauge orbit: the conjugation-invariant products agree
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert_allclose(rebuilt[i, j] * rebuilt[j, i], phi[i, j] * phi[j, i],
                            rtol=1e-9, atol=1e-12)
        assert_allclose(rebuilt[0, 1] * rebuilt[1, 2] * rebuilt[2, 0],
                        phi[0, 1] * phi[1, 2] * phi[2, 0], rtol=1e-9, atol=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(24)
        d = draw(rng, re_ti_sign=+1)
        phi = arrow_q(d).phi0
        k = np.array([2.0 - 0.5j, 0.3 + 1.1j, 1.0])
        conj = phi * np.outer(k, 1.0 / k)  # diag(k) phi diag(k)^-1
        r0 = arrow_q_inverse(phi)
        r1 = arrow_q_inverse(conj)
        assert_allclose(
            [r1.theta_inf, r1.sigma, r1.J],
            [r0.theta_inf, r0.sigma, r0.J],
            rtol=1e-9, atol=1e-12,
        )

    def test_accepts_boundary_value_wrapper(self):
        r = arrow_q_inverse(arrow_q(FIXED))
        assert_allclose(r.sigma, FIXED.sigma, rtol=1e-11)

    def test_corrupt_matrix_raises_disambiguation_error(self):
        m = arrow_q(FIXED).phi0.copy()
        m[0, 2] *= 1.3
        with pytest.raises(DisambiguationError):
            arrow_q_inverse(m)


class TestArrowG:
    """Closed-form Stokes pair."""

    def test_shape_and_diagonal_law(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = draw(rng)
            s = arrow_g(arrow_q(d))
            want = np.exp(1j * PI * np.array([d.theta1, d.theta2, d.theta3]))
            assert_allclose(np.diag(s.s_plus), want, rtol=1e-12, atol=1e-13)
            assert_allclose(np.diag(s.s_minus), want, rtol=1e-12, atol=1e-13)
            assert np.all(np.tril(s.s_plus, -1) == 0)
            assert np.all(np.triu(s.s_minus, 1) == 0)

    def test_direct_form_matches_composition_in_unit_gauge(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            d = draw(rng)
            via_q = arrow_g(arrow_q(d))
            direct = arrow_g_direct(d)
            assert_allclose(direct.s_plus, via_q.s_plus, rtol=1e-10, atol=1e-12)
            assert_allclose(direct.s_minus, via_q.s_minus, rtol=1e-10, atol=1e-12)

    def test_direct_form_gauge_law(self):
        # the (k1, k2) gauge conjugates both matrices by diag(k1, k2, 1)
        rng = np.random.default_rng(33)
        d = draw(rng)
        k1, k2 = 1.7 - 0.4j, 0.6 + 0.9j
        direct = arrow_g_direct(d, k1, k2)
        base = arrow_g_direct(d)
        k = np.array([k1, k2, 1.0])
        conj = np.outer(k, 1.0 / k)  # entrywise factors of diag(k) S diag(k)^-1
        assert_allclose(direct.s_plus, base.s_plus * conj, rtol=1e-9, atol=1e-12)
        assert_allclose(direct.s_minus, base.s_minus * conj, rtol=1e-9, atol=1e-12)

    def test_wrapped_pair_is_unimodular(self):
        # det(e^{i pi dPhi} S+) = det(S- e^{i pi dPhi}) = 1, dPhi = diag(-theta)
        rng = np.random.default_rng(61)
        for _ in range(10):
            d = draw(rng)
            s = arrow_g(arrow_q(d))
            e = np.diag(np.exp(1j * PI * np.array([-d.theta1, -d.theta2, -d.theta3])))
            assert abs(np.linalg.det(e @ s.s_plus) - 1) < 1e-12
            assert abs(np.linalg.det(s.s_minus @ e) - 1) < 1e-12

    def test_zero_gauge_rejected(self):
        with pytest.raises(DomainError):
            arrow_g_direct(FIXED, k1=0.0)

    def test_resonant_block_rejected(self):
        phi = np.diag([0.6, -0.6, 0.3]).astype(complex)
        phi[0, 1] = phi[1, 0] = 0.01
        with pytest.raises(DomainError, match="eigenvalue difference"):
            arrow_g(phi)

    def test_accepts_raw_matrix(self):
        b = arrow_q(FIXED)
        s_wrapped = arrow_g(b)
        s_raw = arrow_g(b.phi0)
        assert_allclose(s_wrapped.s_plus, s_raw.s_plus, rtol=0, atol=0)


class TestArrowP:
    """Trace coordinates from the Stokes pair."""

    def test_p12_cosine_law(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            assert abs(m.p12 - 2 * cmath.cos(PI * d.sigma)) < 1e-10

    def test_pk_are_theta_cosines(self):
        m = arrow_p(arrow_g(arrow_q(FIXED)), FIXED.thetas)
        assert_allclose(
            [m.p1, m.p2, m.p3, m.p_inf],
            [2 * cmath.cos(PI * t) for t in FIXED.thetas],
            rtol=1e-14,
        )

    def test_matches_closed_form_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            p23, p13 = p23_p13_closed_form(d)
            assert_allclose([m.p23, m.p13], [p23, p13], rtol=1e-9, atol=1e-11)

    def test_nontriangular_pair_rejected(self):
        s = arrow_g(arrow_q(FIXED))
        sp = s.s_plus.copy()
        sp[2, 0] = 0.5
        with pytest.raises(DomainError, match="triangular"):
            arrow_p(StokesPair(sp, s.s_minus), FIXED.thetas)

    def test_diagonal_law_enforced(self):
        s = arrow_g(arrow_q(FIXED))
        sp = s.s_plus.copy()
        sp[1, 1] *= 1.01
        with pytest.raises(DomainError, match="diagonal law"):
            arrow_p(StokesPair(sp, s.s_minus), FIXED.thetas)


def _checks(d: PviAsymptoticData, m: MonodromyData) -> dict:
    """The closed-form checks of ``d`` with its traces ``m`` = P.G.Q(d)."""
    return dict(closed_form_checks(d, m, arrow_f(m, d.thetas)))


class TestAlgebraicIdentities:
    """Cross-route identities every composed tuple satisfies."""

    def test_full_roundtrip_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            assert _checks(d, m)["roundtrip"] < 1e-9

    def test_cubic_residual_vanishes_on_image(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            assert _checks(d, m)["cubic"] < 1e-8

    def test_cubic_residual_nonzero_off_image(self):
        d = FIXED
        m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
        off = MonodromyData(m.p12 + 0.1, m.p13, m.p23, m.p1, m.p2, m.p3, m.p_inf)
        assert abs(cubic_residual(off)) > 1e-3

    def test_trace_leading_coefficient_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            assert _checks(d, m)["trace_identity"] < 1e-12

    def test_arrow_f_rejects_integer_theta(self):
        m = arrow_p(arrow_g(arrow_q(FIXED)), FIXED.thetas)
        t1, _, t3, ti = FIXED.thetas
        for bad, fragment in [
            ((1.0, FIXED.theta2, t3, ti), "integer"),
            # theta1 + theta2 + sigma = 0 for the sigma read off p12
            ((t1, -t1 - FIXED.sigma, t3, ti), "even integer"),
        ]:
            with pytest.raises(DomainError, match=fragment):
                arrow_f(m, bad)

    def test_arrow_f_sigma_branch_on_strip(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            d = draw(rng)
            m = arrow_p(arrow_g(arrow_q(d)), d.thetas)
            sigma, _ = arrow_f(m, d.thetas)
            assert 0.0 <= sigma.real < 1.0
