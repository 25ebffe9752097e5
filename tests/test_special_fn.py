"""Tests for the complex Gamma evaluation.

Accuracy is certified two ways: against a frozen table of high-precision
reference values (computed once with mpmath at 40 digits and inlined below)
and against a live mpmath sweep over a grid with |z| <= 30.  Functional
identities (recurrence, reflection) are checked as residuals in their own
right since downstream trace formulas rely on them.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import pytest

from isolab.errors import DomainError, GammaPoleError, ScalingError
from isolab.special_fn import gamma_c, gamma_hat

# (argument, Gamma(argument)) computed with mpmath.mp.dps = 40
FROZEN_GAMMA = [
    (0.5 + 0.5j, 0.81816399954174739408 - 0.76331382871398261667j),
    (1.5 - 0.25j, 0.86085217993425804215 - 0.0096876301173166840757j),
    (-2.5 + 1.0j, -0.041736625807893613745 - 0.086369107369763484694j),
    (7.0 + 3.0j, 311.6355580995222698 - 197.56977695440120026j),
    (0.001 + 0.0j, 999.42377248459546611 + 0.0j),
    (-0.5 - 0.5j, -1.5814778282557300107 + 0.054850170827764777407j),
    (10.0 - 10.0j, 1423.851941789183074 + 3496.081973307944589j),
    (0.25 + 0.0j, 3.6256099082219083119 + 0.0j),
    (3.75 - 0.125j, 4.3643148665693156796 - 0.64999506886098976725j),
    (-6.2 + 0.4j, 0.00009557678908521998135 - 0.0017591354082430433399j),
    (0.5 + 29.0j, 3.6942814905807357585e-20 - 1.8396419872865824739e-20j),
    (-15.5 + 2.0j, 1.9040126944075915174e-15 - 1.7125377316638433695e-15j),
    (22.25 - 7.0j, -34595523466092953394.0 - 11312375323037703365.0j),
    (1e-8 + 1e-8j, 49999999.422784344989 - 49999999.999999990109j),
    (-0.9999 + 0.02j, -0.67271743223103241295 + 49.970523091842784312j),
    (4.5 + 0.0j, 11.631728396567448929 + 0.0j),
    (-3.5 + 0.0j, 0.27008820585226910892 + 0.0j),
    (0.5 + 0.0j, 1.7724538509055160273 + 0.0j),
]


class TestGammaFrozenTable:
    @pytest.mark.parametrize("z,ref", FROZEN_GAMMA,
                             ids=[repr(z) for z, _ in FROZEN_GAMMA])
    def test_matches_reference(self, z, ref):
        got = gamma_c(z)
        assert abs(got - ref) <= 5e-13 * abs(ref)


class TestGammaLiveOracle:
    def test_grid_against_mpmath(self):
        mpmath.mp.dps = 30
        pts = []
        for re in (-28.3, -15.7, -6.25, -2.5, -0.75, 0.3, 1.5, 4.0, 11.5, 24.0):
            for im in (-18.0, -5.5, -0.9, 0.0, 0.4, 2.25, 9.0, 16.5):
                z = complex(re, im)
                if abs(z) <= 30:
                    pts.append(z)
        assert len(pts) > 40
        for z in pts:
            ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
            got = gamma_c(z)
            assert abs(got - ref) <= 1e-12 * abs(ref), z

    def test_gamma_hat_shift(self):
        mpmath.mp.dps = 30
        for x in (0.3 + 0.1j, -1.2 + 0.7j, 2.5 - 2.0j):
            ref = complex(mpmath.gamma(1 + mpmath.mpc(x.real, x.imag) / 2))
            assert abs(gamma_hat(x) - ref) <= 1e-12 * abs(ref)


class TestGammaIdentities:
    def grid(self):
        vals = []
        for re in (-5.3, -2.25, -0.6, 0.2, 0.75, 1.4, 3.3, 7.6):
            for im in (-4.0, -0.35, 0.0, 0.5, 2.8, 9.1):
                vals.append(complex(re, im))
        return vals

    def test_recurrence_residual(self):
        for z in self.grid():
            lhs = gamma_c(z + 1)
            rhs = z * gamma_c(z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)

    def test_reflection_residual(self):
        for z in self.grid():
            if abs(z.imag) < 1e-9 and abs(z.real - round(z.real)) < 1e-9:
                continue
            lhs = gamma_c(z) * gamma_c(1 - z)
            rhs = cmath.pi / cmath.sin(cmath.pi * z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


class TestGammaPoles:
    def test_pole_raises_with_location(self):
        for pole in (0, -1, -7):
            with pytest.raises(GammaPoleError) as exc:
                gamma_c(pole + 1e-14)
            assert exc.value.nearest_pole == pole

    def test_near_pole_tolerance_is_configurable(self):
        z = -2.0 + 1e-9
        with pytest.raises(GammaPoleError):
            gamma_c(z, pole_tol=1e-6)
        # with a tiny tolerance the same point evaluates (huge but finite)
        val = gamma_c(z, pole_tol=1e-12)
        assert math.isfinite(abs(val))

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(DomainError):
            gamma_c(complex(math.nan, 0.0))
        with pytest.raises(DomainError):
            gamma_c(complex(math.inf, 1.0))


class TestGammaRange:
    """Large arguments: Gamma either fits in a double or raises a typed error."""

    @pytest.mark.parametrize("x", [171.0, 171.5])
    def test_near_double_max_is_accurate(self, x):
        # t^(z - 1/2) alone overflows here though Gamma(z) does not
        got = gamma_c(x)
        assert got.imag == 0.0
        assert abs(got.real - math.gamma(x)) <= 1e-12 * math.gamma(x)

    @pytest.mark.parametrize("z", [172.0, -200.5 + 0.1j])
    def test_out_of_range_raises_scaling_error(self, z):
        with pytest.raises(ScalingError):
            gamma_c(z)
