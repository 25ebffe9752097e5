"""Painleve VI trajectories with asymptotic seeding and regularised limits.

This module is the first of the three numerical oracles.  It integrates the
sixth Painleve equation

    y'' = (1/2)(1/y + 1/(y-1) + 1/(y-x)) y'^2
          - (1/x + 1/(x-1) + 1/(y-x)) y'
          + y(y-1)(y-x)/(x^2 (x-1)^2) *
            ( (theta_inf-1)^2/2 - theta1^2 x/(2 y^2)
              + theta3^2 (x-1)/(2 (y-1)^2)
              + (1-theta2^2) x (x-1)/(2 (y-x)^2) )

from a seed near the critical point x = 0 where y ~ J x^(1-sigma).  Seeding
uses a two-parameter Puiseux lattice series: the solution is expanded over
exponents a(1-sigma) + b sigma with (a, b) on an integer lattice, and the
coefficients are determined by forward substitution, one level a + b at a
time: each coefficient equation of the residual is affine in its own key's
coefficient, with slope (a(1-sigma) + b sigma)^2, once the lower levels are
fixed.  Alongside (y, y') the integration carries the two
logarithmic gauge accumulators w_i whose exponentials are the diagonal gauge
functions k_i(x) normalised to k_i(x) ~ x^{gamma_i} as x -> 0.  The
integration variable is t = log x, in which these power laws and the
gamma_i log x growth of the w_i change at a nearly constant rate.

From a trajectory point one assembles the residue matrix Omega(x) of the
associated linear system; conjugating by x^{dPhi} and by the matrix power of
the truncated boundary value produces the regularised families A(x) and B(x)
whose x -> 0 limits recover the truncated and the full boundary value.  The
module fits those limits from a geometric ladder of sample points with a
linear least-squares model in the known correction powers, and estimates
the correction exponent of the transcendent from the same ladder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arrows import PviAsymptoticData, arrow_q, validate_generic
from .core_linalg import delta_k, matrix_power_scalar
from .errors import ConvergenceError, DomainError, ScalingError, SingularityError
from .ode_engine import integrate

__all__ = [
    "PuiseuxSeries",
    "TrajectorySeed",
    "TrajectoryPoint",
    "LimitReport",
    "gamma_exponents",
    "pvi_rhs",
    "seed_asymptotic",
    "extend_trajectory",
    "omega_from_state",
    "a_matrix",
    "b_matrix",
    "extrapolate_known_powers",
    "regularized_limits",
]

_TINY_COEFF = 1e-250
_KEY_TOL = 1e-9
#: gamma_n = n u / (1 - n u) of Higham's bound for chains of n = 128
#: floating-point operations (unit roundoff u = eps / 2).
_ROUNDING_GAMMA = 64.0 * float(np.finfo(float).eps)
#: lowest seed point of the descent in ``seed_asymptotic``
_SEED_FLOOR = 1e-15
#: the seed's series keeps corrections up to x^2.2 relative to J x^(1 - sigma)
_SEED_CUTOFF = 2.2
#: absolute tolerance of the trajectory integration
_ATOL = 1e-14
#: ratio of neighbouring ladder points in ``regularized_limits``
_LADDER_RATIO = 2.0
#: correction powers fitted by ``regularized_limits``
_MAX_POWERS = 4


class PuiseuxSeries:
    """Finite series sum_{(a,b)} c_{ab} x^(a(1-sigma) + b sigma).

    Keys live on the integer lattice; the real part of the exponent orders
    the terms.  ``cap`` is the hard truncation bound on that real part and
    ``valid`` records up to which real exponent the series is complete (all
    true terms present), so that arithmetic can propagate honest accuracy.

    A ``majorant`` series holds magnitudes and does magnitude arithmetic:
    subtraction adds, scaling and differentiation multiply by moduli, and
    the inverse sums the geometric series of |tail| / |lead|.  Evaluating an
    expression on majorants gives, key by key, the sum of the moduli of the
    products that the plain evaluation adds up, which bounds its rounding
    error (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    """

    __slots__ = ("sigma", "cap", "c", "valid", "majorant")

    def __init__(self, sigma: complex, cap: float, coeffs: dict | None = None,
                 valid: float | None = None, majorant: bool = False):
        self.sigma = complex(sigma)
        self.cap = float(cap)
        self.majorant = majorant
        self.c: dict[tuple[int, int], complex] = {}
        if coeffs:
            for k, v in coeffs.items():
                if abs(v) > _TINY_COEFF and self.re_exp(k) <= self.cap + _KEY_TOL:
                    self.c[k] = complex(v)
        self.valid = self.cap if valid is None else min(float(valid), self.cap)

    # -- exponent bookkeeping ------------------------------------------------

    def re_exp(self, key: tuple[int, int]) -> float:
        a, b = key
        s = self.sigma.real
        return a * (1.0 - s) + b * s

    def exponent(self, key: tuple[int, int]) -> complex:
        a, b = key
        return a * (1.0 - self.sigma) + b * self.sigma

    def lead_re(self) -> float:
        if not self.c:
            return math.inf
        return min(self.re_exp(k) for k in self.c)

    @staticmethod
    def monomial(sigma: complex, cap: float, key: tuple[int, int],
                 coeff: complex = 1.0) -> "PuiseuxSeries":
        return PuiseuxSeries(sigma, cap, {tuple(key): coeff})

    def _check(self, other: "PuiseuxSeries") -> None:
        if (self.sigma != other.sigma or self.cap != other.cap
                or self.majorant != other.majorant):
            raise DomainError("incompatible series (different sigma, cap or kind)")

    def _new(self, coeffs: dict, valid: float) -> "PuiseuxSeries":
        return PuiseuxSeries(self.sigma, self.cap, coeffs, valid, self.majorant)

    def to_majorant(self) -> "PuiseuxSeries":
        """The majorant series of the coefficient moduli."""
        return PuiseuxSeries(self.sigma, self.cap,
                             {k: abs(v) for k, v in self.c.items()}, self.valid,
                             majorant=True)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check(other)
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0.0) + v
        return self._new(out, min(self.valid, other.valid))

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + other.scale(-1.0)

    def scale(self, z: complex) -> "PuiseuxSeries":
        z = abs(z) if self.majorant else z
        return self._new({k: v * z for k, v in self.c.items()}, self.valid)

    def _by_re_exp(self, coeffs: dict) -> list[tuple[float, int, int, complex]]:
        """(real exponent, a, b, coefficient) of ``coeffs``, lowest first."""
        s = self.sigma.real
        return sorted(((a * (1.0 - s) + b * s, a, b, v) for (a, b), v in coeffs.items()),
                      key=lambda t: t[0])

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check(other)
        out: dict[tuple[int, int], complex] = {}
        lhs, rhs = self._by_re_exp(self.c), self._by_re_exp(other.c)
        cap = self.cap + _KEY_TOL
        for r1, a1, b1, v1 in lhs:
            room = cap - r1
            for r2, a2, b2, v2 in rhs:
                if r2 > room:
                    break
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0.0) + v1 * v2
        valid = min(self.valid + other.lead_re(), other.valid + self.lead_re(), self.cap)
        return self._new(out, valid)

    def derivative(self) -> "PuiseuxSeries":
        out: dict[tuple[int, int], complex] = {}
        for (a, b), v in self.c.items():
            e = self.exponent((a, b))
            if abs(e) > 1e-14:
                out[(a - 1, b - 1)] = v * (abs(e) if self.majorant else e)
        return self._new(out, self.valid - 1.0)

    def primitive_skip_log(self) -> tuple[complex, "PuiseuxSeries"]:
        """Antiderivative, splitting off the 1/x term.

        Returns (g, P) with  self = g/x + P'  where P has no constant of
        integration (P -> 0 as x -> 0 when all remaining exponents exceed -1).
        """
        log_coeff = 0.0 + 0.0j
        out: dict[tuple[int, int], complex] = {}
        for (a, b), v in self.c.items():
            if (a, b) == (-1, -1):
                log_coeff = v
                continue
            e = self.exponent((a, b))
            if abs(e + 1.0) < 1e-8:
                raise DomainError(
                    f"primitive: exponent {e} too close to -1 at key {(a, b)}"
                )
            out[(a + 1, b + 1)] = v / (e + 1.0)
        return log_coeff, PuiseuxSeries(self.sigma, self.cap, out,
                                        valid=min(self.valid + 1.0, self.cap))

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse via the geometric series on the leading term.

        Requires the smallest real exponent to be attained by a single key.
        """
        if not self.c:
            raise DomainError("inverse of the zero series")
        ordered = self._by_re_exp(self.c)
        re0, a0, b0, c0 = ordered[0]
        if len(ordered) > 1 and ordered[1][0] - re0 < _KEY_TOL:
            raise DomainError(
                "inverse: ambiguous leading term (two keys share the minimal "
                f"real exponent {re0})"
            )
        rel_cap = self.cap - re0 + _KEY_TOL
        sign = 1.0 if self.majorant else -1.0
        tail = [(r - re0, a - a0, b - b0, sign * v / c0) for r, a, b, v in ordered[1:]]
        acc: dict[tuple[int, int], complex] = {(0, 0): 1.0}
        term: dict[tuple[int, int], complex] = {(0, 0): 1.0}
        for _ in range(500):
            nxt: dict[tuple[int, int], complex] = {}
            for r1, a1, b1, v1 in self._by_re_exp(term):
                room = rel_cap - r1
                for r2, a2, b2, v2 in tail:
                    if r2 > room:
                        break
                    k = (a1 + a2, b1 + b2)
                    nxt[k] = nxt.get(k, 0.0) + v1 * v2
            term = {k: v for k, v in nxt.items() if abs(v) > _TINY_COEFF}
            if not term:
                break
            for k, v in term.items():
                acc[k] = acc.get(k, 0.0) + v
        else:
            raise ConvergenceError("series inversion did not terminate")
        out = {(a - a0, b - b0): v / c0 for (a, b), v in acc.items()}
        return self._new(out, min(self.valid - 2.0 * re0, self.cap))

    def coeff(self, key: tuple[int, int]) -> complex:
        return self.c.get(tuple(key), 0.0 + 0.0j)

    def evaluate(self, x0: float) -> complex:
        if not x0 > 0:
            raise DomainError("series evaluation requires x0 > 0")
        lx = math.log(x0)
        return sum((v * cmath.exp(self.exponent(k) * lx) for k, v in self.c.items()),
                   0.0 + 0.0j)


# --------------------------------------------------------------------------
# right-hand sides


def _f_poly(a1, a2, ainf, x, y, yp):
    """The bilinear combination entering every off-diagonal residue entry."""
    return (x - x * x) * yp + (1 - ainf) * y * y + ((a2 + ainf) * x + a1 - a2 - 1) * y - a1 * x


def gamma_exponents(
    thetas: tuple[complex, complex, complex, complex], sigma: complex
) -> tuple[complex, complex]:
    """Leading exponents gamma_i of the gauge functions k_i(x) ~ x^{gamma_i}."""
    t1, t2 = thetas[0], thetas[1]
    return (t1 - t2 - sigma) / 2, (-t1 + t2 - sigma) / 2


def pvi_rhs(thetas: tuple[complex, complex, complex, complex]):
    """Right-hand side closure for the state (y, y', w1, w2)."""
    t1, t2, t3, ti = (complex(t) for t in thetas)

    def rhs(x, state):
        y, yp = complex(state[0]), complex(state[1])
        ym1 = y - 1.0
        ymx = y - x
        xm1 = x - 1.0
        bracket1 = 0.5 * (1.0 / y + 1.0 / ym1 + 1.0 / ymx)
        bracket2 = 1.0 / x + 1.0 / xm1 + 1.0 / ymx
        pref = y * ym1 * ymx / (x * x * xm1 * xm1)
        bracket3 = (
            (ti - 1.0) ** 2 / 2.0
            - t1 * t1 * x / (2.0 * y * y)
            + t3 * t3 * xm1 / (2.0 * ym1 * ym1)
            + (1.0 - t2 * t2) * x * xm1 / (2.0 * ymx * ymx)
        )
        ypp = bracket1 * yp * yp - bracket2 * yp + pref * bracket3
        l1 = _f_poly(t1, t2, t1 + t3 - t2, x, y, yp) / (2.0 * x * (1.0 - x) * (1.0 - y) * y)
        l2 = _f_poly(-t1, -t2, t3 + t2 - t1, x, y, yp) / (2.0 * x * ym1 * (x - y)) \
            + (t2 - t3) / xm1
        return np.array([yp, ypp, l1, l2], dtype=complex)

    return rhs


# --------------------------------------------------------------------------
# seeding


@dataclass(frozen=True)
class TrajectorySeed:
    """State of the trajectory at a small x0 > 0, with gauge accumulators.

    ``w_i`` are the values of gamma_i log(x) + int_0^x (l_i(s) - gamma_i/s) ds,
    so that k_i = exp(w_i) carries the normalisation k_i(x)/x^{gamma_i} -> 1.
    ``truncation_error`` estimates the relative error of the seeded values.
    """

    x0: float
    y: complex
    yp: complex
    w1: complex
    w2: complex
    truncation_error: float


def _lattice_keys(sigma: complex, cutoff_rel: float) -> list[tuple[int, int]]:
    s = sigma.real
    if not 0.0 < s < 1.0:
        raise DomainError("lattice seed requires 0 < Re(sigma) < 1")
    amax = int(cutoff_rel / (1.0 - s)) + 1
    bmax = int(cutoff_rel / s) + 1
    keys = []
    for a in range(amax + 1):
        for b in range(bmax + 1):
            if (a, b) == (0, 0):
                continue
            r = a * (1.0 - s) + b * s
            if r <= cutoff_rel + _KEY_TOL:
                keys.append((a, b))
    keys.sort(key=lambda k: (k[0] * (1.0 - s) + k[1] * s, k[0], k[1]))
    return keys


def _residual_series(y: PuiseuxSeries, thetas, x: PuiseuxSeries,
                     inv_x: PuiseuxSeries, inv_xm1: PuiseuxSeries,
                     one: PuiseuxSeries) -> PuiseuxSeries:
    t1, t2, t3, ti = thetas
    yp = y.derivative()
    ypp = yp.derivative()
    ym1 = y - one
    ymx = y - x
    xm1 = x - one
    inv_y = y.inverse()
    inv_ym1 = ym1.inverse()
    inv_ymx = ymx.inverse()
    bracket1 = (inv_y + inv_ym1 + inv_ymx).scale(0.5)
    bracket2 = inv_x + inv_xm1 + inv_ymx
    pref = y * ym1 * ymx * inv_x * inv_x * inv_xm1 * inv_xm1
    bracket3 = (
        one.scale((ti - 1.0) ** 2 / 2.0)
        - (x * inv_y * inv_y).scale(t1 * t1 / 2.0)
        + (xm1 * inv_ym1 * inv_ym1).scale(t3 * t3 / 2.0)
        + (x * xm1 * inv_ymx * inv_ymx).scale((1.0 - t2 * t2) / 2.0)
    )
    return ypp - bracket1 * (yp * yp) + bracket2 * yp - pref * bracket3


def _basis_series(sigma: complex, cap: float) -> tuple[PuiseuxSeries, ...]:
    """The series x, 1/x, 1/(x - 1) and 1 that the residual and gauge take."""
    x = PuiseuxSeries.monomial(sigma, cap, (1, 1))
    one = PuiseuxSeries.monomial(sigma, cap, (0, 0))
    return x, x.inverse(), (x - one).inverse(), one


def _check_cancellation(y: PuiseuxSeries, thetas, keys,
                        basis: tuple[PuiseuxSeries, ...] | None = None) -> None:
    """Raise ConvergenceError unless the residual of ``y`` cancels at ``keys``.

    Cancels means: down to rounding.  The residual evaluated on majorants
    sums the moduli of the products at each key, and _ROUNDING_GAMMA times
    that sum bounds the rounding error of the plain residual (Higham 2002,
    ch. 3), at any coefficient scale.  ``basis`` is ``_basis_series`` at the
    sigma and cap of ``y``, when the caller has it already.
    """
    parts = basis or _basis_series(y.sigma, y.cap)
    res = _residual_series(y, thetas, *parts)
    need = max(y.re_exp(k) for k in keys)
    if res.valid + _KEY_TOL < need:
        raise ConvergenceError(
            f"residual series only complete to {res.valid}, need {need}; "
            "increase the series cap"
        )
    bound = _residual_series(y.to_majorant(), thetas,
                             *(p.to_majorant() for p in parts))
    for k in keys:
        r, floor = abs(res.coeff(k)), _ROUNDING_GAMMA * abs(bound.coeff(k))
        if r > floor:
            raise ConvergenceError(
                f"lattice-series residual {r:.3e} at key {k} did not cancel "
                f"(rounding floor {floor:.3e})"
            )


def _solve_lattice_series(d: PviAsymptoticData, cutoff_rel: float,
                          basis: tuple[PuiseuxSeries, ...] | None = None,
                          ) -> tuple[PuiseuxSeries, list[tuple[int, int]]]:
    """Puiseux coefficients of y near x = 0, by forward substitution.

    The keys are solved one level a + b at a time, from one residual
    evaluation per level.  ``basis`` is ``_basis_series`` at the series cap.
    """
    sigma = d.sigma
    s = sigma.real
    cap = (1.0 - s) + cutoff_rel + 1.0
    lam = _lattice_keys(sigma, cutoff_rel)
    base = (-1, -2)
    eq_keys = [(base[0] + a, base[1] + b) for (a, b) in lam]
    basis = basis or _basis_series(sigma, cap)
    y_valid = (1.0 - s) + cutoff_rel

    # The leading part of the residual is (y/x^2) theta^2 log y, theta = x d/dx.
    # A correction c x^E relative to J x^(1-sigma), E = a(1-sigma) + b sigma,
    # moves it by exactly E^2 c at the key base + (a, b).  Every other
    # dependence on c (products of corrections, the x/y and y corrections)
    # lands at keys strictly above (a, b) componentwise, hence at a higher
    # level a + b.  So once the lower levels are fixed, the residual at each
    # key of a level is affine in that key's coefficient alone with slope
    # E^2, and E^2 != 0 since Re E >= min(s, 1 - s) > 0: one evaluation
    # with the level's coefficients at zero gives them all as -r / E^2.
    # Forward substitution selects the perturbative branch; a global Newton
    # iteration could converge to another root of the truncated system.
    cmap = {(1, 0): d.J}
    for level in sorted({a + b for a, b in lam}):
        res = _residual_series(PuiseuxSeries(sigma, cap, cmap, valid=y_valid),
                               d.thetas, *basis)
        for (a, b), key in zip(lam, eq_keys):
            if a + b == level:
                e = a * (1.0 - sigma) + b * sigma
                cmap[(1 + a, b)] = -res.coeff(key) / (e * e)
    y_series = PuiseuxSeries(sigma, cap, cmap, valid=y_valid)
    _check_cancellation(y_series, d.thetas, [base] + eq_keys, basis)
    return y_series, lam


def _w_series(d: PviAsymptoticData, y: PuiseuxSeries, x: PuiseuxSeries,
              inv_x: PuiseuxSeries, inv_xm1: PuiseuxSeries, one: PuiseuxSeries,
              ) -> tuple[list[complex], list[PuiseuxSeries], float]:
    """Gauge integrand primitives: w_i(x) = gamma_i log x + P_i(x)."""
    t1, t2, t3, ti = d.thetas
    yp = y.derivative()
    ym1 = y - one
    xm1 = x - one

    def f_series(a1, a2, ainf):
        return ((x - x * x) * yp
                + (y * y).scale(1 - ainf)
                + (x * y).scale(a2 + ainf) + y.scale(a1 - a2 - 1)
                - x.scale(a1))

    den1 = (x * (one - x) * (one - y) * y).inverse().scale(0.5)
    l1 = f_series(t1, t2, t1 + t3 - t2) * den1
    den2 = (x * ym1 * (x - y)).inverse().scale(0.5)
    l2 = f_series(-t1, -t2, t3 + t2 - t1) * den2 + inv_xm1.scale(t2 - t3)

    g1_ref, g2_ref = gamma_exponents(d.thetas, d.sigma)
    gammas: list[complex] = []
    prims: list[PuiseuxSeries] = []
    w_valid = math.inf
    for ls, g_ref in ((l1, g1_ref), (l2, g2_ref)):
        low = [k for k in ls.c if ls.re_exp(k) < -1.0 - _KEY_TOL]
        if low:
            raise DomainError(f"gauge integrand has exponents below -1: {low}")
        g, prim = ls.primitive_skip_log()
        if abs(g - g_ref) > 1e-8 * (1.0 + abs(g_ref)):
            raise ConvergenceError(
                f"gauge 1/x coefficient {g} does not match the expected {g_ref}"
            )
        gammas.append(g_ref)
        prims.append(prim)
        w_valid = min(w_valid, prim.valid)
    return gammas, prims, w_valid


def seed_asymptotic(d: PviAsymptoticData, x0: float,
                    target_rel: float | None = None) -> TrajectorySeed:
    """Seed the trajectory at a small x0 from the critical expansion at 0.

    The expansion is the Puiseux lattice series, solved by forward
    substitution; ``d`` must be generic (``validate_generic``), so Re sigma
    lies strictly inside (0, 1).

    When ``target_rel`` is given, the seed point is halved below ``x0`` as
    needed until the estimated relative truncation error of the series drops
    under the target; the caller must read the seed point back from the
    result.  Near the strip edges the series coefficients grow
    geometrically, so the usable seed point can be orders of magnitude
    smaller there.  The descent stops at 1e-15 and raises
    ``ConvergenceError`` if the estimate is still above the target there.
    """
    if not 0 < x0 < 0.5:
        raise DomainError("seed point must satisfy 0 < x0 < 1/2")
    bad = validate_generic(d)
    if bad:
        raise DomainError("seed_asymptotic: " + "; ".join(bad))
    s = d.sigma.real
    basis = _basis_series(d.sigma, (1.0 - s) + _SEED_CUTOFF + 1.0)
    y_series, _ = _solve_lattice_series(d, _SEED_CUTOFF, basis)
    gammas, prims, w_valid = _w_series(d, y_series, *basis)
    # Relative truncation estimate: dropped terms carry coefficients at
    # least as large as the retained ones, the leading behaviour is
    # J x^(1-s), and two derivatives amplify a tail exponent e by (e/(1-s))^2
    # relative to the leading term.
    cscale = max(1.0, max(abs(c) for c in y_series.c.values()))
    amp = ((_SEED_CUTOFF + 1.0) / (1.0 - s)) ** 2
    wexp = max(w_valid, 0.25)

    def est(xv: float) -> float:
        tail_y = cscale * amp * xv ** (_SEED_CUTOFF - (1.0 - s)) / max(abs(d.J), 0.1)
        tail_w = cscale * xv ** wexp
        return float(tail_y + tail_w)

    x_use = x0
    if target_rel is not None:
        while est(x_use) > target_rel:
            if 0.5 * x_use < _SEED_FLOOR:
                raise ConvergenceError(
                    f"seed accuracy {target_rel} unattainable: estimate "
                    f"{est(x_use):.2e} at x = {x_use:.2e} "
                    f"(coefficient scale {cscale:.2e})"
                )
            x_use *= 0.5
    y0 = y_series.evaluate(x_use)
    yp0 = y_series.derivative().evaluate(x_use)
    lx = math.log(x_use)
    w1 = gammas[0] * lx + prims[0].evaluate(x_use)
    w2 = gammas[1] * lx + prims[1].evaluate(x_use)
    return TrajectorySeed(x_use, y0, yp0, w1, w2, truncation_error=est(x_use))


# --------------------------------------------------------------------------
# trajectory extension and residue matrices


@dataclass(frozen=True)
class TrajectoryPoint:
    x: float
    y: complex
    yp: complex
    k1: complex
    k2: complex


_W_LIMIT = 690.0  # |Re w| beyond this overflows exp() in double precision


def extend_trajectory(thetas: tuple[complex, complex, complex, complex],
                      seed: TrajectorySeed, xs, *,
                      rtol: float = 1e-11) -> list[TrajectoryPoint]:
    """Integrate the trajectory from the seed through the increasing points ``xs``.

    The integration variable is t = log x, with right-hand side x f(x, state)
    for the d/dx right-hand side f of ``pvi_rhs``.  Near x = 0 the solution
    is a sum of powers of x and the gauge accumulators grow like
    gamma_i log x, so in t every component changes at a nearly constant rate
    and the step count grows only with the number of e-folds crossed.  A
    ``SingularityError`` reports its location as an x value.
    """
    targets = sorted(float(x) for x in xs)
    if not targets:
        return []
    if targets[0] < seed.x0 * (1.0 - 1e-12):
        raise DomainError("extend_trajectory integrates upward: targets must be >= x0")
    f = pvi_rhs(thetas)

    def rhs(t, state):
        x = math.exp(t)
        return x * f(x, state)

    state = np.array([seed.y, seed.yp, seed.w1, seed.w2], dtype=complex)
    ta = math.log(seed.x0)
    budget = 2_000_000  # steps, shared by all segments
    points: list[TrajectoryPoint] = []
    for xv in targets:
        tv = math.log(xv)
        try:
            sol = integrate(rhs, ta, tv, state, rtol=rtol, atol=_ATOL, max_steps=budget)
        except SingularityError as exc:
            x_pole = math.exp(exc.location)
            raise SingularityError(f"{exc} in t = log x, at x = {x_pole:.6e}",
                                   location=x_pole) from exc
        state, ta = sol.y_end, tv
        budget -= sol.naccept + sol.nreject
        for w in (state[2], state[3]):
            if abs(w.real) > _W_LIMIT:
                raise ScalingError(
                    f"gauge accumulator Re(w) = {w.real} exceeds the exp() range "
                    f"at x = {xv}; renormalise the gauge"
                )
        points.append(TrajectoryPoint(x=xv, y=complex(state[0]), yp=complex(state[1]),
                                      k1=cmath.exp(state[2]), k2=cmath.exp(state[3])))
    return points


def omega_from_state(thetas: tuple[complex, complex, complex, complex],
                     x: complex, y: complex, yp: complex,
                     k1: complex = 1.0, k2: complex = 1.0) -> np.ndarray:
    """Residue matrix Omega(x) of the linear system along the trajectory.

    Diagonal (-theta1, -theta2, -theta3); each off-diagonal entry is the
    bilinear expression in (x, y, y') with the appropriate parameter shifts,
    dressed by the diagonal gauge diag(k1, k2, 1).
    """
    t1, t2, t3, ti = (complex(t) for t in thetas)
    om = np.empty((3, 3), dtype=complex)
    om[0, 0], om[1, 1], om[2, 2] = -t1, -t2, -t3
    om[0, 1] = (k1 / k2) * _f_poly(t1, t2, ti, x, y, yp) / (2 * (1 - x) * y)
    om[1, 0] = (k2 / k1) * _f_poly(-t1, -t2, ti, x, y, yp) / (2 * (y - x))
    om[0, 2] = k1 * _f_poly(t1, t1 - t3 - ti, ti, x, y, yp) / (2 * (x - 1) * y)
    om[2, 0] = (1 / k1) * _f_poly(-t1, -t1 + t3 - ti, ti, x, y, yp) / (2 * x * (y - 1))
    om[1, 2] = k2 * _f_poly(-t2 + t3 + ti, -t2, ti, x, y, yp) / (2 * (x - y))
    om[2, 1] = (1 / k2) * _f_poly(t2 - t3 + ti, t2, ti, x, y, yp) / (2 * x * (1 - y))
    return om


def _conjugate_by_x_dphi(thetas, x: float, om: np.ndarray) -> np.ndarray:
    """x^{dPhi} Omega x^{-dPhi} with dPhi = diag(-theta_1..3), x > 0 real."""
    lx = math.log(x)
    e = np.exp(np.array([-lx * complex(t) for t in thetas[:3]], dtype=complex))
    return (e[:, None] * om) / e[None, :]


def a_matrix(thetas, pt: TrajectoryPoint) -> np.ndarray:
    """The truncated conjugated residue A(x) = delta_2(x^{dPhi} Omega x^{-dPhi})."""
    om = omega_from_state(thetas, pt.x, pt.y, pt.yp, pt.k1, pt.k2)
    return delta_k(_conjugate_by_x_dphi(thetas, pt.x, om), 2)


def b_matrix(d: PviAsymptoticData, pt: TrajectoryPoint, phi2: np.ndarray) -> np.ndarray:
    """The fully regularised matrix B(x) = x^{-d2Phi0} x^{dPhi} Omega x^{-dPhi} x^{d2Phi0}.

    B(x) -> Phi0 as x -> 0; ``phi2`` is the truncated boundary value
    delta_2(Phi0) used as the regulator.
    """
    om = omega_from_state(d.thetas, pt.x, pt.y, pt.yp, pt.k1, pt.k2)
    conj = _conjugate_by_x_dphi(d.thetas, pt.x, om)
    lx = math.log(pt.x)
    p_pos = matrix_power_scalar(phi2, pt.x, log_s=lx)
    p_neg = matrix_power_scalar(phi2, 1.0 / pt.x, log_s=-lx)
    return p_neg @ conj @ p_pos


# --------------------------------------------------------------------------
# extrapolation


def correction_powers(sigma: complex) -> list[complex]:
    """Known correction exponents of the regularised limits, smallest Re first."""
    cands = [sigma, 1 - sigma, 2 * sigma, 2 - 2 * sigma, 1.0 + 0.0j]
    out: list[complex] = []
    for c in cands:
        if all(abs(c - o) > 1e-9 for o in out):
            out.append(complex(c))
    out.sort(key=lambda z: (z.real, z.imag))
    return out[:_MAX_POWERS]


def extrapolate_known_powers(xs, mats, powers) -> np.ndarray:
    """Least-squares limit of a matrix family v(x) = L + sum_m C_m x^{p_m}.

    Uses the smallest len(powers)+3 sample points (or all, if fewer).
    """
    x = np.asarray(xs, dtype=float)
    order = np.argsort(x)
    k = min(len(x), len(powers) + 3)
    idx = order[:k]
    design = np.ones((k, len(powers) + 1), dtype=complex)
    for m, p in enumerate(powers):
        design[:, m + 1] = np.exp(p * np.log(x[idx]))
    stacked = np.stack([np.asarray(mats[i], dtype=complex).ravel() for i in idx])
    sol, *_ = np.linalg.lstsq(design, stacked, rcond=None)
    return sol[0].reshape(np.asarray(mats[0]).shape)


@dataclass
class LimitReport:
    """Ladder values and extrapolated x -> 0 limits of the regularised families."""

    xs: list[float]
    a_values: list[np.ndarray]
    b_values: list[np.ndarray]
    a_limit: np.ndarray
    b_limit: np.ndarray
    y_correction_exponent: float | None
    degraded: bool
    seed: TrajectorySeed


def regularized_limits(d: PviAsymptoticData, *, x_small: float = 1e-6,
                       n_ladder: int = 14) -> LimitReport:
    """Drive the trajectory oracle: seed, ladder, regularise, extrapolate.

    The trajectory is seeded below the smallest ladder point and integrated
    upward, at ``extend_trajectory``'s default rtol, through the geometric
    ladder x_small * 2^j, j < n_ladder, and both regularised families are
    extrapolated with the known-power least-squares fit.

    ``y_correction_exponent`` is the log-log slope of the transcendent's own
    relative correction y/(J x^(1-sigma)) - 1 over the six smallest ladder
    points; its expansion carries both x^sigma and x^(1-sigma) terms, so it
    estimates min(Re sigma, 1 - Re sigma).

    The B-family is conjugated by the truncated closed-form boundary matrix
    (that matrix is part of B's definition); independence of the oracle is
    retained through ``a_limit``, which is extrapolated without any use of
    the closed form and confirms the same truncated block.
    """
    if n_ladder < 1:
        raise DomainError("regularized_limits: n_ladder must be at least 1")
    bad = validate_generic(d)
    if bad:
        raise DomainError("regularized_limits: " + "; ".join(bad))
    ladder = [x_small * _LADDER_RATIO ** j for j in range(n_ladder)]
    if ladder[-1] > 0.1:
        raise DomainError(
            f"ladder extends to {ladder[-1]:.3g} > 0.1; shrink x_small or n_ladder"
        )
    seed = seed_asymptotic(d, x_small / _LADDER_RATIO ** 2, target_rel=1e-8)
    pts = extend_trajectory(d.thetas, seed, ladder)
    a_vals = [a_matrix(d.thetas, p) for p in pts]
    xs = [p.x for p in pts]
    powers = correction_powers(d.sigma)
    a_limit = extrapolate_known_powers(xs, a_vals, powers)
    phi2 = delta_k(arrow_q(d).phi0, 2)
    b_vals = [b_matrix(d, p, phi2) for p in pts]

    # slope of the transcendent's relative correction y/(J x^(1-sigma)) - 1
    # over the lower end of the ladder
    rel = np.array([p.y / (d.J * p.x ** (1.0 - d.sigma)) - 1.0 for p in pts])
    y_exp: float | None = None
    mask = np.abs(rel[:6]) > 1e-13
    if int(np.count_nonzero(mask)) >= 3:
        lx = np.log(np.asarray(xs[:6], dtype=float)[mask])
        lr = np.log(np.abs(rel[:6][mask]))
        slope = np.polyfit(lx, lr, 1)[0]
        y_exp = float(slope)

    b_limit = extrapolate_known_powers(xs, b_vals, powers)
    s = d.sigma.real
    # confidence degrades near the strip boundary and when distinct correction
    # powers cluster (ill-conditioned design); exact coincidences are merged
    # by correction_powers and are harmless
    power_gap = min(
        (abs(p - q) for p in powers for q in powers if p != q),
        default=1.0,
    )
    degraded = min(s, 1.0 - s) < 0.12 or power_gap < 0.05
    return LimitReport(xs=xs, a_values=a_vals, b_values=b_vals, a_limit=a_limit,
                       b_limit=b_limit, y_correction_exponent=y_exp, degraded=degraded, seed=seed)
