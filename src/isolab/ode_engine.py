"""Adaptive Dormand-Prince 8(5,3) integration for complex-analytic systems.

The engine integrates y' = f(t, y) with a real parameter t and a complex
state vector y, using the eighth-order pair DOP853 of Hairer, Norsett &
Wanner (Solving ODEs I, 2nd ed., 1993; Prince & Dormand 1981) with FSAL,
its combined fifth- and third-order error estimate and PI step-size
control.  Every oracle that uses it runs at rtol 1e-11 to 1e-12, where the
eighth-order pair takes several times fewer steps than a fifth-order one.

Failure modes are explicit: a step size collapsing below 1e-13 of the
current |t| raises :class:`SingularityError` (the trajectory is running into
a pole), as does a right-hand side that divides by zero, located at the
start of the failing step; exceeding the step budget raises
:class:`BudgetError`.  The floor follows |t|, so an integration started at
t0 = 1e-15 may take steps of 1e-17; a backstop of 1e-28 of the span stops a
pole at or through t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, SingularityError

__all__ = ["OdeSolution", "integrate"]

# DOP853 tableau for stages 1..12 (stage 0 is f at the step's start).  Row
# i - 1 of _A weighs stages 0..i-1 in the input of stage i; the last row is
# the eighth-order solution, which is also the input of the FSAL stage.  The
# rows are complex so that the products with the stages need no cast; the
# nodes stay Python floats, so f sees a Python float t.
_C = (0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0, 1.0)
_A = tuple(np.array(row, dtype=complex) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
))
# the two embedded error estimates over the 13 stages (the FSAL stage has
# weight 0): row 0 is the fifth-order one, row 1 the third-order one, i.e.
# the solution weights minus bhh1, bhh2 and bhh3 on stages 0, 8 and 11
_E = np.zeros((2, 13), dtype=complex)
_E[0, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E[1, :12] = _A[-1]
_E[1, [0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                      0.220588235294117647058823529412e-1)

_SAFETY = 0.9
_FACMIN = 0.2
_FACMAX = 5.0
_EXPO_ERR = 0.7 / 8.0
_EXPO_OLD = 0.4 / 8.0
_HMIN_FRACTION = 1e-13  # of |t|
_HMIN_BACKSTOP = 1e-28  # of the span, for |t| near 0


def _error_norm(err: np.ndarray, h: float, y0: np.ndarray, y1: np.ndarray,
                rtol: float, atol: float) -> float:
    """Hairer's combined DOP853 error norm of one step of size ``h``.

    ``err`` holds the fifth- and third-order estimates in its two rows.  With
    n5 and n3 their sums of squares over the 2n real and imaginary parts, each
    part weighted by atol + rtol * max(|y0 part|, |y1 part|), the norm is
    |h| n5 / sqrt((n5 + 0.01 n3) 2n), and 0 when both sums are 0.
    """
    sk = np.maximum(np.abs(y0.view(float)), np.abs(y1.view(float)))
    sk *= rtol
    sk += atol
    r = err.view(float) / sk
    n5 = float(np.dot(r[0], r[0]))
    n3 = float(np.dot(r[1], r[1]))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * sk.size)


@dataclass
class OdeSolution:
    """Result of a single-span integration."""

    t0: float
    t1: float
    y_end: np.ndarray
    nfev: int
    naccept: int
    nreject: int


def _initial_step(f, t0: float, y0: np.ndarray, f0: np.ndarray, direction: float,
                  span: float, rtol: float, atol: float) -> tuple[float, int]:
    sk = atol + rtol * np.maximum(np.abs(y0.real), np.abs(y0.imag))
    d0 = float(np.sqrt(np.mean(np.square(np.abs(y0) / sk))))
    d1 = float(np.sqrt(np.mean(np.square(np.abs(f0) / sk))))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = float(np.sqrt(np.mean(np.square(np.abs(f1 - f0) / sk)))) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** (1 / 8) if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span), 1


def _step(f, t: float, y: np.ndarray, hd: float, k: np.ndarray) -> np.ndarray:
    """Stages k[1..12] of the DOP853 step of size ``hd`` from (t, y), k[0] = f(t, y).

    Returns the eighth-order solution.  A division by zero in f raises
    :class:`SingularityError` located at t, the start of the step.
    """
    try:
        for i in range(1, 13):
            y_new = y + hd * (_A[i - 1] @ k[:i])
            k[i] = f(t + _C[i - 1] * hd, y_new)
    except ZeroDivisionError as exc:
        raise SingularityError(
            f"right-hand side divided by zero in the step from t={t} ({exc})",
            location=t) from exc
    return y_new


def integrate(
    f,
    t0: float,
    t1: float,
    y0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> OdeSolution:
    """Integrate y' = f(t, y) from t0 to t1 (t real, y complex vector), steps PI-controlled."""
    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim != 1:
        raise DomainError("state must be a one-dimensional complex vector")
    span = abs(t1 - t0)
    if span == 0:
        return OdeSolution(t0, t1, y, 0, 0, 0)
    direction = 1.0 if t1 > t0 else -1.0
    backstop = _HMIN_BACKSTOP * span

    k = np.empty((13, y.shape[0]), dtype=complex)  # the stages of one step
    try:
        k[0] = f(t0, y)
        h, extra = _initial_step(f, t0, y, k[0], direction, span, rtol, atol)
    except ZeroDivisionError as exc:
        raise SingularityError(
            f"right-hand side divided by zero in the step from t={t0} ({exc})",
            location=t0) from exc
    nfev = 1 + extra
    naccept = nreject = 0
    errold = 1e-4
    facmax = _FACMAX

    t = t0
    while (t1 - t) * direction > 0:
        if naccept + nreject >= max_steps:
            raise BudgetError(
                f"step budget {max_steps} exhausted at t={t} "
                f"({naccept} accepted, {nreject} rejected)"
            )
        if h < max(_HMIN_FRACTION * abs(t), backstop):
            raise SingularityError(
                f"step size collapsed to {h:.3e} (span {span:.3e})", location=t
            )
        last = h >= abs(t1 - t)
        if last:
            h = abs(t1 - t)
        hd = h * direction

        y_new = _step(f, t, y, hd, k)
        nfev += 12
        err = _error_norm(_E @ k, hd, y, y_new, rtol, atol)

        if err <= 1.0:
            t = t1 if last else t + hd
            y = y_new
            k[0] = k[12]  # FSAL
            naccept += 1
            err = max(err, 1e-30)
            fac = _SAFETY * err ** (-_EXPO_ERR) * errold ** (_EXPO_OLD)
            h *= min(facmax, max(_FACMIN, fac))
            errold = max(err, 1e-4)
            facmax = _FACMAX
        else:
            nreject += 1
            fac = _SAFETY * err ** (-_EXPO_ERR)
            h *= min(1.0, max(_FACMIN, fac))
            facmax = 1.0

    return OdeSolution(t0, t1, y, nfev, naccept, nreject)
