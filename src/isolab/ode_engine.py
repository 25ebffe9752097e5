"""Adaptive Dormand-Prince 5(4) integration for complex-analytic systems.

The engine integrates y' = f(t, y) with a real parameter t and a complex
state vector y, using the classic embedded 5(4) pair with FSAL and PI
step-size control.  A thin wrapper lifts it to piecewise-linear contours in
the complex plane: each straight segment is parameterised by arclength and
integrated with a fresh start at every corner, so the right-hand side is only
ever evaluated on the contour itself (which is what keeps branch tracking
honest when continuing solutions of linear systems around singular points).

Failure modes are explicit: a step size collapsing below 1e-13 of the
segment length raises :class:`SingularityError` (the trajectory is running
into a pole), and exceeding the step budget raises :class:`BudgetError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, SingularityError

__all__ = ["OdeSolution", "ContourResult", "integrate", "integrate_contour"]

# Dormand-Prince 5(4) tableau for stages 1..6 (stage 0 is f at the step's
# start).  Row i - 1 of _A weighs stages 0..i-1 in the input of stage i; the
# last row is the fifth-order solution (b_2 = 0), which is also the input of
# the FSAL stage.  The rows are complex so that the products with the stages
# need no cast; the nodes stay Python floats, so f sees a Python float t.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = tuple(np.array(row, dtype=complex) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth- minus fourth-order weights: the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40], dtype=complex)

_SAFETY = 0.9
_FACMIN = 0.2
_FACMAX = 5.0
_EXPO_ERR = 0.7 / 5.0
_EXPO_OLD = 0.4 / 5.0
_HMIN_FRACTION = 1e-13


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                rtol: float, atol: float) -> float:
    """RMS norm of the embedded error, real and imaginary parts weighted separately."""
    sk = np.maximum(np.abs(y0.view(float)), np.abs(y1.view(float)))
    sk *= rtol
    sk += atol
    r = err.view(float) / sk
    return math.sqrt(np.dot(r, r) / r.size)


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
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span), 1


def integrate(
    f,
    t0: float,
    t1: float,
    y0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
    fixed_step: float | None = None,
) -> OdeSolution:
    """Integrate y' = f(t, y) from t0 to t1 (t real, y complex vector).

    ``fixed_step`` disables adaptivity (used for convergence-order checks);
    otherwise the step is PI-controlled against ``rtol``/``atol``.
    """
    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim != 1:
        raise DomainError("state must be a one-dimensional complex vector")
    span = abs(t1 - t0)
    if span == 0:
        return OdeSolution(t0, t1, y, 0, 0, 0)
    direction = 1.0 if t1 > t0 else -1.0
    hmin = _HMIN_FRACTION * span

    k = np.empty((7, y.shape[0]), dtype=complex)  # the stages of one step
    k[0] = f(t0, y)
    nfev = 1
    if fixed_step is not None:
        if fixed_step <= 0:
            raise DomainError("fixed_step must be positive")
        h = float(fixed_step)
    else:
        h, extra = _initial_step(f, t0, y, k[0], direction, span, rtol, atol)
        nfev += extra

    t = t0
    naccept = nreject = 0
    errold = 1e-4
    facmax = _FACMAX

    while (t1 - t) * direction > 0:
        if naccept + nreject >= max_steps:
            raise BudgetError(
                f"step budget {max_steps} exhausted at t={t} "
                f"({naccept} accepted, {nreject} rejected)"
            )
        if h < hmin:
            raise SingularityError(
                f"step size collapsed to {h:.3e} (span {span:.3e})", location=t
            )
        if h > abs(t1 - t):
            h = abs(t1 - t)
        hd = h * direction

        for i in range(1, 7):
            y_new = y + hd * (_A[i - 1] @ k[:i])
            k[i] = f(t + _C[i - 1] * hd, y_new)
        nfev += 6
        err = _error_norm(hd * (_E @ k), y, y_new, rtol, atol)

        if fixed_step is not None or err <= 1.0:
            t = t1 if abs(t1 - (t + hd)) < 1e-14 * span else t + hd
            y = y_new
            k[0] = k[6]  # FSAL
            naccept += 1
            if fixed_step is None:
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


@dataclass
class ContourResult:
    """Result of a piecewise-linear contour integration."""

    vertices: list[complex]
    y_end: np.ndarray
    y_at_vertices: list[np.ndarray]
    nfev: int
    naccept: int
    nreject: int


def integrate_contour(
    f,
    vertices,
    y0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 2_000_000,
    record: bool = False,
) -> ContourResult:
    """Integrate dy/dz = f(z, y) along the polygonal path through ``vertices``.

    Each straight segment is parameterised by arclength and integrated by
    :func:`integrate`, restarting at every corner.  With ``record=True`` the
    state at every vertex is kept (vertices double as forced checkpoints).
    """
    pts = [complex(z) for z in vertices]
    if len(pts) < 2:
        raise DomainError("a contour needs at least two vertices")
    y = np.asarray(y0, dtype=complex).copy()
    recorded: list[np.ndarray] = [y.copy()] if record else []
    nfev = naccept = nreject = 0
    budget_left = max_steps
    for za, zb in zip(pts[:-1], pts[1:]):
        length = abs(zb - za)
        if length == 0:
            if record:
                recorded.append(y.copy())
            continue
        direction = (zb - za) / length

        def seg_rhs(t, state, _za=za, _dir=direction):
            return _dir * np.asarray(f(_za + _dir * t, state), dtype=complex)

        sol = integrate(
            seg_rhs, 0.0, length, y, rtol=rtol, atol=atol, max_steps=budget_left
        )
        y = sol.y_end
        nfev += sol.nfev
        naccept += sol.naccept
        nreject += sol.nreject
        budget_left -= sol.naccept + sol.nreject
        if budget_left <= 0:
            raise BudgetError(f"contour step budget {max_steps} exhausted at vertex {zb}")
        if record:
            recorded.append(y.copy())
    return ContourResult(pts, y, recorded, nfev, naccept, nreject)
