"""Numerical Stokes matrices of dF/dz = (U + Phi/z) F by analytic continuation.

The system has one irregular singular point at infinity (rank one, exponential
factors e^{u_k z}) and a Fuchsian point at the origin.  With u purely
imaginary and increasing in imaginary part, the two Stokes sectors are the
half-planes Re z > 0 and Re z < 0, and the canonical frames are

    F+(z) ~ H(z) e^{Uz} z^{dPhi}   on -pi   < arg z < pi   (plus frame),
    F-(z) ~ H(z) e^{Uz} z^{dPhi}   on -2 pi < arg z < 0    (minus frame),

with dPhi the diagonal part of Phi and H(z) = Id + H_1/z + ... the formal
gauge.  The Stokes matrices are read off by continuing one frame into the
other frame's base point and comparing:

    S+ = e^{-i pi dPhi} F-(-R)^{-1} F+cont(-R),
    S- = F+(R)^{-1} F-cont(R) e^{+i pi dPhi},

where F+ is continued clockwise from +R through the lower half-plane to -R
(log(-R) = log R - i pi on its sheet), and F- is continued clockwise from -R
through arg z in (-2 pi, -pi) -- geometrically the upper half-plane -- to +R
(log(+R) = log R - 2 pi i on its sheet).  Both continuations follow a
dumbbell-shaped polygonal contour: inward along the real axis to a small
radius rho, around a semicircular polygon, and outward again, so the path
never approaches the Fuchsian point.  The upper dumbbell is the exact
negation of the lower one.

Frames at |z| = R are produced by evaluating the (divergent) formal series
at 2R and continuing the value down the ray from 2R to R.  The radius and the
truncation order are planned together: R is ``default_radius``, and the order
is the smallest m >= 9 whose term max|H_m| (2R)^-m is below 1e-3 rtol, or, if
the terms start to grow before that, the order of the smallest term (optimal
truncation: Boyd, "The Devil's invention", Acta Appl. Math. 56, 1999), at
most 24.  Triangularity and the diagonal law of the resulting matrices are
*checked*, never projected: a residual above tolerance raises
:class:`AccuracyError`.

Every continuation, down the ray and along the dumbbell, steps with the
Taylor series of the system itself.  Multiplied by z the ODE is linear with
polynomial coefficients, z F' = (zU + Phi) F, so about any z0 != 0 its Taylor
coefficients obey a three-term recurrence (holonomic continuation: van der
Hoeven, Theor. Comput. Sci. 210, 1999; Mezzarobba, arXiv:1607.01967).  The
recurrence acts on the frame from the left, so run on the identity it gives
each step's 3x3 transition matrix, which does not depend on the frame it
carries.  ``rtol`` bounds the summed truncation tail of each continuation; a
step that needs more than ``_MAX_TERMS`` terms raises :class:`BudgetError`.
By default each arc of radius 1.5 is a polygon of 8 chords; a chord (0.59)
is shorter than half the distance to 0 (0.75), so it is one Taylor step
unless the spread of u asks for shorter ones.  The result reports the steps,
the terms and the summed tail.

The four continuations come in two mirrored pairs: F- runs from -2R down to
-R and around the upper dumbbell, which is F+'s path from 2R with z -> -z.
The transitions of the steps of both pairs, the ray's and the dumbbell's,
come from one run of the recurrence over up to ``_BATCH_STEPS`` steps' (frame,
step) rows at once (all of them on the default contour), each row stopping
by its own rule; the frames then take their steps as 3x3 products in plan
order.  The work counts are per row, summed over all four
continuations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core_linalg import as_matrix
from .errors import AccuracyError, BudgetError, DomainError

__all__ = [
    "IrregularSystem",
    "StokesNumericResult",
    "formal_series_coefficients",
    "canonical_frame",
    "continue_frame",
    "stokes_matrices",
    "monodromy_mismatch",
    "default_radius",
]

_RESONANCE_TOL = 1e-8
#: A Taylor step keeps |u_k - c| |h| <= _PHASE_STEP for the centred exponents.
_PHASE_STEP = 3.0
#: Terms one Taylor step may sum before it gives up with BudgetError; the
#: terms of a step of at most half the distance to 0 decay like 2^-k times a
#: power of k.
_MAX_TERMS = 400
#: A planned series order keeps its last term below _SERIES_TAIL * rtol, and
#: lies in [_MIN_ORDER, _MAX_ORDER].
_SERIES_TAIL = 1e-3
_MIN_ORDER = 9
_MAX_ORDER = 24
#: A Taylor step sums terms down to rtol / max(steps in the plan, _MIN_SHARE),
#: so a short plan does not loosen the per-step threshold.
_MIN_SHARE = 1000
#: Taylor steps whose transitions one run of the recurrence makes at once.
_BATCH_STEPS = 1024
#: The formal series is evaluated at this multiple of the frame's |z|.
_SERIES_FACTOR = 2.0
#: Radius of the dumbbell's arcs round the Fuchsian point.
_RHO = 1.5
#: Chords of the polygon that stands in for each arc.
_N_ARC = 8
#: Relative triangularity and diagonal-law residual above which the
#: extraction raises AccuracyError.
_CHECK_TOL = 1e-5


@dataclass(frozen=True)
class IrregularSystem:
    """The data (u, Phi) of dF/dz = (diag(u) + Phi/z) F, validated on creation.

    Conventions enforced: u is purely imaginary with strictly increasing
    imaginary parts (this pins the sectors to the left and right half-planes);
    neither the diagonal entries of Phi nor its eigenvalues may differ by a
    nonzero integer (resonance would make the frame normalisation ambiguous).
    """

    u: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 1 or u.shape[0] < 2:
            raise DomainError("u must be a vector of at least two points")
        phi = as_matrix(self.phi, u.shape[0])
        scale = float(np.max(np.abs(u)))
        if scale == 0.0:
            raise DomainError("u must not vanish identically")
        if float(np.max(np.abs(u.real))) > 1e-12 * scale:
            raise DomainError(
                "u must be purely imaginary (sector convention); rotate the "
                "system or transport Phi accordingly"
            )
        ims = u.imag
        if not np.all(np.diff(ims) > 0):
            raise DomainError("Im(u) must be strictly increasing")
        for what, vals in (("diagonal: phi_{i}{i} - phi_{j}{j} = {d}", np.diag(phi)),
                           ("spectrum: eigenvalue difference {d}", np.linalg.eigvals(phi))):
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    d = vals[i] - vals[j]
                    nd = round(d.real)
                    if nd != 0 and abs(d - nd) < _RESONANCE_TOL:
                        raise DomainError(f"resonant {what.format(i=i, j=j, d=d)} is "
                                          "within 1e-8 of a nonzero integer")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def default_radius(system: IrregularSystem) -> float:
    """Extraction radius max(20, 4 ||Phi||_2) / min(spacing, 1).

    Phi/z is then a small perturbation at |z| = R, and the formal series,
    evaluated at 2R, reaches a tail of 1e-3 rtol (or its smallest term) by
    order 24.  The radius scales inversely with the minimal u-spacing, which
    sets the growth of the series coefficients.
    """
    u = system.u
    n = system.n
    spacing = min(abs(u[i] - u[j]) for i in range(n) for j in range(i + 1, n))
    base = max(20.0, 4.0 * float(np.linalg.norm(system.phi, 2)))
    return base / min(spacing, 1.0)


def formal_series_coefficients(system: IrregularSystem, order: int) -> list[np.ndarray]:
    """Coefficients H_1..H_order of the formal gauge H(z) = Id + sum H_m z^{-m}.

    Recursion: off-diagonal of H_{m+1} solves [U, H_{m+1}] = -m H_m - Phi H_m
    + H_m dPhi; the diagonal of H_m is -(1/m) sum_{k!=i} Phi_ik (H_m)_ki.
    """
    if order < 1:
        raise DomainError("series order must be at least 1")
    u, phi = system.u, system.phi
    n = system.n
    dphi = np.diag(np.diag(phi))
    udiff = u[:, None] - u[None, :]
    off = ~np.eye(n, dtype=bool)
    hs: list[np.ndarray] = []
    h_prev = np.eye(n, dtype=complex)
    for m in range(1, order + 1):
        g = -(m - 1) * h_prev - phi @ h_prev + h_prev @ dphi
        h = np.zeros((n, n), dtype=complex)
        h[off] = g[off] / udiff[off]
        for i in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                if k != i:
                    acc += phi[i, k] * h[k, i]
            h[i, i] = -acc / m
        hs.append(h)
        h_prev = h
    return hs


def _planned_series(system: IrregularSystem, z_abs: float, rtol: float) -> list[np.ndarray]:
    """Coefficients H_1..H_m of the series evaluated at |z| = ``z_abs``.

    m is the smallest order from _MIN_ORDER on whose term max|H_m| z_abs^-m
    is at most _SERIES_TAIL * rtol; if the terms grow before that, the order
    of the smallest term; at most _MAX_ORDER.
    """
    hs = formal_series_coefficients(system, _MAX_ORDER)
    terms = [float(np.max(np.abs(h))) * z_abs ** -m for m, h in enumerate(hs, 1)]
    order = _MIN_ORDER
    while (order < _MAX_ORDER and terms[order - 1] > _SERIES_TAIL * rtol
           and terms[order] <= terms[order - 1]):
        order += 1
    return hs[:order]


@dataclass
class _TaylorWork:
    """Work of the Taylor continuation, summed over the steps it made."""

    steps: int = 0
    terms: int = 0
    tail: float = 0.0


def _step_plan(u: np.ndarray, vertices) -> list[tuple[complex, complex]]:
    """Taylor steps (z0, h) along the polygon through ``vertices``.

    A step is at most |z0|/2, inside the disc of convergence that reaches to
    the Fuchsian point 0, and at most 2 * _PHASE_STEP / spread(u).
    """
    hmax = 2.0 * _PHASE_STEP / abs(u[-1] - u[0])
    plan: list[tuple[complex, complex]] = []
    pts = [complex(p) for p in vertices]
    for za, zb in zip(pts[:-1], pts[1:]):
        seg = zb - za
        length = abs(seg)
        if length == 0.0:
            continue
        t = min(max(-(za * seg.conjugate()).real / length ** 2, 0.0), 1.0)
        if abs(za + t * seg) <= 1e-9 * length:
            raise DomainError("contour passes through the Fuchsian point z = 0")
        z = za
        while abs(zb - z) > min(0.5 * abs(z), hmax):
            h = min(0.5 * abs(z), hmax) * seg / length
            plan.append((z, h))
            z += h
        plan.append((z, zb - z))
    return plan


def _transitions(system: IrregularSystem, steps, signs, work: _TaylorWork):
    """Yield, step by step, the transitions of the stack's frames.

    ``steps`` holds (z0, h, tol) per step; frame j takes the step
    signs[j] * (z0, h), and the yielded (len(signs), n, n) array holds the
    transition T_j, F_j(z0 + h) = T_j F_j(z0), of each frame.  The recurrence
    of :func:`_taylor_path` runs on c_0 = Id over every (step, frame sign) row
    of up to ``_BATCH_STEPS`` steps at once, the rows along the last axis, so
    Phi acts on all of them in one product and the memory does not grow with
    the plan.  A row ends after two consecutive terms of max-entry at most
    its step's tol; ``work`` counts the steps and the terms of every row,
    each under its own rule, and sums every row's last term.
    """
    n = system.n
    u = system.u
    centre = 0.5 * (u[0] + u[-1])
    v = u - centre
    signs = np.asarray(signs, dtype=float)
    for first in range(0, len(steps), _BATCH_STEPS):
        batch = steps[first:first + _BATCH_STEPS]
        # row (step i, frame j) is signs[j] times step i
        z = np.multiply.outer([step[0] for step in batch], signs).ravel()
        h = np.multiply.outer([step[1] for step in batch], signs).ravel()
        tol = np.repeat([step[2] for step in batch], len(signs))
        rows = len(z)
        zv = np.multiply.outer(v, z)[:, None, :]
        hv = np.multiply.outer(v, h)[:, None, :]
        q = h / z
        term = np.multiply.outer(np.eye(n, dtype=complex), np.ones(rows))
        prev = np.zeros_like(term)
        total = term.copy()
        terms = np.zeros(rows, dtype=int)
        small = np.zeros(rows, dtype=int)
        last = np.zeros(rows)
        active = np.ones(rows, dtype=bool)
        k = 0
        while active.any():
            if k == _MAX_TERMS:
                i = int(np.argmax(active))
                raise BudgetError(
                    f"Taylor step {h[i]:.3g} at z = {z[i]:.6g} did not converge in "
                    f"{_MAX_TERMS} terms"
                )
            phi_term = (system.phi @ term.reshape(n, -1)).reshape(term.shape)
            prev, term = term, (q / (k + 1)) * (phi_term + (zv - k) * term + hv * prev)
            k += 1
            np.add(total, term, out=total, where=active)
            size = np.abs(term).max(axis=(0, 1))
            small = np.where(size <= tol, small + 1, 0)
            terms += active
            last = np.where(active, size, last)
            active &= small < 2
        total *= np.exp(centre * h)
        work.steps += rows
        work.terms += int(terms.sum())
        work.tail += float(last.sum())
        yield from total.transpose(2, 0, 1).reshape(len(batch), len(signs), n, n)


def _taylor_path(system: IrregularSystem, f: np.ndarray, legs, signs,
                 rtol: float, work: _TaylorWork) -> list[np.ndarray]:
    """Continue a stack of frames along mirrored copies of a chain of polygons.

    Frame ``f[j]`` follows each leg of ``legs`` in turn (a leg starts where
    the one before it ended) through ``signs[j] * vertices``, ``signs[j]`` =
    +1 or -1; the stack of frames at the end of each leg is returned.  The
    plan of steps is made once, so the mirrored steps are its exact negation.
    Multiplied by z the system reads z F' = (z U + Phi) F, so about z0 != 0
    the Taylor coefficients of F obey

        c_{k+1} = ((z0 U + Phi - k) c_k + U c_{k-1}) / (z0 (k+1)),

    which acts on c_0 = F(z0) from the left: run on c_0 = Id it gives the
    step's transition T, F(z0 + h) = T F(z0), for any frame.  The recurrence,
    in the scaled form d_k = c_k h^k so no term overflows, makes the
    transitions of many (frame sign, step) rows of the legs at once
    (:func:`_transitions`); the frames then take them in plan order.  U is
    first centred (F = e^{cz} G, c midway between u_1 and u_n, the scalar
    e^{ch} folded into T), which bounds the phase |(u_k - c) h| by
    spread(u) |h| / 2.
    A row ends after two consecutive terms of max-entry at most tol / n,
    tol = rtol / max(steps in its leg, _MIN_SHARE).  A frame's term is the
    row's term times the frame, and |F / max|F_col|| <= 1 entrywise, so each
    frame's term is then below tol times its column scale, and the summed
    tail of a frame's path stays below ``rtol``.
    """
    if not rtol > 0.0:
        raise DomainError("rtol must be positive")
    n = system.n
    plans = [_step_plan(system.u, vertices) for vertices in legs]
    steps = [(z0, h, rtol / max(len(leg), _MIN_SHARE) / n)
             for leg in plans for z0, h in leg]
    transitions = _transitions(system, steps, signs, work)
    f = np.asarray(f, dtype=complex)
    ends = []
    for leg in plans:
        for _ in leg:
            f = next(transitions) @ f
        ends.append(f)
    return ends


def _series_frame(system: IrregularSystem, z: complex, log_z: complex,
                  hs: list[np.ndarray]) -> np.ndarray:
    """H(z) e^{Uz} z^{dPhi}, the formal series through ``hs``, at z."""
    h = np.eye(system.n, dtype=complex)
    zm = 1.0 + 0.0j
    for hm in hs:
        zm /= z
        h = h + hm * zm
    exp_u = np.exp(system.u * z)
    exp_d = np.exp(np.diag(system.phi) * log_z)
    return h * exp_u[None, :] * exp_d[None, :]  # H @ diag(e^{uz}) @ diag(z^{dphi})


def canonical_frame(system: IrregularSystem, z: complex, log_z: complex, *,
                    rtol: float = 1e-12) -> np.ndarray:
    """Canonical frame F(z) on the sheet fixed by ``log_z``.

    Evaluates the formal series at 2z on the same ray (where it is more
    accurate) and continues the value back to z by Taylor steps of the
    system itself.  The series order is planned from its tail at 2|z| as in
    :func:`stokes_matrices`.
    """
    z = complex(z)
    if abs(cmath.exp(log_z) - z) > 1e-9 * abs(z):
        raise DomainError("log_z is not a logarithm of z")
    z2 = z * _SERIES_FACTOR
    hs = _planned_series(system, abs(z2), rtol)
    f2 = _series_frame(system, z2, log_z + math.log(_SERIES_FACTOR), hs)
    return _taylor_path(system, [f2], [[z2, z]], (1,), rtol, _TaylorWork())[0][0]


def continue_frame(system: IrregularSystem, f0: np.ndarray, contour, *,
                   rtol: float = 1e-12) -> np.ndarray:
    """Analytically continue a frame value along a polygonal contour."""
    return _taylor_path(system, [f0], [contour], (1,), rtol, _TaylorWork())[0][0]


@dataclass
class StokesNumericResult:
    """Stokes pair with its structural residuals and the work that made it.

    ``steps`` counts the Taylor steps of the four continuations, and
    ``terms`` the series terms of each step's transition, each (frame, step)
    row under its own stopping rule although many rows share one run of the
    recurrence; ``tail_bound`` sums the max-entry of every row's last term.
    A frame's last term, relative to its column scale, is at most n times
    its row's, so this estimates the accumulated truncation error before
    propagation.
    """

    s_plus: np.ndarray
    s_minus: np.ndarray
    radius: float
    order: int
    triangularity_residual: float
    diag_residual: float
    series_tail_estimate: float
    steps: int
    terms: int
    tail_bound: float


def stokes_matrices(system: IrregularSystem, *, rtol: float = 1e-12) -> StokesNumericResult:
    """Compute (S+, S-) numerically via dumbbell continuation.

    One batched Taylor continuation makes the four frame values: (F+ from
    2R, F- from -2R) down to +-R, where F+(R) and F-(-R) are read, and on
    around the lower dumbbell and its negation.

    The contour is planned from the formal series: R is
    :func:`default_radius`, at least 20, and the series, evaluated at 2R, is
    truncated at the smallest order m >= 9 whose term max|H_m| (2R)^-m is at
    most 1e-3 rtol (the order of the smallest term if the terms grow first,
    at most 24).  Each arc of radius 1.5 is a polygon of 8 chords.

    Raises :class:`AccuracyError` when the triangular structure or the
    diagonal law e^{-i pi phi_kk} fails beyond ``_CHECK_TOL`` (relative).
    """
    r = default_radius(system)
    r2 = _SERIES_FACTOR * r
    hs = _planned_series(system, r2, rtol)
    order = len(hs)
    tail = float(np.max(np.abs(hs[-1]))) * r2 ** (-order)

    ln_r2 = math.log(r) + math.log(_SERIES_FACTOR)
    work = _TaylorWork()
    # F+ from its series at 2R and F- from its series at -2R (arg -pi), each
    # continued down its ray to |z| = R; then F+ continued clockwise through
    # the lower half-plane, arg 0 -> -pi, and F- clockwise on its sheet along
    # the mirrored dumbbell, arg -pi -> -2 pi (upper half-plane)
    arc = np.linspace(0.0, -math.pi, _N_ARC + 1)
    lower = [r] + [_RHO * cmath.exp(1j * th) for th in arc] + [-r]
    (f_plus_r, f_minus_mr), (fp_cont, fm_cont) = _taylor_path(
        system, [_series_frame(system, r2, ln_r2, hs),
                 _series_frame(system, -r2, ln_r2 - 1j * math.pi, hs)],
        [[r2, r], lower], (1, -1), rtol, work)

    diag = np.diag(system.phi)
    e_minus = np.exp(-1j * math.pi * diag)
    s_plus = (e_minus[:, None]) * np.linalg.solve(f_minus_mr, fp_cont)
    s_minus = np.linalg.solve(f_plus_r, fm_cont) * (1.0 / e_minus)[None, :]

    scale = max(1.0, float(np.max(np.abs(s_plus))), float(np.max(np.abs(s_minus))))
    n = system.n
    low_mask = np.tril(np.ones((n, n), dtype=bool), -1)
    up_mask = np.triu(np.ones((n, n), dtype=bool), 1)
    tri = max(float(np.max(np.abs(s_plus[low_mask]))),
              float(np.max(np.abs(s_minus[up_mask])))) / scale
    diag_res = max(
        float(np.max(np.abs(np.diag(s_plus) - e_minus))),
        float(np.max(np.abs(np.diag(s_minus) - e_minus))),
    ) / max(1.0, float(np.max(np.abs(e_minus))))
    if tri > _CHECK_TOL:
        raise AccuracyError(
            f"Stokes triangularity residual {tri:.3e} exceeds {_CHECK_TOL:.1e}",
            residual=tri,
        )
    if diag_res > _CHECK_TOL:
        raise AccuracyError(
            f"Stokes diagonal-law residual {diag_res:.3e} exceeds {_CHECK_TOL:.1e}",
            residual=diag_res,
        )
    return StokesNumericResult(
        s_plus=s_plus,
        s_minus=s_minus,
        radius=r,
        order=order,
        triangularity_residual=tri,
        diag_residual=diag_res,
        series_tail_estimate=tail,
        steps=work.steps,
        terms=work.terms,
        tail_bound=work.tail,
    )


def monodromy_mismatch(system: IrregularSystem, s_plus: np.ndarray,
                       s_minus: np.ndarray) -> float:
    """Mismatch between eig(S- S+) and exp(-2 pi i eig(Phi)) (best matching)."""
    m = np.asarray(s_minus, dtype=complex) @ np.asarray(s_plus, dtype=complex)
    got = np.linalg.eigvals(m)
    want = np.exp(-2j * math.pi * np.linalg.eigvals(system.phi))
    best = math.inf
    for perm in permutations(range(len(got))):
        cand = max(abs(got[p] - want[i]) for i, p in enumerate(perm))
        best = min(best, cand)
    return float(best)
