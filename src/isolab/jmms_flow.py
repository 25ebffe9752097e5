"""Isomonodromic deformation flow of the residue matrix Phi(u).

The linear system dF/dz = (U + Phi/z) F with U = diag(u) deforms
isomonodromically when Phi obeys, for each coordinate u_k,

    dPhi/du_k = [B_k, Phi],        B_k = [D_k, [E_k, Phi]],

where E_k is the diagonal unit at position k and (D_k)_bb = 1/(u_b - u_k)
for b != k (zero at k).  Entrywise, with c_m = 1/(u_k - u_m) and c_k = 0:

    d(phi_kk)/du_k          = 0
    d(phi_ij)/du_k (i,j!=k) = (c_i - c_j) phi_ik phi_kj
    d(phi_ik)/du_k (i!=k)   = phi_kk c_i phi_ik - (Phi C Phi)_ik
    d(phi_kj)/du_k (j!=k)   = (Phi C Phi)_kj - phi_kk c_j phi_kj

with C = diag(c).  Both forms are implemented independently and the test
suite drives their equality at machine tolerance; the flow itself uses the
equivalent directional form dPhi/dt = [W o Phi, Phi] along a straight
segment u(t) = u0 + t v, where (W)_ij = (v_i - v_j)/(u_i - u_j) and o is the
entrywise product (diagonal zero).  Both integrated right-hand sides are
evaluated entrywise, in forms free of cancellation between large products.

The flow preserves the diagonal of Phi and its spectrum; drift in either is
the integration-quality metric.  ``shrinking_check`` scales one coordinate
u_k radially out to infinity and tracks the real eigenvalue-difference band
of the upper 2x2 block, which contracts onto |Re sigma| of the boundary
value.  ``phi_from_omega`` is the bridge from a Painleve VI trajectory
residue matrix Omega(x) to Phi(u) at the matching u-configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import as_matrix, eigen2
from .errors import DomainError, SingularityError
from .ode_engine import integrate

__all__ = [
    "b_field",
    "b_field_commutator",
    "jmms_rhs",
    "jmms_rhs_commutator",
    "flow",
    "flow_path",
    "ShrinkReport",
    "shrinking_check",
    "phi_from_omega",
    "diag_drift",
    "spectral_drift",
]

#: absolute tolerance of every flow integration
_ATOL = 1e-14
#: step budget of one flow segment and of one shrinking-ray segment
_FLOW_MAX_STEPS = 500_000
_SHRINK_MAX_STEPS = 2_000_000
#: checkpoints of a shrinking ray, and the relative tolerance of its segments
_N_CHECKPOINTS = 15
_SHRINK_RTOL = 1e-12
#: two u-coordinates collide along a segment when their distance falls below
#: this times the pair's magnitude (at least 1)
_COLLISION_TOL = 1e-9


def _coerce(u, phi) -> tuple[np.ndarray, np.ndarray]:
    uu = np.asarray(u, dtype=complex)
    if uu.ndim != 1:
        raise DomainError("u must be a one-dimensional vector")
    m = as_matrix(phi, uu.shape[0])
    return uu, m


def _check_k(n: int, k: int) -> None:
    if not 0 <= k < n:
        raise DomainError(f"coordinate index {k} outside [0, {n})")


def b_field(u, phi, k: int) -> np.ndarray:
    """The deformation generator B_k: row k carries c_j phi_kj, column k carries c_i phi_ik."""
    uu, m = _coerce(u, phi)
    n = uu.shape[0]
    _check_k(n, k)
    b = np.zeros((n, n), dtype=complex)
    for i in range(n):
        if i == k:
            continue
        ci = 1.0 / (uu[k] - uu[i])
        b[k, i] = ci * m[k, i]
        b[i, k] = ci * m[i, k]
    return b


def b_field_commutator(u, phi, k: int) -> np.ndarray:
    """B_k as the nested commutator [D_k, [E_k, Phi]]."""
    uu, m = _coerce(u, phi)
    n = uu.shape[0]
    _check_k(n, k)
    d = np.zeros((n, n), dtype=complex)
    for b in range(n):
        if b != k:
            d[b, b] = 1.0 / (uu[b] - uu[k])
    e = np.zeros((n, n), dtype=complex)
    e[k, k] = 1.0
    inner = e @ m - m @ e
    return d @ inner - inner @ d


def jmms_rhs_commutator(u, phi, k: int) -> np.ndarray:
    """dPhi/du_k in the commutator form [B_k, Phi]."""
    uu, m = _coerce(u, phi)
    b = b_field(uu, m, k)
    return b @ m - m @ b


def jmms_rhs(u, phi, k: int) -> np.ndarray:
    """dPhi/du_k written out entrywise (independent of the commutator route)."""
    uu, m = _coerce(u, phi)
    n = uu.shape[0]
    _check_k(n, k)
    c = np.zeros(n, dtype=complex)
    for i in range(n):
        if i != k:
            c[i] = 1.0 / (uu[k] - uu[i])
    pcp = m @ np.diag(c) @ m
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == k and j == k:
                continue
            if i == k:
                out[k, j] = pcp[k, j] - m[k, k] * c[j] * m[k, j]
            elif j == k:
                out[i, k] = m[k, k] * c[i] * m[i, k] - pcp[i, k]
            else:
                out[i, j] = (c[i] - c[j]) * m[i, k] * m[k, j]
    return out


# --------------------------------------------------------------------------
# flow along straight segments in u-space


def _segment_collision_check(u0: np.ndarray, u1: np.ndarray, tol: float) -> None:
    """Reject segments along which two u-coordinates (nearly) collide.

    The threshold is relative to the magnitudes of the pair itself (their
    difference suffers catastrophic cancellation once it is small against
    them), not to the largest coordinate overall, so a far-out coordinate
    does not poison the check for the pairs that stay put.
    """
    n = u0.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            pair_scale = max(1.0, abs(u0[i]), abs(u0[j]), abs(u1[i]), abs(u1[j]))
            d0 = u0[i] - u0[j]
            dv = (u1[i] - u1[j]) - d0
            if abs(dv) < 1e-300:
                dist = abs(d0)
            else:
                t = -((d0 * dv.conjugate()).real) / (abs(dv) ** 2)
                t = min(max(t, 0.0), 1.0)
                dist = abs(d0 + t * dv)
            if dist < tol * pair_scale:
                raise DomainError(
                    f"u-coordinates {i} and {j} collide along the segment "
                    f"(minimal separation {dist:.3e})"
                )


def _flow_rhs(u0: np.ndarray, v: np.ndarray):
    """dPhi/dt = [W o Phi, Phi] along u(t) = u0 + t v, flattened.

    Entry (i, l) is sum_j phi_ij phi_jl (W_ij - W_jl).  W is bitwise
    symmetric (both its numerator and denominator flip sign exactly), so
    every term of a diagonal entry is exactly 0 and the flow keeps the
    diagonal of Phi to the last bit.
    """
    n = u0.shape[0]
    vdiff = v[:, None] - v[None, :]
    # the identity keeps the diagonal denominators at 1, where vdiff is 0
    udiff0 = (u0[:, None] - u0[None, :]) + np.eye(n)

    def rhs(t, state):
        m = state.reshape(n, n)
        w = vdiff / (udiff0 + t * vdiff)
        terms = (m[:, :, None] * m[None, :, :]) * (w[:, :, None] - w[None, :, :])
        return terms.sum(axis=1).ravel()

    return rhs


def flow(u_start, u_end, phi_start, *, rtol: float = 1e-12) -> np.ndarray:
    """Transport Phi along the straight segment from u_start to u_end.

    Uses the directional form dPhi/dt = [W o Phi, Phi] with
    W_ij = (v_i - v_j)/(u_i(t) - u_j(t)).
    """
    u0, m0 = _coerce(u_start, phi_start)
    u1 = np.asarray(u_end, dtype=complex)
    if u1.shape != u0.shape:
        raise DomainError("u_end must have the same length as u_start")
    _segment_collision_check(u0, u1, _COLLISION_TOL)
    v = u1 - u0
    if np.max(np.abs(v)) == 0.0:
        return m0.copy()
    rhs = _flow_rhs(u0, v)
    sol = integrate(rhs, 0.0, 1.0, m0.ravel(), rtol=rtol, atol=_ATOL,
                    max_steps=_FLOW_MAX_STEPS)
    return sol.y_end.reshape(m0.shape)


def flow_path(points, phi_start, *, rtol: float = 1e-12) -> np.ndarray:
    """Transport Phi along the polygonal u-space path through ``points``; return the final Phi."""
    pts = [np.asarray(p, dtype=complex) for p in points]
    if len(pts) < 2:
        raise DomainError("a flow path needs at least two u-configurations")
    phi = as_matrix(phi_start, pts[0].shape[0]).copy()
    for a, b in zip(pts[:-1], pts[1:]):
        phi = flow(a, b, phi, rtol=rtol)
    return phi


# --------------------------------------------------------------------------
# diagnostics and the Painleve bridge


def diag_drift(phi_a, phi_b) -> float:
    """Max absolute change of the diagonal (conserved by the flow)."""
    a = np.asarray(phi_a, dtype=complex)
    b = np.asarray(phi_b, dtype=complex)
    return float(np.max(np.abs(np.diag(a) - np.diag(b))))


def spectral_drift(phi_a, phi_b) -> float:
    """Max absolute change of the ordered spectrum (conserved by the flow)."""
    va = sorted(np.linalg.eigvals(np.asarray(phi_a, dtype=complex)),
                key=lambda z: (-z.real, -z.imag))
    vb = sorted(np.linalg.eigvals(np.asarray(phi_b, dtype=complex)),
                key=lambda z: (-z.real, -z.imag))
    return float(max(abs(x - y) for x, y in zip(va, vb)))


@dataclass
class ShrinkReport:
    """Band contraction along a ray that carries one u-coordinate outward."""

    factors: list[float]
    bands: list[float]
    u_final: np.ndarray
    phi_final: np.ndarray
    nfev: int  # summed over the segment integrations
    naccept: int
    nreject: int


def _band(phi: np.ndarray) -> float:
    """Largest |Re(lambda_i - lambda_j)| over the upper-left (n-1) block."""
    block = np.asarray(phi, dtype=complex)[:-1, :-1]
    if block.shape == (2, 2):
        return abs(eigen2(block).sigma.real)
    lam = np.linalg.eigvals(block)
    return float(max(abs((a - b).real) for a in lam for b in lam))


def _shrink_rhs(uu: np.ndarray, k: int, delta: np.ndarray):
    """dPsi/dtau of ``shrinking_check``'s co-moving gauge, flattened.

    u_k = e^tau u_k(0); the gauge term is (delta_i - delta_j) psi_ij, and
    u_k [B_k, Psi] is taken in the entrywise form of the module docstring.
    Off row and column k, [B_k, Psi] is (u_i - u_j) c_i c_j psi_ik psi_kj, by
    c_i - c_j = (u_i - u_j) c_i c_j, so the two large products c_i psi psi
    and c_j psi psi never cancel.
    """
    n = uu.shape[0]
    uk0 = complex(uu[k])
    gauge = delta[:, None] - delta[None, :]
    udiff = uu[:, None] - uu[None, :]

    def rhs(tau, state):
        psi = state.reshape(n, n)
        uk = uk0 * math.exp(tau)
        # c_i = 1/(u_k - u_i), c_k = 0
        den = uk - uu
        den[k] = 1.0
        c = 1.0 / den
        c[k] = 0.0
        c_col = c * psi[:, k]
        c_row = c * psi[k]
        comm = udiff * (c_col[:, None] * c_row[None, :])
        comm[:, k] = psi[k, k] * c_col - psi @ c_col
        comm[k] = c_row @ psi - psi[k, k] * c_row
        comm[k, k] = 0.0
        return (gauge * psi + uk * comm).ravel()

    return rhs


def shrinking_check(u0, phi0, *, reach: float = 1e8) -> ShrinkReport:
    """Scale the last u-coordinate out radially and record the block band.

    The band -- the largest |Re(lambda_i - lambda_j)| over the upper-left
    (n-1) x (n-1) block -- contracts onto the invariant |Re sigma| of the
    boundary value as the separation grows.  u_k runs through c u_k(0) for
    c from 1 to ``reach``, with ``_N_CHECKPOINTS`` checkpoints at
    log-uniform c.

    The integration runs in the co-moving gauge Psi = c^dPhi Phi c^-dPhi
    with dPhi the (conserved) diagonal: the raw Phi entries grow like
    algebraic powers of the separation, which makes the commutator right
    side cancel catastrophically at large reach, while Psi stays bounded.
    The band and the diagonal are gauge-invariant, and the final Phi is
    reconstructed by undoing the (diagonal) gauge.

    The integration variable is tau = log c.  The gauge term is then the
    constant (delta_i - delta_j) psi_ij and the corrections decay like
    powers of 1/c, so the right-hand side is nearly constant per e-fold of
    the reach.  A ``SingularityError`` reports its location as s = c - 1.
    """
    uu, m = _coerce(u0, phi0)
    n = uu.shape[0]
    k = n - 1
    if abs(uu[k]) < 1e-12:
        raise DomainError("ray coordinate must be nonzero to scale it outward")
    if reach <= 1.0:
        raise DomainError("reach must exceed 1")

    factors = list(np.logspace(0.0, np.log10(reach), _N_CHECKPOINTS))
    taus = [math.log(c) for c in factors]
    delta = np.diag(m).copy()

    def u_of(c: float) -> np.ndarray:
        u = uu.copy()
        u[k] = c * uu[k]
        return u

    rhs = _shrink_rhs(uu, k, delta)
    psi = m.copy()
    bands = [_band(psi)]
    nfev = naccept = nreject = 0
    for i in range(_N_CHECKPOINTS - 1):
        _segment_collision_check(u_of(factors[i]), u_of(factors[i + 1]), _COLLISION_TOL)
        try:
            sol = integrate(rhs, taus[i], taus[i + 1], psi.ravel(), rtol=_SHRINK_RTOL,
                            atol=_ATOL, max_steps=_SHRINK_MAX_STEPS)
        except SingularityError as exc:
            s_pole = math.expm1(exc.location)
            raise SingularityError(f"{exc} in tau = log c, at s = {s_pole:.6e}",
                                   location=s_pole) from exc
        psi = sol.y_end.reshape(n, n)
        bands.append(_band(psi))
        nfev += sol.nfev
        naccept += sol.naccept
        nreject += sol.nreject
    # undo the gauge: Phi_ij = Psi_ij * c^(delta_j - delta_i)
    phi_final = psi * np.exp(taus[-1] * (delta[None, :] - delta[:, None]))
    return ShrinkReport(factors=factors, bands=bands, u_final=u_of(factors[-1]),
                        phi_final=phi_final, nfev=nfev, naccept=naccept,
                        nreject=nreject)


def phi_from_omega(omega, thetas, scale: complex) -> np.ndarray:
    """Bridge Omega(x) -> Phi(u) = scale^{-dPhi} Omega scale^{dPhi}.

    dPhi = diag(-theta_1..3), and the power takes the principal logarithm of
    ``scale`` (another sheet would scale entries by e^{2 pi i theta} factors).
    """
    om = as_matrix(omega, 3)
    log_s = cmath.log(complex(scale))
    t = np.array([complex(th) for th in thetas[:3]], dtype=complex)
    # (scale^{-dPhi})_ii = exp(log_s * theta_i)
    e = np.exp(log_s * t)
    return (e[:, None] * om) / e[None, :]
