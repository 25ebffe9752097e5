"""Closed-form maps between the four coordinate systems of the correspondence.

Data flows through four descriptions of the same monodromy object:

* ``PviAsymptoticData`` -- the asymptotic data (theta, sigma, J) of a
  Painleve VI transcendent at x = 0, with y(x) ~ J x^(1-sigma);
* ``BoundaryValue`` -- the regularised boundary value Phi0 of the
  isomonodromic flow, a 3x3 matrix with diagonal (-theta1, -theta2, -theta3);
* ``StokesPair`` -- the Stokes matrices (S+, S-) of the rank-one irregular
  system dF/dz = (U + Phi/z) F attached to the flow;
* ``MonodromyData`` -- trace coordinates p_ij, p_k of the monodromy
  representation, which satisfy the Fricke-type cubic relation.

The maps:

* ``arrow_q``:       (theta, sigma, J)    -> Phi0          (explicit entries)
* ``arrow_q_sigma0``: logarithmic variant at sigma = 0
* ``arrow_q_inverse``: Phi0 -> (theta, sigma, J)
* ``arrow_g``:       Phi0 -> (S+, S-)     (Gamma-product formulas)
* ``arrow_g_direct``: (theta, sigma, J) with gauge (k1, k2) -> (S+, S-)
* ``arrow_p``:       (S+, S-) -> trace coordinates
* ``arrow_f``:       trace coordinates -> (sigma, J)  (the asymptotic
                      reconstruction formula, inverse to the composition)

``arrow_f(arrow_p(arrow_g(arrow_q(d))))`` is the identity on (sigma, J);
the acceptance suite drives that identity over a deterministic sample sweep.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import pi

import numpy as np

from .core_linalg import _eigen2, _eigen3, _minor, as_matrix
from .errors import DisambiguationError, DomainError, GammaPoleError
from .special_fn import gamma_c, gamma_hat

__all__ = [
    "PviAsymptoticData",
    "BoundaryValue",
    "StokesPair",
    "MonodromyData",
    "genericity_margin",
    "validate_generic",
    "arrow_q",
    "arrow_q_sigma0",
    "arrow_q_inverse",
    "arrow_g",
    "arrow_g_direct",
    "arrow_p",
    "arrow_f",
    "p23_p13_closed_form",
    "trace_identity_residual",
    "cubic_residual",
]

#: Hard-error distance for Gamma poles / integer genericity checks.
GENERICITY_TOL = 1e-9
#: Relative tolerance of arrow_p's triangularity and diagonal-law checks.
_SHAPE_TOL = 1e-6


@dataclass(frozen=True)
class PviAsymptoticData:
    """Asymptotic data (theta1, theta2, theta3, theta_inf; sigma; J).

    ``sigma`` is normalised to the strip 0 <= Re(sigma) < 1; ``J`` is the
    coefficient of the leading power x^(1-sigma).  (In the logarithmic
    regime sigma = 0 the field ``J`` carries the shift parameter of the
    log-squared seed instead; see ``arrow_q_sigma0``.)
    """

    theta1: complex
    theta2: complex
    theta3: complex
    theta_inf: complex
    sigma: complex
    J: complex

    @property
    def thetas(self) -> tuple[complex, complex, complex, complex]:
        return (self.theta1, self.theta2, self.theta3, self.theta_inf)


@dataclass(frozen=True)
class BoundaryValue:
    """Boundary value Phi0 of the flow together with its diagonal gauge (k1, k2).

    The gauge records which representative of the diagonal-conjugation orbit
    the matrix is: ``phi0`` equals the k1 = k2 = 1 representative conjugated
    by diag(k1, k2, 1).
    """

    phi0: np.ndarray
    k1: complex = 1.0
    k2: complex = 1.0


@dataclass(frozen=True)
class StokesPair:
    """Stokes matrices: ``s_plus`` upper triangular, ``s_minus`` lower triangular."""

    s_plus: np.ndarray
    s_minus: np.ndarray


@dataclass(frozen=True)
class MonodromyData:
    """Trace coordinates: p_ij = tr(M_i M_j), p_k = tr(M_k) = 2 cos(pi theta_k)."""

    p12: complex
    p13: complex
    p23: complex
    p1: complex
    p2: complex
    p3: complex
    p_inf: complex


# --------------------------------------------------------------------------
# genericity


#: Message templates of the eight even-integer combinations, in table order:
#: for each sign pair (e1, e2), theta1 + e1 theta2 + e2 sigma, then
#: theta_inf + e1 theta3 + e2 sigma.
_EVEN_LOCI = [
    (e1, e2,
     f"theta1 {'+-'[e1 < 0]} theta2 {'+-'[e2 < 0]} sigma = {{}} is an even integer",
     f"theta_inf {'+-'[e1 < 0]} theta3 {'+-'[e2 < 0]} sigma = {{}} is an even integer")
    for e1 in (1, -1) for e2 in (1, -1)
]

#: Table rows that ``arrow_f`` checks on its reconstructed sigma: Re sigma = 1,
#: sigma = 0, the four theta integers and the eight even combinations.  J is
#: its output, and Re sigma = 0 is the branch it picks on the strip boundary.
_ARROW_F_LOCI = (1, 2, 4, 5, 6, 7, *range(10, 18))


def _loci(t1: complex, t2: complex, t3: complex, ti: complex, s: complex,
          J: complex) -> list[tuple[float, str, object]]:
    """Every excluded locus of the generic domain as (distance, template, value).

    The message of a locus is ``template.format(value)``; it is built only for
    the loci a caller reports.  The two loci theta_inf = +/-(theta1 + theta2 +
    theta3) share one row and one message, at the smaller distance.
    """
    t123 = t1 + t2 + t3
    loci = [
        (s.real, "Re(sigma) = {} is not in (0, 1)", s.real),
        (1.0 - s.real, "Re(sigma) = {} is not below 1", s.real),
        (abs(s), "sigma = 0 (use the logarithmic variant)", None),
        (abs(J), "J = 0", None),
        (abs(t1 - round(t1.real)), "theta1 = {} is an integer", t1),
        (abs(t2 - round(t2.real)), "theta2 = {} is an integer", t2),
        (abs(t3 - round(t3.real)), "theta3 = {} is an integer", t3),
        (abs(ti - round(ti.real)), "theta_inf = {} is an integer", ti),
        (abs(ti), "theta_inf = 0", None),
        (min(abs(ti - t123), abs(ti + t123)),
         "theta_inf = +/-(theta1 + theta2 + theta3)", None),
    ]
    for e1, e2, m12, minf in _EVEN_LOCI:
        x = t1 + e1 * t2 + e2 * s
        loci.append((abs(x - 2 * round(x.real / 2)), m12, x))
        x = ti + e1 * t3 + e2 * s
        loci.append((abs(x - 2 * round(x.real / 2)), minf, x))
    return loci


def genericity_margin(d: PviAsymptoticData) -> float:
    """Smallest distance to any excluded locus of the generic parameter domain.

    The loci: sigma on the strip boundary (Re sigma in {0, 1}) or sigma = 0;
    J = 0; any theta an integer; any of the eight combinations
    theta1 +/- theta2 +/- sigma, theta_inf +/- theta3 +/- sigma an even
    integer; theta_inf = 0 or theta_inf = +/-(theta1+theta2+theta3).  Each
    is one row of ``_loci``, and the margin is the smallest row distance.
    """
    return float(min([row[0] for row in
                      _loci(d.theta1, d.theta2, d.theta3, d.theta_inf, d.sigma, d.J)]))


def validate_generic(d: PviAsymptoticData, tol: float = GENERICITY_TOL) -> list[str]:
    """List of genericity conditions violated within ``tol`` (empty when generic).

    A condition is violated when its locus is closer than ``tol``, so the list
    is empty exactly when ``genericity_margin(d) >= tol``.
    """
    return [template.format(value) for dist, template, value in
            _loci(d.theta1, d.theta2, d.theta3, d.theta_inf, d.sigma, d.J)
            if dist < tol]


def _require_generic(d: PviAsymptoticData, tol: float = GENERICITY_TOL) -> None:
    bad = validate_generic(d, tol)
    if bad:
        raise DomainError("parameters are non-generic: " + "; ".join(bad))


# --------------------------------------------------------------------------
# arrow_q and relatives


def arrow_q(d: PviAsymptoticData) -> BoundaryValue:
    """Boundary value Phi0 from the asymptotic data (generic sigma != 0 branch).

    The diagonal is (-theta1, -theta2, -theta3); the upper 2x2 block encodes
    sigma through its eigenvalue difference; the third row and column carry
    the J-dependence.  Gauge normalisation: k1 = k2 = 1.
    """
    _require_generic(d)
    t1, t2, t3, ti = d.theta1, d.theta2, d.theta3, d.theta_inf
    s, J = d.sigma, d.J
    s2 = s * s
    e12 = (t1 - t2 - s) / 2
    e21 = (-t1 + t2 - s) / 2
    e13 = (-t3 - ti + s) / 2 - (t1 - t2 - s) * (t1 + t2 - s) * (t3 + ti + s) / (8 * s2 * J)
    e23 = (-t3 - ti + s) / 2 - (t1 - t2 + s) * (t1 + t2 - s) * (t3 + ti + s) / (8 * s2 * J)
    e31 = (J / 2) * (t3 - ti + s) - (-t1 + t2 - s) * (t1 + t2 + s) * (t3 - ti - s) / (8 * s2)
    e32 = (J / 2) * (-t3 + ti - s) - (t1 - t2 - s) * (t1 + t2 + s) * (t3 - ti - s) / (8 * s2)
    phi0 = np.array(
        [[-t1, e12, e13],
         [e21, -t2, e23],
         [e31, e32, -t3]],
        dtype=complex,
    )
    return BoundaryValue(phi0, 1.0, 1.0)


def arrow_q_sigma0(
    thetas: tuple[complex, complex, complex, complex], j_tilde: complex
) -> BoundaryValue:
    """Boundary value in the logarithmic regime sigma = 0.

    ``j_tilde`` is the shift parameter of the log-squared seed
    y ~ x [ (theta2^2-theta1^2)/4 (log x + 2 j_tilde/(theta1^2-theta2^2))^2
            + theta1^2/(theta1^2-theta2^2) ].
    Requires theta1 != +/- theta2.
    """
    t1, t2, t3, ti = (complex(t) for t in thetas)
    dsq = t1 * t1 - t2 * t2
    if abs(t1 - t2) < GENERICITY_TOL or abs(t1 + t2) < GENERICITY_TOL:
        raise DomainError("arrow_q_sigma0 requires theta1 != +/- theta2")
    jt = complex(j_tilde)
    phi0 = np.array(
        [
            [-t1, (t1 - t2) / 2, 1 + (t3 + ti) * (jt - t1) / dsq],
            [(-t1 + t2) / 2, -t2, 1 + (t3 + ti) * (jt + t2) / dsq],
            [
                (t3 - ti) / 4 * (jt + t1) - dsq / 4,
                (t3 - ti) / 4 * (t2 - jt) + dsq / 4,
                -t3,
            ],
        ],
        dtype=complex,
    )
    return BoundaryValue(phi0, 1.0, 1.0)


def _phi_matrix(b: BoundaryValue | np.ndarray) -> np.ndarray:
    if isinstance(b, BoundaryValue):
        return as_matrix(b.phi0, 3)
    return as_matrix(b, 3)


def _invariant_functionals(m: np.ndarray) -> np.ndarray:
    """Diagonal-gauge invariants separating the theta_inf sign candidates."""
    return np.array(
        [
            m[0, 1] * m[1, 0],
            m[0, 2] * m[2, 0],
            m[1, 2] * m[2, 1],
            m[0, 1] * m[1, 2] * m[2, 0],
        ],
        dtype=complex,
    )


def arrow_q_inverse(b: BoundaryValue | np.ndarray) -> PviAsymptoticData:
    """Asymptotic data from a boundary-value matrix.

    theta_i = -phi_ii; sigma is the ordered eigenvalue difference of the
    upper 2x2 block; theta_inf is recovered up to sign from the sum of the
    off-diagonal pair products, and J follows from the linear relation with
    the remaining cubic invariant.  The sign ambiguity is intrinsic -- the
    two candidates (theta_inf, J) and (-theta_inf, J * rho) reproduce the
    same diagonal-gauge orbit -- so the principal-root representative with
    Re theta_inf >= 0 is returned.  Candidates are still validated by
    rebuilding the matrix and matching its gauge invariants against the
    input, to 1e-8 of their scale; a corrupt matrix that matches neither
    sign raises ``DisambiguationError``.

    The output is independent of the diagonal gauge of the input.
    """
    m = _phi_matrix(b)
    t1, t2, t3 = -m[0, 0], -m[1, 1], -m[2, 2]
    pair = _eigen2(m[:2, :2])
    if pair.degenerate:
        raise DomainError(
            "arrow_q_inverse: upper 2x2 block has sigma ~ 0; the power-law "
            "asymptotic data is not defined (logarithmic regime)"
        )
    s = pair.sigma
    ti_sq = (
        4 * (m[0, 1] * m[1, 0] + m[1, 2] * m[2, 1] + m[2, 0] * m[0, 2])
        + t1 * t1 + t2 * t2 + t3 * t3
        - 2 * (t1 * t2 + t2 * t3 + t1 * t3)
    )
    ti_root = cmath.sqrt(ti_sq)
    if abs(ti_root) < GENERICITY_TOL:
        raise DomainError("arrow_q_inverse: theta_inf = 0 is outside the generic domain")
    rhs = (
        (m[0, 2] * m[2, 0] - m[2, 1] * m[1, 2])
        + (m[1, 1] - m[0, 0]) * (2 * m[2, 2] - m[0, 0] - m[1, 1]) / 4
        + (2 / s) * (m[0, 2] * m[2, 1] * m[1, 0] - m[1, 2] * m[2, 0] * m[0, 1])
        + (t1 * t1 - t2 * t2) * (t3 * t3 - ti_sq) / (4 * s * s)
    )
    target = _invariant_functionals(m)
    scale = max(1.0, float(np.max(np.abs(target))))
    matches: list[tuple[complex, complex]] = []
    for ti in (ti_root, -ti_root):
        den = (ti + t3 - s) * (ti - t3 - s)
        if abs(den) < GENERICITY_TOL:
            continue
        J = rhs / den
        try:
            rebuilt = arrow_q(PviAsymptoticData(t1, t2, t3, ti, s, J)).phi0
        except DomainError:
            continue
        err = float(np.max(np.abs(_invariant_functionals(rebuilt) - target)))
        if err < 1e-8 * scale:
            matches.append((ti, J))
    if not matches:
        raise DisambiguationError(
            "arrow_q_inverse: neither sign of theta_inf reproduces the input invariants"
        )
    # The data-to-gauge-class map is two-to-one: (theta_inf, J) and
    # (-theta_inf, J * rho) with rho = ((theta_inf-sigma)^2 - theta3^2) /
    # ((theta_inf+sigma)^2 - theta3^2) produce the same orbit, so generically
    # both signs match and we return the principal-root representative
    # (Re theta_inf >= 0, with Im theta_inf >= 0 on the boundary).
    ti, J = matches[0]
    return PviAsymptoticData(t1, t2, t3, ti, s, J)


# --------------------------------------------------------------------------
# arrow_g: Gamma-product closed form for the Stokes matrices


def _gamma(z: complex, what: str) -> complex:
    try:
        return gamma_c(z, pole_tol=GENERICITY_TOL)
    except GammaPoleError as exc:
        raise GammaPoleError(
            f"{what}: Gamma argument {z} within {GENERICITY_TOL} of pole "
            f"{exc.nearest_pole}",
            nearest_pole=exc.nearest_pole,
        ) from exc


def _block_spectra(phi: np.ndarray) -> list[list[complex]]:
    """Ordered eigenvalue lists of the leading k x k blocks, k = 1, 2, 3."""
    p = _eigen2(phi[:2, :2])
    return [[complex(phi[0, 0])], [p.lambda1, p.lambda2], list(_eigen3(phi))]


def _stokes_entry(m: np.ndarray, sp: list[list[complex]], k: int, lower: bool) -> complex:
    """(S+)_{k,k+1}, or (S-)_{k+1,k} when ``lower``, for k = 1, 2 (1-based).

    One Gamma-product term per eigenvalue li of the leading k x k block.  S+
    takes the minor of li*Id - Phi0 on rows 1..k and columns 1..k-1,k+1; S-
    reverses every eigenvalue difference and takes the transposed minor of
    Phi0 - li*Id.
    """
    lam_k = sp[k - 1]
    others = sp[k] + (sp[k - 2] if k >= 2 else [])
    near = tuple(range(k))
    far = tuple(range(k - 1)) + (k,)
    eye = np.eye(3, dtype=complex)
    if lower:
        pref = -2j * pi * cmath.exp(-1j * pi * m[k, k])
    else:
        pref = 2j * pi * cmath.exp(-1j * pi * m[k - 1, k - 1])
    total = 0.0 + 0.0j
    for i, li in enumerate(lam_k):
        num = 1.0 + 0.0j
        den = 1.0 + 0.0j
        for l, ll in enumerate(lam_k):
            if l != i:
                a, b = (ll, li) if lower else (li, ll)
                num *= _gamma(1 + a - b, "arrow_g")
                num *= _gamma(a - b, "arrow_g")
        for ll in others:
            a, b = (ll, li) if lower else (li, ll)
            den *= _gamma(1 + a - b, "arrow_g")
        if lower:
            mnr = _minor(m - li * eye, far, near)
        else:
            mnr = _minor(li * eye - m, near, far)
        total += num / den * mnr
    return pref * total


def _corner_entries(m: np.ndarray, sp: list[list[complex]]) -> tuple[complex, complex]:
    """The (1,3) entry of S+ and the (3,1) entry of S- for n = 3."""
    lam11 = sp[0][0]
    l1, l2 = sp[1]
    ms = sp[2]
    phi33 = m[2, 2]
    scale = max(1.0, abs(l1), abs(l2))

    s_plus_13 = 0.0 + 0.0j
    s_minus_31 = 0.0 + 0.0j
    for li, lo in ((l1, l2), (l2, l1)):
        if abs(lam11 - li) < 1e-12 * scale:
            raise DomainError(
                "arrow_g: phi_11 coincides with an eigenvalue of the upper 2x2 "
                "block (the off-diagonal product phi_12 phi_21 vanishes)"
            )
        gnum = _gamma(1 + li - lo, "arrow_g corner") * _gamma(li - lo, "arrow_g corner")
        gden = _gamma(1 + lam11 - lo, "arrow_g corner")
        for mm in ms:
            gden *= _gamma(1 + li - mm, "arrow_g corner")
        mnr = _minor(m - li * np.eye(3, dtype=complex), (0, 1), (0, 2))
        s_plus_13 += (
            -2j * pi * cmath.exp(-1j * pi * li)
            * gnum / gden
            * m[0, 1] * mnr / (lam11 - li)
        )

        gnum_m = _gamma(1 + lo - li, "arrow_g corner") * _gamma(lo - li, "arrow_g corner")
        gden_m = _gamma(1 + lo - lam11, "arrow_g corner")
        for mm in ms:
            gden_m *= _gamma(1 + mm - li, "arrow_g corner")
        mnr_m = _minor(m - li * np.eye(3, dtype=complex), (0, 2), (0, 1))
        s_minus_31 += (
            2j * pi * cmath.exp(1j * pi * (lam11 - li - phi33))
            * gnum_m / gden_m
            * m[1, 0] * mnr_m / (lam11 - li)
        )
    return s_plus_13, s_minus_31


def arrow_g(b: BoundaryValue | np.ndarray) -> StokesPair:
    """Stokes matrices of the irregular system attached to the boundary value.

    The entries are the Gamma-product expressions in the eigenvalues of the
    leading blocks of Phi0.  Requires |Re(lambda1 - lambda2)| < 1 for the
    upper 2x2 block and non-resonant Gamma arguments throughout.
    """
    m = _phi_matrix(b)
    sp = _block_spectra(m)
    if abs((sp[1][0] - sp[1][1]).real) >= 1.0:
        raise DomainError(
            "arrow_g: Re of the upper-block eigenvalue difference must lie in (-1, 1), "
            f"got {(sp[1][0] - sp[1][1]).real}"
        )
    diag = np.exp(-1j * pi * np.diag(m))
    s_plus = np.diag(diag)
    s_minus = np.diag(diag)
    s_plus[0, 1] = _stokes_entry(m, sp, 1, lower=False)
    s_plus[1, 2] = _stokes_entry(m, sp, 2, lower=False)
    s_minus[1, 0] = _stokes_entry(m, sp, 1, lower=True)
    s_minus[2, 1] = _stokes_entry(m, sp, 2, lower=True)
    c13, c31 = _corner_entries(m, sp)
    s_plus[0, 2] = c13
    s_minus[2, 0] = c31
    return StokesPair(s_plus, s_minus)


def _lower_inverse(s_minus: np.ndarray) -> np.ndarray:
    """Exact inverse of a 3x3 lower-triangular matrix."""
    d1, d2, d3 = s_minus[0, 0], s_minus[1, 1], s_minus[2, 2]
    a, b, c = s_minus[1, 0], s_minus[2, 0], s_minus[2, 1]
    if d1 == 0 or d2 == 0 or d3 == 0:
        raise DomainError("singular lower-triangular matrix")
    w = np.zeros((3, 3), dtype=complex)
    w[0, 0] = 1 / d1
    w[1, 1] = 1 / d2
    w[2, 2] = 1 / d3
    w[1, 0] = -a / (d1 * d2)
    w[2, 1] = -c / (d2 * d3)
    w[2, 0] = (a * c - b * d2) / (d1 * d2 * d3)
    return w


def arrow_g_direct(d: PviAsymptoticData, k1: complex = 1.0, k2: complex = 1.0) -> StokesPair:
    """Stokes matrices directly from the asymptotic data, in gauge (k1, k2).

    The (1,2), (2,3) entries of S+ and the (2,1), (3,2) entries of S-^{-1}
    use the explicit Gamma-product expressions in (theta, sigma, J); the two
    corner entries are implementation-defined and obtained by conjugating
    the ``arrow_g(arrow_q(d))`` corners by diag(k1, k2, 1).
    """
    b = arrow_q(d)
    t1, t2, t3, ti = d.theta1, d.theta2, d.theta3, d.theta_inf
    s, J = d.sigma, d.J
    k1 = complex(k1)
    k2 = complex(k2)
    if k1 == 0 or k2 == 0:
        raise DomainError("arrow_g_direct: gauge constants must be nonzero")
    g = lambda z: _gamma(z, "arrow_g_direct")  # noqa: E731 - local shorthand

    e_p = [cmath.exp(1j * pi * t) for t in (t1, t2, t3)]
    e_m = [cmath.exp(-1j * pi * t) for t in (t1, t2, t3)]

    sp12 = -(k1 / k2) * 2j * pi * e_p[0] * (t1 - t2 - s) / (
        2 * g(1 + (t2 - t1 + s) / 2) * g(1 + (t2 - t1 - s) / 2)
    )
    w21 = -(k2 / k1) * 2j * pi * e_m[0] * (t1 - t2 + s) / (
        2 * g(1 - (t2 - t1 + s) / 2) * g(1 - (t2 - t1 - s) / 2)
    )

    g1m = g(1 - s) ** 2
    g1p = g(s) ** 2
    sp23_1 = g1m * (t3 + ti - s) / (
        2 * g(1 - (t1 + t2 + s) / 2) * g(1 + (t1 - t2 - s) / 2)
        * g(1 + (t3 + ti - s) / 2) * g(1 + (t3 - ti - s) / 2)
    )
    sp23_2 = g1p * (t1 - t2 + s) * (t1 + t2 - s) * (t3 + ti + s) / (
        8 * J
        * g(1 - (t1 + t2 - s) / 2) * g(1 + (t1 - t2 + s) / 2)
        * g(1 + (t3 + ti + s) / 2) * g(1 + (t3 - ti + s) / 2)
    )
    sp23 = k2 * 2j * pi * e_p[1] * (sp23_1 + sp23_2)

    w32_1 = g1p * (t2 - t1 + s) * (t1 + t2 + s) * (t3 - ti - s) / (
        8
        * g(1 + (t1 + t2 + s) / 2) * g(1 - (t1 - t2 - s) / 2)
        * g(1 - (t3 + ti - s) / 2) * g(1 - (t3 - ti - s) / 2)
    )
    w32_2 = J * g1m * (-t3 + ti - s) / (
        2
        * g(1 + (t1 + t2 - s) / 2) * g(1 - (t1 - t2 + s) / 2)
        * g(1 - (t3 + ti + s) / 2) * g(1 - (t3 - ti + s) / 2)
    )
    w32 = (1 / k2) * 2j * pi * e_m[1] * (w32_1 + w32_2)

    # corner entries via the composed map, transported to the (k1, k2) gauge
    ref = arrow_g(b)
    sp13 = k1 * ref.s_plus[0, 2]
    w_ref = _lower_inverse(ref.s_minus)
    w31 = (1 / k1) * w_ref[2, 0]

    s_plus = np.diag(np.array(e_p, dtype=complex))
    s_plus[0, 1] = sp12
    s_plus[1, 2] = sp23
    s_plus[0, 2] = sp13
    w = np.diag(np.array(e_m, dtype=complex))
    w[1, 0] = w21
    w[2, 1] = w32
    w[2, 0] = w31
    # S- is the inverse of the assembled W = S-^{-1} (also lower triangular)
    s_minus = _lower_inverse(w)
    return StokesPair(s_plus, s_minus)


# --------------------------------------------------------------------------
# arrow_p: Stokes -> trace coordinates


def _check_stokes_shape(sp: np.ndarray, sm: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(sp))), float(np.max(np.abs(sm))))
    lower = max(abs(sp[1, 0]), abs(sp[2, 0]), abs(sp[2, 1]))
    upper = max(abs(sm[0, 1]), abs(sm[0, 2]), abs(sm[1, 2]))
    if max(lower, upper) > _SHAPE_TOL * scale:
        raise DomainError(
            f"arrow_p: Stokes pair is not triangular (residual {max(lower, upper):.3e})"
        )


def arrow_p(s: StokesPair, thetas: tuple[complex, complex, complex, complex]) -> MonodromyData:
    """Trace coordinates from a Stokes pair.

    p_ij = 2 cos(pi (theta_i - theta_j)) - (S+)_ij (S-^{-1})_ji for i < j,
    p_k = 2 cos(pi theta_k), p_inf = 2 cos(pi theta_inf).  The diagonal law
    (S+-)_kk = exp(i pi theta_k) is validated against ``thetas``.
    """
    sp = as_matrix(s.s_plus, 3)
    sm = as_matrix(s.s_minus, 3)
    _check_stokes_shape(sp, sm)
    t1, t2, t3, ti = (complex(t) for t in thetas)
    for k, t in enumerate((t1, t2, t3)):
        want = cmath.exp(1j * pi * t)
        for name, mat in (("S+", sp), ("S-", sm)):
            if abs(mat[k, k] - want) > _SHAPE_TOL * max(1.0, abs(want)):
                raise DomainError(
                    f"arrow_p: diagonal law violated at {name}[{k},{k}] = {mat[k, k]}, "
                    f"expected exp(i pi theta_{k + 1}) = {want}"
                )
    w = _lower_inverse(sm)
    p12 = 2 * cmath.cos(pi * (t1 - t2)) - sp[0, 1] * w[1, 0]
    p13 = 2 * cmath.cos(pi * (t1 - t3)) - sp[0, 2] * w[2, 0]
    p23 = 2 * cmath.cos(pi * (t2 - t3)) - sp[1, 2] * w[2, 1]
    return MonodromyData(
        p12=p12,
        p13=p13,
        p23=p23,
        p1=2 * cmath.cos(pi * t1),
        p2=2 * cmath.cos(pi * t2),
        p3=2 * cmath.cos(pi * t3),
        p_inf=2 * cmath.cos(pi * ti),
    )


# --------------------------------------------------------------------------
# arrow_f: trace coordinates -> (sigma, J)


def _c_factor(
    thetas: tuple[complex, complex, complex, complex], s: complex
) -> complex:
    """The Gamma-ratio factor of the asymptotic reconstruction formula."""
    t1, t2, t3, ti = thetas
    gh = lambda x: gamma_hat(x, pole_tol=GENERICITY_TOL)  # noqa: E731
    num = (
        _gamma(1 - s, "c_factor") ** 2
        * gh(t1 + t2 + s) * gh(-t1 + t2 + s) * gh(ti + t3 + s) * gh(-ti + t3 + s)
    )
    den = (
        _gamma(1 + s, "c_factor") ** 2
        * gh(t1 + t2 - s) * gh(-t1 + t2 - s) * gh(ti + t3 - s) * gh(-ti + t3 - s)
    )
    return num / den


def _l_factor(
    thetas: tuple[complex, complex, complex, complex], s: complex
) -> complex:
    t1, t2, t3, ti = thetas
    num = 4 * s * s * (ti + t3 - s) * _c_factor(thetas, s)
    den = (t1 + t2 + s) * (-t1 + t2 + s) * (ti + t3 + s)
    if abs(den) < GENERICITY_TOL:
        raise DomainError("leading-coefficient factor: denominator vanishes")
    return num / den


def _d_factor(
    thetas: tuple[complex, complex, complex, complex], s: complex
) -> complex:
    t1, t2, t3, ti = thetas
    return (
        4
        * cmath.sin(pi * (t1 + t2 - s) / 2)
        * cmath.sin(pi * (t1 - t2 + s) / 2)
        * cmath.sin(pi * (ti + t3 - s) / 2)
        * cmath.sin(pi * (ti - t3 + s) / 2)
    )


def _ab_terms(
    thetas: tuple[complex, complex, complex, complex],
    s: complex,
    p23: complex,
    p13: complex,
) -> tuple[complex, complex]:
    t1, t2, t3, ti = thetas
    c1, c2, c3, ci = (cmath.cos(pi * t) for t in (t1, t2, t3, ti))
    sin_s = cmath.sin(pi * s)
    a = cmath.exp(1j * pi * s) * (
        1j * sin_s * (p23 / 2) - c2 * ci - c1 * c3
    )
    b = 1j * sin_s * (p13 / 2) + c2 * c3 + ci * c1
    return a, b


def arrow_f(
    m: MonodromyData, thetas: tuple[complex, complex, complex, complex]
) -> tuple[complex, complex]:
    """(sigma, J) from trace coordinates.

    sigma is read off p12 = 2 cos(pi sigma) on the strip 0 <= Re sigma < 1
    (on the boundary Re sigma = 0 the sign is fixed by Im sigma >= 0); J
    follows from the closed-form expression through the auxiliary a, b, c, d
    combinations of the traces.
    """
    thetas = tuple(complex(t) for t in thetas)
    s = cmath.acos(complex(m.p12) / 2) / pi
    if s.real == 0 and s.imag < 0:
        s = -s
    t1, t2, t3, ti = thetas
    loci = _loci(*thetas, s, 1.0)  # J is the output; its row is not checked
    bad = [loci[i] for i in _ARROW_F_LOCI if loci[i][0] < GENERICITY_TOL]
    if bad:
        raise DomainError("arrow_f: " + "; ".join(t.format(v) for _, t, v in bad))
    a, b = _ab_terms(thetas, s, m.p23, m.p13)
    d = _d_factor(thetas, s)
    c = _c_factor(thetas, s)
    if abs(d) < GENERICITY_TOL:
        raise DomainError("arrow_f: sine-product denominator vanishes")
    s_hat = c * (a + b) / d
    if abs(s_hat) < GENERICITY_TOL:
        raise DomainError("arrow_f: degenerate trace data (s_hat = 0)")
    J = (t1 + t2 + s) * (-t1 + t2 + s) * (ti + t3 + s) / (
        4 * s * s * (ti + t3 - s) * s_hat
    )
    return s, J


# --------------------------------------------------------------------------
# consistency helpers (closed-form traces, cubic, leading-coefficient identity)


def p23_p13_closed_form(d: PviAsymptoticData) -> tuple[complex, complex]:
    """The traces p23 and p13 directly from the asymptotic data.

    Independent closed form used to cross-check arrow_p(arrow_g(arrow_q(d))).
    """
    return _closed_form_traces(d)[:2]


def _closed_form_traces(d: PviAsymptoticData) -> tuple[complex, complex, complex]:
    """(p23, p13, L) of :func:`p23_p13_closed_form`, with its factor L = _l_factor."""
    _require_generic(d)
    t1, t2, t3, ti = d.thetas
    s, J = d.sigma, d.J
    c1, c2, c3, ci = (cmath.cos(pi * t) for t in (t1, t2, t3, ti))
    cs = cmath.cos(pi * s)
    s2 = cmath.sin(pi * s) ** 2
    if abs(s2) < GENERICITY_TOL:
        raise DomainError("closed-form traces: sin(pi sigma) = 0")
    el = _l_factor(d.thetas, s)
    sp = (
        cmath.sin(pi * (t1 + t2 + s) / 2)
        * cmath.sin(pi * (t1 - t2 - s) / 2)
        * cmath.sin(pi * (t3 + ti + s) / 2)
        * cmath.sin(pi * (t3 - ti + s) / 2)
    )
    sm = (
        cmath.sin(pi * (t1 + t2 - s) / 2)
        * cmath.sin(pi * (t1 - t2 + s) / 2)
        * cmath.sin(pi * (t3 + ti - s) / 2)
        * cmath.sin(pi * (t3 - ti - s) / 2)
    )
    lj = el * J
    p23 = (
        (2 / s2) * (c1 * ci + c2 * c3 - c1 * c3 * cs - c2 * ci * cs)
        + (4 / s2) * sp * lj
        + (4 / s2) * sm / lj
    )
    p13 = (
        (2 / s2) * (c1 * c3 + c2 * ci - c2 * c3 * cs - c1 * ci * cs)
        - (4 / s2) * cmath.exp(1j * pi * s) * sp * lj
        - (4 / s2) * cmath.exp(-1j * pi * s) * sm / lj
    )
    return p23, p13, el


def trace_identity_residual(d: PviAsymptoticData) -> complex:
    """Residual of the identity a + b = d / (L J) tying traces to the leading coefficient."""
    return _trace_identity(d, *_closed_form_traces(d))


def _trace_identity(d: PviAsymptoticData, p23: complex, p13: complex, el: complex) -> complex:
    """:func:`trace_identity_residual` from the closed-form (p23, p13, L) of ``d``."""
    a, b = _ab_terms(d.thetas, d.sigma, p23, p13)
    dd = _d_factor(d.thetas, d.sigma)
    return a + b - dd / (el * d.J)


def cubic_residual(m: MonodromyData) -> complex:
    """Value of the Fricke-type cubic that every admissible trace tuple satisfies."""
    p12, p13, p23 = m.p12, m.p13, m.p23
    p1, p2, p3, pi_ = m.p1, m.p2, m.p3, m.p_inf
    return (
        p13 * p23 * p12
        + p12 * p12 + p23 * p23 + p13 * p13
        - (p1 * p3 + p2 * pi_) * p13
        - (p3 * p2 + p1 * pi_) * p23
        - (p2 * p1 + p3 * pi_) * p12
        + p1 * p1 + p2 * p2 + p3 * p3 + pi_ * pi_
        + p1 * p2 * p3 * pi_
        - 4
    )
