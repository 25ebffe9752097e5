"""Small dense complex linear algebra used by every other module.

Everything here operates on plain ``numpy`` arrays of ``complex128``.
Matrices are tiny (n <= 4 in practice), so clarity and deterministic
behaviour win over vectorisation tricks.

The public functions validate their input (shape, finiteness, index
selections) and raise ``DomainError`` on bad input.  ``eigen2``, ``eigen3``
and ``minor`` are that validation followed by a call to the private kernels
``_eigen2``, ``_eigen3`` and ``_minor``, which trust an already-validated
``complex128`` matrix; callers that hold one (a block of an ``as_matrix``
result, say) call the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError

__all__ = [
    "SpectrumPair",
    "as_matrix",
    "delta_k",
    "eigen2",
    "eigen3",
    "minor",
    "matrix_power_scalar",
]

#: Relative tolerance below which a 2x2 eigenvalue pair is flagged degenerate.
DEGENERACY_RTOL = 1e-8


def as_matrix(a, n: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a square complex128 array, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DomainError(f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class SpectrumPair:
    """Ordered eigenvalue pair of a 2x2 block.

    Ordering convention: ``Re(lambda1 - lambda2) >= 0``; on a tie the pair is
    ordered so ``Im(lambda1 - lambda2) >= 0``.  The difference ``sigma`` of an
    ordered pair therefore always satisfies ``Re(sigma) >= 0``.
    """

    lambda1: complex
    lambda2: complex
    degenerate: bool

    @property
    def sigma(self) -> complex:
        return self.lambda1 - self.lambda2


def delta_k(a, k: int) -> np.ndarray:
    """Truncation that keeps the leading k x k block and the full diagonal.

    Entry (i, j) survives iff (i < k and j < k) or i == j; all other entries
    are zeroed.  ``k = 0`` keeps just the diagonal, ``k = n`` is the identity
    operation.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if not 0 <= k <= n:
        raise DomainError(f"delta_k: k={k} outside [0, {n}]")
    out = np.diag(np.diag(m))
    out[:k, :k] = m[:k, :k]
    return out


def _order_pair(la: complex, lb: complex) -> tuple[complex, complex]:
    d = la - lb
    if d.real > 0 or (d.real == 0 and d.imag >= 0):
        return la, lb
    return lb, la


def eigen2(a) -> SpectrumPair:
    """Eigenvalues of a 2x2 complex matrix by the stable quadratic formula.

    The larger-magnitude root is computed from the quadratic formula with the
    sign chosen to avoid cancellation; the other root comes from the product
    ``det = lambda1 * lambda2`` when the first root is nonzero.
    """
    return _eigen2(as_matrix(a, 2))


def _eigen2(m: np.ndarray) -> SpectrumPair:
    tr = complex(m[0, 0] + m[1, 1])
    det = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = tr * tr - 4.0 * det
    r = np.sqrt(complex(disc))
    # pick the sign that maximises |tr +/- r| (classic cancellation guard)
    s = r if abs(tr + r) >= abs(tr - r) else -r
    big = (tr + s) / 2.0
    small = det / big if big != 0 else (tr - s) / 2.0
    l1, l2 = _order_pair(big, small)
    scale = max(1.0, abs(l1), abs(l2))
    return SpectrumPair(l1, l2, degenerate=abs(l1 - l2) < DEGENERACY_RTOL * scale)


def eigen3(a) -> tuple[complex, complex, complex]:
    """Eigenvalues of a 3x3 complex matrix via its companion matrix.

    The characteristic cubic is assembled from trace power sums (Newton's
    identities) and handed to ``np.roots``, i.e. a balanced companion-matrix
    QR solve.  The triple is sorted by descending real part, ties by
    descending imaginary part; coincident roots never raise.
    """
    return _eigen3(as_matrix(a, 3))


def _eigen3(m: np.ndarray) -> tuple[complex, complex, complex]:
    t1 = complex(np.trace(m))
    t2 = complex(np.trace(m @ m))
    e1 = t1
    e2 = (t1 * t1 - t2) / 2.0
    e3 = complex(np.linalg.det(m))
    roots = np.roots([1.0, -e1, e2, -e3])
    return tuple(sorted((complex(r) for r in roots), key=lambda z: (-z.real, -z.imag)))


def minor(a, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]) -> complex:
    """Determinant of the submatrix selected by 0-based ``rows`` x ``cols``.

    Both index lists must be strictly increasing and of equal length.
    An empty selection has determinant 1 (the usual convention).
    """
    m = as_matrix(a)
    r = list(rows)
    c = list(cols)
    if len(r) != len(c):
        raise DomainError(f"minor: row/column selections differ in length ({len(r)} vs {len(c)})")
    for name, idx in (("rows", r), ("cols", c)):
        if any(not 0 <= i < m.shape[0] for i in idx):
            raise DomainError(f"minor: {name} {idx} out of range for n={m.shape[0]}")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise DomainError(f"minor: {name} {idx} not strictly increasing")
    return _minor(m, r, c)


def _minor(m: np.ndarray, rows, cols) -> complex:
    if not rows:
        return 1.0 + 0.0j
    if len(rows) == 1:
        return complex(m[rows[0], cols[0]])
    if len(rows) == 2:
        (r0, r1), (c0, c1) = rows, cols
        return complex(m[r0, c0] * m[r1, c1] - m[r0, c1] * m[r1, c0])
    return complex(np.linalg.det(m[np.ix_(rows, cols)]))


def _is_delta2_shaped(m: np.ndarray, tol: float) -> bool:
    n = m.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    mask[:2, :2] = True
    np.fill_diagonal(mask, True)
    off = m[~mask]
    scale = max(1.0, float(np.max(np.abs(m))))
    return off.size == 0 or float(np.max(np.abs(off))) <= tol * scale


def matrix_power_scalar(a, s: complex, log_s: complex | None = None) -> np.ndarray:
    """s**A for A of block-diagonal shape "2x2 block plus scalar diagonal".

    ``A`` must vanish outside the leading 2x2 block and the diagonal (the
    shape produced by ``delta_k(.., 2)``).  The scalar power uses the
    principal logarithm of ``s`` unless an explicit ``log_s`` value is given,
    which callers use to select a non-principal sheet.

    The 2x2 block is exponentiated through its eigendecomposition; if the
    block is (numerically) diagonal the powers are taken entrywise, which in
    particular allows coincident diagonal entries.  A non-diagonal block with
    a degenerate spectrum is rejected: it may be non-diagonalisable.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if n < 2:
        raise DomainError("matrix_power_scalar: matrix must be at least 2x2")
    if not _is_delta2_shaped(m, 1e-13):
        raise DomainError("matrix_power_scalar: matrix is not of 2x2-block-plus-diagonal shape")
    s = complex(s)
    if s == 0:
        raise DomainError("matrix_power_scalar: base must be nonzero")
    if log_s is None:
        if s.real < 0 and s.imag == 0:
            raise DomainError(
                "matrix_power_scalar: base on the negative real axis needs an explicit log_s"
            )
        log_s = complex(np.log(s))
    out = np.zeros((n, n), dtype=complex)
    for i in range(2, n):
        out[i, i] = np.exp(log_s * m[i, i])

    block = m[:2, :2]
    offmag = max(abs(block[0, 1]), abs(block[1, 0]))
    scale = max(1.0, float(np.max(np.abs(block))))
    if offmag <= 1e-14 * scale:
        out[0, 0] = np.exp(log_s * block[0, 0])
        out[1, 1] = np.exp(log_s * block[1, 1])
        return out
    pair = _eigen2(block)
    if pair.degenerate:
        raise DegenerateSpectrumError(
            "matrix_power_scalar: 2x2 block has (near-)coincident eigenvalues "
            f"{pair.lambda1} ~ {pair.lambda2}; the power is not defined through "
            "an eigendecomposition"
        )
    l1, l2 = pair.lambda1, pair.lambda2
    # eigenvector matrix columns for l1, l2; rows chosen to avoid the zero row
    b, c = block[0, 1], block[1, 0]
    if abs(b) >= abs(c):
        v = np.array([[b, b], [l1 - block[0, 0], l2 - block[0, 0]]], dtype=complex)
    else:
        v = np.array([[l1 - block[1, 1], l2 - block[1, 1]], [c, c]], dtype=complex)
    d = np.array([np.exp(log_s * l1), np.exp(log_s * l2)], dtype=complex)
    out[:2, :2] = v @ np.diag(d) @ np.linalg.inv(v)
    return out
