"""Numbered Dirac matrix basis and arithmetic on coefficient sets.

The sixteen products of Dirac matrices form a basis of the complex 4x4
matrices.  Each basis element carries a single index

    nu = 8*M + 4*N + 2*m + n,        M, N, m, n in {0, 1},

and is fixed by two rules: the nonzero entry of its first row (the leading
element) sits in column 2*M + m and equals

    b(nu) = i**(M*N + m*n) * (-1)**((1 - M)*m*n + M*(1 + N + m + n)),

and the remaining rows follow from a 2x2 block pattern read off the digits.
Index 0 is the identity; the binary digits of nu place every standard
gamma-algebra element (spin, parity, chirality, velocity blocks) somewhere
in the numbering.

Any 4x4 matrix A is then a vector of sixteen coefficients ("dset")

    A = sum_nu d[nu] * basis[nu],        d[nu] = trace(A @ basis[nu]) / 4,

and the matrix product closes index-wise: basis[lam] @ basis[mu] is a unit
scalar times basis[lam ^ mu], so multiplication, powers, characteristic
invariants, adjugate and inverse are all polynomial maps on the sixteen
coefficients.  A matrix is Hermitian exactly when its dset is real.

All dset functions accept stacked inputs (leading batch axes).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix

# exact integer powers of i; (1j)**k via float pow is not exact
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def _digits(nu: int) -> tuple[int, int, int, int]:
    if not 0 <= nu <= 15:
        raise ValueError(f"basis index must be in 0..15, got {nu}")
    return (nu >> 3) & 1, (nu >> 2) & 1, (nu >> 1) & 1, nu & 1


def leading_element(nu: int) -> complex:
    """Nonzero entry of the first row of basis matrix nu (always a unit)."""
    big_m, big_n, m, n = _digits(nu)
    sign = -1 if ((1 - big_m) * m * n + big_m * (1 + big_n + m + n)) % 2 else 1
    return _I_POW[(big_m * big_n + m * n) % 4] * sign


def gamma_matrix(nu: int) -> np.ndarray:
    """Reconstruct basis matrix nu from its index digits.

    The digit pair (m, n) fixes a 2x2 tile: diagonal for m = 0, antidiagonal
    for m = 1, with entries b and (-1)**n * b.  The pair (M, N) places that
    tile on the block diagonal (M = 0) or block antidiagonal (M = 1), the
    second copy scaled by (-1)**N.
    """
    big_m, big_n, m, n = _digits(nu)
    b = leading_element(nu)
    tile = np.zeros((2, 2), dtype=complex)
    if m == 0:
        tile[0, 0] = b
        tile[1, 1] = (-1) ** n * b
    else:
        tile[0, 1] = b
        tile[1, 0] = (-1) ** n * b
    out = np.zeros((4, 4), dtype=complex)
    if big_m == 0:
        out[:2, :2] = tile
        out[2:, 2:] = (-1) ** big_n * tile
    else:
        out[:2, 2:] = tile
        out[2:, :2] = (-1) ** big_n * tile
    return out


def structure_constant(lam: int, mu: int) -> tuple[int, complex]:
    """Index and unit factor of the product basis[lam] @ basis[mu].

    The product index is the bitwise XOR of the factor indices; the factor
    is a fourth root of unity determined by the digit pairs.
    """
    big_g, big_h, g, h = _digits(lam)
    big_j, big_k, j, k = _digits(mu)
    z = (
        big_g * big_k * (1 - big_j - big_h)
        + big_j * big_h * (big_g + big_k)
        + (big_g * j + big_j * g) * (1 - h - k)
        + big_g * k * (1 - g)
        + big_j * h * (1 - j)
        + g * k * (1 - j - h)
        + j * h * (g + k)
    )
    phase = _I_POW[(big_g * big_k + big_j * big_h + g * k + j * h) % 4]
    return lam ^ mu, phase * (-1 if z % 2 else 1)


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    basis = np.stack([gamma_matrix(nu) for nu in range(16)])
    factors = np.zeros((16, 16), dtype=complex)
    # product tensor: prod[nu, lam, mu] nonzero only at nu = lam ^ mu
    prod = np.zeros((16, 16, 16), dtype=complex)
    for lam in range(16):
        for mu in range(16):
            nu, f = structure_constant(lam, mu)
            factors[lam, mu] = f
            prod[nu, lam, mu] = f
    return basis, factors, prod


GAMMA, FACTOR_TABLE, _PROD = _build_tables()

# dset of the identity matrix
UNIT_DSET = np.zeros(16, dtype=complex)
UNIT_DSET[0] = 1.0


# both conversions as one matrix product over the flattened 4x4 entries:
# m[i, j] = sum_n d[n] GAMMA[n, i, j] and d[n] = sum_ij m[i, j] GAMMA[n, j, i] / 4;
# like einsum, they propagate a non-finite entry without a warning
_TO_MATRIX = GAMMA.reshape(16, 16)
_TO_DSET = GAMMA.transpose(0, 2, 1).reshape(16, 16).T / 4.0


def dset_from_matrix(a: np.ndarray) -> np.ndarray:
    """Coefficient set of a 4x4 matrix (last two axes)."""
    a = np.asarray(a, dtype=complex)
    with np.errstate(all="ignore"):
        return a.reshape(*a.shape[:-2], 16) @ _TO_DSET


def matrix_from_dset(d: np.ndarray) -> np.ndarray:
    """Dense 4x4 matrix from a coefficient set (last axis)."""
    d = np.asarray(d, dtype=complex)
    with np.errstate(all="ignore"):
        return (d @ _TO_MATRIX).reshape(*d.shape[:-1], 4, 4)


def dset_multiply(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Coefficient set of the matrix product, without forming matrices.

    Each output coefficient collects the 16 factor pairs whose indices
    XOR to it, weighted by the structure-constant table.
    """
    da = np.asarray(da, dtype=complex)
    db = np.asarray(db, dtype=complex)
    return np.einsum("nlm,...l,...m->...n", _PROD, da, db)


def dset_square(d: np.ndarray) -> np.ndarray:
    """Coefficient set of the matrix square, by the expanded closed form.

    This is written out term by term rather than delegated to
    dset_multiply so the two routes stay independent cross-checks.
    """
    d = np.asarray(d, dtype=complex)
    c = np.moveaxis(d, -1, 0)
    i0 = np.sum(c[1:] ** 2, axis=0)
    out = np.empty_like(d)
    out[..., 0] = c[0] ** 2 + i0
    out[..., 1] = 2 * (c[0] * c[1] + c[4] * c[5] - c[8] * c[9] - c[12] * c[13])
    out[..., 2] = 2 * (c[0] * c[2] + c[4] * c[6] - c[8] * c[10] - c[12] * c[14])
    out[..., 3] = 2 * (c[0] * c[3] + c[4] * c[7] - c[8] * c[11] - c[12] * c[15])
    out[..., 4] = 2 * (c[0] * c[4] + c[1] * c[5] + c[2] * c[6] + c[3] * c[7])
    out[..., 5] = 2 * (c[1] * c[4] + c[0] * c[5] + c[11] * c[14] - c[10] * c[15])
    out[..., 6] = 2 * (c[2] * c[4] + c[0] * c[6] - c[11] * c[13] + c[9] * c[15])
    out[..., 7] = 2 * (c[3] * c[4] + c[0] * c[7] + c[10] * c[13] - c[9] * c[14])
    out[..., 8] = 2 * (c[0] * c[8] - c[1] * c[9] - c[2] * c[10] - c[3] * c[11])
    out[..., 9] = 2 * (c[0] * c[9] - c[1] * c[8] - c[7] * c[14] + c[6] * c[15])
    out[..., 10] = 2 * (c[0] * c[10] - c[2] * c[8] + c[7] * c[13] - c[5] * c[15])
    out[..., 11] = 2 * (c[0] * c[11] - c[3] * c[8] - c[6] * c[13] + c[5] * c[14])
    out[..., 12] = 2 * (c[0] * c[12] - c[1] * c[13] - c[2] * c[14] - c[3] * c[15])
    out[..., 13] = 2 * (c[7] * c[10] - c[6] * c[11] - c[1] * c[12] + c[0] * c[13])
    out[..., 14] = 2 * (c[5] * c[11] - c[7] * c[9] - c[2] * c[12] + c[0] * c[14])
    out[..., 15] = 2 * (c[6] * c[9] - c[5] * c[10] - c[3] * c[12] + c[0] * c[15])
    return out


class CharInvariants(NamedTuple):
    """Coefficients of the characteristic polynomial.

    det(lam * 1 - A) = lam**4 - i1*lam**3 + i2*lam**2 - i3*lam + i4,
    so i1 is the trace and i4 the determinant.
    """

    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    i4: np.ndarray


def char_invariants(d: np.ndarray) -> CharInvariants:
    """All four characteristic invariants as polynomials in the dset.

    The polynomials are evaluated in np.clongdouble and returned as
    complex128.  i4 of a well-conditioned matrix, a row Gram matrix L(n)
    say, is a sum of terms much larger than itself, and the extended
    precision keeps their cancellation below double rounding.  Where
    longdouble is double, this gains nothing.
    """
    c = np.moveaxis(np.asarray(d, dtype=np.clongdouble), -1, 0)
    i0 = np.sum(c[1:] ** 2, axis=0)
    i1 = 4 * c[0]
    i2 = 6 * c[0] ** 2 - 2 * i0
    i3 = 4 * c[0] * (c[0] ** 2 - i0) + 8 * (
        c[2] * c[4] * c[6]
        + c[3] * c[4] * c[7]
        - c[2] * c[8] * c[10]
        - c[3] * c[8] * c[11]
        + c[7] * c[10] * c[13]
        - c[6] * c[11] * c[13]
        + c[1] * (c[4] * c[5] - c[8] * c[9] - c[12] * c[13])
        + c[14] * (c[5] * c[11] - c[7] * c[9] - c[2] * c[12])
        + c[15] * (c[6] * c[9] - c[3] * c[12] - c[5] * c[10])
    )
    i4 = (
        ((c[0] - c[4]) ** 2 - (c[1] - c[5]) ** 2 - (c[2] - c[6]) ** 2 - (c[3] - c[7]) ** 2)
        * ((c[0] + c[4]) ** 2 - (c[1] + c[5]) ** 2 - (c[2] + c[6]) ** 2 - (c[3] + c[7]) ** 2)
        + 4 * (-c[8] * c[12] + c[9] * c[13] + c[10] * c[14] + c[11] * c[15]) ** 2
        + (
            c[8] ** 2 - c[9] ** 2 - c[10] ** 2 - c[11] ** 2
            - c[12] ** 2 + c[13] ** 2 + c[14] ** 2 + c[15] ** 2
        ) ** 2
        - 2 * (
            (c[1] ** 2 - c[5] ** 2)
            * (c[8] ** 2 + c[9] ** 2 - c[10] ** 2 - c[11] ** 2
               + c[12] ** 2 + c[13] ** 2 - c[14] ** 2 - c[15] ** 2)
            + (c[2] ** 2 - c[6] ** 2)
            * (c[8] ** 2 - c[9] ** 2 + c[10] ** 2 - c[11] ** 2
               + c[12] ** 2 - c[13] ** 2 + c[14] ** 2 - c[15] ** 2)
            + (c[3] ** 2 - c[7] ** 2)
            * (c[8] ** 2 - c[9] ** 2 - c[10] ** 2 + c[11] ** 2
               + c[12] ** 2 - c[13] ** 2 - c[14] ** 2 + c[15] ** 2)
            + (c[0] ** 2 - c[4] ** 2)
            * (c[8] ** 2 + c[9] ** 2 + c[10] ** 2 + c[11] ** 2
               + c[12] ** 2 + c[13] ** 2 + c[14] ** 2 + c[15] ** 2)
        )
        - 8 * (
            (c[3] * c[6] - c[2] * c[7]) * (c[8] * c[13] - c[9] * c[12])
            + (c[0] * c[1] - c[4] * c[5]) * (c[8] * c[9] + c[12] * c[13])
            + (c[3] * c[5] - c[1] * c[7]) * (c[10] * c[12] - c[8] * c[14])
            + (c[3] * c[4] - c[0] * c[7]) * (c[10] * c[13] - c[9] * c[14])
            + (c[0] * c[2] - c[4] * c[6]) * (c[8] * c[10] + c[12] * c[14])
            + (c[1] * c[2] - c[5] * c[6]) * (c[9] * c[10] + c[13] * c[14])
            + (c[1] * c[6] - c[2] * c[5]) * (c[11] * c[12] - c[8] * c[15])
            + (c[0] * c[6] - c[2] * c[4]) * (c[11] * c[13] - c[9] * c[15])
            + (c[1] * c[4] - c[0] * c[5]) * (c[11] * c[14] - c[10] * c[15])
            + (c[0] * c[3] - c[4] * c[7]) * (c[8] * c[11] + c[12] * c[15])
            + (c[1] * c[3] - c[5] * c[7]) * (c[9] * c[11] + c[13] * c[15])
            + (c[2] * c[3] - c[6] * c[7]) * (c[10] * c[11] + c[14] * c[15])
        )
    )
    return CharInvariants(*(x.astype(complex) for x in (i1, i2, i3, i4)))


def dset_adjoint(d: np.ndarray) -> np.ndarray:
    """Coefficient set of the adjugate, from the Hamilton-Cayley identity.

    adj(A) = i3 - i2*A + A**2 @ (i1 - A), all on coefficient sets.
    """
    d = np.asarray(d, dtype=complex)
    i1, i2, i3, _ = char_invariants(d)
    linear = -d
    linear[..., 0] += i1
    out = dset_multiply(dset_square(d), linear)
    out -= i2[..., None] * d
    out[..., 0] += i3
    return out


def dset_inverse(d: np.ndarray) -> np.ndarray:
    """Coefficient set of the matrix inverse: adjugate over determinant.

    The determinant must exceed 1e-12 (1 + max |d|), a guard that scales
    with the largest coefficient.
    """
    d = np.asarray(d, dtype=complex)
    i4 = char_invariants(d).i4
    tol = 1e-12 * (1.0 + float(np.max(np.abs(d))))
    if np.any(np.abs(i4) <= tol):
        raise SingularMatrix(f"determinant magnitude at or below tolerance {tol:.3e}")
    return dset_adjoint(d) / i4[..., None]
