"""Six-wave field configuration and the site-coupling coefficient matrices.

The vector potential is a sum of six monochromatic plane waves, two
counter-propagating along each spatial axis, which makes the field periodic
in all four space-time coordinates.  Wave j = 1, 2, 3 travels along +e_j and
wave j + 3 along -e_j; amplitudes are stored on 6x3 grids a[j][k], b[j][k]
(cosine and sine quadratures).  Transversality forces the component along
the propagation axis to zero, leaving 24 free reals.

Everything downstream couples through three derived objects per lattice
site n:

* v_coupling(n, s): the 4x4 coefficient of amplitude c(n+s) in row n of the
  coupled system, one matrix per stencil shift s, given as a dset;
* l_matrix(n) = sum_s V(n,s) V(n,s)^dag, the row Gram matrix, with its
  closed-form reduced determinant det_l(n) and closed-form inverse
  a_matrix(n);
* n_overlap(m, n) = sum over shift pairs with m+s = n+s' of
  V(m,s) V(n,s')^dag, the row-overlap matrix, which vanishes identically
  beyond coupling distance 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac_basis import matrix_from_dset
from .errors import ShiftNotInS13, SingularMatrix, TransversalityViolation, ZeroField
from .lattice import SHIFTS_S13, Site, site_sub

# (j, k) pairs forced to zero: the component along the propagation axis
# of each wave (waves 1..3 run along +e_j, waves 4..6 along -e_(j-3))
CONSTRAINED_COMPONENTS: tuple[tuple[int, int], ...] = (
    (1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3),
)

FREE_COMPONENTS: tuple[tuple[int, int], ...] = tuple(
    (j, k) for j in range(1, 7) for k in range(1, 4)
    if (j, k) not in CONSTRAINED_COMPONENTS
)

# dset positions of the three spatial current components
_POS_K = {1: 14, 2: 15, 3: 13}

# shift -> the two (position, j, k) amplitude slots of its coupling dset,
# transcribed row by row from the coupling table; the six +time shifts
# repeat the six -time rows with the sign of b flipped
_COUPLING_SLOTS: dict[Site, tuple[tuple[int, int, int], ...]] = {
    (0, 0, -1, -1): ((14, 3, 1), (15, 3, 2)),
    (0, -1, 0, -1): ((13, 2, 3), (14, 2, 1)),
    (-1, 0, 0, -1): ((13, 1, 3), (15, 1, 2)),
    (1, 0, 0, -1): ((13, 4, 3), (15, 4, 2)),
    (0, 1, 0, -1): ((13, 5, 3), (14, 5, 1)),
    (0, 0, 1, -1): ((14, 6, 1), (15, 6, 2)),
    (0, 0, -1, 1): ((14, 6, 1), (15, 6, 2)),
    (0, -1, 0, 1): ((13, 5, 3), (14, 5, 1)),
    (-1, 0, 0, 1): ((13, 4, 3), (15, 4, 2)),
    (1, 0, 0, 1): ((13, 1, 3), (15, 1, 2)),
    (0, 1, 0, 1): ((13, 2, 3), (14, 2, 1)),
    (0, 0, 1, 1): ((14, 3, 1), (15, 3, 2)),
}


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """Amplitude grids a[j-1, k-1], b[j-1, k-1] for waves j=1..6, axes k=1..3."""

    a: np.ndarray
    b: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, FieldConfig):
            return NotImplemented
        return np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash((self.a.tobytes(), self.b.tobytes()))

    @classmethod
    def from_amplitudes(cls, amplitudes: dict[str, float]) -> "FieldConfig":
        """Build from sparse {"a_12": value, ...} keys; unset entries are zero."""
        a = np.zeros((6, 3))
        b = np.zeros((6, 3))
        grids = {"a": a, "b": b}
        for key, value in amplitudes.items():
            grid, _, jk = key.partition("_")
            if grid not in grids or len(jk) != 2 or not jk.isdigit():
                raise KeyError(f"unrecognized amplitude key {key!r}")
            j, k = int(jk[0]), int(jk[1])
            if not (1 <= j <= 6 and 1 <= k <= 3):
                raise KeyError(f"amplitude key {key!r} out of range (j in 1..6, k in 1..3)")
            grids[grid][j - 1, k - 1] = value
        return cls(a=a, b=b)

    def amplitude_dict(self) -> dict[str, float]:
        """Nonzero free amplitudes in canonical key order."""
        out = {}
        for grid_name, grid in (("a", self.a), ("b", self.b)):
            for j, k in FREE_COMPONENTS:
                value = grid[j - 1, k - 1]
                if value != 0.0:
                    out[f"{grid_name}_{j}{k}"] = float(value)
        return out


@dataclass(frozen=True)
class DimensionlessParams:
    """Quasimomentum components q1..q4 and the crystal frequency ratio Omega."""

    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0
    q4: float = 0.0
    omega: float = 0.5


def validate(f: FieldConfig, p: DimensionlessParams | None = None) -> None:
    """Reject configurations the construction cannot handle.

    Every number must be finite, components along propagation axes must
    vanish, the field must carry nonzero, finite intensity, and the crystal
    frequency must be positive.
    """
    for grid_name, grid in (("a", f.a), ("b", f.b)):
        if grid.shape != (6, 3):
            raise ValueError(f"{grid_name} grid must be 6x3, got {grid.shape}")
        if not np.isfinite(grid).all():
            raise ValueError(f"{grid_name} grid has a non-finite amplitude")
        for j, k in CONSTRAINED_COMPONENTS:
            if grid[j - 1, k - 1] != 0.0:
                raise TransversalityViolation(grid_name, j, k)
    with np.errstate(over="ignore"):
        intensity = field_intensity(f)
        squared = intensity * intensity  # det_l holds the square
    if intensity == 0.0:
        raise ZeroField("all wave amplitudes are zero")
    if not np.isfinite(squared):
        raise ValueError("field intensity overflows")
    if p is not None:
        values = (p.q1, p.q2, p.q3, p.q4, p.omega)
        if not np.isfinite(values).all():
            raise ValueError(f"quasimomenta and Omega must be finite, got {values}")
        if not p.omega > 0.0:
            raise ValueError(f"crystal frequency Omega must be positive, got {p.omega}")


def field_intensity(f: FieldConfig) -> float:
    """Dimensionless intensity: twice the sum of squared wave amplitudes."""
    total = 0.0
    for j, k in FREE_COMPONENTS:
        total += f.a[j - 1, k - 1] ** 2 + f.b[j - 1, k - 1] ** 2
    return 2.0 * total


def w_vector(n: Site, p: DimensionlessParams) -> np.ndarray:
    """Site-shifted quasimomentum w_j = q_j + n_j * Omega, j = 1..4."""
    q = np.array([p.q1, p.q2, p.q3, p.q4])
    return q + p.omega * np.asarray(n, dtype=float)


def v_coupling(n: Site, s: Site, f: FieldConfig, p: DimensionlessParams) -> np.ndarray:
    """dset of the coefficient of c(n+s) in row n of the coupled system.

    The zero shift carries the free-particle part (identity, time component
    and spatial currents of w); each field shift carries the two amplitude
    components of one wave, at the dset positions of the matching spatial
    currents.  Backward-time shifts enter as -i*a + b, forward as -i*a - b.
    """
    d = np.zeros(16, dtype=complex)
    if s == (0, 0, 0, 0):
        w = w_vector(n, p)
        d[0] = 1.0
        d[4] = -w[3]
        d[13] = 1j * w[2]
        d[14] = 1j * w[0]
        d[15] = 1j * w[1]
        return d
    slots = _COUPLING_SLOTS.get(s)
    if slots is None:
        raise ShiftNotInS13(f"shift {s} is not one of the 13 stencil shifts")
    b_sign = 1.0 if s[3] == -1 else -1.0
    for pos, j, k in slots:
        d[pos] = -1j * f.a[j - 1, k - 1] + b_sign * f.b[j - 1, k - 1]
    return d


def l_matrix(n: Site, f: FieldConfig, p: DimensionlessParams) -> np.ndarray:
    """Real dset of the row Gram matrix L(n) = sum_s V(n,s) V(n,s)^dag."""
    w = w_vector(n, p)
    d = np.zeros(16)
    d[0] = 1.0 + field_intensity(f) + float(w @ w)
    d[4] = -2.0 * w[3]
    d[9] = 2.0 * w[2] * w[3]
    d[10] = 2.0 * w[0] * w[3]
    d[11] = 2.0 * w[1] * w[3]
    return d


def det_l(n: Site, f: FieldConfig, p: DimensionlessParams) -> float:
    """Reduced determinant of L(n), closed form; positive whenever I_A > 0.

    L(n) has two eigenvalues of multiplicity two, and this is their
    product, so the dense 4x4 determinant is its square.
    """
    i_a = field_intensity(f)
    w = w_vector(n, p)
    spatial = 1.0 + w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    return i_a ** 2 + 2.0 * i_a * (spatial + w[3] ** 2) + (spatial - w[3] ** 2) ** 2


def a_matrix(n: Site, f: FieldConfig, p: DimensionlessParams) -> np.ndarray:
    """Real dset of a(n) = L(n)^-1, closed form.

    Same coefficients as l_matrix with positions 4, 9, 10, 11 negated,
    all divided by the reduced determinant.
    """
    det = det_l(n, f, p)
    if det <= 1e-300:
        raise SingularMatrix(f"row Gram matrix at {n} is singular (reduced determinant {det})")
    d = l_matrix(n, f, p)
    flipped = d.copy()
    flipped[[4, 9, 10, 11]] *= -1.0
    return flipped / det


def n_overlap(m: Site, n: Site, f: FieldConfig, p: DimensionlessParams) -> np.ndarray:
    """Dense row-overlap matrix N(m,n), summed over matched shift pairs.

    Rows m and n share the column at site m+s = n+s'; the sum collects
    V(m,s) V(n,s')^dag over all such pairs.  Identically zero beyond
    coupling distance 2, equals L(n) densely on the diagonal m = n, and
    satisfies N(n,m) = N(m,n)^dag.
    """
    diff = site_sub(m, n)
    out = np.zeros((4, 4), dtype=complex)
    for s in SHIFTS_S13:
        s_other = (diff[0] + s[0], diff[1] + s[1], diff[2] + s[2], diff[3] + s[3])
        if s_other in _COUPLING_SLOTS or s_other == (0, 0, 0, 0):
            vm = matrix_from_dset(v_coupling(m, s, f, p))
            vn = matrix_from_dset(v_coupling(n, s_other, f, p))
            out += vm @ vn.conj().T
    return out
