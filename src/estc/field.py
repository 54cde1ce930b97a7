"""Six-wave field configuration and the site-coupling coefficient matrices.

The vector potential is a sum of six monochromatic plane waves, two
counter-propagating along each spatial axis, which makes the field periodic
in all four space-time coordinates.  Wave j = 1, 2, 3 travels along +e_j and
wave j + 3 along -e_j; amplitudes are stored on 6x3 grids a[j][k], b[j][k]
(cosine and sine quadratures).  Transversality forces the component along
the propagation axis to zero, leaving 24 free reals.

Everything downstream couples through two derived objects per lattice
site n:

* v_coupling(n, s): the 4x4 coefficient of amplitude c(n+s) in row n of the
  coupled system, one matrix per stencil shift s, given as a dset;
* l_matrix(n) = sum_s V(n,s) V(n,s)^dag, the row Gram matrix, with its
  closed-form reduced determinant det_l(n) and closed-form inverse
  a_matrix(n), the core of the per-site projector V(n)^dag a(n) V(n).

The row overlaps of two sites, the blocks of the row Gram matrix, are
built by engine.build_row_gram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ShiftNotInS13, SingularMatrix, TransversalityViolation, ZeroField
from .lattice import Site

# (j, k) pairs forced to zero: the component along the propagation axis
# of each wave (waves 1..3 run along +e_j, waves 4..6 along -e_(j-3))
CONSTRAINED_COMPONENTS: tuple[tuple[int, int], ...] = (
    (1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3),
)

FREE_COMPONENTS: tuple[tuple[int, int], ...] = tuple(
    (j, k) for j in range(1, 7) for k in range(1, 4)
    if (j, k) not in CONSTRAINED_COMPONENTS
)

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


# the one grammar of an amplitude key: grid a or b, wave j = 1..6, axis k = 1..3
_AMPLITUDE_KEY = re.compile(r"([ab])_([1-6])([1-3])")


def amplitude_slot(key: str) -> tuple[str, int, int]:
    """(grid, j, k) of an amplitude key a_jk or b_jk; KeyError for any other key."""
    match = _AMPLITUDE_KEY.fullmatch(key)
    if match is None:
        raise KeyError(f"{key!r} is not a_jk or b_jk with wave j = 1..6 and axis k = 1..3")
    grid, j, k = match.groups()
    return grid, int(j), int(k)


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
            grid, j, k = amplitude_slot(key)
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


def validate_field(f: FieldConfig) -> None:
    """Reject a field the construction cannot handle.

    Every amplitude must be finite, components along propagation axes
    must vanish, and the field must carry nonzero, finite intensity.
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


def validate_params(p: DimensionlessParams) -> None:
    """Reject quasimomenta or a crystal frequency that are not finite, or Omega <= 0."""
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


def w_vector(n: Site | np.ndarray, p: DimensionlessParams) -> np.ndarray:
    """Site-shifted quasimomentum w_j = q_j + n_j * Omega, j = 1..4 (last axis of n)."""
    q = np.array([p.q1, p.q2, p.q3, p.q4])
    return q + p.omega * np.asarray(n, dtype=float)


def zero_shift_dsets(sites, p: DimensionlessParams) -> np.ndarray:
    """(N, 16) dsets of the zero-shift coefficients V(n, 0) of N sites (a list or (N, 4) array).

    The free-particle part of row n: the identity, the time component
    -w4 and the spatial currents i w of w = q + Omega n.
    """
    w = w_vector(np.reshape(sites, (-1, 4)), p)
    d = np.zeros((len(w), 16), dtype=complex)
    d[:, 0] = 1.0
    d[:, 4] = -w[:, 3]
    d[:, 13] = 1j * w[:, 2]
    d[:, 14] = 1j * w[:, 0]
    d[:, 15] = 1j * w[:, 1]
    return d


def v_coupling(n: Site, s: Site, f: FieldConfig, p: DimensionlessParams) -> np.ndarray:
    """dset of the coefficient of c(n+s) in row n of the coupled system.

    The zero shift carries the free-particle part (identity, time component
    and spatial currents of w); each field shift carries the two amplitude
    components of one wave, at the dset positions of the matching spatial
    currents.  Backward-time shifts enter as -i*a + b, forward as -i*a - b.
    """
    if s == (0, 0, 0, 0):
        return zero_shift_dsets([n], p)[0]
    d = np.zeros(16, dtype=complex)
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
