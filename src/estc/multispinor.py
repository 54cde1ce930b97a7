"""Amplitude container: one 4-component complex bispinor per lattice site.

A multispinor is zero off its finite support, so operators truncated to a
window act on it exactly.  Its sites are one (N, 4) int64 array, fixed
when it is made, and its amplitudes one (N, 4) complex array; the sites
as 4-tuples are built only when code at the edges asks for single sites.
The sites of a multispinor are distinct; the constructor takes that on
trust, and the two edges that read sites from outside, random_multispinor
and io.read_solution, refuse a repeat by lattice.refuse_repeats.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .lattice import Site, locate, refuse_repeats, site_array

_ZERO = np.zeros(4, dtype=complex)
_ZERO.setflags(write=False)


class Multispinor:
    """N distinct sites as an (N, 4) int64 array, coords, and their amplitudes as one (N, 4) complex array.

    Row i of amplitudes is the bispinor at site coords[i].  The sites are
    fixed: coords is read-only, and a sum that brings new sites returns a
    new multispinor.  The sites as 4-tuples, support, and the
    site-to-row index behind c[site] and site in c are built on first use,
    so code that works on the arrays never builds them.  c[site] is a view
    of its row, so writes through it show in c; an absent site reads as a
    read-only zero.
    """

    def __init__(self, coords, amplitudes: np.ndarray):
        """amplitudes[i] at site coords[i]: distinct sites as an (N, 4) int64 array, or a list of them.

        The sites are copied into the read-only coords; amplitudes, an
        (N, 4) complex array, is taken as it is, not copied: writes through
        either show in both.  Raises ValueError when amplitudes is not
        complex or not one row per site.
        """
        coords = np.array(coords, dtype=np.int64).reshape(-1, 4)
        if amplitudes.shape != (len(coords), 4) or amplitudes.dtype != complex:
            raise ValueError(
                f"{len(coords)} sites need a ({len(coords)}, 4) complex array, "
                f"got {amplitudes.dtype} {amplitudes.shape}"
            )
        coords.setflags(write=False)
        self.coords = coords
        self.amplitudes = amplitudes
        self._support: tuple[Site, ...] | None = None
        self._index: dict[Site, int] | None = None

    @property
    def support(self) -> tuple[Site, ...]:
        """The sites as 4-tuples, in their order, built on first use."""
        if self._support is None:
            self._support = tuple(map(tuple, self.coords.tolist()))
        return self._support

    def _lookup(self) -> dict[Site, int]:
        """The site-to-row index, built on first use."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.support)}
        return self._index

    def __getitem__(self, site: Site) -> np.ndarray:
        i = self._lookup().get(site)
        return _ZERO if i is None else self.amplitudes[i]

    def __contains__(self, site: Site) -> bool:
        return site in self._lookup()

    def __iter__(self) -> Iterator[Site]:
        return iter(self.support)

    def at(self, sites: np.ndarray) -> np.ndarray:
        """(..., 4) amplitudes at an (..., 4) int64 site array, zero at the sites c lacks.

        Sites equal to coords, row for row, read a copy of the amplitudes
        without a lookup.
        """
        if _same_sites(self.coords, sites):
            return self.amplitudes.copy()
        # the row past the last amplitude is the zero that absent sites read
        padded = np.concatenate([self.amplitudes, np.zeros((1, 4), dtype=complex)])
        return padded[locate(self.coords, sites)]

    def __add__(self, other: "Multispinor") -> "Multispinor":
        """Sum on the sites of self, in their order, then the sites of other that self lacks.

        When other has the sites of self, row for row, the sum is row by
        row: the sites of a multispinor are distinct, so each row of self
        meets the same row of other.
        """
        if _same_sites(self.coords, other.coords):
            return Multispinor(self.coords, self.amplitudes + other.amplitudes)
        n = len(self.coords)
        rows = locate(self.coords, other.coords)
        extra = np.flatnonzero(rows < 0)
        rows[extra] = n + np.arange(len(extra))
        out = np.concatenate([self.amplitudes, np.zeros((len(extra), 4), dtype=complex)])
        out[rows] += other.amplitudes
        return Multispinor(np.concatenate([self.coords, other.coords[extra]]), out)

    def __sub__(self, other: "Multispinor") -> "Multispinor":
        """self + (-other), on the sites of a sum; row by row when other has the sites of self.

        -other negates each amplitude, so both paths round and sign every
        zero as amplitudes - other.amplitudes does.
        """
        if _same_sites(self.coords, other.coords):
            return Multispinor(self.coords, self.amplitudes - other.amplitudes)
        return self + Multispinor(other.coords, -other.amplitudes)

    def __rmul__(self, scalar: complex) -> "Multispinor":
        return Multispinor(self.coords, scalar * self.amplitudes)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def _same_sites(coords: np.ndarray, sites: np.ndarray) -> bool:
    """sites is the (N, 4) array coords, row for row."""
    return np.array_equal(coords, sites)


def random_multispinor(sites: Sequence[Site] | np.ndarray, seed: int) -> Multispinor:
    """Standard normal complex amplitudes on the given sites, in their order.

    The sites are distinct, a list of 4-tuples or an (N, 4) int64 array;
    a site listed twice raises ValueError.  One draw of shape (N, 2, 4):
    per site the four real parts, then the four imaginary parts.
    """
    coords = site_array(sites)
    refuse_repeats(coords)
    draws = np.random.default_rng(seed).standard_normal((len(coords), 2, 4))
    return Multispinor(coords, draws[:, 0] + 1j * draws[:, 1])
