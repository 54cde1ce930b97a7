"""Amplitude container: one 4-component complex bispinor per lattice site.

A multispinor is zero off its finite support, so operators truncated to a
window act on it exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import chain

import numpy as np

from .lattice import Site

_ZERO = np.zeros(4, dtype=complex)
_ZERO.setflags(write=False)


class Multispinor:
    """N distinct sites, in insertion order, and their amplitudes as one (N, 4) complex array.

    Row i of amplitudes is the bispinor at support[i].  The site-to-row
    index is built on the first lookup by site and the (N, 4) int64 site
    array on the first call of coords(), so code that works on the arrays
    never builds the index.

    Adding a site takes amortized constant time: the rows live in a buffer
    grown geometrically, and amplitudes is a view of its filled part.
    c[site] is a view of its row, so writes through it show in c, but
    adding a new site may move the rows: a view of a row or of amplitudes
    taken before the insert may then no longer write into c.
    """

    def __init__(self, data: Mapping[Site, np.ndarray] | None = None):
        data = data or {}
        rows = [np.asarray(value, dtype=complex).reshape(4) for value in data.values()]
        self._assign(tuple(data), np.array(rows, dtype=complex).reshape(-1, 4))

    @classmethod
    def from_rows(cls, sites: Iterable[Site], rows: np.ndarray) -> "Multispinor":
        """rows[i] at sites[i], with the sites distinct and rows an (N, 4) complex array.

        The array is taken as it is, not copied: writes through either show
        in both until a new site is added.
        """
        out = cls.__new__(cls)
        out._assign(tuple(sites), rows)
        return out

    def _assign(self, support: tuple[Site, ...], amplitudes: np.ndarray) -> None:
        if amplitudes.shape != (len(support), 4) or amplitudes.dtype != complex:
            raise ValueError(
                f"{len(support)} sites need a ({len(support)}, 4) complex array, "
                f"got {amplitudes.dtype} {amplitudes.shape}"
            )
        # the sites are the tuple _support or, while sites are added, the list _sites
        self._support: tuple[Site, ...] | None = support
        self._sites: list[Site] | None = None
        self._buffer = amplitudes
        self.amplitudes = amplitudes
        self._index: dict[Site, int] | None = None
        self._coords: np.ndarray | None = None

    @property
    def support(self) -> tuple[Site, ...]:
        """The sites, in their order."""
        if self._support is None:
            self._support = tuple(self._sites)
        return self._support

    def coords(self) -> np.ndarray:
        """The sites as an (N, 4) int64 array, in their order."""
        if self._coords is None:
            flat = chain.from_iterable(self.support)
            self._coords = np.fromiter(flat, np.int64, 4 * len(self.amplitudes)).reshape(-1, 4)
        return self._coords

    def _lookup(self) -> dict[Site, int]:
        """The site-to-row index, built on first use."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.support)}
        return self._index

    def __getitem__(self, site: Site) -> np.ndarray:
        i = self._lookup().get(site)
        return _ZERO if i is None else self.amplitudes[i]

    def __setitem__(self, site: Site, value) -> None:
        value = np.asarray(value, dtype=complex).reshape(4)
        index = self._lookup()
        i = index.get(site)
        if i is not None:
            self.amplitudes[i] = value
            return
        n = len(self.amplitudes)
        if n == len(self._buffer):
            self._buffer = np.empty((2 * n + 4, 4), dtype=complex)
            self._buffer[:n] = self.amplitudes
        self._buffer[n] = value
        self.amplitudes = self._buffer[: n + 1]
        if self._sites is None:
            self._sites = list(self._support)
        self._sites.append(site)
        self._support = None
        self._coords = None
        index[site] = n

    def __contains__(self, site: Site) -> bool:
        return site in self._lookup()

    def __iter__(self) -> Iterator[Site]:
        return iter(self.support)

    def sites(self) -> list[Site]:
        return sorted(self.support)

    def add_to(self, site: Site, value: np.ndarray) -> None:
        i = self._lookup().get(site)
        if i is None:
            self[site] = value
        else:
            self.amplitudes[i] += np.asarray(value, dtype=complex).reshape(4)

    def copy(self) -> "Multispinor":
        return Multispinor.from_rows(self.support, self.amplitudes.copy())

    def __add__(self, other: "Multispinor") -> "Multispinor":
        """Sum on the sites of self, in their order, then the sites of other that self lacks."""
        index = self._lookup()
        rows = np.array([index.get(site, -1) for site in other.support], dtype=np.intp)
        extra = np.flatnonzero(rows < 0)
        rows[extra] = len(self.support) + np.arange(len(extra))
        out = np.concatenate([self.amplitudes, np.zeros((len(extra), 4), dtype=complex)])
        out[rows] += other.amplitudes
        support = self.support + tuple(other.support[i] for i in extra)
        return Multispinor.from_rows(support, out)

    def __sub__(self, other: "Multispinor") -> "Multispinor":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Multispinor":
        return Multispinor.from_rows(self.support, scalar * self.amplitudes)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def random_multispinor(sites: Iterable[Site], seed: int) -> Multispinor:
    """Standard normal complex amplitudes on the given sites, in their order.

    One draw of shape (N, 2, 4): per site the four real parts, then the
    four imaginary parts.  A repeated site keeps its first place and takes
    its last draw.
    """
    sites = list(sites)
    draws = np.random.default_rng(seed).standard_normal((len(sites), 2, 4))
    amplitudes = draws[:, 0] + 1j * draws[:, 1]
    last = dict(zip(sites, range(len(sites))))
    if len(last) < len(sites):
        amplitudes = amplitudes[list(last.values())]
    return Multispinor.from_rows(last, amplitudes)
