"""Amplitude container: one 4-component complex bispinor per lattice site.

A multispinor is zero off its finite support, so operators truncated to a
window act on it exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .lattice import Site

_ZERO = np.zeros(4, dtype=complex)


class Multispinor:
    def __init__(self, data: dict[Site, np.ndarray] | None = None):
        self.data: dict[Site, np.ndarray] = {}
        if data:
            for site, value in data.items():
                self[site] = value

    @classmethod
    def from_rows(cls, sites: Iterable[Site], rows: Iterable[np.ndarray]) -> "Multispinor":
        """rows[i] at sites[i], taken as they are: each must be a complex 4-vector.

        Rows that are views of one (N, 4) array keep sharing its buffer.
        """
        out = cls()
        out.data = dict(zip(sites, rows))
        return out

    def __getitem__(self, site: Site) -> np.ndarray:
        return self.data.get(site, _ZERO)

    def __setitem__(self, site: Site, value) -> None:
        self.data[site] = np.asarray(value, dtype=complex).reshape(4)

    def __contains__(self, site: Site) -> bool:
        return site in self.data

    def __iter__(self) -> Iterator[Site]:
        return iter(self.data)

    def sites(self) -> list[Site]:
        return sorted(self.data)

    def add_to(self, site: Site, value: np.ndarray) -> None:
        if site in self.data:
            self.data[site] = self.data[site] + value
        else:
            self[site] = value

    def copy(self) -> "Multispinor":
        return Multispinor({site: value.copy() for site, value in self.data.items()})

    def __add__(self, other: "Multispinor") -> "Multispinor":
        out = self.copy()
        for site, value in other.data.items():
            out.add_to(site, value)
        return out

    def __sub__(self, other: "Multispinor") -> "Multispinor":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Multispinor":
        return Multispinor({site: scalar * value for site, value in self.data.items()})

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(np.array(list(self.data.values()))) ** 2)))


def random_multispinor(sites: Iterable[Site], seed: int) -> Multispinor:
    """Standard normal complex amplitudes on the given sites, in their order.

    One draw of shape (N, 2, 4): per site the four real parts, then the
    four imaginary parts.
    """
    sites = list(sites)
    draws = np.random.default_rng(seed).standard_normal((len(sites), 2, 4))
    return Multispinor.from_rows(sites, draws[:, 0] + 1j * draws[:, 1])
