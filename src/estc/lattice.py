"""Four-dimensional frequency lattice, coupling stencil, windows, schedules.

Sites are integer 4-tuples (n1, n2, n3, n4) with even coordinate sum; the
coupling range of a site is measured by g4d, the larger of the spatial
1-norm and the absolute time component.  Row n of the coupled system
involves only the 13 sites n + s with s in the stencil: the zero shift and
twelve unit shifts mixing one spatial axis with the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Site = tuple[int, int, int, int]

# zero shift first, then the twelve field shifts in fixed table order
SHIFTS_S13: tuple[Site, ...] = (
    (0, 0, 0, 0),
    (0, 0, -1, -1),
    (0, -1, 0, -1),
    (-1, 0, 0, -1),
    (1, 0, 0, -1),
    (0, 1, 0, -1),
    (0, 0, 1, -1),
    (0, 0, -1, 1),
    (0, -1, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
)

_SHIFT_SET = frozenset(SHIFTS_S13)

# all differences s - s2 of stencil shifts: support of the row overlaps
_COUPLING_DIFFS = frozenset(
    tuple(a - b for a, b in zip(s, s2)) for s in SHIFTS_S13 for s2 in SHIFTS_S13
)
_SORTED_DIFFS = tuple(sorted(_COUPLING_DIFFS))


def g4d(s: Site) -> int:
    """max(|s1| + |s2| + |s3|, |s4|), the lattice coupling distance."""
    return max(abs(s[0]) + abs(s[1]) + abs(s[2]), abs(s[3]))


def in_lattice(n: Site) -> bool:
    """Sites carry an even coordinate sum."""
    return (n[0] + n[1] + n[2] + n[3]) % 2 == 0


def shifts_s13() -> tuple[Site, ...]:
    """The 13 stencil shifts, zero shift first, in fixed table order."""
    return SHIFTS_S13


def site_sub(a: Site, b: Site) -> Site:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def site_add(a: Site, b: Site) -> Site:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def couples(m: Site, n: Site) -> bool:
    """True when the rows at m and n can share a column.

    That happens exactly when n - m is a difference of two stencil shifts;
    every such difference has g4d at most 2.
    """
    d = site_sub(n, m)
    return g4d(d) <= 2 and d in _COUPLING_DIFFS


def coupled_sites(m: Site) -> list[Site]:
    """Every site n with couples(m, n), m itself included, in sorted order."""
    return [site_add(m, d) for d in _SORTED_DIFFS]


@dataclass(frozen=True)
class Window:
    """Truncation window: sites with g4d(n - center) <= radius.

    The center must itself be a lattice site so membership respects the
    parity constraint.
    """

    radius: int
    center: Site = (0, 0, 0, 0)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"window radius must be nonnegative, got {self.radius}")
        if not in_lattice(self.center):
            raise ValueError(f"window center {self.center} has odd coordinate sum")

    def __contains__(self, n: Site) -> bool:
        return in_lattice(n) and g4d(site_sub(n, self.center)) <= self.radius

    def points(self) -> list[Site]:
        """All member sites, ordered by g4d then lexicographically."""
        return window_points(self.radius, self.center)

    def interior(self, n: Site) -> bool:
        """True when every stencil neighbor of n stays in the window."""
        return n in self and all(site_add(n, s) in self for s in SHIFTS_S13)

    def interior_points(self) -> list[Site]:
        return [n for n in self.points() if self.interior(n)]


def window_points(radius: int, center: Site = (0, 0, 0, 0)) -> list[Site]:
    """Enumerate the window in deterministic order (g4d ascending, then lex)."""
    if not in_lattice(center):
        raise ValueError(f"window center {center} has odd coordinate sum")
    out = []
    r = radius
    for n1 in range(-r, r + 1):
        for n2 in range(-r + abs(n1), r - abs(n1) + 1):
            for n3 in range(-r + abs(n1) + abs(n2), r - abs(n1) - abs(n2) + 1):
                for n4 in range(-r, r + 1):
                    n = (center[0] + n1, center[1] + n2, center[2] + n3, center[3] + n4)
                    if in_lattice(n):
                        out.append(n)
    out.sort(key=lambda n: (g4d(site_sub(n, center)), n))
    return out


def make_schedule(window: Window) -> list[Site]:
    """Processing order for the window: its interior sites, g4d then lex.

    Each schedule entry becomes one stage of the projector recurrence.
    """
    if window.radius < 1:
        raise ValueError("schedule needs radius >= 1 so the interior is nonempty")
    sched = window.interior_points()
    if not sched:
        raise ValueError("window has no interior sites")
    return sched
