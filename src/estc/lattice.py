"""Four-dimensional frequency lattice, coupling stencil, windows, schedules.

Sites are integer 4-tuples (n1, n2, n3, n4) with even coordinate sum; the
coupling range of a site is measured by g4d, the larger of the spatial
1-norm and the absolute time component.  Row n of the coupled system
involves only the 13 sites n + s with s in the stencil: the zero shift and
twelve unit shifts mixing one spatial axis with the time axis.

Inside the library a set of sites is one (N, 4) int64 array, and locate
is the one way to match sites.  Everything that depends on a window
alone, its sites, time-major schedule, the stencil of each scheduled
site, slices and their spans, factor layout, coverage, scatter order,
Gram pattern and slice plans, is one read-only WindowTable, built from
arrays once per (radius, center); the band's reach and the slice sizes
are derived there alone.  Site tuples are handed out only at the edges
(Window.points, make_schedule), and site_array turns them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

Site = tuple[int, int, int, int]

# bytes the band factor of one schedule may take: the 499,500 complex 4x4
# blocks that a dense block factor of 1000 stages holds
MAX_FACTOR_BYTES = 499_500 * 256

# largest |coordinate| of a site: sites are held as int64 arrays, and a
# window's sites and their neighbors stay inside that range
MAX_COORDINATE = 2**62

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

SHIFT_ARRAY = np.array(SHIFTS_S13, dtype=np.int64)
SHIFT_ARRAY.setflags(write=False)

# every difference s - t of two stencil shifts, the support of the row
# overlaps: the zero shift, the twelve field shifts in SHIFTS_S13 order (the
# negative of shift j is shift 13 - j), then the 56 other differences of two
# field shifts, in lexicographic order
_FIELD_DIFFS = {tuple(a - b for a, b in zip(s, t)) for s in SHIFTS_S13[1:] for t in SHIFTS_S13[1:]}
COUPLING_DIFFS = np.array(SHIFTS_S13 + tuple(sorted(_FIELD_DIFFS - {SHIFTS_S13[0]})), dtype=np.int64)
COUPLING_DIFFS.setflags(write=False)


def g4d(s: Site) -> int:
    """max(|s1| + |s2| + |s3|, |s4|), the lattice coupling distance."""
    return max(abs(s[0]) + abs(s[1]) + abs(s[2]), abs(s[3]))


def in_lattice(n: Site) -> bool:
    """Sites carry an even coordinate sum."""
    return (n[0] + n[1] + n[2] + n[3]) % 2 == 0


def site_sub(a: Site, b: Site) -> Site:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def site_add(a: Site, b: Site) -> Site:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _integer(x) -> bool:
    """x is a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def site_in_range(value) -> bool:
    """value is a tuple or list of four integers, not bools, each within +-MAX_COORDINATE.

    The one rule for a site that comes from outside the library; the parity
    of its coordinate sum is checked apart, by in_lattice.
    """
    return (
        isinstance(value, (tuple, list))
        and len(value) == 4
        and all(_integer(n) and abs(int(n)) <= MAX_COORDINATE for n in value)
    )


@dataclass(frozen=True)
class Window:
    """Truncation window: sites with g4d(n - center) <= radius.

    The radius is a nonnegative integer.  The center must be four integers
    within +-MAX_COORDINATE, held as a tuple of ints, and itself a lattice
    site so membership respects the parity constraint.
    """

    radius: int
    center: Site = (0, 0, 0, 0)

    def __post_init__(self):
        if not _integer(self.radius) or self.radius < 0:
            raise ValueError(f"window radius must be a nonnegative integer, not {self.radius!r}")
        if not site_in_range(self.center):
            raise ValueError(f"window center must be four integers within +-2**62, not {self.center!r}")
        center = tuple(self.center)
        if not in_lattice(center):
            raise ValueError(f"window center {self.center} has odd coordinate sum")
        # plain ints, so that equal windows share one cached table
        object.__setattr__(self, "radius", int(self.radius))
        object.__setattr__(self, "center", tuple(map(int, center)))

    def points(self) -> list[Site]:
        """All member sites, ordered by g4d then lexicographically.

        Each window is enumerated once per process; every call returns a new list.
        """
        return list(_window_table(self.radius, self.center).sites)

    def interior_points(self) -> list[Site]:
        """The interior sites: the first window_size(radius - 1) points."""
        return self.points()[: window_size(self.radius - 1)]


def window_size(r: int) -> int:
    """Sites in a window of radius r, in closed form: (4r^4 + 8r^3 + 14r^2 + 10r + 3) / 3."""
    return ((((4 * r + 8) * r + 14) * r + 10) * r + 3) // 3 if r >= 0 else 0


def site_array(sites) -> np.ndarray:
    """The (N, 4) int64 array of a list of site 4-tuples, or of an int64 site array.

    A list is read in one pass over its coordinates, without the
    per-tuple dispatch of np.asarray.
    """
    if isinstance(sites, np.ndarray):
        return sites.astype(np.int64, copy=False).reshape(-1, 4)
    count = 4 * len(sites)
    return np.fromiter(chain.from_iterable(sites), np.int64, count).reshape(-1, 4)


def locate(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row of each query site in the (M, 4) site array points, -1 where it is absent.

    Sites are compared as 32-byte keys, the raw bytes of their int64 rows,
    so any two int64 sites compare, however far apart.
    """
    keys = np.ascontiguousarray(points, dtype=np.int64).view("V32").ravel()
    wanted = np.ascontiguousarray(queries, dtype=np.int64).reshape(-1, 4).view("V32").ravel()
    out = np.full(len(wanted), -1, dtype=np.intp)
    if len(wanted) and len(keys):
        # stable, so a site listed twice in points resolves to its first row
        order = np.argsort(keys, kind="stable")
        at = np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)
        hit = keys[order[at]] == wanted
        out[hit] = order[at[hit]]
    return out.reshape(queries.shape[:-1])


@dataclass(frozen=True)
class GramPattern:
    """Where the row Gram blocks of a schedule sit: everything but their values.

    Rows k and i share a column exactly when m_i - m_k is a row of
    COUPLING_DIFFS.  Each such pair with i <= k is one block: the blocks of
    stage k are stage_ptr[k]:stage_ptr[k + 1], with partner[b] = i
    ascending, so the last one is the diagonal block, and diff[b] is the
    index of m_i - m_k in COUPLING_DIFFS.  stage[b] is the row stage k of
    block b; near lists the blocks whose m_i - m_k is a field shift, and
    shift[j] the index of that shift of block near[j] among the twelve,
    diff[near[j]] - 1.
    """

    stage_ptr: np.ndarray
    partner: np.ndarray
    diff: np.ndarray
    stage: np.ndarray
    near: np.ndarray
    shift: np.ndarray


def gram_pattern(sites: np.ndarray) -> GramPattern:
    """The coupled pairs of a schedule, from its (K, 4) sites in schedule order.

    The partners of stage k are the scheduled sites at m_k + d, d over
    COUPLING_DIFFS; sorting them by (k, i) lists each stage's blocks in one
    run.
    """
    stages = len(sites)
    found = locate(sites, sites[:, None, :] + COUPLING_DIFFS)
    k, d = np.nonzero((found >= 0) & (found <= np.arange(stages)[:, None]))
    i = found[k, d]
    order = np.argsort(k * stages + i, kind="stable")
    diff = d[order]
    near = np.flatnonzero((diff >= 1) & (diff <= 12))
    pattern = GramPattern(
        stage_ptr=np.searchsorted(k, np.arange(stages + 1)),
        partner=i[order],
        diff=diff,
        stage=k[order],
        near=near,
        shift=diff[near] - 1,
    )
    return _read_only(pattern)


def _read_only(table):
    """table, a dataclass that every caller shares, with each of its arrays made read-only."""
    for array in vars(table).values():
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return table


@dataclass(frozen=True)
class SlicePlan:
    """Where the row Gram blocks of one time slice go in its slice step.

    The slice is stages start:stop of the schedule, n of them, and its
    band reaches back m stages, to stage low = start - m: its span in the
    window table.  Its Gram blocks, those of rows start:stop, split by
    column: the band blocks band[j], whose partner lies before start, sit
    at row stage band_rows[j] and column stage band_cols[j] of the (n, m)
    block grid of the band panel [G_t,t-2 | G_t,t-1]; the diagonal blocks
    diag[j], at diag_rows[j] and diag_cols[j] of the (n, n) block grid of
    G_tt, on and below its block diagonal.  The block indices are into the
    pattern's block order.
    """

    band: np.ndarray
    band_rows: np.ndarray
    band_cols: np.ndarray
    diag: np.ndarray
    diag_rows: np.ndarray
    diag_cols: np.ndarray


def slice_plans(pattern: GramPattern, spans: np.ndarray) -> tuple[SlicePlan, ...]:
    """The SlicePlan of each time slice of a schedule, from its Gram pattern and slice spans."""
    plans = []
    for start, stop, low in spans.tolist():
        blocks = np.arange(pattern.stage_ptr[start], pattern.stage_ptr[stop])
        rows, cols = pattern.stage[blocks] - start, pattern.partner[blocks]
        band = cols < start
        plan = SlicePlan(
            band=blocks[band],
            band_rows=rows[band],
            band_cols=cols[band] - low,
            diag=blocks[~band],
            diag_rows=rows[~band],
            diag_cols=cols[~band] - start,
        )
        plans.append(_read_only(plan))
    return tuple(plans)


@dataclass(frozen=True)
class WindowTable:
    """Everything that depends on a window alone, built once per (radius, center).

    sites are the window points in window order, as 4-tuples for the
    edges that name single sites, and coords the same points as an (N, 4)
    int64 array.  schedule lists the window indices of make_schedule's
    sites in its order, and stencil[k, s], the window index of
    coords[schedule[k]] + SHIFTS_S13[s], the columns of stage k; every
    scheduled site is interior, so its stencil lies in the window.
    The schedule is time-major: slice t of equal n4 is stages
    slice_ptr[t]:slice_ptr[t + 1].  spans[t] = (start, stop, low) is its
    span, in stages: its own stages start:stop, n of them, and low, the
    start of slice t - 2 (0 for the first two slices), where its band
    reaches back to, m = start - low stages.  Slice t is numbers
    factor_bounds[t]:factor_bounds[t + 1] of the factor store: it takes
    2n(4n + 1) + 16nm complex numbers, the lower triangle of W_t and then
    the (4n, 4m) band panel.  coupling_count counts the off-diagonal 4x4
    blocks the store holds, n(n - 1)/2 in each W_t and nm in each band.
    support[k] counts the sites that the stencils of stages 0..k reach.
    At radius >= 1 every window site is reached by some stencil: a site
    on the rim, at g4d = radius, is one field shift from an interior site.  The projection sums its K * 13
    stencil terms into the window sites in one sorted reduction:
    scatter_order sorts the flat stencil, stably, and the run starting at
    scatter_first[j] holds the terms of window site j.  pattern, the
    block pattern of the row Gram, and plans, the SlicePlan of each slice,
    are built on first use: an accumulator that only applies restored
    factors never needs them.  The arrays are read-only: every caller
    shares them.
    """

    sites: tuple[Site, ...]
    coords: np.ndarray
    schedule: np.ndarray
    stencil: np.ndarray
    slice_ptr: np.ndarray
    spans: np.ndarray
    factor_bounds: np.ndarray
    coupling_count: int
    support: np.ndarray
    scatter_order: np.ndarray
    scatter_first: np.ndarray

    @cached_property
    def pattern(self) -> GramPattern:
        return gram_pattern(self.coords[self.schedule])

    @cached_property
    def plans(self) -> tuple[SlicePlan, ...]:
        return slice_plans(self.pattern, self.spans)


def window_table(window: Window) -> WindowTable:
    """The cached table of a window."""
    return _window_table(window.radius, window.center)


@lru_cache(maxsize=8)
def _window_table(radius: int, center: Site) -> WindowTable:
    # the offsets of the (2r + 1)^4 box with g4d <= r and even sum, by g4d then lexicographically
    offsets = np.indices((2 * radius + 1,) * 4, dtype=np.int64).reshape(4, -1)
    offsets -= radius
    g = np.maximum(np.abs(offsets[:3]).sum(axis=0), np.abs(offsets[3]))
    keep = np.flatnonzero((g <= radius) & (offsets.sum(axis=0) % 2 == 0))
    keep = keep[np.lexsort((*offsets[::-1, keep], g[keep]))]
    coords = offsets[:, keep].T + np.array(center, dtype=np.int64)
    # the interior is the leading window_size(radius - 1) points; the schedule is time-major
    schedule = np.argsort(coords[: window_size(radius - 1), 3], kind="stable")
    n4 = coords[schedule, 3]
    stencil = locate(coords, coords[schedule, None, :] + SHIFT_ARRAY)
    stages = len(stencil)
    # the first stage whose stencil reaches each window site
    first_cover = np.full(len(coords), stages)
    np.minimum.at(first_cover, stencil, np.arange(stages)[:, None])
    flat = stencil.ravel()
    order = np.argsort(flat, kind="stable")
    first = np.flatnonzero(np.diff(flat[order], prepend=-1))
    slice_ptr = np.flatnonzero(np.diff(n4, prepend=n4[:1] - 1, append=n4[-1:] + 1))
    # the span of each slice: its stages start:stop, n of them, and low, the start of
    # slice t - 2, where its band of m stages begins
    start, stop = slice_ptr[:-1], slice_ptr[1:]
    low = slice_ptr[np.maximum(np.arange(len(start)) - 2, 0)]
    n, m = stop - start, start - low
    table = WindowTable(
        sites=tuple(map(tuple, coords.tolist())),
        coords=coords,
        schedule=schedule,
        stencil=stencil,
        slice_ptr=slice_ptr,
        spans=np.stack([start, stop, low], axis=1),
        factor_bounds=np.concatenate([[0], np.cumsum(2 * n * (4 * n + 1) + 16 * n * m)]),
        coupling_count=int((n * (n - 1) // 2 + n * m).sum()),
        support=np.cumsum(np.bincount(first_cover, minlength=stages + 1))[:stages],
        scatter_order=order,
        scatter_first=first,
    )
    return _read_only(table)


def slice_sizes(radius: int) -> tuple[int, int]:
    """Stages in one time slice of the schedule, (even, odd): by the parity of n4 - center n4.

    The interior sites with a fixed time offset t are the spatial offsets of
    1-norm at most r = radius - 1 whose parity is that of t; the shell of
    1-norm j holds 4j^2 + 2 of them (one for j = 0).  Summed in closed form.
    """
    r = radius - 1
    a, b = r // 2, (r + 1) // 2  # even shells 2..2a, odd shells 1..2b-1
    even = 1 + 2 * a + 8 * a * (a + 1) * (2 * a + 1) // 3
    odd = 2 * b + 4 * b * (2 * b - 1) * (2 * b + 1) // 3
    return even, odd


def factor_bytes(radius: int) -> int:
    """Bytes of the band factor of a window's schedule, in closed form.

    The schedule runs over the 2r + 1 time slices t = -r..r, r = radius - 1,
    whose sizes alternate with the parity of t.  Each slice t of n stages
    stores the lower triangle of the inverse of its (4n, 4n) diagonal
    factor block and its band blocks to slices t - 1 and t - 2, all as
    16-byte complex numbers.
    """
    r = radius - 1
    even, odd = slice_sizes(radius)
    evens = r + 1 - r % 2  # slices with t even among t = -r..r
    odds = 2 * r + 1 - evens
    entries = (
        evens * 2 * even * (4 * even + 1)
        + odds * 2 * odd * (4 * odd + 1)
        + 2 * r * 16 * even * odd
        + 16 * (max(evens - 1, 0) * even * even + max(odds - 1, 0) * odd * odd)
    )
    return 16 * entries


def make_schedule(window: Window) -> list[Site]:
    """Processing order for the window: its interior sites, time-major.

    Sites are ordered by n4, then by g4d and lexicographically inside each
    time slice, so the row Gram matrix is block pentadiagonal over the
    slices.  Each schedule entry becomes one stage of the projector; a
    window whose band factor would exceed MAX_FACTOR_BYTES is refused
    before any site is enumerated.
    """
    if window.radius < 1:
        raise ValueError("schedule needs radius >= 1 so the interior is nonempty")
    size = factor_bytes(window.radius)
    if size > MAX_FACTOR_BYTES:
        raise ValueError(
            f"window radius {window.radius} needs {window_size(window.radius - 1)} stages "
            f"and a band factor of {size} bytes, more than the limit of {MAX_FACTOR_BYTES} bytes"
        )
    table = window_table(window)
    return [table.sites[i] for i in table.schedule.tolist()]
