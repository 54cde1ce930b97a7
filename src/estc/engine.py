"""Slice-by-slice construction of the system projector on a truncated window.

Row n of the coupled system reads sum_s V(n,s) c(n+s) = 0.  Packing the
four scalar rows at site n into the rank-4 Hermitian block

    P(n): c'(m') = V(n, m'-n)^dag a(n) sum_s V(n,s) c(n+s),

the full system becomes P(n)C = 0 for all n.  The projector onto the span
of all processed rows is P = V^dag G^-1 V, with V the row coefficients of
the scheduled sites and G = V V^dag their row Gram matrix.

Every field shift changes the time harmonic n4 by one, so two rows overlap
only when their n4 differ by at most 2.  The schedule is time-major, which
makes G block pentadiagonal over the time slices of fixed n4, and its
Cholesky factor G = R R^dag keeps that band: slice t couples only to
slices t - 1 and t - 2.  The accumulator factors one slice at a time, with
one dense Cholesky of the slice's Schur complement, and keeps only the
band, which it builds in place in the factor store.  Stage k, one
scheduled site, has the pivot D_k = R_kk R_kk^dag, the deflated Gram
matrix of its row; a numerically singular pivot means the row is linearly
dependent on the rows before it, and the run raises StageSingular there.
The slice step only factors, and a completed run computes no build
record: one gate after the last slice accepts the pivots by the norm
bound rcond >= 1 / (||R_kk||_F^2 ||R_kk^-1||_F^2), whose inverse blocks
the slice step already has, and checks every rcond against the floor
only when some bound falls short, or as soon as a slice's Cholesky fails
or yields a non-finite pivot.  The rconds and the Gram asymmetry are
computed on first read.  A run is one-shot and all or nothing: it sizes
the store once and factors every slice in order, and an accumulator
whose run did not complete holds no factors; one restored from a dump
never runs, but applies and is written like a built one.

The projector is kept and applied in factored form only, as
P = V^dag R^-dag R^-1 V: a block forward and back substitution over the
slices between rows, V, and adjoint, V^dag, the accumulator's one row
operator on the (N, 4) amplitudes of the window sites.  The CLI's gate
and verify read the processed rows through rows; G u = rows(adjoint(u)).
The factor is laid out as the operator dump's factor file: per slice,
the lower triangle of W_t = R_tt^-1 packed in np.tril_indices order,
then the band panel row-major.  slice_factors() is the one handle on
it, a FactorSlices with the shapes and offsets of the window table: for
a built accumulator, views of the run's store in memory; for a restored
one, reads of the factor file, one slice each time a step indexes it, so
an apply holds one slice at a time.  The solves and the dump writer read
the slices through it alike; the solves read each slice's rows from its
span in the window table, so the band's reach is derived only in
lattice.  The run keeps each W_t dense and conjugated from its inversion
through slice t + 2, the last whose band it multiplies; the solves
unpack it into a dense temporary.  The complement U - P maps any seed
multispinor onto the solution subspace of the window's interior rows.

Only the zero-shift block V(n, 0) depends on q, through w = q + Omega n,
so a point at new q pays only for it.  Per window (radius, center), built
once per process and shared read-only, lattice.window_table holds the
sites, the schedule, the stencil and scatter order, the slice spans and
factor store offsets, the coverage of the stencils and, built on first
use, the Gram pattern and the slice plans.  Per field, likewise: the
twelve field-shift matrices F_s and, per site difference d, their
overlap C_d, the sum of F_s F_t^dag over the pairs with s - t = d.  The
row overlap of two stages is C_d plus the few products that involve
their zero-shift matrices, so a point forms those matrices, those
products and the factor, scatters by index arrays it does not build, and
reads no site tuple and looks up no site.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dirac_basis import dset_from_matrix, matrix_from_dset
from .errors import StageSingular
from .field import (
    DimensionlessParams,
    FieldConfig,
    v_coupling,
    validate_field,
    validate_params,
    zero_shift_dsets,
)
from .lattice import (
    COUPLING_DIFFS,
    SHIFT_ARRAY,
    SHIFTS_S13,
    GramPattern,
    Site,
    Window,
    WindowTable,
    locate,
    make_schedule,
    site_array,
    window_table,
)
from .multispinor import Multispinor


class FieldTables:
    """Row coefficients V(n, s) of a field, for any sites.

    The twelve field-shift coupling matrices F_s are site-independent, so
    only the zero-shift matrix depends on the site (and on q).  The field
    is validated once, with its tables, and each FieldTables checks only
    its parameters.  Formed once per field and shared read-only by every
    FieldTables of it:
    field_v, the F_s in stencil shift order; field_overlap[d], the sum
    C_d of F_s F_t^dag over the pairs of field shifts with s - t equal to
    row d of lattice.COUPLING_DIFFS, which is zero for the twelve field
    shifts d = 1..12; and field_row, the F_s side by side as one (4, 48)
    matrix, so that the field part of a row acts on the 12 neighbors of
    its site as one matrix product.
    """

    def __init__(self, f: FieldConfig, p: DimensionlessParams):
        self.field_v, self.field_overlap, self.field_row = _field_tables(f)
        validate_params(p)
        self.field = f
        self.params = p

    def zero_shift(self, sites: list[Site] | np.ndarray) -> np.ndarray:
        """(len(sites), 4, 4) zero-shift matrices V(n, 0) of a list or (N, 4) array of sites."""
        return matrix_from_dset(zero_shift_dsets(sites, self.params))

    def row_sums(self, zero: np.ndarray, values: np.ndarray) -> np.ndarray:
        """sum_s V(n, s) values[n, s] of each row n, given its V(n, 0) as zero[n].

        values is (n, 13, 4) in stencil shift order; the result is (n, 4).
        """
        field = values[:, 1:].reshape(-1, 48) @ self.field_row.T
        return np.einsum("nab,nb->na", zero, values[:, 0]) + field


@lru_cache(maxsize=8)
def _field_tables(f: FieldConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field-shift matrices F_s of a valid field, their overlaps C_d and F_s side by side.

    C_d = sum F_s F_t^dag over the pairs of field shifts with s - t = d,
    one per row d of COUPLING_DIFFS.  The field is validated first, by
    field.validate_field, so only a valid field is cached.
    """
    validate_field(f)
    # a field shift's coefficient reads neither the site nor the parameters
    p = DimensionlessParams()
    dsets = np.stack([v_coupling((0, 0, 0, 0), s, f, p) for s in SHIFTS_S13[1:]])
    field_v = matrix_from_dset(dsets)
    s, t = np.indices((12, 12)).reshape(2, -1)
    diffs = locate(COUPLING_DIFFS, SHIFT_ARRAY[1 + s] - SHIFT_ARRAY[1 + t])
    field_overlap = np.zeros((len(COUPLING_DIFFS), 4, 4), dtype=complex)
    np.add.at(field_overlap, diffs, _products(field_v[s], field_v[t]))
    field_row = field_v.transpose(1, 0, 2).reshape(4, 48)
    for array in (field_v, field_overlap, field_row):
        array.setflags(write=False)
    return field_v, field_overlap, field_row


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[p] b[p]^dag for each p: the one formula every row Gram product goes through."""
    return np.einsum("pab,pcb->pac", a, b.conj())


def build_row_gram(tables: FieldTables, zero: np.ndarray, pattern: GramPattern) -> np.ndarray:
    """(B, 4, 4) lower block-sparse row Gram matrix G = V V^dag of a schedule, in one pass.

    zero[k] is the zero-shift matrix Z_k = V(m_k, 0) of stage k.  Block b is
    the row overlap N(m_k, m_i) of one coupled pair of stages i <= k.  The
    blocks of stage k are pattern.stage_ptr[k]:stage_ptr[k + 1], with
    their partners pattern.partner[b] ascending, so the last one is the
    diagonal block N(m_k, m_k) = L(m_k).  Pairs that share no column have
    no block: their overlap vanishes identically.

    With d = m_i - m_k, COUPLING_DIFFS row pattern.diff[b], the block is
    the field overlap C_d, plus Z_k F_-d^dag + F_d Z_i^dag when d is a
    field shift, plus Z_k Z_k^dag on the diagonal.  The pattern holds
    every index of that sum, each block's row stage k and the field-shift
    blocks with their shifts, so a call only gathers and multiplies.
    """
    gram = tables.field_overlap[pattern.diff]
    near, shift = pattern.near, pattern.shift
    # d is field shift j = shift + 1, so F_d is field_v[shift] and F_-d, shift 13 - j, field_v[11 - shift]
    left = _products(zero[pattern.stage[near]], tables.field_v[11 - shift])
    right = _products(tables.field_v[shift], zero[pattern.partner[near]])
    gram[near] += left + right
    gram[pattern.stage_ptr[1:] - 1] += _products(zero, zero)
    return gram


def _adjoint_times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a^dag v without a conjugated copy of a."""
    return (v.conj().T @ a).conj().T


def _pivot_rconds(diagonal: np.ndarray) -> np.ndarray:
    """Eigenvalue ratio of each pivot D = R_kk R_kk^dag, NaN where R_kk is not finite."""
    finite = np.isfinite(diagonal).all(axis=(1, 2))
    blocks = np.where(finite[:, None, None], diagonal, np.eye(4))
    values = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1))
    return np.where(finite, values[:, 0] / values[:, -1], np.nan)


def _pivot_bounds(diagonal: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """1 / (||R_kk||_F^2 ||W_kk||_F^2) of each pivot R_kk and its inverse W_kk, a bound on its rcond.

    A lower bound: the rcond of D = R R^dag is (s_min / s_max)^2 over the
    singular values of R, and s_max <= ||R||_F, s_min = 1 / s_max(R^-1) >=
    1 / ||R^-1||_F (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 15).  It is at most 1/16, and NaN or 0 where a
    norm overflows, as it does where the other one underflows.
    """
    with np.errstate(all="ignore"):
        r, w = ((np.abs(blocks) ** 2).sum(axis=(1, 2)) for blocks in (diagonal, inverses))
        return 1.0 / (r * w)


# diagonal blocks of at most this many rows are inverted directly by tril_inverse
TRIL_BLOCK = 48


def tril_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular (4n, 4n) matrix, exactly zero above the diagonal.

    Blocked recursion on stage (4-row) boundaries: for
    r = [[A, 0], [B, C]] the inverse is [[A^-1, 0], [-C^-1 B A^-1, C^-1]].
    Only diagonal blocks of at most TRIL_BLOCK rows go through
    np.linalg.inv, so most of the work is triangular products.
    """
    size = r.shape[0]
    if size <= TRIL_BLOCK:
        out = np.linalg.inv(r)
        out.reshape(-1)[_triu_flat(size)] = 0
        return out
    half = 4 * (size // 8)
    out = np.zeros_like(r)
    out[:half, :half] = first = tril_inverse(r[:half, :half])
    out[half:, half:] = last = tril_inverse(r[half:, half:])
    out[half:, :half] = -last @ (r[half:, :half] @ first)
    return out


@lru_cache(maxsize=32)
def _tril_flat(size: int) -> np.ndarray:
    """Flat indices of the lower triangle of a (size, size) matrix, in np.tril_indices order."""
    rows, cols = np.tril_indices(size)
    flat = rows * size + cols
    flat.setflags(write=False)
    return flat


@lru_cache(maxsize=16)
def _triu_flat(size: int) -> np.ndarray:
    """Flat indices of the strictly upper triangle of a (size, size) matrix."""
    rows, cols = np.triu_indices(size, 1)
    flat = rows * size + cols
    flat.setflags(write=False)
    return flat


def pack_lower(a: np.ndarray) -> np.ndarray:
    """The lower triangle of a square matrix, in np.tril_indices order."""
    return a.reshape(-1)[_tril_flat(a.shape[0])]


def unpack_lower(packed: np.ndarray, size: int) -> np.ndarray:
    """The (size, size) lower-triangular matrix whose packed lower triangle is packed."""
    out = np.zeros((size, size), dtype=complex)
    out.reshape(-1)[_tril_flat(size)] = packed
    return out


class FactorSlices:
    """(packed W_t, band panel) of each slice of a window's factor store, read when indexed.

    The store holds every slice of the window's schedule in the layout of
    the factor file; slice t is numbers bounds[t]:bounds[t + 1] of it, the
    window table's factor_bounds.  read(start, stop) returns numbers
    start:stop of the store as a complex array, a read of the factor
    file; indexing slice t reads that slice alone, and the panel is a
    (4n, 4m) view of the numbers read, n and m the stages of the slice and
    of its band, from its span.  The slices of a store in memory, of_store,
    are views made once and handed out by every index.
    """

    def __init__(self, table: WindowTable, read):
        self._spans = table.spans.tolist()
        self.bounds = table.factor_bounds.tolist()
        self._read = read
        self._views: list[tuple[np.ndarray, np.ndarray]] | None = None

    @classmethod
    def of_store(cls, table: WindowTable, store: np.ndarray) -> "FactorSlices":
        """The slices of a store in memory: views of it, made once and handed out by every index."""
        slices = cls(table, lambda start, stop: store[start:stop])
        slices._views = [slices._part(t) for t in range(len(slices))]
        return slices

    def __len__(self) -> int:
        return len(self._spans)

    def __getitem__(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        t = range(len(self))[t]
        return self._part(t) if self._views is None else self._views[t]

    def _part(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop, low = self._spans[t]
        n, m = stop - start, start - low
        data = self._read(self.bounds[t], self.bounds[t + 1])
        middle = 2 * n * (4 * n + 1)
        return data[:middle], data[middle:].reshape(4 * n, 4 * m)

    def __iter__(self):
        return (self[t] for t in range(len(self)))


def _blocks(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) diagonal 4x4 blocks of a (4n, 4n) matrix, as a read-only view."""
    n = a.shape[0] // 4
    return np.diagonal(a.reshape(n, 4, n, 4), axis1=0, axis2=2).transpose(2, 0, 1)


class ProjectorAccumulator:
    """Slice-by-slice builder of the projector onto the processed rows.

    The slices are the runs of equal n4 in the time-major schedule, slice t
    holding the stages start:stop of its span.  Slice t is factored in
    one step, by the window's SlicePlan of it, built once per window: its
    band row Gram blocks G_t,t-2, G_t,t-1 are scattered straight into the
    slice's band panel in the store, and its diagonal blocks into the
    block-lower part of one dense buffer G_tt (each step reads only lower
    and diagonal blocks, so the upper half of G_tt is never filled).  The
    band blocks of the factor are formed in place in the store,
    R_tj = (G_tj - sum_{i<j} R_ti R_ji^dag) W_j^dag with W_j = R_jj^-1,
    and the Schur complement S_t = G_tt - sum_j R_tj R_tj^dag in place in
    that buffer, then factored by one Cholesky, S_t = R_tt R_tt^dag.
    Blocks further than two slices away stay zero, so the band never
    fills.  Per slice, the store factors holds the lower triangle of W_t
    packed in np.tril_indices order, then the band blocks
    [R_t,t-2 | R_t,t-1] as one (4n_t, 4(n_t-2 + n_t-1)) panel, row-major:
    the layout of the operator dump's factor file.  The store is held only
    behind slice_factors(), the one handle on the factors, which gives
    each slice by index, as views of the store, or, for an accumulator
    restored by from_factors, as a read of the factor file; the solves
    and the dump writer read both alike.  The run keeps W_t dense and
    conjugated, as its two band products with slices t + 1 and t + 2
    read it; the solves unpack it into a dense temporary.

    The build record is two arrays over the schedule, computed on first
    read from what the slices kept: rconds[k], the eigenvalue ratio of the
    pivot of stage k, unless the run's gate (_gate) has computed it
    already, and asymmetry[k], the largest imaginary part of the
    real-basis coefficients of its diagonal block of the Schur
    complement, which rounding alone makes nonzero (NaN unless this
    accumulator factored it).  After a StageSingular, rconds holds the
    rcond of every stage whose pivot the run factored and 0 for the rest:
    every stage when the floor failed after the last slice, the stages
    before the one named when a slice's Cholesky failed.

    In terms of the block LDL^dag factorization G = U D U^dag with U block
    unit-lower, U = R blockdiag(R_kk)^-1 and D_k = R_kk R_kk^dag, so the
    stage cores are A_k = (R_kk R_kk^dag)^-1.  An accumulator runs once: a
    second run(), or a run() of one restored by from_factors, raises
    ValueError; build a new one to factor again.  Until a run completes,
    and for good after one that raised StageSingular, the accumulator
    holds no factors, and applying, solving with or writing it raises
    ValueError.  rcond_min, the floor of every stage's rcond, must be a
    positive finite number; any other value raises ValueError before any
    work.
    The zero-shift matrices V(m_k, 0) of the whole schedule are formed
    once; neither the Gram nor rows and adjoint need any other per-site
    coefficient.  The overlaps come from the blocks of the row Gram
    (gram), built on first use from those matrices and the window's Gram
    pattern, which also holds the blocks' structure, so a restored
    accumulator that only applies the projector never builds either.
    """

    def __init__(
        self,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        *,
        rcond_min: float = 1e-10,
    ):
        if not 0.0 < rcond_min < np.inf:  # NaN fails too
            raise ValueError(f"rcond_min must be a positive finite number, not {rcond_min!r}")
        self.tables = FieldTables(f, p)
        self.window = window
        self.schedule = make_schedule(window)
        self.rcond_min = rcond_min

        self._table = window_table(window)
        # the slices of a completed run's store, or those read from a dump by from_factors;
        # None until a run completes
        self._ran = False
        self._slices: FactorSlices | None = None
        # the build record, and what it is computed from on first read: the pivots R_kk of
        # a run the bounds accepted, the Schur diagonal blocks of each slice factored
        self._rconds = np.zeros(len(self.schedule))
        self._asymmetry = np.full(len(self.schedule), np.nan)
        self._pivots: np.ndarray | None = None
        self._schur_blocks: list[np.ndarray] = []
        self._gram: np.ndarray | None = None
        self._zero = self.tables.zero_shift(self._table.coords[self._table.schedule])

    @classmethod
    def from_factors(
        cls,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        factors: FactorSlices,
        rconds: np.ndarray,
    ) -> "ProjectorAccumulator":
        """Accumulator restored from the factor slices of its whole schedule.

        factors reads the slices in this window's layout, each when
        indexed, and becomes the accumulator's slices; no store is held.
        rconds[k] is the recorded rcond of stage k.  Raises ValueError when
        rconds does not have one entry per stage or factors does not have
        the store's size.
        """
        acc = cls(f, p, window)
        stages, count = len(acc.schedule), int(acc._table.factor_bounds[-1])
        if len(rconds) != stages or factors.bounds[-1] != count:
            raise ValueError(
                f"a factor store of {stages} stages has {stages} rconds and {count} complex "
                f"numbers, not {len(rconds)} and {factors.bounds[-1]}"
            )
        acc._ran, acc._slices = True, factors
        acc._rconds[:] = rconds
        return acc

    @property
    def rconds(self) -> np.ndarray:
        """rconds[k], the eigenvalue ratio of the pivot of stage k, computed on first read."""
        if self._pivots is not None:
            self._rconds[:], self._pivots = _pivot_rconds(self._pivots), None
        return self._rconds

    @property
    def asymmetry(self) -> np.ndarray:
        """asymmetry[k], the Gram asymmetry of stage k, computed on first read, NaN if not factored.

        One slice span at a time, as the slices were factored: the rounding
        of a product over the blocks depends on how many it takes.
        """
        if self._schur_blocks:
            for (start, stop, _), blocks in zip(self._table.spans.tolist(), self._schur_blocks):
                self._asymmetry[start:stop] = np.abs(dset_from_matrix(blocks).imag).max(axis=1)
            self._schur_blocks = []
        return self._asymmetry

    def slice_factors(self) -> FactorSlices:
        """(packed W_t, band panel) of each slice: views of a built store, or reads of a dump.

        The one handle on the factors, of a built and of a restored
        accumulator alike, and the one place that raises ValueError when
        no run has completed: there are no factors.
        """
        if self._slices is None:
            raise ValueError("an accumulator that has not completed a run has no factors")
        return self._slices

    @property
    def gram(self) -> np.ndarray:
        """Row Gram blocks of the whole schedule, built on first use, in the pattern's order."""
        if self._gram is None:
            self._gram = build_row_gram(self.tables, self._zero, self._table.pattern)
        return self._gram

    def processed_sites(self) -> list[Site]:
        """The sites whose rows this accumulator holds factors of, as a new list.

        The schedule after a completed run or a restore, [] before a run
        or after one that raised.  Kept as a name for callers outside the
        package, the benchmark's sweep among them.
        """
        return list(self.schedule) if self._slices is not None else []

    def _factor_slice(
        self,
        t: int,
        slices: FactorSlices,
        pivots: np.ndarray,
        pivot_inverses: np.ndarray,
        inverses: list[np.ndarray],
    ) -> np.ndarray:
        """Factor slice t into its place in slices, after the slices before it; returns conj(W_t).

        inverses holds the dense, conjugated W_j of the slices its band
        reaches, t - 2 and t - 1 (fewer at the first two); the step drops
        W_t-2, whose last use it is.  The band is built in the store's band
        panel of the slice, the Schur complement in one fresh buffer.  The
        slice's R_kk go into pivots and the diagonal blocks W_kk of W_t
        into pivot_inverses, which the run's gate reads once, after the
        last slice; a copy of the Schur complement's diagonal blocks is
        kept for the asymmetry record.  When the slice's Cholesky fails,
        or its pivots are not finite, the pivots of the slices before it
        are checked first, since a stage below the floor there may be
        what broke this one; raises StageSingular at the first bad stage.
        """
        plan, gram = self._table.plans[t], self.gram
        start, stop, low = self._table.spans[t].tolist()
        n, m = stop - start, start - low
        packed, band = slices[t]
        band[...] = 0
        # laid out as (row stage, 4, column stage, 4), so the block grids are views
        band.reshape(n, 4, m, 4)[plan.band_rows, :, plan.band_cols] = gram[plan.band]
        schur = np.zeros((4 * n, 4 * n), dtype=complex)
        schur.reshape(n, 4, n, 4)[plan.diag_rows, :, plan.diag_cols] = gram[plan.diag]
        # the band's columns are slice t - 2's, then those of slice t - 1, whose W is inverses[-1]
        second = band.shape[1] - len(inverses[-1]) if t else 0
        if t >= 2:
            band[:, :second] = band[:, :second] @ inverses.pop(0).T
            band[:, second:] -= band[:, :second] @ slices[t - 1][1][:, -second:].conj().T
        if t >= 1:
            band[:, second:] = band[:, second:] @ inverses[-1].T
        schur -= band @ band.conj().T

        try:
            factor, failed = np.linalg.cholesky(schur), None
        except np.linalg.LinAlgError:
            factor, failed = self._leading_factor(schur)
        done = start + factor.shape[0] // 4
        pivots[start:done] = _blocks(factor)
        if failed is not None or not np.isfinite(pivots[start:done]).all():
            # a non-finite pivot fails the check, so past it the Cholesky failed
            self._check_pivots(pivots[:done])
            k = start + failed[0]
            raise StageSingular(k, self.schedule[k], failed[1])

        inverse = tril_inverse(factor)
        packed[...] = pack_lower(inverse)
        pivot_inverses[start:stop] = _blocks(inverse)
        self._schur_blocks.append(_blocks(schur).copy())
        return np.conjugate(inverse, out=inverse)

    def _gate(self, pivots: np.ndarray, pivot_inverses: np.ndarray) -> None:
        """Accept a completed run's pivots by their rcond bounds, or check each one exactly.

        The bounds accept when each clears max(2 rcond_min, 1e-12), and
        rconds waits for its first read; otherwise _check_pivots computes
        every rcond now and raises at the first below the floor.  Both
        take the same decision: the margin absorbs the rounding of
        eigvalsh, which places the smallest eigenvalue of D within a few
        u of its largest, and of the bound through W_kk, so a pivot whose
        bound clears it has a computed rcond at or above rcond_min.
        """
        if (_pivot_bounds(pivots, pivot_inverses) >= max(2 * self.rcond_min, 1e-12)).all():
            self._pivots = pivots
        else:
            self._check_pivots(pivots)

    def _check_pivots(self, pivots: np.ndarray) -> None:
        """Record the rconds of the leading stages' pivots R_kk; raise at the first below the floor.

        Raises StageSingular at the first stage whose rcond is below
        rcond_min or NaN (a pivot that is not finite).
        """
        rconds = self._rconds[: len(pivots)] = _pivot_rconds(pivots)
        bad = np.flatnonzero(~(rconds >= self.rcond_min))
        if bad.size:
            k = int(bad[0])
            raise StageSingular(k, self.schedule[k], float(rconds[k]))

    @staticmethod
    def _leading_factor(schur: np.ndarray) -> tuple[np.ndarray, tuple[int, float]]:
        """The stage of schur whose pivot is not positive definite, for the error message.

        Bisects over the leading stage blocks for the longest one that has
        a Cholesky factor; returns that factor, whose pivots the caller
        checks against the rcond floor, and (stage, rcond) of the first
        stage past it, whose pivot, the Schur complement of the leading
        block, is not positive definite.
        """
        good, bad = 0, schur.shape[0] // 4
        factor = np.zeros((0, 0), dtype=complex)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                factor = np.linalg.cholesky(schur[: 4 * mid, : 4 * mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
        edge = slice(4 * good, 4 * good + 4)
        coupling = schur[edge, : 4 * good] @ tril_inverse(factor).conj().T
        pivot = schur[edge, edge] - coupling @ coupling.conj().T
        try:
            values = np.linalg.eigvalsh(pivot)
        except np.linalg.LinAlgError:  # a non-finite pivot may not converge
            return factor, (good, float("nan"))
        # zero or negative for a pivot that is not positive definite
        with np.errstate(invalid="ignore", divide="ignore"):
            return factor, (good, float(values[0] / np.abs(values).max()))

    def run(self) -> "ProjectorAccumulator":
        """Factor the whole schedule, once.

        Raises StageSingular at the first singular stage, after which the
        accumulator holds no factors, and ValueError when this accumulator
        has run before or was restored by from_factors.
        """
        if self._ran:
            raise ValueError("an accumulator runs once; its stages are already factored")
        self._ran = True
        store = np.empty(self._table.factor_bounds[-1], dtype=complex)
        slices = FactorSlices.of_store(self._table, store)
        pivots = np.empty((len(self.schedule), 4, 4), dtype=complex)
        pivot_inverses = np.empty_like(pivots)
        inverses: list[np.ndarray] = []  # dense conj(W) of the slices the next band reaches
        for t in range(len(slices)):
            inverses.append(self._factor_slice(t, slices, pivots, pivot_inverses, inverses))
        self._gate(pivots, pivot_inverses)
        self._slices = slices
        return self

    def solve_lower(self, y: np.ndarray) -> np.ndarray:
        """R^-1 y for y over the rows of the schedule: forward substitution by slices."""
        z = np.empty_like(y, dtype=complex)
        rows = (4 * self._table.spans).tolist()
        for (start, stop, low), (packed, band) in zip(rows, self.slice_factors()):
            inverse = unpack_lower(packed, stop - start)
            z[start:stop] = inverse @ (y[start:stop] - band @ z[low:start])
            del packed, band, inverse  # a restored slice is freed before the next is read
        return z

    def solve_upper(self, z: np.ndarray) -> np.ndarray:
        """R^-dag z for z over the rows of the schedule: back substitution by slices."""
        rhs = np.array(z, dtype=complex)
        u = np.empty_like(rhs)
        slices = self.slice_factors()
        rows = (4 * self._table.spans).tolist()
        for t in reversed(range(len(slices))):
            (start, stop, low), (packed, band) = rows[t], slices[t]
            inverse = unpack_lower(packed, stop - start)
            u[start:stop] = _adjoint_times(inverse, rhs[start:stop])
            rhs[low:start] -= _adjoint_times(band, u[start:stop])
            del packed, band, inverse
        return u

    def rows(self, x: np.ndarray) -> np.ndarray:
        """V x: the (K, 4) rows of the schedule, in its order, for x (N, 4) on the window sites."""
        return self.tables.row_sums(self._zero, x[self._table.stencil])

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """V^dag u: (N, 4) amplitudes on the window sites, for u (K, 4) over the schedule."""
        terms = np.empty((len(u), 13, 4), dtype=complex)
        terms[:, 0] = np.einsum("nba,nb->na", self._zero.conj(), u)
        terms[:, 1:] = (u @ self.tables.field_row.conj()).reshape(-1, 12, 4)
        table = self._table
        # every window site is reached by some stencil, so the runs are the window sites
        return np.add.reduceat(terms.reshape(-1, 4)[table.scatter_order], table.scatter_first)

    def _project(self, x: np.ndarray) -> np.ndarray:
        """P x = V^dag G^-1 V x for x the (N, 4) amplitudes on the window sites, in that form."""
        return self.adjoint(self.solve_upper(self.solve_lower(self.rows(x).ravel())).reshape(-1, 4))

    def apply_projector(self, c: Multispinor) -> Multispinor:
        """Projector applied to c: the component in the span of the window's interior rows.

        P c = V^dag R^-dag R^-1 V c, returned on every window site, in
        window order; entries of c outside the window do not enter.
        """
        coords = self._table.coords
        return Multispinor(coords, self._project(c.at(coords)))

    def apply_fundamental(self, c: Multispinor) -> Multispinor:
        """(U - P) c: c minus its projected component, a solution of the interior rows.

        Holds the sites of c, in its order, then the window sites c lacks.
        No amplitude shares a buffer with c.
        """
        return c - self.apply_projector(c)


def residual_table(
    c: Multispinor, tables: FieldTables, sites: list[Site]
) -> list[tuple[Site, float]]:
    """Row residuals over the given sites, with c extended by zero.

    Kept for the benchmark's sweep point alone; ROADMAP item 1 deletes it.
    """
    coords = site_array(sites)
    rows = tables.row_sums(tables.zero_shift(coords), c.at(coords[:, None, :] + SHIFT_ARRAY))
    return list(zip(sites, np.linalg.norm(rows, axis=1).tolist()))
