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
band.  Stage k, one scheduled site, has the pivot D_k = R_kk R_kk^dag, the
deflated Gram matrix of its row; a numerically singular pivot means the
row is linearly dependent on the processed rows and aborts the stage with
diagnostics.

The projector is kept and applied in factored form only, as
P = (R^-1 V)^dag (R^-1 V): a block forward and back substitution over the
slices.  The complement U - P maps any seed multispinor onto the solution
subspace of the processed rows; residuals of unprocessed rows measure the
truncation error of the window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dirac_basis import dset_from_matrix, matrix_from_dset
from .errors import StageSingular
from .field import DimensionlessParams, FieldConfig, v_coupling, validate
from .lattice import SHIFTS_S13, Site, Window, make_schedule, site_add
from .multispinor import Multispinor


class FieldTables:
    """Row coefficients V(n, s) of a field, for any sites.

    The twelve field-shift coupling matrices are site-independent, so only
    the zero-shift matrix depends on the site.
    """

    def __init__(self, f: FieldConfig, p: DimensionlessParams):
        validate(f, p)
        self.field = f
        self.params = p
        self._field_v = np.stack(
            [matrix_from_dset(v_coupling((0, 0, 0, 0), s, f, p)) for s in SHIFTS_S13[1:]]
        )

    def rows(self, sites: list[Site]) -> np.ndarray:
        """(len(sites), 13, 4, 4) coupling matrices of each row, in stencil shift order."""
        zero = [v_coupling(n, (0, 0, 0, 0), self.field, self.params) for n in sites]
        out = np.empty((len(sites), 13, 4, 4), dtype=complex)
        out[:, 0] = matrix_from_dset(np.array(zero).reshape(-1, 16))
        out[:, 1:] = self._field_v
        return out


@dataclass
class RowGram:
    """Lower block-sparse row Gram matrix G = V V^dag in schedule order.

    Block p is the row overlap N(m_k, m_i) of one coupled pair of stages
    i <= k.  The blocks of stage k are stage_ptr[k]:stage_ptr[k + 1], with
    their partners i ascending, so the last one is the diagonal block
    N(m_k, m_k) = L(m_k).  Pairs that share no column have no block: their
    overlap vanishes identically.
    """

    stage_ptr: np.ndarray
    partner: np.ndarray
    blocks: np.ndarray


def build_row_gram(rows: np.ndarray, stencil: np.ndarray) -> RowGram:
    """All lower row Gram blocks of a schedule, in one vectorized pass.

    rows[k] holds the 13 coupling matrices of row k and stencil[k] the
    columns they multiply.  Row k at shift s and row i at shift t share a
    column exactly when stencil[k, s] == stencil[i, t], so a column-to-stage
    table over the 13 shifts finds every such match with i <= k, one einsum
    forms V_k[s] V_i[t]^dag for all of them, and a sum over each run of
    equal (k, i) gives the blocks.
    """
    stages = len(stencil)
    owner = np.full((stencil.max() + 1, 13), -1, dtype=np.intp)
    owner[stencil, np.arange(13)] = np.arange(stages)[:, None]
    partner = owner[stencil]
    k, s, t = np.nonzero((partner >= 0) & (partner <= np.arange(stages)[:, None, None]))
    i = partner[k, s, t]
    products = np.einsum("pab,pcb->pac", rows[k, s], rows[i, t].conj())
    key = k * stages + i
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    blocks = np.add.reduceat(products[order], first, axis=0)
    stage_ptr = np.searchsorted(key[first] // stages, np.arange(stages + 1))
    return RowGram(stage_ptr, key[first] % stages, blocks)


@dataclass
class StageDiagnostics:
    """Conditioning, support and wall time of one stage.

    rcond is the eigenvalue ratio of the stage's pivot D_k = R_kk R_kk^dag.
    gram_asymmetry is the largest imaginary part of the real-basis
    coefficients of the stage's diagonal block of its slice's Schur
    complement, before the Cholesky: every basis matrix is Hermitian, so
    it measures how far rounding left that block from Hermitian.
    support_size counts the window sites that the stencils of stages 0..k
    reach.  elapsed is the stage's equal share of its slice's time.
    """

    stage: int
    site: Site
    rcond: float
    gram_asymmetry: float
    support_size: int
    elapsed: float


def _adjoint_times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a^dag v without a conjugated copy of a."""
    return (v.conj().T @ a).conj().T


def _pivot_rconds(diagonal: np.ndarray) -> np.ndarray:
    """Eigenvalue ratio of each pivot D = R_kk R_kk^dag, NaN where R_kk is not finite."""
    finite = np.isfinite(diagonal).all(axis=(1, 2))
    blocks = np.where(finite[:, None, None], diagonal, np.eye(4))
    values = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1))
    return np.where(finite, values[:, 0] / values[:, -1], np.nan)


def _blocks(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) diagonal 4x4 blocks of a (4n, 4n) matrix."""
    n = a.shape[0] // 4
    return a.reshape(n, 4, n, 4)[np.arange(n), :, np.arange(n)]


class ProjectorAccumulator:
    """Slice-by-slice builder of the projector onto the processed rows.

    The slices are the runs of equal n4 in the time-major schedule, slice t
    holding stages slice_ptr[t]:slice_ptr[t + 1].  Slice t is factored in
    one step: its row Gram blocks are scattered into dense G_tt and the
    band G_t,t-1, G_t,t-2; the band blocks of the factor are
    R_tj = (G_tj - sum_{i<j} R_ti R_ji^dag) W_j^dag with W_j = R_jj^-1;
    the Schur complement S_t = G_tt - sum_j R_tj R_tj^dag is factored by one
    Cholesky, S_t = R_tt R_tt^dag.  Blocks further than two slices away
    stay zero, so the band never fills.  Per slice, inverses[t] holds the
    lower-triangular W_t and bands[t] the band blocks [R_t,t-2 | R_t,t-1]
    as one (4n_t, 4(n_t-2 + n_t-1)) panel.

    In terms of the block LDL^dag factorization G = U D U^dag with U block
    unit-lower, U = R blockdiag(R_kk)^-1 and D_k = R_kk R_kk^dag, so the
    stage cores are A_k = (R_kk R_kk^dag)^-1.  The leading stages of a
    Cholesky factor are the Cholesky factor of the leading block, so
    run(stages=k) factors only the leading part of the slice it stops in.
    The row coefficients of the whole schedule are built once, as one
    (K, 13, 4, 4) stack.  The overlaps come from the block-sparse row Gram
    (gram), built from that stack on first use, so a restored accumulator
    that only applies the projector never builds it.
    """

    def __init__(
        self,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        *,
        rcond_min: float = 1e-10,
    ):
        self.tables = FieldTables(f, p)
        self.window = window
        self.schedule = make_schedule(window)
        self.rcond_min = rcond_min
        self.diagnostics: list[StageDiagnostics] = []
        self.stages_done = 0

        stages = len(self.schedule)
        self.slice_ptr = self.slice_bounds(self.schedule)
        self.inverses: list[np.ndarray] = []
        self.bands: list[np.ndarray] = []
        self.rconds = np.zeros(stages)
        self._gram: RowGram | None = None
        # row k of the stencil table holds the window indices of m_k + s over the 13 shifts
        self._sites = window.points()
        index = {site: i for i, site in enumerate(self._sites)}
        self._stencil = np.array(
            [[index[site_add(m, s)] for s in SHIFTS_S13] for m in self.schedule], dtype=np.intp
        )
        self._rows = self.tables.rows(self.schedule)
        # the first stage whose stencil reaches each window site (stages if none does)
        self._first_cover = np.full(len(self._sites), stages)
        np.minimum.at(self._first_cover, self._stencil, np.arange(stages)[:, None])
        self._support = np.cumsum(np.bincount(self._first_cover, minlength=stages + 1))[:stages]

    @classmethod
    def from_factors(
        cls,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        inverses: list[np.ndarray],
        bands: list[np.ndarray],
        rconds: np.ndarray,
    ) -> "ProjectorAccumulator":
        """Accumulator whose first len(rconds) stages are restored from their slice factors.

        inverses[t] and bands[t] are W_t and the band panel of slice t, the
        last one cut to the restored stages, and rconds[k] the recorded
        rcond of stage k.
        """
        acc = cls(f, p, window)
        acc.inverses = list(inverses)
        acc.bands = list(bands)
        acc.stages_done = len(rconds)
        acc.rconds[: len(rconds)] = rconds
        return acc

    @staticmethod
    def slice_bounds(schedule: list[Site]) -> np.ndarray:
        """slice_ptr of a time-major schedule: slice t is stages slice_ptr[t]:slice_ptr[t + 1]."""
        n4 = np.array([m[3] for m in schedule])
        return np.flatnonzero(np.diff(n4, prepend=n4[0] - 1, append=n4[-1] + 1))

    @property
    def coupling_count(self) -> int:
        """Stored off-diagonal 4x4 blocks: the strictly lower W_t blocks and the band blocks."""
        total = 0
        for inverse, band in zip(self.inverses, self.bands):
            n = inverse.shape[0] // 4
            total += n * (n - 1) // 2 + n * band.shape[1] // 4
        return total

    @property
    def gram(self) -> RowGram:
        """Row Gram blocks of the whole schedule, built on first use."""
        if self._gram is None:
            self._gram = build_row_gram(self._rows, self._stencil)
        return self._gram

    def processed_sites(self) -> list[Site]:
        return self.schedule[: self.stages_done]

    def _gram_panel(self, low: int, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of G over columns low:stop, dense, as (4(stop - start), 4(stop - low)).

        The diagonal part G[start:stop, start:stop] is filled in full: its
        strictly lower blocks are mirrored to the upper half.
        """
        gram = self.gram
        span = slice(gram.stage_ptr[start], gram.stage_ptr[stop])
        rows = np.repeat(np.arange(stop - start), np.diff(gram.stage_ptr[start : stop + 1]))
        cols = gram.partner[span] - low
        blocks = gram.blocks[span]
        offset = start - low
        panel = np.zeros((stop - start, stop - low, 4, 4), dtype=complex)
        panel[rows, cols] = blocks
        mirror = (cols >= offset) & (cols - offset < rows)
        panel[cols[mirror] - offset, rows[mirror] + offset] = blocks[mirror].conj().transpose(0, 2, 1)
        return panel.transpose(0, 2, 1, 3).reshape(4 * (stop - start), 4 * (stop - low))

    def _factor_slice(self, t: int, stop: int) -> None:
        """Factor stages slice_ptr[t]:stop of slice t and record them.

        Raises StageSingular at the first stage whose pivot is not
        positive definite or has rcond below rcond_min, after recording the
        stages before it.
        """
        started = time.perf_counter()
        ptr = self.slice_ptr
        start, low = ptr[t], ptr[max(t - 2, 0)]
        panel = self._gram_panel(low, start, stop)
        width = 4 * (start - low)
        band = panel[:, :width].copy()
        second = 4 * (ptr[t - 1] - low) if t else 0  # columns of slice t - 2
        if t >= 2:
            band[:, :second] = band[:, :second] @ self.inverses[t - 2].conj().T
            band[:, second:] -= band[:, :second] @ self.bands[t - 1][:, -second:].conj().T
        if t >= 1:
            band[:, second:] = band[:, second:] @ self.inverses[t - 1].conj().T
        schur = panel[:, width:] - band @ band.conj().T
        asymmetry = np.abs(dset_from_matrix(_blocks(schur)).imag).max(axis=1)

        try:
            factor = np.linalg.cholesky(schur)
            failed = None
        except np.linalg.LinAlgError:
            factor, failed = self._leading_factor(schur)
        rconds = _pivot_rconds(_blocks(factor))
        bad = np.flatnonzero(~(rconds >= self.rcond_min))
        if bad.size:
            failed = (int(bad[0]), float(rconds[bad[0]]))
        keep = factor.shape[0] // 4 if failed is None else failed[0]

        done = self.stages_done
        if keep:
            self.inverses[t:] = [np.tril(np.linalg.inv(factor[: 4 * keep, : 4 * keep]))]
            self.bands[t:] = [band[: 4 * keep]]
        self.rconds[done : start + keep] = rconds[done - start : keep]
        self.stages_done = start + keep
        share = (time.perf_counter() - started) / (stop - start)
        for k in range(done, start + keep):
            self.diagnostics.append(
                StageDiagnostics(
                    stage=k,
                    site=self.schedule[k],
                    rcond=float(self.rconds[k]),
                    gram_asymmetry=float(asymmetry[k - start]),
                    support_size=int(self._support[k]),
                    elapsed=share,
                )
            )
        if failed is not None:
            k = start + failed[0]
            raise StageSingular(k, self.schedule[k], failed[1])

    @staticmethod
    def _leading_factor(schur: np.ndarray) -> tuple[np.ndarray, tuple[int, float]]:
        """Cholesky factor of the longest leading block of schur that has one.

        Bisects over the leading stage blocks; returns that factor and
        (stage, rcond) of the first stage past it, whose pivot, the Schur
        complement of the leading block, is not positive definite.
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
        coupling = schur[edge, : 4 * good] @ np.linalg.inv(factor).conj().T
        pivot = schur[edge, edge] - coupling @ coupling.conj().T
        try:
            values = np.linalg.eigvalsh(pivot)
        except np.linalg.LinAlgError:  # a non-finite pivot may not converge
            return factor, (good, float("nan"))
        # zero or negative for a pivot that is not positive definite
        with np.errstate(invalid="ignore", divide="ignore"):
            return factor, (good, float(values[0] / np.abs(values).max()))

    def run(self, stages: int | None = None) -> "ProjectorAccumulator":
        """Process the whole schedule (or its first `stages` entries)."""
        target = len(self.schedule) if stages is None else stages
        while self.stages_done < target:
            t = int(np.searchsorted(self.slice_ptr, self.stages_done, side="right")) - 1
            self._factor_slice(t, min(self.slice_ptr[t + 1], target))
        return self

    def solve_lower(self, y: np.ndarray) -> np.ndarray:
        """R^-1 y for y over the rows of the processed stages: forward substitution by slices."""
        z = np.empty_like(y, dtype=complex)
        for t, (inverse, band) in enumerate(zip(self.inverses, self.bands)):
            start, low = 4 * self.slice_ptr[t], 4 * self.slice_ptr[max(t - 2, 0)]
            stop = start + inverse.shape[0]
            z[start:stop] = inverse @ (y[start:stop] - band @ z[low:start])
        return z

    def solve_upper(self, z: np.ndarray) -> np.ndarray:
        """R^-dag z for z over the rows of the processed stages: back substitution by slices."""
        rhs = np.array(z, dtype=complex)
        u = np.empty_like(rhs)
        for t in reversed(range(len(self.inverses))):
            inverse, band = self.inverses[t], self.bands[t]
            start, low = 4 * self.slice_ptr[t], 4 * self.slice_ptr[max(t - 2, 0)]
            stop = start + inverse.shape[0]
            u[start:stop] = _adjoint_times(inverse, rhs[start:stop])
            rhs[low:start] -= _adjoint_times(band, u[start:stop])
        return u

    def apply_projector(self, c: Multispinor) -> Multispinor:
        """Accumulated projector applied to c: the processed-row component.

        P c = V^dag R^-dag R^-1 V c, returned on the sites the processed
        stencils reach; entries of c outside the window do not enter.
        """
        k = self.stages_done
        if k == 0:
            return Multispinor()
        stencil = self._stencil[:k]
        x = np.array([c[site] for site in self._sites])
        rows = self._rows[:k]
        y = np.einsum("ksab,ksb->ka", rows, x[stencil])
        u = self.solve_upper(self.solve_lower(y.ravel())).reshape(k, 4)
        out = np.zeros_like(x)
        np.add.at(out, stencil, np.einsum("ksba,kb->ksa", rows.conj(), u))
        covered = np.flatnonzero(self._first_cover < k)
        return Multispinor({self._sites[i]: out[i] for i in covered})

    def apply_fundamental(self, c: Multispinor) -> Multispinor:
        """c minus its processed-row component: a solution of processed rows."""
        return c - self.apply_projector(c)


def residual_table(
    c: Multispinor, tables: FieldTables, sites: list[Site]
) -> list[tuple[Site, float]]:
    """Row residuals over the given sites, with c extended by zero."""
    x = np.array([[c[site_add(n, s)] for s in SHIFTS_S13] for n in sites], dtype=complex)
    rows = np.einsum("nsab,nsb->na", tables.rows(sites), x.reshape(len(sites), 13, 4))
    return list(zip(sites, np.linalg.norm(rows, axis=1).tolist()))
