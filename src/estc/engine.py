"""Recurrent construction of the system projector on a truncated window.

Row n of the coupled system reads sum_s V(n,s) c(n+s) = 0.  Packing the
four scalar rows at site n into the rank-4 Hermitian block

    P(n): c'(m') = V(n, m'-n)^dag a(n) sum_s V(n,s) c(n+s),

the full system becomes P(n)C = 0 for all n.  The accumulator processes
one scheduled site per stage and maintains the projector onto the span of
all processed rows as a sum of mutually orthogonal rank-4 blocks

    rho_k: c'(m') = Phi_k(m')^dag A_k sum_n' Phi_k(n') c(n'),

where Phi_k are the row coefficients of stage k after subtracting its
projection onto all earlier stages, expressed through stage-to-stage
coupling matrices C_kj, and A_k is the inverse of the deflated Gram matrix
L(m) - G_k(m).  The pseudoinversion behind the orthogonalization thus
reduces to inverting one 4x4 matrix per stage; a singular one means the
new row is linearly dependent on the processed subspace and aborts the
stage with diagnostics.

The projector is kept and applied in factored form only: with V the row
coefficients and L = I - C, it is P = V^dag L^dag A L V, so Phi_k is never
formed.  The complement U - P maps any seed multispinor onto the solution
subspace of the processed rows; residuals of unprocessed rows measure the
truncation error of the window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dirac_basis import dset_from_matrix, matrix_from_dset
from .errors import StageSingular
from .field import (
    DimensionlessParams,
    FieldConfig,
    a_matrix,
    l_matrix,
    v_coupling,
    validate,
)
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

    def dense(self, k: int) -> np.ndarray:
        """G over the first k stages, the upper half mirrored from the lower."""
        end = self.stage_ptr[k]
        rows = np.repeat(np.arange(k), np.diff(self.stage_ptr[: k + 1]))
        cols = self.partner[:end]
        gram = np.zeros((k, 4, k, 4), dtype=complex)
        gram[cols, :, rows, :] = self.blocks[:end].conj().transpose(0, 2, 1)
        gram[rows, :, cols, :] = self.blocks[:end]
        return gram.reshape(4 * k, 4 * k)


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

    support_size counts the window sites that the stencils of stages 0..k
    reach, the support of Phi_k.  elapsed is the stage total; the four
    phase times split it into the overlap gather (for stage 0 also the
    build of the row Gram blocks), the D/C coupling products, the Gram
    deflation with the core inversion, and the store of the new factor row
    and core.
    """

    stage: int
    site: Site
    rcond: float
    gram_asymmetry: float
    support_size: int
    elapsed: float
    gather_s: float
    coupling_s: float
    inversion_s: float
    assembly_s: float


class ProjectorAccumulator:
    """Stage-by-stage builder of the projector onto the processed rows.

    The stages form a block LDL^dag factorization of the row Gram matrix
    G = V V^dag in schedule order: L G L^dag = blockdiag(A_k^-1), where
    row k of the block-lower-triangular factor L = I - C holds the
    couplings of stage k to every earlier stage and A_k is the stage core.
    The row coefficients of stage k are Phi_k = sum_j L_kj V_j, and the
    projector onto the processed rows is P = V^dag L^dag A L V.

    factor holds L as one (4K, 4K) array, cores the A_k as one (K, 4, 4)
    array and core_dsets their real basis coefficients, all preallocated
    for the K scheduled stages.  Every stage is a few dense products over
    them, and its only inversion is the Hermitian eigendecomposition of a
    single 4x4 matrix.  Couplings to all earlier stages are kept (quadratic
    memory in the stage count, capped by lattice.MAX_STAGES).  The row
    coefficients of the whole schedule are built once, as one (K, 13, 4, 4)
    stack.  The overlaps come from the block-sparse row Gram (gram), built
    from that stack on first use, so a restored accumulator that only
    applies the projector never builds it.
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
        self.factor = np.zeros((4 * stages, 4 * stages), dtype=complex)
        self.cores = np.zeros((stages, 4, 4), dtype=complex)
        self.core_dsets = np.zeros((stages, 16))
        self.rconds = np.zeros(stages)
        self._gram: RowGram | None = None
        # row k of the stencil table holds the window indices of m_k + s over the 13 shifts
        self._sites = window.points()
        index = {site: i for i, site in enumerate(self._sites)}
        self._stencil = np.array(
            [[index[site_add(m, s)] for s in SHIFTS_S13] for m in self.schedule], dtype=np.intp
        )
        self._rows = self.tables.rows(self.schedule)
        self._covered = np.zeros(len(self._sites), dtype=bool)

    @classmethod
    def from_factors(
        cls,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        couplings: list[np.ndarray],
        core_dsets: np.ndarray,
        rconds: np.ndarray,
    ) -> "ProjectorAccumulator":
        """Accumulator whose first len(couplings) stages are restored from their factors.

        couplings[k] is the (4, 4k) block row -C_k of L, core_dsets[k] the
        real coefficients of A_k and rconds[k] the stage's recorded rcond.
        """
        acc = cls(f, p, window)
        for k, (row, core_dset, rcond) in enumerate(zip(couplings, core_dsets, rconds)):
            acc._store(k, row, core_dset, rcond)
        return acc

    @property
    def coupling_count(self) -> int:
        """Stored coupling matrices C_kj, one per pair of processed stages."""
        k = self.stages_done
        return k * (k - 1) // 2

    @property
    def gram(self) -> RowGram:
        """Row Gram blocks of the whole schedule, built on first use."""
        if self._gram is None:
            self._gram = build_row_gram(self._rows, self._stencil)
        return self._gram

    def processed_sites(self) -> list[Site]:
        return self.schedule[: self.stages_done]

    def _store(self, k: int, l_row: np.ndarray, core_dset: np.ndarray, rcond: float) -> None:
        """Record stage k: block row k of L, its core, and its rcond."""
        self.factor[4 * k : 4 * k + 4, : 4 * k] = l_row
        self.factor[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = np.eye(4)
        self.core_dsets[k] = core_dset
        self.cores[k] = matrix_from_dset(core_dset)
        self.rconds[k] = rcond
        self._covered[self._stencil[k]] = True
        self.stages_done = k + 1

    def stage_step(self) -> StageDiagnostics:
        """Process the next scheduled site and record its factor row and core."""
        k = self.stages_done
        if k >= len(self.schedule):
            raise IndexError("schedule exhausted")
        started = time.perf_counter()
        m = self.schedule[k]
        f, p = self.tables.field, self.tables.params
        factor = self.factor

        # overlaps N(m, m_i) with the coupled earlier stages i: the row
        # Gram blocks of stage k without its last, diagonal one
        gram = self.gram
        first, diagonal = gram.stage_ptr[k], gram.stage_ptr[k + 1] - 1
        coupled = gram.partner[first:diagonal]
        cols = (4 * coupled[:, None] + np.arange(4)).ravel()
        n_c = gram.blocks[first:diagonal].transpose(1, 0, 2).reshape(4, -1)
        gathered = time.perf_counter()

        # <V_k, Phi_j> = sum_i N(m, m_i) L_ji^dag; D_kj = <V_k, Phi_j> A_j;
        # C_k = D L, the expansion of the projected row over the bare rows
        g = n_c @ factor[: 4 * k, cols].conj().T
        d = (g.reshape(4, k, 4).transpose(1, 0, 2) @ self.cores[:k]).transpose(1, 0, 2)
        c_row = d.reshape(4, 4 * k) @ factor[: 4 * k, : 4 * k]
        coupled_at = time.perf_counter()

        # deflated Gram matrix and its inverse, both with real coefficients;
        # every basis matrix is Hermitian, so real coefficients make the
        # Gram Hermitian and one eigendecomposition gives rcond and A_k
        gram_deflation = c_row[:, cols] @ n_c.conj().T
        deflation_dset = dset_from_matrix(gram_deflation)
        asymmetry = float(np.max(np.abs(deflation_dset.imag))) if k else 0.0
        gram_dset = l_matrix(m, f, p) - deflation_dset.real
        try:
            values, vectors = np.linalg.eigh(matrix_from_dset(gram_dset))
        except np.linalg.LinAlgError:  # a non-finite Gram may not converge
            raise StageSingular(k, m, float("nan")) from None
        magnitudes = np.abs(values)
        rcond = float(magnitudes.min() / magnitudes.max())
        if not rcond >= self.rcond_min:  # NaN eigenvalues fail too
            raise StageSingular(k, m, rcond)
        if k == 0:
            core_dset = a_matrix(m, f, p)
        else:
            core_dset = dset_from_matrix((vectors / values) @ vectors.conj().T).real
        inverted = time.perf_counter()

        self._store(k, -c_row, core_dset, rcond)
        done = time.perf_counter()
        diag = StageDiagnostics(
            stage=k,
            site=m,
            rcond=rcond,
            gram_asymmetry=asymmetry,
            support_size=int(np.count_nonzero(self._covered)),
            elapsed=done - started,
            gather_s=gathered - started,
            coupling_s=coupled_at - gathered,
            inversion_s=inverted - coupled_at,
            assembly_s=done - inverted,
        )
        self.diagnostics.append(diag)
        return diag

    def run(self, stages: int | None = None) -> "ProjectorAccumulator":
        """Process the whole schedule (or its first `stages` entries)."""
        target = len(self.schedule) if stages is None else stages
        while self.stages_done < target:
            self.stage_step()
        return self

    def trace(self) -> float:
        """tr P = sum_k tr(A_k (L G L^dag)_kk), computed from the factors."""
        k = self.stages_done
        if k == 0:
            return 0.0
        lower = self.factor[: 4 * k, : 4 * k]
        left = (lower @ self.gram.dense(k)).reshape(k, 4, 4 * k)
        diagonal = np.einsum("kai,kbi->kab", left, lower.conj().reshape(k, 4, 4 * k))
        return float(np.einsum("kab,kba->", self.cores[:k], diagonal).real)

    def apply_projector(self, c: Multispinor) -> Multispinor:
        """Accumulated projector applied to c: the processed-row component.

        P c = V^dag L^dag A L V c, returned on the sites the processed
        stencils reach; entries of c outside the window do not enter.
        """
        k = self.stages_done
        if k == 0:
            return Multispinor()
        stencil = self._stencil[:k]
        x = np.array([c[site] for site in self._sites])
        rows = self._rows[:k]
        lower = self.factor[: 4 * k, : 4 * k]
        y = np.einsum("ksab,ksb->ka", rows, x[stencil])
        z = (lower @ y.ravel()).reshape(k, 4)
        w = np.einsum("kab,kb->ka", self.cores[:k], z)
        u = (lower.conj().T @ w.ravel()).reshape(k, 4)
        out = np.zeros_like(x)
        np.add.at(out, stencil, np.einsum("ksba,kb->ksa", rows.conj(), u))
        return Multispinor({self._sites[i]: out[i] for i in np.flatnonzero(self._covered)})

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
