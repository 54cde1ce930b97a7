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

from .dirac_basis import dset_from_matrix, dset_inverse, matrix_from_dset
from .errors import CouplingLimitExceeded, NotInterior, SingularMatrix, StageSingular
from .field import (
    DimensionlessParams,
    FieldConfig,
    a_matrix,
    l_matrix,
    v_coupling,
    validate,
)
from .lattice import SHIFTS_S13, Site, Window, coupled_sites, make_schedule, site_add, site_sub
from .multispinor import Multispinor


def _matched_shift_pairs() -> dict[Site, tuple[np.ndarray, np.ndarray]]:
    """Stencil index pairs (i, j) with d + s_i = s_j, for each difference d = m - n.

    Rows m and n share the column m + s_i = n + s_j exactly for these pairs.
    """
    pairs: dict[Site, tuple[list[int], list[int]]] = {}
    for i, s in enumerate(SHIFTS_S13):
        for j, other in enumerate(SHIFTS_S13):
            left, right = pairs.setdefault(site_sub(other, s), ([], []))
            left.append(i)
            right.append(j)
    return {d: (np.array(i), np.array(j)) for d, (i, j) in pairs.items()}


_SHIFT_PAIRS = _matched_shift_pairs()


class FieldTables:
    """Per-site caches of coupling stacks, Gram rows, and overlaps.

    The twelve field-shift coupling matrices are site-independent, so only
    the zero-shift matrix is rebuilt per site.  All entries behave as pure
    functions of (field, params, site).
    """

    def __init__(self, f: FieldConfig, p: DimensionlessParams):
        validate(f, p)
        self.field = f
        self.params = p
        self._field_v = np.stack(
            [matrix_from_dset(v_coupling((0, 0, 0, 0), s, f, p)) for s in SHIFTS_S13[1:]]
        )
        self._v: dict[Site, np.ndarray] = {}
        self._l: dict[Site, np.ndarray] = {}
        self._a: dict[Site, np.ndarray] = {}
        self._overlap: dict[tuple[Site, Site], np.ndarray] = {}

    def v_stack(self, n: Site) -> np.ndarray:
        """(13, 4, 4) coupling matrices of row n, in stencil shift order."""
        out = self._v.get(n)
        if out is None:
            v0 = matrix_from_dset(v_coupling(n, (0, 0, 0, 0), self.field, self.params))
            out = np.concatenate([v0[None], self._field_v])
            out.setflags(write=False)
            self._v[n] = out
        return out

    def l_dset(self, n: Site) -> np.ndarray:
        out = self._l.get(n)
        if out is None:
            out = l_matrix(n, self.field, self.params)
            out.setflags(write=False)
            self._l[n] = out
        return out

    def a_dset(self, n: Site) -> np.ndarray:
        out = self._a.get(n)
        if out is None:
            out = a_matrix(n, self.field, self.params)
            out.setflags(write=False)
            self._a[n] = out
        return out

    def overlap(self, m: Site, n: Site) -> np.ndarray:
        """Dense N(m,n), cached together with its conjugate transpose."""
        key = (m, n)
        out = self._overlap.get(key)
        if out is None:
            pairs = _SHIFT_PAIRS.get(site_sub(m, n))
            if pairs is None:
                out = np.zeros((4, 4), dtype=complex)
            else:
                i, j = pairs
                out = np.einsum("kab,kcb->ac", self.v_stack(m)[i], self.v_stack(n)[j].conj())
            out.setflags(write=False)
            self._overlap[key] = out
            transposed = out.conj().T.copy()
            transposed.setflags(write=False)
            self._overlap[(n, m)] = transposed
        return out


@dataclass
class StageDiagnostics:
    """Conditioning, support and wall time of one stage.

    support_size counts the window sites that the stencils of stages 0..k
    reach, the support of Phi_k.  elapsed is the stage total; the four
    phase times split it into the overlap gather, the D/C coupling
    products, the Gram deflation with the core inversion, and the store of
    the new factor row and core.
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
    them, and its only inversion is a single 4x4 matrix.  Couplings to all
    earlier stages are kept (quadratic memory in the stage count, capped by
    max_couplings); overlaps are gathered only for earlier sites within
    coupling distance 2, the others vanish.
    """

    def __init__(
        self,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        schedule: list[Site] | None = None,
        *,
        rcond_min: float = 1e-10,
        max_couplings: int = 500_000,
    ):
        self.tables = FieldTables(f, p)
        self.window = window
        if schedule is None:
            schedule = make_schedule(window)
        else:
            schedule = list(schedule)
            seen = set()
            for site in schedule:
                if not window.interior(site):
                    raise NotInterior(f"scheduled site {site} is not interior to the window")
                if site in seen:
                    raise ValueError(f"site {site} appears twice in the schedule")
                seen.add(site)
        self.schedule = schedule
        self.rcond_min = rcond_min
        self.max_couplings = max_couplings
        self.diagnostics: list[StageDiagnostics] = []
        self.stages_done = 0

        stages = len(schedule)
        self.factor = np.zeros((4 * stages, 4 * stages), dtype=complex)
        self.cores = np.zeros((stages, 4, 4), dtype=complex)
        self.core_dsets = np.zeros((stages, 16))
        self.rconds = np.zeros(stages)
        self._stage_of = {site: k for k, site in enumerate(schedule)}
        # window sites in lexicographic order; row k of the stencil table
        # holds the indices of m_k + s over the 13 shifts
        self._sites = sorted(window.points())
        index = {site: i for i, site in enumerate(self._sites)}
        self._stencil = np.array(
            [[index[site_add(m, s)] for s in SHIFTS_S13] for m in schedule], dtype=np.intp
        )
        self._covered = np.zeros(len(self._sites), dtype=bool)

    @classmethod
    def from_factors(
        cls,
        f: FieldConfig,
        p: DimensionlessParams,
        window: Window,
        schedule: list[Site],
        couplings: list[np.ndarray],
        core_dsets: np.ndarray,
        rconds: np.ndarray,
    ) -> "ProjectorAccumulator":
        """Accumulator whose first len(couplings) stages are restored from their factors.

        couplings[k] is the (4, 4k) block row -C_k of L, core_dsets[k] the
        real coefficients of A_k and rconds[k] the stage's recorded rcond.
        """
        acc = cls(f, p, window, schedule)
        for k, (row, core_dset, rcond) in enumerate(zip(couplings, core_dsets, rconds)):
            acc._store(k, row, core_dset, rcond)
        return acc

    @property
    def coupling_count(self) -> int:
        """Stored coupling matrices C_kj, one per pair of processed stages."""
        k = self.stages_done
        return k * (k - 1) // 2

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
        if self.coupling_count + k > self.max_couplings:
            raise CouplingLimitExceeded(
                f"stage {k} needs {self.coupling_count + k} coupling matrices, "
                f"cap is {self.max_couplings}"
            )
        started = time.perf_counter()
        m = self.schedule[k]
        tables = self.tables
        factor = self.factor

        # overlaps N(m, m_i) with the coupled earlier stages i
        stages = (self._stage_of.get(site) for site in coupled_sites(m))
        coupled = sorted(i for i in stages if i is not None and i < k)
        cols = (4 * np.array(coupled, dtype=np.intp)[:, None] + np.arange(4)).ravel()
        overlaps = [tables.overlap(m, self.schedule[i]) for i in coupled]
        n_c = np.concatenate(overlaps, axis=1) if overlaps else np.zeros((4, 0), dtype=complex)
        gathered = time.perf_counter()

        # <V_k, Phi_j> = sum_i N(m, m_i) L_ji^dag; D_kj = <V_k, Phi_j> A_j;
        # C_k = D L, the expansion of the projected row over the bare rows
        g = n_c @ factor[: 4 * k, cols].conj().T
        d = (g.reshape(4, k, 4).transpose(1, 0, 2) @ self.cores[:k]).transpose(1, 0, 2)
        c_row = d.reshape(4, 4 * k) @ factor[: 4 * k, : 4 * k]
        coupled_at = time.perf_counter()

        # deflated Gram matrix and its inverse, both with real coefficients
        gram_deflation = c_row[:, cols] @ n_c.conj().T
        deflation_dset = dset_from_matrix(gram_deflation)
        asymmetry = float(np.max(np.abs(deflation_dset.imag))) if k else 0.0
        gram_dset = tables.l_dset(m) - deflation_dset.real
        gram_dense = matrix_from_dset(gram_dset)
        singular_values = np.linalg.svd(gram_dense, compute_uv=False)
        rcond = float(singular_values[-1] / singular_values[0])
        if rcond < self.rcond_min:
            raise StageSingular(k, m, rcond)
        if k == 0:
            core_dset = tables.a_dset(m)
        else:
            try:
                core_dset = dset_inverse(gram_dset).real
            except SingularMatrix:
                raise StageSingular(k, m, rcond) from None
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

    def _row_gram(self) -> np.ndarray:
        """G = V V^dag over the processed rows, assembled from the row overlaps."""
        k = self.stages_done
        gram = np.zeros((4 * k, 4 * k), dtype=complex)
        for j, m in enumerate(self.processed_sites()):
            for site in coupled_sites(m):
                i = self._stage_of.get(site)
                if i is not None and i < k:
                    gram[4 * j : 4 * j + 4, 4 * i : 4 * i + 4] = self.tables.overlap(m, site)
        return gram

    def trace(self) -> float:
        """tr P = sum_k tr(A_k (L G L^dag)_kk), computed from the factors."""
        k = self.stages_done
        lower = self.factor[: 4 * k, : 4 * k]
        left = (lower @ self._row_gram()).reshape(k, 4, 4 * k)
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
        rows = np.stack([self.tables.v_stack(m) for m in self.processed_sites()])
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
    out = []
    for n in sites:
        stack = tables.v_stack(n)
        row = np.zeros(4, dtype=complex)
        for i, s in enumerate(SHIFTS_S13):
            neighbor = site_add(n, s)
            if neighbor in c:
                row += stack[i] @ c[neighbor]
        out.append((n, float(np.linalg.norm(row))))
    return out
