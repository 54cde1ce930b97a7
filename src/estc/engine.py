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

The complement U - P of the accumulated projector maps any seed
multispinor onto the solution subspace of the processed rows; residuals of
unprocessed rows measure the truncation error of the window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

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
from .lattice import SHIFTS_S13, Site, Window, coupled_sites, make_schedule, site_add
from .multispinor import Multispinor


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
        self._shift_index = {s: i for i, s in enumerate(SHIFTS_S13)}
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
            diff = tuple(a - b for a, b in zip(m, n))
            out = np.zeros((4, 4), dtype=complex)
            vm = self.v_stack(m)
            vn = self.v_stack(n)
            for i, s in enumerate(SHIFTS_S13):
                other = (diff[0] + s[0], diff[1] + s[1], diff[2] + s[2], diff[3] + s[3])
                j = self._shift_index.get(other)
                if j is not None:
                    out += vm[i] @ vn[j].conj().T
            out.setflags(write=False)
            self._overlap[key] = out
            transposed = out.conj().T.copy()
            transposed.setflags(write=False)
            self._overlap[(n, m)] = transposed
        return out


@dataclass
class OperatorBlock:
    """One rank-4 Hermitian term of the accumulated projector.

    core_dset holds the 16 real basis coefficients of the stage core;
    stack[i] is the 4x4 row-coefficient matrix Phi(sites[i]), with the
    support sites in lexicographic order.
    """

    site: Site
    core_dset: np.ndarray
    sites: list[Site]
    stack: np.ndarray
    stage: int | None = None

    @classmethod
    def from_phi(
        cls,
        site: Site,
        core_dset: np.ndarray,
        phi: dict[Site, np.ndarray],
        stage: int | None = None,
    ) -> "OperatorBlock":
        """Block from a site -> Phi(site) mapping."""
        sites = sorted(phi)
        return cls(site, core_dset, sites, np.stack([phi[s] for s in sites]), stage)

    @cached_property
    def core(self) -> np.ndarray:
        return matrix_from_dset(self.core_dset)

    @cached_property
    def phi(self) -> dict[Site, np.ndarray]:
        """Each support site mapped to its row of the stack (views, not copies)."""
        return dict(zip(self.sites, self.stack))

    def support(self) -> list[Site]:
        return list(self.sites)

    def row_contraction(self, c: Multispinor) -> np.ndarray:
        """sum_n' Phi(n') c(n'), the 4-vector this block sees in c."""
        gathered = np.stack([c[s] for s in self.sites])
        return np.einsum("sij,sj->i", self.stack, gathered)

    def apply(self, c: Multispinor, out: Multispinor | None = None) -> Multispinor:
        """Accumulate (this block) @ c into out."""
        if out is None:
            out = Multispinor()
        y = self.core @ self.row_contraction(c)
        scattered = np.einsum("sij,i->sj", self.stack.conj(), y)
        for site, value in zip(self.sites, scattered):
            out.add_to(site, value)
        return out

    def component(self, m_prime: Site, n_prime: Site) -> np.ndarray:
        """4x4 component block between two sites; zero outside support."""
        left = self.phi.get(m_prime)
        right = self.phi.get(n_prime)
        if left is None or right is None:
            return np.zeros((4, 4), dtype=complex)
        return left.conj().T @ self.core @ right

    def trace(self) -> float:
        gram = np.einsum("sij,skj->ik", self.stack, self.stack.conj())
        return float(np.trace(self.core @ gram).real)


def bare_block(
    n: Site,
    tables: FieldTables,
    window: Window | None = None,
    stage: int | None = None,
) -> OperatorBlock:
    """The single-row projector P(n): core a(n), rows V(n,s) on the stencil."""
    if window is not None and not window.interior(n):
        raise NotInterior(f"site {n} has stencil neighbors outside the window")
    stack = tables.v_stack(n)
    phi = {site_add(n, s): stack[i] for i, s in enumerate(SHIFTS_S13)}
    return OperatorBlock.from_phi(n, tables.a_dset(n), phi, stage)


@dataclass
class StageDiagnostics:
    """Conditioning, support and wall time of one stage.

    elapsed is the stage total; the four phase times split it into the
    overlap gather, the D/C coupling products, the Gram deflation with the
    core inversion, and the Phi assembly.
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
    The row coefficients of stage k are Phi_k = sum_j L_kj V_j.

    factor holds L as one (4K, 4K) array and cores the A_k as one (K, 4, 4)
    array, both preallocated for the K scheduled stages.  Every stage is a
    few dense products over them, and its only inversion is a single 4x4
    matrix.  Couplings to all earlier stages are kept (quadratic memory in
    the stage count, capped by max_couplings); overlaps are gathered only
    for earlier sites within coupling distance 2, the others vanish.
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
        self.blocks: list[OperatorBlock] = []
        self.diagnostics: list[StageDiagnostics] = []

        stages = len(schedule)
        self.factor = np.zeros((4 * stages, 4 * stages), dtype=complex)
        self.cores = np.zeros((stages, 4, 4), dtype=complex)
        self._stage_of = {site: k for k, site in enumerate(schedule)}
        # Phi_k is scattered over the window sites in lexicographic order:
        # entry (j, a, s, c, re/im) of the products L_kj V_j(s) lands on
        # float 32 w + 8 a + 2 c + re/im, where w is the index of m_j + s
        self._sites = sorted(window.points())
        index = {site: i for i, site in enumerate(self._sites)}
        stencil = np.array(
            [[index[site_add(m, s)] for s in SHIFTS_S13] for m in schedule], dtype=np.intp
        )
        self._stencil = stencil
        offsets = (8 * np.arange(4))[:, None] + np.arange(8)
        self._scatter = (32 * stencil)[:, None, :, None] + offsets[None, :, None, :]
        self._site_rows = np.zeros((stages, 4, 4), dtype=complex)
        self._covered = np.zeros(len(self._sites), dtype=bool)

    @property
    def stages_done(self) -> int:
        return len(self.blocks)

    @property
    def coupling_count(self) -> int:
        """Stored coupling matrices C_kj, one per pair of processed stages."""
        k = self.stages_done
        return k * (k - 1) // 2

    def processed_sites(self) -> list[Site]:
        return self.schedule[: self.stages_done]

    def stage_step(self) -> OperatorBlock:
        """Process the next scheduled site and append its block."""
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

        factor[4 * k : 4 * k + 4, : 4 * k] = -c_row
        factor[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = np.eye(4)
        self.cores[k] = matrix_from_dset(core_dset)

        # Phi_k = sum_j L_kj V_j: the zero-shift rows are per site, the
        # twelve field-shift rows are the same for every site
        l_row = factor[4 * k : 4 * k + 4, : 4 * k + 4].reshape(4, k + 1, 4).transpose(1, 0, 2)
        self._site_rows[k] = tables.v_stack(m)[0]
        products = np.empty((k + 1, 4, len(SHIFTS_S13), 4), dtype=complex)
        products[:, :, 0] = l_row @ self._site_rows[: k + 1]
        field_rows = tables._field_v.transpose(1, 0, 2).reshape(4, -1)
        products[:, :, 1:] = (l_row.reshape(-1, 4) @ field_rows).reshape(k + 1, 4, -1, 4)
        phi_window = np.bincount(
            self._scatter[: k + 1].ravel(),
            weights=products.view(float).ravel(),
            minlength=32 * len(self._sites),
        )
        self._covered[self._stencil[k]] = True
        support = np.flatnonzero(self._covered)
        phi = phi_window.view(complex).reshape(-1, 4, 4)[support]
        sites = [self._sites[i] for i in support]

        block = OperatorBlock(site=m, core_dset=core_dset, sites=sites, stack=phi, stage=k)
        self.blocks.append(block)
        done = time.perf_counter()
        self.diagnostics.append(
            StageDiagnostics(
                stage=k,
                site=m,
                rcond=rcond,
                gram_asymmetry=asymmetry,
                support_size=len(sites),
                elapsed=done - started,
                gather_s=gathered - started,
                coupling_s=coupled_at - gathered,
                inversion_s=inverted - coupled_at,
                assembly_s=done - inverted,
            )
        )
        return block

    def run(self, stages: int | None = None) -> "ProjectorAccumulator":
        """Process the whole schedule (or its first `stages` entries)."""
        target = len(self.schedule) if stages is None else stages
        while self.stages_done < target:
            self.stage_step()
        return self

    def trace(self) -> float:
        return sum(block.trace() for block in self.blocks)

    def apply_projector(self, c: Multispinor) -> Multispinor:
        """Accumulated projector applied to c: the processed-row component."""
        out = Multispinor()
        for block in self.blocks:
            block.apply(c, out)
        return out

    def apply_fundamental(self, c: Multispinor) -> Multispinor:
        """c minus its processed-row component: a solution of processed rows."""
        return c - self.apply_projector(c)


def residual(
    c: Multispinor,
    n: Site,
    f: FieldConfig,
    p: DimensionlessParams,
    window: Window | None = None,
) -> float:
    """Norm of row n of the coupled system evaluated on c.

    When a window is given, n must be interior so the row involves only
    in-window amplitudes.  Without one, c's finite support defines the
    zero extension and any row can be evaluated.
    """
    if window is not None and not window.interior(n):
        raise NotInterior(f"site {n} has stencil neighbors outside the window")
    row = np.zeros(4, dtype=complex)
    for s in SHIFTS_S13:
        neighbor = site_add(n, s)
        if neighbor in c:
            row += matrix_from_dset(v_coupling(n, s, f, p)) @ c[neighbor]
    return float(np.linalg.norm(row))


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


def dense_operator(blocks: list[OperatorBlock], sites: list[Site]) -> np.ndarray:
    """Dense matrix of a block sum on the space spanned by the given sites."""
    index = {site: i for i, site in enumerate(sites)}
    dim = 4 * len(sites)
    out = np.zeros((dim, dim), dtype=complex)
    for block in blocks:
        for m_prime, left in block.phi.items():
            i = index.get(m_prime)
            if i is None:
                continue
            left_core = left.conj().T @ block.core
            for n_prime, right in block.phi.items():
                j = index.get(n_prime)
                if j is not None:
                    out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] += left_core @ right
    return out
