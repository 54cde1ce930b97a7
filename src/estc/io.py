"""Dumps, reports, and exports.  All writers are byte-deterministic.

An operator dump (format estc-operator-v4) is two files with one stem: a
small JSON header, operator.json, and the factors of the projector as raw
little-endian complex128 numbers, operator.c16.  The header holds the
fingerprint of the generating configuration, the window radius and center,
the number of stages, which is the length of the window's schedule, per
stage its rcond, and the sha256 of the factor file.  The factor file
holds, slice by slice, the lower triangle of W_t = R_tt^-1 in
np.tril_indices order and then the band panel [R_t,t-2 | R_t,t-1]
row-major.  Every slice shape and offset follows from the window, through
the spans and factor_bounds of lattice.window_table, so the reader
refuses any other stage count and a factor file of any other size or
digest.  lattice.Window checks the header's radius and center, as it
checks every window.  The factor file is the accumulator's factor
slices byte for byte, a built one's store or a restored one's file, and
one walk over the slices, _walk_slices, hashes them part by part: the
writer writes each part as it hashes it, and the reader hashes the file
through the same slice reads that the substitutions of a restored
accumulator make, so an apply holds one slice, never the whole file;
each read refuses, with ConfigError, a file whose identity (device,
inode, size, modification and change times) is not the one the reader
took with the file's size.
The dump is the only form an operator is read back from.  The JSON
(estc-operator-dsets-v3) and CSV exports are write-only views of a dump
that restate its factors as basis coefficients, reading and unpacking
one slice at a time.  stages.csv and residual.csv read each site's g4d
ring from the window table.  Timings never enter written artifacts so
identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .config import RunConfig, config_fingerprint
from .dirac_basis import dset_from_matrix
from .engine import FactorSlices, ProjectorAccumulator, unpack_lower
from .errors import ConfigError
from .lattice import Window, WindowTable, in_lattice, make_schedule, refuse_repeats, site_in_range
from .lattice import window_table
from .multispinor import Multispinor

OPERATOR_FORMAT = "estc-operator-v4"
EXPORT_FORMAT = "estc-operator-dsets-v3"
SOLUTION_FORMAT = "estc-solution-v1"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def factor_path(path: str | Path) -> Path:
    """The factor file of an operator header: operator.json -> operator.c16."""
    return Path(path).with_suffix(".c16")


def _walk_slices(slices: FactorSlices, out=None) -> str:
    """sha256 of the factor file of slices, hashed part by part, each part written to out if given.

    The parts are the packed W_t and the band panel of each slice, in
    turn, as little-endian complex128; out is a file open for binary
    writing.
    """
    sha256 = hashlib.sha256()
    for pair in slices:
        for part in pair:
            data = np.ascontiguousarray(part, dtype="<c16")
            sha256.update(data)
            if out is not None:
                out.write(data)
    return sha256.hexdigest()


def write_operator(path: str | Path, acc: ProjectorAccumulator, cfg: RunConfig) -> None:
    """Write the factor slices as the factor file, then the header with their sha256.

    A built and a restored accumulator alike; raises ValueError, writing
    nothing, for one that has not completed a run.  A restored one must
    not be written onto the dump it reads: opening the factor file for
    writing cuts it before the walk reads it.
    """
    slices = acc.slice_factors()
    with open(factor_path(path), "wb") as f:
        digest = _walk_slices(slices, f)
    header = {
        "format": OPERATOR_FORMAT,
        "fingerprint": config_fingerprint(cfg),
        "radius": cfg.radius,
        "center": list(cfg.n_ref),
        "stages": len(acc.schedule),
        "rconds": acc.rconds.tolist(),
        "sha256": digest,
    }
    Path(path).write_text(json.dumps(header, separators=(",", ":")) + "\n")


def _read_json(path: str | Path, cfg: RunConfig | None, expected_format: str) -> dict:
    """The JSON object of a dump, its fingerprint checked against cfg when one is given."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as err:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"malformed {expected_format} file {path}: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise ConfigError(f"not a {expected_format} file: {path}")
    if cfg is not None and payload.get("fingerprint") != config_fingerprint(cfg):
        raise ConfigError(f"the fingerprint of {path} does not match the configuration")
    return payload


@dataclass
class _Factors:
    """Validated content of a dump, ready for from_factors or an export.

    factors reads the slices of the whole schedule from the checked factor
    file, one slice each time it is indexed.
    """

    fingerprint: str
    window: Window
    rconds: np.ndarray
    factors: FactorSlices


def _identity(f) -> tuple[int, int, int, int, int]:
    """Device, inode, size and modification and change times of an open file."""
    st = os.fstat(f.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


@dataclass(frozen=True)
class _FactorFile:
    """A factor file whose size and sha256 were checked, read a range of numbers at a time.

    Each read opens the file anew and refuses, with ConfigError, a file
    whose identity (device, inode, size, modification and change times)
    is not the one taken with its size, before and after reading, so every
    slice hashed or applied comes from the checked bytes, and none is short.
    """

    source: Path
    identity: tuple[int, int, int, int, int]

    def read(self, start: int, stop: int) -> np.ndarray:
        with open(self.source, "rb") as f:
            self._check(f)
            f.seek(16 * start)
            data = np.fromfile(f, dtype="<c16", count=stop - start)
            self._check(f)
        return data

    def _check(self, f) -> None:
        if _identity(f) != self.identity:
            raise ConfigError(f"factor file {self.source} changed after it was checked")


def _read_factors(path: str | Path, cfg: RunConfig | None = None) -> _Factors:
    """Checked header and factors of a dump; the fingerprint only against a given cfg.

    Every shape is derived from the header before the factor file is
    opened, and the file must have exactly their total size and the
    header's sha256, hashed through the factors returned, one slice read
    at a time.  Those factors read each slice from the file again when
    indexed, refusing a file that changed after its identity was taken.
    """
    header = _read_json(path, cfg, OPERATOR_FORMAT)
    if cfg is not None and (
        header.get("radius") != cfg.radius or header.get("center") != list(cfg.n_ref)
    ):
        raise ConfigError(
            f"operator dump radius {header.get('radius')!r} and center "
            f"{header.get('center')!r} do not match R and n_ref of the configuration"
        )
    try:
        fingerprint, digest = header["fingerprint"], header["sha256"]
        if not isinstance(fingerprint, str) or not isinstance(digest, str):
            raise ConfigError("the fingerprint and sha256 of an operator dump must be strings")
        window = Window(header["radius"], header["center"])
        count = len(make_schedule(window))
        stages, rconds = header["stages"], header["rconds"]
        if type(stages) is not int or stages != count:
            raise ConfigError(f"stages must be the {count} stages of the schedule, not {stages!r}")
        if not _numbers(rconds, count, (int, float)):
            raise ConfigError(f"rconds must be {count} finite numbers, one per stage")
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed operator dump: {err!r}") from None

    source = factor_path(path)
    with open(source, "rb") as f:
        identity = _identity(f)
    factors = FactorSlices(window_table(window), _FactorFile(source, identity).read)
    count, size = factors.bounds[-1], identity[2]
    if size != 16 * count:
        raise ConfigError(
            f"factor file {source} has {size} bytes, expected {16 * count} "
            f"({count} complex numbers for {stages} stages)"
        )
    if _walk_slices(factors) != digest:
        raise ConfigError(f"factor file {source} does not match the sha256 of its header")
    return _Factors(fingerprint, window, np.array(rconds, dtype=float), factors)


def _slice_dsets(factors: _Factors) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """(first stage, first band stage, W_t dsets, band dsets) of each stored slice, in turn."""
    spans = window_table(factors.window).spans.tolist()
    for (start, _, low), (packed, band) in zip(spans, factors.factors):
        inverse = unpack_lower(packed, band.shape[0])
        yield start, low, _block_dsets(inverse), _block_dsets(band)


def _block_dsets(a: np.ndarray) -> np.ndarray:
    """(rows, cols, 16) coefficients of the 4x4 blocks of a (4 rows, 4 cols) matrix."""
    rows, cols = a.shape[0] // 4, a.shape[1] // 4
    return dset_from_matrix(a.reshape(rows, 4, cols, 4).transpose(0, 2, 1, 3))


def read_operator(path: str | Path, cfg: RunConfig) -> ProjectorAccumulator:
    """Restore the accumulator from a dump, refusing fingerprint mismatches."""
    factors = _read_factors(path, cfg)
    return ProjectorAccumulator.from_factors(
        cfg.field, cfg.params, factors.window, factors.factors, factors.rconds
    )


def solution_payload(c: Multispinor, cfg: RunConfig, source: dict) -> dict:
    """Sites in sorted order, each with its amplitudes as [re0, im0, ..., re3, im3]."""
    sites = c.coords
    order = np.lexsort(sites.T[::-1])
    return {
        "format": SOLUTION_FORMAT,
        "fingerprint": config_fingerprint(cfg),
        "source": source,
        "sites": sites[order].tolist(),
        "amplitudes": c.amplitudes[order].view(float).reshape(-1, 8).tolist(),
    }


def write_solution(path: str | Path, c: Multispinor, cfg: RunConfig, source: dict) -> None:
    Path(path).write_text(json.dumps(solution_payload(c, cfg, source), separators=(",", ":")) + "\n")


def _numbers(value, count: int, kinds) -> bool:
    """value is a list of count finite JSON numbers of the given kinds (never booleans)."""
    return (
        isinstance(value, list)
        and len(value) == count
        and all(isinstance(x, kinds) and not isinstance(x, bool) for x in value)
        and all(abs(x) <= sys.float_info.max for x in value)  # not inf, NaN or 10**400
    )


def read_solution(path: str | Path, cfg: RunConfig | None = None) -> Multispinor:
    payload = _read_json(path, cfg, SOLUTION_FORMAT)
    missing = [key for key in ("fingerprint", "sites", "amplitudes") if key not in payload]
    if missing:
        raise ConfigError(f"solution dump {path} lacks {', '.join(missing)}")
    sites, amplitudes = payload["sites"], payload["amplitudes"]
    if not isinstance(sites, list) or not isinstance(amplitudes, list):
        raise ConfigError(f"solution dump {path}: sites and amplitudes must be lists")
    if len(sites) != len(amplitudes):
        raise ConfigError(
            f"solution dump {path} has {len(sites)} sites but {len(amplitudes)} amplitude rows"
        )
    for site, flat in zip(sites, amplitudes):
        if not site_in_range(site):
            raise ConfigError(f"solution site {site!r} is not four integers within +-2**62")
        if not in_lattice(site):
            raise ConfigError(f"solution site {site!r} has an odd coordinate sum")
        if not _numbers(flat, 8, (int, float)):
            raise ConfigError(f"amplitudes at solution site {site} are not eight finite numbers")
    coords = np.array(sites, dtype=np.int64).reshape(-1, 4)
    try:
        refuse_repeats(coords)
    except ValueError as err:
        raise ConfigError(f"solution {err}") from None
    values = np.array(amplitudes, dtype=float).reshape(-1, 8).view(complex)
    return Multispinor(coords, values)


def residual_csv(table: WindowTable, norms: np.ndarray) -> str:
    """residual.csv: the site, ring and residual of the leading len(norms) window sites."""
    lines = ["n1,n2,n3,n4,g4d,residual"]
    for site, ring, value in zip(table.sites, table.rings.tolist(), norms.tolist()):
        lines.append(f"{site[0]},{site[1]},{site[2]},{site[3]},{ring},{value!r}")
    return "\n".join(lines) + "\n"


def stages_csv(acc: ProjectorAccumulator) -> str:
    """stages.csv: per stage, its site, g4d, rcond, support and asymmetry."""
    table = window_table(acc.window)
    lines = ["stage,n1,n2,n3,n4,g4d,rcond,support,gram_asymmetry"]
    for stage, site, ring, rcond, support, asymmetry in zip(
        range(len(acc.schedule)),
        acc.schedule,
        table.rings[table.schedule].tolist(),
        acc.rconds.tolist(),
        table.support.tolist(),
        acc.asymmetry.tolist(),
    ):
        lines.append(
            f"{stage},{site[0]},{site[1]},{site[2]},{site[3]},"
            f"{ring},{rcond!r},{support},{asymmetry!r}"
        )
    return "\n".join(lines) + "\n"


def _stored_blocks(factors: _Factors) -> Iterator[tuple[int, int, str, np.ndarray]]:
    """(stage k, stage j, entry, dset) of every stored 4x4 block, slice by slice.

    The core blocks are the lower triangle of W_t, j <= k in slice t, and
    the coupling blocks the band blocks of R, j in slices t - 2 and t - 1.
    """
    for start, low, core, coupling in _slice_dsets(factors):
        for a in range(core.shape[0]):
            for b in range(a + 1):
                yield start + a, start + b, "core", core[a, b]
            for b in range(coupling.shape[1]):
                yield start + a, low + b, "coupling", coupling[a, b]


def export_operator_json(path: str | Path, cfg: RunConfig | None = None) -> str:
    """Re-serialize a dump with every stored 4x4 block as 16 [re, im] basis pairs."""
    factors = _read_factors(path, cfg)
    sites = make_schedule(factors.window)
    slices = []
    for t, (_, _, core, coupling) in enumerate(_slice_dsets(factors)):
        core = core[np.tril_indices(core.shape[0])]
        coupling = coupling.reshape(-1, 16)
        slices.append(
            {
                "slice": t,
                "core": [[_pair(z) for z in dset] for dset in core],
                "coupling": [[_pair(z) for z in dset] for dset in coupling],
            }
        )
    out = {
        "format": EXPORT_FORMAT,
        "fingerprint": factors.fingerprint,
        "radius": factors.window.radius,
        "center": list(factors.window.center),
        "schedule": sites,
        "stages": [
            {"stage": k, "site": sites[k], "rcond": float(rcond)}
            for k, rcond in enumerate(factors.rconds)
        ],
        "slices": slices,
    }
    return json.dumps(out, separators=(",", ":")) + "\n"


def export_operator_csv(path: str | Path, cfg: RunConfig | None = None) -> str:
    """Flat table: one row per stored 4x4 block (core or coupling), as 16 [re, im] pairs.

    Row stage k at site m couples to stage j at site n.
    """
    factors = _read_factors(path, cfg)
    sites = make_schedule(factors.window)
    header = ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    header += [f"c{i}_{part}" for i in range(16) for part in ("re", "im")]
    lines = [",".join(header)]
    for k, j, entry, dset in _stored_blocks(factors):
        cells = [str(k), *map(str, sites[k]), entry, *map(str, sites[j])]
        cells += [repr(float(x)) for z in dset for x in (z.real, z.imag)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: observed={self.observed:.3e} threshold={self.threshold:.3e}"


@dataclass
class RunReport:
    title: str
    checks: list[CheckResult] = dataclass_field(default_factory=list)
    notes: list[str] = dataclass_field(default_factory=list)

    def add(self, name: str, observed: float, threshold: float) -> bool:
        passed = bool(observed <= threshold)
        self.checks.append(CheckResult(name, passed, float(observed), float(threshold)))
        return passed

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = [self.title]
        lines += [f"  {check.line()}" for check in self.checks]
        lines += [f"  {note}" for note in self.notes]
        lines.append(f"result: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"
