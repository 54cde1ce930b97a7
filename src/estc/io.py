"""Dumps, reports, and exports.  All writers are byte-deterministic.

Operator dumps carry a fingerprint of the generating configuration, the
window and its schedule, per stage its site and rcond, and per time slice
the factors of the projector: the lower triangle of W_t = R_tt^-1 ("core")
and the band blocks [R_t,t-2 | R_t,t-1] ("coupling"), as base64 of
little-endian complex128 bytes.  The readers accept only the schedule that
make_schedule gives the window.  Timings never enter written artifacts so
identical runs produce identical bytes.
"""

from __future__ import annotations

import base64
import json
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .config import RunConfig, config_fingerprint
from .dirac_basis import dset_from_matrix, matrix_from_dset
from .engine import ProjectorAccumulator, StageDiagnostics
from .errors import ConfigError
from .lattice import MAX_COORDINATE, Site, Window, g4d, make_schedule, site_sub
from .multispinor import Multispinor

OPERATOR_FORMAT = "estc-operator-v3"
EXPORT_FORMAT = "estc-operator-dsets-v3"
SOLUTION_FORMAT = "estc-solution-v1"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _b64(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")


def _operator_head(acc: ProjectorAccumulator, cfg: RunConfig) -> dict:
    return {
        "format": OPERATOR_FORMAT,
        "fingerprint": config_fingerprint(cfg),
        "radius": cfg.radius,
        "center": list(cfg.n_ref),
        "schedule": [list(site) for site in acc.schedule],
    }


def _stage_entries(acc: ProjectorAccumulator) -> Iterator[dict]:
    for k in range(acc.stages_done):
        yield {"stage": k, "site": list(acc.schedule[k]), "rcond": float(acc.rconds[k])}


def _slice_entries(acc: ProjectorAccumulator) -> Iterator[dict]:
    for t, (inverse, band) in enumerate(zip(acc.inverses, acc.bands)):
        lower = inverse[np.tril_indices(inverse.shape[0])]
        yield {"slice": t, "core": _b64(lower), "coupling": _b64(band)}


def operator_payload(acc: ProjectorAccumulator, cfg: RunConfig) -> dict:
    return {
        **_operator_head(acc, cfg),
        "stages": list(_stage_entries(acc)),
        "slices": list(_slice_entries(acc)),
    }


def write_operator(path: str | Path, acc: ProjectorAccumulator, cfg: RunConfig) -> None:
    """Write json.dumps(operator_payload(acc, cfg)) compactly, one entry at a time."""

    def dumps(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    with open(path, "w", encoding="ascii") as out:
        out.write(dumps(_operator_head(acc, cfg))[:-1])
        for key, entries in (("stages", _stage_entries(acc)), ("slices", _slice_entries(acc))):
            out.write(f',"{key}":[')
            for i, entry in enumerate(entries):
                out.write("," + dumps(entry) if i else dumps(entry))
            out.write("]")
        out.write("}\n")


def read_operator_payload(
    path: str | Path, cfg: RunConfig | None = None, expected_format: str = OPERATOR_FORMAT
) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed operator dump {path}: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise ConfigError(f"not a {expected_format} file: {path}")
    if cfg is not None:
        if payload.get("fingerprint") != config_fingerprint(cfg):
            raise ConfigError("operator dump fingerprint does not match the configuration")
        if payload.get("radius") != cfg.radius or payload.get("center") != list(cfg.n_ref):
            raise ConfigError(
                f"operator dump radius {payload.get('radius')!r} and center "
                f"{payload.get('center')!r} do not match R and n_ref of the configuration"
            )
    return payload


def _site(value) -> Site:
    site = tuple(int(x) for x in value)
    if len(site) != 4:
        raise ValueError(f"site {value!r} does not have four coordinates")
    return site


@dataclass
class _Factors:
    """Validated content of a dump or export, ready for from_factors."""

    fingerprint: str
    window: Window
    schedule: list[Site]
    slice_ptr: np.ndarray
    rconds: np.ndarray
    inverses: list[np.ndarray]
    bands: list[np.ndarray]


def _decoded(raw: bytes, count: int, what: str) -> np.ndarray:
    if len(raw) != 16 * count:
        raise ConfigError(
            f"{what} decodes to {len(raw)} bytes, expected {16 * count} ({count} complex numbers)"
        )
    return np.frombuffer(raw, dtype="<c16")


def _dump_slice(entry: dict, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_t, band panel) of one estc-operator-v3 slice entry of rows stages."""
    n = 4 * rows
    lower = _decoded(base64.b64decode(entry["core"], validate=True), n * (n + 1) // 2, "core")
    inverse = np.zeros((n, n), dtype=complex)
    inverse[np.tril_indices(n)] = lower
    raw = base64.b64decode(entry["coupling"], validate=True)
    band = _decoded(raw, 16 * rows * cols, "coupling").reshape(n, 4 * cols)
    return inverse, band


def _block_dsets(a: np.ndarray) -> np.ndarray:
    """(rows, cols, 16) coefficients of the 4x4 blocks of a (4 rows, 4 cols) matrix."""
    rows, cols = a.shape[0] // 4, a.shape[1] // 4
    return dset_from_matrix(a.reshape(rows, 4, cols, 4).transpose(0, 2, 1, 3))


def _from_blocks(dsets: np.ndarray) -> np.ndarray:
    """Inverse of _block_dsets."""
    rows, cols = dsets.shape[:2]
    return matrix_from_dset(dsets).transpose(0, 2, 1, 3).reshape(4 * rows, 4 * cols)


def _export_slice(entry: dict, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_t, band panel) of one estc-operator-dsets-v3 slice entry of rows stages."""
    pairs = np.array(entry["core"], dtype=float).reshape(rows * (rows + 1) // 2, 16, 2)
    dsets = np.zeros((rows, rows, 16), dtype=complex)
    dsets[np.tril_indices(rows)] = pairs[..., 0] + 1j * pairs[..., 1]
    pairs = np.array(entry["coupling"], dtype=float).reshape(rows, cols, 16, 2)
    return np.tril(_from_blocks(dsets)), _from_blocks(pairs[..., 0] + 1j * pairs[..., 1])


def _decode(payload: dict, decode_slice: Callable[[dict, int, int], tuple]) -> _Factors:
    """Window, schedule and slice factors of a payload, checked for consistency."""
    try:
        fingerprint = str(payload["fingerprint"])
        window = Window(int(payload["radius"]), _site(payload["center"]))
        schedule = make_schedule(window)
        if [_site(site) for site in payload["schedule"]] != schedule:
            raise ConfigError("the schedule is not the window's own schedule")
        stages = payload["stages"]
        if len(stages) > len(schedule):
            raise ConfigError(f"{len(stages)} stages for a schedule of {len(schedule)} sites")
        rconds = []
        for k, stage in enumerate(stages):
            if stage["stage"] != k or _site(stage["site"]) != schedule[k]:
                raise ConfigError(f"stage entry {k} is out of schedule order")
            rconds.append(float(stage["rcond"]))
        ptr = ProjectorAccumulator.slice_bounds(schedule)
        slices = payload["slices"]
        expected = int(np.searchsorted(ptr, len(stages), side="left"))
        if len(slices) != expected:
            raise ConfigError(
                f"{len(slices)} slice entries for {len(stages)} stages, expected {expected}"
            )
        inverses, bands = [], []
        for t, entry in enumerate(slices):
            if entry["slice"] != t:
                raise ConfigError(f"slice entry {t} is out of order")
            rows = min(ptr[t + 1], len(stages)) - ptr[t]
            inverse, band = decode_slice(entry, rows, ptr[t] - ptr[max(t - 2, 0)])
            inverses.append(inverse)
            bands.append(band)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed operator dump: {err!r}") from None
    return _Factors(fingerprint, window, schedule, ptr, np.array(rconds), inverses, bands)


def _restore(payload: dict, cfg: RunConfig, decode_slice: Callable) -> ProjectorAccumulator:
    factors = _decode(payload, decode_slice)
    return ProjectorAccumulator.from_factors(
        cfg.field, cfg.params, factors.window, factors.inverses, factors.bands, factors.rconds
    )


def read_operator(path: str | Path, cfg: RunConfig) -> ProjectorAccumulator:
    """Restore the accumulator from a dump, refusing fingerprint mismatches."""
    return _restore(read_operator_payload(path, cfg), cfg, _dump_slice)


def solution_payload(c: Multispinor, cfg: RunConfig, source: dict) -> dict:
    """Sites in sorted order, each with its amplitudes as [re0, im0, ..., re3, im3]."""
    sites = c.coords()
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
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed solution dump {path}: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != SOLUTION_FORMAT:
        raise ConfigError(f"not a solution dump: {path}")
    missing = [key for key in ("fingerprint", "sites", "amplitudes") if key not in payload]
    if missing:
        raise ConfigError(f"solution dump {path} lacks {', '.join(missing)}")
    if cfg is not None and payload["fingerprint"] != config_fingerprint(cfg):
        raise ConfigError("solution dump fingerprint does not match the configuration")
    sites, amplitudes = payload["sites"], payload["amplitudes"]
    if not isinstance(sites, list) or not isinstance(amplitudes, list):
        raise ConfigError(f"solution dump {path}: sites and amplitudes must be lists")
    if len(sites) != len(amplitudes):
        raise ConfigError(
            f"solution dump {path} has {len(sites)} sites but {len(amplitudes)} amplitude rows"
        )
    seen: dict[Site, None] = {}
    for site, flat in zip(sites, amplitudes):
        if not _numbers(site, 4, int):
            raise ConfigError(f"solution site {site!r} is not four integers")
        if max(abs(n) for n in site) > MAX_COORDINATE:
            raise ConfigError(f"solution site {site} lies past the site range of +-2**62")
        if tuple(site) in seen:
            raise ConfigError(f"solution site {site} is listed twice")
        if not _numbers(flat, 8, (int, float)):
            raise ConfigError(f"amplitudes at solution site {site} are not eight finite numbers")
        seen[tuple(site)] = None
    values = np.array(amplitudes, dtype=float).reshape(-1, 8).view(complex)
    return Multispinor.from_rows(seen, values)


def residual_csv(rows: list[tuple[Site, float]], center: Site) -> str:
    lines = ["n1,n2,n3,n4,g4d,residual"]
    for site, value in rows:
        lines.append(
            f"{site[0]},{site[1]},{site[2]},{site[3]},{g4d(site_sub(site, center))},{value!r}"
        )
    return "\n".join(lines) + "\n"


def stages_csv(diagnostics: list[StageDiagnostics], center: Site) -> str:
    lines = ["stage,n1,n2,n3,n4,g4d,rcond,support,gram_asymmetry"]
    for diag in diagnostics:
        site = diag.site
        lines.append(
            f"{diag.stage},{site[0]},{site[1]},{site[2]},{site[3]},"
            f"{g4d(site_sub(site, center))},{diag.rcond!r},{diag.support_size},"
            f"{diag.gram_asymmetry!r}"
        )
    return "\n".join(lines) + "\n"


def _stored_blocks(factors: _Factors) -> Iterator[tuple[int, int, str, np.ndarray]]:
    """(stage k, stage j, entry, dset) of every stored 4x4 block, slice by slice.

    The core blocks are the lower triangle of W_t, j <= k in slice t, and
    the coupling blocks the band blocks of R, j in slices t - 2 and t - 1.
    """
    ptr = factors.slice_ptr
    for t, (inverse, band) in enumerate(zip(factors.inverses, factors.bands)):
        start, low = ptr[t], ptr[max(t - 2, 0)]
        core, coupling = _block_dsets(inverse), _block_dsets(band)
        for a in range(core.shape[0]):
            for b in range(a + 1):
                yield start + a, start + b, "core", core[a, b]
            for b in range(coupling.shape[1]):
                yield start + a, low + b, "coupling", coupling[a, b]


def export_operator_json(payload: dict) -> str:
    """Re-serialize a dump with every stored 4x4 block as 16 [re, im] basis pairs."""
    factors = _decode(payload, _dump_slice)
    slices = []
    for t, (inverse, band) in enumerate(zip(factors.inverses, factors.bands)):
        core = _block_dsets(inverse)[np.tril_indices(inverse.shape[0] // 4)]
        coupling = _block_dsets(band).reshape(-1, 16)
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
        "schedule": [list(site) for site in factors.schedule],
        "stages": [
            {"stage": k, "site": list(factors.schedule[k]), "rcond": float(rcond)}
            for k, rcond in enumerate(factors.rconds)
        ],
        "slices": slices,
    }
    return json.dumps(out, separators=(",", ":")) + "\n"


def export_operator_csv(payload: dict) -> str:
    """Flat table: one row per stored 4x4 block (core or coupling), as 16 [re, im] pairs.

    Row stage k at site m couples to stage j at site n.
    """
    factors = _decode(payload, _dump_slice)
    header = ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    header += [f"c{i}_{part}" for i in range(16) for part in ("re", "im")]
    lines = [",".join(header)]
    for k, j, entry, dset in _stored_blocks(factors):
        cells = [str(k), *map(str, factors.schedule[k]), entry, *map(str, factors.schedule[j])]
        cells += [repr(float(x)) for z in dset for x in (z.real, z.imag)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_exported_operator(path: str | Path, cfg: RunConfig) -> ProjectorAccumulator:
    """Restore the accumulator from the 16-pair basis-coefficient exchange format."""
    payload = read_operator_payload(path, cfg, expected_format=EXPORT_FORMAT)
    return _restore(payload, cfg, _export_slice)


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
