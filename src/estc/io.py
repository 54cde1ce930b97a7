"""Dumps, reports, and exports.  All writers are byte-deterministic.

Operator dumps carry a fingerprint of the generating configuration, the
window and its schedule, and per stage the factors of the projector in
schedule order: the core coefficients and block row k of L = I - C, the
(4, 4k) couplings -C_k as base64 of little-endian complex128 bytes.  The
readers accept only the schedule that make_schedule gives the window.
Timings never enter written artifacts so identical runs produce identical
bytes.
"""

from __future__ import annotations

import base64
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .config import RunConfig, config_fingerprint
from .dirac_basis import dset_from_matrix, matrix_from_dset
from .engine import ProjectorAccumulator, StageDiagnostics
from .errors import ConfigError
from .lattice import Site, Window, g4d, make_schedule, site_sub
from .multispinor import Multispinor

OPERATOR_FORMAT = "estc-operator-v2"
EXPORT_FORMAT = "estc-operator-dsets-v2"
SOLUTION_FORMAT = "estc-solution-v1"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def operator_payload(acc: ProjectorAccumulator, cfg: RunConfig) -> dict:
    stages = []
    for k in range(acc.stages_done):
        row = np.ascontiguousarray(acc.factor[4 * k : 4 * k + 4, : 4 * k], dtype="<c16")
        stages.append(
            {
                "stage": k,
                "site": list(acc.schedule[k]),
                "rcond": float(acc.rconds[k]),
                "core_dset": [float(x) for x in acc.core_dsets[k]],
                "coupling": base64.b64encode(row.tobytes()).decode("ascii"),
            }
        )
    return {
        "format": OPERATOR_FORMAT,
        "fingerprint": config_fingerprint(cfg),
        "radius": cfg.radius,
        "center": list(cfg.n_ref),
        "schedule": [list(site) for site in acc.schedule],
        "stages": stages,
    }


def write_operator(path: str | Path, acc: ProjectorAccumulator, cfg: RunConfig) -> None:
    Path(path).write_text(json.dumps(operator_payload(acc, cfg), separators=(",", ":")) + "\n")


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
    couplings: list[np.ndarray]
    core_dsets: np.ndarray
    rconds: np.ndarray


def _dump_stage(stage: dict, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(-C_k, core coefficients) of one estc-operator-v2 stage entry."""
    raw = base64.b64decode(stage["coupling"], validate=True)
    if len(raw) != 16 * 16 * k:
        raise ConfigError(
            f"stage {k} coupling decodes to {len(raw)} bytes, "
            f"expected {256 * k} ({16 * k} complex numbers)"
        )
    row = np.frombuffer(raw, dtype="<c16").reshape(4, 4 * k)
    return row, np.array(stage["core_dset"], dtype=float).reshape(16)


def _export_stage(stage: dict, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(-C_k, core coefficients) of one estc-operator-dsets-v2 stage entry."""
    pairs = np.array(stage["couplings"], dtype=float).reshape(k, 16, 2)
    blocks = matrix_from_dset(pairs[..., 0] + 1j * pairs[..., 1])
    row = -blocks.transpose(1, 0, 2).reshape(4, 4 * k)
    return row, np.array(stage["core_dset"], dtype=float).reshape(16, 2)[:, 0]


def _decode(payload: dict, decode_stage: Callable[[dict, int], tuple]) -> _Factors:
    """Window, schedule and stage factors of a payload, checked for consistency."""
    try:
        fingerprint = str(payload["fingerprint"])
        window = Window(int(payload["radius"]), _site(payload["center"]))
        schedule = make_schedule(window)
        if [_site(site) for site in payload["schedule"]] != schedule:
            raise ConfigError("the schedule is not the window's own schedule")
        stages = payload["stages"]
        if len(stages) > len(schedule):
            raise ConfigError(f"{len(stages)} stages for a schedule of {len(schedule)} sites")
        couplings, cores, rconds = [], [], []
        for k, stage in enumerate(stages):
            if stage["stage"] != k or _site(stage["site"]) != schedule[k]:
                raise ConfigError(f"stage entry {k} is out of schedule order")
            row, core = decode_stage(stage, k)
            couplings.append(row)
            cores.append(core)
            rconds.append(float(stage["rcond"]))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed operator dump: {err!r}") from None
    cores = np.array(cores).reshape(-1, 16)
    return _Factors(fingerprint, window, schedule, couplings, cores, np.array(rconds))


def _restore(payload: dict, cfg: RunConfig, decode_stage: Callable) -> ProjectorAccumulator:
    factors = _decode(payload, decode_stage)
    return ProjectorAccumulator.from_factors(
        cfg.field, cfg.params, factors.window, factors.couplings, factors.core_dsets, factors.rconds
    )


def read_operator(path: str | Path, cfg: RunConfig) -> ProjectorAccumulator:
    """Restore the accumulator from a dump, refusing fingerprint mismatches."""
    return _restore(read_operator_payload(path, cfg), cfg, _dump_stage)


def solution_payload(c: Multispinor, cfg: RunConfig, source: dict) -> dict:
    sites = c.sites()
    return {
        "format": SOLUTION_FORMAT,
        "fingerprint": config_fingerprint(cfg),
        "source": source,
        "sites": [list(site) for site in sites],
        "amplitudes": [
            [x for component in c[site] for x in _pair(component)] for site in sites
        ],
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
    out = Multispinor()
    for site, flat in zip(sites, amplitudes):
        if not _numbers(site, 4, int):
            raise ConfigError(f"solution site {site!r} is not four integers")
        if tuple(site) in out:
            raise ConfigError(f"solution site {site} is listed twice")
        if not _numbers(flat, 8, (int, float)):
            raise ConfigError(f"amplitudes at solution site {site} are not eight finite numbers")
        out[tuple(site)] = [complex(flat[2 * i], flat[2 * i + 1]) for i in range(4)]
    return out


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


def _coupling_dsets(row: np.ndarray) -> np.ndarray:
    """(k, 16) coefficients of C_kj, j < k, from the block row -C_k."""
    k = row.shape[1] // 4
    return dset_from_matrix(-row.reshape(4, k, 4).transpose(1, 0, 2))


def export_operator_json(payload: dict) -> str:
    """Re-serialize a dump with every core and coupling as 16 [re, im] basis pairs."""
    factors = _decode(payload, _dump_stage)
    stages = []
    for k, row in enumerate(factors.couplings):
        stages.append(
            {
                "stage": k,
                "site": list(factors.schedule[k]),
                "rcond": float(factors.rconds[k]),
                "core_dset": [[float(x), 0.0] for x in factors.core_dsets[k]],
                "couplings": [[_pair(z) for z in dset] for dset in _coupling_dsets(row)],
            }
        )
    out = {
        "format": EXPORT_FORMAT,
        "fingerprint": factors.fingerprint,
        "radius": factors.window.radius,
        "center": list(factors.window.center),
        "schedule": [list(site) for site in factors.schedule],
        "stages": stages,
    }
    return json.dumps(out, separators=(",", ":")) + "\n"


def export_operator_csv(payload: dict) -> str:
    """Flat table: one row per stored matrix (core A_k or coupling C_kj), as 16 [re, im] pairs."""
    factors = _decode(payload, _dump_stage)
    header = ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    header += [f"c{i}_{part}" for i in range(16) for part in ("re", "im")]
    lines = [",".join(header)]

    def row(stage: int, site, entry: str, target, dset) -> str:
        cells = [str(stage), *map(str, site), entry, *map(str, target)]
        cells += [repr(float(x)) for z in dset for x in (z.real, z.imag)]
        return ",".join(cells)

    for k, coupling in enumerate(factors.couplings):
        site = factors.schedule[k]
        lines.append(row(k, site, "core", site, factors.core_dsets[k].astype(complex)))
        for j, dset in enumerate(_coupling_dsets(coupling)):
            lines.append(row(k, site, "coupling", factors.schedule[j], dset))
    return "\n".join(lines) + "\n"


def read_exported_operator(path: str | Path, cfg: RunConfig) -> ProjectorAccumulator:
    """Restore the accumulator from the 16-pair basis-coefficient exchange format."""
    payload = read_operator_payload(path, cfg, expected_format=EXPORT_FORMAT)
    return _restore(payload, cfg, _export_stage)


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
