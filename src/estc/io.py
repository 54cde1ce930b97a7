"""Dumps, reports, and exports.  All writers are byte-deterministic.

Operator dumps carry a fingerprint of the generating configuration and the
per-stage data (site, core coefficients, support matrices) in schedule
order with lexicographically sorted support.  Timings never enter written
artifacts so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .config import RunConfig, config_fingerprint
from .dirac_basis import dset_from_matrix, matrix_from_dset
from .engine import OperatorBlock, ProjectorAccumulator, StageDiagnostics
from .errors import ConfigError
from .lattice import Site, g4d, site_sub
from .multispinor import Multispinor

OPERATOR_FORMAT = "estc-operator-v1"
SOLUTION_FORMAT = "estc-solution-v1"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(m[i, j]) for j in range(4)] for i in range(4)]


def _matrix_from_pairs(rows) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows], dtype=complex
    )


def operator_payload(acc: ProjectorAccumulator, cfg: RunConfig) -> dict:
    stages = []
    for block, diag in zip(acc.blocks, acc.diagnostics):
        support = [
            {"site": list(site), "phi": _matrix_pairs(phi)}
            for site, phi in zip(block.sites, block.stack)
        ]
        stages.append(
            {
                "stage": block.stage,
                "site": list(block.site),
                "rcond": float(diag.rcond),
                "core_dset": [float(x) for x in np.real(block.core_dset)],
                "support": support,
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
    if payload.get("format") != expected_format:
        raise ConfigError(f"not a {expected_format} file: {path}")
    if cfg is not None and payload["fingerprint"] != config_fingerprint(cfg):
        raise ConfigError("operator dump fingerprint does not match the configuration")
    return payload


def read_operator(path: str | Path, cfg: RunConfig | None = None) -> list[OperatorBlock]:
    """Reconstruct blocks from a dump, refusing fingerprint mismatches."""
    payload = read_operator_payload(path, cfg)
    blocks = []
    for stage in payload["stages"]:
        support = stage["support"]
        # each [re, im] pair is the two halves of one complex entry
        pairs = np.array([entry["phi"] for entry in support], dtype=float)
        blocks.append(
            OperatorBlock(
                site=tuple(stage["site"]),
                core_dset=np.array(stage["core_dset"], dtype=float),
                sites=[tuple(entry["site"]) for entry in support],
                stack=pairs.view(complex)[..., 0],
                stage=int(stage["stage"]),
            )
        )
    return blocks


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


def read_solution(path: str | Path, cfg: RunConfig | None = None) -> Multispinor:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed solution dump {path}: {err}") from None
    if payload.get("format") != SOLUTION_FORMAT:
        raise ConfigError(f"not a solution dump: {path}")
    if cfg is not None and payload["fingerprint"] != config_fingerprint(cfg):
        raise ConfigError("solution dump fingerprint does not match the configuration")
    out = Multispinor()
    for site, flat in zip(payload["sites"], payload["amplitudes"]):
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


def export_operator_json(payload: dict) -> str:
    """Re-serialize a dump with every matrix as 16 [re, im] basis pairs."""
    stages = []
    for stage in payload["stages"]:
        support = []
        for entry in stage["support"]:
            phi_dset = dset_from_matrix(_matrix_from_pairs(entry["phi"]))
            support.append({"site": entry["site"], "phi_dset": [_pair(z) for z in phi_dset]})
        stages.append(
            {
                "stage": stage["stage"],
                "site": stage["site"],
                "core_dset": [[x, 0.0] for x in stage["core_dset"]],
                "support": support,
            }
        )
    out = {
        "format": "estc-operator-dsets-v1",
        "fingerprint": payload["fingerprint"],
        "stages": stages,
    }
    return json.dumps(out, separators=(",", ":")) + "\n"


def export_operator_csv(payload: dict) -> str:
    """Flat table: one row per stored matrix, as 16 [re, im] basis pairs."""
    header = ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    header += [f"c{i}_{part}" for i in range(16) for part in ("re", "im")]
    lines = [",".join(header)]

    def row(stage: int, site, entry: str, target, dset) -> str:
        cells = [str(stage), *map(str, site), entry, *map(str, target)]
        cells += [repr(float(x)) for z in dset for x in (z.real, z.imag)]
        return ",".join(cells)

    for stage in payload["stages"]:
        site = stage["site"]
        core = np.array(stage["core_dset"], dtype=complex)
        lines.append(row(stage["stage"], site, "core", site, core))
        for entry in stage["support"]:
            phi_dset = dset_from_matrix(_matrix_from_pairs(entry["phi"]))
            lines.append(row(stage["stage"], site, "phi", entry["site"], phi_dset))
    return "\n".join(lines) + "\n"


def read_exported_operator(path: str | Path, cfg: RunConfig | None = None) -> list[OperatorBlock]:
    """Rebuild blocks from the 16-pair basis-coefficient exchange format."""
    payload = read_operator_payload(path, cfg, expected_format="estc-operator-dsets-v1")
    blocks = []
    for stage in payload["stages"]:
        phi = {}
        for entry in stage["support"]:
            dset = np.array([complex(re, im) for re, im in entry["phi_dset"]])
            phi[tuple(entry["site"])] = matrix_from_dset(dset)
        core = np.array([re for re, _ in stage["core_dset"]], dtype=float)
        blocks.append(OperatorBlock.from_phi(tuple(stage["site"]), core, phi, int(stage["stage"])))
    return blocks


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
