"""Command line entry points: build, apply, verify, export.

Exit codes: 0 success, 1 configuration or validation failure, 2 numerical
degeneracy in the construction, 3 I/O failure.  All outputs are
byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import run_verify
from .config import RunConfig, config_fingerprint, parse_config
from .engine import FieldTables, ProjectorAccumulator, residual_table
from .errors import (
    ConfigError,
    CouplingLimitExceeded,
    DegenerateOverlap,
    NotInterior,
    ShiftNotInS13,
    SingularMatrix,
    StageSingular,
    TransversalityViolation,
    ZeroField,
)
from .io import (
    RunReport,
    export_operator_csv,
    export_operator_json,
    read_operator,
    read_operator_payload,
    read_solution,
    residual_csv,
    stages_csv,
    write_operator,
    write_solution,
)
from .lattice import Window
from .multispinor import Multispinor, random_multispinor

_VALIDATION_ERRORS = (
    ConfigError,
    TransversalityViolation,
    ZeroField,
    ShiftNotInS13,
    NotInterior,
    ValueError,
)
_DEGENERACY_ERRORS = (StageSingular, DegenerateOverlap, SingularMatrix, CouplingLimitExceeded)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2, reserved here
        raise ConfigError(message)


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text())


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    window = Window(cfg.radius, cfg.n_ref)
    acc = ProjectorAccumulator(cfg.field, cfg.params, window, rcond_min=cfg.rcond_min)
    acc.run()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_operator(out / "operator.json", acc, cfg)
    (out / "stages.csv").write_text(stages_csv(acc.diagnostics, cfg.n_ref))

    report = RunReport(f"build {config_fingerprint(cfg)[:12]}")
    report.add(
        "projector trace equals 4 x stage count",
        abs(acc.trace() - 4.0 * acc.stages_done),
        1e-6,
    )
    worst_rcond = min(diag.rcond for diag in acc.diagnostics)
    report.add(
        "every stage condition stays above rcond_min", cfg.rcond_min / worst_rcond, 1.0
    )
    report.notes.append(
        f"window radius {cfg.radius} around {cfg.n_ref}: "
        f"{len(window.points())} sites, {acc.stages_done} stages, "
        f"{acc.coupling_count} stored couplings"
    )
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 2


def cmd_apply(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    blocks = read_operator(args.operator, cfg)
    window = Window(cfg.radius, cfg.n_ref)

    if args.input is not None:
        seed_c = read_solution(args.input, cfg)
        source = {"input": Path(args.input).name}
    else:
        seed = cfg.seed if args.seed is None else args.seed
        seed_c = random_multispinor(window.points(), seed)
        source = {"seed": seed}

    projected = Multispinor()
    for block in blocks:
        block.apply(seed_c, projected)
    solution = seed_c - projected

    tables = FieldTables(cfg.field, cfg.params)
    rows = residual_table(solution, tables, window.interior_points())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_solution(out / "solution.json", solution, cfg, source)
    (out / "residual.csv").write_text(residual_csv(rows, cfg.n_ref))

    processed = {block.site for block in blocks}
    scale = max(seed_c.norm(), 1e-300)
    worst = max((value for site, value in rows if site in processed), default=0.0)
    report = RunReport(f"apply {config_fingerprint(cfg)[:12]}")
    report.add("processed rows are solved relative to the seed norm", worst / scale, cfg.residual_tol)
    unprocessed = [value for site, value in rows if site not in processed]
    if unprocessed:
        report.notes.append(
            f"worst unprocessed interior residual: {max(unprocessed) / scale:.3e} of seed norm"
        )
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    report = run_verify(cfg)
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else None
    payload = read_operator_payload(args.operator, cfg)
    text = export_operator_json(payload) if args.format == "json" else export_operator_csv(payload)
    Path(args.out).write_text(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="estc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the projector and dump it")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("apply", help="project a seed onto the solution subspace")
    p.add_argument("--config", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None)
    group.add_argument("--input", default=None, help="solution dump to reprocess")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="run the built-in validation suite")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="re-serialize an operator dump")
    p.add_argument("--operator", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="verify the dump fingerprint first")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _DEGENERACY_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except _VALIDATION_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
