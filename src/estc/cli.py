"""Command line entry points: build, apply, verify, export.

Exit codes: 0 success, 1 configuration or validation failure, 2 numerical
degeneracy in the construction, 3 I/O failure.  All outputs are
byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, check_seed, config_fingerprint, parse_config
from .engine import ProjectorAccumulator
from .errors import (
    ConfigError,
    DegenerateOverlap,
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
    read_solution,
    residual_csv,
    stages_csv,
    write_operator,
    write_solution,
)
from .lattice import Window, window_size, window_table
from .multispinor import Multispinor, random_multispinor

_VALIDATION_ERRORS = (
    ConfigError,
    TransversalityViolation,
    ZeroField,
    ShiftNotInS13,
    ValueError,
)
_DEGENERACY_ERRORS = (StageSingular, DegenerateOverlap, SingularMatrix)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2, reserved here
        raise ConfigError(message)


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text())


def _gate_processed_rows(
    report: RunReport, acc: ProjectorAccumulator, seed_c: Multispinor, tol: float
) -> tuple[Multispinor, np.ndarray]:
    """Apply the fundamental solution to seed_c and gate the rows it solves.

    Returns the solution and its row residuals over the window interior,
    the leading window sites, whose rows are the processed rows, all
    gated: norms[j] is the residual of window site j.
    """
    solution = acc.apply_fundamental(seed_c)
    table = window_table(acc.window)
    norms = np.empty(len(table.schedule))
    norms[table.schedule] = np.linalg.norm(acc.rows(solution.at(table.coords)), axis=1)
    scale = max(seed_c.norm(), 1e-300)
    report.add("processed rows are solved relative to the seed norm", norms.max() / scale, tol)
    return solution, norms


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    window = Window(cfg.radius, cfg.n_ref)
    acc = ProjectorAccumulator(cfg.field, cfg.params, window, rcond_min=cfg.rcond_min)
    acc.run()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_operator(out / "operator.json", acc, cfg)
    (out / "stages.csv").write_text(stages_csv(acc))

    report = RunReport(f"build {config_fingerprint(cfg)[:12]}")
    seed_c = random_multispinor(window_table(window).coords, cfg.seed)
    _gate_processed_rows(report, acc, seed_c, cfg.residual_tol)
    # stages by rcond, ascending; ties keep schedule order
    order = np.argsort(acc.rconds, kind="stable").tolist()
    worst = order[0]
    rcond = float(acc.rconds[worst])
    report.add("every stage condition stays above rcond_min", cfg.rcond_min / rcond, 1.0)
    report.notes.append(
        f"worst stage rcond {rcond:.3e} at stage {worst}, site {acc.schedule[worst]}; "
        f"rcond_min {cfg.rcond_min:.3e}"
    )
    report.notes.append(
        f"window radius {cfg.radius} around {cfg.n_ref}: "
        f"{window_size(cfg.radius)} sites, {len(acc.schedule)} stages, "
        f"{window_table(window).coupling_count} stored couplings"
    )
    if not report.ok:
        report.notes.append(
            "smallest stage rconds: "
            + "; ".join(f"stage {k} at {acc.schedule[k]} {acc.rconds[k]:.3e}" for k in order[:3])
        )
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 2


def cmd_apply(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    acc = read_operator(args.operator, cfg)
    window = acc.window

    if args.input is not None:
        seed_c = read_solution(args.input, cfg)
        source = {"input": Path(args.input).name}
    else:
        seed = cfg.seed if args.seed is None else check_seed(args.seed)
        seed_c = random_multispinor(window_table(window).coords, seed)
        source = {"seed": seed}

    report = RunReport(f"apply {config_fingerprint(cfg)[:12]}")
    solution, norms = _gate_processed_rows(report, acc, seed_c, cfg.residual_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_solution(out / "solution.json", solution, cfg, source)
    (out / "residual.csv").write_text(residual_csv(window_table(window), norms))
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import run_verify  # here, so build and apply never load the suite

    cfg = _load_config(args.config)
    report = run_verify(cfg)
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else None
    export = export_operator_json if args.format == "json" else export_operator_csv
    Path(args.out).write_text(export(args.operator, cfg))
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
