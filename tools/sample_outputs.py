"""Write estc's outputs on the sample configuration into one flat directory.

    python3 tools/sample_outputs.py SRC OUT R [R ...]

For each radius R, writes demos/sample_config.txt with only R changed and
runs, each in a child process of `python -m estc.cli` that imports estc
from the directory SRC:

    build --config CONFIG --out DIR
    apply --config CONFIG --operator DIR/operator.json --out DIR --seed 3
    verify --config CONFIG
    export --operator DIR/operator.json --format json --out FILE   (R <= 3)
    export --operator DIR/operator.json --format csv --out FILE    (R <= 3)

The children inherit the rest of the environment, OPENBLAS_NUM_THREADS
among it.  Every file a command writes, its stdout and its exit code go
into OUT as r{R}.{command}.{name}, with command one of build, apply,
verify, export-json and export-csv, and name the file's name, stdout or
exit.  Two such directories, say of two checkouts, compare in one call
of tools/compare_outputs.py.  Exits 0 once every command has run,
whatever their exit codes.  Uses the standard library only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "sample_config.txt"
EXPORT_RADIUS = 3  # export json and csv at R <= 3 only: their text grows fast past it


def sample_config(radius: int) -> str:
    """The sample configuration with only R changed."""
    text, count = re.subn(r"(?m)^R = \d+$", f"R = {radius}", SAMPLE_CONFIG.read_text())
    if count != 1:
        raise ValueError(f"{SAMPLE_CONFIG} has {count} lines 'R = ...', not one")
    return text


def commands(radius: int, config: Path, work: Path) -> list[tuple[str, list[str]]]:
    """(command, CLI arguments) of each run at one radius; each writes into work / command."""
    cfg = ["--config", str(config)]
    operator = ["--operator", str(work / "build" / "operator.json")]
    runs = [
        ("build", ["build", *cfg, "--out", str(work / "build")]),
        ("apply", ["apply", *cfg, *operator, "--out", str(work / "apply"), "--seed", "3"]),
        ("verify", ["verify", *cfg]),
    ]
    if radius <= EXPORT_RADIUS:
        for kind in ("json", "csv"):
            out = work / f"export-{kind}" / f"operator.{kind}"
            runs.append((f"export-{kind}", ["export", *operator, "--format", kind, "--out", str(out)]))
    return runs


def sample_outputs(src: Path, out: Path, radii: list[int]) -> None:
    """Run every command at each radius with estc from src; write their outputs flat into out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src.resolve()), env.get("PYTHONPATH")]))
    out.mkdir(parents=True, exist_ok=True)
    for radius in radii:
        with tempfile.TemporaryDirectory() as scratch:
            work = Path(scratch)
            config = work / "config.txt"
            config.write_text(sample_config(radius))
            for command, argv in commands(radius, config, work):
                written = work / command
                written.mkdir()
                done = subprocess.run(
                    [sys.executable, "-m", "estc.cli", *argv],
                    cwd=work,
                    env=env,
                    stdout=subprocess.PIPE,
                    check=False,
                )
                prefix = f"r{radius}.{command}."
                (out / f"{prefix}stdout").write_bytes(done.stdout)
                (out / f"{prefix}exit").write_text(f"{done.returncode}\n")
                for path in sorted(written.iterdir()):
                    (out / f"{prefix}{path.name}").write_bytes(path.read_bytes())


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3 or not Path(args[0]).is_dir() or not all(r.isdigit() for r in args[2:]):
        print("usage: sample_outputs.py SRC OUT R [R ...]", file=sys.stderr)
        return 2
    sample_outputs(Path(args[0]), Path(args[1]), [int(r) for r in args[2:]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
