"""tools/sample_outputs.py, compared by tools/compare_outputs.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sample_outputs = load("sample_outputs")
compare_outputs = load("compare_outputs")


def test_two_runs_at_radius_2_are_bytes_equal(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert sample_outputs.main([str(ROOT / "src"), str(out), "2"]) == 0
    written = {
        "build": ["operator.c16", "operator.json", "report.txt", "stages.csv"],
        "apply": ["report.txt", "residual.csv", "solution.json"],
        "verify": [],
        "export-json": ["operator.json"],
        "export-csv": ["operator.csv"],
    }
    names = sorted(
        f"r2.{command}.{name}" for command, files in written.items() for name in files + ["stdout", "exit"]
    )
    assert sorted(path.name for path in first.iterdir()) == names
    assert all((first / f"r2.{command}.exit").read_text() == "0\n" for command in written)
    assert (first / "r2.verify.stdout").read_text().endswith("result: ok\n")
    assert compare_outputs.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: bytes equal" for name in names]
