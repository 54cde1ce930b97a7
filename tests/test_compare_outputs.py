"""tools/compare_outputs.py on CLI build directories."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

from estc import cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = ROOT / "demos" / "sample_config.txt"

spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def build(out: Path) -> Path:
    assert cli.main(["build", "--config", str(SAMPLE_CONFIG), "--out", str(out)]) == 0
    return out


def test_two_builds_are_bytes_equal_and_a_flipped_low_bit_is_measured(tmp_path, capsys):
    first, second = build(tmp_path / "first"), build(tmp_path / "second")
    capsys.readouterr()
    names = sorted(path.name for path in first.iterdir())
    assert compare_outputs.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: bytes equal" for name in names]

    flipped = tmp_path / "flipped"
    shutil.copytree(second, flipped)
    original = np.fromfile(first / "operator.c16", dtype=np.complex128)
    numbers = original.copy()
    largest = int(np.argmax(np.abs(numbers.real)))
    numbers.view(np.uint64)[2 * largest] ^= 1  # the lowest bit of the real part of the largest entry
    numbers.tofile(flipped / "operator.c16")
    assert compare_outputs.main([str(first), str(flipped)]) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert sorted(lines) == names
    change = abs(numbers[largest].real - original[largest].real)
    scale = np.abs(original.view(float)).max()
    assert lines["operator.c16"] == f"largest difference {change / scale:.3g} of the largest number"
    assert 0.0 < change / scale < 2.3e-16
    assert all(verdict == "bytes equal" for name, verdict in lines.items() if name != "operator.c16")


def test_json_and_csv_are_compared_by_their_numbers(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (first / "a.json").write_text(json.dumps({"x": [1.0, 2.0], "name": "run"}))
    (second / "a.json").write_text(json.dumps({"x": [1.0, 2.5], "name": "run"}))
    (first / "b.csv").write_text("k,value\n0,4.0\n1,nan\n")
    (second / "b.csv").write_text("k,value\n0,4.0\n1,nan \n")
    (first / "c.json").write_text(json.dumps({"name": "run"}))
    (second / "c.json").write_text(json.dumps({"name": "other"}))
    (first / "d.txt").write_text("1\n")
    (second / "d.txt").write_text("2\n")
    (first / "e.csv").write_text("1\n")
    assert compare_outputs.main([str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.json: largest difference 0.2 of the largest number",
        "b.csv: largest difference 0 of the largest number",
        "c.json: differs beyond its numbers",
        "d.txt: bytes differ",
        f"e.csv: only in {first}",
    ]
