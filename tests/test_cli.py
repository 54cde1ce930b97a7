"""Command line behavior: artifacts, determinism, exit codes, fault injection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import estc
from estc import Window, checks, cli, dirac_basis, engine, lattice
from estc.lattice import make_schedule

GOOD = """\
q1 = 0.1
q2 = 0.2
q3 = 0.3
q4 = 0.15
Omega = 0.5
R = 2
n_ref = 0 0 0 0
seed = 3
a_12 = 0.05
b_31 = 0.04
a_62 = 0.03
"""

# one site of the radius-3 window sits exactly on shell for this setup
RESONANT = """\
q4 = 0.1
Omega = 0.45
R = 3
a_12 = 1e-13
b_31 = 1e-13
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    return path


@pytest.fixture()
def built(tmp_path, config_path):
    out = tmp_path / "op"
    assert cli.main(["build", "--config", str(config_path), "--out", str(out)]) == 0
    return config_path, out


def test_build_writes_all_artifacts(built):
    _, out = built
    payload = json.loads((out / "operator.json").read_text())
    assert payload["format"] == "estc-operator-v4"
    assert payload["stages"] == 13
    assert (out / "operator.c16").stat().st_size == lattice.factor_bytes(2)
    assert (out / "stages.csv").read_text().startswith("stage,")
    report = (out / "report.txt").read_text()
    assert "PASS processed rows are solved relative to the seed norm" in report
    assert "FAIL" not in report and "smallest stage rconds" not in report
    assert report.endswith("result: ok\n")


def test_build_is_byte_deterministic(built, tmp_path, config_path):
    _, out = built
    second = tmp_path / "op2"
    assert cli.main(["build", "--config", str(config_path), "--out", str(second)]) == 0
    for name in ("operator.json", "operator.c16", "stages.csv", "report.txt"):
        assert (second / name).read_bytes() == (out / name).read_bytes(), name


def test_build_report_names_the_worst_stage_rcond(built):
    _, out = built
    rows = [line.split(",") for line in (out / "stages.csv").read_text().split("\n")[1:-1]]
    worst = min(rows, key=lambda row: float(row[6]))
    site = tuple(int(x) for x in worst[1:5])
    report = (out / "report.txt").read_text()
    assert "PASS every stage condition stays above rcond_min: observed=" in report
    assert (
        f"  worst stage rcond {float(worst[6]):.3e} at stage {worst[0]}, site {site}; "
        "rcond_min 1.000e-10\n"
    ) in report


def test_importing_the_cli_skips_the_verify_suite_and_base64():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    loaded = "{'estc.checks', 'estc.combiner', 'base64'} & set(sys.modules)"
    code = f"import sys, estc.cli; print(sorted({loaded}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_every_exported_name_is_bound_once():
    assert len(estc.__all__) == len(set(estc.__all__))
    assert [name for name in estc.__all__ if not hasattr(estc, name)] == []


def test_apply_writes_solution_and_residuals(built, tmp_path):
    config_path, out = built
    sol = tmp_path / "sol"
    code = cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--out", str(sol)]
    )
    assert code == 0
    payload = json.loads((sol / "solution.json").read_text())
    assert payload["format"] == "estc-solution-v1"
    assert payload["source"] == {"seed": 3}
    lines = (sol / "residual.csv").read_text().strip().split("\n")
    assert lines[0] == "n1,n2,n3,n4,g4d,residual"
    assert len(lines) == 1 + 13  # one row per interior site
    assert "PASS" in (sol / "report.txt").read_text()

    # deterministic
    sol2 = tmp_path / "sol2"
    cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--out", str(sol2)]
    )
    assert (sol2 / "solution.json").read_bytes() == (sol / "solution.json").read_bytes()
    assert (sol2 / "residual.csv").read_bytes() == (sol / "residual.csv").read_bytes()

    # seed override changes the seed amplitude set
    sol3 = tmp_path / "sol3"
    cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--seed", "9", "--out", str(sol3)]
    )
    assert json.loads((sol3 / "solution.json").read_text())["source"] == {"seed": 9}
    assert (sol3 / "solution.json").read_bytes() != (sol / "solution.json").read_bytes()


def test_a_negative_seed_exits_1_with_the_config_message(built, tmp_path, capsys):
    config_path, out = built
    # the config rule and the --seed override are the one check, with one message
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD.replace("seed = 3", "seed = -5"))
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    config_error = capsys.readouterr().err
    sol = tmp_path / "sol"
    code = cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--seed", "-5", "--out", str(sol)]
    )
    assert code == 1
    assert capsys.readouterr().err == config_error == "error: seed must be non-negative, got -5\n"
    assert not sol.exists() and not (tmp_path / "x").exists()


def test_apply_reprocesses_a_solution_input(built, tmp_path):
    config_path, out = built
    first = tmp_path / "first"
    cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--out", str(first)]
    )
    second = tmp_path / "second"
    code = cli.main(
        ["apply", "--config", str(config_path), "--operator", str(out / "operator.json"),
         "--input", str(first / "solution.json"), "--out", str(second)]
    )
    assert code == 0
    a = json.loads((first / "solution.json").read_text())
    b = json.loads((second / "solution.json").read_text())
    assert b["source"] == {"input": "solution.json"}
    # the fundamental map is idempotent: amplitudes agree to rounding
    for row_a, row_b in zip(a["amplitudes"], b["amplitudes"]):
        assert np.abs(np.array(row_a) - np.array(row_b)).max() < 1e-10


def test_verify_passes_on_a_sound_configuration(config_path, capsys):
    assert cli.main(["verify", "--config", str(config_path)]) == 0
    text = capsys.readouterr().out
    assert "result: ok" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("radius", [1, 2, 3, 5])
def test_verify_checks_the_projector_at_radius_3_past_it(tmp_path, capsys, radius):
    config = tmp_path / "run.cfg"
    config.write_text(GOOD.replace("R = 2", f"R = {radius}"))
    assert cli.main(["verify", "--config", str(config)]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    stages = {1: 1, 2: 13}.get(radius, 69)
    configured = f" (configured R = {radius})" if radius > 3 else ""
    assert f"  projector run: radius {min(radius, 3)}{configured}, {stages} stages, " in text
    # the paper's recursion runs at radius min(R, 2): one stage, the bare block, at R = 1
    assert "  PASS paper recursion matches the factored apply: " in text
    assert f"  paper recursion: radius {min(radius, 2)}, {min(stages, 13)} stages\n" in text


def test_verify_detects_a_perturbed_gram_inverse(config_path, capsys, monkeypatch):
    real = checks.a_matrix
    monkeypatch.setattr(checks, "a_matrix", lambda *args: real(*args) * (1 + 1e-6))
    assert cli.main(["verify", "--config", str(config_path)]) == 1
    assert "FAIL paper recursion matches the factored apply" in capsys.readouterr().out


def test_verify_detects_a_corrupted_factor_table(config_path, capsys, monkeypatch):
    broken = dirac_basis.FACTOR_TABLE.copy()
    broken[3, 5] = -broken[3, 5]
    monkeypatch.setattr(dirac_basis, "FACTOR_TABLE", broken)
    assert cli.main(["verify", "--config", str(config_path)]) == 1
    assert "FAIL factor table" in capsys.readouterr().out


def test_verify_detects_a_corrupted_field_overlap(config_path, capsys, monkeypatch):
    real = engine._field_tables

    def corrupted(f):
        field_v, field_overlap, field_row = real(f)
        broken = field_overlap.copy()
        broken[0] *= 1 + 1e-6
        return field_v, broken, field_row

    monkeypatch.setattr(engine, "_field_tables", corrupted)
    assert cli.main(["verify", "--config", str(config_path)]) == 1
    assert "FAIL row Gram blocks" in capsys.readouterr().out


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize(
    "part, line",
    [(0, "FAIL stage blocks are idempotent"),
     (1, "FAIL distinct stage blocks are mutually orthogonal")],
    ids=["W_t", "band"],
)
def test_verify_detects_a_corrupted_factor_store(tmp_path, capsys, monkeypatch, part, line, radius):
    real = engine.ProjectorAccumulator.run

    def corrupted(self):
        real(self)
        # a relative error of 1e-6 in the largest stored entry of packed W_t or of a band
        arrays = [factors[part] for factors in self.slice_factors()]  # views of the store
        array = max(arrays, key=lambda array: np.abs(array).max(initial=0.0))
        array[np.unravel_index(np.abs(array).argmax(), array.shape)] *= 1 + 1e-6
        return self

    monkeypatch.setattr(engine.ProjectorAccumulator, "run", corrupted)
    config = tmp_path / "run.cfg"
    config.write_text(GOOD.replace("R = 2", f"R = {radius}"))
    assert cli.main(["verify", "--config", str(config)]) == 1
    text = capsys.readouterr().out
    assert line in text
    assert "FAIL paper recursion matches the factored apply" in text


def test_verify_detects_a_corrupted_product_tensor(config_path, capsys, monkeypatch):
    broken = dirac_basis._PROD.copy()
    broken[3 ^ 5, 3, 5] = -broken[3 ^ 5, 3, 5]
    monkeypatch.setattr(dirac_basis, "_PROD", broken)
    assert cli.main(["verify", "--config", str(config_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL coefficient product" in out


def test_export_formats(built, tmp_path):
    config_path, out = built
    exported = tmp_path / "op.dsets.json"
    code = cli.main(
        ["export", "--operator", str(out / "operator.json"), "--format", "json",
         "--out", str(exported), "--config", str(config_path)]
    )
    assert code == 0
    assert json.loads(exported.read_text())["format"] == "estc-operator-dsets-v3"
    table = tmp_path / "op.csv"
    assert cli.main(
        ["export", "--operator", str(out / "operator.json"), "--format", "csv",
         "--out", str(table)]
    ) == 0
    assert table.read_text().startswith("stage,m1,m2,m3,m4,entry,")


def test_validation_failures_exit_1(tmp_path, built):
    config_path, out = built
    bad = tmp_path / "bad.cfg"
    bad.write_text("a_11 = 0.1\n")
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    bad.write_text("mystery = 1\n")
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    bad.write_text("")  # zero field
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    # fingerprint mismatch between config and operator dump
    other = tmp_path / "other.cfg"
    other.write_text(GOOD.replace("0.05", "0.06"))
    assert cli.main(
        ["apply", "--config", str(other), "--operator", str(out / "operator.json"),
         "--out", str(tmp_path / "y")]
    ) == 1
    # bad usage: unknown subcommand, missing required argument
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["build", "--config", str(config_path)]) == 1


@pytest.mark.parametrize(
    "edit",
    [("q1 = 0.1", "q1 = nan"), ("Omega = 0.5", "Omega = inf"), ("a_12 = 0.05", "a_12 = nan"),
     ("seed = 3", "seed = 3\nrcond_min = inf"), ("seed = 3", "seed = 3\nresidual_tol = inf"),
     ("a_12 = 0.05", "a_12 = 1e308"), ("q1 = 0.1", "q1 = 1e200"),
     ("Omega = 0.5", "Omega = 1e160")],
)
def test_non_finite_config_exits_1(tmp_path, edit):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD.replace(*edit))
    out = tmp_path / "op"
    assert cli.main(["build", "--config", str(bad), "--out", str(out)]) == 1
    assert not (out / "operator.json").exists()


def test_oversized_windows_exit_1(built, tmp_path, capsys):
    config_path, out = built
    bad = tmp_path / "big.cfg"
    for radius, stages in ((7, 2493), (100000, 133330666713333000001)):
        bad.write_text(GOOD.replace("R = 2", f"R = {radius}"))
        assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert (
            f"needs {stages} stages and a band factor of {lattice.factor_bytes(radius)} bytes, "
            "more than the limit of 127872000 bytes"
        ) in capsys.readouterr().err
    payload = json.loads((out / "operator.json").read_text())
    payload["radius"] = 2**40
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    assert cli.main(["export", "--operator", str(edited), "--out", str(tmp_path / "e.json")]) == 1
    assert "more than the limit of 127872000 bytes" in capsys.readouterr().err


def test_degeneracy_exits_2(tmp_path, capsys):
    cfg = tmp_path / "resonant.cfg"
    cfg.write_text(RESONANT)
    assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "op")]) == 2
    # the resonant site on shell, its stage and rcond; a singular build writes nothing
    err = capsys.readouterr().err
    assert err.startswith("error: stage 59 at site (0, 0, 0, 2): reciprocal condition ")
    assert not (tmp_path / "op").exists()


def test_non_finite_gram_exits_2(tmp_path, config_path, monkeypatch, capsys):
    target = make_schedule(Window(2))[3]
    real = engine.FieldTables.zero_shift

    def poisoned(self, sites):
        out = real(self, sites)
        out[(np.asarray(sites) == target).all(axis=1), 0, 0] = np.nan
        return out

    monkeypatch.setattr(engine.FieldTables, "zero_shift", poisoned)
    out = tmp_path / "op"
    assert cli.main(["build", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"stage 3 at site {target}" in capsys.readouterr().err
    assert not (out / "operator.json").exists()


def test_corrupted_coupling_fails_the_build(tmp_path, monkeypatch):
    real = engine.ProjectorAccumulator.run

    def corrupted(self):
        real(self)
        # a relative error of 1e-6 in the largest stored band entry
        bands = [band for _, band in self.slice_factors()]  # views of the factor store
        band = max(bands, key=lambda band: np.abs(band).max(initial=0.0))
        band[np.unravel_index(np.abs(band).argmax(), band.shape)] *= 1 + 1e-6
        return self

    monkeypatch.setattr(engine.ProjectorAccumulator, "run", corrupted)
    for radius in (2, 4):
        config = tmp_path / f"r{radius}.cfg"
        config.write_text(GOOD.replace("R = 2", f"R = {radius}"))
        out = tmp_path / f"op{radius}"
        assert cli.main(["build", "--config", str(config), "--out", str(out)]) == 2
        report = (out / "report.txt").read_text()
        assert "FAIL processed rows are solved relative to the seed norm" in report
        assert "PASS every stage condition stays above rcond_min" in report
        assert report.endswith("result: FAILED\n")
        rows = [line.split(",") for line in (out / "stages.csv").read_text().split("\n")[1:-1]]
        worst = sorted(rows, key=lambda row: float(row[6]))[:3]
        named = "; ".join(
            f"stage {row[0]} at {tuple(int(x) for x in row[1:5])} {float(row[6]):.3e}"
            for row in worst
        )
        assert f"  smallest stage rconds: {named}\n" in report


def test_io_failures_exit_3(tmp_path, config_path):
    assert cli.main(
        ["build", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "x")]
    ) == 3
    assert cli.main(
        ["apply", "--config", str(config_path), "--operator", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "y")]
    ) == 3


# 100,000 levels: far past the depth at which json.loads gives up with RecursionError
DEEP_LIST = "[" * 100_000
DEEP_OBJECT = '{"a":' * 100_000 + "1" + "}" * 100_000


@pytest.mark.parametrize(
    "command, text",
    [("apply", DEEP_LIST), ("export", DEEP_LIST), ("apply", DEEP_OBJECT), ("input", DEEP_OBJECT)],
    ids=["apply header", "export header", "apply header of objects", "solution input"],
)
def test_deeply_nested_json_exits_1_with_one_error_line(built, tmp_path, capsys, command, text):
    config_path, out = built
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    operator = str(out / "operator.json") if command == "input" else str(deep)
    argv = {
        "apply": ["apply", "--config", str(config_path), "--operator", operator],
        "export": ["export", "--operator", operator],
        "input": ["apply", "--config", str(config_path), "--operator", operator, "--input", str(deep)],
    }[command]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "y")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and err.count("\n") == 1
