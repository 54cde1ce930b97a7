"""Command line behavior: artifacts, determinism, exit codes, fault injection."""

import json

import numpy as np
import pytest

from estc import Window, cli, dirac_basis, engine, make_schedule

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
    assert payload["format"] == "estc-operator-v2"
    assert len(payload["stages"]) == 13
    assert (out / "stages.csv").read_text().startswith("stage,")
    report = (out / "report.txt").read_text()
    assert "PASS" in report and "FAIL" not in report
    assert report.endswith("result: ok\n")


def test_build_is_byte_deterministic(built, tmp_path, config_path):
    _, out = built
    second = tmp_path / "op2"
    assert cli.main(["build", "--config", str(config_path), "--out", str(second)]) == 0
    for name in ("operator.json", "stages.csv", "report.txt"):
        assert (second / name).read_bytes() == (out / name).read_bytes(), name


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


def test_verify_detects_a_corrupted_factor_table(config_path, capsys, monkeypatch):
    broken = dirac_basis.FACTOR_TABLE.copy()
    broken[3, 5] = -broken[3, 5]
    monkeypatch.setattr(dirac_basis, "FACTOR_TABLE", broken)
    assert cli.main(["verify", "--config", str(config_path)]) == 1
    assert "FAIL factor table" in capsys.readouterr().out


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
    assert json.loads(exported.read_text())["format"] == "estc-operator-dsets-v2"
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
    for radius, stages in ((6, 1301), (100000, 133330666713333000001)):
        bad.write_text(GOOD.replace("R = 2", f"R = {radius}"))
        assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert f"needs {stages} stages, more than the limit of 1000" in capsys.readouterr().err
    payload = json.loads((out / "operator.json").read_text())
    payload["radius"] = 2**40
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    assert cli.main(["export", "--operator", str(edited), "--out", str(tmp_path / "e.json")]) == 1
    assert "more than the limit of 1000" in capsys.readouterr().err


def test_degeneracy_exits_2(tmp_path):
    cfg = tmp_path / "resonant.cfg"
    cfg.write_text(RESONANT)
    assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "op")]) == 2


def test_non_finite_gram_exits_2(tmp_path, config_path, monkeypatch, capsys):
    target = make_schedule(Window(2))[3]
    real = engine.l_matrix

    def poisoned(n, f, p):
        out = real(n, f, p)
        if n == target:
            out[0] = np.nan
        return out

    monkeypatch.setattr(engine, "l_matrix", poisoned)
    out = tmp_path / "op"
    assert cli.main(["build", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"stage 3 at site {target}" in capsys.readouterr().err
    assert not (out / "operator.json").exists()


def test_io_failures_exit_3(tmp_path, config_path):
    assert cli.main(
        ["build", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "x")]
    ) == 3
    assert cli.main(
        ["apply", "--config", str(config_path), "--operator", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "y")]
    ) == 3
