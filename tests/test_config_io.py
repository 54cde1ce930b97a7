"""Configuration parsing, fingerprints, dumps and exchange formats."""

import base64
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc import (
    ConfigError,
    ProjectorAccumulator,
    TransversalityViolation,
    Window,
    ZeroField,
    config_fingerprint,
    field_intensity,
    matrix_from_dset,
    parse_config,
    random_multispinor,
    serialize_config,
)
from estc import cli, engine
from estc.io import (
    RunReport,
    export_operator_csv,
    export_operator_json,
    operator_payload,
    read_exported_operator,
    read_operator,
    read_operator_payload,
    read_solution,
    residual_csv,
    stages_csv,
    write_operator,
    write_solution,
)

BASE_TEXT = """\
# demo configuration
q1 = 0.1
q2 = 0.2
q3 = 0.3
q4 = 0.15
Omega = 0.5
R = 2
n_ref = 0 0 0 0
seed = 3
a_12 = 0.05
b_31 = 0.04   # trailing comment
a_62 = 0.03
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    cfg = parse_config(BASE_TEXT)
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius, cfg.n_ref))
    acc.run()
    path = tmp_path_factory.mktemp("dump") / "operator.json"
    write_operator(path, acc, cfg)
    return cfg, acc, path


def test_parse_reads_values_comments_and_defaults():
    cfg = parse_config(BASE_TEXT)
    assert cfg.params.q4 == 0.15
    assert cfg.params.omega == 0.5
    assert cfg.radius == 2
    assert cfg.n_ref == (0, 0, 0, 0)
    assert cfg.seed == 3
    assert cfg.residual_tol == 1e-8  # default
    assert cfg.field.a[0, 1] == 0.05
    assert cfg.field.b[2, 0] == 0.04
    defaults = parse_config("a_12 = 0.1")
    assert defaults.params.omega == 0.5
    assert defaults.radius == 2


def test_serialize_parse_round_trip_is_exact():
    cfg = parse_config(BASE_TEXT)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_fingerprint(again) == config_fingerprint(cfg)


def test_fingerprint_ignores_formatting_but_not_values():
    cfg = parse_config(BASE_TEXT)
    shuffled = parse_config("a_62=0.03\nb_31 =0.04\nseed= 3\n" + BASE_TEXT.replace("a_62 = 0.03", "").replace("b_31 = 0.04   # trailing comment", "").replace("seed = 3", ""))
    assert config_fingerprint(shuffled) == config_fingerprint(cfg)
    changed = parse_config(BASE_TEXT.replace("0.05", "0.051"))
    assert config_fingerprint(changed) != config_fingerprint(cfg)


@pytest.mark.parametrize(
    "text,error",
    [
        ("q1 0.1", ConfigError),
        ("mystery = 1\na_12 = 0.1", ConfigError),
        ("q1 = fast\na_12 = 0.1", ConfigError),
        ("q1 = 0.1\nq1 = 0.2\na_12 = 0.1", ConfigError),
        ("n_ref = 0 0 0\na_12 = 0.1", ConfigError),
        ("n_ref = 0 0 0 1\na_12 = 0.1", ConfigError),
        ("R = 0\na_12 = 0.1", ConfigError),
        ("seed = -1\na_12 = 0.1", ConfigError),
        ("residual_tol = 0\na_12 = 0.1", ConfigError),
        ("a_12 = 0.1\na_79 = 0.1", ConfigError),
        ("a_11 = 0.1", TransversalityViolation),
        ("q1 = 0.1", ZeroField),
        ("Omega = -0.5\na_12 = 0.1", ValueError),
        ("q1 = nan\na_12 = 0.1", ConfigError),
        ("q4 = -inf\na_12 = 0.1", ConfigError),
        ("Omega = inf\na_12 = 0.1", ConfigError),
        ("residual_tol = inf\na_12 = 0.1", ConfigError),
        ("rcond_min = inf\na_12 = 0.1", ConfigError),
        ("a_12 = nan", ConfigError),
        ("a_12 = 0.1\nb_31 = -inf", ConfigError),
        ("a_11 = nan\na_12 = 0.1", ConfigError),
        ("a_12 = 1e308", ValueError),
        ("q1 = 1e200\na_12 = 0.1", ConfigError),
        ("Omega = 1e160\na_12 = 0.1", ConfigError),
        ("a_12 = 1e150", ValueError),
    ],
)
def test_parse_rejects_bad_input(text, error):
    with pytest.raises(error):
        parse_config(text)


def test_error_reports_offending_line():
    with pytest.raises(ConfigError) as err:
        parse_config("a_12 = 0.1\nmystery = 1")
    assert err.value.line == 2
    assert err.value.key == "mystery"
    with pytest.raises(ConfigError) as err:
        parse_config("a_12 = 0.1\n\nOmega = nan")
    assert (err.value.line, err.value.key) == (3, "Omega")
    # out of range for the window: named by key, the window has no line
    for key, value in (("q1", "1e200"), ("q3", "-1e100"), ("Omega", "1e160")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"a_12 = 0.1\n{key} = {value}")
        assert err.value.key == key
    assert parse_config("a_12 = 0.1\nq3 = 1e76").params.q3 == 1e76
    with pytest.raises(ConfigError, match="float range"):
        parse_config(f"a_12 = 0.1\nn_ref = {10**400} 0 0 0")


_GRAMMAR_KEYS = (
    "q1", "q2", "q3", "q4", "Omega", "R", "n_ref", "seed", "residual_tol", "rcond_min",
    "a_12", "a_13", "b_21", "b_31", "a_62", "b_43", "a_11", "b_79", "mystery",
)
_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e308", "-1e308", "0",
                     "0.1", "-0.5", "2", "1e-300", "0 0 0 0", "1 1 0 0", "1 0 0 0", "fast", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.text("0123456789.e+-nainf ", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GRAMMAR_KEYS), _VALUES), max_size=6))
def test_parse_yields_finite_configs_or_documented_errors(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        cfg = parse_config(text)
    except (ConfigError, TransversalityViolation, ZeroField, ValueError):
        return
    p = cfg.params
    numbers = [p.q1, p.q2, p.q3, p.q4, p.omega, cfg.residual_tol, cfg.rcond_min]
    assert np.isfinite(numbers).all()
    assert np.isfinite(cfg.field.a).all() and np.isfinite(cfg.field.b).all()
    assert np.isfinite(field_intensity(cfg.field))


def test_explicit_zero_for_constrained_amplitude_is_allowed():
    cfg = parse_config("a_11 = 0.0\na_12 = 0.1")
    assert cfg.field.a[0, 0] == 0.0


def test_operator_dump_round_trip(built):
    cfg, acc, path = built
    loaded = read_operator(path, cfg)
    assert loaded.stages_done == acc.stages_done
    assert loaded.schedule == acc.schedule
    assert loaded.window == acc.window
    assert np.array_equal(loaded.factor, acc.factor)
    assert np.array_equal(loaded.cores, acc.cores)
    assert np.array_equal(loaded.core_dsets, acc.core_dsets)
    assert np.array_equal(loaded.rconds, acc.rconds)
    c = random_multispinor(acc.window.points(), 5)
    assert (loaded.apply_projector(c) - acc.apply_projector(c)).norm() == 0.0


def test_operator_dump_holds_the_factors_in_base64(built):
    cfg, acc, path = built
    payload = json.loads(path.read_text())
    assert payload["format"] == "estc-operator-v2"
    assert [tuple(site) for site in payload["schedule"]] == acc.schedule
    for k, stage in enumerate(payload["stages"]):
        assert set(stage) == {"stage", "site", "rcond", "core_dset", "coupling"}
        raw = base64.b64decode(stage["coupling"])
        row = np.frombuffer(raw, dtype="<c16").reshape(4, 4 * k)
        assert np.array_equal(row, acc.factor[4 * k : 4 * k + 4, : 4 * k])
        assert len(stage["core_dset"]) == 16


def test_operator_dump_is_deterministic(built, tmp_path):
    cfg, acc, path = built
    again = tmp_path / "operator.json"
    write_operator(again, acc, cfg)
    assert again.read_bytes() == path.read_bytes()


def test_dump_refuses_wrong_fingerprint(built, tmp_path):
    cfg, acc, path = built
    other = parse_config(BASE_TEXT.replace("0.05", "0.06"))
    with pytest.raises(ConfigError):
        read_operator(path, other)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError):
        read_operator(bad, cfg)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ConfigError):
        read_operator(wrong, cfg)


def _stage_set(k, key, value):
    def edit(payload):
        payload["stages"][k][key] = value

    return edit


def _schedule_set(k, site):
    def edit(payload):
        payload["schedule"][k] = site
        payload["stages"][k]["site"] = site

    return edit


def _reorder_schedule(payload):
    schedule, stages = payload["schedule"], payload["stages"]
    schedule[1], schedule[2] = schedule[2], schedule[1]
    stages[1]["site"], stages[2]["site"] = stages[2]["site"], stages[1]["site"]


def _swap_stages(payload):
    stages = payload["stages"]
    stages[1], stages[2] = stages[2], stages[1]


def _as_v1(payload):
    payload["format"] = "estc-operator-v1"
    for stage in payload["stages"]:
        stage["support"] = []
        del stage["coupling"]


def _short_coupling(payload):
    stage = payload["stages"][3]
    stage["coupling"] = stage["coupling"][:-8]


def _next_stage_coupling(payload):
    stages = payload["stages"]
    stages[1]["coupling"] = stages[2]["coupling"]


# edits of a valid dump, each of which the reader must refuse
MALFORMED = {
    "bad base64": _stage_set(2, "coupling", "not*base64!"),
    "short coupling": _short_coupling,
    "coupling of the next stage": _next_stage_coupling,
    "v1 file": _as_v1,
    "fingerprint mismatch": lambda payload: payload.update(fingerprint="0" * 64),
    "out-of-order stages": _swap_stages,
    "stage site off the schedule": _stage_set(1, "site", [0, 0, 0, 0]),
    "schedule site outside the window": _schedule_set(0, [6, 0, 0, 0]),
    "schedule site on the window edge": _schedule_set(0, [2, 0, 0, 0]),
    "core of the wrong length": _stage_set(0, "core_dset", [1.0] * 15),
    "missing stages": lambda payload: payload.pop("stages"),
    "more stages than sites": lambda payload: payload["schedule"].pop(),
    "radius off the configuration": lambda payload: payload.update(radius=payload["radius"] + 1),
    "center off the configuration": lambda payload: payload.update(
        center=[x + d for x, d in zip(payload["center"], (1, 1, 0, 0))],
        radius=payload["radius"] + 2,
    ),
    "schedule lists a site twice": _schedule_set(1, [0, 0, 0, 0]),
    "schedule in another order": _reorder_schedule,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_refuses_malformed_v2_dumps(built, tmp_path, case):
    cfg, acc, path = built
    payload = json.loads(path.read_text())
    MALFORMED[case](payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        read_operator(bad, cfg)
    config = tmp_path / "run.cfg"
    config.write_text(BASE_TEXT)
    argv = ["apply", "--config", str(config), "--operator", str(bad), "--out", str(tmp_path / "y")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 1


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _containers(value):
    """value and every non-empty dict or list nested in it."""
    children = value.values() if isinstance(value, dict) else value
    out = [value] if value else []
    for child in children:
        if isinstance(child, (dict, list)):
            out += _containers(child)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reader_raises_only_config_errors_on_mutated_dumps(built, data):
    cfg, _, path = built
    payload = json.loads(path.read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        # delete or overwrite one entry of the payload or of any nested part
        parent = data.draw(st.sampled_from(_containers(payload)))
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JUNK)
    bad = path.with_name("mutated.json")
    bad.write_text(json.dumps(payload))
    try:
        read_operator(bad, cfg)
    except ConfigError:
        pass


def test_solution_dump_round_trip(built, tmp_path):
    cfg, acc, _ = built
    c = random_multispinor(acc.window.points(), cfg.seed)
    path = tmp_path / "solution.json"
    write_solution(path, c, cfg, {"seed": cfg.seed})
    loaded = read_solution(path, cfg)
    assert (loaded - c).norm() == 0.0
    with pytest.raises(ConfigError):
        read_solution(path, parse_config(BASE_TEXT.replace("0.05", "0.06")))


def _solution_row(key, value):
    def edit(payload):
        payload[key][1] = value
        return payload

    return edit


# edits of a valid solution dump, each of which the reader must refuse
MALFORMED_SOLUTIONS = {
    "format only": lambda payload: {"format": payload["format"]},
    "a list": lambda payload: [1],
    "missing sites": lambda payload: {k: v for k, v in payload.items() if k != "sites"},
    "sites not a list": lambda payload: {**payload, "sites": 5},
    "one amplitude row short": lambda p: {**p, "amplitudes": p["amplitudes"][1:]},
    "site of three coordinates": _solution_row("sites", [0, 0, 0]),
    "site with a fraction": _solution_row("sites", [0, 0, 0.5, 0]),
    "site with a string": _solution_row("sites", [0, 0, "1", 1]),
    "seven amplitude numbers": _solution_row("amplitudes", [0.0] * 7),
    "amplitude with a string": _solution_row("amplitudes", [0.0] * 7 + ["x"]),
    "amplitude past the float range": _solution_row("amplitudes", [0.0] * 7 + [10**400]),
    "infinite amplitude": _solution_row("amplitudes", [0.0] * 7 + [float("inf")]),
    "site listed twice": _solution_row("sites", [0, 0, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SOLUTIONS))
def test_reader_refuses_malformed_solution_dumps(built, tmp_path, case):
    cfg, acc, path = built
    good = tmp_path / "good.json"
    write_solution(good, random_multispinor(acc.window.points(), 4), cfg, {"seed": 4})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_SOLUTIONS[case](json.loads(good.read_text()))))
    with pytest.raises(ConfigError):
        read_solution(bad, cfg)
    config = tmp_path / "run.cfg"
    config.write_text(BASE_TEXT)
    argv = ["apply", "--config", str(config), "--operator", str(path), "--input", str(bad),
            "--out", str(tmp_path / "y")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solution_reader_raises_only_config_errors_on_mutated_dumps(built, data):
    cfg, acc, path = built
    good = path.with_name("solution.json")
    write_solution(good, random_multispinor(acc.window.points(), 4), cfg, {"seed": 4})
    payload = json.loads(good.read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        parent = data.draw(st.sampled_from(_containers(payload)))
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JUNK)
    bad = good.with_name("mutated_solution.json")
    bad.write_text(json.dumps(payload))
    try:
        read_solution(bad, cfg)
    except ConfigError:
        pass


def test_restored_operator_applies_without_the_row_gram(built, tmp_path, monkeypatch):
    cfg, acc, path = built

    def refuse(*args):
        raise AssertionError("the apply path built the row Gram")

    monkeypatch.setattr(engine, "build_row_gram", refuse)
    restored = read_operator(path, cfg)
    c = random_multispinor(acc.window.points(), 6)
    assert (restored.apply_fundamental(c) - acc.apply_fundamental(c)).norm() == 0.0
    config = tmp_path / "run.cfg"
    config.write_text(BASE_TEXT)
    argv = ["apply", "--config", str(config), "--operator", str(path),
            "--out", str(tmp_path / "y")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_residual_and_stage_csv_formats(built):
    cfg, acc, _ = built
    rows = [((0, 0, 0, 0), 1.5e-12), ((0, 0, -1, -1), 2.5e-9)]
    text = residual_csv(rows, cfg.n_ref)
    lines = text.strip().split("\n")
    assert lines[0] == "n1,n2,n3,n4,g4d,residual"
    assert lines[1] == "0,0,0,0,0,1.5e-12"
    assert lines[2].startswith("0,0,-1,-1,1,")
    assert float(lines[2].rsplit(",", 1)[1]) == 2.5e-9

    text = stages_csv(acc.diagnostics, cfg.n_ref)
    lines = text.strip().split("\n")
    assert lines[0] == "stage,n1,n2,n3,n4,g4d,rcond,support,gram_asymmetry"
    assert len(lines) == 1 + len(acc.diagnostics)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[7]) == 13  # the stencil of the first site


def test_export_json_round_trip_preserves_the_operator(built, tmp_path):
    cfg, acc, path = built
    payload = read_operator_payload(path, cfg)
    text = export_operator_json(payload)
    assert json.loads(text)["format"] == "estc-operator-dsets-v2"
    exported = tmp_path / "exported.json"
    exported.write_text(text)
    restored = read_exported_operator(exported, cfg)
    assert restored.schedule == acc.schedule
    assert np.array_equal(restored.core_dsets, acc.core_dsets)

    c = random_multispinor(acc.window.points(), 17)
    direct = acc.apply_projector(c)
    routed = restored.apply_projector(c)
    assert (routed - direct).norm() < 1e-12 * max(direct.norm(), 1.0)


def test_export_csv_shape(built):
    cfg, acc, path = built
    payload = read_operator_payload(path, cfg)
    lines = export_operator_csv(payload).strip().split("\n")
    header = lines[0].split(",")
    assert header[:10] == ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    assert len(header) == 10 + 32
    # one core row per stage and one coupling row per stored C_kj
    assert len(lines) == 1 + acc.stages_done + acc.coupling_count
    core_rows = [line for line in lines[1:] if line.split(",")[5] == "core"]
    assert len(core_rows) == acc.stages_done
    k, j = 8, 0  # a coupled pair: C_80 is nonzero on this field
    row = next(
        line.split(",")
        for line in lines[1:]
        if line.split(",")[0] == str(k)
        and line.split(",")[5] == "coupling"
        and tuple(map(int, line.split(",")[6:10])) == acc.schedule[j]
    )
    values = np.array([float(x) for x in row[10:]])
    coupling = matrix_from_dset(values[0::2] + 1j * values[1::2])
    expected = -acc.factor[4 * k : 4 * k + 4, 4 * j : 4 * j + 4]
    assert np.abs(expected).max() > 1e-2
    assert np.abs(coupling - expected).max() < 1e-15


def test_run_report_lines():
    report = RunReport("demo")
    assert report.add("fine", 1e-12, 1e-8)
    assert not report.add("broken", 2.0, 1e-8)
    text = report.to_text()
    assert "PASS fine" in text
    assert "FAIL broken" in text
    assert "observed=2.000e+00 threshold=1.000e-08" in text
    assert not report.ok
    assert text.endswith("result: FAILED\n")
