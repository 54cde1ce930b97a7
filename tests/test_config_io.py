"""Configuration parsing, fingerprints, dumps and exchange formats."""

import base64
import contextlib
import hashlib
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc import (
    ProjectorAccumulator,
    Window,
    field_intensity,
    matrix_from_dset,
    parse_config,
    random_multispinor,
)
from estc import cli, engine, lattice
from estc.config import config_fingerprint, serialize_config
from estc.errors import ConfigError, TransversalityViolation, ZeroField
from estc.multispinor import Multispinor
from helpers import dense_factor, from_dict

from estc.io import (
    RunReport,
    _read_factors,
    export_operator_csv,
    export_operator_json,
    factor_path,
    read_operator,
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
    assert cfg.residual_tol == 1e-11  # default
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
    # sites are held as int64: a center whose window leaves that range is refused
    with pytest.raises(ConfigError, match=r"2\*\*62") as err:
        parse_config(f"a_12 = 0.1\nn_ref = {2**62 + 2} 0 0 0")
    assert err.value.key == "n_ref"
    assert parse_config(f"a_12 = 0.1\nn_ref = {2**62} 0 0 0").n_ref[0] == 2**62


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
    assert loaded.processed_sites() == acc.processed_sites() == acc.schedule
    assert loaded.schedule == acc.schedule
    assert loaded.window == acc.window
    assert len(loaded.slice_factors()) == len(acc.slice_factors()) == 3
    for ours, theirs in zip(_factor_parts(loaded), _factor_parts(acc)):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(loaded.rconds, acc.rconds)
    c = random_multispinor(acc.window.points(), 5)
    assert (loaded.apply_projector(c) - acc.apply_projector(c)).norm() == 0.0


def _factor_parts(acc):
    """The packed lower triangle of each W_t and its band panel, in factor-file order."""
    for packed, band in acc.slice_factors():
        yield packed
        yield band


def _part_bytes(acc):
    """The factor-file bytes of each W_t and band panel, in file order."""
    return [np.ascontiguousarray(part, dtype="<c16").tobytes() for part in _factor_parts(acc)]


def test_operator_dump_is_a_header_and_raw_factor_bytes(built):
    cfg, acc, path = built
    raw = factor_path(path).read_bytes()
    assert factor_path(path) == path.with_name("operator.c16")
    header = {
        "format": "estc-operator-v4",
        "fingerprint": config_fingerprint(cfg),
        "radius": 2,
        "center": [0, 0, 0, 0],
        "stages": 13,
        "rconds": [float(x) for x in acc.rconds],
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    assert path.read_text() == json.dumps(header, separators=(",", ":")) + "\n"
    # slices of 6, 1 and 6 stages; the band reaches back two slices
    shapes = [((24, 24), (24, 0)), ((4, 4), (4, 24)), ((24, 24), (24, 28))]
    data = np.frombuffer(raw, dtype="<c16")
    offset = 0
    for t, (core, band) in enumerate(shapes):
        packed, panel = acc.slice_factors()[t]
        inverse = engine.unpack_lower(packed, core[0])
        assert (inverse.shape, panel.shape) == (core, band)
        lower = data[offset : offset + core[0] * (core[0] + 1) // 2]
        offset += len(lower)
        assert np.array_equal(lower, inverse[np.tril_indices(core[0])])
        assert np.array_equal(data[offset : offset + band[0] * band[1]].reshape(band), panel)
        offset += band[0] * band[1]
    assert offset == len(data)
    assert raw == b"".join(_part_bytes(acc))


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_stored_factor_bytes_match_the_closed_form(radius, tmp_path):
    cfg = parse_config(BASE_TEXT.replace("R = 2", f"R = {radius}"))
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius)).run()
    write_operator(tmp_path / "operator.json", acc, cfg)
    assert (tmp_path / "operator.c16").stat().st_size == lattice.factor_bytes(radius)


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_the_factor_store_is_the_factor_file(radius, tmp_path):
    cfg = parse_config(BASE_TEXT.replace("R = 2", f"R = {radius}"))
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius)).run()
    parts = list(_factor_parts(acc))
    assert sum(part.size for part in parts) == lattice.factor_bytes(radius) // 16
    assert all(part.dtype == np.dtype("<c16") for part in parts)
    write_operator(tmp_path / "operator.json", acc, cfg)
    assert (tmp_path / "operator.c16").read_bytes() == b"".join(part.tobytes() for part in parts)


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_a_restored_accumulator_writes_its_dump_back_byte_for_byte(radius, tmp_path):
    cfg = parse_config(BASE_TEXT.replace("R = 2", f"R = {radius}"))
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius)).run()
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    write_operator(first, acc, cfg)
    write_operator(again, read_operator(first, cfg), cfg)
    assert again.read_bytes() == first.read_bytes()
    assert factor_path(again).read_bytes() == factor_path(first).read_bytes()
    # the header's digest is that of the slice parts, joined in file order
    digest = hashlib.sha256(b"".join(_part_bytes(acc))).hexdigest()
    assert json.loads(first.read_text())["sha256"] == digest


def test_an_apply_holds_one_slice_of_the_factor(tmp_path, monkeypatch):
    """Reading an R = 4 dump and applying it takes one stored slice plus one dense W_t.

    The traced peak is bounded by the largest stored slice (packed W_t and
    band panel), one dense W_t of the largest slice (44 stages, 176 x 176)
    and 1 MiB for everything else: less than the factor file.  Each read
    of the factor file returns one slice.
    """
    text = (Path(__file__).resolve().parent.parent / "demos" / "sample_config.txt").read_text()
    cfg = parse_config(text.replace("R = 2", "R = 4"))
    window = Window(4, cfg.n_ref)
    path = tmp_path / "operator.json"
    write_operator(path, ProjectorAccumulator(cfg.field, cfg.params, window).run(), cfg)
    seed = random_multispinor(window.points(), 3)
    counts = []
    fromfile = np.fromfile

    def counted_fromfile(*args, **kwargs):
        data = fromfile(*args, **kwargs)
        counts.append(data.size)  # the count only: holding the arrays would raise the peak
        return data

    monkeypatch.setattr(np, "fromfile", counted_fromfile)

    tracemalloc.start()
    try:
        acc = read_operator(path, cfg)
        acc.apply_fundamental(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = 4 * int(np.diff(lattice.window_table(window).spans[:, :2]).max())
    assert largest == 176
    sizes = np.diff(acc.slice_factors().bounds)
    bound = 16 * int(sizes.max()) + 16 * largest**2 + 2**20
    assert bound < factor_path(path).stat().st_size
    assert peak < bound, f"traced peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
    # the check reads each slice once, and so does each of the two substitutions
    assert len(counts) == 3 * len(sizes) and set(counts) <= set(sizes.tolist())


def _truncate(source):
    os.truncate(source, source.stat().st_size - 16)


def _replace_by_other_bytes(source):
    other = source.with_name("other.c16")
    other.write_bytes(bytes(b ^ 1 for b in source.read_bytes()))
    os.replace(other, source)


@pytest.mark.parametrize("change", [_truncate, _replace_by_other_bytes], ids=["cut", "replaced"])
def test_a_factor_file_changed_after_the_check_fails_loudly(built, tmp_path, change):
    cfg, acc, path = built
    dump = tmp_path / "operator.json"
    dump.write_bytes(path.read_bytes())
    factor_path(dump).write_bytes(factor_path(path).read_bytes())
    c = random_multispinor(acc.window.points(), 8)
    restored = read_operator(dump, cfg)
    factors = _read_factors(dump, cfg).factors
    change(factor_path(dump))
    with pytest.raises(ConfigError, match="changed after it was checked"):
        restored.apply_fundamental(c)
    with pytest.raises(ConfigError, match="changed after it was checked"):
        factors[0]


def test_operator_dump_is_deterministic(built, tmp_path):
    cfg, acc, path = built
    again = tmp_path / "operator.json"
    write_operator(again, acc, cfg)
    assert again.read_bytes() == path.read_bytes()
    assert factor_path(again).read_bytes() == factor_path(path).read_bytes()


def test_writer_refuses_an_accumulator_that_has_not_run(built, tmp_path):
    cfg = built[0]
    path = tmp_path / "operator.json"
    with pytest.raises(ValueError, match="has not completed a run"):
        write_operator(path, ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius)), cfg)
    assert not path.exists() and not factor_path(path).exists()


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


def _v3_dump(acc, header):
    """The same operator as an estc-operator-v3 dump: one JSON file, factors in base64."""

    def b64(a):
        return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")

    parts = list(_factor_parts(acc))
    return {
        **{key: header[key] for key in ("fingerprint", "radius", "center")},
        "format": "estc-operator-v3",
        "schedule": [list(site) for site in acc.schedule],
        "stages": [
            {"stage": k, "site": list(acc.schedule[k]), "rcond": float(acc.rconds[k])}
            for k in range(len(acc.schedule))
        ],
        "slices": [
            {"slice": t, "core": b64(core), "coupling": b64(band)}
            for t, (core, band) in enumerate(zip(parts[::2], parts[1::2]))
        ],
    }


def _header_set(key, value):
    return lambda header, acc: {**header, key: value}


def _header_drop(key):
    return lambda header, acc: {k: v for k, v in header.items() if k != key}


def _rcond_set(k, value):
    def edit(header, acc):
        rconds = list(header["rconds"])
        rconds[k] = value
        return {**header, "rconds": rconds}

    return edit


def _stages_past_the_schedule(header, acc):
    return {**header, "stages": len(acc.schedule) + 1, "rconds": header["rconds"] + [0.5]}


def _one_stage_fewer(header, acc):
    return {**header, "stages": header["stages"] - 1, "rconds": header["rconds"][:-1]}


# edits of a valid header, each of which the reader must refuse
MALFORMED_HEADERS = {
    "v3 file": lambda header, acc: _v3_dump(acc, header),
    "v2 file": _header_set("format", "estc-operator-v2"),
    "v1 file": _header_set("format", "estc-operator-v1"),
    "a list": lambda header, acc: [header],
    "fingerprint mismatch": _header_set("fingerprint", "0" * 64),
    "radius off the configuration": lambda header, acc: {**header, "radius": header["radius"] + 1},
    "center off the configuration": lambda header, acc: {
        **header,
        "center": [x + d for x, d in zip(header["center"], (1, 1, 0, 0))],
        "radius": header["radius"] + 2,
    },
    "more stages than sites": _stages_past_the_schedule,
    "one stage fewer than the factor file holds": _one_stage_fewer,
    "negative stages": _header_set("stages", -1),
    "stages not an integer": _header_set("stages", 13.0),
    "stages a boolean": _header_set("stages", True),
    "rconds one short": lambda header, acc: {**header, "rconds": header["rconds"][:-1]},
    "rconds one too many": lambda header, acc: {**header, "rconds": header["rconds"] + [0.5]},
    "rconds not a list": _header_set("rconds", 0.5),
    "rcond NaN": _rcond_set(3, float("nan")),
    "rcond infinite": _rcond_set(3, float("inf")),
    "rcond past the float range": _rcond_set(3, 10**400),
    "rcond a string": _rcond_set(3, "0.5"),
    "rcond null": _rcond_set(3, None),
    "sha256 of other bytes": _header_set("sha256", "0" * 64),
    "sha256 not a string": _header_set("sha256", 0),
    **{f"missing {key}": _header_drop(key) for key in
       ("format", "fingerprint", "radius", "center", "stages", "rconds", "sha256")},
}


def _refused(tmp_path, header_text: str, factors: bytes) -> None:
    """read_operator raises ConfigError on the dump; CLI apply and export exit 1.

    The export writes no file.
    """
    bad = tmp_path / "bad.json"
    bad.write_text(header_text)
    factor_path(bad).write_bytes(factors)
    with pytest.raises(ConfigError):
        read_operator(bad, parse_config(BASE_TEXT))
    config = tmp_path / "run.cfg"
    config.write_text(BASE_TEXT)
    exported = tmp_path / "e.json"
    for argv in (
        ["apply", "--config", str(config), "--operator", str(bad), "--out", str(tmp_path / "y")],
        ["export", "--config", str(config), "--operator", str(bad), "--out", str(exported)],
    ):
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 1
    assert not exported.exists()


@pytest.fixture(scope="module")
def other_radius_factors(tmp_path_factory):
    """The factor file of the same field at R = 3."""
    cfg = parse_config(BASE_TEXT.replace("R = 2", "R = 3"))
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(3)).run()
    path = tmp_path_factory.mktemp("r3") / "operator.json"
    write_operator(path, acc, cfg)
    return factor_path(path).read_bytes()


def _flip(raw, index):
    return raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1 :]


def _slice_bytes(acc):
    """The factor-file bytes of each slice: its packed W_t, then its band panel."""
    parts = _part_bytes(acc)
    return [core + band for core, band in zip(parts[::2], parts[1::2])]


def _next_slice_coupling(raw, acc, other):
    """The band panel of slice 1 overwritten by the leading bytes of slice 2's panel."""
    parts = _part_bytes(acc)
    parts[3] = parts[5][: len(parts[3])]
    return b"".join(parts)


# edits of a valid factor file, each of which the reader must refuse
MALFORMED_FACTORS = {
    "truncated by 16 bytes": lambda raw, acc, other: raw[:-16],
    "short coupling": lambda raw, acc, other: raw[:-1],
    "one extra complex": lambda raw, acc, other: raw + bytes(16),
    "empty": lambda raw, acc, other: b"",
    "missing slice": lambda raw, acc, other: b"".join(_slice_bytes(acc)[:-1]),
    "core of the wrong length": lambda raw, acc, other: raw[16:],
    "coupling of the next stage": _next_slice_coupling,
    "out-of-order slices": lambda raw, acc, other: b"".join(reversed(_slice_bytes(acc))),
    "one flipped byte": lambda raw, acc, other: _flip(raw, len(raw) // 2),
    "first byte flipped": lambda raw, acc, other: _flip(raw, 0),
    "from another radius": lambda raw, acc, other: other,
    "from another radius, cut to size": lambda raw, acc, other: other[: len(raw)],
}


def _partial_slices(acc):
    """The leading two slices of a factor file: the store of the stages they hold."""
    return int(lattice.window_table(acc.window).spans[2, 0]), b"".join(_slice_bytes(acc)[:2])


def _partial_header(header, acc):
    """The header of a dump of the leading two slices alone, its sha256 theirs."""
    stages, raw = _partial_slices(acc)
    return {
        **header,
        "stages": stages,
        "rconds": header["rconds"][:stages],
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


# each case edits the header or the factor file of a valid estc-operator-v4 dump, or
# both: a dump of the leading slices alone is consistent in itself, and still refused
MALFORMED = {
    **{case: (edit, None) for case, edit in MALFORMED_HEADERS.items()},
    **{case: (None, edit) for case, edit in MALFORMED_FACTORS.items()},
    "consistent dump of the leading slices": (
        _partial_header,
        lambda raw, acc, other: _partial_slices(acc)[1],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_refuses_malformed_v2_dumps(built, other_radius_factors, tmp_path, case):
    """Refuses edited v4 dumps; the name dates from the v2 format and is kept."""
    _, acc, path = built
    header, raw = json.loads(path.read_text()), factor_path(path).read_bytes()
    edit_header, edit_factors = MALFORMED[case]
    if edit_header:
        header = edit_header(header, acc)
    if edit_factors:
        assert raw == b"".join(_slice_bytes(acc))
        raw = edit_factors(raw, acc, other_radius_factors)
    _refused(tmp_path, json.dumps(header), raw)


def test_reader_checks_the_size_before_the_digest(built, tmp_path):
    _, _, path = built
    raw = factor_path(path).read_bytes()[:-16]
    header = {**json.loads(path.read_text()), "sha256": hashlib.sha256(raw).hexdigest()}
    _refused(tmp_path, json.dumps(header), raw)


# a window radius and center read exactly or refused: int() would make 0.9 and "0" a 0
NOT_INTEGER_WINDOWS = {
    "center with a fraction and a string": ("center", [0.9, "0", 0, 0]),
    "center of floats": ("center", [0.0, 0, 0, 0]),
    "center with a boolean": ("center", [True, 0, 0, 0]),
    "center past 2**62": ("center", [2**63, 0, 0, 0]),
    "radius a float": ("radius", 2.0),
    "radius a boolean": ("radius", True),
    "radius negative": ("radius", -1),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGER_WINDOWS))
def test_reader_refuses_a_window_that_is_not_json_integers(built, tmp_path, case):
    cfg, _, path = built
    key, value = NOT_INTEGER_WINDOWS[case]
    header = {**json.loads(path.read_text()), key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(header))
    factor_path(bad).write_bytes(factor_path(path).read_bytes())
    message = "nonnegative integer" if key == "radius" else "four integers"
    with pytest.raises(ConfigError, match=message):
        _read_factors(bad)
    with pytest.raises(ConfigError):
        read_operator(bad, cfg)
    out = tmp_path / "e.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert cli.main(["export", "--operator", str(bad), "--out", str(out)]) == 1
    assert message in stderr.getvalue()
    assert not out.exists()


# one row per refusal of a malformed amplitude key or window: a config line
# with the type, line and key of its refusal, or an edit of a dump header
WINDOW_AND_KEY_REFUSALS = {
    "config a_79": ("a_79 = 0.1", (ConfigError, 2, "a_79")),
    "config a_1x": ("a_1x = 0.1", (ConfigError, 2, "a_1x")),
    "config a_1": ("a_1 = 0.1", (ConfigError, 2, "a_1")),
    "config a_11 not transverse": ("a_11 = 0.1", (TransversalityViolation, None, None)),
    "config n_ref odd": ("n_ref = 1 0 0 0", (ConfigError, None, "n_ref")),
    "config n_ref past 2**62": (f"n_ref = {2**62 + 2} 0 0 0", (ConfigError, None, "n_ref")),
    "config n_ref past the float range": (f"n_ref = {10**400} 0 0 0", (ConfigError, None, None)),
    "config n_ref of three integers": ("n_ref = 0 0 0", (ConfigError, 2, "n_ref")),
    "header radius 2.0": ({"radius": 2.0}, None),
    "header radius true": ({"radius": True}, None),
    "header radius -1": ({"radius": -1}, None),
    "header center with a fraction and a string": ({"center": [0.9, "0", 0, 0]}, None),
    "header center of three": ({"center": [0, 0, 0]}, None),
    "header center 2**63": ({"center": [2**63, 0, 0, 0]}, None),
    "header center a string": ({"center": "0000"}, None),
}


@pytest.mark.parametrize("case", sorted(WINDOW_AND_KEY_REFUSALS))
def test_each_window_and_amplitude_key_refusal(built, tmp_path, case):
    """A config keeps its refusal's type, line and key, a header its ConfigError; both exit 1."""
    edit, expected = WINDOW_AND_KEY_REFUSALS[case]
    out = tmp_path / "out"
    if isinstance(edit, str):
        text = f"a_12 = 0.1\n{edit}\n"
        error, line, key = expected
        with pytest.raises(error) as err:
            parse_config(text)
        assert type(err.value) is error
        assert (getattr(err.value, "line", None), getattr(err.value, "key", None)) == (line, key)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        argv = ["build", "--config", str(config), "--out", str(out)]
    else:
        _, _, path = built
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        factor_path(bad).write_bytes(factor_path(path).read_bytes())
        with pytest.raises(ConfigError):
            _read_factors(bad)
        argv = ["export", "--operator", str(bad), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 1
    assert not out.exists()


def test_missing_factor_file_exits_3(built, tmp_path):
    _, _, path = built
    header = tmp_path / "operator.json"
    header.write_bytes(path.read_bytes())
    with pytest.raises(FileNotFoundError):
        read_operator(header, parse_config(BASE_TEXT))
    config = tmp_path / "run.cfg"
    config.write_text(BASE_TEXT)
    for argv in (
        ["apply", "--config", str(config), "--operator", str(header), "--out", str(tmp_path / "y")],
        ["export", "--operator", str(header), "--out", str(tmp_path / "z.json")],
    ):
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 3


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
    header = json.loads(path.read_text())
    raw = bytearray(factor_path(path).read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            # delete or overwrite one entry of the header or of any nested part
            parent = data.draw(st.sampled_from(_containers(header)))
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            key = data.draw(st.sampled_from(keys))
            if data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = data.draw(_JUNK)
        elif raw and data.draw(st.booleans()):
            # flip bits of one byte of the factor file
            index = data.draw(st.integers(0, len(raw) - 1))
            raw[index] ^= data.draw(st.integers(1, 255))
        else:
            # cut the factor file, or pad it with junk bytes
            cut = data.draw(st.integers(0, len(raw)))
            raw = raw[:cut] + data.draw(st.binary(max_size=40))
    bad = path.with_name("mutated.json")
    bad.write_text(json.dumps(header))
    factor_path(bad).write_bytes(raw)
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


def test_solution_writer_matches_the_per_site_writer(built, tmp_path):
    cfg, acc, _ = built
    seed = random_multispinor(acc.window.points(), 5)
    c = acc.apply_fundamental(seed)
    # one more site, with signed zeros and a tiny part
    c = Multispinor(
        np.concatenate([c.coords, [[9, 9, 0, 0]]]),
        np.concatenate([c.amplitudes, [[0.0, -0.0, 1e-300j, -2.5 - 0j]]]),
    )
    for value in (c, from_dict({})):
        sites = sorted(value)
        expected = {
            "format": "estc-solution-v1",
            "fingerprint": config_fingerprint(cfg),
            "source": {"seed": 5},
            "sites": [list(site) for site in sites],
            "amplitudes": [
                [x for z in value[site] for x in (float(z.real), float(z.imag))]
                for site in sites
            ],
        }
        path = tmp_path / "solution.json"
        write_solution(path, value, cfg, {"seed": 5})
        assert path.read_text() == json.dumps(expected, separators=(",", ":")) + "\n"


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
    "site past the int64 range": _solution_row("sites", [2**63, 0, 0, 0]),
    "site past 2**62": _solution_row("sites", [2**62 + 2, 0, 0, 0]),
    "site with an odd coordinate sum": _solution_row("sites", [1, 0, 0, 0]),
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
    # the norms of the leading window sites, the center and then the first site of ring 1
    table = lattice.window_table(acc.window)
    assert table.sites[0] == cfg.n_ref == (0, 0, 0, 0) and table.sites[1] == (-1, 0, 0, -1)
    text = residual_csv(table, np.array([1.5e-12, 2.5e-9]))
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "n1,n2,n3,n4,g4d,residual"
    assert lines[1] == "0,0,0,0,0,1.5e-12"
    assert lines[2].startswith("-1,0,0,-1,1,")
    assert float(lines[2].rsplit(",", 1)[1]) == 2.5e-9

    text = stages_csv(acc)
    lines = text.strip().split("\n")
    assert lines[0] == "stage,n1,n2,n3,n4,g4d,rcond,support,gram_asymmetry"
    assert len(lines) == 1 + len(acc.schedule)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[7]) == 13  # the stencil of the first site


def _decoded(pairs) -> np.ndarray:
    """(blocks, 4, 4) matrices of a list of exported blocks, each 16 [re, im] basis pairs."""
    values = np.array(pairs, dtype=float).reshape(-1, 16, 2)
    return matrix_from_dset(values[..., 0] + 1j * values[..., 1])


def test_export_json_round_trip_preserves_the_operator(built):
    """The JSON export restates the dump: schedule, processed sites, rconds and every block.

    The export is write-only, so its content is checked directly: each core
    block decodes to the 4x4 block of the unpacked W_t and each coupling
    block to the band panel's, within 1e-14 of the largest entry.
    """
    cfg, acc, path = built
    payload = json.loads(export_operator_json(path, cfg))
    assert payload["format"] == "estc-operator-dsets-v3"
    assert payload["schedule"] == [list(site) for site in acc.schedule]
    stages = payload["stages"]
    assert [(stage["stage"], stage["site"]) for stage in stages] == [
        (k, list(site)) for k, site in enumerate(acc.processed_sites())
    ]
    assert np.array_equal([stage["rcond"] for stage in stages], acc.rconds)
    slices = payload["slices"]
    assert [entry["slice"] for entry in slices] == list(range(len(acc.slice_factors())))
    for entry, (packed, band) in zip(slices, acc.slice_factors()):
        n, m = band.shape[0] // 4, band.shape[1] // 4
        blocks = engine.unpack_lower(packed, 4 * n).reshape(n, 4, n, 4).transpose(0, 2, 1, 3)
        bands = band.reshape(n, 4, m, 4).transpose(0, 2, 1, 3).reshape(-1, 4, 4)
        for ours, theirs in (
            (_decoded(entry["core"]), blocks[np.tril_indices(n)]),
            (_decoded(entry["coupling"]), bands),
        ):
            assert ours.shape == theirs.shape
            bound = 1e-14 * np.abs(theirs).max(initial=0.0)
            assert np.abs(ours - theirs).max(initial=0.0) <= bound


def test_export_csv_shape(built):
    cfg, acc, path = built
    lines = export_operator_csv(path, cfg).strip().split("\n")
    header = lines[0].split(",")
    assert header[:10] == ["stage", "m1", "m2", "m3", "m4", "entry", "n1", "n2", "n3", "n4"]
    assert len(header) == 10 + 32
    # one row per stored 4x4 block: K diagonal blocks and the stored couplings
    table = lattice.window_table(acc.window)
    assert len(lines) == 1 + len(acc.schedule) + table.coupling_count
    rows = [line.split(",") for line in lines[1:]]
    stage = {site: k for k, site in enumerate(acc.schedule)}
    pairs = [(int(row[0]), stage[tuple(map(int, row[6:10]))], row[5]) for row in rows]
    assert sum(entry == "core" and k == j for k, j, entry in pairs) == len(acc.schedule)
    # the core blocks are the lower triangle of W_t in each slice, the couplings reach back
    # to the two slices before
    for k, j, entry in pairs:
        start, _, low = table.spans[np.searchsorted(table.spans[:, 0], k, side="right") - 1]
        assert (start <= j <= k) if entry == "core" else (low <= j < start)
    r = dense_factor(acc)
    for row, (k, j, entry) in zip(rows, pairs):
        values = np.array([float(x) for x in row[10:]])
        block = matrix_from_dset(values[0::2] + 1j * values[1::2])
        if entry == "coupling":
            assert np.abs(block - r[4 * k : 4 * k + 4, 4 * j : 4 * j + 4]).max() < 1e-15
    assert np.abs(r[28:, :24]).max() > 1e-3  # the band of slice 2 to slice 0


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
