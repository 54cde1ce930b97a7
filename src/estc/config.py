"""Run configuration: flat key-value text, exact round-trip, content hash.

Grammar: one `key = value` per line, `#` comments, blank lines ignored.
Keys are the dimensionless parameters (q1..q4, Omega), the window (R,
n_ref), the seed, tolerances, and the free wave amplitudes a_jk / b_jk.
Unknown and duplicate keys and non-finite numbers are rejected with their
line number, and q_j or Omega that overflow the row Gram matrix in the
window by name.  An omitted key keeps the default of its field in
RunConfig or DimensionlessParams, the only home of the defaults.  The
rules of the values themselves live with their types:
field.amplitude_slot reads the amplitude keys, field.validate_field checks
transversality, and lattice.Window checks R and n_ref as it does for a
library window or a dump header.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dataclass_field, fields

from .errors import ConfigError
from .field import (
    DimensionlessParams,
    FieldConfig,
    amplitude_slot,
    field_intensity,
    validate_field,
    validate_params,
)
from .lattice import Site, Window

_FLOAT_KEYS = ("q1", "q2", "q3", "q4", "Omega", "residual_tol", "rcond_min")
_INT_KEYS = ("R", "seed")
# the keys named otherwise than the dataclass field they set; every other key is its field's name
_FIELD_NAMES = {"Omega": "omega", "R": "radius"}


@dataclass(frozen=True)
class RunConfig:
    field: FieldConfig
    params: DimensionlessParams = dataclass_field(default_factory=DimensionlessParams)
    radius: int = 2
    n_ref: Site = (0, 0, 0, 0)
    seed: int = 1
    residual_tol: float = 1e-11
    rcond_min: float = 1e-10


def check_seed(seed: int) -> int:
    """The seed of the random draws, refused with ConfigError when negative."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}", key="seed")
    return seed


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; the keys it omits keep their dataclass defaults."""
    values: dict[str, float | int | Site] = {}
    amplitudes: dict[str, float] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if eq != "=" or not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
        seen.add(key)
        try:
            if key in _FLOAT_KEYS:
                values[_FIELD_NAMES.get(key, key)] = _finite(value)
            elif key in _INT_KEYS:
                values[_FIELD_NAMES.get(key, key)] = int(value)
            elif key == "n_ref":
                parts = value.split()
                if len(parts) != 4:
                    raise ValueError("need 4 integers")
                values[key] = tuple(int(part) for part in parts)
            else:
                amplitude_slot(key)
                amplitudes[key] = _finite(value)
        except KeyError:
            raise ConfigError(f"unknown key {key!r}", line=lineno, key=key) from None
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for {key!r}: {err}", line=lineno, key=key) from None
    field = FieldConfig.from_amplitudes(amplitudes)
    names = {f.name for f in fields(DimensionlessParams)}
    params = DimensionlessParams(**{k: v for k, v in values.items() if k in names})
    validate_field(field)
    validate_params(params)
    cfg = RunConfig(field, params, **{k: v for k, v in values.items() if k not in names})
    if cfg.radius < 1:
        raise ConfigError(f"window radius R must be >= 1, got {cfg.radius}", key="R")
    _check_gram_range(field, params, cfg.radius, cfg.n_ref)
    try:
        Window(cfg.radius, cfg.n_ref)
    except ValueError as err:
        raise ConfigError(f"bad value for 'n_ref': {err}", key="n_ref") from None
    if not cfg.residual_tol > 0 or not cfg.rcond_min > 0:
        raise ConfigError("tolerances must be positive")
    check_seed(cfg.seed)
    return cfg


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _check_gram_range(f: FieldConfig, p: DimensionlessParams, radius: int, n_ref: Site) -> None:
    """Refuse q_j and Omega for which l_matrix or det_l overflows in the window.

    There |w_j| <= b_j = |q_j| + Omega (|n_ref_j| + R), the l_matrix
    coefficients are at most B = 1 + I + sum_j b_j^2 and det_l is at most B^2.
    """
    q = (p.q1, p.q2, p.q3, p.q4)
    try:
        reach = [p.omega * (abs(n) + radius) for n in n_ref]
    except OverflowError:
        raise ConfigError(
            f"window radius {radius} around n_ref {n_ref} reaches past the float range"
        ) from None
    b = [abs(q_j) + r_j for q_j, r_j in zip(q, reach)]
    total = 1.0 + float(field_intensity(f)) + sum(b_j * b_j for b_j in b)
    if not math.isfinite(total * total):
        j = b.index(max(b))
        key = f"q{j + 1}" if abs(q[j]) >= reach[j] else "Omega"
        raise ConfigError(
            f"bad value for {key!r}: |w_{j + 1}| reaches {b[j]:.3e} in the window, "
            "so the row Gram matrix overflows", key=key,
        )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    lines = [
        f"q1 = {cfg.params.q1!r}",
        f"q2 = {cfg.params.q2!r}",
        f"q3 = {cfg.params.q3!r}",
        f"q4 = {cfg.params.q4!r}",
        f"Omega = {cfg.params.omega!r}",
        f"R = {cfg.radius}",
        f"n_ref = {cfg.n_ref[0]} {cfg.n_ref[1]} {cfg.n_ref[2]} {cfg.n_ref[3]}",
        f"seed = {cfg.seed}",
        f"residual_tol = {cfg.residual_tol!r}",
        f"rcond_min = {cfg.rcond_min!r}",
    ]
    for key, value in sorted(cfg.field.amplitude_dict().items()):
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def config_fingerprint(cfg: RunConfig) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("ascii")).hexdigest()
