"""Run configuration: flat key-value text, exact round-trip, content hash.

Grammar: one `key = value` per line, `#` comments, blank lines ignored.
Keys are the dimensionless parameters (q1..q4, Omega), the window (R,
n_ref), the seed, tolerances, and the free wave amplitudes a_jk / b_jk.
Unknown and duplicate keys and non-finite numbers are rejected with their
line number; amplitude keys violating transversality, and q_j or Omega
that overflow the row Gram matrix in the window, are rejected by name.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigError, TransversalityViolation
from .field import (
    CONSTRAINED_COMPONENTS,
    DimensionlessParams,
    FieldConfig,
    field_intensity,
    validate,
)
from .lattice import Site, in_lattice

_FLOAT_KEYS = ("q1", "q2", "q3", "q4", "Omega", "residual_tol", "rcond_min")
_INT_KEYS = ("R", "seed")


@dataclass(frozen=True)
class RunConfig:
    field: FieldConfig
    params: DimensionlessParams = dataclass_field(default_factory=DimensionlessParams)
    radius: int = 2
    n_ref: Site = (0, 0, 0, 0)
    seed: int = 1
    residual_tol: float = 1e-8
    rcond_min: float = 1e-10


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration."""
    scalars: dict[str, float | int] = {
        "q1": 0.0, "q2": 0.0, "q3": 0.0, "q4": 0.0, "Omega": 0.5,
        "residual_tol": 1e-8, "rcond_min": 1e-10, "R": 2, "seed": 1,
    }
    n_ref: Site = (0, 0, 0, 0)
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
                scalars[key] = _finite(value)
            elif key in _INT_KEYS:
                scalars[key] = int(value)
            elif key == "n_ref":
                parts = value.split()
                if len(parts) != 4:
                    raise ValueError("need 4 integers")
                n_ref = tuple(int(part) for part in parts)  # type: ignore[assignment]
            elif len(key) == 4 and key[0] in "ab" and key[1] == "_":
                amplitudes[key] = _finite(value)
                _check_amplitude_key(key, amplitudes[key], lineno)
            else:
                raise ConfigError(f"unknown key {key!r}", line=lineno, key=key)
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for {key!r}: {err}", line=lineno, key=key) from None
    field = FieldConfig.from_amplitudes(amplitudes)
    params = DimensionlessParams(
        q1=scalars["q1"], q2=scalars["q2"], q3=scalars["q3"], q4=scalars["q4"],
        omega=scalars["Omega"],
    )
    validate(field, params)
    radius = int(scalars["R"])
    if radius < 1:
        raise ConfigError(f"window radius R must be >= 1, got {radius}", key="R")
    if not in_lattice(n_ref):
        raise ConfigError(f"n_ref {n_ref} has odd coordinate sum", key="n_ref")
    _check_gram_range(field, params, radius, n_ref)
    if not scalars["residual_tol"] > 0 or not scalars["rcond_min"] > 0:
        raise ConfigError("tolerances must be positive")
    if scalars["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {scalars['seed']}", key="seed")
    return RunConfig(
        field=field,
        params=params,
        radius=radius,
        n_ref=n_ref,
        seed=int(scalars["seed"]),
        residual_tol=float(scalars["residual_tol"]),
        rcond_min=float(scalars["rcond_min"]),
    )


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


def _check_amplitude_key(key: str, value: float, lineno: int) -> None:
    grid, jk = key[0], key[2:]
    if not jk.isdigit():
        raise ConfigError(f"unknown key {key!r}", line=lineno, key=key)
    j, k = int(jk[0]), int(jk[1])
    if not (1 <= j <= 6 and 1 <= k <= 3):
        raise ConfigError(
            f"amplitude key {key!r} out of range (waves 1..6, axes 1..3)",
            line=lineno, key=key,
        )
    if (j, k) in CONSTRAINED_COMPONENTS and value != 0.0:
        raise TransversalityViolation(grid, j, k)


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
