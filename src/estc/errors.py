"""Exception types shared across the package."""


class EstcError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(EstcError):
    """Quartic invariant too close to zero; no coefficient-space inverse."""


class ShiftNotInS13(EstcError):
    """Requested coupling shift is outside the 13-shift stencil."""


class TransversalityViolation(EstcError):
    """A wave amplitude has a component along its propagation axis."""

    def __init__(self, grid: str, j: int, k: int):
        self.grid = grid
        self.j = j
        self.k = k
        super().__init__(f"{grid}_{j}{k} must be zero (component along propagation axis)")


class ZeroField(EstcError):
    """All wave amplitudes vanish; field intensity is zero."""


class DegenerateOverlap(EstcError):
    """Projector ranges intersect; the range-restricted core is singular."""


class StageSingular(EstcError):
    """Stage Gram matrix is numerically singular; no reliable inverse."""

    def __init__(self, stage: int, site: tuple, rcond: float):
        self.stage = stage
        self.site = site
        self.rcond = rcond
        super().__init__(
            f"stage {stage} at site {site}: reciprocal condition {rcond:.3e} below threshold"
        )


class ConfigError(EstcError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
