"""Fundamental solution of a spinor wave equation on a space-time crystal.

The package represents every 4x4 operator through its 16 coefficients in a
fixed unitary matrix basis, builds the coupled-row system of a
three-dimensional polychromatic field on a truncated frequency-momentum
window, and accumulates the projector onto the processed rows one time
slice of rank-4 stages at a time.  The complement of that projector maps any seed amplitude
set onto the solution subspace.
"""

from .combiner import combine_pair, range_basis, range_restricted_pseudoinverse
from .config import RunConfig, config_fingerprint, parse_config, serialize_config
from .dirac_basis import (
    CharInvariants,
    char_invariants,
    dset_adjoint,
    dset_from_matrix,
    dset_inverse,
    dset_multiply,
    dset_square,
    gamma_matrix,
    leading_element,
    matrix_from_dset,
    structure_constant,
)
from .engine import (
    FieldTables,
    ProjectorAccumulator,
    residual_table,
)
from .errors import (
    ConfigError,
    DegenerateOverlap,
    EstcError,
    ShiftNotInS13,
    SingularMatrix,
    StageSingular,
    TransversalityViolation,
    ZeroField,
)
from .field import (
    DimensionlessParams,
    FieldConfig,
    a_matrix,
    det_l,
    field_intensity,
    l_matrix,
    n_overlap,
    v_coupling,
    validate,
    w_vector,
)
from .lattice import (
    SHIFTS_S13,
    Window,
    couples,
    g4d,
    in_lattice,
    make_schedule,
    site_add,
    site_sub,
    window_size,
)
from .multispinor import Multispinor, random_multispinor

__all__ = [
    "CharInvariants",
    "ConfigError",
    "DegenerateOverlap",
    "DimensionlessParams",
    "EstcError",
    "FieldConfig",
    "FieldTables",
    "Multispinor",
    "ProjectorAccumulator",
    "RunConfig",
    "SHIFTS_S13",
    "ShiftNotInS13",
    "SingularMatrix",
    "StageSingular",
    "TransversalityViolation",
    "Window",
    "ZeroField",
    "a_matrix",
    "char_invariants",
    "combine_pair",
    "config_fingerprint",
    "couples",
    "det_l",
    "dset_adjoint",
    "dset_from_matrix",
    "dset_inverse",
    "dset_multiply",
    "dset_square",
    "field_intensity",
    "g4d",
    "gamma_matrix",
    "in_lattice",
    "l_matrix",
    "leading_element",
    "make_schedule",
    "matrix_from_dset",
    "n_overlap",
    "parse_config",
    "random_multispinor",
    "range_basis",
    "range_restricted_pseudoinverse",
    "residual_table",
    "serialize_config",
    "site_add",
    "site_sub",
    "structure_constant",
    "v_coupling",
    "validate",
    "w_vector",
    "window_size",
]

__version__ = "0.1.0"
