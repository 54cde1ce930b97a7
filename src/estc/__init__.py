"""Fundamental solution of a spinor wave equation on a space-time crystal.

The package represents every 4x4 operator through its 16 coefficients in a
fixed unitary matrix basis, builds the coupled-row system of a
three-dimensional polychromatic field on a truncated frequency-momentum
window, and accumulates the projector onto the processed rows one time
slice of rank-4 stages at a time.  The complement of that projector maps any seed amplitude
set onto the solution subspace.

The names below are the ones the demos, the README and the benchmark
scripts use; everything else is imported from its module.
"""

from .config import parse_config
from .dirac_basis import (
    char_invariants,
    dset_adjoint,
    dset_from_matrix,
    dset_inverse,
    dset_multiply,
    dset_square,
    gamma_matrix,
    matrix_from_dset,
    structure_constant,
)
from .engine import ProjectorAccumulator
from .errors import EstcError, StageSingular
from .field import (
    DimensionlessParams,
    FieldConfig,
    a_matrix,
    det_l,
    field_intensity,
    l_matrix,
    v_coupling,
    w_vector,
)
from .lattice import SHIFTS_S13, Window, g4d, site_add, site_sub, window_table
from .multispinor import random_multispinor

__all__ = [
    "DimensionlessParams",
    "EstcError",
    "FieldConfig",
    "ProjectorAccumulator",
    "SHIFTS_S13",
    "StageSingular",
    "Window",
    "a_matrix",
    "char_invariants",
    "det_l",
    "dset_adjoint",
    "dset_from_matrix",
    "dset_inverse",
    "dset_multiply",
    "dset_square",
    "field_intensity",
    "g4d",
    "gamma_matrix",
    "l_matrix",
    "matrix_from_dset",
    "parse_config",
    "random_multispinor",
    "site_add",
    "site_sub",
    "structure_constant",
    "v_coupling",
    "w_vector",
    "window_table",
]

__version__ = "0.1.0"
