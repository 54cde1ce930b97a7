"""
The coupling model of a four-dimensionally periodic field
=========================================================

Six monochromatic waves along three orthogonal axes make the field, and
on the frequency-momentum lattice each equation row couples exactly 13
sites: itself plus 12 first-generation neighbors.  This script builds a
field, inspects its coupling matrices, and checks the closed forms the
solver relies on.
"""

import numpy as np

from estc import (
    DimensionlessParams,
    FieldConfig,
    SHIFTS_S13,
    a_matrix,
    det_l,
    field_intensity,
    g4d,
    l_matrix,
    matrix_from_dset,
    site_add,
    v_coupling,
    w_vector,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# Wave amplitudes come in two grids, a (cosine) and b (sine), indexed by
# wave 1..6 and axis 1..3.  One component per wave is pinned to zero by
# transversality; the remaining 24 are free.
f = FieldConfig.from_amplitudes(
    {
        "a_12": 0.07, "b_13": -0.04, "a_23": 0.05, "b_21": 0.06,
        "a_31": -0.05, "b_32": 0.04, "a_42": 0.05, "b_43": 0.03,
        "a_53": -0.04, "b_51": 0.05, "a_61": 0.04, "b_62": -0.03,
    }
)
p = DimensionlessParams(q1=0.1, q2=-0.2, q3=0.15, q4=0.12, omega=0.6)
print("field intensity:", field_intensity(f))

# The site-dependent part of the couplings is the dimensionless
# four-vector w(n); its fourth component carries the quasienergy.
n = (1, 0, -1, 2)
print("w at", n, "->", w_vector(n, p))

# Row n couples the 13 stencil sites.  The zero-shift coupling depends on
# the site, the 12 field-shift couplings do not.
stack = np.stack([matrix_from_dset(v_coupling(n, s, f, p)) for s in SHIFTS_S13])
print("zero-shift coupling at", n, ":")
print(stack[0])
other = np.stack([matrix_from_dset(v_coupling((0, 0, 0, 0), s, f, p)) for s in SHIFTS_S13])
print("field couplings site-independent:", np.abs(stack[1:] - other[1:]).max())

# The row Gram matrix L(n) = sum_s V V^dag has a five-coefficient closed
# form, a closed-form inverse a(n), and a reduced determinant whose
# square is the dense determinant (the spectrum is two double pairs).
l_dense = matrix_from_dset(l_matrix(n, f, p))
print("gram closed form error:", np.abs(np.einsum("sij,skj->ik", stack, stack.conj()) - l_dense).max())
print("closed-form inverse error:", np.abs(matrix_from_dset(a_matrix(n, f, p)) @ l_dense - np.eye(4)).max())
reduced = det_l(n, f, p)
print("reduced determinant:", reduced)
print("squared vs dense determinant:", abs(reduced**2 - np.linalg.det(l_dense).real))
print("gram eigenvalues:", np.linalg.eigvalsh(l_dense))

# The overlap of rows n and m collects V(n, s) V(m, t)^dag over the columns
# they share, n + s = m + t, so it dies off exactly beyond coupling
# distance 2, where no stencil columns meet.
for shift in ((0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 0), (1, 1, 1, 1), (3, 0, 1, 0)):
    m = site_add(n, shift)
    stack_m = np.stack([matrix_from_dset(v_coupling(m, t, f, p)) for t in SHIFTS_S13])
    overlap = np.zeros((4, 4), dtype=complex)
    for i, s in enumerate(SHIFTS_S13):
        for j, t in enumerate(SHIFTS_S13):
            if site_add(n, s) == site_add(m, t):
                overlap += stack[i] @ stack_m[j].conj().T
    print(f"overlap at distance {g4d(shift)}: max entry {np.abs(overlap).max():.4f}")
