"""The axial dilation generator and the direct matrix commutator.

The test oracle for the closed-form commutator ``assemble_commutator``:
A = (q p + p q)/2 is kept as the real antisymmetric generator S with
A = iS, so every assembled object stays real and the quadratic forms
<v, i[H,A] v> are evaluated through S.
"""

import numpy as np
import scipy.sparse as sp

from tubespectra import DiscreteOperator
from tubespectra.operators import _axis_pair_slices


def assemble_dilation(grid):
    """Real antisymmetric generator S with A = iS, A = (q p + p q)/2.

    p is the centered antisymmetric difference along the axis, q the
    diagonal of s-coordinates; S = -(Q D + D Q)/2 so that quadratic forms
    of i[H, A] can be taken through S on real grid functions.
    """
    idx, act = grid.row_index()
    shape = grid.full_shape
    ds = grid.s_spacing
    lo, hi = _axis_pair_slices(shape, 0)
    both = act[lo] & act[hi]
    rows = idx[lo][both]
    cols = idx[hi][both]
    S_nodes, _ = grid.node_coordinates()
    s_sum = (S_nodes[lo] + S_nodes[hi])[both]
    vals = -s_sum / (4.0 * ds)
    n = grid.n_unknowns
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    m = (m - m.T).tocsr()
    return DiscreteOperator(matrix=m, grid=grid, tag="A")


def direct_commutator(h_op, dilation_op):
    """Matrix commutator i[H, A] = S H - H S through the real generator."""
    s_m = dilation_op.matrix
    h_m = h_op.matrix
    m = (s_m @ h_m - h_m @ s_m).tocsr()
    return DiscreteOperator(matrix=m, grid=h_op.grid, tag="commutator-direct")


def commutator_form_comparison(formula_op, h_op, dilation_op, vectors):
    """Relative quadratic-form differences formula vs direct on test vectors."""
    direct = direct_commutator(h_op, dilation_op)
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float).ravel()
        qf = float(v @ (formula_op.matrix @ v))
        qd = float(v @ (direct.matrix @ v))
        scale = max(abs(qd), 1e-300)
        out.append(abs(qf - qd) / scale)
    return np.asarray(out)
