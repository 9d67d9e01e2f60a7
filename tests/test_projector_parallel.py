"""The product rows' independent side a, measured against the rows they restate.

A Riemannian manifold is locally the product of the leaves of V and H iff the
projector P_V is parallel, nabla P_V = 0 (de Rham; Kobayashi & Nomizu,
*Foundations of Differential Geometry* I, ch. IV).  In the pass's orthonormal
frame F = [vertical; horizontal] the components g(F_c, (nabla_{F_a} P_V) F_b)
are, up to sign, O'Neill's T and A entries, so their largest absolute value
equals max(ra_h, ra_v) of `horizontal_totally_geodesic` and
`vertical_totally_geodesic`.  This identity is what lets the projector
residual replace the conjunction that `product_total_space` prints today.
"""

import numpy as np
import pytest

from confsub.scenes import sample_points
from confsub.theorems import _group_rows, check_horizontal_totally_geodesic, check_vertical_totally_geodesic

from .conftest import ALL_SCENE_NAMES, fresh_scene


def projector_residual(g) -> np.ndarray:
    """max |g(F_c, (nabla_{F_a} P_V) F_b)| over the frame F = [vertical; horizontal], per group row."""
    # (nabla_{d_l} P_V)(d_j) = nabla_{d_l}(P_V d_j) - P_V(nabla_{d_l} d_j), with Gamma^k_lj = gamma_src[q, k, l, j]
    DP = g._nabla_PV - np.einsum("qmk,qklj->qljm", g.PV.v, g.gamma_src)
    F = np.concatenate((g.vertical.v, g.horizontal.v), axis=1)
    W = np.einsum("qal,qbj,qljm->qabm", F, F, DP)
    comp = np.einsum("qcm,qmn,qabn->qabc", F, g.G.v, W)
    return np.abs(comp).reshape(len(comp), -1).max(axis=1)


@pytest.mark.parametrize("name", ALL_SCENE_NAMES)
def test_the_projector_residual_is_the_larger_totally_geodesic_side_a(name):
    sc = fresh_scene(name)
    _, groups = sc.fmap.frame_pass(sample_points(sc, count=8, seed=1))
    assert groups
    for _, g in groups:
        ra = [np.array([r.residual_a for r in _group_rows(check, g, sc.tolerances)[0]])
              for check in (check_horizontal_totally_geodesic, check_vertical_totally_geodesic)]
        expected = np.maximum(*ra)
        got = projector_residual(g)
        assert got.shape == expected.shape
        np.testing.assert_array_less(np.abs(got - expected), 1e-12 * np.maximum(1.0, expected))
