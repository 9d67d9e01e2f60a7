"""Values the same at every point are held once: point-uniform arrays change no number.

When the metrics, J and the differential do not vary, the frame pass holds them,
and everything it derives from them alone, with a point axis of length 1, and
`_Group` widens them to full-length read-only views (`jets.full`).  With the
term `0*x1*x2` added to each map component, the gradients and Hessians vary,
the same numbers take the per-point path, and every canonical report must stay
the same byte for byte.
"""

import dataclasses

import pytest

from confsub.expr import BinOp, Const, Var
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import sample_points

from .conftest import fresh_scene

# affine maps (a constant differential) and maps with a varying one
UNIFORM_SCENES = ("linproj42", "linproj63", "anti-toy", "example33", "twisted4")
# every jet of the pass that a constant differential leaves constant
PASS_JETS = ("G", "Ginv", "J", "DF", "gN", "vertical", "horizontal", "d1", "d2", "jd2", "mu",
             "PV", "PH", "PMU", "lambda_sq")


def _varying(sc):
    """The scene with each map component F written as `F + 0*x1*x2`: equal numbers, varying derivatives."""
    zero = BinOp("*", BinOp("*", Const(0.0), Var(0)), Var(1))
    fmap = dataclasses.replace(sc.fmap, components=tuple(BinOp("+", c, zero) for c in sc.fmap.components))
    return dataclasses.replace(sc, fmap=fmap)


@pytest.mark.parametrize("mode", ({}, {"structure_only": True, "points": 128}), ids=("full", "structure-only"))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", UNIFORM_SCENES)
def test_varying_map_terms_give_the_same_report(name, seed, mode):
    plain = fresh_scene(name)
    want = to_canonical(run(_varying(plain), seed=seed, **mode))
    assert to_canonical(run(plain, seed=seed, **mode)) == want


def test_a_constant_differential_is_computed_once():
    sc = fresh_scene("linproj63")
    points = sample_points(sc, count=16, seed=1)
    (_, g), = sc.fmap.frame_pass(points)[1]
    for name in PASS_JETS:  # a view that repeats one point's numbers
        jet = getattr(g, name)
        assert jet.v.shape[0] == jet.d.shape[0] == 16 and jet.v.strides[0] == 0, name
    assert g.lam.strides[0] == g.conf_residual.strides[0] == 0
    (_, h), = _varying(sc).fmap.frame_pass(points)[1]
    assert h.G.v.strides[0] == 0  # the metric is still constant
    assert h.DF.v.strides[0] != 0 and h.vertical.v.strides[0] != 0
