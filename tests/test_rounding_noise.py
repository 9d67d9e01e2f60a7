"""Rounding noise in the evaluated inputs moves no residual beyond rounding.

`fdtools.noise` reruns a full check with every value, gradient and Hessian
that the frame pass evaluates off by up to one ulp.  On every preset and
bench scene, at 8 points, each residual spreads by less than 1e-6 of its
row's tolerance (the census found at most 3.6e-8, on the conformal-surface
scene's `tension_formula` side a).  On an affine map between constant
metrics with a constant J every table is a structural zero, so no residual
moves at all.
"""

import pytest

from .conftest import ALL_SCENE_NAMES, fresh_scene
from .fdtools import noise

STILL_SCENES = ("linproj42", "linproj63", "anti-toy")


@pytest.mark.parametrize("name", ALL_SCENE_NAMES)
def test_rounding_noise_stays_far_below_the_tolerance(name):
    spreads = noise(fresh_scene(name), points=8, seed=1, runs=4)
    worst = max(float(s.max()) for s in spreads.values())
    assert worst < 1e-6, {k: float(s.max()) for k, s in spreads.items() if s.max() >= 1e-6}
    if name in STILL_SCENES:
        assert worst == 0.0
    else:
        assert worst > 0.0  # the perturbation reaches the residuals
