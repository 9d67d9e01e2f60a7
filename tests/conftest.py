import functools
from pathlib import Path

import numpy as np
import pytest

from confsub.scenes import load_preset, load_scene_text, preset_names, sample_points
from confsub.theorems import _group_rows

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
BENCH_SCENES = sorted((REPO / "bench" / "scenes").glob("*.txt"))
ALL_SCENE_NAMES = tuple(preset_names()) + tuple(f.stem for f in BENCH_SCENES)

# a curved, non-diagonal source metric and a curved target: the projectors are
# not symmetric matrices and every connection term is nonzero, which the
# presets (conformally flat sources, flat targets) never show
GENERIC_METRIC = """
name = generic-metric
[source]
dim = 3
g 1 1 = 1 + 0.3*x2^2
g 1 2 = 0.2*x3
g 2 2 = 2 + sin(x1)
g 2 3 = 0.1*x1
g 3 3 = 1.5
[target]
dim = 1
g 1 1 = exp(x1)
[map]
F 1 = x1 + 0.5*x2*x3
[sampling]
box = -1 1, -1 1, -1 1
"""
# a Hermitian source metric that is not Kaehler, with J pairing the coordinates
# 1-3, 2-4 and 5-6 and a 4-dimensional invariant part: the frames of the pass
# turn against J from point to point, so g(J E_r, E_s) in the adapted frame
# varies (dJ != 0), which no preset or bench scene shows
GENERIC_HERMITIAN = """
name = generic-hermitian
[source]
dim = 6
g 1 1 = 1 + 0.3*sin(x1)
g 1 2 = 0.2*x2
g 1 4 = 0.15*x5
g 2 2 = 1.5 + 0.1*x3^2
g 2 3 = 0 - 0.15*x5
g 3 3 = 1 + 0.3*sin(x1)
g 3 4 = 0.2*x2
g 4 4 = 1.5 + 0.1*x3^2
g 5 5 = 1
g 6 6 = 1
J 3 1 = 1
J 1 3 = 0 - 1
J 4 2 = 1
J 2 4 = 0 - 1
J 6 5 = 1
J 5 6 = 0 - 1
[target]
dim = 2
metric = euclidean
[map]
F 1 = x5
F 2 = x6
[sampling]
box = -1 1, -1 1, -1 1, -1 1, -1 1, -1 1
"""
GENERIC_SCENES = {"generic-metric": GENERIC_METRIC, "generic-hermitian": GENERIC_HERMITIAN}
SCENES_WITH_GENERIC = ALL_SCENE_NAMES + tuple(GENERIC_SCENES)


def fresh_scene(name):
    """A newly parsed preset, bench scene or generic scene."""
    if name in GENERIC_SCENES:
        return load_scene_text(GENERIC_SCENES[name])
    for f in BENCH_SCENES:
        if f.stem == name:
            return load_scene_text(f.read_text(encoding="utf-8"), name_hint=name)
    return load_preset(name)


@functools.lru_cache(maxsize=None)
def scene(name):
    return load_preset(name)


@functools.lru_cache(maxsize=None)
def points(name, count=8, seed=7):
    return tuple(tuple(p) for p in sample_points(scene(name), count=count, seed=seed))


def entry(fmap, p):
    """The `(group, k)` of p in its batch of one, `fmap.frame_pass([p])`; raises the point's error."""
    (e,), _ = fmap.frame_pass([p])
    if isinstance(e, Exception):
        raise e
    return e


@functools.lru_cache(maxsize=None)
def _entries(name, count, seed):
    return tuple(scene(name).fmap.frame_pass(points(name, count, seed))[0])


def entries(name, count=8, seed=7):
    """The `(group, k)` of each sample point of a preset in one frame pass, shared across tests."""
    return list(_entries(name, count, seed))


def reports_at(check, e, tol):
    """The reports of a checker at the point `e = (group, k)`: entry k of each row of its group."""
    g, k = e
    return [row[k] for row in _group_rows(check, g, tol)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
