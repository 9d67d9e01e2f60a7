import functools
from pathlib import Path

import numpy as np
import pytest

from confsub.scenes import load_preset, load_scene_text, preset_names, sample_points

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
SCENES_WITH_GENERIC = ALL_SCENE_NAMES + ("generic-metric",)


def fresh_scene(name):
    """A newly parsed preset, bench scene or the generic-metric scene."""
    if name == "generic-metric":
        return load_scene_text(GENERIC_METRIC)
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


@functools.lru_cache(maxsize=None)
def _contexts(name, count, seed):
    sc = scene(name)
    return tuple(sc.fmap.contexts([np.array(p) for p in points(name, count, seed)], sc.tolerances))


def contexts(name, count=8, seed=7):
    """Point contexts of a preset, shared across tests like the scenes themselves."""
    return list(_contexts(name, count, seed))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
