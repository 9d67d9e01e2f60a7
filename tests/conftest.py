import functools
from pathlib import Path

import numpy as np
import pytest

from confsub.scenes import load_preset, load_scene_text, preset_names, sample_points

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
BENCH_SCENES = sorted((REPO / "bench" / "scenes").glob("*.txt"))
ALL_SCENE_NAMES = tuple(preset_names()) + tuple(f.stem for f in BENCH_SCENES)


def fresh_scene(name):
    """A newly parsed preset or bench scene."""
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
    return tuple(sc.fmap.context(np.array(p), sc.tolerances) for p in points(name, count, seed))


def contexts(name, count=8, seed=7):
    """Point contexts of a preset, shared across tests like the scenes themselves."""
    return list(_contexts(name, count, seed))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
