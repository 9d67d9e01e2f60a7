import importlib.util

import numpy as np
import pytest

from confsub.errors import SceneError
from confsub.scenes import (
    PRESETS,
    load_preset,
    load_scene_text,
    preset_names,
    sample_points,
)

from .conftest import REPO

GOOD = """
name = toy
[source]
dim = 2
metric = euclidean
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1 + x2
[sampling]
box = -1 1, -1 1
count = 5
seed = 11
"""


def test_load_minimal_scene():
    sc = load_scene_text(GOOD)
    assert sc.name == "toy"
    assert sc.source.dim == 2 and sc.target.dim == 1
    assert sc.machinery_only  # no complex structure declared
    assert sc.count == 5 and sc.seed == 11


def test_presets_all_load():
    for name in preset_names():
        sc = load_preset(name)
        assert sc.name == name
        assert sc.source.box is not None


def test_preset_listing_complete():
    assert {"example33", "linproj42", "holo4", "exp1", "diag-x1sq", "linproj63"} <= set(PRESETS)


def test_unknown_preset():
    with pytest.raises(SceneError, match="unknown preset"):
        load_preset("nope")


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("F 1 = x1 + x2", "F 1 = x3"), "out of range"),
        (("box = -1 1, -1 1", "box = -1 1"), "2 intervals"),
        (("count = 5", "count = -5"), "positive"),
        (("[map]", "[maps]"), "unknown section"),
        (("F 1 = x1 + x2", "F 1 = x1 +"), "bad expression"),
        (("dim = 2", "dim = two"), "bad dimension"),
        (("metric = euclidean\n[target]", "[target]"), "needs a metric"),
    ],
)
def test_malformed_scenes(mutation, message):
    old, new = mutation
    text = GOOD.replace(old, new, 1)
    with pytest.raises(SceneError, match=message):
        load_scene_text(text)


def _malformed():
    """The malformed linproj42 edits that `scripts/compare_reports.py` runs through both trees."""
    spec = importlib.util.spec_from_file_location("compare_reports", REPO / "scripts" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MALFORMED


MALFORMED = _malformed()
# name: (line, message) of each edit's scene error
MALFORMED_ERRORS = {
    "unknown-top-level-key": (3, "unknown key 'foo' in the top level"),
    "unknown-sampling-key": (17, r"unknown key 'foo' in \[sampling\]"),
    "unknown-tolerances-keys": (18, r"unknown key 'drop' in \[tolerances\]"),
    "repeated-name": (3, "duplicate 'name' in the top level, first given on line 2"),
    "repeated-machinery-only": (4, "duplicate 'machinery_only' in the top level, first given on line 3"),
    "repeated-kahler-expected": (4, "duplicate 'kahler_expected' in the top level, first given on line 3"),
    "repeated-theorem": (19, r"duplicate 'theorem' in \[tolerances\], first given on line 18"),
    "repeated-g-entry": (10, r"duplicate 'g 1 1' in \[target\], first given on line 9"),
    "repeated-metric": (6, r"duplicate 'metric' in \[source\], first given on line 5"),
    "j-canonical-then-none": (7, r"duplicate 'J' in \[source\], first given on line 6"),
    "j-canonical-with-entries": (6, r"\[source\] mixes 'J = canonical' with explicit entries"),
    "j-none-with-entries": (6, r"\[source\] mixes 'J = none' with explicit entries"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_unknown_repeated_or_mixed_keys_rejected_at_their_line(name):
    old, new = MALFORMED[name]
    text = PRESETS["linproj42"].replace(old, new, 1)
    assert text != PRESETS["linproj42"]
    line, message = MALFORMED_ERRORS[name]
    with pytest.raises(SceneError, match=rf"^line {line}: {message}$"):
        load_scene_text(text)


def test_complex_structure_entries_need_even_dimension():
    text = GOOD.replace("dim = 2\nmetric = euclidean", "dim = 3\nmetric = euclidean\nJ 1 2 = 1", 1)
    text = text.replace("box = -1 1, -1 1", "box = -1 1, -1 1, -1 1")
    with pytest.raises(SceneError, match="complex structure requires even dimension"):
        load_scene_text(text)


def test_scene_error_carries_line_number():
    text = GOOD.replace("F 1 = x1 + x2", "F 1 = x1 +")
    with pytest.raises(SceneError, match=r"line 10"):
        load_scene_text(text)


def test_explicit_metric_entries():
    sc = load_scene_text(
        """
name = curved
[source]
dim = 2
g 1 1 = 1
g 2 2 = x1^2
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1
[sampling]
box = 0.5 2, -1 1
"""
    )
    from confsub.geometry import metric_jet

    assert metric_jet(sc.source, (2.0, 0.0)).v == pytest.approx(np.diag([1.0, 4.0]))


def test_lower_triangle_rejected():
    text = GOOD.replace("metric = euclidean\n[target]", "g 2 1 = 1\n[target]")
    with pytest.raises(SceneError, match="upper-triangle"):
        load_scene_text(text)


def test_duplicate_component_rejected():
    text = GOOD.replace("F 1 = x1 + x2", "F 1 = x1\nF 1 = x2")
    with pytest.raises(SceneError, match="duplicate"):
        load_scene_text(text)


# ---------------------------------------------------------------------------
# sampling


def test_sample_points_deterministic():
    sc = load_preset("example33")
    a = sample_points(sc, count=10, seed=7)
    b = sample_points(sc, count=10, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_points(sc, count=10, seed=8)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_sample_points_respect_box_and_exclusions():
    sc = load_preset("example33")
    pts = sample_points(sc, count=64, seed=3)
    assert len(pts) == 64
    import math

    for p in pts:
        assert np.all(p >= -1.0) and np.all(p <= 1.0)
        half = math.pi / 4
        d = abs(((p[4] + half) % (math.pi / 2)) - half)
        assert d >= 1e-3


def test_sample_points_count_override():
    sc = load_preset("exp1")
    assert len(sample_points(sc)) == sc.count
    assert len(sample_points(sc, count=3)) == 3


def test_sample_points_rejects_degenerate_overrides():
    sc = load_preset("exp1")
    with pytest.raises(SceneError, match="count must be positive"):
        sample_points(sc, count=0)
    with pytest.raises(SceneError, match="seed must be non-negative"):
        sample_points(sc, seed=-1)
