import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from confsub.errors import SceneError
from confsub.scenes import (
    PRESETS,
    ScrambledHalton,
    load_preset,
    load_scene_text,
    preset_names,
    sample_points,
)

from .conftest import REPO, SRC

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
    "repeated-theorem": (19, r"duplicate 'theorem' in \[tolerances\], first given on line 18"),
    "repeated-g-entry": (10, r"duplicate 'g 1 1' in \[target\], first given on line 9"),
    "repeated-metric": (6, r"duplicate 'metric' in \[source\], first given on line 5"),
    "j-canonical-then-none": (7, r"duplicate 'J' in \[source\], first given on line 6"),
    "j-canonical-with-entries": (6, r"\[source\] mixes 'J = canonical' with explicit entries"),
    "j-none-with-entries": (6, r"\[source\] mixes 'J = none' with explicit entries"),
    "infinite-box": (14, "interval width must be finite, got '-inf inf'"),
    "overflowing-box": (14, "interval width must be finite, got '-1e308 1e308'"),
    "infinite-modulus": (17, "exclusion value must be finite, got 'inf'"),
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
    from .fdtools import metric_jet

    assert metric_jet(sc.source, (2.0, 0.0)).v[0] == pytest.approx(np.diag([1.0, 4.0]))


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


# Rows 0 and 15 of a first draw of 16 points and row 0 of a second draw of 1,
# in 6 dimensions, per seed; written out from scipy 1.17.1's
# `qmc.Halton(6, scramble=True, seed=seed)`.  Fewer dimensions draw the
# leading columns, since the permutations are drawn base by base.
HALTON_PINS = {
    0: [
        (0.0991217798843752, 0.05391376185363979, 0.30077622909743845,
         0.7557337970515801, 0.4658102659117047, 0.6415954465447364),
        (0.9116217798843752, 0.23909894703882495, 0.34077622909743843,
         0.49042767460260056, 0.7881243154984815, 0.9907078725802394),
        (0.0678717798843752, 0.9057656137054916, 0.7407762290974385,
         0.061856246031172006, 0.9699424973166634, 0.0676309495033164),
    ],
    7: [
        (0.10224233015287731, 0.9346983862017634, 0.8943413349392959,
         0.7363974341982583, 0.2960292130992189, 0.9525421431132073),
        (0.9147423301528773, 0.8606243121276893, 0.854341334939296,
         0.1853770260349931, 0.2216490478099627, 0.6862699537640948),
        (0.07099233015287731, 0.1939576454610226, 0.054341334939295896,
         0.8996627403207074, 0.03983086599178093, 0.7631930306871717),
    ],
    2**31 - 1: [
        (0.5263171407412407, 0.17969798888156205, 0.24885902136305257,
         0.08923300121486497, 0.6149203867805939, 0.5001096012121582),
        (0.4638171407412407, 0.2537720629556359, 0.20885902136305257,
         0.7422942257046609, 0.09425922975580053, 0.3699320864192587),
        (0.5575671407412407, 0.9204387296223029, 0.8088590213630525,
         0.8851513685618038, 0.4578955933921642, 0.9083936248807973),
    ],
}


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("seed", sorted(HALTON_PINS))
def test_scrambled_halton_draws_the_pinned_points(d, seed):
    sampler = ScrambledHalton(d, seed)
    first, second = sampler.random(16), sampler.random(1)
    assert first.shape == (16, d) and second.shape == (1, d)
    got = [tuple(first[0]), tuple(first[15]), tuple(second[0])]
    assert got == [row[:d] for row in HALTON_PINS[seed]]  # exact: bit for bit


# SHA-256 of the little-endian bytes of a third draw, of 300 points, after
# the two above; from the same scipy run.  Summing each point's terms pairwise
# instead of in digit order moves the last bit of about half of these values.
HALTON_SHA256 = {
    0: "752b27d2d82ac6fd297ddfa1323aa0a771862d6897d08185b2589392a325ee7c",
    7: "bc16a746cfb77df037386ee5172ad97d489d8aeb9887b917243d6bd18dd5dec7",
    2**31 - 1: "7d71f7408cee693e0e44a5bf31cb418fe4b6a6d25b830f15a43c501c4846c7f9",
}


@pytest.mark.parametrize("seed", sorted(HALTON_SHA256))
def test_scrambled_halton_long_draw_is_pinned_bit_for_bit(seed):
    sampler = ScrambledHalton(6, seed)
    sampler.random(16)
    sampler.random(1)
    third = sampler.random(300).astype("<f8")
    assert hashlib.sha256(third.tobytes()).hexdigest() == HALTON_SHA256[seed]


def _halton_by_digit_loop(sampler, start, n):
    """Points start .. start + n - 1 of the sequence, one digit position at a time, added in digit order."""
    rem, out = np.arange(start, start + n)[:, None], np.zeros((n, sampler._cols.size))
    for j in range(len(sampler._zero_terms)):
        rem, digit = np.divmod(rem, sampler._bases)
        out += sampler._perm[j, sampler._cols, digit] * sampler._weights[j]
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
def test_scrambled_halton_draws_match_the_digit_loop(d):
    # the draw stacks all digit terms and sums them over the digit axis; any
    # summation order but digit order would move last bits
    sampler, start = ScrambledHalton(d, 5), 0
    for n in (1, 16, 5, 128, 1000, 1):
        want = _halton_by_digit_loop(sampler, start, n)
        got = sampler.random(n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (d, start, n)
        start += n


def test_importing_the_cli_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, confsub.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_sample_points_deterministic():
    sc = load_preset("example33")
    a = sample_points(sc, count=10, seed=7)
    b = sample_points(sc, count=10, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_points(sc, count=10, seed=8)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_sample_points_are_one_array_pinned():
    # example33 excludes x5 near multiples of pi/2 (`exclude = x5 mod ...`)
    pts = sample_points(load_preset("example33"), count=8, seed=3)
    assert isinstance(pts, np.ndarray) and pts.dtype == np.float64 and pts.shape == (8, 6)
    assert pts[:3].tolist() == [
        [0.08439848511638814, -0.7237283420912115, 0.5926832711818899,
         0.6913065848162976, -0.8629986500568639, -0.6960914200157833],
        [-0.9156015148836119, -0.05706167542454488, -0.6073167288181109,
         0.405592299102012, 0.5915468044885905, -0.388399112323476],
        [0.5843984851163881, 0.609604991242122, -0.20731672881811103,
         -0.7372648437551305, 0.7733649863067724, 0.5346778107534473],
    ]

    # at seed 11 the ninth point drawn lies within 1e-3 of x5 = 0: it alone is skipped
    drawn = -1.0 + ScrambledHalton(6, 11).random(16) * 2.0
    kept = sample_points(load_preset("example33"), count=12, seed=11)
    assert np.array_equal(kept, np.delete(drawn, 8, axis=0)[:12])


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
