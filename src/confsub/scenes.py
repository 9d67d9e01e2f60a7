"""Scene files, builtin presets and the deterministic sampler.

A scene is a line-oriented key/value file with sections.  Each section admits
the keys listed in `_KEYS`, each at most once (only `exclude` repeats); an
unknown or repeated key is an error at its line.  Metric entries are given
upper-triangle only (`g 1 2 = <expr>`), the almost complex structure as a full
grid (`J 1 2 = <expr>`, `[source]` only); the shorthands `metric = euclidean`
and `J = canonical|none` cannot be mixed with entries.  Sampling is a
per-coordinate box with optional excluded hypersurfaces; points come from a
scrambled Halton sequence seeded by the scene, so reports are reproducible run
to run.  The sequence is Owen's randomized Halton (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, 2017); `ScrambledHalton(d, seed)`
draws the same stream, bit for bit, as
`scipy.stats.qmc.Halton(d, scramble=True, seed=seed)`.

Example::

    name = demo
    [source]
    dim = 2
    metric = euclidean
    [target]
    dim = 1
    metric = euclidean
    [map]
    F 1 = exp(x1)
    [sampling]
    box = -1 1, -1 1
    count = 16
    seed = 7
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SceneError
from .expr import Const, ExprParseError, parse
from .geometry import (
    ChartedManifold,
    ExcludedLocus,
    canonical_complex_structure,
    euclidean_metric,
)
from .submersion import SmoothMap

__all__ = ["Scene", "load_scene", "load_scene_text", "load_preset", "resolve_scene",
           "preset_names", "sample_points", "ScrambledHalton", "PRESETS", "MAX_POINTS"]

# the largest sample count of a scene, `--points` or `run(points=...)`; a larger one is a scene error
MAX_POINTS = 100_000


@dataclass(frozen=True)
class Scene:
    name: str
    fmap: SmoothMap
    count: int
    seed: int
    tolerances: Tolerances
    kahler_expected: bool

    @property
    def machinery_only(self) -> bool:
        """No complex structure takes part: none is declared, or a declared one was dropped at load."""
        return self.source.complex_structure is None

    @property
    def source(self) -> ChartedManifold:
        return self.fmap.source

    @property
    def target(self) -> ChartedManifold:
        return self.fmap.target


# ---------------------------------------------------------------------------
# Parsing

# The keys each section admits, as (name, number of indices): ("g", 2) admits
# `g 1 2 = <expr>`, ("J", 0) the shorthand `J = canonical`.  The top level is "".
# A key may appear once per section; only `exclude` repeats.
_KEYS = {
    "": {("name", 0), ("machinery_only", 0), ("kahler_expected", 0)},
    "source": {("dim", 0), ("metric", 0), ("g", 2), ("J", 0), ("J", 2)},
    "target": {("dim", 0), ("metric", 0), ("g", 2)},
    "map": {("F", 1)},
    "sampling": {("box", 0), ("count", 0), ("seed", 0), ("exclude", 0)},
    "tolerances": {("theorem", 0)},
}


def _read(text: str) -> dict[str, dict]:
    """Each section's keys, `(name, indices) -> [(value, line), ...]`, checked against `_KEYS`."""
    sections: dict[str, dict] = {section: {} for section in _KEYS}
    current, where = "", "the top level"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            where = f"[{current}]"
            if not current or current not in _KEYS:
                raise SceneError(f"unknown section {where}", lineno)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SceneError(f"expected 'key = value', got {line!r}", lineno)
        name, *indices = key.split() or [""]
        if (name, len(indices)) not in _KEYS[current]:
            raise SceneError(f"unknown key {key.strip()!r} in {where}", lineno)
        try:
            indices = tuple(map(int, indices))
        except ValueError:
            raise SceneError(f"bad index in key {key.strip()!r}", lineno) from None
        seen = sections[current].setdefault((name, indices), [])
        if seen and name != "exclude":
            raise SceneError(f"duplicate {key.strip()!r} in {where}, first given on line {seen[0][1]}", lineno)
        seen.append((value.strip(), lineno))
    return sections


def _at(lineno: int | None, fn, *args):
    """`fn(*args)`, with a ValueError reported as a scene error at `lineno`."""
    try:
        return fn(*args)
    except ValueError as err:
        raise SceneError(str(err), lineno) from None


def _single(sections, section: str, name: str, parse, default=None):
    """`parse` of the value of `name` in `section`; `default` when it is absent, required if None."""
    given = sections[section].get((name, ()))
    if given is None:
        if default is None:
            raise SceneError(f"missing '{name}' in [{section}]")
        return default
    [(value, lineno)] = given
    return _at(lineno, parse, value)


def _bool(raw: str) -> bool:
    v = raw.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _integer(what: str, low: int, high: float, expected: str):
    """A parser of the integers in [low, high]; `expected` names them in its error."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise ValueError(f"bad {what} {raw!r}: expected {expected}")
        return value

    return parse


def _theorem_tolerance(raw: str) -> Tolerances:
    try:
        return DEFAULT_TOLERANCES.with_theorem(float(raw))
    except ValueError:
        raise ValueError(f"bad tolerance {raw!r}: must be a finite number > 0") from None


def _parse_box(raw: str, dim: int):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != dim:
        raise ValueError(f"box needs {dim} intervals, got {len(parts)}")
    box = []
    for part in parts:
        nums = part.split()
        if len(nums) != 2:
            raise ValueError(f"interval must be 'lo hi', got {part!r}")
        try:
            lo, hi = float(nums[0]), float(nums[1])
        except ValueError:
            raise ValueError(f"interval bounds must be numbers, got {part!r}") from None
        if not math.isfinite(hi - lo):  # an infinite or NaN bound, or a width that overflows
            raise ValueError(f"interval width must be finite, got {part!r}")
        if not lo < hi:
            raise ValueError(f"empty interval {part!r}")
        box.append((lo, hi))
    return tuple(box)


def _parse_exclusion(raw: str, dim: int) -> ExcludedLocus:
    parts = raw.split()
    if len(parts) != 3 or parts[1] not in ("mod", "eq"):
        raise ValueError(f"exclusion must be 'x<i> mod|eq <value>', got {raw!r}")
    name = parts[0]
    if not (name.startswith("x") and name[1:].isdigit()):
        raise ValueError(f"bad coordinate {name!r} in exclusion")
    coord = int(name[1:])
    if coord < 1 or coord > dim:
        raise ValueError(f"exclusion coordinate {name} out of range")
    try:
        value = float(parts[2])
    except ValueError:
        raise ValueError(f"exclusion value must be a number, got {parts[2]!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"exclusion value must be finite, got {parts[2]!r}")
    if parts[1] == "mod" and value <= 0:
        raise ValueError("modulus must be positive")
    return ExcludedLocus(parts[1], coord - 1, value)


def _grid(sections, section: str, shorthand: str, entry: str, dim: int, shorthands, symmetric: bool):
    """A dim x dim grid from `shorthand = <value>` or from `entry i j = <expr>` lines; None if neither.

    Entries not given are zero.  A symmetric grid takes the upper triangle and mirrors it.
    """
    fields = sections[section]
    entries = [(idx, given) for (name, idx), given in fields.items() if name == entry and idx]
    if (shorthand, ()) in fields:
        [(value, lineno)] = fields[(shorthand, ())]
        if entries:
            raise SceneError(f"[{section}] mixes '{shorthand} = {value}' with explicit entries", lineno)
        if value not in shorthands:
            raise SceneError(f"unknown {shorthand} shorthand {value!r}", lineno)
        return _at(lineno, shorthands[value], dim)
    if not entries:
        return None
    grid = [[Const(0.0)] * dim for _ in range(dim)]
    for (i, j), [(value, lineno)] in entries:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise SceneError(f"entry index ({i},{j}) out of range for dim {dim}", lineno)
        if symmetric and i > j:
            raise SceneError(f"give upper-triangle entries only, got ({i},{j})", lineno)
        grid[i - 1][j - 1] = _parse_expr(value, dim, lineno)
        if symmetric:
            grid[j - 1][i - 1] = grid[i - 1][j - 1]
    return tuple(tuple(row) for row in grid)


_DIM = _integer("dimension", 1, 16, "an integer in 1..16")
_COUNT = _integer("count", 1, MAX_POINTS, f"a positive integer up to {MAX_POINTS}")
_SEED = _integer("seed", 0, float("inf"), "a non-negative integer")
_METRICS = {"euclidean": euclidean_metric}
_COMPLEX_STRUCTURES = {"canonical": canonical_complex_structure, "none": lambda dim: None}


def _manifold(sections, section: str):
    """Dimension, metric and complex structure (None when not given) of [source] or [target]."""
    dim = _single(sections, section, "dim", _DIM)
    metric = _grid(sections, section, "metric", "g", dim, _METRICS, symmetric=True)
    if metric is None:
        raise SceneError(f"[{section}] needs a metric ('metric = euclidean' or 'g i j =' entries)")
    J = _grid(sections, section, "J", "J", dim, _COMPLEX_STRUCTURES, symmetric=False)
    return dim, metric, J


def load_scene_text(text: str, name_hint: str = "scene") -> Scene:
    sections = _read(text)
    name = _single(sections, "", "name", str, name_hint)
    machinery = _single(sections, "", "machinery_only", _bool, False)
    src_dim, src_metric, src_j = _manifold(sections, "source")
    tgt_dim, tgt_metric, _ = _manifold(sections, "target")

    components = {}
    for (_, (idx,)), [(value, lineno)] in sections["map"].items():
        if not 1 <= idx <= tgt_dim:
            raise SceneError(f"component index {idx} out of range for target dim {tgt_dim}", lineno)
        components[idx] = _parse_expr(value, src_dim, lineno)
    if len(components) != tgt_dim:
        raise SceneError(f"[map] needs {tgt_dim} components, got {len(components)}")

    box = _single(sections, "sampling", "box", lambda raw: _parse_box(raw, src_dim))
    count = _single(sections, "sampling", "count", _COUNT, 24)
    seed = _single(sections, "sampling", "seed", _SEED, 7)
    excluded = tuple(
        _at(lineno, _parse_exclusion, value, src_dim)
        for value, lineno in sections["sampling"].get(("exclude", ()), [])
    )
    tol = _single(sections, "tolerances", "theorem", _theorem_tolerance, DEFAULT_TOLERANCES)

    try:
        # a machinery-only scene ignores a declared J everywhere: drop it here, once
        source = ChartedManifold(src_dim, src_metric, None if machinery else src_j, box, excluded)
        target = ChartedManifold(tgt_dim, tgt_metric, None, None, ())
        fmap = SmoothMap(source, target, tuple(components[i] for i in range(1, tgt_dim + 1)))
    except ValueError as err:
        raise SceneError(str(err)) from None
    kahler_expected = _single(sections, "", "kahler_expected", _bool, src_j is not None and not machinery)
    return Scene(
        name=name,
        fmap=fmap,
        count=count,
        seed=seed,
        tolerances=tol,
        kahler_expected=kahler_expected,
    )


def _parse_expr(text: str, dim: int, lineno: int):
    try:
        return parse(text, dim)
    except ExprParseError as err:
        raise SceneError(f"bad expression {text!r}: {err}", lineno) from None


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SceneError(f"cannot read scene file: {err}") from None
    name_hint = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return load_scene_text(text, name_hint=name_hint)


# ---------------------------------------------------------------------------
# Builtin presets

PRESETS: dict[str, str] = {
    "example33": """
name = example33
[source]
dim = 6
metric = euclidean
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = exp(x3)*cos(x5)
F 2 = exp(x3)*sin(x5)
[sampling]
box = -1 1, -1 1, -1 1, -1 1, -1 1, -1 1
exclude = x5 mod 1.5707963267948966
count = 24
seed = 7
""",
    "linproj42": """
name = linproj42
[source]
dim = 4
metric = euclidean
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1
F 2 = x2
[sampling]
box = -1 1, -1 1, -1 1, -1 1
count = 24
seed = 7
""",
    "linproj63": """
name = linproj63
[source]
dim = 6
metric = euclidean
J = canonical
[target]
dim = 3
metric = euclidean
[map]
F 1 = x1
F 2 = x2
F 3 = x3
[sampling]
box = -1 1, -1 1, -1 1, -1 1, -1 1, -1 1
count = 24
seed = 7
""",
    "holo4": """
name = holo4
[source]
dim = 4
metric = euclidean
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = exp(x3)*cos(x4)
F 2 = exp(x3)*sin(x4)
[sampling]
box = -1 1, -1 1, -1 1, -1 1
count = 24
seed = 7
""",
    "exp1": """
name = exp1
machinery_only = true
[source]
dim = 2
metric = euclidean
[target]
dim = 1
metric = euclidean
[map]
F 1 = exp(x1)
[sampling]
box = -1 1, -1 1
count = 24
seed = 7
""",
    "diag-x1sq": """
name = diag-x1sq
machinery_only = true
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
box = 0.5 2.5, -1 1
count = 24
seed = 7
""",
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def load_preset(name: str) -> Scene:
    if name not in PRESETS:
        raise SceneError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return load_scene_text(PRESETS[name], name_hint=name)


def resolve_scene(arg: str) -> Scene:
    """A preset name or a path to a scene file."""
    if arg in PRESETS:
        return load_preset(arg)
    return load_scene(arg)


# ---------------------------------------------------------------------------
# Sampling


class ScrambledHalton:
    """Owen's randomized Halton sequence in `d` dimensions, drawn in order.

    Coordinate k has the k-th prime b as its base and one random permutation
    of the digits 0..b-1 per digit position, for as many positions as a double
    resolves (b**-j > 2**-54).  The point at index i is
    sum_j perm[j, digit_j(i)] * b**-(j+1), with the terms added in digit
    order: the order of the reference implementation named in the module
    docstring, which fixes every last bit.
    """

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)  # a scene has <= 16 dimensions

    def __init__(self, d: int, seed: int):
        bases = self.PRIMES[:d]
        if len(bases) < d:
            raise ValueError(f"at most {len(self.PRIMES)} dimensions")
        self._bases, self._cols = np.array(bases), np.arange(d)
        rng = np.random.default_rng(seed)
        counts = [math.ceil(54 / math.log2(b)) - 1 for b in bases]
        # base 2 has the most positions; a zero past a base's own count adds +0.0
        self._perm = np.zeros((counts[0], d, bases[-1]), dtype=np.int64)
        for k, (b, count) in enumerate(zip(bases, counts)):
            self._perm[:count, k, :b] = rng.permuted(np.repeat(np.arange(b)[None], count, axis=0), axis=1)
        # 1/b, 1/b/b, ...: repeated division, not powers, as the reference does
        steps = np.vstack([np.ones(d), np.tile(self._bases, (counts[0], 1))])
        self._weights = np.divide.accumulate(steps)[1:]
        self._zero_terms = self._perm[:, :, 0] * self._weights
        # b**j as an integer: exact below 2**53, and above every index from there on (digit 0)
        self._powers = np.minimum(np.multiply.accumulate(steps)[:-1], 2.0 ** 62).astype(np.int64)
        self._index = 0

    def random(self, n: int) -> np.ndarray:
        """The next `n` points of the sequence, shape (n, d), in [0, 1)."""
        index = np.arange(self._index, self._index + n)[None, :, None]
        self._index += n
        ndigits = max(1, (self._index - 1).bit_length())  # past it every index has digit 0
        terms = np.empty((len(self._zero_terms), n, self._cols.size))
        digits = index // self._powers[:ndigits, None] % self._bases
        terms[:ndigits] = self._perm[np.arange(ndigits)[:, None, None], self._cols, digits] * self._weights[:ndigits, None]
        terms[ndigits:] = self._zero_terms[ndigits:, None]
        # in digit order: numpy adds term by term along an axis that is not the fastest in memory
        # (pairwise summation, which could move the last bit, runs along the fastest axis only, and
        # along the digit axis when it is the only one longer than 1)
        return np.add.reduce(terms, axis=0) if terms[0].size > 1 else np.add.accumulate(terms)[-1]


def sample_points(scene: Scene, count: int | None = None, seed: int | None = None) -> np.ndarray:
    """Scrambled Halton points in the box, away from excluded loci, as one (count, dim) float array.

    The sequence is drawn in batches, and the points of a batch that keep
    their distance from every excluded locus are kept, in the order drawn.
    """
    count = scene.count if count is None else int(count)
    seed = scene.seed if seed is None else int(seed)
    if count < 1:
        raise SceneError("sample count must be positive")
    if count > MAX_POINTS:
        raise SceneError(f"sample count {count} exceeds the maximum of {MAX_POINTS}")
    if seed < 0:
        raise SceneError("sample seed must be non-negative")
    src = scene.source
    if src.box is None:
        raise SceneError(f"scene {scene.name!r} has no sampling box")
    lo, hi = np.array(src.box).T
    sampler = ScrambledHalton(src.dim, seed)
    margin = scene.tolerances.exclusion_distance
    points = np.empty((0, src.dim))
    for _ in range(200):
        batch = lo + sampler.random(max(count, 16)) * (hi - lo)
        keep = np.ones(len(batch), dtype=bool)
        for loc in src.excluded:
            keep &= loc.distance(batch) >= margin
        points = np.concatenate([points, batch[keep]])
        if len(points) >= count:
            return points[:count]
    raise SceneError(f"sampling exhausted for scene {scene.name!r}: excluded loci reject too many points")
