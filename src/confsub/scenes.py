"""Scene files, builtin presets and the deterministic sampler.

A scene is a line-oriented key/value file with sections.  Metric entries are
given upper-triangle only (`g 1 2 = <expr>`), the almost complex structure the
same way (`J 1 2 = <expr>`), with `metric = euclidean` and `J = canonical`
shorthands.  Sampling is a per-coordinate box with optional excluded
hypersurfaces; points come from a scrambled Halton sequence seeded by the
scene, so reports are reproducible run to run.

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

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

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
           "preset_names", "sample_points", "PRESETS"]


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


def _parse_bool(raw: str, lineno: int) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise SceneError(f"expected a boolean, got {raw!r}", lineno)


def _parse_box(raw: str, dim: int, lineno: int):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != dim:
        raise SceneError(f"box needs {dim} intervals, got {len(parts)}", lineno)
    box = []
    for part in parts:
        nums = part.split()
        if len(nums) != 2:
            raise SceneError(f"interval must be 'lo hi', got {part!r}", lineno)
        try:
            lo, hi = float(nums[0]), float(nums[1])
        except ValueError:
            raise SceneError(f"interval bounds must be numbers, got {part!r}", lineno) from None
        if not lo < hi:
            raise SceneError(f"empty interval {part!r}", lineno)
        box.append((lo, hi))
    return tuple(box)


def _parse_exclusion(raw: str, dim: int, lineno: int) -> ExcludedLocus:
    parts = raw.split()
    if len(parts) != 3 or parts[1] not in ("mod", "eq"):
        raise SceneError(f"exclusion must be 'x<i> mod|eq <value>', got {raw!r}", lineno)
    name = parts[0]
    if not (name.startswith("x") and name[1:].isdigit()):
        raise SceneError(f"bad coordinate {name!r} in exclusion", lineno)
    coord = int(name[1:])
    if coord < 1 or coord > dim:
        raise SceneError(f"exclusion coordinate {name} out of range", lineno)
    try:
        value = float(parts[2])
    except ValueError:
        raise SceneError(f"exclusion value must be a number, got {parts[2]!r}", lineno) from None
    if parts[1] == "mod" and value <= 0:
        raise SceneError("modulus must be positive", lineno)
    return ExcludedLocus(parts[1], coord - 1, value)


def _grid_from_entries(dim, entries):
    """Full symmetric grid from upper-triangle entries; unspecified entries are zero."""
    grid = [[Const(0.0)] * dim for _ in range(dim)]
    for (i, j), (expr, lineno) in entries.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise SceneError(f"entry index ({i},{j}) out of range for dim {dim}", lineno)
        if i > j:
            raise SceneError(f"give upper-triangle entries only, got ({i},{j})", lineno)
        grid[i - 1][j - 1] = expr
        grid[j - 1][i - 1] = expr
    return tuple(tuple(row) for row in grid)


def load_scene_text(text: str, name_hint: str = "scene") -> Scene:
    sections: dict[str, list[tuple[int, str]]] = {"": []}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("source", "target", "map", "sampling", "tolerances"):
                raise SceneError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise SceneError(f"expected 'key = value', got {line!r}", lineno)
        sections.setdefault(current, []).append((lineno, line))

    def kv(section):
        out = {}
        for lineno, line in sections.get(section, []):
            key, _, value = line.partition("=")
            out.setdefault(key.strip(), []).append((value.strip(), lineno))
        return out

    top = kv("")
    name = top.get("name", [(name_hint, 0)])[0][0]
    machinery = False
    if "machinery_only" in top:
        machinery = _parse_bool(*top["machinery_only"][0])

    def single(d, key, section, required=True, default=None):
        if key not in d:
            if required:
                raise SceneError(f"missing '{key}' in [{section}]")
            return default, 0
        vals = d[key]
        if len(vals) > 1:
            raise SceneError(f"duplicate '{key}' in [{section}]", vals[1][1])
        return vals[0]

    def build_manifold(section, allow_j):
        d = kv(section)
        raw_dim, ln = single(d, "dim", section)
        try:
            dim = int(raw_dim)
        except ValueError:
            raise SceneError(f"bad dimension {raw_dim!r}", ln) from None
        if dim < 1 or dim > 16:
            raise SceneError(f"dimension must be in 1..16, got {dim}", ln)

        entries = {}
        shorthand = None
        j_entries = {}
        j_shorthand = None
        for lineno, line in sections.get(section, []):
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            parts = key.split() or [""]
            if parts[0] == "g" and len(parts) == 3:
                try:
                    i, j = int(parts[1]), int(parts[2])
                except ValueError:
                    raise SceneError(f"bad metric entry key {key!r}", lineno) from None
                entries[(i, j)] = (_parse_expr(value, dim, lineno), lineno)
            elif key == "metric":
                if value != "euclidean":
                    raise SceneError(f"unknown metric shorthand {value!r}", lineno)
                shorthand = "euclidean"
            elif parts[0] == "J" and len(parts) == 3:
                try:
                    i, j = int(parts[1]), int(parts[2])
                except ValueError:
                    raise SceneError(f"bad J entry key {key!r}", lineno) from None
                j_entries[(i, j)] = (_parse_expr(value, dim, lineno), lineno)
            elif key == "J":
                if value not in ("canonical", "none"):
                    raise SceneError(f"unknown J shorthand {value!r}", lineno)
                j_shorthand = value
            elif key == "dim":
                pass
            else:
                raise SceneError(f"unknown key {key!r} in [{section}]", lineno)

        if shorthand == "euclidean":
            if entries:
                raise SceneError(f"[{section}] mixes 'metric = euclidean' with explicit entries")
            metric = euclidean_metric(dim)
        elif entries:
            metric = _grid_from_entries(dim, entries)
        else:
            raise SceneError(f"[{section}] needs a metric ('metric = euclidean' or 'g i j =' entries)")

        J = None
        if allow_j:
            if j_shorthand == "canonical":
                if dim % 2 != 0:
                    raise SceneError(f"canonical J needs even dimension, [{section}] has {dim}")
                J = canonical_complex_structure(dim)
            elif j_entries:
                jgrid = [[Const(0.0)] * dim for _ in range(dim)]
                for (i, j), (expr, lineno) in j_entries.items():
                    if not (1 <= i <= dim and 1 <= j <= dim):
                        raise SceneError(f"J entry ({i},{j}) out of range", lineno)
                    jgrid[i - 1][j - 1] = expr
                J = tuple(tuple(row) for row in jgrid)
        elif j_entries or j_shorthand not in (None, "none"):
            raise SceneError(f"[{section}] does not admit a complex structure")
        return dim, metric, J

    src_dim, src_metric, src_j = build_manifold("source", allow_j=True)
    tgt_dim, tgt_metric, _ = build_manifold("target", allow_j=False)

    # map components
    comp_entries = {}
    for lineno, line in sections.get("map", []):
        key, _, value = line.partition("=")
        parts = key.strip().split()
        if len(parts) != 2 or parts[0] != "F":
            raise SceneError(f"map entries look like 'F <i> = <expr>', got {key.strip()!r}", lineno)
        try:
            idx = int(parts[1])
        except ValueError:
            raise SceneError(f"bad component index {parts[1]!r}", lineno) from None
        if not 1 <= idx <= tgt_dim:
            raise SceneError(f"component index {idx} out of range for target dim {tgt_dim}", lineno)
        if idx in comp_entries:
            raise SceneError(f"duplicate component F {idx}", lineno)
        comp_entries[idx] = _parse_expr(value.strip(), src_dim, lineno)
    if len(comp_entries) != tgt_dim:
        raise SceneError(f"[map] needs {tgt_dim} components, got {len(comp_entries)}")
    components = tuple(comp_entries[i] for i in range(1, tgt_dim + 1))

    # sampling
    d = kv("sampling")
    raw_box, ln = single(d, "box", "sampling")
    box = _parse_box(raw_box, src_dim, ln)
    raw_count, ln = single(d, "count", "sampling", required=False, default="24")
    raw_seed, ln2 = single(d, "seed", "sampling", required=False, default="7")
    try:
        count, seed = int(raw_count), int(raw_seed)
    except ValueError:
        raise SceneError("count and seed must be integers", max(ln, ln2)) from None
    if count < 1 or seed < 0:
        raise SceneError("count must be positive and seed non-negative", max(ln, ln2))
    excluded = tuple(
        _parse_exclusion(value, src_dim, lineno)
        for value, lineno in d.get("exclude", [])
    )

    tol = DEFAULT_TOLERANCES
    for value, lineno in kv("tolerances").get("theorem", []):
        try:
            tol = tol.with_theorem(float(value))
        except ValueError:
            raise SceneError(
                f"bad tolerance {value!r}: must be a finite number > 0", lineno
            ) from None

    # a machinery-only scene ignores a declared J everywhere: drop it here, once
    source = ChartedManifold(src_dim, src_metric, None if machinery else src_j, box, excluded)
    target = ChartedManifold(tgt_dim, tgt_metric, None, None, ())
    try:
        fmap = SmoothMap(source, target, components)
    except ValueError as err:
        raise SceneError(str(err)) from None
    kahler_expected = src_j is not None and not machinery
    for value, lineno in top.get("kahler_expected", []):
        kahler_expected = _parse_bool(value, lineno)
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
    except OSError as err:
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


def sample_points(scene: Scene, count: int | None = None, seed: int | None = None) -> list[np.ndarray]:
    """Scrambled Halton points in the box, away from excluded loci."""
    count = scene.count if count is None else int(count)
    seed = scene.seed if seed is None else int(seed)
    if count < 1:
        raise SceneError("sample count must be positive")
    if seed < 0:
        raise SceneError("sample seed must be non-negative")
    src = scene.source
    if src.box is None:
        raise SceneError(f"scene {scene.name!r} has no sampling box")
    lo = np.array([b[0] for b in src.box])
    hi = np.array([b[1] for b in src.box])
    sampler = qmc.Halton(d=src.dim, scramble=True, seed=seed)
    margin = scene.tolerances.exclusion_distance
    points: list[np.ndarray] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200:
            raise SceneError(
                f"sampling exhausted for scene {scene.name!r}: excluded loci reject too many points"
            )
        batch = sampler.random(max(count, 16))
        for row in lo + batch * (hi - lo):
            if all(loc.distance(row) >= margin for loc in src.excluded):
                points.append(np.array(row, dtype=float))
                if len(points) == count:
                    break
    return points
