"""`jets.Zero`, the structural zero: its contract against numpy, where it replaces arithmetic, and the
numeric path it replaces.

A `Zero` stands for the array of zeros of its shape.  Each operation the
tables apply to one must give numpy's shape, a sum with one must be the other
term, and numpy must never compute with one.  On an affine map between
constant metrics with a constant J (a "still" group) every table is a `Zero`;
with the two sources of `Zero`s turned back into arrays of zeros (the
derivative of `ArrayJet.constant` and the connection of a constant metric),
no jet is constant, every number is computed, and every canonical report must
stay the same byte for byte.
"""

import numpy as np
import pytest

from confsub import geometry, submersion
from confsub.jets import ArrayJet, Zero
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import sample_points
from confsub.theorems import _upper_index

from .conftest import ALL_SCENE_NAMES, SCENES_WITH_GENERIC, fresh_scene
from .fdtools import FRAMES

_R = np.random.default_rng(5)
M = {shape: _R.normal(size=shape) for shape in [(2, 4, 5), (4, 5), (2, 5, 3), (5, 3), (6, 4, 2), (3,), (4,),
                                                (3, 1), (2, 3, 4)]}

# (zero's shape, operation on the zero operand z); every result is a `Zero` of numpy's shape
OPERATIONS = {
    "z @ stack": ((2, 3, 4), lambda z: z @ M[2, 4, 5]),
    "z @ matrix": ((2, 3, 4), lambda z: z @ M[4, 5]),
    "stack @ z": ((2, 3, 4), lambda z: M[2, 5, 3] @ z),
    "matrix @ z": ((2, 3, 4), lambda z: M[5, 3] @ z),
    "z @ z": ((2, 3, 4), lambda z: z @ z.swapaxes(1, 2)),
    "batch broadcast": ((1, 3, 4), lambda z: z @ M[6, 4, 2]),
    "vector @ z": ((2, 3, 4), lambda z: M[3,] @ z),
    "z @ vector": ((2, 3, 4), lambda z: z @ M[4,]),
    "z * scalar": ((2, 3, 4), lambda z: z * 2.0),
    "scalar * z": ((2, 3, 4), lambda z: np.float64(-3.0) * z),
    "z * array": ((2, 1, 4), lambda z: z * M[3, 1]),
    "array * z": ((2, 1, 4), lambda z: M[3, 1] * z),
    "z / array": ((2, 3, 4), lambda z: z / M[4,]),
    "z / scalar": ((2, 3, 4), lambda z: z / 2.0),
    "-z": ((2, 3, 4), lambda z: -z),
    "z + z": ((2, 3, 4), lambda z: z + z[:1]),
    "z - z": ((2, 3, 4), lambda z: z - z),
    "z[:, None]": ((2, 3, 4), lambda z: z[:, None]),
    "z[..., slice]": ((2, 3, 4), lambda z: z[..., 1:3]),
    "z[int]": ((2, 3, 4), lambda z: z[0]),
    "z[:, int]": ((2, 3, 4), lambda z: z[:, 1]),
    "z[:, None, None, :, int]": ((2, 3, 4), lambda z: z[:, None, None, :, 0]),
    "z[[k]]": ((2, 3, 4), lambda z: z[[1]]),
    "_upper": ((2, 3, 3), lambda z: z[_upper_index(3, True)]),
    "_upper, not strict": ((2, 4, 4, 5), lambda z: z[_upper_index(4, False)]),
    "reshape -1": ((2, 3, 4), lambda z: z.reshape(2, -1, 2)),
    "reshape (len, -1)": ((2, 3, 4), lambda z: z.reshape(len(z), -1)),
    "transpose": ((2, 3, 4, 5), lambda z: z.transpose(0, 2, 3, 1)),
    "transpose ()": ((2, 3, 4), lambda z: z.transpose()),
    "swapaxes": ((2, 3, 4), lambda z: z.swapaxes(1, 2)),
    "swapaxes -1 -2": ((2, 3, 4, 5), lambda z: z.swapaxes(-1, -2)),
    "trace": ((2, 3, 3, 4), lambda z: z.trace(axis1=1, axis2=2)),
    "trace, last axes": ((2, 4, 3, 3), lambda z: z.trace(axis1=-2, axis2=-1)),
}


@pytest.mark.parametrize("op", OPERATIONS)
def test_an_operation_on_a_zero_is_a_zero_of_numpys_shape(op):
    shape, f = OPERATIONS[op]
    got, want = f(Zero(shape)), f(np.zeros(shape))
    assert type(got) is Zero and got.shape == np.shape(want)
    assert not np.asarray(got).any() and np.asarray(got).shape == np.shape(want)


@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 3, 4)])
def test_a_sum_with_a_zero_is_the_other_term(shape):
    x = M[2, 3, 4].copy()
    x[0, 0, 0] = -0.0  # kept as it is: 0.0 + -0.0 would read +0.0
    z = Zero(shape)
    for got in (x + z, z + x, x - z):
        assert got is x
    assert (z - x).tobytes() == (-x).tobytes()


def test_a_sum_has_numpys_shape_where_the_zero_is_the_larger_operand():
    x = M[3, 1]
    for got in (x + Zero((2, 3, 4)), Zero((2, 3, 4)) + x):
        assert got.shape == (2, 3, 4) and np.array_equal(got, np.broadcast_to(x, (2, 3, 4)))
    assert (Zero((2, 3)) + 1.0).tolist() == [[1.0] * 3] * 2


def test_a_zero_builds_its_zeros_only_for_np_asarray():
    z = Zero((2, 3))
    assert np.asarray(z).tobytes() == np.zeros((2, 3)).tobytes() and len(z) == 2
    with pytest.raises(TypeError):  # numpy defers to it, so no ufunc computes with it
        np.abs(z)
    with pytest.raises(TypeError):
        np.maximum(z, 0.0)
    with pytest.raises(TypeError):  # 0 / 0 has no structural value
        1.0 / z


@pytest.mark.parametrize("f", [lambda: Zero((2, 3)) @ M[5, 3], lambda: Zero((2, 3)) * M[2, 3, 4],
                               lambda: M[3,] @ Zero((2, 4))], ids=["matmul", "broadcast", "vector"])
def test_a_zero_rejects_the_shapes_numpy_rejects(f):
    with pytest.raises(ValueError):
        f()


# ---------------------------------------------------------------------------
# Where the frame pass and the tables hand on a Zero

STILL_SCENES = ("linproj42", "linproj63", "anti-toy")


def _checked_groups(monkeypatch, name, count=4):
    """The groups of a full check of the scene (`runner.run`), after the check."""
    groups, frame_pass = [], submersion.SmoothMap.frame_pass

    def recorded(self, points):
        entries, out = frame_pass(self, points)
        groups.extend(g for _, g in out)
        return entries, out

    monkeypatch.setattr(submersion.SmoothMap, "frame_pass", recorded)
    report = run(fresh_scene(name), points=count, seed=1)
    assert report.exit_code == 0 and report.reports and groups
    return groups


@pytest.mark.parametrize("name", STILL_SCENES)
def test_a_still_group_hands_every_table_a_zero(monkeypatch, name):
    for g in _checked_groups(monkeypatch, name):
        assert all(type(g.nabla(frame)) is Zero for frame in FRAMES)
        assert all(type(x) is Zero for x in (g.gamma_src, g.sff, g.t, g.a))
        assert all(type(x) is Zero for x in (g.adapted.omega, g.adapted.dJ, g.adapted.S))
        assert "pushed_mu_basis" not in g._memo  # no Gram-Schmidt basis for a zero


@pytest.mark.parametrize("count", (4, 64))
@pytest.mark.parametrize("name", SCENES_WITH_GENERIC)
def test_no_numpy_function_receives_a_zero(monkeypatch, name, count):
    built = []
    monkeypatch.setattr(Zero, "__array__", lambda self, *a, **k: built.append(self.shape) or np.zeros(self.shape))
    run(fresh_scene(name), points=count, seed=1)
    assert built == []  # no Zero became an array of zeros


def test_a_varying_differential_keeps_its_derivatives(monkeypatch):
    for g in _checked_groups(monkeypatch, "example33"):  # constant metrics and J, a map that is not affine
        assert type(g.gamma_src) is Zero and type(g.nabla("vertical")) is np.ndarray
        assert type(g.sff) is np.ndarray


# ---------------------------------------------------------------------------
# The numeric path: arrays of zeros in place of Zeros


@pytest.fixture
def numeric_zeros(monkeypatch):
    """Constant jets hold an array of zeros as their derivative, and a constant metric's connection is one.

    Such a jet is not `const`: every product rule computes all its terms, and Gram-Schmidt builds every
    derivative, so the pass runs with no activity analysis at all.
    """
    constant, levi_civita = ArrayJet.constant.__func__, geometry._levi_civita

    def numeric_constant(cls, v, dim):
        jet = constant(cls, v, dim)
        return cls(jet.v, np.asarray(jet.d))

    def numeric_levi_civita(g, inv=None):
        return np.asarray(levi_civita(g, inv))

    monkeypatch.setattr(ArrayJet, "constant", classmethod(numeric_constant))
    for module in (geometry, submersion):
        monkeypatch.setattr(module, "_levi_civita", numeric_levi_civita)


def test_the_numeric_path_holds_no_zero(numeric_zeros):
    sc = fresh_scene("linproj63")
    _, ((_, g),) = sc.fmap.frame_pass(sample_points(sc, count=4, seed=1))
    jets = [x for x in vars(g).values() if isinstance(x, ArrayJet)]
    assert len(jets) > 10 and not any(x.const for x in jets)
    assert all(type(x) is np.ndarray for x in (g.G.d, g.DF.d, g.vertical.d, g.gamma_src, g.sff, g.t))


@pytest.mark.parametrize("count", (None, 4, 64), ids=("own", "4", "64"))
@pytest.mark.parametrize("name", ALL_SCENE_NAMES)
def test_zeros_give_the_reports_of_the_numeric_path(request, name, count):
    want = to_canonical(run(fresh_scene(name), points=count, seed=1))
    request.getfixturevalue("numeric_zeros")
    assert to_canonical(run(fresh_scene(name), points=count, seed=1)) == want
