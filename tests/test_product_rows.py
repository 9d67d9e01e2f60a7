"""The product rows: each is the pointwise conjunction of two totally-geodesic rows.

`product_total_space` joins the horizontal and vertical rows, and, with J,
`product_fibers` joins the d1 and d2 rows.  Each side of a product row is the
`np.maximum` of its parts' sides, so a part that is not finite makes the
product row not finite, and the run a scene error.
"""

import numpy as np
import pytest

from confsub import theorems
from confsub.errors import SceneError
from confsub.runner import run
from confsub.scenes import load_preset

from .conftest import SCENES_WITH_GENERIC, fresh_scene

PARTS = {"product_total_space": ("horizontal_totally_geodesic", "vertical_totally_geodesic"),
         "product_fibers": ("d1_totally_geodesic", "d2_totally_geodesic")}


@pytest.mark.parametrize("name", SCENES_WITH_GENERIC)
def test_a_product_row_is_the_maximum_of_its_parts(name):
    rep = run(fresh_scene(name), points=8, seed=1)
    with_j = not rep.machinery_only
    assert ("product_fibers" in rep.reports) == with_j
    for product, (first, second) in PARTS.items():
        if product not in rep.reports:
            continue
        for k, (r, p, q) in enumerate(zip(rep.reports[product], rep.reports[first], rep.reports[second],
                                          strict=True)):
            # by repr, so a signed zero counts
            assert repr(r.residual_a) == repr(float(np.maximum(p.residual_a, q.residual_a))), (product, k)
            if p.residual_b is not None:  # None without J, and where the Kaehler test withholds side b
                assert repr(r.residual_b) == repr(float(np.maximum(p.residual_b, q.residual_b))), (product, k)
            else:
                assert r.residual_b is None, (product, k)
            assert r.vacuous == (p.vacuous and q.vacuous), (product, k)
            if rep.kahler_verified is False:
                assert r.label == p.label == q.label, (product, k)  # the runner's withheld-side label
            else:
                assert r.label == f"conjunction: {first}, {second}", (product, k)


def test_a_nan_part_fails_the_product_row(monkeypatch):
    # Python's max keeps its first argument against a later NaN: the product row read ra=0.0 and held
    geodesic = theorems._geodesic_residual

    def nan_on_vertical(g, name, *against):
        out = geodesic(g, name, *against)
        return np.full_like(out, np.nan) if name == "vertical" else out

    monkeypatch.setattr(theorems, "_geodesic_residual", nan_on_vertical)
    with pytest.raises(SceneError, match="numerical overflow in product_total_space"):
        run(load_preset("example33"), points=4, seed=1, only=["product_structures"])
