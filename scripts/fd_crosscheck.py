#!/usr/bin/env python3
"""Jet derivatives against central finite differences across the presets.

Prints the worst relative deviation per preset for the connection
coefficients and for second-fundamental-form components, then per preset and
bench scene the worst relative deviation of the frame pass's derivative parts
(frame families, projectors, square dilation, source connection).  The same
comparisons run (with assertions) in the test suite; this script is for
eyeballing the margins.  Run it from the repository root with `src` on
PYTHONPATH.
"""

import sys

sys.path.insert(0, ".")

import numpy as np

from confsub.geometry import christoffel_symbols, metric_jet
from confsub.scenes import load_preset, preset_names, sample_points
from confsub.submersion import on_pairs

from tests.conftest import ALL_SCENE_NAMES, fresh_scene  # noqa: E402
from tests.fdtools import (  # noqa: E402
    PASS_FIELDS, FrameField, fd_christoffel, fd_sff, pass_derivative_margins,
)


def main() -> int:
    print(f"{'preset':<12} {'christoffel':>14} {'sff':>14}")
    for name in preset_names():
        sc = load_preset(name)
        worst_g = worst_s = 0.0
        for p in sample_points(sc, count=5, seed=11):
            got = christoffel_symbols(metric_jet(sc.source, p), p)
            want = fd_christoffel(sc.source, p)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst_g = max(worst_g, float(np.max(np.abs(got - want))) / scale)
            X = FrameField(sc.fmap, "horizontal", 0)
            V = FrameField(sc.fmap, "vertical", 0)
            S = sc.fmap.context(p).tensors.sff
            for pair in ((X, X), (X, V)):
                a = on_pairs(S, *(F.values_at(p) for F in pair))
                b = fd_sff(sc.fmap, p, *pair)
                s = max(1.0, float(np.max(np.abs(b))))
                worst_s = max(worst_s, float(np.max(np.abs(a - b))) / s)
        print(f"{name:<12} {worst_g:>14.3e} {worst_s:>14.3e}")

    columns = PASS_FIELDS + ("gamma_src",)
    print()
    print("frame-pass derivatives (worst relative gap over 3 points; - where the scene has none)")
    print(f"{'scene':<18}" + "".join(f"{c:>11}" for c in columns))
    for name in ALL_SCENE_NAMES:
        sc = fresh_scene(name)
        worst: dict[str, float] = {}
        for p in sample_points(sc, count=3, seed=5):
            for k, v in pass_derivative_margins(sc.fmap, p, sc.tolerances).items():
                worst[k] = max(worst.get(k, 0.0), v)
        cells = "".join(f"{worst[c]:>11.1e}" if c in worst else f"{'-':>11}" for c in columns)
        print(f"{name:<18}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
