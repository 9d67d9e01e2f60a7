#!/usr/bin/env python3
"""Jet derivatives against central finite differences across the presets.

Prints the worst relative deviation per preset for the connection
coefficients and for second-fundamental-form components, then per preset and
bench scene the worst relative deviation of the frame pass's derivative parts
(frames, projectors, square dilation, source connection), and last, per
scene with a complex structure, that of the adapted-frame tables side b reads
(omega, dJ and the pullback table).  Each scene's
sample points run as one frame-pass batch, and each point is read at its
`(group, k)`.  The same comparisons run (with assertions) in the test suite;
this script is for eyeballing the margins.  Run it with `src` on PYTHONPATH,
from any directory.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root, for `tests`

import numpy as np  # noqa: E402

from confsub.scenes import load_preset, preset_names, sample_points  # noqa: E402

from tests.conftest import SCENES_WITH_GENERIC, fresh_scene  # noqa: E402
from tests.fdtools import (  # noqa: E402
    ADAPTED, PASS_FIELDS, FrameField, fd_christoffel, fd_sff, on_pairs, pass_derivative_margins,
    table_margins,
)


def main() -> int:
    print(f"{'preset':<12} {'christoffel':>14} {'sff':>14}")
    for name in preset_names():
        sc = load_preset(name)
        worst_g = worst_s = 0.0
        points = sample_points(sc, count=5, seed=11)
        entries, _ = sc.fmap.frame_pass(points)
        X = FrameField(sc.fmap, "horizontal", 0)
        V = FrameField(sc.fmap, "vertical", 0)
        for p, (g, k) in zip(points, entries):
            want = fd_christoffel(sc.source, p)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst_g = max(worst_g, float(np.max(np.abs(g.gamma_src[k] - want))) / scale)
            for pair in ((X, X), (X, V)):
                a = on_pairs(g.sff[k], *(F.values_at(p) for F in pair))
                b = fd_sff(sc.fmap, p, *pair)
                s = max(1.0, float(np.max(np.abs(b))))
                worst_s = max(worst_s, float(np.max(np.abs(a - b))) / s)
        print(f"{name:<12} {worst_g:>14.3e} {worst_s:>14.3e}")

    for title, margins, columns in (
        ("frame-pass derivatives", pass_derivative_margins, PASS_FIELDS + ("gamma_src",)),
        ("adapted-frame tables", table_margins, ADAPTED),
    ):
        print()
        print(f"{title} (worst relative gap over 3 points; - where the scene has none)")
        print(f"{'scene':<18}" + "".join(f"{c:>11}" for c in columns))
        for name in SCENES_WITH_GENERIC:
            sc = fresh_scene(name)
            worst: dict[str, float] = {}
            points = sample_points(sc, count=3, seed=5)
            entries, _ = sc.fmap.frame_pass(points)
            for p, (g, k) in zip(points, entries):
                for key, v in margins(sc.fmap, p, g, k).items():
                    worst[key] = max(worst.get(key, 0.0), v)
            cells = "".join(f"{worst[c]:>11.1e}" if c in worst else f"{'-':>11}" for c in columns)
            print(f"{name:<18}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
