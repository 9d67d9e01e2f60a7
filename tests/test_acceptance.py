"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import math
import os
import subprocess
import sys
import time

import numpy as np

from confsub.expr import ExprParseError, parse, to_string
from confsub.runner import run
from confsub.scenes import load_preset, preset_names, sample_points
from confsub.submersion import row_norms
from confsub.theorems import CHECKERS, check_sff_identities

from .conftest import REPO, SRC, entries, entry, points, reports_at, scene
from .corpus import MALFORMED
from .fdtools import FrameField, christoffel_symbols, fd_christoffel, fd_sff, metric_jet, on_pairs
from .test_expr import random_expr
from .test_submersion import coordinate_sff


def _verdict(n, ok, desc):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_example_reproduction():
    sc = load_preset("example33")  # fresh map: no cached groups
    start = time.perf_counter()
    pts = sample_points(sc, count=200, seed=7)
    worst_lam = worst_inv = 0.0
    dims_ok = True
    for p in pts:
        g, k = entry(sc.fmap, p)
        worst_lam = max(worst_lam, abs(g.lam[k] - math.exp(p[2])) / math.exp(p[2]))
        dims_ok = dims_ok and g.dims == (2, 2, 2, 0)
        for w in g.d2.v[k]:
            worst_inv = max(worst_inv, float(row_norms(g.PV.v[k] @ (g.J.v[k] @ w), g.G.v[k])))
    elapsed = time.perf_counter() - start
    ok = worst_lam < 1e-9 and dims_ok and worst_inv < 1e-9 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"dilation rel err {worst_lam:.2e} (<1e-9), dims (2,2,2,0) at 200 pts: {dims_ok}, "
        f"J(d2) horizontality {worst_inv:.2e} (<1e-9), runtime {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_soundness_harness():
    total = bad = 0
    for name in ("example33", "linproj42", "holo4"):
        rep = run(scene(name))
        for reports in rep.reports.values():
            for r in reports:
                total += 1
                if not (r.agree or r.vacuous):
                    bad += 1
    _verdict(
        2,
        bad == 0 and total > 0,
        f"verdict agreement (agree or vacuous) on {total}/{total + bad} checker reports "
        f"across example33, linproj42, holo4 at tol 1e-6",
    )


def test_criterion_3_conformal_sff_identities():
    worst = 0.0
    for name in ("example33", "linproj42", "linproj63", "holo4", "exp1"):
        for p in points(name, count=6):
            e = entry(scene(name).fmap, np.asarray(p))
            worst = max(worst, *(r.residual_a for r in reports_at(check_sff_identities, e, scene(name).tolerances)))
    F = scene("exp1").fmap
    e1 = np.array([1.0, 0.0])
    g, k = entry(F, np.zeros(2))
    hand = on_pairs(g.sff[k], e1, e1)
    hand_ok = abs(hand[0] - 1.0) < 1e-9
    _verdict(
        3,
        worst < 1e-7 and hand_ok,
        f"identity residuals {worst:.2e} (<1e-7) on all conformal presets; "
        f"hand value at the exponential origin {hand[0]:.12f} (=1 within 1e-9)",
    )


def test_criterion_4_tension_formula():
    worst_gap = 0.0
    for name in ("example33", "holo4"):
        for e in entries(name, count=8):
            (r,) = reports_at(CHECKERS["tension_formula"].func, e, scene(name).tolerances)
            worst_gap = max(worst_gap, r.residual_a)
    worst_both = 0.0
    for e in entries("example33", count=8):
        (h,) = reports_at(CHECKERS["harmonicity"].func, e, scene("example33").tolerances)
        worst_both = max(worst_both, h.residual_a, h.residual_b)
    ok = worst_gap < 1e-7 and worst_both < 1e-7
    _verdict(
        4,
        ok,
        f"tension formula gap {worst_gap:.2e} (<1e-7) on example33/holo4; both sides "
        f"{worst_both:.2e} (<1e-7) on example33, witnessing harmonic iff minimal fibers",
    )


def test_criterion_5_tensor_properties(rng):
    worst = 0.0
    per_preset = 500
    for name in preset_names():
        pairs = list(zip(points(name, count=5), entries(name, count=5)))
        dim = scene(name).fmap.source.dim
        for n in range(per_preset):
            p, (g, k) = pairs[n % len(pairs)]
            E, W, Z = rng.normal(size=(3, dim))
            G, T, A, S = g.G.v[k], g.t[k], g.a[k], g.sff[k]
            V = g.PV.v[k] @ E
            X = g.PH.v[k] @ E
            worst = max(
                worst,
                abs(float(on_pairs(T, V, W) @ G @ Z + W @ G @ on_pairs(T, V, Z))),
                abs(float(on_pairs(A, X, W) @ G @ Z + W @ G @ on_pairs(A, X, Z))),
            )
            s1 = on_pairs(S, W, Z)
            s2 = on_pairs(S, Z, W)
            worst = max(worst, float(np.max(np.abs(s1 - s2))))
            coord = coordinate_sff(scene(name).fmap, np.array(p), W, Z)
            worst = max(worst, float(np.max(np.abs(s1 - coord))))
    _verdict(
        5,
        worst < 1e-8,
        f"T/A skew-symmetry, sff symmetry and tensoriality residuals {worst:.2e} (<1e-8) "
        f"over {per_preset} randomized inputs per preset",
    )


def test_criterion_6_d2_unconditional_integrability():
    worst = 0.0
    sampled = 0
    for name in ("example33", "linproj63"):  # Kaehler presets with nonzero d2
        for e in entries(name, count=12):
            (r,) = reports_at(CHECKERS["d2_integrability"].func, e, scene(name).tolerances)
            if not r.vacuous:
                sampled += 1
                worst = max(worst, r.residual_a)
    _verdict(
        6,
        worst < 1e-8 and sampled > 0,
        f"anti-invariant bracket residual {worst:.2e} (<1e-8) at {sampled} sampled points",
    )


def test_criterion_7_derivatives_vs_finite_differences(rng):
    names = preset_names()
    worst_gamma = worst_sff = 0.0
    for k in range(100):
        name = names[k % len(names)]
        sc = scene(name)
        p = np.asarray(points(name, count=10)[k % 10])
        got = christoffel_symbols(metric_jet(sc.source, p), p)
        want = fd_christoffel(sc.source, p)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(got - want))) / scale)
        if k % 5 == 0:
            X = FrameField(sc.fmap, "horizontal", 0)
            V = FrameField(sc.fmap, "vertical", 0)
            g, j = entry(sc.fmap, p)
            S = g.sff[j]
            for pair in ((X, V), (X, X)):
                a = on_pairs(S, pair[0].values_at(p), pair[1].values_at(p))
                b = fd_sff(sc.fmap, p, pair[0], pair[1])
                sscale = max(1.0, float(np.max(np.abs(b))))
                worst_sff = max(worst_sff, float(np.max(np.abs(a - b))) / sscale)
    ok = worst_gamma < 1e-5 and worst_sff < 1e-4
    _verdict(
        7,
        ok,
        f"Christoffel autodiff vs finite differences {worst_gamma:.2e} (<1e-5); "
        f"sff components {worst_sff:.2e} (<1e-4) over 100 preset/point pairs",
    )


def test_criterion_8_parser_corpus_and_roundtrip():
    rejected = 0
    for text, dim, pos in MALFORMED:
        try:
            parse(text, dim)
        except ExprParseError as err:
            if (err.line, err.col) == pos:
                rejected += 1
    rng = np.random.default_rng(99)
    trips = 0
    for _ in range(200):
        e = random_expr(rng, 5, 5)
        if parse(to_string(e), 5) == e:
            trips += 1
    ok = rejected == len(MALFORMED) == 30 and trips == 200
    _verdict(
        8,
        ok,
        f"{rejected}/30 malformed inputs rejected with position info; "
        f"{trips}/200 generated expressions survive print-parse round trip",
    )


def test_criterion_9_determinism_and_runtime():
    cmd = [sys.executable, "-m", "confsub", "check", "example33", "--seed", "7",
           "--format", "canonical"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r1 = subprocess.run(cmd, capture_output=True, cwd=REPO, env=env)
    r2 = subprocess.run(cmd, capture_output=True, cwd=REPO, env=env)
    identical = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0

    start = time.perf_counter()
    codes = []
    for name in preset_names():
        codes.append(run(load_preset(name)).exit_code)
    elapsed = time.perf_counter() - start
    ok = identical and all(c == 0 for c in codes) and elapsed < 60.0
    _verdict(
        9,
        ok,
        f"byte-identical canonical reports for repeated seeded runs: {identical}; "
        f"full default suite over {len(codes)} presets in {elapsed:.1f}s (<60s), all exit 0",
    )
