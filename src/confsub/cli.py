"""Command line interface: `confsub check <scene-or-preset> [...]`."""

from __future__ import annotations

import argparse
import sys

from .errors import EngineError, SceneError
from .report import render_table, to_canonical
from .runner import EXIT_SCENE, EXIT_STRUCTURAL, run
from .scenes import preset_names, resolve_scene

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confsub",
        description="Verify conformal semi-invariant submersion scenes at sampled points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the verification suite on a scene")
    check.add_argument("scene", nargs="?", help="preset name or scene file path")
    check.add_argument("--only", help="comma-separated checker names")
    check.add_argument("--points", type=int, help="override sample count")
    check.add_argument("--seed", type=int, help="override sample seed")
    check.add_argument("--tol", type=float, help="override theorem tolerance")
    check.add_argument(
        "--format", choices=("table", "canonical"), default="table", help="report format"
    )
    check.add_argument(
        "--structure-only", action="store_true", help="skip checkers, report structure only"
    )
    check.add_argument(
        "--hypothesis-ok",
        action="store_true",
        help="exit 0 when the only anomalies are unmet hypotheses",
    )
    check.add_argument("--list-presets", action="store_true", help="list builtin presets")
    return parser


# parse_args leaves the parser as it was, so one parser serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command != "check":  # pragma: no cover - argparse enforces this
        return 2

    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    if args.scene is None:
        print("error: a scene (preset name or file path) is required", file=sys.stderr)
        return EXIT_SCENE

    try:
        scene = resolve_scene(args.scene)
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return EXIT_SCENE

    tol = scene.tolerances
    try:
        if args.tol is not None:
            tol = tol.with_theorem(args.tol)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCENE
    only = None if args.only is None else [s.strip() for s in args.only.split(",") if s.strip()]

    try:
        report = run(
            scene,
            points=args.points,
            seed=args.seed,
            tol=tol,
            only=only,
            structure_only=args.structure_only,
            hypothesis_ok=args.hypothesis_ok,
        )
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return EXIT_SCENE
    except EngineError as err:
        print(f"structural failure: {err}", file=sys.stderr)
        return EXIT_STRUCTURAL

    if args.format == "canonical":
        sys.stdout.write(to_canonical(report))
    else:
        sys.stdout.write(render_table(report))
        for k, r in report.disagreements():
            print(
                f"disagreement: {r.name} at {report.structure[k].point}: "
                f"ra={r.residual_a:.3e} ({r.verdict_a}) vs rb={r.residual_b:.3e} ({r.verdict_b})",
                file=sys.stderr,
            )
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
