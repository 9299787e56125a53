"""Command-line front-end: loss-table, gradcheck, experiment, tile, fuse, eval.

Each subcommand parses its inputs and calls the library's one entry
point per operation (``fuse`` calls ``invert_tta`` per input, then ``fuse``).
Only the standard library is imported at module level; each subcommand
imports the modules it calls when it runs, so ``--help`` loads no numpy
and the training and detection halves never load each other.

Exit codes: 0 success, 1 check or experiment failure, 2 usage or config
errors (including missing or unparsable input files, and outputs that
cannot be written: one line naming the path, no partial file).  All primary
outputs (CSV, JSON, JSONL) are byte-identical across reruns with the
same inputs, and no report carries wall-clock time; the environment
variable ``RFL_LAB_SEED`` supplies the seed list when neither the config
nor ``--seeds`` provides one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, round_floats

# ensemble.ScoreMode's values, spelled here so that the parser does not
# load the detection modules for every subcommand.
SCORE_MODES = ("mean", "max", "weighted_mean")


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _json_dump(obj, fh) -> None:
    json.dump(round_floats(obj), fh, sort_keys=True, indent=2)
    fh.write("\n")


def _parse_scene(text: str):
    from . import geometry

    try:
        w, h = text.lower().split("x")
        return geometry.SceneDims(float(w), float(h))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"scene must look like 1000x1000 with finite positive sides, got {text!r}"
        ) from exc


# ---------------------------------------------------------------------------
# loss-table
# ---------------------------------------------------------------------------


def cmd_loss_table(args) -> int:
    import numpy as np

    from . import losses

    params_ce = losses.LossParams(kind=losses.LossKind.CE)
    params_fl = losses.LossParams(kind=losses.LossKind.FL, gamma=args.gamma)
    params_rfl = losses.LossParams(kind=losses.LossKind.RFL, gamma=args.gamma,
                                   threshold=args.th)
    grid = np.linspace(args.pt_min, args.pt_max, args.steps)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["pt", "ce", "fl", "rfl", "cutoff_factor"])
    for pt in grid:
        pt = float(pt)
        writer.writerow([
            _fmt(pt),
            _fmt(losses.loss_at(pt, params_ce)[0]),
            _fmt(losses.loss_at(pt, params_fl)[0]),
            _fmt(losses.loss_at(pt, params_rfl)[0]),
            _fmt(losses.cutoff_factor(pt, params_rfl)),
        ])
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    from . import losses

    tolerances = {"scalar": 1e-6, "binary": 1e-5, "softmax": 1e-5}
    worst, sections = losses.run_gradcheck(args.skip_kink_band, negate=args.negate_grad)
    failed = False
    for section in ("scalar", "binary", "softmax"):
        err = sections.get(section, 0.0)
        ok = err < tolerances[section]
        failed |= not ok
        print(f"{section:8s} max rel err {err:.3e}  "
              f"(tolerance {tolerances[section]:.0e})  "
              f"{'ok' if ok else 'FAIL'}")
    if failed:
        note = ""
        if worst["at_kink"]:
            note = " (at the pt = th kink; the loss is not differentiable there)"
        print(f"worst offender: {worst['where']} "
              f"rel_err={worst['rel_err']:.3e}{note}", file=sys.stderr)
        print("gradcheck: FAIL", file=sys.stderr)
        return 1
    print("gradcheck: PASS")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _write_plots(report: dict, out_dir: Path) -> None:
    from . import svg

    out_dir.mkdir(parents=True, exist_ok=True)
    arms = report["arms"]
    kind = report["kind"]
    recall_key = (
        "per_class_recall" if kind == "classifier" else "per_class_proposal_recall"
    )
    classes = sorted(
        {c for arm in arms.values() for c in arm["mean"][recall_key]},
        key=int,
    )
    series = {
        name: [arm["mean"][recall_key].get(c, 0.0) for c in classes]
        for name, arm in arms.items()
    }
    bars = svg.grouped_bar_chart(
        "Per-class recall by arm", [str(c) for c in classes], series
    )
    (out_dir / "recall_bars.svg").write_text(bars)

    curves = {
        name: arm["per_seed"][0]["loss_curve"]
        for name, arm in arms.items()
        if arm["per_seed"][0].get("loss_curve")
    }
    if curves:
        (out_dir / "loss_curves.svg").write_text(
            svg.line_chart("Training loss (first seed)", curves)
        )


def _claim(path: Path, directory: bool = False) -> list[Path]:
    """Make sure an output can be written before the run that makes it:
    open a file for appending (an existing one keeps its bytes) or make a
    directory, so a path that cannot be written fails now, with the error
    that writing it would raise.  Returns what it created, for
    :func:`_remove` should the run fail."""
    new = [p for p in (path, *path.parents) if not p.exists()]
    if directory:
        path.mkdir(parents=True, exist_ok=True)
    else:
        open(path, "a").close()
    return new[::-1]


def _remove(made: list[Path]) -> None:
    """Remove, newest first, the files and empty directories in ``made``."""
    for path in reversed(made):
        try:
            path.rmdir() if path.is_dir() else path.unlink()
        except OSError:
            pass


def cmd_experiment(args) -> int:
    from . import experiment, sampling

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        from . import metrics

        print(f"cannot read config: {metrics.not_utf8(args.config)}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"cannot read config: {args.config} line {exc.lineno}: {exc.msg} "
              f"at column {exc.colno}", file=sys.stderr)
        return 2

    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
                  file=sys.stderr)
            return 2
    if isinstance(config, dict):  # validate_config rejects anything else
        if args.seeds:
            config["seeds"] = seeds
        env_seed = os.environ.get("RFL_LAB_SEED")
        if "seeds" not in config and env_seed:
            try:
                config["seeds"] = [int(env_seed)]
            except ValueError:
                print(f"RFL_LAB_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
                return 2
    made: list[Path] = []  # outputs made before the run, removed if it fails
    try:
        spec = experiment.validate_config(config)
        if args.dump_data and spec.kind != "classifier":
            print("--dump-data only applies to classifier experiments", file=sys.stderr)
            return 2
        made += _claim(Path(args.out))
        if args.plots:
            made += _claim(Path(args.plots), directory=True)
        if args.dump_data:
            made += (dump_made := _claim(Path(args.dump_data), directory=True))
        report = experiment.run_experiment(config)
        made = []
    except experiment.ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except experiment.DatasetError as exc:
        print(f"cannot read dataset: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a valid config whose runs cannot train
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove(made)

    out = Path(args.out)
    with open(out, "w") as fh:
        _json_dump(report, fh)
    print(f"report written to {out}")
    if args.plots:
        _write_plots(round_floats(report), Path(args.plots))
        print(f"plots written to {args.plots}")
    if args.dump_data:
        try:  # one read for every seed
            csv = (experiment.read_csv_dataset(spec.dataset)
                   if isinstance(spec.dataset, str) else None)
        except experiment.DatasetError as exc:
            print(f"cannot read dataset: {exc}", file=sys.stderr)
            _remove(dump_made)
            return 2
        dump_dir = Path(args.dump_data)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for seed in spec.seeds:
            sampling.write_dataset_csv(experiment.training_set(spec, seed, csv),
                                       dump_dir / f"dataset_seed{seed}.csv")
        print(f"datasets written to {dump_dir}")
    return 0


# ---------------------------------------------------------------------------
# tile
# ---------------------------------------------------------------------------


def cmd_tile(args) -> int:
    from . import geometry, metrics

    if not (0.0 < args.min_visibility <= 1.0):  # checked before any input is read or output made
        print(f"--min-visibility must be in (0, 1], got {args.min_visibility}", file=sys.stderr)
        return 2
    tiles = geometry.tile_grid(args.scene, args.tile, args.overlap)
    nx, _ = geometry.tile_axis_counts(args.scene, args.tile, args.overlap)

    boxes = None
    if args.boxes:
        try:
            boxes = metrics.read_detections_jsonl(args.boxes)
        except (OSError, ValueError) as exc:
            print(f"cannot read boxes: {exc}", file=sys.stderr)
            return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scene": {"width": args.scene.width, "height": args.scene.height},
        "tile": args.tile,
        "overlap": args.overlap,
        "tiles": [],
    }
    for i, t in enumerate(tiles):
        ix, iy = i % nx, i // nx
        entry = {
            "ix": ix, "iy": iy,
            "origin_x": t.origin_x, "origin_y": t.origin_y,
            "tile_w": t.tile_w, "tile_h": t.tile_h,
        }
        manifest["tiles"].append(entry)
        if boxes is not None:
            local = geometry.clip_boxes_to_tile(boxes, t, args.min_visibility)
            metrics.write_detections_jsonl(local, out_dir / f"tile_{ix}_{iy}.jsonl")
    with open(out_dir / "manifest.json", "w") as fh:
        _json_dump(manifest, fh)
    print(f"{len(tiles)} tiles -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def cmd_fuse(args) -> int:
    from . import ensemble, geometry, metrics

    n = len(args.inputs)
    sources = args.source or []
    transforms = args.transform or []
    if sources and len(sources) != n:
        print(f"got {len(sources)} --source flags for {n} inputs", file=sys.stderr)
        return 2
    if transforms and len(transforms) != n:
        print(f"got {len(transforms)} --transform flags for {n} inputs",
              file=sys.stderr)
        return 2

    weights = {}
    for item in args.weight or []:
        try:
            tag, value = item.rsplit("=", 1)
            weights[tag] = float(value)
        except ValueError:
            print(f"--weight must look like source=1.5, got {item!r}",
                  file=sys.stderr)
            return 2

    passes = []
    for i, path in enumerate(args.inputs):
        try:
            dets = metrics.read_detections_jsonl(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read inputs: {exc}", file=sys.stderr)
            return 2
        try:
            transform = (geometry.TtaTransform.parse(transforms[i]) if transforms
                         else geometry.TtaTransform())
        except ValueError as exc:
            print(f"bad transform for {path}: {exc}", file=sys.stderr)
            return 2
        # An explicit --source overrides the file's own tags; otherwise the
        # tags pass through untouched (single-file fusion stays a fixpoint).
        passes.append((dets, transform, sources[i] if sources else ""))

    if args.scene is None and any(transform.ops for _, transform, _ in passes):
        print("--scene is required when any --transform is not identity",
              file=sys.stderr)
        return 2
    scene = args.scene or geometry.SceneDims(1.0, 1.0)

    try:
        cfg = ensemble.FusionConfig(
            iou_thresh=args.iou_thresh,
            min_votes=args.min_votes,
            score_mode=ensemble.ScoreMode(args.score_mode),
            source_weights=weights,
        )
    except ValueError as exc:
        print(f"invalid fusion config: {exc}", file=sys.stderr)
        return 2

    pooled = [det for dets, transform, source in passes
              for det in geometry.invert_tta(dets, scene, transform, source)]
    fused = ensemble.fuse(pooled, cfg)
    if args.out:
        metrics.write_detections_jsonl(fused, args.out)
        print(f"{len(fused)} fused detections -> {args.out}")
    else:  # every line is made before any is printed, so a failure prints none
        sys.stdout.writelines(list(metrics.detection_lines(fused)))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    from . import metrics

    try:
        dets = metrics.read_detections_jsonl(args.dets)
        gts = metrics.read_groundtruths_jsonl(args.gts)
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return 2
    try:
        summary = metrics.map_and_mrecall(dets, gts, args.iou_thresh)
    except ValueError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 2
    payload = {
        "map": summary.map,
        "recall": summary.recall,
        "m_recall": summary.m_recall,
        "iou_thresh": args.iou_thresh,
        "per_class": {
            str(cls): {
                "ap": m.ap,
                "recall": m.recall,
                "gt_count": m.gt_count,
                "det_count": m.det_count,
            }
            for cls, m in summary.per_class.items()
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            _json_dump(payload, fh)
        print(f"evaluation written to {args.out}")
    else:
        _json_dump(payload, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfl-lab",
        description="Reduced-focal-loss laboratory: losses, training, "
                    "tiling, fusion, and detection metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss-table", help="CSV of CE/FL/RFL over a pt grid")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--th", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=99)
    p.add_argument("--pt-min", type=float, default=0.01)
    p.add_argument("--pt-max", type=float, default=0.99)
    p.set_defaults(func=cmd_loss_table)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--skip-kink-band", type=float, default=1e-4,
                   help="half-width of the pt band excluded around pt = th")
    p.add_argument("--negate-grad", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("config", help="JSON config path")
    p.add_argument("--out", default="experiment_report.json")
    p.add_argument("--plots", metavar="DIR", help="also emit SVG charts")
    p.add_argument("--seeds", help="comma-separated seed override")
    p.add_argument("--dump-data", metavar="DIR",
                   help="also write each seed's training dataset as CSV")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("tile", help="tile a scene and optionally clip boxes")
    p.add_argument("--scene", type=_parse_scene, required=True, metavar="WxH")
    p.add_argument("--tile", type=float, required=True)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--boxes", help="JSONL boxes to clip per tile")
    p.add_argument("--min-visibility", type=float, default=1e-9)
    p.add_argument("--out-dir", default="tiles")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("fuse", help="fuse detections from multiple passes")
    p.add_argument("inputs", nargs="+", help="JSONL detection files")
    p.add_argument("--source", action="append",
                   help="source tag per input, replacing its records' own tags "
                        "(default: each record keeps its tag)")
    p.add_argument("--transform", action="append",
                   help="TTA transform per input, e.g. rot90+scale:1.2")
    p.add_argument("--scene", type=_parse_scene, metavar="WxH")
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--min-votes", type=int, default=1)
    p.add_argument("--score-mode", default="mean",
                   choices=SCORE_MODES)
    p.add_argument("--weight", action="append", metavar="SOURCE=W")
    p.add_argument("--out", help="output JSONL (default: stdout)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="mAP / recall / mRecall of detections")
    p.add_argument("--dets", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "loss-table":
        if args.gamma < 0 or not (0.0 < args.th <= 1.0) or args.steps < 1:
            parser.error("require gamma >= 0, 0 < th <= 1, steps >= 1")
        if not (0.0 < args.pt_min <= args.pt_max < 1.0):
            parser.error("require 0 < pt-min <= pt-max < 1")
    if args.command == "gradcheck" and not (0.0 <= args.skip_kink_band < math.inf):
        parser.error(f"require a finite --skip-kink-band >= 0, got {args.skip_kink_band}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # each command reports its own input errors
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
