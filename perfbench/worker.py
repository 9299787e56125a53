"""One workload in one fresh process; started by ``run.py``, not by hand.

``--probe`` measures set-up only: import ``rfl_lab.cli`` plus the
workload's one-time program calls, then exit.  Without it the process warms
up, runs ops until ``--seconds`` have passed, checks every op's output and
prints one JSON line for run.py.  With ``--trace 1`` it runs one op
untraced as the base, then traced ops, and reports per-layer metrics.

Only the standard library (and ``hostspeed``, which needs nothing else) is
imported at module level, so that a set-up probe times the program's
imports and nothing else.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRAINING = ("longtail", "two_stage")
DEFAULT_SEED = 0
SHIPPED_SEEDS = [1, 2, 3, 4, 5]
DETECT_SCENES = 100
DETECT_IOU = 0.55
DETECT_MIN_VOTES = 2
EVAL_IOU = 0.5
MIN_TRAINING_OPS = 3
MIN_DETECT_PASSES = 2
ROUND_TRIPS = 25  # canonical report round trips per training op; one takes ~2 ms
PROBE_KERNEL_WARMUP = 5  # the first kernel runs in a fresh process are slow
PROBE_KERNEL_SAMPLES = 30

# Largest allowed |measured - reference| of each arm's mean metrics at the
# default seed; README.md gives the reasoning.
TRAINING_TOL = {
    "accuracy": 0.005,
    "m_recall": 0.005,
    "proposal_recall": 0.02,
    "mean_class_proposal_recall": 0.02,
    "stage2_m_recall": 0.05,
}
DETECT_TOL = 1e-9


def training_seeds(seed: int) -> list[int]:
    """The shipped seeds at the default seed; else five derived from it."""
    if seed == DEFAULT_SEED:
        return list(SHIPPED_SEEDS)
    return [seed * 100 + k for k in range(1, len(SHIPPED_SEEDS) + 1)]


def load_config(workload: str) -> dict:
    with open(ROOT / "configs" / f"{workload}.json") as fh:
        return json.load(fh)


def probe(workload: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import rfl_lab.cli  # noqa: F401  (the import is what is measured)
    imported = time.perf_counter()
    if workload in TRAINING:
        from rfl_lab.experiment import validate_config

        validate_config(load_config(workload))
    else:
        from rfl_lab.ensemble import FusionConfig
        from rfl_lab.geometry import SceneDims, TtaTransform

        FusionConfig(iou_thresh=DETECT_IOU, min_votes=DETECT_MIN_VOTES)
        SceneDims(2000.0, 2000.0)
        for name in ("identity", "fliph", "rot90", "rot180"):  # scenes.PASSES
            TtaTransform.parse(name)
    done = time.perf_counter()
    for _ in range(PROBE_KERNEL_WARMUP):
        hostspeed.kernel_s()
    f = hostspeed.factor([hostspeed.kernel_s() for _ in range(PROBE_KERNEL_SAMPLES)])
    return {"import_s": f * (imported - start), "setup_s": f * (done - start),
            "host_factor": f}


class Ledger:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems[:3])}")

    def guard(self, label: str, fn, *args):
        """Run one op; an exception counts it as failed and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.record(label, [f"{type(exc).__name__}: {exc} "
                                f"({Path(where.filename).name}:{where.lineno})"])
            return None


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _finite_unit(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Training workloads: one op is one run_experiment on one seed.
# ---------------------------------------------------------------------------


class Training:
    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        from rfl_lab import experiment

        self.experiment = experiment
        self.workload = workload
        self.config = load_config(workload)
        experiment.validate_config(self.config)
        self.seeds = training_seeds(seed)
        self.reference = reference.get(workload, {}) if seed == DEFAULT_SEED else {}
        self.report_identical = 0
        self.last: tuple[dict, str] | None = None  # (report read back, its text)

    def config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["seeds"] = [seed]
        return cfg

    def warm_up(self) -> list[str]:
        cfg = self.config_for(self.seeds[0])
        cfg["train"]["epochs"] = 2
        if "two_stage" in cfg:
            cfg["two_stage"]["stage2"]["epochs"] = 1
        report = self.experiment.run_experiment(cfg)
        if sorted(report["arms"]) != sorted(a["name"] for a in cfg["arms"]):
            return ["warm-up report lacks arms"]
        return []

    def op(self, seed: int, meter) -> tuple[float, float, list[str]]:
        """(report s, round-trip s, problems) for one seed; reference-host s."""
        cfg = self.config_for(seed)
        report, run = meter.timed(self.experiment.run_experiment, cfg)
        trips = []
        for _ in range(ROUND_TRIPS):
            (back, text), (_, _, took) = meter.timed(self.round_trip, report)
            # A trip is ~1 ms: the kernel run right after it tracks its host
            # speed more closely than the meter's 50 ms samples do.
            trips.append(took * hostspeed.factor([hostspeed.kernel_s()]))
        self.last = (back, text)
        return meter.reference_s(run), statistics.median(trips), self.check(seed, back, text)

    def round_trip(self, report: dict) -> tuple[dict, str]:
        """The canonical report text, as ``rfl-lab experiment --out`` writes
        it, and that text parsed back.  In memory: file system latency on a
        shared host is noise, not the program."""
        text = json.dumps(self.experiment.round_floats(report), sort_keys=True,
                          indent=2) + "\n"
        return json.loads(text), text

    def check(self, seed: int, report: dict, text: str) -> list[str]:
        problems = []
        if report.get("seeds") != [seed]:
            problems.append(f"report seeds {report.get('seeds')} != [{seed}]")
        arms = report.get("arms", {})
        names = [arm["name"] for arm in self.config["arms"]]
        if sorted(arms) != sorted(names):
            problems.append(f"arms {sorted(arms)} != {sorted(names)}")
        for name in names:
            mean = arms.get(name, {}).get("mean", {})
            scalars = {k: v for k, v in mean.items() if k in TRAINING_TOL}
            if not scalars or not all(_finite_unit(v) for v in scalars.values()):
                problems.append(f"{name}: mean metrics missing or outside [0, 1]")
            for row in arms.get(name, {}).get("per_seed", []):
                curve = row.get("loss_curve", [])
                if not curve or not all(math.isfinite(v) for v in curve):
                    problems.append(f"{name}: empty or non-finite loss curve")
            ref = self.reference.get(str(seed), {}).get("arms", {}).get(name)
            if ref is None:
                continue
            for key, want in ref.items():
                got = scalars.get(key)
                if got is None or abs(got - want) > TRAINING_TOL[key]:
                    problems.append(f"{name}.{key} = {got}, reference {want}")
        sha = self.reference.get(str(seed), {}).get("sha256")
        if sha and hashlib.sha256(text.encode()).hexdigest() == sha:
            self.report_identical += 1
        return problems


# ---------------------------------------------------------------------------
# Detect workload: one op is one scene; each pass ends with one evaluation.
# ---------------------------------------------------------------------------


class Detect:
    def __init__(self, seed: int, reference: dict) -> None:
        import scenes
        from rfl_lab import ensemble, geometry, metrics

        self.geometry, self.ensemble, self.metrics = geometry, ensemble, metrics
        self.fusion = ensemble.FusionConfig(iou_thresh=DETECT_IOU,
                                            min_votes=DETECT_MIN_VOTES)
        self.dims = geometry.SceneDims(scenes.SCENE_PX, scenes.SCENE_PX)
        self.passes = [(name, geometry.TtaTransform.parse(name)) for name in scenes.PASSES]
        self.tile, self.overlap = scenes.TILE_PX, scenes.OVERLAP_PX
        self.scenes = scenes.generate(seed, DETECT_SCENES)
        self.gts = [gt for sc in self.scenes for gt in sc.gts]
        self.reference = reference.get("detect") if seed == DEFAULT_SEED else None
        self.first_summary: tuple | None = None
        self.tmp = OUT / f"eval_{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def scene_op(self, sc) -> tuple[list, int, list]:
        g = self.geometry
        pooled, clipped = [], []
        for tile in g.tile_grid(self.dims, self.tile, self.overlap):
            clipped.append(g.clip_boxes_to_tile(sc.gt_dets, tile))
            local = g.SceneDims(tile.tile_w, tile.tile_h)
            for name, transform in self.passes:
                back = g.invert_tta(sc.dets[(tile.origin_x, tile.origin_y, name)],
                                    local, transform)
                pooled.extend(g.tile_to_scene(back, tile))
        return self.ensemble.fuse(pooled, self.fusion), len(pooled), clipped

    def check_scene(self, sc, fused: list, n_pooled: int, clipped: list) -> list[str]:
        problems = []
        if len(fused) > n_pooled:
            problems.append(f"{len(fused)} fused > {n_pooled} pooled")
        size = self.dims.width
        for d in fused:
            b = d.box
            if d.image_id != sc.image_id:
                problems.append(f"fused box tagged {d.image_id!r}")
                break
            if not (0.0 <= b.x1 <= b.x2 <= size and 0.0 <= b.y1 <= b.y2 <= size):
                problems.append(f"fused box {b} outside the scene")
                break
        covered = set()
        for tile_boxes in clipped:
            for d in tile_boxes:
                whole = sc.gt_dets[int(d.source)].box.area
                if abs(d.box.area - whole) <= 1e-9 * whole:
                    covered.add(int(d.source))
        if len(covered) != len(sc.gt_dets):
            problems.append(f"{len(sc.gt_dets) - len(covered)} GTs in no single tile")
        return problems

    def eval_op(self, fused: list):
        m = self.metrics
        dets_path, gts_path = self.tmp / "fused.jsonl", self.tmp / "gts.jsonl"
        m.write_detections_jsonl(fused, dets_path)
        m.write_groundtruths_jsonl(self.gts, gts_path)
        dets = m.read_detections_jsonl(dets_path)
        gts = m.read_groundtruths_jsonl(gts_path)
        return m.map_and_mrecall(dets, gts, EVAL_IOU), len(dets), len(gts)

    def check_eval(self, summary, n_dets: int, n_gts: int, n_fused: int) -> list[str]:
        problems = []
        if (n_dets, n_gts) != (n_fused, len(self.gts)):
            problems.append(f"JSONL round trip read {n_dets} dets / {n_gts} GTs")
        got = (summary.map, summary.recall, summary.m_recall)
        if not all(_finite_unit(v) for v in got):
            problems.append(f"mAP/recall/mRecall {got} outside [0, 1]")
        if self.first_summary is None:
            self.first_summary = got
        elif got != self.first_summary:
            problems.append(f"{got} differs from the first pass {self.first_summary}")
        if self.reference:
            want = (self.reference["map"], self.reference["recall"],
                    self.reference["m_recall"])
            if any(abs(a - b) > DETECT_TOL for a, b in zip(got, want)):
                problems.append(f"mAP/recall/mRecall {got}, reference {want}")
        return problems

    def run_pass(self, ledger: Ledger, meter,
                 tracer=None) -> tuple[list[float], float, list]:
        """Every scene, then one evaluation.

        Returns the scene latencies and the eval time, in reference-host
        seconds, and the fused detections.
        """
        fused_all: list = []
        timings = []
        for k, sc in enumerate(self.scenes):
            if tracer is None:
                out, timing = meter.timed(ledger.guard, sc.image_id, self.scene_op, sc)
            else:
                with tracer.span("detect.scene", k):
                    out, timing = meter.timed(ledger.guard, sc.image_id, self.scene_op, sc)
            timings.append(timing)
            if out is not None:
                fused, n_pooled, clipped = out
                ledger.record(sc.image_id, self.check_scene(sc, fused, n_pooled, clipped))
                fused_all.extend(fused)
        if tracer is None:
            out, timing = meter.timed(ledger.guard, "eval", self.eval_op, fused_all)
        else:
            with tracer.span("detect.eval", len(self.scenes)):
                out, timing = meter.timed(ledger.guard, "eval", self.eval_op, fused_all)
        if out is not None:
            ledger.record("eval", self.check_eval(*out, len(fused_all)))
        return [meter.reference_s(t) for t in timings], meter.reference_s(timing), fused_all

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def run_training(args, reference: dict, ledger: Ledger) -> tuple[dict, dict]:
    w = Training(args.workload, args.seed, reference)
    problems = ledger.guard("warm-up", w.warm_up)
    if problems is not None:
        ledger.record("warm-up", problems)
    notes: dict = {"seeds": w.seeds}
    if args.trace:
        return training_layers(w, args, ledger, notes), notes

    report_s, trip_s = [], []
    deadline = time.perf_counter() + args.seconds
    with hostspeed.HostMeter() as meter:
        while len(report_s) < MIN_TRAINING_OPS or time.perf_counter() < deadline:
            seed = w.seeds[len(report_s) % len(w.seeds)]
            out = ledger.guard(f"seed {seed}", w.op, seed, meter)
            if out is None:
                break
            report_s.append(out[0])
            trip_s.append(out[1])
            ledger.record(f"seed {seed}", out[2])
    notes.update(report_s=report_s, report_identical=w.report_identical,
                 host_factor=meter.factor_between(0.0, time.perf_counter()))
    if not report_s:
        return {}, notes
    ms = [1e3 * s for s in report_s]
    return {
        "report_s": (statistics.median(report_s), "s"),
        "scene_ms_p50": (statistics.median(ms), "ms"),
        "scene_ms_p90": (p90(ms), "ms"),
        "eval_s": (statistics.median(trip_s), "s"),
    }, notes


def run_detect(args, reference: dict, ledger: Ledger) -> tuple[dict, dict]:
    w = Detect(args.seed, reference)
    notes: dict = {}
    try:
        with hostspeed.HostMeter() as meter:
            w.run_pass(ledger, meter)  # warm-up
            if args.trace:
                return detect_layers(w, args, ledger, meter, notes), notes
            latencies: list[float] = []
            pass_s, eval_s = [], []
            deadline = time.perf_counter() + args.seconds
            while len(pass_s) < MIN_DETECT_PASSES or time.perf_counter() < deadline:
                scene_s, ev, _ = w.run_pass(ledger, meter)
                latencies += scene_s
                pass_s.append(sum(scene_s) + ev)
                eval_s.append(ev)
        notes.update(pass_s=pass_s, scenes_timed=len(latencies),
                     host_factor=meter.factor_between(0.0, time.perf_counter()))
        ms = [1e3 * s for s in latencies]
        return {
            "report_s": (statistics.median(pass_s), "s"),
            "scene_ms_p50": (statistics.median(ms), "ms"),
            "scene_ms_p90": (p90(ms), "ms"),
            "eval_s": (statistics.median(eval_s), "s"),
        }, notes
    finally:
        w.close()


def _per_report(summary: dict, names: list[str], field: str, scale: float) -> float:
    return scale * sum(summary.get(n, {}).get(field, 0.0) for n in names)


def training_layers(w: Training, args, ledger: Ledger, notes: dict) -> dict:
    from tracer import TRAINING_WRAPS, Tracer

    seed = w.seeds[0]
    with hostspeed.HostMeter() as meter:
        out = ledger.guard(f"seed {seed}", w.op, seed, meter)
        if out is None:
            return {}
        ledger.record(f"seed {seed}", out[2])
        base = out[0]

        tracer = Tracer()
        tracer.install(TRAINING_WRAPS)
        traced = []
        traced_from = time.perf_counter()
        deadline = time.perf_counter() + args.seconds - base
        try:
            while not traced or time.perf_counter() < deadline:
                seed = w.seeds[len(traced) % len(w.seeds)]
                with tracer.span("op", len(traced)):
                    out = ledger.guard(f"seed {seed}", w.op, seed, meter)
                if out is None:
                    break
                ledger.record(f"seed {seed}", out[2])
                traced.append(out[0])
        finally:
            tracer.uninstall()
        f = meter.factor_between(traced_from, time.perf_counter())
    tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.csv")
    if not traced:
        return {}

    s = tracer.summary()
    c = tracer.counts
    per_op = f / len(traced)  # reference-host seconds per report

    def step_us(name: str) -> float:
        d = s.get(name, {}).get("durations")
        return 1e6 * f * statistics.median(d) if d else 0.0

    def calls(name: str) -> float:
        return s.get(name, {}).get("calls", 0) / len(traced)

    metrics = {
        "experiment.self_s": (_per_report(s, ["experiment.run_experiment"], "self_s", per_op), "s"),
        "sampling.generate_s": (_per_report(s, ["sampling.generate"], "total_s", per_op), "s"),
        "sampling.undersample_s": (_per_report(s, ["sampling.undersample"], "total_s", per_op), "s"),
        "sampling.undersample_calls": (calls("sampling.undersample"), "count"),
        "sampling.undersample_kept_ratio": (
            c["undersample_kept"] / c["undersample_in"] if c["undersample_in"] else 0.0, "ratio"),
        "train.softmax_step_us": (step_us("train.softmax_batch"), "us"),
        "train.softmax_steps": (calls("train.softmax_batch"), "count"),
        "train.binary_step_us": (step_us("train.binary_batch"), "us"),
        "train.binary_steps": (calls("train.binary_batch"), "count"),
        "train.classifier_self_s": (_per_report(s, ["train.train_classifier"], "self_s", per_op), "s"),
        "train.objectness_self_s": (_per_report(s, ["train.train_objectness"], "self_s", per_op), "s"),
        "train.two_stage_self_s": (_per_report(s, ["train.train_two_stage"], "self_s", per_op), "s"),
        "train.evaluate_s": (_per_report(s, ["train.evaluate_classifier"], "total_s", per_op), "s"),
        "trace.overhead_ratio": (traced[0] / base, "ratio"),
        "trace.untraced_s": (base, "s"),
        "trace.accounted_ratio": (tracer.accounted_ratio({"op"}), "ratio"),
        "trace.absent": (len(tracer.absent), "count"),
    }
    notes.update(absent=tracer.absent, traced_ops=len(traced), host_factor=f)
    return metrics


def detect_layers(w: Detect, args, ledger: Ledger, meter, notes: dict) -> dict:
    from tracer import DETECT_WRAPS, Tracer

    scene_s, ev, _ = w.run_pass(ledger, meter)
    base = sum(scene_s) + ev
    tracer = Tracer()
    tracer.install(DETECT_WRAPS)
    traced_from = time.perf_counter()
    try:
        scene_s, ev, fused = w.run_pass(ledger, meter, tracer)
    finally:
        tracer.uninstall()
    f = meter.factor_between(traced_from, time.perf_counter())
    traced = sum(scene_s) + ev
    tracer.write(OUT / f"spans_detect_seed{args.seed}.csv")

    # Eval time on all images over the time on the first half of them.
    half_ids = {sc.image_id for sc in w.scenes[: len(w.scenes) // 2]}
    half = ([d for d in fused if d.image_id in half_ids],
            [g for g in w.gts if g.image_id in half_ids])
    timings = [meter.timed(w.metrics.map_and_mrecall, dets, gts, EVAL_IOU)[1][2]
               for dets, gts in (half, (fused, w.gts))]

    s = tracer.summary()
    c = tracer.counts
    metrics = {
        "geometry.clip_s": (_per_report(s, ["geometry.tile_grid", "geometry.clip_boxes_to_tile"],
                                        "total_s", f), "s"),
        "geometry.tiles": (c["tiles"], "count"),
        "geometry.tta_s": (_per_report(s, ["geometry.invert_tta", "geometry.tile_to_scene"],
                                       "total_s", f), "s"),
        "geometry.boxes_mapped": (c["boxes_mapped"], "count"),
        "ensemble.fuse_s": (_per_report(s, ["ensemble.fuse"], "total_s", f), "s"),
        "ensemble.fuse_in": (c["fuse_in"], "count"),
        "ensemble.fuse_out_ratio": (c["fuse_out"] / c["fuse_in"] if c["fuse_in"] else 0.0, "ratio"),
        "metrics.write_jsonl_s": (_per_report(s, ["metrics.write_jsonl"], "total_s", f), "s"),
        "metrics.read_jsonl_s": (_per_report(s, ["metrics.read_jsonl"], "total_s", f), "s"),
        "metrics.map_s": (_per_report(s, ["metrics.map_and_mrecall"], "total_s", f), "s"),
        "metrics.map_dets": (c["map_dets"], "count"),
        "metrics.tp_ratio": (c["map_tp"] / c["map_dets_evaluated"]
                             if c["map_dets_evaluated"] else 0.0, "ratio"),
        "metrics.map_doubling_ratio": (timings[1] / timings[0], "ratio"),
        "trace.overhead_ratio": (traced / base, "ratio"),
        "trace.untraced_s": (base, "s"),
        "trace.accounted_ratio": (
            tracer.accounted_ratio({"detect.scene", "detect.eval"}), "ratio"),
        "trace.absent": (len(tracer.absent), "count"),
    }
    notes.update(absent=tracer.absent, host_factor=f)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=TRAINING + ("detect",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    if args.probe:
        print(json.dumps(probe(args.workload)))
        return 0

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    OUT.mkdir(exist_ok=True)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    ledger = Ledger()
    if args.workload in TRAINING:
        metrics, notes = run_training(args, reference, ledger)
    else:
        metrics, notes = run_detect(args, reference, ledger)
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
        "notes": notes,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
