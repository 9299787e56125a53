"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The original large-scale detection numbers (validation mAP in the
high twenties, leaderboard scores) require full deep-detector training on
the satellite corpus and are out of scope here; the directional and
property criteria below are the desk-scale substitutes.

The directional experiments run the shipped configs in ``configs/``
through the same runner the CLI uses, so the numbers a user reproduces
from the README are the numbers checked here.
"""

import functools
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rfl_lab.cli import run_gradcheck
from rfl_lab.ensemble import FusionConfig, fuse
from rfl_lab.experiment import round_floats, run_experiment
from rfl_lab.geometry import (
    SceneDims,
    TtaTransform,
    apply_tta,
    invert_tta,
    tile_grid,
)
from rfl_lab.losses import LossKind, LossParams, loss_at
from rfl_lab.metrics import Box, Detection, average_precision, GroundTruth

from test_metrics import oracle_ap, random_fixture, to_oracle

REPO = Path(__file__).resolve().parent.parent
PT_GRID = [0.01] + [k * 0.05 for k in range(1, 20)] + [0.99]
GAMMA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
TH_GRID = [0.25, 0.5, 0.9]


def criterion(name):
    """Print the per-criterion PASS/FAIL line around the test body."""
    def wrap(fn):
        @functools.wraps(fn)  # keeps the signature pytest inspects for fixtures
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
            return result
        return run
    return wrap


@pytest.fixture(scope="session")
def longtail_report():
    config = json.loads((REPO / "configs" / "longtail.json").read_text())
    start = time.perf_counter()
    report = run_experiment(config)
    report["_elapsed"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="session")
def two_stage_report():
    config = json.loads((REPO / "configs" / "two_stage.json").read_text())
    start = time.perf_counter()
    report = run_experiment(config)
    report["_elapsed"] = time.perf_counter() - start
    return report


@criterion("gradient suite (rel err < 1e-6 scalar, < 1e-5 composites, < 10 s)")
def test_gradient_suite():
    start = time.perf_counter()
    worst, sections = run_gradcheck(kink_band=1e-4)
    elapsed = time.perf_counter() - start
    assert sections["scalar"] < 1e-6, worst
    assert sections["binary"] < 1e-5, worst
    assert sections["softmax"] < 1e-5, worst
    assert elapsed < 10.0


@criterion("piecewise identities (exact to 2 ulp, < 1 s)")
def test_piecewise_identities():
    start = time.perf_counter()
    for th in TH_GRID:
        for gamma in GAMMA_GRID:
            fl_p = LossParams(kind=LossKind.FL, gamma=gamma)
            rfl_p = LossParams(kind=LossKind.RFL, gamma=gamma, threshold=th)
            rfl0 = LossParams(kind=LossKind.RFL, gamma=0.0, threshold=th)
            fl0 = LossParams(kind=LossKind.FL, gamma=0.0)
            for pt in PT_GRID:
                ce = loss_at(pt, LossParams(kind=LossKind.CE))[0]
                rfl = loss_at(pt, rfl_p)[0]
                if pt < th:
                    assert rfl == ce  # identical bits below the threshold
                else:
                    lhs = loss_at(pt, fl_p)[0]
                    rhs = th**gamma * rfl
                    assert abs(lhs - rhs) <= 2 * math.ulp(max(abs(lhs), abs(rhs)))
                assert loss_at(pt, fl0)[0] == ce
                assert loss_at(pt, rfl0)[0] == ce
    assert time.perf_counter() - start < 1.0


@criterion("directional A: mean mRecall RFL > FL and RFL > CE (< 5 min)")
def test_directional_recall_ordering(longtail_report):
    arms = longtail_report["arms"]
    means = {name: arms[name]["mean"]["m_recall"] for name in ("ce", "fl", "rfl")}
    print(f"  mRecall means: {means}")
    assert means["rfl"] > means["fl"]
    assert means["rfl"] > means["ce"]
    assert longtail_report["_elapsed"] < 300.0


@criterion("directional B: mean proposal recall CE > FL (< 5 min)")
def test_directional_proposal_recall(two_stage_report):
    arms = two_stage_report["arms"]
    ce = arms["ce"]["mean"]["proposal_recall"]
    fl = arms["fl"]["mean"]["proposal_recall"]
    print(f"  proposal recall means: CE={ce:.4f} FL={fl:.4f}")
    assert ce > fl
    assert two_stage_report["_elapsed"] < 300.0


@criterion("directional C: undersampling lifts rare-class recall under RFL")
def test_directional_undersampling(longtail_report):
    arms = longtail_report["arms"]

    def rare5_mean(arm):
        vals = []
        for row in arm["per_seed"]:
            vals.append(np.mean([row["per_class_recall"][c] for c in range(5, 10)]))
        return float(np.mean(vals))

    plain = rare5_mean(arms["rfl"])
    undersampled = rare5_mean(arms["rfl_undersample"])
    head_plain = arms["rfl"]["mean"]["per_class_recall"][0]
    head_us = arms["rfl_undersample"]["mean"]["per_class_recall"][0]
    print(f"  rare-5 recall: RFL={plain:.4f} RFL+undersample={undersampled:.4f}; "
          f"class-0 recall {head_plain:.4f} -> {head_us:.4f}")
    assert undersampled > plain


@criterion("geometry suite: coverage/overlap x1000, exact TTA round trips")
def test_geometry_suite():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tile = float(rng.integers(20, 800))
        w = float(max(8, int(tile * rng.uniform(0.2, 6.0))))
        h = float(max(8, int(tile * rng.uniform(0.2, 6.0))))
        overlap = float(rng.integers(0, int(tile)))
        tiles = tile_grid(SceneDims(w, h), tile, overlap)
        xs = sorted({t.origin_x for t in tiles})
        ys = sorted({t.origin_y for t in tiles})
        tw, th = tiles[0].tile_w, tiles[0].tile_h
        for dim, pos, size in ((w, xs, tw), (h, ys, th)):
            assert pos[0] == 0.0 and pos[-1] + size >= dim
            for a, b in zip(pos, pos[1:]):
                assert b <= a + size
                assert a + size - b >= overlap

    assert len(tile_grid(SceneDims(1000, 1000), 700, 80)) == 4

    scene = SceneDims(700, 500)
    boxes = []
    for _ in range(300):
        x1 = rng.integers(0, 4 * 698) / 4.0
        y1 = rng.integers(0, 4 * 498) / 4.0
        boxes.append(Detection(
            Box(x1, y1, min(700.0, x1 + rng.integers(1, 60) / 4.0),
                min(500.0, y1 + rng.integers(1, 60) / 4.0)), 0, 0.5))
    family = [TtaTransform.parse(t) for t in ("fliph", "rot90", "rot180", "rot270", "rot90+fliph")]
    for t in family:
        back = invert_tta(apply_tta(boxes, scene, t), scene, t)
        for orig, rt in zip(boxes, back):
            assert rt.box == orig.box
    for factor in (0.8, 1.2, 0.6):
        t = TtaTransform.parse(f"scale:{factor}")
        back = invert_tta(apply_tta(boxes, scene, t), scene, t)
        for orig, rt in zip(boxes, back):
            for a, b in zip((rt.box.x1, rt.box.y1, rt.box.x2, rt.box.y2),
                            (orig.box.x1, orig.box.y1, orig.box.x2, orig.box.y2)):
                assert abs(a - b) < 1e-9


@criterion("metrics oracle: AP matches exact PR enumerator on 150 fixtures")
def test_metrics_oracle_agreement():
    rng = np.random.default_rng(31415)
    for _ in range(150):
        gts, dets = random_fixture(rng, classes=1, image_ids=("a", "b"))
        od, og = to_oracle(dets, gts)
        assert abs(average_precision(dets, gts, 0.5) - float(oracle_ap(od, og, 0.5))) < 1e-12

    gts = [GroundTruth(Box(0, 0, 10, 10), 0)]
    dets = [Detection(Box(50, 50, 60, 60), 0, 0.9),
            Detection(Box(0, 0, 10, 10), 0, 0.8)]
    assert average_precision(dets, gts) == 0.5


@criterion("fusion suite: fixpoint, weighted-average fixture, hull, idempotence")
def test_fusion_suite():
    disjoint = [
        Detection(Box(0, 0, 10, 10), 0, 0.9, source="m"),
        Detection(Box(50, 50, 60, 60), 0, 0.7, source="m"),
        Detection(Box(0, 40, 8, 46), 1, 0.4, source="m"),
    ]
    cfg = FusionConfig(min_votes=1)
    assert sorted(fuse(disjoint, cfg), key=lambda d: (d.class_id, -d.score)) == sorted(
        disjoint, key=lambda d: (d.class_id, -d.score))
    assert fuse(fuse(disjoint, cfg), cfg) == fuse(disjoint, cfg)

    pair = [
        Detection(Box(0, 0, 10, 10), 0, 0.6, source="a"),
        Detection(Box(1, 1, 11, 11), 0, 0.2, source="b"),
    ]
    fused = fuse(pair, FusionConfig(iou_thresh=0.5))
    assert len(fused) == 1
    assert fused[0].box == Box(0.25, 0.25, 10.25, 10.25)
    assert fused[0].score == pytest.approx(0.4, rel=1e-12)
    assert 0.0 <= fused[0].box.x1 <= 1.0 and 10.0 <= fused[0].box.x2 <= 11.0


@criterion("determinism: identical configs give byte-identical report JSON")
def test_report_determinism(tmp_path):
    config = json.loads((REPO / "configs" / "two_stage.json").read_text())
    config["seeds"] = [1]  # one seed keeps the double run quick
    blobs = []
    for _ in range(2):
        report = run_experiment(config)
        blobs.append(json.dumps(round_floats(report), sort_keys=True, indent=2))
    assert blobs[0] == blobs[1]


# SHA-256 of the canonical 5-seed report text (what ``rfl-lab experiment
# --out`` writes) of each shipped config.  Any change to the training math,
# the random streams or the report layout moves these.
CANONICAL_SHA256 = {
    "longtail": "d43c69d2b80626627c89e274fb8f63edc7b983e6000b693e5a254401abf04881",
    "two_stage": "61cbf6706aae0857cd2d63680147e752df3c0dca373966db7b2203c9deee0757",
}


@criterion("canonical reports: shipped configs reproduce the pinned SHA-256")
def test_canonical_report_sha256(longtail_report, two_stage_report):
    for name, report in (("longtail", longtail_report), ("two_stage", two_stage_report)):
        report = {k: v for k, v in report.items() if k != "_elapsed"}
        text = json.dumps(round_floats(report), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[name], name
