"""Metrics tests, anchored by an independent exact-rational PR oracle.

The oracle below re-implements greedy matching and the all-points PR
area from scratch using ``fractions.Fraction``, sharing no code with the
module under test, and serves as ground truth for randomized fixtures.
"""

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfl_lab import metrics
from rfl_lab.geometry import TileSpec
from rfl_lab.metrics import (
    Box,
    ClassMetrics,
    Detection,
    EvalSummary,
    GroundTruth,
    _ap_from_flags,
    _corners,
    _iou_pairs,
    _match,
    _parse_record,
    average_precision,
    iou,
    map_and_mrecall,
    read_detections_jsonl,
    read_groundtruths_jsonl,
    write_detections_jsonl,
    write_groundtruths_jsonl,
)


# ---------------------------------------------------------------------------
# Independent oracle (exact rational arithmetic).
# ---------------------------------------------------------------------------


def oracle_iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def oracle_ap(dets, gts, thr):
    """dets: list of (box4, score, image); gts: list of (box4, image).

    One class.  Matching is restricted to ground truths of the same
    image; ranking is global over the class's detections.
    """
    if not gts or not dets:
        return Fraction(0)
    remaining = list(range(len(gts)))

    def candidate(i):
        hit_g, hit_v = None, 0.0
        for g in remaining:
            if gts[g][1] != dets[i][2]:
                continue
            v = oracle_iou(dets[i][0], gts[g][0])
            if v > hit_v:
                hit_g, hit_v = g, v
        return hit_g, hit_v

    flags = []
    pending = sorted(range(len(dets)), key=lambda i: -dets[i][1])
    while pending:
        tied = [i for i in pending if dets[i][1] == dets[pending[0]][1]]
        while tied:
            best_choice, best_key = None, None
            for i in tied:
                key = (-candidate(i)[1], i)
                if best_key is None or key < best_key:
                    best_choice, best_key = i, key
            tied.remove(best_choice)
            pending.remove(best_choice)
            hit_g, hit_v = candidate(best_choice)
            if hit_g is not None and hit_v >= thr:
                remaining.remove(hit_g)
                flags.append(1)
            else:
                flags.append(0)

    n_gt = len(gts)
    tp = 0
    points = []
    for k, f in enumerate(flags, start=1):
        tp += f
        points.append((Fraction(tp, n_gt), Fraction(tp, k)))
    area = Fraction(0)
    prev_r = Fraction(0)
    for k, (r, _) in enumerate(points):
        best_p = max(p for rr, p in points[k:])
        area += (r - prev_r) * best_p
        prev_r = r
    return area


def to_oracle(dets, gts):
    od = [((d.box.x1, d.box.y1, d.box.x2, d.box.y2), d.score, d.image_id) for d in dets]
    og = [((g.box.x1, g.box.y1, g.box.x2, g.box.y2), g.image_id) for g in gts]
    return od, og


def b(x1, y1, x2, y2):
    return Box(x1, y1, x2, y2)


class TestIoU:
    def test_identical(self):
        assert iou(b(0, 0, 10, 10), b(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(b(0, 0, 1, 1), b(5, 5, 6, 6)) == 0.0

    def test_hand_checked_overlap(self):
        # Intersection 9x9 = 81, union 100 + 100 - 81 = 119.
        assert iou(b(0, 0, 10, 10), b(1, 1, 11, 11)) == pytest.approx(
            81 / 119, rel=1e-12
        )

    def test_degenerate_is_zero(self):
        line = b(3, 0, 3, 10)
        assert iou(line, line) == 0.0
        assert iou(line, b(0, 0, 10, 10)) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = rng.uniform(0, 50, size=8)
            bb1 = b(min(c[0], c[1]), min(c[2], c[3]), max(c[0], c[1]), max(c[2], c[3]))
            bb2 = b(min(c[4], c[5]), min(c[6], c[7]), max(c[4], c[5]), max(c[6], c[7]))
            v = iou(bb1, bb2)
            assert v == iou(bb2, bb1)
            assert 0.0 <= v <= 1.0

    def test_corner_validation(self):
        with pytest.raises(ValueError):
            Box(5, 0, 1, 10)

    def test_matrix_equals_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        # Integer corners give exact touching edges and zero-area boxes too.
        c = np.sort(rng.integers(0, 12, size=(40, 2, 2)).astype(float), axis=1)
        c = np.concatenate([c, np.sort(rng.uniform(0, 12, size=(40, 2, 2)), axis=1)])
        boxes = [b(x1, y1, x2, y2) for (x1, y1), (x2, y2) in c]
        arr = np.array([(bb.x1, bb.y1, bb.x2, bb.y2) for bb in boxes])
        got = _iou_pairs(arr[:50].T[:, :, None], arr[30:].T[:, None, :])
        want = [[iou(p, q) for q in boxes[30:]] for p in boxes[:50]]
        assert got.tolist() == want


class TestAveragePrecision:
    def test_single_true_positive(self):
        gts = [GroundTruth(b(0, 0, 10, 10), 0)]
        dets = [Detection(b(0, 0, 10, 10), 0, 0.9)]
        assert average_precision(dets, gts) == 1.0

    def test_fp_then_tp_is_half(self):
        gts = [GroundTruth(b(0, 0, 10, 10), 0)]
        dets = [
            Detection(b(50, 50, 60, 60), 0, 0.9),  # FP, ranked first
            Detection(b(0, 0, 10, 10), 0, 0.8),    # TP
        ]
        assert average_precision(dets, gts) == 0.5

    def test_no_detections(self):
        gts = [GroundTruth(b(0, 0, 10, 10), 0)]
        assert average_precision([], gts) == 0.0

    def test_no_ground_truth(self):
        dets = [Detection(b(0, 0, 10, 10), 0, 0.9)]
        assert average_precision(dets, []) == 0.0

    def test_monotone_score_invariance(self):
        rng = np.random.default_rng(4)
        gts, dets = random_fixture(rng, classes=1)
        gts1 = [g for g in gts if g.class_id == 0]
        dets1 = [d for d in dets if d.class_id == 0]
        base = average_precision(dets1, gts1)
        squashed = [
            Detection(d.box, d.class_id, d.score**3, d.source, d.image_id)
            for d in dets1
        ]
        assert average_precision(squashed, gts1) == pytest.approx(base, abs=1e-12)

    def test_unmatched_extra_detection_never_helps(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            gts, dets = random_fixture(rng, classes=1)
            gts1 = [g for g in gts if g.class_id == 0]
            dets1 = [d for d in dets if d.class_id == 0]
            base = average_precision(dets1, gts1)
            junk = Detection(b(900, 900, 901, 901), 0, float(rng.random()))
            assert average_precision(dets1 + [junk], gts1) <= base + 1e-12

    def test_matches_oracle_on_micro_fixtures(self):
        rng = np.random.default_rng(123)
        for _ in range(150):
            gts, dets = random_fixture(rng, classes=1, image_ids=("a", "b"))
            od, og = to_oracle(dets, gts)
            got = average_precision(dets, gts, 0.5)
            assert abs(got - float(oracle_ap(od, og, 0.5))) < 1e-12


def random_fixture(rng, classes=3, image_ids=("",)):
    """Micro-fixture of <=10 boxes with deliberate overlaps and score ties."""
    gts, dets = [], []
    n_gt = int(rng.integers(1, 6))
    n_det = int(rng.integers(0, 10 - n_gt + 1))
    for _ in range(n_gt):
        x, y = rng.uniform(0, 40, size=2)
        w, h = rng.uniform(2, 12, size=2)
        gts.append(
            GroundTruth(
                b(x, y, x + w, y + h),
                int(rng.integers(classes)),
                image_id=str(rng.choice(image_ids)),
            )
        )
    for _ in range(n_det):
        if gts and rng.random() < 0.7:
            base = gts[int(rng.integers(len(gts)))]
            dx, dy = rng.uniform(-3, 3, size=2)
            bb = b(base.box.x1 + dx, base.box.y1 + dy, base.box.x2 + dx, base.box.y2 + dy)
            cls = base.class_id
            img = base.image_id
        else:
            x, y = rng.uniform(0, 40, size=2)
            w, h = rng.uniform(2, 12, size=2)
            bb = b(x, y, x + w, y + h)
            cls = int(rng.integers(classes))
            img = str(rng.choice(image_ids))
        # Quantized scores force ties to exercise deterministic ordering.
        score = round(float(rng.random()), 1)
        dets.append(Detection(bb, cls, score, image_id=img))
    return gts, dets


class TestMapAndMrecall:
    def test_perfect_detector(self):
        rng = np.random.default_rng(1)
        gts, _ = random_fixture(rng)
        dets = [Detection(g.box, g.class_id, 1.0, image_id=g.image_id) for g in gts]
        s = map_and_mrecall(dets, gts)
        assert s.map == 1.0 and s.recall == 1.0 and s.m_recall == 1.0
        assert all(m.ap == 1.0 and m.recall == 1.0 for m in s.per_class.values())

    def test_detected_vs_missed_class_split(self):
        gts = [
            GroundTruth(b(0, 0, 10, 10), 0),
            GroundTruth(b(20, 20, 30, 30), 1),
            GroundTruth(b(40, 40, 50, 50), 1),
            GroundTruth(b(60, 60, 70, 70), 1),
        ]
        dets = [Detection(b(0, 0, 10, 10), 0, 0.9)]
        s = map_and_mrecall(dets, gts)
        assert s.m_recall == 0.5          # mean of 1.0 and 0.0
        assert s.recall == 0.25           # 1 of 4 ground truths
        assert s.map == 0.5

    def test_mrecall_invariant_to_class_duplication(self):
        gts = [
            GroundTruth(b(0, 0, 10, 10), 0),
            GroundTruth(b(100, 100, 110, 110), 1),
        ]
        dets = [Detection(b(0, 0, 10, 10), 0, 0.8)]
        base = map_and_mrecall(dets, gts)
        # Duplicate every class-0 instance (ground truth and detections).
        dup_gts = gts + [g for g in gts if g.class_id == 0]
        dup_dets = dets + [d for d in dets if d.class_id == 0]
        dup = map_and_mrecall(dup_dets, dup_gts)
        assert dup.m_recall == base.m_recall == 0.5
        assert base.recall == 0.5 and dup.recall == pytest.approx(2 / 3)

    def test_matches_oracle_per_class(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            gts, dets = random_fixture(rng, classes=3, image_ids=("a", "b"))
            try:
                s = map_and_mrecall(dets, gts, 0.5)
            except ValueError:
                assert not gts
                continue
            aps = []
            for cls in sorted({g.class_id for g in gts}):
                cls_gts = [g for g in gts if g.class_id == cls]
                cls_dets = [d for d in dets if d.class_id == cls]
                od, og = to_oracle(cls_dets, cls_gts)
                want = oracle_ap(od, og, 0.5)
                assert abs(s.per_class[cls].ap - float(want)) < 1e-12
                aps.append(s.per_class[cls].ap)
            assert s.map == pytest.approx(sum(aps) / len(aps), abs=1e-12)

    def test_empty_ground_truth_errors(self):
        with pytest.raises(ValueError):
            map_and_mrecall([], [])

    def test_matches_oracle_on_dense_multi_image_fixtures(self):
        # Large tie groups spread over several images: the ranked order of
        # TP flags inside a group must interleave the images exactly as the
        # oracle's global pick order does.
        rng = np.random.default_rng(77)
        for trial in range(40):
            gts, dets = dense_fixture(rng, classes=1 + trial % 2)
            s = map_and_mrecall(dets, gts, 0.5)
            for cls in sorted({g.class_id for g in gts}):
                cls_gts = [g for g in gts if g.class_id == cls]
                cls_dets = [d for d in dets if d.class_id == cls]
                od, og = to_oracle(cls_dets, cls_gts)
                want = float(oracle_ap(od, og, 0.5))
                assert abs(s.per_class[cls].ap - want) < 1e-12
                assert abs(average_precision(cls_dets, cls_gts, 0.5) - want) < 1e-12


def dense_fixture(rng, classes):
    """30-60 boxes over 3-4 images, crowded, scores quantized to 0.1."""
    images = [f"img{k}" for k in range(int(rng.integers(3, 5)))]
    n_boxes = int(rng.integers(30, 61))
    n_gt = int(rng.integers(8, n_boxes // 2))
    gts = []
    for _ in range(n_gt):
        x, y = rng.uniform(0, 25, size=2)
        w, h = rng.uniform(4, 10, size=2)
        gts.append(
            GroundTruth(b(x, y, x + w, y + h), int(rng.integers(classes)),
                        image_id=str(rng.choice(images)))
        )
    dets = []
    for _ in range(n_boxes - n_gt):
        if rng.random() < 0.8:
            base = gts[int(rng.integers(len(gts)))]
            dx, dy = rng.uniform(-2, 2, size=2)
            bb = b(base.box.x1 + dx, base.box.y1 + dy,
                   base.box.x2 + dx, base.box.y2 + dy)
            cls, img = base.class_id, base.image_id
        else:
            x, y = rng.uniform(0, 25, size=2)
            w, h = rng.uniform(4, 10, size=2)
            bb = b(x, y, x + w, y + h)
            cls, img = int(rng.integers(classes)), str(rng.choice(images))
        score = round(float(rng.uniform(0.5, 1.0)), 1)
        dets.append(Detection(bb, cls, score, image_id=img))
    return gts, dets


# ---------------------------------------------------------------------------
# Per-group oracle: greedy matching on a dense IoU matrix, one (class, image)
# group at a time, with a heap per tied score block.
# ---------------------------------------------------------------------------


def oracle_best_unmatched(ious, unmatched):
    """Per row: the lowest-index unmatched column of highest positive IoU
    (-1 when there is none) and that IoU (0.0 when there is none)."""
    masked = np.where(unmatched, ious, 0.0)
    best_g = masked.argmax(axis=1)
    best_v = masked[np.arange(len(best_g)), best_g]
    best_g[best_v <= 0.0] = -1
    return best_g, best_v


def oracle_match_image(scores, ious, iou_thresh):
    """Greedy matching within one group: (IoU at pick, TP flag) per row."""
    n = len(scores)
    unmatched = np.ones(ious.shape[1], dtype=bool)
    best_g, best_v = oracle_best_unmatched(ious, unmatched)
    picked_v = np.zeros(n)
    flags = np.zeros(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    order = np.argsort(-scores, kind="stable")
    cuts = [0, *(np.diff(scores[order]).nonzero()[0] + 1).tolist(), n]
    for start, stop in zip(cuts, cuts[1:]):
        group = order[start:stop]
        score = scores[group[0]]
        heap = [(-v, i) for v, i in zip(best_v[group].tolist(), group.tolist())]
        heapq.heapify(heap)
        while heap:
            neg_v, i = heapq.heappop(heap)
            if done[i] or -neg_v != best_v[i]:
                continue  # picked already, or a stale key
            done[i] = True
            g, v = int(best_g[i]), -neg_v
            picked_v[i] = v
            if g < 0 or v < iou_thresh:
                continue
            flags[i] = True
            unmatched[g] = False
            hit = ((best_g == g) & ~done).nonzero()[0]
            if not len(hit):
                continue
            before = best_v[hit].tolist()
            best_g[hit], best_v[hit] = oracle_best_unmatched(ious[hit], unmatched)
            for j, old_v, new_v in zip(hit.tolist(), before, best_v[hit].tolist()):
                if new_v != old_v and scores[j] == score:
                    heapq.heappush(heap, (-new_v, j))
    return picked_v, flags


def oracle_match(dets, gts, iou_thresh, by_class=True):
    """(IoU at pick, TP flag) per detection in input order, group by group."""
    def group(r):
        return (r.class_id if by_class else 0, r.image_id)

    cols_of = {}
    for g, gt in enumerate(gts):
        cols_of.setdefault(group(gt), []).append(g)
    rows_of = {}
    for d, det in enumerate(dets):
        rows_of.setdefault(group(det), []).append(d)
    scores = np.array([det.score for det in dets], dtype=float)
    picked_v = np.zeros(len(dets))
    flags = np.zeros(len(dets), dtype=bool)
    for key, rows in rows_of.items():
        cols = cols_of.get(key)
        if cols is None:
            continue
        a, t = _corners([dets[d] for d in rows]), _corners([gts[g] for g in cols])
        ious = _iou_pairs(a.T[:, :, None], t.T[:, None, :])
        picked_v[rows], flags[rows] = oracle_match_image(scores[rows], ious, iou_thresh)
    return picked_v, flags


def oracle_summary(dets, gts, iou_thresh):
    """The EvalSummary of the per-group matcher, class by class."""
    picked_v, flags = oracle_match(dets, gts, iou_thresh)
    by_class_gt, by_class_det = {}, {}
    for gt in gts:
        by_class_gt.setdefault(gt.class_id, []).append(gt)
    for d, det in enumerate(dets):
        by_class_det.setdefault(det.class_id, []).append(d)
    per_class, total_matched = {}, 0
    for cls in sorted(by_class_gt):
        rows = by_class_det.get(cls, [])
        ranked = sorted(rows, key=lambda d: (-dets[d].score, -picked_v[d], d))
        cls_flags = [bool(flags[d]) for d in ranked]
        matched = sum(cls_flags)
        total_matched += matched
        n_gt = len(by_class_gt[cls])
        per_class[cls] = ClassMetrics(
            ap=_ap_from_flags(cls_flags, n_gt) if rows else 0.0,
            recall=matched / n_gt, gt_count=n_gt, det_count=len(rows))
    return EvalSummary(
        map=sum(m.ap for m in per_class.values()) / len(per_class),
        recall=total_matched / len(gts),
        m_recall=sum(m.recall for m in per_class.values()) / len(per_class),
        per_class=per_class)


def array_match(dets, gts, iou_thresh, by_class=True):
    """``_match`` with one key per (class, image) of the truths, and key -1
    for a detection of any other."""
    def group(r):
        return (r.class_id if by_class else 0, r.image_id)

    keys = {}
    for gt in gts:
        keys.setdefault(group(gt), len(keys))
    t_key = np.array([keys[group(gt)] for gt in gts], dtype=np.int64)
    d_key = np.array([keys.get(group(det), -1) for det in dets], dtype=np.int64)
    scores = np.array([det.score for det in dets], dtype=float)
    return _match(dets, gts, scores, d_key, t_key, iou_thresh)


_EDGE = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
_SIDE = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
_GRID_BOX = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), _EDGE, _EDGE, _SIDE, _SIDE)
_ODD_BOX = st.sampled_from([
    Box(math.nan, 0.0, 1.0, 1.0), Box(0.0, 0.0, math.inf, 2.0), Box(-math.inf, 1.0, 2.0, 3.0),
    Box(0.0, math.nan, 2.0, math.nan), Box(-1e308, 0.0, 1e308, 2.0),
    Box(0.0, 0.0, 1e308, 1e308), Box(1.0, 1.0, 1.0, 1.0)])
_MATCH_BOX = st.one_of(_GRID_BOX, _GRID_BOX, _GRID_BOX, _ODD_BOX)
_MATCH_GT = st.builds(GroundTruth, _MATCH_BOX, st.integers(0, 2), st.sampled_from(["a", "b"]))
_MATCH_DET = st.builds(
    lambda box, cls, score, image: Detection(box, cls, score, image_id=image),
    _MATCH_BOX, st.integers(0, 3), st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 1.0]),
    st.sampled_from(["a", "b", "c"]))
_STEP = st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0])


@st.composite
def _dense_image(draw):
    """Up to 60 truths on a coarse grid of one image and one class, and up
    to 150 detections jittered around them, scored from a few values."""
    n_gts, n_dets = draw(st.integers(1, 60)), draw(st.integers(1, 150))
    corner, side = st.integers(0, 8).map(float), st.sampled_from([2.0, 3.0, 4.0])
    gts = [GroundTruth(Box(x, y, x + w, y + h), 0, "img") for x, y, w, h in draw(st.lists(
        st.tuples(corner, corner, side, side), min_size=n_gts, max_size=n_gts))]
    jittered = draw(st.lists(
        st.tuples(st.integers(0, n_gts - 1), _STEP, _STEP, _STEP,
                  st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0])),
        min_size=n_dets, max_size=n_dets))
    dets = []
    for g, dx, dy, dw, score in jittered:  # dw widens or narrows the box as well
        x1, y1, x2, y2 = gts[g].box
        dets.append(Detection(Box(x1 + dx, y1 + dy, x2 + dx + dw, y2 + dy), 0, score,
                              image_id="img"))
    return dets, gts


class TestArrayMatcher:
    """The array matcher against the per-group oracle, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_MATCH_DET, max_size=40), st.lists(_MATCH_GT, min_size=1, max_size=25),
           st.sampled_from([0.1, 0.5, 0.75]), st.sampled_from([1, 3, 1 << 14]))
    @example([Detection(Box(0.0, 0.0, 2.0, 2.0), 0, 0.5, image_id="a")] * 3,
             [GroundTruth(Box(0.0, 0.0, 2.0, 2.0), 0, "a"),
              GroundTruth(Box(math.nan, 0.0, 1.0, 1.0), 0, "a"),
              GroundTruth(Box(0.0, 0.0, 2.0, 2.0), 0, "a")], 0.5, 1)
    @example([Detection(Box(1.0, 0.0, 3.0, 2.0), 0, 0.5, image_id="a"),
              Detection(Box(2.0, 0.0, 4.0, 2.0), 0, 0.25, image_id="a")],
             [GroundTruth(Box(0.0, 0.0, 2.0, 2.0), 0, "a"),
              GroundTruth(Box(2.0, 0.0, 4.0, 2.0), 0, "a")], 0.1, 1 << 14)
    @example([Detection(Box(0.0, 0.0, 0.5, 0.5), 0, 0.25, image_id="a"),
              Detection(Box(0.0, 0.0, math.nan, 0.5), 0, 0.25, image_id="a")],
             [GroundTruth(Box(math.nan, 0.0, 1.0, 1.0), 0, "b"),
              GroundTruth(Box(math.nan, 0.0, 1.0, 1.0), 0, "b"),
              GroundTruth(Box(0.0, 0.0, 0.5, 0.5), 0, "a")], 0.1, 1 << 14)
    @example([Detection(Box(0.30969476627833553, 0.0, 1.5, 1.0), 0, 0.5, image_id="a")],
             [GroundTruth(Box(-0.8136673641756679, 0.0, 0.3096947662783356, 1.0), 0, "a")],
             0.5, 1 << 14)
    def test_equals_the_per_group_oracle(self, dets, gts, thresh, chunk):
        # Ties are everywhere: grid corners give duplicate boxes and equal
        # IoUs, and scores come from a few values (-0.0 among them).  Class 3
        # and image "c" have no truths; a non-finite truth corner sends its
        # group down the all-pairs path, and a NaN x1 must not disturb the
        # windows of the groups after it.  A small chunk splits the pairs.
        # In the one-truth example, the truth's x2 lies one ulp right of the
        # detection's x1, and that x1 minus the truth's width rounds to
        # above the truth's x1.
        with mock.patch.object(metrics, "_PAIR_CHUNK", chunk):
            for by_class in (True, False):
                got_f = array_match(dets, gts, thresh, by_class)
                _, want_f = oracle_match(dets, gts, thresh, by_class)
                assert got_f.tolist() == want_f.tolist()
            assert map_and_mrecall(dets, gts, thresh) == oracle_summary(dets, gts, thresh)
            want_ap = oracle_summary([d._replace(class_id=0) for d in dets],
                                     [g._replace(class_id=0) for g in gts], thresh)
            assert average_precision(dets, gts, thresh) == (want_ap.map if dets else 0.0)

    @settings(max_examples=100, deadline=None)
    @given(_dense_image(), st.sampled_from([0.1, 0.5, 0.75]), st.sampled_from([3, 1 << 14]))
    def test_dense_image_equals_the_per_group_oracle(self, image, thresh, chunk):
        # One (class, image) group of many boxes: equal boxes and IoUs make
        # long tied score blocks, and each claim re-scores chains of rows.
        dets, gts = image
        with mock.patch.object(metrics, "_PAIR_CHUNK", chunk):
            _, want_f = oracle_match(dets, gts, thresh)
            assert array_match(dets, gts, thresh).tolist() == want_f.tolist()
            assert map_and_mrecall(dets, gts, thresh) == oracle_summary(dets, gts, thresh)

    def test_wide_truth_far_to_the_left_matches(self):
        # The window of a detection reaches back by the widest truth of its
        # group: truth "a" starts 10 to the left of the detection's x1.
        gts = [GroundTruth(Box(0.0, 0.0, 100.0, 10.0), 0, "a"),
               GroundTruth(Box(90.0, 0.0, 100.0, 10.0), 0, "b")]
        dets = [Detection(Box(10.0, 0.0, 100.0, 10.0), 0, 0.9, image_id="a"),
                Detection(Box(10.0, 0.0, 100.0, 10.0), 0, 0.9, image_id="b")]
        flags = array_match(dets, gts, 0.5)
        assert flags.tolist() == [True, False]

    @staticmethod
    def crowded_image_pair_counts(extra):
        """The pairs given to ``_iou_pairs`` on one crowded image of 1k truths
        and 2k jittered detections, without and with the ``extra`` truth."""
        rng = np.random.default_rng(0)
        xy, wh = rng.uniform(0, 1900, size=(1000, 2)), rng.uniform(10, 90, size=(1000, 2))
        gts = [GroundTruth(Box(x, y, x + w, y + h), 0, "img")
               for (x, y), (w, h) in zip(xy.tolist(), wh.tolist())]
        shift, scores = rng.uniform(-4, 4, size=(2000, 2)).tolist(), rng.random(2000).round(2)
        dets = [Detection(Box(g.box.x1 + dx, g.box.y1 + dy, g.box.x2 + dx, g.box.y2 + dy), 0,
                          float(s), image_id="img")
                for g, (dx, dy), s in zip(gts * 2, shift, scores)]
        counts = []

        def counting(a, b):
            counts[-1] += len(a[0])
            return _iou_pairs(a, b)

        with mock.patch.object(metrics, "_iou_pairs", counting):
            for more in ([], [extra]):
                counts.append(0)
                summary = map_and_mrecall(dets, gts + more)
                assert summary.per_class[0].gt_count == 1000 + len(more)
        return counts

    def test_a_truth_that_cannot_overlap_adds_no_candidate_pair(self):
        # A truth with an infinite corner has no finite area, so it can match
        # nothing and must not widen any detection's window: the pairs whose
        # IoU is computed are the same with it and without it.
        far = GroundTruth(Box(100.0, 100.0, math.inf, 150.0), 0, "img")
        plain, with_far = self.crowded_image_pair_counts(far)
        assert plain == with_far

    def test_a_wide_truth_widens_windows_only_to_the_threshold_bound(self):
        # A truth of IoU >= 0.5 is at most twice a detection's width, so one
        # finite truth 1,900 px wide widens a window by at most that, not by
        # its own width: the pairs whose IoU is computed grow by under a
        # quarter.
        wide = GroundTruth(Box(0.0, 0.0, 1900.0, 20.0), 0, "img")
        plain, with_wide = self.crowded_image_pair_counts(wide)
        assert with_wide < 1.25 * plain


def _ordered_corners(a, b, c, d):
    def ends(p, q):
        return (p, q) if p != p or q != q or q >= p else (q, p)  # NaN stays put

    (x1, x2), (y1, y2) = ends(a, b), ends(c, d)
    return x1, y1, x2, y2


_WRITE_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.integers(-10**6, 10**6), st.sampled_from([-0.0, 0.0, 1e16, 1e-7]),
                          st.floats(-1e3, 1e3).map(np.float64))
_WRITE_BOX = st.tuples(_WRITE_NUMBER, _WRITE_NUMBER, _WRITE_NUMBER, _WRITE_NUMBER).map(
    lambda v: _ordered_corners(*v))
_WRITE_CLASS = st.one_of(st.integers(-3, 10**20), st.booleans())
_WRITE_SCORE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, 1.0]),
                         st.floats(0.0, 1.0).map(np.float64))
_WRITE_ID = st.one_of(st.just(""), st.text(max_size=4), st.sampled_from(["sc\u00e8ne", 'a"b\\']),
                      st.integers(0, 2))


def reference_parse_record(line, scored):
    """The reader's checks spelled as a plain sequence on the public constructors."""
    try:
        rec = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if type(rec) is not dict:
        raise ValueError(f"record must be a JSON object, got {type(rec).__name__}")

    def finite(values, what):
        if not all(type(v) in (float, int) for v in values):
            raise ValueError(f"{what} must be numbers, got {values!r}")
        try:
            out = [float(v) for v in values]
        except OverflowError:
            out = [math.inf]
        if not all(math.isfinite(v) for v in out):
            raise ValueError(f"{what} must be finite, got {values!r}")
        return out

    def string(key):
        value = rec.get(key, "")
        if type(value) is not str:
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value

    box = rec.get("box")
    if type(box) is not list or len(box) != 4:
        raise ValueError(f"box must be a list of 4 numbers, got {box!r}")
    corners = Box(*finite(box, "box coordinates"))
    class_id = rec.get("class_id")
    if type(class_id) is float and class_id.is_integer():
        class_id = int(class_id)
    if type(class_id) is not int:
        raise ValueError(f"class_id must be an integer, got {class_id!r}")
    image_id = string("image_id")
    if not scored:
        return GroundTruth(corners, class_id, image_id)
    (score,) = finite([rec.get("score", 1.0)], "score")
    return Detection(corners, class_id, score, string("source"), image_id)


_JSON_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.integers(-10**20, 10**20), st.just(10**400),
                         st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]))
_JSON_OTHER = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                        st.lists(_JSON_NUMBER, max_size=5))
_JSON_BOX = st.one_of(
    st.lists(st.one_of(st.integers(-9, 9), st.floats(-9.0, 9.0)), min_size=4, max_size=4),
    st.lists(st.one_of(_JSON_NUMBER, _JSON_OTHER), min_size=4, max_size=4),
    _JSON_NUMBER, _JSON_OTHER)
_JSON_RECORD = st.fixed_dictionaries({}, optional={
    "box": _JSON_BOX,
    "class_id": st.one_of(st.integers(-3, 3), _JSON_NUMBER, _JSON_OTHER),
    "score": st.one_of(st.floats(0.0, 1.0), _JSON_NUMBER, _JSON_OTHER),
    "image_id": st.one_of(st.text(max_size=3), _JSON_OTHER),
    "source": st.one_of(st.text(max_size=3), _JSON_OTHER),
})
_LINE = st.one_of(
    st.builds(lambda rec, pre, post: pre + json.dumps(rec) + post, _JSON_RECORD,
              st.sampled_from(["", "", " ", "\t", "\ufeff"]),
              st.sampled_from(["\n", "\n", "", " \n", "\r\n", " \x0b\n", " {}\n", ",\n"])),
    st.builds(lambda v: json.dumps(v) + "\n", st.one_of(_JSON_NUMBER, _JSON_OTHER)),
    st.sampled_from(["{not json\n", "[" * 3000 + "\n", '{"box": [0, 0, 1, 1], "class_id": 0'
                     ', "x": ' + "[" * 100000 + "\n"]),
)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        gts, dets = random_fixture(rng, classes=2, image_ids=("img1", "img2"))
        dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_detections_jsonl(dets, dpath)
        write_groundtruths_jsonl(gts, gpath)
        assert read_detections_jsonl(dpath) == dets
        assert read_groundtruths_jsonl(gpath) == gts

    def test_byte_identical_rewrite(self, tmp_path):
        dets = [Detection(b(0, 0, 10, 10), 0, 0.25, source="m1", image_id="s")]
        p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        write_detections_jsonl(dets, p1)
        write_detections_jsonl(dets, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "line",
        [
            '[1, 2, 3, 4]',                                        # not an object
            '"box"',
            '{"box": [0, 0, 10], "class_id": 0}',                  # 3 coordinates
            '{"box": [0, 0, 10, 10, 5], "class_id": 0}',
            '{"box": "0 0 10 10", "class_id": 0}',
            '{"box": [0, 0, "10", 10], "class_id": 0}',
            '{"box": [0, 0, true, 10], "class_id": 0}',
            '{"box": [0, NaN, 10, 10], "class_id": 0}',            # non-finite
            '{"box": [0, 0, Infinity, 10], "class_id": 0}',
            '{"box": [0, 0, 1' + '0' * 400 + ', 10], "class_id": 0}',
            '{"box": [0, 0, 10, 10]}',                             # no class
            '{"box": [0, 0, 10, 10], "class_id": 1.5}',
            '{"box": [0, 0, 10, 10], "class_id": "1"}',
            '{"box": [0, 0, 10, 10], "class_id": 0, "image_id": 7}',
            '{"box": [0, 0, 10, 10], "class_id": 0, "score": NaN}',
            '{"box": [0, 0, 10, 10], "class_id": 0, "score": [0.5]}',
            '{"box": [0, 0, 10, 10], "class_id": 0, "source": null}',
            '{"box": [10, 0, 0, 10], "class_id": 0}',              # corner order
            '[' * 100000,
        ],
    )
    def test_malformed_record_is_value_error(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"box": [0, 0, 1, 1], "class_id": 0}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_detections_jsonl(path)
        if '"score"' not in line and '"source"' not in line:
            with pytest.raises(ValueError, match="line 2"):
                read_groundtruths_jsonl(path)

    @pytest.mark.parametrize("kind", ["detections", "groundtruths"])
    def test_failed_write_leaves_no_file(self, tmp_path, kind):
        # A finite record, then one that JSON cannot hold: no file stays,
        # neither a new one nor the one the path held before.
        dets = [Detection(b(0, 0, 1, 1), 0, 0.5), Detection(b(0, 0, math.nan, 1), 0, 0.5)]
        records = dets if kind == "detections" else [GroundTruth(d.box, 0) for d in dets]
        write = write_detections_jsonl if kind == "detections" else write_groundtruths_jsonl
        path = tmp_path / "out.jsonl"
        write(records[:1], path)
        with pytest.raises(ValueError, match="cannot write a NaN or infinite"):
            write(records, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="cannot write a NaN or infinite"):
            write(records, path)
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_WRITE_BOX, _WRITE_CLASS, _WRITE_SCORE, _WRITE_ID, _WRITE_ID),
                    max_size=6))
    def test_lines_are_json_dumps_of_the_record(self, tmp_path_factory, rows):
        # Records with finite corners are written as json.dumps spells them;
        # a NaN or infinite corner, which no reader accepts, raises
        # ValueError naming the first such record.
        dets = [Detection(Box(*corners), *rest) for corners, *rest in rows]
        gts = [GroundTruth(d.box, d.class_id, d.image_id) for d in dets]
        path = tmp_path_factory.mktemp("jsonl") / "out.jsonl"

        def check(write, records, recs):
            finite = [all(map(math.isfinite, r.box)) for r in records]
            write([r for r, ok in zip(records, finite) if ok], path)
            assert path.read_bytes() == "".join(
                json.dumps(rec, sort_keys=True) + "\n" for rec, ok in zip(recs, finite) if ok
            ).encode()
            if not all(finite):
                with pytest.raises(ValueError, match="cannot write a NaN or infinite") as exc:
                    write(records, path)
                assert str(recs[finite.index(False)]) in str(exc.value)

        def rec(r, score=None, source=""):
            out = {"box": list(r.box), "class_id": r.class_id}
            out.update({"image_id": r.image_id} if r.image_id else {})
            out.update({} if score is None else {"score": score})
            out.update({"source": source} if source else {})
            return out

        check(write_detections_jsonl, dets, [rec(d, d.score, d.source) for d in dets])
        check(write_groundtruths_jsonl, gts, [rec(g) for g in gts])

    @settings(max_examples=500, deadline=None)
    @given(_LINE, st.booleans())
    @example('{"box": [0, 0, 1, 1], "class_id": 0, "score": 1.5, "source": 5}\n', True)
    @example('{"box": [0, 0, 1, 1], "class_id": 0, "score": 1e400, "image_id": 5}\n', True)
    @example('{"box": [1, 0, 0, 1e400], "class_id": 0.5}\n', False)
    @example('\ufeff{"box": [0, 0, 1, 1], "class_id": 0}\n', False)
    @example('{"box": [0, 0, 1, 1], "class_id": 0} \x0b\n', True)
    @example('{"box": [0, 0, 1, 1], "class_id": 0}\t\r\n', True)
    def test_parser_equals_reference(self, line, scored):
        got = _outcome(_parse_record, line, scored)
        want = _outcome(reference_parse_record, line, scored)
        assert (got if isinstance(got, str) else repr(got)) == (
            want if isinstance(want, str) else repr(want))

    def test_integral_float_class_id_and_default_score(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"box": [0, 0, 1, 2.5], "class_id": 3.0}\n\n')
        (d,) = read_detections_jsonl(path)
        assert d == Detection(b(0, 0, 1, 2.5), 3, 1.0)
        assert type(d.class_id) is int


# ---------------------------------------------------------------------------
# Records: tuple records that behave as the frozen dataclasses they replaced.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DataclassBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"box corners out of order: {self}")


@dataclass(frozen=True)
class _DataclassDetection:
    box: _DataclassBox
    class_id: int
    score: float
    source: str = ""
    image_id: str = ""

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class _DataclassGroundTruth:
    box: _DataclassBox
    class_id: int
    image_id: str = ""


@dataclass(frozen=True)
class _DataclassTileSpec:
    origin_x: float
    origin_y: float
    tile_w: float
    tile_h: float


# The dataclass repr names the class by its qualified name.
for _cls, _name in ((_DataclassBox, "Box"), (_DataclassDetection, "Detection"),
                    (_DataclassGroundTruth, "GroundTruth"), (_DataclassTileSpec, "TileSpec")):
    _cls.__qualname__ = _name

_coord = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-10**6, 10**6), st.sampled_from([0.0, -0.0, 1.0, 1.5]))
_score = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(0.0, 1.0), st.sampled_from([0, 1, 0.0, -0.0, 1.0]))


def _outcome(make, *args):
    """The record, or the ValueError message."""
    try:
        return make(*args)
    except ValueError as exc:
        return str(exc)


class TestRecords:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_coord, _coord, _coord, _coord))
    def test_box_matches_the_dataclass(self, v):
        got, want = _outcome(Box, *v), _outcome(_DataclassBox, *v)
        if isinstance(want, str):  # out-of-order corners, today's message
            assert got == want and want.startswith("box corners out of order: Box(x1=")
            return
        assert repr(got) == repr(want)
        assert hash(got) == hash(want) == hash(Box(*v)) == hash(v)
        assert got == Box(*v) == v and isinstance(got, tuple)
        assert repr(got.area) == repr((v[2] - v[0]) * (v[3] - v[1]))
        assert got._replace(x1=v[0]) == got and Box._make(v) == got

    @settings(max_examples=300, deadline=None)
    @given(_score, st.integers(-3, 3), st.text(max_size=4), st.text(max_size=4))
    def test_detection_matches_the_dataclass(self, score, cls, source, image):
        got = _outcome(Detection, Box(0.0, 1.0, 2.0, 3.0), cls, score, source, image)
        want = _outcome(_DataclassDetection, _DataclassBox(0.0, 1.0, 2.0, 3.0), cls, score,
                        source, image)
        if isinstance(want, str):  # a score outside [0, 1] or NaN, today's message
            assert got == want == f"score must be in [0, 1], got {score}"
            return
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert got == Detection(Box(0.0, 1.0, 2.0, 3.0), cls, score, source, image)
        assert got == ((0.0, 1.0, 2.0, 3.0), cls, score, source, image)

    def test_defaults_and_plain_records(self):
        box = Box(1.0, 2.0, 3.0, 5.0)
        assert repr(Detection(box, 2, 0.5)) == repr(
            _DataclassDetection(_DataclassBox(1.0, 2.0, 3.0, 5.0), 2, 0.5))
        assert repr(GroundTruth(box, 4)) == repr(
            _DataclassGroundTruth(_DataclassBox(1.0, 2.0, 3.0, 5.0), 4))
        assert repr(TileSpec(0.0, 620.0, 700, 700)) == repr(
            _DataclassTileSpec(0.0, 620.0, 700, 700))
        assert GroundTruth(box, 4, "a") == (box, 4, "a")
        assert hash(TileSpec(0.0, 1.0, 2.0, 3.0)) == hash((0.0, 1.0, 2.0, 3.0))

    @pytest.mark.parametrize("record", [
        Box(0.0, 0.0, 1.0, 1.0),
        Detection(Box(0.0, 0.0, 1.0, 1.0), 0, 0.5, "m", "img"),
        GroundTruth(Box(0.0, 0.0, 1.0, 1.0), 0, "img"),
        TileSpec(0.0, 0.0, 10.0, 10.0),
    ])
    def test_immutable(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 2.0)
        assert not hasattr(record, "__dict__")

    def test_replace_and_make_check_values(self):
        box = Box(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="box corners out of order"):
            box._replace(x2=-1.0)
        with pytest.raises(ValueError, match="box corners out of order"):
            Box._make([0.0, 2.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"score must be in \[0, 1\], got 1.5"):
            Detection(box, 0, 0.5)._replace(score=1.5)
        with pytest.raises(ValueError, match="got nan"):
            Detection._make([box, 0, math.nan])
