"""Fusion tests: spec fixtures, idempotence, hull containment, TTA passes,
and hypothesis properties against a plain-loop reference."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.ensemble import (
    FusionConfig,
    ScoreMode,
    fuse,
)
from rfl_lab.geometry import SceneDims, TtaTransform, apply_tta, invert_tta
from rfl_lab.metrics import Box, Detection, iou


def det(x1, y1, x2, y2, score=0.5, cls=0, source="m", image_id=""):
    return Detection(Box(x1, y1, x2, y2), cls, score, source, image_id)


def sort_key(d):
    return (d.class_id, -d.score, d.box.x1, d.box.y1)


class TestFuse:
    def test_single_source_disjoint_is_fixpoint(self):
        dets = [
            det(0, 0, 10, 10, 0.9),
            det(50, 50, 60, 60, 0.7),
            det(0, 40, 8, 46, 0.4),
        ]
        out = fuse(dets, FusionConfig(min_votes=1))
        assert sorted(out, key=sort_key) == sorted(dets, key=sort_key)

    def test_identical_boxes_mean_score(self):
        dets = [
            det(5, 5, 15, 15, 0.6, source="a"),
            det(5, 5, 15, 15, 0.8, source="b"),
        ]
        out = fuse(dets, FusionConfig())
        assert len(out) == 1
        assert out[0].box == Box(5, 5, 15, 15)
        assert out[0].score == pytest.approx(0.7, rel=1e-12)
        assert out[0].source == "b+a"  # higher score processed first

    def test_weighted_corner_fixture(self):
        # Corners average with score weights: (0*0.6 + 1*0.2) / 0.8 = 0.25.
        dets = [
            det(0, 0, 10, 10, 0.6, source="a"),
            det(1, 1, 11, 11, 0.2, source="b"),
        ]
        out = fuse(dets, FusionConfig(iou_thresh=0.5))
        assert len(out) == 1
        bb = out[0].box
        assert (bb.x1, bb.y1, bb.x2, bb.y2) == (0.25, 0.25, 10.25, 10.25)
        assert out[0].score == pytest.approx(0.4, rel=1e-12)

    def test_max_and_weighted_mean_modes(self):
        dets = [
            det(0, 0, 10, 10, 0.6, source="a"),
            det(0, 0, 10, 10, 0.2, source="b"),
        ]
        out = fuse(dets, FusionConfig(score_mode=ScoreMode.MAX))
        assert out[0].score == 0.6
        cfg = FusionConfig(
            score_mode=ScoreMode.WEIGHTED_MEAN, source_weights={"a": 3.0, "b": 1.0}
        )
        out = fuse(dets, cfg)
        assert out[0].score == pytest.approx((3 * 0.6 + 1 * 0.2) / 4, rel=1e-12)

    def test_min_votes_counts_distinct_sources(self):
        dets = [
            det(0, 0, 10, 10, 0.9, source="a"),
            det(0, 0, 10, 10, 0.8, source="a"),
        ]
        assert fuse(dets, FusionConfig(min_votes=2)) == []
        dets[1] = det(0, 0, 10, 10, 0.8, source="b")
        assert len(fuse(dets, FusionConfig(min_votes=2))) == 1

    def test_classes_never_mix(self):
        dets = [
            det(0, 0, 10, 10, 0.9, cls=0),
            det(0, 0, 10, 10, 0.8, cls=1),
        ]
        out = fuse(dets, FusionConfig())
        assert len(out) == 2
        assert {d.class_id for d in out} == {0, 1}

    def test_images_never_mix(self):
        dets = [
            det(0, 0, 10, 10, 0.9, source="a", image_id="img1"),
            det(0, 0, 10, 10, 0.8, source="b", image_id="img2"),
        ]
        assert fuse(dets, FusionConfig(min_votes=2)) == []
        out = fuse(dets, FusionConfig(min_votes=1))
        assert out == dets

    def test_join_follows_the_moving_fused_box(self):
        # b moves the fused box to (4, 0, 14, 10); c touches a's box only at
        # x = 10 but overlaps the fused box with IoU 0.25.
        dets = [
            det(0, 0, 10, 10, 0.5, source="a"),
            det(8, 0, 18, 10, 0.5, source="b"),
            det(10, 0, 20, 10, 0.4, source="c"),
        ]
        (out,) = fuse(dets, FusionConfig(iou_thresh=0.1))
        assert out.source == "a+b+c"

    def test_multi_image_output_order(self):
        # Class id, then image id, then cluster creation (score) order.
        dets = [
            det(0, 0, 10, 10, 0.3, cls=1, image_id="b"),
            det(50, 50, 60, 60, 0.9, cls=1, image_id="a"),
            det(0, 0, 10, 10, 0.5, cls=0, image_id="b"),
            det(0, 0, 10, 10, 0.2, cls=1, image_id="a"),
            det(50, 50, 60, 60, 0.7, cls=0, image_id="a"),
        ]
        out = fuse(dets, FusionConfig())
        assert out == [dets[4], dets[2], dets[1], dets[3], dets[0]]

    def test_output_never_larger_than_input(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dets = random_dets(rng)
            out = fuse(dets, FusionConfig(iou_thresh=0.4))
            assert len(out) <= len(dets)

    def test_idempotent_when_clusters_separated(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(100):
            dets = random_dets(rng)
            once = fuse(dets, FusionConfig(iou_thresh=0.55))
            # Idempotence is claimed when the fused clusters are already
            # mutually below the IoU threshold.
            if _any_cross_iou(once, 0.55):
                continue
            assert fuse(once, FusionConfig(iou_thresh=0.55)) == once
            checked += 1
        assert checked >= 50

    def test_hull_containment(self):
        # Unique source tags make cluster membership recoverable from the
        # fused detection's joined source string.
        rng = np.random.default_rng(2)
        for _ in range(50):
            dets = random_dets(rng, unique_sources=True)
            cfg = FusionConfig(iou_thresh=0.4)
            for fused in fuse(dets, cfg):
                tags = set(fused.source.split("+"))
                members = [d for d in dets if d.source in tags]
                assert len(members) == len(tags)
                xs1 = [m.box.x1 for m in members]
                ys1 = [m.box.y1 for m in members]
                xs2 = [m.box.x2 for m in members]
                ys2 = [m.box.y2 for m in members]
                assert min(xs1) - 1e-9 <= fused.box.x1 <= max(xs1) + 1e-9
                assert min(ys1) - 1e-9 <= fused.box.y1 <= max(ys1) + 1e-9
                assert min(xs2) - 1e-9 <= fused.box.x2 <= max(xs2) + 1e-9
                assert min(ys2) - 1e-9 <= fused.box.y2 <= max(ys2) + 1e-9

    def test_cluster_membership_invariant_to_score_rescale(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dets = random_dets(rng)
            cfg = FusionConfig(iou_thresh=0.5)
            base = fuse(dets, cfg)
            scaled = [
                Detection(d.box, d.class_id, d.score * 0.5, d.source, d.image_id)
                for d in dets
            ]
            out = fuse(scaled, cfg)
            assert len(out) == len(base)
            for a, b in zip(out, base):
                assert a.source == b.source
                assert a.score == pytest.approx(b.score * 0.5, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(iou_thresh=0.0)
        with pytest.raises(ValueError):
            FusionConfig(min_votes=0)
        with pytest.raises(ValueError):
            FusionConfig(source_weights={"a": -1.0})

    @pytest.mark.parametrize("weight", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_non_finite_or_non_positive_weight_names_the_source(self, weight):
        with pytest.raises(ValueError, match="source 'cam2'"):
            FusionConfig(source_weights={"cam1": 1.0, "cam2": weight})


def _any_cross_iou(dets, thr):
    from rfl_lab.metrics import iou as _iou

    for i, a in enumerate(dets):
        for b in dets[i + 1:]:
            if a.class_id == b.class_id and _iou(a.box, b.box) >= thr:
                return True
    return False


def random_dets(rng, n_sources=3, unique_sources=False):
    dets = []
    for s in range(n_sources):
        for _ in range(rng.integers(1, 6)):
            x, y = rng.uniform(0, 80, size=2)
            w, h = rng.uniform(4, 15, size=2)
            tag = f"m{s}_{len(dets)}" if unique_sources else f"m{s}"
            dets.append(
                det(
                    x, y, x + w, y + h,
                    score=round(float(rng.uniform(0.05, 1.0)), 2),
                    cls=int(rng.integers(2)),
                    source=tag,
                )
            )
    return dets


def _dets_strategy(sources: tuple[str, ...]):
    """Crowded boxes on a coarse grid over two images and two classes."""
    coord = st.integers(0, 12).map(float)
    one = st.builds(
        lambda x, y, w, h, score, cls, image, source: det(
            x, y, x + w, y + h, score, cls, source, image
        ),
        coord, coord, st.integers(1, 6).map(float), st.integers(1, 6).map(float),
        st.integers(0, 20).map(lambda k: k / 20), st.integers(0, 1),
        st.sampled_from(["img1", "img2"]), st.sampled_from(sources),
    )
    return st.lists(one, max_size=30)


class _RefCluster:
    """A cluster's members and its running score-weighted mean box."""

    def __init__(self, d):
        self.members = [d]
        self.weight_sum = d.score
        self.corners = [d.box.x1, d.box.y1, d.box.x2, d.box.y2]

    @property
    def fused(self):
        return Box(*self.corners)

    def add(self, d):
        # Centered incremental weighted mean; all-zero scores keep the first box.
        self.members.append(d)
        total = self.weight_sum + d.score
        if total > 0.0:
            f = d.score / total
            c = self.corners
            c[0] += f * (d.box.x1 - c[0])
            c[1] += f * (d.box.y1 - c[1])
            c[2] += f * (d.box.x2 - c[2])
            c[3] += f * (d.box.y2 - c[3])
        self.weight_sum = total

    def fused_detection(self, cfg):
        scores = [m.score for m in self.members]
        if cfg.score_mode is ScoreMode.MAX:
            score = max(scores)
        elif cfg.score_mode is ScoreMode.WEIGHTED_MEAN:
            weights = [cfg.source_weights.get(m.source, 1.0) for m in self.members]
            score = sum(w * s for w, s in zip(weights, scores)) / sum(weights)
        else:
            score = sum(scores) / len(scores)
        sources = []
        for m in self.members:
            if m.source not in sources:
                sources.append(m.source)
        first = self.members[0]
        return Detection(self.fused, first.class_id, score, "+".join(sources),
                         first.image_id)


def reference_fuse(dets, cfg):
    """The plain loop: each detection tests every cluster of its group."""
    groups = {}
    for idx, d in enumerate(dets):
        groups.setdefault((d.class_id, d.image_id), []).append((idx, d))
    out = []
    for key in sorted(groups):
        entries = sorted(groups[key], key=lambda e: (-e[1].score, e[1].source, e[0]))
        clusters = []
        for _, d in entries:
            for cluster in clusters:
                if iou(d.box, cluster.fused) >= cfg.iou_thresh:
                    cluster.add(d)
                    break
            else:
                clusters.append(_RefCluster(d))
        out += [c.fused_detection(cfg) for c in clusters
                if len({m.source for m in c.members}) >= cfg.min_votes]
    return out


class TestFuseProperties:
    @settings(max_examples=150, deadline=None)
    @given(_dets_strategy(("a", "b", "c")), st.integers(1, 3),
           st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    def test_equals_reference_loop(self, dets, min_votes, thr):
        cfg = FusionConfig(iou_thresh=thr, min_votes=min_votes)
        assert fuse(dets, cfg) == reference_fuse(dets, cfg)

    @settings(max_examples=150, deadline=None)
    @given(_dets_strategy(("a", "b", "c")), st.integers(1, 4),
           st.sampled_from([0.3, 0.5, 0.8]))
    def test_count_and_min_votes(self, dets, min_votes, thr):
        out = fuse(dets, FusionConfig(iou_thresh=thr, min_votes=min_votes))
        assert len(out) <= len(dets)
        for fused in out:
            assert len(set(fused.source.split("+"))) >= min_votes

    @settings(max_examples=150, deadline=None)
    @given(_dets_strategy(("m",)), st.sampled_from([0.3, 0.5, 0.8]))
    def test_clusters_never_mix_image_or_class(self, dets, thr):
        # Unique source tags make each cluster's members recoverable.
        dets = [
            Detection(d.box, d.class_id, d.score, f"m{i}", d.image_id)
            for i, d in enumerate(dets)
        ]
        by_tag = {d.source: d for d in dets}
        for fused in fuse(dets, FusionConfig(iou_thresh=thr)):
            members = [by_tag[tag] for tag in fused.source.split("+")]
            assert {(m.image_id, m.class_id) for m in members} == {
                (fused.image_id, fused.class_id)
            }

    @settings(max_examples=150, deadline=None)
    @given(_dets_strategy(("a", "b")), st.randoms(use_true_random=False),
           st.integers(1, 2))
    def test_distinct_scores_make_input_order_irrelevant(self, dets, rnd, min_votes):
        n = len(dets)
        dets = [
            Detection(d.box, d.class_id, (i + 1) / (n + 1), d.source, d.image_id)
            for i, d in enumerate(dets)
        ]
        shuffled = list(dets)
        rnd.shuffle(shuffled)
        cfg = FusionConfig(min_votes=min_votes)
        assert Counter(fuse(shuffled, cfg)) == Counter(fuse(dets, cfg))


def _dense_dets_strategy():
    """Dense groups over a wide coordinate range: a unit from 1e-3 to 1e9
    and an offset up to 1e12, fractional quarter-unit coordinates, sides
    of 0 to 8 units (so corners often fall on cell boundaries), and at
    times one huge box or two boxes with an infinite corner."""
    unit = st.sampled_from([1e-3, 0.37, 1.0, 3.0, 1e3, 1e9])
    offset = st.sampled_from([0.0, -1e6, 1e12])

    def build(unit, offset, cells, extra):
        dets = []
        for qx, qy, qw, qh, score, cls, image, source in cells:
            x1, y1 = offset + qx / 4 * unit, offset + qy / 4 * unit
            dets.append(det(x1, y1, x1 + qw * unit, y1 + qh * unit,
                            score, cls, source, image))
        if extra == "huge":
            dets.append(det(offset, offset, offset + 60 * unit, offset + 60 * unit,
                            0.5, 0, "a", "img1"))
        elif extra == "inf":  # two, so that an overlap can be infinite
            dets.append(det(offset, offset, math.inf, offset + 4 * unit,
                            0.5, 0, "b", "img1"))
            dets.append(det(offset + unit, offset, math.inf, offset + 4 * unit,
                            0.4, 0, "c", "img1"))
        return dets

    one = st.tuples(
        st.integers(0, 48), st.integers(0, 48), st.integers(0, 8), st.integers(0, 8),
        st.integers(0, 20).map(lambda k: k / 20), st.integers(0, 1),
        st.sampled_from(["img1", "img2"]), st.sampled_from(["a", "b", "c"]),
    )
    return st.builds(build, unit, offset, st.lists(one, max_size=60),
                     st.sampled_from([None, "huge", "inf"]))


class TestGridFusion:
    """The grid-indexed candidate search against the plain loop, by repr."""

    @settings(max_examples=300, deadline=None)
    @given(_dense_dets_strategy(), st.integers(1, 3), st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    def test_equals_reference_loop_on_dense_wide_input(self, dets, min_votes, thr):
        cfg = FusionConfig(iou_thresh=thr, min_votes=min_votes)
        assert repr(fuse(dets, cfg)) == repr(reference_fuse(dets, cfg))

    @settings(max_examples=150, deadline=None)
    @given(_dense_dets_strategy(), st.sampled_from(list(ScoreMode)), st.integers(1, 2),
           st.sampled_from([0.1, 0.5]))
    def test_score_modes_equal_reference_loop(self, dets, mode, min_votes, thr):
        cfg = FusionConfig(iou_thresh=thr, min_votes=min_votes, score_mode=mode,
                           source_weights={"a": 2.0, "c": 0.25})
        assert repr(fuse(dets, cfg)) == repr(reference_fuse(dets, cfg))

    def test_join_across_a_cell_boundary(self):
        # The largest side is 10, so x = 10 is a cell boundary: the first
        # box spans cell columns 0 and 1, the second columns 1 and 2.
        dets = [
            det(4, 0, 14, 10, 0.9, source="a"),
            det(10, 0, 20, 10, 0.8, source="b"),
            det(100, 100, 105, 105, 0.7, source="a"),
        ]
        cfg = FusionConfig(iou_thresh=0.2)  # the first two overlap with IoU 0.25
        out = fuse(dets, cfg)
        assert repr(out) == repr(reference_fuse(dets, cfg))
        assert [d.source for d in out] == ["a+b", "a"]

    def test_join_through_a_cell_the_fused_box_moved_into(self):
        # Cell side 10 (the far box).  The cluster opens in cell 0 only; the
        # second member moves its fused box to x 3.5..12.5, into cell 1,
        # where the third detection (cell 1 only) overlaps it by IoU 0.28.
        dets = [
            det(0, 0, 9, 9, 0.6, source="a"),
            det(7, 0, 16, 9, 0.6, source="b"),
            det(10, 0, 12.5, 9, 0.5, source="c"),
            det(100, 100, 110, 110, 0.1, source="a"),
        ]
        cfg = FusionConfig(iou_thresh=0.1)
        out = fuse(dets, cfg)
        assert repr(out) == repr(reference_fuse(dets, cfg))
        assert [d.source for d in out] == ["a+b+c", "a"]

    def test_moved_cluster_keeps_creation_order_in_its_new_cell(self):
        # Cell side 10 (the far box).  Cluster 0 (a) starts in column 0 and
        # cluster 1 (b) in column 1; c joins 0 and moves it to x 3.06..12.06,
        # into column 1.  d lies in column 1 only and passes both clusters
        # (IoU 0.105 and 0.67): the earlier-created cluster 0 must win.
        dets = [
            det(0, 0, 9, 9, 0.9, source="a"),
            det(12, 0, 19.5, 9, 0.8, source="b"),
            det(7, 0, 16, 9, 0.7, source="c"),
            det(10.5, 0, 18, 9, 0.6, source="d"),
            det(100, 100, 110, 110, 0.1, source="e"),
        ]
        cfg = FusionConfig(iou_thresh=0.1)
        out = fuse(dets, cfg)
        assert repr(out) == repr(reference_fuse(dets, cfg))
        assert [d.source for d in out] == ["a+c+d", "b", "e"]


def pool(scene, *passes):
    """Each (detections, transform text, source) pass mapped back into the
    scene frame by invert_tta and pooled: what ``rfl-lab fuse`` fuses."""
    return [d for dets, spec, source in passes
            for d in invert_tta(dets, scene, TtaTransform.parse(spec), source)]


class TestEnsemblePipeline:
    """invert_tta per pass, pooled, then fuse."""

    SCENE = SceneDims(100, 100)

    def test_identity_pass_equals_fuse(self):
        rng = np.random.default_rng(4)
        dets = random_dets(rng)
        cfg = FusionConfig(iou_thresh=0.5)
        assert fuse(pool(self.SCENE, (dets, "identity", "")), cfg) == fuse(dets, cfg)

    def test_rot90_pass_votes_align(self):
        base = [
            det(10, 10, 20, 20, 0.8, source="a"),
            det(40, 60, 55, 70, 0.6, source="a"),
        ]
        rotated = apply_tta(base, self.SCENE, TtaTransform.parse("rot90"))
        rotated = [
            Detection(d.box, d.class_id, d.score, "b", d.image_id) for d in rotated
        ]
        cfg = FusionConfig(iou_thresh=0.9, min_votes=2)
        out = fuse(pool(self.SCENE, (base, "identity", "a"), (rotated, "rot90", "b")), cfg)
        assert len(out) == 2
        got = sorted((d.box for d in out), key=lambda b: b.x1)
        want = sorted((d.box for d in base), key=lambda b: b.x1)
        assert got == want

    def test_unreachable_vote_threshold(self):
        dets = [det(0, 0, 10, 10, 0.9, source="a"), det(0, 0, 10, 10, 0.8, source="b")]
        passes = (dets[:1], "identity", "a"), (dets[1:], "identity", "b")
        out = fuse(pool(self.SCENE, *passes), FusionConfig(min_votes=3))
        assert out == []


def _golden_dets():
    """About 3k detections: 750 objects on four images and three classes,
    each seen by four sources with probability 0.8 and half-pixel jitter,
    plus 600 strays; scores take 20 values, so ties are everywhere."""
    rng = np.random.default_rng(1903)
    objects = np.concatenate([
        rng.integers(0, 400, size=(750, 2)) / 2,  # x1, y1
        rng.integers(8, 60, size=(750, 2)) / 2,  # w, h
        rng.integers(0, 3, size=(750, 1)),  # class
        rng.integers(0, 4, size=(750, 1)),  # image
    ], axis=1).tolist()
    rows = []
    for x, y, w, h, c, i in objects:
        for k in range(4):
            if rng.random() < 0.8:
                j = (rng.integers(-3, 4, size=4) / 2).tolist()
                rows.append((x + j[0], y + j[1], x + w + j[2], y + h + j[3], c, i, k))
    for x, y, w, h, c, i, k in rng.integers(0, 200, size=(600, 7)).tolist():
        rows.append((x, y, x + 4 + w % 30, y + 4 + h % 30, c % 3, i % 4, k % 4))
    scores = (rng.integers(1, 21, size=len(rows)) / 20).tolist()
    return [
        det(float(x1), float(y1), float(x2), float(y2), s, int(c), f"m{k}", f"img{int(i)}")
        for (x1, y1, x2, y2, c, i, k), s in zip(rows, scores)
    ]


# sha256 of repr(fuse(...)) for each score mode, computed with the
# per-cluster-object implementation that preceded the flat cluster lists.
GOLDEN_SHA256 = {
    ScoreMode.MEAN: "33b59cc3a519727494fa17713dff26b2e23088d5d91814f673f7b75aea93311c",
    ScoreMode.MAX: "e6c1e7199b20539cf55e56d9fd9a30d7c13a2e8993955eef1cd25029a2d9f32e",
    ScoreMode.WEIGHTED_MEAN:
        "46f4648a130d9508b9fe408081d0e1b07d2c2a1a356838133836f4f6e7e2880c",
}


class TestGoldenFusion:
    @pytest.mark.parametrize("mode", list(ScoreMode))
    def test_fused_output_is_pinned(self, mode):
        dets = _golden_dets()
        assert len(dets) == 2984
        cfg = FusionConfig(iou_thresh=0.5, min_votes=2, score_mode=mode,
                           source_weights={"m1": 2.0, "m3": 0.5})
        out = fuse(dets, cfg)
        assert len(out) == 701
        assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN_SHA256[mode]
        assert repr(out) == repr(reference_fuse(dets, cfg))
