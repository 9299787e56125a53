"""Geometry tests: tiling coverage, clipping, and TTA round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.geometry import (
    MAX_TILES,
    SceneDims,
    TileSpec,
    TtaKind,
    TtaOp,
    TtaTransform,
    apply_tta,
    clip_boxes_to_tile,
    invert_tta,
    tile_axis_counts,
    tile_grid,
    tile_to_scene,
    transformed_dims,
    _axis_count,
    _axis_positions,
)
from rfl_lab.metrics import Box, Detection


def det(x1, y1, x2, y2, **kw):
    kw.setdefault("class_id", 0)
    kw.setdefault("score", 0.5)
    return Detection(Box(x1, y1, x2, y2), **kw)


class TestTileGrid:
    def test_exact_fit_single_tile(self):
        tiles = tile_grid(SceneDims(700, 700), 700, 80)
        assert tiles == [TileSpec(0.0, 0.0, 700, 700)]

    def test_two_column_exact_cover(self):
        tiles = tile_grid(SceneDims(1320, 700), 700, 80)
        assert [(t.origin_x, t.origin_y) for t in tiles] == [(0.0, 0.0), (620.0, 0.0)]

    def test_clamped_square_grid(self):
        tiles = tile_grid(SceneDims(1000, 1000), 700, 80)
        assert len(tiles) == 4
        origins = {(t.origin_x, t.origin_y) for t in tiles}
        assert origins == {(0.0, 0.0), (300.0, 0.0), (0.0, 300.0), (300.0, 300.0)}
        # Clamped stride leaves 400 overlap, above the requested 80.
        assert tile_axis_counts(SceneDims(1000, 1000), 700, 80) == (2, 2)

    def test_small_scene_clamps_tile(self):
        tiles = tile_grid(SceneDims(300, 900), 700, 80)
        assert len(tiles) == 2
        assert all(t.tile_w == 300 and t.tile_h == 700 for t in tiles)

    def test_errors(self):
        with pytest.raises(ValueError):
            tile_grid(SceneDims(100, 100), 50, 50)
        with pytest.raises(ValueError):
            tile_grid(SceneDims(100, 100), 50, -1)
        with pytest.raises(ValueError):
            tile_grid(SceneDims(100, 100), 0, 0)

    def test_grid_size_limit(self):
        assert MAX_TILES == 4_000_000
        assert tile_axis_counts(SceneDims(2000, 2000), 1.0, 0.0) == (2000, 2000)
        for scene, overlap in ((SceneDims(2001, 2000), 0.0), (SceneDims(1e4, 1e4), 0.99),
                               (SceneDims(1e308, 1.0), 0.5)):
            with pytest.raises(ValueError, match="more than 4000000 tiles"):
                tile_grid(scene, 1.0, overlap)
            with pytest.raises(ValueError, match="more than 4000000 tiles"):
                tile_axis_counts(scene, 1.0, overlap)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(0.0, 0.99), st.floats(0.01, 60.0),
           st.sampled_from([None, 1, 2]))
    def test_arithmetic_axis_count_within_one(self, tile, frac, rel, decimals):
        # Rounded inputs hit the exact-multiple cases where the loop rounds.
        dim, overlap = tile * rel, tile * frac
        if decimals is not None:
            tile, overlap, dim = (round(v, decimals) for v in (tile, overlap, dim))
        if not (0.0 <= overlap < tile and dim > 0.0):
            return
        positions, _ = _axis_positions(dim, tile, overlap)
        assert abs(_axis_count(dim, tile, overlap) - len(positions)) <= 1

    def test_coverage_and_overlap_random(self):
        rng = np.random.default_rng(99)
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
                assert pos[0] == 0.0
                assert pos[-1] + size >= dim  # far edge covered
                for a, b in zip(pos, pos[1:]):
                    assert b <= a + size  # no gap between consecutive tiles
                    assert a + size - b >= overlap  # requested overlap held
                assert all(p + size <= dim + 1e-9 for p in pos)


class TestClipBoxes:
    TILE = TileSpec(100, 100, 50, 50)

    def test_inside_translated(self):
        out = clip_boxes_to_tile([det(110, 110, 120, 130)], self.TILE)
        assert out[0].box == Box(10, 10, 20, 30)

    def test_outside_dropped(self):
        assert clip_boxes_to_tile([det(0, 0, 50, 50)], self.TILE) == []

    def test_half_visible_threshold(self):
        # Box straddles the tile edge with exactly half its area inside.
        boxes = [det(90, 110, 110, 120)]
        assert clip_boxes_to_tile(boxes, self.TILE, min_visibility=0.6) == []
        kept = clip_boxes_to_tile(boxes, self.TILE, min_visibility=0.4)
        assert kept[0].box == Box(0, 10, 10, 20)

    def test_round_trip_interior_boxes(self):
        rng = np.random.default_rng(5)
        tile = TileSpec(620.0, 0.0, 700.0, 700.0)
        for _ in range(200):
            x, y = rng.uniform(625, 1300), rng.uniform(5, 680)
            w, h = rng.uniform(1, 15), rng.uniform(1, 15)
            d = det(x, y, min(x + w, 1319.0), min(y + h, 699.0))
            local = clip_boxes_to_tile([d], tile)
            assert len(local) == 1
            back = tile_to_scene(local, tile)[0]
            assert back.box == d.box  # exact: translation by the same origin

    def test_tile_at_origin_is_identity(self):
        d = det(1, 2, 3, 4)
        assert tile_to_scene([d], TileSpec(0.0, 0.0, 10, 10))[0].box == d.box

    def test_translation(self):
        out = tile_to_scene([det(0, 0, 10, 10)], TileSpec(620.0, 0.0, 700, 700))
        assert out[0].box == Box(620, 0, 630, 10)


SCENE = SceneDims(100, 100)
NINETY_FAMILY = [TtaTransform.parse(t) for t in (
    "identity", "fliph", "rot90", "rot180", "rot270", "rot90+fliph", "rot270+rot270")]
ROT90 = TtaTransform.parse("rot90")


def random_grid_boxes(rng, n, w, h):
    """Boxes on a quarter-pixel grid (exactly representable coordinates)."""
    out = []
    for _ in range(n):
        x1 = rng.integers(0, 4 * (w - 2)) / 4.0
        y1 = rng.integers(0, 4 * (h - 2)) / 4.0
        x2 = min(w, x1 + rng.integers(1, 60) / 4.0)
        y2 = min(h, y1 + rng.integers(1, 60) / 4.0)
        out.append(det(float(x1), float(y1), float(x2), float(y2)))
    return out


class TestTta:
    def test_identity(self):
        d = det(10, 20, 30, 40)
        assert apply_tta([d], SCENE, TtaTransform())[0].box == d.box

    def test_rot90_fixture(self):
        out = apply_tta([det(10, 20, 30, 40)], SCENE, ROT90)
        assert out[0].box == Box(60, 10, 80, 30)

    def test_scale_fixture(self):
        out = apply_tta([det(1, 1, 2, 2)], SCENE, TtaTransform.parse("scale:2"))
        assert out[0].box == Box(2, 2, 4, 4)

    def test_dims_tracking(self):
        scene = SceneDims(200, 100)
        assert transformed_dims(scene, ROT90) == SceneDims(100, 200)
        assert transformed_dims(scene, TtaTransform.parse("scale:0.5")) == SceneDims(100, 50)
        combo = TtaTransform.parse("rot90+scale:2")
        assert transformed_dims(scene, combo) == SceneDims(200, 400)

    def test_rot90_four_times_is_identity(self):
        t = TtaTransform.parse("rot90+rot90+rot90+rot90")
        rng = np.random.default_rng(2)
        for d in random_grid_boxes(rng, 100, 100, 100):
            assert apply_tta([d], SCENE, t)[0].box == d.box

    def test_round_trip_exact_for_90_family(self):
        rng = np.random.default_rng(3)
        scene = SceneDims(700, 500)
        boxes = random_grid_boxes(rng, 200, 700, 500)
        for t in NINETY_FAMILY:
            fwd = apply_tta(boxes, scene, t)
            back = invert_tta(fwd, scene, t)
            for orig, rt in zip(boxes, back):
                assert rt.box == orig.box

    def test_scale_round_trip_within_1e9(self):
        rng = np.random.default_rng(4)
        scene = SceneDims(700, 500)
        boxes = random_grid_boxes(rng, 200, 700, 500)
        for factor in (0.8, 1.2, 0.7, 0.6, 3.0):
            t = TtaTransform.parse(f"scale:{factor}")
            back = invert_tta(apply_tta(boxes, scene, t), scene, t)
            for orig, rt in zip(boxes, back):
                for a, b in zip(
                    (rt.box.x1, rt.box.y1, rt.box.x2, rt.box.y2),
                    (orig.box.x1, orig.box.y1, orig.box.x2, orig.box.y2),
                ):
                    assert abs(a - b) < 1e-9

    def test_area_preservation(self):
        rng = np.random.default_rng(6)
        boxes = random_grid_boxes(rng, 50, 100, 100)
        for t in NINETY_FAMILY:
            for orig, moved in zip(boxes, apply_tta(boxes, SCENE, t)):
                assert moved.box.area == pytest.approx(orig.box.area, rel=1e-12)
        scaled = apply_tta(boxes, SCENE, TtaTransform.parse("scale:1.5"))
        for orig, moved in zip(boxes, scaled):
            assert moved.box.area == pytest.approx(orig.box.area * 2.25, rel=1e-12)

    def test_inverse_frame_derived_once_per_scene_and_transform(self, monkeypatch):
        # Equal but distinct scene and transform objects share one entry.
        calls = []
        inverse = TtaTransform.inverse
        monkeypatch.setattr(TtaTransform, "inverse",
                            lambda t: calls.append(t) or inverse(t))
        boxes = random_grid_boxes(np.random.default_rng(8), 20, 700, 500)
        t = TtaTransform.parse("rot90+scale:0.7+fliph")
        expected = apply_tta(boxes, transformed_dims(SceneDims(700, 500), t), inverse(t))
        for _ in range(3):
            back = invert_tta(boxes, SceneDims(700.0, 500.0), TtaTransform.parse(str(t)))
            assert [d.box for d in back] == [d.box for d in expected]
        assert len(calls) <= 1

    def test_inverse_of_identity(self):
        d = det(5, 5, 9, 9)
        assert invert_tta([d], SCENE, TtaTransform())[0].box == d.box

    def test_parse(self):
        assert TtaTransform.parse("rot90") == TtaTransform((TtaOp(TtaKind.ROT90),))
        assert TtaTransform.parse("identity") == TtaTransform()
        assert str(TtaTransform()) == "identity"
        combo = TtaTransform.parse("rot90+scale:1.2")
        assert combo.ops[0].kind.value == "rot90"
        assert combo.ops[1].factor == 1.2
        assert str(combo) == "rot90+scale:1.2"
        with pytest.raises(ValueError):
            TtaTransform.parse("rot45")
        with pytest.raises(ValueError):
            TtaTransform.parse("scale")


# ---------------------------------------------------------------------------
# Properties.  Floats are compared by repr, so -0.0 and NaN count too.
# ---------------------------------------------------------------------------

_ANY = st.floats(allow_nan=True, allow_infinity=True)
_SCORE = st.integers(0, 20).map(lambda k: k / 20)


def _any_box_det(a, b, c, d, score):
    # Box rejects only x2 < x1 or y2 < y1, a test NaN never fails, so a
    # NaN may stand at either end of an axis.
    def ends(p, q):
        return (p, q) if math.isnan(p) or math.isnan(q) else (min(p, q), max(p, q))

    (x1, x2), (y1, y2) = ends(a, b), ends(c, d)
    return det(x1, y1, x2, y2, score=score, source="s")


_ANY_DETS = st.lists(st.builds(_any_box_det, _ANY, _ANY, _ANY, _ANY, _SCORE), max_size=12)
_OP = st.one_of(
    st.sampled_from([TtaKind.IDENTITY, TtaKind.FLIP_H, TtaKind.ROT90,
                     TtaKind.ROT180, TtaKind.ROT270]).map(TtaOp),
    st.sampled_from([0.5, 1.25, 3.0, 1 / 3, 0.8]).map(
        lambda f: TtaOp(TtaKind.SCALE, f)),
)
_TRANSFORM = st.lists(_OP, max_size=4).map(lambda ops: TtaTransform(tuple(ops)))
_SIDE = st.floats(1e-3, 1e6)


def reference_apply_tta(dets, scene, t):
    """The plain loop: map both corners per op, point by point, and take
    the hull with the builtin min and max."""
    w, h = scene.width, scene.height
    out = list(dets)
    for op in t.ops:
        def point(x, y):
            return {
                TtaKind.IDENTITY: (x, y), TtaKind.FLIP_H: (w - x, y),
                TtaKind.ROT90: (h - y, x), TtaKind.ROT180: (w - x, h - y),
                TtaKind.ROT270: (y, w - x),
            }.get(op.kind) or (op.factor * x, op.factor * y)

        mapped = []
        for d in out:
            (ax, ay), (bx, by) = point(d.box.x1, d.box.y1), point(d.box.x2, d.box.y2)
            box = Box(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
            mapped.append(Detection(box, d.class_id, d.score, d.source, d.image_id))
        out = mapped
        if op.kind in (TtaKind.ROT90, TtaKind.ROT270):
            w, h = h, w
        elif op.kind is TtaKind.SCALE:
            w, h = op.factor * w, op.factor * h
    return out


class TestTtaProperties:
    @settings(max_examples=200, deadline=None)
    @given(_ANY_DETS, _SIDE, _SIDE, _TRANSFORM)
    def test_equals_reference_loop(self, dets, w, h, t):
        scene = SceneDims(w, h)
        assert repr(apply_tta(dets, scene, t)) == repr(reference_apply_tta(dets, scene, t))

    @settings(max_examples=200, deadline=None)
    @given(_ANY_DETS, _SIDE, _SIDE, _TRANSFORM, _TRANSFORM)
    def test_composition_equals_applying_in_turn(self, dets, w, h, t, u):
        scene = SceneDims(w, h)
        at_once = apply_tta(dets, scene, TtaTransform(t.ops + u.ops))
        in_turn = apply_tta(apply_tta(dets, scene, t), transformed_dims(scene, t), u)
        assert repr(at_once) == repr(in_turn)


def reference_clip(boxes, tile, min_visibility=1e-9):
    """The plain loop: clip every box, then test what is left."""
    out = []
    for d in boxes:
        x1 = max(d.box.x1, tile.origin_x)
        y1 = max(d.box.y1, tile.origin_y)
        x2 = min(d.box.x2, tile.origin_x + tile.tile_w)
        y2 = min(d.box.y2, tile.origin_y + tile.tile_h)
        if x2 <= x1 or y2 <= y1:
            continue
        original = d.box.area
        if original <= 0.0:
            continue
        if (x2 - x1) * (y2 - y1) / original < min_visibility:
            continue
        clipped = Box(x1 - tile.origin_x, y1 - tile.origin_y,
                      x2 - tile.origin_x, y2 - tile.origin_y)
        out.append(Detection(clipped, d.class_id, d.score, d.source, d.image_id))
    return out


_COORD = st.one_of(st.integers(-5, 25).map(float), st.floats(-5, 25), st.just(math.nan))


class TestClipProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(_any_box_det, _COORD, _COORD, _COORD, _COORD, _SCORE),
                    max_size=20),
           st.integers(0, 10).map(float), st.integers(0, 10).map(float),
           st.integers(1, 12).map(float), st.integers(1, 12).map(float),
           st.sampled_from([1e-9, 0.3, 0.5, 1.0]))
    def test_equals_reference_loop(self, dets, ox, oy, tw, th, min_visibility):
        tile = TileSpec(ox, oy, tw, th)
        assert repr(clip_boxes_to_tile(dets, tile, min_visibility)) == repr(
            reference_clip(dets, tile, min_visibility))

    def test_nan_corner_outside_on_its_axis_is_kept_as_before(self):
        # x2 is left of the tile, but the NaN x1 defeats the clipped-width
        # test, so the box is kept with a NaN corner, as the plain loop does.
        tile = TileSpec(100.0, 100.0, 50.0, 50.0)
        boxes = [det(math.nan, 110, 20, 120), det(0, 110, 20, 120)]
        out = clip_boxes_to_tile(boxes, tile)
        assert repr(out) == repr(reference_clip(boxes, tile))
        assert len(out) == 1 and math.isnan(out[0].box.x1)


class TestTileCoverProperties:
    def test_last_tile_reaches_a_rounded_far_edge(self):
        # 1.1 * 6 rounds up to 6.6000000000000005, and (h - 1.1) + 1.1 falls
        # one ulp short of it.
        h = 1.1 * 6.0
        tiles = tile_grid(SceneDims(1.1, h), 1.1, 0.0)
        assert max(t.origin_y + t.tile_h for t in tiles) >= h


    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 1000.0), st.floats(0.05, 12.0), st.floats(0.05, 12.0),
           st.floats(0.0, 0.75), st.data())
    def test_tiles_cover_points_and_small_boxes(self, tile, rw, rh, frac, data):
        w, h, overlap = tile * rw, tile * rh, tile * frac
        tiles = tile_grid(SceneDims(w, h), tile, overlap)

        def inside(t, x1, y1, x2, y2):
            return (t.origin_x <= x1 and x2 <= t.origin_x + t.tile_w
                    and t.origin_y <= y1 and y2 <= t.origin_y + t.tile_h)

        for _ in range(5):
            px = data.draw(st.one_of(st.just(0.0), st.just(w), st.floats(0.0, w)))
            py = data.draw(st.one_of(st.just(0.0), st.just(h), st.floats(0.0, h)))
            assert any(inside(t, px, py, px, py) for t in tiles), (px, py)
        for _ in range(5):
            bw = data.draw(st.floats(0.0, min(overlap, w)))
            bh = data.draw(st.floats(0.0, min(overlap, h)))
            x1 = data.draw(st.floats(0.0, w - bw))
            y1 = data.draw(st.floats(0.0, h - bh))
            x2, y2 = min(x1 + bw, w), min(y1 + bh, h)
            assert any(inside(t, x1, y1, x2, y2) for t in tiles), (x1, y1, x2, y2)
