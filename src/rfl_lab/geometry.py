"""Scene tiling and box-level test-time-augmentation transforms.

Tiling covers a continuous scene rectangle with fixed-size square crops
laid out on a stride of (tile - overlap); the final crop on each axis is
anchored to the far edge instead of padded, so every scene point is
covered and consecutive crops overlap by at least the requested amount.

TTA transforms operate on axis-aligned boxes only.  The supported
primitives are horizontal flip, the three 90-degree rotations
(clockwise), and uniform scaling; arbitrary-angle rotation is excluded
because it does not map axis-aligned boxes to axis-aligned boxes
invertibly.  Point maps, with (W, H) the current frame size:

    fliph : (x, y) -> (W - x, y)        frame (W, H)
    rot90 : (x, y) -> (H - y, x)        frame (H, W)
    rot180: (x, y) -> (W - x, H - y)    frame (W, H)
    rot270: (x, y) -> (y, W - x)        frame (H, W)
    scale s: (x, y) -> (s x, s y)       frame (sW, sH)

Transforms compose left to right, and every composition has an exact
inverse built from reversed inverse primitives; round trips through the
90-degree family are exact whenever the coordinates and frame sizes are
exactly representable (e.g. pixel-grid values), and scale round trips
stay within a few ulp.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .metrics import Box, Detection


@dataclass(frozen=True)
class SceneDims:
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError(f"scene dims must be finite and positive, got {self}")


class TileSpec(NamedTuple):
    origin_x: float
    origin_y: float
    tile_w: float
    tile_h: float


class TtaKind(enum.Enum):
    IDENTITY = "identity"
    FLIP_H = "fliph"
    ROT90 = "rot90"
    ROT180 = "rot180"
    ROT270 = "rot270"
    SCALE = "scale"


@dataclass(frozen=True)
class TtaOp:
    kind: TtaKind
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is TtaKind.SCALE and not (0.0 < self.factor < math.inf):
            raise ValueError(f"scale factor must be finite and positive, got {self.factor}")


_INVERSE = {
    TtaKind.IDENTITY: TtaKind.IDENTITY,
    TtaKind.FLIP_H: TtaKind.FLIP_H,
    TtaKind.ROT90: TtaKind.ROT270,
    TtaKind.ROT180: TtaKind.ROT180,
    TtaKind.ROT270: TtaKind.ROT90,
}


@dataclass(frozen=True)
class TtaTransform:
    """Ordered composition of TTA primitives, applied left to right.
    ``TtaTransform()`` is the identity; :meth:`parse` builds any from its text."""

    ops: tuple[TtaOp, ...] = ()

    def inverse(self) -> "TtaTransform":
        inv = []
        for op in reversed(self.ops):
            if op.kind is TtaKind.SCALE:
                inv.append(TtaOp(TtaKind.SCALE, 1.0 / op.factor))
            else:
                inv.append(TtaOp(_INVERSE[op.kind]))
        return TtaTransform(tuple(inv))

    @classmethod
    def parse(cls, spec: str) -> "TtaTransform":
        """Parse e.g. 'rot90', 'scale:0.8', or 'rot90+scale:1.2'."""
        ops = []
        for part in spec.split("+"):
            part = part.strip().lower()
            if not part:
                raise ValueError(f"empty step in transform spec {spec!r}")
            if part.startswith("scale:"):
                ops.append(TtaOp(TtaKind.SCALE, float(part.split(":", 1)[1])))
            else:
                try:
                    kind = TtaKind(part)
                except ValueError:
                    raise ValueError(f"unknown transform step {part!r}") from None
                if kind is TtaKind.SCALE:
                    raise ValueError("scale needs a factor, e.g. scale:0.8")
                if kind is not TtaKind.IDENTITY:
                    ops.append(TtaOp(kind))
        return cls(tuple(ops))

    def __str__(self) -> str:
        if not self.ops:
            return "identity"
        return "+".join(
            f"scale:{op.factor:g}" if op.kind is TtaKind.SCALE else op.kind.value
            for op in self.ops
        )


def _op_dims(op: TtaOp, dims: SceneDims) -> SceneDims:
    if op.kind in (TtaKind.ROT90, TtaKind.ROT270):
        return SceneDims(dims.height, dims.width)
    if op.kind is TtaKind.SCALE:
        return SceneDims(op.factor * dims.width, op.factor * dims.height)
    return dims


def transformed_dims(scene: SceneDims, t: TtaTransform) -> SceneDims:
    """Frame size after applying ``t`` to a scene of the given size."""
    dims = scene
    for op in t.ops:
        dims = _op_dims(op, dims)
    return dims


def _apply_op(
    corners: list[tuple[float, float, float, float]], op: TtaOp, w: float, h: float
) -> list[tuple[float, float, float, float]]:
    """Map (x1, y1, x2, y2) corners by one primitive in a (w, h) frame; hull."""
    kind, s = op.kind, op.factor
    pts = corners  # identity
    if kind is TtaKind.FLIP_H:
        pts = [(w - x1, y1, w - x2, y2) for x1, y1, x2, y2 in corners]
    elif kind is TtaKind.ROT90:
        pts = [(h - y1, x1, h - y2, x2) for x1, y1, x2, y2 in corners]
    elif kind is TtaKind.ROT180:
        pts = [(w - x1, h - y1, w - x2, h - y2) for x1, y1, x2, y2 in corners]
    elif kind is TtaKind.ROT270:
        pts = [(y1, w - x1, y2, w - x2) for x1, y1, x2, y2 in corners]
    elif kind is TtaKind.SCALE:
        pts = [(s * x1, s * y1, s * x2, s * y2) for x1, y1, x2, y2 in corners]
    # min(a, b) is `b if b < a else a` and max(a, b) `b if b > a else a`, NaN too.
    return [
        (bx if bx < ax else ax, by if by < ay else ay,
         bx if bx > ax else ax, by if by > ay else ay)
        for ax, ay, bx, by in pts
    ]


def apply_tta(
    boxes: Sequence[Detection], scene: SceneDims, t: TtaTransform, source: str = ""
) -> list[Detection]:
    """Map detections into the transformed frame (corner hull of the map).

    A non-empty ``source`` replaces each detection's source tag.
    """
    if not t.ops and not source:
        return list(boxes)
    dims = scene
    corners = [d.box for d in boxes]
    for op in t.ops:
        corners = _apply_op(corners, op, dims.width, dims.height)
        dims = _op_dims(op, dims)
    return [
        Detection(Box(*c), class_id, score, source or tag, image_id)
        for c, (_, class_id, score, tag, image_id) in zip(corners, boxes)
    ]


def invert_tta(
    boxes: Sequence[Detection], scene: SceneDims, t: TtaTransform, source: str = ""
) -> list[Detection]:
    """Map detections from the transformed frame back to the original.

    ``scene`` is the original (untransformed) scene size; the transformed
    frame is derived from it.  Exact inverse of :func:`apply_tta` for the
    90-degree family; scale round trips are within floating-point error.
    A non-empty ``source`` replaces each detection's source tag.
    """
    return apply_tta(boxes, *_inverse_frame(scene, t), source)


@functools.lru_cache(maxsize=256)
def _inverse_frame(scene: SceneDims, t: TtaTransform) -> tuple[SceneDims, TtaTransform]:
    """The transformed frame of ``scene`` under ``t``, and ``t.inverse()``."""
    return transformed_dims(scene, t), t.inverse()


# Denser grids are refused, not built: a tile costs about 90 bytes and 1.1 us
# (Python 3.11, 2-core x86), and the random coverage tests build up to 1.9M.
MAX_TILES = 4_000_000


def tile_grid(scene: SceneDims, tile: float, overlap: float) -> list[TileSpec]:
    """Cover the scene with tile x tile crops overlapping by >= ``overlap``.

    Positions along each axis run 0, stride, 2*stride, ... with
    stride = tile - overlap; the last position is clamped to dim - tile
    (deduplicated), and an axis shorter than the tile yields a single
    position 0 with the crop size clamped to the axis length.  Tiles are
    returned row-major (x fastest).  Raises ValueError for a grid of more
    than :data:`MAX_TILES` tiles, counted before any is built (exact to
    within one row and one column).
    """
    (xs, tw), (ys, th) = _grid_axes(scene, tile, overlap)
    return [TileSpec(x, y, tw, th) for y in ys for x in xs]


def _grid_axes(scene: SceneDims, tile: float, overlap: float):
    if not (0.0 < tile < math.inf):
        raise ValueError(f"tile size must be finite and positive, got {tile}")
    if not (0.0 <= overlap < math.inf):
        raise ValueError(f"overlap must be finite and nonnegative, got {overlap}")
    if overlap >= tile:
        raise ValueError(f"overlap {overlap} must be smaller than tile {tile}")
    dims = (scene.width, scene.height)
    if math.prod(_axis_count(d, tile, overlap) for d in dims) > MAX_TILES:
        raise ValueError(f"a {dims[0]:g}x{dims[1]:g} scene in {tile:g} px tiles overlapping "
                         f"by {overlap:g} needs more than {MAX_TILES} tiles")
    return [_axis_positions(d, tile, overlap) for d in dims]


def _axis_count(dim: float, tile: float, overlap: float) -> int:
    """len(_axis_positions(...)) to within one (its loop test and last-position
    dedupe round); capped so ``math.ceil`` never overflows."""
    return 1 if dim <= tile else math.ceil(min((dim - tile) / (tile - overlap), MAX_TILES)) + 1


def _axis_positions(dim: float, tile: float, overlap: float) -> tuple[list[float], float]:
    if dim <= tile:
        return [0.0], min(tile, dim)
    stride = tile - overlap
    positions = [0.0]
    k = 1
    while k * stride + tile < dim:
        positions.append(k * stride)
        k += 1
    last = dim - tile
    while last + tile < dim:  # rounding can leave the far edge an ulp short
        last = math.nextafter(last, math.inf)
    if last != positions[-1]:
        positions.append(last)
    return positions, tile


def tile_axis_counts(scene: SceneDims, tile: float, overlap: float) -> tuple[int, int]:
    """(columns, rows) of the grid produced by :func:`tile_grid`."""
    (xs, _), (ys, _) = _grid_axes(scene, tile, overlap)
    return len(xs), len(ys)


def clip_boxes_to_tile(
    boxes: Sequence[Detection], tile: TileSpec, min_visibility: float = 1e-9
) -> list[Detection]:
    """Intersect boxes with the tile and translate to tile-local coordinates.

    Boxes keeping less than ``min_visibility`` of their original area
    (zero-area boxes keep nothing) are dropped.
    """
    if not (0.0 < min_visibility <= 1.0):
        raise ValueError(f"min_visibility must be in (0, 1], got {min_visibility}")
    ox, oy = tile.origin_x, tile.origin_y
    ex, ey = ox + tile.tile_w, oy + tile.tile_h
    out = []
    for (bx1, by1, bx2, by2), class_id, score, tag, image_id in boxes:
        # Outside the tile; a NaN corner fails these and meets the full tests.
        if (bx1 <= bx2 <= ox or ex <= bx1 <= bx2
                or by1 <= by2 <= oy or ey <= by1 <= by2):
            continue
        x1, y1, x2, y2 = max(bx1, ox), max(by1, oy), min(bx2, ex), min(by2, ey)
        if x2 <= x1 or y2 <= y1:
            continue
        original = (bx2 - bx1) * (by2 - by1)
        if original <= 0.0:
            continue
        if (x2 - x1) * (y2 - y1) / original < min_visibility:
            continue
        clipped = Box(x1 - ox, y1 - oy, x2 - ox, y2 - oy)
        out.append(Detection(clipped, class_id, score, tag, image_id))
    return out


def tile_to_scene(dets: Sequence[Detection], tile: TileSpec) -> list[Detection]:
    """Translate tile-local detections back into scene coordinates."""
    ox, oy = tile.origin_x, tile.origin_y
    return [
        Detection(Box(x1 + ox, y1 + oy, x2 + ox, y2 + oy), class_id, score, tag, image_id)
        for (x1, y1, x2, y2), class_id, score, tag, image_id in dets
    ]
