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

The per-record maps (TTA, tile clip, translation) compute on ``float(v)``
of each corner: arithmetic on numpy scalars costs several times more.
Exactness rule, for these maps and for fusion: ``float(v)`` is exact and
the operations are the same IEEE operations, so the bits are those of the
corners' own arithmetic for a float, a float subclass such as
``np.float64``, or an int while every intermediate stays within +-2**53;
computed corners are Python floats.  A mapped ``Detection`` whose box is a
``Box`` is built unchecked; any other record runs the constructors' checks.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .metrics import Box, Detection, _tuple_new


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


def _steps(scene: SceneDims, t: TtaTransform) -> tuple[tuple[TtaKind, float, float, float], ...]:
    """Each op of ``t`` as (kind, factor, w, h), (w, h) the frame it maps."""
    steps, dims = [], scene
    for op in t.ops:
        steps.append((op.kind, op.factor, dims.width, dims.height))
        dims = _op_dims(op, dims)
    return tuple(steps)


# Module names: an enum member is an attribute lookup of about 0.2 us (Python 3.11).
_FLIP_H, _ROT90, _ROT180, _ROT270, _SCALE = (
    TtaKind.FLIP_H, TtaKind.ROT90, TtaKind.ROT180, TtaKind.ROT270, TtaKind.SCALE)


def _map_box(x1: float, y1: float, x2: float, y2: float,
             steps: tuple) -> tuple[float, float, float, float]:
    """Corners mapped by each step in turn, as the corner hull of each map."""
    for kind, s, w, h in steps:
        if kind is _FLIP_H:
            x1, x2 = w - x1, w - x2
        elif kind is _ROT90:
            x1, y1, x2, y2 = h - y1, x1, h - y2, x2
        elif kind is _ROT180:
            x1, y1, x2, y2 = w - x1, h - y1, w - x2, h - y2
        elif kind is _ROT270:
            x1, y1, x2, y2 = y1, w - x1, y2, w - x2
        elif kind is _SCALE:
            x1, y1, x2, y2 = s * x1, s * y1, s * x2, s * y2
        # min(a, b) is `b if b < a else a` and max(a, b) `b if b > a else a`, NaN too.
        x1, y1, x2, y2 = (x2 if x2 < x1 else x1, y2 if y2 < y1 else y1,
                          x2 if x2 > x1 else x1, y2 if y2 > y1 else y1)
    return x1, y1, x2, y2


def _map_records(boxes: Sequence[Detection], steps: tuple, source: str) -> list[Detection]:
    """Each detection mapped by ``steps``, in one pass; the hull keeps corner order."""
    if not steps and not source:
        return list(boxes)
    out = []
    for d in boxes:
        x1, y1, x2, y2 = box = d.box
        corners = _map_box(float(x1), float(y1), float(x2), float(y2), steps)
        tag = source or d[3]
        out.append(_tuple_new(Detection, (_tuple_new(Box, corners), d[1], d[2], tag, d[4]))
                   if type(d) is Detection and type(box) is Box
                   else Detection(Box(*corners), d[1], d[2], tag, d[4]))
    return out


def apply_tta(
    boxes: Sequence[Detection], scene: SceneDims, t: TtaTransform, source: str = ""
) -> list[Detection]:
    """Map detections into the transformed frame (corner hull of the map).

    A non-empty ``source`` replaces each detection's source tag.
    """
    return _map_records(boxes, _steps(scene, t), source)


def invert_tta(
    boxes: Sequence[Detection], scene: SceneDims, t: TtaTransform, source: str = ""
) -> list[Detection]:
    """Map detections from the transformed frame back to the original.

    ``scene`` is the original (untransformed) scene size; the transformed
    frame is derived from it.  Exact inverse of :func:`apply_tta` for the
    90-degree family; scale round trips are within floating-point error.
    A non-empty ``source`` replaces each detection's source tag.
    """
    return _map_records(boxes, _inverse_steps(scene, t), source)


@functools.lru_cache(maxsize=256)
def _inverse_steps(scene: SceneDims, t: TtaTransform) -> tuple:
    """The steps of ``t.inverse()`` from the transformed frame of ``scene``."""
    return _steps(transformed_dims(scene, t), t.inverse())


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
    ox, oy = float(tile.origin_x), float(tile.origin_y)
    ex, ey = ox + tile.tile_w, oy + tile.tile_h
    out = []
    for d in boxes:
        bx1, by1, bx2, by2 = box = d[0]
        # Outside the tile; a NaN corner fails these and meets the full tests.
        if (bx1 <= bx2 <= ox or ex <= bx1 <= bx2
                or by1 <= by2 <= oy or ey <= by1 <= by2):
            continue
        bx1, by1, bx2, by2 = float(bx1), float(by1), float(bx2), float(by2)
        # max(a, b) is `b if b > a else a` and min(a, b) `b if b < a else a`, NaN too.
        x1, y1 = ox if ox > bx1 else bx1, oy if oy > by1 else by1
        x2, y2 = ex if ex < bx2 else bx2, ey if ey < by2 else by2
        if x2 <= x1 or y2 <= y1:
            continue
        original = (bx2 - bx1) * (by2 - by1)
        if original <= 0.0:
            continue
        if (x2 - x1) * (y2 - y1) / original < min_visibility:
            continue
        # Translating keeps the order the tests above left (x1 < x2, y1 < y2).
        corners = (x1 - ox, y1 - oy, x2 - ox, y2 - oy)
        out.append(_tuple_new(Detection, (_tuple_new(Box, corners), d[1], d[2], d[3], d[4]))
                   if type(d) is Detection and type(box) is Box
                   else Detection(Box(*corners), d[1], d[2], d[3], d[4]))
    return out


def tile_to_scene(dets: Sequence[Detection], tile: TileSpec) -> list[Detection]:
    """Translate tile-local detections back into scene coordinates."""
    ox, oy = tile.origin_x, tile.origin_y
    out = []
    for d in dets:
        x1, y1, x2, y2 = box = d[0]
        # Rounding is monotone, so the translated corners keep their order.
        corners = (float(x1) + ox, float(y1) + oy, float(x2) + ox, float(y2) + oy)
        out.append(_tuple_new(Detection, (_tuple_new(Box, corners), d[1], d[2], d[3], d[4]))
                   if type(d) is Detection and type(box) is Box
                   else Detection(Box(*corners), d[1], d[2], d[3], d[4]))
    return out
