"""Synthetic xView-style inputs for the detect workload.

Each scene is a 2000 x 2000 px image with about 60 ground-truth objects of
five long-tailed classes.  For every 700 px tile (80 px overlap) and every
TTA pass, a simulated detector reports jittered copies of the visible
objects plus false positives, in that pass's frame, with scores rounded to
0.01 so that ties are common.  Everything derives from one integer seed.

Objects are at most 80 px (the overlap) on each side, so each one lies
wholly inside at least one tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rfl_lab.metrics import Box, Detection, GroundTruth

SCENE_PX = 2000.0
TILE_PX = 700.0
OVERLAP_PX = 80.0
PASSES = ("identity", "fliph", "rot90", "rot180")
CLASS_PROBS = np.array([0.5, 0.25, 0.13, 0.08, 0.04])
OBJECTS_PER_SCENE = (50, 70)
OBJECT_PX = (20, 80)
DETECT_PROB = 0.9
MIN_VISIBLE = 0.3
JITTER = 0.08
FALSE_POSITIVES_PER_PASS = 5.0


@dataclass
class SceneInput:
    image_id: str
    gts: list[GroundTruth]
    # The GTs as detections for tile clipping, source = index into gts
    gt_dets: list[Detection]
    # (tile origin x, tile origin y, pass name) -> detections in that frame
    dets: dict[tuple[float, float, str], list[Detection]]


def tile_origins(dim: float) -> list[float]:
    """Tile positions along one axis, by the rule tiling documents."""
    stride = TILE_PX - OVERLAP_PX
    out = [0.0]
    while out[-1] + stride + TILE_PX < dim:
        out.append(out[-1] + stride)
    if dim - TILE_PX != out[-1]:
        out.append(dim - TILE_PX)
    return out


def _to_pass_frame(x1, y1, x2, y2, name: str, size: float):
    """Map a tile-local box into the frame the given TTA pass sees."""
    if name == "fliph":
        return size - x2, y1, size - x1, y2
    if name == "rot90":  # (x, y) -> (H - y, x)
        return size - y2, x1, size - y1, x2
    if name == "rot180":
        return size - x2, size - y2, size - x1, size - y1
    return x1, y1, x2, y2


def _scene(rng: np.random.Generator, image_id: str) -> SceneInput:
    n = int(rng.integers(*OBJECTS_PER_SCENE, endpoint=True))
    classes = rng.choice(len(CLASS_PROBS), size=n, p=CLASS_PROBS)
    wh = rng.integers(*OBJECT_PX, size=(n, 2), endpoint=True)
    x1 = rng.integers(0, SCENE_PX - wh[:, 0], endpoint=True)
    y1 = rng.integers(0, SCENE_PX - wh[:, 1], endpoint=True)
    gts = [
        GroundTruth(Box(float(a), float(b), float(a + w), float(b + h)), int(c), image_id)
        for a, b, (w, h), c in zip(x1, y1, wh, classes)
    ]

    dets: dict[tuple[float, float, str], list[Detection]] = {}
    origins = tile_origins(SCENE_PX)
    for oy in origins:
        for ox in origins:
            visible = []
            for gt in gts:
                b = gt.box
                cx1, cy1 = max(b.x1, ox), max(b.y1, oy)
                cx2, cy2 = min(b.x2, ox + TILE_PX), min(b.y2, oy + TILE_PX)
                if cx2 <= cx1 or cy2 <= cy1:
                    continue
                if (cx2 - cx1) * (cy2 - cy1) < MIN_VISIBLE * b.area:
                    continue
                visible.append((cx1 - ox, cy1 - oy, cx2 - ox, cy2 - oy, gt.class_id))
            for name in PASSES:
                found = []
                for bx1, by1, bx2, by2, cls in visible:
                    if rng.random() >= DETECT_PROB:
                        continue
                    w, h = bx2 - bx1, by2 - by1
                    j = rng.normal(0.0, JITTER, size=4) * (w, h, w, h)
                    ax1, ay1 = max(0.0, bx1 + j[0]), max(0.0, by1 + j[1])
                    ax2, ay2 = min(TILE_PX, bx2 + j[2]), min(TILE_PX, by2 + j[3])
                    if ax2 <= ax1 or ay2 <= ay1:
                        continue
                    score = round(float(np.clip(rng.normal(0.75, 0.12), 0.01, 1.0)), 2)
                    found.append((ax1, ay1, ax2, ay2, cls, score))
                for _ in range(rng.poisson(FALSE_POSITIVES_PER_PASS)):
                    fw, fh = rng.integers(*OBJECT_PX, size=2, endpoint=True)
                    fx = float(rng.integers(0, TILE_PX - fw, endpoint=True))
                    fy = float(rng.integers(0, TILE_PX - fh, endpoint=True))
                    cls = int(rng.choice(len(CLASS_PROBS), p=CLASS_PROBS))
                    score = round(float(rng.uniform(0.01, 0.6)), 2)
                    found.append((fx, fy, fx + fw, fy + fh, cls, score))
                dets[(ox, oy, name)] = [
                    Detection(Box(*_to_pass_frame(a, b, c, d, name, TILE_PX)),
                              int(cls), score, name, image_id)
                    for a, b, c, d, cls, score in found
                ]
    gt_dets = [Detection(gt.box, gt.class_id, 1.0, str(i), image_id)
               for i, gt in enumerate(gts)]
    return SceneInput(image_id, gts, gt_dets, dets)


def generate(seed: int, num_scenes: int) -> list[SceneInput]:
    rng = np.random.default_rng(seed)
    return [_scene(rng, f"scene{k:04d}") for k in range(num_scenes)]
