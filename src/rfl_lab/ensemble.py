"""Vote-based fusion of detections from multiple models or TTA passes.

The algorithm, per (image, class): visit detections in descending score
order (ties by source tag, then input index) and greedily attach each
one to the first existing cluster whose current fused box overlaps it
with IoU at or above the threshold, otherwise open a new cluster.  A
cluster's fused box is the score-weighted average of its members'
corners, recomputed as members join, and its fused score follows the
configured mode.  Clusters supported by fewer than ``min_votes``
distinct source tags are discarded.  Detections of different images or
classes never share a cluster.

Candidate clusters come from a uniform grid whose cell side is the
group's largest box side.  Boxes with IoU > 0 both contain the point
(max x1, max y1), so they share its cell.  Each cell lists, in creation
order, the clusters whose fused box has touched it, and a detection
tests only those listed in its own (at most 2 x 2) cells: about linear
cost at constant density.  A group with a non-finite corner or no
positive side uses one cell, which is the full scan.

The fused detection keeps the member sources joined with '+' in
first-seen order, so a single-member cluster reproduces its detection
exactly and fusing disjoint single-source input is a fixpoint.  Output
is ordered by class id, then image id, then cluster creation order; for
input from a single image that is class id, then creation order.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import SceneDims, TtaTransform, invert_tta
from .metrics import Box, Detection


class ScoreMode(enum.Enum):
    MEAN = "mean"
    MAX = "max"
    WEIGHTED_MEAN = "weighted_mean"


@dataclass(frozen=True)
class FusionConfig:
    iou_thresh: float = 0.5
    min_votes: int = 1
    score_mode: ScoreMode = ScoreMode.MEAN
    source_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.iou_thresh < 1.0):
            raise ValueError(f"iou_thresh must be in (0, 1), got {self.iou_thresh}")
        if self.min_votes < 1:
            raise ValueError(f"min_votes must be >= 1, got {self.min_votes}")
        for tag, w in self.source_weights.items():
            if not (np.isfinite(w) and w > 0):
                raise ValueError(
                    f"weight for source {tag!r} must be finite and positive, got {w}"
                )


class _Cluster:
    """A cluster's members and its running fused box, kept as four floats."""

    __slots__ = ("members", "weight_sum", "corners")

    def __init__(self, det: Detection) -> None:
        b = det.box
        self.members: list[Detection] = [det]
        self.weight_sum = det.score
        self.corners = [b.x1, b.y1, b.x2, b.y2]  # one member: its box exactly

    @property
    def fused(self) -> Box:
        return Box(*self.corners)

    def add(self, det: Detection) -> None:
        # Centered incremental weighted mean: no rounding when the new
        # member coincides with the running box, and no large partial sums.
        self.members.append(det)
        total = self.weight_sum + det.score
        if total > 0.0:
            f = det.score / total
            c, d = self.corners, det.box
            c[0] += f * (d.x1 - c[0])
            c[1] += f * (d.y1 - c[1])
            c[2] += f * (d.x2 - c[2])
            c[3] += f * (d.y2 - c[3])
        # All-zero scores leave the first member's box in place.
        self.weight_sum = total

    def fused_detection(self, cfg: FusionConfig) -> Detection:
        scores = [m.score for m in self.members]
        if cfg.score_mode is ScoreMode.MAX:
            score = max(scores)
        elif cfg.score_mode is ScoreMode.WEIGHTED_MEAN:
            weights = [cfg.source_weights.get(m.source, 1.0) for m in self.members]
            score = sum(w * s for w, s in zip(weights, scores)) / sum(weights)
        else:
            score = sum(scores) / len(scores)
        sources: list[str] = []
        for m in self.members:
            if m.source not in sources:
                sources.append(m.source)
        first = self.members[0]
        return Detection(
            self.fused, first.class_id, score, "+".join(sources), first.image_id
        )


def _clusters(
    entries: list[tuple[int, Detection]], iou_thresh: float
) -> list[_Cluster]:
    """Greedy clustering of one (image, class) group; see the module docstring."""
    entries = sorted(entries, key=lambda e: (-e[1].score, e[1].source, e[0]))
    rows = [(b.x1, b.y1, b.x2, b.y2) for b in (d.box for _, d in entries)]
    corners = np.array(rows).reshape(-1, 4)
    side = float((corners[:, 2:] - corners[:, :2]).max(initial=0.0))
    with np.errstate(all="ignore"):
        index = np.floor(corners / side)
    # A NaN or inf corner, a zero side or an index beyond float precision: one cell.
    grid = side > 0.0 and bool((np.abs(index) < 2.0**52).all())
    index = index.astype(np.int64) if grid else np.zeros((len(rows), 4), np.int64)
    cells: defaultdict[tuple[int, int], list[int]] = defaultdict(list)  # ids, ascending
    clusters: list[_Cluster] = []
    for (_, det), (x1, y1, x2, y2), span in zip(entries, rows, index.tolist()):
        area = (x2 - x1) * (y2 - y1)
        best = len(clusters)
        near = _cells(*span)
        for ids in map(cells.__getitem__, near):
            for k in ids:
                if k >= best:
                    break
                fx1, fy1, fx2, fy2 = clusters[k].corners
                # The bounds precheck, then the arithmetic of iou(det.box, fused).
                if not (fx1 < x2 and fy1 < y2 and x1 < fx2 and y1 < fy2):
                    continue
                ix = (fx2 if fx2 < x2 else x2) - (fx1 if fx1 > x1 else x1)
                iy = (fy2 if fy2 < y2 else y2) - (fy1 if fy1 > y1 else y1)
                if ix <= 0.0 or iy <= 0.0:
                    continue
                inter = ix * iy
                union = area + (fx2 - fx1) * (fy2 - fy1) - inter
                if union > 0.0 and inter / union >= iou_thresh:
                    best = k
                    break
        if best == len(clusters):
            for cell in near:
                cells[cell].append(best)
            clusters.append(_Cluster(det))
            continue
        clusters[best].add(det)
        if grid:  # list the moved box in its new cells; stale listings fail the precheck
            c = clusters[best].corners
            for cell in _cells(math.floor(c[0] / side), math.floor(c[1] / side),
                               math.floor(c[2] / side), math.floor(c[3] / side)):
                ids = cells[cell]
                if best not in ids:
                    bisect.insort(ids, best)
    return clusters


def _cells(i1: int, j1: int, i2: int, j2: int) -> set[tuple[int, int]]:
    """Cells (i1, j1) to (i2, j2); 2 x 2 unless rounding carries a corner over."""
    if i2 - i1 > 1 or j2 - j1 > 1:
        return {(i, j) for i in range(i1, i2 + 1) for j in range(j1, j2 + 1)}
    return {(i1, j1), (i1, j2), (i2, j1), (i2, j2)}


def fuse(dets: Sequence[Detection], cfg: FusionConfig) -> list[Detection]:
    """Cluster and fuse detections per (image, class); see the module docstring.

    The detections of each image must share one frame.  Output is
    ordered by class id, then image id, then cluster creation
    (score-descending) order.
    """
    groups: dict[tuple[int, str], list[tuple[int, Detection]]] = {}
    for idx, det in enumerate(dets):
        groups.setdefault((det.class_id, det.image_id), []).append((idx, det))

    out: list[Detection] = []
    for key in sorted(groups):
        for cluster in _clusters(groups[key], cfg.iou_thresh):
            if len({m.source for m in cluster.members}) >= cfg.min_votes:
                out.append(cluster.fused_detection(cfg))
    return out


@dataclass(frozen=True)
class TtaPass:
    """One inference pass: its detections and the transform they live in."""

    dets: Sequence[Detection]
    transform: TtaTransform = TtaTransform.identity()
    source: str = ""


def ensemble_pipeline(
    passes: Sequence[TtaPass], scene: SceneDims, cfg: FusionConfig
) -> list[Detection]:
    """Invert each pass's transform, pool into the scene frame, and fuse.

    Equivalent to composing :func:`rfl_lab.geometry.invert_tta` per pass
    with :func:`fuse`; each pass's source tag overrides the tags on its
    detections when given.
    """
    pooled: list[Detection] = []
    for p in passes:
        pooled.extend(invert_tta(p.dets, scene, p.transform, p.source))
    return fuse(pooled, cfg)
