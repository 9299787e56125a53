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

Each (image, class) group keeps flat per-cluster lists in creation
order: members, running fused corners, score sums, and the cell span the
cluster is listed for.  Candidates come from a uniform grid whose cell
side is the group's largest box side.  Boxes with IoU > 0 both contain
the point (max x1, max y1), so they share its cell.  Each cell lists, in
creation order, the clusters whose fused box has touched it, and a
detection tests only those in its own (at most 2 x 2) cells: about linear
cost at constant density.  A cluster is listed again only when a join
moves its box to a new cell span; the old listings fail the bounds
precheck.  A group with a non-finite corner or no positive side uses one
cell, which is the full scan.

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
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

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
                raise ValueError(f"weight for source {tag!r} must be finite and positive, got {w}")


def _clusters(
    dets: list[Detection], iou_thresh: float
) -> tuple[list[list[Detection]], list[tuple[float, float, float, float]]]:
    """Greedy clustering of one (image, class) group; see the module docstring.

    Returns each cluster's members in joining order and its fused corners.
    """
    # Score descending, then source, then input order (both sorts are stable).
    dets = sorted(sorted(dets, key=attrgetter("source")), key=attrgetter("score"), reverse=True)
    rows = [d.box for d in dets]
    corners = np.fromiter(chain.from_iterable(rows), float, 4 * len(rows)).reshape(-1, 4)
    side = float((corners[:, 2:] - corners[:, :2]).max(initial=0.0))
    with np.errstate(all="ignore"):
        index = np.floor(corners / side)
    # A NaN or inf corner, a zero side or an index beyond float precision: one cell.
    grid = side > 0.0 and bool((np.abs(index) < 2.0**52).all())
    index = index.astype(np.int64) if grid else np.zeros((len(rows), 4), np.int64)
    cells: dict[tuple[int, int], list[int]] = {}  # ids, ascending
    members: list[list[Detection]] = []
    fused: list[tuple[float, float, float, float]] = []  # running weighted mean
    weights: list[float] = []  # running score sum
    spans: list[list[int]] = []  # the cell span each cluster was last listed for
    for det, (x1, y1, x2, y2), span in zip(dets, rows, index.tolist()):
        area = (x2 - x1) * (y2 - y1)
        best = new = len(fused)
        near = _cells(*span)
        for cell in near:
            for k in cells.get(cell, ()):
                if k >= best:
                    break
                fx1, fy1, fx2, fy2 = fused[k]
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
        if best == new:
            for cell in near:
                cells.setdefault(cell, []).append(new)
            members.append([det])
            fused.append(det.box)  # one member: its box exactly
            weights.append(det.score)
            spans.append(span)
            continue
        members[best].append(det)
        total = weights[best] = weights[best] + det.score
        if not total > 0.0:
            continue  # all-zero scores leave the first member's box in place
        # Centered incremental weighted mean: no rounding when the new
        # member coincides with the running box, and no large partial sums.
        f = det.score / total
        cx1, cy1, cx2, cy2 = fused[best]
        c = fused[best] = (cx1 + f * (x1 - cx1), cy1 + f * (y1 - cy1),
                           cx2 + f * (x2 - cx2), cy2 + f * (y2 - cy2))
        if not grid:
            continue
        span = [math.floor(c[0] / side), math.floor(c[1] / side),
                math.floor(c[2] / side), math.floor(c[3] / side)]
        if span != spans[best]:  # list the moved box in its new cells
            spans[best] = span
            for cell in _cells(*span):
                ids = cells.setdefault(cell, [])
                if best not in ids:
                    bisect.insort(ids, best)
    return members, fused


def _cells(i1: int, j1: int, i2: int, j2: int) -> Sequence[tuple[int, int]]:
    """Cells (i1, j1) to (i2, j2), each once: at most 2 x 2 unless rounding carries over."""
    if i2 - i1 > 1 or j2 - j1 > 1:
        return [(i, j) for i in range(i1, i2 + 1) for j in range(j1, j2 + 1)]
    if i1 == i2:
        return ((i1, j1),) if j1 == j2 else ((i1, j1), (i1, j2))
    return ((i1, j1), (i2, j1)) if j1 == j2 else ((i1, j1), (i1, j2), (i2, j1), (i2, j2))


def fuse(dets: Sequence[Detection], cfg: FusionConfig) -> list[Detection]:
    """Cluster and fuse detections per (image, class); see the module docstring.

    The detections of each image must share one frame.  Output is
    ordered by class id, then image id, then cluster creation
    (score-descending) order.
    """
    groups: dict[tuple[int, str], list[Detection]] = {}
    for det in dets:
        groups.setdefault((det.class_id, det.image_id), []).append(det)

    mode, weight = cfg.score_mode, cfg.source_weights.get
    out: list[Detection] = []
    for key in sorted(groups):
        for cluster, corners in zip(*_clusters(groups[key], cfg.iou_thresh)):
            if len(cluster) < cfg.min_votes:
                continue  # too few members for the distinct sources needed
            sources = list(dict.fromkeys([m.source for m in cluster]))  # first seen first
            if len(sources) < cfg.min_votes:
                continue
            scores = [m.score for m in cluster]
            if mode is ScoreMode.MAX:
                score = max(scores)
            elif mode is ScoreMode.WEIGHTED_MEAN:
                weights = [weight(m.source, 1.0) for m in cluster]
                score = sum(w * s for w, s in zip(weights, scores)) / sum(weights)
            else:
                score = sum(scores) / len(scores)
            first = cluster[0]
            out.append(Detection(Box(*corners), first.class_id, score, "+".join(sources),
                                 first.image_id))
    return out
