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
side is the group's largest box side, unless leaving a few boxes beyond
``WIDE_SIDE_MULTIPLE`` times the median side out of it saves candidate
tests (:func:`_cell_side`).  Boxes with IoU > 0 both contain the point
(max x1, max y1), so they share its cell.  Each cell lists, in creation
order, the clusters whose fused box has touched it, and a detection tests
only those in its own (at most 2 x 2) cells: about linear cost at
constant density.  A cluster is listed again only when a join moves its
box to a new cell span; the old listings fail the bounds precheck.  A
wider box tests every cluster, and the clusters it opens, or whose fused
box outgrows the side, are wide: every detection also tests them.  Each
list holds ids in creation order, and a detection takes the lowest id
that matches in any of its lists.  A box without a positive finite area
(``_can_overlap``) joins nothing and is joined by nothing, so it tests no
cell and no cell lists it.

The loop reads the rows of the group's float64 corner array, so it
computes on Python floats whatever the records' corner type (the
exactness rule is in :mod:`rfl_lab.geometry`), and a moved cluster's
corners are Python floats.  A cluster that no join moved keeps its first
member's box object, and the fused detection keeps the member sources
joined with '+' in first-seen order, so a single-member cluster
reproduces its detection exactly and fusing disjoint single-source input
is a fixpoint.  Output is ordered by class id, then image id, then
cluster creation order; for input from a single image that is class id,
then creation order.
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

from .metrics import Box, Detection, _can_overlap


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


# Only a box whose side is more than this multiple of its group's median
# side may be left out of the cell side, so that one box as large as the
# field cannot put its whole group into one cell.
WIDE_SIDE_MULTIPLE = 4.0
_WIDE, _ALL = "wide", "all"  # keys of the wide clusters and of every id, beside the cells


def _cell_side(boxes: np.ndarray, sides: np.ndarray) -> float:
    """The grid's cell side for ``boxes`` with the largest sides ``sides``:
    the largest side, unless leaving out the k largest of the boxes beyond
    ``WIDE_SIDE_MULTIPLE`` times the median side costs fewer candidate
    tests.  Each of the n detections then tests the k wide ones and each
    wide one tests all n; the rest share cells of the next side s, about
    n s^2 / area of them a cell of the group's extent, and a detection
    tests 2 x 2 cells."""
    n = len(sides)
    largest = float(sides.max(initial=0.0))
    beyond = WIDE_SIDE_MULTIPLE * np.partition(sides, n // 2)[n // 2] if n else largest
    if largest <= beyond:
        return largest
    ranked = np.sort(sides)[::-1]
    wide = int(np.count_nonzero(ranked > beyond))
    with np.errstate(over="ignore", under="ignore"):
        area = float(np.prod(boxes[:, 2:].max(axis=0) - boxes[:, :2].min(axis=0)))
        if not 0.0 < area < math.inf:
            return largest
        tests = 2.0 * n * np.arange(wide + 1) + 4.0 * n * n * ranked[:wide + 1] ** 2 / area
    return float(ranked[int(np.argmin(tests))])


def _clusters(
    dets: list[Detection], iou_thresh: float
) -> tuple[list[list[Detection]], list[tuple[float, float, float, float]]]:
    """Greedy clustering of one (image, class) group; see the module docstring.

    Returns each cluster's members in joining order and its fused corners:
    Python floats, or the first member's box where no join moved it.
    """
    # Score descending, then source, then input order (both sorts are stable).
    dets = sorted(sorted(dets, key=attrgetter("source")), key=attrgetter("score"), reverse=True)
    corners = np.fromiter(chain.from_iterable([d.box for d in dets]), float, 4 * len(dets))
    corners = corners.reshape(-1, 4)
    listed = _can_overlap(corners)
    boxes = corners[listed]
    extent = boxes[:, 2:] - boxes[:, :2]
    sides = np.maximum(extent[:, 0], extent[:, 1])
    # At least one ulp of the largest |corner| it indexes: every index is within about 2^53.
    side = _cell_side(boxes, sides)
    kinds = listed.tolist()  # False: joins nothing, True: through the grid, 2: wide
    if has_wide := side < sides.max(initial=0.0):
        wide = np.flatnonzero(listed)[sides > side]
        listed[wide] = False
        boxes = corners[listed]
        for i in wide.tolist():
            kinds[i] = 2
    index = np.zeros((len(dets), 4), np.int64)
    index[listed] = np.floor(boxes / side)
    wide_ids: list[int] = []  # ascending
    cells: dict = {_WIDE: wide_ids, _ALL: range(len(dets))}  # cell -> ids, ascending
    members: list[list[Detection]] = []
    fused: list = []  # running weighted mean: the row until a join makes it a tuple
    weights: list[float] = []  # running score sum
    spans: list = []  # the cell span each cluster was last listed for, None if wide
    for det, row, span, kind in zip(dets, corners.tolist(), index.tolist(), kinds):
        x1, y1, x2, y2 = row
        area = (x2 - x1) * (y2 - y1)
        best = new = len(fused)
        if kind is True:
            near = _cells(*span)
            scan = (*near, _WIDE) if wide_ids else near
        else:
            near, scan = (), (_ALL,) if kind else ()
        for cell in scan:
            for k in cells.get(cell, ()):
                if k >= best:
                    break
                fx1, fy1, fx2, fy2 = fused[k]
                # The bounds precheck, then the arithmetic of iou(det.box, fused), inline:
                # a helper call made fusing the 100 detect scenes 1.16x slower (2-core x86).
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
            if kind == 2:
                wide_ids.append(new)
                span = None
            members.append([det])
            fused.append(row)
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
        if has_wide:  # a wide cluster stays wide, and one that outgrows the side turns wide
            if spans[best] is None:
                continue
            if c[2] - c[0] > side or c[3] - c[1] > side:
                spans[best] = None
                bisect.insort(wide_ids, best)
                continue
        span = [math.floor(c[0] / side), math.floor(c[1] / side),
                math.floor(c[2] / side), math.floor(c[3] / side)]
        if span != spans[best]:  # list the moved box in its new cells
            spans[best] = span
            for cell in _cells(*span):
                ids = cells.setdefault(cell, [])
                if best not in ids:
                    bisect.insort(ids, best)
    return members, [c if type(c) is tuple else m[0].box for m, c in zip(members, fused)]


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
            box = corners if type(corners) is Box else Box(*corners)
            out.append(Detection(box, first.class_id, score, "+".join(sources),
                                 first.image_id))
    return out
