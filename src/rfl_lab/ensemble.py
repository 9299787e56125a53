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

The fused detection keeps the member sources joined with '+' in
first-seen order, so a single-member cluster reproduces its detection
exactly and fusing disjoint single-source input is a fixpoint.  Output
is ordered by class id, then image id, then cluster creation order; for
input from a single image that is class id, then creation order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import SceneDims, TtaTransform, invert_tta
from .metrics import Box, Detection, iou


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
    __slots__ = ("members", "weight_sum", "fused")

    def __init__(self, det: Detection) -> None:
        self.members: list[Detection] = [det]
        self.weight_sum = det.score
        self.fused = det.box  # single member reproduces its box exactly

    def add(self, det: Detection) -> None:
        # Centered incremental weighted mean: no rounding when the new
        # member coincides with the running box, and no large partial sums.
        self.members.append(det)
        total = self.weight_sum + det.score
        if total > 0.0:
            f = det.score / total
            b, d = self.fused, det.box
            self.fused = Box(
                b.x1 + f * (d.x1 - b.x1),
                b.y1 + f * (d.y1 - b.y1),
                b.x2 + f * (d.x2 - b.x2),
                b.y2 + f * (d.y2 - b.y2),
            )
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
    # IoU >= iou_thresh > 0 needs a positive overlap on both axes, which
    # implies cluster x1 < box x2 and box x1 < cluster x2 (and so on for y).
    # Row k of `bounds` holds cluster k's (x1, y1, -x2, -y2) and `keys` each
    # box's (x2, y2, -x1, -y1), so one comparison finds the candidates; they
    # are then checked in creation order with the scalar iou().
    keys = np.array([(d.box.x2, d.box.y2, -d.box.x1, -d.box.y1) for _, d in entries])
    bounds = np.empty((len(entries), 4))
    clusters: list[_Cluster] = []
    for (_, det), key in zip(entries, keys):
        near = (bounds[: len(clusters)] < key).all(axis=1).nonzero()[0]
        for k in near.tolist():
            cluster = clusters[k]
            if iou(det.box, cluster.fused) >= iou_thresh:
                cluster.add(det)
                f = cluster.fused
                bounds[k] = (f.x1, f.y1, -f.x2, -f.y2)
                break
        else:
            b = det.box
            bounds[len(clusters)] = (b.x1, b.y1, -b.x2, -b.y2)
            clusters.append(_Cluster(det))
    return clusters


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
        back = invert_tta(p.dets, scene, p.transform)
        if p.source:
            back = [
                Detection(d.box, d.class_id, d.score, p.source, d.image_id)
                for d in back
            ]
        pooled.extend(back)
    return fuse(pooled, cfg)
