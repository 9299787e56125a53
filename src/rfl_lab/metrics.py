"""Detection metrics: IoU, per-class average precision, mAP, and mRecall.

Matching is greedy per class (and per image when image ids are used):
detections are visited in descending score order, each claims the
still-unmatched ground-truth box of the same class and image with the
highest IoU, provided that IoU reaches the match threshold.  Score ties
are broken by the candidate's best achievable IoU against the unmatched
ground truths, then by input order, so rankings are deterministic.

Average precision is the area under the precision-recall curve with the
monotone precision envelope evaluated at every point (no 11-point
sampling).  mAP averages AP over classes that have at least one ground
truth; classes that only appear in detections contribute AP 0 on their
own but are excluded from the mean.  Plain recall is the matched
fraction of all ground truths; mRecall is the unweighted mean of the
per-class matched fractions, which makes it insensitive to how many
instances each class has.

Degenerate zero-area boxes have IoU 0 against everything (including
themselves) and therefore never match.

The records ``Box``, ``Detection`` and ``GroundTruth`` are named tuples,
cheap enough to build one per box per step: immutable, hashed and
compared by value, so they equal a plain tuple of the same values.
Values are checked where they are new: by the public constructors of
``Box`` and ``Detection`` (``_make`` and ``_replace`` too) and by the
JSONL reader.  A record derived from a checked one (a tile clip, a
translation or a TTA map of a ``Detection`` whose box is a ``Box``) is
built unchecked, since its corner order and score cannot fail.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


_tuple_new = tuple.__new__
# The records' _make, and so their _replace, runs the checks of __new__.
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


def _ordered(box: "Box") -> "Box":
    """``box``, or ValueError when its corners are out of order (a NaN never is)."""
    if box[2] < box[0] or box[3] < box[1]:
        raise ValueError(f"box corners out of order: {box}")
    return box


def _unit(score: float) -> float:
    """``score``, or ValueError when it lies outside [0, 1] (NaN does)."""
    if not (0.0 <= score <= 1.0):
        raise ValueError(f"score must be in [0, 1], got {score}")
    return score


class _BoxFields(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class Box(_BoxFields):
    """Corners of an axis-aligned box; x2 >= x1 and y2 >= y1."""

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float) -> "Box":
        return _ordered(_tuple_new(cls, (x1, y1, x2, y2)))

    _make = _checked_make

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


class _DetectionFields(NamedTuple):
    box: Box
    class_id: int
    score: float
    source: str = ""
    image_id: str = ""


class Detection(_DetectionFields):
    """A scored box; the score lies in [0, 1]."""

    __slots__ = ()

    def __new__(cls, box: Box, class_id: int, score: float, source: str = "",
                image_id: str = "") -> "Detection":
        return _tuple_new(cls, (box, class_id, _unit(score), source, image_id))

    _make = _checked_make


def _derived(det: Detection, corners: tuple, source: str) -> Detection:
    """``det`` with new ``corners`` and ``source``, for corners that keep the
    order of det's box (a translation, a clip or a hull does).

    A ``Detection`` whose box is a ``Box`` was checked when built, so its
    copy is built unchecked; any other record, a plain tuple say, runs the
    public constructors' checks.
    """
    if type(det) is Detection and type(det[0]) is Box:
        return _tuple_new(Detection, (_tuple_new(Box, corners), det[1], det[2], source, det[4]))
    return Detection(Box(*corners), det[1], det[2], source, det[4])


class GroundTruth(NamedTuple):
    box: Box
    class_id: int
    image_id: str = ""


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint or zero-area boxes."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row box of ``a`` (n, 4) against every row box of ``b``.

    The operations and their order are those of :func:`iou`, so each
    entry equals the scalar result bitwise.  The one exception is corners
    so large that the areas overflow: :func:`iou` then returns nan and
    this returns 0, and neither matches anything.
    """
    a, b = a[:, None, :], b[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = ix * iy
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        union = area_a + area_b - inter
        valid = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
        out = np.zeros(inter.shape)
        np.divide(inter, union, out=out, where=valid)
    return out


def _corners(items: Sequence[Detection] | Sequence[GroundTruth]) -> np.ndarray:
    boxes = chain.from_iterable([it.box for it in items])
    return np.fromiter(boxes, float, 4 * len(items)).reshape(-1, 4)


def _best_unmatched(
    ious: np.ndarray, unmatched: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the lowest-index unmatched column of highest positive IoU
    (-1 when there is none) and that IoU (0.0 when there is none)."""
    masked = np.where(unmatched, ious, 0.0)
    best_g = masked.argmax(axis=1)
    best_v = masked[np.arange(len(best_g)), best_g]
    best_g[best_v <= 0.0] = -1
    return best_g, best_v


def _match_image(
    scores: np.ndarray, ious: np.ndarray, iou_thresh: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching within one image: (IoU at pick, TP flag) per row.

    Rows are visited in descending score order; inside a tied group the
    row with the highest IoU against a still-unmatched ground truth goes
    first, then the lower row index.  A claim only lowers the best IoU of
    rows whose cached best ground truth it took, so only those are
    recomputed.
    """
    n = len(scores)
    unmatched = np.ones(ious.shape[1], dtype=bool)
    best_g, best_v = _best_unmatched(ious, unmatched)
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
            best_g[hit], best_v[hit] = _best_unmatched(ious[hit], unmatched)
            for j, old_v, new_v in zip(hit.tolist(), before, best_v[hit].tolist()):
                if new_v != old_v and scores[j] == score:
                    heapq.heappush(heap, (-new_v, j))
    return picked_v, flags


def _match_class(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresh: float
) -> list[bool]:
    """True-positive flags for one class's detections, in ranked order.

    Detections are processed in descending score order; within a tied
    score group the detection with the highest IoU against a currently
    unmatched ground truth goes first (then input order).  Each
    processed detection claims its best unmatched same-image ground
    truth when that IoU reaches the threshold.

    Matching never crosses images, so it runs per image on that image's
    IoU matrix.  Within an image the picks come in ascending order of
    (score desc, IoU at pick desc, input index); the global order is the
    merge of the per-image sequences, which is one sort on that key.
    """
    gts_by_image: dict[str, list[int]] = {}
    for g, gt in enumerate(gts):
        gts_by_image.setdefault(gt.image_id, []).append(g)
    dets_by_image: dict[str, list[int]] = {}
    for d, det in enumerate(dets):
        dets_by_image.setdefault(det.image_id, []).append(d)

    scores = np.array([det.score for det in dets], dtype=float)
    picked_v = np.zeros(len(dets))
    flags = np.zeros(len(dets), dtype=bool)
    for image, rows in dets_by_image.items():
        cols = gts_by_image.get(image)
        if cols is None:
            continue  # no ground truth in this image: every pick is a miss at IoU 0
        ious = _iou_matrix(
            _corners([dets[d] for d in rows]), _corners([gts[g] for g in cols])
        )
        picked_v[rows], flags[rows] = _match_image(scores[rows], ious, iou_thresh)
    ranked = np.lexsort((np.arange(len(dets)), -picked_v, -scores))
    return flags[ranked].tolist()


def average_precision(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresh: float = 0.5
) -> float:
    """Area under the all-points interpolated PR curve for one class.

    With no ground truths the AP is defined as 0 (any detections are all
    false positives); such classes are excluded from mAP by
    :func:`map_and_mrecall`.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    if not gts or not dets:
        return 0.0
    return _ap_from_flags(_match_class(dets, gts, iou_thresh), len(gts))


def _ap_from_flags(flags: Sequence[bool], n_gt: int) -> float:
    tps = list(accumulate(map(int, flags)))
    precisions = [tp / k for k, tp in enumerate(tps, start=1)]
    # Monotone precision envelope, integrated over recall increments.
    envelope = list(accumulate(reversed(precisions), max))[::-1]
    ap = prev_recall = 0.0
    for tp, best in zip(tps, envelope):
        recall = tp / n_gt
        ap += (recall - prev_recall) * best
        prev_recall = recall
    return ap


@dataclass
class ClassMetrics:
    ap: float
    recall: float
    gt_count: int
    det_count: int


@dataclass
class EvalSummary:
    map: float
    recall: float
    m_recall: float
    per_class: dict[int, ClassMetrics] = field(default_factory=dict)


def map_and_mrecall(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresh: float = 0.5
) -> EvalSummary:
    """mAP, class-agnostic recall, mRecall, and the per-class table.

    Classes are those with at least one ground truth; detections of
    other classes count as false positives nowhere and are ignored.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    if not gts:
        raise ValueError("ground-truth set is empty")

    by_class_gt: dict[int, list[GroundTruth]] = {}
    for gt in gts:
        by_class_gt.setdefault(gt.class_id, []).append(gt)
    by_class_det: dict[int, list[Detection]] = {}
    for det in dets:
        by_class_det.setdefault(det.class_id, []).append(det)

    per_class: dict[int, ClassMetrics] = {}
    total_matched = 0
    for cls in sorted(by_class_gt):
        cls_gts = by_class_gt[cls]
        cls_dets = by_class_det.get(cls, [])
        flags = _match_class(cls_dets, cls_gts, iou_thresh)
        matched = sum(flags)
        total_matched += matched
        per_class[cls] = ClassMetrics(
            ap=_ap_from_flags(flags, len(cls_gts)) if cls_dets else 0.0,
            recall=matched / len(cls_gts),
            gt_count=len(cls_gts),
            det_count=len(cls_dets),
        )

    m_ap = sum(m.ap for m in per_class.values()) / len(per_class)
    m_recall = sum(m.recall for m in per_class.values()) / len(per_class)
    recall = total_matched / len(gts)
    return EvalSummary(map=m_ap, recall=recall, m_recall=m_recall, per_class=per_class)


# ---------------------------------------------------------------------------
# JSONL io: one object per line with fields box [x1,y1,x2,y2], class_id,
# score (detections only), image_id and source optional.  Both readers
# share one record parser; a malformed line raises ValueError naming it.
# ---------------------------------------------------------------------------

# json.dumps builds one per call; NaN and Infinity are not JSON, and the readers reject them.
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
_DECODER = json.JSONDecoder()
_float_text = float.__repr__  # how json spells a finite float, of a subclass too


def _jsonl_line(box: Box, class_id: int, image_id: str, score: float | None = None,
                source: str = "") -> str:
    """``json.dumps(rec, sort_keys=True)`` and a newline, where ``rec`` holds
    box, class_id, image_id when not empty, score when given and source
    when not empty.

    Finite float corners and score, an int class id and str ids are
    spelled directly, as json spells them; anything else goes through the
    encoder.  A NaN or infinite value raises ValueError naming the record.
    """
    try:
        corners = ", ".join(map(_float_text, box))
        score_text = "" if score is None else _float_text(score)
        direct = ("n" not in corners and "n" not in score_text  # no nan or inf
                  and type(class_id) is int and type(image_id) is str and type(source) is str)
    except TypeError:  # a number that is not a float
        direct = False
    if direct:
        image = f', "image_id": {_ENCODE(image_id)}' if image_id else ""
        scored = f', "score": {score_text}' if score_text else ""
        tag = f', "source": {_ENCODE(source)}' if source else ""
        return f'{{"box": [{corners}], "class_id": {class_id}{image}{scored}{tag}}}\n'
    rec = {"box": list(box), "class_id": class_id}
    if image_id:
        rec["image_id"] = image_id
    if score is not None:
        rec["score"] = score
    if source:
        rec["source"] = source
    try:
        return _ENCODE(rec) + "\n"
    except ValueError:
        raise ValueError(f"cannot write a NaN or infinite value as JSON: {rec}") from None


def detection_lines(dets: Iterable[Detection]) -> Iterator[str]:
    """One JSONL line per detection, as the readers read it."""
    return (_jsonl_line(box, class_id, image_id, score, source)
            for box, class_id, score, source, image_id in dets)


def write_detections_jsonl(dets: Iterable[Detection], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(detection_lines(dets))


def write_groundtruths_jsonl(gts: Iterable[GroundTruth], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_jsonl_line(box, class_id, image_id) for box, class_id, image_id in gts)


def _finite(values: list, what: str) -> list[float]:
    """JSON numbers as floats; ValueError for anything else or non-finite."""
    if not all(type(v) is float or type(v) is int for v in values):
        raise ValueError(f"{what} must be numbers, got {values!r}")
    try:
        out = [float(v) for v in values]
        finite = all(map(math.isfinite, out))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite, got {values!r}")
    return out


def _string(rec: dict, key: str) -> str:
    value = rec.get(key, "")
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _json_value(line: str):
    """``json.loads(line)``; a line of one value and at most a newline skips
    its per-call set-up, any other runs it for its exact errors."""
    try:
        value, end = _DECODER.raw_decode(line)
        if end == len(line) or line[end:] == "\n":
            return value
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _parse_record(line: str, scored: bool) -> Detection | GroundTruth:
    """One JSONL line as a detection (``scored``) or a ground truth.

    Raises ValueError for anything but an object with a ``box`` of four
    finite numbers in corner order and an integer ``class_id``; a
    detection's ``score`` defaults to 1 and must lie in [0, 1].  Each field
    is checked once, here, and the records are built unchecked.
    """
    rec = _json_value(line)
    if type(rec) is not dict:
        raise ValueError(f"record must be a JSON object, got {type(rec).__name__}")
    box = rec.get("box")
    if type(box) is not list or len(box) != 4:
        raise ValueError(f"box must be a list of 4 numbers, got {box!r}")
    x1, y1, x2, y2 = box
    # Finite floats are what _finite would return; ints and the rest go through it.
    if not (type(x1) is type(y1) is type(x2) is type(y2) is float
            and isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
        x1, y1, x2, y2 = _finite(box, "box coordinates")
    corners = _ordered(_tuple_new(Box, (x1, y1, x2, y2)))
    class_id = rec.get("class_id")
    if type(class_id) is float and class_id.is_integer():
        class_id = int(class_id)
    if type(class_id) is not int:
        raise ValueError(f"class_id must be an integer, got {class_id!r}")
    image_id = _string(rec, "image_id")
    if not scored:
        return _tuple_new(GroundTruth, (corners, class_id, image_id))
    score = rec.get("score", 1.0)
    if not (type(score) is float and isfinite(score)):
        (score,) = _finite([score], "score")
    source = _string(rec, "source")
    return _tuple_new(Detection, (corners, class_id, _unit(score), source, image_id))


def not_utf8(path: str | Path) -> ValueError:
    """The error for a file that a UTF-8 reader could not decode, naming
    ``path`` and the line of its first byte that is not UTF-8 (the reader's
    own error counts bytes from the chunk it was decoding)."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path} line {line}: {exc}")
    return ValueError(f"{path}: not UTF-8 when read")


def _read_jsonl(path: str | Path, scored: bool) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    out.append(_parse_record(line, scored))
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from exc
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return out


def read_detections_jsonl(path: str | Path) -> list[Detection]:
    return _read_jsonl(path, scored=True)


def read_groundtruths_jsonl(path: str | Path) -> list[GroundTruth]:
    return _read_jsonl(path, scored=False)
