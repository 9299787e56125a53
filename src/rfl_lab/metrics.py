"""Detection metrics: IoU, per-class average precision, mAP, and mRecall.

Matching is greedy per class (and per image when image ids are used):
detections are visited in descending score order, each claims the
still-unmatched ground-truth box of the same class and image with the
highest IoU, provided that IoU reaches the match threshold.  Score ties
are broken by the candidate's best such IoU against the unmatched ground
truths, then by input order, so rankings are deterministic.

Average precision is the area under the precision-recall curve with the
monotone precision envelope evaluated at every point (no 11-point
sampling).  mAP averages AP over classes that have at least one ground
truth; classes that only appear in detections contribute AP 0 on their
own but are excluded from the mean.  Plain recall is the matched
fraction of all ground truths; mRecall is the unweighted mean of the
per-class matched fractions, which makes it insensitive to how many
instances each class has.

A box without a positive finite area (a point, a NaN or infinite corner,
an area that overflows) has IoU 0 or NaN against every box, so it never
matches: the sweep sets such boxes aside first (:func:`_can_overlap`).

Every (class, image) group is matched at once, in rounds: each round,
every group with detections left makes its next pick, so the Python
iterations number the detections of the largest group.  A detection is
tested only against the truths of its group that start within reach of
its box, and IoUs are computed ``_PAIR_CHUNK`` candidate pairs at a time.
Only the pairs of IoU at or above the threshold are kept, since no other
pair can ever match.  Memory is then the per-record columns, those pairs
and that chunk, never a dense IoU matrix of a crowded image.

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


def _iou_pairs(a, b) -> np.ndarray:
    """IoU of box ``a`` against box ``b``, elementwise: each is a sequence of
    its four corner columns (x1, y1, x2, y2), arrays that broadcast.

    The operations and their order are those of :func:`iou`, so each
    entry equals the scalar result bitwise.  The one exception is corners
    so large that the areas overflow: :func:`iou` then returns nan and
    this returns 0, and neither matches anything.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
        iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
        inter = ix * iy
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        valid = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
        out = np.zeros(inter.shape)
        np.divide(inter, union, out=out, where=valid)
    return out


def _corners(items: Sequence[Detection] | Sequence[GroundTruth]) -> np.ndarray:
    boxes = chain.from_iterable([it.box for it in items])
    return np.fromiter(boxes, float, 4 * len(items)).reshape(-1, 4)


def _can_overlap(corners: np.ndarray) -> np.ndarray:
    """Per (x1, y1, x2, y2) row, whether the area is positive and finite.  No
    other box can match or fuse: its IoU with any box is 0 or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        area = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
        return (area > 0.0) & (area < np.inf)


# Candidate pairs whose IoU is computed at once: the matcher's working
# memory beyond its per-record columns and the pairs of IoU at or above
# the threshold is a few dozen arrays of this length.
_PAIR_CHUNK = 1 << 11
# Relative slack on a group's widest truth, for the reach of a window.
_WIDTH_SLACK = 1.0 + 2.0**-50


def _run_starts(*sorted_cols: np.ndarray) -> np.ndarray:
    """Where each run of equal rows begins, in columns sorted together."""
    change = np.zeros(len(sorted_cols[0]), dtype=bool)
    change[:1] = True
    for col in sorted_cols:
        change[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(change)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [start, stop) laid end to end, and where each one begins."""
    lens = stops - starts
    offsets = lens.cumsum() - lens
    return np.arange(lens.sum()) + (starts - offsets).repeat(lens), offsets


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Pairs as complex numbers, which numpy sorts and searches by (real, imag)."""
    out = np.empty(len(real), complex)
    out.real = real
    out.imag = imag
    return out


def _windows(
    dbox: np.ndarray, tbox: np.ndarray, order: np.ndarray, torder: np.ndarray,
    group: np.ndarray, firsts: np.ndarray, iou_thresh: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the positions [lo, hi) in ``torder`` of its candidate truths.

    Row i is detection ``order[i]`` of truth group ``group[i]``; ``torder``
    sorts the truths by group, then x1, and group g begins at
    ``firsts[g]``; every box passed :func:`_can_overlap`, so its corners
    are finite.  The candidates are the truths of the row's group with x1 in
    [x1 - reach, x2).  The reach is the group's widest truth, or if less the
    detection's width w over ``iou_thresh``: a truth of IoU >= t overlaps it
    by at most w in x and is at most w / t wide, so it starts less than
    w / t - w before x1.  That spare w covers the rounding of the IoU for
    any t above 2^-40; below, only the widest truth bounds the reach.
    """
    stops = np.append(firsts[1:], len(torder))
    tx1 = tbox[torder, 0]
    width = np.maximum.reduceat(tbox[torder, 2] - tx1, firsts)[group]
    dx1, dx2 = dbox[order, 0], dbox[order, 2]
    with np.errstate(over="ignore"):  # near the float limit, the reach is -inf
        if iou_thresh > 2.0**-40:
            width = np.minimum(width, (dx2 - dx1) / iou_thresh)
        # The slack and the step down cover the rounding of x2 - x1 and of
        # the subtraction, so no truth that can match falls below reach.
        reach = np.nextafter(dx1 - width * _WIDTH_SLACK, -np.inf)
    # Complex numbers sort by (real, imag): one search finds (group, x).
    place = _complex(np.repeat(np.arange(len(firsts)), stops - firsts), tx1)
    lo = np.searchsorted(place, _complex(group, reach))
    hi = np.maximum(np.searchsorted(place, _complex(group, dx2)), lo)
    return lo, hi


def _sweep(
    dets: Sequence[Detection], gts: Sequence[GroundTruth],
    dscore: np.ndarray, dkey: np.ndarray, tkey: np.ndarray, iou_thresh: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows, and the pairs of IoU >= ``iou_thresh``: (order, group, rows, cols, vals).

    Only boxes that pass :func:`_can_overlap` enter; no other can match.
    The rows are those detections of keys that have such truths, by (key,
    score desc, index): detection ``order[i]``, of truth group ``group[i]``.
    The pairs (row, truth input index, IoU) come by row; each row is tested
    against its :func:`_windows` only, ``_PAIR_CHUNK`` pairs at a time.
    """
    dbox, tbox = _corners(dets), _corners(gts)
    torder = np.flatnonzero(_can_overlap(tbox))
    torder = torder[np.lexsort((tbox[torder, 0], tkey[torder]))]
    firsts = _run_starts(tkey[torder])
    keys = tkey[torder[firsts]]
    order = np.flatnonzero(_can_overlap(dbox))
    order = order[np.lexsort((-dscore[order], dkey[order]))]
    group = np.searchsorted(keys, dkey[order])
    has = np.searchsorted(keys, dkey[order], "right") > group
    order, group = order[has], group[has]
    lo, hi = _windows(dbox, tbox, order, torder, group, firsts, iou_thresh)

    dx1, dy1, dx2, dy2 = dbox.T
    tx1, ty1, tx2, ty2 = tbox.T
    before = np.concatenate([[0], np.cumsum(hi - lo)])  # pairs before each row
    rows, cols, vals = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    a = 0
    while a < len(order):
        b = max(int(np.searchsorted(before, before[a] + _PAIR_CHUNK, "right")) - 1, a + 1)
        r = np.repeat(np.arange(a, b), hi[a:b] - lo[a:b])
        d, t = order[r], torder[_ranges(lo[a:b], hi[a:b])[0]]
        # Most candidates miss in y (IoU 0): drop them before the IoU arithmetic.
        cross = np.minimum(dy2[d], ty2[t]) > np.maximum(dy1[d], ty1[t])
        r, d, t = r[cross], d[cross], t[cross]
        v = _iou_pairs((dx1[d], dy1[d], dx2[d], dy2[d]), (tx1[t], ty1[t], tx2[t], ty2[t]))
        keep = v >= iou_thresh
        rows.append(r[keep])
        cols.append(t[keep])
        vals.append(v[keep])
        a = b
    rows = np.concatenate(rows)  # one at a time: each list of chunks goes as it is joined
    cols = np.concatenate(cols)
    return order, group, rows, cols, np.concatenate(vals)


def _by_column(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' rows by column, and where each column's rows begin (one
    more entry, at the end)."""
    by_col = np.argsort(cols, kind="stable")
    return rows[by_col], np.searchsorted(cols[by_col], np.arange(n_cols + 1))


def _rounds(
    n: int, key_first: np.ndarray, block_first: np.ndarray,
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_truths: int,
) -> np.ndarray:
    """Greedy picks of every key in lockstep: the TP flag per row.

    The ``n`` rows are detections by (key, score desc, index); each key's
    rows begin at ``key_first`` and each tied score block's at
    ``block_first``.  The pairs at or above the match threshold are (rows,
    cols, vals), by row, with cols the truths' input indices.  Each round,
    every key with rows left picks the row of its current block with the
    highest best IoU, then the lowest index; the pick claims its best
    truth, if any, and re-scores only the rows whose best truth it took.
    """
    row_ptr = np.searchsorted(rows, np.arange(n + 1))
    col_rows, col_ptr = _by_column(rows, cols, n_truths)
    unmatched = np.ones(n_truths, dtype=bool)
    best_g = np.full(n, -1)
    best_v = np.zeros(n)

    def rescore(dets: np.ndarray) -> None:
        """Best unmatched truth and its IoU, of rows with a pair each."""
        idx, offsets = _ranges(row_ptr[dets], row_ptr[dets + 1])
        v = np.where(unmatched[cols[idx]], vals[idx], 0.0)
        top = np.maximum.reduceat(v, offsets)
        tie = np.where(v == top.repeat(row_ptr[dets + 1] - row_ptr[dets]), cols[idx], n_truths)
        best_g[dets] = np.where(top > 0.0, np.minimum.reduceat(tie, offsets), -1)
        best_v[dets] = top

    rescore(np.flatnonzero(row_ptr[:-1] < row_ptr[1:]))

    sizes = np.diff(np.append(key_first, n))
    by_size = np.argsort(-sizes, kind="stable")  # the keys still active lead
    key_first, sizes = key_first[by_size], sizes[by_size]
    block_stop = np.append(block_first[1:], n)
    hit, done = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    active = len(sizes)
    for step in range(int(sizes[0])):
        while sizes[active - 1] <= step:
            active -= 1
        at = block_first.searchsorted(key_first[:active] + step, "right") - 1
        lo, hi = block_first[at], block_stop[at]
        idx, offsets = _ranges(lo, hi)
        key = np.where(done[idx], -1.0, best_v[idx])
        top = np.maximum.reduceat(key, offsets)
        pick = np.minimum.reduceat(np.where(key == top.repeat(hi - lo), idx, n), offsets)
        g = best_g[pick]
        done[pick] = True
        claim = g >= 0
        hit[pick] = claim
        g = g[claim]
        if len(g):
            unmatched[g] = False
            idx, _ = _ranges(col_ptr[g], col_ptr[g + 1])
            near = col_rows[idx]
            rescore(near[~done[near] & (best_g[near] == g.repeat(col_ptr[g + 1] - col_ptr[g]))])
    return hit


def _match(
    dets: Sequence[Detection], gts: Sequence[GroundTruth],
    dscore: np.ndarray, dkey: np.ndarray, tkey: np.ndarray, iou_thresh: float,
) -> np.ndarray:
    """Greedy matching of detections to the truths of the same key, every
    key at once: the TP flag per detection, in input order.

    Inside a key, detections are visited in descending score order; inside
    a tied score block the one of highest current best IoU goes first, then
    the lower index.  A detection's best truth is the unmatched truth of
    highest IoU at or above ``iou_thresh``, the lowest truth index among
    equals, or none; a picked detection claims its best truth.  A detection
    of a key without truths is never picked: no TP.
    """
    flags = np.zeros(len(dets), dtype=bool)
    if not dets or not gts:
        return flags
    order, group, rows, cols, vals = _sweep(dets, gts, dscore, dkey, tkey, iou_thresh)
    if len(order):
        flags[order] = _rounds(len(order), _run_starts(group), _run_starts(group, dscore[order]),
                               rows, cols, vals, len(gts))
    return flags


def _flags_by_class(
    dets: Sequence[Detection], gts: Sequence[GroundTruth],
    d_cls: np.ndarray, t_cls: np.ndarray, n_classes: int, iou_thresh: float,
) -> list[list[bool]]:
    """True-positive flags of each class code 0 .. n_classes - 1, in ranked
    order: (score desc, flag desc, input index), as the greedy picks of a
    tied block make all their claims first.  ``d_cls`` and ``t_cls`` hold
    the class codes; a detection of code -1 is dropped.

    Matching never crosses a class or an image, so each (class, image)
    pair is one key of :func:`_match`.
    """
    images: dict[str, int] = {}
    t_key = np.fromiter([images.setdefault(gt.image_id, len(images)) for gt in gts],
                        np.int64, len(gts))
    t_key += t_cls * len(images)
    d_key = np.fromiter([images.get(det.image_id, -1) for det in dets], np.int64, len(dets))
    d_key = np.where((d_key < 0) | (d_cls < 0), -1, d_cls * len(images) + d_key)
    scores = np.fromiter([det.score for det in dets], float, len(dets))
    flags = _match(dets, gts, scores, d_key, t_key, iou_thresh)
    ranked = np.lexsort((~flags, -scores, d_cls))
    cuts = np.searchsorted(d_cls[ranked], np.arange(n_classes + 1)).tolist()
    return [flags[ranked[a:b]].tolist() for a, b in zip(cuts, cuts[1:])]


def average_precision(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresh: float = 0.5
) -> float:
    """Area under the all-points interpolated PR curve for one class.

    Every record counts as that class, whatever its ``class_id``.  With no
    ground truths the AP is defined as 0 (any detections are all false
    positives); such classes are excluded from mAP by
    :func:`map_and_mrecall`.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    if not gts or not dets:
        return 0.0
    (flags,) = _flags_by_class(dets, gts, np.zeros(len(dets), np.int64),
                               np.zeros(len(gts), np.int64), 1, iou_thresh)
    return _ap_from_flags(flags, len(gts))


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

    classes = sorted(dict.fromkeys([gt.class_id for gt in gts]))
    code = {cls: k for k, cls in enumerate(classes)}
    t_cls = np.fromiter([code[gt.class_id] for gt in gts], np.int64, len(gts))
    d_cls = np.fromiter([code.get(det.class_id, -1) for det in dets], np.int64, len(dets))
    gt_counts = np.bincount(t_cls, minlength=len(classes)).tolist()
    by_class = _flags_by_class(dets, gts, d_cls, t_cls, len(classes), iou_thresh)

    per_class: dict[int, ClassMetrics] = {}
    total_matched = 0
    for cls, n_gt, flags in zip(classes, gt_counts, by_class):
        matched = sum(flags)
        total_matched += matched
        per_class[cls] = ClassMetrics(
            ap=_ap_from_flags(flags, n_gt) if flags else 0.0,
            recall=matched / n_gt,
            gt_count=n_gt,
            det_count=len(flags),
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


def _write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Stream ``lines`` to ``path``.  When a line cannot be made or written,
    the file is removed (a regular one; not a device such as /dev/stdout)
    and the error re-raised, so no partial output stays at ``path``."""
    fh = open(path, "w")
    try:
        with fh:
            fh.writelines(lines)
    except BaseException:
        if Path(path).is_file():
            Path(path).unlink()
        raise


def write_detections_jsonl(dets: Iterable[Detection], path: str | Path) -> None:
    _write_lines(detection_lines(dets), path)


def write_groundtruths_jsonl(gts: Iterable[GroundTruth], path: str | Path) -> None:
    _write_lines((_jsonl_line(box, class_id, image_id) for box, class_id, image_id in gts), path)


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
