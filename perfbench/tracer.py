"""Span recorder bound from outside onto the lab's public functions.

The benchmark never edits the program.  For a traced run it replaces
module attributes at their call sites (``rfl_lab.train.softmax_batch`` is
the name ``train_classifier`` looks up on every step) with wrappers that
record a span (name, start, end, parent, op) and, for some names, a
count derived from the call's arguments and result.  Spans stay in memory
and are written out once, when the run ends.

A wrapped name missing from the program is recorded as absent with the
reason; it never fails the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

Counter = Callable[[dict, tuple, object], None]


def _len_or_true(obj) -> int:
    """Kept count of a list, or of a boolean keep-mask."""
    if isinstance(obj, np.ndarray) and obj.dtype == bool:
        return int(np.count_nonzero(obj))
    return len(obj)


def count_undersample(c: dict, args: tuple, result) -> None:
    c["undersample_in"] += len(args[0])
    c["undersample_kept"] += _len_or_true(result)


def count_tiles(c: dict, args: tuple, result) -> None:
    c["tiles"] += len(result)


def count_mapped(c: dict, args: tuple, result) -> None:
    c["boxes_mapped"] += len(result)


def count_fuse(c: dict, args: tuple, result) -> None:
    c["fuse_in"] += len(args[0])
    c["fuse_out"] += len(result)


def count_map(c: dict, args: tuple, result) -> None:
    c["map_dets"] += len(args[0])
    evaluated = sum(m.det_count for m in result.per_class.values())
    c["map_dets_evaluated"] += evaluated
    c["map_tp"] += sum(round(m.recall * m.gt_count) for m in result.per_class.values())


# (module, attribute, span name, counter): every call site a workload uses.
TRAINING_WRAPS = [
    ("rfl_lab.experiment", "run_experiment", "experiment.run_experiment", None),
    ("rfl_lab.experiment", "generate_synthetic", "sampling.generate", None),
    ("rfl_lab.experiment", "generate_scenes", "sampling.generate", None),
    ("rfl_lab.experiment", "train_classifier", "train.train_classifier", None),
    ("rfl_lab.experiment", "evaluate_classifier", "train.evaluate_classifier", None),
    ("rfl_lab.experiment", "train_two_stage", "train.train_two_stage", None),
    ("rfl_lab.train", "train_classifier", "train.train_classifier", None),
    ("rfl_lab.train", "train_objectness", "train.train_objectness", None),
    ("rfl_lab.train", "softmax_batch", "train.softmax_batch", None),
    ("rfl_lab.train", "binary_batch", "train.binary_batch", None),
    ("rfl_lab.train", "undersample", "sampling.undersample", count_undersample),
]

DETECT_WRAPS = [
    ("rfl_lab.geometry", "tile_grid", "geometry.tile_grid", count_tiles),
    ("rfl_lab.geometry", "clip_boxes_to_tile", "geometry.clip_boxes_to_tile", None),
    ("rfl_lab.geometry", "invert_tta", "geometry.invert_tta", None),
    ("rfl_lab.geometry", "tile_to_scene", "geometry.tile_to_scene", count_mapped),
    ("rfl_lab.ensemble", "fuse", "ensemble.fuse", count_fuse),
    ("rfl_lab.metrics", "write_detections_jsonl", "metrics.write_jsonl", None),
    ("rfl_lab.metrics", "write_groundtruths_jsonl", "metrics.write_jsonl", None),
    ("rfl_lab.metrics", "read_detections_jsonl", "metrics.read_jsonl", None),
    ("rfl_lab.metrics", "read_groundtruths_jsonl", "metrics.read_jsonl", None),
    ("rfl_lab.metrics", "map_and_mrecall", "metrics.map_and_mrecall", count_map),
]


class Tracer:
    """In-memory spans plus counters; one instance per traced run."""

    def __init__(self) -> None:
        # One span per index, in parallel arrays: millions of small lists
        # would be tracked by the cyclic GC and slow the program down.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.ops = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def span(self, name: str, op: int) -> "_Span":
        """Context manager for a span the benchmark itself owns (an op)."""
        return _Span(self, name, op)

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        starts, ends, open_span = self.starts, self.ends, self._open

        def traced(*args, **kwargs):
            idx = open_span(name)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self, wraps: Iterable[tuple]) -> None:
        for module_name, attr, name, counter in wraps:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent[f"{module_name}.{attr}"] = (
                    f"{module_name} has no attribute {attr!r} at this commit"
                )
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and per-call times."""
        out: dict[str, dict] = {}
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["total_s"] += d
            entry["self_s"] += s
            entry["durations"].append(d)
        return out

    def accounted_ratio(self, root_names: set[str]) -> float:
        """(self times of every span under the roots) / (roots' wall time)."""
        dur, own = self.durations(), self.self_times()
        root_of: list[int] = []
        wall = covered = 0.0
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            root = i if name in root_names else (root_of[parent] if parent >= 0 else -1)
            root_of.append(root)
            if root == i:
                wall += dur[i]
            if root >= 0:
                covered += own[i]
        return covered / wall if wall > 0 else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write("{},{:.9f},{:.9f},{},{}\n".format(*row))


class _Span:
    def __init__(self, tracer: Tracer, name: str, op: int) -> None:
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self) -> None:
        self.tracer.op = self.op
        self.idx = self.tracer._open(self.name)
        self.tracer.starts[self.idx] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer.ends[self.idx] = time.perf_counter()
        self.tracer._stack.pop()
