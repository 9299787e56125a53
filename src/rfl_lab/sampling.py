"""Synthetic long-tailed datasets and random undersampling of frequent classes.

A dataset is a :class:`Dataset` of arrays: features ``X`` (n, d), labels
``y`` (n,) and mislabel flags ``noisy`` (n,).  Synthetic datasets are
drawn from isotropic unit Gaussians whose class means sit on an integer
lattice scaled by the requested separation, so pairwise mean distances
are at least the separation by construction.  A chosen fraction of
labels is then flipped uniformly to another class to emulate mislabeled
data.

Undersampling is a keep-mask that drops each example of class ``c``
independently with the class's skip probability.  All randomness comes
from numpy's PCG64 generator seeded explicitly (one draw per example, in
input order), so identical inputs and seeds reproduce identical outputs
across runs and platforms.

Scene sets for the two-stage proposal experiment are generated here as
well: a :class:`SceneSet` holds each scene's heavily background-dominated
pool of candidate feature vectors as flat rows, scene by scene, with
binary objectness labels plus class labels for the positives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np


class Dataset(NamedTuple):
    """Labelled examples as arrays; row i of each field is example i."""

    X: np.ndarray      # (n, d) float64 features
    y: np.ndarray      # (n,) int64 labels
    noisy: np.ndarray  # (n,) bool, label flipped by noise injection


@dataclass(frozen=True)
class UndersamplePolicy:
    """Per-class removal probabilities; classes absent from the map are kept."""

    skip_prob: Mapping[int, float]
    seed: int = 0

    def __post_init__(self) -> None:
        for cls, p in self.skip_prob.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"skip_prob[{cls}] must be in [0, 1], got {p}")


@dataclass(frozen=True)
class SynthDatasetSpec:
    """Long-tailed Gaussian-cluster dataset description."""

    class_counts: Sequence[int]
    feature_dim: int
    cluster_separation: float = 3.0
    label_noise_rate: float = 0.0
    seed: int = 0

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    def __post_init__(self) -> None:
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if not self.class_counts or any(c < 1 for c in self.class_counts):
            raise ValueError("class_counts must be non-empty positive integers")
        if not (0.0 <= self.label_noise_rate < 1.0):
            raise ValueError("label_noise_rate must be in [0, 1)")
        if self.cluster_separation <= 0.0:
            raise ValueError("cluster_separation must be positive")
        if self.label_noise_rate > 0.0 and self.num_classes < 2:
            raise ValueError("label noise needs at least 2 classes")


def class_means(num_classes: int, feature_dim: int, separation: float) -> np.ndarray:
    """Deterministic class means on an integer lattice scaled by the separation.

    Class ``c`` maps to the c-th point of a ``side**feature_dim`` grid
    (x-fastest), scaled by ``separation``; distinct lattice points are at
    least one spacing apart, so pairwise distances are >= separation
    exactly, independent of any seed.
    """
    side = max(2, math.ceil(num_classes ** (1.0 / feature_dim)))
    while side**feature_dim < num_classes:
        side += 1
    c, digits = np.arange(num_classes), np.zeros((num_classes, feature_dim))
    for d in range(feature_dim):
        if side**d >= num_classes:  # every higher digit of every class is 0
            break
        digits[:, d] = c // side**d % side
    return digits * separation


def generate_synthetic(spec: SynthDatasetSpec) -> Dataset:
    """Draw the dataset described by ``spec``; deterministic per seed.

    Classes are emitted in blocks (class 0 first).  Exactly
    ``floor(total * label_noise_rate)`` examples, chosen uniformly
    without replacement, get their label reassigned uniformly among the
    other classes and flagged ``noisy``.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes, spec.feature_dim, spec.cluster_separation)
    y = np.repeat(np.arange(spec.num_classes), spec.class_counts)
    X = means[y] + rng.standard_normal((len(y), spec.feature_dim))
    noisy = np.zeros(len(y), dtype=bool)

    n_noisy = int(len(y) * spec.label_noise_rate)
    if n_noisy:
        flip = rng.choice(len(y), size=n_noisy, replace=False)
        offset = rng.integers(1, spec.num_classes, size=n_noisy)
        y[flip] = (y[flip] + offset) % spec.num_classes
        noisy[flip] = True
    return Dataset(X, y, noisy)


def undersample_skip(labels: np.ndarray, skip_prob: Mapping[int, float]) -> np.ndarray:
    """Each example's skip probability: its class's in ``skip_prob``, else 0."""
    classes, inverse = np.unique(labels, return_inverse=True)
    return np.array([skip_prob.get(int(c), 0.0) for c in classes])[inverse]


def undersample_keep(skip: np.ndarray, seed: int) -> np.ndarray:
    """Keep-mask of one uniform draw per example, in input order, from a
    PCG64 stream seeded with ``seed``, against each example's ``skip``."""
    return np.random.default_rng(seed).random(len(skip)) >= skip


def undersample_mask(labels: np.ndarray, policy: UndersamplePolicy) -> np.ndarray:
    """Keep-mask that drops each example with its class's skip probability:
    :func:`undersample_keep` against :func:`undersample_skip`, which a
    trainer computes once and draws every epoch's mask against."""
    return undersample_keep(undersample_skip(labels, policy.skip_prob), policy.seed)


# ---------------------------------------------------------------------------
# CSV serialization: feature_0..feature_{d-1}, label, noisy (noisy as 0/1).
# ---------------------------------------------------------------------------


def write_dataset_csv(data: Dataset, path: str | Path) -> None:
    if not len(data.y):
        raise ValueError("cannot serialize an empty dataset")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(data.X.shape[1])] + ["label", "noisy"])
        for feats, label, noisy in zip(data.X.tolist(), data.y.tolist(), data.noisy.tolist()):
            writer.writerow([repr(v) for v in feats] + [label, int(noisy)])


def _csv_rows(path: str | Path):
    """(line number, row) of each record of the CSV file ``path``; a record
    the csv module refuses, or a byte that is not UTF-8, is a ValueError
    naming the file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            from .metrics import not_utf8

            raise not_utf8(path) from None


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`.  ValueError names
    the line of a bad header, a wrong field count, a non-finite feature, a
    label that is not a non-negative integer, a noisy flag other than 0/1,
    a record the csv module refuses (such as an over-long field) or a byte
    that is not UTF-8; a file with no data rows is refused too."""
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None or header[-2:] != ["label", "noisy"]:
        raise ValueError(f"{path} line 1: expected a header ending in label,noisy")
    dim = len(header) - 2
    feats, labels, noisy = [], [], []
    for line, row in rows:
        where = f"{path} line {line}"
        if len(row) != dim + 2:
            raise ValueError(f"{where}: expected {dim + 2} fields, got {len(row)}")
        try:
            x = [float(v) for v in row[:dim]]
        except ValueError:
            x = [math.nan]
        if not all(map(math.isfinite, x)):
            raise ValueError(f"{where}: features must be finite numbers")
        label, flag = row[dim:]
        if not (label.isascii() and label.isdigit()) or flag not in ("0", "1"):
            raise ValueError(f"{where}: label must be a non-negative integer and "
                             f"noisy 0 or 1, got {label!r} and {flag!r}")
        feats.append(x)
        labels.append(int(label))
        noisy.append(flag == "1")
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        np.array(feats, dtype=np.float64).reshape(len(labels), dim),
        np.array(labels, dtype=np.int64),
        np.array(noisy, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Scene sets for the two-stage proposal experiment.
# ---------------------------------------------------------------------------


class SceneSet(NamedTuple):
    """Proposal pools of equal-sized scenes; scene ``s`` is rows
    ``s * per_scene`` up to ``(s + 1) * per_scene`` of every array.

    ``is_object`` and ``class_id`` are the (possibly flipped) labels
    training sees (``class_id`` -1 for background); ``true_class``
    records the actual object class (-1 for actual background) so
    evaluation can count real objects after noise injection.  ``noisy``
    marks flipped objectness labels.
    """

    X: np.ndarray  # (num_scenes * per_scene, d) float64
    is_object: np.ndarray
    class_id: np.ndarray
    true_class: np.ndarray
    noisy: np.ndarray
    per_scene: int


@dataclass(frozen=True)
class SceneSetSpec:
    """Background-dominated candidate pools with optional objectness noise."""

    num_scenes: int
    fg_per_scene: int
    bg_per_scene: int
    num_classes: int
    feature_dim: int
    separation: float = 2.0
    objectness_noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_scenes, self.fg_per_scene, self.bg_per_scene) < 1:
            raise ValueError("scene counts must be positive")
        if self.num_classes < 1 or self.feature_dim < 1:
            raise ValueError("num_classes and feature_dim must be >= 1")
        if not (0.0 <= self.objectness_noise_rate < 1.0):
            raise ValueError("objectness_noise_rate must be in [0, 1)")


def generate_scenes(spec: SceneSetSpec) -> SceneSet:
    """Scenes of fg/bg candidates (fg first in each); deterministic per seed.

    Background candidates are drawn around the origin; foreground class
    ``c`` around lattice point ``c + 1`` (skipping the origin), so every
    object class sits at least ``separation`` away from the background
    cluster.  Foreground class labels follow a 1/(c+1) long-tailed
    profile.  A fraction of candidates, chosen uniformly per scene, has
    its objectness label flipped (``noisy=True``); flipped background
    gets a uniformly drawn class label.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes + 1, spec.feature_dim, spec.separation)
    weights = 1.0 / (1.0 + np.arange(spec.num_classes))
    weights /= weights.sum()

    fg, per_scene = spec.fg_per_scene, spec.fg_per_scene + spec.bg_per_scene
    n_flip = int(per_scene * spec.objectness_noise_rate)
    X = np.empty((spec.num_scenes, per_scene, spec.feature_dim))
    true_class = np.full((spec.num_scenes, per_scene), -1, dtype=np.int64)
    class_id = np.full((spec.num_scenes, per_scene), -1, dtype=np.int64)
    for s in range(spec.num_scenes):
        true_class[s, :fg] = rng.choice(spec.num_classes, size=fg, p=weights)
        class_id[s, :fg] = true_class[s, :fg]
        X[s] = rng.standard_normal((per_scene, spec.feature_dim))
        X[s, :fg] += means[1:][true_class[s, :fg]]
        if n_flip:
            flip = rng.choice(per_scene, size=n_flip, replace=False)
            to_bg, to_fg = flip[flip < fg], flip[flip >= fg]
            class_id[s, to_bg] = -1
            class_id[s, to_fg] = rng.integers(spec.num_classes, size=len(to_fg))
    is_object, class_id, true_class = (class_id >= 0).ravel(), class_id.ravel(), true_class.ravel()
    # A flip inverts observed objectness, so the flipped rows are where it
    # disagrees with the truth.
    return SceneSet(X.reshape(-1, spec.feature_dim), is_object, class_id, true_class,
                    is_object != (true_class >= 0), per_scene)
