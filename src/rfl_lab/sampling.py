"""Synthetic long-tailed datasets and random undersampling of frequent classes.

Datasets are lists of :class:`LabeledExample` drawn from isotropic unit
Gaussians whose class means sit on an integer lattice scaled by the
requested separation, so pairwise mean distances are at least the
separation by construction.  A chosen fraction of labels is then flipped
uniformly to another class to emulate mislabeled data.

Undersampling drops each example of class ``c`` independently with the
class's skip probability, preserving input order.  All randomness comes
from numpy's PCG64 generator seeded explicitly (one draw per example, in
input order), so identical inputs and seeds reproduce identical outputs
across runs and platforms.

Scene sets for the two-stage proposal experiment are generated here as
well: each scene holds a heavily background-dominated pool of candidate
feature vectors with binary objectness labels, plus class labels for the
positives.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(eq=False)  # ndarray fields make generated __eq__ ambiguous
class LabeledExample:
    features: np.ndarray
    label: int
    noisy: bool = False


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
    means = np.zeros((num_classes, feature_dim))
    for c in range(num_classes):
        rem = c
        for d in range(feature_dim):
            means[c, d] = rem % side
            rem //= side
    return means * separation


def generate_synthetic(spec: SynthDatasetSpec) -> list[LabeledExample]:
    """Draw the dataset described by ``spec``; deterministic per seed.

    Classes are emitted in blocks (class 0 first).  Exactly
    ``floor(total * label_noise_rate)`` examples, chosen uniformly
    without replacement, get their label reassigned uniformly among the
    other classes and flagged ``noisy``.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes, spec.feature_dim, spec.cluster_separation)
    examples: list[LabeledExample] = []
    for c, count in enumerate(spec.class_counts):
        feats = means[c] + rng.standard_normal((count, spec.feature_dim))
        examples.extend(LabeledExample(f, c) for f in feats)

    n_noisy = int(len(examples) * spec.label_noise_rate)
    if n_noisy:
        flip = rng.choice(len(examples), size=n_noisy, replace=False)
        for idx in flip:
            ex = examples[idx]
            offset = rng.integers(1, spec.num_classes)
            examples[idx] = LabeledExample(
                ex.features, int((ex.label + offset) % spec.num_classes), noisy=True
            )
    return examples


def undersample_mask(labels: np.ndarray, policy: UndersamplePolicy) -> np.ndarray:
    """Keep-mask that drops each example with its class's skip probability.

    One uniform draw is consumed per input example, in input order, from
    a PCG64 stream seeded with ``policy.seed``.
    """
    classes, inverse = np.unique(labels, return_inverse=True)
    skip = np.array([policy.skip_prob.get(int(c), 0.0) for c in classes])
    u = np.random.default_rng(policy.seed).random(len(labels))
    return u >= skip[inverse]


def undersample(
    examples: Sequence[LabeledExample], policy: UndersamplePolicy
) -> list[LabeledExample]:
    """The examples :func:`undersample_mask` keeps, in input order, unmodified."""
    keep = undersample_mask(np.array([ex.label for ex in examples], dtype=np.int64), policy)
    return [ex for ex, k in zip(examples, keep) if k]


def class_frequencies(examples: Iterable[LabeledExample]) -> dict[int, int]:
    """Exact per-class instance counts."""
    return dict(Counter(ex.label for ex in examples))


# ---------------------------------------------------------------------------
# CSV serialization: feature_0..feature_{d-1}, label, noisy (noisy as 0/1).
# ---------------------------------------------------------------------------


def write_dataset_csv(examples: Sequence[LabeledExample], path: str | Path) -> None:
    if not examples:
        raise ValueError("cannot serialize an empty dataset")
    dim = len(examples[0].features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(dim)] + ["label", "noisy"])
        for ex in examples:
            writer.writerow(
                [repr(float(v)) for v in ex.features] + [ex.label, int(ex.noisy)]
            )


def read_dataset_csv(path: str | Path) -> list[LabeledExample]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-2:] != ["label", "noisy"]:
            raise ValueError(f"unrecognized dataset header in {path}")
        dim = len(header) - 2
        return [
            LabeledExample(
                np.array([float(v) for v in row[:dim]]),
                int(row[dim]),
                bool(int(row[dim + 1])),
            )
            for row in reader
        ]


# ---------------------------------------------------------------------------
# Scene sets for the two-stage proposal experiment.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Candidate:
    """One proposal candidate.

    ``is_object`` and ``class_id`` are the (possibly flipped) labels
    training sees; ``true_class`` records the actual object class (-1
    for actual background) so evaluation can count real objects after
    noise injection.  ``noisy`` marks flipped objectness labels.
    """

    features: np.ndarray
    is_object: bool
    class_id: int = -1  # -1 for background
    noisy: bool = False
    true_class: int = -1

    @property
    def is_true_object(self) -> bool:
        return self.true_class >= 0


@dataclass
class Scene:
    candidates: list[Candidate] = field(default_factory=list)


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


def generate_scenes(spec: SceneSetSpec) -> list[Scene]:
    """Scenes of fg/bg candidates; deterministic per seed.

    Background candidates are drawn around the origin; foreground class
    ``c`` around lattice point ``c + 1`` (skipping the origin), so every
    object class sits at least ``separation`` away from the background
    cluster.  Foreground class labels follow a 1/(c+1) long-tailed
    profile.  A fraction of candidates, chosen uniformly per scene, has
    its objectness label flipped (``noisy=True``); flipped background
    keeps a uniformly drawn class label.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes + 1, spec.feature_dim, spec.separation)
    fg_means = means[1:]
    weights = 1.0 / (1.0 + np.arange(spec.num_classes))
    weights /= weights.sum()

    scenes = []
    for _ in range(spec.num_scenes):
        cands: list[Candidate] = []
        classes = rng.choice(spec.num_classes, size=spec.fg_per_scene, p=weights)
        for c in classes:
            f = fg_means[c] + rng.standard_normal(spec.feature_dim)
            cands.append(Candidate(f, True, int(c), true_class=int(c)))
        bg = rng.standard_normal((spec.bg_per_scene, spec.feature_dim))
        cands.extend(Candidate(f, False) for f in bg)

        n_flip = int(len(cands) * spec.objectness_noise_rate)
        if n_flip:
            for idx in rng.choice(len(cands), size=n_flip, replace=False):
                c = cands[idx]
                if c.is_object:
                    cands[idx] = Candidate(
                        c.features, False, -1, noisy=True, true_class=c.true_class
                    )
                else:
                    cands[idx] = Candidate(
                        c.features, True, int(rng.integers(spec.num_classes)),
                        noisy=True, true_class=-1,
                    )
        scenes.append(Scene(cands))
    return scenes
