"""Deterministic manual-gradient training under any of the three losses.

Two trainers live here.  ``train_classifier`` fits a linear softmax
model with plain minibatch SGD (no momentum, no weight decay), averaging
per-sample losses and gradients over each batch so learning rates stay
comparable across batch sizes.  ``train_two_stage`` mirrors a
proposal-then-classify detector at desk scale: a binary objectness
scorer trained with stratified foreground/background minibatches feeds
its top-K candidates per scene to a multiclass classifier, and the
report carries proposal recall (overall and per class) plus stage-2
recall on the retained positives.

Determinism: everything derives from explicit integer seeds through
numpy's PCG64.  The configured seed feeds two child streams (weight
init and batch order); per-epoch undersampling derives its own sub-seed
from the policy seed and the epoch index, so enabling an undersample
policy never perturbs the batch stream, and an all-zero-skip policy
reproduces the unconfigured trajectory bitwise.  Runs that share those
streams and differ only in loss and lr schedule train in lockstep, one
batch draw for all, and each ends bitwise where it would alone.

Data arrive as arrays (``sampling.Dataset`` and ``sampling.SceneSet``;
all scenes are scored, ranked and counted at once).  One SGD step of
every run in lockstep is matmul, loss head, matmul: ``softmax_step`` and
``binary_step`` score the stacked models, take losses and logit
gradients from ``losses.softmax_head`` or ``losses.sigmoid_head`` (the
heads ``rfl-lab gradcheck`` checks), and reduce the gradients over the
batch; the trainer writes the step's mean losses into one (iterations,
runs) curve buffer, turned into lists once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .losses import LossParams, sigmoid_head, softmax_head
from .sampling import Dataset, SceneSet, UndersamplePolicy, undersample_mask

@dataclass(frozen=True)
class TrainConfig:
    loss: LossParams
    epochs: int
    batch_size: int
    lr_schedule: tuple[tuple[float, float], ...]
    weight_init_seed: int = 0
    undersample: UndersamplePolicy | None = None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must not be empty")
        prev = -math.inf
        for t, rate in self.lr_schedule:
            if t <= prev:
                raise ValueError("lr thresholds must be strictly increasing")
            if rate <= 0:
                raise ValueError("learning rates must be positive")
            prev = t


@dataclass
class LinearModel:
    weights: np.ndarray  # (num_classes, feature_dim)
    biases: np.ndarray   # (num_classes,)

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.biases

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores(X), axis=1)


def lr_at(schedule: Sequence[tuple[float, float]], iteration: int) -> float:
    """Rate of the first schedule threshold exceeding the iteration index."""
    for threshold, rate in schedule:
        if iteration < threshold:
            return rate
    return schedule[-1][1]


def _init(shape: tuple[int, ...], runs: int, seed: int):
    """(weights (runs, *shape), batch stream): the seed's two child streams,
    one drawing uniform weights in [-0.01, 0.01] that every run starts
    from, the other the batch order."""
    rng_init, rng_batch = (np.random.default_rng(s) for s in
                           np.random.SeedSequence(seed).spawn(2))
    return np.repeat(rng_init.uniform(-0.01, 0.01, size=(1, *shape)), runs, axis=0), rng_batch


def init_model(num_classes: int, feature_dim: int, seed: int) -> LinearModel:
    """Zero biases and the weights of :func:`_init`, for one run."""
    return LinearModel(_init((num_classes, feature_dim), 1, seed)[0][0], np.zeros(num_classes))


def softmax_step(
    X: np.ndarray, y: np.ndarray, W: np.ndarray, b: np.ndarray,
    params: Sequence[LossParams],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample losses (S, B) and batch-mean gradients (S, C, d), (S, C)
    of S stacked models ``W`` (S, C, d), ``b`` (S, C) on one minibatch, one
    loss per model.  Each slice is bitwise what that model computes alone
    (matmul runs one gemm per slice); the losses are C-ordered, so a reduce
    along axis 1 sums each row as ``row.mean()`` does."""
    z = np.matmul(X, W.transpose(0, 2, 1))
    z += b[:, None, :]
    losses, glogits = softmax_head(z, y, params)
    dW = np.matmul(glogits.transpose(0, 2, 1), X) / X.shape[0]
    db = np.add.reduce(glogits, axis=1) / X.shape[0]
    return losses, dW, db


def binary_step(
    X: np.ndarray, sign: np.ndarray, W: np.ndarray, b: np.ndarray,
    params: Sequence[LossParams],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sigmoid twin of :func:`softmax_step`: losses (A, B) and gradients
    (A, d), (A,) of A stacked scorers ``W`` (A, d), ``b`` (A,), with
    ``sign`` +1 for label 1 and -1 for label 0.  matmul broadcasts the
    batch over the scorers, one gemv per slice."""
    z = np.matmul(X, W[:, :, None])[:, :, 0]
    z += b[:, None]
    losses, gz = sigmoid_head(z, sign, params)
    dW = np.matmul(gz[:, None, :], X)[:, 0, :] / X.shape[0]
    db = np.add.reduce(gz, axis=1) / X.shape[0]
    return losses, dW, db


# ---------------------------------------------------------------------------
# Linear softmax training.
# ---------------------------------------------------------------------------


def _epoch_policy(policy: UndersamplePolicy, epoch: int) -> UndersamplePolicy:
    sub = np.random.SeedSequence(policy.seed, spawn_key=(epoch,))
    return replace(policy, seed=int(sub.generate_state(1, np.uint64)[0]))


def _lockstep(config, shared: tuple[str, ...]) -> tuple[list, bool]:
    """(runs, whether one bare config was given).  Runs in lockstep draw
    one data and batch stream, so they must agree on the ``shared`` fields."""
    single = not isinstance(config, Sequence)
    runs = [config] if single else list(config)
    for name in shared:
        if any(getattr(r, name) != getattr(runs[0], name) for r in runs):
            raise ValueError(f"runs trained in lockstep must share {name}")
    return runs, single


def _run_tables(runs: Sequence[TrainConfig], n: int):
    """(each run's loss, curve buffer, rate table) for ``runs`` of
    ceil(n / batch_size) iterations an epoch; both tables are (iterations,
    runs), the rates each run's :func:`lr_at` at every iteration."""
    iterations = runs[0].epochs * math.ceil(n / runs[0].batch_size)
    table = np.empty((iterations, len(runs)))
    for r, run in enumerate(runs):
        thresholds, rates = np.array(run.lr_schedule, dtype=np.float64).T
        at = np.searchsorted(thresholds, np.arange(iterations), side="right")
        table[:, r] = rates[np.minimum(at, len(rates) - 1)]
    return [run.loss for run in runs], np.empty_like(table), table


def train_classifier(data: Dataset, config: TrainConfig | Sequence[TrainConfig]):
    """Minibatch SGD on a linear softmax model; returns (model, loss curve).

    Each epoch optionally re-undersamples the data (fresh sub-seed per
    epoch), reshuffles, and walks the batches in order; the curve holds
    the pre-update mean batch loss of every iteration.

    A sequence of configs that differ only in loss and lr schedule trains
    in lockstep and returns one (model, curve) per config, each bitwise
    what that config trains alone.
    """
    runs, single = _lockstep(config, ("epochs", "batch_size", "weight_init_seed", "undersample"))
    first = runs[0]
    X_all, y_all = data.X, data.y
    if not len(y_all):
        raise ValueError("training data is empty")
    if X_all.ndim != 2 or len(X_all) != len(y_all):
        raise ValueError("training data needs one feature row per label")
    num_classes = max(2, int(y_all.max()) + 1)

    W, batch_rng = _init((num_classes, X_all.shape[1]), len(runs), first.weight_init_seed)
    b, iteration = np.zeros((len(runs), num_classes)), 0
    params, curves, rates = _run_tables(runs, len(y_all))
    for epoch in range(first.epochs):
        Xe, ye = X_all, y_all
        if first.undersample is not None:
            keep = undersample_mask(y_all, _epoch_policy(first.undersample, epoch))
            if not keep.any():
                continue
            Xe, ye = X_all[keep], y_all[keep]
        perm = batch_rng.permutation(len(ye))
        for start in range(0, len(ye), first.batch_size):
            idx = perm[start:start + first.batch_size]
            losses, dW, db = softmax_step(Xe.take(idx, axis=0), ye.take(idx), W, b, params)
            W -= rates[iteration, :, None, None] * dW
            b -= rates[iteration, :, None] * db
            curves[iteration] = np.add.reduce(losses, axis=1) / losses.shape[1]
            iteration += 1
    if first.epochs and not iteration:
        raise ValueError("no training iteration ran: undersampling emptied every epoch")
    out = [(LinearModel(W[s], b[s]), c) for s, c in enumerate(curves[:iteration].T.tolist())]
    return out[0] if single else out


@dataclass
class ClassifierEval:
    per_class_recall: dict[int, float]
    m_recall: float
    accuracy: float


def _recall_by_class(labels: np.ndarray, hit: np.ndarray) -> dict[int, float]:
    """Per class present in ``labels``, in class order: the share of its rows
    where ``hit`` holds."""
    total = np.bincount(labels)
    hits = np.bincount(labels[hit], minlength=len(total))
    return {int(c): int(hits[c]) / int(total[c]) for c in np.flatnonzero(total)}


def evaluate_classifier(model: LinearModel, data: Dataset) -> ClassifierEval:
    """Per-class recall over classes present in the data, mRecall, accuracy."""
    if not len(data.y):
        raise ValueError("evaluation data is empty")
    correct = model.predict(data.X) == data.y
    per_class = _recall_by_class(data.y, correct)
    return ClassifierEval(per_class, float(np.mean(list(per_class.values()))),
                          float(correct.mean()))


# ---------------------------------------------------------------------------
# Two-stage proposal -> classify simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoStageConfig:
    stage1: TrainConfig
    proposal_budget: int
    stage2: TrainConfig
    fg_bg_ratio: float = 0.5  # foreground:background count ratio per batch

    def __post_init__(self) -> None:
        if self.proposal_budget < 1:
            raise ValueError("proposal_budget must be >= 1")
        if not (0.0 < self.fg_bg_ratio <= 1.0):
            raise ValueError("fg_bg_ratio must be in (0, 1]")


@dataclass
class BinaryModel:
    weights: np.ndarray
    bias: float

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias


@dataclass
class TwoStageReport:
    proposal_recall: float
    per_class_proposal_recall: dict[int, float]
    mean_class_proposal_recall: float
    stage2_per_class_recall: dict[int, float]
    stage2_m_recall: float
    stage1_curve: list[float] = field(repr=False, default_factory=list)
    stage2_curve: list[float] = field(repr=False, default_factory=list)


def train_objectness(
    X: np.ndarray, y: np.ndarray, config: TrainConfig | Sequence[TrainConfig],
    fg_bg_ratio: float,
):
    """Binary scorer via SGD on stratified fg/bg minibatches.

    Each batch draws round(batch * r / (1 + r)) foreground samples (at
    least one) and fills the rest with background, sampling a stratum
    with replacement only when it is smaller than its quota.  One epoch
    is ceil(n / batch_size) batches.

    A sequence of configs sharing epochs, batch size and seed trains in
    lockstep on one init and batch stream, one (model, curve) per config.
    """
    runs, single = _lockstep(config, ("epochs", "batch_size", "weight_init_seed"))
    first = runs[0]
    W, rng_batch = _init((X.shape[1],), len(runs), first.weight_init_seed)
    b = np.zeros(len(runs))
    fg_idx, bg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if len(fg_idx) == 0 or len(bg_idx) == 0:
        raise ValueError("objectness training needs both labels present")

    n_fg = max(1, round(first.batch_size * fg_bg_ratio / (1.0 + fg_bg_ratio)))
    n_bg = max(1, first.batch_size - n_fg)
    # Every batch is n_fg foreground rows (sign +1), then n_bg background rows.
    sign = np.repeat([1.0, -1.0], [n_fg, n_bg])
    params, curves, rates = _run_tables(runs, len(y))
    for iteration in range(len(curves)):
        fg = rng_batch.choice(fg_idx, size=n_fg, replace=len(fg_idx) < n_fg)
        bg = rng_batch.choice(bg_idx, size=n_bg, replace=len(bg_idx) < n_bg)
        losses, dW, db = binary_step(X.take(np.concatenate([fg, bg]), axis=0), sign, W, b, params)
        W -= rates[iteration, :, None] * dW
        b -= rates[iteration] * db
        curves[iteration] = np.add.reduce(losses, axis=1) / len(sign)
    out = [(BinaryModel(W[a], float(b[a])), c) for a, c in enumerate(curves.T.tolist())]
    return out[0] if single else out


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, ties broken by
    lower index; k is clamped to the axis length."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def train_two_stage(scenes: SceneSet, config: TwoStageConfig | Sequence[TwoStageConfig]):
    """Train both stages on the scene pool and evaluate top-K pass-through.

    Stage 1 trains on every candidate and stage 2 on the labelled
    positives, both using the observed (possibly noise-flipped) labels.
    Evaluation scores each scene, keeps the top proposal_budget
    candidates (clamped to the scene size), and counts the true objects
    that survive (label flips undone via ``true_class``); retained true
    objects are then classified by stage 2 against their true class.

    A sequence of configs that differ only in stage 1 trains stage 1 in
    lockstep and stage 2 once, one (scorer, classifier, report) per config.
    """
    runs, single = _lockstep(config, ("proposal_budget", "stage2", "fg_bg_ratio"))
    first = runs[0]
    X, true_class = scenes.X, scenes.true_class
    true = true_class >= 0
    if not true.any():
        raise ValueError("scenes contain no labelled objects")

    pos = scenes.is_object
    scorers = train_objectness(
        X, pos.astype(np.int64), [r.stage1 for r in runs], first.fg_bg_ratio
    )
    classifier, s2_curve = train_classifier(
        Dataset(X[pos], scenes.class_id[pos], scenes.noisy[pos]), first.stage2
    )

    # (scenes, per_scene, d): matmul runs one gemv per scene, as scoring
    # scene by scene does; the pooled X @ w rounds differently.
    by_scene = X.reshape(-1, scenes.per_scene, X.shape[1])
    out = []
    for scorer, s1_curve in scorers:
        top = top_k_indices(scorer.scores(by_scene), first.proposal_budget)
        kept = np.zeros(by_scene.shape[:2], dtype=bool)
        np.put_along_axis(kept, top, True, axis=1)
        retained = true & kept.ravel()
        n_kept = int(retained.sum())
        per_class_recall = _recall_by_class(true_class[true], retained[true])
        stage2 = evaluate_classifier(classifier, Dataset(
            X[retained], true_class[retained], np.zeros(n_kept, dtype=bool)
        )) if n_kept else ClassifierEval({}, 0.0, 0.0)
        report = TwoStageReport(
            proposal_recall=n_kept / int(true.sum()),
            per_class_proposal_recall=per_class_recall,
            mean_class_proposal_recall=float(np.mean(list(per_class_recall.values()))),
            stage2_per_class_recall=stage2.per_class_recall,
            stage2_m_recall=stage2.m_recall,
            stage1_curve=s1_curve,
            stage2_curve=s2_curve,
        )
        out.append((scorer, classifier, report))
    return out[0] if single else out
