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

A trainer takes one :class:`TrainConfig` (epochs, batch size, lr
schedule, seed, undersample policy) and a list of losses, and returns
one result per loss: the losses train in lockstep on one data and batch
stream, and each ends bitwise where it would alone.

Determinism: everything derives from explicit integer seeds through
numpy's PCG64.  The configured seed feeds two child streams (weight
init and batch order); per-epoch undersampling derives its own sub-seed
from the policy seed and the epoch index, so enabling an undersample
policy never perturbs the batch stream, and an all-zero-skip policy
reproduces the unconfigured trajectory bitwise.

Data arrive as arrays (``sampling.Dataset`` and ``sampling.SceneSet``;
all scenes are scored, ranked and counted at once).  A model is a
``LinearModel`` of K rows: K classes for a classifier, K = 1 for an
objectness scorer.  ``train_classifier`` and ``train_objectness`` run
one SGD loop over R stacked models ``W`` (R, K, d), ``b`` (R, K), one per
loss, and differ only in the batches they draw and the loss head they
pass to :func:`step`: matmul, ``losses.softmax_head`` or
``losses.sigmoid_head`` (the heads ``rfl-lab gradcheck`` checks, given
the losses' ``loss_columns`` built once a call), matmul.  Every step's
rate is :func:`lr_at` of the shared schedule.  The loss curve keeps the
mean batch loss of step 0, of every ``TrainConfig.curve_stride``-th step
and of the last; only those steps ask the head for per-sample losses,
and the others' gradients are the same bits.

The objectness batches of one epoch come from one ``Generator.integers``
call (:func:`stratified_batches`) that consumes the batch stream exactly
as a ``Generator.choice`` call per stratum and batch would, so the
trained bits are those of the per-batch draws, without numpy's per-call
overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, islice, pairwise
from typing import Sequence

import numpy as np

from .losses import LossParams, loss_columns, sigmoid_head, softmax_head
from .sampling import Dataset, SceneSet, UndersamplePolicy, undersample_mask

@dataclass(frozen=True)
class TrainConfig:
    """The schedule that every loss of one trainer call shares."""

    epochs: int
    batch_size: int
    lr_schedule: tuple[tuple[float, float], ...]
    weight_init_seed: int = 0
    undersample: UndersamplePolicy | None = None
    curve_stride: int = 1  # the loss curve keeps step 0, every stride-th and the last

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.curve_stride < 1:
            raise ValueError("curve_stride must be >= 1")
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
    weights: np.ndarray  # (K, feature_dim): K classes, or 1 for a scorer
    biases: np.ndarray   # (K,)

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


def step(
    X: np.ndarray, target: np.ndarray, W: np.ndarray, b: np.ndarray, head, params,
    with_loss: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Per-sample losses (R, B) and batch-mean gradients (R, K, d), (R, K) of
    R stacked models ``W`` (R, K, d), ``b`` (R, K) on one minibatch, one loss
    per model (``params``: a list of losses or their ``loss_columns``):
    ``head`` is ``losses.softmax_head`` (``target`` the labels) or
    ``losses.sigmoid_head`` (K = 1, ``target`` the label signs +1/-1).  Each
    slice is bitwise what that model computes alone (matmul runs one gemm or
    gemv per slice); the losses are C-ordered, so a reduce along axis 1 sums
    each row as ``row.mean()`` does.  Without ``with_loss`` the losses are
    None and the gradients the same bits."""
    z = np.matmul(X, W.transpose(0, 2, 1))
    z += b[:, None, :]
    losses, glogits = head(z, target, params, with_loss)
    dW = np.matmul(glogits.transpose(0, 2, 1), X) / X.shape[0]
    db = np.add.reduce(glogits, axis=1) / X.shape[0]
    return losses, dW, db


# ---------------------------------------------------------------------------
# The SGD loop and the linear softmax classifier.
# ---------------------------------------------------------------------------


def _epoch_policy(policy: UndersamplePolicy, epoch: int) -> UndersamplePolicy:
    sub = np.random.SeedSequence(policy.seed, spawn_key=(epoch,))
    return replace(policy, seed=int(sub.generate_state(1, np.uint64)[0]))


def _sgd(X: np.ndarray, cfg: TrainConfig, losses: Sequence[LossParams], K: int, head,
         batches):
    """Plain minibatch SGD of one K-row linear model per loss, in lockstep:
    one init and batch stream (:func:`_init`), then one :func:`step` and
    update per (row indices into ``X``, targets) that ``batches(stream)``
    yields, at most ceil(n / batch_size) an epoch.  Returns (model, curve)
    per loss; the curve holds the pre-update mean batch loss of step 0, of
    every ``cfg.curve_stride``-th step and of the last (a one-batch
    lookahead tells it), and only those steps compute their losses."""
    if not losses:
        raise ValueError("training needs at least one loss")
    W, rng = _init((K, X.shape[1]), len(losses), cfg.weight_init_seed)
    b = np.zeros((len(losses), K))
    columns, curve = loss_columns(losses), []
    stream = islice(batches(rng), cfg.epochs * math.ceil(len(X) / cfg.batch_size))
    for iteration, ((idx, target), ahead) in enumerate(pairwise(chain(stream, [None]))):
        record = ahead is None or iteration % cfg.curve_stride == 0
        step_losses, dW, db = step(X.take(idx, axis=0), target, W, b, head, columns, record)
        rate = lr_at(cfg.lr_schedule, iteration)
        W -= rate * dW
        b -= rate * db
        if record:
            curve.append(np.add.reduce(step_losses, axis=1) / step_losses.shape[1])
    curves = np.reshape(curve, (-1, len(losses))).T.tolist()
    return [(LinearModel(W[r], b[r]), c) for r, c in enumerate(curves)]


def train_classifier(data: Dataset, cfg: TrainConfig, losses: Sequence[LossParams]):
    """Minibatch SGD on a linear softmax model; one (model, loss curve) per loss.

    Each epoch optionally re-undersamples the data (fresh sub-seed per
    epoch; an emptied epoch is skipped), reshuffles, and walks the batches
    in order.  The losses train in lockstep, each bitwise what it trains
    alone.
    """
    X, y = data.X, data.y
    if not len(y):
        raise ValueError("training data is empty")
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("training data needs one feature row per label")

    def batches(rng):
        for epoch in range(cfg.epochs):
            rows = np.arange(len(y)) if cfg.undersample is None else np.flatnonzero(
                undersample_mask(y, _epoch_policy(cfg.undersample, epoch)))
            if len(rows):
                order = rng.permutation(rows)
                for start in range(0, len(order), cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    yield idx, y.take(idx)

    out = _sgd(X, cfg, losses, max(2, int(y.max()) + 1), softmax_head, batches)
    if cfg.epochs and not out[0][1]:
        raise ValueError("no training iteration ran: undersampling emptied every epoch")
    return out


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
    """Both stages' schedules; stage 2 trains once, under ``stage2_loss``."""

    stage1: TrainConfig
    proposal_budget: int
    stage2: TrainConfig
    stage2_loss: LossParams
    fg_bg_ratio: float  # foreground:background count ratio per batch

    def __post_init__(self) -> None:
        if self.proposal_budget < 1:
            raise ValueError("proposal_budget must be >= 1")
        if not (0.0 < self.fg_bg_ratio <= 1.0):
            raise ValueError("fg_bg_ratio must be in (0, 1]")


@dataclass
class TwoStageReport:
    proposal_recall: float
    per_class_proposal_recall: dict[int, float]
    mean_class_proposal_recall: float
    stage2_per_class_recall: dict[int, float]
    stage2_m_recall: float
    stage1_curve: list[float] = field(repr=False, default_factory=list)
    stage2_curve: list[float] = field(repr=False, default_factory=list)


# ``Generator.choice(a, k, replace=len(a) < k)`` without weights, as numpy
# 1.17 to 2.x implement it, draws each bounded integer as ``integers`` does,
# in one of three ways (``_choice_bounds``):
#   - a population smaller than k is sampled with replacement: k draws in
#     [0, pop);
#   - when pop > 10000 and k > pop // 50 (``_tail_shuffle``), a partial
#     Fisher-Yates shuffle of arange(pop) swaps i = pop-1 down to
#     max(pop-k, 1) with a draw in [0, i] and keeps the last k entries;
#   - otherwise Floyd's algorithm takes, for j = pop-k up to pop-1, a draw in
#     [0, j], or j itself if an earlier pick holds that draw, and then a
#     Fisher-Yates shuffle of the k picks swaps i = k-1 down to 1 with a
#     draw in [0, i].
# So a batch's draws have bounds known in advance, one integers call draws
# a whole epoch of them from the stream as the per-batch choice calls
# would, and array operations turn them into the same picks.


def _tail_shuffle(pop: int, k: int) -> bool:
    return pop > 10000 and k > pop // 50


def _choice_bounds(pop: int, k: int) -> np.ndarray:
    """Exclusive upper bounds of the integers one ``choice`` draws, in order."""
    if pop < k:
        return np.full(k, pop)
    if _tail_shuffle(pop, k):
        return np.arange(pop, max(pop - k, 1), -1)
    return np.concatenate([np.arange(pop - k + 1, pop + 1), np.arange(k, 1, -1)])


def _choice_picks(draws: np.ndarray, pop: int, k: int) -> np.ndarray:
    """(rows, k) positions into the population that ``choice`` returns for
    each row of the draws its :func:`_choice_bounds` bound."""
    if pop < k:
        return draws
    if _tail_shuffle(pop, k):
        picks = np.empty((len(draws), k), dtype=np.int64)
        for r, row in enumerate(draws.tolist()):
            moved: dict[int, int] = {}  # the entries of arange(pop) that moved
            for i, j in zip(range(pop - 1, 0, -1), row):
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            picks[r] = [moved.get(i, i) for i in range(pop - k, pop)]
        return picks
    picks, swaps = draws[:, :k].copy(), draws[:, k:]
    ordered = np.sort(picks, axis=1)
    # A draw that an earlier pick holds gives way to its j; only a row that
    # repeats a draw can hold one.
    for r in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
        seen, row = set(), picks[r].tolist()
        for t, v in enumerate(row):
            if v in seen:
                row[t] = v = pop - k + t
            seen.add(v)
        picks[r] = row
    rows = np.arange(len(picks))
    for c, i in enumerate(range(k - 1, 0, -1)):
        j = swaps[:, c]
        held = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = held
    return picks


def stratified_batches(rng: np.random.Generator, strata, batches: int) -> np.ndarray:
    """``batches`` rounds of ``rng.choice(idx, k, replace=len(idx) < k)``,
    one call per (idx, k) stratum a round: a (batches, sum of k) array,
    each row one round's picks in stratum order, with ``rng`` left where
    those calls leave it.  All draws come from one ``rng.integers`` call."""
    bounds = [_choice_bounds(len(idx), k) for idx, k in strata]
    draws = rng.integers(0, np.concatenate(bounds), size=(batches, sum(map(len, bounds))))
    ends = np.cumsum([len(b) for b in bounds])
    return np.hstack([idx[_choice_picks(draws[:, end - len(b):end], len(idx), k)]
                      for (idx, k), b, end in zip(strata, bounds, ends)])


def train_objectness(
    X: np.ndarray, y: np.ndarray, cfg: TrainConfig, losses: Sequence[LossParams],
    fg_bg_ratio: float,
):
    """One-row linear scorers via SGD on stratified fg/bg minibatches; one
    (scorer, loss curve) per loss.

    Each batch draws round(batch * r / (1 + r)) foreground samples (at
    least one) and fills the rest with background, sampling a stratum
    with replacement only when it is smaller than its quota, as two
    ``Generator.choice`` calls a batch would.  One epoch is
    ceil(n / batch_size) batches, drawn at once by
    :func:`stratified_batches`, which consumes the batch stream exactly
    as those calls do.  The losses train in lockstep on one init and
    batch stream.
    """
    fg_idx, bg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if len(fg_idx) == 0 or len(bg_idx) == 0:
        raise ValueError("objectness training needs both labels present")
    n_fg = max(1, round(cfg.batch_size * fg_bg_ratio / (1.0 + fg_bg_ratio)))
    n_bg = max(1, cfg.batch_size - n_fg)
    # Every batch is n_fg foreground rows (sign +1), then n_bg background rows.
    sign = np.repeat([1.0, -1.0], [n_fg, n_bg])
    per_epoch = math.ceil(len(y) / cfg.batch_size)

    def batches(rng):
        for _ in range(cfg.epochs):
            for idx in stratified_batches(rng, [(fg_idx, n_fg), (bg_idx, n_bg)], per_epoch):
                yield idx, sign

    return _sgd(X, cfg, losses, 1, sigmoid_head, batches)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, ties broken by
    lower index; k is clamped to the axis length."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def train_two_stage(scenes: SceneSet, cfg: TwoStageConfig, losses: Sequence[LossParams]):
    """Train both stages on the scene pool and evaluate top-K pass-through.

    Stage 1 trains on every candidate and stage 2 on the labelled
    positives, both using the observed (possibly noise-flipped) labels.
    Evaluation scores each scene, keeps the top proposal_budget
    candidates (clamped to the scene size), and counts the true objects
    that survive (label flips undone via ``true_class``); retained true
    objects are then classified by stage 2 against their true class.

    Stage 1 trains one scorer per loss in lockstep and stage 2 once; one
    (scorer, classifier, report) per loss.
    """
    X, true_class = scenes.X, scenes.true_class
    true = true_class >= 0
    if not true.any():
        raise ValueError("scenes contain no labelled objects")

    pos = scenes.is_object
    scorers = train_objectness(X, pos.astype(np.int64), cfg.stage1, losses, cfg.fg_bg_ratio)
    [(classifier, s2_curve)] = train_classifier(
        Dataset(X[pos], scenes.class_id[pos], scenes.noisy[pos]), cfg.stage2, [cfg.stage2_loss]
    )

    # (scenes, per_scene, d): matmul runs one gemv per scene, as scoring
    # scene by scene does; the pooled X @ w.T rounds differently.
    by_scene = X.reshape(-1, scenes.per_scene, X.shape[1])
    out = []
    for scorer, s1_curve in scorers:
        top = top_k_indices(scorer.scores(by_scene)[..., 0], cfg.proposal_budget)
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
    return out
