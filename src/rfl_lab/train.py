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

A trainer takes a list of streams: data (arrays, ``sampling.Dataset`` or
``sampling.SceneSet``), one :class:`TrainConfig` and a list of losses; it
returns, per stream, one result per loss.  One SGD loop (:func:`_sgd`)
trains the runs of all streams in lockstep as stacked linear models ``W``
(R, K, d), ``b`` (R, K), views of one (R, K, d + 1) buffer, with K classes
or K = 1 for a scorer; each run ends bitwise where it would alone.  The
streams hand it epochs as arrays, walked in stretches of steps.  A
:func:`step` is matmul, loss head, matmul.  At the shipped sizes, a few
runs of 64 rows, numpy's call overhead sets its cost, so a group of
streams compiles its step once per row count and keeps it until a stream
leaves (:func:`_plan`); an iteration then runs only numpy's calls.

Determinism: everything derives from explicit integer seeds through
numpy's PCG64.  The configured seed feeds two child streams (weight init
and batch order); each epoch's undersample draw has its own sub-seed of
the policy seed and the epoch index, so enabling an undersample policy
never perturbs the batch stream, and an all-zero-skip policy reproduces
the unconfigured trajectory bitwise.  The objectness batches of one epoch
come from one ``Generator.integers`` call (:func:`stratified_batches`)
that consumes the batch stream exactly as a ``Generator.choice`` call per
stratum and batch would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from typing import Sequence

import numpy as np

from .losses import LossParams, loss_columns, sigmoid_head, softmax_head
from .sampling import Dataset, SceneSet, UndersamplePolicy, undersample_keep, undersample_skip

@dataclass(frozen=True)
class TrainConfig:
    """The schedule that every loss of one stream shares."""

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
    return next((rate for threshold, rate in schedule if iteration < threshold), schedule[-1][1])


def step(X: np.ndarray, target: np.ndarray, W: np.ndarray, b: np.ndarray, head, params,
         with_loss: bool = True, out: np.ndarray | None = None):
    """Per-sample losses (R, B) and batch-mean gradients (R, K, d), (R, K) of
    R stacked models ``W`` (R, K, d), ``b`` (R, K) on B rows, one loss per
    model (``params``: losses or their ``loss_columns``), under ``head``:
    ``losses.softmax_head`` (``target`` the labels) or ``losses.sigmoid_head``
    (K = 1, ``target`` the signs +1/-1).  ``X`` (B, d) and ``target`` (B,)
    serve every model, ``X`` (R, B, d) and ``target`` (R, B) one each.  dW
    and db are views of one (R, K, d + 1) buffer (``out`` if given), as W and
    b may be.  The softmax head adds b to the logits itself, as it lays them
    out class-major; for the sigmoid head the step adds it.  Each slice is
    bitwise what that model computes alone (one gemm or gemv per slice); the
    losses are C-ordered, so a reduce along axis 1 sums each row as
    ``row.mean()`` does.  Without ``with_loss`` the losses are None and the
    gradients the same bits.  :func:`_compile`'s step, run once."""
    R, K, d = W.shape
    grad = np.empty((R, K, d + 1)) if out is None else out
    losses = _compile(W, b, grad, head, params, X.shape[-2])(X, target, with_loss)
    return losses, grad[:, :, :d], grad[:, :, d]


def _compile(W, b, grad: np.ndarray, head, params, n: int):
    """:func:`step` on n rows, compiled: run(X, target, with_loss) fills ``grad``
    and returns the losses.  The softmax head is compiled with b and adds it;
    for the sigmoid head run adds b to the logits before the head."""
    d = W.shape[2]
    z = np.empty((len(W), n, W.shape[1]))
    softmax = head is softmax_head
    head_step, glogits = head(z, None, params, b=b) if softmax else head(z, None, params)
    b_row = None if softmax else b[:, None, :]
    # At d = 1 matmul is a gemv, whose sums depend on the gradients' row
    # stride: it gets each run's (n, K) gradients as one contiguous block.
    runs = np.empty(glogits.shape) if d == 1 and not glogits.flags.c_contiguous else None
    W_T, g_T = W.transpose(0, 2, 1), (glogits if runs is None else runs).transpose(0, 2, 1)
    dW, db, matmul, add, divide = grad[:, :, :d], grad[:, :, d], np.matmul, np.add, np.divide

    def run(X, target, with_loss):
        matmul(X, W_T, out=z)
        if b_row is not None:
            add(z, b_row, out=z)
        losses = head_step(target, with_loss)
        if runs is not None:
            runs[...] = glogits
        matmul(g_T, X, out=dW)
        add.reduce(glogits, axis=1, out=db)
        divide(grad, n, out=grad)
        return losses
    return run


def _plan(head, block: np.ndarray, grad: np.ndarray, members, batches):
    """The step of a group of adjacent streams, compiled for batches like
    ``batches`` (a (rows, target) per stream, n rows each) with the W and b
    of ``block`` (R, K, d + 1), gradients into ``grad`` and each stream's
    (X, losses) in ``members``: run(batches, record) gathers the rows and
    returns the losses (None unless ``record``); a planned target is tiled.
    Its one step serves curve steps too, and applies no rate."""
    R, n, d = len(block), len(batches[0][0]), block.shape[2] - 1
    sizes = [len(losses) for _, losses in members]
    columns = loss_columns([p for _, losses in members for p in losses], n)
    planned = np.repeat([t for _, t in batches], sizes, axis=0)
    sources = [None if t.base is not None else t for _, t in batches]  # a view would pin its base
    step = _compile(block[:, :, :d], block[:, :, d], grad, head, columns, n)
    if len(members) == 1:
        [(X, _)], Xb = members, np.empty((n, d))

        def run(batches, record):
            [(idx, t)] = batches
            X.take(idx, axis=0, out=Xb, mode="clip")  # rows are in range; clip skips a copy
            return step(Xb, planned if t is sources[0] else t, record)
        return run
    Xb, target = np.empty((R, n, d)), np.empty((R, n), planned.dtype)
    cuts = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes).tolist())]

    def run(batches, record):  # each run's row block of the batch its stream drew
        for cut, (X, _), (idx, _) in zip(cuts, members, batches):
            Xb[cut] = X.take(idx, axis=0)
        if all(t is u for (_, t), u in zip(batches, sources)):
            return step(Xb, planned, record)
        for cut, (_, t) in zip(cuts, batches):
            target[cut] = t
        return step(Xb, target, record)
    return run


# ---------------------------------------------------------------------------
# The SGD loop and the linear softmax classifier.
# ---------------------------------------------------------------------------


def _sgd(streams, head):
    """Plain minibatch SGD of many streams in lockstep.  A stream ``(X, cfg,
    losses, K, epochs)`` trains one K-row linear model per loss on ``X``
    from the uniform weights in [-0.01, 0.01] that the first child stream of
    ``cfg.weight_init_seed`` draws; ``epochs`` of the second yields the
    stream's epochs in order as blocks ``(rows, targets)`` of one batch
    width: rows (batches, width) indices into ``X``, targets shaped alike or
    one (width,) array for every batch.  Each batch is one update at the
    rate of ``cfg.lr_schedule``; adjacent live streams whose models have one
    shape and whose batches one width make one unpadded :func:`step`.
    Returns per stream one (model, curve) per loss, each bitwise what it
    trains alone; the curve holds the pre-update mean batch loss of step 0,
    of every ``cfg.curve_stride``-th step and of the stream's last, and only
    a step that one of its streams records computes losses."""
    out, shapes = [None] * len(streams), {}
    for s, (X, _, losses, K, _) in enumerate(streams):
        if not losses:
            raise ValueError("training needs at least one loss")
        shapes.setdefault((K, X.shape[1]), []).append(s)
    for members in shapes.values():  # each model shape is one lockstep
        for s, trained in zip(members, _lockstep([streams[s] for s in members], head)):
            out[s] = trained
    return out


def _lockstep(streams, head):
    """:func:`_sgd` of streams whose models all have one shape.  The live
    streams' runs fill one (runs, K, d + 1) buffer of W and b in stream order,
    their gradients another, and a stream that runs out leaves both, so a
    group of adjacent live streams steps on one slice.  Each stretch of steps
    with the same live streams, widths and rates, inside which no block ends
    (each stream's next block tells its last step) and no curve step falls,
    is one tight loop per group over the blocks' rows.  :func:`_plan`
    compiles a group's step once per width, kept until a stream leaves and
    the buffers it views are rebuilt; a rate change needs no new plan."""
    runs = [len(losses) for _, _, losses, _, _ in streams]
    K, d = streams[0][3], streams[0][0].shape[1]
    inits, feeds = [], []
    for X, cfg, _, _, epochs in streams:
        rng_init, rng = map(np.random.default_rng,
                            np.random.SeedSequence(cfg.weight_init_seed).spawn(2))
        inits.append(rng_init.uniform(-0.01, 0.01, size=(K, d)))
        feeds.append(epochs(rng))
    P = np.zeros((sum(runs), K, d + 1))
    P[:, :, :d] = np.repeat(inits, runs, axis=0)
    # The iterations at which some stream's rate moves on (lr_at is constant between).
    changes = sorted({math.ceil(t) for _, cfg, _, _, _ in streams for t, _ in cfg.lr_schedule
                      if t < math.inf})
    curves, trained = [[] for _ in streams], [None] * len(streams)
    # By live position: the stream, its feed, its block (the batches left) and its next block.
    live, blocks = list(range(len(streams))), [next(feed, None) for feed in feeds]
    ahead, iteration, replan, ended = [next(feed, None) for feed in feeds], 0, 0, True
    while True:
        if ended:  # the streams that ran out hand out their models and leave the buffers
            sizes = [runs[s] for s in live]
            for s, block, rows in zip(live, np.split(P, np.cumsum(sizes)[:-1]), blocks):
                if rows is None:
                    by_run = np.reshape(curves[s], (-1, runs[s])).T.tolist()
                    trained[s] = [(LinearModel(w[:, :d].copy(), w[:, d].copy()), c)
                                  for w, c in zip(block, by_run)]
            keep = [rows is not None for rows in blocks]
            P = P[np.repeat(keep, sizes)]
            G = np.empty(P.shape)
            live, feeds, blocks, ahead = (list(compress(xs, keep))
                                          for xs in (live, feeds, blocks, ahead))
            if not live:
                return trained
            every = math.gcd(*(streams[s][1].curve_stride for s in live))
            edges = [0, *accumulate(runs[s] for s in live)]  # each live stream's rows of P
            ended, replan, plans = False, iteration, {}
        if iteration >= replan:  # the rates until the next change
            replan = next((c for c in changes if c > iteration), math.inf)
            rates = [lr_at(streams[s][1].lr_schedule, iteration) for s in live]
        left = [len(rows) for rows, _ in blocks]
        # The iteration of each live stream's last step, if its block is its last.
        last = [iteration + n - 1 if nxt is None else math.inf for n, nxt in zip(left, ahead)]
        curve = min(-(-iteration // every) * every, *last)
        span = 1 if curve == iteration else min(*left, replan - iteration, curve - iteration)
        widths = [rows.shape[1] for rows, _ in blocks]
        cuts = [p for p in range(1, len(live)) if widths[p] != widths[p - 1]]
        for first, end in zip([0, *cuts], [*cuts, len(live)]):  # a group per run of one width
            stretch = zip(*(zip(rows[:span],
                                targets[:span] if targets.ndim > 1 else repeat(targets))
                            for rows, targets in blocks[first:end]))
            own = slice(edges[first], edges[end])  # the group's runs in P and G
            batches, block, grad = next(stretch), P[own], G[own]
            if (run := plans.get(key := (first, end, widths[first]))) is None:
                run = plans[key] = _plan(head, block, grad, [(streams[s][0], streams[s][2])
                                                             for s in live[first:end]], batches)
            rate = rates[first] if len(set(rates[first:end])) == 1 else np.repeat(
                rates[first:end], np.diff(edges[first:end + 1]))[:, None, None]
            record = curve == iteration and [p for p in range(first, end) if last[p] == iteration
                                             or iteration % streams[live[p]][1].curve_stride == 0]
            losses = run(batches, bool(record))
            block -= np.multiply(grad, rate, out=grad)
            if record:
                means, off = np.add.reduce(losses, axis=1) / losses.shape[1], edges[first]
                for p in record:
                    curves[live[p]].append(means[edges[p] - off:edges[p + 1] - off])
            for batches in stretch:  # the stretch's other steps: no curve step among them
                run(batches, False)
                block -= np.multiply(grad, rate, out=grad)
        iteration += span
        for p, (rows, targets) in enumerate(blocks):
            if len(rows) > span:
                blocks[p] = rows[span:], targets[span:] if targets.ndim > 1 else targets
            else:  # the block is done: the next one follows
                blocks[p], ahead[p] = ahead[p], next(feeds[p], None)
        ended = None in blocks


def train_classifier(streams: Sequence[tuple[Dataset, TrainConfig, Sequence[LossParams]]]):
    """Minibatch SGD on linear softmax models: per (data, config, losses)
    stream, one (model, loss curve) per loss.  Each epoch optionally
    re-undersamples the stream's data (fresh sub-seed per epoch; an emptied
    epoch is skipped), reshuffles, and walks the batches in order.  All
    streams and losses train in lockstep (:func:`_sgd`)."""
    def stream(data: Dataset, cfg: TrainConfig, losses):
        X, y = data.X, data.y
        if not len(y):
            raise ValueError("training data is empty")
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("training data needs one feature row per label")

        skip = None if cfg.undersample is None else undersample_skip(y, cfg.undersample.skip_prob)

        def epochs(rng):
            for epoch in range(cfg.epochs):
                kept = None if skip is None else undersample_keep(skip, np.random.SeedSequence(
                    cfg.undersample.seed, spawn_key=(epoch,)).generate_state(1, np.uint64)[0])
                order = rng.permutation(len(y) if kept is None else np.flatnonzero(kept))
                full = len(order) - len(order) % cfg.batch_size
                for rows in (order[:full].reshape(-1, cfg.batch_size), order[None, full:]):
                    if rows.size:  # full batches, then the tail; an emptied epoch yields none
                        yield rows, y.take(rows)

        return X, cfg, losses, max(2, int(y.max()) + 1), epochs

    out = _sgd([stream(*s) for s in streams], softmax_head)
    for (_, cfg, _), trained in zip(streams, out):
        if cfg.epochs and not trained[0][1]:
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
    # Column t keeps its draw v unless an earlier column holds v (v repeats a
    # draw, or is the j of a column that gave way), and then takes its own
    # j = pop - k + t.  Only a row that repeats a draw can give way; in those,
    # sorted (draw, column) keys find the repeats, and each pass below follows
    # every chain of giving way one link further.
    ordered = np.sort(picks, axis=1)
    dup = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    keys = np.sort(picks[dup] * k + np.arange(k), axis=1)
    at = np.arange(len(dup))[:, None]
    gave = np.zeros((len(dup), k), dtype=bool)
    gave[at, keys[:, 1:] % k] = keys[:, 1:] // k == keys[:, :-1] // k
    j_col = picks[dup] - (pop - k)  # the column whose j the draw is, if earlier
    earlier = (j_col >= 0) & (j_col < np.arange(k))
    j_col[~earlier] = 0
    while not np.array_equal(gave, more := gave | (earlier & gave[at, j_col])):
        gave = more
    picks[dup] = np.where(gave, np.arange(pop - k, pop), picks[dup])
    # The Fisher-Yates swaps: each row's j through flat indices, a third the cost of (row, j);
    flat = picks.reshape(-1)  # one add gives every column's, each contiguous
    for at, i in zip(np.add(swaps.T, np.arange(0, picks.size, k), order="C"), range(k - 1, 0, -1)):
        held = flat[at]
        flat[at] = picks[:, i]
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
    streams: Sequence[tuple[np.ndarray, np.ndarray, TrainConfig, Sequence[LossParams], float]],
):
    """One-row linear scorers via SGD on stratified fg/bg minibatches: per
    (X, labels, config, losses, fg_bg_ratio) stream, one (scorer, loss
    curve) per loss.  Each batch draws round(batch * r / (1 + r))
    foreground samples (at least one) and fills the rest with background,
    sampling a stratum with replacement only when it is smaller than its
    quota, as two ``Generator.choice`` calls a batch would; an epoch of
    ceil(n / batch_size) batches is drawn at once (:func:`stratified_batches`).
    All streams and losses train in lockstep (:func:`_sgd`); streams with
    one batch layout share its label signs."""
    signs: dict[tuple[int, int], np.ndarray] = {}

    def stream(X: np.ndarray, y: np.ndarray, cfg: TrainConfig, losses, fg_bg_ratio: float):
        fg_idx, bg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
        if len(fg_idx) == 0 or len(bg_idx) == 0:
            raise ValueError("objectness training needs both labels present")
        n_fg = max(1, round(cfg.batch_size * fg_bg_ratio / (1.0 + fg_bg_ratio)))
        n_bg = max(1, cfg.batch_size - n_fg)
        # Every batch is n_fg foreground rows (sign +1), then n_bg background rows.
        sign = signs.setdefault((n_fg, n_bg), np.repeat([1.0, -1.0], [n_fg, n_bg]))
        per_epoch = math.ceil(len(y) / cfg.batch_size)

        return X, cfg, losses, 1, lambda rng: (
            (stratified_batches(rng, [(fg_idx, n_fg), (bg_idx, n_bg)], per_epoch), sign)
            for _ in range(cfg.epochs))

    return _sgd([stream(*s) for s in streams], sigmoid_head)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, ties broken by
    lower index; k is clamped to the axis length."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def train_two_stage(
    streams: Sequence[tuple[SceneSet, TwoStageConfig, Sequence[LossParams]]],
):
    """Train both stages on each scene pool and evaluate top-K pass-through:
    per (scenes, config, losses) stream, one (scorer, classifier, report)
    per loss.  Stage 1 trains on every candidate, one scorer per loss of
    every stream in one lockstep, and stage 2 on the labelled positives,
    one classifier per stream in another; both use the observed (possibly
    noise-flipped) labels.  Evaluation scores each scene, keeps the top
    proposal_budget candidates (clamped to the scene size), and counts the
    true objects that survive (label flips undone via ``true_class``);
    retained true objects are then classified by stage 2 against their
    true class."""
    for scenes, _, _ in streams:
        if not (scenes.true_class >= 0).any():
            raise ValueError("scenes contain no labelled objects")
    scorers = train_objectness([
        (scenes.X, scenes.is_object.astype(np.int64), cfg.stage1, losses, cfg.fg_bg_ratio)
        for scenes, cfg, losses in streams])
    classifiers = train_classifier([
        (Dataset(scenes.X[pos], scenes.class_id[pos], scenes.noisy[pos]), cfg.stage2,
         [cfg.stage2_loss])
        for scenes, cfg, _ in streams for pos in [scenes.is_object]])
    return [_two_stage_reports(scenes, cfg, trained, classifier)
            for (scenes, cfg, _), trained, [classifier] in zip(streams, scorers, classifiers)]


def _two_stage_reports(scenes: SceneSet, cfg: TwoStageConfig, scorers, stage2_model):
    """One (scorer, classifier, report) per trained (scorer, curve) of one stream."""
    X, true_class = scenes.X, scenes.true_class
    true = true_class >= 0
    classifier, s2_curve = stage2_model
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
