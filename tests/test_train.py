"""Trainer tests: schedules, convergence, determinism, gradient checks."""

import json
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfl_lab.experiment import Train, run_experiment
from rfl_lab.losses import (
    PT_CLAMP_HI,
    PT_CLAMP_LO,
    LossKind,
    LossParams,
    _rfl_form,
    binary_pt,
    loss_and_dpt,
    loss_at,
    loss_columns,
    sigmoid_head,
    softmax_head,
)
from rfl_lab.sampling import (
    Dataset,
    SceneSetSpec,
    SynthDatasetSpec,
    UndersamplePolicy,
    generate_scenes,
    generate_synthetic,
    undersample_mask,
)
from rfl_lab.train import (
    LinearModel,
    TrainConfig,
    TwoStageConfig,
    evaluate_classifier,
    _choice_bounds,
    _compile,
    _plan,
    _sgd,
    lr_at,
    step,
    stratified_batches,
    top_k_indices,
    train_classifier,
    train_objectness,
    train_two_stage,
)

CE = LossParams(kind=LossKind.CE)
FL2 = LossParams(kind=LossKind.FL, gamma=2.0)
RFL_HALF = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.5)

FLAT = ((10**9, 0.5),)
ROOT = Path(__file__).resolve().parents[1]


def flat_config(epochs=50, batch=20, seed=0, undersample=None, lr=0.5):
    return TrainConfig(
        epochs=epochs, batch_size=batch,
        lr_schedule=((10**9, lr),), weight_init_seed=seed, undersample=undersample,
    )


class TestLrSchedule:
    STEPS = ((120_000, 0.005), (140_000, 0.0005), (math.inf, 0.00005))

    def test_step_lookup(self):
        assert lr_at(self.STEPS, 0) == 0.005
        assert lr_at(self.STEPS, 119_999) == 0.005
        assert lr_at(self.STEPS, 130_000) == 0.0005
        assert lr_at(self.STEPS, 150_000) == 0.00005

    def test_fallback_to_last_rate(self):
        assert lr_at(((100, 0.1),), 500) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(1, 1, ((100, 0.1), (100, 0.2)))
        with pytest.raises(ValueError):
            TrainConfig(1, 1, ((100, -0.1),))
        with pytest.raises(ValueError):
            TrainConfig(1, 1, ())


def signs(y):
    """+1 for label 1, -1 for label 0: the targets of :func:`sigmoid_head`."""
    return np.where(y == 1, 1.0, -1.0)


def dataset(X, y):
    y = np.asarray(y, dtype=np.int64)
    return Dataset(np.asarray(X, dtype=np.float64), y, np.zeros(len(y), dtype=bool))


def separable_two_class(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = np.concatenate([center + rng.normal(size=(n // 2, 2)) for center in (-4.0, 4.0)])
    return dataset(X, np.repeat([0, 1], n // 2))


class TestTrainClassifier:
    def test_separable_accuracy(self):
        data = separable_two_class()
        [[(model, curve)]] = train_classifier([(data, flat_config(epochs=50, batch=20), [CE])])
        assert len(curve) == 50 * 10  # 500 iterations
        assert evaluate_classifier(model, data).accuracy >= 0.99

    def test_loss_decreases(self):
        data = separable_two_class()
        [[(_, curve)]] = train_classifier([(data, flat_config(), [CE])])
        assert curve[-1] < curve[0]

    def test_zero_epochs_returns_init(self):
        data = separable_two_class()
        [[(model, curve)]] = train_classifier([(data, flat_config(epochs=0, seed=3), [CE])])
        # The seed's first child stream draws the weights; the biases are zero.
        rng_init = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0])
        assert curve == []
        assert np.array_equal(model.weights, rng_init.uniform(-0.01, 0.01, size=(2, 2)))
        assert np.array_equal(model.biases, np.zeros(2))

    def test_deterministic(self):
        data = separable_two_class()
        cfg = flat_config(seed=9)
        [[(m1, c1)]] = train_classifier([(data, cfg, [RFL_HALF])])
        [[(m2, c2)]] = train_classifier([(data, cfg, [RFL_HALF])])
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    def test_rfl_threshold_one_is_bitwise_ce(self):
        data = separable_two_class()
        rfl_one = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0)
        [[(m_ce, c_ce)]] = train_classifier([(data, flat_config(seed=4), [CE])])
        [[(m_rfl, c_rfl)]] = train_classifier([(data, flat_config(seed=4), [rfl_one])])
        assert np.array_equal(m_ce.weights, m_rfl.weights)
        assert np.array_equal(m_ce.biases, m_rfl.biases)
        assert c_ce == c_rfl

    def test_zero_skip_undersample_is_bitwise_noop(self):
        data = separable_two_class()
        pol = UndersamplePolicy({0: 0.0, 1: 0.0}, seed=77)
        [[(m_plain, c_plain)]] = train_classifier([(data, flat_config(seed=6), [CE])])
        [[(m_us, c_us)]] = train_classifier([(data, flat_config(seed=6, undersample=pol), [CE])])
        assert np.array_equal(m_plain.weights, m_us.weights)
        assert c_plain == c_us

    def test_undersampling_reduces_class_presence(self):
        spec = SynthDatasetSpec(class_counts=[900, 100], feature_dim=3,
                                cluster_separation=3.0, seed=2)
        data = generate_synthetic(spec)
        pol = UndersamplePolicy({0: 0.9}, seed=5)
        [[(m, _)]] = train_classifier([(data, flat_config(epochs=20, undersample=pol), [CE])])
        ev = evaluate_classifier(m, data)
        assert ev.per_class_recall[1] > 0.5

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_classifier([(dataset(np.zeros((0, 2)), []), flat_config(), [CE])])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_classifier([(dataset(np.zeros((2, 2)), [0, 1, 1]), flat_config(), [CE])])

    def test_undersampling_every_epoch_empty_rejected(self):
        data = separable_two_class()
        pol = UndersamplePolicy({0: 1.0, 1: 1.0}, seed=2)
        with pytest.raises(ValueError, match="no training iteration"):
            train_classifier([(data, flat_config(epochs=3, undersample=pol), [CE])])
        [[(_, curve)]] = train_classifier([(data, flat_config(epochs=0, undersample=pol), [CE])])
        assert curve == []


LOCKSTEP_ARMS = (CE, FL2, LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25),
                 LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0))


class TestLockstep:
    """Losses trained together on one schedule equal each loss trained alone,
    bit for bit."""

    @pytest.mark.parametrize("policy", [None, UndersamplePolicy({0: 0.8, 1: 0.3}, seed=4)])
    def test_classifier_runs_equal_solo_runs(self, policy):
        data = generate_synthetic(SynthDatasetSpec(
            class_counts=[300, 80, 20], feature_dim=5, label_noise_rate=0.05, seed=8))
        cfg = TrainConfig(5, 16, ((40, 0.5), (10**9, 0.05)), weight_init_seed=3,
                          undersample=policy)
        [together] = train_classifier([(data, cfg, LOCKSTEP_ARMS)])
        assert len(together) == len(LOCKSTEP_ARMS)
        for loss, (model, curve) in zip(LOCKSTEP_ARMS, together):
            [[(solo, solo_curve)]] = train_classifier([(data, cfg, [loss])])
            assert np.array_equal(model.weights, solo.weights)
            assert np.array_equal(model.biases, solo.biases)
            assert curve == solo_curve

    def test_objectness_runs_equal_solo_runs(self):
        scenes = tiny_scenes(noise=0.05)
        X, y = scenes.X, scenes.is_object.astype(np.int64)
        cfg = TrainConfig(3, 32, ((20, 0.3), (10**9, 0.1)), weight_init_seed=1)
        [together] = train_objectness([(X, y, cfg, [CE, FL2], 0.5)])
        for loss, (model, curve) in zip([CE, FL2], together):
            [[(solo, solo_curve)]] = train_objectness([(X, y, cfg, [loss], 0.5)])
            assert np.array_equal(model.weights, solo.weights)
            assert np.array_equal(model.biases, solo.biases)
            assert curve == solo_curve

    def test_two_stage_reports_equal_solo_reports(self):
        scenes = tiny_scenes(seed=2, noise=0.05)
        cfg = two_stage_config()
        [together] = train_two_stage([(scenes, cfg, [CE, FL2])])
        for loss, (_, _, report) in zip([CE, FL2], together):
            assert report == train_two_stage([(scenes, cfg, [loss])])[0][0][2]

    @pytest.mark.parametrize("n_fg, batch", [(3, 32), (40, 1)])
    def test_objectness_edge_batches_equal_solo_and_reference(self, n_fg, batch):
        # 3 foreground rows for a quota of 11 draws with replacement;
        # batch 1 still draws one row of each stratum.
        rng = np.random.default_rng(n_fg)
        X = rng.normal(size=(200, 4))
        y = np.zeros(200, dtype=np.int64)
        y[rng.choice(200, size=n_fg, replace=False)] = 1
        cfg = TrainConfig(3, batch, ((7, 0.3), (10**9, 0.1)), weight_init_seed=5)
        [together] = train_objectness([(X, y, cfg, LOCKSTEP_ARMS, 0.5)])
        for loss, (model, curve) in zip(LOCKSTEP_ARMS, together):
            [[(solo, solo_curve)]] = train_objectness([(X, y, cfg, [loss], 0.5)])
            ref_w, ref_b, ref_curve = reference_objectness(X, y, cfg, loss, 0.5)
            assert np.array_equal(model.weights, solo.weights)
            assert np.array_equal(model.weights, ref_w[None])
            assert np.array_equal(model.biases, solo.biases)
            assert model.biases[0] == ref_b
            assert curve == solo_curve == ref_curve

    def test_empty_loss_list_rejected(self):
        scenes = tiny_scenes()
        with pytest.raises(ValueError, match="at least one loss"):
            train_classifier([(separable_two_class(), flat_config(), [])])
        with pytest.raises(ValueError, match="at least one loss"):
            train_objectness([(scenes.X, scenes.is_object.astype(np.int64), flat_config(), [],
                               0.5)])
        with pytest.raises(ValueError, match="at least one loss"):
            train_two_stage([(scenes, two_stage_config(), [])])


def reference_binary_batch(X, y, w, b, params):
    """One scorer's batch step as a gemv on the label-signed logits."""
    s = np.where(y == 1, X @ w + b, -(X @ w + b))
    log_pt = -np.logaddexp(0.0, -s)
    neg_log = np.minimum(-log_pt, -math.log(1e-12))
    pt = np.clip(np.exp(log_pt), 1e-12, 1.0 - 1e-12)
    one_minus = np.clip(np.exp(-np.logaddexp(0.0, s)), 1e-12, 1.0 - 1e-12)
    loss, dpt = loss_and_dpt(pt, neg_log, one_minus, params)
    gz = dpt * pt * one_minus * np.where(y == 1, 1.0, -1.0)
    return loss, gz @ X / len(y), float(gz.mean())


def reference_objectness(X, y, cfg, loss, ratio):
    """One run of stratified objectness SGD, one batch and one scorer at a time."""
    rng_init, rng_batch = (np.random.default_rng(s) for s in
                           np.random.SeedSequence(cfg.weight_init_seed).spawn(2))
    w, b = rng_init.uniform(-0.01, 0.01, size=X.shape[1]), 0.0
    fg_idx, bg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    n_fg = max(1, round(cfg.batch_size * ratio / (1.0 + ratio)))
    n_bg = max(1, cfg.batch_size - n_fg)
    curve = []
    for it in range(cfg.epochs * math.ceil(len(y) / cfg.batch_size)):
        fg = rng_batch.choice(fg_idx, size=n_fg, replace=len(fg_idx) < n_fg)
        bg = rng_batch.choice(bg_idx, size=n_bg, replace=len(bg_idx) < n_bg)
        idx = np.concatenate([fg, bg])
        losses, dw, db = reference_binary_batch(X[idx], y[idx], w, b, loss)
        rate = lr_at(cfg.lr_schedule, it)
        w, b = w - rate * dw, b - rate * db
        curve.append(float(losses.mean()))
    return w, b, curve


class TestStratifiedBatches:
    """An epoch's batch plan is what per-batch ``Generator.choice`` calls draw,
    and it leaves the generator where they do.  Should a numpy release change
    ``choice``'s algorithm, these tests fail before any report drifts."""

    # (population, quota) at each branch of choice and its edges: with
    # replacement (pop < k), pop == k, k == 1, and Floyd's algorithm
    # against the tail shuffle (pop > 10000 and k > pop // 50).
    EDGES = [(3, 11), (1, 4), (7, 7), (1, 1), (40, 1), (10000, 200), (10000, 201),
             (10001, 200), (10001, 201), (10001, 1), (10001, 10001), (12000, 240),
             (12000, 241)]
    STRATUM = st.one_of(
        st.sampled_from(EDGES),
        st.tuples(st.integers(1, 400), st.integers(1, 60)),
        st.integers(10001, 30000).flatmap(
            lambda pop: st.tuples(st.just(pop), st.sampled_from([pop // 50, pop // 50 + 1]))),
    )

    @staticmethod
    def assert_plan_equals_choice_calls(strata, batches, seed):
        # Distinct offsets and strides, so a pick names its stratum's row.
        strata = [(np.arange(pop) * (s + 2) + s, k) for s, (pop, k) in enumerate(strata)]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        plan = stratified_batches(rng, strata, batches)
        expected = np.array([
            np.concatenate([twin.choice(idx, k, replace=len(idx) < k) for idx, k in strata])
            for _ in range(batches)])
        assert plan.dtype == expected.dtype
        assert np.array_equal(plan, expected)
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(strata=st.lists(STRATUM, min_size=1, max_size=3), batches=st.integers(1, 6),
           seed=st.integers(0, 2**64 - 1))
    def test_plan_equals_choice_calls(self, strata, batches, seed):
        self.assert_plan_equals_choice_calls(strata, batches, seed)

    # Floyd's strata where most rows repeat a draw: k near pop, pop <= 64.
    REPEAT_HEAVY = st.integers(1, 64).flatmap(
        lambda pop: st.tuples(st.just(pop), st.integers(max(1, pop - 6), pop)))

    @settings(max_examples=80, deadline=None)
    @given(strata=st.lists(REPEAT_HEAVY, min_size=1, max_size=3), batches=st.integers(1, 40),
           seed=st.integers(0, 2**64 - 1))
    def test_repeat_heavy_strata_equal_choice_calls(self, strata, batches, seed):
        self.assert_plan_equals_choice_calls(strata, batches, seed)

    @pytest.mark.parametrize("pop, k", [(6, 6), (40, 37), (64, 60)])
    def test_a_draw_of_a_j_that_gave_way_gives_way_too(self, pop, k):
        # Floyd takes j = pop - k + t at column t when an earlier pick holds
        # the draw; a later draw can equal that j, and must give way in turn.
        # These draws hold such rows (counted by a per-row Floyd), and the
        # plan still equals the choice calls.
        batches, seed = 200, 11
        draws = np.random.default_rng(seed).integers(0, _choice_bounds(pop, k),
                                                     size=(batches, 2 * k - 1))
        chained = 0
        for row in draws[:, :k].tolist():
            picked, took = set(), set()
            for t, v in enumerate(row):
                chained += v in took
                if v in picked:
                    v = pop - k + t
                    took.add(v)
                picked.add(v)
        assert chained > 0
        self.assert_plan_equals_choice_calls([(pop, k)], batches, seed)

    @pytest.mark.parametrize("n_fg, n, batch, ratio", [
        (1154, 15300, 64, 0.5),  # the shipped two_stage strata: Floyd with repeats
        (3, 200, 32, 0.5),       # foreground drawn with replacement
        (40, 200, 1, 0.5),       # one row of each stratum
        (60, 10600, 400, 0.1),   # background by the tail shuffle
    ])
    def test_objectness_equals_choice_loop(self, n_fg, n, batch, ratio):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        y = np.zeros(n, dtype=np.int64)
        y[rng.choice(n, size=n_fg, replace=False)] = 1
        cfg = TrainConfig(2, batch, ((50, 0.3), (10**9, 0.1)), weight_init_seed=7)
        fg_idx, bg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
        k_fg = max(1, round(batch * ratio / (1.0 + ratio)))
        k_bg = max(1, batch - k_fg)
        sign = np.repeat([1.0, -1.0], [k_fg, k_bg])

        def choice_batches(batch_rng):
            while True:
                fg = batch_rng.choice(fg_idx, size=k_fg, replace=len(fg_idx) < k_fg)
                bg = batch_rng.choice(bg_idx, size=k_bg, replace=len(bg_idx) < k_bg)
                yield np.concatenate([fg, bg]), sign

        [reference] = _sgd([(X, cfg, LOCKSTEP_ARMS, 1, choice_batches)], sigmoid_head)
        for (model, curve), (ref, ref_curve) in zip(
                train_objectness([(X, y, cfg, LOCKSTEP_ARMS, ratio)])[0], reference, strict=True):
            assert np.array_equal(model.weights, ref.weights)
            assert np.array_equal(model.biases, ref.biases)
            assert curve == ref_curve


def reference_softmax_batch(X, y, w, b, params):
    """One model's softmax batch step with fancy indexing, np.clip and .mean."""
    z = X @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    pt = np.clip(p[rows, y], 1e-12, 1.0 - 1e-12)
    loss, dpt = loss_and_dpt(pt, -np.log(pt), 1.0 - pt, params)
    direction = -p
    direction[rows, y] += 1.0
    glogits = (dpt * pt)[:, None] * direction
    return loss, glogits.T @ X / len(y), glogits.mean(axis=0)

def reference_classifier(data, cfg, loss):
    """One run of softmax SGD, one model at a time: each epoch copies the
    kept rows ``X[keep]`` and each batch takes from that copy."""
    rng_init, rng_batch = (np.random.default_rng(s) for s in
                           np.random.SeedSequence(cfg.weight_init_seed).spawn(2))
    C = max(2, int(data.y.max()) + 1)
    w, b = rng_init.uniform(-0.01, 0.01, size=(C, data.X.shape[1])), np.zeros(C)
    curve = []
    for epoch in range(cfg.epochs):
        Xe, ye = data.X, data.y
        if cfg.undersample is not None:
            sub = np.random.SeedSequence(cfg.undersample.seed, spawn_key=(epoch,))
            policy = UndersamplePolicy(cfg.undersample.skip_prob,
                                       int(sub.generate_state(1, np.uint64)[0]))
            keep = undersample_mask(data.y, policy)
            if not keep.any():
                continue
            Xe, ye = data.X[keep], data.y[keep]
        perm = rng_batch.permutation(len(ye))
        for start in range(0, len(ye), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            losses, dw, db = reference_softmax_batch(Xe.take(idx, axis=0), ye.take(idx),
                                                     w, b, loss)
            rate = lr_at(cfg.lr_schedule, len(curve))
            w, b = w - rate * dw, b - rate * db
            curve.append(float(losses.mean()))
    return w, b, curve


STEP_LOSS_LIST = [
    CE, FL2, LossParams(kind=LossKind.FL, gamma=0.0),
    LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25),
    LossParams(kind=LossKind.RFL, gamma=0.0, threshold=0.5),
    LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0),
]
STEP_LOSSES = st.sampled_from(STEP_LOSS_LIST)


def assert_lockstep_equals_reference(data, cfg, losses):
    """train_classifier on ``losses`` in lockstep against
    :func:`reference_classifier` per loss, bit for bit; returns the curves."""
    refs = [reference_classifier(data, cfg, loss) for loss in losses]
    if cfg.epochs and not refs[0][2]:
        with pytest.raises(ValueError, match="no training iteration"):
            train_classifier([(data, cfg, losses)])
        return []
    [trained] = train_classifier([(data, cfg, losses)])
    for (model, curve), (w, b, ref_curve) in zip(trained, refs, strict=True):
        assert np.array_equal(model.weights, w)
        assert np.array_equal(model.biases, b)
        assert curve == ref_curve
    return [curve for _, curve in trained]


class TestClassifierReference:
    """Lockstep training gathers each batch through the kept rows' global
    indices; it equals the one-run reference that copies ``X[keep]``."""

    @settings(max_examples=40, deadline=None)
    @given(counts=st.lists(st.integers(1, 8), min_size=2, max_size=4),
           losses=st.lists(STEP_LOSSES, min_size=1, max_size=4),
           schedule=st.tuples(st.integers(1, 30), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           skip=st.none() | st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
                                     min_size=4, max_size=4),
           epochs=st.integers(0, 5), batch=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_lockstep_equals_reference(self, counts, losses, schedule, skip, epochs, batch,
                                       seed):
        data = generate_synthetic(SynthDatasetSpec(
            class_counts=counts, feature_dim=3, label_noise_rate=0.1, seed=seed))
        policy = None if skip is None else UndersamplePolicy(
            dict(enumerate(skip[:len(counts)])), seed=seed)
        t, lr, late = schedule
        cfg = TrainConfig(epochs, batch, ((t, lr), (10**9, late)), weight_init_seed=seed,
                          undersample=policy)
        assert_lockstep_equals_reference(data, cfg, losses)

    def test_partly_emptied_epochs(self):
        # With one batch per epoch, the curve has one loss per epoch that
        # undersampling left non-empty.
        data = generate_synthetic(SynthDatasetSpec(class_counts=[3, 2, 1], feature_dim=3,
                                                   seed=1))
        for seed in range(50):
            policy = UndersamplePolicy({0: 0.9, 1: 0.9, 2: 0.9}, seed=seed)
            cfg = TrainConfig(6, 6, ((3, 0.5), (10**9, 0.1)), weight_init_seed=seed,
                              undersample=policy)
            if 0 < len(reference_classifier(data, cfg, CE)[2]) < 6:
                break
        else:
            pytest.fail("no policy seed empties some epochs but not all")
        assert 0 < len(assert_lockstep_equals_reference(data, cfg, LOCKSTEP_ARMS)[0]) < 6


HEADS = [softmax_head, sigmoid_head]


def draw_targets(head, rng, B, C):
    """(labels, step targets, K) of B random rows: C classes for the softmax
    head; labels 0/1, their signs and one logit for the sigmoid head."""
    if head is softmax_head:
        y = rng.integers(0, C, size=B)
        return y, y, C
    y = rng.integers(0, 2, size=B)
    return y, signs(y), 1


def reference_batch(head, X, y, W, b, params):
    """One (K, d) model's batch step by the head's reference: losses (B,) and
    gradients (K, d), (K,)."""
    if head is softmax_head:
        return reference_softmax_batch(X, y, W, b, params)
    loss, dw, db = reference_binary_batch(X, y, W[0], float(b[0]), params)
    return loss, dw[None], np.array([db])


@pytest.mark.parametrize("head", HEADS, ids=["softmax", "sigmoid"])
class TestStep:
    """One :func:`step` for both heads.  Each slice of a stacked step is
    bitwise the step of that model alone and the head's reference, the
    trainers' curve reduce gives each row's mean, and the batch sums match
    the head's rows on the model's logits."""

    def test_step_matches_scalar(self, head):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(16, 4))
        y, target, K = draw_targets(head, rng, 16, 3)
        model = LinearModel(rng.normal(size=(K, 4)) * 0.3, rng.normal(size=K) * 0.3)
        for params in (CE, FL2, RFL_HALF,
                       LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25)):
            (losses,), (dW,), (db,) = step(X, target, model.weights[None],
                                           model.biases[None], head, [params])
            (rows,), (grads,) = head(model.scores(X)[None], target, [params])
            assert np.array_equal(losses, rows)
            np.testing.assert_allclose(dW, grads.T @ X / len(y), rtol=1e-12, atol=1e-15)
            assert np.array_equal(db, np.add.reduce(grads, axis=0) / len(y))

    @settings(max_examples=120, deadline=None)
    @given(B=st.integers(1, 130), d=st.integers(1, 16), C=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1),
           params=st.lists(STEP_LOSSES, min_size=1, max_size=4),
           scale=st.sampled_from([0.1, 1.0, 30.0]))
    def test_slices(self, head, B, d, C, seed, params, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(B, d)) * scale
        y, target, K = draw_targets(head, rng, B, C)
        W = rng.normal(size=(len(params), K, d))
        b = rng.normal(size=(len(params), K))
        losses, dW, db = step(X, target, W, b, head, params)
        rows = np.add.reduce(losses, axis=1) / B
        for s, loss in enumerate(params):
            solo = [out[0] for out in step(X, target, W[s:s + 1].copy(),
                                           b[s:s + 1].copy(), head, [loss])]
            ref = reference_batch(head, X, y, W[s], b[s], loss)
            for got in (solo, ref):
                for mine, want in zip((losses[s], dW[s], db[s]), got):
                    assert np.array_equal(mine, want)
            assert rows[s] == float(losses[s].mean())


# The plain spelling of the kernel, both heads, binary_pt and the step: a
# new array per operation, two logaddexps, two exps and four clamps for the
# binary pt, x**1.0 at gamma 2, and (g, 1) threshold and divisor columns.
# It is the oracle that the in-place step must equal bit for bit.
def oracle_kernel(pt, neg_log, one_minus, gamma, th, scale):
    recip = -1.0 / pt
    if gamma == 0.0:
        weight, dfl = 1.0, recip
    else:
        weight = one_minus**gamma
        dfl = gamma * one_minus ** (gamma - 1.0) * np.log(pt) - weight / pt
    flat = pt < th
    loss = None if neg_log is None else np.where(flat, neg_log, weight * neg_log / scale)
    return loss, np.where(flat, recip, dfl / scale)


def oracle_stacked(pt, neg_log, one_minus, losses):
    gammas = [p.gamma for p in losses if p.kind is not LossKind.CE] or [0.0]
    keys = [gammas[0] if p.kind is LossKind.CE else p.gamma for p in losses]
    groups = []
    for gamma in dict.fromkeys(keys):
        rows = [r for r, k in enumerate(keys) if k == gamma]
        th, scale = np.array([_rfl_form(losses[r])[1:] for r in rows]).T[:, :, None]
        groups.append((np.array(rows), gamma, th, scale))
    if len(groups) == 1:
        return oracle_kernel(pt, neg_log, one_minus, *groups[0][1:])
    out, dpt = None if neg_log is None else np.empty(pt.shape), np.empty(pt.shape)
    for rows, gamma, th, scale in groups:
        loss, dpt[rows] = oracle_kernel(pt[rows], None if neg_log is None else neg_log[rows],
                                        one_minus[rows], gamma, th, scale)
        if loss is not None:
            out[rows] = loss
    return out, dpt


def oracle_binary_pt(s, with_loss=True):
    softplus = np.logaddexp(0.0, -s)
    neg_log = np.minimum(softplus, -math.log(PT_CLAMP_LO)) if with_loss else None
    pt = np.minimum(np.maximum(np.exp(-softplus), PT_CLAMP_LO), PT_CLAMP_HI)
    one_minus = np.exp(-np.logaddexp(0.0, s))
    one_minus = np.minimum(np.maximum(one_minus, PT_CLAMP_LO), PT_CLAMP_HI)
    return pt, neg_log, one_minus


def oracle_sigmoid_head(z, sign, losses, with_loss=True):
    pt, neg_log, one_minus = oracle_binary_pt(z[:, :, 0] * sign, with_loss)
    loss, dpt = oracle_stacked(pt, neg_log, one_minus, losses)
    return loss, (dpt * pt * one_minus * sign)[:, :, None]


def oracle_softmax_head(z, y, losses, with_loss=True):
    S, n, C = z.shape
    z -= np.maximum.reduce(z.reshape(-1, C).T.copy(), axis=0).reshape(S, n, 1)
    p = np.exp(z, out=z)
    p /= np.add.reduce(p, axis=2, keepdims=True)
    at = np.arange(0, S * n * C, n * C)[:, None] + np.arange(0, n * C, C) + y
    p_label = p.take(at)
    pt = np.minimum(np.maximum(p_label, PT_CLAMP_LO), PT_CLAMP_HI)
    loss, dpt = oracle_stacked(pt, -np.log(pt) if with_loss else None, 1.0 - pt, losses)
    direction = np.negative(p, out=p)
    direction.put(at, 1.0 - p_label)
    return loss, (dpt * pt)[:, :, None] * direction


def oracle_step(X, target, W, b, head, losses, with_loss=True):
    z = np.matmul(X, W.transpose(0, 2, 1))
    z += b[:, None, :]
    loss, glogits = head(z, target, losses, with_loss)
    dW = np.matmul(glogits.transpose(0, 2, 1), X) / X.shape[-2]
    db = np.add.reduce(glogits, axis=1) / X.shape[-2]
    return loss, dW, db


ORACLE_OF = {softmax_head: oracle_softmax_head, sigmoid_head: oracle_sigmoid_head}


def same_bits(got, want):
    """Equal as None, or as arrays of one dtype, shape and byte content."""
    if want is None:
        return got is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def oracle_steps(draw, head):
    """(X, target, W, b, losses) of a stacked step: shared or per-run rows,
    weights from small to saturating (logits in the hundreds), every kind
    at gamma 0, 0.5, 1, 2 and 5, and thresholds from the grid, 1, or one of
    the run's own clamped pts or the float above it, so pts fall at and
    across th."""
    R, B, d = draw(st.integers(1, 4)), draw(st.integers(1, 70)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y, target, K = draw_targets(head, rng, B, draw(st.integers(2, 10)))
    X = rng.normal(size=(R, B, d) if draw(st.booleans()) else (B, d))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0, 300.0]))
    W, b = rng.normal(size=(R, K, d)) * scale, rng.normal(size=(R, K)) * scale
    z = np.matmul(X, W.transpose(0, 2, 1)) + b[:, None, :]
    if head is sigmoid_head:
        pt = oracle_binary_pt(z[:, :, 0] * target)[0]
    else:
        p = np.exp(z - z.max(axis=2, keepdims=True))
        pt = np.clip((p / p.sum(axis=2, keepdims=True))[:, np.arange(B), y], PT_CLAMP_LO,
                     PT_CLAMP_HI)
    losses = []
    for r in range(R):
        at = float(pt[r, draw(st.integers(0, B - 1))])
        th = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0, at, float(np.nextafter(at, 1.0))]))
        losses.append(LossParams(draw(st.sampled_from(list(LossKind))),
                                 draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])), th))
    return X, target, W, b, losses


def assert_plan_steps_equal_the_oracle(head, X, target, W, b, losses, with_loss, wider):
    """The step of every operand spelling a lockstep plan may hand it equals
    the oracle bit for bit: losses or their columns, as wide as the batch or
    ``wider`` (so the step takes [:, :B] views); a shared target as given or
    tiled to (R, B); W and b as their own arrays or as views of one (R, K,
    d + 1) buffer, with the gradients written into another."""
    R, K, d = W.shape
    B = X.shape[-2]
    want = oracle_step(X, target, W, b, ORACLE_OF[head], losses, with_loss)
    P = np.concatenate((W, b[:, :, None]), axis=2)
    for params in (losses, loss_columns(losses, B), loss_columns(losses, wider)):
        for tiled in (target,) if target.ndim == 2 else (target, np.tile(target, (R, 1))):
            for Wv, bv, out in ((W, b, None), (P[:, :, :d], P[:, :, d], np.empty(P.shape))):
                got = step(X, tiled, Wv, bv, head, params, with_loss, out)
                assert all(same_bits(g, w) for g, w in zip(got, want))


class TestStepOracle:
    """The step, both heads and ``binary_pt`` equal the oracle spelling above
    bit for bit: stacked and solo, with and without losses, for every
    operand spelling of a lockstep plan.  CI runs this class under numpy's
    AVX2 loops and Haswell OpenBLAS kernels too."""

    @pytest.mark.parametrize("head", HEADS, ids=["softmax", "sigmoid"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_step_equals_the_oracle(self, head, data):
        X, target, W, b, losses = data.draw(oracle_steps(head))
        with_loss = data.draw(st.booleans())
        wider = X.shape[-2] + data.draw(st.integers(1, 9))
        assert_plan_steps_equal_the_oracle(head, X, target, W, b, losses, with_loss, wider)
        for r, loss in enumerate(losses):  # each run alone
            Xr = X[r] if X.ndim == 3 else X
            assert_plan_steps_equal_the_oracle(head, Xr, target, W[r:r + 1], b[r:r + 1], [loss],
                                               with_loss, wider)

    @pytest.mark.parametrize("head", HEADS, ids=["softmax", "sigmoid"])
    @pytest.mark.parametrize("losses", [
        [CE, FL2],  # the two_stage arms: every divisor 1, so none divides
        [CE, FL2, LossParams(LossKind.RFL, 2.0, 0.25)],  # longtail's: divisors 1 and 0.0625
    ], ids=["unit-divisors", "mixed-divisors"])
    @pytest.mark.parametrize("with_loss", [True, False])
    def test_shipped_loss_groups_equal_the_oracle(self, head, losses, with_loss):
        [(_, _, _, scale)] = loss_columns(losses, 5).groups
        assert (scale is None) == (len(losses) == 2)
        rng = np.random.default_rng(7)
        for B, shared in ((64, True), (64, False), (23, True)):
            _, target, K = draw_targets(head, rng, B, 10)
            X = rng.normal(size=(B, 16) if shared else (len(losses), B, 16))
            W, b = rng.normal(size=(len(losses), K, 16)), rng.normal(size=(len(losses), K))
            assert_plan_steps_equal_the_oracle(head, X, target, W, b, losses, with_loss, 64)
            for r, loss in enumerate(losses):
                assert_plan_steps_equal_the_oracle(head, X if shared else X[r], target,
                                                   W[r:r + 1], b[r:r + 1], [loss], with_loss, 64)

    @settings(max_examples=100, deadline=None)
    @given(s=st.lists(st.one_of(st.floats(-60.0, 60.0), st.sampled_from(
               [-np.inf, np.inf, -800.0, 800.0, 27.631021115928547, -27.631021115928547])),
               min_size=1, max_size=12),
           rows=st.integers(1, 3), with_loss=st.booleans())
    def test_binary_pt_equals_the_oracle(self, s, rows, with_loss):
        s = np.array(s * rows).reshape(rows, -1)
        for signed in (s, s[0]):  # stacked and one-dimensional
            got = binary_pt(np.stack((-signed, signed)), with_loss)
            want = oracle_binary_pt(signed, with_loss)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_scalar_losses_equal_the_oracle(self):
        # The kernel's scalar path, which loss_at and the gradcheck use.
        for params in [CE, FL2, LossParams(LossKind.RFL, 0.5, 0.25),
                       LossParams(LossKind.RFL, 5.0, 0.9)]:
            for pt in [1e-12, 0.01, 0.25, 0.5, 0.9, 0.99]:
                want = oracle_kernel(pt, -math.log(pt), 1.0 - pt, *_rfl_form(params))
                assert loss_at(pt, params) == tuple(map(float, want))


def label_pts(head, X, target, W, b):
    """Each run's clamped pt (R, B) of its rows' labels, by the oracle."""
    z = np.matmul(X, W.transpose(0, 2, 1)) + b[:, None, :]
    if head is sigmoid_head:
        return oracle_binary_pt(z[:, :, 0] * target)[0]
    p = np.exp(z - z.max(axis=2, keepdims=True))
    p = p / p.sum(axis=2, keepdims=True)
    return np.clip(np.take_along_axis(p, np.broadcast_to(target, z.shape[:2])[:, :, None],
                                      axis=2)[:, :, 0], PT_CLAMP_LO, PT_CLAMP_HI)


class TestPlanReuse:
    """A group's plans, compiled once per row count as the lockstep caches
    them, give over a sequence of batches the bits of a fresh one-shot
    :func:`step` at every step: full and narrower (ragged) row counts, the
    planned targets or new arrays, steps with and without losses, one
    gamma or several, and pt at, above and below th.  CI runs this class
    under numpy's AVX2 loops and Haswell OpenBLAS kernels too."""

    @pytest.mark.parametrize("head", HEADS, ids=["softmax", "sigmoid"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reused_plans_equal_one_shot_steps(self, head, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        B, d, C = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 6)), 4
        K = 1 if head is sigmoid_head else C
        Xs = [rng.normal(size=(30, d)) for _ in sizes]
        scale = data.draw(st.sampled_from([0.3, 3.0, 30.0]))
        block = rng.normal(size=(sum(sizes), K, d + 1)) * scale
        grad = np.empty(block.shape)
        sources = [draw_targets(head, rng, B, C)[1] for _ in sizes]

        def gathered(batches):
            """The batch rows and targets of the group's runs, as the one-shot step takes them."""
            if len(sizes) == 1:
                [(idx, t)] = batches
                return Xs[0][idx], t
            return (np.concatenate([np.repeat(X[idx][None], size, axis=0)
                                    for X, size, (idx, _) in zip(Xs, sizes, batches)]),
                    np.repeat([t for _, t in batches], sizes, axis=0))

        first = [(rng.integers(0, 30, B), t) for t in sources]
        pts = label_pts(head, *gathered(first), block[:, :, :d], block[:, :, d])
        losses = []
        for r in range(len(block)):  # thresholds on the grid, at a pt and just above it
            at = float(pts[r, data.draw(st.integers(0, B - 1))])
            th = data.draw(st.sampled_from([0.25, 0.5, 0.9, 1.0, at, float(np.nextafter(at, 1.0))]))
            losses.append(LossParams(data.draw(st.sampled_from(list(LossKind))),
                                     data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])), th))
        members = [(X, losses[end - size:end])
                   for X, size, end in zip(Xs, sizes, np.cumsum(sizes).tolist())]
        plans = {B: _plan(head, block, grad, members, first)}
        sequence = data.draw(st.lists(st.tuples(st.integers(1, B), st.booleans(), st.booleans()),
                                      min_size=1, max_size=8))
        for step_no, (n, planned, record) in enumerate(sequence):
            # The first step takes the planned batches; a planned target has the planned rows.
            n = B if planned or step_no == 0 else n
            batches = first if step_no == 0 else [
                (rng.integers(0, 30, n), t if planned else draw_targets(head, rng, n, C)[1])
                for t in sources]
            if n not in plans:
                plans[n] = _plan(head, block, grad, members, batches)
            got = plans[n](batches, record)
            want = step(*gathered(batches), block[:, :, :d].copy(), block[:, :, d].copy(), head,
                        losses, record)
            assert all(same_bits(g, w) for g, w in zip((got, grad[:, :, :d], grad[:, :, d]), want))
            block -= np.multiply(grad, 0.1, out=grad)  # the next step sees the update


def thinned(curve, stride):
    """Every ``stride``-th entry of a full curve, and the last."""
    last = curve[-1:] if curve and (len(curve) - 1) % stride else []
    return curve[::stride] + last


class TestCurveStride:
    """A curve stride only thins the curve: the models are bitwise those of
    stride 1, and the curve is every stride-th entry of the stride-1 curve
    plus the last, also when undersampling leaves epochs of uneven length,
    with no epochs, and with a stride past the iteration count."""

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 30), min_size=2, max_size=4),
           losses=st.lists(STEP_LOSSES, min_size=1, max_size=4),
           skip=st.none() | st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                                     min_size=4, max_size=4),
           epochs=st.integers(0, 4), batch=st.integers(1, 16), stride=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @example(counts=[30, 20, 10], losses=STEP_LOSS_LIST, skip=[0.7, 0.3, 0.7, 0.0], epochs=4,
             batch=4, stride=3, seed=1)  # epochs of uneven length
    @example(counts=[5, 5], losses=[CE], skip=None, epochs=0, batch=4, stride=3, seed=0)
    @example(counts=[5, 5], losses=[CE, FL2], skip=None, epochs=2, batch=4, stride=40, seed=0)
    def test_classifier(self, counts, losses, skip, epochs, batch, stride, seed):
        data = generate_synthetic(SynthDatasetSpec(
            class_counts=counts, feature_dim=3, label_noise_rate=0.1, seed=seed))
        policy = None if skip is None else UndersamplePolicy(
            dict(enumerate(skip[:len(counts)])), seed=seed)
        cfg = TrainConfig(epochs, batch, ((7, 0.5), (10**9, 0.1)), weight_init_seed=seed,
                          undersample=policy)
        try:
            [full] = train_classifier([(data, cfg, losses)])
        except ValueError as exc:
            assert "no training iteration" in str(exc)  # every epoch emptied
            with pytest.raises(ValueError, match="no training iteration"):
                train_classifier([(data, replace(cfg, curve_stride=stride), losses)])
            return
        for (model, curve), (ref, ref_curve) in zip(
                train_classifier([(data, replace(cfg, curve_stride=stride), losses)])[0], full,
                strict=True):
            assert np.array_equal(model.weights, ref.weights)
            assert np.array_equal(model.biases, ref.biases)
            assert curve == thinned(ref_curve, stride)

    @settings(max_examples=40, deadline=None)
    @given(n_fg=st.integers(1, 40), n=st.integers(41, 300), batch=st.integers(1, 40),
           epochs=st.integers(0, 3), stride=st.integers(1, 60),
           losses=st.lists(STEP_LOSSES, min_size=1, max_size=4), seed=st.integers(0, 2**16))
    @example(n_fg=5, n=50, batch=8, epochs=0, stride=2, losses=[CE], seed=0)
    @example(n_fg=5, n=50, batch=40, epochs=1, stride=60, losses=[CE, FL2], seed=0)
    def test_objectness(self, n_fg, n, batch, epochs, stride, losses, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = np.zeros(n, dtype=np.int64)
        y[rng.choice(n, size=n_fg, replace=False)] = 1
        cfg = TrainConfig(epochs, batch, ((5, 0.3), (10**9, 0.1)), weight_init_seed=seed)
        [full] = train_objectness([(X, y, cfg, losses, 0.5)])
        for (model, curve), (ref, ref_curve) in zip(
                train_objectness([(X, y, replace(cfg, curve_stride=stride), losses, 0.5)])[0],
                full,
                strict=True):
            assert np.array_equal(model.weights, ref.weights)
            assert np.array_equal(model.biases, ref.biases)
            assert curve == thinned(ref_curve, stride)

    @pytest.mark.parametrize("head", HEADS, ids=["softmax", "sigmoid"])
    def test_only_recorded_steps_compute_losses(self, head):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        _, target, K = draw_targets(head, rng, 7, 3)
        asked = []

        def counting_head(z, target, params, with_loss=True):
            # A compiled head (target None) records at each call whether it
            # computes losses.
            run, grads = head(z, target, params, with_loss)
            if target is not None:
                return run, grads

            def counted(target):
                asked.append(with_loss)
                return run(target)
            return counted, grads

        def batches(_):
            for _ in range(23):
                yield np.arange(7), target

        cfg = TrainConfig(4, 10, FLAT, curve_stride=5)
        [[(_, curve), _]] = _sgd([(X, cfg, [CE, FL2], K, batches)], counting_head)
        assert len(asked) == 20 and len(curve) == 5  # steps 0, 5, 10, 15 and 19
        assert [i for i, w in enumerate(asked) if w] == [0, 5, 10, 15, 19]

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError, match="curve_stride"):
            TrainConfig(1, 1, FLAT, curve_stride=0)


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(1, 40), min_size=2, max_size=5),
       zero_skip=st.lists(st.booleans(), min_size=5, max_size=5),
       epochs=st.integers(1, 3), batch=st.integers(1, 16), stride=st.integers(1, 30),
       seed=st.integers(0, 2**16), policy_seed=st.integers(0, 2**32 - 1))
def test_zero_skip_undersampling_is_no_policy(counts, zero_skip, epochs, batch, stride, seed,
                                               policy_seed):
    # A policy that skips its classes with probability 0 keeps every row in
    # every epoch: bitwise the run with no policy.
    data = generate_synthetic(SynthDatasetSpec(
        class_counts=counts, feature_dim=3, label_noise_rate=0.1, seed=seed))
    policy = UndersamplePolicy({c: 0.0 for c in range(len(counts)) if zero_skip[c]},
                               seed=policy_seed)
    cfg = TrainConfig(epochs, batch, ((9, 0.5), (10**9, 0.1)), weight_init_seed=seed,
                      curve_stride=stride)
    for (model, curve), (ref, ref_curve) in zip(
            train_classifier([(data, replace(cfg, undersample=policy), LOCKSTEP_ARMS)])[0],
            train_classifier([(data, cfg, LOCKSTEP_ARMS)])[0], strict=True):
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.biases, ref.biases)
        assert curve == ref_curve


class TestEndToEndGradient:
    """Finite differences of each run's mean batch loss against the
    gradients of the stacked step that training runs."""

    @pytest.mark.parametrize("params", [[CE], [FL2], [RFL_HALF], [CE, FL2, RFL_HALF]])
    def test_full_model_gradient_matches_fd(self, params):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        runs = len(params)
        init = Dataset(X, np.arange(8) % 3, np.zeros(8, bool))  # 3 classes, 4 features
        [[(model, _)]] = train_classifier([(init, flat_config(epochs=0, seed=21), [CE])])
        W = model.weights + rng.normal(size=(runs, 3, 4)) * 0.3
        b = rng.normal(size=(runs, 3)) * 0.1
        _, dW, db = step(X, y, W, b, softmax_head, params)
        h = 1e-6

        def loss_at(W, b):
            # One perturbation moves every run; each run's loss sees only its own.
            return np.array([row.mean() for row in step(X, y, W, b, softmax_head, params)[0]])

        def check(analytic, up, down):
            num = (up - down) / (2 * h)
            assert np.all(np.abs(analytic - num) / np.maximum(np.abs(num), 1e-8) < 1e-5)

        for i in range(3):
            for j in range(4):
                Wp, Wm = W.copy(), W.copy()
                Wp[:, i, j] += h
                Wm[:, i, j] -= h
                check(dW[:, i, j], loss_at(Wp, b), loss_at(Wm, b))
        for i in range(3):
            bp, bm = b.copy(), b.copy()
            bp[:, i] += h
            bm[:, i] -= h
            check(db[:, i], loss_at(W, bp), loss_at(W, bm))


class TestEvaluateClassifier:
    def test_perfect_predictions(self):
        data = separable_two_class()
        [[(model, _)]] = train_classifier([(data, flat_config(), [CE])])
        ev = evaluate_classifier(model, data)
        assert set(ev.per_class_recall) == {0, 1}
        assert ev.m_recall == pytest.approx(
            np.mean(list(ev.per_class_recall.values()))
        )

    def test_constant_predictor(self):
        model = LinearModel(np.zeros((3, 2)), np.array([0.0, 5.0, 0.0]))
        data = dataset(np.ones((4, 2)), [0, 1, 1, 2])
        ev = evaluate_classifier(model, data)
        assert ev.per_class_recall == {0: 0.0, 1: 1.0, 2: 0.0}
        assert ev.m_recall == pytest.approx(1 / 3)
        assert ev.accuracy == pytest.approx(0.5)

    def test_hand_computed_confusion(self):
        # Classifier: argmax of fixed scores; inputs one-hot pick a row of W.
        W = np.array([
            [2.0, 0.0, 1.0],   # class-0 inputs -> predicted 0
            [0.0, 1.0, 2.0],   # class-1 inputs -> predicted 2
            [0.0, 0.0, 1.0],   # class-2 inputs -> predicted 2
        ]).T
        model = LinearModel(W, np.zeros(3))
        y = np.repeat([0, 1, 2], [4, 2, 2])
        ev = evaluate_classifier(model, dataset(np.eye(3)[y], y))
        assert ev.per_class_recall == {0: 1.0, 1: 0.0, 2: 1.0}
        assert ev.m_recall == pytest.approx(2 / 3)
        assert ev.accuracy == pytest.approx(6 / 8)


def tiny_scenes(seed=0, noise=0.0):
    spec = SceneSetSpec(
        num_scenes=6, fg_per_scene=8, bg_per_scene=80, num_classes=3,
        feature_dim=4, separation=3.0, objectness_noise_rate=noise, seed=seed,
    )
    return generate_scenes(spec)


def two_stage_config(budget=20, epochs=8):
    stage = TrainConfig(epochs, 32, ((10**9, 0.3),), weight_init_seed=1)
    stage2 = TrainConfig(epochs, 32, ((10**9, 0.3),), weight_init_seed=2)
    return TwoStageConfig(stage1=stage, proposal_budget=budget, stage2=stage2,
                          stage2_loss=CE, fg_bg_ratio=0.5)


class TestTwoStage:
    def test_top_k_ties_break_by_index(self):
        s = np.array([1.0, 3.0, 3.0, 0.5])
        assert top_k_indices(s, 2).tolist() == [1, 2]
        assert top_k_indices(s, 10).tolist() == [1, 2, 0, 3]

    @pytest.mark.parametrize("k", [1, 7, 24, 25, 40])
    def test_top_k_over_scenes_equals_scene_by_scene(self, k):
        # Scores rounded to one decimal: many ties within each scene.
        scores = np.round(np.random.default_rng(k).normal(size=(30, 25)), 1)
        top = top_k_indices(scores, k)
        assert top.shape == (30, min(k, 25))
        for row, s in zip(top, scores):
            assert row.tolist() == top_k_indices(s, k).tolist()
            assert row.tolist() == sorted(range(25), key=lambda i: (-s[i], i))[:k]

    def test_budget_equal_to_pool_gives_full_recall(self):
        scenes = tiny_scenes()
        cfg = two_stage_config(budget=88)  # >= candidates per scene
        [[(_, _, report)]] = train_two_stage([(scenes, cfg, [CE])])
        assert report.proposal_recall == 1.0
        assert all(v == 1.0 for v in report.per_class_proposal_recall.values())

    def test_perfect_scorer_with_wide_budget(self):
        scenes = tiny_scenes()
        # Hand-build a scorer that separates fg lattice clusters from bg at
        # the origin: score by distance from origin along the mean fg axis.
        direction = scenes.X[scenes.is_object].mean(axis=0)
        scorer = LinearModel(direction[None], np.zeros(1))
        P = scenes.per_scene
        kept = 0
        for s in range(len(scenes.X) // P):
            top = top_k_indices(scorer.scores(scenes.X[s * P:(s + 1) * P])[:, 0], 40)
            kept += np.count_nonzero(scenes.is_object[s * P + top])
        assert kept / np.count_nonzero(scenes.is_object) >= 0.95

    @pytest.mark.parametrize("budget", [5, 20, 88, 100])
    def test_report_equals_scene_by_scene_count(self, budget):
        # The per-scene, per-candidate count the vectorised evaluation replaced.
        scenes = tiny_scenes(seed=4, noise=0.1)
        [[(scorer, classifier, report)]] = train_two_stage(
            [(scenes, two_stage_config(budget=budget), [CE])])
        P = scenes.per_scene
        total, kept, retained = {}, {}, []
        for start in range(0, len(scenes.X), P):
            scores = scenes.X[start:start + P] @ scorer.weights[0] + scorer.biases[0]
            top = set(top_k_indices(scores, budget).tolist())
            for i in range(P):
                cls = int(scenes.true_class[start + i])
                if cls < 0:
                    continue
                total[cls] = total.get(cls, 0) + 1
                if i in top:
                    kept[cls] = kept.get(cls, 0) + 1
                    retained.append(start + i)
        assert report.proposal_recall == sum(kept.values()) / sum(total.values())
        assert report.per_class_proposal_recall == {
            c: kept.get(c, 0) / total[c] for c in sorted(total)}
        pred = classifier.predict(scenes.X[retained])
        truth = scenes.true_class[retained]
        assert report.stage2_per_class_recall == {
            c: float((pred[truth == c] == c).mean()) for c in sorted(set(truth.tolist()))}

    def test_trained_pipeline_reports(self):
        scenes = tiny_scenes()
        [[(_, _, report)]] = train_two_stage([(scenes, two_stage_config(budget=16), [CE])])
        assert 0.0 < report.proposal_recall <= 1.0
        assert set(report.per_class_proposal_recall) <= {0, 1, 2}
        assert report.stage1_curve and report.stage2_curve
        # Trained scorer does far better than chance (16/88 kept).
        assert report.proposal_recall > 0.5

    def test_determinism(self):
        scenes = tiny_scenes(seed=3)
        cfg = two_stage_config()
        [[(_, _, r1)]] = train_two_stage([(scenes, cfg, [CE])])
        [[(_, _, r2)]] = train_two_stage([(scenes, cfg, [CE])])
        assert r1.proposal_recall == r2.proposal_recall
        assert r1.stage1_curve == r2.stage1_curve

    def test_config_validation(self):
        with pytest.raises(ValueError):
            two_stage_config(budget=0)
        with pytest.raises(ValueError):
            TwoStageConfig(
                stage1=flat_config(), proposal_budget=1, stage2=flat_config(),
                stage2_loss=CE, fg_bg_ratio=0.0,
            )


def assert_trained_equal(got, want):
    """Two lists of (model, curve), one per loss, equal bit for bit."""
    for (model, curve), (ref, ref_curve) in zip(got, want, strict=True):
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.biases, ref.biases)
        assert curve == ref_curve


# One lockstep stream: data (an index into the example's datasets), losses, an
# undersample policy (none, zero-skip, or one that may empty epochs), batch size,
# fraction schedule, curve stride, epochs and seed.
CLASSIFIER_STREAM = st.tuples(
    st.integers(0, 2), st.lists(STEP_LOSSES, min_size=1, max_size=3),
    st.sampled_from([None, "zero", "thin"]), st.sampled_from([4, 6, 9]),
    st.tuples(st.floats(0.1, 0.9), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    st.integers(1, 7), st.integers(0, 4), st.integers(0, 2**16))


class TestStreamLockstep:
    """Streams trained in one call, stepping together wherever their batches
    have one row count, equal each stream trained alone, bit for bit; and a
    multi-seed experiment gives each seed's rows of its one-seed run.  CI
    runs this class under ``OPENBLAS_CORETYPE=Haswell`` too."""

    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(CLASSIFIER_STREAM, min_size=1, max_size=5),
           counts=st.lists(st.lists(st.integers(1, 12), min_size=3, max_size=3),
                           min_size=3, max_size=3),
           data_seed=st.integers(0, 2**16))
    def test_classifier_streams_equal_solo_calls(self, streams, counts, data_seed):
        # Three datasets of different seeds and sizes; the last has other
        # feature and class counts, so its streams step apart.
        datasets = [generate_synthetic(SynthDatasetSpec(
            class_counts=c + [3] * (i == 2), feature_dim=3 + (i == 2), label_noise_rate=0.1,
            seed=data_seed + i)) for i, c in enumerate(counts)]
        calls = []
        for data_at, losses, policy, batch, (frac, lr, late), stride, epochs, seed in streams:
            data = datasets[data_at]
            skip = {None: {}, "zero": {0: 0.0, 1: 0.0}, "thin": {0: 0.9, 1: 0.6, 2: 0.9}}[policy]
            expected = sum(n * (1 - skip.get(c, 0.0)) for c, n in enumerate(np.bincount(data.y)))
            train = Train(epochs, batch, [[frac, lr], [1.0, late]], "fraction")
            calls.append((data, train.config(
                seed, expected, stride,
                UndersamplePolicy(skip, seed=seed + 1) if policy else None), losses))
        solo = []
        for call in calls:
            try:
                [trained] = train_classifier([call])
            except ValueError as exc:
                assert "no training iteration" in str(exc)  # every epoch emptied
                with pytest.raises(ValueError, match="no training iteration"):
                    train_classifier(calls)
                return
            solo.append(trained)
        for got, want in zip(train_classifier(calls), solo, strict=True):
            assert_trained_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(streams=st.lists(st.tuples(
        st.integers(0, 2), st.lists(STEP_LOSSES, min_size=1, max_size=3),
        st.sampled_from([8, 13]), st.sampled_from([0.5, 0.25]), st.integers(1, 30),
        st.integers(1, 9), st.integers(0, 3), st.integers(0, 2**16)), min_size=1, max_size=5))
    def test_objectness_streams_equal_solo_calls(self, streams):
        # Stage-1 batches all have max(batch, 2) rows; fg_bg_ratio sets how
        # many are foreground, so some equal-sized batches carry other signs.
        pools = [tiny_scenes(seed=s, noise=0.05) for s in range(3)]
        calls = [(pools[at].X, pools[at].is_object.astype(np.int64),
                  TrainConfig(epochs, batch, ((t, 0.3), (10**9, 0.05)), weight_init_seed=seed,
                              curve_stride=stride), losses, ratio)
                 for at, losses, batch, ratio, t, stride, epochs, seed in streams]
        for got, call in zip(train_objectness(calls), calls, strict=True):
            assert_trained_equal(got, train_objectness([call])[0])

    def test_a_middle_stream_ending_first_leaves_the_others_adjacent(self):
        # Three streams step as one group until the middle one runs out; its
        # rows then leave the parameter buffer, so the first and last stream
        # step as one group on adjacent rows.
        data = generate_synthetic(SynthDatasetSpec(class_counts=[20, 12, 8], feature_dim=3,
                                                   label_noise_rate=0.1, seed=4))
        pool = tiny_scenes(seed=1, noise=0.05)
        cfgs = [TrainConfig(epochs, 8, ((5, 0.3), (10**9, 0.05)), weight_init_seed=seed,
                            curve_stride=3) for epochs, seed in ((4, 1), (1, 2), (3, 3))]
        losses = [[CE, FL2], [RFL_HALF], [FL2, CE]]
        for trainer, calls in (
                (train_classifier, [(data, cfg, arms) for cfg, arms in zip(cfgs, losses)]),
                (train_objectness, [(pool.X, pool.is_object.astype(np.int64), cfg, arms, 0.5)
                                    for cfg, arms in zip(cfgs, losses)])):
            for got, call in zip(trainer(calls), calls, strict=True):
                assert_trained_equal(got, trainer([call])[0])

    def test_no_plan_keeps_a_buffer_a_stream_left(self, monkeypatch):
        # The three streams above: when the middle one runs out, its rows
        # leave the parameter buffer and new parameter and gradient buffers
        # take the others' runs.  At every step, each compiled step still
        # alive (cached by a plan) must view the buffers that step uses.
        data = generate_synthetic(SynthDatasetSpec(class_counts=[20, 12, 8], feature_dim=3,
                                                   label_noise_rate=0.1, seed=4))
        pool = tiny_scenes(seed=1, noise=0.05)
        cfgs = [TrainConfig(epochs, 8, ((5, 0.3), (10**9, 0.05)), weight_init_seed=seed,
                            curve_stride=3) for epochs, seed in ((4, 1), (1, 2), (3, 3))]
        losses = [[CE, FL2], [RFL_HALF], [FL2, CE]]
        compiled, buffers = [], set()

        def checked_compile(W, b, grad, *args):
            run = _compile(W, b, grad, *args)

            def checked(X, target):
                P, G = W.base, grad.base
                buffers.add(id(P))
                for alive, W_, b_, grad_ in compiled:
                    if alive() is not None:
                        assert np.shares_memory(W_, P) and np.shares_memory(b_, P)
                        assert np.shares_memory(grad_[:, :, :-1], G)
                        assert np.shares_memory(grad_[:, :, -1], G)
                return run(X, target)
            compiled.append((weakref.ref(checked), W, b, grad))
            return checked

        monkeypatch.setattr("rfl_lab.train._compile", checked_compile)
        for trainer, calls in (
                (train_classifier, [(data, cfg, arms) for cfg, arms in zip(cfgs, losses)]),
                (train_objectness, [(pool.X, pool.is_object.astype(np.int64), cfg, arms, 0.5)
                                    for cfg, arms in zip(cfgs, losses)])):
            buffers.clear()
            trained = trainer(calls)
            assert len(buffers) == 3  # three streams, then two, then one
            for got, call in zip(trained, calls, strict=True):
                assert_trained_equal(got, trainer([call])[0])

    @pytest.mark.parametrize("trainer", ["classifier", "objectness"])
    def test_equal_batches_of_streams_apart_equal_solo_calls(self, trainer):
        # Batches of 8, 13 and 8 rows: the first and last stream's batches
        # have one row count but the middle stream sits between them, so each
        # steps in a group of its own.  The first stream runs out, then the
        # middle one, and the last steps alone at the end.
        cfgs = [TrainConfig(epochs, batch, ((7, 0.3), (10**9, 0.05)), weight_init_seed=seed,
                            curve_stride=3)
                for epochs, batch, seed in ((2, 8, 1), (4, 13, 2), (5, 8, 3))]
        losses = [[CE, FL2], [RFL_HALF], [FL2, CE]]
        if trainer == "classifier":  # 40 rows: 5 batches of 8 an epoch, or 13, 13, 13 and 1
            data = generate_synthetic(SynthDatasetSpec(class_counts=[20, 12, 8], feature_dim=3,
                                                       label_noise_rate=0.1, seed=5))
            train, calls = train_classifier, [(data, cfg, arms) for cfg, arms in zip(cfgs, losses)]
        else:  # 528 candidates: 66 batches of 8 an epoch, or 41 of 13
            pool = tiny_scenes(seed=2, noise=0.05)
            train, calls = train_objectness, [(pool.X, pool.is_object.astype(np.int64), cfg, arms,
                                               0.5) for cfg, arms in zip(cfgs, losses)]
        for got, call in zip(train(calls), calls, strict=True):
            assert_trained_equal(got, train([call])[0])

    def test_two_stage_streams_equal_solo_calls(self):
        calls = [(tiny_scenes(seed=s, noise=0.05), two_stage_config(epochs=e), losses)
                 for s, e, losses in ((1, 3, [CE, FL2]), (2, 2, [FL2]), (3, 3, [CE]))]
        for got, call in zip(train_two_stage(calls), calls, strict=True):
            for (scorer, classifier, report), (s_ref, c_ref, r_ref) in zip(
                    got, train_two_stage([call])[0], strict=True):
                assert report == r_ref
                for model, ref in ((scorer, s_ref), (classifier, c_ref)):
                    assert np.array_equal(model.weights, ref.weights)
                    assert np.array_equal(model.biases, ref.biases)

    @pytest.mark.parametrize("name", ["longtail", "two_stage"])
    def test_experiment_seeds_equal_one_seed_runs(self, name):
        config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        config.update(seeds=[1, 2, 3], loss_curve_stride=7)
        config["train"]["epochs"] = 3
        if name == "two_stage":
            config["two_stage"]["stage2"]["epochs"] = 2
        together = run_experiment(config)
        for i, seed in enumerate(config["seeds"]):
            alone = run_experiment(dict(config, seeds=[seed]))
            for arm, rows in together["arms"].items():
                assert (json.dumps(rows["per_seed"][i], sort_keys=True)
                        == json.dumps(alone["arms"][arm]["per_seed"][0], sort_keys=True))
