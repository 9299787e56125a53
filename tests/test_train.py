"""Trainer tests: schedules, convergence, determinism, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.losses import (
    LossKind,
    LossParams,
    binary_loss_and_grad,
    loss_and_dpt,
    softmax_loss_and_grad,
)
from rfl_lab.sampling import (
    Dataset,
    SceneSetSpec,
    SynthDatasetSpec,
    UndersamplePolicy,
    generate_scenes,
    generate_synthetic,
)
from rfl_lab.train import (
    BinaryModel,
    LinearModel,
    TrainConfig,
    TwoStageConfig,
    binary_step,
    evaluate_classifier,
    init_model,
    lr_at,
    softmax_step,
    top_k_indices,
    train_classifier,
    train_objectness,
    train_two_stage,
)

CE = LossParams(kind=LossKind.CE)
FL2 = LossParams(kind=LossKind.FL, gamma=2.0)
RFL_HALF = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.5)

FLAT = ((10**9, 0.5),)


def flat_config(loss=CE, epochs=50, batch=20, seed=0, undersample=None, lr=0.5):
    return TrainConfig(
        loss=loss, epochs=epochs, batch_size=batch,
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
            TrainConfig(CE, 1, 1, ((100, 0.1), (100, 0.2)))
        with pytest.raises(ValueError):
            TrainConfig(CE, 1, 1, ((100, -0.1),))
        with pytest.raises(ValueError):
            TrainConfig(CE, 1, 1, ())


class TestBatchTwins:
    """The vectorized batch paths must reproduce the scalar composites."""

    def test_softmax_step_matches_scalar(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        model = init_model(3, 4, seed=5)
        for params in (CE, FL2, RFL_HALF,
                       LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25)):
            (losses,), (dW,), (db,) = softmax_step(X, y, model.weights[None],
                                                   model.biases[None], [params])
            z = model.scores(X)
            gsum = np.zeros_like(model.weights)
            bsum = np.zeros_like(model.biases)
            for i in range(len(y)):
                li, gi = softmax_loss_and_grad(z[i], int(y[i]), params)
                assert losses[i] == li
                gsum += np.outer(gi, X[i])
                bsum += gi
            np.testing.assert_allclose(dW, gsum / len(y), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(db, bsum / len(y), rtol=1e-12, atol=1e-15)

    def test_binary_step_matches_scalar(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        w = rng.normal(size=3) * 0.1
        b = 0.3
        for params in (CE, FL2, RFL_HALF):
            (losses,), (dw,), (db,) = binary_step(X, signs(y), w[None], np.array([b]), [params])
            z = X @ w + b
            gz = np.zeros(len(y))
            for i in range(len(y)):
                li, gi = binary_loss_and_grad(float(z[i]), int(y[i]), params)
                assert losses[i] == li
                gz[i] = gi
            np.testing.assert_allclose(dw, gz @ X / len(y), rtol=1e-12, atol=1e-15)
            assert db == gz.mean()


def signs(y):
    """+1 for label 1, -1 for label 0: the labels as :func:`binary_step` takes them."""
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
        model, curve = train_classifier(data, flat_config(epochs=50, batch=20))
        assert len(curve) == 50 * 10  # 500 iterations
        assert evaluate_classifier(model, data).accuracy >= 0.99

    def test_loss_decreases(self):
        data = separable_two_class()
        _, curve = train_classifier(data, flat_config())
        assert curve[-1] < curve[0]

    def test_zero_epochs_returns_init(self):
        data = separable_two_class()
        model, curve = train_classifier(data, flat_config(epochs=0, seed=3))
        ref = init_model(2, 2, seed=3)
        assert curve == []
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.biases, ref.biases)

    def test_deterministic(self):
        data = separable_two_class()
        cfg = flat_config(loss=RFL_HALF, seed=9)
        m1, c1 = train_classifier(data, cfg)
        m2, c2 = train_classifier(data, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    def test_rfl_threshold_one_is_bitwise_ce(self):
        data = separable_two_class()
        rfl_one = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0)
        m_ce, c_ce = train_classifier(data, flat_config(loss=CE, seed=4))
        m_rfl, c_rfl = train_classifier(data, flat_config(loss=rfl_one, seed=4))
        assert np.array_equal(m_ce.weights, m_rfl.weights)
        assert np.array_equal(m_ce.biases, m_rfl.biases)
        assert c_ce == c_rfl

    def test_zero_skip_undersample_is_bitwise_noop(self):
        data = separable_two_class()
        pol = UndersamplePolicy({0: 0.0, 1: 0.0}, seed=77)
        m_plain, c_plain = train_classifier(data, flat_config(seed=6))
        m_us, c_us = train_classifier(data, flat_config(seed=6, undersample=pol))
        assert np.array_equal(m_plain.weights, m_us.weights)
        assert c_plain == c_us

    def test_undersampling_reduces_class_presence(self):
        spec = SynthDatasetSpec(class_counts=[900, 100], feature_dim=3,
                                cluster_separation=3.0, seed=2)
        data = generate_synthetic(spec)
        pol = UndersamplePolicy({0: 0.9}, seed=5)
        m, _ = train_classifier(data, flat_config(epochs=20, undersample=pol))
        ev = evaluate_classifier(m, data)
        assert ev.per_class_recall[1] > 0.5

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(dataset(np.zeros((0, 2)), []), flat_config())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(dataset(np.zeros((2, 2)), [0, 1, 1]), flat_config())

    def test_undersampling_every_epoch_empty_rejected(self):
        data = separable_two_class()
        pol = UndersamplePolicy({0: 1.0, 1: 1.0}, seed=2)
        with pytest.raises(ValueError, match="no training iteration"):
            train_classifier(data, flat_config(epochs=3, undersample=pol))
        _, curve = train_classifier(data, flat_config(epochs=0, undersample=pol))
        assert curve == []


LOCKSTEP_ARMS = (CE, FL2, LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25),
                 LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0))


class TestLockstep:
    """Runs trained together equal the same runs trained alone, bit for bit."""

    @pytest.mark.parametrize("policy", [None, UndersamplePolicy({0: 0.8, 1: 0.3}, seed=4)])
    def test_classifier_runs_equal_solo_runs(self, policy):
        data = generate_synthetic(SynthDatasetSpec(
            class_counts=[300, 80, 20], feature_dim=5, label_noise_rate=0.05, seed=8))
        configs = [
            TrainConfig(loss, 5, 16, ((40, 0.5), (10**9, 0.05 * (k + 1))),
                        weight_init_seed=3, undersample=policy)
            for k, loss in enumerate(LOCKSTEP_ARMS)
        ]
        together = train_classifier(data, configs)
        assert len(together) == len(configs)
        for cfg, (model, curve) in zip(configs, together):
            solo, solo_curve = train_classifier(data, cfg)
            assert np.array_equal(model.weights, solo.weights)
            assert np.array_equal(model.biases, solo.biases)
            assert curve == solo_curve

    def test_objectness_runs_equal_solo_runs(self):
        scenes = tiny_scenes(noise=0.05)
        X, y = scenes.X, scenes.is_object.astype(np.int64)
        configs = [TrainConfig(CE, 3, 32, ((10**9, 0.3),), weight_init_seed=1),
                   TrainConfig(FL2, 3, 32, ((20, 0.3), (10**9, 0.1)), weight_init_seed=1)]
        together = train_objectness(X, y, configs, 0.5)
        for cfg, (model, curve) in zip(configs, together):
            solo, solo_curve = train_objectness(X, y, cfg, 0.5)
            assert np.array_equal(model.weights, solo.weights)
            assert model.bias == solo.bias
            assert curve == solo_curve

    def test_two_stage_reports_equal_solo_reports(self):
        scenes = tiny_scenes(seed=2, noise=0.05)
        configs = [two_stage_config(loss=CE), two_stage_config(loss=FL2)]
        together = train_two_stage(scenes, configs)
        for cfg, (_, _, report) in zip(configs, together):
            assert report == train_two_stage(scenes, cfg)[2]

    @pytest.mark.parametrize("n_fg, batch", [(3, 32), (40, 1)])
    def test_objectness_edge_batches_equal_solo_and_reference(self, n_fg, batch):
        # 3 foreground rows for a quota of 11 draws with replacement;
        # batch 1 still draws one row of each stratum.
        rng = np.random.default_rng(n_fg)
        X = rng.normal(size=(200, 4))
        y = np.zeros(200, dtype=np.int64)
        y[rng.choice(200, size=n_fg, replace=False)] = 1
        configs = [TrainConfig(loss, 3, batch, ((7, 0.3), (10**9, 0.1)), weight_init_seed=5)
                   for loss in LOCKSTEP_ARMS]
        together = train_objectness(X, y, configs, 0.5)
        for cfg, (model, curve) in zip(configs, together):
            solo, solo_curve = train_objectness(X, y, cfg, 0.5)
            ref_w, ref_b, ref_curve = reference_objectness(X, y, cfg, 0.5)
            assert np.array_equal(model.weights, solo.weights)
            assert np.array_equal(model.weights, ref_w)
            assert model.bias == solo.bias == ref_b
            assert curve == solo_curve == ref_curve

    def test_runs_that_do_not_share_the_stream_rejected(self):
        data = separable_two_class()
        with pytest.raises(ValueError, match="weight_init_seed"):
            train_classifier(data, [flat_config(seed=1), flat_config(seed=2)])
        pol = UndersamplePolicy({0: 0.5}, seed=1)
        with pytest.raises(ValueError, match="undersample"):
            train_classifier(data, [flat_config(), flat_config(undersample=pol)])
        with pytest.raises(ValueError, match="stage2"):
            train_two_stage(tiny_scenes(), [two_stage_config(), two_stage_config(epochs=2)])


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


def reference_objectness(X, y, cfg, ratio):
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
        losses, dw, db = reference_binary_batch(X[idx], y[idx], w, b, cfg.loss)
        rate = lr_at(cfg.lr_schedule, it)
        w, b = w - rate * dw, b - rate * db
        curve.append(float(losses.mean()))
    return w, b, curve


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


STEP_LOSS_LIST = [
    CE, FL2, LossParams(kind=LossKind.FL, gamma=0.0),
    LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25),
    LossParams(kind=LossKind.RFL, gamma=0.0, threshold=0.5),
    LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0),
]
STEP_LOSSES = st.sampled_from(STEP_LOSS_LIST)


class TestCompositesAreStepRows:
    """The one-sample composites are rows of the steps that train, bit for
    bit, for every loss in ``STEP_LOSS_LIST`` (one stacked model each).
    Identity features make model s's logits exactly its weights, and its
    weight gradient exactly its logit gradients over the batch size."""

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 40), C=st.integers(2, 11), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.1, 1000.0))
    def test_softmax_loss_and_grad(self, B, C, seed, scale):
        rng = np.random.default_rng(seed)
        S = len(STEP_LOSS_LIST)
        logits = rng.normal(size=(S, B, C)) * scale
        y = rng.integers(0, C, size=B)
        losses, dW, _ = softmax_step(np.eye(B), y, logits.transpose(0, 2, 1).copy(),
                                     np.zeros((S, C)), STEP_LOSS_LIST)
        for s, params in enumerate(STEP_LOSS_LIST):
            for i in range(B):
                loss, grad = softmax_loss_and_grad(logits[s, i], int(y[i]), params)
                assert loss == losses[s, i]
                assert np.array_equal(grad / B, dW[s, :, i])

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.1, 1000.0))
    def test_binary_loss_and_grad(self, B, seed, scale):
        rng = np.random.default_rng(seed)
        S = len(STEP_LOSS_LIST)
        logits = rng.normal(size=(S, B)) * scale
        y = rng.integers(0, 2, size=B)
        losses, dW, _ = binary_step(np.eye(B), signs(y), logits.copy(), np.zeros(S),
                                    STEP_LOSS_LIST)
        for a, params in enumerate(STEP_LOSS_LIST):
            for i in range(B):
                loss, grad = binary_loss_and_grad(float(logits[a, i]), int(y[i]), params)
                assert loss == losses[a, i]
                assert grad / B == dW[a, i]


class TestStackedSteps:
    """Each slice of a stacked step is bitwise the step of that model
    alone, and the trainers' curve reduce gives each row's mean."""

    @settings(max_examples=120, deadline=None)
    @given(B=st.integers(1, 130), d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           params=st.lists(STEP_LOSSES, min_size=1, max_size=4),
           scale=st.sampled_from([0.1, 1.0, 30.0]))
    def test_binary_step_slices(self, B, d, seed, params, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(B, d)) * scale
        y = rng.integers(0, 2, size=B)
        W = rng.normal(size=(len(params), d))
        b = rng.normal(size=len(params))
        losses, dW, db = binary_step(X, signs(y), W, b, params)
        rows = np.add.reduce(losses, axis=1) / B
        for a, loss in enumerate(params):
            solo = [out[0] for out in binary_step(X, signs(y), W[a:a + 1].copy(),
                                                  b[a:a + 1].copy(), [loss])]
            ref = reference_binary_batch(X, y, W[a], float(b[a]), loss)
            for got in (solo, ref):
                assert np.array_equal(losses[a], got[0])
                assert np.array_equal(dW[a], got[1])
                assert db[a] == got[2]
            assert rows[a] == float(losses[a].mean())

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 130), d=st.integers(1, 16), C=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1),
           params=st.lists(STEP_LOSSES, min_size=1, max_size=4))
    def test_softmax_step_slices(self, B, d, C, seed, params):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(B, d))
        y = rng.integers(0, C, size=B)
        W = rng.normal(size=(len(params), C, d))
        b = rng.normal(size=(len(params), C))
        losses, dW, db = softmax_step(X, y, W, b, params)
        rows = np.add.reduce(losses, axis=1) / B
        for s, loss in enumerate(params):
            solo = [out[0] for out in softmax_step(X, y, W[s:s + 1].copy(),
                                                   b[s:s + 1].copy(), [loss])]
            ref = reference_softmax_batch(X, y, W[s], b[s], loss)
            for got in (solo, ref):
                for mine, want in zip((losses[s], dW[s], db[s]), got):
                    assert np.array_equal(mine, want)
            assert rows[s] == float(losses[s].mean())


class TestEndToEndGradient:
    """Finite differences of each run's mean batch loss against the
    gradients of the stacked step that training runs."""

    @pytest.mark.parametrize("params", [[CE], [FL2], [RFL_HALF], [CE, FL2, RFL_HALF]])
    def test_full_model_gradient_matches_fd(self, params):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        runs = len(params)
        W = init_model(3, 4, seed=21).weights + rng.normal(size=(runs, 3, 4)) * 0.3
        b = rng.normal(size=(runs, 3)) * 0.1
        _, dW, db = softmax_step(X, y, W, b, params)
        h = 1e-6

        def loss_at(W, b):
            # One perturbation moves every run; each run's loss sees only its own.
            return np.array([row.mean() for row in softmax_step(X, y, W, b, params)[0]])

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
        model, _ = train_classifier(data, flat_config())
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


def two_stage_config(loss=CE, budget=20, epochs=8):
    stage = TrainConfig(loss, epochs, 32, ((10**9, 0.3),), weight_init_seed=1)
    stage2 = TrainConfig(CE, epochs, 32, ((10**9, 0.3),), weight_init_seed=2)
    return TwoStageConfig(stage1=stage, proposal_budget=budget, stage2=stage2,
                          fg_bg_ratio=0.5)


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
        _, _, report = train_two_stage(scenes, cfg)
        assert report.proposal_recall == 1.0
        assert all(v == 1.0 for v in report.per_class_proposal_recall.values())

    def test_perfect_scorer_with_wide_budget(self):
        scenes = tiny_scenes()
        # Hand-build a scorer that separates fg lattice clusters from bg at
        # the origin: score by distance from origin along the mean fg axis.
        direction = scenes.X[scenes.is_object].mean(axis=0)
        scorer = BinaryModel(direction, 0.0)
        P = scenes.per_scene
        kept = 0
        for s in range(len(scenes.X) // P):
            top = top_k_indices(scorer.scores(scenes.X[s * P:(s + 1) * P]), 40)
            kept += np.count_nonzero(scenes.is_object[s * P + top])
        assert kept / np.count_nonzero(scenes.is_object) >= 0.95

    @pytest.mark.parametrize("budget", [5, 20, 88, 100])
    def test_report_equals_scene_by_scene_count(self, budget):
        # The per-scene, per-candidate count the vectorised evaluation replaced.
        scenes = tiny_scenes(seed=4, noise=0.1)
        scorer, classifier, report = train_two_stage(scenes, two_stage_config(budget=budget))
        P = scenes.per_scene
        total, kept, retained = {}, {}, []
        for start in range(0, len(scenes.X), P):
            scores = scenes.X[start:start + P] @ scorer.weights + scorer.bias
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
        _, _, report = train_two_stage(scenes, two_stage_config(budget=16))
        assert 0.0 < report.proposal_recall <= 1.0
        assert set(report.per_class_proposal_recall) <= {0, 1, 2}
        assert report.stage1_curve and report.stage2_curve
        # Trained scorer does far better than chance (16/88 kept).
        assert report.proposal_recall > 0.5

    def test_determinism(self):
        scenes = tiny_scenes(seed=3)
        cfg = two_stage_config()
        _, _, r1 = train_two_stage(scenes, cfg)
        _, _, r2 = train_two_stage(scenes, cfg)
        assert r1.proposal_recall == r2.proposal_recall
        assert r1.stage1_curve == r2.stage1_curve

    def test_config_validation(self):
        with pytest.raises(ValueError):
            two_stage_config(budget=0)
        with pytest.raises(ValueError):
            TwoStageConfig(
                stage1=flat_config(), proposal_budget=1, stage2=flat_config(),
                fg_bg_ratio=0.0,
            )
