"""Sampling tests: undersampling contracts, generator determinism, CSV io."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfl_lab.sampling import (
    Dataset,
    SceneSetSpec,
    SynthDatasetSpec,
    UndersamplePolicy,
    class_means,
    generate_scenes,
    generate_synthetic,
    read_dataset_csv,
    undersample_mask,
    write_dataset_csv,
)


def toy_labels(counts):
    return np.concatenate([np.full(n, cls, dtype=np.int64) for cls, n in counts.items()])


def toy_dataset(counts, seed=0):
    y = toy_labels(counts)
    X = np.random.default_rng(seed).normal(size=(len(y), 3))
    return Dataset(X, y, np.zeros(len(y), dtype=bool))


class TestUndersample:
    def test_certain_removal(self):
        labels = toy_labels({0: 50, 1: 50})
        keep = undersample_mask(labels, UndersamplePolicy({0: 1.0}, seed=3))
        assert np.bincount(labels[keep]).tolist() == [0, 50]

    def test_empty_policy_is_identity(self):
        labels = toy_labels({0: 10, 2: 5})
        assert undersample_mask(labels, UndersamplePolicy({}, seed=1)).all()

    def test_zero_probs_are_identity(self):
        labels = toy_labels({0: 10, 2: 5})
        assert undersample_mask(labels, UndersamplePolicy({0: 0.0, 2: 0.0}, seed=1)).all()

    def test_binomial_interval(self):
        # 10,000 draws at keep prob 0.2: central 99.9% binomial interval
        # is mean 2000 +/- 3.2905 * sqrt(10000*0.2*0.8) = [1868, 2132].
        labels = toy_labels({7: 10_000})
        keep = undersample_mask(labels, UndersamplePolicy({7: 0.8}, seed=11))
        assert 1868 <= np.count_nonzero(keep) <= 2132

    def test_deterministic(self):
        labels = toy_labels({0: 500})
        pol = UndersamplePolicy({0: 0.3}, seed=42)
        assert np.array_equal(undersample_mask(labels, pol), undersample_mask(labels, pol))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            UndersamplePolicy({0: 1.5})

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(-2, 5), max_size=60),
        skip=st.dictionaries(
            st.integers(-3, 7),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            max_size=5,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_mask_selects_what_the_list_filter_selects(self, labels, skip, seed):
        # The per-example list filter: one draw per example, in input order.
        u = np.random.default_rng(seed).random(len(labels))
        want = [i for i, (lab, ui) in enumerate(zip(labels, u))
                if not skip or ui >= skip.get(lab, 0.0)]
        policy = UndersamplePolicy(skip, seed=seed)
        mask = undersample_mask(np.array(labels, dtype=np.int64), policy)
        assert mask.dtype == bool and np.flatnonzero(mask).tolist() == want


class TestClassFrequencies:
    """Per-class counts are ``np.bincount`` of the label array."""

    def test_generated_counts_before_noise(self):
        spec = SynthDatasetSpec(class_counts=[1000, 10], feature_dim=4, seed=1)
        assert np.bincount(generate_synthetic(spec).y).tolist() == [1000, 10]


class TestGenerateSynthetic:
    def test_noise_free_flags(self):
        spec = SynthDatasetSpec(class_counts=[40, 40], feature_dim=2, seed=0)
        assert not generate_synthetic(spec).noisy.any()

    def test_exact_noise_count(self):
        spec = SynthDatasetSpec(
            class_counts=[100, 100], feature_dim=2, label_noise_rate=0.05, seed=0
        )
        assert np.count_nonzero(generate_synthetic(spec).noisy) == 10  # floor(200 * 0.05)

    def test_noisy_labels_differ_from_block_class(self):
        spec = SynthDatasetSpec(
            class_counts=[100, 100, 100], feature_dim=2, label_noise_rate=0.1, seed=3
        )
        data = generate_synthetic(spec)
        # Examples are emitted in class blocks, so the original label of
        # index i is i // 100.
        block = np.arange(300) // 100
        assert np.all((data.y != block) == data.noisy)

    def test_bitwise_determinism(self):
        spec = SynthDatasetSpec(
            class_counts=[50, 20, 5], feature_dim=3, label_noise_rate=0.1, seed=77
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("num_classes,dim", [(2, 1), (10, 2), (10, 6), (27, 3)])
    def test_mean_separation(self, num_classes, dim):
        sep = 2.5
        means = class_means(num_classes, dim, sep)
        for i in range(num_classes):
            for j in range(i + 1, num_classes):
                assert np.linalg.norm(means[i] - means[j]) >= sep

    @pytest.mark.parametrize("num_classes,dim", [(1, 1), (1, 4), (2, 1), (10, 2), (10, 6),
                                                 (27, 3), (28, 3), (300, 2), (5, 70)])
    def test_means_are_the_lattice_digits(self, num_classes, dim):
        side = max(2, math.ceil(num_classes ** (1.0 / dim)))
        while side**dim < num_classes:
            side += 1
        digits = [[c // side**d % side for d in range(dim)] for c in range(num_classes)]
        want = np.array(digits, dtype=np.float64).reshape(num_classes, dim) * 1.7
        assert np.array_equal(class_means(num_classes, dim, 1.7), want)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthDatasetSpec(class_counts=[10], feature_dim=0)
        with pytest.raises(ValueError):
            SynthDatasetSpec(class_counts=[], feature_dim=2)
        with pytest.raises(ValueError):
            SynthDatasetSpec(class_counts=[10, 10], feature_dim=2, label_noise_rate=1.0)
        with pytest.raises(ValueError):
            SynthDatasetSpec(class_counts=[10], feature_dim=2, label_noise_rate=0.5)


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        spec = SynthDatasetSpec(
            class_counts=[30, 10], feature_dim=5, label_noise_rate=0.1, seed=4
        )
        data = generate_synthetic(spec)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert len(back.y) == len(data.y)
        for field, want in zip(back, data):
            assert field.dtype == want.dtype and np.array_equal(field, want)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(toy_dataset({0: 1}), path)
        header = path.read_text().splitlines()[0]
        assert header == "feature_0,feature_1,feature_2,label,noisy"

    def test_byte_identical_rewrites(self, tmp_path):
        data = generate_synthetic(
            SynthDatasetSpec(class_counts=[20], feature_dim=3, seed=9)
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(data, p1)
        write_dataset_csv(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "header"),
        ("x,y\n1,2\n", 1, "header"),
        ("feature_0,label,noisy\n1.5,0,0\n2.5,1\n", 3, "expected 3 fields"),
        ("feature_0,label,noisy\nabc,0,0\n", 2, "finite numbers"),
        ("feature_0,label,noisy\ninf,0,0\n", 2, "finite"),
        ("feature_0,label,noisy\n1.0,-1,0\n", 2, "non-negative integer"),
        ("feature_0,label,noisy\n1.0,1.0,0\n", 2, "non-negative integer"),
        ("feature_0,label,noisy\n1.0,1,2\n", 2, "noisy 0 or 1"),
        ("feature_0,label,noisy\n", None, "no data rows"),
    ])
    def test_malformed_rejected_with_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_dataset_csv(path)
        if line is not None:
            assert f"line {line}:" in str(info.value)


class TestGenerateScenes:
    def test_counts_and_determinism(self):
        spec = SceneSetSpec(
            num_scenes=4, fg_per_scene=10, bg_per_scene=500, num_classes=5,
            feature_dim=3, seed=1,
        )
        scenes = generate_scenes(spec)
        assert scenes.per_scene == 510 and scenes.X.shape == (4 * 510, 3)
        assert np.count_nonzero(scenes.is_object.reshape(4, 510), axis=1).tolist() == [10] * 4
        again = generate_scenes(spec)
        for a, b in zip(scenes, again):
            assert np.array_equal(a, b)

    def test_objectness_noise_flips(self):
        spec = SceneSetSpec(
            num_scenes=2, fg_per_scene=20, bg_per_scene=80, num_classes=3,
            feature_dim=2, objectness_noise_rate=0.1, seed=2,
        )
        sc = generate_scenes(spec)
        assert np.count_nonzero(sc.noisy.reshape(2, 100), axis=1).tolist() == [10, 10]
        obj, cls, true = sc.is_object, sc.class_id, sc.true_class
        assert np.all((0 <= cls[obj]) & (cls[obj] < 3)) and np.all(cls[~obj] == -1)
        # Flips invert observed objectness but keep the truth.
        assert np.array_equal((true >= 0) != obj, sc.noisy)
        assert np.array_equal(true[obj & ~sc.noisy], cls[obj & ~sc.noisy])


# ---------------------------------------------------------------------------
# The per-example generator loops the array generators replaced, kept as
# references: same draws in the same order, one example at a time.
# ---------------------------------------------------------------------------


def reference_generate_synthetic(spec):
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes, spec.feature_dim, spec.cluster_separation)
    rows = []  # [features, label, noisy]
    for c, count in enumerate(spec.class_counts):
        feats = means[c] + rng.standard_normal((count, spec.feature_dim))
        rows.extend([f, c, False] for f in feats)
    n_noisy = int(len(rows) * spec.label_noise_rate)
    if n_noisy:
        for idx in rng.choice(len(rows), size=n_noisy, replace=False):
            offset = rng.integers(1, spec.num_classes)
            rows[idx] = [rows[idx][0], int((rows[idx][1] + offset) % spec.num_classes), True]
    return [np.array([r[k] for r in rows]) for k in range(3)]


def reference_generate_scenes(spec):
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec.num_classes + 1, spec.feature_dim, spec.separation)
    fg_means = means[1:]
    weights = 1.0 / (1.0 + np.arange(spec.num_classes))
    weights /= weights.sum()
    rows = []  # [features, is_object, class_id, true_class, noisy]
    for _ in range(spec.num_scenes):
        cands = []
        for c in rng.choice(spec.num_classes, size=spec.fg_per_scene, p=weights):
            f = fg_means[c] + rng.standard_normal(spec.feature_dim)
            cands.append([f, True, int(c), int(c), False])
        bg = rng.standard_normal((spec.bg_per_scene, spec.feature_dim))
        cands.extend([f, False, -1, -1, False] for f in bg)
        n_flip = int(len(cands) * spec.objectness_noise_rate)
        if n_flip:
            for idx in rng.choice(len(cands), size=n_flip, replace=False):
                f, is_object, _, true_class, _ = cands[idx]
                if is_object:
                    cands[idx] = [f, False, -1, true_class, True]
                else:
                    cands[idx] = [f, True, int(rng.integers(spec.num_classes)), -1, True]
        rows.extend(cands)
    return [np.array([r[k] for r in rows]) for k in range(5)]


class TestGeneratorsMatchReference:
    """The array generators equal the per-example loops bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        dim=st.integers(1, 4),
        separation=st.floats(0.5, 5.0),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        seed=st.integers(0, 2**32),
    )
    @example(counts=[40, 7, 3], dim=2, separation=3.0, noise=0.0, seed=5)
    @example(counts=[40, 7, 3], dim=3, separation=3.0, noise=0.25, seed=6)
    def test_synthetic(self, counts, dim, separation, noise, seed):
        if len(counts) < 2:
            noise = 0.0
        spec = SynthDatasetSpec(counts, dim, separation, noise, seed)
        data = generate_synthetic(spec)
        X, y, noisy = reference_generate_synthetic(spec)
        assert np.array_equal(data.X, X)
        assert np.array_equal(data.y, y) and np.array_equal(data.noisy, noisy)

    @settings(max_examples=60, deadline=None)
    @given(
        num_scenes=st.integers(1, 4),
        fg=st.integers(1, 6),
        bg=st.integers(1, 25),
        num_classes=st.integers(1, 4),
        dim=st.integers(1, 3),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        seed=st.integers(0, 2**32),
    )
    @example(num_scenes=3, fg=4, bg=20, num_classes=3, dim=2, noise=0.0, seed=1)
    @example(num_scenes=3, fg=4, bg=20, num_classes=3, dim=2, noise=0.04, seed=2)
    @example(num_scenes=3, fg=4, bg=20, num_classes=1, dim=2, noise=0.3, seed=3)
    def test_scenes(self, num_scenes, fg, bg, num_classes, dim, noise, seed):
        spec = SceneSetSpec(num_scenes, fg, bg, num_classes, dim, 2.0, noise, seed)
        sc = generate_scenes(spec)
        X, is_object, class_id, true_class, noisy = reference_generate_scenes(spec)
        assert sc.per_scene == fg + bg
        assert np.array_equal(sc.X, X)
        assert np.array_equal(sc.is_object, is_object)
        assert np.array_equal(sc.class_id, class_id)
        assert np.array_equal(sc.true_class, true_class)
        assert np.array_equal(sc.noisy, noisy)
