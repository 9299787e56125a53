"""Sampling tests: undersampling contracts, generator determinism, CSV io."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.sampling import (
    LabeledExample,
    SceneSetSpec,
    SynthDatasetSpec,
    UndersamplePolicy,
    class_frequencies,
    class_means,
    generate_scenes,
    generate_synthetic,
    read_dataset_csv,
    undersample,
    undersample_mask,
    write_dataset_csv,
)


def toy_examples(counts, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for cls, n in counts.items():
        for _ in range(n):
            out.append(LabeledExample(rng.normal(size=3), cls))
    return out


class TestUndersample:
    def test_certain_removal(self):
        data = toy_examples({0: 50, 1: 50})
        kept = undersample(data, UndersamplePolicy({0: 1.0}, seed=3))
        assert class_frequencies(kept) == {1: 50}

    def test_empty_policy_is_identity(self):
        data = toy_examples({0: 10, 2: 5})
        assert undersample(data, UndersamplePolicy({}, seed=1)) == data

    def test_zero_probs_are_identity(self):
        data = toy_examples({0: 10, 2: 5})
        kept = undersample(data, UndersamplePolicy({0: 0.0, 2: 0.0}, seed=1))
        assert kept == data

    def test_binomial_interval(self):
        # 10,000 draws at keep prob 0.2: central 99.9% binomial interval
        # is mean 2000 +/- 3.2905 * sqrt(10000*0.2*0.8) = [1868, 2132].
        data = toy_examples({7: 10_000})
        kept = undersample(data, UndersamplePolicy({7: 0.8}, seed=11))
        assert 1868 <= len(kept) <= 2132

    def test_order_and_objects_preserved(self):
        data = toy_examples({0: 200, 1: 200}, seed=5)
        kept = undersample(data, UndersamplePolicy({0: 0.5}, seed=9))
        # Kept examples are the original objects, in original relative order.
        index_of = {id(ex): i for i, ex in enumerate(data)}
        positions = [index_of[id(ex)] for ex in kept]
        assert positions == sorted(positions)

    def test_deterministic(self):
        data = toy_examples({0: 500}, seed=2)
        pol = UndersamplePolicy({0: 0.3}, seed=42)
        assert undersample(data, pol) == undersample(data, pol)

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
        data = [LabeledExample(np.zeros(1), lab) for lab in labels]
        assert undersample(data, policy) == [data[i] for i in want]


class TestClassFrequencies:
    def test_empty(self):
        assert class_frequencies([]) == {}

    def test_direct_count(self):
        data = toy_examples({0: 3, 5: 1})
        assert class_frequencies(data) == {0: 3, 5: 1}

    def test_generated_counts_before_noise(self):
        spec = SynthDatasetSpec(class_counts=[1000, 10], feature_dim=4, seed=1)
        assert class_frequencies(generate_synthetic(spec)) == {0: 1000, 1: 10}


class TestGenerateSynthetic:
    def test_noise_free_flags(self):
        spec = SynthDatasetSpec(class_counts=[40, 40], feature_dim=2, seed=0)
        assert all(not ex.noisy for ex in generate_synthetic(spec))

    def test_exact_noise_count(self):
        spec = SynthDatasetSpec(
            class_counts=[100, 100], feature_dim=2, label_noise_rate=0.05, seed=0
        )
        data = generate_synthetic(spec)
        noisy = [ex for ex in data if ex.noisy]
        assert len(noisy) == 10  # floor(200 * 0.05)

    def test_noisy_labels_differ_from_block_class(self):
        spec = SynthDatasetSpec(
            class_counts=[100, 100, 100], feature_dim=2, label_noise_rate=0.1, seed=3
        )
        data = generate_synthetic(spec)
        # Examples are emitted in class blocks, so the original label of
        # index i is i // 100.
        for i, ex in enumerate(data):
            if ex.noisy:
                assert ex.label != i // 100
            else:
                assert ex.label == i // 100

    def test_bitwise_determinism(self):
        spec = SynthDatasetSpec(
            class_counts=[50, 20, 5], feature_dim=3, label_noise_rate=0.1, seed=77
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.features, eb.features)
            assert (ea.label, ea.noisy) == (eb.label, eb.noisy)

    @pytest.mark.parametrize("num_classes,dim", [(2, 1), (10, 2), (10, 6), (27, 3)])
    def test_mean_separation(self, num_classes, dim):
        sep = 2.5
        means = class_means(num_classes, dim, sep)
        for i in range(num_classes):
            for j in range(i + 1, num_classes):
                assert np.linalg.norm(means[i] - means[j]) >= sep

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
        assert len(back) == len(data)
        for ea, eb in zip(data, back):
            assert np.array_equal(ea.features, eb.features)
            assert (ea.label, ea.noisy) == (eb.label, eb.noisy)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(toy_examples({0: 1}), path)
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


class TestGenerateScenes:
    def test_counts_and_determinism(self):
        spec = SceneSetSpec(
            num_scenes=4, fg_per_scene=10, bg_per_scene=500, num_classes=5,
            feature_dim=3, seed=1,
        )
        scenes = generate_scenes(spec)
        assert len(scenes) == 4
        for sc in scenes:
            assert len(sc.candidates) == 510
            assert sum(c.is_object for c in sc.candidates) == 10
        again = generate_scenes(spec)
        for a, b in zip(scenes, again):
            for ca, cb in zip(a.candidates, b.candidates):
                assert np.array_equal(ca.features, cb.features)
                assert (ca.is_object, ca.class_id, ca.noisy) == (
                    cb.is_object, cb.class_id, cb.noisy)

    def test_objectness_noise_flips(self):
        spec = SceneSetSpec(
            num_scenes=2, fg_per_scene=20, bg_per_scene=80, num_classes=3,
            feature_dim=2, objectness_noise_rate=0.1, seed=2,
        )
        for sc in generate_scenes(spec):
            assert sum(c.noisy for c in sc.candidates) == 10  # floor(100 * 0.1)
            for c in sc.candidates:
                if c.is_object:
                    assert 0 <= c.class_id < 3
                else:
                    assert c.class_id == -1
                if c.noisy:
                    # Flips invert observed objectness but keep the truth.
                    assert c.is_true_object != c.is_object
                else:
                    assert c.is_true_object == c.is_object
                    if c.is_object:
                        assert c.true_class == c.class_id
