"""The experiment config checker, driven by single mutations of the shipped configs.

Each mutation changes one place of ``configs/longtail.json`` or
``configs/two_stage.json``.  The expected error path follows the JSON
Schema convention the checker keeps: a bad value (wrong type, out of
range, not finite) is reported at its own path, and a missing required
key or an unknown key at the path of the object that holds it.  The
tables below restate the config format independently of the checker.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab import experiment
from rfl_lab.experiment import (MAX_VALUES, ConfigError, Train, TwoStage, run_experiment,
                                 validate_config)
from rfl_lab.losses import LossKind, LossParams
from rfl_lab.sampling import Dataset, write_dataset_csv

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = {name: json.loads((ROOT / "configs" / f"{name}.json").read_text())
           for name in ("longtail", "two_stage")}

# Leaf rules by path pattern ("[]" stands for any index, "[*]" for any
# skip_prob key): a list of choices, "string", or (type, interval).
TRAIN_LEAVES = {
    "epochs": ("integer", "[0, inf)"),
    "batch_size": ("integer", "[1, inf)"),
    "lr_schedule[][]": ("number", "(0, inf)"),
    "schedule_units": ["iteration", "fraction"],
}
LEAVES = {
    "$.kind": ["classifier", "two_stage"],
    "$.seeds[]": ("integer", "[0, inf)"),
    "$.loss_curve_stride": ("integer", "[1, inf)"),
    "$.dataset.class_counts[]": ("integer", "[1, inf)"),
    "$.dataset.feature_dim": ("integer", "[1, inf)"),
    "$.dataset.cluster_separation": ("number", "(0, inf)"),
    "$.dataset.label_noise_rate": ("number", "[0, 1)"),
    "$.eval.per_class": ("integer", "[1, inf)"),
    "$.arms[].name": "string",
    "$.arms[].loss.kind": ["CE", "FL", "RFL"],
    "$.arms[].loss.gamma": ("number", "[0, inf)"),
    "$.arms[].loss.threshold": ("number", "(0, 1]"),
    "$.arms[].undersample.skip_prob[*]": ("number", "[0, 1]"),
    "$.scenes.num_scenes": ("integer", "[1, inf)"),
    "$.scenes.fg_per_scene": ("integer", "[1, inf)"),
    "$.scenes.bg_per_scene": ("integer", "[1, inf)"),
    "$.scenes.num_classes": ("integer", "[1, inf)"),
    "$.scenes.feature_dim": ("integer", "[1, inf)"),
    "$.scenes.separation": ("number", "(0, inf)"),
    "$.scenes.objectness_noise_rate": ("number", "[0, 1)"),
    "$.two_stage.proposal_budget": ("integer", "[1, inf)"),
    "$.two_stage.fg_bg_ratio": ("number", "(0, 1]"),
    **{f"{section}.{key}": rule for section in ("$.train", "$.two_stage.stage2")
       for key, rule in TRAIN_LEAVES.items()},
}
TRAIN_REQUIRED = {"epochs", "batch_size", "lr_schedule"}
REQUIRED = {
    "$": {"kind", "arms", "train"},
    "$.dataset": {"class_counts", "feature_dim"},  # a synthetic dataset needs both
    "$.train": TRAIN_REQUIRED,
    "$.two_stage.stage2": TRAIN_REQUIRED,
    "$.arms[]": {"name", "loss"},
    "$.arms[].loss": {"kind"},
    "$.arms[].undersample": {"skip_prob"},
    "$.scenes": {"num_scenes", "fg_per_scene", "bg_per_scene", "num_classes", "feature_dim"},
    "$.two_stage": {"proposal_budget", "stage2"},
}
# Required only by the experiment kind, or by an RFL loss: these name
# themselves, as the checks across sections always have.
SELF_NAMED = {"$.dataset", "$.scenes", "$.two_stage", "$.arms[].loss.threshold"}
KNOWN_KEYS = {  # every key the format has, anywhere
    "kind", "seeds", "loss_curve_stride", "dataset", "class_counts", "feature_dim",
    "cluster_separation", "label_noise_rate", "csv_path", "eval", "per_class", "train",
    "epochs", "batch_size", "lr_schedule", "schedule_units", "arms", "name", "loss", "gamma",
    "threshold", "undersample", "skip_prob", "scenes", "num_scenes", "fg_per_scene",
    "bg_per_scene", "num_classes", "separation", "objectness_noise_rate", "two_stage",
    "proposal_budget", "fg_bg_ratio", "stage2", "stage2_loss",
}


def pattern(path: str) -> str:
    return re.sub(r"\[\d+\]", "[]", re.sub(r"\['[^']*'\]", "[*]", path))


def nodes(value, path="$", parent=None, key=None):
    """(path, container, key, value) of every place in a config, root first."""
    yield path, parent, key, value
    if isinstance(value, dict):
        for k, v in value.items():  # keys that are no identifier are quoted, as in jsonpath
            sub = f"{path}.{k}" if re.fullmatch(r"[a-zA-Z]\w*", k) else f"{path}['{k}']"
            yield from nodes(v, sub, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from nodes(v, f"{path}[{i}]", value, i)


def rule(path: str, value):
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    return LEAVES[pattern(path)]


def outside(interval: str, kind: str):
    """Finite values of ``kind`` that the interval excludes."""
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    below = (lambda v: v <= lo) if interval[0] == "(" else (lambda v: v < lo)
    above = (lambda v: v >= hi) if interval[-1] == ")" else (lambda v: v > hi)
    if kind == "integer":
        return st.integers(max_value=int(lo) - 1)  # integer ranges here are [lo, inf)
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
    return finite.filter(lambda v: below(v) or above(v))


def wrong_type(kind):
    kind = kind[0] if isinstance(kind, tuple) else kind
    anything = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | \
        st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=3),
                                                               st.integers(), max_size=2)
    if kind == "integer":  # an integral float such as 1.0 is no integer either
        return anything.filter(lambda v: type(v) is not int)
    if kind == "number":
        return anything.filter(lambda v: type(v) not in (int, float))
    if kind == "string":
        return anything.filter(lambda v: not isinstance(v, str))
    if isinstance(kind, list):  # choices
        return anything.filter(lambda v: v not in kind)
    return anything.filter(lambda v: not isinstance(v, {"object": dict, "array": list}[kind]))


@st.composite
def mutation(draw):
    """(description, mutated config, expected error path or None if still valid)."""
    config = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    places = list(nodes(config))
    what = draw(st.sampled_from(["drop", "type", "range", "non-finite", "unknown"]))
    if what == "drop":
        path, parent, key, _ = draw(st.sampled_from(
            [p for p in places if isinstance(p[1], dict)]))
        del parent[key]
        if pattern(path) in SELF_NAMED:  # a threshold is required of RFL losses only
            expected = path if key != "threshold" or parent["kind"] == "RFL" else None
        else:
            holder = re.sub(r"(\.\w+|\['[^']*'\])$", "", path)
            expected = holder if key in REQUIRED.get(pattern(holder), ()) else None
        return f"drop {path}", config, expected
    if what == "unknown":
        path, _, _, obj = draw(st.sampled_from([p for p in places if isinstance(p[3], dict)]))
        if path.endswith("skip_prob"):  # keys must name a class: 0..9 in longtail
            key = draw(st.text().filter(lambda k: not k.isdecimal())
                       | st.integers(min_value=10).map(str) | st.sampled_from(["01", "-1"]))
        else:
            key = draw(st.text().filter(lambda k: k not in KNOWN_KEYS))
        obj[key] = 0.5
        return f"add {key!r} to {path}", config, path
    leaves = [p for p in places if not isinstance(p[3], (dict, list))]
    if what == "type":
        path, parent, key, value = draw(st.sampled_from(places))
        new = draw(wrong_type(rule(path, value)))
    elif what == "non-finite":
        path, parent, key, _ = draw(st.sampled_from(
            [p for p in leaves if isinstance(rule(p[0], p[3]), tuple)]))
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        path, parent, key, value = draw(st.sampled_from(leaves))
        kind = rule(path, value)
        if kind == "string":
            new = ""
        elif isinstance(kind, tuple):
            new = draw(outside(kind[1], kind[0]))
        else:
            new = draw(st.text().filter(lambda v: v not in kind))
    if parent is None:
        config = new
    else:
        parent[key] = new
    return f"{what} {path} = {new!r}", config, path


@settings(max_examples=400, deadline=None)
@given(mutation())
def test_single_mutation_is_rejected_at_its_path(case):
    what, config, expected = case
    if expected is None:
        validate_config(config)
        return
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.location == expected, (what, str(err.value))


def test_cli_import_adds_no_third_party_module_but_numpy():
    code = ("import sys; before = set(sys.modules); import rfl_lab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    top = {name.split(".")[0] for name in out}
    assert "rfl_lab" in top and "numpy" in top
    assert top - sys.stdlib_module_names - {"rfl_lab", "numpy"} == set()


@pytest.mark.parametrize("name, section, key, value, path", [
    ("longtail", "dataset", "feature_dim", 2**25, "$.dataset"),
    ("longtail", "eval", "per_class", 2**25, "$.eval"),
    ("longtail", "train", "epochs", 2**20, "$.train"),
    ("two_stage", "scenes", "num_scenes", 10**6, "$.scenes"),
    ("two_stage", "train", "epochs", 10**12, "$.train"),
])
def test_oversized_array_is_rejected_at_its_section(name, section, key, value, path):
    config = copy.deepcopy(SHIPPED[name])
    config[section][key] = value
    with pytest.raises(ConfigError, match=f"more than {MAX_VALUES}") as err:
        validate_config(config)
    assert err.value.location == path


def test_oversized_stage2_curve_is_rejected():
    config = copy.deepcopy(SHIPPED["two_stage"])
    config["two_stage"]["stage2"]["epochs"] = 10**9
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.location == "$.two_stage.stage2"


@pytest.mark.parametrize("name, edits, path", [
    # A stage-2 step's logits: 32 rows of 10**7 classes.
    ("two_stage", {"scenes": {"num_classes": 10**7}}, "$.two_stage.stage2"),
    # The class-mean lattice: 2**25 + 1 means of 8 features.
    ("two_stage", {"scenes": {"num_classes": 2**25}}, "$.scenes"),
    # An objectness batch of 10**9 rows, far more than its strata hold.
    ("two_stage", {"train": {"batch_size": 10**9}}, "$.train"),
    # 2**20 classes: the eval set, or with one eval row per class the
    # logits of a step, 4 arms x 128 rows x 2**20 classes.
    ("longtail", {"dataset": {"class_counts": [1] * 2**20}}, "$.eval"),
    ("longtail", {"dataset": {"class_counts": [1] * 2**20}, "eval": {"per_class": 1},
                  "train": {"batch_size": 128}}, "$.train"),
])
def test_class_sized_arrays_are_bounded(name, edits, path):
    config = copy.deepcopy(SHIPPED[name])
    for section, values in edits.items():
        config[section].update(values)
    with pytest.raises(ConfigError, match=f"more than {MAX_VALUES}") as err:
        validate_config(config)
    assert err.value.location == path


def test_size_bound_is_inclusive():
    config = copy.deepcopy(SHIPPED["longtail"])
    config["arms"] = config["arms"][:1]
    config["dataset"].update(class_counts=[2**19, 2**19], feature_dim=2**8)  # MAX_VALUES
    validate_config(config)
    config["dataset"]["feature_dim"] += 1
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.location == "$.dataset"


def test_objectness_epoch_draw_is_bounded():
    # One feature a candidate keeps the scene set within MAX_VALUES, but an
    # epoch of ceil(n / 64) stratified batches draws under 2 * 64 integers
    # each: 2**18 scenes of 512 candidates need exactly MAX_VALUES.
    config = copy.deepcopy(SHIPPED["two_stage"])
    config["scenes"].update(num_scenes=2**18, bg_per_scene=502, feature_dim=1)
    config["train"]["epochs"] = 1
    validate_config(config)
    config["scenes"]["bg_per_scene"] += 1
    with pytest.raises(ConfigError, match=f"more than {MAX_VALUES}") as err:
        validate_config(config)
    assert err.value.location == "$.train"


def test_csv_dataset_sizes_are_checked_once_read(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), np.zeros(3, bool)), path)
    config = copy.deepcopy(SHIPPED["longtail"])
    config["dataset"] = {"csv_path": str(path)}
    config["arms"] = config["arms"][:1]
    config["train"]["epochs"] = 10**12
    validate_config(config)  # the row count is not known before the file is read
    with pytest.raises(ConfigError) as err:
        run_experiment(config)
    assert err.value.location == "$.train"


def test_csv_class_count_is_checked_before_counting(tmp_path):
    # A label of 10**12 asks for 10**12 classes: refused before bincount or
    # the weights allocate anything of that size.
    path = tmp_path / "d.csv"
    write_dataset_csv(Dataset(np.zeros((2, 2)), np.array([0, 10**12]), np.zeros(2, bool)), path)
    config = copy.deepcopy(SHIPPED["longtail"])
    config["dataset"] = {"csv_path": str(path)}
    config["arms"] = config["arms"][:1]
    with pytest.raises(ConfigError, match=f"more than {MAX_VALUES}") as err:
        run_experiment(config)
    assert err.value.location == "$.train"


def test_two_stage_section_parses_with_defaults():
    config = copy.deepcopy(SHIPPED["two_stage"])
    del config["two_stage"]["fg_bg_ratio"]
    stage2 = Train(epochs=10, batch_size=32, lr_schedule=[[1000000000, 0.3]],
                   schedule_units="iteration")
    assert validate_config(config).two_stage == TwoStage(
        proposal_budget=50, stage2=stage2, stage2_loss=LossParams(LossKind.CE), fg_bg_ratio=0.5)
    config["two_stage"].update(fg_bg_ratio=0.25, stage2_loss={"kind": "FL", "gamma": 1.0})
    assert validate_config(config).two_stage == TwoStage(
        50, stage2, LossParams(LossKind.FL, gamma=1.0), 0.25)


def test_stage2_fraction_schedule_is_planned_on_the_positives(monkeypatch):
    # Stage 2 trains on the observed positives, which objectness noise makes
    # far more than num_scenes * fg_per_scene; its fractions resolve on them.
    config = copy.deepcopy(SHIPPED["two_stage"])
    config.update(seeds=[1, 2], arms=config["arms"][:1])
    config["train"]["epochs"] = 1
    stage2 = config["two_stage"]["stage2"]
    stage2.update(lr_schedule=[[0.5, 0.3], [1.0, 0.03]], schedule_units="fraction")
    seen = []

    def train_two_stage(scenes, cfg, losses):
        seen.append((int(scenes.is_object.sum()), cfg.stage2.lr_schedule))
        return real(scenes, cfg, losses)

    real = experiment.train_two_stage
    monkeypatch.setattr(experiment, "train_two_stage", train_two_stage)
    run_experiment(config)
    assert len(seen) == 2
    for n_pos, schedule in seen:
        assert n_pos > 1000  # against 30 * 10 true objects
        total = stage2["epochs"] * math.ceil(n_pos / stage2["batch_size"])
        assert [t for t, _ in schedule] == [math.floor(f * total) for f in (0.5, 1.0)]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_rfl_loss_whose_divisor_underflows_is_rejected_at_its_loss(name):
    # 0.5**2000 underflows to 0: the RFL branch above th would divide by it.
    config = copy.deepcopy(SHIPPED[name])
    config["arms"][-1]["loss"] = {"kind": "RFL", "gamma": 2000, "threshold": 0.5}
    with pytest.raises(ConfigError, match=r"threshold\*\*gamma must be a normal float") as err:
        validate_config(config)
    assert err.value.location == f"$.arms[{len(config['arms']) - 1}].loss"
