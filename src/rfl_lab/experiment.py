"""Config-driven experiment runner producing canonical JSON reports.

An experiment config describes one dataset (or scene set), one training
recipe, and a list of arms that vary the loss and optionally add an
undersampling policy.  Each seed's data is built once; its arms train in
lockstep (classifier arms grouped by undersample policy), each bitwise as
if alone.  Every arm runs once per seed with shared seed derivations:

    dataset seed            = seed
    balanced eval set seed  = seed + 1000
    weight init / batches   = seed
    undersample policy seed = seed + 500

Learning-rate schedules may give thresholds either as absolute
iteration counts (``schedule_units: "iteration"``) or as fractions of
an arm's expected total iterations (``"fraction"``); fractions adapt
the phase boundaries to the smaller epochs an undersampled arm sees.

Reports are plain dicts serialized with sorted keys and floats rounded
to 9 significant digits, so identical configs produce byte-identical
files.  Wall-clock timing is only included when explicitly requested,
as it would break that reproducibility.
"""

from __future__ import annotations

import math
import time
from typing import Any

import jsonschema
import numpy as np

from . import __version__
from .losses import LossKind, LossParams
from .sampling import (
    Dataset,
    SceneSetSpec,
    SynthDatasetSpec,
    UndersamplePolicy,
    generate_scenes,
    generate_synthetic,
    read_dataset_csv,
)
from .train import (
    TrainConfig,
    TwoStageConfig,
    evaluate_classifier,
    train_classifier,
    train_two_stage,
)

EVAL_SEED_OFFSET = 1000
UNDERSAMPLE_SEED_OFFSET = 500

_LOSS_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["CE", "FL", "RFL"]},
        "gamma": {"type": "number", "minimum": 0},
        "threshold": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "epochs": {"type": "integer", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 1},
        "lr_schedule": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "number", "exclusiveMinimum": 0},
                    {"type": "number", "exclusiveMinimum": 0},
                ],
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "schedule_units": {"enum": ["iteration", "fraction"]},
    },
    "required": ["epochs", "batch_size", "lr_schedule"],
    "additionalProperties": False,
}

_ARM_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "loss": _LOSS_SCHEMA,
        "undersample": {
            "type": "object",
            "properties": {
                "skip_prob": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "number", "minimum": 0, "maximum": 1,
                    },
                },
            },
            "required": ["skip_prob"],
            "additionalProperties": False,
        },
    },
    "required": ["name", "loss"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["classifier", "two_stage"]},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "loss_curve_stride": {"type": "integer", "minimum": 1},
        "dataset": {
            "type": "object",
            "properties": {
                "class_counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "feature_dim": {"type": "integer", "minimum": 1},
                "cluster_separation": {"type": "number", "exclusiveMinimum": 0},
                "label_noise_rate": {
                    "type": "number", "minimum": 0, "exclusiveMaximum": 1,
                },
                "csv_path": {"type": "string", "minLength": 1},
            },
            "additionalProperties": False,
        },
        "eval": {
            "type": "object",
            "properties": {"per_class": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "train": _TRAIN_SCHEMA,
        "arms": {"type": "array", "items": _ARM_SCHEMA, "minItems": 1},
        "scenes": {
            "type": "object",
            "properties": {
                "num_scenes": {"type": "integer", "minimum": 1},
                "fg_per_scene": {"type": "integer", "minimum": 1},
                "bg_per_scene": {"type": "integer", "minimum": 1},
                "num_classes": {"type": "integer", "minimum": 1},
                "feature_dim": {"type": "integer", "minimum": 1},
                "separation": {"type": "number", "exclusiveMinimum": 0},
                "objectness_noise_rate": {
                    "type": "number", "minimum": 0, "exclusiveMaximum": 1,
                },
            },
            "required": ["num_scenes", "fg_per_scene", "bg_per_scene",
                         "num_classes", "feature_dim"],
            "additionalProperties": False,
        },
        "two_stage": {
            "type": "object",
            "properties": {
                "proposal_budget": {"type": "integer", "minimum": 1},
                "fg_bg_ratio": {
                    "type": "number", "exclusiveMinimum": 0, "maximum": 1,
                },
                "stage2": _TRAIN_SCHEMA,
                "stage2_loss": _LOSS_SCHEMA,
            },
            "required": ["proposal_budget", "stage2"],
            "additionalProperties": False,
        },
    },
    "required": ["kind", "arms", "train"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Invalid experiment config; ``location`` points at the offender."""

    def __init__(self, message: str, location: str = "$") -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


def validate_config(config: dict) -> None:
    """Schema plus cross-field checks; raises :class:`ConfigError`."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise ConfigError(err.message, err.json_path)

    seeds = config.get("seeds", [])
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds", "$.seeds")
    names = [arm["name"] for arm in config["arms"]]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate arm names", "$.arms")
    for path, train in (("$.train", config["train"]),
                        ("$.two_stage.stage2", config.get("two_stage", {}).get("stage2"))):
        thresholds = [t for t, _ in train["lr_schedule"]] if train else []
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("lr thresholds must be strictly increasing",
                              f"{path}.lr_schedule")

    kind = config["kind"]
    if kind == "classifier":
        ds = config.get("dataset")
        if ds is None:
            raise ConfigError(
                "classifier experiments need a dataset section", "$.dataset"
            )
        synthetic = "class_counts" in ds or "feature_dim" in ds
        if "csv_path" in ds and synthetic:
            raise ConfigError(
                "give either csv_path or a synthetic spec, not both", "$.dataset"
            )
        if not ("csv_path" in ds or ("class_counts" in ds and "feature_dim" in ds)):
            raise ConfigError(
                "dataset needs csv_path, or class_counts plus feature_dim",
                "$.dataset",
            )
    if kind == "two_stage":
        if "scenes" not in config:
            raise ConfigError("two_stage experiments need a scenes section", "$.scenes")
        if "two_stage" not in config:
            raise ConfigError(
                "two_stage experiments need a two_stage section", "$.two_stage"
            )
        sc = config["scenes"]
        if config["two_stage"]["proposal_budget"] >= sc["fg_per_scene"] + sc["bg_per_scene"]:
            raise ConfigError(
                "proposal_budget must be below the candidates per scene "
                "(fg_per_scene + bg_per_scene), or every arm's recall is 1",
                "$.two_stage.proposal_budget",
            )
    for i, arm in enumerate(config["arms"]):
        loss = arm["loss"]
        if loss["kind"] == "RFL" and "threshold" not in loss:
            raise ConfigError(
                "RFL arms must give a threshold", f"$.arms[{i}].loss.threshold"
            )
        if kind == "two_stage" and "undersample" in arm:
            raise ConfigError(
                "undersampling applies to classifier experiments only",
                f"$.arms[{i}].undersample",
            )
        if kind == "classifier":
            _arm_skip(arm, i, config["dataset"].get("class_counts"))


def _loss_params(spec: dict) -> LossParams:
    return LossParams(
        kind=LossKind(spec["kind"]),
        gamma=float(spec.get("gamma", 2.0)),
        threshold=float(spec.get("threshold", 0.5)),
    )


def _expected_examples(counts: list[int], skip_prob: dict[int, float]) -> float:
    return sum(c * (1.0 - skip_prob.get(i, 0.0)) for i, c in enumerate(counts))


def _build_schedule(
    train: dict, expected_n: float
) -> tuple[tuple[float, float], ...]:
    units = train.get("schedule_units", "iteration")
    pairs = [(float(t), float(r)) for t, r in train["lr_schedule"]]
    if units == "iteration":
        return tuple(pairs)
    total = math.ceil(expected_n / train["batch_size"]) * train["epochs"]
    out: list[tuple[float, float]] = []
    for i, (frac, rate) in enumerate(pairs):
        if frac > 1.0:
            raise ConfigError(
                "fractional schedule thresholds must be <= 1",
                "$.train.lr_schedule",
            )
        threshold = max(1.0, math.floor(total * frac))
        if out and threshold == out[-1][0]:  # rounded onto its predecessor:
            if i < len(pairs) - 1:  # it covers no iteration, lr_at never picks it
                continue
            threshold = math.inf  # the last phase still covers the remainder
        out.append((threshold, rate))
    # The last phase covers the remainder of training regardless.
    return tuple(out)


def _train_config(
    train: dict, loss: LossParams, seed: int,
    expected_n: float, policy: UndersamplePolicy | None,
) -> TrainConfig:
    return TrainConfig(
        loss=loss,
        epochs=int(train["epochs"]),
        batch_size=int(train["batch_size"]),
        lr_schedule=_build_schedule(train, expected_n),
        weight_init_seed=seed,
        undersample=policy,
    )


def _thin_curve(curve: list[float], stride: int) -> list[float]:
    if stride <= 1 or not curve:
        return curve
    thinned = curve[::stride]
    if (len(curve) - 1) % stride:
        thinned.append(curve[-1])
    return thinned


def _mean_over_seeds(rows: list[dict], keys: list[str]) -> dict:
    out: dict[str, Any] = {}
    for key in keys:
        out[key] = float(np.mean([row[key] for row in rows]))
    # Per-class tables: average class-wise over the rows containing them.
    for key in rows[0]:
        if key.startswith("per_class") or key.endswith("per_class_recall"):
            classes = sorted({c for row in rows for c in row[key]})
            out[key] = {
                c: float(np.mean([row[key][c] for row in rows if c in row[key]]))
                for c in classes
            }
    return out


def _classifier_data(
    config: dict, seed: int, csv: Dataset | None = None
) -> tuple[Dataset, Dataset, list[int]]:
    """(train set, eval set, class counts) for one seed.

    Synthetic specs draw a fresh long-tailed training set plus a
    balanced noise-free eval set from the same class means; a csv_path
    dataset is fixed across seeds (seeds still steer training) and is
    evaluated on itself.  ``csv`` is that dataset when already read.
    """
    ds = config["dataset"]
    if "csv_path" in ds:
        data = read_dataset_csv(ds["csv_path"]) if csv is None else csv
        return data, data, np.bincount(data.y).tolist()

    spec = SynthDatasetSpec(
        class_counts=list(ds["class_counts"]),
        feature_dim=ds["feature_dim"],
        cluster_separation=ds.get("cluster_separation", 3.0),
        label_noise_rate=ds.get("label_noise_rate", 0.0),
        seed=seed,
    )
    per_class = config.get("eval", {}).get("per_class", 300)
    eval_spec = SynthDatasetSpec(
        class_counts=[per_class] * spec.num_classes,
        feature_dim=spec.feature_dim,
        cluster_separation=spec.cluster_separation,
        label_noise_rate=0.0,
        seed=seed + EVAL_SEED_OFFSET,
    )
    return (
        generate_synthetic(spec),
        generate_synthetic(eval_spec),
        list(ds["class_counts"]),
    )


def _arm_skip(arm: dict, i: int, counts: list[int] | None) -> dict[int, float]:
    """The arm's skip probabilities; rejects skipping every class in ``counts``."""
    skip = {int(k): float(v) for k, v in
            arm.get("undersample", {}).get("skip_prob", {}).items()}
    if counts is not None and _expected_examples(counts, skip) == 0:
        raise ConfigError("undersampling skips every class", f"$.arms[{i}].undersample.skip_prob")
    return skip


def _classifier_rows(
    config: dict, seed: int, stride: int, csv: Dataset | None = None
) -> dict[str, dict]:
    """One seed of every arm; arms with one undersample policy train in lockstep."""
    train_data, eval_data, counts = _classifier_data(config, seed, csv)

    groups: dict[frozenset, list[tuple[str, TrainConfig]]] = {}
    for i, arm in enumerate(config["arms"]):
        skip = _arm_skip(arm, i, counts)
        policy = (
            UndersamplePolicy(skip, seed=seed + UNDERSAMPLE_SEED_OFFSET) if skip else None
        )
        cfg = _train_config(
            config["train"], _loss_params(arm["loss"]), seed,
            _expected_examples(counts, skip), policy,
        )
        groups.setdefault(frozenset(skip.items()), []).append((arm["name"], cfg))

    rows = {}
    for group in groups.values():
        trained = train_classifier(train_data, [cfg for _, cfg in group])
        for (name, _), (model, curve) in zip(group, trained):
            ev = evaluate_classifier(model, eval_data)
            rows[name] = {
                "seed": seed,
                "accuracy": ev.accuracy,
                "m_recall": ev.m_recall,
                "per_class_recall": dict(ev.per_class_recall),
                "loss_curve": _thin_curve(curve, stride),
            }
    return rows


def _two_stage_rows(config: dict, seed: int, stride: int) -> dict[str, dict]:
    """One seed of every arm: the arms' stage 1 trains in lockstep, stage 2 once."""
    sc = config["scenes"]
    scenes = generate_scenes(SceneSetSpec(
        num_scenes=sc["num_scenes"],
        fg_per_scene=sc["fg_per_scene"],
        bg_per_scene=sc["bg_per_scene"],
        num_classes=sc["num_classes"],
        feature_dim=sc["feature_dim"],
        separation=sc.get("separation", 2.0),
        objectness_noise_rate=sc.get("objectness_noise_rate", 0.0),
        seed=seed,
    ))
    ts = config["two_stage"]
    n_candidates = sc["num_scenes"] * (sc["fg_per_scene"] + sc["bg_per_scene"])
    n_positives = sc["num_scenes"] * sc["fg_per_scene"]
    stage2_loss = _loss_params(ts.get("stage2_loss", {"kind": "CE"}))
    stage2 = _train_config(ts["stage2"], stage2_loss, seed + 1, n_positives, None)
    cfgs = [TwoStageConfig(
        stage1=_train_config(config["train"], _loss_params(arm["loss"]), seed,
                             n_candidates, None),
        proposal_budget=int(ts["proposal_budget"]),
        stage2=stage2,
        fg_bg_ratio=float(ts.get("fg_bg_ratio", 0.5)),
    ) for arm in config["arms"]]
    rows = {}
    for arm, (_, _, report) in zip(config["arms"], train_two_stage(scenes, cfgs)):
        rows[arm["name"]] = {
            "seed": seed,
            "proposal_recall": report.proposal_recall,
            "mean_class_proposal_recall": report.mean_class_proposal_recall,
            "per_class_proposal_recall": dict(report.per_class_proposal_recall),
            "stage2_m_recall": report.stage2_m_recall,
            "stage2_per_class_recall": dict(report.stage2_per_class_recall),
            "loss_curve": _thin_curve(report.stage1_curve, stride),
        }
    return rows


def run_experiment(config: dict, include_timing: bool = False) -> dict:
    """Run every arm over every seed and assemble the report dict."""
    validate_config(config)
    started = time.perf_counter()
    seeds = list(config.get("seeds", [0]))
    stride = int(config.get("loss_curve_stride", 50))
    kind = config["kind"]
    if kind == "classifier":
        path = config["dataset"].get("csv_path")
        csv = read_dataset_csv(path) if path is not None else None  # read once
        by_seed = [_classifier_rows(config, seed, stride, csv) for seed in seeds]
    else:
        by_seed = [_two_stage_rows(config, seed, stride) for seed in seeds]

    arms_out: dict[str, Any] = {}
    for arm in config["arms"]:
        rows = [seed_arms[arm["name"]] for seed_arms in by_seed]
        scalar_keys = [
            k for k in rows[0]
            if isinstance(rows[0][k], float) and k != "seed"
        ]
        arms_out[arm["name"]] = {
            "per_seed": rows,
            "mean": _mean_over_seeds(rows, scalar_keys),
        }

    report = {
        "artifact_version": __version__,
        "kind": kind,
        "config": config,
        "seeds": seeds,
        "arms": arms_out,
    }
    if include_timing:
        report["wall_clock_seconds"] = time.perf_counter() - started
    return report


def round_floats(obj: Any, sig: int = 9) -> Any:
    """Recursively round floats to ``sig`` significant digits for output."""
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {str(k): round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj
