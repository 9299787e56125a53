"""Config-driven experiment runner producing canonical JSON reports.

An experiment config describes one dataset (or scene set), one training
recipe, and a list of arms that vary the loss and optionally add an
undersampling policy.  :func:`validate_config` checks the config once,
against one table of rules, and parses it into the :class:`ExperimentSpec`
the runner reads.  Every seed's data is built first, once; then one
trainer call trains every seed in lockstep, each run bitwise as if alone.
Its streams are (seed, schedule) pairs (:meth:`Train.config`): a
classifier experiment has one per seed and undersample policy, holding
the arms of that policy; a two-stage experiment one stage-1 stream per
seed, holding every arm, and one stage-2 stream per seed.  Evaluation
then runs per seed.  Because every seed's arrays are held at once, the
size bound counts them all.  Seeds derive as:

    dataset seed            = seed
    balanced eval set seed  = seed + 1000
    weight init / batches   = seed
    undersample policy seed = seed + 500

Learning-rate schedules may give thresholds either as absolute
iteration counts (``schedule_units: "iteration"``) or as fractions of
a run's expected total iterations (``"fraction"``); fractions adapt
the phase boundaries to the smaller epochs an undersampled arm sees,
and stage 2's to the observed positives it trains on.

Reports are plain dicts serialized with sorted keys and floats rounded
to 9 significant digits, so identical configs produce byte-identical
files; no report carries wall-clock time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from . import __version__, round_floats  # noqa: F401  (also read as experiment.round_floats)
from .losses import LossKind, LossParams
from .sampling import (Dataset, SceneSetSpec, SynthDatasetSpec, UndersamplePolicy,
                       generate_scenes, generate_synthetic, read_dataset_csv)
from .train import (TrainConfig, TwoStageConfig, evaluate_classifier, train_classifier,
                    train_two_stage)

EVAL_SEED_OFFSET = 1000
EVAL_PER_CLASS = 300
UNDERSAMPLE_SEED_OFFSET = 500
# Arrays of more 8-byte values (2 GiB) are refused before anything is
# built, rather than left to fail in numpy.
MAX_VALUES = 2**28


class ConfigError(ValueError):
    """Invalid experiment config; ``location`` points at the offender."""

    def __init__(self, message: str, location: str = "$") -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class DatasetError(ValueError):
    """A csv_path dataset that cannot be read; the message is the reader's."""


class Train(NamedTuple):
    """A train section: ``lr_schedule`` is [threshold, rate] pairs."""

    epochs: int
    batch_size: int
    lr_schedule: list[list[float]]
    schedule_units: str = "iteration"

    def iterations(self, n: float) -> int:
        """SGD steps of a run over ``n`` examples an epoch."""
        return math.ceil(n / self.batch_size) * self.epochs

    def config(self, seed: int, expected_n: float, curve_stride: int,
               undersample: UndersamplePolicy | None = None) -> TrainConfig:
        """The schedule at ``seed``, over ``expected_n`` examples an epoch,
        keeping every ``curve_stride``-th loss of the curve and the last."""
        pairs = [(t, r) for t, r in self.lr_schedule]
        if self.schedule_units == "fraction":
            total = self.iterations(expected_n)
            out: list[tuple[float, float]] = []
            for i, (frac, rate) in enumerate(pairs):
                threshold = max(1.0, math.floor(total * frac))
                if out and threshold == out[-1][0]:  # rounded onto its predecessor:
                    if i < len(pairs) - 1:  # it covers no iteration, lr_at never picks it
                        continue
                    threshold = math.inf  # the last phase still covers the remainder
                out.append((threshold, rate))
            pairs = out
        return TrainConfig(self.epochs, self.batch_size, tuple(pairs), seed, undersample,
                           curve_stride)


class TwoStage(NamedTuple):
    """A two_stage section."""

    proposal_budget: int
    stage2: Train
    stage2_loss: LossParams = LossParams(LossKind.CE)
    fg_bg_ratio: float = 0.5


class Arm(NamedTuple):
    name: str
    loss: LossParams
    undersample: dict[int, float] | None = None  # skip_prob by class


class ExperimentSpec(NamedTuple):
    """A checked config.  Datasets and scene sets are at seed 0."""

    kind: str
    arms: list[Arm]
    train: Train
    seeds: list[int] | tuple[int, ...] = (0,)
    loss_curve_stride: int = 50
    dataset: SynthDatasetSpec | str | None = None  # a synthetic spec or a csv path
    eval: int = EVAL_PER_CLASS  # per-class size of the synthetic eval set
    scenes: SceneSetSpec | None = None
    two_stage: TwoStage | None = None


# The rules.  A rule checks a JSON value at its JSON path and returns it parsed.  As in JSON
# Schema, a bad value is reported at its path, a missing or unknown key at its object's.

_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "array": (list,),
          "object": (dict,)}  # exact types: a bool is no number, 1.0 no integer


def _expect(value: Any, kind: str, path: str) -> None:
    if type(value) not in _TYPES[kind]:
        raise ConfigError(f"{value!r} is not of type {kind!r}", path)


def _number(kind: str, interval: str):
    """An ``integer``, or a finite ``number``, in ``interval`` such as ``"(0, 1]"``."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    open_lo, open_hi = interval[0] == "(", interval[-1] == ")"
    def check(value, path):
        _expect(value, kind, path)
        if kind == "number" and not abs(value) <= sys.float_info.max:  # NaN, +-inf, 1e999
            raise ConfigError(f"{value!r} is not a finite number", path)
        if value < lo or value > hi or (open_lo and value == lo) or (open_hi and value == hi):
            raise ConfigError(f"{value!r} is not in {interval}", path)
        return float(value) if kind == "number" else value
    return check


_int, _num = partial(_number, "integer"), partial(_number, "number")


def _text(*choices: str):
    """A non-empty string; one of ``choices`` if any are given."""
    def check(value, path):
        _expect(value, "string", path)
        if not value or (choices and value not in choices):
            raise ConfigError(f"{value!r} is not one of {list(choices)!r}" if choices
                              else "'' should be non-empty", path)
        return value
    return check


def _array(item, length: int | None = None):
    """A non-empty array of ``item``; of exactly ``length`` items if given."""
    def check(value, path):
        _expect(value, "array", path)
        if not value or (length and len(value) != length):
            raise ConfigError(f"{value!r} should hold {length or 'some'} items", path)
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _class_map(item):
    """An object from class indices ("0", "1", ...) to ``item``, keyed by int."""
    def check(value, path):
        _expect(value, "object", path)
        for key in value:
            if not (key.isdecimal() and str(int(key)) == key):
                raise ConfigError(f"{key!r} is not a class index", path)
        return {int(k): item(v, f"{path}['{k}']") for k, v in value.items()}
    return check


def _object(required: tuple[str, ...], build, **fields):
    """An object of ``fields``, parsed into keywords of ``build``; a ValueError of
    ``build``, such as a dataclass guard, is reported at the object's path."""
    def check(value, path):
        _expect(value, "object", path)
        for key in required:
            if key not in value:
                raise ConfigError(f"{key!r} is a required property", path)
        extra = [key for key in value if key not in fields]
        if extra:
            raise ConfigError(f"Additional properties are not allowed: {extra!r}", path)
        parsed = {key: fields[key](value[key], f"{path}.{key}") for key in sorted(value)}
        try:
            return build(**parsed)
        except ValueError as exc:
            raise ConfigError(str(exc), path) from None
    return check


def _dataset(csv_path: str | None = None, **synthetic) -> SynthDatasetSpec | str:
    if csv_path is not None:
        if "class_counts" in synthetic or "feature_dim" in synthetic:
            raise ValueError("give either csv_path or a synthetic spec, not both")
        return csv_path
    if not {"class_counts", "feature_dim"} <= synthetic.keys():
        raise ValueError("dataset needs csv_path, or class_counts plus feature_dim")
    return SynthDatasetSpec(**synthetic)


_LOSS_FIELDS = _object(("kind",), lambda kind, **params: LossParams(LossKind(kind), **params),
                       kind=_text("CE", "FL", "RFL"), gamma=_num("[0, inf)"),
                       threshold=_num("(0, 1]"))


def _loss(value, path: str) -> LossParams:
    """A loss object; an RFL loss names its threshold rather than take a default."""
    loss = _LOSS_FIELDS(value, path)
    if loss.kind is LossKind.RFL and "threshold" not in value:
        raise ConfigError("RFL losses must give a threshold", f"{path}.threshold")
    return loss


_TRAIN = _object(("epochs", "batch_size", "lr_schedule"), Train,
                 epochs=_int("[0, inf)"), batch_size=_int("[1, inf)"),
                 lr_schedule=_array(_array(_num("(0, inf)"), length=2)),
                 schedule_units=_text("iteration", "fraction"))
_COUNT = _int("[1, inf)")
_CONFIG = _object(
    ("kind", "arms", "train"), ExperimentSpec,
    kind=_text("classifier", "two_stage"), seeds=_array(_int("[0, inf)")),
    loss_curve_stride=_COUNT, train=_TRAIN,
    dataset=_object((), _dataset, class_counts=_array(_COUNT), feature_dim=_COUNT,
                    cluster_separation=_num("(0, inf)"), label_noise_rate=_num("[0, 1)"),
                    csv_path=_text()),
    eval=_object((), lambda per_class=EVAL_PER_CLASS: per_class, per_class=_COUNT),
    arms=_array(_object(
        ("name", "loss"), Arm, name=_text(), loss=_loss,
        undersample=_object(("skip_prob",), lambda skip_prob: skip_prob,
                            skip_prob=_class_map(_num("[0, 1]"))))),
    scenes=_object(("num_scenes", "fg_per_scene", "bg_per_scene", "num_classes", "feature_dim"),
                   SceneSetSpec, num_scenes=_COUNT, fg_per_scene=_COUNT, bg_per_scene=_COUNT,
                   num_classes=_COUNT, feature_dim=_COUNT, separation=_num("(0, inf)"),
                   objectness_noise_rate=_num("[0, 1)")),
    two_stage=_object(("proposal_budget", "stage2"), TwoStage, proposal_budget=_COUNT,
                      fg_bg_ratio=_num("(0, 1]"), stage2=_TRAIN, stage2_loss=_loss),
)


def validate_config(config: dict) -> ExperimentSpec:
    """Check ``config`` and parse it into a spec, or raise :class:`ConfigError`.

    :func:`run_experiment` checks the skip_prob classes and the sizes of a
    csv_path dataset once it is read."""
    spec = _CONFIG(config, "$")
    if len(set(spec.seeds)) != len(spec.seeds):
        raise ConfigError("duplicate seeds", "$.seeds")
    if len({arm.name for arm in spec.arms}) != len(spec.arms):
        raise ConfigError("duplicate arm names", "$.arms")
    stage2 = spec.two_stage.stage2 if spec.two_stage else None
    for path, train in (("$.train", spec.train), ("$.two_stage.stage2", stage2)):
        thresholds = [t for t, _ in train.lr_schedule] if train else []
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("lr thresholds must be strictly increasing", f"{path}.lr_schedule")
        if train and train.schedule_units == "fraction" and thresholds[-1] > 1.0:
            raise ConfigError("fractional schedule thresholds must be <= 1", f"{path}.lr_schedule")
    for key in ("dataset",) if spec.kind == "classifier" else ("scenes", "two_stage"):
        if getattr(spec, key) is None:
            raise ConfigError(f"{spec.kind} experiments need a {key} section", f"$.{key}")
    if spec.kind == "two_stage":
        sc = spec.scenes
        if spec.two_stage.proposal_budget >= sc.fg_per_scene + sc.bg_per_scene:
            raise ConfigError("proposal_budget must be below the candidates per scene "
                              "(fg_per_scene + bg_per_scene), or every arm's recall is 1",
                              "$.two_stage.proposal_budget")
    for i, arm in enumerate(spec.arms):
        if spec.kind == "two_stage" and arm.undersample is not None:
            raise ConfigError("undersampling applies to classifier experiments only",
                              f"$.arms[{i}].undersample")
    if isinstance(spec.dataset, SynthDatasetSpec):
        _check_undersampling(spec.arms, list(spec.dataset.class_counts))
        _check_sizes(spec, sum(spec.dataset.class_counts), spec.dataset.feature_dim,
                     spec.dataset.num_classes)
    elif spec.kind == "two_stage":
        sc = spec.scenes
        _check_sizes(spec, sc.num_scenes * (sc.fg_per_scene + sc.bg_per_scene), sc.feature_dim,
                     sc.num_classes)
    return spec


def _check_sizes(spec: ExperimentSpec, n: int, d: int, classes: int) -> None:
    """Rejects more than :data:`MAX_VALUES` values in any array that a run
    holds, counting what every seed holds at once, since all seeds train in
    one lockstep call.  With S seeds (a csv_path dataset is read once):
    the training features (S x n rows of d), a scene set's class-mean
    lattice, the S eval sets, and, per train section, iterations x runs
    (the values of the stride-1 loss curves; runs = S x arms) or an array
    of one stacked SGD step: every run's batch features (runs, rows, d),
    the logits (runs, rows, K) or the parameters (runs, K, d + 1).  A
    classifier batch holds at most n rows.  An objectness batch holds
    max(batch, 2) rows, even more than n, as a small stratum is drawn with
    replacement; K = 1.  Each seed's epoch of ceil(n / batch) batches is
    drawn at once, fewer than two integers a row.  Stage 2 trains one run
    a seed on the positives, at most every candidate.  (A synthetic
    dataset's lattice, classes x d, is within its n x d.)"""
    def per_step(runs: int, rows: int, K: int) -> int:
        return runs * max(rows * d, rows * K, K * (d + 1))

    seeds = len(spec.seeds)
    runs, K = seeds * len(spec.arms), max(2, classes)
    copies = 1 if isinstance(spec.dataset, str) else seeds
    sizes = [("$.dataset" if spec.kind == "classifier" else "$.scenes", copies * n * d)]
    if isinstance(spec.dataset, SynthDatasetSpec):
        sizes.append(("$.eval", seeds * spec.eval * spec.dataset.num_classes * d))
    sizes.append(("$.train", spec.train.iterations(n) * runs))
    if spec.kind == "classifier":
        sizes.append(("$.train", per_step(runs, min(spec.train.batch_size, n), K)))
    else:
        rows = max(spec.train.batch_size, 2)
        sizes += [("$.scenes", (classes + 1) * d), ("$.train", per_step(runs, rows, 1)),
                  ("$.train", seeds * 2 * rows * math.ceil(n / spec.train.batch_size))]
    if spec.two_stage:
        stage2 = spec.two_stage.stage2
        sizes += [("$.two_stage.stage2", seeds * stage2.iterations(n)),
                  ("$.two_stage.stage2", per_step(seeds, min(stage2.batch_size, n), K))]
    for path, values in sizes:
        if values > MAX_VALUES:
            raise ConfigError(f"needs {values} float64 values, more than {MAX_VALUES}", path)


def _check_undersampling(arms: list[Arm], counts: list[int]) -> None:
    """Rejects a skip_prob key naming no class, and skipping every class."""
    for i, arm in enumerate(arms):
        skip = arm.undersample or {}
        path = f"$.arms[{i}].undersample.skip_prob"
        if any(c >= len(counts) for c in skip):
            raise ConfigError(f"class {max(skip)} is not among the {len(counts)} classes", path)
        if _expected_examples(counts, skip) == 0:
            raise ConfigError("undersampling skips every class", path)


def _expected_examples(counts: list[int], skip_prob: dict[int, float]) -> float:
    return sum(c * (1.0 - skip_prob.get(i, 0.0)) for i, c in enumerate(counts))


def _mean_over_seeds(rows: list[dict]) -> dict:
    """Each float metric over the seeds; per-class tables class-wise, over
    the rows that hold the class."""
    out: dict[str, Any] = {}
    for key, value in rows[0].items():
        if isinstance(value, float):
            out[key] = float(np.mean([row[key] for row in rows]))
        elif isinstance(value, dict):
            classes = sorted({c for row in rows for c in row[key]})
            out[key] = {c: float(np.mean([row[key][c] for row in rows if c in row[key]]))
                        for c in classes}
    return out


def read_csv_dataset(path: str) -> Dataset:
    """A csv_path dataset, or :class:`DatasetError` with the reader's message."""
    try:
        return read_dataset_csv(path)
    except (OSError, ValueError) as exc:
        raise DatasetError(str(exc)) from exc


def training_set(spec: ExperimentSpec, seed: int, csv: Dataset | None) -> Dataset:
    """One seed's training set: a fresh long-tailed draw of a synthetic spec,
    or ``csv``, a csv_path dataset read once by the caller (None for a
    synthetic spec), fixed across seeds (seeds still steer training)."""
    return csv if csv is not None else generate_synthetic(replace(spec.dataset, seed=seed))


def _classifier_data(spec: ExperimentSpec, seed: int, csv: Dataset | None
                     ) -> tuple[Dataset, Dataset, list[int]]:
    """(train set, eval set, class counts) for one seed: the
    :func:`training_set`, and for a synthetic spec a balanced noise-free
    eval set from the same class means; a csv_path dataset is evaluated on
    itself."""
    if csv is not None:
        return csv, csv, np.bincount(csv.y).tolist()

    eval_spec = replace(spec.dataset, class_counts=[spec.eval] * spec.dataset.num_classes,
                        label_noise_rate=0.0, seed=seed + EVAL_SEED_OFFSET)
    return (training_set(spec, seed, None), generate_synthetic(eval_spec),
            list(spec.dataset.class_counts))


def _check_finite(run: str, seed: int, model, curve: list[float]) -> None:
    """Raises ``ValueError`` if ``run`` diverged at ``seed``: a weight, bias
    or loss of its curve is not finite."""
    if not all(np.isfinite(values).all() for values in (model.weights, model.biases, curve)):
        raise ValueError(f"{run} diverged at seed {seed}: a weight, bias or loss is not finite")


def _classifier_rows(spec: ExperimentSpec, csv: Dataset | None) -> list[dict[str, dict]]:
    """Per seed, a row per arm: one lockstep call trains every (seed,
    undersample policy) stream, each the arms of one policy at one seed."""
    groups: dict[frozenset, list[Arm]] = {}
    for arm in spec.arms:
        groups.setdefault(frozenset((arm.undersample or {}).items()), []).append(arm)

    data = [_classifier_data(spec, seed, csv) for seed in spec.seeds]
    streams = []
    for seed, (train_data, _, counts) in zip(spec.seeds, data):
        for arms in groups.values():
            skip = arms[0].undersample or {}
            policy = UndersamplePolicy(skip, seed=seed + UNDERSAMPLE_SEED_OFFSET) if skip else None
            cfg = spec.train.config(seed, _expected_examples(counts, skip),
                                    spec.loss_curve_stride, policy)
            streams.append((train_data, cfg, [arm.loss for arm in arms]))
    trained = iter(train_classifier(streams))

    by_seed = []
    for seed, (_, eval_data, _) in zip(spec.seeds, data):
        rows = {}
        for arms in groups.values():
            for arm, (model, curve) in zip(arms, next(trained)):
                _check_finite(f"arm {arm.name!r}", seed, model, curve)
                ev = evaluate_classifier(model, eval_data)
                rows[arm.name] = {"seed": seed, "accuracy": ev.accuracy, "m_recall": ev.m_recall,
                                  "per_class_recall": dict(ev.per_class_recall),
                                  "loss_curve": curve}
        by_seed.append(rows)
    return by_seed


def _two_stage_rows(spec: ExperimentSpec) -> list[dict[str, dict]]:
    """Per seed, a row per arm: one call trains every seed, stage 1 of all
    arms and seeds in one lockstep and stage 2 of all seeds in another."""
    sc, ts = spec.scenes, spec.two_stage
    stride = spec.loss_curve_stride
    streams = []
    for seed in spec.seeds:
        scenes = generate_scenes(replace(sc, seed=seed))
        cfg = TwoStageConfig(spec.train.config(seed, len(scenes.X), stride), ts.proposal_budget,
                             ts.stage2.config(seed + 1, int(scenes.is_object.sum()), stride),
                             ts.stage2_loss, ts.fg_bg_ratio)
        streams.append((scenes, cfg, [arm.loss for arm in spec.arms]))
    by_seed = train_two_stage(streams)
    for seed, trained in zip(spec.seeds, by_seed):
        for arm, (scorer, classifier, report) in zip(spec.arms, trained):
            _check_finite(f"arm {arm.name!r}", seed, scorer, report.stage1_curve)
            _check_finite("stage 2", seed, classifier, report.stage2_curve)
    return [{arm.name: {
                "seed": seed, "proposal_recall": report.proposal_recall,
                "mean_class_proposal_recall": report.mean_class_proposal_recall,
                "per_class_proposal_recall": dict(report.per_class_proposal_recall),
                "stage2_m_recall": report.stage2_m_recall,
                "stage2_per_class_recall": dict(report.stage2_per_class_recall),
                "loss_curve": report.stage1_curve}
             for arm, (_, _, report) in zip(spec.arms, trained)}
            for seed, trained in zip(spec.seeds, by_seed)]


def run_experiment(config: dict) -> dict:
    """Run every arm over every seed and assemble the report dict.

    Raises :class:`ConfigError` for an invalid config, :class:`DatasetError`
    for a csv_path dataset that cannot be read, and ``ValueError`` for a
    run that cannot train, such as stage-1 labels left all one kind by
    objectness noise or undersampling that empties every epoch, or that
    diverges: a weight, bias or loss of any arm's run, or of stage 2, that
    is not finite once training ends.
    """
    spec = validate_config(config)
    csv = None
    if spec.kind == "classifier" and isinstance(spec.dataset, str):
        csv = read_csv_dataset(spec.dataset)  # read once
        _check_sizes(spec, *csv.X.shape, int(csv.y.max()) + 1)
        _check_undersampling(spec.arms, np.bincount(csv.y).tolist())
    # A run that diverges overflows to inf and NaN; _check_finite reports it once training ends.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        by_seed = (_classifier_rows(spec, csv) if spec.kind == "classifier"
                   else _two_stage_rows(spec))

    arms_out: dict[str, Any] = {}
    for arm in spec.arms:
        rows = [seed_arms[arm.name] for seed_arms in by_seed]
        arms_out[arm.name] = {"per_seed": rows, "mean": _mean_over_seeds(rows)}

    return {"artifact_version": __version__, "kind": spec.kind, "config": config,
            "seeds": list(spec.seeds), "arms": arms_out}
