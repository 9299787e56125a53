"""CLI tests driven through main(); outputs land in tmp_path."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.cli import main
from rfl_lab.metrics import (
    Box,
    Detection,
    GroundTruth,
    read_detections_jsonl,
    write_detections_jsonl,
    write_groundtruths_jsonl,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env() -> dict:
    """The environment of a child process that imports this checkout's rfl_lab."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_capped(*argv):
    """The CLI in a child process with a timeout and a 1 GB address-space cap,
    for inputs that would otherwise grow without end."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "rfl_lab.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=cap_memory,
    )


SMALL_CONFIG = {
    "kind": "classifier",
    "seeds": [1, 2],
    "dataset": {
        "class_counts": [300, 60, 12],
        "feature_dim": 5,
        "cluster_separation": 3.0,
        "label_noise_rate": 0.05,
    },
    "eval": {"per_class": 80},
    "train": {
        "epochs": 8,
        "batch_size": 32,
        "lr_schedule": [[0.7, 0.3], [1.0, 0.03]],
        "schedule_units": "fraction",
    },
    "arms": [
        {"name": "ce", "loss": {"kind": "CE"}},
        {"name": "rfl", "loss": {"kind": "RFL", "gamma": 2.0, "threshold": 0.25}},
    ],
}

TINY_TWO_STAGE = {
    "kind": "two_stage",
    "scenes": {"num_scenes": 2, "fg_per_scene": 4, "bg_per_scene": 20,
               "num_classes": 2, "feature_dim": 3},
    "train": {"epochs": 1, "batch_size": 8, "lr_schedule": [[100, 0.1]]},
    "two_stage": {"proposal_budget": 5,
                  "stage2": {"epochs": 1, "batch_size": 8, "lr_schedule": [[100, 0.1]]}},
    "arms": [{"name": "a", "loss": {"kind": "CE"}}],
}


class TestLossTable:
    def test_three_rows_piecewise_identity(self, capsys):
        code, out, _ = run(capsys, "loss-table", "--gamma", "2", "--th", "0.5",
                           "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pt,ce,fl,rfl,cutoff_factor"
        assert len(lines) == 4
        for line in lines[1:]:
            pt, ce, fl, rfl, factor = (float(v) for v in line.split(","))
            if pt < 0.5:
                assert rfl == ce and factor == 1.0

    def test_gamma_zero_fl_equals_ce(self, capsys):
        code, out, _ = run(capsys, "loss-table", "--gamma", "0", "--steps", "9")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, ce, fl, _, _ = line.split(",")
            assert fl == ce

    def test_frozen_row_at_09(self, capsys):
        code, out, _ = run(capsys, "loss-table", "--gamma", "2", "--th", "0.5",
                           "--steps", "1", "--pt-min", "0.9", "--pt-max", "0.9")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.0042144206, abs=1e-9)

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "loss-table", "--th", "1.5")
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma, message", [
        # 0.5**2000 underflows to 0, the divisor of RFL's branch above th.
        ("2000", "RFL threshold**gamma must be a normal float, got 0.5**2000.0 = 0.0"),
        ("inf", "gamma must be finite and >= 0, got inf"),
        ("nan", "gamma must be finite and >= 0, got nan"),
    ])
    def test_gamma_without_a_finite_table_exit_2(self, capsys, gamma, message):
        code, out, err = run(capsys, "loss-table", "--gamma", gamma)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""


class TestGradcheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        assert "gradcheck: PASS" in out

    def test_printed_errors(self, capsys):
        assert run(capsys, "gradcheck")[1] == (
            "scalar   max rel err 3.346e-08  (tolerance 1e-06)  ok\n"
            "binary   max rel err 3.467e-10  (tolerance 1e-05)  ok\n"
            "softmax  max rel err 2.065e-08  (tolerance 1e-05)  ok\n"
            "gradcheck: PASS\n")
        assert run(capsys, "gradcheck", "--skip-kink-band", "0")[1:] == (
            "scalar   max rel err 1.000e+00  (tolerance 1e-06)  FAIL\n"
            "binary   max rel err 1.000e+00  (tolerance 1e-05)  FAIL\n"
            "softmax  max rel err 1.000e+00  (tolerance 1e-05)  FAIL\n",
            "worst offender: scalar RFL gamma=5.0 th=0.25 pt=0.25 rel_err=1.000e+00 "
            "(at the pt = th kink; the loss is not differentiable there)\n"
            "gradcheck: FAIL\n")

    def test_negative_control_fails(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--negate-grad")
        assert code == 1
        assert "worst offender" in err

    def test_kink_band_zero_fails_and_says_so(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--skip-kink-band", "0")
        assert code == 1
        assert "kink" in err

    @pytest.mark.parametrize("band", ["nan", "-1"])
    def test_bad_kink_band_is_a_usage_error(self, capsys, band):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gradcheck", "--skip-kink-band", band)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"require a finite --skip-kink-band >= 0, got {float(band)}" in captured.err
        assert "gradcheck: FAIL" not in captured.out + captured.err


class TestExperiment:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(capsys, "experiment", str(cfg), "--out", str(r1))[0] == 0
        assert run(capsys, "experiment", str(cfg), "--out", str(r2))[0] == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert set(report["arms"]) == {"ce", "rfl"}
        assert report["artifact_version"]
        assert "wall_clock_seconds" not in report

    def test_rfl_threshold_one_matches_ce(self, tmp_path, capsys):
        cfg_data = dict(SMALL_CONFIG)
        cfg_data["arms"] = [
            {"name": "ce", "loss": {"kind": "CE"}},
            {"name": "rfl1", "loss": {"kind": "RFL", "gamma": 2.0, "threshold": 1.0}},
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        assert run(capsys, "experiment", str(cfg), "--out", str(out))[0] == 0
        report = json.loads(out.read_text())
        assert report["arms"]["ce"]["mean"] == report["arms"]["rfl1"]["mean"]
        assert (
            report["arms"]["ce"]["per_seed"] == report["arms"]["rfl1"]["per_seed"]
        )

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        code, _, err = run(capsys, "experiment", str(cfg), "--seeds", "1,1",
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "duplicate seeds" in err

    def test_schema_error_reports_location(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG)
        bad["arms"] = [{"name": "x", "loss": {"kind": "NOPE"}}]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "experiment", str(cfg),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "$.arms[0].loss.kind" in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "experiment", str(tmp_path / "nope.json"))
        assert code == 2

    def test_config_not_utf8_exit_2_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{\n  "kind": "classifier",\n  "arms": "\xff"\n}\n')
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err.startswith(f"cannot read config: {cfg} line 3: 'utf-8' codec can't "
                              "decode byte 0xff in position 37")
        assert not (tmp_path / "r.json").exists()

    def test_config_not_json_exit_2_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "kind": }\n')
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err == f"cannot read config: {cfg} line 2: Expecting value at column 11\n"
        assert not (tmp_path / "r.json").exists()

    def test_timing_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "experiment", str(cfg), "--timing")
        assert exc.value.code == 2

    def test_rfl_gamma_whose_divisor_underflows_exit_2(self, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(SMALL_CONFIG))
        cfg_data["arms"][1]["loss"] = {"kind": "RFL", "gamma": 2000, "threshold": 0.5}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err == ("invalid config: $.arms[1].loss: RFL threshold**gamma must be a normal "
                       "float, got 0.5**2000.0 = 0.0\n")
        assert not (tmp_path / "r.json").exists()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        cfg_data = dict(SMALL_CONFIG)
        del cfg_data["seeds"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        monkeypatch.setenv("RFL_LAB_SEED", "7")
        out = tmp_path / "r.json"
        assert run(capsys, "experiment", str(cfg), "--out", str(out))[0] == 0
        assert json.loads(out.read_text())["seeds"] == [7]
        monkeypatch.setenv("RFL_LAB_SEED", "abc")
        out.unlink()
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert err == "RFL_LAB_SEED must be an integer, got 'abc'\n"
        assert not out.exists()

    def test_plots_emitted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        plots = tmp_path / "plots"
        code, _, _ = run(capsys, "experiment", str(cfg),
                         "--out", str(tmp_path / "r.json"), "--plots", str(plots))
        assert code == 0
        svg = (plots / "recall_bars.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg
        assert (plots / "loss_curves.svg").exists()

    def test_dump_data_round_trips_through_csv(self, tmp_path, capsys):
        from rfl_lab.sampling import read_dataset_csv

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        dump = tmp_path / "data"
        code, _, _ = run(capsys, "experiment", str(cfg),
                         "--out", str(tmp_path / "r.json"),
                         "--dump-data", str(dump))
        assert code == 0
        data = read_dataset_csv(dump / "dataset_seed1.csv")
        assert len(data.y) == 372  # 300 + 60 + 12

        # A csv_path dataset trains and is evaluated on itself.
        csv_cfg = {
            "kind": "classifier",
            "seeds": [4],
            "dataset": {"csv_path": str(dump / "dataset_seed1.csv")},
            "train": SMALL_CONFIG["train"],
            "arms": [{"name": "ce", "loss": {"kind": "CE"}}],
        }
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(csv_cfg))
        out2 = tmp_path / "r2.json"
        assert run(capsys, "experiment", str(cfg2), "--out", str(out2))[0] == 0
        report = json.loads(out2.read_text())
        assert report["arms"]["ce"]["mean"]["accuracy"] > 0.8

    def test_dump_data_draws_only_each_training_set(self, tmp_path, capsys, monkeypatch):
        import rfl_lab.experiment as experiment

        drawn = []
        generate = experiment.generate_synthetic
        monkeypatch.setattr(experiment, "generate_synthetic",
                            lambda spec: drawn.append(spec.seed) or generate(spec))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[1, 2])))
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"),
                           "--dump-data", str(tmp_path / "data"))
        assert code == 0, err
        run_draws = [1, 1 + experiment.EVAL_SEED_OFFSET, 2, 2 + experiment.EVAL_SEED_OFFSET]
        assert drawn == run_draws + [1, 2]  # then one training set a seed for the dump

    def _csv_config(self, tmp_path, seeds):
        from rfl_lab.sampling import SynthDatasetSpec, generate_synthetic, write_dataset_csv

        data = tmp_path / "data.csv"
        write_dataset_csv(generate_synthetic(SynthDatasetSpec([40, 10], 3, seed=5)), data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "classifier", "seeds": seeds, "dataset": {"csv_path": str(data)},
            "train": {"epochs": 1, "batch_size": 16, "lr_schedule": [[100, 0.1]]},
            "arms": [{"name": "ce", "loss": {"kind": "CE"}}],
        }))
        return data, cfg

    def test_dump_data_reads_a_csv_dataset_once_for_every_seed(self, tmp_path, capsys,
                                                             monkeypatch):
        import rfl_lab.experiment as experiment

        data, cfg = self._csv_config(tmp_path, [1, 2, 3])
        reads = []
        read = experiment.read_dataset_csv
        monkeypatch.setattr(experiment, "read_dataset_csv",
                            lambda path: reads.append(path) or read(path))
        dump = tmp_path / "dump"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"),
                           "--dump-data", str(dump))
        assert code == 0, err
        assert reads == [str(data)] * 2  # the run's read, then one for the dump
        for seed in (1, 2, 3):
            assert (dump / f"dataset_seed{seed}.csv").read_bytes() == data.read_bytes()

    def test_dump_data_csv_read_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        import rfl_lab.experiment as experiment

        _, cfg = self._csv_config(tmp_path, [1, 2])
        read = experiment.read_dataset_csv
        reads = []

        def read_once(path):
            reads.append(path)
            if len(reads) > 1:
                raise OSError("device went away")
            return read(path)

        monkeypatch.setattr(experiment, "read_dataset_csv", read_once)
        dump = tmp_path / "dump"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"),
                           "--dump-data", str(dump))
        assert code == 2
        assert err == "cannot read dataset: device went away\n"
        assert not dump.exists()

    def test_small_two_stage_run(self, tmp_path, capsys):
        cfg_data = {
            "kind": "two_stage",
            "seeds": [3],
            "scenes": {
                "num_scenes": 4, "fg_per_scene": 6, "bg_per_scene": 60,
                "num_classes": 3, "feature_dim": 4, "separation": 2.5,
            },
            "train": {"epochs": 6, "batch_size": 32,
                      "lr_schedule": [[1000000, 0.3]]},
            "two_stage": {
                "proposal_budget": 12,
                "stage2": {"epochs": 6, "batch_size": 16,
                           "lr_schedule": [[1000000, 0.3]]},
            },
            "arms": [
                {"name": "ce", "loss": {"kind": "CE"}},
                {"name": "fl", "loss": {"kind": "FL", "gamma": 2.0}},
            ],
        }
        cfg = tmp_path / "ts.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        assert run(capsys, "experiment", str(cfg), "--out", str(out))[0] == 0
        report = json.loads(out.read_text())
        for arm in report["arms"].values():
            assert 0.0 <= arm["mean"]["proposal_recall"] <= 1.0
            assert "per_class_proposal_recall" in arm["mean"]

    def test_dump_data_on_two_stage_exits_2_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        cfg_data = {
            "kind": "two_stage",
            "seeds": [3],
            "scenes": {"num_scenes": 2, "fg_per_scene": 4, "bg_per_scene": 20,
                       "num_classes": 2, "feature_dim": 3},
            "train": {"epochs": 1, "batch_size": 8, "lr_schedule": [[100, 0.1]]},
            "two_stage": {"proposal_budget": 5,
                          "stage2": {"epochs": 1, "batch_size": 8,
                                     "lr_schedule": [[100, 0.1]]}},
            "arms": [{"name": "ce", "loss": {"kind": "CE"}}],
        }
        cfg = tmp_path / "ts.json"
        cfg.write_text(json.dumps(cfg_data))
        trained = []
        monkeypatch.setattr("rfl_lab.experiment.run_experiment",
                            lambda *a, **k: trained.append(a) or {})
        out, dump = tmp_path / "r.json", tmp_path / "data"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out),
                           "--dump-data", str(dump))
        assert code == 2
        assert "--dump-data only applies to classifier experiments" in err
        assert "Traceback" not in err
        assert trained == [] and not out.exists() and not dump.exists()

    @pytest.mark.parametrize("text, shown", [("[1, 2]", "[1, 2]"), ('"x"', "'x'"),
                                             ("null", "None")])
    @pytest.mark.parametrize("extra", [[], ["--seeds", "1"], ["--dump-data", "data"]])
    def test_non_object_config_exits_2(self, tmp_path, capsys, monkeypatch, extra, text, shown):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RFL_LAB_SEED", "4")
        (tmp_path / "list.json").write_text(text)
        code, _, err = run(capsys, "experiment", "list.json", "--out", "r.json", *extra)
        assert code == 2
        assert err == f"invalid config: $: {shown} is not of type 'object'\n"
        assert not (tmp_path / "r.json").exists()

    def test_two_stage_rejects_undersample_arms(self, tmp_path, capsys):
        cfg_data = {
            "kind": "two_stage",
            "seeds": [1],
            "scenes": {"num_scenes": 2, "fg_per_scene": 4, "bg_per_scene": 20,
                       "num_classes": 2, "feature_dim": 3},
            "train": {"epochs": 1, "batch_size": 8,
                      "lr_schedule": [[100, 0.1]]},
            "two_stage": {"proposal_budget": 5,
                          "stage2": {"epochs": 1, "batch_size": 8,
                                     "lr_schedule": [[100, 0.1]]}},
            "arms": [{"name": "a", "loss": {"kind": "CE"},
                      "undersample": {"skip_prob": {"0": 0.5}}}],
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, err = run(capsys, "experiment", str(cfg),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "$.arms[0].undersample" in err

    @pytest.mark.parametrize("budget", [24, 25, 1000])
    def test_two_stage_budget_covering_every_candidate_exit_2(self, tmp_path, capsys, budget):
        # 4 + 20 candidates per scene: a budget of 24 or more keeps them all,
        # so every arm's proposal recall would be 1.
        cfg_data = {
            "kind": "two_stage",
            "scenes": {"num_scenes": 2, "fg_per_scene": 4, "bg_per_scene": 20,
                       "num_classes": 2, "feature_dim": 3},
            "train": {"epochs": 1, "batch_size": 8, "lr_schedule": [[100, 0.1]]},
            "two_stage": {"proposal_budget": budget,
                          "stage2": {"epochs": 1, "batch_size": 8,
                                     "lr_schedule": [[100, 0.1]]}},
            "arms": [{"name": "a", "loss": {"kind": "CE"}}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert "$.two_stage.proposal_budget: proposal_budget must be below" in err
        assert not out.exists()
        cfg_data["two_stage"]["proposal_budget"] = 23
        cfg.write_text(json.dumps(cfg_data))
        assert run(capsys, "experiment", str(cfg), "--out", str(out))[0] == 0

    def test_csv_dataset_read_once_per_experiment(self, tmp_path, monkeypatch):
        from rfl_lab import experiment
        from rfl_lab.sampling import SynthDatasetSpec, generate_synthetic, write_dataset_csv

        path = tmp_path / "d.csv"
        write_dataset_csv(generate_synthetic(SynthDatasetSpec(
            class_counts=[120, 30, 10], feature_dim=4, label_noise_rate=0.05, seed=3)), path)
        cfg = {
            "kind": "classifier",
            "seeds": [4, 7, 9],
            "dataset": {"csv_path": str(path)},
            "train": SMALL_CONFIG["train"],
            "arms": SMALL_CONFIG["arms"],
        }

        def canonical(report):
            return json.dumps(experiment.round_floats(report["arms"]), sort_keys=True)

        solo = {seed: json.loads(canonical(experiment.run_experiment(dict(cfg, seeds=[seed]))))
                for seed in cfg["seeds"]}
        reads = []
        read = experiment.read_dataset_csv
        monkeypatch.setattr(experiment, "read_dataset_csv",
                            lambda p: reads.append(p) or read(p))
        report = json.loads(canonical(experiment.run_experiment(cfg)))
        assert reads == [str(path)]
        for name, arm in report.items():
            for k, seed in enumerate(cfg["seeds"]):
                assert (json.dumps(arm["per_seed"][k], sort_keys=True)
                        == json.dumps(solo[seed][name]["per_seed"][0], sort_keys=True))

    @pytest.mark.parametrize("skip_prob, message", [
        ({"0": 1, "1": 1, "2": 1}, "undersampling skips every class"),
        ({"x": 0.5}, "'x' is not a class index"),
        ({"-1": 0.5}, "'-1' is not a class index"),
        ({"7": 0.5}, "class 7 is not among the 3 classes"),
        ({"3": 0.5}, "class 3 is not among the 3 classes"),
    ])
    @pytest.mark.parametrize("csv", [False, True])
    @pytest.mark.parametrize("units", ["iteration", "fraction"])
    def test_arm_skipping_every_class_exit_2(self, tmp_path, capsys, units, csv, skip_prob,
                                             message):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        if csv:  # classes are known only once the file is read
            import numpy as np

            from rfl_lab.sampling import Dataset, write_dataset_csv

            path = tmp_path / "d.csv"
            c = np.arange(9)
            write_dataset_csv(Dataset(np.repeat(c[:, None], 2, axis=1).astype(float),
                                      c % 3, np.zeros(9, dtype=bool)), path)
            bad["dataset"] = {"csv_path": str(path)}
        bad["train"]["schedule_units"] = units
        if units == "iteration":
            bad["train"]["lr_schedule"] = [[50, 0.3], [100, 0.03]]
        bad["arms"].append({"name": "empty", "loss": {"kind": "CE"},
                            "undersample": {"skip_prob": skip_prob}})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert f"$.arms[2].undersample.skip_prob: {message}" in err
        assert not out.exists()

    def test_csv_and_synthetic_spec_conflict(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG)
        bad["dataset"] = dict(bad["dataset"], csv_path="x.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "experiment", str(cfg),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "$.dataset" in err


    @pytest.mark.parametrize("epochs, class_counts", [(0, [300, 60, 12]), (1, [40, 15, 5])])
    def test_fraction_schedule_on_a_short_run(self, tmp_path, capsys, epochs, class_counts):
        # Each phase rounds to threshold 1: with 0 epochs, and with one
        # epoch of 60 examples in batches of 64.
        cfg_data = json.loads(json.dumps(SMALL_CONFIG))
        cfg_data["dataset"]["class_counts"] = class_counts
        cfg_data["train"].update(epochs=epochs, batch_size=64,
                                 lr_schedule=[[0.7, 0.3], [0.9, 0.06], [1.0, 0.012]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 0, err
        assert set(json.loads(out.read_text())["arms"]) == {"ce", "rfl"}

    @pytest.mark.parametrize("section, schedule, units, message", [
        ("train", [[100, 0.3], [50, 0.1]], "iteration",
         "lr thresholds must be strictly increasing"),
        ("stage2", [[100, 0.3], [50, 0.1]], "iteration",
         "lr thresholds must be strictly increasing"),
        ("stage2", [[0.5, 0.3], [1.5, 0.1]], "fraction",
         "fractional schedule thresholds must be <= 1"),
    ])
    def test_decreasing_lr_schedule_names_its_path(self, tmp_path, capsys, section, schedule,
                                                   units, message):
        cfg_data = json.loads(json.dumps(TINY_TWO_STAGE))
        target = cfg_data["train"] if section == "train" else cfg_data["two_stage"]["stage2"]
        target.update(lr_schedule=schedule, schedule_units=units)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(tmp_path / "r.json"))
        assert code == 2
        path = "$.train" if section == "train" else "$.two_stage.stage2"
        assert f"{path}.lr_schedule: {message}" in err

    @pytest.mark.parametrize("section", ["arms", "two_stage"])
    def test_rfl_loss_without_threshold_exit_2(self, tmp_path, capsys, section):
        cfg_data = json.loads(json.dumps(TINY_TWO_STAGE))
        rfl = {"kind": "RFL", "gamma": 2.0}
        if section == "arms":
            cfg_data["arms"][0]["loss"], path = rfl, "$.arms[0].loss"
        else:
            cfg_data["two_stage"]["stage2_loss"], path = rfl, "$.two_stage.stage2_loss"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert f"{path}.threshold: RFL losses must give a threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, path", [
        ("scenes", "num_scenes", 10_000_000, "$.scenes"),
        ("train", "epochs", 10**12, "$.train"),
    ])
    def test_oversized_run_exit_2_under_a_memory_cap(self, tmp_path, section, key, value,
                                                     path):
        cfg_data = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                               "two_stage.json").read_text())
        cfg_data[section][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        proc = run_capped("experiment", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert f"invalid config: {path}: needs " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_oversized_objectness_epoch_draw_exit_2_under_a_memory_cap(self, tmp_path):
        # 2**18 scenes of 513 one-feature candidates fit the scene bound, but
        # an epoch of stratified batches draws about two integers a candidate.
        cfg_data = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                               "two_stage.json").read_text())
        cfg_data["scenes"].update(num_scenes=2**18, bg_per_scene=503, feature_dim=1)
        cfg_data["train"]["epochs"] = 1
        cfg_data["seeds"] = [1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        proc = run_capped("experiment", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert "invalid config: $.train: needs 268959744 float64 values" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("name, section, key, value, path", [
        ("two_stage", "scenes", "num_scenes", 60_000, "$.scenes"),
        ("longtail", "eval", "per_class", 2**20, "$.eval"),
    ])
    def test_seeds_held_at_once_exit_2_under_a_memory_cap(self, tmp_path, name, section, key,
                                                          value, path):
        # One seed of this config fits MAX_VALUES; the shipped five seeds,
        # all held at once, do not, and exit 2 before any data is drawn.
        cfg_data = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                               f"{name}.json").read_text())
        cfg_data[section][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        proc = run_capped("experiment", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert f"invalid config: {path}: needs " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("kind, path, value, message", [
        ("classifier", "train.lr_schedule[0][1]", math.nan, "nan is not a finite number"),
        ("classifier", "train.lr_schedule[1][1]", math.inf, "inf is not a finite number"),
        ("classifier", "dataset.cluster_separation", math.inf, "inf is not a finite number"),
        ("classifier", "dataset.label_noise_rate", math.nan, "nan is not a finite number"),
        ("classifier", "arms[1].loss.gamma", math.nan, "nan is not a finite number"),
        ("classifier", "arms[1].loss.threshold", math.nan, "nan is not a finite number"),
        ("two_stage", "scenes.separation", math.nan, "nan is not a finite number"),
        ("two_stage", "two_stage.fg_bg_ratio", math.nan, "nan is not a finite number"),
        ("classifier", "seeds[0]", 1.0, "1.0 is not of type 'integer'"),
        ("classifier", "dataset.feature_dim", 3.0, "3.0 is not of type 'integer'"),
        ("classifier", "train.batch_size", 16.0, "16.0 is not of type 'integer'"),
        ("classifier", "train.epochs", True, "True is not of type 'integer'"),
        ("two_stage", "scenes.feature_dim", 3.0, "3.0 is not of type 'integer'"),
    ])
    def test_non_finite_or_non_integer_value_exit_2_at_its_path(self, tmp_path, capsys, kind,
                                                               path, value, message):
        cfg_data = json.loads(json.dumps(SMALL_CONFIG if kind == "classifier"
                                         else TINY_TWO_STAGE))
        *keys, last = [int(k) if k.isdigit() else k
                       for k in path.replace("[", ".").replace("]", "").split(".")]
        target = cfg_data
        for key in keys:
            target = target[key]
        target[last] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))  # NaN and Infinity, as Python's json reads them
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert err == f"invalid config: $.{path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("feature_0,label,noisy\n1.5,0,0\n2.5\n", "line 3: expected 3 fields, got 1"),
        ("", "line 1: expected a header"),
        ("feature_0,label,noisy\n1.5,0,0\nnan,1,0\n", "line 3: features must be finite"),
        ("feature_0,label,noisy\n1.5,0,0\n2.5,-1,0\n", "line 3: label must be a non-negative"),
        ("feature_0,label,noisy\n", "no data rows"),
    ])
    def test_malformed_csv_dataset_exit_2(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        cfg_data = json.loads(json.dumps(SMALL_CONFIG))
        cfg_data["dataset"] = {"csv_path": str(data)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()



    @pytest.mark.parametrize("name, edits, message", [
        # Objectness noise flips the one object, or the one background
        # candidate: stage 1 sees a single label.
        ("two_stage", {"scenes": {"num_scenes": 1, "fg_per_scene": 1, "bg_per_scene": 1,
                                  "objectness_noise_rate": 0.5},
                       "two_stage": {"proposal_budget": 1}},
         "objectness training needs both labels present"),
        ("classifier", {"dataset": {"class_counts": [3, 2]},
                        "arms": [{"name": "u", "loss": {"kind": "CE"},
                                  "undersample": {"skip_prob": {"0": 1.0, "1": 0.999}}}]},
         "no training iteration ran: undersampling emptied every epoch"),
    ])
    def test_valid_config_that_cannot_train_exit_1(self, tmp_path, capsys, name, edits,
                                                    message):
        cfg_data = json.loads(json.dumps(TINY_TWO_STAGE if name == "two_stage"
                                         else SMALL_CONFIG))
        for section, values in edits.items():
            if isinstance(values, dict):
                cfg_data[section].update(values)
            else:
                cfg_data[section] = values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 1
        assert err == f"experiment failed: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        (None, "No such file or directory"),
        (b"\xff\xfe\x00", "can't decode byte 0xff"),
        (b"feature_0,label,noisy\n1.5,0\n", "line 2: expected 3 fields, got 2"),
        (b"feature_0,label,noisy\n" + b"1" * 200_000 + b",0,0\n", "field larger than field"),
        # Past the reader's first decoded chunk: the line and position count
        # from the start of the file.
        pytest.param(b"feature_0,label,noisy\n" + b"1.5,0,0\n" * 10_000 + b"2.5,\xe9,0\n",
                     "line 10002: 'utf-8' codec can't decode byte 0xe9 in position 80026",
                     id="not-utf8-late"),
    ])
    def test_unreadable_csv_dataset_exit_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "d.csv"
        if data is not None:
            path.write_bytes(data)
        cfg_data = json.loads(json.dumps(SMALL_CONFIG))
        cfg_data["dataset"] = {"csv_path": str(path)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", str(cfg), "--out", str(out))
        assert code == 2
        assert err.startswith("cannot read dataset: ") and message in err
        if data is not None:  # each message names the file and the line
            assert err.startswith(f"cannot read dataset: {path} line ")
        assert not out.exists()

class TestTile:
    def test_manifest_four_tiles(self, tmp_path, capsys):
        out_dir = tmp_path / "tiles"
        code, _, _ = run(capsys, "tile", "--scene", "1000x1000", "--tile", "700",
                         "--overlap", "80", "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["tiles"]) == 4
        assert {(t["ix"], t["iy"]) for t in manifest["tiles"]} == {
            (0, 0), (1, 0), (0, 1), (1, 1)
        }

    def test_boxes_clipped_per_tile(self, tmp_path, capsys):
        boxes = [
            Detection(Box(10, 10, 30, 30), 0, 1.0),        # tile (0,0) only
            Detection(Box(400, 400, 600, 600), 1, 1.0),    # spans all four
        ]
        src = tmp_path / "boxes.jsonl"
        write_detections_jsonl(boxes, src)
        out_dir = tmp_path / "tiles"
        code, _, _ = run(capsys, "tile", "--scene", "1000x1000", "--tile", "700",
                         "--overlap", "80", "--boxes", str(src),
                         "--out-dir", str(out_dir))
        assert code == 0
        t00 = read_detections_jsonl(out_dir / "tile_0_0.jsonl")
        assert {d.class_id for d in t00} == {0, 1}
        t11 = read_detections_jsonl(out_dir / "tile_1_1.jsonl")
        assert [d.class_id for d in t11] == [1]
        assert t11[0].box == Box(100, 100, 300, 300)

    def test_bad_overlap_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "tile", "--scene", "100x100", "--tile", "50",
                           "--overlap", "50", "--out-dir", str(tmp_path / "t"))
        assert code == 2

    def test_infinite_scene_exit_2_in_bounded_time(self, tmp_path):
        proc = run_capped("tile", "--scene", "infx1000", "--tile", "500",
                               "--out-dir", str(tmp_path / "t"))
        assert proc.returncode == 2
        assert "'infx1000'" in proc.stderr
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("scene, tile, overlap", [
        ("10000x10000", "1", "0.99"),   # about 1e12 tiles
        ("1e300x1", "1", "0.5"),        # one axis alone is unbounded
        ("2001x2000", "1", "0"),        # one row past the limit
    ])
    def test_oversized_grid_exit_2(self, tmp_path, scene, tile, overlap):
        proc = run_capped("tile", "--scene", scene, "--tile", tile,
                               "--overlap", overlap, "--out-dir", str(tmp_path / "t"))
        assert proc.returncode == 2
        assert "more than 4000000 tiles" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "t").exists()

    def test_nan_scene_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "tile", "--scene", "nanx1000", "--tile", "500",
                "--out-dir", str(tmp_path / "t"))
        assert exc.value.code == 2
        assert "'nanx1000'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("flag, value", [("--tile", "nan"), ("--tile", "inf"),
                                             ("--overlap", "nan"), ("--overlap", "inf")])
    def test_non_finite_tile_or_overlap_exit_2(self, tmp_path, capsys, flag, value):
        argv = {"--tile": "500", "--overlap": "80", flag: value}
        code, _, err = run(capsys, "tile", "--scene", "1000x1000",
                           "--tile", argv["--tile"], "--overlap", argv["--overlap"],
                           "--out-dir", str(tmp_path / "t"))
        assert code == 2
        assert f"{flag[2:]}" in err and f"got {value}" in err
        assert not (tmp_path / "t" / "manifest.json").exists()

    @pytest.mark.parametrize("boxes", [False, True], ids=["no-boxes", "boxes"])
    @pytest.mark.parametrize("value", ["2", "nan", "-1", "0"])
    def test_bad_min_visibility_exit_2_before_any_output(self, tmp_path, capsys, value, boxes):
        src = tmp_path / "boxes.jsonl"
        write_detections_jsonl([Detection(Box(10, 10, 30, 30), 0, 1.0)], src)
        code, _, err = run(capsys, "tile", "--scene", "100x100", "--tile", "50",
                           "--min-visibility", value, "--out-dir", str(tmp_path / "t"),
                           *(["--boxes", str(src)] if boxes else []))
        assert code == 2
        assert err == f"--min-visibility must be in (0, 1], got {float(value)}\n"
        assert not (tmp_path / "t").exists()


class TestFuse:
    def test_single_file_fixpoint(self, tmp_path, capsys):
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.9, source="m"),
            Detection(Box(50, 50, 60, 60), 1, 0.7, source="m"),
        ]
        src = tmp_path / "d.jsonl"
        write_detections_jsonl(dets, src)
        out = tmp_path / "fused.jsonl"
        code, _, _ = run(capsys, "fuse", str(src), "--min-votes", "1",
                         "--out", str(out))
        assert code == 0
        assert sorted(read_detections_jsonl(out), key=lambda d: d.class_id) == dets

    def test_two_pass_rot90_fusion(self, tmp_path, capsys):
        from rfl_lab.geometry import SceneDims, TtaTransform, apply_tta

        base = [Detection(Box(10, 10, 20, 20), 0, 0.8, source="a")]
        rotated = apply_tta(base, SceneDims(100, 100), TtaTransform.parse("rot90"))
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections_jsonl(base, f1)
        write_detections_jsonl(rotated, f2)
        out = tmp_path / "fused.jsonl"
        code, _, _ = run(
            capsys, "fuse", str(f1), str(f2),
            "--source", "a", "--source", "b",
            "--transform", "identity", "--transform", "rot90",
            "--scene", "100x100", "--min-votes", "2", "--out", str(out),
        )
        assert code == 0
        fused = read_detections_jsonl(out)
        assert len(fused) == 1
        assert fused[0].box == Box(10, 10, 20, 20)
        assert fused[0].source == "a+b"

    def test_stdout_bytes_equal_the_out_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections_jsonl([
            Detection(Box(10.1 * k, -0.0, 10.1 * k + 7 / 3, 1e16), k % 3, k / 13,
                      source="m\u00e9", image_id=["sc\u00e8ne", "", "x\"y"][k % 3])
            for k in range(12)], a)
        write_detections_jsonl([
            Detection(Box(10.1 * k + 0.05, 0.0, 10.1 * k + 2.3, 1e16), k % 3, 1.0, image_id=i)
            for k in range(12) for i in ["sc\u00e8ne", "", "x\"y"]], b)
        out = tmp_path / "fused.jsonl"
        code, _, _ = run(capsys, "fuse", str(a), str(b), "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "fuse", str(a), str(b))
        assert code == 0
        assert stdout.encode() == out.read_bytes()
        lines = stdout.splitlines()
        assert len(lines) > 12 and any("\\u00e8" in line for line in lines)
        for line, det in zip(lines, read_detections_jsonl(out)):
            rec = {"box": list(det.box), "class_id": det.class_id, "score": det.score}
            rec.update({k: v for k, v in (("image_id", det.image_id), ("source", det.source))
                        if v})
            assert line == json.dumps(rec, sort_keys=True)

    def test_transform_without_scene_exit_2(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.5)], src)
        code, _, err = run(capsys, "fuse", str(src), "--transform", "rot90")
        assert code == 2
        assert "--scene" in err

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_non_finite_result_exit_2_names_the_record(self, tmp_path, capsys, to_file):
        # Undoing a 1e-307 scale maps corner 20 to inf, which is not JSON.
        src = tmp_path / "a.jsonl"
        write_detections_jsonl([Detection(Box(10, 10, 20, 20), 0, 0.9)], src)
        out = ["--out", str(tmp_path / "f.jsonl")] if to_file else []
        code, _, err = run(capsys, "fuse", str(src), "--transform", "scale:1e-307",
                           "--scene", "1e300x1e300", *out)
        assert code == 2
        assert err == ("error: cannot write a NaN or infinite value as JSON: "
                       "{'box': [1e+308, 1e+308, inf, inf], 'class_id': 0, 'score': 0.9}\n")

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        # The first fused record stays finite; undoing the scale sends the
        # second one's corners to inf, after the first line was written.
        src = tmp_path / "a.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.9),
                                Detection(Box(10, 10, 20, 20), 0, 0.5)], src)
        out = tmp_path / "f.jsonl"
        code, _, err = run(capsys, "fuse", str(src), "--transform", "scale:1e-307",
                           "--scene", "1e300x1e300", "--out", str(out))
        assert code == 2
        assert err.startswith("error: cannot write a NaN or infinite value as JSON: "
                              "{'box': [1e+308, 1e+308, inf, inf]")
        assert not out.exists()

    def test_failed_stdout_write_prints_nothing(self, tmp_path, capsys):
        # As above, without --out: the finite first record must not reach
        # stdout ahead of the error.
        src = tmp_path / "a.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.9),
                                Detection(Box(10, 10, 20, 20), 0, 0.5)], src)
        code, out, err = run(capsys, "fuse", str(src), "--transform", "scale:1e-307",
                             "--scene", "1e300x1e300")
        assert code == 2
        assert err.startswith("error: cannot write a NaN or infinite value as JSON: "
                              "{'box': [1e+308, 1e+308, inf, inf]")
        assert out == ""

    def test_garbled_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code, _, _ = run(capsys, "fuse", str(bad))
        assert code == 2

    def test_reader_error_names_the_file_once(self, tmp_path, capsys):
        good, bad = tmp_path / "good.jsonl", tmp_path / "g.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.5)], good)
        bad.write_text('{"box": [0, 0, 1, 1], "class_id": 0}\n[1]\n')
        code, out, err = run(capsys, "fuse", str(good), str(bad))
        assert code == 2 and out == ""
        assert err == (f"cannot read inputs: {bad} line 2: record must be a JSON object, "
                       "got list\n")
        code, _, err = run(capsys, "fuse", str(tmp_path / "none.jsonl"))
        assert code == 2
        assert err.startswith("cannot read inputs: [Errno 2]") and err.count("none.jsonl") == 1

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exit_2_names_the_weight(self, tmp_path, capsys, weight):
        src = tmp_path / "d.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.5, source="a")], src)
        code, _, err = run(capsys, "fuse", str(src), "--score-mode", "weighted_mean",
                           "--weight", f"a={weight}")
        assert code == 2
        assert "weight for source 'a'" in err and "score" not in err

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
    def test_non_finite_scale_exit_2_names_the_factor(self, tmp_path, capsys, factor):
        src = tmp_path / "b.jsonl"
        write_detections_jsonl([Detection(Box(0, 0, 1, 1), 0, 0.5, source="a")], src)
        code, out, err = run(capsys, "fuse", str(src), "--transform", f"scale:{factor}",
                             "--scene", "1000x1000")
        assert code == 2
        assert f"scale factor must be finite and positive, got {factor}" in err
        assert out == ""


class TestEval:
    def test_perfect_detector_map_one(self, tmp_path, capsys):
        gts = [
            GroundTruth(Box(0, 0, 10, 10), 0, image_id="a"),
            GroundTruth(Box(30, 30, 40, 40), 1, image_id="a"),
        ]
        dets = [Detection(g.box, g.class_id, 0.9, image_id=g.image_id) for g in gts]
        dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_detections_jsonl(dets, dpath)
        write_groundtruths_jsonl(gts, gpath)
        code, out, _ = run(capsys, "eval", "--dets", str(dpath), "--gts", str(gpath))
        assert code == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["map"] == 1.0
        assert payload["m_recall"] == 1.0

    def test_empty_gts_exit_2(self, tmp_path, capsys):
        dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        dpath.write_text("")
        gpath.write_text("")
        code, _, _ = run(capsys, "eval", "--dets", str(dpath), "--gts", str(gpath))
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            '{"box": [0, 0, 10], "class_id": 0}',       # 3-element box
            '[0, 0, 10, 10]',                           # not an object
            '{"box": [0, NaN, 10, 10], "class_id": 0}',  # non-finite
        ],
    )
    def test_malformed_record_exit_2(self, tmp_path, capsys, bad):
        good = '{"box": [0, 0, 10, 10], "class_id": 0}\n'
        for dets_text, gts_text in ((bad, good), (good, bad)):
            dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
            dpath.write_text(dets_text + "\n")
            gpath.write_text(gts_text + "\n")
            code, out, err = run(capsys, "eval", "--dets", str(dpath),
                                 "--gts", str(gpath))
            assert code == 2
            assert "line 1" in err and out == ""

    def test_dense_image_under_a_memory_cap(self, tmp_path):
        # 8k detections on 4k truths of one class in one 2000 px image: a
        # dense IoU matrix of that one group would need about 1.3 GB.
        rng = np.random.default_rng(0)
        xy, wh = rng.uniform(0, 1900, size=(4000, 2)), rng.uniform(10, 90, size=(4000, 2))
        gts = [GroundTruth(Box(x, y, x + w, y + h), 0, "img")
               for (x, y), (w, h) in zip(xy.tolist(), wh.tolist())]
        shift = rng.uniform(-4, 4, size=(8000, 2)).tolist()
        scores = rng.random(8000).round(2).tolist()
        dets = [Detection(Box(g.box.x1 + dx, g.box.y1 + dy, g.box.x2 + dx, g.box.y2 + dy), 0,
                          score, image_id="img")
                for g, (dx, dy), score in zip(gts * 2, shift, scores)]
        dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_detections_jsonl(dets, dpath)
        write_groundtruths_jsonl(gts, gpath)
        proc = run_capped("eval", "--dets", str(dpath), "--gts", str(gpath))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)["per_class"]["0"]
        assert (counts["det_count"], counts["gt_count"]) == (8000, 4000)
        assert 0.5 < counts["recall"] <= 1.0

    def test_input_not_utf8_exit_2_names_file_and_line(self, tmp_path, capsys):
        good = b'{"box": [0, 0, 10, 10], "class_id": 0}\n'
        bad = b'{"box": [0, 0, 10, 10], "class_id": 0, "image_id": "\xff"}\n'
        for dets, gts in ((good + bad, good), (good, good * 2 + bad)):
            dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
            dpath.write_bytes(dets)
            gpath.write_bytes(gts)
            code, out, err = run(capsys, "eval", "--dets", str(dpath), "--gts", str(gpath))
            bad_path, line = (dpath, 2) if len(dets) > len(gts) else (gpath, 3)
            assert code == 2 and out == ""
            assert err.startswith(f"cannot read inputs: {bad_path} line {line}: 'utf-8' "
                                  "codec can't decode byte 0xff")


# A file of valid records with at most one line that may be malformed: a
# near-miss record, another JSON value, or arbitrary text.
_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(0, 9), max_size=5),
)
_BOX = st.lists(st.floats(0, 20), min_size=4, max_size=4).map(sorted)
_GOOD = st.fixed_dictionaries(
    {"box": _BOX, "class_id": st.integers(0, 2)},
    optional={"score": st.floats(0, 1), "image_id": st.sampled_from(["a", "b"]),
              "source": st.sampled_from(["m", "n"])},
).map(json.dumps)
_NEAR_MISS = st.fixed_dictionaries(
    {"box": st.one_of(_BOX, st.lists(_VALUE, max_size=5), _VALUE)},
    optional={"class_id": st.one_of(st.integers(0, 2), _VALUE),
              "score": st.one_of(st.floats(0, 1), _VALUE),
              "image_id": _VALUE, "source": _VALUE},
).map(json.dumps)
_BAD = st.one_of(
    _NEAR_MISS,
    st.lists(_VALUE).map(json.dumps),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
)
_FILE = st.builds(
    lambda good, bad, at: "\n".join(good[:at] + [bad] + good[at:]) + "\n",
    st.lists(_GOOD, max_size=6), st.one_of(st.just(""), _BAD), st.integers(0, 6),
)


class TestMalformedInputFuzz:
    """Any input file: exit 0 or 2, never an uncaught exception."""

    @staticmethod
    def _main(*argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))

    @settings(max_examples=60, deadline=None)
    @given(_FILE, _FILE)
    def test_eval(self, dets_text, gts_text):
        with tempfile.TemporaryDirectory() as tmp:
            d, g = Path(tmp, "d.jsonl"), Path(tmp, "g.jsonl")
            d.write_text(dets_text)
            g.write_text(gts_text)
            assert self._main("eval", "--dets", str(d), "--gts", str(g)) in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(_FILE, _FILE)
    def test_fuse(self, text_a, text_b):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            a.write_text(text_a)
            b.write_text(text_b)
            assert self._main("fuse", str(a), str(b), "--min-votes", "1",
                              "--out", str(Path(tmp, "f.jsonl"))) in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(_FILE)
    def test_tile(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            boxes = Path(tmp, "boxes.jsonl")
            boxes.write_text(text)
            assert self._main("tile", "--scene", "100x100", "--tile", "60",
                              "--overlap", "10", "--boxes", str(boxes),
                              "--out-dir", str(Path(tmp, "tiles"))) in (0, 2)


@pytest.fixture
def inputs(tmp_path):
    """A directory of tiny valid inputs for every subcommand, and a file
    ``afile`` that an output directory cannot be made at or under."""
    write_detections_jsonl([Detection(Box(0, 0, 4, 4), 0, 0.9)], tmp_path / "d.jsonl")
    write_groundtruths_jsonl([GroundTruth(Box(0, 0, 4, 4), 0)], tmp_path / "g.jsonl")
    (tmp_path / "ts.json").write_text(json.dumps(dict(TINY_TWO_STAGE, seeds=[1])))
    (tmp_path / "cl.json").write_text(json.dumps(dict(SMALL_CONFIG, seeds=[1])))
    (tmp_path / "afile").write_text("kept\n")
    return tmp_path


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one line naming
    it, and leaves no file behind but the outputs written before it."""

    @pytest.mark.parametrize("argv, target", [
        (["fuse", "{d}/d.jsonl", "--out", "{d}/nodir/x.jsonl"], "nodir/x.jsonl"),
        (["eval", "--dets", "{d}/d.jsonl", "--gts", "{d}/g.jsonl", "--out", "{d}/nodir/x.json"],
         "nodir/x.json"),
        (["experiment", "{d}/ts.json", "--out", "{d}/nodir/r.json"], "nodir/r.json"),
        (["experiment", "{d}/ts.json", "--out", "{d}/r.json", "--plots", "{d}/afile"], "afile"),
        (["experiment", "{d}/cl.json", "--out", "{d}/r.json", "--dump-data", "{d}/afile/sub"],
         "afile/sub"),
        (["tile", "--scene", "10x10", "--tile", "5", "--out-dir", "{d}/afile"], "afile"),
        (["tile", "--scene", "10x10", "--tile", "5", "--out-dir", "{d}/afile/sub"], "afile/sub"),
    ], ids=["fuse", "eval", "experiment", "plots", "dump-data", "tile-file", "tile-under-file"])
    def test_exit_2_one_line_naming_the_path(self, inputs, capsys, argv, target):
        before = set(inputs.iterdir())
        code, _, err = run(capsys, *[a.format(d=inputs) for a in argv])
        assert code == 2
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert str(inputs / target) in err
        assert set(inputs.iterdir()) - before <= {inputs / "r.json"}
        assert (inputs / "afile").read_text() == "kept\n"


class TestOutputsBeforeTraining:
    """``experiment`` checks that each output can be written before it
    trains, and a run that then fails leaves the outputs as it found them."""

    @pytest.mark.parametrize("flags, target", [
        (["--out", "{d}/nodir/r.json"], "nodir/r.json"),
        (["--out", "{d}/afile/r.json"], "afile/r.json"),
        (["--out", "{d}/r.json", "--plots", "{d}/afile"], "afile"),
        (["--out", "{d}/r.json", "--plots", "{d}/afile/sub"], "afile/sub"),
        (["--out", "{d}/r.json", "--dump-data", "{d}/afile"], "afile"),
        (["--out", "{d}/r.json", "--plots", "{d}/p", "--dump-data", "{d}/afile/sub"],
         "afile/sub"),
    ], ids=["out-dir-missing", "out-under-file", "plots-file", "plots-under-file",
            "dump-data-file", "dump-data-under-file"])
    def test_unwritable_output_exits_2_before_training(self, inputs, capsys, monkeypatch,
                                                       flags, target):
        from rfl_lab import experiment

        calls = []
        monkeypatch.setattr(experiment, "run_experiment", calls.append)
        before = sorted(inputs.rglob("*"))
        code, _, err = run(capsys, "experiment", str(inputs / "cl.json"),
                           *[f.format(d=inputs) for f in flags])
        assert code == 2 and calls == []
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert str(inputs / target) in err
        assert sorted(inputs.rglob("*")) == before  # r.json and p made for the check are gone
        assert (inputs / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_run_leaves_outputs_as_found(self, inputs, capsys, monkeypatch, existing):
        from rfl_lab import experiment

        def cannot_train(config):
            raise ValueError("cannot train")

        monkeypatch.setattr(experiment, "run_experiment", cannot_train)
        out = inputs / "r.json"
        if existing:
            out.write_text("old report\n")
        before = sorted(inputs.rglob("*"))
        code, _, err = run(capsys, "experiment", str(inputs / "cl.json"), "--out", str(out),
                           "--plots", str(inputs / "p" / "q"), "--dump-data", str(inputs / "dd"))
        assert code == 1 and err == "experiment failed: cannot train\n"
        assert sorted(inputs.rglob("*")) == before
        assert not existing or out.read_text() == "old report\n"


_LOADED = """
import json, sys
from rfl_lab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.startswith("rfl_lab."))}))
"""


class TestModulesLoaded:
    """Each subcommand loads only the modules it runs: the training and the
    detection halves never load each other, and --help loads no numpy."""

    @pytest.mark.parametrize("argv, loaded", [
        (["--help"], []),
        (["--version"], []),
        (["loss-table", "--steps", "3"], ["losses"]),
        (["gradcheck"], ["losses"]),
        (["experiment", "{d}/ts.json", "--out", "{d}/r.json"],
         ["experiment", "losses", "sampling", "train"]),
        (["tile", "--scene", "10x10", "--tile", "5", "--boxes", "{d}/d.jsonl",
          "--out-dir", "{d}/t"], ["geometry", "metrics"]),
        (["fuse", "{d}/d.jsonl", "--transform", "fliph", "--scene", "10x10"],
         ["ensemble", "geometry", "metrics"]),
        (["eval", "--dets", "{d}/d.jsonl", "--gts", "{d}/g.jsonl"], ["metrics"]),
    ], ids=["help", "version", "loss-table", "gradcheck", "experiment", "tile", "fuse", "eval"])
    def test_module_set(self, inputs, argv, loaded):
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED, *[a.format(d=inputs) for a in argv]],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["code"] == 0, proc.stderr
        assert got["modules"] == sorted(f"rfl_lab.{m}" for m in ["cli", *loaded])
        assert got["numpy"] == bool(loaded)

    def test_score_mode_choices_are_the_score_modes(self):
        from rfl_lab import cli
        from rfl_lab.ensemble import ScoreMode

        assert list(cli.SCORE_MODES) == [m.value for m in ScoreMode]
