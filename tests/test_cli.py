import csv
import json

import pytest
import yaml

from denitlab.cli import main


def write_config(path, **overrides):
    doc = {
        "task": "nowcast",
        "archs": ["elastic_net"],
        "seeds": [0],
        "covariates": ["nitrate_in", "methanol", "water_flow"],
        "h": 1,
        "hyperparams": {"elastic_net": {"alpha": 1.0e-4, "max_iter": 20000}},
        "synth": {"days": 8, "seed": 3},
        "out": str(path.parent / "out"),
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "exp.yaml")


class TestSynthCommand:
    def test_writes_csv_and_faults(self, config_path, tmp_path, capsys):
        out = tmp_path / "synth_out"
        assert main(["synth", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "data.csv").exists()
        assert (out / "faults.json").exists()
        assert (out / "manifest.json").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out = tmp_path / "idem"
        main(["synth", "--config", str(config_path), "--out", str(out)])
        first = (out / "data.csv").read_bytes()
        faults1 = (out / "faults.json").read_bytes()
        main(["synth", "--config", str(config_path), "--out", str(out)])
        assert (out / "data.csv").read_bytes() == first
        assert (out / "faults.json").read_bytes() == faults1

    def test_config_without_synth_section_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml")
        doc = yaml.safe_load(cfg.read_text())
        del doc["synth"]
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["synth", "--config", str(cfg)]) == 2


class TestTrainEvaluate:
    def test_full_chain(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "model.bin").exists()
        assert (out / "models" / "elastic_net_seed0.bin").exists()
        assert (out / "cleaning_mask.json").exists()

        assert main(["evaluate", "--config", str(config_path),
                     "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"model_id", "task", "split", "seed", "mse", "mae", "n_points"} \
            <= set(rows[0].keys())
        ids = {r["model_id"] for r in rows}
        assert "elastic_net" in ids
        assert "BaselineTrainingMean" in ids
        assert "BaselineTestRunningMean" in ids

        assert main(["report", "--config", str(config_path),
                     "--out", str(out)]) == 0
        table = json.loads((out / "table1.json").read_text())
        assert "nowcast" in table
        entries = {e["model"]: e for e in table["nowcast"]}
        assert entries["elastic_net"]["n_seeds"] == 1
        mses = [e["test_mse"]["mean"] for e in table["nowcast"]]
        assert mses == sorted(mses)

    def test_train_rerun_identical_model(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        blob = (out / "model.bin").read_bytes()
        main(["train", "--config", str(config_path), "--out", str(out)])
        assert (out / "model.bin").read_bytes() == blob

    def test_elastic_net_beats_training_mean_on_linear_synth(self, config_path,
                                                             tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        main(["evaluate", "--config", str(config_path), "--out", str(out)])
        with open(out / "report.csv", newline="") as fh:
            rows = {(r["model_id"], r["split"]): float(r["mse"])
                    for r in csv.DictReader(fh)}
        assert rows[("elastic_net", "test")] \
            < rows[("BaselineTrainingMean", "test")]

    def test_seed_flag_overrides(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out),
              "--seed", "5"])
        assert (out / "models" / "elastic_net_seed5.bin").exists()

    def test_multi_seed_report_carries_spread(self, tmp_path):
        cfg = write_config(
            tmp_path / "ms.yaml", archs=["gbt"], seeds=[0, 1, 2],
            hyperparams={"gbt": {"n_trees": 15, "max_depth": 2,
                                 "subsample": 0.7}})
        out = tmp_path / "msout"
        main(["train", "--config", str(cfg), "--out", str(out)])
        main(["evaluate", "--config", str(cfg), "--out", str(out)])
        main(["report", "--config", str(cfg), "--out", str(out)])
        table = json.loads((out / "table1.json").read_text())
        entry = next(e for e in table["nowcast"] if e["model"] == "gbt")
        assert entry["n_seeds"] == 3
        assert entry["test_mse"]["std"] > 0.0  # subsampling varies with seed
        baseline = next(e for e in table["nowcast"]
                        if e["model"] == "BaselineTrainingMean")
        assert baseline["test_mse"]["std"] == 0.0

    def test_env_var_supplies_dataset_path(self, tmp_path, monkeypatch):
        synth_cfg = write_config(tmp_path / "s.yaml")
        data_dir = tmp_path / "data"
        main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)])

        cfg = write_config(tmp_path / "d.yaml")
        doc = yaml.safe_load(cfg.read_text())
        del doc["synth"]
        cfg.write_text(yaml.safe_dump(doc))
        monkeypatch.setenv("DENITLAB_DATA", str(data_dir / "data.csv"))
        out = tmp_path / "denv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "model.bin").exists()

    def test_forecast_writes_horizon_breakdown(self, tmp_path):
        cfg = write_config(tmp_path / "f.yaml", task="forecast")
        out = tmp_path / "fout"
        main(["train", "--config", str(cfg), "--out", str(out)])
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        horizons = json.loads((out / "horizons.json").read_text())
        assert len(horizons["elastic_net_seed0"]) == 6
        with open(out / "report.csv", newline="") as fh:
            ids = {r["model_id"] for r in csv.DictReader(fh)}
        assert {"BaselineSeasonal", "BaselineTrend3", "BaselineTrend6"} <= ids


class TestAblateAnomalyHyperopt:
    def test_ablate_three_covariates_seven_rows(self, tmp_path):
        cfg = write_config(tmp_path / "a.yaml",
                           ablation={"covariates":
                                     ["nitrate_in", "methanol", "water_flow"]})
        out = tmp_path / "aout"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        importance = json.loads((out / "importance.json").read_text())
        assert set(importance["covariates"]) == {"nitrate_in", "methanol",
                                                 "water_flow"}

    def test_history_sweep_artifact(self, tmp_path):
        cfg = write_config(tmp_path / "h.yaml",
                           ablation={"covariates": ["nitrate_in"],
                                     "h_values": [0, 1]})
        out = tmp_path / "hout"
        main(["ablate", "--config", str(cfg), "--out", str(out)])
        with open(out / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["h"] for r in rows] == ["0", "1"]

    def test_ablate_jobs_2_matches_jobs_1(self, tmp_path):
        cfg = write_config(tmp_path / "j.yaml",
                           ablation={"covariates":
                                     ["nitrate_in", "methanol", "water_flow"],
                                     "h_values": [0, 1]})
        artifacts = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["ablate", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 0
            artifacts[jobs] = {p.name: p.read_bytes() for p in out.iterdir()
                               if p.name != "manifest.json"}
        assert set(artifacts["1"]) == {"ablation.csv", "importance.json",
                                       "history.csv"}
        assert artifacts["2"] == artifacts["1"]

    def test_anomaly_command(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        assert main(["anomaly", "--config", str(config_path),
                     "--out", str(out)]) == 0
        events = json.loads((out / "anomalies.json").read_text())
        assert isinstance(events, list)

    def test_hyperopt_artifacts_and_use_best(self, tmp_path):
        cfg = write_config(
            tmp_path / "hy.yaml",
            synth={"days": 10, "seed": 3},
            folds={"n_folds": 2, "train_block": 432, "val_block": 144,
                   "test_fraction": 0.2},
            hyperopt={"budget": 3, "seed": 0,
                      "space": {"elastic_net": {
                          "h": [0, 1],
                          "covariates": {"choice": [["nitrate_in"],
                                                    ["nitrate_in", "methanol"]]},
                      }}})
        out = tmp_path / "hyout"
        assert main(["hyperopt", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "best_spec_elastic_net.json").exists()
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2  # budget x folds
        assert all(json.loads(r["spec"])["arch"] == "elastic_net" for r in rows)

        # chain: train from the stored best spec
        doc = yaml.safe_load(cfg.read_text())
        doc["use_best_specs"] = True
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "model.bin").exists()


class TestExitCodes:
    def test_dataset_missing_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "d.yaml")
        doc = yaml.safe_load(cfg.read_text())
        del doc["synth"]
        doc["dataset"] = str(tmp_path / "absent.csv")
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,override", [
        ("train", {"seeds": ["a"]}),
        ("train", {"ablation": {"seeds": [0, 1.5]}}),
        ("anomaly", {"anomaly": {"split": "nope"}}),
        ("train", {"cleaning": {"window": 0}}),
        ("train", {"anomaly": {"peak_window": 1}}),
    ], ids=["seeds", "ablation-seeds", "anomaly-split", "cleaning-window",
            "anomaly-peak-window"])
    def test_bad_config_field_exits_2(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "bad.yaml", **override)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_unknown_arch_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.yaml", archs=["perceptron"])
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_diverging_training_is_exit_4(self, tmp_path, capsys):
        import numpy as np
        cfg = write_config(
            tmp_path / "div.yaml", archs=["recurrent"],
            hyperparams={"recurrent": {"hidden": 8, "learning_rate": 1.0e6,
                                       "momentum": 0.95, "max_epochs": 3,
                                       "batch_size": 8}},
            synth={"days": 6, "seed": 3})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 4
        assert "training error" in capsys.readouterr().err

    def test_rising_gbt_loss_is_exit_4(self, tmp_path, capsys, monkeypatch):
        import numpy as np
        from denitlab.models import gbt
        monkeypatch.setattr(gbt, "_tree_predict",
                            lambda tree, X: np.full(len(X), 1.0e3))
        cfg = write_config(tmp_path / "gbt.yaml", archs=["gbt"],
                           hyperparams={"gbt": {"n_trees": 3, "max_depth": 2}},
                           synth={"days": 6, "seed": 3})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        assert "training loss rose" in capsys.readouterr().err
