import csv
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab import cli, errors
from denitlab import dataset as ds
from denitlab.cli import main
from denitlab.synthpilot import Fault, SynthConfig, generate

# sha256 of anomalies.json from the gappy chain below, recorded before
# ``events_to_json`` mapped event positions to frame rows itself
ANOMALIES_GOLDEN = "e7a07f786bcd9a2aaaa1ecf6177e5d153faccb4dfc1381478bb64b6d4bd808df"


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

    def test_ablate_uses_best_spec(self, tmp_path):
        ablation = {"covariates": ["nitrate_in", "methanol"]}
        best = write_config(tmp_path / "best.yaml", use_best_specs=True,
                            ablation=ablation)
        out = tmp_path / "best"
        out.mkdir()
        (out / "best_spec_elastic_net.json").write_text(json.dumps(
            {"arch": "elastic_net", "covariates": ["nitrate_in"], "h": 4,
             "task": "nowcast", "hyperparams": {"alpha": 0.5}, "seed": 7}))
        explicit = write_config(tmp_path / "explicit.yaml", h=4, ablation=ablation,
                                hyperparams={"elastic_net": {"alpha": 0.5}})
        for cfg, run in ((best, out), (explicit, tmp_path / "explicit")):
            assert main(["ablate", "--config", str(cfg), "--out", str(run)]) == 0
        assert ((out / "ablation.csv").read_bytes()
                == (tmp_path / "explicit" / "ablation.csv").read_bytes())

    def test_ablate_without_best_spec_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", use_best_specs=True,
                           ablation={"covariates": ["nitrate_in"]})
        out = tmp_path / "o"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "best_spec_elastic_net.json is missing" in capsys.readouterr().err

    def test_anomaly_command(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        assert main(["anomaly", "--config", str(config_path),
                     "--out", str(out)]) == 0
        events = json.loads((out / "anomalies.json").read_text())
        assert isinstance(events, list)

    def test_anomalies_json_matches_recorded_digest(self, tmp_path):
        # a 12-row outage inside the test split, so an event's rows and
        # timestamps differ from its positions in the scored series
        frame, _ = generate(SynthConfig(days=8, seed=3, faults=(
            Fault("methanol_dropout", start=1040, duration=24),)))
        keep = np.ones(len(frame), dtype=bool)
        keep[1000:1012] = False
        gappy = ds.TimeSeriesFrame(frame.start_time, frame.names, frame.units,
                                   frame.values[keep], gaps=(ds.Gap(999, 12),))
        csv_path = tmp_path / "gappy.csv"
        ds.save_csv(gappy, csv_path)
        cfg = _csv_config(tmp_path / "c.yaml", csv_path)
        out = tmp_path / "run"
        for command in ("train", "anomaly"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "anomalies.json").read_text()
        assert [e["start"] for e in json.loads(text)] == [1049, 1102]
        assert hashlib.sha256(text.encode()).hexdigest() == ANOMALIES_GOLDEN

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


def _write_csv(tmp_path, synth_seed=3):
    """Write 8 synthetic days of ``synth_seed`` to ``tmp_path/data.csv``."""
    data_dir = tmp_path / f"data{synth_seed}"
    synth = write_config(tmp_path / "s.yaml", synth={"days": 8, "seed": synth_seed})
    assert main(["synth", "--config", str(synth), "--out", str(data_dir)]) == 0
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes((data_dir / "data.csv").read_bytes())
    return csv_path


def _csv_config(path, csv_path, **overrides):
    cfg = write_config(path, dataset=str(csv_path), **overrides)
    doc = yaml.safe_load(cfg.read_text())
    del doc["synth"]
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


def _artifacts(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestFrameMemo:
    """One process reads and cleans a dataset once for a chain of commands."""

    @pytest.fixture(autouse=True)
    def loads(self, monkeypatch):
        monkeypatch.setattr(cli, "_frame_memo", None)
        calls = []
        load_csv = ds.load_csv

        def spy(path, data=None):
            calls.append(path)
            return load_csv(path, data)

        monkeypatch.setattr(ds, "load_csv", spy)
        return calls

    def test_chain_reads_once(self, tmp_path, loads):
        cfg = _csv_config(tmp_path / "exp.yaml", _write_csv(tmp_path))
        for command in ("train", "evaluate", "anomaly"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0
        assert len(loads) == 1

    def test_rewritten_csv_is_read_again(self, tmp_path, loads):
        cfg = _csv_config(tmp_path / "exp.yaml", _write_csv(tmp_path))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        _write_csv(tmp_path, synth_seed=4)  # other days at the same path
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert len(loads) == 2
        cli._frame_memo = None
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert _artifacts(tmp_path / "b") == _artifacts(tmp_path / "c")
        assert _artifacts(tmp_path / "b") != _artifacts(tmp_path / "a")

    def test_changed_cleaning_misses(self, tmp_path, loads):
        csv_path = _write_csv(tmp_path)
        cfg = _csv_config(tmp_path / "exp.yaml", csv_path)
        other = _csv_config(tmp_path / "other.yaml", csv_path, cleaning={"window": 31})
        for path in (cfg, other, cfg):
            assert main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 0
        assert len(loads) == 3

    def test_bad_csv_exits_3_on_every_call(self, tmp_path, capsys, loads):
        csv_path = _write_csv(tmp_path)
        cfg = _csv_config(tmp_path / "exp.yaml", csv_path)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:5]) + lines[5].replace(",", ",x", 1)
                            + "".join(lines[6:]))
        for _ in range(2):
            assert main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
            assert "data error: row 4, column temperature" in capsys.readouterr().err

    def test_chain_matches_chain_that_rereads(self, tmp_path, loads):
        cfg = _csv_config(
            tmp_path / "exp.yaml", _write_csv(tmp_path), archs=["elastic_net", "gbt"],
            hyperparams={"elastic_net": {"alpha": 1.0e-4},
                         "gbt": {"n_trees": 10, "max_depth": 2}},
            ablation={"covariates": ["nitrate_in", "methanol"]})
        for out, clear in ((tmp_path / "memo", False), (tmp_path / "fresh", True)):
            for command in ("train", "evaluate", "report", "anomaly", "ablate"):
                if clear:
                    cli._frame_memo = None
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert len(loads) == 1 + 4
        memo = _artifacts(tmp_path / "memo")
        assert {"cleaning_mask.json", "models/gbt_seed0.bin", "report.csv",
                "anomalies.json", "ablation.csv"} <= set(memo)
        assert memo == _artifacts(tmp_path / "fresh")


def _covariate_grid(grid, **dimensions):
    """Overrides under which ``hyperopt`` samples a spec from this covariates
    grid and any other search ``dimensions``."""
    return {"synth": {"days": 10, "seed": 3},
            "folds": {"n_folds": 2, "train_block": 432, "val_block": 144},
            "hyperopt": {"budget": 1, "space": {"elastic_net": {
                "covariates": {"grid": grid}, **dimensions}}}}


def _space(arch, **dimensions):
    """Overrides with one arch's ``hyperopt.space``."""
    return {"hyperopt": {"space": {arch: dimensions}}}


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

    def test_non_utf8_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,x\n\xff\xfe\x00bad\n")
        cfg = write_config(tmp_path / "exp.yaml", dataset=str(bad))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"data error: dataset {bad} is not UTF-8 text: byte 0xff at offset 12\n")

    def test_report_csv_missing_a_column_exits_3(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.csv").write_text("model_id,task,split,mse,mae,n_points\n"
                                        "elastic_net,nowcast,test,1.0,0.5,10\n")
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out / 'report.csv'} line 2: not a score row: "
            f"KeyError: 'seed'\n")

    def test_report_csv_not_utf8_exits_3(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.csv").write_bytes(b"model_id,task,split,seed,mse,mae,n_points\n"
                                         b"\xff\xfe,nowcast,test,0,1.0,0.5,10\n")
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out / 'report.csv'} is not UTF-8 text: "
            f"byte 0xff at offset 42\n")

    @pytest.mark.parametrize("data", [
        b"not json", json.dumps({"format": "denitlab-model", "version": 1}).encode(),
        b"\xff\xfe{"], ids=["not-json", "no-spec", "not-utf8"])
    def test_malformed_model_artifact_exits_3(self, config_path, tmp_path, capsys,
                                              data):
        out = tmp_path / "o"
        (out / "models").mkdir(parents=True)
        (out / "models" / "elastic_net_seed0.bin").write_bytes(data)
        assert main(["evaluate", "--config", str(config_path),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model artifact: ")
        assert err.count("\n") == 1

    def test_malformed_best_spec_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", use_best_specs=True)
        out = tmp_path / "o"
        out.mkdir()
        best = out / "best_spec_elastic_net.json"
        best.write_text(json.dumps({"arch": "elastic_net"}))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {best} is not a model spec: KeyError: 'covariates'\n")

    def test_best_spec_of_another_arch_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", archs=["elastic_net", "gbt"],
                           use_best_specs=True)
        out = tmp_path / "o"
        out.mkdir()
        spec = json.dumps({"arch": "elastic_net", "covariates": ["methanol"],
                           "h": 1, "task": "nowcast"})
        for arch in ("elastic_net", "gbt"):
            (out / f"best_spec_{arch}.json").write_text(spec)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {out / 'best_spec_gbt.json'} holds a spec for "
            f"elastic_net, not gbt\n")
        assert not (out / "models").exists()

    @pytest.mark.parametrize("scores,error", [
        ("nan,0.5,10", "non-finite metric: mse nan, mae 0.5"),
        ("inf,0.5,10", "non-finite metric: mse inf, mae 0.5"),
        ("1.0,nan,10", "non-finite metric: mse 1.0, mae nan"),
        ("1.0,0.5,-1", "negative n_points -1"),
    ], ids=["mse-nan", "mse-inf", "mae-nan", "n-points-negative"])
    def test_report_csv_bad_score_exits_3(self, config_path, tmp_path, capsys,
                                          scores, error):
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.csv").write_text("model_id,task,split,seed,mse,mae,n_points\n"
                                        f"elastic_net,nowcast,test,0,{scores}\n")
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out / 'report.csv'} line 2: not a score row: "
            f"ValueError: {error}\n")
        assert not (out / "table1.json").exists()

    def test_report_csv_directory_exits_3(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.csv").mkdir(parents=True)
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out / 'report.csv'} is a directory, not a file\n")

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: config {tmp_path} is a directory, not a file\n")

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml")
        cfg.write_bytes(cfg.read_bytes() + b"# \xe9t\xe9\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {cfg} is not UTF-8 text: byte 0xe9 ")
        assert err.count("\n") == 1

    def test_model_artifact_directory_exits_3(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        model = out / "models" / "elastic_net_seed0.bin"
        model.mkdir(parents=True)
        assert main(["evaluate", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: model artifact {model} is a directory, not a file\n")

    def test_best_spec_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", use_best_specs=True)
        best = tmp_path / "o" / "best_spec_elastic_net.json"
        best.mkdir(parents=True)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {best} is a directory, not a file\n")

    @pytest.mark.parametrize("command,override", [
        ("train", {"seeds": ["a"]}),
        ("train", {"ablation": {"seeds": [0, 1.5]}}),
        ("anomaly", {"anomaly": {"split": "nope"}}),
        ("train", {"cleaning": {"window": 0}}),
        ("train", {"anomaly": {"peak_window": 1}}),
        ("train", {"hyperparams": {"elastic_net": 5}}),
        ("hyperopt", _covariate_grid([5])),
        ("hyperopt", _covariate_grid(["temperature"])),
        ("train", {"synth": {"days": 8, "faults": 5}}),
        ("train", {"synth": {"days": 8, "carrier": {"refills": 5}}}),
        ("train", {"synth": {"days": 8, "carrier": {"refills": [[3]]}}}),
        ("train", {"synth": {"days": 8, "carrier": 5}}),
        ("train", {"synth": {"days": 8.5}}),
        ("train", {"synth": {"days": 8, "start_time": 5}}),
        ("train", {"synth": {"days": 8, "temperature": {
            "base": 12.0, "amplitude": 4.0, "period_samples": 105120, "noise": "x"}}}),
        ("train", {"synth": {"days": 8, "oxygen": {
            "base": 7.0, "noise": 0.3, "spike_duration": 12.5}}}),
        ("ablate", {"ablation": {"h_values": ["x"]}}),
        ("ablate", {"jobs": 2.5, "ablation": {"covariates": ["methanol"]}}),
        # a large int: no open file descriptor of the test process has that number
        ("train", {"dataset": 987654}),
        ("train", {"cleaning": {"window": 2.5}}),
        ("hyperopt", {"folds": {"n_folds": "x"}}),
        ("train", {"final_split": {"train_fraction": "x"}}),
        ("train", {"hyperparams": 5}),
        ("train", {"h": True}),
        ("ablate", {"use_best_specs": "no"}),
        ("train", {"archs": ["tcn"], "hyperparams": {"tcn": {"hidden": 2.5}}}),
        ("train", {"archs": ["tcn"], "hyperparams": {"tcn": {"hidden": True}}}),
        ("train", {"archs": ["recurrent"],
                   "hyperparams": {"recurrent": {"batch_size": 8.5}}}),
        ("train", {"archs": ["gbt"], "hyperparams": {"gbt": {"n_trees": 2.5}}}),
        ("train", {"archs": ["gbt"], "hyperparams": {"gbt": {"max_depth": 1.5}}}),
        ("train", {"hyperparams": {"elastic_net": {"alpha": float("inf")}}}),
        ("train", {"hyperparams": {"elastic_net": {"tol": float("inf")}}}),
        ("train", {"archs": ["gbt"],
                   "hyperparams": {"gbt": {"learning_rate": float("inf")}}}),
        ("hyperopt", _covariate_grid([["nitrate_in"]], alpha={
            "log_uniform": [1.0e-4, float("inf")]})),
        ("hyperopt", {"hyperopt": {"space": {"foo": {}}}}),
        # train ignores the search space, so only a check at load catches it
        ("train", {"hyperopt": {"space": {"gbt": {"hiden": [8]}}}}),
        ("train", {"hyperopt": {"space": {"tcn": {"max_depth": [2]}}}}),
        ("train", _space("gbt", n_trees=[100, 2.5])),
        ("train", _space("gbt", max_depth={"choice": [True]})),
        ("train", _space("elastic_net", l1_ratio=[0.5, 1.5])),
        ("train", _space("tcn", momentum=["x"])),
        ("train", _space("gbt", h=[2.5])),
        ("train", _space("gbt", h=[-1])),
        ("train", _space("gbt", n_trees={"log_uniform": [50, 500]})),
        ("train", _space("elastic_net", l1_ratio={"log_uniform": [0.5, 2.0]})),
        ("train", _space("gbt", n_trees={"grid": [5], "log_uniform": [1.0, 2.0]})),
        ("train", _space("gbt", max_depth={"grid": [2], "lo": 3})),
        ("train", _space("gbt", max_depth={"grid": [2], "choice": [3]})),
        ("train", _space("gbt", max_depth={"lo": 3})),
    ], ids=["seeds", "ablation-seeds", "anomaly-split", "cleaning-window",
            "anomaly-peak-window", "hyperparams-not-mapping",
            "covariates-candidate-not-list", "covariates-candidate-string",
            "synth-faults-not-list", "refills-not-list", "refill-one-entry",
            "synth-carrier-not-mapping", "synth-days-float", "synth-start-time-int",
            "synth-profile-noise-string", "synth-spike-duration-float",
            "ablation-h-values-string", "jobs-float", "dataset-int",
            "cleaning-window-float", "folds-n-folds-string",
            "final-split-fraction-string", "hyperparams-int", "h-bool",
            "use-best-specs-string", "tcn-hidden-float", "tcn-hidden-bool",
            "recurrent-batch-size-float", "gbt-n-trees-float",
            "gbt-max-depth-float", "enet-alpha-inf", "enet-tol-inf",
            "gbt-learning-rate-inf", "log-uniform-bound-inf",
            "space-unknown-arch", "space-misspelled-dimension",
            "space-other-arch-dimension", "space-count-float",
            "space-count-bool", "space-grid-out-of-range", "space-grid-string",
            "space-h-float", "space-h-negative", "space-count-log-uniform",
            "space-log-uniform-bound-out-of-range", "space-grid-and-log-uniform",
            "space-extra-key", "space-grid-and-choice", "space-no-kind"])
    def test_bad_config_field_exits_2(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "bad.yaml", **override)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "hyperopt"])
    def test_bad_space_value_exits_2_before_reading_data(self, tmp_path, capsys,
                                                         command):
        cfg = write_config(tmp_path / "bad.yaml", dataset=str(tmp_path / "absent.csv"),
                           synth=None, **_space("gbt", n_trees=[2.5]))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: hyperopt.space.gbt.n_trees: grid 2.5 out of range\n")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("override,message", [
        ({"archs": ["gbt"], "hyperparams": {"gbt": {"n_trees": 2.5}}},
         "hyperparams.gbt: hyperparameter n_trees=2.5 out of range"),
        # an arch the run does not train is still checked
        ({"hyperparams": {"gbt": {"hiden": 8}}},
         "hyperparams.gbt: gbt has no hyperparameter 'hiden'"),
        ({"covariates": ["temprature"]},
         "covariates: no covariate column 'temprature'"),
        ({"covariates": ["nitrate_out"]},
         "covariates: 'nitrate_out' is the target, not a covariate"),
        ({"ablation": {"covariates": ["pressure_top", "nitrate_out"]}},
         "ablation.covariates: 'nitrate_out' is the target, not a covariate"),
        ({"ablation": {"covariates": ["methanol", "methanol"]}},
         "ablation.covariates names a covariate twice"),
        (_space("gbt", covariates=[["methanol"], ["nitrate_in", "temprature"]]),
         "hyperopt.space.gbt.covariates: no covariate column 'temprature'"),
        ({"covariates": ["methanol", "methanol"]},
         "covariates names a covariate twice"),
        (_space("gbt", covariates=[["methanol"], ["nitrate_in", "nitrate_in"]]),
         "hyperopt.space.gbt.covariates names a covariate twice"),
        ({"archs": []}, "need at least one arch"),
        ({"archs": ["elastic_net", "elastic_net"]}, "archs names an arch twice"),
        ({"seeds": [0, 0]}, "seeds names a seed twice"),
        ({"ablation": {"seeds": [1, 2, 1]}}, "ablation.seeds names a seed twice"),
        ({"folds": {"n_folds": 0}},
         "folds: n_folds, train_block, val_block must be positive"),
        ({"folds": {"val_block": 0}},
         "folds: n_folds, train_block, val_block must be positive"),
        ({"folds": {"test_fraction": 1.0}}, "folds: test_fraction 1.0 outside (0, 1)"),
        ({"folds": {"n_folds": 5, "train_block": 3, "val_block": 1}},
         "folds: 5 folds with val_block 1 exceed one cycle of 4; "
         "validation ranges would repeat"),
        ({"final_split": {"train_fraction": 0.9, "val_fraction": 0.2}},
         "final_split: train 0.9 + val 0.2 leaves no test data"),
        ({"final_split": {"val_fraction": 0}}, "final_split: fractions must be positive"),
        ({"hyperopt": {"budget": 0}}, "hyperopt.budget must be >= 1"),
        ({"h": -1}, "history length h must be an integer >= 0, got -1"),
        ({"covariates": []}, "nowcasting with zero covariates has no inputs"),
        ({"ablation": {"h_values": [2, -1]}},
         "ablation.h_values: history length h must be an integer >= 0, got -1"),
        ({"task": "forecast", "ablation": {"covariates": []}},
         "ablation.covariates names no covariate"),
    ], ids=["hyperparam-float-count", "hyperparam-unknown-other-arch",
            "covariate-unknown", "covariate-target", "ablation-covariate-target",
            "ablation-covariate-twice", "space-covariate-unknown",
            "covariate-twice", "space-covariate-twice", "archs-empty", "arch-twice",
            "seed-twice", "ablation-seed-twice", "folds-zero", "val-block-zero", "test-fraction-one",
            "folds-exceed-cycle", "split-leaves-no-test", "split-fraction-zero",
            "budget-zero", "h-negative", "nowcast-no-covariates", "ablation-h-negative",
            "ablation-covariates-empty"])
    def test_bad_config_exits_2_before_reading_data(self, tmp_path, capsys, command,
                                                    override, message):
        cfg = write_config(tmp_path / "bad.yaml", dataset=str(tmp_path / "absent.csv"),
                           synth=None, **override)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("override,code", [
        ({"h": "x"}, 2),
        ({"hyperparams": {"elastic_net": {"alpha": "x"}}}, 2),
        ({"synth": "abc"}, 2),
        ({"hyperopt": "abc"}, 2),
        ({"ablation": "abc"}, 2),
        ({"dataset": "{tmp_path}"}, 3),
    ], ids=["h", "hyperparam", "synth", "hyperopt", "ablation", "dataset-dir"])
    def test_malformed_input_exits_with_one_line(self, tmp_path, capsys,
                                                 override, code):
        override = {k: v.format(tmp_path=tmp_path) if k == "dataset" else v
                    for k, v in override.items()}
        cfg = write_config(tmp_path / "bad.yaml", **override)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

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
        from denitlab.models import gbt
        leaf = gbt._leaf
        monkeypatch.setattr(gbt, "_leaf",
                            lambda value, idx, out: leaf(1.0e3, idx, out))
        cfg = write_config(tmp_path / "gbt.yaml", archs=["gbt"],
                           hyperparams={"gbt": {"n_trees": 3, "max_depth": 2}},
                           synth={"days": 6, "seed": 3})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        assert "training loss rose" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
    def test_out_naming_a_file_is_config_error(self, config_path, tmp_path,
                                               capsys, below):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert main(["train", "--config", str(config_path),
                     "--out", str(target.joinpath(*below))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert target.read_text() == "not a directory\n"


_CATEGORY_EXIT_CODES = {errors.ConfigError: 2, errors.DataError: 3,
                        errors.TrainingError: 4}


def _toolkit_errors():
    """Concrete error classes defined in ``denitlab.errors``."""
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.DenitlabError)
            and c.__module__ == errors.__name__
            and c not in (errors.DenitlabError, *_CATEGORY_EXIT_CODES)]


class TestErrorCategories:
    @pytest.mark.parametrize("cls", _toolkit_errors(), ids=lambda c: c.__name__)
    def test_one_category_sets_the_exit_code(self, cls, config_path, tmp_path,
                                             capsys, monkeypatch):
        categories = [b for b in _CATEGORY_EXIT_CODES if issubclass(cls, b)]
        assert len(categories) == 1

        def fail(config, out, args):
            raise cls("boom")

        monkeypatch.setitem(cli._COMMANDS, "report", fail)
        assert main(["report", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == \
            _CATEGORY_EXIT_CODES[categories[0]]
        assert capsys.readouterr().err.endswith(": boom\n")


@functools.cache
def _base_csv_lines():
    """A one-day synthetic CSV as lines: header, then 144 rows."""
    frame, _ = generate(SynthConfig(days=1, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        ds.save_csv(frame, path)
        return path.read_text().splitlines()


_BAD_CELLS = ["", "nan", "NaN", "inf", "-inf", "1e999", "abc", "1,5", " ", "0x1"]


@st.composite
def _generated_csv(draw):
    """A prefix of the base CSV with a few cells, rows and timestamps spoiled."""
    header, *lines = _base_csv_lines()
    rows = [line.split(",") for line in lines]
    rows = rows[:draw(st.integers(0, len(rows)))]
    for _ in range(draw(st.integers(0, 8))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        kind = draw(st.sampled_from(["cell", "short", "duplicate", "off_grid",
                                     "jump", "swap"]))
        if kind == "cell" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        elif kind == "short" and row:
            rows[i] = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "duplicate" and i > 0 and row and rows[i - 1]:
            row[0] = rows[i - 1][0]
        elif kind == "off_grid" and row:
            row[0] = row[0].replace(":00+", ":07+", 1)
        elif kind == "jump":
            del rows[i:i + draw(st.integers(1, 40))]
        elif kind == "swap" and i > 0:
            rows[i - 1], rows[i] = row, rows[i - 1]
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


class TestGeneratedCsv:
    """Any CSV the plant's logger could plausibly write ends in a known exit
    code, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(text=_generated_csv())
    def test_chain_exits_with_a_known_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            csv_path = tmp / "data.csv"
            csv_path.write_text(text)
            cfg = write_config(tmp / "exp.yaml", dataset=str(csv_path),
                               archs=["elastic_net", "gbt"],
                               hyperparams={"elastic_net": {"alpha": 1.0e-4},
                                            "gbt": {"n_trees": 3, "max_depth": 2}})
            doc = yaml.safe_load(cfg.read_text())
            del doc["synth"]
            cfg.write_text(yaml.safe_dump(doc))
            for command in ("train", "evaluate", "anomaly"):
                code = main([command, "--config", str(cfg), "--out", str(tmp / "o")])
                assert code in (0, 2, 3, 4)
                if code:
                    break
