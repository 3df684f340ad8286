"""Rerun checks: the determinism contract, run end to end through the CLI.

Each row of ``SCENARIOS`` names a config, an optional dataset, the commands
to run and the artifacts that two runs must write byte for byte (a glob may
stand for several files; every compared file must be non-empty). The
variant says what the two runs differ in:

- ``twice``: nothing, the same commands run again;
- ``jobs``: ``--jobs 1`` against ``--jobs 2``;
- ``chain``: one Python process calling ``cli.main`` for every command
  against one process per command;
- ``manifest``: the config against the ``config`` object its run recorded
  in ``manifest.json``;
- ``blas``: the BLAS thread variables unset against set to 1.

A row may also name text that no command of either run may print
(``never_prints``), such as a warning the fix of a defect silenced.

Every command runs as ``python -m denitlab.cli`` in its own subprocess, with
this checkout's ``src`` first on ``PYTHONPATH``. A new check is one more row.
The module lies outside ``testpaths``; run it with ``python -m pytest checks``
(about 90 s on two cores).
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
import yaml

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 900

COVARIATES = ["nitrate_in", "methanol", "water_flow"]
SMALL_SYNTH = {"days": 8, "seed": 5}
# 35 days: the pre-test 80% holds one 4-week train+val cycle of the CV folds
SEARCH_SYNTH = {"days": 35, "seed": 5}
NETWORK_BASE = {"task": "forecast", "archs": ["tcn", "recurrent"], "seeds": [0],
                "covariates": COVARIATES, "h": 2}
NETWORKS = {**NETWORK_BASE, "hyperparams": {"tcn": {"hidden": 8, "max_epochs": 2},
                                            "recurrent": {"hidden": 8, "max_epochs": 2}}}
NETWORK_FILES = ("models/tcn_seed0.bin", "models/recurrent_seed0.bin",
                 "train_logs.json", "report.csv", "horizons.json")
# a year of 10-minute samples, the paper's scale: every fit, the full design
# and the 15 ablation subsets, must end at an optimum well inside max_iter,
# so no command may warn that coordinate descent did not converge
PAPER_SCALE_ENET = {
    "task": "nowcast", "archs": ["elastic_net"], "seeds": [0], "h": 2,
    "hyperparams": {"elastic_net": {"alpha": 1.0e-3}},
    "ablation": {"covariates": ["temperature", *COVARIATES]},
    "synth": {"days": 365, "seed": 13}}
# one process reads and cleans the CSV once for the whole chain; separate
# processes read it once per command
CHAIN = {
    "task": "nowcast", "archs": ["elastic_net", "gbt"], "seeds": [0],
    "covariates": COVARIATES, "h": 1,
    "hyperparams": {"gbt": {"n_trees": 20, "max_depth": 2}},
    "ablation": {"covariates": COVARIATES},
    "synth": {"days": 12, "seed": 5, "faults": [
        {"kind": "methanol_dropout", "start": 1500, "duration": 24}]}}
# dropped rows load as gap records and blank cells as missing values, so
# every model and baseline row scores only the windows they leave
GAPPY = {"archs": ["elastic_net", "gbt"], "seeds": [0], "covariates": COVARIATES, "h": 2,
         "hyperparams": {"elastic_net": {"alpha": 1.0e-3},
                         "gbt": {"n_trees": 20, "max_depth": 2}}}
# json.dumps writes alpha 1.0e-5 as 1e-05, an exponent float without a dot
EXPONENT_ALPHA = yaml.safe_load((REPO / "configs/synth_forecast.yaml").read_text())
EXPONENT_ALPHA["hyperparams"]["elastic_net"]["alpha"] = 1.0e-5
# a first backwash at row 3: two of the 1,023 subset fits have an optimum
# where a weight changes sign, which coordinate descent alone does not reach
# in max_iter sweeps and an exact step reaches by activation
LATE_SIGN_CHANGE = yaml.safe_load((REPO / "configs/synth_small.yaml").read_text())
LATE_SIGN_CHANGE["synth"]["cleaning"] = {"first": 3}


def _two_decimals(rows):
    """A plant logger's 2 decimals: every column has ties and some have at
    most 256 values, one GBT bin each."""
    return rows[:1] + [r[:1] + [c and f"{float(c):.2f}" for c in r[1:]] for r in rows[1:]]


def _gappy(rows):
    """Two outages of 40 and 30 rows; about one cell in 97 blanked, the target too."""
    kept = [r for i, r in enumerate(rows[1:]) if not (600 <= i < 640 or 1800 <= i < 1830)]
    return rows[:1] + [r[:1] + ["" if (i * 31 + j * 17) % 97 == 0 else c
                                for j, c in enumerate(r[1:], 1)]
                       for i, r in enumerate(kept)]


#: name: (config whose ``synth`` section writes the CSV, rewrite of its rows or None)
DATASETS = {
    "e2e": ("configs/synth_e2e.yaml", None),
    "e2e_2dp": ("configs/synth_e2e.yaml", _two_decimals),
    "chain": (CHAIN, None),
    "gappy": ({"synth": {"days": 20, "seed": 7}}, _gappy),
}


@dataclass(frozen=True)
class Scenario:
    id: str
    variant: str
    config: str | dict  # a path under the repo, or a config written to YAML
    commands: tuple[str, ...]
    files: tuple[str, ...]
    dataset: str | None = None  # a DATASETS name, passed as --dataset
    manifest_has: str = ""  # text the recorded config must contain (manifest)
    never_prints: str = ""  # text no command may write to stdout or stderr


SCENARIOS = [
    Scenario("synth_forecast_manifest", "manifest", "configs/synth_forecast.yaml",
             ("train", "evaluate", "report"), ("report.csv", "horizons.json")),
    Scenario("exponent_alpha_manifest", "manifest", EXPONENT_ALPHA,
             ("train", "evaluate"), ("report.csv",), manifest_has='"alpha": 1e-05'),
    # full precision: no ties, and every GBT feature takes quantile bins
    Scenario("logger_full_gbt", "twice", "configs/synth_e2e.yaml", ("train",),
             ("models/gbt_seed0.bin", "train_logs.json"), dataset="e2e"),
    Scenario("logger_2dp_gbt", "twice", "configs/synth_e2e.yaml", ("train",),
             ("models/gbt_seed0.bin", "train_logs.json"), dataset="e2e_2dp"),
    # thousands of training windows: the whole-batch forwards and the
    # evaluate rollout each run in several row blocks
    Scenario("network_forecast", "twice", {**NETWORKS, "synth": SMALL_SYNTH},
             ("train", "evaluate"), NETWORK_FILES),
    # h=0, the first default h candidate, gives one-step windows: every tcn
    # tap but the newest falls before the window start
    Scenario("network_forecast_h0", "twice", {**NETWORKS, "h": 0, "synth": SMALL_SYNTH},
             ("train", "evaluate"), NETWORK_FILES),
    Scenario("network_hyperopt_jobs", "jobs", {
        **NETWORK_BASE, "synth": SEARCH_SYNTH,
        "hyperopt": {"budget": 2, "seed": 3, "space": {
            "tcn": {"hidden": [8], "levels": [2], "kernel_size": [2], "max_epochs": [2]},
            "recurrent": {"hidden": [8], "max_epochs": [2]}}}},
        ("hyperopt",), ("trials.csv", "best_spec_tcn.json", "best_spec_recurrent.json")),
    # no space overrides: every arch draws from its default dimensions
    Scenario("default_spaces_jobs", "jobs", {
        "task": "forecast", "archs": ["elastic_net", "gbt", "recurrent", "tcn"],
        "seeds": [0], "hyperopt": {"budget": 1}, "synth": SEARCH_SYNTH},
        ("hyperopt",), ("trials.csv", "best_spec_elastic_net.json", "best_spec_gbt.json",
                        "best_spec_recurrent.json", "best_spec_tcn.json")),
    # no space overrides: every trial fits elastic nets from the default
    # dimensions, and every fit must end at an optimum
    Scenario("enet_default_space_jobs", "jobs", {
        "task": "nowcast", "archs": ["elastic_net"], "seeds": [0],
        "hyperopt": {"budget": 8}, "synth": SEARCH_SYNTH},
        ("hyperopt",), ("trials.csv", "best_spec_elastic_net.json"),
        never_prints="did not converge"),
    # row subsampling makes each GBT fit depend on its seed, so every subset
    # row is the mean of two different scores
    Scenario("multi_seed_ablation_jobs", "jobs", {
        "task": "nowcast", "archs": ["gbt"], "seeds": [0], "covariates": COVARIATES,
        "h": 1, "hyperparams": {"gbt": {"n_trees": 10, "max_depth": 2, "subsample": 0.7}},
        "ablation": {"covariates": COVARIATES, "seeds": [0, 1], "h_values": [0, 1]},
        "synth": SMALL_SYNTH},
        ("ablate",), ("ablation.csv", "importance.json", "history.csv")),
    # train forks one worker per fit: each GBT seed subsamples its own rows
    # and each tcn seed draws its own weights; report reduces each row's seeds
    Scenario("multi_seed_train_jobs", "jobs", {
        "task": "nowcast", "archs": ["gbt", "tcn"], "seeds": [0, 1],
        "covariates": COVARIATES, "h": 1,
        "hyperparams": {"gbt": {"n_trees": 10, "max_depth": 2, "subsample": 0.7},
                        "tcn": {"hidden": 8, "max_epochs": 2}},
        "synth": SMALL_SYNTH},
        ("train", "evaluate", "report"), ("models/*.bin", "model.bin", "train_logs.json",
                                          "report.csv", "table1.json")),
    Scenario("in_process_chain", "chain", CHAIN,
             ("train", "evaluate", "report", "anomaly", "ablate"),
             ("cleaning_mask.json", "models/*.bin", "train_logs.json", "report.csv",
              "table1.json", "anomalies.json", "ablation.csv", "importance.json"),
             dataset="chain"),
    Scenario("paper_scale_enet", "twice", PAPER_SCALE_ENET, ("train", "ablate"),
             ("models/*.bin", "train_logs.json", "ablation.csv", "importance.json"),
             never_prints="did not converge"),
    Scenario("paper_scale_enet_blas", "blas", PAPER_SCALE_ENET, ("train",),
             ("models/*.bin", "train_logs.json"), never_prints="did not converge"),
    Scenario("sign_change_ablation", "twice", LATE_SIGN_CHANGE, ("ablate",),
             ("ablation.csv", "importance.json"), never_prints="did not converge"),
    Scenario("gappy_nowcast_report", "twice", {**GAPPY, "task": "nowcast"},
             ("train", "evaluate", "report"), ("report.csv", "table1.json"),
             dataset="gappy"),
    Scenario("gappy_forecast_report", "twice", {**GAPPY, "task": "forecast"},
             ("train", "evaluate", "report"), ("report.csv", "table1.json", "horizons.json"),
             dataset="gappy"),
    # the rollout windows come from build_windows, so the outages and blank
    # cells decide which anchors each network forecast scores
    Scenario("gappy_network_forecast", "twice", NETWORKS, ("train", "evaluate"),
             NETWORK_FILES, dataset="gappy"),
]

CHAIN_SCRIPT = """\
import sys
from denitlab.cli import main
for command in sys.argv[1].split(","):
    if main([command, *sys.argv[2:]]):
        sys.exit(1)
"""


def _python(*args, env=ENV) -> str:
    """Run Python with ``args``; gives what it printed, stdout then stderr."""
    done = subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    assert done.returncode == 0, f"{args} exited {done.returncode}:\n{done.stderr}"
    return done.stdout + done.stderr


def _run(commands, out: Path, config: Path, extra=(), env=ENV) -> str:
    """Each command in its own ``python -m denitlab.cli`` process; gives what
    they printed."""
    return "".join(_python("-m", "denitlab.cli", command, "--config", config,
                           "--out", out, *extra, env=env) for command in commands)


def _config_file(config, path: Path) -> Path:
    if isinstance(config, str):
        return REPO / config
    path.write_text(yaml.safe_dump(config))
    return path


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    """``dataset(name)``: the CSV of ``DATASETS[name]``, written once per session."""
    made: dict[str, Path] = {}

    def make(name: str) -> Path:
        if name not in made:
            source, rewrite = DATASETS[name]
            root = tmp_path_factory.mktemp(name)
            _run(["synth"], root, _config_file(source, root / "source.yaml"))
            made[name] = root / "data.csv"
            if rewrite is not None:
                with open(root / "data.csv", newline="") as fh:
                    rows = rewrite(list(csv.reader(fh)))
                made[name] = root / f"{name}.csv"
                with open(made[name], "w", newline="") as fh:
                    csv.writer(fh).writerows(rows)
        return made[name]

    return make


# each variant runs the two sides into ``a`` and ``b`` and gives what they printed

def _twice(row, config, extra, a, b):
    return "".join(_run(row.commands, out, config, extra) for out in (a, b))


def _jobs(row, config, extra, a, b):
    return "".join(_run(row.commands, out, config, [*extra, "--jobs", jobs])
                   for out, jobs in ((a, 1), (b, 2)))


def _chain(row, config, extra, a, b):
    return (_python("-c", CHAIN_SCRIPT, ",".join(row.commands),
                    "--config", config, "--out", a, *extra)
            + _run(row.commands, b, config, extra))


def _manifest(row, config, extra, a, b):
    printed = _run(row.commands, a, config, extra)
    # JSON is YAML, so the recorded config is written out as is
    recorded = json.dumps(json.loads((a / "manifest.json").read_text())["config"])
    assert row.manifest_has in recorded
    rerun = a.parent / "manifest_config.yaml"
    rerun.write_text(recorded)
    return printed + _run(row.commands, b, rerun, extra)


def _blas(row, config, extra, a, b):
    unset = {k: v for k, v in ENV.items() if k not in BLAS_VARS}
    return (_run(row.commands, a, config, extra, env=unset)
            + _run(row.commands, b, config, extra,
                   env={**unset, **dict.fromkeys(BLAS_VARS, "1")}))


VARIANTS = {"twice": _twice, "jobs": _jobs, "chain": _chain,
            "manifest": _manifest, "blas": _blas}


def _compare(patterns, a: Path, b: Path) -> None:
    for pattern in patterns:
        names = sorted(p.relative_to(a) for p in a.glob(pattern))
        assert names, f"no {pattern} in {a}"
        assert names == sorted(p.relative_to(b) for p in b.glob(pattern))
        for name in names:
            first = (a / name).read_bytes()
            assert first, f"{name} is empty"
            assert first == (b / name).read_bytes(), f"{name} differs between runs"


@pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.id)
def test_rerun_is_byte_identical(row, dataset, tmp_path):
    config = _config_file(row.config, tmp_path / "config.yaml")
    extra = [] if row.dataset is None else ["--dataset", dataset(row.dataset)]
    a, b = tmp_path / "a", tmp_path / "b"
    printed = VARIANTS[row.variant](row, config, extra, a, b)
    _compare(row.files, a, b)
    if row.never_prints:
        assert row.never_prints not in printed, printed
