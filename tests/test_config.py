import copy
import json
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import denitlab
from denitlab import config as config_module
from denitlab.cli import _write_manifest
from denitlab.config import build_search_space, load_config
from denitlab.errors import InvalidConfig
from denitlab.models import ModelSpec

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(ROOT.glob("configs/*.yaml")) + [ROOT / "perfbench/cli_gappy_nowcast.yaml"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_manifest_config_loads_back(path, tmp_path):
    """``resolved_dict()`` is what manifest.json records; fed back as a
    config (JSON is YAML) it gives the same experiment."""
    config = load_config(path)
    copy_path = tmp_path / "manifest_config.json"
    copy_path.write_text(json.dumps(config.resolved_dict()))
    again = load_config(copy_path)
    assert again == config
    assert again.run_id() == config.run_id()


def test_pyproject_version_is_package_version():
    found = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert found.group(1) == denitlab.__version__


def test_run_id_keyed_on_package_version(monkeypatch):
    # the same whether the package is installed or run from a source checkout
    config = load_config(ROOT / "configs/synth_e2e.yaml")
    run_id = config.run_id()
    monkeypatch.setattr(config_module, "__version__", "0.0.0")
    assert config.run_id() != run_id


def test_manifest_exponent_floats_load_back(tmp_path):
    """``json.dumps`` writes 1.0e-5 as ``1e-05`` and 1.0e16 as ``1e+16``;
    YAML 1.1 would read both as strings."""
    path = tmp_path / "config.yaml"
    path.write_text((ROOT / "configs/synth_e2e.yaml").read_text().replace(
        "elastic_net: {alpha: 1.0e-3}", "elastic_net: {alpha: 1.0e-5}"))
    config = load_config(path)
    assert config.hyperparams["elastic_net"]["alpha"] == 1.0e-5
    _write_manifest(config, tmp_path, "train")
    recorded = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert "1e-05" in json.dumps(recorded)
    copy_path = tmp_path / "manifest_config.yaml"
    copy_path.write_text(json.dumps(recorded))
    again = load_config(copy_path)
    ModelSpec(arch="elastic_net", covariates=again.covariates, h=again.h,
              task=again.task, hyperparams=again.hyperparams["elastic_net"])
    assert again == config
    assert again.run_id() == config.run_id()
    copy_path.write_text("hyperopt: {space: {elastic_net: {alpha: "
                         "{log_uniform: [1e-05, 1e+16]}}}}")
    space = load_config(copy_path).hyperopt.space
    assert space == {"elastic_net": {"alpha": {"log_uniform": [1.0e-5, 1.0e16]}}}


def test_search_space_takes_every_hyperparameter_of_its_arch(tmp_path):
    # tol and max_iter are hyperparameters outside the default space, so they
    # are appended; h and covariates are replaced where they stand
    path = tmp_path / "space.yaml"
    path.write_text(yaml.safe_dump({"hyperopt": {"space": {"elastic_net": {
        "tol": [1.0e-6], "max_iter": [500], "h": [1], "covariates": [["methanol"]]}}}},
        sort_keys=False))
    config = load_config(path)
    dims = build_search_space(config, "elastic_net").dimensions
    assert list(dims) == ["alpha", "l1_ratio", "h", "covariates", "tol", "max_iter"]


def _valid_config() -> dict:
    """Every field of every section, nested synth fields included."""
    doc = load_config(ROOT / "configs/synth_e2e.yaml").resolved_dict()
    doc["dataset"] = "data.csv"
    doc["synth"]["carrier"]["refills"] = [[2, 3.5]]
    doc["hyperopt"]["space"] = {"elastic_net": {
        "alpha": {"log_uniform": [1.0e-4, 1.0]},
        "l1_ratio": {"grid": [0.1, 0.5]},
        "covariates": {"choice": [["methanol"], ["nitrate_in", "methanol"]]}}}
    return doc


VALID = _valid_config()


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = list(_leaves(VALID))

KINDS = {
    str: st.text(max_size=8),
    float: st.floats(),
    bool: st.booleans(),
    list: st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    dict: st.dictionaries(st.text(min_size=1, max_size=4), st.integers(-3, 3),
                          max_size=2),
}


def test_valid_config_loads():
    assert len(LEAVES) > 100
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.yaml"
        path.write_text(yaml.safe_dump(VALID))
        load_config(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_leaf_of_another_kind_is_accepted_or_a_config_error(data):
    path = data.draw(st.sampled_from(LEAVES))
    doc = copy.deepcopy(VALID)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = type(parent[path[-1]])
    parent[path[-1]] = data.draw(st.one_of(
        [strategy for k, strategy in KINDS.items() if k is not kind]))
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc))
        try:
            load_config(config_path)
        except InvalidConfig:
            pass
