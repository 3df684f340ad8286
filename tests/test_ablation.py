import json
from dataclasses import replace

import numpy as np
import pytest

from denitlab.ablation import (
    AblationRow, AblationTable, covariate_sweep, history_sweep, importance,
)
from denitlab.dataset import make_final_split
from denitlab.errors import EmptyTable, GuardrailExceeded
from denitlab.models import ModelSpec
from denitlab.pipeline import prepare_frame
from denitlab.synthpilot import SynthConfig, generate

from conftest import learnable_config, make_frame

BASE = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                 hyperparams={"alpha": 1e-5}, seed=0)


@pytest.fixture(scope="module")
def linear_frame():
    frame, _ = generate(learnable_config(days=8, seed=2))
    return frame


class TestCovariateSweep:
    def test_three_covariates_give_seven_scored_rows(self, linear_frame):
        plan = make_final_split(linear_frame)
        table = covariate_sweep(BASE, ("nitrate_in", "temperature", "ammonium"),
                                linear_frame, plan)
        assert len(table.rows) == 7
        assert len(table.scored_rows()) == 7
        assert [r.bitmask for r in table.rows] == list(range(1, 8))

    def test_bitmasks_enumerate_power_set(self, linear_frame):
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature")
        table = covariate_sweep(BASE, names, linear_frame, plan)
        assert [r.bitmask for r in table.rows] == [1, 2, 3]
        assert table.rows[0].covariates == ("nitrate_in",)
        assert table.rows[1].covariates == ("temperature",)
        assert table.rows[2].covariates == names

    def test_empty_seeds_train_the_base_seed(self, linear_frame):
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature")
        table = covariate_sweep(BASE, names, linear_frame, plan, seeds=())
        assert table == covariate_sweep(BASE, names, linear_frame, plan)

    def test_guardrail(self, linear_frame):
        plan = make_final_split(linear_frame)
        with pytest.raises(GuardrailExceeded):
            covariate_sweep(BASE, tuple(f"c{i}" for i in range(17)),
                            linear_frame, plan)

    def test_single_factor_dependence_ranks_subsets(self, linear_frame):
        # y is driven by nitrate_in alone: every subset containing it must
        # beat the complementary subset without it
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature", "ammonium")
        table = covariate_sweep(BASE, names, linear_frame, plan)
        scores = {r.bitmask: r.test_mse for r in table.scored_rows()}
        full = 2 ** len(names) - 1
        for mask in range(1, full + 1):
            if mask & 1:
                complement = mask & ~1
                if complement:
                    assert scores[mask] < scores[complement]

    def test_deterministic_rerun(self, linear_frame):
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature")
        t1 = covariate_sweep(BASE, names, linear_frame, plan)
        t2 = covariate_sweep(BASE, names, linear_frame, plan, jobs=3)
        assert t1.rows == t2.rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_seed_rows_average_the_single_seed_sweeps(self, linear_frame,
                                                            jobs):
        # row subsampling makes a GBT fit depend on its seed
        base = ModelSpec("gbt", ("nitrate_in",), h=0, task="nowcast",
                         hyperparams={"n_trees": 3, "max_depth": 2,
                                      "subsample": 0.7}, seed=0)
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature")
        a, b = (covariate_sweep(replace(base, seed=s), names, linear_frame, plan)
                for s in (0, 1))
        both = covariate_sweep(base, names, linear_frame, plan, seeds=(0, 1),
                               jobs=jobs)
        assert any(ra.test_mse != rb.test_mse
                   for ra, rb in zip(a.scored_rows(), b.scored_rows()))
        assert [r.bitmask for r in both.rows] == [1, 2, 3]
        for r, ra, rb in zip(both.scored_rows(), a.scored_rows(), b.scored_rows()):
            assert r.covariates == ra.covariates and r.note == ""
            assert r.val_mse == (ra.val_mse + rb.val_mse) / 2
            assert r.test_mse == (ra.test_mse + rb.test_mse) / 2


class TestSeedMeans:
    """A row's seeds reduce by ``evaluation.replicate_mean``: seeds that tie
    give the single-seed row itself."""

    BASE = ModelSpec("elastic_net", ("nitrate_in", "methanol", "temperature"), h=1,
                     task="nowcast", hyperparams={"alpha": 1e-3}, seed=0)

    @pytest.fixture(scope="class")
    def planned(self):
        frame, _ = prepare_frame(generate(SynthConfig(days=8, seed=3))[0])
        return frame, make_final_split(frame)

    def test_tied_seeds_give_the_single_seed_covariate_sweep(self, planned):
        frame, plan = planned
        names = self.BASE.covariates
        one = covariate_sweep(self.BASE, names, frame, plan, seeds=(0,))
        three = covariate_sweep(self.BASE, names, frame, plan, seeds=(0, 1, 2))
        assert three == one

    def test_tied_seeds_give_the_single_seed_history_sweep(self, planned):
        frame, plan = planned
        one = history_sweep(self.BASE, (0, 1, 2), frame, plan, seeds=(0,))
        three = history_sweep(self.BASE, (0, 1, 2), frame, plan, seeds=(0, 1, 2))
        assert three == one


def _toy_table(scores):
    """Synthetic 2-covariate table with given test MSEs by bitmask."""
    names = ("a", "b")
    rows = []
    for mask in range(1, 4):
        covs = tuple(n for i, n in enumerate(names) if mask >> i & 1)
        rows.append(AblationRow(mask, covs, scores[mask], scores[mask]))
    return AblationTable(covariate_names=names, rows=tuple(rows))


class TestImportance:
    def test_counts_partition_scored_rows(self, linear_frame):
        plan = make_final_split(linear_frame)
        names = ("nitrate_in", "temperature", "ammonium")
        table = covariate_sweep(BASE, names, linear_frame, plan)
        doc = importance(table)
        for cov in doc["covariates"].values():
            assert cov["n_with"] + cov["n_without"] == len(table.scored_rows())

    def test_exclusive_covariate_has_full_prevalence(self):
        # covariate 'a' appears in exactly the best k rows
        table = _toy_table({1: 0.1, 3: 0.2, 2: 5.0})
        by_name = importance(table, k=2)["covariates"]
        assert by_name["a"]["top_k_prevalence"] == 1.0
        assert by_name["b"]["top_k_prevalence"] == 0.5

    def test_symmetric_scores_balance_means(self):
        table = _toy_table({1: 1.0, 2: 1.0, 3: 1.0})
        for cov in importance(table, k=3)["covariates"].values():
            assert cov["mean_mse_with"] == pytest.approx(1.0)
            assert cov["mean_mse_without"] == pytest.approx(1.0)

    def test_default_k_is_five_percent_ceiling(self):
        table = _toy_table({1: 0.1, 2: 0.2, 3: 0.3})
        assert importance(table)["top_k"] == 1  # ceil(0.05 * 3)

    def test_empty_table_rejected(self):
        empty = AblationTable(covariate_names=("a",), rows=(
            AblationRow(1, ("a",), None, None),))
        with pytest.raises(EmptyTable):
            importance(empty)

    def test_json_export_shape(self):
        doc = importance(_toy_table({1: 0.1, 2: 0.2, 3: 0.3}))
        parsed = json.loads(json.dumps(doc))
        assert list(parsed) == ["top_k", "covariates"]
        assert list(parsed["covariates"]) == ["a", "b"]
        assert list(parsed["covariates"]["a"]) == [
            "mean_mse_with", "mean_mse_without", "n_with", "n_without",
            "top_k_prevalence"]


class TestHistorySweep:
    def test_single_h_single_pair(self, linear_frame):
        plan = make_final_split(linear_frame)
        pairs = history_sweep(BASE, [1], linear_frame, plan)
        assert len(pairs) == 1
        assert pairs[0][0] == 1
        assert pairs[0][1] is not None

    def test_one_step_memory_saturates_at_h_one(self):
        # the target copies the covariate's previous value: useless at h=0,
        # exact from h=1 on
        rng = np.random.default_rng(0)
        u = rng.normal(size=400)
        y = np.empty(400)
        y[0] = 0.0
        y[1:] = u[:-1]
        frame = make_frame({"nitrate_in": u, "nitrate_out": y})
        plan = make_final_split(frame)
        base = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                         hyperparams={"alpha": 0.0, "tol": 1e-12,
                                      "max_iter": 20000}, seed=0)
        pairs = dict(history_sweep(base, [0, 1, 2], frame, plan))
        assert pairs[1] < pairs[0] * 0.01
        assert pairs[2] == pytest.approx(pairs[1], abs=1e-6)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_seed_rows_average_the_single_seed_sweeps(self, linear_frame,
                                                            jobs):
        base = ModelSpec("gbt", ("nitrate_in", "temperature"), h=0, task="nowcast",
                         hyperparams={"n_trees": 3, "max_depth": 2,
                                      "subsample": 0.7}, seed=0)
        plan = make_final_split(linear_frame)
        hs = [0, 1, 2]
        a, b = (history_sweep(replace(base, seed=s), hs, linear_frame, plan)
                for s in (0, 1))
        both = history_sweep(base, hs, linear_frame, plan, seeds=(0, 1), jobs=jobs)
        assert any(ra != rb for ra, rb in zip(a, b))
        assert both == [(h, (sa + sb) / 2) for (h, sa), (_, sb) in zip(a, b)]

    def test_rerun_identical(self, linear_frame):
        plan = make_final_split(linear_frame)
        a = history_sweep(BASE, [0, 1], linear_frame, plan)
        b = history_sweep(BASE, [0, 1], linear_frame, plan, jobs=2)
        assert a == b
