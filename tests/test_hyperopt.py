import math

import numpy as np
import pytest

from denitlab.dataset import make_cv_folds, make_final_split
from denitlab.errors import InvalidConfig
from denitlab.hyperopt import (
    GridDim, LogUniformDim, SearchSpace, Trial, search,
)
from denitlab.models import ModelSpec, serialize
from denitlab.pipeline import train_on_plan
from denitlab.synthpilot import generate

from conftest import learnable_config


def _frame_and_folds(days=12, seed=0):
    frame, _ = generate(learnable_config(days=days, seed=seed))
    folds = make_cv_folds(frame, n_folds=2, train_block=3 * 144, val_block=144)
    return frame, folds


def _space(covariate_choices):
    return SearchSpace(arch="elastic_net", dimensions={
        "h": GridDim((0, 1)),
        "covariates": GridDim(tuple(tuple(c) for c in covariate_choices)),
        "alpha": LogUniformDim(1e-6, 1e-2),
        "l1_ratio": GridDim((0.0, 0.5)),
    })


class TestSearchSpace:
    def test_requires_h_and_covariates(self):
        with pytest.raises(InvalidConfig):
            SearchSpace(arch="elastic_net", dimensions={"h": GridDim((1,))})

    def test_empty_dimension_rejected(self):
        with pytest.raises(InvalidConfig):
            GridDim(())
        with pytest.raises(InvalidConfig):
            LogUniformDim(0.0, 1.0)

    def test_sampling_is_seeded(self):
        space = _space([("nitrate_in",), ("methanol",)])
        a = space.sample_spec(np.random.default_rng(5), "nowcast")
        b = space.sample_spec(np.random.default_rng(5), "nowcast")
        assert a == b


class TestSearch:
    def test_budget_one_returns_the_single_sample(self):
        frame, folds = _frame_and_folds()
        space = _space([("nitrate_in",)])
        best, trials = search(space, frame, folds, "nowcast", budget=1,
                              search_seed=3)
        assert len(trials) == 1
        assert best == trials[0].spec

    def test_budget_below_one_rejected(self):
        frame, folds = _frame_and_folds()
        with pytest.raises(InvalidConfig, match="hyperopt.budget must be >= 1"):
            search(_space([("nitrate_in",)]), frame, folds, "nowcast", budget=0)

    def test_deterministic_rerun(self):
        frame, folds = _frame_and_folds()
        space = _space([("nitrate_in",), ("methanol",), ("temperature",)])
        best1, trials1 = search(space, frame, folds, "nowcast", budget=6,
                                search_seed=11)
        best2, trials2 = search(space, frame, folds, "nowcast", budget=6,
                                search_seed=11)
        assert best1 == best2
        assert trials1 == trials2

    def test_parallel_jobs_match_serial(self):
        frame, folds = _frame_and_folds()
        space = _space([("nitrate_in",), ("temperature",)])
        _, serial = search(space, frame, folds, "nowcast", budget=4,
                           search_seed=2, jobs=1)
        _, threaded = search(space, frame, folds, "nowcast", budget=4,
                             search_seed=2, jobs=4)
        assert serial == threaded

    def test_informative_covariate_wins_on_linear_data(self):
        # the target is linear in nitrate_in; subsets without it cannot compete
        frame, folds = _frame_and_folds(days=12, seed=4)
        space = _space([("nitrate_in",), ("temperature",), ("ammonium",),
                        ("oxygen_in",)])
        best, trials = search(space, frame, folds, "nowcast", budget=12,
                              search_seed=0)
        assert "nitrate_in" in best.covariates
        best_mse = min(t.mean_val_mse for t in trials)
        for t in trials:
            if "nitrate_in" not in t.spec.covariates:
                assert t.mean_val_mse > best_mse

    def test_mean_of_best_bounds_all_trials(self):
        frame, folds = _frame_and_folds()
        space = _space([("nitrate_in",), ("methanol",)])
        best, trials = search(space, frame, folds, "nowcast", budget=5,
                              search_seed=9)
        best_mean = min(t.mean_val_mse for t in trials)
        winner = next(t for t in trials if t.spec == best)
        assert winner.mean_val_mse == best_mean

    def test_search_never_touches_test_rows(self):
        # poison the common test tail: search must not notice
        frame, folds = _frame_and_folds()
        values = np.array(frame.values)
        test_start = folds[0].test[0][0]
        values[test_start:, frame.col_index("nitrate_out")] = np.nan
        poisoned = frame.with_values(values)
        space = _space([("nitrate_in",)])
        best, trials = search(space, poisoned, folds, "nowcast", budget=2,
                              search_seed=1)
        assert all(math.isfinite(t.mean_val_mse) for t in trials)


class TestTrial:
    SPEC = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast")

    def test_tied_folds_give_the_fold_score(self):
        # a sequential sum of three 0.1s over 3 is 0.10000000000000002
        assert Trial(0, self.SPEC, fold_val_mse=(0.1, 0.1, 0.1)).mean_val_mse == 0.1

    @pytest.mark.filterwarnings("error")
    def test_a_failed_fold_scores_inf_without_a_warning(self):
        assert Trial(0, self.SPEC, fold_val_mse=(0.1, math.inf)).mean_val_mse == math.inf
        assert Trial(0, self.SPEC, fold_val_mse=(math.inf,) * 2).mean_val_mse == math.inf


class TestFinalize:
    def test_uses_final_split_and_logs_stop(self):
        frame, _ = _frame_and_folds()
        spec = ModelSpec("recurrent", ("nitrate_in",), h=1, task="nowcast",
                         hyperparams={"hidden": 4, "max_epochs": 3}, seed=0)
        model, log = train_on_plan(spec, frame, make_final_split(frame))
        assert log.stop_reason in ("early_stop", "max_iter", "converged")
        assert log.stopped_at == len(log.train_loss) - 1

    def test_repeated_finalize_bit_identical(self):
        frame, _ = _frame_and_folds()
        spec = ModelSpec("tcn", ("nitrate_in", "methanol"), h=2, task="nowcast",
                         hyperparams={"hidden": 4, "levels": 1, "kernel_size": 2,
                                      "max_epochs": 3}, seed=8)
        m1, _ = train_on_plan(spec, frame, make_final_split(frame))
        m2, _ = train_on_plan(spec, frame, make_final_split(frame))
        assert serialize(m1) == serialize(m2)

    def test_independent_of_fold_ordering(self):
        frame, folds = _frame_and_folds()
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                         seed=0)
        plan = make_final_split(frame)
        m1, _ = train_on_plan(spec, frame, plan)
        m2, _ = train_on_plan(spec, frame, plan)
        assert serialize(m1) == serialize(m2)
