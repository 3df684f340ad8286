import math

import numpy as np
import pytest

from denitlab.ablation import covariate_sweep, history_sweep
from denitlab.dataset import make_cv_folds, make_final_split
from denitlab.errors import MissingColumn, TrainingLossRose
from denitlab.hyperopt import GridDim, SearchSpace, search
from denitlab.models import ModelSpec, gbt
from denitlab.synthpilot import generate

from conftest import learnable_config

GBT = {"n_trees": 3, "max_depth": 2}


@pytest.fixture(scope="module")
def frame():
    frame, _ = generate(learnable_config(days=8, seed=2))
    return frame


@pytest.fixture()
def fail_wide_fits(monkeypatch):
    """GBT fits on more than one input column raise the given error."""
    def install(exc_type):
        original = gbt._Bins

        def bins(X):
            if X.shape[1] > 1:
                raise exc_type("boom")
            return original(X)

        monkeypatch.setattr(gbt, "_Bins", bins)
    return install


class TestTrialFailurePolicy:
    """A failed training scores as failed; any other error ends the sweep."""

    def _search(self, frame):
        folds = make_cv_folds(frame, n_folds=2, train_block=3 * 144, val_block=144)
        space = SearchSpace(arch="gbt", dimensions={
            "h": GridDim((0,)),
            "covariates": GridDim((("nitrate_in",), ("nitrate_in", "methanol"))),
            "n_trees": GridDim((3,)), "max_depth": GridDim((2,))})
        return search(space, frame, folds, "nowcast", budget=6, search_seed=0)

    def _base(self):
        return ModelSpec("gbt", ("nitrate_in",), h=0, task="nowcast",
                         hyperparams=GBT, seed=0)

    def test_search_scores_failed_folds_inf(self, frame, fail_wide_fits):
        fail_wide_fits(TrainingLossRose)
        best, trials = self._search(frame)
        failed = [t for t in trials if len(t.spec.covariates) > 1]
        assert failed and len(failed) < len(trials)
        for t in trials:
            assert all(math.isinf(v) == (t in failed) for v in t.fold_val_mse)
        assert best.covariates == ("nitrate_in",)

    def test_covariate_sweep_notes_training_failed(self, frame, fail_wide_fits):
        fail_wide_fits(TrainingLossRose)
        table = covariate_sweep(self._base(), ("nitrate_in", "methanol"), frame,
                                make_final_split(frame))
        notes = {r.bitmask: (r.val_mse, r.test_mse, r.note) for r in table.rows}
        assert notes[3] == (None, None, "training failed")
        for mask in (1, 2):
            val, test, note = notes[mask]
            assert np.isfinite(val) and np.isfinite(test) and note == ""

    def test_history_sweep_gives_none(self, frame, fail_wide_fits):
        fail_wide_fits(TrainingLossRose)
        pairs = history_sweep(self._base(), (0, 1), frame, make_final_split(frame))
        assert pairs[0][0] == 0 and np.isfinite(pairs[0][1])
        assert pairs[1] == (1, None)

    def test_other_errors_propagate(self, frame, fail_wide_fits):
        fail_wide_fits(MissingColumn)
        plan = make_final_split(frame)
        with pytest.raises(MissingColumn):
            self._search(frame)
        with pytest.raises(MissingColumn):
            covariate_sweep(self._base(), ("nitrate_in", "methanol"), frame, plan)
        with pytest.raises(MissingColumn):
            history_sweep(self._base(), (0, 1), frame, plan)
