"""Forecast model scoring pinned to earlier code.

The golden digest of the ``model_pairs`` forecast triples, for all four archs
on a gappy frame with blank covariate and target cells, was recorded from the
rollout that gathered its windows from the frame by hand at anchors that
``admissible_anchors`` and a separate covariate rule admitted, before the
rollout took its windows from ``build_windows``; any change to which anchors
a model scores, or to its rollout, moves it. The other tests check what the
rollout's window set must match and the message when no anchor is admissible.
"""

import hashlib

import numpy as np
import pytest

from denitlab.dataset import Gap, apply_scaler, make_final_split
from denitlab.errors import NoAdmissibleWindows, SpecMismatch
from denitlab.evaluation import model_pairs
from denitlab.models import ModelSpec, predict_batch, rollout_forecast_batch
from denitlab.pipeline import train_on_plan
from denitlab.preprocess import build_windows

from conftest import make_frame

SMALL = {
    "elastic_net": {"alpha": 1e-3},
    "gbt": {"n_trees": 10, "max_depth": 2},
    "recurrent": {"hidden": 4, "max_epochs": 2},
    "tcn": {"hidden": 4, "levels": 2, "kernel_size": 2, "max_epochs": 2},
}

# one digest per arch, so a change to one arch's numbers leaves the others pinned
GOLDEN = {
    "elastic_net": "0106110166693dbcd34fd940f74e776dc6e47fe22732b58fe376aa470e4f566b",
    "gbt": "9e9045649819c0b5f0ef54fe58f3c4c7f740fcc09605108d84104ae9464f28de",
    "recurrent": "30c220e0ad175ed335862cca8d038537b17a4d0359635ce40556191a84af0711",
    "tcn": "32bb53c1940fa0cdaa8c30c729905752cb85bd8d467e41ba31512f2d3bdbc23e",
}


def _frame(n=900, seed=11):
    """A target and two covariates with blank cells, and five gap breaks."""
    rng = np.random.default_rng(seed)
    cols = {name: 10 + np.sin(np.arange(n) / 20) + rng.normal(size=n)
            for name in ("nitrate_in", "methanol", "nitrate_out")}
    for values in cols.values():
        values[rng.random(n) < 0.02] = np.nan
    breaks = sorted(rng.choice(np.arange(5, n - 5), size=5, replace=False).tolist())
    return make_frame(cols, gaps=tuple(Gap(int(b), 2) for b in breaks))


def test_model_forecast_pairs_match_recorded_digest():
    frame = _frame()
    plan = make_final_split(frame, 0.6, 0.2)
    digests = {}
    for arch, hp in SMALL.items():
        digest = hashlib.sha256()
        for h in (0, 2):
            spec = ModelSpec(arch, ("nitrate_in", "methanol"), h=h, task="forecast",
                             hyperparams=hp, seed=1)
            model, _ = train_on_plan(spec, frame, plan)
            for split in ("train", "validation", "test"):
                anchors, pred, actual = model_pairs(model, frame, getattr(plan, split))
                assert pred.shape == actual.shape == (6 * len(anchors),)
                assert np.isfinite(pred).all() and np.isfinite(actual).all()
                digest.update(np.ascontiguousarray(anchors, dtype=np.int64).tobytes())
                digest.update(np.ascontiguousarray(pred, dtype=float).tobytes())
                digest.update(np.ascontiguousarray(actual, dtype=float).tobytes())
        digests[arch] = digest.hexdigest()
    assert digests == GOLDEN


def _enet_h2():
    """The frame, its plan and an h=2 elastic-net forecast model on nitrate_in."""
    frame = _frame()
    plan = make_final_split(frame, 0.6, 0.2)
    spec = ModelSpec("elastic_net", ("nitrate_in",), h=2, task="forecast",
                     hyperparams={"alpha": 1e-3}, seed=1)
    return frame, plan, train_on_plan(spec, frame, plan)[0]


def test_no_admissible_anchor_names_the_spec_h_and_the_horizon():
    frame, _, model = _enet_h2()
    # an anchor t needs the nine rows [t-2, t+6]; the range holds eight
    with pytest.raises(NoAdmissibleWindows) as info:
        model_pairs(model, frame, ((100, 108),))
    assert str(info.value) == "no admissible forecast anchors (h=2, horizon=6)"


def test_rollout_window_set_must_match_the_spec():
    frame, plan, model = _enet_h2()
    scaled = apply_scaler(frame, model.scaler)
    for covariates, h, y_hist in [(("methanol",), 7, True),  # other covariate
                                  (("nitrate_in",), 7, False),  # no target history
                                  (("nitrate_in",), 1, True)]:  # shorter than h
        ws = build_windows(scaled, covariates, h, horizon=1,
                           with_target_history=y_hist, plan_ranges=plan.test)
        with pytest.raises(SpecMismatch):
            rollout_forecast_batch(model, ws)
    ws = build_windows(scaled, ("nitrate_in",), 2, horizon=1,
                       with_target_history=True, plan_ranges=plan.test)
    # with the spec's own windows the rollout is one step: predict_batch's
    assert np.array_equal(rollout_forecast_batch(model, ws),
                          predict_batch(model, ws)[:, None])
