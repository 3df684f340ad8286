"""Baseline scoring pinned to earlier code.

The golden digest of the baseline score pairs, on a gappy frame with blank
cells, was recorded from the hand-written anchor gathers that
``_baseline_pairs`` used before it took its windows from ``build_windows``;
any change to which anchors a baseline scores, or to its predictions, moves
it. The running mean is checked bit for bit against its earlier loop.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.baselines import REPORT_BASELINES, RUNNING_MEAN, SEASONAL, TRAINING_MEAN, \
    TREND3, TREND6, running_mean_predict
from denitlab.dataset import Gap, make_final_split
from denitlab.evaluation import _baseline_pairs

from conftest import make_frame

REPORT_ROWS = {
    "nowcast": (TRAINING_MEAN, RUNNING_MEAN),
    "forecast": (TRAINING_MEAN, SEASONAL, TREND3, TREND6),
}

GOLDEN = "02254cf2355669e796fb8646561dc006fb883b8b83a1c1f3bdc78c64eea53f1b"


def _frame(n=900, seed=7):
    """A target and two covariates with blank cells, and five gap breaks."""
    rng = np.random.default_rng(seed)
    cols = {name: 10 + np.sin(np.arange(n) / 20) + rng.normal(size=n)
            for name in ("nitrate_in", "methanol", "nitrate_out")}
    for values in cols.values():
        values[rng.random(n) < 0.04] = np.nan
    breaks = sorted(rng.choice(np.arange(5, n - 5), size=5, replace=False).tolist())
    return make_frame(cols, gaps=tuple(Gap(int(b), 2) for b in breaks))


def test_baseline_pairs_match_recorded_digest():
    frame = _frame()
    plan = make_final_split(frame, 0.6, 0.2)
    digest = hashlib.sha256()
    for task, specs in REPORT_ROWS.items():
        for spec in specs:
            for split in ("train", "validation", "test"):
                _, pred, actual = _baseline_pairs(spec, frame, plan, split, task)
                assert pred.shape == actual.shape and np.isfinite(pred).all()
                digest.update(np.ascontiguousarray(pred, dtype=float).tobytes())
                digest.update(np.ascontiguousarray(actual, dtype=float).tobytes())
    assert digest.hexdigest() == GOLDEN


def test_baseline_anchors_index_the_truth():
    frame = _frame()
    plan = make_final_split(frame, 0.6, 0.2)
    y = frame.col("nitrate_out")
    for task, specs in REPORT_ROWS.items():
        for spec in specs:
            for split in ("train", "validation", "test"):
                anchors, _, actual = _baseline_pairs(spec, frame, plan, split, task)
                if task == "nowcast":
                    assert np.array_equal(actual, y[anchors])
                else:
                    assert np.array_equal(actual.reshape(-1, 6),
                                          y[anchors[:, None] + np.arange(1, 7)])


def test_report_baselines_keep_their_order_per_task():
    for task, specs in REPORT_ROWS.items():
        assert tuple(b for b in REPORT_BASELINES if task in b.tasks) == specs


def _running_mean_loop(observed):
    """The step-by-step running mean that the array version replaced."""
    preds = np.empty(len(observed))
    total = 0.0
    count = 0
    for t, v in enumerate(observed):
        if count == 0:
            preds[t] = v if np.isfinite(v) else np.nan
        else:
            preds[t] = total / count
        if np.isfinite(v):
            total += v
            count += 1
    return preds


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e9, 1e9), st.sampled_from([-0.0, np.nan, np.inf])),
                min_size=1, max_size=60))
def test_running_mean_bit_identical_to_loop(values):
    observed = np.array(values)
    assert running_mean_predict(observed).tobytes() == \
        _running_mean_loop(observed).tobytes()
