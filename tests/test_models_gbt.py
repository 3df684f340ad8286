import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.errors import DimensionMismatch, TrainingLossRose
from denitlab.models import gbt
from denitlab.models.gbt import fit_gbt, predict_gbt


# --- oracle: the splitter that re-sorts every feature at every node ---------

def _oracle_build_tree(X, r, max_depth, min_samples_leaf, depth=0):
    value = float(r.mean())
    n = len(r)
    if depth >= max_depth or n < 2 * min_samples_leaf or np.all(r == r[0]):
        return {"leaf": True, "value": value}

    best_gain = 0.0
    best = None
    positions = np.arange(1, n)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cs = np.cumsum(r[order])
        total = cs[-1]
        valid = (xs[:-1] != xs[1:]) \
            & (positions >= min_samples_leaf) \
            & (positions <= n - min_samples_leaf)
        if not valid.any():
            continue
        i = positions[valid]
        # closed-form split score S_L^2/n_L + S_R^2/n_R; the gain subtracts
        # the parent's S^2/n from the best score
        scores = cs[i - 1] ** 2 / i + (total - cs[i - 1]) ** 2 / (n - i)
        k = int(np.argmax(scores))
        gain = scores[k] - total * total / n
        if gain > best_gain:
            thr = 0.5 * (xs[i[k] - 1] + xs[i[k]])
            if xs[i[k] - 1] < thr <= xs[i[k]]:
                best_gain = float(gain)
                best = (j, float(thr))
    if best is None:
        return {"leaf": True, "value": value}

    feature, threshold = best
    mask = X[:, feature] < threshold
    return {
        "leaf": False,
        "value": value,
        "feature": feature,
        "threshold": threshold,
        "left": _oracle_build_tree(X[mask], r[mask], max_depth,
                                   min_samples_leaf, depth + 1),
        "right": _oracle_build_tree(X[~mask], r[~mask], max_depth,
                                    min_samples_leaf, depth + 1),
    }


def _sse_oracle_build_tree(X, r, max_depth, min_samples_leaf, depth=0):
    """Frozen: the re-sorting splitter scored by the parent SSE minus both
    children's SSEs, each from cumulative sums and sums of squares."""
    value = float(r.mean())
    n = len(r)
    if depth >= max_depth or n < 2 * min_samples_leaf or np.all(r == r[0]):
        return {"leaf": True, "value": value}

    parent_sse = float(((r - value) ** 2).sum())
    best_gain = 0.0
    best = None
    positions = np.arange(1, n)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        rs = r[order]
        cs = np.cumsum(rs)
        css = np.cumsum(rs ** 2)
        total, total_sq = cs[-1], css[-1]
        valid = (xs[:-1] != xs[1:]) \
            & (positions >= min_samples_leaf) \
            & (positions <= n - min_samples_leaf)
        if not valid.any():
            continue
        i = positions[valid]
        left_sse = css[i - 1] - cs[i - 1] ** 2 / i
        right_sse = (total_sq - css[i - 1]) - (total - cs[i - 1]) ** 2 / (n - i)
        gains = parent_sse - left_sse - right_sse
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            thr = 0.5 * (xs[i[k] - 1] + xs[i[k]])
            if xs[i[k] - 1] < thr <= xs[i[k]]:
                best_gain = float(gains[k])
                best = (j, float(thr))
    if best is None:
        return {"leaf": True, "value": value}

    feature, threshold = best
    mask = X[:, feature] < threshold
    return {
        "leaf": False,
        "value": value,
        "feature": feature,
        "threshold": threshold,
        "left": _sse_oracle_build_tree(X[mask], r[mask], max_depth,
                                       min_samples_leaf, depth + 1),
        "right": _sse_oracle_build_tree(X[~mask], r[~mask], max_depth,
                                        min_samples_leaf, depth + 1),
    }


def _oracle_fit_gbt(X, y, n_trees=100, max_depth=3, learning_rate=0.1,
                    min_samples_leaf=5, subsample=1.0, seed=0,
                    build_tree=_oracle_build_tree):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    init = float(y.mean())
    trees = []
    r = y - init
    losses = [float((r ** 2).mean())]
    rng = np.random.default_rng(seed)
    n = len(y)
    if not np.all(y == y[0]):
        for _ in range(n_trees):
            if subsample < 1.0:
                rows = rng.choice(n, size=max(1, int(subsample * n)),
                                  replace=False)
            else:
                rows = np.arange(n)
            tree = build_tree(X[rows], r[rows], max_depth, min_samples_leaf)
            r -= learning_rate * gbt._tree_predict(tree, X)
            trees.append(tree)
            losses.append(float((r ** 2).mean()))
    params = {"init": init, "trees": trees, "learning_rate": learning_rate}
    return params, tuple(losses)


def _sse_oracle_fit_gbt(X, y, **kwargs):
    return _oracle_fit_gbt(X, y, build_tree=_sse_oracle_build_tree, **kwargs)


def _problem(seed, n=120, p=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(2 * X[:, 0]) + X[:, -1] * X[:, 0] + rng.normal(0, 0.3, n)
    return X, y


# a bin of tied rows sums them before the cumulative sum runs over the bins,
# the oracle adds them one by one: only where every residual sum is exact (a
# power-of-two row count, small-integer targets, one tree) do ties leave the
# sums equal bit for bit
TIE_FREE_CASES = ("constant_column", "single_feature",
                  "fewer_rows_than_two_leaves")


def _equivalence_case(name):
    if name == "heavy_ties":
        # a mirrored column ties every split of column 0 in exact arithmetic,
        # so the winner rests on the tie-break
        X, y = _problem(1, n=128)
        X = np.round(X)
        X[:, 1] = -X[:, 0]
        return X, np.round(y)
    if name == "constant_column":
        X, y = _problem(2)
        return np.column_stack([X[:, :2], np.full(len(X), 2.5), X[:, 2:]]), y
    if name == "single_feature":
        X, y = _problem(3)
        return X[:, :1], y
    if name == "one_tie_at_best_split":
        # tie-free columns, but column 0's best root split now falls between
        # two equal values, so the scan must pass it over
        X, y, k, _ = _step_problem(5)
        X[k, 0] = X[k - 1, 0]
        return X, y
    if name == "signed_zero_at_best_split":
        # -0.0 == 0.0: the pair ties though its bits differ
        X, y, k, threshold = _step_problem(6)
        X[:, 0] -= threshold
        X[k - 1, 0], X[k, 0] = -0.0, 0.0
        return X, y
    assert name == "fewer_rows_than_two_leaves"
    return _problem(4, n=9)


def _equivalence_kwargs(case, max_depth, min_samples_leaf):
    return dict(n_trees=12 if case in TIE_FREE_CASES else 1,
                max_depth=max_depth, learning_rate=0.3,
                min_samples_leaf=min_samples_leaf)


def _step_problem(seed, n=128, p=5):
    """Tie-free normal columns and a small-integer target that steps on
    column 0, rows in column-0 order (a tie made in column 0 keeps the rows
    in sorted order); also the threshold of column 0's best root split, found
    by the oracle on that column alone, and the first row above it."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.round(3.0 * (X[:, 0] > 0.3) + np.sin(X[:, 1]) + rng.normal(0, 0.3, n))
    order = np.argsort(X[:, 0])
    X, y = X[order], y[order]
    threshold = _oracle_build_tree(X[:, :1], y - y.mean(), 1, 1)["threshold"]
    return X, y, int(np.sum(X[:, 0] < threshold)), threshold


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["heavy_ties", "constant_column",
                                  "single_feature", "fewer_rows_than_two_leaves",
                                  "one_tie_at_best_split",
                                  "signed_zero_at_best_split"])
def test_presorted_trees_match_resorting_oracle(case, max_depth,
                                               min_samples_leaf):
    X, y = _equivalence_case(case)
    kwargs = _equivalence_kwargs(case, max_depth, min_samples_leaf)
    params, log = fit_gbt(X, y, **kwargs)
    oracle_params, oracle_losses = _oracle_fit_gbt(X, y, **kwargs)
    assert params == oracle_params
    assert log.train_loss == oracle_losses


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["heavy_ties", "constant_column",
                                  "single_feature", "fewer_rows_than_two_leaves",
                                  "one_tie_at_best_split",
                                  "signed_zero_at_best_split"])
def test_training_losses_match_frozen_sse_oracle(case, max_depth,
                                                 min_samples_leaf):
    # the two scores round differently, so where two splits tie in exact
    # arithmetic they can pick different ones; in these full-sample cases
    # every such pair parts the training rows alike, so the losses agree bit
    # for bit (under subsampling the rows left out could be routed apart)
    X, y = _equivalence_case(case)
    kwargs = _equivalence_kwargs(case, max_depth, min_samples_leaf)
    _, log = fit_gbt(X, y, **kwargs)
    _, sse_losses = _sse_oracle_fit_gbt(X, y, **kwargs)
    assert log.train_loss == sse_losses


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_presorted_subsampled_trees_match_resorting_oracle(seed):
    X, y = _problem(10 + seed, n=128, p=4)
    X[:, 1] = np.round(X[:, 1] * 2)  # ties inside each subsample too
    y = np.round(y)
    kwargs = dict(n_trees=1, max_depth=3, learning_rate=0.2,
                  min_samples_leaf=3, subsample=0.6, seed=seed)
    params, log = fit_gbt(X, y, **kwargs)
    oracle_params, oracle_losses = _oracle_fit_gbt(X, y, **kwargs)
    assert params == oracle_params
    assert log.train_loss == oracle_losses


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subsample_that_drops_the_only_tie_matches_resorting_oracle(seed):
    X, y = _equivalence_case("one_tie_at_best_split")
    tied = set()
    for fit_seed in range(10 * seed, 10 * seed + 10):
        kwargs = dict(n_trees=1, max_depth=3, learning_rate=0.2,
                      min_samples_leaf=3, subsample=0.6, seed=fit_seed)
        # replay the row draw: some trees see both tied rows, some do not
        rows = np.random.default_rng(fit_seed).choice(
            len(y), size=int(0.6 * len(y)), replace=False)
        tied.add(len(np.unique(X[rows, 0])) < len(rows))
        params, log = fit_gbt(X, y, **kwargs)
        oracle_params, oracle_losses = _oracle_fit_gbt(X, y, **kwargs)
        assert params == oracle_params
        assert log.train_loss == oracle_losses
    assert tied == {False, True}


@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_binned_splits_route_training_rows_by_bin(subsample):
    rng = np.random.default_rng(21)
    n = 1500
    X = rng.normal(size=(n, 4))
    X[:, 1] = np.round(X[:, 1] * 3)  # few values, -0.0 among them
    X[:, 2] = np.round(X[:, 2], 2)  # more values than bins, with ties
    X[:, 3] = np.exp(X[:, 3])
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + X[:, 3] + rng.normal(0, 0.3, n)
    params, _ = fit_gbt(X, y, n_trees=6, max_depth=4, learning_rate=0.3,
                        min_samples_leaf=2, subsample=subsample, seed=3)
    bins = gbt._Bins(X)
    codes = bins.codes.T - np.arange(X.shape[1]) * gbt.MAX_BINS

    # at most MAX_BINS distinct values: one bin per value (==)
    x = X[:, 1]
    assert np.any((x == 0) & np.signbit(x)) and np.any((x == 0) & ~np.signbit(x))
    assert np.array_equal(x[:, None] == x, codes[:, 1, None] == codes[:, 1])
    # more: at most MAX_BINS bins, in value order, near-equal where tie-free
    for j in (0, 2, 3):
        assert len(np.unique(X[:, j])) > gbt.MAX_BINS
        order = np.argsort(X[:, j], kind="stable")
        assert codes[order[0], j] == 0 and np.all(np.diff(codes[order, j]) >= 0)
        assert len(np.unique(codes[:, j])) == codes[:, j].max() + 1 <= gbt.MAX_BINS
    for j in (0, 3):
        sizes = np.bincount(codes[:, j])
        assert len(sizes) == gbt.MAX_BINS and sizes.max() - sizes.min() <= 1

    def bin_range(j, b):
        values = X[codes[:, j] == b, j]
        return values.min(), values.max()

    draws = np.random.default_rng(3)
    for tree in params["trees"]:
        rows = (draws.choice(n, size=int(subsample * n), replace=False)
                if subsample < 1.0 else np.arange(n))
        stack = [(tree, rows)]
        while stack:
            node, idx = stack.pop()
            if node["leaf"]:
                continue
            j, threshold = node["feature"], node["threshold"]
            left = X[idx, j] < threshold
            code = codes[idx, j]
            # every row goes the way of its bin: the bins on the left come first
            assert code[left].max() < code[~left].min()
            # halfway from the left bin's largest value to the next bin's least
            assert threshold == 0.5 * (bin_range(j, code[left].max())[1]
                                       + bin_range(j, code[~left].min())[0])
            for b in np.unique(code):
                lo, hi = bin_range(j, b)
                assert not lo < threshold <= hi
            stack += [(node["left"], idx[left]), (node["right"], idx[~left])]


def test_zero_trees_predicts_mean():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 6.0])
    params, _ = fit_gbt(X, y, n_trees=0)
    assert predict_gbt(params, X) == pytest.approx([3.0, 3.0, 3.0])


def test_single_stump_perfect_split():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    params, log = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0,
                          min_samples_leaf=1)
    tree = params["trees"][0]
    assert tree["feature"] == 0
    assert tree["threshold"] == pytest.approx(0.5)
    assert predict_gbt(params, X) == pytest.approx([0.0, 0.0, 10.0, 10.0])
    assert predict_gbt(params, np.array([[1.0]]))[0] == pytest.approx(10.0)
    assert log.train_loss[-1] == pytest.approx(0.0)


def test_training_loss_non_increasing():
    rng = np.random.default_rng(0)
    for trial in range(10):
        X = rng.normal(size=(80, 4))
        y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(0, 0.2, 80)
        _, log = fit_gbt(X, y, n_trees=40, max_depth=3, learning_rate=0.2,
                         min_samples_leaf=2, seed=trial)
        losses = np.array(log.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)


def test_degenerate_targets_give_zero_trees():
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.full(6, 3.25)
    params, log = fit_gbt(X, y, n_trees=50)
    assert params["trees"] == []
    assert log.stop_reason == "converged"
    assert predict_gbt(params, X) == pytest.approx([3.25] * 6)


def test_deterministic_with_subsampling():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    a, _ = fit_gbt(X, y, n_trees=20, subsample=0.6, seed=123)
    b, _ = fit_gbt(X, y, n_trees=20, subsample=0.6, seed=123)
    assert a == b
    c, _ = fit_gbt(X, y, n_trees=20, subsample=0.6, seed=124)
    assert predict_gbt(a, X) != pytest.approx(predict_gbt(c, X))


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    params, _ = fit_gbt(X, y, n_trees=5, max_depth=4, min_samples_leaf=7)

    def leaf_counts(node, idx):
        if node["leaf"]:
            yield len(idx)
            return
        mask = X[idx, node["feature"]] < node["threshold"]
        yield from leaf_counts(node["left"], idx[mask])
        yield from leaf_counts(node["right"], idx[~mask])

    for tree in params["trees"]:
        for count in leaf_counts(tree, np.arange(len(X))):
            assert count >= 7


def test_split_tiebreak_prefers_lowest_feature():
    # both features admit the same perfect split; the first must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 4.0, 4.0])
    params, _ = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0,
                        min_samples_leaf=1)
    assert params["trees"][0]["feature"] == 0


def test_copied_feature_never_wins_a_split():
    # column 1 copies column 0, so every split of one ties the other's exactly
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 4))
    X[:, 1] = X[:, 0]
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 2] + rng.normal(0, 0.3, 200)
    params, _ = fit_gbt(X, y, n_trees=20, max_depth=4, learning_rate=0.3,
                        min_samples_leaf=2)

    def split_features(node):
        if not node["leaf"]:
            yield node["feature"]
            yield from split_features(node["left"])
            yield from split_features(node["right"])

    used = [f for tree in params["trees"] for f in split_features(tree)]
    assert 0 in used and 1 not in used


def test_root_counted_once_per_fit_and_trees_unchanged(monkeypatch):
    # quantile-binned, tied and integer columns; the digest is of the trees
    # and losses fitted when every tree recounted its root's rows
    rng = np.random.default_rng(20)
    n = 600
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.integers(0, 10, size=n).astype(float),
                         rng.uniform(size=n)])
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] * (X[:, 2] > 4) + 0.1 * rng.normal(size=n)
    roots = []
    histogram = gbt._Bins.histogram

    def spy(self, codes, r, idx=None, counts=None):
        if idx is None:
            roots.append(counts is None)
        return histogram(self, codes, r, idx, counts)

    monkeypatch.setattr(gbt._Bins, "histogram", spy)
    params, log = fit_gbt(X, y, n_trees=25, max_depth=3, min_samples_leaf=5)
    assert roots == [True] + [False] * 24
    digest = hashlib.sha256(json.dumps([params, log.train_loss]).encode()).hexdigest()
    assert digest == "27cd41df2eb46e50fbbcafd0805d0d9b93c41341b88480b49eb21a957647abde"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit_gbt(np.ones((3, 2)), np.ones(5))


def test_rising_training_loss_is_typed_error(monkeypatch):
    leaf = gbt._leaf
    monkeypatch.setattr(gbt, "_leaf", lambda value, idx, out: leaf(1.0e3, idx, out))
    X, y = _problem(0, n=40, p=2)
    with pytest.raises(TrainingLossRose, match="stage 1"):
        fit_gbt(X, y, n_trees=3)


# --- pinned trees: digests recorded before stage outputs came from the leaves --

def _pinned_design(seed, n, p, held=100):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n + held, p))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, -1] + rng.normal(0, 0.3, n + held)
    return X[:n], y[:n], X[n:]


def _pinned_case(name):
    """(X, y, held-out rows, fit kwargs) of one pinned fit."""
    if name == "depth_6_leaf_1":
        X, y, held = _pinned_design(30, 400, 6)
        return X, y, held, dict(n_trees=15, max_depth=6, min_samples_leaf=1,
                                learning_rate=0.2)
    if name.startswith("subsample_seed_"):
        X, y, held = _pinned_design(31, 300, 4)
        return X, y, held, dict(n_trees=20, max_depth=3, subsample=0.7,
                                seed=int(name[-1]))
    if name == "few_values_ties_signed_zeros":
        X, y, held = _pinned_design(32, 500, 3)
        X[:, 0] = np.round(X[:, 0] * 4)  # ties, -0.0 and 0.0 among them
        held[:, 0] = np.round(held[:, 0] * 4)
        assert len(np.unique(X[:, 0])) <= gbt.MAX_BINS
        assert np.any((X[:, 0] == 0) & np.signbit(X[:, 0]))
        assert np.any((X[:, 0] == 0) & ~np.signbit(X[:, 0]))
        return X, y, held, dict(n_trees=20, max_depth=3, min_samples_leaf=2)
    if name == "quantile_bins":
        X, y, held = _pinned_design(33, 1000, 3)
        X[:, 1] = np.round(X[:, 1], 2)  # more values than bins, with ties
        assert len(np.unique(X[:, 0])) > gbt.MAX_BINS
        assert len(np.unique(X[:, 1])) > gbt.MAX_BINS
        return X, y, held, dict(n_trees=20, max_depth=4)
    if name == "constant_target":
        X, _, held = _pinned_design(34, 50, 2)
        return X, np.full(len(X), 0.75), held, dict(n_trees=10)
    assert name == "lag_stacked_nowcast"
    from denitlab.dataset import apply_scaler, fit_scaler, make_final_split
    from denitlab.models import ModelSpec, spec_windows, stack_inputs, \
        training_targets
    from denitlab.pipeline import prepare_frame
    from denitlab.synthpilot import SynthConfig, generate
    frame, _ = prepare_frame(generate(SynthConfig(days=8, seed=5))[0])
    plan = make_final_split(frame)
    spec = ModelSpec("gbt", ("nitrate_in", "methanol", "temperature",
                             "water_flow"), h=2, task="nowcast", seed=0)
    scaled = apply_scaler(frame, fit_scaler(frame, plan.train))
    train = spec_windows(spec, scaled, plan.train)
    held = spec_windows(spec, scaled, plan.validation)
    X = stack_inputs(spec, train).reshape(len(train), -1)
    return X, training_targets(train), \
        stack_inputs(spec, held).reshape(len(held), -1), dict(n_trees=30)


PINNED_DIGESTS = {
    "depth_6_leaf_1": ("fd97ec1408e55b82f5c72de83d19e9feb66d8dc0f5178a9d8c7945f0a1c422bb",
        "d1b85156e315837b7609c9a9d5c47413b75fa0d4713233192b73f312d4312f26"),
    "subsample_seed_0": ("560369f4da1c089f418a459fb79a5b25b61f466ddfc0a45bcdea42b7c82c687d",
        "8cdb29524562b67ba5e19ae9a2f5abad033912fdc0d7e5fa4cb0ec6330e0935e"),
    "subsample_seed_1": ("e4954fd8c711e71bd9691c506b7ed029d089511d05ace27c333fb09431cbd21f",
        "3e7bf5d86b6b0901cca5ff7945a00e23fedcacc7c1ac1e1327d6bd7a2c169150"),
    "few_values_ties_signed_zeros": ("9cdd87a6012047d68495637ae66f0ab02a858b5fcc264ce9ae6b3dbb9c12d5ed",
        "2f29b8f43853a2fd47ae2f61968bcc8eb31d9f9497c822b780f8d74a9a1c762c"),
    "quantile_bins": ("7ea75bf57cfcfe3475bd7ea56eab36be88ea5bd38c83535bb7ac4faf6358d52d",
        "c41f0b99d74a2f467d5b4fbb6130132e364446df07695e1d1fac927c062f183c"),
    "constant_target": ("79ac085eba3ce23eabf0c1423da6ad71453d0de2fe65bc1f5ad176a1414d8690",
        "e5f1d29cf913a5b7bd86841f045e17ce343fb81047cf090e2d123fd4fcb9f013"),
    "lag_stacked_nowcast": ("94a8b26c980950effecd142563c2e0c492cfe8c3e5c2b4c90a91e466521a061b",
        "850d1440f72d5589dafd622d9cf14e750c9b1b7d66f47202ed35f47699e17a79"),
}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_pinned_trees_and_predictions_unchanged(case):
    X, y, held, kwargs = _pinned_case(case)
    params, log = fit_gbt(X, y, **kwargs)
    fit_digest = hashlib.sha256(
        json.dumps([params, log.train_loss]).encode()).hexdigest()
    predicted = np.ascontiguousarray(predict_gbt(params, held), dtype=float)
    assert (fit_digest, hashlib.sha256(predicted.tobytes()).hexdigest()) \
        == PINNED_DIGESTS[case]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), p=st.integers(1, 4),
       decimals=st.sampled_from([None, 0, 1]), max_depth=st.integers(1, 4),
       min_samples_leaf=st.integers(1, 6), n_trees=st.integers(1, 6))
def test_leaf_stage_outputs_replay_through_tree_walk(seed, n, p, decimals, max_depth,
                                                     min_samples_leaf, n_trees):
    # a full-sample fit takes each stage's output from its leaves; regrowing
    # every tree from the residuals that walking the rows through the trees
    # leaves gives the same trees and the same losses
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if decimals is not None:
        X = np.round(X, decimals)  # ties, -0.0 among them
    y = np.sin(2 * X[:, 0]) + rng.normal(0, 0.3, n)
    kwargs = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    params, log = fit_gbt(X, y, n_trees=n_trees, learning_rate=0.3, **kwargs)

    bins, rows = gbt._Bins(X), np.arange(n)
    r = y - params["init"]
    losses = [float((r ** 2).mean())]
    for tree in params["trees"]:
        regrown = gbt._build_tree(r, bins, rows, bins.node_hist(r, rows),
                                  out=None, **kwargs)
        assert regrown == tree
        r -= 0.3 * gbt._tree_predict(tree, X)
        losses.append(float((r ** 2).mean()))
    assert log.train_loss == tuple(losses)
