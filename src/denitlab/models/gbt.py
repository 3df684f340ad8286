"""Gradient-boosted regression trees on squared loss, built from scratch.

Stagewise boosting: start from the target mean, then repeatedly fit a
depth-limited regression tree to the current residuals (greedy splits,
variance-reduction criterion) and add it with a learning rate. Split ties
break on lowest feature index, then lowest threshold, so a fit is a
deterministic function of (data, params, seed).

Split search runs on histograms, as in LightGBM (Ke et al., NeurIPS 2017)
and XGBoost's ``hist`` method. Once per fit, each feature is coded into at
most ``MAX_BINS`` bins: a feature with that many distinct values or fewer
gets one bin per value (``==``: ``-0.0`` shares the bin of ``0.0``), any
other into quantile bins of near-equal row counts. The codes are stored
feature-major, ``(p, n)``, so a node's residual weights are p contiguous
copies of its residuals. A node takes the per-bin residual sums and row
counts of every feature from one ``bincount`` over its rows. The larger
child's histogram is its parent's less the smaller child's, so only the
root and the smaller children count their rows, and a node whose children
will both be leaves builds none.

Counts are carried down the tree with the histogram: a node's cumulative
bin counts come with it, a smaller child's from one ``cumsum`` of its
counts and a larger child's as its parent's less the smaller child's
(exact: the counts are integers below 2**53), so a split search takes one
``cumsum``, of the residual sums. A split partitions the node's rows on
their codes in the split feature, one contiguous row of ``codes``: by the
threshold's construction (below), a row of the node lies left of the
threshold exactly when its bin is the split's bin or a lower one. Without
row subsampling every root holds every row, so the root's counts,
cumulative counts and the boundaries they rule out are taken once per fit
and only its residual sums per tree, and each stage's training output
comes from the tree build: each leaf writes its value to its rows. A
subsampled fit, and ``predict_gbt``, walk the rows through the finished
tree instead.

A split of n rows into n_L and n_R with residual sums S_L and S_R scores
``S_L**2/n_L + S_R**2/n_R``; the winner's gain (its variance reduction) is
that score less the parent's ``S**2/n`` (XGBoost's eq. 7 with lambda = 0,
scikit-learn's ``proxy_impurity_improvement``), so a histogram needs no sums
of squares. A feature's candidates are the bin boundaries after each bin
that holds rows of the node, and its left sums are the cumulative sums
along its bins. A threshold is the midpoint between the largest training
value of the left bin and the smallest of the node's next non-empty bin,
so ``x < threshold`` sends every training row of the node the way its bin
code does.

With one row per non-empty bin, the cumulative sums add the same residuals
in the same order as a scan over the sorted rows (an empty bin adds
``+0.0``), and the candidates and thresholds are those of the exact greedy
splitter: on tie-free columns of at most ``MAX_BINS`` values the trees are
the exact splitter's bit for bit. A bin of tied rows sums them first, so
the scores can differ from the exact splitter's in their last bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DimensionMismatch, EmptyWindows, TrainingLossRose
from .spec import TrainLog

#: Most bins a feature is coded into; a feature with more distinct values
#: gets quantile bins.
MAX_BINS = 256


class _Hist(NamedTuple):
    """A node's histogram, each array shaped ``(p, MAX_BINS)``."""

    sums: np.ndarray  # residual sums per bin
    counts: np.ndarray  # rows per bin
    n_left: np.ndarray  # rows up to and including each bin, as floats
    invalid: np.ndarray | None = None  # boundaries no split may take; None: derive


class _Bins:
    """Every feature of a design coded into bins once per fit.

    ``codes[j, i]`` is the bin of row ``i`` in feature ``j``, offset by
    ``j * MAX_BINS`` so that one ``bincount`` covers all features;
    ``lo[j, b]`` and ``hi[j, b]`` are the smallest and largest value in bin
    ``b`` of feature ``j`` (NaN past its last bin).
    """

    def __init__(self, X: np.ndarray):
        n, p = X.shape
        self.codes = np.empty((p, n), dtype=np.intp)
        self.lo = np.full((p, MAX_BINS), np.nan)
        self.hi = np.full((p, MAX_BINS), np.nan)
        for j, x in enumerate(X.T):
            values, code, counts = np.unique(x, return_inverse=True,
                                             return_counts=True)
            lo = hi = values
            if len(values) > MAX_BINS:
                # a value's bin is the rank of its first row scaled to MAX_BINS;
                # renumbering drops the bins a heavily repeated value skips
                first_rank = np.cumsum(counts) - counts
                _, start, group = np.unique(first_rank * MAX_BINS // n,
                                            return_index=True, return_inverse=True)
                lo = values[start]
                hi = values[np.append(start[1:], len(values)) - 1]
                code = group[code]
            self.codes[j] = code + j * MAX_BINS
            self.lo[j, :len(lo)] = lo
            self.hi[j, :len(hi)] = hi
        # reused by every histogram of the fit: fresh arrays of this size cost
        # page faults on each node
        self._codes = np.empty(n * p, dtype=np.intp)
        self._weights = np.empty(n * p)

    def histogram(self, r: np.ndarray, idx: np.ndarray | None = None,
                  counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin residual sums and row counts, shaped ``(p, MAX_BINS)``, of
        rows ``idx`` (all rows if None) of residuals ``r``. ``counts``, if
        given, are those rows' counts, taken as they are rather than counted
        again."""
        codes = self.codes
        p = codes.shape[0]
        if idx is not None:
            # node row ids are in range; mode="raise" would copy through a buffer
            codes = np.take(codes, idx, axis=1, mode="clip",
                            out=self._codes[:p * len(idx)].reshape(p, len(idx)))
            r = r.take(idx)
        weights = self._weights[:codes.size]
        weights.reshape(codes.shape)[...] = r  # p contiguous copies
        size = p * MAX_BINS
        sums = np.bincount(codes.ravel(), weights, size)
        if counts is None:
            counts = np.bincount(codes.ravel(), minlength=size).reshape(p, MAX_BINS)
        return sums.reshape(p, MAX_BINS), counts

    def node_hist(self, r: np.ndarray, idx: np.ndarray) -> _Hist:
        """The histogram of rows ``idx``, counted and summed."""
        sums, counts = self.histogram(r, idx)
        return _Hist(sums, counts, counts.cumsum(axis=1, dtype=float))

    def best_split(self, hist: _Hist, n: int, min_samples_leaf: int
                   ) -> tuple[int, float, int] | None:
        """The (feature, threshold, bin) of the largest positive gain over the
        histogram of ``n`` rows, or None. The node's rows left of the
        threshold are those in ``bin`` or a lower bin of that feature."""
        sums, counts, n_left, invalid = hist
        if not len(sums):  # no features
            return None
        # a candidate is the boundary after a bin; the one after the last bin
        # has no rows on its right, but scoring it keeps the arrays contiguous
        cl = sums.cumsum(axis=1)
        total = cl[:, -1:]
        n_right = n - n_left
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = cl * cl  # S_L**2/n_L + S_R**2/n_R, in place
            scores /= n_left
            cr = total - cl
            cr *= cr
            cr /= n_right
            scores += cr
        if invalid is None:
            invalid = _invalid(counts, n_left, n_right, min_samples_leaf)
        np.copyto(scores, -np.inf, where=invalid)
        k = scores.argmax(axis=1)  # first maximum = lowest threshold
        total = total[:, 0]
        gain = scores[np.arange(len(k)), k]
        gain -= total * total / n  # the variance reduction
        # highest gain first, and the lowest feature among equal gains
        for j in np.argsort(-gain, kind="stable"):
            if not gain[j] > 0.0:
                break
            b = k[j]
            # the node's next non-empty bin holds the smallest value to the right
            right = b + 1 + int((counts[j, b + 1:] > 0).argmax())
            below, above = self.hi[j, b], self.lo[j, right]
            threshold = 0.5 * (below + above)
            if below < threshold <= above:  # guard fp-collapsed midpoints
                return int(j), float(threshold), int(b)
        return None


def _invalid(counts: np.ndarray, n_left: np.ndarray, n_right: np.ndarray,
             min_samples_leaf: int) -> np.ndarray:
    """The boundaries that leave a side too small or repeat the one before."""
    least = max(min_samples_leaf, 1)  # a side of no rows is no split
    invalid = n_left < least
    invalid |= n_right < least
    invalid |= counts == 0  # repeats the boundary before it
    return invalid


def _leaf(value: float, idx: np.ndarray, out: np.ndarray | None) -> dict:
    """A leaf predicting ``value``; its rows ``idx`` get it in ``out``."""
    if out is not None:
        out[idx] = value
    return {"leaf": True, "value": value}


def _mean(r: np.ndarray) -> float:
    return float(r.sum()) / len(r)  # np.mean's division, without its wrapper


def _build_tree(r: np.ndarray, bins: _Bins, idx: np.ndarray, hist: _Hist,
                max_depth: int, min_samples_leaf: int, out: np.ndarray | None,
                depth: int = 0) -> dict:
    """Grow the subtree over rows ``idx`` of the binned design and residuals
    ``r``; ``hist`` is the histogram of those rows. Each leaf writes its
    value to its rows of ``out``, unless that is None."""
    rn = r.take(idx)
    value = _mean(rn)
    n = len(rn)
    if depth >= max_depth or n < 2 * min_samples_leaf or np.all(rn == rn[0]):
        return _leaf(value, idx, out)
    best = bins.best_split(hist, n, min_samples_leaf)
    if best is None:
        return _leaf(value, idx, out)

    feature, threshold, b = best
    in_left = bins.codes[feature].take(idx) <= b + feature * MAX_BINS
    left, right = idx.compress(in_left), idx.compress(~in_left)
    node = {"leaf": False, "value": value, "feature": feature,
            "threshold": threshold}
    if depth + 1 >= max_depth or max(len(left), len(right)) < 2 * min_samples_leaf:
        # both children are leaves: skip their histograms
        node["left"] = _leaf(_mean(r.take(left)), left, out)
        node["right"] = _leaf(_mean(r.take(right)), right, out)
        return node
    left_is_small = len(left) <= len(right)
    small = bins.node_hist(r, left if left_is_small else right)
    # counts are integers below 2**53, so the float difference is exact
    large = _Hist(hist.sums - small.sums, hist.counts - small.counts,
                  hist.n_left - small.n_left)
    left_hist, right_hist = (small, large) if left_is_small else (large, small)
    node["left"] = _build_tree(r, bins, left, left_hist, max_depth,
                               min_samples_leaf, out, depth + 1)
    node["right"] = _build_tree(r, bins, right, right_hist, max_depth,
                                min_samples_leaf, out, depth + 1)
    return node


def _tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if nd["leaf"] or idx.size == 0:
            out[idx] = nd["value"]
            continue
        mask = X[idx, nd["feature"]] < nd["threshold"]
        stack.append((nd["left"], idx.compress(mask)))
        stack.append((nd["right"], idx.compress(~mask)))
    return out


def fit_gbt(X: np.ndarray, y: np.ndarray, n_trees: int = 100, max_depth: int = 3,
            learning_rate: float = 0.1, min_samples_leaf: int = 5,
            subsample: float = 1.0, seed: int = 0):
    """Boost ``n_trees`` stages; returns ``(params, log)``.

    All-identical targets degenerate to a 0-tree ensemble predicting the
    constant. With ``subsample=1`` the training loss is non-increasing in the
    stage count (checked on every fit); row subsampling is driven by ``seed``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise DimensionMismatch(f"{X.shape} rows vs {len(y)} targets")
    if len(y) == 0:
        raise EmptyWindows("cannot fit on zero samples")

    init = float(y.mean())
    trees: list[dict] = []
    r = y - init
    losses = [float((r ** 2).mean())]
    degenerate = bool(np.all(y == y[0]))
    rng = np.random.default_rng(seed)
    n = len(y)

    if not degenerate:
        bins = _Bins(X)
        all_rows = np.arange(n)
        out = np.empty(n)  # a full-sample stage's output, written by its leaves
        root = None  # without subsampling every root holds every row
        for _ in range(n_trees):
            if subsample < 1.0:
                # choice() returns rows unordered; the tree takes them in that order
                rows = rng.choice(n, size=max(1, int(subsample * n)), replace=False)
                tree = _build_tree(r, bins, rows, bins.node_hist(r, rows),
                                   max_depth, min_samples_leaf, None)
                stage = _tree_predict(tree, X)
            else:
                # the root's counts and the boundaries they rule out: once per fit
                if root is None:
                    sums, counts = bins.histogram(r)
                    n_left = counts.cumsum(axis=1, dtype=float)
                    root = _Hist(sums, counts, n_left, _invalid(
                        counts, n_left, n - n_left, min_samples_leaf))
                else:
                    sums, _ = bins.histogram(r, counts=root.counts)
                    root = root._replace(sums=sums)
                tree = _build_tree(r, bins, all_rows, root, max_depth,
                                   min_samples_leaf, out)
                stage = out
            r -= learning_rate * stage
            trees.append(tree)
            losses.append(float((r ** 2).mean()))
            if subsample == 1.0 and losses[-1] > losses[-2] + 1e-12:
                raise TrainingLossRose(
                    f"training loss rose at stage {len(trees)}: "
                    f"{losses[-2]} -> {losses[-1]}")

    params = {"init": init, "trees": trees, "learning_rate": learning_rate}
    log = TrainLog(train_loss=tuple(losses), val_loss=(),
                   stop_reason="converged" if degenerate else "max_iter")
    return params, log


def predict_gbt(params: dict, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.full(len(X), params["init"])
    for tree in params["trees"]:
        out += params["learning_rate"] * _tree_predict(tree, X)
    return out
