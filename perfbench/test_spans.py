"""Self-time arithmetic and thread parenting of the benchmark's span recorder.

Run with: python3 -m pytest perfbench
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from spans import Span, Tracer, self_times, union_length, unattributed

SRC = Path(__file__).resolve().parent.parent / "src"


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4), (7, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_nested_spans_self_times_add_up_to_covered_wall():
    spans = [Span(1, None, "root", 0.0, 10.0),
             Span(2, 1, "a", 1.0, 4.0),
             Span(3, 2, "a.inner", 2.0, 3.0),
             Span(4, 1, "b", 5.0, 7.0),
             Span(5, None, "second_root", 11.0, 12.0)]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0}
    gap = unattributed(spans, 0.0, 13.0)
    assert gap == 2.0
    assert sum(own.values()) == 13.0 - gap


def test_concurrent_children_are_counted_once():
    # two pool tasks overlap on [3, 6]; the parent is covered on [1, 9] only
    spans = [Span(1, None, "pool", 0.0, 10.0),
             Span(2, 1, "task", 1.0, 6.0),
             Span(3, 1, "task", 3.0, 9.0),
             Span(4, 3, "fit", 4.0, 8.0)]
    own = self_times(spans)
    assert own == {1: 2.0, 2: 5.0, 3: 2.0, 4: 4.0}
    # summed self time exceeds the wall when children ran concurrently
    assert sum(own.values()) > 10.0 - unattributed(spans, 0.0, 10.0)


def test_children_are_clipped_to_their_parent():
    spans = [Span(1, None, "p", 2.0, 5.0), Span(2, 1, "c", 1.0, 4.0)]
    assert self_times(spans)[1] == 1.0
    assert unattributed(spans, 0.0, 6.0) == 3.0


def _pool_map(fn, items, jobs=1):
    """Stand-in with the thread-pool semantics of denitlab.utils.parallel_map."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def test_worker_thread_spans_attach_to_the_caller():
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: time.sleep(0.01) or threading.get_ident(), "leaf")
    pmap = tracer.wrap_parallel_map(_pool_map)
    search = tracer.wrap(lambda: pmap(leaf, range(6), jobs=2), "search")
    threads = set(search())
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.parent is None]
    (pool,) = [s for s in tracer.spans if s.name == "utils.parallel_map"]
    assert root.name == "search" and pool.parent == root.id
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 6 and threading.get_ident() not in threads
    for s in leaves:
        assert by_id[s.parent].name == "utils.parallel_map.task"
        assert by_id[s.parent].parent == pool.id


@pytest.fixture
def denitlab_on_path():
    if not (SRC / "denitlab").is_dir():
        pytest.skip("package sources absent")
    sys.path.insert(0, str(SRC))
    yield
    sys.path.remove(str(SRC))


def test_search_pool_spans_attach_to_hyperopt_search(denitlab_on_path):
    from denitlab import dataset, hyperopt, pipeline, synthpilot
    from layers import targets
    frame, _ = synthpilot.generate(synthpilot.SynthConfig(days=3, seed=1))
    folds = dataset.make_cv_folds(frame, n_folds=2, train_block=100, val_block=50)
    space = hyperopt.SearchSpace("elastic_net", {
        "h": hyperopt.GridDim((1,)),
        "covariates": hyperopt.CategoricalDim((("methanol", "nitrate_in"),)),
        "alpha": hyperopt.LogUniformDim(1e-3, 1e-2)})
    original = pipeline.train_on_plan
    tracer = Tracer()
    tracer.install(targets(tracer))
    try:
        assert hyperopt.train_on_plan is pipeline.train_on_plan is not original
        hyperopt.search(space, frame, folds, "nowcast", budget=2, jobs=2)
    finally:
        tracer.uninstall()
    assert hyperopt.train_on_plan is original and pipeline.train_on_plan is original

    by_id = {s.id: s for s in tracer.spans}
    (search,) = [s for s in tracer.spans if s.name == "hyperopt.search"]
    fits = [s for s in tracer.spans if s.name == "pipeline.train_on_plan"]
    assert len(fits) == 4
    for s in fits:
        while s.parent is not None:
            s = by_id[s.parent]
        assert s is search
