"""Small shared helpers.

``parallel_map`` runs the trainings of a search or sweep in ``jobs`` worker
processes. Threads would not help: the fits are many small numpy calls and
Python loops that hold the interpreter lock. Workers are started by fork
(asked for by name, since Python 3.14 defaults to forkserver), one pool per
call, so they inherit ``fn`` and ``items`` (closures included) and only item
indices and results are pickled. Each worker starts as a copy-on-write image
of the caller, so the memory it adds is what its own fits allocate and the
parent pages it writes to. On Linux a worker is killed when the caller dies,
so a command ended by SIGTERM or SIGKILL leaves no workers behind.
"""

from __future__ import annotations

import os
import sys

# (fn, items) of the pool this worker process belongs to; set by _start_worker
# in the worker only, never in the calling process.
_WORK = None


def _start_worker(fn, items, caller: int) -> None:
    global _WORK
    _WORK = (fn, items)
    if sys.platform.startswith("linux"):
        import ctypes
        import signal
        PR_SET_PDEATHSIG = 1
        # killed, not terminated: the caller that would take the results is
        # gone, and a SIGTERM handler inherited from it could ignore the signal
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != caller:  # the caller died before prctl took effect
        os._exit(1)


def _run_item(index: int):
    fn, items = _WORK
    return fn(items[index])


def parallel_map(fn, items, jobs: int = 1) -> list:
    """``[fn(x) for x in items]``, run in up to ``jobs`` forked worker processes.

    Results keep input order and do not depend on scheduling, since each
    item is computed from the state inherited at the fork. An exception
    raised by ``fn`` in a worker is re-raised here with its type and message;
    a worker that dies raises ``BrokenProcessPool``. With ``jobs <= 1``, a
    single item, or no fork on this platform the items run in this process.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        # imported here: they add ~20 ms to every start-up and jobs=1 needs neither
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_start_worker,
                                     initargs=(fn, items, os.getpid())) as pool:
                return list(pool.map(_run_item, range(len(items))))
    return [fn(x) for x in items]
