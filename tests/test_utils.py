import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import denitlab
from denitlab.errors import DenitlabError
from denitlab.utils import parallel_map


class Exploded(DenitlabError):
    pass


def _square(x):
    return x * x


class TestParallelMap:
    def test_order_kept_with_more_jobs_than_items(self):
        items = list(range(7))
        assert parallel_map(_square, items, jobs=16) == [x * x for x in items]

    def test_lambda_capturing_a_local_runs_in_workers(self):
        offset = 100
        pids = parallel_map(lambda x: (x + offset, os.getpid()), range(6), jobs=2)
        assert [v for v, _ in pids] == list(range(100, 106))
        assert os.getpid() not in {pid for _, pid in pids}

    def test_worker_error_reaches_caller_with_type_and_message(self):
        def fn(x):
            if x == 3:
                raise Exploded(f"item {x} exploded")
            return x

        with pytest.raises(Exploded, match=r"^item 3 exploded$"):
            parallel_map(fn, range(6), jobs=2)

    def test_dead_worker_raises_instead_of_hanging(self):
        def fn(x):
            if x == 1:
                os._exit(3)
            return x

        with pytest.raises(BrokenProcessPool):
            parallel_map(fn, range(4), jobs=2)

    @pytest.mark.parametrize("jobs,items", [(1, range(4)), (0, range(4)),
                                            (4, range(1)), (4, range(0))])
    def test_serial_cases_run_in_this_process(self, jobs, items):
        pid = os.getpid()
        assert parallel_map(lambda x: os.getpid(), items, jobs=jobs) == \
            [pid] * len(items)


    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="parent-death signal is Linux only")
    def test_workers_die_with_a_terminated_caller(self):
        script = textwrap.dedent("""
            import os, time
            from denitlab.utils import parallel_map
            def fn(x):
                os.write(1, b"%d\\n" % os.getpid())  # one write: lines never interleave
                time.sleep(60)
            parallel_map(fn, range(2), jobs=2)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(denitlab.__file__).parents[1]))
        caller = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        workers = []
        try:
            workers = [int(caller.stdout.readline()) for _ in range(2)]
            caller.send_signal(signal.SIGTERM)
            caller.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; an unreaped zombie counts as dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
