"""ordered_map: results in input order on any number of processes, never
more workers than CPUs or items, and no process left behind."""
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from gazesim.pool import ordered_map, worker_count


def _square(x):
    return x * x


def _pid(_item):
    return os.getpid()


def _exit_on_2(x):
    if x == 2:
        os._exit(3)
    return x


def _fail_on_3_and_5(x):
    if x in (3, 5):
        raise ValueError(f"bad item {x}")
    return x


def _fail_on_0_else_mark(task):
    i, out_dir = task
    if i == 0:
        raise ValueError("bad item 0")
    time.sleep(0.05)
    (out_dir / str(i)).touch()


class TestWorkerCount:
    @pytest.mark.parametrize("cpus,n_items,expected", [
        (4, 10, 4), (4, 3, 3), (2, 2, 2), (1, 10, 1), (4, 1, 1), (4, 0, 1),
    ])
    def test_at_most_one_per_cpu_and_per_item(self, monkeypatch, cpus, n_items, expected):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert worker_count(n_items) == expected

    def test_follows_the_affinity_mask(self):
        if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
            pytest.skip("no affinity mask or fork on this platform")
        assert worker_count(10 ** 6) == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_one_without_affinity_or_fork(self, monkeypatch, missing):
        monkeypatch.delattr(os, missing, raising=False)
        assert worker_count(8) == 1


class TestOrderedMap:
    def test_input_order_on_two_workers(self, two_workers):
        items = list(range(23))
        assert ordered_map(_square, items) == [x * x for x in items]
        assert multiprocessing.active_children() == []

    def test_work_runs_in_other_processes(self, two_workers):
        pids = ordered_map(_pid, range(6))
        assert os.getpid() not in pids

    def test_one_worker_runs_in_this_process(self, one_worker):
        seen = []
        assert ordered_map(seen.append, [1, 2, 3]) == [None, None, None]
        assert seen == [1, 2, 3]

    @pytest.mark.parametrize("workers", ["one_worker", "two_workers"])
    def test_first_error_in_input_order(self, request, workers):
        request.getfixturevalue(workers)
        with pytest.raises(ValueError, match="bad item 3"):
            ordered_map(_fail_on_3_and_5, range(8))
        assert multiprocessing.active_children() == []

    def test_no_items(self, two_workers):
        assert ordered_map(_square, []) == []

    def test_worker_that_dies_fails_the_map(self, two_workers):
        with pytest.raises(BrokenProcessPool):
            ordered_map(_exit_on_2, range(6))
        assert multiprocessing.active_children() == []

    def test_stops_starting_items_after_the_first_error(self, two_workers, tmp_path):
        with pytest.raises(ValueError, match="bad item 0"):
            ordered_map(_fail_on_0_else_mark, [(i, tmp_path) for i in range(20)])
        assert len(list(tmp_path.iterdir())) < 10
        assert multiprocessing.active_children() == []
