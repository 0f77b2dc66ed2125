"""ordered_map: results in input order on any number of processes, never
more workers than CPUs or items, no thread in this process, and no process
left behind."""
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import assert_no_child_process
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


def _kill_self_on_2(x):
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _megabyte(x):
    # 1 MiB, more than a pipe's buffer holds
    return np.full(2 ** 17, x, dtype=np.float64)


def _unpicklable_on_3(x):
    # a local function does not pickle, so the result does not come back
    # from a worker; in this process it is returned as it is
    if x == 3:
        return lambda: x
    if x == 5:
        raise ValueError(f"bad item {x}")
    return x


def _exit_on_3(x):
    if x == 3:
        raise SystemExit(f"exit at item {x}")
    if x == 5:
        raise ValueError(f"bad item {x}")
    return x


def _slow_fail_on_0_fast_fail_on_1(x):
    if x == 0:
        time.sleep(0.1)
        raise KeyError("item 0")
    if x == 1:
        raise ValueError("bad item 1")
    return x


def _fail_on_0_else_mark(task):
    i, out_dir = task
    if i == 0:
        raise ValueError("bad item 0")
    time.sleep(0.05)
    (out_dir / str(i)).touch()


def _await_exit(pid):
    # in the parent, as it unpickles the worker's result: kill the worker and
    # wait until it is a zombie, its pipes closed, before the parent goes on
    # to write the worker its next index
    os.kill(pid, signal.SIGKILL)
    while _state(pid) != "Z":
        time.sleep(0.001)
    return pid


def _state(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return fh.read().rpartition(")")[2].split()[0]


class _KillsItsWorkerWhenUnpickled:
    def __init__(self):
        self.pid = os.getpid()

    def __reduce__(self):
        return _await_exit, (self.pid,)


def _killed_while_sent_its_next_item(x):
    return _KillsItsWorkerWhenUnpickled() if x == 0 else x


def _pipe_fds():
    """{fd: target} of each pipe this process holds open."""
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except FileNotFoundError:  # the listing's own fd, closed by now
            continue
        if target.startswith("pipe:"):
            fds[name] = target
    return fds


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
        assert_no_child_process()

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
        assert_no_child_process()

    def test_worker_traceback_is_the_cause(self, two_workers):
        with pytest.raises(ValueError, match="bad item 3") as raised:
            ordered_map(_fail_on_3_and_5, range(8))
        assert "in _fail_on_3_and_5" in str(raised.value.__cause__)

    def test_no_items(self, two_workers):
        assert ordered_map(_square, []) == []

    def test_worker_that_dies_fails_the_map(self, two_workers):
        with pytest.raises(BrokenProcessPool):
            ordered_map(_exit_on_2, range(6))
        assert_no_child_process()

    def test_stops_starting_items_after_the_first_error(self, two_workers, tmp_path):
        with pytest.raises(ValueError, match="bad item 0"):
            ordered_map(_fail_on_0_else_mark, [(i, tmp_path) for i in range(20)])
        assert len(list(tmp_path.iterdir())) < 10
        assert_no_child_process()

    @pytest.mark.parametrize("workers", ["one_worker", "two_workers"])
    def test_starts_no_thread(self, request, monkeypatch, workers):
        # a start that raised would leave a thread pool that cannot shut
        # down and hang the test, so each start is recorded and let through
        request.getfixturevalue(workers)
        started, start = [], threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        assert ordered_map(_square, range(9)) == [x * x for x in range(9)]
        assert started == []
        assert_no_child_process()

    @pytest.mark.parametrize("workers", ["one_worker", "two_workers"])
    def test_results_larger_than_a_pipe_buffer(self, request, workers):
        request.getfixturevalue(workers)
        results = ordered_map(_megabyte, range(8))
        assert [r.nbytes for r in results] == [2 ** 20] * 8
        for x, r in enumerate(results):
            np.testing.assert_array_equal(r, _megabyte(x))
        assert_no_child_process()

    def test_killed_worker_fails_the_map(self, two_workers):
        with pytest.raises(BrokenProcessPool):
            ordered_map(_kill_self_on_2, range(6))
        assert_no_child_process()

    def test_unpicklable_result_fails_its_item(self, two_workers):
        # the pickling error of item 3 comes first in input order, before
        # item 5's ValueError
        with pytest.raises(AttributeError, match="Can't pickle local object"):
            ordered_map(_unpicklable_on_3, range(8))
        assert_no_child_process()

    @pytest.mark.parametrize("workers", ["one_worker", "two_workers"])
    def test_system_exit_from_fn_fails_its_item(self, request, workers):
        request.getfixturevalue(workers)
        with pytest.raises(SystemExit, match="exit at item 3"):
            ordered_map(_exit_on_3, range(8))
        assert_no_child_process()

    @pytest.mark.parametrize("workers", ["one_worker", "two_workers"])
    def test_slower_earlier_failure_wins(self, request, workers):
        # at two workers item 1 fails first in time, item 0 first in order
        request.getfixturevalue(workers)
        with pytest.raises(KeyError, match="item 0"):
            ordered_map(_slow_fail_on_0_fast_fail_on_1, range(4))
        assert_no_child_process()

    def test_worker_killed_before_its_next_item_fails_the_map(self, two_workers):
        # the parent's write of the next index meets a closed pipe
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc on this platform")
        with pytest.raises(BrokenProcessPool):
            ordered_map(_killed_while_sent_its_next_item, range(6))
        assert_no_child_process()

    @pytest.mark.parametrize("fn,raised", [
        (_square, None), (_fail_on_3_and_5, ValueError), (_exit_on_2, BrokenProcessPool),
        (_killed_while_sent_its_next_item, BrokenProcessPool)])
    def test_leaves_no_pipe_open(self, two_workers, fn, raised):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc on this platform")
        before = _pipe_fds()
        if raised is None:
            ordered_map(fn, range(8))
        else:
            with pytest.raises(raised):
                ordered_map(fn, range(8))
        assert _pipe_fds() == before
        assert_no_child_process()
