"""Per-recording work on every CPU this process may run on.

Every per-recording result is a pure function of the recording and of seeds
derived from (master seed, recording id), so the number of processes that
compute the results changes none of them. ordered_map runs one worker per
CPU in the process's affinity mask, at most one per item, and returns the
results in input order. With one CPU (`taskset -c 0 gazesim ...`), one item,
or no affinity mask or fork on the platform, it runs in this process and
imports no multiprocessing.

The workers are a concurrent.futures.ProcessPoolExecutor forked from the
`multiprocessing` "fork" context after the items exist, so they inherit the
function and the items (and whatever the caller loaded or patched before
the map) and are sent only item indices; results come back by pickle. What
a worker loads, logs to a handler in memory or counts is lost when it exits.
"""
from __future__ import annotations

import os

# (fn, items) of the running multi-process map, inherited by its workers
_work = None


def worker_count(n_items: int) -> int:
    """Processes ordered_map uses for n_items: one per CPU in this process's
    affinity mask and at most one per item; 1 without an affinity mask or
    fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _run(i: int):
    fn, items = _work
    return fn(items[i])


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on worker_count(len(items)) processes.

    Results must pickle. If fn raises, the exception of the first failing
    item in input order is raised, and no item after it is started once
    every item before it is done (items already handed to a worker still
    run). Every worker has exited before this returns or raises; a worker
    that dies raises concurrent.futures.process.BrokenProcessPool.
    """
    global _work
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    _work = (fn, items)
    try:
        # the workers fork at the first task, so they see _work
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, range(len(items))))
    finally:
        _work = None
