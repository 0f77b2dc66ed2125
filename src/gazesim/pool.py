"""Per-recording work on every CPU this process may run on.

Every per-recording result is a pure function of the recording and of seeds
derived from (master seed, recording id), so the number of processes that
compute the results changes none of them. ordered_map runs one worker per
CPU in the process's affinity mask, at most one per item, and returns the
results in input order. With one CPU (`taskset -c 0 gazesim ...`), one item,
or no affinity mask or fork on the platform, it runs in this process and
imports no multiprocessing.

The workers are bare os.fork() children of this process, forked after the
items exist, so they inherit the function and the items (and whatever the
caller loaded or patched before the map). Each worker claims the next item
index from a counter in shared memory and writes each pickled result to its
own pipe. This process waits on the pipes and unpickles the results in its
main thread: it starts no thread and keeps no queue. What a worker loads,
logs to a handler in memory or counts is lost when it exits.
"""
from __future__ import annotations

import os


class _RemoteTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker: the
    cause of that exception when ordered_map raises it."""


def worker_count(n_items: int) -> int:
    """Processes ordered_map uses for n_items: one per CPU in this process's
    affinity mask and at most one per item; 1 without an affinity mask or
    fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _flush_stdio() -> None:
    # before a fork, so that a worker does not write the parent's buffered
    # output again; in a worker, before os._exit, which flushes nothing
    import sys
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _work(fn, items, claims, lock, conn) -> None:
    """A forked worker's loop: claim the next index claims[0] while it is
    below claims[1], the lowest failed index, and send each item's pickled
    (index, ok, result or exception, traceback text or None) on conn."""
    import pickle
    import traceback
    try:
        while True:
            with lock:
                i = claims[0]
                if i >= claims[1]:
                    return
                claims[0] = i + 1
            try:
                message = pickle.dumps((i, True, fn(items[i]), None))
            except BaseException as exc:  # fn failed, or its result does not pickle
                with lock:
                    claims[1] = min(claims[1], i)
                message = pickle.dumps((i, False, exc, traceback.format_exc()))
            conn.send_bytes(message)
    finally:
        _flush_stdio()


def _broken_pool(message: str):
    from concurrent.futures.process import BrokenProcessPool
    return BrokenProcessPool(message)


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on worker_count(len(items)) processes.

    Results must pickle. If fn raises, or its result does not pickle, the
    exception of the first failing item in input order is raised, and no
    item after a failed one is started (items already claimed by a worker
    still run). Every worker has exited before this returns or raises; a
    worker that exits before it reports every item it claimed raises
    concurrent.futures.process.BrokenProcessPool.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    import mmap
    import multiprocessing
    import pickle
    import signal
    from multiprocessing.connection import wait
    context = multiprocessing.get_context("fork")
    lock = context.Lock()
    shared = mmap.mmap(-1, 16)
    claims = memoryview(shared).cast("q")
    claims[1] = len(items)  # [next index to claim, lowest failed index]
    children = {}  # read end of each worker's pipe -> pid, until it is reaped
    outcomes = {}  # index -> (ok, result or exception, traceback text)
    _flush_stdio()
    try:
        for _ in range(workers):
            conn, worker_end = context.Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _work(fn, items, claims, lock, worker_end)
                    code = 0
                finally:
                    os._exit(code)
            worker_end.close()
            children[conn] = pid
        while children:
            for conn in wait(list(children)):
                try:
                    message = conn.recv_bytes()
                except EOFError:
                    code = os.waitstatus_to_exitcode(os.waitpid(children[conn], 0)[1])
                    del children[conn]
                    conn.close()
                    if code:
                        raise _broken_pool(f"a worker exited with code {code}")
                    continue
                i, ok, value, remote = pickle.loads(message)
                outcomes[i] = (ok, value, remote)
        if len(outcomes) < claims[0]:
            raise _broken_pool("a worker exited before it reported every item it claimed")
        failed = [i for i, (ok, _value, _remote) in outcomes.items() if not ok]
        if failed:
            _ok, exc, remote = outcomes[min(failed)]
            raise exc from _RemoteTraceback(remote)
        return [outcomes[i][1] for i in range(len(items))]
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        for conn, pid in children.items():
            os.waitpid(pid, 0)
            conn.close()
        claims.release()
        shared.close()
