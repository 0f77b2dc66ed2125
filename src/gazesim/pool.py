"""Per-recording work on every CPU this process may run on.

Every per-recording result is a pure function of the recording and of seeds
derived from (master seed, recording id), so the number of processes that
compute the results changes none of them. ordered_map runs one worker per
CPU in the process's affinity mask, at most one per item, and returns the
results in input order. With one CPU (`taskset -c 0 gazesim ...`), one item,
or no affinity mask or fork on the platform, it runs in this process.

The workers are bare os.fork() children, forked after the items exist, so
they inherit the function and the items (and whatever the caller loaded or
patched). This process writes a worker the index of its next item, on the
worker's inbox pipe, once the worker's last pickled result has arrived on
its outbox pipe. It waits on the outboxes with select, starts no thread and
loads no multiprocessing. What a worker loads, logs to a handler in memory
or counts is lost when it exits.

worker_count also sets the threads of assess's KD-tree query (above
assess._DENSE_MAX_ROWS pooled rows): SciPy splits the query over one thread
per CPU and joins them all before the query returns. So no thread outlives
the call that started it, and no fork here runs beside a live thread.
"""
from __future__ import annotations

import os

_WORD = 8  # bytes of an item index, and of a result's length prefix


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


def _work(fn, items, held, inbox: int, outbox: int) -> None:
    """A forked worker: close the other pipe ends in held; for each index
    read from inbox until it ends, write the item's pickled (ok, result or
    exception, traceback text), after its length, to outbox; then exit."""
    code = 1
    try:
        import pickle
        import traceback
        for fd in set(held) - {inbox, outbox}:
            os.close(fd)
        while index := os.read(inbox, _WORD):
            try:
                message = pickle.dumps((True, fn(items[int.from_bytes(index, "little")]), None))
            except BaseException as exc:  # fn failed, or its result does not pickle
                message = pickle.dumps((False, exc, traceback.format_exc()))
            data = memoryview(len(message).to_bytes(_WORD, "little") + message)
            while data:
                data = data[os.write(outbox, data):]
        code = 0
    finally:
        _flush_stdio()
        os._exit(code)


def _receive(outbox: int, n: int = _WORD):
    """The next n bytes of a worker's outbox; BrokenProcessPool if it ends."""
    buf, got = bytearray(n), 0
    while got < n:
        step = os.readv(outbox, [memoryview(buf)[got:]])
        if not step:
            from concurrent.futures.process import BrokenProcessPool
            raise BrokenProcessPool("a worker exited before it reported its item")
        got += step
    return buf


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on worker_count(len(items)) processes.

    Results must pickle. If fn raises, or its result does not pickle, the
    exception of the first failing item in input order is raised, and no
    item after a failed one is started (items already running in a worker
    still finish). Every worker has exited before this returns or raises; a
    worker that exits before it reports its item raises
    concurrent.futures.process.BrokenProcessPool.
    """
    items = list(items)
    if worker_count(len(items)) == 1:
        return [fn(item) for item in items]
    import pickle
    import select
    import signal
    held = []     # every pipe end this process holds open
    workers = {}  # read end of each worker's outbox -> (its pid, write end of its inbox)
    running = {}  # read end of each busy worker's outbox -> index of its item
    outcomes = [None] * len(items)  # (ok, result or exception, traceback text)
    _flush_stdio()
    try:
        for _ in range(worker_count(len(items))):
            held += os.pipe()
            held += os.pipe()
            inbox_r, inbox_w, outbox_r, outbox_w = held[-4:]
            pid = os.fork()
            if pid == 0:
                _work(fn, items, held, inbox_r, outbox_w)
            workers[outbox_r] = (pid, inbox_w)
            for fd in (inbox_r, outbox_w):
                held.remove(fd)
                os.close(fd)
        idle, started, stop = list(workers), 0, len(items)  # stop: the first item not to start
        while idle:
            for reader in idle[:stop - started]:  # the next items, one per idle worker
                try:  # fewer than PIPE_BUF bytes: written whole, at once
                    os.write(workers[reader][1], started.to_bytes(_WORD, "little"))
                except BrokenPipeError:  # the worker has exited: its outbox reads as ended
                    pass
                running[reader], started = started, started + 1
            idle = select.select(list(running), [], [])[0] if running else []
            for reader in idle:
                size = int.from_bytes(_receive(reader), "little")
                i = running.pop(reader)
                outcomes[i] = pickle.loads(_receive(reader, size))
                if not outcomes[i][0]:
                    stop = started  # no item after a known failure
    finally:
        for fd in held:  # ends every inbox, so each idle worker exits
            os.close(fd)
        for reader, (pid, _inbox) in workers.items():
            if reader in running:  # only when this map fails
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value, remote in filter(None, outcomes):  # in input order
        if not ok:
            raise value from _RemoteTraceback(remote)
    return [value for _ok, value, _remote in outcomes]
