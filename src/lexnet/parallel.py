"""Independent tasks on the usable CPUs, with their results in input order.

:func:`ordered_map` is how the null ensembles and the Brandes sources use
more than one core. Every task it runs is a pure function of its item, so
a result does not depend on the process that computed it, and the caller
combines the results in input order: a report's bytes do not depend on
the number of CPUs.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# What one child costs the parent, in microseconds: the fork, the pipe,
# the wait and the copy-on-write faults. In a 26 MB process (2 vCPUs,
# x86-64, Python 3.11), two rewirings of 1.5-7.7 ms each took 4.3-5.6 ms
# longer as two chunks than one of them alone.
_FORK_US = 4_500


def _chunks(items: Sequence[T], cost_us: float) -> list[Sequence[T]]:
    """Contiguous chunks of items: as many as the work pays for, at most one per CPU.

    The parent forks the children one after another, so N chunks of W
    microseconds of work end after about (N - 1) forks and W/N: least at
    N = sqrt(W / _FORK_US), which keeps a call of under 4 forks' work
    in-process and, with many CPUs, the forks from outweighing the work.
    One chunk where forking is unsafe.
    """
    count = min(len(items), math.isqrt(int(len(items) * cost_us // _FORK_US)))
    if count < 2 or not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return [items]
    import threading

    # a fork copies only the calling thread, so a lock another thread holds
    # stays locked in the child (and 3.12+ warns about it)
    if threading.active_count() > 1:
        return [items]
    count = min(count, len(os.sched_getaffinity(0)))
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


def ordered_map(fn: Callable[[T], R], items: Sequence[T], cost_us: float) -> list[R]:
    """``[fn(x) for x in items]``, with the chunks after the first run in forked children.

    cost_us is the caller's estimate of one task's time in microseconds;
    it only sets how many chunks there are, never a result.

    The parent runs the first chunk itself while each other chunk runs in
    a child of its own, which pickles its results (or the exception a task
    raised) into a pipe and leaves with ``os._exit``. The parent reads the
    chunks in order and raises a child's exception again with its type,
    arguments and attributes, so the first failing item raises as it would
    in a loop. It waits for every child before it returns or raises. A
    chunk whose child could not be forked, or did not exit cleanly, runs in
    the parent.
    """
    chunks = _chunks(items, cost_us)
    if len(chunks) == 1:
        return [fn(x) for x in items]
    import pickle

    children: dict[int, tuple[int, int]] = {}  # chunk index -> (pid, read end of its pipe)
    try:
        for index in range(1, len(chunks)):
            child = _fork(fn, chunks[index], [fd for _, fd in children.values()])
            if child is not None:
                children[index] = child
        results: list[R] = []
        for index, chunk in enumerate(chunks):
            reply = None
            if index in children:
                with open(children[index][1], "rb", closefd=False) as pipe:
                    reply = pipe.read()
                if _reap(*children.pop(index)) != 0:
                    reply = None  # the child died before its reply was whole
            if reply is None:
                results.extend(fn(x) for x in chunk)
                continue
            ok, value = pickle.loads(reply)
            if not ok:
                cls, args, state = value
                error = cls.__new__(cls, *args)
                error.__dict__.update(state)
                raise error
            results.extend(value)
        return results
    finally:
        for child in children.values():
            _reap(*child)


def _fork(fn, chunk, inherited: list[int]) -> tuple[int, int] | None:
    """Start a child running fn over chunk; (pid, read end), or None if no process is left."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        _serve(fn, chunk, write_end, [read_end, *inherited])
    os.close(write_end)
    return pid, read_end


def _serve(fn, chunk, fd: int, inherited: list[int]) -> None:
    """The child's whole life: run the chunk, write one pickled reply, and exit."""
    import pickle

    status = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            reply = pickle.dumps((True, [fn(x) for x in chunk]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                reply = pickle.dumps((False, (type(exc), exc.args, vars(exc))))
            except Exception:  # an exception that does not pickle keeps its text
                reply = pickle.dumps((False, (RuntimeError, (f"{type(exc).__name__}: {exc}",), {})))
        with open(fd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)  # no atexit handler, buffer flush or finalizer of the parent's runs here


def _reap(pid: int, fd: int) -> int:
    """Close the read end and wait for the child; its wait status, 0 for a clean exit."""
    os.close(fd)  # a child still writing its reply gets a broken pipe and exits
    return os.waitpid(pid, 0)[1]
