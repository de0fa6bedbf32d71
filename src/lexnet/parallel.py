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
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# What one child costs the parent, in microseconds: the fork, the pipe,
# the wait and the copy-on-write faults. In a 26 MB process (2 vCPUs,
# x86-64, Python 3.11), two rewirings of 1.5-7.7 ms each took 4.3-5.6 ms
# longer on two workers than one of them alone.
_FORK_US = 4_500


def _workers(items: int, work_us: float) -> int:
    """How many processes share the items: as many as the work pays for, at most one per CPU.

    The parent forks the children one after another, so N workers on W
    microseconds of work end after about (N - 1) forks and W/N: least at
    N = sqrt(W / _FORK_US), which keeps a call of under 4 forks' work
    in-process and, with many CPUs, the forks from outweighing the work.
    One where forking is unsafe.
    """
    count = min(items, math.isqrt(int(work_us // _FORK_US)))
    if count < 2 or not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    import threading

    # a fork copies only the calling thread, so a lock another thread holds
    # stays locked in the child (and 3.12+ warns about it)
    if threading.active_count() > 1:
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def ordered_map(fn: Callable[[T], R], items: Sequence[T], work_us: float) -> Iterator[R]:
    """``map(fn, items)``, lazily, with the items of N - 1 workers run in forked children.

    work_us is the caller's estimate of all the items' time in
    microseconds, the sum of each task's own when they differ; it only
    sets the number of workers N, never a result.

    Nothing runs before the first result is read. Then item i goes to
    worker i mod N: the parent is worker 0 and computes its items when
    their turn comes, while each child w runs ``items[w::N]`` and pickles
    each result into a pipe as soon as it has it (or the exception a task
    raised, and stops). The parent yields the results in input order and
    raises a child's exception again with its type, arguments and
    attributes, so the first failing item raises as it would in a loop. A
    child runs ahead of the parent by at most one pipe buffer (64 KiB on
    Linux), which costs time, not bytes. When a child could not be forked,
    or its stream ends early, the parent computes the rest of its items.
    Every child is reaped when the iterator is exhausted, raises or is
    closed. A caller that stops reading early closes the iterator, and
    exhausts or closes one iterator before starting another: a second
    call's children would hold the first call's pipes open.
    """
    workers = _workers(len(items), work_us)
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker -> (pid, read end of its pipe)
    if workers > 1:
        # every child pickles and the parent unpickles: loaded once here, a
        # child inherits the module rather than importing it after the fork
        import pickle  # noqa: F401
    try:
        for w in range(1, workers):
            inherited = [pipe.fileno() for _, pipe in children.values()]
            child = _fork(fn, items[w::workers], inherited)
            if child is not None:
                children[w] = child
        for i, x in enumerate(items):
            w, reply = i % workers, None
            if w in children:
                reply = _receive(children[w][1])
                if reply is None:  # the child died: its items run here from now on
                    _reap(*children.pop(w))
            if reply is None:
                yield fn(x)
            elif reply[0]:
                yield reply[1]
            else:
                cls, args, state = reply[1]
                error = cls.__new__(cls, *args)
                error.__dict__.update(state)
                raise error
    finally:
        for child in children.values():
            _reap(*child)


def _fork(fn, items, inherited: list[int]) -> tuple[int, BinaryIO] | None:
    """Start a child running fn over items; (pid, read end), or None if no process is left."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        _serve(fn, items, write_end, [read_end, *inherited])
    os.close(write_end)
    return pid, open(read_end, "rb")


def _serve(fn, items, fd: int, inherited: list[int]) -> None:
    """The child's whole life: stream one pickled (ok, value) per item, and exit."""
    import pickle

    try:
        for other in inherited:
            os.close(other)
        with open(fd, "wb") as pipe:
            for x in items:
                try:
                    reply = pickle.dumps((True, fn(x)), pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:
                    try:
                        pipe.write(pickle.dumps((False, (type(exc), exc.args, vars(exc)))))
                    except Exception:  # an exception that does not pickle keeps its text
                        text = f"{type(exc).__name__}: {exc}"
                        pipe.write(pickle.dumps((False, (RuntimeError, (text,), {}))))
                    break
                pipe.write(reply)
                pipe.flush()
    finally:
        # the parent reads the stream, not the exit status; no atexit handler,
        # buffer flush or finalizer of the parent's runs here
        os._exit(0)


def _receive(pipe: BinaryIO) -> tuple | None:
    """A child's next (ok, value); None when its stream ends before a whole one."""
    import pickle

    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def _reap(pid: int, pipe: BinaryIO) -> None:
    """Close the read end and wait for the child."""
    pipe.close()  # a child still writing gets a broken pipe and exits
    os.waitpid(pid, 0)
