"""Fork-and-pipe worker group, and threads inside one op of one process.

A command's ``--workers`` is its core budget.  ``ForkGroup(workers, jobs,
inherited)`` spends it on processes first, one per independent job up to
the budget, and gives each process the cores left over as ``threads`` for
its numpy work.  It forks its children once, with the ``fork`` start
method, so every child holds ``inherited`` (the training corpus, say)
through the fork and no audio is ever pickled.  Each child has its own
``Pipe`` and serves one request at a time.  ``map`` queues its items
heaviest first and deals them from a counter shared through the fork:
process i, the caller being 0, starts at position i and then takes the
next position whenever it is free, calling ``fn(inherited, threads,
*args, item)``, a module-level function sent by reference.  The caller
then receives each child's results on its own thread.  One process yields
its results lazily.

Children ignore SIGINT and exit when their pipe reaches end of file: when
the group closes, or when the parent dies without closing it.  A child that
dies mid-request makes ``map`` raise a one-line ``ChildProcessError``.

``fan_out(fn, n)`` runs ``fn(0)`` .. ``fn(n - 1)`` on the calling thread and
``n - 1`` helper threads, started and joined inside the call.  There is no
thread pool: a pool made before a fork would reach the child without its
threads, and the child's first task would hang.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from typing import Callable, Iterator, Sequence

__all__ = ["ForkGroup", "fan_out"]


def fan_out(fn: Callable[[int], None], n: int) -> None:
    """Call ``fn(0)`` on the calling thread and ``fn(1)`` .. ``fn(n - 1)`` on
    one new thread each; return once all have finished, raising the first
    error any of them raised."""
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            fn(i)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, n)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def _take(counter, rank: int, queue: list) -> Iterator:
    """The entries of ``queue`` that one process takes: position ``rank``
    first, then whichever position ``counter`` holds next, until none is left."""
    i = rank
    while i < len(queue):
        yield queue[i]
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1


def _serve(conn, inherited, counter, rank, foreign) -> None:
    """A child's loop: answer requests on ``conn`` until it reaches end of file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles ^C and closes the group
    for other in foreign:   # the parent's ends; holding them would hide its death
        other.close()
    while True:
        try:
            fn, args, queue = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, [(i, fn(inherited, *args, item)) for i, item in _take(counter, rank, queue)])
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:   # the parent closed the group or died
            return


class ForkGroup:
    """A budget of ``workers`` cores over ``jobs`` independent jobs: the
    calling process plus forked children, max(1, min(workers, jobs))
    processes in all, each running ``threads = workers // processes``."""

    def __init__(self, workers: int, jobs: int, inherited: object = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        processes = max(1, min(workers, jobs))
        self.threads = workers // processes
        self._inherited = inherited
        self._conns: list = []
        self._procs: list = []
        ctx = multiprocessing.get_context("fork")
        self._next = ctx.Value("q", 0)   # the next queue position to take, shared through the fork
        try:
            for rank in range(1, processes):
                mine, theirs = ctx.Pipe()
                self._conns.append(mine)
                proc = ctx.Process(target=_serve, args=(theirs, inherited, self._next, rank, list(self._conns)), daemon=True)
                proc.start()
                theirs.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def map(self, fn: Callable, items: Sequence, weights: Sequence[float], *args) -> Iterator:
        """One result ``fn(inherited, threads, *args, item)`` per item of ``items``, in their order.

        Without children the results are computed lazily, one per step of
        the iterator.  Otherwise the items are queued by ``weights``,
        heaviest first, and dealt to the processes as they come free; the
        group closes if any item fails.
        """
        args = (self.threads, *args)
        if not self._procs:
            return (fn(self._inherited, *args, item) for item in items)
        queue = sorted(enumerate(items), key=lambda pair: -weights[pair[0]])
        busy = list(zip(self._conns, self._procs))[: max(len(queue) - 1, 0)]
        try:
            self._next.value = len(busy) + 1   # the children are idle between calls
            for conn, _ in busy:
                conn.send((fn, args, queue))
            taken = [(i, fn(self._inherited, *args, item)) for i, item in _take(self._next, 0, queue)]
            for conn, proc in busy:
                try:
                    ok, value = conn.recv()
                except EOFError:
                    proc.join()
                    raise ChildProcessError(f"worker process {proc.pid} exited with code {proc.exitcode} before returning its items") from None
                if not ok:
                    raise value
                taken += value
        except BaseException:
            self.close()
            raise
        return (result for _, result in sorted(taken, key=lambda pair: pair[0]))

    def close(self) -> None:
        """Close every pipe and reap every child; idle children exit at once."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.exitcode is None:   # still inside a request
                proc.terminate()
                proc.join()
        self._conns, self._procs = [], []

    def __enter__(self) -> ForkGroup:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
