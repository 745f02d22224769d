"""Fork-and-pipe worker group, and threads inside one op of one process.

A command's ``--workers`` is its core budget.  ``split_cores`` spends it on
processes first, one per independent job up to the budget, and gives each
process the cores left over as threads for its numpy work.

``ForkGroup(n, inherited)`` forks ``n - 1`` children once, with the ``fork``
start method, so every child holds ``inherited`` (the training corpus, say)
through the fork and no audio is ever pickled.  Each child has its own
``Pipe`` and serves one request at a time, ``fn(inherited, *args)``, where
``fn`` is a module-level function sent by reference.  ``map`` splits its
items into balanced shares, computes share 0 in the calling process and
receives the other shares on the calling thread, so there is no helper
thread, queue or result handler.

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
from typing import Callable, Sequence

__all__ = ["ForkGroup", "balance", "split_cores", "fan_out"]


def split_cores(workers: int, jobs: int) -> tuple[int, int]:
    """(processes, threads per process) for a budget of ``workers`` cores
    over ``jobs`` independent jobs: min(workers, jobs) processes, at least
    one, and ``workers // processes`` threads in each."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    processes = max(1, min(workers, jobs))
    return processes, workers // processes


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


def balance(weights: Sequence[float], n: int) -> list[list[int]]:
    """Indices of ``weights`` in at most ``n`` non-empty shares, each in
    ascending order.  Heaviest first, each index goes to the lightest share
    so far (ties to the lower share and, among equal weights, the lower
    index first)."""
    totals = [0.0] * max(n, 1)
    shares: list[list[int]] = [[] for _ in totals]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        s = totals.index(min(totals))
        shares[s].append(i)
        totals[s] += weights[i]
    return [sorted(s) for s in shares if s]


def _serve(conn, inherited, foreign) -> None:
    """A child's loop: answer requests on ``conn`` until it reaches end of file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles ^C and closes the group
    for other in foreign:   # the parent's ends; holding them would hide its death
        other.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(inherited, *args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:   # the parent closed the group or died
            return


class ForkGroup:
    """The calling process plus ``n - 1`` forked children (none for n <= 1)."""

    def __init__(self, n: int, inherited: object = None):
        self._inherited = inherited
        self._conns: list = []
        self._procs: list = []
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(n - 1):
                mine, theirs = ctx.Pipe()
                self._conns.append(mine)
                proc = ctx.Process(target=_serve, args=(theirs, inherited, list(self._conns)), daemon=True)
                proc.start()
                theirs.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def map(self, fn: Callable, items: Sequence, weights: Sequence[float], *args) -> list:
        """One result per item of ``items``, in their order.

        ``balance`` splits the items by ``weights`` into at most one share
        per process; ``fn(inherited, *args, share_items)`` returns one result per
        item of its share.  Share 0 runs here, share i in child i.  The
        group closes if any share fails.
        """
        shares = balance(weights, len(self._procs) + 1)
        if not shares:
            return []
        jobs = [(*args, [items[i] for i in share]) for share in shares]
        try:
            for conn, job in zip(self._conns, jobs[1:]):
                conn.send((fn, job))
            replies = [fn(self._inherited, *jobs[0])]
            for conn, proc in zip(self._conns, self._procs[: len(jobs) - 1]):
                try:
                    ok, value = conn.recv()
                except EOFError:
                    proc.join()
                    raise ChildProcessError(f"worker process {proc.pid} exited with code {proc.exitcode} before returning its share") from None
                if not ok:
                    raise value
                replies.append(value)
        except BaseException:
            self.close()
            raise
        results = [None] * len(items)
        for share, reply in zip(shares, replies):
            for i, result in zip(share, reply):
                results[i] = result
        return results

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
