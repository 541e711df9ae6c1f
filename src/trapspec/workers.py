"""A process pool for independent numerical calls.

The eigensolver sends it spectrum slices, and the billiard word search the
subtree of each start edge and start vertex. Each worker is a fresh
interpreter started as
`python -c "from trapspec.workers import serve; serve()"`: not a fork, and
not a re-run of the caller's `__main__` (multiprocessing's spawn does that),
so a script without an `if __name__ == "__main__"` guard still runs its top
level once. A worker reads pickled `(function, args)` calls on stdin and
writes one pickled `(ok, value)` reply per call on stdout. Every BLAS
thread-count variable is 1 in its environment, whatever the caller's says:
one worker per core already fills the machine. The package root imports its
modules on first use, so a fresh worker loads only what unpickling a call
needs: numpy and `billiards`, `planar` and `geometry` for a billiard start
walk, scipy and the eigensolver for a spectrum slice.

`executor(tasks)` is the seam callers go through. It returns `in_process`
when at most one worker would run (one core in the affinity mask, one task,
or a daemonic caller), else the `run` method of a pool shared by the whole
process. That pool starts on first use, keeps its workers for the life of
the process and closes them at exit; importing trapspec starts nothing.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
_SERVE = "from trapspec.workers import serve; serve()"
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)


def cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_process(calls):
    """Results of the (function, args) calls, run here one after another."""
    return [fn(*args) for fn, args in calls]


def executor(tasks: int):
    """A runner for `tasks` independent calls: `in_process` or the shared pool."""
    workers = min(cores(), tasks)
    if workers <= 1 or multiprocessing.current_process().daemon:
        return in_process
    return _shared_pool(workers).run


class WorkerPool:
    """Worker processes that run pickled calls and return results in call order."""

    def __init__(self, workers: int):
        self.pid = os.getpid()
        self.size = 0
        self._procs: list[subprocess.Popen] = []
        # worker -> index of the call it is running; None until it reports ready
        self._busy: dict[subprocess.Popen, int | None] = {}
        self._lock = threading.Lock()
        self.grow(workers)

    def grow(self, workers: int) -> None:
        """Start workers until there are `workers`, or as many as before a close."""
        self.size = max(self.size, workers)
        while len(self._procs) < self.size:
            env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
            proc = subprocess.Popen(
                [sys.executable, "-c", _SERVE],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=_PACKAGE_ROOT, env=env,
            )
            self._procs.append(proc)
            self._busy[proc] = None

    def run(self, calls):
        """Results of the (function, args) calls, in order.

        Each call goes to a worker as soon as the iterable yields it and one
        is idle, so producing later calls overlaps running earlier ones.
        Every call runs; the failure of the lowest-index failing call is then
        raised. On any other exit the pool is closed, since replies still in
        flight would otherwise reach the next run.
        """
        with self._lock:
            self.grow(self.size)
            try:
                replies = self._run(calls)
            except BaseException:
                self.close()
                raise
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def _run(self, calls):
        replies: dict[int, tuple] = {}
        queue: deque = deque()
        idle = [p for p in self._procs if p not in self._busy]

        def exchange(timeout: float | None) -> None:
            """Read the replies that are ready, then hand queued calls to idle workers."""
            if self._busy:
                ready, _, _ = select.select([p.stdout for p in self._busy], [], [], timeout)
                for proc in [p for p in self._busy if p.stdout in ready]:
                    try:
                        reply = pickle.load(proc.stdout)
                    except EOFError:
                        raise ChildProcessError(
                            f"worker {proc.pid} exited with status {proc.wait()}"
                        ) from None
                    index = self._busy.pop(proc)
                    if index is not None:
                        replies[index] = reply
                    idle.append(proc)
            while idle and queue:
                proc = idle.pop()
                index, call = queue.popleft()
                pickle.dump(call, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                proc.stdin.flush()
                self._busy[proc] = index

        total = 0
        for total, call in enumerate(calls, 1):
            queue.append((total - 1, call))
            exchange(0)
        while len(replies) < total:
            exchange(None)
        return [replies[i] for i in range(total)]

    def close(self) -> None:
        """Stop every worker: idle ones exit at end of input, busy ones are killed."""
        if self.pid != os.getpid():
            return  # a forked child does not own its parent's workers
        for proc in self._procs:
            if proc in self._busy:
                proc.kill()
            with contextlib.suppress(OSError):  # a call left half-written to a killed worker
                proc.stdin.close()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()
        self._procs.clear()
        self._busy.clear()


_pool: WorkerPool | None = None
_pool_lock = threading.Lock()


def _shared_pool(workers: int) -> WorkerPool:
    global _pool
    with _pool_lock:
        if _pool is None or _pool.pid != os.getpid():
            _pool = WorkerPool(0)
            atexit.register(_pool.close)
        _pool.grow(workers)
        return _pool


def serve() -> None:
    """Worker loop: reply to each pickled call on stdin until stdin closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the caller, which closes the pool
    calls = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything printed goes to stderr, not into the reply stream
    reply = (True, None)  # ready
    while True:
        try:
            data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(f"{reply[1]!r} cannot be returned: {exc}")))
        try:
            replies.write(data)
            replies.flush()
            fn, args = pickle.load(calls)
        except (BrokenPipeError, EOFError):
            return  # the caller closed the pool or is gone
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
