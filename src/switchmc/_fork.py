"""A computation run in a forked child process beside the caller's own work.

The solver forks its standard-error block pass and the noise sampler one
half of a large batch.  Both write their results into arrays that the
parent allocated with ``_empty`` in shared memory before the fork, and
return nothing.  The parent reads nothing else from the child but its
exit status: 0 only when the call returned without an exception or a
warning that the caller's filters would show; the child inherits those
filters.  On any other outcome (an exception, such a warning, a crash or
a kill) the parent runs the same call itself, so its outputs, warnings
and exceptions are those of the inline run.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import signal
import sys
import threading
import warnings

import numpy as np


def _may_fork() -> bool:
    """Whether a forked child can run beside this process: Linux, one thread, a spare CPU."""
    return (hasattr(os, "fork") and sys.platform.startswith("linux")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _empty(shape: tuple, dtype, shared: bool) -> np.ndarray:
    """An uninitialized array; in anonymous shared memory when ``shared``.

    A shared array is mapped from the system, not taken from the heap, so
    its pages go back to the system as soon as it is freed.
    """
    nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    if not (shared and nbytes):  # mmap rejects length 0
        return np.empty(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


class _Child:
    """``fn(*args)`` computed in a forked child process.

    ``fn`` returns nothing and writes its results into shared arrays.
    ``result`` waits for the child and, unless it exited 0, computes
    ``fn(*args)`` here instead.  ``cancel`` kills and reaps the child; it
    is a no-op once the child is reaped.
    """

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                with warnings.catch_warnings(record=True) as caught:
                    fn(*args)
                status = int(bool(caught))
            finally:
                os._exit(status)

    @classmethod
    @contextlib.contextmanager
    def beside(cls, fork: bool, fn, *args):
        """Yields ``fn(*args)`` as a call, run meanwhile in a child forked now if ``fork``.

        The call waits for the child.  Without a child (``fork`` is false
        or the fork failed) it computes ``fn(*args)`` inline.  The child
        is killed and reaped when the block ends.
        """
        child = None
        if fork:
            with contextlib.suppress(OSError):
                child = cls(fn, *args)
        try:
            yield functools.partial(fn, *args) if child is None else child.result
        finally:
            if child is not None:
                child.cancel()

    def result(self) -> None:
        try:
            clean = os.waitpid(self.pid, 0)[1] == 0
        except ChildProcessError:  # reaped by SIG_IGN
            clean = False
        self.pid = None
        if not clean:
            self.fn(*self.args)

    def cancel(self) -> None:
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped by SIG_IGN
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
