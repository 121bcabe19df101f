"""A computation run in a forked child process beside the caller's own work.

The solver forks its standard-error block pass and the noise sampler one
half of a large batch.  Both compute in the child exactly what they would
compute inline, so their outputs do not depend on whether a fork happened.
The child sends back a small pickle of its outcome; the sampler's child
returns nothing and writes its rows into arrays the parent mapped in
shared memory before the fork.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import sys
import threading
import traceback
import warnings


def _may_fork() -> bool:
    """Whether a forked child can run beside this process: Linux, one thread, a spare CPU."""
    return (hasattr(os, "fork") and sys.platform.startswith("linux")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _recorded(fn, args) -> bytes:
    """The pickled (result, warnings, exception, traceback) of ``fn(*args)``.

    Warnings are recorded, not shown, each with the name of the module
    that raised it.  Empty when the outcome does not pickle.
    """
    value = exc = tb = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except BaseException as e:
            exc, tb = e, traceback.format_exc()
    files = {getattr(mod, "__file__", None): name for name, mod in list(sys.modules.items())}
    shown = [(w.message, w.category, w.filename, w.lineno, files.get(w.filename)) for w in caught]
    try:
        return pickle.dumps((value, shown, exc, tb))
    except Exception:
        return b""


class _Child:
    """``fn(*args)`` computed in a forked child process.

    ``result`` waits for the child and re-issues its warnings, in order,
    under this process's filters and warning registries, as if they were
    raised here; it then re-raises the child's exception or returns its
    result.  When the child sent nothing usable (it died, or its outcome
    did not pickle or does not unpickle), ``result`` computes
    ``fn(*args)`` here instead.  ``cancel`` kills and reaps the child; it
    is a no-op once the child is reaped.
    """

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            try:
                os.close(read)
                with os.fdopen(write, "wb") as out:
                    out.write(_recorded(fn, args))
            finally:
                os._exit(0)
        os.close(write)
        self.fd = read

    @classmethod
    @contextlib.contextmanager
    def beside(cls, fork: bool, fn, *args):
        """Yields ``fn(*args)`` as a call, run meanwhile in a child forked now if ``fork``.

        The call returns the child's result.  Without a child (``fork`` is
        false or the fork failed) it computes ``fn(*args)`` inline.  The
        child is killed and reaped when the block ends.
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

    def result(self):
        try:
            with os.fdopen(self.fd, "rb", closefd=False) as pipe:
                sent = pipe.read()
        finally:
            self.cancel()
        try:
            # An empty or cut-short pickle means the child died.  An
            # exception whose __init__ takes other arguments than its .args
            # pickles, but fails here; the inline rerun raises it.
            value, shown, exc, tb = pickle.loads(sent)
        except Exception:
            return self.fn(*self.args)
        for message, category, filename, lineno, module in shown:
            mod = sys.modules.get(module)
            registry = None if mod is None else vars(mod).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, module, registry)
        if exc is not None:
            if hasattr(exc, "add_note"):
                exc.add_note(f"raised in a forked child process:\n{tb}")
            raise exc
        return value

    def cancel(self) -> None:
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.fd)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped by SIG_IGN
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
