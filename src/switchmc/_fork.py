"""A computation run in a forked child process beside the caller's own work.

The solver forks its standard-error block pass and the noise sampler one
half of a large batch.  Both compute in the child exactly what they would
compute inline, so their outputs do not depend on whether a fork happened.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
import sys
import threading
import traceback
import warnings


def _may_fork() -> bool:
    """Whether a forked child can run beside this process: Linux, one thread, a spare CPU."""
    return (hasattr(os, "fork") and sys.platform.startswith("linux")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _recorded(fn, args) -> list:
    """(result, warnings, exception, traceback) of ``fn(*args)``, as the frames to send.

    The frames are the sizes, the pickle, and the raw data of the arrays
    it holds out of band (protocol 5), which the reader can put straight
    into arrays of its own.  Warnings are recorded, not shown, each with
    the name of the module that raised it; no frames when the outcome
    does not pickle.
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
    raws = []
    try:
        head = pickle.dumps((value, shown, exc, tb), protocol=5,
                            buffer_callback=lambda buf: raws.append(buf.raw()))
    except Exception:
        return []
    return [struct.pack(f"<{len(raws) + 2}Q", len(head), len(raws), *(r.nbytes for r in raws)),
            head, *raws]


def _filled(pipe, buf) -> memoryview:
    """``buf`` filled from ``pipe``; EOFError when the pipe ends first."""
    view = memoryview(buf)
    if view.nbytes:  # an empty view does not cast
        view = view.cast("B")
        if pipe.readinto(view) != view.nbytes:
            raise EOFError("the child's outcome is cut short")
    return view


def _received(pipe, into):
    """The pickle and out-of-band buffers ``_recorded`` framed; buffer k fills ``into[k]`` if sizes match."""
    n_head, n_raw = struct.unpack("<2Q", _filled(pipe, bytearray(16)))
    sizes = struct.unpack(f"<{n_raw}Q", _filled(pipe, bytearray(8 * n_raw)))
    head = _filled(pipe, bytearray(n_head))
    raws = []
    for k, size in enumerate(sizes):
        fits = k < len(into) and memoryview(into[k]).nbytes == size
        raws.append(_filled(pipe, into[k] if fits else bytearray(size)))
    return head, raws


class _Child:
    """``fn(*args)`` computed in a forked child process.

    ``result`` waits for the child and re-issues its warnings, in order,
    under this process's filters and warning registries, as if they were
    raised here; it then re-raises the child's exception or returns its
    result.  The result's arrays are read straight into the contiguous
    arrays ``into`` holds, in order, where their sizes match, so a large
    result is not copied through a temporary.  ``result`` returns None
    when the child sent nothing usable (it died, or its outcome did not
    pickle or does not unpickle), so the caller can compute inline.
    ``cancel`` kills and reaps the child; it is a no-op once the child is
    reaped, so it can sit in a ``finally``.
    """

    def __init__(self, fn, *args):
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
                    out.writelines(_recorded(fn, args))
            finally:
                os._exit(0)
        os.close(write)
        self.fd = read

    def result(self, into=()):
        try:
            with os.fdopen(self.fd, "rb", closefd=False) as pipe:
                head, raws = _received(pipe, into)
        except EOFError:
            return None
        finally:
            self.cancel()
        try:
            # An exception whose __init__ takes other arguments than its
            # .args pickles, but fails here; the inline rerun raises it.
            value, shown, exc, tb = pickle.loads(head, buffers=raws)
        except Exception:
            return None
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
