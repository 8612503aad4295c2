"""One forked child process, the command line's worker on a second CPU.

``verify`` forks one to share CumulativeBias's branches
(``verification._forked_map``), and ``sweep`` and ``compare`` one per
lock-step group to draw its noise ahead (``streams.row_streams``).  Library
calls never fork; each caller decides that and passes only its work here.
"""

from __future__ import annotations

import contextlib
import os
import sys

__all__ = ["forked"]

# Linux's prctl option that names the signal a process gets when its
# parent dies
_PR_SET_PDEATHSIG = 1


@contextlib.contextmanager
def forked(work):
    """Context of ``join`` for one child forked on entry that runs
    ``work()``, or of None where fork raises OSError (no process to spare).

    ``join(stop=False)`` reaps the child, with ``stop`` killing it first,
    and raises RuntimeError if the child failed: exited nonzero, or without
    ``stop`` was killed.  A child that raises writes its traceback to fd 2
    and exits 1.  Leaving the context unjoined, on this process's own error
    or a KeyboardInterrupt, kills and reaps the child: no process outlives
    the command, and none is left a zombie."""
    import signal

    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        yield None
        return
    if pid == 0:
        # the child leaves only through os._exit: it must not flush the
        # stdio buffers it copied from the parent, run the parent's exit
        # hooks, or return into the caller's code (the CLI, a test runner)
        code = 1
        try:
            if sys.platform == "linux":
                # die with the parent: one killed from outside (a
                # timeout's SIGKILL runs no handler) leaves nothing running
                import ctypes

                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = (ctypes.c_int,
                                                 ctypes.c_ulong), ctypes.c_int
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() != parent:   # it died before the prctl
                    os._exit(1)
            work()
            code = 0
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    reaped = False

    def join(stop: bool = False):
        nonlocal reaped
        if stop:
            os.kill(pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code and not (stop and code == -signal.SIGKILL):
            raise RuntimeError(f"the forked worker exited with code {code}")

    try:
        yield join
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
