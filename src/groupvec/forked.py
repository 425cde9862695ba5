"""Work run in a forked child while the parent does its own.

``eval`` ranks each part of its queries but the first in a child, and a
refresh builds its neighbor table in a child while the parent clusters.
``usable_cpus`` is the one place that decides whether a fork can pay:
tests force a CPU count by replacing ``os.sched_getaffinity``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import typing


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where processes cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Child:
    """``work()`` run in a forked child: its return value, or its error
    text, comes back pickled through a pipe.  ``what`` names the child in
    the error of one that exits without a word.  Use it in a ``with``
    block, or call ``close``, so the child is reaped on every path."""

    def __init__(self, what: str, work: typing.Callable[[], typing.Any]):
        self.what = what
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            self._run(work, r, w)
        os.close(w)
        self.pipe = os.fdopen(r, "rb")

    @staticmethod
    def _run(work, r: int, w: int) -> typing.NoReturn:
        """The child's whole life: it writes nothing to stdout or stderr, and
        leaves with ``os._exit``, so no handler of the parent runs and no
        buffer the parent had open at the fork is flushed a second time."""
        status = 1
        try:
            os.close(r)
            try:
                message = (None, work())
            except Exception as exc:
                message = (str(exc), None)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(message, pipe)
            status = 0
        finally:
            os._exit(status)

    def result(self):
        """What ``work()`` returned, once the child has exited; its error
        text, or its exit status when it sent nothing, as a ValueError."""
        data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        try:
            error, value = pickle.loads(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise ValueError(f"{self.what} exited with status {code} and sent no result") from None
        if error is not None:
            raise ValueError(error)
        return value

    def close(self) -> None:
        """Kill the child if it still runs, reap it, and close the pipe."""
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
