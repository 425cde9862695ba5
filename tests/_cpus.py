"""The one seam through which tests choose how many CPUs the program sees.

``groupvec.forked.usable_cpus`` reads ``os.sched_getaffinity``; replacing
it makes ``eval`` split its queries into that many parts, and makes a
refresh fork its neighbor-table child or not.  ``os.fork`` is wrapped to
record every child, so a test can check that each one was reaped.
"""

import os

import pytest


def force_cpus(monkeypatch, cpus, can_fork=True) -> list:
    """Make the program see ``cpus`` CPUs, and ``os.fork`` only when
    ``can_fork``; at one CPU any fork fails the test.  Returns the list
    that collects the pid of each child forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked, fork = [], os.fork

    def recorded_fork():
        if cpus == 1:
            pytest.fail("a one-CPU run forked")
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    if can_fork:
        monkeypatch.setattr(os, "fork", recorded_fork)
    else:
        monkeypatch.delattr(os, "fork")
    return forked


def assert_reaped(forked, children):
    """``children`` children were forked, and every one of them is reaped.

    Each pid is checked on its own: ``os.waitpid(-1, ...)`` would also
    find children that are not the program's, such as the resource
    tracker a ``multiprocessing`` pool leaves behind."""
    assert len(forked) == children
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
