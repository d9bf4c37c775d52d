"""Fixtures for tests of `spectral.process_map` and its callers."""

import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """Pin the affinity mask that `process_map` reads: set_cpus(k) makes it
    hold k CPUs for the rest of the test."""
    def pin(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    return pin


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child `os.fork` makes in this process during the test."""
    made = []
    real = os.fork

    def recording():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return made


@pytest.fixture
def assert_no_children():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
