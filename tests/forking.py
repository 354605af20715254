"""Helpers for the tests of the fork-joined loops (``core._fork_join``).

Every input of the unit tests is far below ``core._FORK_MIN_ENTRIES``, so
these helpers lower the cut-off and set the worker count to make the loops
fork, count the forks, and check that no child is left behind.
"""

import contextlib
import os
from unittest import mock

import pytest

from seriation import core


def forks_on(workers: int = 3):
    """Every loop of at least ``workers`` units splits into ``workers`` parts,
    on any host: the cut-off is one entry per part."""
    return mock.patch.multiple(core, _FORK_MIN_ENTRIES=1, _WORKERS=workers)


@contextlib.contextmanager
def counted_forks():
    """Yield the list of the children forked inside the block."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", counting_fork):
        yield pids


def no_forks():
    """Any fork inside the block raises ``AssertionError``."""
    return mock.patch.object(os, "fork", side_effect=AssertionError("forked"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
