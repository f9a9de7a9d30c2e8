"""The fork helper: tasks in forked children, their results and
exceptions in order, and no child left behind."""

import os
import signal
import time

import pytest
from conftest import assert_no_child_left, set_cpus

from evoinc import forks
from evoinc.geometry import ProjectionDidNotConverge


def test_concurrently_runs_tasks_in_children_and_keeps_their_order(
        monkeypatch):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    pids = forks.concurrently(os.getpid, os.getpid, os.getpid)
    assert pids[0] == parent and parent not in pids[1:]
    assert len(set(pids)) == 3
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 1])
def test_concurrently_raises_the_first_failing_task_in_order(monkeypatch,
                                                             cpus):
    set_cpus(monkeypatch, cpus)

    def fail(residual):
        def task():
            raise ProjectionDidNotConverge("probe", residual)
        return task

    with pytest.raises(ProjectionDidNotConverge) as exc:
        forks.concurrently(lambda: 1, fail(2.5), fail(3.5))
    assert exc.value.residual == 2.5
    assert str(exc.value) == "probe (residual 2.500e+00)"
    assert_no_child_left()


def test_concurrently_kills_and_reaps_children_when_the_parent_raises(
        monkeypatch):
    set_cpus(monkeypatch, 2)
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        out = waitpid(pid, options)
        statuses.append(out[1])
        return out

    def parent_task():
        raise ValueError("parent")

    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(ValueError, match="parent"):
        forks.concurrently(parent_task, lambda: time.sleep(30))
    monkeypatch.undo()
    assert len(statuses) == 1
    assert os.WIFSIGNALED(statuses[0])
    assert os.WTERMSIG(statuses[0]) == signal.SIGKILL
    assert_no_child_left()


def test_concurrently_runs_inline_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert forks.usable_cpus() == 1
    parent = os.getpid()
    assert forks.concurrently(os.getpid, os.getpid) == [parent, parent]


def _refuse_fork(monkeypatch, calls):
    """Make the fork calls numbered in `calls` (from 1) raise EAGAIN."""
    fork, count = os.fork, []

    def refused():
        count.append(1)
        if len(count) in calls:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()
    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize("calls", [{1}, {2}, {1, 2}])
def test_a_refused_fork_runs_its_task_in_the_parent(monkeypatch, calls):
    set_cpus(monkeypatch, 2)
    _refuse_fork(monkeypatch, calls)
    parent = os.getpid()
    pids = forks.concurrently(os.getpid, os.getpid, os.getpid)
    assert pids[0] == parent
    for i in (1, 2):
        assert (pids[i] == parent) == (i in calls)
    assert_no_child_left()


def test_a_refused_pipe_runs_its_task_in_the_parent(monkeypatch):
    set_cpus(monkeypatch, 2)

    def refused():
        raise OSError(24, "Too many open files")
    monkeypatch.setattr(os, "pipe", refused)
    assert forks.concurrently(lambda: 1.0 / 3.0, os.getpid) == [
        1.0 / 3.0, os.getpid()]


@pytest.mark.parametrize("calls", [{1}, {2}])
def test_a_refused_fork_keeps_the_first_failing_task_in_order(monkeypatch,
                                                              calls):
    set_cpus(monkeypatch, 2)
    _refuse_fork(monkeypatch, calls)

    def fail(residual):
        def task():
            raise ProjectionDidNotConverge("probe", residual)
        return task

    with pytest.raises(ProjectionDidNotConverge) as exc:
        forks.concurrently(lambda: 1, fail(2.5), fail(3.5))
    assert exc.value.residual == 2.5
    assert_no_child_left()
