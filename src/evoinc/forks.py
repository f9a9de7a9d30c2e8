"""Independent pieces of one command on several CPUs, by `os.fork`: the
flow checks of `verify monotone`, the elementary-bound battery of `verify
solver` and the chunks of a long deviation series."""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """The CPUs `os.sched_getaffinity` names where `os.fork` exists, and 1
    where either is missing, since no child can run there."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def concurrently(*tasks) -> list:
    """The results of the zero-argument callables `tasks`, in order.

    With at least two `usable_cpus`, each task but the first runs in a
    forked child while the parent runs the first. A child sends back the
    pickle of its result, or of the exception it raised, and the parent
    takes the results in order, re-raising the first failure, so the first
    failing task in order wins, as inline. A task whose pipe or fork the
    system refuses (`OSError`, say EAGAIN) runs in the parent at its turn.
    Otherwise the tasks run inline, in order. A task computes the same
    bits either way.

    A child ends in `os._exit`, so it never returns into the caller's
    stack, flushes no inherited stdio buffer and runs no `atexit` handler.
    The parent reaps every child, and kills those still running when a
    task raises.
    """
    if usable_cpus() < 2:
        return [task() for task in tasks]
    children = []  # per later task: (pid, read end of its pipe), or None
    try:
        for task in tasks[1:]:
            children.append(_fork_task(task))
        results = [tasks[0]()]
        for task, child in zip(tasks[1:], children):
            results.append(task() if child is None else _result(child[1]))
        return results
    except BaseException:
        import signal  # only here: importing it costs 0.7 ms
        for pid, _ in filter(None, children):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.waitpid(pid, 0)


def _result(pipe):
    """The result that a child wrote to `pipe`, or the exception it wrote,
    raised."""
    reply = pipe.read()
    if not reply:
        raise ChildProcessError("a task's child process ended without a "
                                "result")
    ok, value = pickle.loads(reply)
    if not ok:
        raise value
    return value


def _fork_task(task):
    """(pid, read end) of a forked child that runs `task` and writes the
    pickle of (True, result), or of (False, exception), to the pipe; None
    when the system refuses the pipe or the fork."""
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(read)
            try:
                reply = pickle.dumps((True, task()))
            except BaseException as exc:
                reply = pickle.dumps((False, exc))
            with open(write, "wb") as pipe:
                pipe.write(reply)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")
