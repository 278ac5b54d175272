"""The processes of a parallel sweep: this one, and a child per stripe of
batches but the last, each sent its stripe and sending its results back once
over a pipe.

`identities.sweep` imports this module only when it deals two or more
stripes.
"""
from __future__ import annotations

import multiprocessing
from multiprocessing.util import register_after_fork
from typing import Callable

from .cache import unlimited_int_digits
from .sequences import bernoulli_table, set_bernoulli_table


def _run_stripe(run: Callable, conn) -> None:
    """A child's work: it receives over conn its stripe and a table, which
    becomes its own, then, with no int/str digit limit, it runs each batch of
    the stripe and sends over conn, once, the results and its table's last
    index, or sends what it raised and raises it.  A parent's death ends it
    quietly, at the receive, before the next batch or at the send: a forked
    child has closed the parent's pipe ends it inherited."""
    try:
        stripe, table = conn.recv()
        set_bernoulli_table(table)
        with unlimited_int_digits():
            results = []
            for batch in stripe:
                if not multiprocessing.parent_process().is_alive():
                    return
                results.append(run(batch))
        conn.send((results, bernoulli_table().max_index))
    except (EOFError, BrokenPipeError):  # the parent is gone
        pass
    except BaseException as exc:
        conn.send(exc)
        raise


def run_stripes(run: Callable, stripes: list[list]) -> list:
    """Run each stripe of batches but the last in a daemonic child process of
    its own, started by multiprocessing's default context, and the last here;
    return run(batch) of every batch, with this process's table grown as far as
    each child's reached.  A child starts with run and its end of a pipe,
    the one pipe end it keeps, and is sent over it its stripe and this
    process's Bernoulli table: the spawn launcher holds the read end of the
    pipe it writes a child's arguments into, so arguments past that pipe's
    buffer would hang it on a child that dies at start-up.  run must be
    picklable.  A child's exception is raised here, as is a child's exit
    unsent; an exception here kills the children without waiting for their
    stripes, by SIGKILL, which cannot be lost: a forked child inherits this
    process's Python signal handlers, and a SIGTERM that reaches it before its
    interpreter has finished forking is dropped."""
    context = multiprocessing.get_context()
    table = bernoulli_table()
    children = []
    try:
        for stripe in stripes[:-1]:
            conn, child_end = context.Pipe()
            register_after_fork(conn, type(conn).close)
            child = context.Process(target=_run_stripe, daemon=True,
                                    args=(run, child_end))
            child.start()
            children.append((child, conn))
            # this process's copy closed, so a child that dies leaves conn
            # at end of file, or reset if it left the stripe unread
            child_end.close()
            try:
                conn.send((stripe, table))
            except BrokenPipeError:  # a dead child, reported at its receive
                pass
        done = [run(batch) for batch in stripes[-1]]
        for child, conn in children:
            try:
                result = conn.recv()
            except (EOFError, ConnectionResetError):
                child.join()
                raise RuntimeError(
                    f"sweep child {child.pid} exited with code "
                    f"{child.exitcode} before sending its batches") from None
            if isinstance(result, BaseException):
                raise result
            results, top = result
            done += results
            # an index batch can read further (clausen_von_staudt reads B_200)
            bernoulli_table().value(top)
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
    return done
