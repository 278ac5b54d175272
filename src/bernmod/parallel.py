"""The processes of a parallel sweep: this one, and a child per stripe of
batches but the last, each sending its results back once over a pipe.

`identities.sweep` imports this module only when it deals two or more
stripes.
"""
from __future__ import annotations

import multiprocessing
from multiprocessing.util import register_after_fork
from typing import Callable

from .cache import unlimited_int_digits
from .sequences import BernoulliTable, bernoulli_table


def _run_stripe(run: Callable, stripe: list, table: BernoulliTable,
                writer) -> None:
    """A child's work: its table merges table, then, with no int/str digit
    limit, it runs each batch of the stripe and sends over writer, once, the
    results and its table's last index, or sends what it raised and raises it.
    A parent's death ends it quietly, before the next batch or at the send: a
    forked child has closed the readers it inherited."""
    try:
        with unlimited_int_digits():
            bernoulli_table().merge(table)
            results = []
            for batch in stripe:
                if not multiprocessing.parent_process().is_alive():
                    return
                results.append(run(batch))
        writer.send((results, bernoulli_table().max_index))
    except BaseException as exc:
        if not isinstance(exc, BrokenPipeError):  # else the parent is gone
            writer.send(exc)
            raise


def run_stripes(run: Callable, stripes: list[list]) -> list:
    """Run each stripe of batches but the last in a daemonic child process of
    its own, started by multiprocessing's default context, and the last here;
    return run(batch) of every batch, with this process's table grown as far as
    each child's reached.  A child gets this process's Bernoulli table and
    keeps, of the pipes, its own write end alone.  run must be picklable.  A
    child's exception is raised here, as is a child's exit unsent; an exception
    here kills the children without waiting for their stripes, by SIGKILL,
    which cannot be lost: a forked child inherits this process's Python signal
    handlers, and a SIGTERM that reaches it before its interpreter has finished
    forking is dropped."""
    context = multiprocessing.get_context()
    table = bernoulli_table()
    children = []
    try:
        for stripe in stripes[:-1]:
            reader, writer = context.Pipe(duplex=False)
            register_after_fork(reader, type(reader).close)
            child = context.Process(target=_run_stripe, daemon=True,
                                    args=(run, stripe, table, writer))
            child.start()
            children.append((child, reader))
            # this process's copy closed, so a child that dies unsent
            # leaves the reader at end of file
            writer.close()
        done = [run(batch) for batch in stripes[-1]]
        for child, reader in children:
            try:
                result = reader.recv()
            except EOFError:
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
        for child, reader in children:
            child.join()
            reader.close()
    return done
