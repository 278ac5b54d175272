"""The processes of a parallel sweep: this one, and a child per stripe of
batches but the last, each sending its results back once over a pipe.

`identities.sweep` imports this module only when it deals two or more
stripes.
"""
from __future__ import annotations

import multiprocessing
from fractions import Fraction
from typing import Callable

from .sequences import bernoulli_table


def _run_stripe(run: Callable, stripe: list, values: list[Fraction],
                writer) -> None:
    """A child's work: its table takes B_0, B_1, ... from values, then it
    runs each batch of the stripe and sends over writer, once, the results
    and the last index of its table, which holds every entry they read; or
    sends what it raised, for the parent to raise, and raises it here too,
    so its traceback reaches stderr."""
    try:
        bernoulli_table().merge(values)
        result = [run(batch) for batch in stripe], bernoulli_table().max_index
    except BaseException as exc:
        writer.send(exc)
        raise
    writer.send(result)


def run_stripes(run: Callable, stripes: list[list]) -> list:
    """Run each stripe of batches but the last in a daemonic child process
    of its own, started by multiprocessing's default context with this
    process's Bernoulli table, and the last here; return run(batch) of every
    batch, with this process's table grown as far as each child's reached.
    run must be picklable.  A child's exception is raised here, and so is a
    child that exits without sending; an exception here kills the children
    without waiting for their stripes.  It kills them with SIGKILL, which
    cannot be lost: a forked child inherits this process's Python signal
    handlers, and a SIGTERM that reaches it before its interpreter has
    finished forking is dropped."""
    context = multiprocessing.get_context()
    values = bernoulli_table().entries()
    children = []
    try:
        for stripe in stripes[:-1]:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_run_stripe, daemon=True,
                                    args=(run, stripe, values, writer))
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
