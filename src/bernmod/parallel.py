"""The processes of a parallel sweep: this one, and a child per stripe of
batches but the last, each sending its results back once over a pipe.

`identities.sweep` imports this module only when it runs with jobs > 1.
"""
from __future__ import annotations

import multiprocessing
from fractions import Fraction
from typing import Callable

from .sequences import bernoulli_table


def _run_stripe(run: Callable, stripe: list, values: list[Fraction],
                writer) -> None:
    """A child's work: its table takes B_0, B_1, ... from values, then it
    runs each batch of the stripe and sends the results over writer, once;
    or sends what it raised, for the parent to raise, and raises it here
    too, so its traceback reaches stderr."""
    try:
        bernoulli_table().merge(values)
        result = [run(batch) for batch in stripe]
    except BaseException as exc:
        writer.send(exc)
        raise
    writer.send(result)


def run_stripes(run: Callable, stripes: list[list]) -> list:
    """Run each stripe of batches but the last in a daemonic child process
    of its own, started by multiprocessing's default context with this
    process's Bernoulli table, and the last here; return run(batch) of every
    batch.  run must be picklable.  A child's exception is raised here, and
    so is a child that exits without sending; an exception here terminates
    the children without waiting for their stripes."""
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
            done += result
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()
    return done
