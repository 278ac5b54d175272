"""Fixtures shared by every test module."""
import multiprocessing
from multiprocessing import popen_fork

import pytest

from bernmod.sequences import get_prime_context


@pytest.fixture(autouse=True)
def fresh_prime_context():
    # the one-slot PrimeContext cache would outlive a test that swaps the
    # shared Bernoulli table: a context built from the old table holds rows
    # that the new one never read
    get_prime_context.cache_clear()


@pytest.fixture
def start_children_by(monkeypatch):
    """start_children_by(method) makes a pooled sweep start its children by
    that start method, through multiprocessing.get_context(), the context
    sweep reads; it returns a list that records, as each child is launched,
    the start method its launcher really used."""
    def use(method):
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
        launched = []
        init = popen_fork.Popen.__init__  # every launcher's base class

        def record(popen, process_obj):
            launched.append(popen.method)
            init(popen, process_obj)

        monkeypatch.setattr(popen_fork.Popen, "__init__", record)
        return launched
    return use
