"""Fixtures shared by every test module."""
import pytest

from bernmod.sequences import get_prime_context


@pytest.fixture(autouse=True)
def fresh_prime_context():
    # the one-slot PrimeContext cache would outlive a test that swaps the
    # shared Bernoulli table: a context built from the old table holds rows
    # that the new one never read
    get_prime_context.cache_clear()
