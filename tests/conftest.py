import itertools

import numpy as np
import pytest

from qbdesign.design import Design
from qbdesign.fixtures import load_fixture


@pytest.fixture(scope="session")
def fx():
    cache = {}

    def get(fixture_id):
        if fixture_id not in cache:
            cache[fixture_id] = load_fixture(fixture_id)
        return cache[fixture_id]

    return get


def full_factorial(m):
    return Design(np.array(list(itertools.product((-1, 1), repeat=m))))


def random_designs(count, seed, n_lo=4, n_hi=12, m_lo=2, m_hi=7):
    """Deterministic stream of (design, rng) pairs for property tests."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        m = int(rng.integers(m_lo, m_hi + 1))
        yield Design(rng.integers(0, 2, size=(n, m)) * 2 - 1), rng


def enumerated_word_counts(x, k_max):
    """S_1..S_k_max by summing J_s^2 over every k-subset of columns.

    The reference for the distance/Krawtchouk kernel: it shares no code with
    the package.  Subsets are taken in chunks so memory stays bounded.
    """
    x = np.asarray(x, dtype=np.int64)
    s_k = []
    for k in range(1, k_max + 1):
        combos = itertools.combinations(range(x.shape[1]), k)
        total = 0
        while chunk := list(itertools.islice(combos, 20_000)):
            j_vals = x[:, np.array(chunk)].prod(axis=2).sum(axis=0)
            total += int((j_vals * j_vals).sum())
        s_k.append(total)
    return tuple(s_k)
