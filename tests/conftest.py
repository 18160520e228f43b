"""Shared fixtures.

Cryptographic tests run at deliberately small sizes (k = 4..6): the
protocol logic is size-independent, and pure-Python group arithmetic
makes large instances slow.  Session-scoped fixtures share the
expensive public-parameter generation across tests.
"""

import random

import pytest

from repro.algebra import SCALAR_FIELD
from repro.commit import setup
from repro.telemetry.selfcheck import example_assignment, example_circuit


@pytest.fixture(scope="session")
def field():
    return SCALAR_FIELD


@pytest.fixture(scope="session")
def params_k6():
    """Shared IPA public parameters supporting circuits up to 2^6 rows."""
    return setup(6)


@pytest.fixture(scope="session")
def params_k9():
    """Larger parameters for gate circuits that need a 256-entry u8 table."""
    return setup(9)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def two_chunk_shuffle_circuit():
    """The example circuit widened to the protocol paths no TPC-H
    circuit reaches: a fourth equality column (two permutation chunks,
    so the ``chain`` evaluation and the ``omega^usable * x`` opening
    exist) and one shuffle (``d`` is a permutation of ``c``)."""
    cs, cols = example_circuit()
    a, c = cols["a"], cols["c"]
    d = cs.advice_column("d")
    q_shuf = cs.selector("q_shuf")
    cs.add_shuffle(
        "c~d", [[q_shuf.cur() * c.cur()]], [[q_shuf.cur() * d.cur()]]
    )
    cs.copy(c, 2, a, 3)
    cs.copy(d, 0, a, 3)
    cs.copy(d, 1, c, 0)
    asg, result = example_assignment(cs, cols)
    for row in range(3):
        asg.assign(q_shuf, row, 1)
        asg.assign(d, row, asg.value(c, (row + 2) % 3))
    asg.assign(a, 3, result)
    instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
    return cs, asg, instance
