"""Shared fixtures.

Cryptographic tests run at deliberately small sizes (k = 4..6): the
protocol logic is size-independent, and pure-Python group arithmetic
makes large instances slow.  Session-scoped fixtures share the
expensive public-parameter generation across tests.
"""

import random

import pytest

from repro.algebra import SCALAR_FIELD, backend
from repro.commit import setup
from repro.plonkish import Assignment, ConstraintSystem

EXAMPLE_K = 5


def example_circuit():
    """The paper's Example 2.1 pipeline f(x,y,z) = 3*(x+y)*z plus a
    4-bit range lookup on column a — the repo's canonical small circuit
    (k=5), shared by the protocol tests."""
    cs = ConstraintSystem()
    q_add = cs.selector("q_add")
    q_mul = cs.selector("q_mul")
    q_range = cs.selector("q_range")
    q_out = cs.selector("q_out")
    table = cs.fixed_column("range_table")
    a = cs.advice_column("a")
    b = cs.advice_column("b")
    c = cs.advice_column("c")
    out = cs.instance_column("out")
    cs.create_gate("add", [q_add.cur() * (a.cur() + b.cur() - c.cur())])
    cs.create_gate("mul", [q_mul.cur() * (a.cur() * b.cur() - c.cur())])
    cs.create_gate("out", [q_out.cur() * (c.cur() - out.cur())])
    cs.add_lookup("range16", [q_range.cur() * a.cur()], [table.cur()])
    cs.copy(c, 0, b, 1)
    cs.copy(c, 1, b, 2)
    return cs, dict(
        q_add=q_add, q_mul=q_mul, q_range=q_range, q_out=q_out,
        table=table, a=a, b=b, c=c, out=out,
    )


def example_assignment(cs, cols, x=7, y=11, z=13):
    asg = Assignment(cs, EXAMPLE_K)
    asg.assign_column(cols["table"], list(range(16)))
    asg.assign(cols["q_add"], 0, 1)
    asg.assign(cols["a"], 0, x)
    asg.assign(cols["b"], 0, y)
    asg.assign(cols["c"], 0, x + y)
    asg.assign(cols["q_range"], 0, 1)
    asg.assign(cols["q_mul"], 1, 1)
    asg.assign(cols["a"], 1, z)
    asg.assign(cols["b"], 1, x + y)
    asg.assign(cols["c"], 1, (x + y) * z)
    asg.assign(cols["q_mul"], 2, 1)
    asg.assign(cols["a"], 2, 3)
    asg.assign(cols["b"], 2, (x + y) * z)
    result = 3 * (x + y) * z
    asg.assign(cols["c"], 2, result)
    asg.assign(cols["q_out"], 2, 1)
    asg.assign(cols["out"], 2, result)
    return asg, result


#: The ways an NTT can run: the plan transform (``MIN_NTT`` above every
#: test size), the numpy limb engine (``MIN_NTT`` lowered to 4, so
#: test-sized transforms reach it) and the engine's threshold passed on
#: a host without numpy (the gate falls back to the plan).
NTT_PATHS = ("plan", "engine", "unavailable")


def route_ntt(patch, path: str) -> None:
    """Send every NTT of 4 points or more down ``path`` (one of
    :data:`NTT_PATHS`) through ``patch``, a ``pytest.MonkeyPatch``;
    skips the engine path on a host without numpy."""
    if path == "plan":
        patch.setattr(backend, "MIN_NTT", 1 << 62)
        return
    patch.setattr(backend, "MIN_NTT", 4)
    if path == "unavailable":
        patch.setattr(backend, "available", lambda: False)
    elif not backend.available():
        pytest.skip("numpy not installed")


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
