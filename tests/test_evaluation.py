"""The compiled expression program and the coset transform.

:class:`repro.proving.evaluation.Program` replaces a recursive
evaluator; that evaluator lives on in ``tests/expression_oracle.py``
and every kind of vector the program runs over -- the extended coset,
the usable rows, a single point -- is checked against it on random
trees.  The counts pin what the compiler shares.  The coset transform
of a polynomial shorter than the domain must equal the plan transform
of its scaled, zero-padded coefficients for every length.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import fft_plan
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.constraint_system import Column, ColumnKind
from repro.plonkish.expression import (
    ColumnQuery,
    Constant,
    Product,
    Scaled,
    Sum,
)
from repro.proving.evaluation import (
    Program,
    argument_expressions,
    gate_expressions,
    rotated,
)
from tests.expression_oracle import evaluate_expression_ext
from tests.quotient_oracle import evaluate_on_coset

P = SCALAR_FIELD.p
COLUMNS = [Column(ColumnKind.ADVICE, i, f"a{i}") for i in range(3)] + [
    Column(ColumnKind.FIXED, 0, "q")
]

scalars = st.one_of(
    st.sampled_from([0, 1, -1, P - 1, 2, -16]),
    st.integers(min_value=0, max_value=P - 1),
)
leaves = st.one_of(
    st.builds(ColumnQuery, st.sampled_from(COLUMNS), st.integers(-1, 2)),
    st.builds(Constant, scalars),
)
trees = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Sum, kids, kids),
        st.builds(Product, kids, kids),
        st.builds(Scaled, kids, scalars),
        # One subtree object used twice, and a structural copy of it.
        kids.map(lambda e: Product(e, Sum(e, Scaled(e, -1)))),
        kids.map(lambda e: Sum(Product(e, e), Scaled(e, 3))),
    ),
    max_leaves=10,
)
# Several roots, the later ones reusing the earlier ones' subtrees.
root_lists = st.lists(trees, min_size=1, max_size=4).map(
    lambda roots: roots + [Product(roots[0], Sum(roots[-1], Constant(1)))]
)

#: ``(points, rotation step)`` per kind of vector: the extended coset of
#: an 8-row domain at 4x, its rows, a single point.
SHAPES = {"ext_coset": (32, 4), "rows": (8, 1), "point": (1, 1)}


def _columns(rng, points):
    return {column: [rng.randrange(P) for _ in range(points)] for column in COLUMNS}


def _run(program, data, points, step, length):
    """The program over ``length`` of ``points`` values per column, a
    rotation ``r`` reading ``r * step`` points on (cyclically)."""
    return program.run(
        lambda column, rotation: rotated(data[column], rotation * step)[:length],
        length,
    )


class TestProgramEqualsOracle:
    @pytest.mark.parametrize("shape", list(SHAPES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(roots=root_lists, seed=st.integers(0, 2**32))
    def test_random_trees(self, shape, roots, seed):
        points, step = SHAPES[shape]
        # The rows are the first 6 of 8, as the usable rows of a domain.
        length = 6 if shape == "rows" else points
        data = _columns(random.Random(seed), points)
        values = _run(Program(roots, P), data, points, step, length)
        for root in roots:
            expected = evaluate_expression_ext(
                root, data.__getitem__, points, step, P
            )[:length]
            assert values(root) == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(roots=root_lists, seed=st.integers(0, 2**32))
    def test_one_point_with_a_value_per_rotation(self, roots, seed):
        """The verifier's vectors: one point, every ``(column,
        rotation)`` its own opened value -- against the cell evaluator
        ``Expression.evaluate``."""
        rng = random.Random(seed)
        opened = {
            (column, rotation): rng.randrange(P)
            for column in COLUMNS
            for rotation in range(-1, 3)
        }
        values = Program(roots, P).run(
            lambda column, rotation: [opened[column, rotation]], 1
        )
        for root in roots:
            expected = root.evaluate(lambda c, r: opened[c, r], P)
            assert values(root) == [expected]

    def test_only_the_requested_roots_run(self):
        a, b = (ColumnQuery(c) for c in COLUMNS[:2])
        wanted, skipped = a * b, a * a * b
        fetched = []

        def leaf(column, rotation):
            fetched.append(column)
            return [3]

        values = Program([skipped, wanted], P).run(leaf, 1, roots=[wanted])
        assert values(wanted) == [9]
        assert sorted(fetched, key=COLUMNS.index) == COLUMNS[:2]

    def test_a_value_read_again_is_computed_again(self):
        """A run hands each value over after as many reads as the
        expression was given; a further read recomputes it."""
        a, b = (ColumnQuery(c) for c in COLUMNS[:2])
        once, twice = a * b + 1, a - b
        fetched = []

        def leaf(column, rotation):
            fetched.append(column)
            return [3 if column is COLUMNS[0] else 5]

        values = Program([once, twice, twice], P).run(leaf, 1)
        assert values(once) == [16] and values(twice) == [P - 2]
        assert values(twice) == [P - 2] and len(fetched) == 2
        assert values(once) == [16] and len(fetched) == 4

    def test_rotation_zero_leaf_is_the_column_itself(self):
        column = [5, 6, 7, 8]
        query = ColumnQuery(COLUMNS[0])
        values = Program([query], P).run(lambda c, r: rotated(column, r), 4)
        assert values(query) is column
        assert values(ColumnQuery(COLUMNS[0])) is column  # any query of it

    def test_coset_entry_point_matches_the_oracle(self):
        rng = random.Random(3)
        data = _columns(rng, 32)
        q, a = ColumnQuery(COLUMNS[3]), ColumnQuery(COLUMNS[0], 1)
        chain = a
        for _ in range(40):
            chain = Sum(chain, ColumnQuery(COLUMNS[0], 1))
        roots = [
            q * (a - 1) * a,
            q * (1 - a),
            Scaled(a, -1) + 5,
            Product(chain, chain),  # a 40-deep sum chain, squared
            Sum(Constant(41), Constant(1)),  # no column at all
        ]
        program = Program(roots, P)
        values = evaluate_on_coset(program, data.__getitem__, 32, 4)
        for root in roots:
            assert values(root) == evaluate_expression_ext(
                root, data.__getitem__, 32, 4, P
            )


class TestProgramCounts:
    def test_difference_is_one_subtraction(self):
        a, b = ColumnQuery(COLUMNS[0]), ColumnQuery(COLUMNS[1])
        program = Program([a - b], P)
        assert program.counts() == {"leaves": 2, "products": 0, "linear": 1}
        ((kind, const, terms),) = [op for op in program.ops if op[0] == "lin"]
        assert const == 0 and sorted(coef for _, coef in terms) == [-1, 1]

    def test_shared_factor_is_one_product(self):
        q, b = ColumnQuery(COLUMNS[3]), ColumnQuery(COLUMNS[0])
        # q * (1 - b) built twice, once scaled: one product, three roots.
        roots = [q * (1 - b), q * (1 - b), 4 * (q * (1 - b))]
        assert Program(roots, P).counts()["products"] == 1

    def test_constant_factors_fold(self):
        a = ColumnQuery(COLUMNS[0])
        program = Program([Constant(3) * (a * 2), Constant(0) * a, Constant(7)], P)
        assert program.counts() == {"leaves": 1, "products": 0, "linear": 3}

    def test_q1_program_has_fewer_products_than_its_trees(self):
        from repro.sql.compiler import QueryCompiler
        from repro.sql.parser import parse
        from repro.sql.planner import Planner
        from repro.telemetry.circuit import CircuitReport
        from repro.tpch import QUERIES, generate

        db = generate(32, seed=1)
        cs = QueryCompiler(db, 7, 4, 32, 40).compile(
            Planner(db).plan(parse(QUERIES["Q1"]))
        ).cs
        report = CircuitReport.from_constraint_system(cs, 7)

        def tree_products(expressions):
            return sum(
                isinstance(node, Product)
                for expr in expressions
                for node in expr.nodes()
            )

        gates = gate_expressions(cs)
        everything = gates + argument_expressions(cs, cs.lookup_arguments())
        assert Program(gates, P).counts()["products"] < tree_products(gates)
        assert report.program_ops["products"] < tree_products(everything)
        assert sum(report.program_ops.values()) < report.expression_nodes
        assert report.as_dict()["program_ops"] == report.program_ops


class TestCosetFft:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_equals_the_full_transform_for_every_filled_length(self, k):
        domain = EvaluationDomain(SCALAR_FIELD, k)
        rng = random.Random(k)
        plan = fft_plan.plan_for(domain.size, domain.omega, P)
        shift = SCALAR_FIELD.multiplicative_generator
        for filled in range(1, domain.size + 1):
            coeffs = [rng.randrange(P) for _ in range(filled)]
            full = coeffs + [0] * (domain.size - filled)
            domain._coset_scale(full, filled, shift)
            fft_plan.ntt_in_place(full, plan)
            assert domain.coset_fft(coeffs, shift) == full, filled

    def test_batched_path_matches_single(self):
        domain = EvaluationDomain(SCALAR_FIELD, 5)
        rng = random.Random(9)
        polys = [[rng.randrange(P) for _ in range(n)] for n in (8, 3, 8)]
        shift = SCALAR_FIELD.multiplicative_generator
        assert domain.coset_fft_many(polys, shift) == [
            domain.coset_fft(poly, shift) for poly in polys
        ]
