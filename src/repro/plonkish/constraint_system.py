"""Circuit configuration: columns, gates, copy constraints, lookups.

A :class:`ConstraintSystem` is the *shape* of a circuit -- which columns
exist and which constraints relate them -- independent of any concrete
witness.  The paper's custom gates (section 4) are built by composing
columns and constraints on one of these; the concrete cell values live
in an :class:`~repro.plonkish.assignment.Assignment`.
"""

from __future__ import annotations

import enum
import hashlib
import logging
from dataclasses import dataclass, field as dataclass_field

from repro.plonkish.expression import (
    ColumnQuery,
    Constant,
    Expression,
    Product,
    Scaled,
    Sum,
)


logger = logging.getLogger("repro.plonkish.constraint_system")


def _describe_column(col: "Column") -> str:
    return f"{col.kind.value}:{col.index}:{col.name}"


def _describe_expr(expr: Expression) -> str:
    """A canonical, collision-resistant text form of an expression tree
    (unlike ``repr``, columns carry kind and index, not just name)."""
    if isinstance(expr, Constant):
        return f"c{expr.value}"
    if isinstance(expr, ColumnQuery):
        return f"q({_describe_column(expr.column)}@{expr.rotation})"
    if isinstance(expr, Sum):
        return f"({_describe_expr(expr.left)}+{_describe_expr(expr.right)})"
    if isinstance(expr, Product):
        return f"({_describe_expr(expr.left)}*{_describe_expr(expr.right)})"
    if isinstance(expr, Scaled):
        return f"({expr.scalar}.{_describe_expr(expr.inner)})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


class ColumnKind(enum.Enum):
    """The three PLONKish column classes (paper section 2.2)."""

    FIXED = "fixed"
    ADVICE = "advice"
    INSTANCE = "instance"


@dataclass(frozen=True)
class Column:
    """A column handle.  ``index`` is unique within a kind."""

    kind: ColumnKind
    index: int
    name: str

    def query(self, rotation: int = 0) -> ColumnQuery:
        """Reference this column in a gate expression at a row offset."""
        return ColumnQuery(self, rotation)

    def cur(self) -> ColumnQuery:
        return ColumnQuery(self, 0)

    def next(self) -> ColumnQuery:
        return ColumnQuery(self, 1)

    def prev(self) -> ColumnQuery:
        return ColumnQuery(self, -1)

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.name}"


@dataclass
class Gate:
    """A named family of polynomial constraints enforced on every row.

    Gates are selector-gated by construction: each constraint expression
    should include a fixed (selector) factor that zeroes it on rows where
    the gate does not apply, which also keeps the blinding rows
    unconstrained.
    """

    name: str
    constraints: list[Expression]


@dataclass
class Lookup:
    """A lookup argument: on every active row, the tuple of input
    expressions must equal the tuple of table expressions evaluated at
    *some* row.

    This is the relation of the paper's lookup-table designs (section
    4.1, Equations 1-3).  The *argument* that proves it is a named
    substitution: instead of the paper's sorted permutation + adjacency
    construction, multiple expressions are compressed into one value
    with a verifier challenge theta and inclusion is proven by a
    log-derivative sum shared by every lookup into the same table
    (:class:`LookupArgument`; DESIGN.md, "The lookup argument").
    """

    name: str
    inputs: list[Expression]
    table: list[Expression]


def _tuple_degree(exprs: list[Expression]) -> int:
    """The degree of a theta-compressed tuple of expressions."""
    return max((e.degree() for e in exprs), default=1)


@dataclass(frozen=True)
class LookupArgument:
    """One log-derivative lookup argument: every lookup into one table.

    The prover commits one multiplicity column and one running sum per
    argument, and one helper column ``sum_i 1 / (beta + input_i)`` per
    *group* of its lookups.  ``groups`` partitions the lookups in
    declaration order; the helpers of all arguments form one flat list
    in which this argument's are ``first_helper + g`` for group ``g``.
    """

    table: list[Expression]
    groups: list[list[Lookup]]
    first_helper: int

    @property
    def lookups(self) -> list[Lookup]:
        return [lookup for group in self.groups for lookup in group]

    @property
    def group_degrees(self) -> list[int]:
        """Per group, the degree of its helper's constraint ``active *
        (h * prod_i (beta + f_i) - sum_i prod_{j != i} (beta + f_j))``."""
        return [
            2 + sum(_tuple_degree(lookup.inputs) for lookup in group)
            for group in self.groups
        ]

    @property
    def table_degree(self) -> int:
        """The degree of the running sum's step ``active * ((phi(wX) -
        phi - sum_g h_g) * (beta + t) + m)``."""
        return 2 + _tuple_degree(self.table)


def helper_column_count(arguments: list[LookupArgument]) -> int:
    """How many helper columns a circuit's lookup arguments commit."""
    return sum(len(argument.groups) for argument in arguments)


@dataclass
class Shuffle:
    """A multiset-equality (shuffle) argument, the mechanism behind the
    paper's Equation (5): the union of the input tuple streams must
    equal the union of the table tuple streams as multisets over the
    active rows.

    Each side is a list of *groups*; a group is a list of expressions
    forming one tuple stream.  Multiple groups let a single argument
    prove statements like "column S is a permutation of the values of
    columns A and B together" (used by the join gate's deduplicated
    merge, paper section 4.4).
    """

    name: str
    input_groups: list[list[Expression]]
    table_groups: list[list[Expression]]


@dataclass
class CopyConstraint:
    """Cell equality: ``(left_col, left_row) == (right_col, right_row)``."""

    left_col: Column
    left_row: int
    right_col: Column
    right_row: int


@dataclass
class ConstraintSystem:
    """The declarative description of a circuit's shape."""

    fixed_columns: list[Column] = dataclass_field(default_factory=list)
    advice_columns: list[Column] = dataclass_field(default_factory=list)
    instance_columns: list[Column] = dataclass_field(default_factory=list)
    gates: list[Gate] = dataclass_field(default_factory=list)
    lookups: list[Lookup] = dataclass_field(default_factory=list)
    shuffles: list[Shuffle] = dataclass_field(default_factory=list)
    copies: list[CopyConstraint] = dataclass_field(default_factory=list)
    equality_columns: list[Column] = dataclass_field(default_factory=list)
    #: Proven upper bounds, declared by whoever creates the constraint
    #: that proves them (:meth:`declare_bound`).  Facts *about* the
    #: shape, read when sizing range decompositions; not part of the
    #: fingerprint.
    bounds: dict["Column | Expression", int] = dataclass_field(default_factory=dict)

    # -- column creation ------------------------------------------------------

    def fixed_column(self, name: str) -> Column:
        col = Column(ColumnKind.FIXED, len(self.fixed_columns), name)
        self.fixed_columns.append(col)
        return col

    def advice_column(self, name: str) -> Column:
        col = Column(ColumnKind.ADVICE, len(self.advice_columns), name)
        self.advice_columns.append(col)
        return col

    def instance_column(self, name: str) -> Column:
        col = Column(ColumnKind.INSTANCE, len(self.instance_columns), name)
        self.instance_columns.append(col)
        return col

    def selector(self, name: str) -> Column:
        """Selectors are modelled as plain fixed columns holding 0/1."""
        return self.fixed_column(name)

    # -- constraint creation ---------------------------------------------------

    def create_gate(self, name: str, constraints: list[Expression]) -> None:
        if not constraints:
            raise ValueError(f"gate {name!r} has no constraints")
        self.gates.append(Gate(name, constraints))

    def add_lookup(
        self, name: str, inputs: list[Expression], table: list[Expression]
    ) -> None:
        if len(inputs) != len(table):
            raise ValueError(
                f"lookup {name!r}: {len(inputs)} inputs vs {len(table)} table exprs"
            )
        self.lookups.append(Lookup(name, inputs, table))

    def add_shuffle(
        self,
        name: str,
        input_groups: list[list[Expression]],
        table_groups: list[list[Expression]],
    ) -> None:
        if len(input_groups) != len(table_groups):
            raise ValueError(
                f"shuffle {name!r}: both sides need the same number of "
                f"groups so the grand product balances row by row"
            )
        if not input_groups:
            raise ValueError(f"shuffle {name!r} has no groups")
        self.shuffles.append(Shuffle(name, input_groups, table_groups))

    def declare_bound(
        self, target: "Column | Expression", hi: int | None
    ) -> None:
        """Record that ``target`` -- a column, or an expression object
        such as an is-zero flag -- lies in ``[0, hi]`` on every row
        where the constraint its declarer just created is active (for a
        relation's columns: where its ``valid`` flag is 1; an honest
        witness holds 0 elsewhere).  ``hi=None`` (no bound known for
        what ``target`` inherits from) declares nothing.
        :meth:`Expression.upper_bound` propagates these through
        expressions; DESIGN.md, "Bounds"."""
        if hi is not None:
            self.bounds[target] = hi

    def enable_equality(self, column: Column) -> None:
        """Mark a column as participating in the copy-constraint
        permutation argument."""
        if column.kind is ColumnKind.INSTANCE:
            raise ValueError(
                "instance columns are compared via public evaluation, "
                "not the permutation argument, in this implementation"
            )
        if column not in self.equality_columns:
            self.equality_columns.append(column)

    def copy(
        self, left_col: Column, left_row: int, right_col: Column, right_row: int
    ) -> None:
        """Constrain two cells to be equal (paper's "equality constraints")."""
        for col in (left_col, right_col):
            if col not in self.equality_columns:
                self.enable_equality(col)
        self.copies.append(CopyConstraint(left_col, left_row, right_col, right_row))

    # -- analysis -------------------------------------------------------------

    def max_gate_degree(self) -> int:
        degree = 1
        for gate in self.gates:
            for constraint in gate.constraints:
                degree = max(degree, constraint.degree())
        return degree

    def _degree_without_lookups(self, permutation_chunk: int) -> int:
        """What the gates, the permutation argument and the shuffles
        require; the budget lookup helper groups are packed into."""
        # Every gate is implicitly multiplied by the fixed active-rows
        # selector (so randomized blinding rows never violate gates even
        # when a gate is guarded by an advice flag), costing one degree.
        degree = self.max_gate_degree() + 1
        if self.equality_columns:
            # active * Z(wX) * prod over chunk of (w + beta*delta*X + gamma)
            chunk = min(permutation_chunk, len(self.equality_columns))
            degree = max(degree, chunk + 2)
        for shuffle in self.shuffles:
            # active * Z * prod over groups of (compressed_group + gamma)
            for groups in (shuffle.input_groups, shuffle.table_groups):
                degree = max(degree, 2 + sum(map(_tuple_degree, groups)))
        return degree

    def lookup_arguments(self, permutation_chunk: int = 3) -> list[LookupArgument]:
        """The lookups as the proving system argues them: one
        :class:`LookupArgument` per distinct table (structurally equal
        ``table`` expressions, in first-use order), its lookups packed
        greedily, in declaration order, into helper groups.

        A group takes inputs while its constraint, of degree ``2 + sum
        of the input degrees``, stays within the degree the rest of the
        circuit requires anyway -- so sharing a helper never enlarges
        the quotient domain -- and at least one.  Keygen (``vk``), the
        proof schema, :meth:`required_degree`, the prover and the cost
        model all read the grouping from here.
        """
        budget = self._degree_without_lookups(permutation_chunk) - 2
        by_table: dict[str, list[Lookup]] = {}
        for lookup in self.lookups:
            key = "|".join(_describe_expr(e) for e in lookup.table)
            by_table.setdefault(key, []).append(lookup)
        arguments: list[LookupArgument] = []
        helpers = 0
        for lookups in by_table.values():
            groups: list[list[Lookup]] = []
            room = 0
            for lookup in lookups:
                degree = _tuple_degree(lookup.inputs)
                if not groups or degree > room:
                    groups.append([])
                    room = budget
                groups[-1].append(lookup)
                room -= degree
            arguments.append(LookupArgument(lookups[0].table, groups, helpers))
            helpers += len(groups)
        return arguments

    def required_degree(self, permutation_chunk: int = 3) -> int:
        """The constraint degree the proving system must support,
        accounting for the permutation, shuffle and lookup argument
        constraints it will synthesize (see :mod:`repro.proving`)."""
        degree = self._degree_without_lookups(permutation_chunk)
        for argument in self.lookup_arguments(permutation_chunk):
            degree = max(degree, argument.table_degree, *argument.group_degrees)
        return degree

    def quotient_extension(self, permutation_chunk: int = 3) -> int:
        """``log2`` of the factor by which the quotient's evaluation
        domain exceeds the circuit's ``n`` rows:
        ``ceil(log2(degree - 1))`` for ``degree =``
        :meth:`required_degree`.

        The combined constraint has degree at most ``degree * (n - 1)``,
        so ``h = constraint / (X^n - 1)`` has fewer than
        ``(degree - 1) * n`` coefficients.  The prover divides pointwise
        on a coset and interpolates ``h``, so the coset has to determine
        ``h`` -- not the constraint, which would take ``degree * n``
        points.  One formula, three readers: keygen sizes
        ``pk.extended_domain`` (and ``vk.extended_k``) with it, the
        proof schema bounds the quotient chunks by ``2^extension``
        through ``vk.extended_k``, and the static cost model
        (:class:`~repro.telemetry.circuit.CircuitReport`) reports the
        same ``extended_k`` from it.
        """
        degree = self.required_degree(permutation_chunk)
        return max(1, (degree - 2).bit_length())

    def num_constraints(self) -> int:
        """Total polynomial constraints (one per gate constraint); the
        complexity currency of the paper's section 4 analyses."""
        return sum(len(g.constraints) for g in self.gates)

    def fingerprint(self) -> str:
        """A stable content hash of the circuit *shape*.

        Two ConstraintSystems built from the same query over the same
        schema produce the same fingerprint; any structural change --
        an extra column, a different constraint, a new copy -- changes
        it.  Proving keys are cached under this value (plus the
        parameter description), so the fingerprint doubles as the cache
        invalidation rule.
        """
        h = hashlib.blake2b(digest_size=20)

        def put(text: str) -> None:
            h.update(text.encode())
            h.update(b"\x00")

        for label, columns in (
            ("F", self.fixed_columns),
            ("A", self.advice_columns),
            ("I", self.instance_columns),
            ("E", self.equality_columns),
        ):
            put(label)
            for col in columns:
                put(_describe_column(col))
        for gate in self.gates:
            put(f"G:{gate.name}")
            for constraint in gate.constraints:
                put(_describe_expr(constraint))
        for lookup in self.lookups:
            put(f"L:{lookup.name}")
            for expr in lookup.inputs:
                put(_describe_expr(expr))
            put("|")
            for expr in lookup.table:
                put(_describe_expr(expr))
        for shuffle in self.shuffles:
            put(f"S:{shuffle.name}")
            for side in (shuffle.input_groups, shuffle.table_groups):
                for group in side:
                    for expr in group:
                        put(_describe_expr(expr))
                    put(",")
                put("|")
        for copy in self.copies:
            put(
                f"C:{_describe_column(copy.left_col)}@{copy.left_row}="
                f"{_describe_column(copy.right_col)}@{copy.right_row}"
            )
        digest = h.hexdigest()
        logger.debug(
            "fingerprint %s: %d gates, %d lookups, %d copies",
            digest, len(self.gates), len(self.lookups), len(self.copies),
        )
        return digest

    def summary(self) -> dict[str, int]:
        arguments = self.lookup_arguments()
        return {
            "fixed_columns": len(self.fixed_columns),
            "advice_columns": len(self.advice_columns),
            "instance_columns": len(self.instance_columns),
            "gates": len(self.gates),
            "gate_constraints": self.num_constraints(),
            "lookups": len(self.lookups),
            "lookup_tables": len(arguments),
            "lookup_helper_columns": helper_column_count(arguments),
            "copy_constraints": len(self.copies),
            "max_gate_degree": self.max_gate_degree(),
        }
