"""Plan-to-circuit compilation (paper section 4.6, "Combining Gates").

Each plan operator compiles to the corresponding custom gate from
:mod:`repro.gates`; gates chain by feeding one operator's output
columns (plus a ``valid`` dummy-tuple flag, section 3.4) into the next.
The circuit layout is *oblivious*: its shape depends only on public
metadata (query text, schemas, table sizes, string dictionaries and the
public result cardinality), never on private cell values; intermediate
cardinalities ride in advice columns.

:class:`CompiledQuery` splits assignment into a **public** phase (fixed
columns: selectors, lookup tables, the calendar, the result-binding
region) that the verifier replays to regenerate the verifying key, and
a **witness** phase (advice) only the prover runs.

The compiler does not interpret SQL: it emits constraints, and every
witness cell is computed *from* them.  A witness step evaluates the very
expressions its chip was constructed from over the assignment
(:meth:`Assignment.evaluate`), reads only cells written by earlier
steps, writes only its chip's own cells, and leaves them 0 where the
chip's selector is off (DESIGN.md, "Gate composition").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.db.database import Database
from repro.db.encoding import column_bound
from repro.db.types import DATE_END, date_to_int
from repro.errors import ReproError, WitnessError
from repro.gates.aggregate import CompactChip, DivModChip, RunningAggChip
from repro.gates.compare import EqFlagChip, LtFlagChip
from repro.gates.datetime import YearChip
from repro.gates.groupby import GroupByChip
from repro.gates.join import PkFkJoinChip
from repro.gates.sort import SortChip
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment, ZK_ROWS
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Constant, Expression
from repro.sql.ast import (
    AggFunc,
    Between,
    BinOp,
    BinOpKind,
    Case,
    ColRef,
    Expr,
    Extract,
    InList,
    Literal,
    Logical,
    Not,
)
from repro.sql.plan import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    Scan,
    SortNode,
)

#: bits per component of composite sort/group keys (paper default).
DEFAULT_KEY_BITS = 48
#: limb width of the shared range table (the paper's u8 cells).
DEFAULT_LIMB_BITS = 8
#: bit width of comparable values (paper: 64-bit integers).
DEFAULT_VALUE_BITS = 64

_CMP_OPS = {
    BinOpKind.EQ, BinOpKind.NE, BinOpKind.LT,
    BinOpKind.LE, BinOpKind.GT, BinOpKind.GE,
}


class CompileError(ReproError, ValueError):
    """The plan cannot become a circuit at this configuration."""


def _rows(
    asg: Assignment, exprs: Sequence[Expression]
) -> list[tuple[int, ...]]:
    """``exprs`` evaluated on every usable row of the assignment."""
    return [
        tuple(asg.evaluate(e, row) for e in exprs)
        for row in range(asg.usable_rows)
    ]


def _selected(
    asg: Assignment, flag: Expression, exprs: Sequence[Expression]
) -> list[tuple[int, ...]]:
    """The ``exprs`` tuples of the rows where ``flag`` is non-zero, in
    row order."""
    return [
        tuple(asg.evaluate(e, row) for e in exprs)
        for row in range(asg.usable_rows)
        if asg.evaluate(flag, row)
    ]


@dataclass
class CircuitRelation:
    """An operator's in-circuit output: column expressions, a validity
    flag, fixed-point scales, and whether valid rows form a dense
    prefix."""

    columns: dict[str, Expression]
    valid: Expression
    scales: dict[str, int]
    dense: bool = False


@dataclass
class ScanLink:
    """An advice column that must link to the database commitment."""

    advice_index: int
    table: str
    column: str


@dataclass
class OutputMeta:
    name: str
    scale: int
    kind: str
    source: Optional[str] = None  # "table.column" for dictionary decode


@dataclass
class CompiledQuery:
    cs: ConstraintSystem
    k: int
    instance_columns: list[Column]
    outputs: list[OutputMeta]
    scan_links: list[ScanLink]
    #: fixed-column steps, independent of the result (verifier-replayable).
    public_steps: list[Callable[[Assignment], None]]
    #: advice steps in construction order: each reads only cells that
    #: earlier steps (or the scans, or the fixed columns) wrote.
    witness_steps: list[Callable[[Assignment], None]]
    #: 1 on the first ``result_count`` rows, and 1 on the row after them
    #: (unless the result fills the LIMIT) -- the two fixed columns that
    #: depend on the (public) result cardinality.
    q_result: Column
    q_after: Column
    #: the final relation: validity flag + one expression per output.
    result_valid: Expression
    result_columns: list[Expression]
    limit: Optional[int] = None

    @property
    def usable_rows(self) -> int:
        return (1 << self.k) - ZK_ROWS

    def assign_public(self, asg: Assignment, result_count: int) -> None:
        """Fixed columns only -- verifier-replayable."""
        for step in self.public_steps:
            step(asg)
        self._assign_count(asg, result_count)

    def _assign_count(self, asg: Assignment, count: int) -> None:
        usable = self.usable_rows
        asg.assign_column(self.q_result, [1] * count + [0] * (usable - count))
        # A result that fills the LIMIT says nothing about later rows.
        after = count if count != self.limit else usable
        asg.assign_column(self.q_after, [int(row == after) for row in range(usable)])

    def bind_result(self, asg: Assignment, rows: list[list[int]]) -> None:
        """(Re)write the public side of ``asg`` -- the cardinality
        selectors and the instance columns -- for the claim ``rows``."""
        self._assign_count(asg, len(rows))
        for col, vector in zip(self.instance_columns, self.instance_vectors(rows)):
            asg.assign_column(col, vector)

    def assign_witness(self, asg: Assignment, db: Database) -> list[list[int]]:
        """Full assignment; returns the (encoded) result rows, read off
        the final relation in the assignment."""
        for step in self.public_steps:
            step(asg)
        for link in self.scan_links:
            asg.assign_column(
                self.cs.advice_columns[link.advice_index],
                db.table(link.table).column(link.column),
            )
        for step in self.witness_steps:
            step(asg)
        rows = self.result_rows(asg)
        self.bind_result(asg, rows)
        return rows

    def result_rows(self, asg: Assignment) -> list[list[int]]:
        """The valid rows of the final relation as ``asg`` holds it, up
        to the LIMIT."""
        return [
            list(r)
            for r in _selected(asg, self.result_valid, self.result_columns)
        ][: self.limit]

    def instance_vectors(self, result_rows: list[list[int]]) -> list[list[int]]:
        """Instance column vectors for verify_proof."""
        usable = self.usable_rows
        out = []
        for j in range(len(self.instance_columns)):
            column = [0] * usable
            for i, row in enumerate(result_rows):
                column[i] = row[j]
            out.append(column)
        return out


class QueryCompiler:
    """Compiles logical plans against a database's public metadata.

    ``limb_bits`` is the lookup-table size; ``value_bits`` /
    ``key_bits`` cap the widths of range decompositions and of composite
    key components (the paper's u8-cell design is ``limb_bits=8,
    value_bits=64``; tests shrink them to fit small circuits).  Below
    the caps a range check is as wide as the proven upper bounds of its
    operands need (``ConstraintSystem.bounds``; DESIGN.md, "Bounds"),
    which for scanned columns come from public metadata only.  Prover
    and verifier must agree on all of it -- it ships in
    :class:`repro.system.metadata.PublicMetadata`.
    """

    def __init__(
        self,
        db: Database,
        k: int,
        limb_bits: int = DEFAULT_LIMB_BITS,
        value_bits: int = DEFAULT_VALUE_BITS,
        key_bits: int = DEFAULT_KEY_BITS,
    ):
        self.db = db
        self.k = k
        self.limb_bits = limb_bits
        self.value_bits = value_bits
        self.key_bits = key_bits

    def compile(self, plan: PlanNode) -> CompiledQuery:
        builder = _Builder(
            self.db, self.k, self.limb_bits, self.value_bits, self.key_bits
        )
        return builder.run(plan)


class _Builder:
    def __init__(
        self, db: Database, k: int, limb_bits: int, value_bits: int,
        key_bits: int,
    ):
        self.db = db
        self.k = k
        self.limb_bits = limb_bits
        self.value_bits = value_bits
        self.key_bits = key_bits
        self.usable = (1 << k) - ZK_ROWS
        self.cs = ConstraintSystem()
        self.table = RangeTable(self.cs, limb_bits)
        if self.usable < self.table.size:
            raise CompileError(
                f"k={k} too small for the {self.table.size}-entry range table"
            )
        self.q_all: Column = self.cs.fixed_column("q_all")
        self.public_steps: list[Callable[[Assignment], None]] = [
            self.table.assign,
            lambda asg: asg.assign_column(self.q_all, [1] * self.usable),
        ]
        self.witness_steps: list[Callable[[Assignment], None]] = []
        self.scan_links: list[ScanLink] = []
        self.bindings: dict[str, str] = {}
        self._fresh = 0
        self._limit: Optional[int] = None

    # -- top level -------------------------------------------------------

    def run(self, plan: PlanNode) -> CompiledQuery:
        rel = self.build(plan)
        out_names = plan.output_names()
        if not rel.dense:
            compact = self.compact(
                "final_compact", rel.valid, [rel.columns[n] for n in out_names]
            )
            rel = CircuitRelation(
                {n: col.cur() for n, col in zip(out_names, compact.out)},
                compact.q_out.cur(),
                rel.scales,
                dense=True,
            )

        q_result = self.cs.fixed_column("q_result")
        instance_columns = [
            self.cs.instance_column(f"result.{name}") for name in out_names
        ]
        self.cs.create_gate(
            "result_binding",
            [
                q_result.cur() * (rel.columns[name] - inst.cur())
                for name, inst in zip(out_names, instance_columns)
            ],
        )
        # Result rows must actually be valid rows of the final relation,
        # and be all of them: the relation is dense, so it ends where
        # the row after the result is not valid.
        self.cs.create_gate(
            "result_valid", [q_result.cur() * (Constant(1) - rel.valid)]
        )
        q_after = self.cs.fixed_column("q_after")
        self.cs.create_gate("result_complete", [q_after.cur() * rel.valid])
        outputs = [
            OutputMeta(
                name=col.name,
                scale=col.scale,
                kind=col.kind,
                source=self._source_of(plan, col.name),
            )
            for col in plan.outputs
        ]
        return CompiledQuery(
            cs=self.cs,
            k=self.k,
            instance_columns=instance_columns,
            outputs=outputs,
            scan_links=self.scan_links,
            public_steps=self.public_steps,
            witness_steps=self.witness_steps,
            q_result=q_result,
            q_after=q_after,
            result_valid=rel.valid,
            result_columns=[rel.columns[name] for name in out_names],
            limit=self._limit,
        )

    def _source_of(self, plan: PlanNode, name: str) -> Optional[str]:
        """Qualified table.column for dictionary decoding (only direct
        column references keep a source)."""
        if isinstance(plan, (SortNode, LimitNode)):
            return self._source_of(plan.child, name)
        if isinstance(plan, ProjectNode):
            for item_name, expr in plan.items:
                if item_name == name and isinstance(expr, ColRef) and expr.table:
                    table = self.bindings.get(expr.table)
                    if table:
                        return f"{table}.{expr.name}"
            return None
        if "." in name:
            binding, col = name.split(".", 1)
            table = self.bindings.get(binding)
            if table:
                return f"{table}.{col}"
        return None

    # -- helpers -----------------------------------------------------------

    def name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def per_row(
        self,
        name: str,
        q: Expression,
        assign_row: Callable[..., object],
        *operands: Expression,
    ) -> None:
        """Append the witness step of a row-local chip: on every usable
        row where ``q`` is non-zero, ``assign_row(asg, row, *operand
        values at that row)``; elsewhere the chip's cells keep 0.  The
        operands are the expressions the chip was constructed from, so
        hint and constraint cannot drift apart."""

        def step(asg: Assignment) -> None:
            for row in range(asg.usable_rows):
                if not asg.evaluate(q, row):
                    continue
                values = [asg.evaluate(e, row) for e in operands]
                try:
                    assign_row(asg, row, *values)
                except ValueError as exc:
                    raise WitnessError(name, row, values, str(exc)) from exc

        self.witness_steps.append(step)

    def row_chip(self, cls, prefix: str, q: Expression, operands, *extra):
        """Construct the hinted chip ``cls(cs, name, q, *operands,
        *extra)`` and register its witness step over the same ``q`` and
        ``operands``."""
        name = self.name(prefix)
        chip = cls(self.cs, name, q, *operands, *extra)
        self.per_row(name, q, chip.assign_row, *operands)
        return chip

    def limbs(self, *values: Expression) -> int:
        """How many range-table limbs hold every one of ``values``: what
        their proven upper bounds need, or -- when one has none, and at
        most -- what the configured ``value_bits`` needs."""
        value_limbs = -(-self.value_bits // self.limb_bits)
        bounds = [value.upper_bound(self.cs.bounds) for value in values]
        if None in bounds:
            return value_limbs
        return min(value_limbs, max(1, -(-max(bounds).bit_length() // self.limb_bits)))

    def pack_key(
        self, components: Sequence[Expression], descending: Sequence[bool]
    ) -> tuple[Expression, list[int]]:
        """The composite sort / group key ``1 | c_1 | .. | c_n`` (first
        component most significant; a descending one complemented) and
        the bit width each component is packed at: what its proven bound
        needs, at most ``key_bits``.  The key has ``1 + sum(widths)``
        bits; the leading 1 keeps it apart from padding rows' 0."""
        widths = []
        key: Expression = Constant(1)
        for component, desc in zip(components, descending):
            bound = component.upper_bound(self.cs.bounds)
            width = self.key_bits if bound is None else min(
                self.key_bits, max(1, bound.bit_length())
            )
            if desc:
                component = Constant((1 << width) - 1) - component
            key = key * (1 << width) + component
            widths.append(width)
        return key, widths

    def materialize(self, prefix: str, expr: Expression) -> Column:
        """Advice column constrained to ``expr`` on all usable rows."""
        col = self.cs.advice_column(self.name(prefix))
        name = self.name(f"{prefix}.eq")
        self.cs.create_gate(name, [self.q_all.cur() * (col.cur() - expr)])
        self.cs.declare_bound(col, expr.upper_bound(self.cs.bounds))
        self.per_row(
            name,
            self.q_all.cur(),
            lambda asg, row, value: asg.assign(col, row, value),
            expr,
        )
        return col

    def compact(
        self, prefix: str, flag: Expression, values: Sequence[Expression]
    ) -> CompactChip:
        """A :class:`CompactChip` over ``flag`` / ``values`` whose witness
        is the flagged tuples in row order."""
        chip = CompactChip(
            self.cs, self.name(prefix), flag, values, self.q_all.cur()
        )
        self.witness_steps.append(
            lambda asg: chip.assign(asg, _selected(asg, flag, values))
        )
        return chip

    @staticmethod
    def check_key_width(
        asg: Assignment, what: str, valid: Expression,
        components: Sequence[Expression], widths: Sequence[int],
    ) -> None:
        """A component wider than it is packed at (:meth:`pack_key`) on
        a valid row would silently reorder or merge keys."""
        for row, (flag, *values) in enumerate(_rows(asg, [valid, *components])):
            for value, width in zip(values, widths):
                if flag and value >> width:
                    raise WitnessError(
                        what, row, values, f"exceeds {width} bits"
                    )

    # -- operators -----------------------------------------------------------

    def build(self, node: PlanNode) -> CircuitRelation:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, FilterNode):
            return self._filter(node)
        if isinstance(node, JoinNode):
            return self._join(node)
        if isinstance(node, DeriveNode):
            return self._derive(node)
        if isinstance(node, AggregateNode):
            return self._aggregate(node)
        if isinstance(node, ProjectNode):
            return self._project(node)
        if isinstance(node, SortNode):
            return self._order_by(node)
        if isinstance(node, LimitNode):
            rel = self.build(node.child)
            self._limit = node.count
            return rel
        raise CompileError(f"cannot compile {type(node).__name__}")

    def _scan(self, node: Scan) -> CircuitRelation:
        rows_count = len(self.db.table(node.table))
        self.bindings[node.binding] = node.table
        if rows_count > self.usable:
            raise CompileError(
                f"table {node.table} ({rows_count} rows) exceeds circuit "
                f"capacity {self.usable} at k={self.k}"
            )
        valid_col = self.cs.fixed_column(self.name(f"{node.binding}.valid"))
        self.public_steps.append(
            lambda asg: asg.assign_column(valid_col, [1] * rows_count)
        )
        self.cs.declare_bound(valid_col, 1)
        columns: dict[str, Expression] = {}
        scales: dict[str, int] = {}
        for out in node.outputs:
            # The scan link *is* the witness step: assign_witness loads
            # every linked advice column from the database first.
            advice = self.cs.advice_column(self.name(out.name))
            column = out.name.split(".", 1)[1]
            self.scan_links.append(ScanLink(advice.index, node.table, column))
            # The commitment contract: public metadata, never cells.
            self.cs.declare_bound(
                advice,
                column_bound(
                    self.db.schema(node.table).column(column),
                    self.db.encoder.dictionary(f"{node.table}.{column}"),
                    self.value_bits,
                ),
            )
            columns[out.name] = advice.cur()
            scales[out.name] = out.scale
        return CircuitRelation(columns, valid_col.cur(), scales)

    def _filter(self, node: FilterNode) -> CircuitRelation:
        child = self.build(node.child)
        flag = self._predicate(node.predicate, child)
        valid_col = self.materialize("fvalid", child.valid * flag)
        return CircuitRelation(
            dict(child.columns), valid_col.cur(), dict(child.scales)
        )

    def _join(self, node: JoinNode) -> CircuitRelation:
        child = self.build(node.left)
        right = self.build(node.right)
        right_names = [out.name for out in node.right.outputs]
        ordered = [node.pk_column] + [
            n for n in right_names if n != node.pk_column
        ]
        fk = child.columns[node.fk_column]
        t2_exprs = [right.valid * right.columns[n] for n in ordered]
        chip = PkFkJoinChip(
            self.cs,
            self.name("join"),
            fk,
            child.valid,
            t2_exprs,
            right.valid,
            self.table,
            self.limbs(fk, t2_exprs[0]),
        )
        self.public_steps.append(
            lambda asg: asg.assign_column(
                chip._disjoint.q_sort, [1] * (self.usable - 1)
            )
        )
        self.witness_steps.append(
            lambda asg: chip.assign(
                asg,
                _rows(asg, [fk, child.valid]),
                _selected(asg, right.valid, t2_exprs),
            )
        )
        columns = dict(child.columns)
        scales = dict(child.scales)
        for j, rname in enumerate(ordered):
            columns[rname] = chip.match[j].cur()
            scales[rname] = right.scales[rname]
        return CircuitRelation(columns, chip.out_valid_expr, scales)

    def _derive(self, node: DeriveNode) -> CircuitRelation:
        child = self.build(node.child)
        expr = self._scalar(node.expr, child)
        if not isinstance(node.expr, Extract):
            # (YearChip already produced an advice column.)
            expr = self.materialize(f"derive.{node.name}", expr).cur()
        columns = dict(child.columns)
        columns[node.name] = expr
        scales = dict(child.scales)
        scales[node.name] = node.scale
        return CircuitRelation(columns, child.valid, scales)

    def _aggregate(self, node: AggregateNode) -> CircuitRelation:
        child = self.build(node.child)
        n_group = len(node.group_keys)
        group_exprs = [child.columns[k] for k in node.group_keys]
        key_expr, widths = self.pack_key(group_exprs, [False] * n_group)

        # Aggregate argument columns (materialized so the sort tuple
        # stays degree-2).
        arg_exprs: list[Expression] = []
        for spec in node.aggregates:
            if spec.arg is None or spec.func is AggFunc.COUNT:
                arg_exprs.append(Constant(1))
            else:
                expr = self._scalar(spec.arg, child)
                arg_exprs.append(
                    self.materialize(f"aggarg.{spec.name}", expr).cur()
                )

        tuple_exprs: list[Expression] = [child.valid * key_expr]
        tuple_exprs += [child.valid * e for e in group_exprs + arg_exprs]
        tuple_exprs.append(child.valid)
        key_limbs = -(-(1 + sum(widths)) // self.limb_bits)
        sort = SortChip(
            self.cs, self.name("gsort"), tuple_exprs, 0, self.table, key_limbs
        )
        gb = GroupByChip(
            self.cs, self.name("gb"), sort.out[0].cur(), sort.out[0].prev()
        )
        valid_sorted = sort.out[-1]

        # One running column per aggregate, plus a row count for AVG.
        summed: list[tuple[str, Expression]] = []
        for j, spec in enumerate(node.aggregates):
            if spec.func not in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
                raise CompileError(
                    f"aggregate {spec.func.value} is not wired into the "
                    "query compiler (SUM/COUNT/AVG cover the paper's "
                    "workload; MIN/MAX/STDDEV gates exist standalone)"
                )
            summed.append((spec.name, sort.out[1 + n_group + j].cur()))
        if any(s.func is AggFunc.AVG for s in node.aggregates):
            summed.append(("__count", valid_sorted.cur()))
        running = [
            RunningAggChip(
                self.cs,
                self.name(f"run.{name}"),
                gb.q_first.cur(),
                gb.q_rest.cur(),
                gb.same.cur(),
                value,
                self.usable,
            )
            for name, value in summed
        ]

        def public_step(asg: Assignment) -> None:
            asg.assign(gb.q_first, 0, 1)
            asg.assign(gb.q_last, self.usable - 1, 1)
            asg.assign_column(gb.q_rest, [0] + [1] * (self.usable - 1))
            asg.assign_column(sort.q_pair, [1] * (self.usable - 1))

        self.public_steps.append(public_step)

        def witness_step(asg: Assignment) -> None:
            self.check_key_width(
                asg, "group key component", child.valid, group_exprs, widths
            )
            sorted_rows = sort.assign(asg, _rows(asg, tuple_exprs))
            gb.assign(asg, [r[0] for r in sorted_rows])
            same, *inputs = zip(
                *_rows(asg, [gb.same.cur()] + [v for _, v in summed])
            )
            for chip, values in zip(running, inputs):
                chip.assign(asg, values, same)

        self.witness_steps.append(witness_step)

        # Bin-end rows of real groups, in key order, to a dense prefix.
        compact = self.compact(
            "gcompact",
            gb.end_expr * valid_sorted.cur(),
            [sort.out[1 + j].cur() for j in range(n_group)]
            + [chip.m.cur() for chip in running],
        )

        columns: dict[str, Expression] = {}
        scales: dict[str, int] = {}
        for j, key_name in enumerate(node.group_keys):
            columns[key_name] = compact.out[j].cur()
            scales[key_name] = child.scales[key_name]
        for j, spec in enumerate(node.aggregates):
            agg = compact.out[n_group + j].cur()
            if spec.func is AggFunc.AVG:
                count = compact.out[-1].cur()
                agg = self.row_chip(
                    DivModChip,
                    f"avg.{spec.name}",
                    compact.q_out.cur(),
                    (agg * 100, count),
                    self.table,
                    self.limbs(count),
                ).quot.cur()
            columns[spec.name] = agg
            scales[spec.name] = spec.scale
        return CircuitRelation(columns, compact.q_out.cur(), scales, dense=True)

    def _project(self, node: ProjectNode) -> CircuitRelation:
        child = self.build(node.child)
        columns: dict[str, Expression] = {}
        scales: dict[str, int] = {}
        for (name, expr), out in zip(node.items, node.outputs):
            compiled = self._scalar(expr, child)
            if not isinstance(expr, ColRef) and compiled.degree() > 1:
                compiled = self.materialize(f"proj.{name}", compiled).cur()
            columns[name] = compiled
            scales[name] = out.scale
        return CircuitRelation(columns, child.valid, scales, child.dense)

    def _order_by(self, node: SortNode) -> CircuitRelation:
        child = self.build(node.child)
        key_parts = [child.columns[name] for name, _ in node.keys]
        key_expr, widths = self.pack_key(
            key_parts, [descending for _, descending in node.keys]
        )
        # Sorted descending on its complement, so padding rows (0) go last.
        big_bound = 1 << (1 + sum(widths))

        out_names = [c.name for c in node.outputs]
        tuple_exprs: list[Expression] = [
            child.valid * (Constant(big_bound) - key_expr)
        ]
        tuple_exprs += [child.valid * child.columns[n] for n in out_names]
        tuple_exprs.append(child.valid)
        key_limbs = -(-(1 + sum(widths)) // self.limb_bits)
        sort = SortChip(
            self.cs,
            self.name("osort"),
            tuple_exprs,
            0,
            self.table,
            key_limbs,
            descending=True,
        )
        self.public_steps.append(
            lambda asg: asg.assign_column(sort.q_pair, [1] * (self.usable - 1))
        )

        def step(asg: Assignment) -> None:
            self.check_key_width(
                asg, "ORDER BY value", child.valid, key_parts, widths
            )
            sort.assign(asg, _rows(asg, tuple_exprs))

        self.witness_steps.append(step)
        columns = {
            name: sort.out[1 + j].cur() for j, name in enumerate(out_names)
        }
        return CircuitRelation(
            columns, sort.out[-1].cur(), dict(child.scales), dense=True
        )

    # -- scalar / predicate compilation -----------------------------------

    def _scalar(
        self, expr: Expr, rel: CircuitRelation, context: ColRef | None = None
    ) -> Expression:
        """``context`` is the column a string literal is compared with:
        the literal resolves against that column's dictionary."""
        if isinstance(expr, Literal):
            return Constant(self._encode_literal(expr, context))
        if isinstance(expr, ColRef):
            name = f"{expr.table}.{expr.name}" if expr.table else expr.name
            if name not in rel.columns:
                raise CompileError(f"unknown column {name!r} in relation")
            return rel.columns[name]
        if isinstance(expr, BinOp):
            if expr.op in _CMP_OPS:
                return self._comparison(expr, rel)
            return self._arith(expr, rel)
        if isinstance(expr, Case):
            return self._case(expr, rel)
        if isinstance(expr, Extract):
            years = YearChip.table_rows()
            if self.usable < years:
                raise CompileError(
                    f"k={self.k} too small for the {years}-year calendar table"
                )
            date = self._scalar(expr.expr, rel)
            chip = self.row_chip(
                YearChip,
                "year",
                rel.valid,
                (date,),
                self.table,
                self.limbs(date, Constant(DATE_END)),
            )
            self.public_steps.append(chip.assign_table)
            return chip.year.cur()
        if isinstance(expr, (Logical, Not, Between, InList)):
            return self._predicate(expr, rel)
        raise CompileError(f"cannot compile scalar {type(expr).__name__}")

    def _aligned(
        self, left: Expr, right: Expr, rel: CircuitRelation,
        context: ColRef | None = None,
    ) -> tuple[Expression, Expression]:
        """Both operands compiled and brought to their common
        fixed-point scale."""
        ls = self._scale_of(left, rel)
        rs = self._scale_of(right, rel)
        scale = max(ls, rs)
        return (
            self._scalar(left, rel, context) * (scale // ls),
            self._scalar(right, rel, context) * (scale // rs),
        )

    def _arith(self, expr: BinOp, rel: CircuitRelation) -> Expression:
        if expr.op in (BinOpKind.ADD, BinOpKind.SUB):
            le, re = self._aligned(expr.left, expr.right, rel)
            return le + re if expr.op is BinOpKind.ADD else le - re
        left = self._scalar(expr.left, rel)
        right = self._scalar(expr.right, rel)
        if expr.op is BinOpKind.MUL:
            return left * right
        # Division: floor(100 * a * rs / (ls * b)), proven exactly.  The
        # common factor of the scale multipliers is cancelled so the
        # divisor (which must fit the limb decomposition) stays small.
        ls = self._scale_of(expr.left, rel)
        rs = self._scale_of(expr.right, rel)
        g = math.gcd(100 * rs, ls)
        divisor = right * (ls // g)
        chip = self.row_chip(
            DivModChip,
            "div",
            rel.valid,
            (left * ((100 * rs) // g), divisor),
            self.table,
            self.limbs(divisor),
        )
        return chip.quot.cur()

    def _case(self, expr: Case, rel: CircuitRelation) -> Expression:
        cond = self._predicate(expr.condition, rel)
        then, otherwise = self._aligned(expr.then, expr.otherwise, rel)
        return cond * then + (Constant(1) - cond) * otherwise

    def _predicate(self, expr: Expr, rel: CircuitRelation) -> Expression:
        """Compile a predicate to a 0/1 flag expression."""
        if isinstance(expr, Logical):
            parts = [self._predicate(t, rel) for t in expr.terms]
            if expr.op == "and":
                combined: Expression = parts[0]
                for sub in parts[1:]:
                    combined = combined * sub
            else:
                none: Expression = Constant(1)
                for sub in parts:
                    none = none * (Constant(1) - sub)
                combined = Constant(1) - none
            if combined.degree() > 4:
                return self.materialize("flag", combined).cur()
            return combined
        if isinstance(expr, Not):
            return Constant(1) - self._predicate(expr.term, rel)
        if isinstance(expr, Between):
            lowered = Logical(
                "and",
                (
                    BinOp(BinOpKind.GE, expr.expr, expr.low),
                    BinOp(BinOpKind.LE, expr.expr, expr.high),
                ),
            )
            return self._predicate(lowered, rel)
        if isinstance(expr, InList):
            terms = tuple(
                BinOp(BinOpKind.EQ, expr.expr, lit) for lit in expr.values
            )
            return self._predicate(Logical("or", terms), rel)
        if isinstance(expr, BinOp) and expr.op in _CMP_OPS:
            return self._comparison(expr, rel)
        raise CompileError(f"cannot compile predicate {type(expr).__name__}")

    def _comparison(self, expr: BinOp, rel: CircuitRelation) -> Expression:
        context = expr.left if isinstance(expr.left, ColRef) else (
            expr.right if isinstance(expr.right, ColRef) else None
        )
        le, re = self._aligned(expr.left, expr.right, rel, context)
        if expr.op in (BinOpKind.EQ, BinOpKind.NE):
            flag = self.row_chip(EqFlagChip, "eq", rel.valid, (le, re)).eq_expr
            return flag if expr.op is BinOpKind.EQ else Constant(1) - flag
        if expr.op in (BinOpKind.GT, BinOpKind.LE):
            le, re = re, le
        flag = self.row_chip(
            LtFlagChip, "lt", rel.valid, (le, re), self.table, self.limbs(le, re)
        ).lt_expr
        if expr.op in (BinOpKind.GE, BinOpKind.LE):
            flag = Constant(1) - flag
        return flag

    # -- literals / scales ------------------------------------------------

    def _encode_literal(self, lit: Literal, context: ColRef | None) -> int:
        if lit.kind == "int":
            return int(lit.value)
        if lit.kind == "decimal":
            return round(lit.value * 100)
        if lit.kind == "date":
            return date_to_int(lit.value)
        if context is None:
            raise CompileError(
                f"string literal {lit.value!r} needs a column context"
            )
        table = self.bindings.get(context.table or "", context.table)
        return self.db.encoder.decode_literal(
            f"{table}.{context.name}", lit.value
        )

    def _scale_of(self, expr: Expr, rel: CircuitRelation) -> int:
        if isinstance(expr, Literal):
            return 100 if expr.kind == "decimal" else 1
        if isinstance(expr, ColRef):
            name = f"{expr.table}.{expr.name}" if expr.table else expr.name
            return rel.scales.get(name, 1)
        if isinstance(expr, BinOp):
            ls = self._scale_of(expr.left, rel)
            rs = self._scale_of(expr.right, rel)
            if expr.op in (BinOpKind.ADD, BinOpKind.SUB):
                return max(ls, rs)
            if expr.op is BinOpKind.MUL:
                return ls * rs
            if expr.op is BinOpKind.DIV:
                return 100
            return 1
        if isinstance(expr, Case):
            return max(
                self._scale_of(expr.then, rel),
                self._scale_of(expr.otherwise, rel),
            )
        return 1
