"""Plaintext plan execution.

The executor evaluates a logical plan over the encoded database with
**exactly the integer semantics the circuits enforce** (fixed-point
scales, floor division with remainder, integer square roots).  The
prover uses it to compute the query answer and the per-operator
witnesses; tests use it as the reference the circuit output must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.db.types import int_to_date
from repro.sql.ast import (
    Agg,
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
    AggSpec,
    DeriveNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OutputColumn,
    PlanNode,
    ProjectNode,
    Scan,
    SortNode,
)


@dataclass
class Relation:
    """An intermediate result: named integer columns of equal length."""

    outputs: list[OutputColumn]
    columns: dict[str, list[int]]

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def row(self, i: int) -> dict[str, int]:
        return {name: values[i] for name, values in self.columns.items()}

    def rows(self) -> list[dict[str, int]]:
        return [self.row(i) for i in range(self.num_rows)]


class ExecError(ValueError):
    pass


def year_of_days(days: int) -> int:
    """EXTRACT(YEAR) on the day-number encoding."""
    return int_to_date(days).year


class ScalarEvaluator:
    """Shared scalar semantics (also used by the circuit compiler for
    witness generation)."""

    def __init__(self, db: Database, binding_tables: dict[str, str]):
        self.db = db
        self.bindings = binding_tables

    # -- scale tracking -----------------------------------------------------

    def eval(self, expr: Expr, row: dict[str, int], scales: dict[str, int]):
        """Returns (value, scale).  Predicates return (0/1, 1)."""
        if isinstance(expr, Literal):
            return self._literal(expr)
        if isinstance(expr, ColRef):
            name = f"{expr.table}.{expr.name}" if expr.table else expr.name
            if name not in row:
                raise ExecError(f"unknown column {name!r}")
            return row[name], scales.get(name, 1)
        if isinstance(expr, BinOp):
            return self._binop(expr, row, scales)
        if isinstance(expr, Logical):
            flags = [self.eval(t, row, scales)[0] for t in expr.terms]
            if expr.op == "and":
                result = 1
                for f in flags:
                    result &= 1 if f else 0
            else:
                result = 1 if any(flags) else 0
            return result, 1
        if isinstance(expr, Not):
            value, _ = self.eval(expr.term, row, scales)
            return (0 if value else 1), 1
        if isinstance(expr, Between):
            value, vs = self.eval(expr.expr, row, scales)
            low, ls = self.eval(expr.low, row, scales)
            high, hs = self.eval(expr.high, row, scales)
            a, b = _align(value, vs, low, ls)
            c, d = _align(value, vs, high, hs)
            return (1 if (a >= b and c <= d) else 0), 1
        if isinstance(expr, InList):
            value, vs = self.eval(expr.expr, row, scales)
            for lit in expr.values:
                lv, lscale = self._literal(lit, context=expr.expr)
                a, b = _align(value, vs, lv, lscale)
                if a == b:
                    return 1, 1
            return 0, 1
        if isinstance(expr, Case):
            cond, _ = self.eval(expr.condition, row, scales)
            tv, ts = self.eval(expr.then, row, scales)
            ov, os_ = self.eval(expr.otherwise, row, scales)
            scale = max(ts, os_)
            tv *= scale // ts
            ov *= scale // os_
            return (tv if cond else ov), scale
        if isinstance(expr, Extract):
            days, _ = self.eval(expr.expr, row, scales)
            return year_of_days(days), 1
        raise ExecError(f"cannot evaluate {type(expr).__name__} here")

    def _literal(self, lit: Literal, context: Expr | None = None):
        if lit.kind == "int":
            return int(lit.value), 1
        if lit.kind == "decimal":
            return round(lit.value * 100), 100
        if lit.kind == "date":
            from repro.db.types import date_to_int

            return date_to_int(lit.value), 1
        # string literal: encode against the referenced column's dictionary
        target = context
        if target is None or not isinstance(target, ColRef):
            raise ExecError(f"string literal {lit.value!r} without column context")
        table = self.bindings.get(target.table or "", target.table)
        qualified = f"{table}.{target.name}"
        return self.db.encoder.decode_literal(qualified, lit.value), 1

    def _binop(self, expr: BinOp, row, scales):
        # String equality needs the dictionary: handle literal operands.
        left_lit = isinstance(expr.left, Literal) and expr.left.kind == "string"
        right_lit = isinstance(expr.right, Literal) and expr.right.kind == "string"
        if left_lit or right_lit:
            col = expr.right if left_lit else expr.left
            lit = expr.left if left_lit else expr.right
            value, _ = self.eval(col, row, scales)
            code, _ = self._literal(lit, context=col)
            return self._compare(expr.op, value, code), 1

        lv, ls = self.eval(expr.left, row, scales)
        rv, rs = self.eval(expr.right, row, scales)
        if expr.op in (BinOpKind.ADD, BinOpKind.SUB):
            a, b = _align(lv, ls, rv, rs)
            scale = max(ls, rs)
            return (a + b if expr.op is BinOpKind.ADD else a - b), scale
        if expr.op is BinOpKind.MUL:
            return lv * rv, ls * rs
        if expr.op is BinOpKind.DIV:
            if rv == 0:
                raise ExecError("division by zero")
            # result scale 100: floor(100 * lv * rs / (ls * rv))
            return (100 * lv * rs) // (ls * rv), 100
        a, b = _align(lv, ls, rv, rs)
        return self._compare(expr.op, a, b), 1

    @staticmethod
    def _compare(op: BinOpKind, a: int, b: int) -> int:
        if op is BinOpKind.EQ:
            return 1 if a == b else 0
        if op is BinOpKind.NE:
            return 1 if a != b else 0
        if op is BinOpKind.LT:
            return 1 if a < b else 0
        if op is BinOpKind.LE:
            return 1 if a <= b else 0
        if op is BinOpKind.GT:
            return 1 if a > b else 0
        if op is BinOpKind.GE:
            return 1 if a >= b else 0
        raise ExecError(f"not a comparison: {op}")


def _align(a: int, sa: int, b: int, sb: int) -> tuple[int, int]:
    scale = max(sa, sb)
    return a * (scale // sa), b * (scale // sb)


def aggregate_rows(
    spec: AggSpec,
    rows: list[dict[str, int]],
    evaluator: ScalarEvaluator,
    scales: dict[str, int],
) -> int:
    """Integer-exact aggregation of one group (shared with the circuit
    witness generator)."""
    if spec.func is AggFunc.COUNT:
        if spec.arg is None:
            return len(rows)
        if spec.distinct:
            return len(
                {evaluator.eval(spec.arg, row, scales)[0] for row in rows}
            )
        return len(rows)
    values = [evaluator.eval(spec.arg, row, scales)[0] for row in rows]
    if spec.func is AggFunc.SUM:
        return sum(values)
    if spec.func is AggFunc.MIN:
        return min(values)
    if spec.func is AggFunc.MAX:
        return max(values)
    if spec.func is AggFunc.AVG:
        return (sum(values) * 100) // len(values)
    if spec.func is AggFunc.MEDIAN:
        return sorted(values)[(len(values) - 1) // 2]
    if spec.func is AggFunc.VARIANCE:
        n = len(values)
        return (n * sum(v * v for v in values) - sum(values) ** 2) // (n * n)
    if spec.func is AggFunc.STDDEV:
        import math

        n = len(values)
        var = (n * sum(v * v for v in values) - sum(values) ** 2) // (n * n)
        return math.isqrt(max(var, 0))
    raise ExecError(f"unsupported aggregate {spec.func}")


class Executor:
    """Evaluate plans bottom-up into :class:`Relation` values."""

    def __init__(self, db: Database):
        self.db = db

    def execute(self, plan: PlanNode) -> Relation:
        bindings = {
            node.binding: node.table
            for node in _scans(plan)
        }
        evaluator = ScalarEvaluator(self.db, bindings)
        return self._exec(plan, evaluator)

    # ------------------------------------------------------------------

    def _exec(self, node: PlanNode, ev: ScalarEvaluator) -> Relation:
        if isinstance(node, Scan):
            table = self.db.table(node.table)
            columns = {
                f"{node.binding}.{name}": list(table.column(name))
                for name in table.schema.column_names()
            }
            return Relation(list(node.outputs), columns)
        if isinstance(node, FilterNode):
            child = self._exec(node.child, ev)
            scales = _scale_map(child)
            keep = [
                i
                for i in range(child.num_rows)
                if ev.eval(node.predicate, child.row(i), scales)[0]
            ]
            columns = {
                name: [values[i] for i in keep]
                for name, values in child.columns.items()
            }
            return Relation(list(node.outputs), columns)
        if isinstance(node, JoinNode):
            left = self._exec(node.left, ev)
            right = self._exec(node.right, ev)
            index: dict[int, int] = {}
            for j in range(right.num_rows):
                index.setdefault(right.columns[node.pk_column][j], j)
            out_columns: dict[str, list[int]] = {
                name: [] for name in list(left.columns) + list(right.columns)
            }
            fk_values = left.columns[node.fk_column]
            for i in range(left.num_rows):
                j = index.get(fk_values[i])
                if j is None:
                    continue
                for name in left.columns:
                    out_columns[name].append(left.columns[name][i])
                for name in right.columns:
                    out_columns[name].append(right.columns[name][j])
            return Relation(list(node.outputs), out_columns)
        if isinstance(node, DeriveNode):
            child = self._exec(node.child, ev)
            scales = _scale_map(child)
            values = [
                ev.eval(node.expr, child.row(i), scales)[0]
                for i in range(child.num_rows)
            ]
            columns = dict(child.columns)
            columns[node.name] = values
            return Relation(list(node.outputs), columns)
        if isinstance(node, AggregateNode):
            child = self._exec(node.child, ev)
            scales = _scale_map(child)
            groups: dict[tuple[int, ...], list[int]] = {}
            for i in range(child.num_rows):
                key = tuple(child.columns[k][i] for k in node.group_keys)
                groups.setdefault(key, []).append(i)
            columns: dict[str, list[int]] = {
                name: [] for name in node.output_names()
            }
            for key in sorted(groups):
                rows = [child.row(i) for i in groups[key]]
                for k, value in zip(node.group_keys, key):
                    columns[k].append(value)
                for spec in node.aggregates:
                    columns[spec.name].append(
                        aggregate_rows(spec, rows, ev, scales)
                    )
            return Relation(list(node.outputs), columns)
        if isinstance(node, ProjectNode):
            child = self._exec(node.child, ev)
            scales = _scale_map(child)
            columns = {}
            for name, expr in node.items:
                columns[name] = [
                    ev.eval(expr, child.row(i), scales)[0]
                    for i in range(child.num_rows)
                ]
            return Relation(list(node.outputs), columns)
        if isinstance(node, SortNode):
            child = self._exec(node.child, ev)
            order = list(range(child.num_rows))
            for name, descending in reversed(node.keys):
                order.sort(
                    key=lambda i: child.columns[name][i], reverse=descending
                )
            columns = {
                name: [values[i] for i in order]
                for name, values in child.columns.items()
            }
            return Relation(list(node.outputs), columns)
        if isinstance(node, LimitNode):
            child = self._exec(node.child, ev)
            columns = {
                name: values[: node.count]
                for name, values in child.columns.items()
            }
            return Relation(list(node.outputs), columns)
        raise ExecError(f"unknown plan node {type(node).__name__}")


def _scale_map(relation: Relation) -> dict[str, int]:
    return {col.name: col.scale for col in relation.outputs}


def _scans(node: PlanNode):
    from repro.sql.plan import walk

    for n in walk(node):
        if isinstance(n, Scan):
            yield n
