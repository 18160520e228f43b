"""Static circuit cost accounting: :class:`CircuitReport`.

Prove-time spans tell you *where the seconds went*; this pass tells you
*why* -- the circuit-shape quantities (rows, columns, gate constraints
per SQL operator, lookup widths, shuffles, MSM sizes) that
drive each phase's cost.  Joining the two reproduces the paper's
per-operator decomposition (Figures 8-9) without re-running anything:
the report is derived purely from a :class:`ConstraintSystem` and ``k``.

Mirrors the treatment of circuit-level accounting as a first-class
artifact in Coglio et al. (*Formal Verification of Zero-Knowledge
Circuits*).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.assignment import ZK_ROWS
from repro.plonkish.constraint_system import (
    ColumnKind,
    ConstraintSystem,
    helper_column_count,
)
from repro.plonkish.expression import ColumnQuery

#: Gate-name substrings -> the SQL operator bucket they implement.
#: The circuit builders (repro.circuits) name gates after the relational
#: operator that emits them, so a substring match is reliable here.
_OPERATOR_BUCKETS: tuple[tuple[str, str], ...] = (
    ("filter", "filter"),
    ("select", "filter"),
    ("where", "filter"),
    ("range", "filter"),
    ("cmp", "filter"),
    ("join", "join"),
    ("merge", "join"),
    ("agg", "aggregate"),
    ("sum", "aggregate"),
    ("count", "aggregate"),
    ("avg", "aggregate"),
    ("group", "aggregate"),
    ("sort", "sort"),
    ("order", "sort"),
    ("project", "project"),
    ("output", "project"),
    ("out", "project"),
)


def _bucket_for_gate(name: str) -> str:
    lowered = name.lower()
    for needle, bucket in _OPERATOR_BUCKETS:
        if needle in lowered:
            return bucket
    return "other"


#: Uniformly random rows the prover puts under a witness-carrying
#: column, by the name in its opening-schedule path: all ``ZK_ROWS``,
#: but one fewer for a running product or sum (its first row past the
#: usable ones holds its end value).
_RANDOM_ROWS = {
    "advice_commitments": ZK_ROWS,
    "m_commitment": ZK_ROWS,
    "lookup_helper_commitments": ZK_ROWS,
    "phi_commitment": ZK_ROWS - 1,
    "z_commitment": ZK_ROWS - 1,
}


@dataclass(frozen=True)
class GateCost:
    """Per-gate static cost: constraint count and max degree."""

    name: str
    constraints: int
    max_degree: int
    operator: str


@dataclass(frozen=True)
class LookupCost:
    """Per-lookup static cost: tuple width and the degree of the
    constraint it sits in (its helper group's, or the table's running
    sum if that is higher)."""

    name: str
    width: int
    degree: int


@dataclass(frozen=True)
class CircuitReport:
    """Static cost report for one circuit shape at ``2^k`` rows."""

    k: int
    rows: int
    usable_rows: int
    zk_rows: int
    fingerprint: str
    fixed_columns: int
    advice_columns: int
    instance_columns: int
    gates: tuple[GateCost, ...]
    num_constraints: int
    max_gate_degree: int
    required_degree: int
    extended_k: int
    lookups: tuple[LookupCost, ...]
    lookup_tables: int
    lookup_helper_columns: int
    #: Lookups of one value into a one-column fixed table: the limbs of
    #: the range decompositions (one advice column each, three to a
    #: helper column).
    range_limbs: int
    shuffles: int
    #: Point sets of the opening argument (one ``q_i(x3)`` scalar each).
    opening_point_sets: int
    #: Blinding budget: min over witness-carrying committed polynomials
    #: of random rows - (rotations opened + 1 for ``q_i(x3)``); see
    #: DESIGN.md 5m.  Negative: more evaluations revealed than hidden.
    zk_margin: int
    #: The expression trees the constraint identity reads (gates,
    #: lookup inputs and tables, shuffle groups) and
    #: their nodes, a shared subtree counted per use ...
    expressions: int
    expression_nodes: int
    #: ... and the operations of the program they compile to
    #: (:class:`repro.proving.evaluation.Program`): ``leaves``,
    #: ``products``, ``linear``.
    program_ops: dict[str, int]
    #: The polynomials of the proof (not of the key) that the quotient
    #: round evaluates on each part of its coset.
    quotient_polys: int
    operator_constraints: dict[str, int] = dc_field(default_factory=dict)

    @classmethod
    def from_constraint_system(cls, cs: ConstraintSystem, k: int) -> "CircuitReport":
        n = 1 << k
        gates = []
        operator_constraints: dict[str, int] = {}
        for gate in cs.gates:
            bucket = _bucket_for_gate(gate.name)
            count = len(gate.constraints)
            degree = max((c.degree() for c in gate.constraints), default=1)
            gates.append(
                GateCost(
                    name=gate.name,
                    constraints=count,
                    max_degree=degree,
                    operator=bucket,
                )
            )
            operator_constraints[bucket] = operator_constraints.get(bucket, 0) + count

        arguments = cs.lookup_arguments()
        degree_of = {
            id(lookup): max(group_degree, argument.table_degree)
            for argument in arguments
            for group, group_degree in zip(argument.groups, argument.group_degrees)
            for lookup in group
        }
        lookups = [
            LookupCost(
                name=lookup.name,
                width=len(lookup.inputs),
                degree=degree_of[id(lookup)],
            )
            for lookup in cs.lookups
        ]

        degree = cs.required_degree()
        extended_k = k + cs.quotient_extension()
        # The opening argument's shape, from the function both sides of
        # the protocol call, and the identity's program, from the
        # compiler keygen runs (repro.proving imports this package).
        from repro.proving import evaluation, protocol

        expressions = evaluation.gate_expressions(cs)
        expressions += evaluation.argument_expressions(cs, arguments)
        expressions = list(dict.fromkeys(expressions))
        program = evaluation.Program(expressions, SCALAR_FIELD.p)
        shape = SimpleNamespace(
            cs=cs, lookup_arguments=arguments,
            system_commitments=protocol.SYSTEM_SELECTORS, program=program,
        )
        queries = protocol.collect_queries(shape)
        point_sets = protocol.opening_point_sets(shape, queries, 0)
        margins = [
            _RANDOM_ROWS[name] - (len(rotations) + 1)
            for rotations, members in point_sets
            for commitment, _ in members
            for name in (commitment[0], commitment[-1])
            if name in _RANDOM_ROWS
        ]
        return cls(
            k=k,
            rows=n,
            usable_rows=n - ZK_ROWS,
            zk_rows=ZK_ROWS,
            fingerprint=cs.fingerprint(),
            fixed_columns=len(cs.fixed_columns),
            advice_columns=len(cs.advice_columns),
            instance_columns=len(cs.instance_columns),
            gates=tuple(gates),
            num_constraints=cs.num_constraints(),
            max_gate_degree=cs.max_gate_degree(),
            required_degree=degree,
            extended_k=extended_k,
            lookups=tuple(lookups),
            lookup_tables=len(arguments),
            lookup_helper_columns=helper_column_count(arguments),
            range_limbs=sum(
                len(lookup.table) == 1
                and isinstance(lookup.table[0], ColumnQuery)
                and lookup.table[0].column.kind is ColumnKind.FIXED
                for lookup in cs.lookups
            ),
            shuffles=len(cs.shuffles),
            opening_point_sets=len(point_sets),
            zk_margin=min(margins, default=ZK_ROWS),
            expressions=len(expressions),
            expression_nodes=sum(1 for expr in expressions for _ in expr.nodes()),
            program_ops=program.counts(),
            quotient_polys=len(protocol.quotient_paths(shape, queries)),
            operator_constraints=operator_constraints,
        )

    # -- derived MSM estimates -------------------------------------------

    @property
    def quotient_chunks(self) -> int:
        """How many ``rows``-coefficient pieces the prover commits the
        quotient in: ``h`` has ``(degree - 1) * rows - degree + 1``
        coefficients when some constraint reaches ``required_degree``,
        which is ``degree - 1`` pieces -- at most the ``2^(extended_k -
        k)`` the quotient's domain holds and the verifier allows."""
        return self.required_degree - 1

    @property
    def quotient_parts(self) -> int:
        """The n-point cosets of ``H`` the quotient's coset of
        ``2^extended_k`` points splits into, one round part each."""
        return 1 << (self.extended_k - self.k)

    @property
    def peak_extended_values(self) -> int:
        """The most coset values the quotient round holds at once: in
        its last part, every proof polynomial's ``rows`` values there
        and the ``rows``-coefficient remainder of ``h`` that each
        earlier part left.  The key's values on the parts are the key's
        and are not counted, nor are the program's temporaries."""
        return (self.quotient_polys + self.quotient_parts - 1) * self.rows

    def commitment_msm_sizes(self) -> dict[str, int]:
        """Estimated per-phase MSM sizes (points per multi-scalar mul).

        Every column/polynomial commitment is one size-``rows`` MSM
        over its values (a quotient chunk's after one FFT); the quotient
        splits into :attr:`quotient_chunks` chunks of the same size.
        """
        return {
            "advice": self.rows,
            "fixed": self.rows,
            "lookup_multiplicity": self.rows,
            "lookup_helper": self.rows,
            "grand_product": self.rows,
            "quotient_chunk": self.rows,
            "quotient_chunks": self.quotient_chunks,
        }

    def estimated_commit_msms(self) -> int:
        """How many size-``rows`` MSMs one ``create_proof`` performs,
        from shape alone (advice; per lookup table 1 multiplicity
        column and 1 running sum, plus 1 helper column per group of
        lookups; 1 product per shuffle; quotient chunks; plus ``f``, the
        opening argument's quotient).

        Times ``rows + 1`` points this is an *upper bound* on the
        fixed-base work, not the work: the kernel pays per nonzero
        scalar digit (``msm.fixed_base_digits``), and scalar width
        varies by column kind -- advice and multiplicity columns are
        narrow (limbs, values, selector bits, counts; only the blinding
        rows are full width), while helpers, running sums, grand
        products and quotient chunks are full width throughout."""
        return (
            self.advice_columns
            + 2 * self.lookup_tables
            + self.lookup_helper_columns
            + self.shuffles
            + self.quotient_chunks
            + 1  # f of the opening argument
        )

    def as_dict(self) -> dict:
        """JSON-able form (bench stamping, golden tests)."""
        return {
            "k": self.k,
            "rows": self.rows,
            "usable_rows": self.usable_rows,
            "zk_rows": self.zk_rows,
            "fingerprint": self.fingerprint,
            "columns": {
                "fixed": self.fixed_columns,
                "advice": self.advice_columns,
                "instance": self.instance_columns,
            },
            "gates": [
                {
                    "name": g.name,
                    "constraints": g.constraints,
                    "max_degree": g.max_degree,
                    "operator": g.operator,
                }
                for g in self.gates
            ],
            "num_constraints": self.num_constraints,
            "max_gate_degree": self.max_gate_degree,
            "required_degree": self.required_degree,
            "extended_k": self.extended_k,
            "lookups": [
                {"name": l.name, "width": l.width, "degree": l.degree}
                for l in self.lookups
            ],
            "lookup_tables": self.lookup_tables,
            "lookup_helper_columns": self.lookup_helper_columns,
            "range_limbs": self.range_limbs,
            "shuffles": self.shuffles,
            "opening_point_sets": self.opening_point_sets,
            "zk_margin": self.zk_margin,
            "expressions": self.expressions,
            "expression_nodes": self.expression_nodes,
            "program_ops": dict(self.program_ops),
            "quotient_polys": self.quotient_polys,
            "peak_extended_values": self.peak_extended_values,
            "operator_constraints": dict(self.operator_constraints),
            "estimated_commit_msms": self.estimated_commit_msms(),
            "msm_sizes": self.commitment_msm_sizes(),
        }

    def render(self) -> str:
        """Human-readable cost table (the ``report`` CLI and benches)."""
        lines = [
            f"circuit {self.fingerprint[:12]}  k={self.k}  "
            f"rows={self.rows} (usable {self.usable_rows}, blinding {self.zk_rows})",
            f"columns: fixed={self.fixed_columns} advice={self.advice_columns} "
            f"instance={self.instance_columns}",
            f"degree: max gate {self.max_gate_degree}, required {self.required_degree} "
            f"-> extended_k={self.extended_k}",
            f"arguments: lookups={len(self.lookups)} "
            f"(tables={self.lookup_tables}, helper columns="
            f"{self.lookup_helper_columns}) range limbs={self.range_limbs} "
            f"shuffles={self.shuffles}",
            f"opening: 1 IPA over {self.opening_point_sets} point sets, "
            f"zk margin {self.zk_margin}",
            f"expressions: {self.expressions} trees of {self.expression_nodes} "
            f"nodes -> program of {sum(self.program_ops.values())} ops "
            + " ".join(f"{kind}={count}" for kind, count in self.program_ops.items()),
            f"quotient: {self.quotient_parts} parts of {self.rows} points, "
            f"{self.quotient_polys} proof polynomials, peak "
            f"{self.peak_extended_values} values held",
            f"estimated commit MSMs: {self.estimated_commit_msms()} "
            f"x {self.rows} points (an upper bound: work follows scalar width)",
            "",
            f"{'gate':<28} {'operator':<10} {'constraints':>11} {'degree':>7}",
            f"{'-' * 28} {'-' * 10} {'-' * 11} {'-' * 7}",
        ]
        for gate in self.gates:
            lines.append(
                f"{gate.name:<28} {gate.operator:<10} "
                f"{gate.constraints:>11} {gate.max_degree:>7}"
            )
        if self.lookups:
            lines.append("")
            lines.append(f"{'lookup':<28} {'width':>6} {'degree':>7}")
            lines.append(f"{'-' * 28} {'-' * 6} {'-' * 7}")
            for lookup in self.lookups:
                lines.append(
                    f"{lookup.name:<28} {lookup.width:>6} {lookup.degree:>7}"
                )
        if self.operator_constraints:
            lines.append("")
            lines.append("constraints by operator:")
            for name in sorted(self.operator_constraints):
                lines.append(f"  {name:<12} {self.operator_constraints[name]:>6}")
        return "\n".join(lines)
