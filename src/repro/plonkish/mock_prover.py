"""MockProver: direct constraint checking with precise diagnostics.

The MockProver evaluates every gate polynomial on every row, checks
every copy constraint and every lookup directly against the assignment
-- no cryptography.  It accepts an assignment iff the real prover could
produce a proof that the real verifier accepts (both reduce to the same
satisfiability predicate), so it is the tool of choice for testing the
paper's gate designs quickly, exactly as ``halo2``'s MockProver is used
upstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem


@dataclass
class VerifyFailure:
    """One violated constraint, with enough context to debug a gate."""

    kind: str  # "gate" | "copy" | "lookup" | "shuffle" | "bound"
    name: str
    row: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.name} at row {self.row}: {self.detail}"


class MockProver:
    """Checks an assignment against its constraint system."""

    def __init__(self, cs: ConstraintSystem, assignment: Assignment):
        self.cs = cs
        self.assignment = assignment

    def verify(self) -> list[VerifyFailure]:
        """All constraint violations (empty list == satisfied)."""
        failures: list[VerifyFailure] = []
        failures.extend(self._check_gates())
        failures.extend(self._check_copies())
        failures.extend(self._check_lookups())
        failures.extend(self._check_shuffles())
        failures.extend(self._check_bounds())
        return failures

    def assert_satisfied(self) -> None:
        failures = self.verify()
        if failures:
            report = "\n".join(str(f) for f in failures[:20])
            more = len(failures) - 20
            if more > 0:
                report += f"\n... and {more} more"
            raise AssertionError(f"circuit not satisfied:\n{report}")

    # -- checks ---------------------------------------------------------------

    def _check_gates(self) -> list[VerifyFailure]:
        # Gates are checked on active rows only: the proving system
        # multiplies every gate by the fixed active-rows selector, so
        # blinding rows are unconstrained by construction.
        failures = []
        asg = self.assignment
        for gate in self.cs.gates:
            for c_idx, constraint in enumerate(gate.constraints):
                for row in range(asg.usable_rows):
                    value = asg.evaluate(constraint, row)
                    if value != 0:
                        failures.append(
                            VerifyFailure(
                                "gate",
                                f"{gate.name}#{c_idx}",
                                row,
                                f"evaluates to {value} (expected 0): {constraint}",
                            )
                        )
        return failures

    def _check_bounds(self) -> list[VerifyFailure]:
        """Every declared column bound (``ConstraintSystem.bounds``)
        against the cells: no constraint of the proving system, but a
        claim circuits are *sized* on -- a wrong declaration fails here,
        at its source, on the honest witness (whose cells are 0 where a
        chip is inactive, so every usable row is checked)."""
        failures = []
        asg = self.assignment
        for target, hi in self.cs.bounds.items():
            if not isinstance(target, Column):
                continue  # a flag expression: bounded where its gate is on
            for row in range(asg.usable_rows):
                value = asg.value(target, row)
                if value > hi:
                    failures.append(
                        VerifyFailure(
                            "bound", target.name, row,
                            f"{value} exceeds the declared bound {hi}",
                        )
                    )
        return failures

    def _check_copies(self) -> list[VerifyFailure]:
        failures = []
        asg = self.assignment
        for copy in self.cs.copies:
            left = asg.value(copy.left_col, copy.left_row)
            right = asg.value(copy.right_col, copy.right_row)
            if left != right:
                failures.append(
                    VerifyFailure(
                        "copy",
                        f"{copy.left_col.name}[{copy.left_row}] == "
                        f"{copy.right_col.name}[{copy.right_row}]",
                        copy.left_row,
                        f"{left} != {right}",
                    )
                )
        return failures

    def _check_lookups(self) -> list[VerifyFailure]:
        failures = []
        asg = self.assignment
        rows = range(asg.usable_rows)
        for lookup in self.cs.lookups:
            table_rows = set()
            for row in rows:
                table_rows.add(
                    tuple(asg.evaluate(e, row) for e in lookup.table)
                )
            for row in rows:
                needle = tuple(asg.evaluate(e, row) for e in lookup.inputs)
                if needle not in table_rows:
                    failures.append(
                        VerifyFailure(
                            "lookup",
                            lookup.name,
                            row,
                            f"input tuple {needle} not present in table",
                        )
                    )
        return failures

    def _check_shuffles(self) -> list[VerifyFailure]:
        from collections import Counter

        failures = []
        asg = self.assignment
        rows = range(asg.usable_rows)
        for shuffle in self.cs.shuffles:

            def multiset(groups):
                counter: Counter = Counter()
                for group in groups:
                    for row in rows:
                        counter[tuple(asg.evaluate(e, row) for e in group)] += 1
                return counter

            inputs = multiset(shuffle.input_groups)
            table = multiset(shuffle.table_groups)
            if inputs != table:
                missing = list((inputs - table).items())[:3]
                extra = list((table - inputs).items())[:3]
                failures.append(
                    VerifyFailure(
                        "shuffle",
                        shuffle.name,
                        -1,
                        f"multisets differ; input-only={missing}, "
                        f"table-only={extra}",
                    )
                )
        return failures
