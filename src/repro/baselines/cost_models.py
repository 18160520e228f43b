"""Paper-scale cost calibration.

The pure-Python prover cannot run 60k-row TPC-H circuits directly, so
every benchmark reports two numbers per cell:

1. a **measured** value at a reduced scale (real proofs, real circuits),
2. a **paper-scale estimate** from this calibration: the per-row
   circuit work is counted exactly from our compiled circuits (a
   scale-independent quantity), then mapped to seconds/GB on the
   paper's Skylake node by an affine model anchored on a single paper
   data point (Q1 at 60k rows).

The estimates for every *other* cell are therefore genuine predictions
of our circuit designs, to be compared against the paper's reported
values (EXPERIMENTS.md tracks paper-vs-estimated for each).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plonkish.constraint_system import ConstraintSystem

#: Paper-reported values (SIGMOD'25, section 5).
PAPER = {
    # Table 2: public parameter generation seconds by circuit rows.
    "table2": {15: 104, 16: 221, 17: 410, 18: 832},
    # Table 3: database commitment seconds by lineitem rows.
    "table3": {60_000: 2.89, 120_000: 5.53, 240_000: 10.94},
    # Table 4: (proving s, verification s, proof KB).
    "table4_libra": {"Q1": (812, 1.290, 435.8), "Q3": (997, 1.212, 411.4),
                     "Q5": (1021, 1.227, 413.9)},
    "table4_pone": {"Q1": (180, 0.617, 8.6), "Q3": (161, 0.725, 24.7),
                    "Q5": (313, 0.739, 29.6)},
    # Figure 10 anchors for Q1.
    "fig10_q1_seconds": {60_000: 180, 240_000: 683},
    "fig10_q1_memory_gb": {60_000: 1.53, 240_000: 5.12},
    # Figure 8: the fixed base step ("circuit without any gates").
    "base_step_seconds": 52.0,
}


def circuit_rows_for_scale(lineitem_rows: int) -> int:
    """The power-of-two circuit size a TPC-H workload needs at a given
    scale: the lineitem table plus the largest join partner must fit
    (cf. paper Table 2 topping out at 2^18 for 240k rows)."""
    needed = lineitem_rows + lineitem_rows // 4 + 64
    return 1 << max(9, (needed - 1).bit_length())


def column_work(cs: ConstraintSystem) -> float:
    """Scale-independent per-row prover work of a compiled circuit, in
    'column units': committed polynomials dominate Halo2's prover
    (one MSM + a handful of FFTs each), with lookups contributing three
    auxiliary columns and shuffles one each."""
    advice = len(cs.advice_columns)
    fixed = len(cs.fixed_columns)
    lookups = len(cs.lookups)
    shuffles = len(cs.shuffles)
    h_pieces = 8  # quotient pieces at the typical extended degree
    return advice + fixed + 3 * lookups + shuffles + h_pieces


@dataclass
class PaperCalibration:
    """Affine paper-hardware model: seconds = base + alpha * work * rows."""

    alpha_seconds: float
    gamma_memory_bytes: float
    base_seconds: float = PAPER["base_step_seconds"]

    @classmethod
    def from_q1(cls, q1_work: float, lineitem_rows: int = 60_000) -> "PaperCalibration":
        """Anchor on the paper's Q1@60k: 180 s, 1.53 GB."""
        rows = circuit_rows_for_scale(lineitem_rows)
        seconds = PAPER["fig10_q1_seconds"][lineitem_rows]
        alpha = (seconds - PAPER["base_step_seconds"]) / (q1_work * rows)
        gamma = (
            PAPER["fig10_q1_memory_gb"][lineitem_rows] * (1 << 30)
        ) / (q1_work * rows)
        return cls(alpha_seconds=alpha, gamma_memory_bytes=gamma)

    def proving_seconds(self, work: float, lineitem_rows: int) -> float:
        rows = circuit_rows_for_scale(lineitem_rows)
        return self.base_seconds + self.alpha_seconds * work * rows

    def memory_gb(self, work: float, lineitem_rows: int) -> float:
        rows = circuit_rows_for_scale(lineitem_rows)
        return self.gamma_memory_bytes * work * rows / (1 << 30)
