"""Ablations of the paper's design choices (DESIGN.md section 5).

1. **Naive product range check vs lookup-based** (section 4.1): the
   rejected encoding ``prod_{i=0..t}(x - i) = 0`` has constraint degree
   t+2, so the extended evaluation domain -- and prover work -- grows
   linearly with the bound; the lookup design's degree is constant.
2. **Limb width** (Design C): wider limbs mean fewer lookups per value
   but a bigger fixed table (and minimum circuit size).
3. **Sorting network vs permutation argument** (section 4.2 vs ZKSQL):
   boolean compare-exchange networks cost n/2*log^2(n) comparators of
   6*bits gates; the PLONKish sort costs one shuffle column plus one
   limb-decomposed comparison per adjacent pair -- linear in n.
"""

from repro.bench.reporting import Report
from repro.gates import NaiveRangeCheckChip, RangeDecomposeChip, RangeTable
from repro.plonkish import ConstraintSystem


def _naive_circuit(bound: int) -> ConstraintSystem:
    cs = ConstraintSystem()
    q = cs.selector("q")
    v = cs.advice_column("v")
    NaiveRangeCheckChip(cs, "naive", q.cur(), v.cur(), bound)
    return cs


def _lookup_circuit(limb_bits: int, n_limbs: int) -> ConstraintSystem:
    cs = ConstraintSystem()
    table = RangeTable(cs, limb_bits)
    q = cs.selector("q")
    v = cs.advice_column("v")
    RangeDecomposeChip(cs, "decompose", q.cur(), v.cur(), table, n_limbs)
    return cs


def test_ablation_range_check_degree(benchmark):
    def build():
        return {bound: _naive_circuit(bound) for bound in (4, 8, 16, 32, 64)}

    naive = benchmark.pedantic(build, rounds=1, iterations=1)
    lookup = _lookup_circuit(8, 8)

    report = Report(
        "ablation_range_check",
        "Ablation: naive product range check vs lookup designs A-C",
    )
    rows = []
    for bound, cs in naive.items():
        degree = cs.required_degree()
        rows.append(
            (f"naive, t={bound}", degree, f"{degree - 1}x rows",
             "grows with t")
        )
    lk_degree = lookup.required_degree()
    rows.append(
        (f"lookup, 64-bit via 8 u8 limbs", lk_degree,
         f"{1 << max(1, (lk_degree - 1).bit_length())}x rows", "constant")
    )
    report.table(
        ["design", "constraint degree", "extended domain", "scaling"], rows
    )
    report.line(
        "\nthe naive design's degree (hence prover FFT size) grows "
        "linearly with the range bound -- the paper's reason for "
        "adopting Plookup-style range checks."
    )
    report.emit()
    assert naive[64].required_degree() > lookup.required_degree()


def test_ablation_limb_width(benchmark):
    def build():
        out = {}
        for limb_bits in (2, 4, 8):
            n_limbs = 16 // limb_bits
            cs = _lookup_circuit(limb_bits, n_limbs)
            out[limb_bits] = (
                n_limbs,
                1 << limb_bits,
                len(cs.lookups),
                cs.required_degree(),
            )
        return out

    stats = benchmark.pedantic(build, rounds=1, iterations=1)
    report = Report("ablation_limb_width", "Ablation: Design C limb width (16-bit values)")
    report.table(
        ["limb bits", "limbs/value", "table size", "lookups", "degree"],
        [
            (bits, n, size, lookups, degree)
            for bits, (n, size, lookups, degree) in stats.items()
        ],
    )
    report.line(
        "\ntrade-off: wider limbs halve the per-value lookups but square "
        "the fixed table (and the minimum circuit rows); the paper "
        "settles on 8-bit u8 cells."
    )
    report.emit()
    assert stats[2][2] > stats[8][2]  # more lookups at narrower limbs


def test_ablation_sort_designs(benchmark):
    def count():
        rows = []
        for n in (1_000, 10_000, 60_000):
            log = max(1, (n - 1).bit_length())
            boolean_gates = (n // 2) * log * log * 6 * 64
            # PLONKish: shuffle (1 grand product column) + per-pair limb
            # decomposition: 8 lookups + 1 recomposition per row.
            plonkish_constraint_rows = n * (8 + 1 + 1)
            rows.append((n, boolean_gates, plonkish_constraint_rows,
                         boolean_gates / plonkish_constraint_rows))
        return rows

    rows = benchmark.pedantic(count, rounds=1, iterations=1)
    report = Report("ablation_sort", "Ablation: sorting network vs permutation sort")
    report.table(
        ["rows", "boolean network gates (ZKSQL)",
         "PLONKish constraint rows", "ratio"],
        [(n, f"{b:,}", f"{p:,}", f"{r:.0f}x") for n, b, p, r in rows],
    )
    report.line(
        "\nthe permutation-argument sort is linear in n; compare-exchange "
        "networks carry an extra log^2(n) factor -- but operate on cheaper "
        "boolean gates, which is why Figure 7 shows ZKSQL competitive on "
        "sort-heavy queries."
    )
    report.emit()
    assert rows[-1][3] > rows[0][3]  # the gap widens with n
