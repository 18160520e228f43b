"""Relational gates: sort (4.2), group-by (4.3), join (4.4),
aggregation/compaction (4.5), set operations, strings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import (
    CompactChip,
    DivModChip,
    GroupByChip,
    PkFkJoinChip,
    RangeTable,
    RunningAggChip,
    SortChip,
    SqrtChip,
)
from repro.gates.join import DisjointChip
from repro.gates.setops import DedupChip, SetOpsChip
from repro.gates.strings import CharTable, StringMatchChip, encode_dictionary
from repro.plonkish import Assignment, ConstraintSystem, MockProver

K = 6


def _cs():
    cs = ConstraintSystem()
    table = RangeTable(cs, bits=4)
    return cs, table


class TestSortChip:
    @given(values=st.lists(st.integers(0, 200), min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_sorts_any_multiset(self, values):
        cs, table = _cs()
        v = cs.advice_column("v")
        valid = cs.advice_column("valid")
        sort = SortChip(
            cs, "s", [valid.cur() * v.cur(), valid.cur()], 0, table, 2
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        for i, value in enumerate(values):
            asg.assign(v, i, value)
            asg.assign(valid, i, 1)
        out = sort.assign(asg, [(value, 1) for value in values])
        assert [r[0] for r in out] == sorted(values)
        MockProver(cs, asg).assert_satisfied()

    def test_descending(self):
        cs, table = _cs()
        v = cs.advice_column("v")
        sort = SortChip(cs, "s", [v.cur()], 0, table, 2, descending=True)
        asg = Assignment(cs, K)
        table.assign(asg)
        data = [5, 1, 9, 3]
        asg.assign_column(v, data)
        out = sort.assign(asg, [(x,) for x in data])
        assert [r[0] for r in out] == sorted(data, reverse=True)
        MockProver(cs, asg).assert_satisfied()

    def test_swapped_output_breaks_shuffle(self):
        cs, table = _cs()
        v = cs.advice_column("v")
        sort = SortChip(cs, "s", [v.cur()], 0, table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign_column(v, [4, 2])
        sort.assign(asg, [(4,), (2,)])
        asg.assign(sort.out[0], 0, 3)  # not a permutation any more
        failures = MockProver(cs, asg).verify()
        assert any(f.kind == "shuffle" for f in failures)

    def test_unsorted_output_breaks_order_constraint(self):
        cs, table = _cs()
        v = cs.advice_column("v")
        sort = SortChip(cs, "s", [v.cur()], 0, table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign_column(v, [4, 2])
        sort.assign(asg, [(4,), (2,)])
        # swap the two sorted outputs: still a permutation
        asg.assign(sort.out[0], 0, 4)
        asg.assign(sort.out[0], 1, 2)
        failures = MockProver(cs, asg).verify()
        assert failures, "sortedness (Eq. 4 adjacent check) must fail"

    def test_composite_key_preserves_lexicographic_order(self):
        rows = [(3, 9), (3, 1), (1, 5), (2, 2)]
        keys = [SortChip.composite_key(r, 8) for r in rows]
        assert sorted(range(4), key=lambda i: keys[i]) == sorted(
            range(4), key=lambda i: rows[i]
        )
        with pytest.raises(ValueError):
            SortChip.composite_key([300], 8)

    def test_key_index_validation(self):
        cs, table = _cs()
        v = cs.advice_column("v")
        with pytest.raises(ValueError):
            SortChip(cs, "s", [v.cur()], 2, table, 2)


class TestGroupByChip:
    def test_bins_match_python_groupby(self):
        cs, table = _cs()
        key = cs.advice_column("key")
        gb = GroupByChip(cs, "g", key.cur(), key.prev())
        asg = Assignment(cs, K)
        table.assign(asg)
        keys = [1, 1, 2, 5, 5, 5, 9]
        asg.assign_column(key, keys)
        bins = gb.assign(asg, keys)
        assert bins == [(0, 1), (2, 2), (3, 5), (6, 6)]
        MockProver(cs, asg).assert_satisfied()

    def test_single_group(self):
        cs, table = _cs()
        key = cs.advice_column("key")
        gb = GroupByChip(cs, "g", key.cur(), key.prev())
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign_column(key, [7, 7, 7])
        assert gb.assign(asg, [7, 7, 7]) == [(0, 2)]
        MockProver(cs, asg).assert_satisfied()

    def test_forged_boundary_caught(self):
        cs, table = _cs()
        key = cs.advice_column("key")
        gb = GroupByChip(cs, "g", key.cur(), key.prev())
        asg = Assignment(cs, K)
        table.assign(asg)
        keys = [1, 1, 2]
        asg.assign_column(key, keys)
        gb.assign(asg, keys)
        asg.assign(gb.same, 1, 0)  # claim row 1 starts a new bin
        assert MockProver(cs, asg).verify()


class TestRunningAggAndCompact:
    def test_figure5_sums(self):
        cs, table = _cs()
        key = cs.advice_column("key")
        val = cs.advice_column("val")
        gb = GroupByChip(cs, "g", key.cur(), key.prev())
        agg = RunningAggChip(
            cs, "sum", gb.q_first.cur(), gb.q_rest.cur(), gb.same.cur(),
            val.cur(),
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        keys = [1, 1, 2, 3]
        vals = [2, 10, 8, 6]
        asg.assign_column(key, keys)
        asg.assign_column(val, vals)
        bins = gb.assign(asg, keys)
        same = [0, 1, 0, 0]
        running = agg.assign(asg, vals, same)
        assert [running[e] for _, e in bins] == [12, 8, 6]
        MockProver(cs, asg).assert_satisfied()

    def test_compact_moves_flagged_rows(self):
        cs, table = _cs()
        flag = cs.advice_column("flag")
        val = cs.advice_column("val")
        q_all = cs.fixed_column("q_all")
        compact = CompactChip(
            cs, "c", flag.cur(), [flag.cur() * val.cur()], q_all.cur()
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        for row in range(asg.usable_rows):
            asg.assign(q_all, row, 1)
        data = [(0, 5), (1, 7), (0, 2), (1, 9)]
        for i, (fl, v) in enumerate(data):
            asg.assign(flag, i, fl)
            asg.assign(val, i, v)
        compact.assign(asg, [(7,), (9,)])
        MockProver(cs, asg).assert_satisfied()

    def test_compact_wrong_count_caught(self):
        cs, table = _cs()
        flag = cs.advice_column("flag")
        val = cs.advice_column("val")
        q_all = cs.fixed_column("q_all")
        compact = CompactChip(
            cs, "c", flag.cur(), [flag.cur() * val.cur()], q_all.cur()
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        for row in range(asg.usable_rows):
            asg.assign(q_all, row, 1)
        asg.assign(flag, 0, 1)
        asg.assign(val, 0, 7)
        compact.assign(asg, [(7,), (7,)])  # claims two rows, only one real
        failures = MockProver(cs, asg).verify()
        assert any(f.kind == "shuffle" for f in failures)

    def test_density_prefix_enforced(self):
        cs, table = _cs()
        flag = cs.advice_column("flag")
        q_all = cs.fixed_column("q_all")
        compact = CompactChip(cs, "c", flag.cur(), [], q_all.cur())
        asg = Assignment(cs, K)
        table.assign(asg)
        for row in range(asg.usable_rows):
            asg.assign(q_all, row, 1)
        # q_out = [0, 1, ...]: a gap -- violates the prefix constraint.
        asg.assign(compact.q_out, 1, 1)
        asg.assign(flag, 0, 1)
        failures = MockProver(cs, asg).verify()
        assert any("density" in f.name for f in failures)


class TestDivModSqrt:
    @given(dividend=st.integers(0, 10_000), divisor=st.integers(1, 255))
    @settings(max_examples=20, deadline=None)
    def test_divmod(self, dividend, divisor):
        cs, table = _cs()
        q = cs.selector("q")
        a = cs.advice_column("a")
        b = cs.advice_column("b")
        chip = DivModChip(cs, "d", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, dividend)
        asg.assign(b, 0, divisor)
        quot, rem = chip.assign_row(asg, 0, dividend, divisor)
        assert (quot, rem) == divmod(dividend, divisor)
        MockProver(cs, asg).assert_satisfied()

    def test_division_by_zero_rejected(self):
        cs, table = _cs()
        q = cs.selector("q")
        a = cs.advice_column("a")
        b = cs.advice_column("b")
        chip = DivModChip(cs, "d", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        with pytest.raises(ValueError):
            chip.assign_row(asg, 0, 5, 0)

    @given(x=st.integers(0, 60_000))
    @settings(max_examples=15, deadline=None)
    def test_sqrt(self, x):
        import math

        cs, table = _cs()
        q = cs.selector("q")
        a = cs.advice_column("a")
        chip = SqrtChip(cs, "s", q.cur(), a.cur(), table, 4)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, x)
        assert chip.assign_row(asg, 0, x) == math.isqrt(x)
        MockProver(cs, asg).assert_satisfied()


class TestJoin:
    def _setup(self, t1, t2):
        cs, table = _cs()
        fk = cs.advice_column("fk")
        t1v = cs.advice_column("t1v")
        pk = cs.advice_column("pk")
        val = cs.advice_column("val")
        t2v = cs.advice_column("t2v")
        chip = PkFkJoinChip(
            cs, "j", fk.cur(), t1v.cur(),
            [t2v.cur() * pk.cur(), t2v.cur() * val.cur()], t2v.cur(),
            table, 2,
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        for i, key in enumerate(t1):
            asg.assign(fk, i, key)
            asg.assign(t1v, i, 1)
        for i, (key, value) in enumerate(t2):
            asg.assign(pk, i, key)
            asg.assign(val, i, value)
            asg.assign(t2v, i, 1)
        return cs, asg, chip

    def test_figure6_flags(self):
        cs, asg, chip = self._setup(
            [1, 3, 6, 1, 6], [(3, 11), (1, 12), (5, 13), (4, 14), (7, 15)]
        )
        flags = chip.assign(
            asg, [(1, 1), (3, 1), (6, 1), (1, 1), (6, 1)],
            [(3, 11), (1, 12), (5, 13), (4, 14), (7, 15)],
        )
        assert flags == [1, 1, 0, 1, 0]
        MockProver(cs, asg).assert_satisfied()

    def test_invented_partner_caught(self):
        cs, asg, chip = self._setup([6], [(3, 11)])
        chip.assign(asg, [(6, 1)], [(3, 11)])
        # Prover fabricates a match for key 6.
        asg.assign(chip.part, 0, 1)
        asg.assign(chip.match[0], 0, 6)
        asg.assign(chip.match[1], 0, 999)
        failures = MockProver(cs, asg).verify()
        assert any(f.kind == "lookup" for f in failures)

    def test_hidden_match_caught(self):
        # fk=3 matches, but prover claims non-contributing: the
        # disjointness column cannot contain 3 with both tags.
        cs, asg, chip = self._setup([3], [(3, 11)])
        chip.assign(asg, [(3, 1)], [(3, 11)])
        asg.assign(chip.part, 0, 1)  # honest
        MockProver(cs, asg).assert_satisfied()
        asg.assign(chip.part, 0, 0)  # now hide the match
        for col in chip.match:
            asg.assign(col, 0, 0)
        failures = MockProver(cs, asg).verify()
        assert failures

    def test_dummy_rows_do_not_join(self):
        cs, asg, chip = self._setup([3, 4], [(3, 11)])
        asg.assign(cs.advice_columns[1], 1, 0)  # t1v row 1 -> dummy
        flags = chip.assign(asg, [(3, 1), (4, 0)], [(3, 11)])
        assert flags == [1, 0]
        MockProver(cs, asg).assert_satisfied()


class TestDisjoint:
    def test_disjoint_sets_pass(self):
        cs, table = _cs()
        a = cs.advice_column("a")
        af = cs.advice_column("af")
        b = cs.advice_column("b")
        bf = cs.advice_column("bf")
        chip = DisjointChip(
            cs, "d", a.cur(), af.cur(), b.cur(), bf.cur(), table, 2
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        for i, v in enumerate([1, 5, 5]):
            asg.assign(a, i, v)
            asg.assign(af, i, 1)
        for i, v in enumerate([2, 9]):
            asg.assign(b, i, v)
            asg.assign(bf, i, 1)
        chip.assign(asg, [1, 5, 5], [2, 9])
        MockProver(cs, asg).assert_satisfied()

    def test_overlap_unprovable(self):
        cs, table = _cs()
        a = cs.advice_column("a")
        af = cs.advice_column("af")
        b = cs.advice_column("b")
        bf = cs.advice_column("bf")
        chip = DisjointChip(
            cs, "d", a.cur(), af.cur(), b.cur(), bf.cur(), table, 2
        )
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(a, 0, 5)
        asg.assign(af, 0, 1)
        asg.assign(b, 0, 5)
        asg.assign(bf, 0, 1)
        chip.assign(asg, [5], [5])  # overlapping!
        failures = MockProver(cs, asg).verify()
        assert failures, "equal values with different tags must violate"


class TestSetOps:
    def test_multiset_equality(self):
        cs, table = _cs()
        ops = SetOpsChip(cs, table, 2)
        a = cs.advice_column("a")
        b = cs.advice_column("b")
        ops.assert_equal([a.cur()], [b.cur()])
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign_column(a, [3, 1, 2])
        asg.assign_column(b, [1, 2, 3])
        MockProver(cs, asg).assert_satisfied()
        asg.assign(b, 0, 9)
        assert MockProver(cs, asg).verify()

    def test_dedup_flags(self):
        cs, table = _cs()
        q_first = cs.fixed_column("qf")
        q_rest = cs.fixed_column("qr")
        key = cs.advice_column("key")
        chip = DedupChip(cs, "dd", q_first.cur(), q_rest.cur(),
                         key.cur(), key.prev())
        asg = Assignment(cs, K)
        table.assign(asg)
        keys = [1, 1, 2, 2, 2, 7]
        asg.assign_column(key, keys)
        asg.assign(q_first, 0, 1)
        for i in range(1, len(keys)):
            asg.assign(q_rest, i, 1)
        flags = chip.assign(asg, keys)
        assert flags == [1, 0, 1, 0, 0, 1]
        MockProver(cs, asg).assert_satisfied()


class TestStrings:
    def test_substring_match(self):
        cs, table = _cs()
        chars = CharTable(cs)
        q = cs.selector("q")
        code = cs.advice_column("code")
        chip = StringMatchChip(cs, "m", q.cur(), code.cur(), "een", chars)
        dictionary = {1: "green", 2: "blue"}
        asg = Assignment(cs, K)
        table.assign(asg)
        chars.assign(asg, dictionary)
        asg.assign(q, 0, 1)
        asg.assign(code, 0, 1)
        pos = chip.assign_row(asg, 0, 1, "green")
        assert pos == 3  # 'een' at 1-based position 3
        MockProver(cs, asg).assert_satisfied()

    def test_missing_pattern_rejected(self):
        cs, table = _cs()
        chars = CharTable(cs)
        q = cs.selector("q")
        code = cs.advice_column("code")
        chip = StringMatchChip(cs, "m", q.cur(), code.cur(), "xyz", chars)
        asg = Assignment(cs, K)
        with pytest.raises(ValueError):
            chip.assign_row(asg, 0, 1, "green")

    def test_dictionary_order(self):
        codes = encode_dictionary(["pear", "apple", "fig", "apple"])
        assert codes == {"apple": 1, "fig": 2, "pear": 3}
