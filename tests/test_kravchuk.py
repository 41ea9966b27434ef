import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SubsetIndex,
    brute_force_level_sum,
    brute_force_level_sum_at,
    kravchuk_closed_form,
    raw_sign_log,
    walsh,
)

from graphgp.kravchuk import build_table
from graphgp.spaces import GraphCode, GraphSpace, GraphSpaceKind

U5 = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)  # d = 10


class TestWalsh:
    def test_empty_subset(self, rng):
        for _ in range(20):
            assert walsh(SubsetIndex.of([]), U5.random_code(rng)) == 1

    def test_single_set_bit(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_bits([1, 0, 0])
        assert walsh(SubsetIndex.of([0]), x) == -1
        assert walsh(SubsetIndex.of([1]), x) == 1

    def test_out_of_range_rejected(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        with pytest.raises(ValueError, match="out of range"):
            walsh(SubsetIndex.of([3]), space.empty_code())

    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(st.integers(0, 9)),
        st.integers(0, 2**10 - 1),
        st.integers(0, 2**10 - 1),
    )
    def test_character_property(self, members, xb, yb):
        # w_T(x XOR y) = w_T(x) * w_T(y)
        T = SubsetIndex.of(members)
        x, y = GraphCode(U5, xb), GraphCode(U5, yb)
        assert walsh(T, x ^ y) == walsh(T, x) * walsh(T, y)

    def test_subset_index_validation(self):
        with pytest.raises(ValueError):
            SubsetIndex((2, 1))
        with pytest.raises(ValueError):
            SubsetIndex((1, 1))
        assert SubsetIndex.of([2, 1, 2]).members == (1, 2)


class TestBuildTable:
    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_table(0)

    def test_d1_base_case(self):
        table = build_table(1)
        assert table.value(1, 1) == -1.0
        assert table.value(0, 1) == 1.0
        assert table.value(1, 0) == 1.0

    def test_d2_values_match_enumeration(self):
        table = build_table(2)
        # direct Walsh sums over the two size-1 subsets
        assert table.value(1, 1) * math.comb(2, 1) == brute_force_level_sum_at(2, 1, 1)
        assert table.value(1, 2) * math.comb(2, 1) == brute_force_level_sum_at(2, 1, 2)
        assert table.value(1, 1) == 0.0
        assert table.value(1, 2) == -1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 21])
    def test_boundary_rows_and_bound(self, d):
        table = build_table(d)
        assert np.all(table.values[:, 0] == 1.0)
        assert np.all(table.values[0, :] == 1.0)
        assert np.abs(table.values).max() <= 1.0 + 1e-12

    def test_cache_returns_same_object(self):
        assert build_table(7) is build_table(7)

    def test_index_bounds_checked(self):
        table = build_table(4)
        with pytest.raises(ValueError):
            table.value(5, 0)
        with pytest.raises(ValueError):
            table.value(0, 5)

    def test_raw_reconstruction(self):
        d = 12
        table = build_table(d)
        for j in range(d + 1):
            for m in range(d + 1):
                expect = kravchuk_closed_form(d, j, m)
                sign, log_abs = raw_sign_log(table, j, m)
                if expect == 0:
                    assert sign == 0 or abs(math.exp(log_abs)) < 1e-6
                else:
                    assert sign == (1 if expect > 0 else -1)
                    assert math.exp(log_abs) == pytest.approx(abs(expect), rel=1e-10)

    def test_top_level_alternates_sign(self):
        # the level-d row is (-1)^m: single subset of all indices
        for d in (3, 6, 9):
            table = build_table(d)
            for m in range(d + 1):
                assert table.value(d, m) == pytest.approx((-1.0) ** m, abs=1e-14)


class TestClosedForm:
    def test_distance_zero_is_binomial(self):
        for d in range(1, 15):
            for j in range(d + 1):
                assert kravchuk_closed_form(d, j, 0) == math.comb(d, j)

    def test_hand_case_2_1_1(self):
        assert kravchuk_closed_form(2, 1, 1) == 0

    def test_hand_case_4_2_2(self):
        # terms by hand: l=0 gives +1, l=1 gives -4, l=2 gives +1
        assert kravchuk_closed_form(4, 2, 2) == -2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            kravchuk_closed_form(3, 4, 0)
        with pytest.raises(ValueError):
            kravchuk_closed_form(3, 0, 4)


class TestBruteForce:
    def test_level_zero_is_one(self, rng):
        for _ in range(10):
            x, y = U5.random_code(rng), U5.random_code(rng)
            assert brute_force_level_sum(x, y, 0) == 1

    def test_same_code_gives_binomial(self, rng):
        x = U5.random_code(rng)
        for j in range(11):
            assert brute_force_level_sum(x, x, j) == math.comb(10, j)

    def test_matches_table_at_d8(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3)  # d = 9
        d = space.d
        table = build_table(d)
        for _ in range(5):
            x, y = space.random_code(rng), space.random_code(rng)
            m = (x.bits ^ y.bits).bit_count()
            for j in range(d + 1):
                got = brute_force_level_sum(x, y, j)
                assert got == pytest.approx(table.value(j, m) * math.comb(d, j), rel=1e-12, abs=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_level_sum_at(21, 2, 1)

    def test_weight_of_custom_pattern_checked(self):
        with pytest.raises(ValueError, match="weight"):
            brute_force_level_sum_at(5, 1, 2, z=0b111)

    def test_collapse_to_distance(self, rng):
        # the subset sum depends on the difference pattern only through its weight
        d, j, m = 9, 4, 5
        base = brute_force_level_sum_at(d, j, m)
        for _ in range(5):
            bits = rng.permutation(d)[:m]
            z = 0
            for b in bits:
                z |= 1 << int(b)
            assert brute_force_level_sum_at(d, j, m, z=z) == base


class TestTripleAgreement:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_dp_equals_closed_form_equals_enumeration(self, d):
        table = build_table(d)
        for j in range(d + 1):
            scale = math.comb(d, j)
            for m in range(d + 1):
                exact = kravchuk_closed_form(d, j, m)
                assert brute_force_level_sum_at(d, j, m) == exact
                assert table.value(j, m) * scale == pytest.approx(exact, rel=1e-12, abs=1e-9)


class TestOrthogonality:
    @pytest.mark.parametrize("d", [2, 4, 7, 10, 12])
    def test_weighted_rows_orthogonal(self, d):
        # sum_m C(d,m) G(d,j,m) G(d,j',m) = 2^d C(d,j) delta(j,j'), in exact integers
        G = [[kravchuk_closed_form(d, j, m) for m in range(d + 1)] for j in range(d + 1)]
        for j in range(d + 1):
            for jp in range(d + 1):
                acc = sum(math.comb(d, m) * G[j][m] * G[jp][m] for m in range(d + 1))
                expect = (1 << d) * math.comb(d, j) if j == jp else 0
                assert acc == expect

    def test_orthogonality_by_direct_enumeration(self):
        # same identity accumulated from raw subset sums rather than the closed form
        d = 8
        G = [[brute_force_level_sum_at(d, j, m) for m in range(d + 1)] for j in range(d + 1)]
        for j in range(d + 1):
            for jp in range(d + 1):
                acc = sum(math.comb(d, m) * G[j][m] * G[jp][m] for m in range(d + 1))
                expect = (1 << d) * math.comb(d, j) if j == jp else 0
                assert acc == expect
