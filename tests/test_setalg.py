from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregcalc.setalg import (
    CoeffSet,
    DomainError,
    EnumBounds,
    check_dd_monotone,
    check_ddi_lemma,
    d_d_set,
    d_set,
    mem_d_d_set,
    mem_d_set,
    mem_plus_closure,
    plus_closure,
    plus_closure_exact,
    pos_combinations,
    sums,
)


def cs(text):
    return CoeffSet.parse(text) if text else CoeffSet.of([])


small_rationals = st.fractions(min_value=0, max_value=1, max_denominator=6)
small_sets = st.lists(small_rationals, min_size=0, max_size=3).map(CoeffSet.of)


class TestCoeffSet:
    @given(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=4), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_elements_ascend_without_duplicates(self, xs):
        # the constructor sorts only when its one pass finds a pair out of
        # order; a duplicate counts as out of order, ascending input too
        want = tuple(sorted(set(xs)))
        assert CoeffSet.of(xs).elements == want
        assert CoeffSet(tuple(sorted(xs))).elements == want

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="negative coefficient -1/2"):
            CoeffSet.of([F(1, 3), F(-1, 2)])


class TestPlusClosure:
    def test_single_generator(self):
        assert plus_closure(cs("1/2"), EnumBounds(4, 6)).elements == (F(0), F(1, 2), F(1))

    def test_empty_set_gives_zero(self):
        assert plus_closure(cs(""), EnumBounds(4, 6)).elements == (F(0),)

    def test_two_generators(self):
        got = plus_closure(cs("1/3,2/5"), EnumBounds(4, 6))
        assert got.elements == (
            F(0), F(1, 3), F(2, 5), F(2, 3), F(11, 15), F(4, 5), F(1),
        )

    def test_bounded_in_unit_interval(self):
        got = plus_closure(cs("1/3,2/5"), EnumBounds(10, 6))
        assert all(0 <= x <= 1 for x in got)

    def test_pairwise_sums_present(self):
        # re-closing with half the term budget adds nothing below the frontier
        b = EnumBounds(4, 6)
        got = plus_closure(cs("1/3,2/5"), b)
        half = plus_closure(cs("1/3,2/5"), EnumBounds(2, 6))
        for x in half:
            for y in half:
                if x + y <= 1:
                    assert x + y in got

    @given(small_sets, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_mem_agrees_with_exact_enumeration(self, I, a):
        assert mem_plus_closure(a, I) == (a in plus_closure_exact(I))


class TestMemPlusClosure:
    def test_sum_of_two(self):
        assert mem_plus_closure(F(11, 15), cs("1/3,2/5"))

    def test_zero_always_member(self):
        assert mem_plus_closure(F(0), cs(""))
        assert mem_plus_closure(F(0), cs("1/3"))

    def test_non_member(self):
        assert not mem_plus_closure(F(7, 15), cs("1/3,2/5"))

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            mem_plus_closure(F(5, 3), cs("1/2"))
        with pytest.raises(DomainError):
            mem_plus_closure(F(-1, 2), cs("1/2"))


def sums_reference(gens, cap, max_terms):
    """0 and the n-term sums <= cap for n = 1, 2, ... up to max_terms, or,
    without a limit, until no n-term sum is <= cap (then no longer one is)."""
    pos = sorted({g for g in gens if g > 0})
    out = {F(0)}
    n = 0
    while max_terms is None or n < max_terms:
        n += 1
        new = {sum(c) for c in combinations_with_replacement(pos, n) if sum(c) <= cap}
        if not new:
            break
        out |= new
    return out


class TestSums:
    @given(
        st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6), max_size=4),
        st.fractions(min_value=0, max_value=2, max_denominator=6),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_combinations_reference(self, gens, cap, max_terms):
        # ascending, no duplicates, 0 first
        assert sums(gens, cap, max_terms) == tuple(sorted(sums_reference(gens, cap, max_terms)))

    def test_examples(self):
        assert sums([F(0), F(3)], F(2)) == (F(0),)  # gens zero or above the cap
        assert sums([F(1, 2)], F(2), 0) == (F(0),)
        assert sums([F(1, 2), F(1, 3)], F(1), 2) == (F(0), F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1))
        assert sums(cs("1/4"), F(1)) == tuple(F(k, 4) for k in range(5))


class TestPosCombinations:
    def test_integer_multiples(self):
        got = pos_combinations(cs("1"), EnumBounds(8, 6, F(5)))
        assert got.elements == (F(1), F(2), F(3), F(4), F(5))

    def test_two_generators(self):
        got = pos_combinations(cs("1/2,1/3"), EnumBounds(8, 6, F(1)))
        assert got.elements == (F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1))

    def test_even_multiples(self):
        got = pos_combinations(cs("2"), EnumBounds(8, 6, F(5)))
        assert got.elements == (F(2), F(4))

    def test_missing_cap_is_an_error(self):
        with pytest.raises(DomainError):
            pos_combinations(cs("1"), EnumBounds(8, 6))

    def test_no_positive_element_is_an_error(self):
        with pytest.raises(DomainError):
            pos_combinations(cs("0"), EnumBounds(8, 6, F(5)))


class TestDSet:
    def test_zero_generators(self):
        got = d_set(cs("0"), EnumBounds(4, 4))
        assert got.elements == (F(0), F(1, 2), F(2, 3), F(3, 4))

    def test_half(self):
        got = d_set(cs("1/2"), EnumBounds(4, 2))
        assert got.elements == (F(0), F(1, 2), F(3, 4), F(1))

    def test_one(self):
        assert d_set(cs("1"), EnumBounds(4, 1)).elements == (F(0), F(1))

    def test_min_positive_element(self):
        # with f = 0 the least positive value is 1/2 for any max_index >= 2
        got = d_set(cs("0"), EnumBounds(4, 6))
        assert min(x for x in got if x > 0) == F(1, 2)

    def test_output_in_unit_interval(self):
        got = d_set(cs("1/3,2/5"), EnumBounds(4, 6))
        assert all(0 <= x <= 1 for x in got)


class TestMemDSet:
    def test_five_sixths(self):
        assert mem_d_set(F(5, 6), cs("1/2"))  # m=3, f=1/2

    def test_three_quarters(self):
        assert mem_d_set(F(3, 4), cs("0"))  # m=4, f=0

    def test_four_fifths(self):
        # m=5 gives f=0, so the value is a member
        assert mem_d_set(F(4, 5), cs("1/2"))

    def test_one_requires_unit_sum(self):
        assert mem_d_set(F(1), cs("1/2"))
        assert not mem_d_set(F(1), cs("0"))
        assert not mem_d_set(F(1), cs("2/5"))

    @given(small_sets, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, I, a):
        b = EnumBounds(6, max(a.denominator, 8))
        if a in d_set(I, b):
            assert mem_d_set(a, I)


class TestDDSet:
    def test_zero_generators_half_shift(self):
        got = d_d_set(cs("0"), F(1, 2), EnumBounds(4, 2))
        assert got.elements == (F(1, 2), F(3, 4), F(1))

    def test_unit_shift_forces_one(self):
        assert d_d_set(cs("0"), F(1), EnumBounds(4, 3)).elements == (F(1),)

    def test_seven_eighths_representation(self):
        got = d_d_set(cs("1/2"), F(1, 4), EnumBounds(4, 2))
        assert F(7, 8) in got  # (m,k,f) = (2,1,1/2)

    def test_mem_examples(self):
        assert mem_d_d_set(F(3, 4), cs("0"), F(1, 2))
        assert not mem_d_d_set(F(1, 4), cs("0"), F(1, 2))
        assert mem_d_d_set(F(1), cs("0"), F(1, 2))

    def test_mem_rejects_nonpositive_shift(self):
        with pytest.raises(DomainError):
            mem_d_d_set(F(1, 2), cs("0"), F(0))

    @pytest.mark.parametrize("d", [F(0), F(-1, 2), F(3, 2)])
    def test_enumeration_rejects_shift_outside_domain(self, d):
        # same domain (0,1] as mem_d_d_set and check_dd_monotone
        with pytest.raises(DomainError):
            d_d_set(cs("1/2"), d, EnumBounds(4, 3))

    @pytest.mark.parametrize("d", [F(0), F(-1, 2), F(3, 2)])
    def test_every_shift_check_refuses_the_same_shifts(self, d):
        calls = [
            lambda: d_d_set(cs("1/2"), d, EnumBounds(4, 3)),
            lambda: mem_d_d_set(F(1, 2), cs("1/2"), d),
            lambda: check_dd_monotone(cs("1/2"), d, EnumBounds(4, 3)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"^shift d must lie in \(0,1\]$"):
                call()

    @given(small_sets, st.fractions(min_value=F(1, 4), max_value=1, max_denominator=4), small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_mem_agrees_with_enumeration(self, I, d, a):
        b = EnumBounds(4, max(a.denominator * d.denominator, 6))
        if a in d_d_set(I, d, b):
            assert mem_d_d_set(a, I, d)


class TestLemmaChecks:
    @pytest.mark.parametrize("gens", ["0", "1/2", "1/3,2/5"])
    def test_double_derived_set(self, gens):
        ok, bad = check_ddi_lemma(cs(gens), EnumBounds(4, 6))
        assert ok and bad == []

    @pytest.mark.parametrize(
        "gens,d", [("0", F(1, 2)), ("1/2", F(1, 3)), ("0", F(1))]
    )
    def test_shift_monotone(self, gens, d):
        ok, bad = check_dd_monotone(cs(gens), d, EnumBounds(4, 3))
        assert ok and bad == []


class TestDeterminism:
    def test_enumerations_sorted_and_unique(self):
        for got in [
            plus_closure(cs("1/3,2/5"), EnumBounds(5, 6)),
            d_set(cs("1/3,2/5"), EnumBounds(4, 6)),
            d_d_set(cs("1/2"), F(1, 3), EnumBounds(4, 5)),
        ]:
            assert list(got.elements) == sorted(set(got.elements))
