"""Differential tests of the membership core against slow reference copies.

The references are deliberately naive: an unbounded-repetition knapsack over
the common denominator of the query and the generators, Fraction versions of
the per-triple kernel, and straight scans over every parameter.
"""

import contextlib
import dataclasses
import io
import itertools
import time
from fractions import Fraction as F
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coregcalc import cli, setalg
from coregcalc.lctsets import (
    Coreg0Witness,
    Coreg1Witness,
    mem_lct0,
    mem_lct1,
    platonic_triples,
)
from coregcalc.setalg import (
    UNIT,
    CoeffSet,
    DomainError,
    EnumBounds,
    check_dd_monotone,
    in_semigroup,
    mem_d_d_set,
    mem_d_set,
    mem_plus_closure,
    split,
    sums,
)


# ---------------------------------------------------------------------------
# reference oracles


def knapsack_member(x, S):
    """Whether x >= 0 is a finite sum of positive elements of S: a table of
    reachable scaled values up to the scaled target."""
    if x == 0:
        return True
    gens = S.positive()
    if not gens:
        return False
    denom = lcm(x.denominator, *(g.denominator for g in gens))
    target = x.numerator * (denom // x.denominator)
    weights = sorted({g.numerator * (denom // g.denominator) for g in gens})
    reachable = [False] * (target + 1)
    reachable[0] = True
    for v in range(1, target + 1):
        for w in weights:
            if w > v:
                break
            if reachable[v - w]:
                reachable[v] = True
                break
    return reachable[target]


def sums_up_to(gens, cap, max_terms=None):
    """All finite sums (0 included) of at most max_terms positive gens (no
    limit when None) that are <= cap; a bounded one tries every multiset."""
    pos = [g for g in gens if g > 0]
    if max_terms is not None:
        return {
            sum(c, F(0))
            for n in range(max_terms + 1)
            for c in itertools.combinations_with_replacement(pos, n)
            if sum(c, F(0)) <= cap
        }
    seen = {F(0)}
    frontier = [F(0)]
    while frontier:
        nxt = []
        for s in frontier:
            for g in pos:
                t = s + g
                if t <= cap and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def weighted_values_reference(weights, parts, extras, cap):
    """Every w1*x1 + ... + wk*xk + we*e <= cap for weights (w1, ..., wk, we),
    over every choice of slot values."""
    *ws, we = weights
    out = set()
    for xs in itertools.product(parts, repeat=len(ws)):
        for e in extras:
            w = sum(a * x for a, x in zip(ws, xs)) + we * e
            if w <= cap:
                out.add(w)
    return out


def triple_weights(tr):
    return (tr.q * tr.r, tr.p * tr.r, tr.p * tr.q, tr.p * tr.q * tr.r)


def mem_lct0_reference(t, I, J):
    """The least j first: every positive combination j <= 1/t of J in
    ascending order, with i = 1 - t*j decided by the knapsack; for t = 0
    the test is 1 in I+, with the least element of J as the witness j."""
    jmin = J.min_positive
    if t == 0:
        return Coreg0Witness(F(1), jmin) if knapsack_member(F(1), I) else None
    for j in sorted(sums_up_to(J.positive(), 1 / t) - {0}):
        i = 1 - t * j
        if 0 <= i <= 1 and knapsack_member(i, I):
            return Coreg0Witness(i, j)
    return None


def mem_lct1_reference(t, I, J, triple_bound):
    """First witness over triples in order, then ascending j; the tails are
    sums of elements of I+ and J+ (which drop elements above 1)."""
    iplus = sums_up_to(I.positive(), 1)
    jplus = sums_up_to(J.positive(), 1)
    for tr in platonic_triples(triple_bound):
        base = tr.base
        pqr = tr.p * tr.q * tr.r
        weights = triple_weights(tr)
        ivals = weighted_values_reference(weights, iplus, sums_up_to(iplus, base / pqr), base)
        if t == 0:
            jpos = [j for j in jplus if j > 0]
            if base in ivals and jpos:
                jw = min(w * min(jpos) for w in weights[:3])
                return Coreg1Witness(tr.p, tr.q, tr.r, base, jw)
            continue
        jcap = base / t
        jvals = weighted_values_reference(weights, jplus, sums_up_to(jplus, jcap / pqr), jcap)
        for j in sorted(jvals - {0}):
            if base - t * j in ivals:
                return Coreg1Witness(tr.p, tr.q, tr.r, base - t * j, j)
    return None


def split_reference(rest, I, d, J):
    """Every positive sum j <= rest/d of J in ascending order, with
    i = rest - d*j decided by the knapsack; at d = 0 the least element of J
    when rest is a sum of I."""
    if d == 0:
        return (rest, J.min_positive) if knapsack_member(rest, I) else None
    for j in sorted(sums_up_to(J.positive(), rest / d) - {0}):
        if knapsack_member(rest - d * j, I):
            return rest - d * j, j
    return None


def mem_d_set_reference(a, I):
    if a == 1:
        return knapsack_member(F(1), I)
    for m in range(1, int(1 / (1 - a)) + 1):
        f = m * a - m + 1
        if 0 <= f <= 1 and knapsack_member(f, I):
            return True
    return False


def mem_d_d_set_reference(a, I, d):
    m = 1
    while True:
        rest = 1 - m * (1 - a)
        if rest <= 0:
            return False
        k = 1
        while k * d <= rest:
            if knapsack_member(rest - k * d, I):
                return True
            k += 1
        if a == 1:
            return False
        m += 1


def mem_d_d_set_mscan(a, I, d):
    """The scan over m, each m one split(1 - m*(1-a), I, d, {1}); d = 0
    gives D(I).  For a < 1, rest >= 0 forces m <= 1/(1-a); for a = 1 the
    rest is 1 for every m, so m = 1 suffices.  Only L-integral f = rest -
    k*d can lie in I+ (L = I.scale); with L*d = u/v in lowest terms that
    needs v*L*rest to be an integer, which keeps m to the multiples of
    q/gcd(q, v*L) for a = p/q."""
    b = 1 - a
    step = a.denominator // gcd(a.denominator, (I.scale * d).denominator * I.scale)
    ms = range(step, (int(1 / b) if b else 1) + 1, step)
    return any(split(1 - m * b, I, d, UNIT) for m in ms)


# ---------------------------------------------------------------------------
# strategies


def rationals(lo, hi, max_denominator):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_denominator)


generator_sets = st.lists(rationals(0, 2, 8), max_size=3).map(CoeffSet.of)
# targets above 1 and with denominators that L often does not divide
targets = rationals(0, 4, 9)


class TestInSemigroup:
    @given(generator_sets, targets)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_knapsack(self, S, x):
        assert in_semigroup(x, S) == knapsack_member(x, S)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4).map(CoeffSet.of))
    @settings(max_examples=200, deadline=None)
    def test_integer_generators_agree_with_knapsack(self, S):
        assert [n for n in range(100) if in_semigroup(F(n), S)] == [
            n for n in range(100) if knapsack_member(F(n), S)
        ]

    @given(generator_sets, rationals(0, 1, 9))
    @settings(max_examples=200, deadline=None)
    def test_mem_plus_closure_agrees_with_knapsack(self, I, a):
        assert mem_plus_closure(a, I) == knapsack_member(a, I)

    @given(generator_sets, st.integers(1, 60), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_non_integral_targets(self, S, num, den):
        # x = num/(den*L) is never a sum unless it is L-integral
        L = S.scale
        x = F(num, den * L)
        assert in_semigroup(x, S) == knapsack_member(x, S)
        if x.denominator > L:
            assert not in_semigroup(x, S)

    @pytest.mark.parametrize(
        "gens,frobenius",
        [("3,5", 7), ("3,4,5", 2), ("6,9,20", 43), ("1/3,2/5", F(19, 15))],
    )
    def test_frobenius_number(self, gens, frobenius):
        S = CoeffSet.parse(gens)
        assert not in_semigroup(F(frobenius), S)
        L = S.scale
        for n in range(1, 40):
            assert in_semigroup(frobenius + F(n, L), S)

    def test_common_divisor_leaves_classes_empty(self):
        S = CoeffSet.parse("4,6")
        assert [n for n in range(13) if in_semigroup(F(n), S)] == [0, 4, 6, 8, 10, 12]
        assert None in S.apery

    def test_no_positive_generator(self):
        for S in (CoeffSet.of([]), CoeffSet.parse("0")):
            assert in_semigroup(F(0), S)
            assert not in_semigroup(F(1), S)
            assert not in_semigroup(F(1, 2), S)

    def test_targets_below_smallest_generator_need_no_table(self):
        # the table would have 5*10^8 entries, one per 1/L below 1/2
        S = CoeffSet.parse("1/2,999999937/1000000000")
        assert not in_semigroup(F(1, 1000), S)
        assert in_semigroup(F(0), S)
        assert not mem_d_set(F(1, 1000), S)
        assert mem_d_d_set(F(1, 1000), S, F(1, 2000))  # m = 1, k = 2, f = 0
        assert "apery" not in vars(S)
        # below twice the smallest generator a sum is 0 or one element; the
        # table of J would have 999,983 entries
        I, J = CoeffSet.parse("1/2"), CoeffSet.parse("999983/1000000,1")
        assert mem_lct0(F(1, 2), I, J) == Coreg0Witness(F(1, 2), F(1))
        assert in_semigroup(F(999983, 1000000), J) and in_semigroup(F(1), J)
        assert not in_semigroup(F(1999965, 1000000), J)
        assert "apery" not in vars(I) and "apery" not in vars(J)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            in_semigroup(F(-1, 2), CoeffSet.parse("1/2"))

    def test_table_is_cached_and_not_a_field(self):
        S = CoeffSet.parse("1/3,2/5")
        assert S.apery is S.apery
        assert not {"scale", "apery"} & {f.name for f in dataclasses.fields(CoeffSet)}
        T = CoeffSet.parse("2/5,1/3")
        assert S == T and hash(S) == hash(T)


class TestSplit:
    @given(
        generator_sets,
        # J = {1}, and J with elements above 1
        st.one_of(
            st.just(UNIT),
            st.lists(rationals(F(1, 4), 3, 6), min_size=1, max_size=2).map(CoeffSet.of),
        ),
        st.one_of(st.just(F(0)), rationals(F(1, 12), 1, 12)),
        # denominators up to 30: often not L_I-integral
        rationals(0, 1, 30),
    )
    @example(CoeffSet.parse("1/3"), UNIT, F(0), F(2, 3))
    @example(CoeffSet.parse("1/3"), UNIT, F(1, 6), F(5, 6))
    @example(CoeffSet.parse("1/3,2/5"), CoeffSet.parse("3/2,5/2"), F(1, 12), F(1))
    @example(CoeffSet.parse("1/3"), CoeffSet.parse("1/2"), F(1, 4), F(1, 7))
    @example(CoeffSet.parse("1/3"), CoeffSet.parse("1/2"), F(2, 7), F(1, 7))
    @example(CoeffSet.parse(""), CoeffSet.parse("3/2"), F(1, 3), F(1, 2))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_least_j_scan(self, I, J, d, rest):
        got = split(rest, I, d, J)
        assert got == split_reference(rest, I, d, J)
        if got:
            assert got[0] + d * got[1] == rest

    def test_needs_a_positive_element_of_j(self):
        with pytest.raises(DomainError, match="positive element"):
            split(F(1), UNIT, F(1, 2), CoeffSet.parse("0"))


# the I sets and shifts of the benchmark's membership workload
BENCH_SETS = [CoeffSet.parse(t) for t in ("5/9,7/11", "5/8,6/11", "4/7,7/12", "7/10,8/13")]
BENCH_SHIFTS = [F(1, 2), F(1, 3), F(2, 3), F(2, 5), F(3, 4)]
# p/q in [1/2, 1] with 500 < q <= 1000
bench_targets = st.integers(501, 1000).flatmap(
    lambda q: st.integers((q + 1) // 2, q).map(lambda p: F(p, q)))


class TestDerivedSetDeciders:
    @given(generator_sets, rationals(0, 1, 40))
    @example(CoeffSet.parse("1/2"), F(1, 2))
    @example(CoeffSet.parse("2/5"), F(1))
    @example(CoeffSet.parse(""), F(1, 2))
    @example(CoeffSet.parse(""), F(1))
    @example(CoeffSet.parse("0"), F(2, 3))
    @settings(max_examples=150, deadline=None)
    def test_mem_d_set_agrees_with_full_scan(self, I, a):
        assert mem_d_set(a, I) == mem_d_set_reference(a, I)

    @given(generator_sets, rationals(0, 1, 24), rationals(F(1, 12), 1, 12))
    @example(CoeffSet.parse("1/3"), F(5, 6), F(1, 3))  # d in I
    @example(CoeffSet.parse("1/3"), F(1, 2), F(1, 3))
    @example(CoeffSet.parse("3/2"), F(3, 4), F(1, 2))  # an element above 1
    @example(CoeffSet.parse("1/3"), F(1), F(2, 3))  # a = 1: 1 - d is a sum
    @example(CoeffSet.parse("2/5"), F(1), F(1, 2))
    @example(CoeffSet.parse("1/2"), F(1, 2), F(1))  # d = 1: only a = 1
    @example(CoeffSet.parse("1/2"), F(1), F(1))
    @example(CoeffSet.parse(""), F(2, 3), F(1, 3))
    @example(CoeffSet.parse("0"), F(3, 4), F(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_mem_d_d_set_agrees_with_full_scan(self, I, a, d):
        assume(d > 0)
        assert mem_d_d_set(a, I, d) == mem_d_d_set_reference(a, I, d)

    @given(st.sampled_from(BENCH_SETS), bench_targets,
           st.one_of(st.just(F(0)), st.sampled_from(BENCH_SHIFTS)))
    @settings(max_examples=200, deadline=None)
    def test_agree_with_m_scan_at_bench_size(self, I, a, d):
        got = mem_d_set(a, I) if d == 0 else mem_d_d_set(a, I, d)
        assert got == mem_d_d_set_mscan(a, I, d)

    @pytest.mark.parametrize("a", [F(299966, 299973), F(299971, 299973), F(1), F(1, 2)])
    def test_each_decision_is_one_split(self, a):
        I = CoeffSet.parse("1/3,49999/99991")
        for decide in (lambda: mem_d_set(a, I), lambda: mem_d_d_set(a, I, F(1, 3))):
            with mock.patch.object(setalg, "split", wraps=split) as spy:
                decide()
            assert spy.call_count == 1

    def test_dd_monotone_builds_i_u_d_once(self):
        I, d = CoeffSet.parse("4/7,7/12"), F(2, 5)
        with mock.patch.object(setalg, "_mem_shifted", wraps=setalg._mem_shifted) as spy:
            check_dd_monotone(I, d, EnumBounds(3, 3))
        sets = [c.args[1] for c in spy.call_args_list]
        assert len(sets) > 1 and all(Id is sets[0] for Id in sets)
        assert sets[0] == CoeffSet.parse("4/7,7/12,2/5")


def built_member(I, picks, m, k, d):
    """(m-1+f+k*d)/m, with f the longest prefix sum of picks from I that
    stays <= 1 - k*d."""
    f = F(0)
    gens = I.positive()
    for idx in picks if gens else ():
        g = gens[idx % len(gens)]
        if f + g + k * d > 1:
            break
        f += g
    return (m - 1 + f + k * d) / m


picks = st.lists(st.integers(0, 2), max_size=4)


class TestDerivedSetMembers:
    @given(generator_sets, picks, st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_built_members_of_d_set(self, I, picks, m):
        a = built_member(I, picks, m, 0, F(0))
        assert mem_d_set(a, I)

    @given(generator_sets, picks, st.integers(1, 8), rationals(F(1, 12), 1, 12))
    @settings(max_examples=150, deadline=None)
    def test_built_members_of_d_d_set(self, I, picks, m, d):
        assume(d > 0)
        for k in range(1, int(1 / d) + 1):
            assert mem_d_d_set(built_member(I, picks, m, k, d), I, d)


# the slot weights of the per-triple values (qr, pr, pq, pqr) and of the
# accumulation slopes (q, p, pq)
SLOT_WEIGHTS = [triple_weights(tr) for tr in platonic_triples(5)] + [
    (q, p, p * q) for p, q in [(2, 2)] + [(1, q) for q in range(1, 6)]
]


class TestWeightedValues:
    """sums with slot weights and a tail weight against the nested-loop
    reference, whose extras are the reference's sums of at most `tail`
    parts."""

    @given(
        st.sampled_from(SLOT_WEIGHTS),
        st.lists(rationals(0, 1, 6), max_size=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        rationals(0, 12, 7),
    )
    @example((1, 1, 1, 1), [F(1, 2), F(1, 3)], None, F(7, 2))  # the (1,1,1) triple
    @example((2, 2, 4), [F(1, 2), F(1, 3)], None, F(3))  # the (2,2) slope shape
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_fraction_reference(self, weights, parts, tail, cap):
        parts = {F(0), *parts}
        *slots, weight = weights
        extras = sums_up_to(parts, cap / weight, tail)
        assert sums(parts, cap, tail, tuple(slots), weight) == tuple(sorted(
            weighted_values_reference(weights, parts, extras, cap)
        ))


class TestMemLct0:
    @given(
        st.lists(rationals(0, F(3, 2), 7), max_size=3).map(CoeffSet.of),
        st.lists(rationals(F(1, 4), 3, 4), min_size=1, max_size=2).map(CoeffSet.of),
        rationals(0, 2, 8),
    )
    @example(CoeffSet.parse("1/2"), CoeffSet.parse("3/2,1/2"), F(0))
    @example(CoeffSet.parse("2/5"), CoeffSet.parse("1"), F(0))
    @example(CoeffSet.parse("1/2"), CoeffSet.parse("3/2,1/2"), F(1, 3))
    @example(CoeffSet.parse("1/3"), CoeffSet.parse("3/2,1"), F(4, 15))
    # the scaled j that can give an integral scaled i are the multiples of 3
    # (resp. 2); the least of them, 0, lies below the least scaled element 3
    # (resp. 5) of J, and the least one above is 3 (resp. 6, then 8 and 10)
    @example(CoeffSet.parse("1/3"), CoeffSet.parse("3/2"), F(2, 9))
    @example(CoeffSet.parse("1/6"), CoeffSet.parse("5/2"), F(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_verdict_and_witness_agree_with_reference(self, I, J, t):
        w = mem_lct0(t, I, J)
        assert w == mem_lct0_reference(t, I, J)
        if w is not None:
            assert w.value() == t


class TestMemLct1:
    @given(
        st.lists(rationals(F(1, 6), F(3, 2), 6), min_size=1, max_size=2).map(CoeffSet.of),
        st.lists(rationals(F(1, 4), 3, 4), min_size=1, max_size=2).map(CoeffSet.of),
        rationals(0, 2, 6),
        st.integers(1, 3),
    )
    @example(CoeffSet.parse("1"), CoeffSet.parse("1/2"), F(0), 3)
    @example(CoeffSet.parse("2/5"), CoeffSet.parse("1/2,2"), F(0), 3)
    @example(CoeffSet.parse("1"), CoeffSet.parse("3/2"), F(0), 2)
    @example(CoeffSet.parse("1/3"), CoeffSet.parse("3/2,1/3"), F(0), 3)
    @settings(max_examples=50, deadline=None)
    def test_verdict_and_witness_agree_with_reference(self, I, J, t, bound):
        w = mem_lct1(t, I, J, bound)
        assert w == mem_lct1_reference(t, I, J, bound)
        if w is not None:
            assert w.value() == t

    def test_tail_is_generated_by_j_plus(self):
        # J+ = {0, 1}: 3/2 exceeds 1, so no j uses it, even in the tail.
        # A tail over J would give t = 2/3 the witness j = 3/2 at (1,1,1).
        I, J = CoeffSet.parse("1"), CoeffSet.parse("1,3/2")
        assert str(mem_lct1(F(2, 3), I, J, 3)) == "c1(p=1,q=1,r=1,i=0,j=3)"
        for t in (F(4, 9), F(1, 3), F(2, 9)):
            w = mem_lct1(t, I, J, 3)
            assert w == mem_lct1_reference(t, I, J, 3)
            assert w is None or w.j.denominator == 1


# ---------------------------------------------------------------------------
# queries whose cost grew with their numerators under a per-call knapsack
# (seconds to minutes each); with the Apéry table each takes milliseconds


GUARD_QUERIES = [
    ("mem lct0 1/997 --I 1/3,2/5 --J 1/2,1", 0, "true c0(i=0,j=997)\n"),
    ("mem lct0 1/99991 --I 1/3,2/5 --J 1/2,1", 0, "true c0(i=0,j=99991)\n"),
    ("mem dset 9999/10000 --I 1/3,2/5", 0, "true\n"),
    ("mem plus 1/2 --I 2/999983,3/7", 1, "false\n"),
    ("mem ddset 9999/10000 --I 1/3,2/5 --d 1/997", 1, "false\n"),
    ("lemma-check ddi --I 1/3,2/5 --bounds terms=4,index=12", 0, "true\n"),
]


@pytest.mark.parametrize("query,code,stdout", GUARD_QUERIES)
def test_exact_decider_query_is_fast(query, code, stdout):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        got = cli.run(query.split())
    assert time.perf_counter() - start < 5
    assert (got, out.getvalue()) == (code, stdout)
