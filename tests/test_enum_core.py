"""Differential tests of the enumeration core against slow reference copies.

The references are the straightforward versions the core replaced: a dedup
that sorts every (value, witness) pair by (value, str(witness)), a P^1 oracle
whose depth-first search sums Fractions, accumulation candidates built
from every 6-tuple of slot values, and an acc-above that forms every pair
before it filters them.  The core must agree with them value for
value and witness for witness.
"""

import contextlib
import hashlib
import io
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coregcalc import cli, lctsets, setalg
from coregcalc.lctsets import (
    LctSet,
    LctValue,
    OracleWitness,
    _denominator_filter,
    _triple_values,
    accumulation_candidates,
    lct1_enumerate,
    lct1_weighted,
    p1_oracle,
    platonic_triples,
    verify_acc_above,
)
from coregcalc.rationals import format_rational
from coregcalc.setalg import (
    ZERO,
    CoeffSet,
    DomainError,
    EnumBounds,
    check_dd_monotone,
    d_d_set,
    plus_closure,
    plus_closure_exact,
    sums,
)


# ---------------------------------------------------------------------------
# reference copies


def ref_collect(items):
    """(value, witness) per value: sort every pair by (value, str(witness))
    and keep the first pair of each value."""
    by_value = {}
    for v, w in sorted(items, key=lambda vw: (vw[0], str(vw[1]))):
        if v not in by_value:
            by_value[v] = w
    return [(v, by_value[v]) for v in sorted(by_value)]


def ref_p1_oracle(I, J, degree_target, b, cap_unit=True):
    """The degree-equation search on Fractions: every configuration re-sums
    its constants and slopes, and every t and d_k is a Fraction."""
    iplus = plus_closure(I, b)
    jplus = plus_closure(J, b)
    options = []
    for n in range(1, b.max_index + 1):
        for i in iplus:
            for j in jplus:
                if n == 1 and i == 0 and j == 0:
                    continue
                options.append(((n - 1 + i) / F(n), j / F(n), n, i, j))
    options.sort()
    target = F(degree_target)
    results = []

    def emit(terms):
        csum = sum(c for c, *_ in terms)
        ssum = sum(s for _, s, *_ in terms)
        if ssum == 0:
            return
        t = (target - csum) / ssum
        if t < 0:
            return
        ds = [i + t * j for _, _, _, i, j in terms]
        if all(d == 0 for d in ds):
            return
        if cap_unit and any(d > 1 for d in ds):
            return
        N = tuple(n for _, _, n, _, _ in terms)
        iparts = tuple(i for _, _, _, i, _ in terms)
        jparts = tuple(j for _, _, _, _, j in terms)
        results.append((t, OracleWitness(degree_target, N, iparts, jparts)))

    def dfs(start, terms, csum):
        if terms:
            emit(terms)
        if len(terms) == b.max_terms:
            return
        for idx in range(start, len(options)):
            c = options[idx][0]
            if csum + c > target:
                break
            terms.append(options[idx])
            dfs(idx, terms, csum + c)
            terms.pop()

    dfs(0, [], ZERO)
    return ref_collect(_denominator_filter(results, b))


def ref_accumulation_candidates(I, J, c, b):
    """The candidates of every (i1, i2, ei, j1, j2, ej), deduplicated by a
    sort on (value, family)."""
    if J.min_positive is None:
        return []
    if c == 0:
        return [LctValue(ZERO, "(1-i)/j, j -> infinity")]
    candidates = [LctValue(ZERO, "fixed (p,q,r), j-combination -> infinity")]
    iplus = plus_closure(I, b)
    jplus = plus_closure(J, b)
    tail = max(b.max_terms - 3, 0)
    iextras = sums(iplus, F(2), tail)
    jextras = sums(jplus, F(tail), tail)
    for p, q in [(2, 2)] + [(1, q0) for q0 in range(1, b.max_index + 1)]:
        for i1 in iplus:
            for i2 in iplus:
                for ei in iextras:
                    a_num = F(p + q - p * q) - (q * i1 + p * i2 + p * q * ei)
                    if a_num < 0:
                        continue
                    for j1 in jplus:
                        for j2 in jplus:
                            for ej in jextras:
                                a_den = q * j1 + p * j2 + p * q * ej
                                if a_den <= 0:
                                    continue
                                candidates.append(LctValue(
                                    a_num / a_den,
                                    f"({p},{q},r), r -> infinity, "
                                    f"i-slope={format_rational(q * i1 + p * i2 + p * q * ei)}, "
                                    f"j-slope={format_rational(a_den)}",
                                ))
    by_value = {}
    for cand in sorted(candidates, key=lambda x: (x.value, x.witness)):
        if cand.value not in by_value:
            by_value[cand.value] = cand
    return [by_value[v] for v in sorted(by_value)]


def ref_acc_above_c1(I, J, t, cutoff):
    """The coregularity-one elements >= t: every pair (base - i)/j of the
    exact triple families, filtered by v >= t only after all are formed.
    Also whether the floor cuts inside some family, keeping some of its
    pairs and dropping others."""
    iexact, jexact = plus_closure_exact(I), plus_closure_exact(J)
    items, cut_inside = [], False
    for tr in platonic_triples(cutoff):
        base, ivals, jvals, witness = _triple_values(tr, iexact, jexact, tr.base / t, None)
        family = [((base - i) / j, witness(i, j)) for i in ivals for j in jvals]
        kept = [(v, w) for v, w in family if v >= t]
        items += kept
        cut_inside = cut_inside or 0 < len(kept) < len(family)
    return ref_collect(items), cut_inside


def ref_hypothesis_violations(I):
    """The containment hypotheses of accumulation_candidates, with the
    closure test done by listing the full I+."""
    violations = []
    if 1 not in I:
        violations.append("1 is not an element of I")
    if set(plus_closure_exact(I)) - (set(I.elements) | {ZERO}):
        violations.append("I is not closed under sums (I != I+)")
    return violations


def ref_check_dd_monotone(I, d, b):
    """The lemma check with D_d1(I) rebuilt from I for every d1."""
    bad = []
    for d1 in d_d_set(I, d, b):
        for a in d_d_set(I, d1, b):
            if not setalg.mem_d_d_set(a, I, d):
                bad.append((d1, a))
    return (not bad, bad)


def pairs(ls: LctSet):
    return [(lv.value, lv.witness) for lv in ls]


# ---------------------------------------------------------------------------
# strategies: few small denominators, so that values collide often


def coefficient(top=1):
    fractions = st.builds(F, st.integers(0, 6), st.sampled_from((1, 2, 3, 4, 6)))
    return fractions.filter(lambda x: x <= top)


def coeff_set(top=1, max_size=2):
    return st.lists(coefficient(top), min_size=1, max_size=max_size).map(CoeffSet.of)


class Tag:
    """An item whose string may equal another's while the two stay distinct."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


# ---------------------------------------------------------------------------
# LctSet.collect


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((F(0), F(1, 2), F(1), F(3, 2))),
                          st.sampled_from(("a", "b", "ab", "b1", "a0", "B"))), max_size=30))
def test_collect_keeps_least_string_first_on_ties(raw):
    items = [(v, Tag(text)) for v, text in raw]
    got = [(lv.value, id(lv.witness)) for lv in LctSet.collect(items)]
    assert got == [(v, id(w)) for v, w in ref_collect(items)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coefficient(), coefficient(2)), max_size=25))
def test_collect_on_witnesses_matches_sort(ijs):
    # (1-i)/j over few small values collides often, and the strings
    # c0(i=..,j=..) do not sort like the numbers (1/2 < 1/3 as strings)
    items = [((1 - i) / j, lctsets.Coreg0Witness(i, j)) for i, j in ijs if j > 0]
    assert pairs(LctSet.collect(items)) == ref_collect(items)


def test_collect_accepts_a_generator_once():
    items = ((F(k % 3), lctsets.Coreg0Witness(F(0), F(k + 1))) for k in range(9))
    assert [lv.value for lv in LctSet.collect(items)] == [0, 1, 2]


# ---------------------------------------------------------------------------
# the integer P^1 oracle


# The reference search grows with the number of terms and of term options,
# index * |I+| * |J+|; these budgets keep one example under a second.
OPTION_BUDGET = {(1, 3): 90, (2, 3): 40}


@settings(max_examples=60, deadline=None)
@given(
    coeff_set(max_size=2),
    coeff_set(top=F(3, 2), max_size=2),
    st.sampled_from((1, 2)),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from((None, 4, 12)),
    st.data(),
)
def test_p1_oracle_matches_fraction_search(I, J, degree, terms, cap_unit, denom, data):
    per_index = len(plus_closure(I, EnumBounds(terms))) * len(plus_closure(J, EnumBounds(terms)))
    top = min(5, max(1, OPTION_BUDGET.get((degree, terms), 200) // per_index))
    b = EnumBounds(terms, data.draw(st.integers(1, top)), max_denominator=denom)
    assert pairs(p1_oracle(I, J, degree, b, cap_unit)) == ref_p1_oracle(I, J, degree, b, cap_unit)


@pytest.mark.parametrize("I,J,degree,b,cap_unit", [
    ("1/4,1/6", "1", 2, EnumBounds(2, 6), True),
    # n * den(x) need not divide lcm(1..index, den(x)): (1 + 1/2)/2 = 3/4
    ("1/2", "1/2", 2, EnumBounds(3, 4), False),
    ("1/3,2/5", "1,1/2", 1, EnumBounds(3, 5), True),
    ("", "1", 2, EnumBounds(3, 4), True),
])
def test_p1_oracle_examples(I, J, degree, b, cap_unit):
    I, J = CoeffSet.parse(I), CoeffSet.parse(J)
    assert pairs(p1_oracle(I, J, degree, b, cap_unit)) == ref_p1_oracle(I, J, degree, b, cap_unit)


# ---------------------------------------------------------------------------
# accumulation candidates on distinct slopes


@settings(max_examples=60, deadline=None)
@given(
    coeff_set(max_size=2),
    coeff_set(top=F(3, 2), max_size=2),
    st.sampled_from((0, 1)),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_accumulation_candidates_match_nested_loops(I, J, c, terms, index):
    b = EnumBounds(terms, index)
    cands, _ = accumulation_candidates(I, J, c, b)
    assert list(cands) == ref_accumulation_candidates(I, J, c, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(coefficient(F(3, 2)), max_size=4).map(CoeffSet.of), st.sampled_from((0, 1)))
@example(CoeffSet.parse("1/3,2/3,1"), 0)
@example(CoeffSet.parse("1/2,1"), 1)
@example(CoeffSet.parse("2/3,3/2"), 0)
@example(CoeffSet.parse("1/4,1/2,3/4"), 1)
@example(CoeffSet.parse("0,1/3,2/3"), 0)
def test_hypothesis_violations_match_full_closure(I, c):
    _, violations = accumulation_candidates(I, CoeffSet.parse("1"), c, EnumBounds(2, 2))
    assert violations == ref_hypothesis_violations(I)


# ---------------------------------------------------------------------------
# the acc-above floor stops each ascending j-scan


@settings(max_examples=60, deadline=None)
@given(
    coeff_set(max_size=2),
    coeff_set(top=F(3, 2), max_size=2),
    st.fractions(min_value=F(1, 6), max_value=F(3, 2), max_denominator=7),
    st.integers(1, 4),
)
@example(CoeffSet.parse("1/2"), CoeffSet.parse("1/2,1"), F(1, 3), 3)
@example(CoeffSet.parse("1/3,1/2"), CoeffSet.parse("1"), F(2, 3), 4)
def test_acc_above_c1_matches_filtering_every_pair(I, J, t, cutoff):
    want, cut_inside = ref_acc_above_c1(I, J, t, cutoff)
    assume(cut_inside)
    got = verify_acc_above(I, J, 1, t, cutoff).elements
    assert [(lv.value, str(lv.witness)) for lv in got] == [(v, str(w)) for v, w in want]


@settings(max_examples=40, deadline=None)
@given(
    coeff_set(max_size=2),
    coeff_set(top=F(3, 2), max_size=2),
    st.integers(1, 5),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from((None, 6)),
)
def test_lct1_enumerate_is_the_union_of_lct1_weighted(I, J, terms, index, extra_terms, denom):
    b = EnumBounds(terms, index, max_denominator=denom)
    union = []
    for tr in platonic_triples(index):
        try:
            union += pairs(lct1_weighted(tr, I, J, b, extra_terms))
        except DomainError:
            continue
    assert pairs(lct1_enumerate(I, J, b, extra_terms)) == ref_collect(union)


def test_lct1_weighted_without_positive_j_raises():
    # J+ is {0}: 3/2 lies above 1
    I, J, b = CoeffSet.parse("1/2"), CoeffSet.parse("0,3/2"), EnumBounds(4, 3)
    with pytest.raises(DomainError, match="no positive j-combination"):
        lct1_weighted(platonic_triples(2)[0], I, J, b)
    assert len(lct1_enumerate(I, J, b)) == 0


def test_closures_are_built_once_per_command():
    I, J, b = CoeffSet.parse("1/3,1/2"), CoeffSet.parse("1/2,1"), EnumBounds(4, 5)
    with mock.patch.object(lctsets, "plus_closure", wraps=plus_closure) as spy:
        lct1_enumerate(I, J, b)
    assert spy.call_count == 2
    with mock.patch.object(setalg, "plus_closure", wraps=plus_closure) as spy:
        check_dd_monotone(I, F(1, 3), EnumBounds(3, 3))
    assert spy.call_count == 1


@settings(max_examples=40, deadline=None)
@given(coeff_set(max_size=2), st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))),
       st.integers(1, 3), st.integers(1, 3))
def test_check_dd_monotone_matches_rebuilt_closures(I, d, terms, index):
    # the lemma holds, so the verdicts agree whatever is checked: compare the
    # membership queries too
    b = EnumBounds(terms, index)
    with mock.patch.object(setalg, "_mem_shifted", wraps=setalg._mem_shifted) as spy:
        got = check_dd_monotone(I, d, b)
    with mock.patch.object(setalg, "_mem_shifted", wraps=setalg._mem_shifted) as ref_spy:
        want = ref_check_dd_monotone(I, d, b)
    assert got == want
    assert spy.call_args_list == ref_spy.call_args_list


# ---------------------------------------------------------------------------
# cost guards: on a 2-vCPU VM these took 1.3 s and 11 s with per-triple
# closures, a sort of every pair and a Fraction search.  The 5 s limit
# catches a return to the Fraction search; per-triple closures are caught by
# test_closures_are_built_once_per_command.


# (query, sha256 of its stdout, recorded before the rework)
GUARD_QUERIES = [
    ("lct1 --I 1/4,1/3 --J 1/2,1 --bounds terms=4,index=6 --witness",
     "82a08a235e737ed737d303cf1e4add36ef29af0fa13d6e1e84722162ae6ddcd5"),
    ("p1-oracle --I 1/3,2/5 --J 1,1/2 --degree 2 --bounds terms=4,index=6 --witness",
     "99e51874147697c604d0df4a1a94cc36071e323ea5519afd17881b4c6abd4399"),
    # I+ has ~10^4 elements; the closure test needs only the pairwise sums
    ("accum --I 2/99991,3/7 --J 1 --c 0",
     "9b59f6bb70553872c33ca103f956b73b06019bc19c5ae2537cd15396b6d90f86"),
]


@pytest.mark.parametrize("query,digest", GUARD_QUERIES)
def test_enumeration_query_is_fast(query, digest):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run(query.split())
    assert time.perf_counter() - start < 5
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (0, digest)
