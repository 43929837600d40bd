"""Threshold sets of coregularity zero and one.

Both sets are unions of threshold families.  A family (base, ivals, jvals,
witness) stands for the values (base - i)/j >= 0 over i in ivals and
positive j in jvals, each with the provenance witness(i, j).  Coregularity
zero is the single family

    LCT0(I,J) = { (1-i)/j >= 0 : i in I+ n [0,1], j a positive combination of J }.

Coregularity one has one family per triple (p,q,r) of positive integers with
1/p + 1/q + 1/r > 1, with base qr+pr+pq-pqr:

    { (qr+pr+pq-pqr - i)/j : i, j weighted combinations qr*x1+pr*x2+pq*x3 (+ pqr-tail) }.

The i- and j-values of a triple, like the slopes of the accumulation
candidates, are one call each of the sum kernel ``setalg.sums``.  One
collector lists the values of any families.  t is in LCT0 exactly when
1 = i + t*j splits (``setalg.split``, which finds the least j by lookups);
``mem_lct1`` scans each triple's j-values for the least one.  Both sets are
cross-checked against an independent oracle that brute-forces the degree
equation sum_k (N_k-1+d_k)/N_k = 1 (resp. 2) on the projective line with
d_k = i_k + t*j_k and solves for t.  Every value carries a provenance
witness from which the defining formula can be replayed exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Optional, Union

from .rationals import format_rational
from .setalg import (
    ONE,
    ZERO,
    CoeffSet,
    DomainError,
    EnumBounds,
    plus_closure,
    plus_closure_exact,
    pos_combinations,
    pos_combinations_exact,
    split,
    sums,
)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class Coreg0Witness:
    i: Fraction
    j: Fraction

    def value(self) -> Fraction:
        return (1 - self.i) / self.j

    def __str__(self):
        return f"c0(i={format_rational(self.i)},j={format_rational(self.j)})"


@dataclass(frozen=True)
class Coreg1Witness:
    p: int
    q: int
    r: int
    i: Fraction
    j: Fraction

    def value(self) -> Fraction:
        return (PlatonicTriple(self.p, self.q, self.r).base - self.i) / self.j

    def __str__(self):
        return (
            f"c1(p={self.p},q={self.q},r={self.r},"
            f"i={format_rational(self.i)},j={format_rational(self.j)})"
        )


@dataclass(frozen=True)
class OracleWitness:
    """A degree-equation configuration: per-term orbifold index N_k and
    coefficient d_k = i_k + t*j_k."""

    degree: int
    N: tuple[int, ...]
    iparts: tuple[Fraction, ...]
    jparts: tuple[Fraction, ...]

    def value(self) -> Fraction:
        const = sum((n - 1 + i) / Fraction(n) for n, i in zip(self.N, self.iparts))
        slope = sum(j / Fraction(n) for n, j in zip(self.N, self.jparts))
        return (self.degree - const) / slope

    def __str__(self):
        ds = []
        for i, j in zip(self.iparts, self.jparts):
            if j == 0:
                ds.append(format_rational(i))
            elif i == 0:
                ds.append("t" if j == 1 else f"{format_rational(j)}t")
            else:
                ds.append(f"{format_rational(i)}+{format_rational(j)}t")
        return f"p1(N=[{','.join(str(n) for n in self.N)}],d=[{','.join(ds)}])"


# a str witness is the parametric family of an accumulation candidate
Witness = Union[Coreg0Witness, Coreg1Witness, OracleWitness, str]


@dataclass(frozen=True)
class LctValue:
    value: Fraction
    witness: Witness


@dataclass(frozen=True)
class LctSet:
    """Sorted deduplicated threshold values; per value the witness whose
    string is least is kept."""

    values: tuple[LctValue, ...]

    @classmethod
    def collect(cls, items) -> "LctSet":
        """The set of the (value, witness) pairs, one per value: the witness
        whose string is least, the first one on ties.

        This is what a stable sort on (value, str(witness)) followed by
        keeping the first witness of each value gives, but in one dict pass
        that hashes each value once and formats witnesses only for values
        met more than once.
        """
        best: dict = {}
        for v, w in items:
            slot = best.setdefault(v, [w, None])
            if slot[0] is w:
                continue
            if slot[1] is None:
                slot[1] = str(slot[0])
            key = str(w)
            if key < slot[1]:
                slot[:] = w, key
        return cls(tuple(LctValue(v, w) for v, (w, _) in sorted(best.items(), key=itemgetter(0))))

    def raw(self) -> tuple[Fraction, ...]:
        return tuple(lv.value for lv in self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# threshold families and coregularity zero


def _denominator_filter(items, b: Optional[EnumBounds]):
    if b is None or b.max_denominator is None:
        return items
    return ((v, w) for v, w in items if v.denominator <= b.max_denominator)


def _thresholds(families, floor: Optional[Fraction] = None):
    """Yield (v, witness(i, j)) for each v = (base - i)/j of the families
    (base, ivals, jvals, witness), over i in ivals (at most base) and the
    ascending positive j in jvals, stopping each j-scan below floor (when
    given): as j ascends, v descends."""
    for base, ivals, jvals, witness in families:
        for i in ivals:
            num = base - i
            for j in jvals:
                v = num / j
                if floor is not None and v < floor:
                    break
                yield v, witness(i, j)


def _collect(families, b: Optional[EnumBounds] = None, floor: Optional[Fraction] = None) -> LctSet:
    """The thresholds of the families that are at least floor (when given)
    and pass b's denominator filter (when b is given), one witness per value."""
    return LctSet.collect(_denominator_filter(_thresholds(families, floor), b))


def lct0_enumerate(I: CoeffSet, J: CoeffSet, b: EnumBounds) -> LctSet:
    """Bounded enumeration of {(1-i)/j >= 0}; i runs over the bounded I+,
    j over positive combinations of J up to b.max_value."""
    return _collect([(ONE, plus_closure(I, b), pos_combinations(J, b), Coreg0Witness)], b)


def mem_lct0(t: Fraction, I: CoeffSet, J: CoeffSet) -> Optional[Coreg0Witness]:
    """Exact membership in the full coregularity-zero set: t = (1-i)/j
    exactly when 1 = i + t*j splits with i in I+ and j a positive
    combination of J.  Returns the witness with the least such j (at t = 0,
    the least element of J), or None when t is not a member."""
    if t < 0:
        raise DomainError("thresholds are nonnegative")
    ij = split(ONE, I, t, J)
    return Coreg0Witness(*ij) if ij else None


# ---------------------------------------------------------------------------
# triples with 1/p + 1/q + 1/r > 1


@dataclass(frozen=True)
class PlatonicTriple:
    p: int
    q: int
    r: int

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        if not (1 <= p <= q <= r):
            raise DomainError("need 1 <= p <= q <= r")
        # 1/p + 1/q + 1/r > 1, multiplied by pqr > 0
        if q * r + p * r + p * q <= p * q * r:
            raise DomainError(f"1/{p}+1/{q}+1/{r} is not > 1")

    @property
    def base(self) -> Fraction:
        p, q, r = self.p, self.q, self.r
        return Fraction(q * r + p * r + p * q - p * q * r)


def platonic_triples(bound: int) -> list[PlatonicTriple]:
    """All p <= q <= r <= bound with 1/p + 1/q + 1/r > 1, tested in
    integers as qr + pr + pq > pqr."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    out = []
    for p in range(1, bound + 1):
        for q in range(p, bound + 1):
            for r in range(q, bound + 1):
                if q * r + p * r + p * q > p * q * r:
                    out.append(PlatonicTriple(p, q, r))
    return out


def _triple_values(tr: PlatonicTriple, iplus, jplus, jcap: Fraction, tail: Optional[int]):
    """The family (base, ivals, jvals, witness) of one triple.

    Its i-values and positive j-values are qr*x1 + pr*x2 + pq*x3 + pqr*e
    with the x in I+ (resp. J+) and e a sum of at most `tail` elements of I+
    (resp. J+), no limit when None: one ``sums`` call each, with slot
    weights (qr, pr, pq) and tail weight pqr.  The tails are generated by I+
    and J+, not I and J, which differ when an element exceeds 1.  i-values
    are capped at the base qr+pr+pq-pqr, j-values at jcap; both ascend.
    """
    p, q, r = tr.p, tr.q, tr.r
    base, slots = tr.base, (q * r, p * r, p * q)
    ivals = sums(iplus, base, tail, slots, p * q * r)
    jvals = sums(jplus, jcap, tail, slots, p * q * r)[1:]
    return base, ivals, jvals, partial(Coreg1Witness, p, q, r)


def _exact_families(I: CoeffSet, J: CoeffSet, t: Fraction, bound: int):
    """The families of the triples up to bound, from the full I+ and J+
    (built once) with no term-count truncation: for t > 0 every j-value
    with (base - i)/j >= t for some i, so j <= base/t, and at t = 0 only
    the least j-value pq*min(J+)."""
    iexact = plus_closure_exact(I)
    jexact = plus_closure_exact(J)
    jmin = jexact.min_positive or ZERO
    for tr in platonic_triples(bound):
        yield _triple_values(tr, iexact, jexact, tr.base / t if t else tr.p * tr.q * jmin, None)


def _bounded_families(triples, I: CoeffSet, J: CoeffSet, b: EnumBounds, extra_terms: bool):
    """The families of the triples, with i and j built from the bounded
    closures of I and J, which are built once for all triples, and a tail of
    up to b.max_terms - 3 summands (none without extra_terms)."""
    iplus, jplus = plus_closure(I, b), plus_closure(J, b)
    tail = max(b.max_terms - 3, 0) if extra_terms else 0
    for tr in triples:
        # the largest j-value, since the elements of J+ are at most 1: it never binds
        jcap = Fraction(tr.q * tr.r + tr.p * tr.r + tr.p * tr.q + tr.p * tr.q * tr.r * tail)
        yield _triple_values(tr, iplus, jplus, jcap, tail)


def lct1_weighted(
    tr: PlatonicTriple,
    I: CoeffSet,
    J: CoeffSet,
    b: EnumBounds,
    extra_terms: bool = True,
) -> LctSet:
    """Weighted thresholds (qr+pr+pq-pqr-i)/j >= 0 for one triple.

    With extra_terms (the default) the pqr-weighted tail of up to
    b.max_terms - 3 summands is included in both the i- and j-combinations,
    which is what realizes the torus-symmetry family values; without it
    only the three displayed slots are used.
    """
    base, ivals, jvals, witness = next(_bounded_families([tr], I, J, b, extra_terms))
    if not jvals:
        raise DomainError("no positive j-combination exists")
    return _collect([(base, ivals, jvals, witness)], b)


def lct1_enumerate(I: CoeffSet, J: CoeffSet, b: EnumBounds, extra_terms: bool = True) -> LctSet:
    """Union of the weighted sets over all triples up to b.max_index; I+ and
    J+ are built once for all triples."""
    return _collect(_bounded_families(platonic_triples(b.max_index), I, J, b, extra_terms), b)


def mem_lct1(t: Fraction, I: CoeffSet, J: CoeffSet, triple_bound: int) -> Optional[Coreg1Witness]:
    """Per-triple exact search over the triples up to triple_bound: for t > 0
    the j-combination is bounded by base/t, and the i-combination by base;
    both are enumerated completely (tail terms included, with no term-count
    truncation).  For t = 0 the least j-value pq*min(J+) is the only one
    needed.  Returns the witness of the first triple that has one, or None.
    None is no proof of non-membership: the (1,q,r) family is unbounded, and
    t may lie in a triple beyond the bound."""
    if t < 0:
        raise DomainError("thresholds are nonnegative")
    for base, ivals, jvals, witness in _exact_families(I, J, t, triple_bound):
        # the first triple with a witness wins, and in it the least j: each
        # j in ascending order gives i = base - t*j, one lookup in ivals
        iset = set(ivals)
        for j in jvals:
            i = base - t * j
            if i in iset:
                return witness(i, j)
    return None


# ---------------------------------------------------------------------------
# the projective-line degree-equation oracle


def p1_oracle(
    I: CoeffSet,
    J: CoeffSet,
    degree_target: int,
    b: EnumBounds,
    cap_unit: bool = True,
) -> LctSet:
    """Brute-force the degree equation sum_k (N_k-1+d_k)/N_k = degree_target
    with d_k = i_k + t*j_k, i_k in I+, j_k in J+, and solve each
    configuration for t.

    Kept solutions have t >= 0, at least one j_k > 0, at least one d_k > 0
    (a vanishing coefficient is not a genuine component), and, under
    cap_unit, every d_k <= 1.  Independent of the closed-form enumerations.
    """
    if degree_target not in (1, 2):
        raise DomainError("degree target must be 1 or 2")
    iplus = plus_closure(I, b)
    jplus = plus_closure(J, b)
    # One common denominator D makes every constant (n-1+i)/n, every slope
    # j/n and every i and j an integer: their denominators divide n*den(x).
    D = lcm(*(n * x.denominator for n in range(1, b.max_index + 1) for x in (*iplus, *jplus)))
    # term options (D*const, D*slope, N, i, j, D*i, D*j), sorted by constant;
    # (1, 0, 0) contributes nothing and is dropped
    options = []
    for n in range(1, b.max_index + 1):
        for i in iplus:
            for j in jplus:
                if n == 1 and i == 0 and j == 0:
                    continue
                iD, jD = i.numerator * (D // i.denominator), j.numerator * (D // j.denominator)
                options.append((((n - 1) * D + iD) // n, jD // n, n, i, j, iD, jD))
    options.sort()
    target = degree_target * D
    results = []
    terms: list[tuple] = []

    def emit(csum: int, ssum: int):
        # t = (target - csum)/ssum and d_k = i_k + t*j_k, decided in integers
        tnum = target - csum
        if ssum == 0 or tnum < 0:
            return
        if tnum == 0 and all(o[5] == 0 for o in terms):
            return  # every d_k = i_k is zero
        if cap_unit and any(o[5] * ssum + tnum * o[6] > D * ssum for o in terms):
            return  # some d_k > 1
        _, _, N, iparts, jparts, _, _ = zip(*terms)
        results.append((Fraction(tnum, ssum), OracleWitness(degree_target, N, iparts, jparts)))

    def dfs(start: int, csum: int, ssum: int):
        if terms:
            emit(csum, ssum)
        if len(terms) == b.max_terms:
            return
        for k in range(start, len(options)):
            o = options[k]
            if csum + o[0] > target:
                break  # options are sorted by constant contribution
            terms.append(o)
            dfs(k, csum + o[0], ssum + o[1])
            terms.pop()

    dfs(0, 0, 0)
    return LctSet.collect(_denominator_filter(results, b))


# ---------------------------------------------------------------------------
# ACC witnesses and accumulation points


@dataclass(frozen=True)
class AccWitness:
    """Threshold-set elements >= t: all of them when complete (coregularity
    0), else those of the triples up to the cutoff that detail records."""

    elements: LctSet
    complete: bool
    detail: str


def verify_acc_above(
    I: CoeffSet,
    J: CoeffSet,
    c: int,
    t: Fraction,
    triple_cutoff: Optional[int] = None,
) -> AccWitness:
    """Constructively witness the ascending chain condition above t: return
    the elements >= t of the threshold set, all of them for c = 0.

    c = 0 is exact: (1-i)/j >= t forces j <= 1/t, and the full I+ is finite.
    c = 1 is exact per triple, but only the triples up to the cutoff are
    listed, and the cutoff is recorded.  The list need not be the whole set
    above t, which can be infinite: for I = {}, J = {1} and t = 1/2,
    cutoffs 5, 10 and 20 list 32, 84 and 296 values.
    """
    if t <= 0:
        raise DomainError("need t > 0: the full sets accumulate at 0")
    if c == 0:
        if J.min_positive is None:
            raise DomainError("J needs a positive element")
        families = [(ONE, plus_closure_exact(I), pos_combinations_exact(J, 1 / t), Coreg0Witness)]
        detail = f"exact: j <= {format_rational(1 / t)}, full I+ enumerated"
    elif c == 1:
        cutoff = triple_cutoff if triple_cutoff is not None else max(5, int(2 / t) + 1)
        families = _exact_families(I, J, t, cutoff)
        detail = f"exact per triple; triple family cut off at max index {cutoff}"
    else:
        raise DomainError("coregularity must be 0 or 1")
    return AccWitness(_collect(families, floor=t), c == 0, detail)


def accumulation_candidates(
    I: CoeffSet, J: CoeffSet, c: int, b: EnumBounds
) -> tuple[LctSet, list[str]]:
    """Symbolic accumulation-point candidates of the enumerated threshold
    set, each with the parametric family that produces it as its witness.

    Also reports violations of the containment hypotheses (1 in I
    and I closed under the sum operation); the detection itself runs on any
    input.  No numeric windowing: limits are taken on witness families.
    """
    violations = []
    if 1 not in I:
        violations.append("1 is not an element of I")
    # I+ lies in I u {0} exactly when every sum a+b <= 1 of two positive
    # elements does: a longer sum <= 1 has a two-term partial sum <= 1
    pos = I.positive()
    if any(a + b <= 1 and a + b not in I for a in pos for b in pos if a <= b):
        violations.append("I is not closed under sums (I != I+)")
    if J.min_positive is None:
        return LctSet(()), violations
    if c == 0:
        pairs = [(ZERO, "(1-i)/j, j -> infinity")]
    elif c == 1:
        pairs = [(ZERO, "fixed (p,q,r), j-combination -> infinity")]
        iplus = plus_closure(I, b)
        jplus = plus_closure(J, b)
        tail = max(b.max_terms - 3, 0)

        def slope_family(p, q, islope, jslope):
            return (f"({p},{q},r), r -> infinity, i-slope={format_rational(islope)}, "
                    f"j-slope={format_rational(jslope)}")

        shapes = [(2, 2)] + [(1, q0) for q0 in range(1, b.max_index + 1)]
        families = []
        for p, q in shapes:
            # r -> infinity: numerator slope (p+q-pq) - (q*i1 + p*i2 + pq*ei),
            # denominator slope q*j1 + p*j2 + pq*ej; the limit is their ratio,
            # so only the distinct slopes matter (the j-slope cap never binds)
            top = Fraction(p + q - p * q)
            islopes = sums(iplus, top, tail, (q, p), p * q)
            jslopes = sums(jplus, top + p * q * (tail + 1), tail, (q, p), p * q)[1:]
            families.append((top, islopes, jslopes, partial(slope_family, p, q)))
        pairs = chain(pairs, _thresholds(families))
    else:
        raise DomainError("coregularity must be 0 or 1")
    return LctSet.collect(pairs), violations
