"""Exact calculus of coefficient sets: I+, D(I), D_d(I).

The three derived sets are

    I+      = {0} u { sums of elements of I lying in [0,1] }
    D(I)    = { (m-1+f)/m <= 1 : m >= 1, f in I+ }
    D_d(I)  = { (m-1+f+k*d)/m <= 1 : m,k >= 1, f in I+ }

Sets are represented by finitely many nonnegative rational generators.
Enumerations are complete relative to explicit parameter bounds (term count,
m, k, value cap); the ``mem_*`` deciders are exact and never truncate.  All
values are ``fractions.Fraction``.  Every bounded sum, here and in
``lctsets``, comes from one integer kernel, ``sums``.  The deciders rest on
one integer lookup, ``CoeffSet.has_sum``, in a table built once per set:
``in_semigroup`` asks it once, and ``split`` (rest = i + d*j with i in I+
and j a positive sum of J) asks it twice per candidate j.  D(I) and D_d(I)
membership is one ``split`` of 1 - d over I u {d} with J = {1}.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional

from .rationals import DomainError, format_rational, parse_rational


@dataclass(frozen=True)
class CoeffSet:
    """A finite, sorted, duplicate-free set of nonnegative rationals."""

    elements: tuple[Fraction, ...]

    def __post_init__(self):
        for x in self.elements:
            if x < 0:
                raise DomainError(f"negative coefficient {format_rational(x)}")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def of(cls, items: Iterable) -> "CoeffSet":
        return cls(tuple(Fraction(x) for x in items))

    @classmethod
    def parse(cls, text: str) -> "CoeffSet":
        """Parse a comma- or whitespace-separated list of rationals."""
        items = text.replace(",", " ").split()
        return cls.of(parse_rational(s) for s in items)

    @property
    def min_positive(self) -> Optional[Fraction]:
        for x in self.elements:
            if x > 0:
                return x
        return None

    def positive(self) -> tuple[Fraction, ...]:
        return tuple(x for x in self.elements if x > 0)

    @cached_property
    def scale(self) -> int:
        """The lcm L of the denominators of the positive elements: every
        finite sum of them is a multiple of 1/L."""
        return lcm(*(x.denominator for x in self.positive()))

    @cached_property
    def apery(self) -> tuple[Optional[int], ...]:
        """The Apéry table of the sums of positive elements, scaled by L.

        Entry r is the least scaled sum L*s congruent to r modulo the
        smallest scaled generator, or None when no sum is; the table is
        empty when S has no positive element.  Built once per set by the
        round-robin shortest-path algorithm of Böcker and Lipták, "A fast
        and simple algorithm for the money changing problem" (Algorithmica
        2007), in O(len(S) * len(table)) steps.
        """
        scaled = sorted(self._scaled)
        if not scaled:
            return ()
        n0 = scaled[0]
        w: list[Optional[int]] = [None] * n0
        w[0] = 0
        for g in scaled[1:]:
            step = gcd(n0, g)
            for r in range(step):
                reached = [w[c] for c in range(r, n0, step) if w[c] is not None]
                if not reached:
                    continue
                n = min(reached)
                for _ in range(n0 // step - 1):
                    n += g
                    c = n % n0
                    if w[c] is not None and w[c] < n:
                        n = w[c]
                    w[c] = n
        return tuple(w)

    @cached_property
    def _scaled(self) -> frozenset[int]:
        """The positive elements scaled by L."""
        L = self.scale
        return frozenset(g.numerator * (L // g.denominator) for g in self.positive())

    @cached_property
    def _least(self) -> Optional[int]:
        """The smallest positive element scaled by L, or None."""
        return min(self._scaled, default=None)

    def has_sum(self, y: int) -> bool:
        """Whether y/L (L = self.scale) is a finite sum of positive elements,
        for an integer y: one lookup in the Apéry table.  Below twice the
        smallest scaled element a sum is 0 or a single element, and that is
        answered from the elements without the table, which has one entry
        per integer below the smallest; so the table is never larger than
        half the largest y looked up."""
        least = self._least
        if least is None or y < 2 * least:
            return y == 0 or y in self._scaled
        w = self.apery[y % least]
        return w is not None and w <= y

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __str__(self):
        return "{" + ", ".join(format_rational(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class EnumBounds:
    """Completeness parameters for the bounded enumerations.

    max_terms bounds the number of summands, max_index bounds the integer
    parameters m and k, max_value caps unbounded positive-combination sums,
    and max_denominator (when set) filters enumerated threshold values by
    their reduced denominator.
    """

    max_terms: int = 12
    max_index: int = 6
    max_value: Optional[Fraction] = None
    max_denominator: Optional[int] = None

    def __post_init__(self):
        if self.max_terms < 1 or self.max_index < 1:
            raise DomainError("bounds must be >= 1")
        if self.max_value is not None and self.max_value < 1:
            raise DomainError("max_value must be >= 1")
        if self.max_denominator is not None and self.max_denominator < 1:
            raise DomainError("max_denominator must be >= 1")


ONE = Fraction(1)
ZERO = Fraction(0)
UNIT = CoeffSet((ONE,))


def sums(gens: Iterable[Fraction], cap: Fraction, max_terms: Optional[int] = None,
         slots: tuple[int, ...] = (), weight: int = 1) -> tuple[Fraction, ...]:
    """0 and every s1*x1 + ... + sk*xk + weight*(y1 + ... + yn) <= cap, for
    the integer slot weights slots = (s1, ..., sk), with each x and y a
    positive element of gens or 0 and n <= max_terms (no limit when None).

    The one sum kernel, on integers over one common denominator.  The
    positive elements are sorted, so each extension stops at the cap.  The
    slots are filled one at a time; then the y are added breadth-first, each
    round extending only the sums the round before added, so round n reaches
    the sums whose shortest representation has n y-terms and the term bound
    cuts exactly.  Without one the search ends, as the elements are bounded
    below.  Only the distinct sums become Fractions, in ascending order.
    """
    pos = sorted({g for g in gens if g > 0})
    D = lcm(cap.denominator, *(g.denominator for g in pos))
    xs = [g.numerator * (D // g.denominator) for g in pos]
    top = cap.numerator * (D // cap.denominator)
    seen = {0}
    for s in slots:
        for v in list(seen):
            for x in xs:
                t = v + s * x
                if t > top:
                    break
                seen.add(t)
    frontier = seen
    rounds = 0
    while frontier and (max_terms is None or rounds < max_terms):
        nxt = set()
        for v in frontier:
            for x in xs:
                t = v + weight * x
                if t > top:
                    break
                if t not in seen:
                    nxt.add(t)
        seen |= nxt
        frontier = nxt
        rounds += 1
    return tuple(Fraction(v, D) for v in sorted(seen))


def plus_closure(I: CoeffSet, b: EnumBounds) -> CoeffSet:
    """Bounded enumeration of I+: sums of at most b.max_terms elements of I
    (with repetition) that lie in [0,1], together with 0."""
    return CoeffSet(sums(I, ONE, b.max_terms))


def plus_closure_exact(I: CoeffSet) -> CoeffSet:
    """The full set I+ (exact: term count is self-bounded by 1/min(I>0))."""
    return CoeffSet(sums(I, ONE))


def in_semigroup(x: Fraction, S: CoeffSet) -> bool:
    """Whether x >= 0 is a finite sum of positive elements of S (0 is the
    empty sum): L*x (L = S.scale) must be an integer, and then it is one
    lookup, S.has_sum(L*x)."""
    if x < 0:
        raise DomainError(f"argument {format_rational(x)} is negative")
    L = S.scale
    if L % x.denominator:
        return False
    return S.has_sum(x.numerator * (L // x.denominator))


def split(
    rest: Fraction, I: CoeffSet, d: Fraction, J: CoeffSet
) -> Optional[tuple[Fraction, Fraction]]:
    """The (i, j) with rest = i + d*j, i a sum of elements of I (so in I+
    when 0 <= rest <= 1) and j the least positive sum of elements of J; or
    None when there is none.  J needs a positive element.

    At d = 0 the answer is (rest, min J) when rest is a sum.  For d > 0 only
    j = n/L_J with L_I*i integral can pass (L_I = I.scale, L_J = J.scale).
    With L_I*d/L_J = u/v in lowest terms, L_I*i = (v*L_I*rest - n*u)/v, so
    v*L_I*rest must be an integer and n is one residue class mod v.  Its
    members from L_J*min J up are tried in ascending order while L_I*i >= 0;
    L_I*i falls by u from one to the next, so there are at most
    L_I*rest/u + 1 of them, and each costs two lookups.
    """
    jmin = J.min_positive
    if jmin is None:
        raise DomainError("J needs a positive element")
    if d == 0:
        return (rest, jmin) if in_semigroup(rest, I) else None
    LI, LJ = I.scale, J.scale
    du, dv = d.numerator * LI, d.denominator * LJ
    g = gcd(du, dv)
    u, v = du // g, dv // g
    vr, q = divmod(v * LI * rest.numerator, rest.denominator)
    if q:
        return None
    # the least n >= L_J*min J with n*u = vr (mod v)
    n = J._least + (vr * pow(u, -1, v) - J._least) % v
    y = (vr - n * u) // v
    while y >= 0:
        if I.has_sum(y) and J.has_sum(n):
            return Fraction(y, LI), Fraction(n, LJ)
        n += v
        y -= u
    return None


def mem_plus_closure(a: Fraction, I: CoeffSet) -> bool:
    """Exact membership a in I+, by one lookup in the Apéry table of I."""
    if a < 0 or a > 1:
        raise DomainError(f"argument {format_rational(a)} outside [0,1]")
    return in_semigroup(a, I)


def pos_combinations(J: CoeffSet, b: EnumBounds) -> CoeffSet:
    """All sums of 1..b.max_terms positive elements of J (with repetition)
    of total value <= b.max_value.  Not capped at 1."""
    if J.min_positive is None:
        raise DomainError("need a positive element to form positive combinations")
    if b.max_value is None:
        raise DomainError("max_value is required: the set of positive combinations is infinite")
    return CoeffSet(sums(J, b.max_value, b.max_terms)[1:])


def pos_combinations_exact(J: CoeffSet, max_value: Fraction) -> CoeffSet:
    """All positive integral combinations of J with value <= max_value,
    with no term-count truncation (self-bounded by max_value/min(J>0))."""
    if J.min_positive is None:
        raise DomainError("need a positive element to form positive combinations")
    return CoeffSet(sums(J, max_value)[1:])


def d_set(I: CoeffSet, b: EnumBounds) -> CoeffSet:
    """Bounded enumeration of D(I) = {(m-1+f)/m : f in I+}, m <= b.max_index."""
    return _shifted(plus_closure(I, b), ZERO, b.max_index)


def _check_shift(d: Fraction) -> None:
    if not (0 < d <= 1):
        raise DomainError("shift d must lie in (0,1]")


def _shifted(fs: CoeffSet, d: Fraction, max_index: int) -> CoeffSet:
    """{(m-1+f+k*d)/m <= 1 : m, k <= max_index, f in fs}; each distinct
    shift k*d is used once, so d = 0 gives the single shift 0 and D(I)."""
    shifts = {k * d for k in range(1, max_index + 1)}
    out = set()
    for m in range(1, max_index + 1):
        for s in shifts:
            for f in fs:
                a = (m - 1 + f + s) / m
                if a <= 1:
                    out.add(a)
    return CoeffSet.of(out)


def d_d_set(I: CoeffSet, d: Fraction, b: EnumBounds) -> CoeffSet:
    """Bounded enumeration of D_d(I) = {(m-1+f+k*d)/m : m,k >= 1, f in I+}."""
    _check_shift(d)
    return _shifted(plus_closure(I, b), d, b.max_index)


def mem_d_set(a: Fraction, I: CoeffSet) -> bool:
    """Exact membership a in D(I): _mem_shifted with the shift 0 over I."""
    return _mem_shifted(a, I, ZERO)


def mem_d_d_set(a: Fraction, I: CoeffSet, d: Fraction) -> bool:
    """Exact membership a in D_d(I): _mem_shifted over I u {d}."""
    _check_shift(d)
    return _mem_shifted(a, CoeffSet((*I, d)), d)


def _mem_shifted(a: Fraction, Id: CoeffSet, d: Fraction) -> bool:
    """Whether a = (m-1+f+k*d)/m for some m >= 1, f in I+ and k >= 1 (no k
    when d = 0), given Id = I u {d} (I itself when d = 0): whether 1 - d =
    s + m*(1-a) for a sum s = f + (k-1)*d of Id, one split with J = {1}
    whose j is m (README proves the equivalence)."""
    if a < 0 or a > 1:
        raise DomainError(f"argument {format_rational(a)} outside [0,1]")
    return split(1 - d, Id, 1 - a, UNIT) is not None


def check_ddi_lemma(I: CoeffSet, b: EnumBounds) -> tuple[bool, list]:
    """Check D(D(I)) = D(I) u {1} on bounded enumerations with exact
    membership on the opposite side.  Returns (ok, counterexamples)."""
    di = d_set(I, b)
    ddi = d_set(di, b)
    bad = []
    for x in ddi:
        # must lie in D(I) u {1}
        if x != 1 and not mem_d_set(x, I):
            bad.append(("D(D(I)) element outside D(I)u{1}", x))
    for x in di:
        # x in D(I) gives x in D(D(I)) via m=1, f=x in (D(I))+
        if not mem_d_set(x, I):
            bad.append(("enumerated D(I) element fails exact membership", x))
    # 1 in D(D(I)) always: 1 = 1/2 + 1/2 with 1/2 in D(I) (m=2, f=0)
    return (not bad, bad)


def check_dd_monotone(I: CoeffSet, d: Fraction, b: EnumBounds) -> tuple[bool, list]:
    """Check that d1 in D_d(I) implies D_{d1}(I) subseteq D_d(I), on the
    bounded enumeration of the left side with exact membership on the right."""
    _check_shift(d)
    fs = plus_closure(I, b)
    Id = CoeffSet((*I, d))
    bad = []
    for d1 in _shifted(fs, d, b.max_index):
        # every d1 is positive and at most 1, so it is a valid shift
        for a in _shifted(fs, d1, b.max_index):
            if not _mem_shifted(a, Id, d):
                bad.append((d1, a))
    return (not bad, bad)
