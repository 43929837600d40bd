"""Recorded example families, kept as references for the tests.

No command computes them.  The acceptance criteria check them against the
library (03: the quotient family lies in the coregularity-one set; 09: the
cone family has strictly increasing thresholds and unbounded coregularity),
and `test_lctsets.TestRecordedFamilies` checks their values and witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction

from coregcalc.lctsets import LctSet
from coregcalc.setalg import DomainError


def coreg_unbounded_counterexample(n: int) -> tuple[Fraction, int]:
    """The cone-over-a-hypersurface family: threshold 1 - 1/(n+2) with
    coregularity n.  Strictly increasing thresholds with unbounded
    coregularity, so bounding the coregularity is necessary for the ACC."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return 1 - Fraction(1, n + 2), n


@dataclass(frozen=True)
class TSingularityWitness:
    """Complexity-one torus-symmetry family: 1/p+1/q+1/r-1, optionally
    rescaled by p."""

    p: int
    q: int
    r: int
    scaled: bool

    def value(self) -> Fraction:
        v = Fraction(1, self.p) + Fraction(1, self.q) + Fraction(1, self.r) - 1
        return self.p * v if self.scaled else v

    def __str__(self):
        tail = ",scaled" if self.scaled else ""
        return f"ts(p={self.p},q={self.q},r={self.r}{tail})"


def tsingularity_coreg1_set(bound: int) -> LctSet:
    """Thresholds of complexity-one torus singularities with reduced
    boundary: 1/p+1/q+1/r-1 and p*(1/p+1/q+1/r-1) over p,q,r <= bound,
    intersected with [0,1]."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    out = []
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            for r in range(1, bound + 1):
                v = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
                if 0 <= v <= 1:
                    out.append((v, TSingularityWitness(p, q, r, False)))
                pv = p * v
                if 0 <= pv <= 1:
                    out.append((pv, TSingularityWitness(p, q, r, True)))
    return LctSet.collect(out)
