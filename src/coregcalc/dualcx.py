"""Dual complexes of stratified boundaries, regularity and coregularity.

The input is purely combinatorial: a list of boundary divisors and, for each
nonempty subset of them, the number of irreducible components of the
corresponding intersection stratum.  Each component is one simplex of
dimension |subset| - 1 (several components make the object a Delta-complex
rather than a simplicial complex, which the construction allows).

Dimension is the *smallest* dimension of an inclusion-maximal simplex; this
nonstandard choice matches the minimal-center arithmetic and the identity

    regularity + coregularity = ambient dimension - 1.

The empty complex has dimension -1 by convention.
"""

from dataclasses import dataclass
from typing import Mapping

from .rationals import DomainError, parse_int


@dataclass(frozen=True)
class StratifiedBoundary:
    """Divisor names plus component counts per nonempty divisor subset.

    Subsets absent from `strata` are empty intersections; singletons default
    to count 1 (each listed divisor is a single prime divisor).
    """

    ambient_dim: int
    divisors: tuple[str, ...]
    strata: Mapping[frozenset, int]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DomainError("ambient dimension must be >= 1")
        n = len(self.divisors)
        counts = dict(self.strata)
        for i in range(n):
            counts.setdefault(frozenset({i}), 1)
        for subset, count in counts.items():
            if not subset:
                raise DomainError("empty subset is not a stratum")
            if any(i < 0 or i >= n for i in subset):
                raise DomainError(f"divisor index out of range in {sorted(subset)}")
            if count < 0:
                raise DomainError(f"negative component count for {sorted(subset)}")
            if len(subset) == 1 and count != 1:
                raise DomainError(
                    f"singleton stratum {sorted(subset)} must have exactly one component"
                )
            if count >= 1 and len(subset) > self.ambient_dim:
                raise DomainError(
                    f"stratum {sorted(subset)} is larger than the ambient dimension"
                )
        # downward closure: a nonempty intersection forces all sub-intersections.
        # A sub-intersection with several components under a nonempty one is
        # ambiguous: the counts do not say which components the latter lies on.
        for subset, count in counts.items():
            if count >= 1:
                for i in subset:
                    sub = subset - {i}
                    below = counts.get(sub, 0)
                    if sub and below < 1:
                        raise DomainError(
                            f"downward closure fails: {sorted(subset)} is nonempty "
                            f"but {sorted(sub)} is empty"
                        )
                    if below > 1:
                        lower, upper = (",".join(self.divisors[k] for k in sorted(s))
                                        for s in (sub, subset))
                        raise DomainError(
                            f"ambiguous incidence: stratum {lower} has {below} components "
                            f"under the nonempty stratum {upper}"
                        )
        object.__setattr__(self, "strata", counts)

    @classmethod
    def build(cls, ambient_dim, divisors, strata):
        return cls(
            ambient_dim,
            tuple(divisors),
            {frozenset(s): c for s, c in dict(strata).items()},
        )


@dataclass(frozen=True)
class Simplex:
    support: frozenset  # divisor indices
    component: int  # which irreducible component of the stratum

    @property
    def dim(self) -> int:
        return len(self.support) - 1


@dataclass(frozen=True)
class DualComplex:
    simplices: tuple[Simplex, ...]

    def maximal(self) -> list[Simplex]:
        supports = {s.support for s in self.simplices}
        return [
            s
            for s in self.simplices
            if not any(s.support < other for other in supports)
        ]


def build_dual_complex(sb: StratifiedBoundary) -> DualComplex:
    """One simplex of dimension |S|-1 per irreducible component of each
    stratum S; faces are present by the downward-closure invariant."""
    simplices = []
    for subset in sorted(sb.strata, key=lambda s: (len(s), sorted(s))):
        for comp in range(sb.strata[subset]):
            simplices.append(Simplex(subset, comp))
    return DualComplex(tuple(simplices))


def complex_dimension(dc: DualComplex, convention: str = "min") -> int:
    """Dimension of the complex: with the default "min" convention, the
    smallest dimension of an inclusion-maximal simplex.  "max" gives the
    usual PL convention, exposed for comparison only.  Empty complex: -1."""
    maximal = dc.maximal()
    if not maximal:
        return -1
    dims = [s.dim for s in maximal]
    if convention == "min":
        return min(dims)
    if convention == "max":
        return max(dims)
    raise DomainError(f"unknown dimension convention {convention!r}")


def regularity_coregularity(sb: StratifiedBoundary) -> tuple[int, int]:
    """reg = dim of the dual complex, coreg = ambient_dim - reg - 1."""
    reg = complex_dimension(build_dual_complex(sb))
    coreg = sb.ambient_dim - reg - 1
    assert reg + coreg == sb.ambient_dim - 1
    return reg, coreg


def parse_stratification(text: str) -> StratifiedBoundary:
    """Parse the line format: `dim <n>`, `divisors <r>`, then
    `stratum <comma-separated indices> <count>` lines (1-based indices;
    singletons may be omitted).  Each header and each stratum appears at
    most once, and no index repeats within a stratum: the answer must not
    depend on which of two conflicting lines is read last.  No header value
    is negative, and every index lies in 1..r."""
    headers: dict[str, int] = {}
    strata: dict[frozenset, int] = {}
    lines: dict[frozenset, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("dim", "divisors") and len(parts) == 2:
            if parts[0] in headers:
                raise DomainError(f"line {lineno}: repeated `{parts[0]}` header")
            headers[parts[0]] = parse_int(parts[1], lineno)
            if headers[parts[0]] < 0:
                raise DomainError(f"line {lineno}: negative `{parts[0]}` value {parts[1]}")
        elif parts[0] == "stratum" and len(parts) == 3:
            indices = [parse_int(x, lineno) - 1 for x in parts[1].split(",")]
            idx = frozenset(indices)
            if len(idx) != len(indices):
                raise DomainError(f"line {lineno}: repeated divisor index in stratum {parts[1]}")
            if idx in strata:
                raise DomainError(f"line {lineno}: stratum {parts[1]} is listed twice")
            strata[idx] = parse_int(parts[2], lineno)
            lines[idx] = lineno, parts[1]
        else:
            raise DomainError(f"line {lineno}: cannot parse {raw!r}")
    if set(headers) != {"dim", "divisors"}:
        raise DomainError("stratification file needs `dim` and `divisors` headers")
    ndiv = headers["divisors"]
    used = frozenset().union(*strata)
    if used and not (0 <= min(used) and max(used) < ndiv):
        lineno, written = next(lines[s] for s in strata if min(s) < 0 or max(s) >= ndiv)
        raise DomainError(f"line {lineno}: divisor index out of range in stratum "
                          f"{written}: there are {ndiv} divisors")
    return StratifiedBoundary.build(headers["dim"], [f"E{i + 1}" for i in range(ndiv)], strata)
