"""Exact threshold computations for simplicial affine toric pairs.

A pair is a full-dimensional simplicial cone (n independent primitive rays)
with per-ray boundary coefficients b_i <= 1 and nonnegative per-ray
coefficients c_i for the divisor being scaled.  The two torus-invariant data
determine linear functionals on the lattice,

    psi_B(v_i) = 1 - b_i,        psi_C(v_i) = c_i,

and the threshold is min over rays with c_i > 0 of (1 - b_i)/c_i, which for
a simplicial cone equals the infimum of psi_B/psi_C over the whole cone.  A
lattice-point scan provides an independent oracle for that fact.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .rationals import DomainError, parse_int, parse_rational

INFINITY = None  # threshold of a pair with c identically zero
# Largest lattice box, (2r+1)^n points, that toric_lct_oracle will scan.
MAX_ORACLE_POINTS = 10**6


def _primitivize(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*[abs(x) for x in vec]) if any(vec) else 1
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def _dual_basis(rays: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and dual basis of the rays: integer w_i with w_i . v_j = det
    if i == j, else 0 (the rows of adj(rays^T)).  Fraction-free (Bareiss)
    Gauss-Jordan on [rays^T | I]: its divisions are exact, and it ends at
    [s*det*I | s*adj] with s the sign of the row swaps."""
    n = len(rays)
    m = [list(col) + [int(i == r) for i in range(n)] for r, col in enumerate(zip(*rays))]
    sign = prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise DomainError("rays are linearly dependent")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k, p = m[k], m[k][k]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], row_k)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


@dataclass(frozen=True)
class SimplicialCone:
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.dim
        if n == 0:
            raise DomainError("a cone needs at least one ray")
        rays = []
        for ray in self.rays:
            if len(ray) != n:
                raise DomainError("every ray must have one coordinate per dimension")
            if not any(ray):
                raise DomainError("zero vector is not a ray")
            rays.append(_primitivize(tuple(int(x) for x in ray)))
        object.__setattr__(self, "rays", tuple(rays))
        # not dataclass fields, so equality and hashing still see only the rays
        det, dual = _dual_basis(self.rays)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "dual", dual)

    @property
    def dim(self) -> int:
        return len(self.rays)

    def contains(self, v: tuple[int, ...]) -> bool:
        """Whether every ray coordinate of v (dot product times det) is >= 0."""
        det = self.det
        return all(sum(a * x for a, x in zip(w, v)) * det >= 0 for w in self.dual)


@dataclass(frozen=True)
class ToricPair:
    cone: SimplicialCone
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        n = self.cone.dim
        if len(self.b) != n or len(self.c) != n:
            raise DomainError("need one b and one c coefficient per ray")
        if any(x > 1 for x in self.b):
            raise DomainError("boundary coefficients above 1 break log canonicity")
        if any(x < 0 for x in self.c):
            raise DomainError("scaled-divisor coefficients must be >= 0")


def discrepancy_functional(tp: ToricPair, which: str) -> tuple[Fraction, ...]:
    """The unique linear functional with value 1-b_i ("boundary") or c_i
    ("gamma") on each ray generator: sum_i target_i * w_i / det over the
    dual basis of the cone."""
    if which == "boundary":
        targets = [1 - bi for bi in tp.b]
    elif which == "gamma":
        targets = list(tp.c)
    else:
        raise DomainError(f"unknown functional {which!r}")
    cone = tp.cone
    return tuple(Fraction(sum(t * w[k] for t, w in zip(targets, cone.dual)), cone.det)
                 for k in range(cone.dim))


def toric_lct(tp: ToricPair) -> Optional[Fraction]:
    """min over rays with c_i > 0 of (1-b_i)/c_i; None (infinity) if c = 0."""
    vals = [(1 - bi) / ci for bi, ci in zip(tp.b, tp.c) if ci > 0]
    return min(vals) if vals else INFINITY


def toric_lct_oracle(tp: ToricPair, box_radius: int) -> Optional[Fraction]:
    """Independent check: minimize psi_B(v)/psi_C(v) over primitive lattice
    vectors of the cone with coordinates in [-box_radius, box_radius], in
    integers: both functionals scaled by one common denominator."""
    max_coord = max(abs(x) for ray in tp.cone.rays for x in ray)
    if box_radius < max_coord:
        raise DomainError("box radius must cover the ray generators")
    n = tp.cone.dim
    points = (2 * box_radius + 1) ** n
    if points > MAX_ORACLE_POINTS:
        raise DomainError(f"oracle box has {points} points, above the cap {MAX_ORACLE_POINTS}")
    if all(ci == 0 for ci in tp.c):
        return INFINITY
    psi_b = discrepancy_functional(tp, "boundary")
    psi_c = discrepancy_functional(tp, "gamma")
    scale = lcm(*(x.denominator for x in psi_b + psi_c))
    psi_b, psi_c = ([int(x * scale) for x in psi] for psi in (psi_b, psi_c))
    best_num, best_denom = None, 1
    for v in itertools.product(range(-box_radius, box_radius + 1), repeat=n):
        if not any(v):
            continue
        if _primitivize(v) != v:
            continue
        if not tp.cone.contains(v):
            continue
        denom = sum(a * x for a, x in zip(psi_c, v))
        if denom <= 0:
            continue
        num = sum(a * x for a, x in zip(psi_b, v))
        if best_num is None or num * best_denom < best_num * denom:
            best_num, best_denom = num, denom
    return INFINITY if best_num is None else Fraction(best_num, best_denom)


def parse_toric_pair(text: str) -> ToricPair:
    """Parse the line format: `dim n`, n ray lines of n integers,
    `b: ...`, `c: ...` with rationals as p/q.  Each of `b:` and `c:`
    appears once: the answer must not depend on which of two is read last."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = [(lineno, ln) for lineno, ln in enumerate(stripped, 1) if ln]
    head = lines[0][1].split() if lines else []
    if len(head) != 2 or head[0] != "dim" or not head[1].isdecimal() or int(head[1]) < 1:
        raise DomainError("cone file must start with `dim n`, n a positive integer")
    n = int(head[1])
    if len(lines) < n + 3:
        raise DomainError("cone file is truncated")
    rays = [tuple(parse_int(x, lineno) for x in ln.split()) for lineno, ln in lines[1:n + 1]]
    coeffs: dict[str, tuple[Fraction, ...]] = {}
    for lineno, ln in lines[n + 1:]:
        key = ln[:2]
        if key not in ("b:", "c:"):
            raise DomainError(f"cannot parse cone file line {ln!r}")
        if key in coeffs:
            raise DomainError(f"line {lineno}: repeated `{key}` line")
        coeffs[key] = tuple(parse_rational(x) for x in ln[2:].split())
    if set(coeffs) != {"b:", "c:"}:
        raise DomainError("cone file needs `b:` and `c:` lines")
    return ToricPair(SimplicialCone(tuple(rays)), coeffs["b:"], coeffs["c:"])
