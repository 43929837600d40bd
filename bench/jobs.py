"""Seeded job generators for the three benchmark workloads.

A job is one argv list for ``coregcalc.cli.run`` plus what its output check
needs to know beyond the argv.  A run is a sequence of *passes*, and a pass
is a few *rounds*: every round of a workload holds the same number of jobs
of each kind and size class, in a seeded order, so every pass has the same
mix whatever the seed.  The generators use only ``random.Random`` seeded
from (workload, seed, pass) and this module; they never import the program,
so the inputs do not depend on the code under test.

Inputs avoid the cases that planned correctness fixes will change on
purpose: no shift ``d = 0``, every toric oracle radius covers the rays, and
no dual-complex stratum with more than one component lies below a nonempty
larger stratum.
"""

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

WORKLOADS = ("membership", "enumeration", "geometry")

# Rounds per pass: about half a second of jobs at the seed commit.
ROUNDS_PER_PASS = {"membership": 4, "enumeration": 2, "geometry": 2}


@dataclass(frozen=True)
class Job:
    """One ``cli.run`` call.

    ``must_be_true`` marks a membership target built from a known
    representation; ``answer`` is what the generator derived on its own:
    the whole dualcx output, or the toric threshold.
    """

    argv: tuple[str, ...]
    must_be_true: bool = False
    answer: Optional[str] = None


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_set(xs) -> str:
    return ",".join(fmt(x) for x in sorted(set(xs)))


def _proper_fraction(rng: random.Random, den: int, low: int = 1) -> Fraction:
    """A reduced p/den with low <= p < den."""
    while True:
        p = rng.randrange(low, den)
        if gcd(p, den) == 1:
            return Fraction(p, den)


def _sum_of_parts(rng: random.Random, parts, max_terms: int, cap) -> Fraction:
    """A sum of up to max_terms picks from parts (repetition allowed) that
    stays <= cap; may be 0."""
    total = Fraction(0)
    for _ in range(rng.randrange(0, max_terms + 1)):
        x = rng.choice(parts)
        if total + x > cap:
            break
        total += x
    return total


# ---------------------------------------------------------------------------
# membership: a small shared pool of coefficient sets, half constructed
# members, half random targets with denominators near 10^3

# The pool is the same for every seed; the seed draws the targets.  Its
# generators are at least 1/2, so I+ is {0, a, b}, and their denominators
# are coprime to most target denominators, so the exact scans are large.
POOL = (
    (("5/9", "7/11"), ("1", "1/2")),
    (("5/8", "6/11"), ("1",)),
    (("4/7", "7/12"), ("1", "1/3")),
    (("7/10", "8/13"), ("1", "1/2")),
)
SHIFTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 4))
MEM_TRIPLE_BOUND = 3
LCT1_TRIPLES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
                (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3))


@dataclass(frozen=True)
class PoolSet:
    I: tuple[Fraction, ...]
    J: tuple[Fraction, ...]

    @property
    def lcm(self) -> int:
        return lcm(*(x.denominator for x in self.I + self.J))


def membership_pool() -> list[PoolSet]:
    return [PoolSet(tuple(map(Fraction, I)), tuple(map(Fraction, J))) for I, J in POOL]


def _random_target(rng: random.Random, L: int, lo: Fraction, hi: Fraction) -> Fraction:
    """p/q in [lo, hi] with 500 < q <= 1000 coprime to L.  Coprime q fixes
    the size of the exact scan at about q*L (no gcd lottery)."""
    while True:
        q = rng.randrange(501, 1001)
        if gcd(q, L) != 1:
            continue
        p = rng.randrange(int(lo * q) + 1, int(hi * q) + 1)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def _mem(target: str, value: Fraction, ps: PoolSet, *extra, true=False) -> Job:
    argv = ("mem", target, fmt(value), "--I", fmt_set(ps.I))
    if target in ("lct0", "lct1"):
        argv += ("--J", fmt_set(ps.J))
    return Job(argv + tuple(extra), must_be_true=true)


def _membership_round(rng: random.Random, pool: list[PoolSet], rnd: int) -> list[Job]:
    slices = ROUNDS_PER_PASS["membership"]

    def target(L, lo, hi):
        # round rnd of a pass draws from slice rnd of [lo, hi], so every pass
        # covers the whole range once and passes cost about the same
        width = (hi - lo) / slices
        k = rnd % slices
        return _random_target(rng, L, lo + k * width, lo + (k + 1) * width)

    jobs = []
    for slot in range(4):
        ps = pool[(rnd + slot) % len(pool)]
        L = ps.lcm
        iparts = list(ps.I)
        if slot == 0:
            a = _sum_of_parts(rng, iparts, 4, 1) or iparts[0]
            jobs.append(_mem("plus", a, ps, true=True))
            jobs.append(_mem("plus", target(L, Fraction(1, 2), Fraction(1)), ps))
        elif slot == 1:
            m = rng.randrange(1, 9)
            f = _sum_of_parts(rng, iparts, 3, 1)
            jobs.append(_mem("dset", (m - 1 + f) / m, ps, true=True))
            jobs.append(_mem("dset", target(L, Fraction(1, 2), Fraction(24, 25)), ps))
        elif slot == 2:
            d = rng.choice(SHIFTS)
            m = rng.randrange(1, 7)
            f = _sum_of_parts(rng, iparts, 3, 1 - d)
            k = rng.randrange(1, int((1 - f) / d) + 1)
            jobs.append(_mem("ddset", (m - 1 + f + k * d) / m, ps, "--d", fmt(d), true=True))
            jobs.append(_mem("ddset", target(L, Fraction(1, 2), Fraction(24, 25)),
                             ps, "--d", fmt(d)))
        else:
            i = _sum_of_parts(rng, iparts, 3, 1)
            if i == 1:
                i = Fraction(0)
            j = _sum_of_parts(rng, list(ps.J), 3, 4) or ps.J[-1]
            jobs.append(_mem("lct0", (1 - i) / j, ps, true=True))
            jobs.append(_mem("lct0", target(L, Fraction(1, 8), Fraction(1, 2)), ps))
    ps = pool[rnd % len(pool)]
    bound = ("--triple-bound", str(MEM_TRIPLE_BOUND))
    jobs.append(_mem("lct1", _lct1_member(rng, ps), ps, *bound, true=True))
    jobs.append(_mem("lct1", target(ps.lcm, Fraction(1, 4), Fraction(1)), ps, *bound))
    ps = pool[(rnd + 1) % len(pool)]
    jobs.append(Job(("lemma-check", "ddi", "--I", fmt_set(ps.I),
                     "--bounds", f"terms=3,index={rng.randrange(3, 5)}")))
    jobs.append(Job(("lemma-check", "dd-monotone", "--I", fmt_set(ps.I),
                     "--d", fmt(rng.choice(SHIFTS)), "--bounds", "terms=3,index=3")))
    rng.shuffle(jobs)
    return jobs


def _lct1_member(rng: random.Random, ps: PoolSet) -> Fraction:
    """(base - i)/j for one triple, with i and j weighted slot sums over
    I+ and J+ (no tail), so mem_lct1 must find it within the bound."""
    iplus = [Fraction(0)] + [x for x in ps.I if x <= 1]
    jplus = [Fraction(0)] + [x for x in ps.J if x <= 1]
    while True:
        p, q, r = rng.choice(LCT1_TRIPLES)
        base = q * r + p * r + p * q - p * q * r
        weights = (q * r, p * r, p * q)
        i = sum(w * rng.choice(iplus) for w in weights)
        j = sum(w * rng.choice(jplus) for w in weights)
        if i < base and j > 0:
            return (base - i) / j


# ---------------------------------------------------------------------------
# enumeration: a fresh small coefficient set per job, witnesses printed

SMALL_DENS = (2, 3, 4, 5, 6)


def _fresh_I(rng: random.Random, size: int, low: Fraction = Fraction(0)) -> list[Fraction]:
    """size distinct proper fractions >= low with denominators in SMALL_DENS."""
    out = set()
    while len(out) < size:
        den = rng.choice(SMALL_DENS)
        out.add(_proper_fraction(rng, den, max(1, -(-low.numerator * den // low.denominator))))
    return sorted(out)


def _fresh_J(rng: random.Random) -> list[Fraction]:
    return sorted({Fraction(1), _proper_fraction(rng, rng.choice((2, 3)))})


# The cost of the per-triple jobs grows with the size of I+, which is set by
# the smallest generator; a floor on it keeps their tail the same across
# seeds while the cheap jobs draw from the whole range.
HEAVY_FLOOR = Fraction(1, 4)


def _enumeration_round(rng: random.Random) -> list[Job]:
    def sets(size=2, low=Fraction(0), need_j=True):
        out = ("--I", fmt_set(_fresh_I(rng, size, low)))
        return out + ("--J", fmt_set(_fresh_J(rng))) if need_j else out

    jobs = [
        Job(("plus",) + sets(3, need_j=False)
            + ("--bounds", f"terms={rng.randrange(4, 7)}")),
        Job(("dset",) + sets(need_j=False)
            + ("--bounds", f"terms=3,index={rng.randrange(4, 7)}")),
        Job(("ddset",) + sets(need_j=False)
            + ("--d", fmt(rng.choice(SHIFTS)), "--bounds", f"terms=3,index={rng.randrange(3, 5)}")),
        Job(("lct0",) + sets() + ("--bounds", f"value={rng.randrange(4, 9)}", "--witness")),
        Job(("lct0",) + sets() + ("--bounds", f"value={rng.randrange(4, 9)}", "--witness")),
        Job(("lct1",) + sets(low=HEAVY_FLOOR) + ("--bounds", "terms=3,index=3", "--witness")),
        Job(("p1-oracle",) + sets(low=HEAVY_FLOOR)
            + ("--degree", "1", "--bounds", f"terms=3,index={rng.randrange(3, 5)}", "--witness")),
        Job(("acc-above",) + sets()
            + ("--c", "0", "--t", fmt(Fraction(1, rng.randrange(3, 7))), "--witness")),
        Job(("acc-above",) + sets(low=HEAVY_FLOOR)
            + ("--c", "1", "--t", "1/2", "--triple-cutoff", "3", "--witness")),
        Job(("accum",) + sets() + ("--c", "0")),
        Job(("accum",) + sets(low=HEAVY_FLOOR) + ("--c", "1", "--bounds", "terms=3,index=3")),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# geometry: dual complexes of seeded stratifications and toric pairs

TORIC_RADIUS = {2: 10, 3: 4}
BOUNDARY_COEFFS = tuple(Fraction(x) for x in ("-1/2", "0", "1/3", "1/2", "2/3", "1"))
GAMMA_COEFFS = tuple(Fraction(x) for x in ("0", "1/2", "1", "3/2", "2"))


def stratification(rng: random.Random) -> tuple[str, str, str]:
    """A stratification file plus its regularity under the min and max
    conventions.  Multi-component strata are only placed on faces with no
    nonempty stratum above them."""
    dim = rng.randrange(2, 7)
    ndiv = rng.randrange(4, 13)
    faces = set()
    for _ in range(rng.randrange(ndiv // 2, 2 * ndiv + 1)):
        size = rng.randrange(1, min(dim, ndiv) + 1)
        faces.add(frozenset(rng.sample(range(ndiv), size)))
    strata = {}
    for face in faces:
        for size in range(2, len(face) + 1):
            for sub in itertools.combinations(sorted(face), size):
                strata[frozenset(sub)] = 1
    supports = set(strata) | {frozenset({i}) for i in range(ndiv)}
    maximal = [s for s in supports if not any(s < t for t in supports)]
    for s in maximal:
        if len(s) >= 2 and rng.random() < 0.3:
            strata[s] = rng.randrange(2, 4)
    lines = [f"dim {dim}", f"divisors {ndiv}"]
    for s in sorted(strata, key=lambda s: (len(s), sorted(s))):
        lines.append(f"stratum {','.join(str(i + 1) for i in sorted(s))} {strata[s]}")
    reg = min(len(s) for s in maximal) - 1
    top = max(len(s) for s in maximal) - 1
    return "\n".join(lines) + "\n", f"reg {reg}, coreg {dim - reg - 1}", str(top)


def _det(rows) -> int:
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return sum((-1) ** k * rows[0][k] * _det([r[:k] + r[k + 1:] for r in rows[1:]])
               for k in range(len(rows)))


def toric_pair(rng: random.Random, dim: int) -> tuple[str, str]:
    """A cone file with independent primitive rays inside the oracle box,
    plus the closed-form threshold min (1-b_i)/c_i over c_i > 0."""
    span = TORIC_RADIUS[dim] // 2
    while True:
        rays = [tuple(rng.randrange(-span, span + 1) for _ in range(dim)) for _ in range(dim)]
        if all(any(r) and gcd(*r) == 1 for r in rays) and _det(rays) != 0:
            break
    b = [rng.choice(BOUNDARY_COEFFS) for _ in range(dim)]
    c = [rng.choice(GAMMA_COEFFS) for _ in range(dim)]
    if not any(c):
        c[rng.randrange(dim)] = Fraction(1)
    lct = min((1 - bi) / ci for bi, ci in zip(b, c) if ci > 0)
    text = "\n".join(
        [f"dim {dim}"]
        + [" ".join(str(x) for x in r) for r in rays]
        + ["b: " + " ".join(fmt(x) for x in b), "c: " + " ".join(fmt(x) for x in c)]
    ) + "\n"
    return text, fmt(lct)


def _geometry_round(rng: random.Random, rnd: int, workdir: str, files: dict) -> list[Job]:
    jobs = []
    for k in range(8):
        text, answer, top = stratification(rng)
        path = os.path.join(workdir, f"strat-{rnd}-{k}.txt")
        files[path] = text
        if k % 2:
            jobs.append(Job(("dualcx", path, "--max-convention"),
                            answer=f"{answer}\nlargest-simplex dimension {top}"))
        else:
            jobs.append(Job(("dualcx", path), answer=answer))
    for k, dim in enumerate((2, 3, 3)):
        text, answer = toric_pair(rng, dim)
        path = os.path.join(workdir, f"cone-{rnd}-{k}.txt")
        files[path] = text
        jobs.append(Job(("toric-lct", path, "--oracle", str(TORIC_RADIUS[dim])), answer=answer))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, index: int, workdir: str):
    """The jobs of pass `index` of a run, plus the files they read, as
    {path: text} with paths under workdir.  Same arguments, same result."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    rounds = range(ROUNDS_PER_PASS[workload])
    files: dict[str, str] = {}
    if workload == "membership":
        pool = membership_pool()
        out = [_membership_round(rng, pool, r) for r in rounds]
    elif workload == "enumeration":
        out = [_enumeration_round(rng) for _ in rounds]
    else:
        out = [_geometry_round(rng, r, workdir, files) for r in rounds]
    return [job for rnd in out for job in rnd], files
