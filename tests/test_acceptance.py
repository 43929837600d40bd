"""Acceptance gate: ten end-to-end criteria, one test (and one verbose
pass/fail line) per criterion.  Run with `pytest -v tests/test_acceptance.py`."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import coregcalc
from coregcalc.dualcx import StratifiedBoundary, regularity_coregularity
from coregcalc.lctsets import (
    accumulation_candidates,
    lct0_enumerate,
    mem_lct0,
    mem_lct1,
    p1_oracle,
    verify_acc_above,
)
from coregcalc.setalg import (
    CoeffSet,
    DomainError,
    EnumBounds,
    check_dd_monotone,
    check_ddi_lemma,
)
from coregcalc.toric import SimplicialCone, ToricPair, toric_lct, toric_lct_oracle
from recorded_families import coreg_unbounded_counterexample, tsingularity_coreg1_set


def cs(text):
    return CoeffSet.parse(text) if text else CoeffSet.of([])


def report(n, ok, desc):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n:02d} failed: {desc}"


def test_criterion_01_lct0_standard_pair():
    """The coregularity-zero set of ({1/2}, {1}) with reduced denominator
    at most 20 is exactly {0} and the unit fractions 1/n for n <= 20."""
    got = lct0_enumerate(cs("1/2"), cs("1"), EnumBounds(24, 6, F(20), 20)).raw()
    want = tuple(sorted({F(0)} | {F(1, n) for n in range(1, 21)}))
    report(1, got == want, "coreg-0 set of ({1/2},{1}) under denominator cap 20")


def test_criterion_02_oracle_equivalence():
    """Above the floor 1/(max_terms * min positive J), the degree-one
    projective-line oracle and the closed-form enumeration agree exactly."""
    ok = True
    for i_gens in ["", "1/2", "1/3,2/5"]:
        for j_gens in ["1", "1/2"]:
            I, J = cs(i_gens), cs(j_gens)
            b = EnumBounds(4, 6)
            floor = F(1, b.max_terms) / J.min_positive
            oracle = {v for v in p1_oracle(I, J, 1, b).raw() if v >= floor}
            closed = {
                v
                for v in lct0_enumerate(I, J, EnumBounds(4, 6, 1 / floor)).raw()
                if v >= floor
            }
            ok = ok and oracle == closed
    report(2, ok, "degree-equation oracle matches closed form above the floor")


def test_criterion_03_quotient_family_in_coreg1():
    """Every value of the cyclic-quotient family up to order 5 is certified
    a member of the coregularity-one set of ({1}, {1})."""
    family = tsingularity_coreg1_set(5)
    ok = bool(family.raw())
    for lv in family:
        w = mem_lct1(lv.value, cs("1"), cs("1"), 5)
        ok = ok and w is not None and w.value() == lv.value
    report(3, ok, "cyclic-quotient threshold family lies in the coreg-1 set")


def test_criterion_04_derived_set_lemmas():
    """D(D(I)) = D(I) u {1} and shift monotonicity hold on the sample sets
    at enumeration index 8 with no counterexamples."""
    ok = True
    for gens in ["0", "1/2", "1/3,2/5"]:
        good, bad = check_ddi_lemma(cs(gens), EnumBounds(4, 8))
        ok = ok and good and bad == []
        for d in (F(1, 2), F(1, 3)):
            good, bad = check_dd_monotone(cs(gens), d, EnumBounds(4, 8))
            ok = ok and good and bad == []
    report(4, ok, "derived-set idempotence and shift monotonicity lemmas")


def test_criterion_05_acc_above_exact():
    """For coregularity zero the above-threshold listing is complete and
    matches a direct enumeration, at several thresholds."""
    I, J = cs("1/2,1/3"), cs("1")
    ok = True
    for t in (F(1, 10), F(1, 5), F(1, 2)):
        w = verify_acc_above(I, J, 0, t)
        enum = lct0_enumerate(I, J, EnumBounds(12, 6, 1 / t))
        want = tuple(v for v in enum.raw() if v >= t)
        ok = ok and w.complete and w.elements.raw() == want
    report(5, ok, "exact above-threshold listings for the coreg-0 set")


def test_criterion_06_accumulation_candidates_in_coreg0():
    """Each symbolic accumulation candidate of the coregularity-one set is
    a member of the coregularity-zero set of the same pair."""
    ok = True
    for i_gens in ["1", "1/2,1"]:
        I = cs(i_gens)
        cands, violations = accumulation_candidates(I, cs("1"), 1, EnumBounds(4, 5))
        ok = ok and violations == [] and bool(cands)
        for c in cands:
            ok = ok and mem_lct0(c.value, I, cs("1")) is not None
    report(6, ok, "coreg-1 accumulation candidates land in the coreg-0 set")


def test_criterion_07_toric_oracle_agreement():
    """The closed-form toric threshold equals the lattice-scan oracle on
    worked examples and 50 seeded random simplicial pairs."""
    worked = [
        ToricPair(SimplicialCone(((1, 0), (0, 1))), (F(1, 2), F(0)), (F(1), F(1))),
        ToricPair(SimplicialCone(((1, 0), (1, 2))), (F(0), F(1, 2)), (F(1), F(1))),
        ToricPair(
            SimplicialCone(((1, 0, 0), (0, 1, 0), (1, 1, 2))),
            (F(1, 3), F(0), F(1, 2)),
            (F(1), F(2), F(0)),
        ),
    ]
    ok = all(toric_lct_oracle(tp, 10) == toric_lct(tp) for tp in worked)
    rng = random.Random(7)
    done = 0
    while done < 50:
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        try:
            cone = SimplicialCone(tuple(rays))
        except DomainError:
            continue
        b = tuple(min(F(rng.randint(-3, 3), rng.randint(1, 4)), F(1)) for _ in range(n))
        c = tuple(F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n))
        tp = ToricPair(cone, b, c)
        ok = ok and toric_lct_oracle(tp, 10) == toric_lct(tp)
        done += 1
    report(7, ok, "toric threshold equals lattice-scan oracle (3 worked + 50 random)")


def test_criterion_08_reg_coreg_identity():
    """regularity + coregularity = ambient dimension - 1 on 100 random
    stratified boundaries, and a single divisor in an n-fold has
    coregularity n - 1."""
    ok = all(
        regularity_coregularity(
            StratifiedBoundary.build(n, ["E1"], {})
        ) == (0, n - 1)
        for n in range(1, 6)
    )
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 5)
        ndiv = rng.randint(0, min(4, dim + 1))
        strata = {}
        if dim >= 2:
            for i in range(ndiv):
                for j in range(i + 1, ndiv):
                    if rng.random() < 0.5:
                        strata[frozenset({i, j})] = rng.randint(1, 2)
        sb = StratifiedBoundary.build(dim, [f"E{k}" for k in range(ndiv)], strata)
        reg, coreg = regularity_coregularity(sb)
        ok = ok and reg + coreg == dim - 1 and -1 <= reg <= dim - 1
    report(8, ok, "regularity + coregularity identity on random boundaries")


def test_criterion_09_unbounded_coregularity_family():
    """The recorded counterexample family gives strictly increasing
    thresholds below 1 with coregularity n for n = 1..10."""
    pairs = [coreg_unbounded_counterexample(n) for n in range(1, 11)]
    values = [p[0] for p in pairs]
    ok = (
        values == sorted(set(values))
        and all(0 < v < 1 for v in values)
        and [p[1] for p in pairs] == list(range(1, 11))
    )
    report(9, ok, "strictly increasing thresholds with unbounded coregularity")


def test_criterion_10_cli_determinism():
    """The command-line enumerations are byte-identical across runs with
    different hash seeds."""
    argsets = [
        ["lct1", "--I", "1/2,1/3", "--J", "1,1/2", "--bounds",
         "terms=3,index=3", "--witness"],
        ["lct0", "--I", "1/3,2/5", "--J", "1/2,1", "--bounds", "value=6", "--witness"],
        ["p1-oracle", "--I", "1/2", "--J", "1", "--degree", "1",
         "--bounds", "terms=3,index=4", "--witness"],
    ]
    # the child imports the package this process imported
    src = str(Path(coregcalc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    ok = True
    for args in argsets:
        outs = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            r = subprocess.run(
                [sys.executable, "-m", "coregcalc.cli"] + args,
                capture_output=True, text=True, env=env,
            )
            ok = ok and r.returncode == 0
            outs.add(r.stdout)
        ok = ok and len(outs) == 1
    report(10, ok, "byte-identical CLI output across hash seeds")
