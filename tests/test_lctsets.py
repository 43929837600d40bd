from fractions import Fraction as F

import pytest

from coregcalc.lctsets import (
    Coreg0Witness,
    PlatonicTriple,
    accumulation_candidates,
    lct0_enumerate,
    lct1_enumerate,
    lct1_weighted,
    mem_lct0,
    mem_lct1,
    platonic_triples,
    verify_acc_above,
)
from coregcalc.setalg import CoeffSet, DomainError, EnumBounds
from recorded_families import coreg_unbounded_counterexample, tsingularity_coreg1_set


def cs(text):
    return CoeffSet.parse(text) if text else CoeffSet.of([])


EMPTY = cs("")
HALF = cs("1/2")
ONE_SET = cs("1")
UNIT_J = cs("1")


class TestLct0:
    def test_half_with_integer_denominators(self):
        got = lct0_enumerate(HALF, UNIT_J, EnumBounds(12, 6, F(6), 6))
        assert got.raw() == (F(0), F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(1))

    def test_empty_numerator_set(self):
        got = lct0_enumerate(EMPTY, UNIT_J, EnumBounds(12, 6, F(3)))
        assert got.raw() == (F(1, 3), F(1, 2), F(1))

    def test_affine_line_value_with_witness(self):
        got = lct0_enumerate(HALF, UNIT_J, EnumBounds(12, 6, F(6)))
        lv = next(v for v in got if v.value == F(1, 2))
        assert isinstance(lv.witness, Coreg0Witness)
        assert lv.witness.value() == F(1, 2)

    def test_no_positive_j_is_an_error(self):
        with pytest.raises(DomainError):
            lct0_enumerate(HALF, cs("0"), EnumBounds(12, 6, F(3)))

    def test_witness_integrity(self):
        got = lct0_enumerate(cs("1/3,2/5"), cs("1/2,1"), EnumBounds(6, 6, F(3)))
        for lv in got:
            assert lv.witness.value() == lv.value

    def test_scaling_j_by_lambda_scales_values(self):
        lam = F(3, 2)
        base = lct0_enumerate(HALF, UNIT_J, EnumBounds(8, 6, F(4)))
        scaled = lct0_enumerate(
            HALF, CoeffSet.of([lam]), EnumBounds(8, 6, F(4) * lam)
        )
        assert scaled.raw() == tuple(v / lam for v in base.raw())


class TestMemLct0:
    def test_affine_line_example(self):
        w = mem_lct0(F(1, 2), HALF, UNIT_J)
        assert w is not None and w == Coreg0Witness(F(1, 2), F(1))

    def test_zero_needs_unit_sum(self):
        w = mem_lct0(F(0), HALF, UNIT_J)
        assert w is not None and w.i == 1
        assert mem_lct0(F(0), cs("2/5"), UNIT_J) is None

    def test_non_member(self):
        assert mem_lct0(F(2, 3), HALF, UNIT_J) is None

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mem_lct0(F(-1, 2), HALF, UNIT_J)

    def test_agrees_with_enumeration(self):
        got = lct0_enumerate(cs("1/3,2/5"), cs("1/2"), EnumBounds(6, 6, F(3)))
        for lv in got:
            w = mem_lct0(lv.value, cs("1/3,2/5"), cs("1/2"))
            assert w is not None and w.value() == lv.value


class TestPlatonicTriples:
    def test_bound_three(self):
        got = [(t.p, t.q, t.r) for t in platonic_triples(3)]
        assert got == [
            (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 3),
            (2, 2, 2), (2, 2, 3), (2, 3, 3),
        ]

    def test_bound_two(self):
        got = [(t.p, t.q, t.r) for t in platonic_triples(2)]
        assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]

    def test_icosahedral_in_but_not_beyond(self):
        got = [(t.p, t.q, t.r) for t in platonic_triples(6)]
        assert (2, 3, 5) in got
        assert (2, 3, 6) not in got  # 1/2+1/3+1/6 = 1 exactly

    def test_invalid_triple_rejected(self):
        with pytest.raises(DomainError):
            PlatonicTriple(2, 3, 6)


class TestLct1:
    def test_dihedral_222_value_one(self):
        got = lct1_weighted(PlatonicTriple(2, 2, 2), EMPTY, UNIT_J, EnumBounds(4, 6))
        assert F(1) in got.raw()  # numerator 4, j = qr = 4

    def test_icosahedral_minimum(self):
        got = lct1_weighted(PlatonicTriple(2, 3, 5), EMPTY, UNIT_J, EnumBounds(4, 6))
        assert F(1, 30) in got.raw()  # 1/2+1/3+1/5-1 via the pqr tail

    def test_unit_triple_with_unit_coefficients(self):
        got = lct1_weighted(PlatonicTriple(1, 1, 1), ONE_SET, UNIT_J, EnumBounds(4, 6))
        assert F(1) in got.raw()

    def test_three_term_form_misses_tail_values(self):
        with_tail = lct1_weighted(PlatonicTriple(2, 3, 5), EMPTY, UNIT_J, EnumBounds(4, 6))
        without = lct1_weighted(
            PlatonicTriple(2, 3, 5), EMPTY, UNIT_J, EnumBounds(4, 6), extra_terms=False
        )
        assert F(1, 30) in with_tail.raw()
        assert F(1, 30) not in without.raw()

    def test_enumerate_union(self):
        got = lct1_enumerate(EMPTY, UNIT_J, EnumBounds(4, 2))
        assert F(1) in got.raw()
        got2 = lct1_enumerate(ONE_SET, UNIT_J, EnumBounds(4, 3))
        assert F(0) in got2.raw()

    def test_witness_integrity(self):
        got = lct1_enumerate(HALF, UNIT_J, EnumBounds(4, 3))
        for lv in got:
            assert lv.witness.value() == lv.value

    def test_contains_degree_zero_image_under_unit_triple(self):
        # (1,1,1) with a unit-weight slot mirrors the coregularity-zero values
        c0 = lct0_enumerate(HALF, UNIT_J, EnumBounds(4, 6, F(3)))
        c1 = lct1_enumerate(HALF, UNIT_J, EnumBounds(6, 3))
        assert set(c0.raw()) <= set(c1.raw())


class TestMemLct1:
    def test_icosahedral_value(self):
        w = mem_lct1(F(1, 30), EMPTY, UNIT_J, 5)
        assert w is not None and w.value() == F(1, 30)

    def test_value_one_at_bound_two(self):
        assert mem_lct1(F(1), EMPTY, UNIT_J, 2) is not None

    def test_found_beyond_three_term_display(self):
        # 7/60 = (7-0)/60 on the (1,2,5) triple via the pqr tail
        w = mem_lct1(F(7, 60), EMPTY, UNIT_J, 5)
        assert w is not None and w.value() == F(7, 60)

    def test_not_found_is_reported_as_bounded(self):
        # the CLI words None as not-found-within-bound (golden case
        # mem-lct1-not-found)
        assert mem_lct1(F(9999, 10000), EMPTY, UNIT_J, 3) is None

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mem_lct1(F(-1), EMPTY, UNIT_J, 3)


class TestAccAbove:
    def test_exact_list_above_third(self):
        w = verify_acc_above(HALF, UNIT_J, 0, F(1, 3))
        assert w.elements.raw() == (F(1, 3), F(1, 2), F(1)) and w.complete

    def test_only_one_above_one(self):
        w = verify_acc_above(EMPTY, UNIT_J, 0, F(1))
        assert w.elements.raw() == (F(1),)

    def test_third_generators(self):
        w = verify_acc_above(cs("1/3"), UNIT_J, 0, F(2, 3))
        assert w.elements.raw() == (F(2, 3), F(1))

    def test_coregularity_one_is_flagged_incomplete(self):
        w = verify_acc_above(ONE_SET, UNIT_J, 1, F(1, 2))
        assert not w.complete and "cut off" in w.detail
        assert all(lv.value >= F(1, 2) for lv in w.elements)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(DomainError):
            verify_acc_above(HALF, UNIT_J, 0, F(0))

    def test_contains_every_enumerated_element_above_t(self):
        t = F(1, 5)
        w = verify_acc_above(HALF, UNIT_J, 0, t)
        enum = lct0_enumerate(HALF, UNIT_J, EnumBounds(10, 6, F(5)))
        for v in enum.raw():
            if v >= t:
                assert v in w.elements.raw()


class TestAccumulation:
    def test_zero_candidate_for_coreg_zero(self):
        cands, _ = accumulation_candidates(HALF, UNIT_J, 0, EnumBounds(4, 5))
        assert cands.raw() == (F(0),)
        assert "j -> infinity" in cands.values[0].witness

    def test_dihedral_family_limit_is_zero(self):
        cands, viol = accumulation_candidates(EMPTY, UNIT_J, 1, EnumBounds(4, 5))
        assert viol  # hypotheses fail for the empty set, and are reported
        dihedral = [c for c in cands if c.witness.startswith("(2,2,")]
        assert all(c.value == 0 for c in dihedral)

    def test_hypotheses_accepted_for_closed_set(self):
        _, viol = accumulation_candidates(ONE_SET, UNIT_J, 1, EnumBounds(4, 5))
        assert viol == []

    def test_candidates_land_in_coreg_zero_set(self):
        cands, _ = accumulation_candidates(ONE_SET, UNIT_J, 1, EnumBounds(4, 5))
        assert cands
        for c in cands:
            assert mem_lct0(c.value, ONE_SET, UNIT_J) is not None, c


class TestRecordedFamilies:
    def test_counterexample_values(self):
        assert coreg_unbounded_counterexample(1) == (F(2, 3), 1)
        assert coreg_unbounded_counterexample(2) == (F(3, 4), 2)
        assert coreg_unbounded_counterexample(10) == (F(11, 12), 10)

    def test_counterexample_strictly_increasing_unbounded_coreg(self):
        pairs = [coreg_unbounded_counterexample(n) for n in range(1, 11)]
        values = [p[0] for p in pairs]
        assert values == sorted(set(values))
        assert [p[1] for p in pairs] == list(range(1, 11))

    def test_tsingularity_values(self):
        small = tsingularity_coreg1_set(2)
        assert F(1, 2) in small.raw()
        big = tsingularity_coreg1_set(5)
        assert F(1, 30) in big.raw()
        assert all(0 <= lv.value <= 1 for lv in big)

    def test_tsingularity_witness_integrity(self):
        for lv in tsingularity_coreg1_set(4):
            assert lv.witness.value() == lv.value
