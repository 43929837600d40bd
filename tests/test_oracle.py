"""Cross-checks between the closed-form threshold enumerations and the
independent degree-equation oracle on the projective line."""

from fractions import Fraction as F

import pytest

from coregcalc.lctsets import lct0_enumerate, lct1_enumerate, p1_oracle
from coregcalc.setalg import CoeffSet, DomainError, EnumBounds


def cs(text):
    return CoeffSet.parse(text) if text else CoeffSet.of([])


I_SETS = ["", "1/2", "1/3,2/5"]
J_SETS = ["1", "1/2"]


def floor_for(J, max_terms):
    return F(1, max_terms) / min(x for x in J if x > 0)


@pytest.mark.parametrize("i_gens", I_SETS)
@pytest.mark.parametrize("j_gens", J_SETS)
def test_degree_one_matches_coreg_zero_above_floor(i_gens, j_gens):
    I, J = cs(i_gens), cs(j_gens)
    b = EnumBounds(4, 6)
    floor = floor_for(J, b.max_terms)
    oracle = {v for v in p1_oracle(I, J, 1, b).raw() if v >= floor}
    closed = {
        v
        for v in lct0_enumerate(I, J, EnumBounds(4, 6, 1 / floor)).raw()
        if v >= floor
    }
    assert oracle == closed


@pytest.mark.parametrize("i_gens", I_SETS)
@pytest.mark.parametrize("j_gens", J_SETS)
def test_degree_two_solutions_lie_in_coreg_one_set(i_gens, j_gens):
    I, J = cs(i_gens), cs(j_gens)
    b = EnumBounds(4, 6)
    floor = floor_for(J, b.max_terms)
    oracle = {v for v in p1_oracle(I, J, 2, b).raw() if v >= floor}
    closed = set(lct1_enumerate(I, J, EnumBounds(6, 6)).raw())
    assert oracle <= closed


# Without the unit cap, the degree-two oracle and the coregularity-one closed
# form list the same values in one window once it allows three terms; with
# fewer, the closed form has more, as three orbifold points need three terms.
# Checked on these fixed windows, not proved; I = {1/3, 1/2} holds too, but
# doubles the time.
WIDE_I = ["", "1/2", "1", "1/3", "2/3", "1/2,1"]
WIDE_J = ["1", "1/2", "1/2,1", "3/2", "1/3,2"]
# (I, J, terms, index): the sizes of the closed form and the oracle where the
# inclusion is strict
STRICT = {("", "1", 2, 2): (9, 4)}


@pytest.mark.parametrize("terms,index", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 3)])
def test_uncapped_degree_two_oracle_is_the_coreg_one_set(terms, index):
    b = EnumBounds(terms, index)
    for i_gens in WIDE_I:
        for j_gens in WIDE_J:
            I, J = cs(i_gens), cs(j_gens)
            closed = set(lct1_enumerate(I, J, b).raw())
            oracle = set(p1_oracle(I, J, 2, b, cap_unit=False).raw())
            assert (oracle == closed) if terms >= 3 else (oracle <= closed), (i_gens, j_gens)
            if (i_gens, j_gens, terms, index) in STRICT:
                sizes = STRICT[i_gens, j_gens, terms, index]
                assert oracle < closed and (len(closed), len(oracle)) == sizes


def test_oracle_witness_replays_to_value():
    got = p1_oracle(cs("1/2"), cs("1"), 1, EnumBounds(3, 4))
    assert got.raw()
    for lv in got:
        assert lv.witness.value() == lv.value


def test_degree_one_standard_configuration():
    # N=(2,2), d=(1/2, t): (1/2+1/2)/2 + (1+t)/2 = 1 gives t = 1/2... solved
    got = p1_oracle(cs("1/2"), cs("1"), 1, EnumBounds(2, 2))
    assert F(1, 2) in got.raw()


def test_no_spurious_zero_without_unit_sum(tmp_path):
    # with I = {2/5} no i-part reaches 1, so t = 0 has no valid configuration
    got = p1_oracle(cs("2/5"), cs("1"), 1, EnumBounds(3, 4))
    assert F(0) not in got.raw()


def test_zero_appears_when_one_is_reachable():
    got = p1_oracle(cs("1"), cs("1"), 1, EnumBounds(3, 4))
    assert F(0) in got.raw()


def test_bad_degree_rejected():
    with pytest.raises(DomainError):
        p1_oracle(cs("1/2"), cs("1"), 3, EnumBounds(3, 4))


def test_cap_unit_prunes_large_coefficients():
    capped = set(p1_oracle(cs(""), cs("1"), 2, EnumBounds(2, 2)).raw())
    uncapped = set(p1_oracle(cs(""), cs("1"), 2, EnumBounds(2, 2), cap_unit=False).raw())
    assert capped <= uncapped
