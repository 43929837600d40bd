import random
from fractions import Fraction as F

import pytest

from coregcalc.setalg import DomainError
from coregcalc.toric import (
    SimplicialCone,
    ToricPair,
    discrepancy_functional,
    parse_toric_pair,
    toric_lct,
    toric_lct_oracle,
)


def pair(rays, b, c):
    return ToricPair(
        SimplicialCone(tuple(tuple(r) for r in rays)),
        tuple(F(x) for x in b),
        tuple(F(x) for x in c),
    )


class TestCone:
    def test_rays_are_primitivized(self):
        cone = SimplicialCone(((2, 0), (0, 3)))
        assert cone.rays == ((1, 0), (0, 1))

    def test_dependent_rays_rejected(self):
        with pytest.raises(DomainError):
            SimplicialCone(((1, 2), (2, 4)))

    def test_zero_ray_rejected(self):
        with pytest.raises(DomainError):
            SimplicialCone(((0, 0), (0, 1)))

    def test_containment(self):
        cone = SimplicialCone(((1, 0), (1, 2)))
        assert cone.contains((1, 1))
        assert not cone.contains((0, 1))

    def test_coordinates_exact(self):
        cone = SimplicialCone(((1, 0), (1, 2)))
        # the ray coordinates of (2, 1): its dot products with the dual basis over det
        assert [F(w[0] * 2 + w[1] * 1, cone.det) for w in cone.dual] == [F(3, 2), F(1, 2)]


class TestFunctionals:
    def test_orthant_values(self):
        tp = pair([(1, 0), (0, 1)], [F(1, 2), 0], [1, 1])
        assert discrepancy_functional(tp, "boundary") == (F(1, 2), F(1))
        assert discrepancy_functional(tp, "gamma") == (F(1), F(1))

    def test_skew_cone(self):
        tp = pair([(1, 0), (1, 2)], [0, 0], [1, 0])
        psi = discrepancy_functional(tp, "boundary")
        for ray in tp.cone.rays:
            assert sum(a * x for a, x in zip(psi, ray)) == 1


class TestThreshold:
    def test_smooth_orthant(self):
        tp = pair([(1, 0), (0, 1)], [F(1, 2), 0], [1, 1])
        assert toric_lct(tp) == F(1, 2)

    def test_zero_gamma_is_infinity(self):
        tp = pair([(1, 0), (0, 1)], [F(1, 2), F(1, 2)], [0, 0])
        assert toric_lct(tp) is None

    def test_only_positive_rays_contribute(self):
        tp = pair([(1, 0), (0, 1)], [1, 0], [0, 2])
        assert toric_lct(tp) == F(1, 2)

    def test_boundary_coefficient_above_one_rejected(self):
        with pytest.raises(DomainError):
            pair([(1, 0), (0, 1)], [F(3, 2), 0], [1, 1])

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            pair([(1, 0), (0, 1)], [0, 0], [-1, 1])

    def test_integer_coefficients_give_an_exact_threshold(self):
        tp = ToricPair(SimplicialCone(((1, 0), (0, 1))), (0, 0), (2, 4))
        assert tp.b == (F(0), F(0)) and all(type(x) is F for x in tp.b + tp.c)
        value = toric_lct(tp)
        assert value == F(1, 4) and type(value) is F
        assert toric_lct_oracle(tp, 3) == value

    def test_scaling_gamma_scales_threshold_inversely(self):
        base = pair([(1, 1), (1, -1)], [F(1, 3), F(1, 2)], [1, 2])
        scaled = pair([(1, 1), (1, -1)], [F(1, 3), F(1, 2)], [3, 6])
        assert toric_lct(scaled) == toric_lct(base) / 3


class TestOracle:
    def test_orthant_agreement(self):
        tp = pair([(1, 0), (0, 1)], [F(1, 2), 0], [1, 1])
        assert toric_lct_oracle(tp, 6) == toric_lct(tp)

    def test_singular_quadric_cone_agreement(self):
        tp = pair([(1, 0), (1, 2)], [0, F(1, 2)], [1, 1])
        assert toric_lct_oracle(tp, 8) == toric_lct(tp)

    def test_infinity_agreement(self):
        tp = pair([(1, 0), (0, 1)], [0, 0], [0, 0])
        assert toric_lct_oracle(tp, 4) is None

    def test_radius_must_cover_rays(self):
        tp = pair([(1, 0), (1, 5)], [0, 0], [1, 1])
        with pytest.raises(DomainError):
            toric_lct_oracle(tp, 3)

    def test_randomized_agreement(self):
        rng = random.Random(20260823)
        done = 0
        while done < 25:
            n = rng.choice([2, 3])
            rays = [
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
            ]
            try:
                cone = SimplicialCone(tuple(rays))
            except DomainError:
                continue
            b = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
            b = tuple(min(x, F(1)) for x in b)
            c = tuple(F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n))
            tp = ToricPair(cone, b, c)
            assert toric_lct_oracle(tp, 8) == toric_lct(tp)
            done += 1


class TestParsing:
    TEXT = """\
dim 2
1 0
1 2
b: 0 1/2
c: 1 1
"""

    def test_round_trip(self):
        tp = parse_toric_pair(self.TEXT)
        assert tp.cone.rays == ((1, 0), (1, 2))
        assert tp.b == (F(0), F(1, 2))
        assert toric_lct(tp) == F(1, 2)

    def test_missing_coefficients_rejected(self):
        with pytest.raises(DomainError):
            parse_toric_pair("dim 2\n1 0\n0 1\nb: 0 0\n")

    def test_header_required(self):
        with pytest.raises(DomainError):
            parse_toric_pair("1 0\n0 1\n")

    @pytest.mark.parametrize("key", ["b:", "c:"])
    def test_repeated_coefficient_line_rejected(self, key):
        # read last-wins, a second `b:` line silently replaced the first
        with pytest.raises(DomainError, match=f"^line 6: repeated `{key}` line$"):
            parse_toric_pair(self.TEXT + f"{key} 1 1\n")

    @pytest.mark.parametrize("field", ["2/1", "x", "1.5"])
    def test_non_integer_ray_field_reported_with_line_number(self, field):
        with pytest.raises(DomainError, match=f"^line 4: expected an integer, got '{field}'$"):
            parse_toric_pair("# rays\n" + self.TEXT.replace("1 2", "1 " + field))

    @pytest.mark.parametrize("head", ["dim", "dim two", "dim 2/1", "dim 2 2", "dim 0", "dim -1"])
    def test_malformed_dimension_rejected(self, head):
        with pytest.raises(DomainError, match="positive integer"):
            parse_toric_pair(head + "\n1 0\n0 1\nb: 0 0\nc: 1 1\n")
