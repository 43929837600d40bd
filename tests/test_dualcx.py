import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregcalc.dualcx import (
    StratifiedBoundary,
    build_dual_complex,
    complex_dimension,
    parse_stratification,
    regularity_coregularity,
)
from coregcalc.setalg import DomainError


def sb(dim, ndiv, strata):
    return StratifiedBoundary.build(
        dim, [f"E{i}" for i in range(ndiv)], {frozenset(s): c for s, c in strata.items()}
    )


class TestConstruction:
    def test_singleton_defaults(self):
        boundary = sb(2, 2, {})
        assert boundary.strata[frozenset({0})] == 1
        assert boundary.strata[frozenset({1})] == 1

    def test_downward_closure_enforced(self):
        with pytest.raises(DomainError):
            sb(3, 3, {(0, 1, 2): 1, (0, 1): 1, (0, 2): 1})  # (1,2) missing

    def test_singleton_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            sb(2, 1, {(0,): 2})

    def test_oversized_stratum_rejected(self):
        with pytest.raises(DomainError):
            sb(2, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 1, 2): 1})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DomainError):
            sb(2, 2, {(0, 5): 1})

    @pytest.mark.parametrize("dim,strata,message", [
        # whether the second E0 n E1 curve meets E2 decides reg 2 or reg 1
        (3, {(0, 1): 2, (0, 2): 1, (1, 2): 1, (0, 1, 2): 1},
         "ambiguous incidence: stratum E0,E1 has 2 components under the nonempty stratum E0,E1,E2"),
        (3, {(0, 1): 1, (0, 2): 1, (1, 2): 3, (0, 1, 2): 2},
         "ambiguous incidence: stratum E1,E2 has 3 components under the nonempty stratum E0,E1,E2"),
    ])
    def test_ambiguous_incidence_rejected(self, dim, strata, message):
        with pytest.raises(DomainError) as exc:
            sb(dim, 3, strata)
        assert str(exc.value) == message

    def test_several_components_under_an_empty_stratum_are_accepted(self):
        boundary = sb(3, 3, {(0, 1): 2, (0, 2): 1, (1, 2): 1, (0, 1, 2): 0})
        assert regularity_coregularity(boundary) == (1, 1)


class TestDimension:
    def test_empty_complex(self):
        assert complex_dimension(build_dual_complex(sb(3, 0, {}))) == -1

    def test_disjoint_divisors_are_points(self):
        dc = build_dual_complex(sb(3, 2, {}))
        assert complex_dimension(dc) == 0

    def test_two_meeting_divisors_give_an_edge(self):
        dc = build_dual_complex(sb(3, 2, {(0, 1): 1}))
        assert complex_dimension(dc) == 1

    def test_min_convention_sees_the_isolated_vertex(self):
        # an edge plus an isolated divisor: min 0, max 1
        dc = build_dual_complex(sb(3, 3, {(0, 1): 1}))
        assert complex_dimension(dc, "min") == 0
        assert complex_dimension(dc, "max") == 1

    def test_multiple_components_count_separately(self):
        # two divisors meeting along two irreducible curves: two edges
        dc = build_dual_complex(sb(3, 2, {(0, 1): 2}))
        assert len([s for s in dc.simplices if s.dim == 1]) == 2
        assert complex_dimension(dc) == 1

    def test_unknown_convention_rejected(self):
        with pytest.raises(DomainError):
            complex_dimension(build_dual_complex(sb(2, 1, {})), "median")


class TestRegCoreg:
    def test_triangle_in_threefold(self):
        boundary = sb(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 1, 2): 1})
        assert regularity_coregularity(boundary) == (2, 0)

    def test_single_divisor_in_surface(self):
        assert regularity_coregularity(sb(2, 1, {})) == (0, 1)

    def test_empty_boundary(self):
        assert regularity_coregularity(sb(4, 0, {})) == (-1, 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_single_divisor_in_nfold(self, n):
        assert regularity_coregularity(sb(n, 1, {})) == (0, n - 1)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_holds_for_random_boundaries(self, dim, data):
        ndiv = data.draw(st.integers(0, 4))
        strata = {}
        # grow strata upward so downward closure holds by construction
        pairs = [
            (i, j) for i in range(ndiv) for j in range(i + 1, ndiv)
        ]
        for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
            if dim >= 2:
                strata[pair] = data.draw(st.integers(1, 2))
        boundary = sb(dim, ndiv, strata)
        reg, coreg = regularity_coregularity(boundary)
        assert reg + coreg == dim - 1
        assert -1 <= reg <= dim - 1

    def test_permutation_invariance(self):
        a = sb(3, 3, {(0, 1): 1})
        perm = sb(3, 3, {(1, 2): 1})  # same shape after relabelling
        assert regularity_coregularity(a) == regularity_coregularity(perm)


class TestParsing:
    TEXT = """\
# a triangle of divisors in a threefold
dim 3
divisors 3
stratum 1,2 1
stratum 1,3 1
stratum 2,3 1
stratum 1,2,3 1
"""

    def test_round_trip(self):
        boundary = parse_stratification(self.TEXT)
        assert regularity_coregularity(boundary) == (2, 0)

    def test_headers_required(self):
        with pytest.raises(DomainError):
            parse_stratification("stratum 1,2 1\n")

    def test_bad_line_reported_with_number(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_stratification("dim 3\ndivisors 2\nwhat is this\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 3\ndivisors 2\nstratum 1,2 1\nstratum 2,1 0\n", "line 4: stratum 2,1 is listed twice"),
            ("dim 3\ndivisors 2\ndim 2\n", "line 3: repeated `dim` header"),
            ("divisors 2\ndim 3\ndivisors 3\n", "line 3: repeated `divisors` header"),
            ("dim 3\ndivisors 2\n\nstratum 1,1,2 1\n", "line 4: repeated divisor index in stratum 1,1,2"),
            ("dim 3\ndivisors 2\nstratum 1,1 1\n", "line 3: repeated divisor index in stratum 1,1"),
            ("dim 3\n# none\ndivisors -2\n", "line 3: negative `divisors` value -2"),
            ("dim 3\ndivisors 2\nstratum 0,1 1\n",
             "line 3: divisor index out of range in stratum 0,1: there are 2 divisors"),
            ("dim 3\nstratum 1,2 1\nstratum 1,3 1\ndivisors 2\n",
             "line 3: divisor index out of range in stratum 1,3: there are 2 divisors"),
        ],
    )
    def test_ambiguous_input_rejected_with_line_number(self, text, message):
        with pytest.raises(DomainError) as exc:
            parse_stratification(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 3\ndivisors 2\nstratum 1,,2 1\n", "line 3: expected an integer, got ''"),
            ("dim x\ndivisors 2\n", "line 1: expected an integer, got 'x'"),
            ("dim 3\n\ndivisors 2\nstratum 1,2 x\n", "line 4: expected an integer, got 'x'"),
        ],
    )
    def test_non_integer_field_rejected_with_line_number(self, text, message):
        with pytest.raises(DomainError) as exc:
            parse_stratification(text)
        assert str(exc.value) == message
