"""Differential tests of the integer cone core against Fraction references.

The references are the exact Gaussian eliminations the cone code used before
it stored an integer dual basis: a determinant and a Gauss-Jordan solve over
Fractions, one solve per query.
"""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coregcalc import cli
from coregcalc.setalg import DomainError
from coregcalc.toric import (
    MAX_ORACLE_POINTS,
    SimplicialCone,
    ToricPair,
    discrepancy_functional,
    toric_lct,
    toric_lct_oracle,
)


# ---------------------------------------------------------------------------
# reference eliminations


def ref_det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    n = len(rows)
    m = [list(map(F, r)) for r in rows]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for cc in range(col, n):
                    m[r][cc] -= factor * m[col][cc]
    return det


def ref_solve(matrix, rhs):
    """Solve the nonsingular square system exactly by Gauss-Jordan."""
    n = len(matrix)
    aug = [list(map(F, matrix[r])) + [F(rhs[r])] for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def ref_coordinates(rays, v):
    n = len(rays)
    cols = [[rays[j][i] for j in range(n)] for i in range(n)]
    return ref_solve(cols, v)


def dual_coordinates(cone, v):
    """The ray coordinates of v from the cone's stored dual basis: the dot
    products with its rows over its determinant."""
    return [F(sum(a * x for a, x in zip(w, v)), cone.det) for w in cone.dual]


# ---------------------------------------------------------------------------
# strategies


@st.composite
def ray_matrices(draw, lo=-6, hi=6):
    """n x n integer matrices, n = 2..4, with no zero row; some of them
    singular by construction (one row a combination of two others)."""
    n = draw(st.integers(2, 4))
    entry = st.integers(lo, hi)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()) and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    assume(all(any(r) for r in rows))
    return [tuple(r) for r in rows]


def cone_or_none(rows):
    try:
        return SimplicialCone(tuple(rows))
    except DomainError:
        return None


def vectors(n, bound=9):
    return st.lists(st.integers(-bound, bound), min_size=n, max_size=n).map(tuple)


# ---------------------------------------------------------------------------
# the stored dual basis


class TestDualBasis:
    @settings(max_examples=300, deadline=None)
    @given(ray_matrices())
    def test_singular_rays_detected_exactly_when_det_is_zero(self, rows):
        cone = cone_or_none(rows)
        assert (cone is None) == (ref_det(rows) == 0)

    @settings(max_examples=300, deadline=None)
    @given(ray_matrices())
    def test_det_and_dual_basis(self, rows):
        cone = cone_or_none(rows)
        assume(cone is not None)
        assert cone.det == ref_det(cone.rays)
        for i, w in enumerate(cone.dual):
            for j, ray in enumerate(cone.rays):
                assert sum(a * x for a, x in zip(w, ray)) == (cone.det if i == j else 0)

    def test_dual_basis_is_not_part_of_equality(self):
        a = SimplicialCone(((2, 0), (1, 2)))
        b = SimplicialCone(((1, 0), (1, 2)))
        assert a == b and hash(a) == hash(b)
        assert a.det == 2 and a.dual == ((2, -1), (0, 1))
        assert "dual" not in repr(a)

    def test_negative_determinant_cone(self):
        cone = SimplicialCone(((0, 1), (1, 0)))
        assert cone.det == -1
        assert cone.contains((1, 1)) and cone.contains((2, 0))
        assert not cone.contains((-1, 1))
        assert dual_coordinates(cone, (3, 2)) == [F(2), F(3)]

    def test_no_rays_rejected(self):
        with pytest.raises(DomainError):
            SimplicialCone(())


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(ray_matrices(), st.data())
    def test_coordinates(self, rows, data):
        cone = cone_or_none(rows)
        assume(cone is not None)
        v = data.draw(vectors(cone.dim))
        assert dual_coordinates(cone, v) == ref_coordinates(cone.rays, v)

    @settings(max_examples=300, deadline=None)
    @given(ray_matrices(), st.data())
    def test_contains(self, rows, data):
        cone = cone_or_none(rows)
        assume(cone is not None)
        v = data.draw(vectors(cone.dim))
        assert cone.contains(v) == all(x >= 0 for x in ref_coordinates(cone.rays, v))

    @settings(max_examples=200, deadline=None)
    @given(ray_matrices(), st.data())
    def test_contains_on_the_cone(self, rows, data):
        """Points built as nonnegative (and some as mixed-sign) ray
        combinations, so both answers of contains are exercised on every
        cone, whatever the sign of its determinant."""
        cone = cone_or_none(rows)
        assume(cone is not None)
        coeffs = data.draw(st.lists(st.integers(-1, 3), min_size=cone.dim, max_size=cone.dim))
        v = tuple(sum(c * ray[k] for c, ray in zip(coeffs, cone.rays)) for k in range(cone.dim))
        assert cone.contains(v) == all(c >= 0 for c in coeffs)

    @settings(max_examples=300, deadline=None)
    @given(ray_matrices(), st.data())
    def test_discrepancy_functionals(self, rows, data):
        cone = cone_or_none(rows)
        assume(cone is not None)
        n = cone.dim
        frac = st.builds(F, st.integers(-4, 4), st.integers(1, 5))
        b = tuple(min(x, F(1)) for x in data.draw(st.lists(frac, min_size=n, max_size=n)))
        c = tuple(abs(x) for x in data.draw(st.lists(frac, min_size=n, max_size=n)))
        tp = ToricPair(cone, b, c)
        rays = [list(r) for r in cone.rays]
        assert discrepancy_functional(tp, "boundary") == tuple(ref_solve(rays, [1 - x for x in b]))
        assert discrepancy_functional(tp, "gamma") == tuple(ref_solve(rays, list(c)))


# ---------------------------------------------------------------------------
# the lattice-scan oracle


def test_four_dimensional_oracle_agreement():
    """Closed form against the lattice scan on 20 seeded 4-dimensional pairs;
    the box of radius 3 covers every ray."""
    rng = random.Random(4)
    done = 0
    while done < 20:
        rays = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4)]
        try:
            cone = SimplicialCone(tuple(rays))
        except DomainError:
            continue
        b = tuple(min(F(rng.randint(-3, 3), rng.randint(1, 4)), F(1)) for _ in range(4))
        c = tuple(F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(4))
        tp = ToricPair(cone, b, c)
        assert toric_lct_oracle(tp, 3) == toric_lct(tp)
        done += 1


def test_oracle_box_cap():
    tp = ToricPair(SimplicialCone(((1, 0), (0, 1))), (F(0), F(0)), (F(1), F(1)))
    assert MAX_ORACLE_POINTS == 10**6
    with pytest.raises(DomainError, match="4004001 points"):
        toric_lct_oracle(tp, 1000)


def test_cli_refuses_oracle_box_at_once(tmp_path, capsys):
    f = tmp_path / "cone.txt"
    f.write_text("dim 3\n1 0 0\n0 1 0\n1 1 2\nb: 0 0 0\nc: 1 1 1\n")
    start = time.perf_counter()
    with pytest.raises(DomainError, match="1030301 points"):
        cli.run(["toric-lct", str(f), "--oracle", "50"])
    assert time.perf_counter() - start < 1.0
