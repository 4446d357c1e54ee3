"""Doubling-construction coefficient algebras: reals up to octonions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium.algebra import antihermitian_basis, hermitian_basis
from jordanium.cayley_dickson import MAX_LEVEL, basis_products, basis_table, conj_array, sign_tensor

from cd_reference import CD, _add, _cd_mat_mul, cd_antihermitian_basis, cd_hermitian_basis

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def cd_elems(level):
    n = 2**level
    return st.lists(rationals, min_size=n, max_size=n).map(
        lambda cs: CD.from_coords(level, cs)
    )


class TestBasisTable:
    def test_quaternion_products(self):
        t = basis_table(2)
        assert t[1][2] == (3, 1)
        assert t[2][1] == (3, -1)
        assert t[1][1] == (0, -1)
        assert t[0][3] == (3, 1)

    def test_octonion_products(self):
        t = basis_table(3)
        assert t[1][4] == (5, 1)
        assert t[2][5] == (7, 1)
        for i in range(1, 8):
            assert t[i][i] == (0, -1)
            assert t[0][i] == (i, 1)

    def test_index_is_xor(self):
        for level in range(MAX_LEVEL + 1):
            t = basis_table(level)
            n = 2**level
            for i in range(n):
                for j in range(n):
                    k, s = t[i][j]
                    assert k == i ^ j
                    assert s in (1, -1)

    def test_table_matches_multiplication(self):
        # the doubled integer signs against the recursive CD product
        for level in range(MAX_LEVEL + 1):
            t = basis_table(level)
            o = sign_tensor(level)
            n = 2**level
            for i in range(n):
                for j in range(n):
                    k, s = t[i][j]
                    prod = CD.basis(level, i) * CD.basis(level, j)
                    assert prod == CD.basis(level, k).scale(s)
                    assert o[i, j].tolist() == list(prod.coords)


class TestAlgebraLaws:
    @given(cd_elems(2), cd_elems(2))
    @settings(max_examples=40, deadline=None)
    def test_quaternion_composition_law(self, x, y):
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    @given(cd_elems(3), cd_elems(3))
    @settings(max_examples=30, deadline=None)
    def test_octonion_composition_law(self, x, y):
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    @given(cd_elems(3), cd_elems(3))
    @settings(max_examples=30, deadline=None)
    def test_octonion_alternative(self, x, y):
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)

    @given(cd_elems(2), cd_elems(2), cd_elems(2))
    @settings(max_examples=30, deadline=None)
    def test_quaternions_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(cd_elems(3), cd_elems(3))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_antihomomorphism(self, x, y):
        assert (x * y).conj() == y.conj() * x.conj()

    def test_octonions_not_associative(self):
        fails = []
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    a, b, c = (CD.basis(3, t) for t in (i, j, k))
                    if (a * b) * c != a * (b * c):
                        fails.append((i, j, k))
        # all-imaginary triples off the quaternion lines
        assert len(fails) == 168
        assert fails[0] == (1, 2, 4)


class TestElementOps:
    def test_inverse(self):
        x = CD.from_coords(3, [1, 2, 0, -1, 3, 0, 0, 2])
        assert x * x.inverse() == CD.one(3)
        assert x.inverse() * x == CD.one(3)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CD.zero(2).inverse()

    def test_real_part_and_predicates(self):
        x = CD.from_coords(2, [Fraction(3, 2), 1, 0, 0])
        assert x.real_part() == Fraction(3, 2)
        assert not x.is_real()
        assert CD.one(2).scale(7).is_real()

    def test_level_cap(self):
        for level in (-1, MAX_LEVEL + 1):
            with pytest.raises(ValueError):
                basis_table(level)
            with pytest.raises(ValueError):
                sign_tensor(level)


class TestIntegerMatrices:
    @pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
    def test_sign_tensor_is_the_table(self, level):
        o = sign_tensor(level)
        for i, row in enumerate(basis_table(level)):
            for j, (k, sign) in enumerate(row):
                expected = np.zeros(2**level, dtype=np.int64)
                expected[k] = sign
                assert (o[i, j] == expected).all()
        assert not o.flags.writeable

    def test_conj_array(self):
        x = np.arange(8).reshape(1, 8)
        assert conj_array(x).tolist() == [list(CD.from_coords(3, range(8)).conj().coords)]


BASES = {
    "herm": (hermitian_basis, cd_hermitian_basis),
    "anti": (antihermitian_basis, cd_antihermitian_basis),
}


class TestBasisProducts:
    """basis_products on two distinct bases against the CD-object matrix loop."""

    @pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("left, right", [("herm", "anti"), ("anti", "herm")])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_cd_loop(self, level, n, left, right, sign):
        # x y + y x of a hermitian and an antihermitian matrix is
        # antihermitian, x y - y x is hermitian
        x, y = BASES[left][0](n, level), BASES[right][0](n, level)
        out = BASES["anti" if sign == 1 else "herm"][0](n, level)
        a, b, m, v = basis_products(x, y, out, sign_tensor(level), sign)
        coords = np.zeros((len(x), len(y), len(out)), dtype=np.int64)
        coords[a, b, m] = v
        got = np.tensordot(coords, out, axes=(2, 0))
        cx, cy = BASES[left][1](n, level), BASES[right][1](n, level)
        for i, p in enumerate(cx):
            for j, q in enumerate(cy):
                w = _add(_cd_mat_mul(p, q), _cd_mat_mul(q, p), sign)
                assert got[i, j].tolist() == [[list(e.coords) for e in row] for row in w]

    @pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
    def test_product_outside_the_out_basis_is_caught(self, level):
        # x y + y x lands in the antihermitian matrices, x y - y x in the
        # hermitian ones: read onto the other basis, both raise
        herm, anti, o = hermitian_basis(2, level), antihermitian_basis(2, level), sign_tensor(level)
        with pytest.raises(AssertionError, match="leaves the span"):
            basis_products(herm, anti, herm, o, 1)
        with pytest.raises(AssertionError, match="leaves the span"):
            basis_products(herm, anti, anti, o, -1)

    def test_empty_basis(self):
        # the antihermitian 1 x 1 real matrices are zero
        herm, anti = hermitian_basis(1, 0), antihermitian_basis(1, 0)
        assert len(anti) == 0
        for part in basis_products(herm, anti, anti, sign_tensor(0), 1):
            assert part.size == 0
