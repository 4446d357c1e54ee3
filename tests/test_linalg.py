"""Exact linear algebra: the layer everything else stands on."""

from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium import linalg
from jordanium.linalg import (
    _PRIMES,
    Mat,
    _nullspace_modular,
    _rat_reconstruct,
    format_fraction,
    kron,
    nullspace,
    nullspace_int,
    parse_fraction,
    rank,
    rref,
    rref_bareiss,
    solve,
    expand_in_basis,
    exact_int_matmul,
)
from mat_reference import RefMat, ref_kron, ref_nullspace, ref_rank, ref_solve


def fr(p, q=1):
    return Fraction(p, q)


def rref_solve(m: Mat, b) -> Optional[tuple]:
    """Reference solver: RREF of [m | b], free variables set to 0."""
    aug = Mat.from_rows([r + (Fraction(x),) for r, x in zip(m.data, b)])
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.data[i][m.cols]
    return tuple(x)


def block_system(seed: int, nblocks: int, shape: tuple[int, int]) -> np.ndarray:
    """Block-diagonal integer matrix with permuted rows and columns.

    Every third block repeats a combination of its first rows, so the
    matrix is rank deficient; the blocks keep the RREF denominators small.
    """
    rng = np.random.default_rng(seed)
    r, c = shape
    a = np.zeros((nblocks * r, nblocks * c), dtype=np.int64)
    for t in range(nblocks):
        blk = rng.integers(-3, 4, size=(r, c))
        if t % 3 == 0:
            blk[-1] = blk[0] - blk[1]
        a[t * r : (t + 1) * r, t * c : (t + 1) * c] = blk
    return a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


_entries = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)


@st.composite
def _systems(draw):
    """(m, b): fractional, sometimes rank deficient, sometimes inconsistent."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr > 2 and draw(st.booleans()):
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    m = Mat.from_rows(rows)
    if draw(st.booleans()):
        b = m.apply(draw(st.lists(_entries, min_size=nc, max_size=nc)))
    else:
        b = draw(st.lists(_entries, min_size=nr, max_size=nr))
    return m, tuple(b)


@st.composite
def _int_matrices(draw):
    """Integer matrices of at most 12 columns, some built so that the first
    prime or the int64 range is the wrong place to eliminate: two rows
    differing by _PRIMES[0] * e_k (rank drops mod that prime), a column
    scaled by it (pivots move right mod that prime), or entries >= 2**62.
    """
    nr, nc = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    entries = st.integers(-9, 9)
    if draw(st.booleans()):
        entries = st.one_of(entries, st.integers(2**62, 2**64), st.integers(-(2**64), -(2**62)))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    k = draw(st.integers(0, nc - 1))
    trick = draw(st.sampled_from(["none", "row", "col"]))
    if trick == "row" and nr > 1:
        rows[1] = list(rows[0])
        rows[1][k] += _PRIMES[0]
    elif trick == "col":
        for r in rows:
            r[k] *= _PRIMES[0]
    return rows


def rref_kernel(red: Mat, pivots: tuple[int, ...]) -> list[tuple]:
    """Reference kernel read off an RREF, one vector per free column."""
    basis = []
    for f in (c for c in range(red.cols) if c not in pivots):
        v = [Fraction(0)] * red.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.data[i][f]
        basis.append(tuple(v))
    return basis


class TestRref:
    def test_frozen_example(self):
        # worked by hand: two pivots, one free column
        m = Mat.from_rows([[1, 2, 1], [2, 4, 0], [3, 6, 1]])
        red, pivots = rref(m)
        assert pivots == (0, 2)
        assert red.data[0] == (fr(1), fr(2), fr(0))
        assert red.data[1] == (fr(0), fr(0), fr(1))
        assert red.data[2] == (fr(0), fr(0), fr(0))

    def test_bareiss_agrees_with_plain(self):
        # the second has a zero below the first pivot 7: that row must still
        # be scaled by 7, or the next exact division by 7 is not exact
        for rows in (
            [[2, 1, 5], [1, 1, 3], [4, 0, 2], [0, 3, 1]],
            [[7, 0, -1, 0], [-5, 1, 0, -1], [0, 7, 0, -1]],
        ):
            m = Mat.from_rows(rows)
            r1, p1 = rref(m)
            r2, p2 = rref_bareiss(m)
            assert p1 == p2
            assert r1 == r2

    def test_identity_fixed(self):
        m = Mat.identity(4)
        red, pivots = rref(m)
        assert red == m and pivots == (0, 1, 2, 3)


class TestNullspace:
    @given(_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_one_route_matches_rref_reference(self, rows):
        m = Mat.from_rows(rows)
        red, pivots = rref(m)
        assert rref_bareiss(m) == (red, pivots)
        basis = rref_kernel(red, pivots)
        arr = np.empty((len(rows), len(rows[0])), dtype=object)
        arr[:] = rows
        assert nullspace_int(arr) == (basis, pivots)
        assert nullspace(m) == basis

    def test_frozen_kernel(self):
        # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
        m = Mat.from_rows([[1, 1, 1], [1, 0, -1]])
        ns = nullspace(m)
        assert len(ns) == 1
        v = ns[0]
        scaled = tuple(x / v[2] for x in v)
        assert scaled == (fr(1), fr(-2), fr(1))

    def test_canonical_free_coordinates(self):
        arr = np.array([[1, 2, 3, 4], [0, 0, 1, 1]], dtype=np.int64)
        basis, pivots = nullspace_int(arr)
        free = [k for k in range(4) if k not in pivots]
        for a, v in enumerate(basis):
            for b, f in enumerate(free):
                assert v[f] == (1 if a == b else 0)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows):
        m = Mat.from_rows(rows)
        assert rank(m) + len(nullspace(m)) == 4

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=6, max_size=6),
            min_size=3,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_members_annihilate(self, rows):
        m = Mat.from_rows(rows)
        for v in nullspace(m):
            assert all(x == 0 for x in m.apply(v))

    def test_large_tall_nullspace_matches_rref(self):
        # a few hundred columns and more than twice as tall as wide: Gram
        # compression, then the modular engine
        arr = block_system(3, 50, (11, 5))
        assert arr.shape[1] > 200 and arr.shape[0] > 2 * arr.shape[1]
        basis, pivots = nullspace_int(arr)
        red, pivots_ref = rref(Mat.from_rows(arr.tolist()))
        assert pivots == pivots_ref
        assert basis == nullspace(Mat.from_rows(arr.tolist()))
        assert basis == rref_kernel(red, pivots_ref)

    def test_bareiss_fallback_when_primes_run_out(self, monkeypatch):
        # the kernel entries -1/3**130 need more bits than the primes give
        calls = []
        real = linalg.rref_bareiss
        monkeypatch.setattr(linalg, "rref_bareiss", lambda m: calls.append(m) or real(m))
        big = 3**130
        arr = np.array([[big, 1]], dtype=object)
        basis, pivots = nullspace_int(arr)
        assert len(calls) == 1 and pivots == (0,)
        assert basis == [(Fraction(-1, big), Fraction(1))]

    def test_modular_path_matches_exact(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(-40, 40, size=(30, 24)).astype(np.int64)
        got = _nullspace_modular(arr, arr)
        assert got is not None
        basis_m, pivots_m = got
        basis_e, pivots_e = nullspace_int(arr)
        assert pivots_m == pivots_e
        assert basis_m == basis_e


class TestReconstruction:
    def test_round_trip_small_fractions(self):
        m = 1
        for p in _PRIMES[:4]:
            m *= p
        for q in [fr(3, 7), fr(-22, 5), fr(0), fr(1001, 999)]:
            r = (q.numerator * pow(q.denominator, -1, m)) % m
            assert _rat_reconstruct(r, m) == q

    def test_primes_are_prime(self):
        def is_prime(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        assert all(is_prime(p) for p in _PRIMES)
        assert len(set(_PRIMES)) == len(_PRIMES)


class TestSolveInverse:
    def test_solve_frozen(self):
        m = Mat.from_rows([[2, 1], [1, 3]])
        sol = solve(m, (fr(5), fr(10)))
        assert sol == (fr(1), fr(3))

    def test_solve_inconsistent(self):
        m = Mat.from_rows([[1, 1], [1, 1]])
        assert solve(m, (fr(1), fr(2))) is None

    @given(_systems())
    @settings(max_examples=200, deadline=None)
    def test_solve_matches_rref_reference(self, system):
        m, b = system
        assert solve(m, b) == rref_solve(m, b)

    @pytest.mark.parametrize("seed,nblocks,shape", [(0, 55, (3, 4)), (1, 45, (6, 5))])
    def test_solve_above_large_cols(self, seed, nblocks, shape):
        arr = block_system(seed, nblocks, shape)
        m = Mat.from_rows(arr.tolist())
        assert m.cols > 200
        rng = np.random.default_rng(seed)
        x = [Fraction(int(v), int(d)) for v, d in zip(rng.integers(-5, 6, m.cols), rng.integers(1, 4, m.cols))]
        b = list(m.apply(x))
        sol = solve(m, b)
        assert sol is not None and m.apply(sol) == tuple(b)
        assert sol == rref_solve(m, b)
        # a row made dependent on two others, with a right-hand side that is not
        i, j, k = 0, 1, 2
        rows = list(m.data)
        rows[k] = tuple(p + q for p, q in zip(rows[i], rows[j]))
        bad = list(b)
        bad[k] = b[i] + b[j] + 1
        m_bad = Mat.from_rows(rows)
        assert rref_solve(m_bad, bad) is None
        assert solve(m_bad, bad) is None

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_solve_consistency(self, rows):
        m = Mat.from_rows(rows)
        b = (fr(1), fr(-2), fr(3))
        sol = solve(m, b)
        if sol is not None:
            assert m.apply(sol) == b


class TestHelpers:
    def test_fraction_strings(self):
        assert format_fraction(fr(-3, 7)) == "-3/7"
        assert format_fraction(fr(4)) == "4"
        assert parse_fraction("9/12") == fr(3, 4)

    def test_exact_int_matmul_object_dtype(self):
        a = np.array([[2**40, 1], [0, 3]], dtype=np.int64)
        b = np.array([[2**30, 0], [5, 1]], dtype=np.int64)
        got = exact_int_matmul(a, b)
        assert got[0, 0] == 2**70 + 5

    def test_span_and_expansion(self):
        vecs = [(fr(1), fr(0), fr(1)), (fr(0), fr(1), fr(1))]
        target = (fr(2), fr(3), fr(5))
        coeffs = expand_in_basis(vecs, target)
        assert coeffs == (fr(2), fr(3))
        assert expand_in_basis(vecs, (fr(0), fr(0), fr(1))) is None


# numerators on both sides of 2**62 and mixed denominators: int64 and object
# arrays, and denominators that do not divide each other
_wide = st.one_of(
    _entries,
    st.builds(
        Fraction,
        st.one_of(
            st.integers(2**62 - 2, 2**62 + 2),
            st.sampled_from([-(2**63), 2**63 - 1, -(2**62)]),
            st.integers(-(2**66), 2**66),
        ),
        st.sampled_from([1, 2, 3, 5, 2**61 - 1]),
    ),
)


def _rows(draw, r, c):
    return draw(st.lists(st.lists(_wide, min_size=c, max_size=c), min_size=r, max_size=r))


class TestMatAgainstReference:
    """The integer-array Mat against the Fraction-row reference."""

    def test_dtype_follows_the_2_62_rule(self):
        assert Mat.from_rows([[2**62 - 1, -(2**62) + 1]]).ints.dtype == np.int64
        assert Mat.from_rows([[2**62, 1]]).ints.dtype == object
        # lowest terms bring an object array back to int64
        assert Mat.from_rows([[Fraction(2**70, 3), Fraction(2**69, 3)]]).scale(Fraction(3, 2**68)).ints.dtype == np.int64
        with pytest.raises(ValueError):
            Mat.from_rows([[1, 2], [3]])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_agree(self, data):
        r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        a_rows, b_rows = _rows(data.draw, r, k), _rows(data.draw, r, k)
        c_rows, sq_rows = _rows(data.draw, k, c), _rows(data.draw, r, r)
        v, q = data.draw(st.lists(_wide, min_size=k, max_size=k)), data.draw(_wide)
        a, b, cm, sq = (Mat.from_rows(x) for x in (a_rows, b_rows, c_rows, sq_rows))
        ra, rb, rc, rsq = (RefMat.from_rows(x) for x in (a_rows, b_rows, c_rows, sq_rows))
        pairs = [
            (a, ra), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a.scale(q), ra.scale(q)),
            (a @ cm, ra @ rc), (a.transpose(), ra.transpose()), (kron(a, cm), ref_kron(ra, rc)),
            (sq.commutator(a @ a.transpose()), rsq.commutator(ra @ ra.transpose())), (a - a, ra - ra),
        ]
        for new, ref in pairs:
            assert new.data == ref.data
            assert new.flatten() == ref.flatten()
            assert new.is_zero() == ref.is_zero()
            assert new == Mat.from_rows(ref.data)
            assert all(new[i, j] == ref[i, j] for i in range(ref.rows) for j in range(ref.cols))
            assert new.col(0) == ref.col(0)
        assert a.apply(v) == ra.apply(v)
        assert (a == b) == (ra == rb)
        assert (a == a.scale(Fraction(1, 2))) == ra.is_zero()
        assert nullspace(a) == ref_nullspace(ra)
        assert rank(a) == ref_rank(ra)
        rhs = data.draw(st.one_of(st.just(ra.apply(v)), st.lists(_wide, min_size=r, max_size=r)))
        assert solve(a, rhs) == ref_solve(ra, rhs)
