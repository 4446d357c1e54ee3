"""Exact linear algebra: the layer everything else stands on."""

from collections import Counter
from fractions import Fraction
from math import isqrt, prod
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium import linalg
from jordanium.linalg import (
    _PRIMES,
    Mat,
    _gram,
    _nullspace_modular,
    format_fraction,
    kron,
    nullspace,
    nullspace_int,
    parse_fraction,
    rank,
    rat_reconstruct,
    rref,
    rref_bareiss,
    solve,
    solve_int,
    triples,
    expand_in_basis,
    exact_int_matmul,
)
from mat_reference import (
    RefMat,
    ref_kron,
    ref_nullspace,
    ref_rank,
    ref_rat_reconstruct,
    ref_rref_mod_p,
    ref_solve,
    ref_sum_by_key,
)


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


def kernel_mat(basis: list[tuple], cols: int) -> Mat:
    """The kernel vectors as the rows of one Mat, (0, cols) when there are none."""
    return Mat.from_rows(basis) if basis else Mat.zeros(0, cols)


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
        assert nullspace_int(arr) == (kernel_mat(basis, m.cols), pivots)
        assert nullspace(m) == basis

    def test_frozen_kernel(self):
        # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
        m = Mat.from_rows([[1, 1, 1], [1, 0, -1]])
        ns = nullspace(m)
        assert len(ns) == 1
        v = ns[0]
        scaled = tuple(x / v[2] for x in v)
        assert scaled == (fr(1), fr(-2), fr(1))

    def test_unsigned_input_past_2_63_does_not_wrap(self):
        arr = np.array([[2**63, 1]], dtype=np.uint64)
        kernel, pivots = nullspace_int(arr)
        assert (kernel, pivots) == nullspace_int(np.array([[2**63, 1]], dtype=object))
        assert kernel.ints.tolist() == [[-1, 2**63]] and kernel.den == 2**63
        assert not (arr.astype(object) @ kernel.ints.T).any()
        below = np.array([[2**63 - 1, 1]], dtype=np.uint64)
        assert nullspace_int(below) == nullspace_int(below.astype(np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    def test_non_integer_input_is_refused(self, dtype):
        # [0.5, 1] has the kernel (-2, 1); read as int64 it would be [0, 1], kernel (1, 0)
        arr = np.array([[0.5, 1.0]], dtype=dtype)
        for read in (triples, nullspace_int):
            with pytest.raises(ValueError):
                read(arr)
        assert nullspace_int(np.array([[1, 2]], dtype=np.int32))[0].ints.tolist() == [[-2, 1]]

    def test_canonical_free_coordinates(self):
        arr = np.array([[1, 2, 3, 4], [0, 0, 1, 1]], dtype=np.int64)
        kernel, pivots = nullspace_int(arr)
        free = [k for k in range(4) if k not in pivots]
        assert kernel.rows == len(free) == 2
        for a in range(kernel.rows):
            for b, f in enumerate(free):
                assert kernel[a, f] == (1 if a == b else 0)

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
        kernel, pivots = nullspace_int(arr)
        red, pivots_ref = rref(Mat.from_rows(arr.tolist()))
        assert pivots == pivots_ref
        assert list(kernel.data) == nullspace(Mat.from_rows(arr.tolist()))
        assert kernel == kernel_mat(rref_kernel(red, pivots_ref), arr.shape[1])

    def test_bareiss_fallback_when_primes_run_out(self, monkeypatch):
        # the kernel entries -1/3**130 need more bits than the primes give
        calls = []
        real = linalg.rref_bareiss
        monkeypatch.setattr(linalg, "rref_bareiss", lambda m: calls.append(m) or real(m))
        big = 3**130
        arr = np.array([[big, 1]], dtype=object)
        kernel, pivots = nullspace_int(arr)
        assert len(calls) == 1 and pivots == (0,)
        assert kernel == Mat.from_rows([(Fraction(-1, big), Fraction(1))])

    def test_modular_path_matches_exact(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(-40, 40, size=(30, 24)).astype(np.int64)
        got = _nullspace_modular(triples(arr), linalg._blocks(triples(arr)))
        assert got is not None
        basis_m, pivots_m = got
        basis_e, pivots_e = nullspace_int(arr)
        assert pivots_m == pivots_e
        assert basis_m == basis_e


def kronecker_system(ss: list[np.ndarray], ts: list[np.ndarray]) -> np.ndarray:
    """Rows of T_i H - H S_i = 0 in the entries of a (q x p) matrix H,
    row-major: the shape of the intertwiner system of two modules."""
    p, q = ss[0].shape[0], ts[0].shape[0]
    eye_p, eye_q = np.eye(p, dtype=np.int64), np.eye(q, dtype=np.int64)
    return np.concatenate([np.kron(t, eye_p) - np.kron(eye_q, s.T) for s, t in zip(ss, ts)])


def leibniz_shaped(c: np.ndarray) -> np.ndarray:
    """Rows of X(e_i e_j) - X(e_i) e_j - e_i X(e_j) = 0 in the entries of an
    n x n matrix X, row-major, one block of n rows per pair i <= j, for a
    symmetric integer tensor c: the shape of the derivation system."""
    n = c.shape[0]
    blocks = []
    for i in range(n):
        for j in range(i, n):
            blk = np.zeros((n, n, n), dtype=object)  # blk[r, a, b]: X[a, b] in row r
            blk[np.arange(n), np.arange(n)] += c[i, j]
            blk[:, :, i] -= c[j].T
            blk[:, :, j] -= c[i].T
            blocks.append(blk.reshape(n, n * n))
    return np.concatenate(blocks)


_sparse_small = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
_near_2_62 = st.one_of(
    st.integers(-3, 3), st.integers(2**62 - 4, 2**62 + 4), st.integers(-(2**62) - 4, -(2**62) + 4)
)


def _int_array(rows) -> np.ndarray:
    """An integer array as the engine receives it: int64 when it fits."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


@st.composite
def keyed_values(draw):
    """Keys and values for sum_by_key: a few distinct keys of up to kb bits,
    repeated; int64 values in a span of vb bits, placed anywhere in
    [-2**62, 2**62], with kb + vb on both sides of 63; or the same values
    in object dtype.  Some entries are followed by their negation under
    the same key, so sums cancel."""
    kb = draw(st.integers(0, 62))
    vb = draw(st.sampled_from([0, 1, 2, 62 - kb, 63 - kb, 64 - kb]))
    vb = min(max(vb, 0), 63)
    pool = draw(st.lists(st.integers(0, 2**kb - 1), min_size=1, max_size=4))
    lo = draw(st.integers(-(2**62), 2**62 - (2**vb - 1)))
    cells = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(lo, lo + 2**vb - 1)), max_size=10))
    cells += [(k, -v) for k, v in cells if draw(st.booleans())]
    keys = np.array([k for k, _ in cells], dtype=np.int64)
    vals = np.array([v for _, v in cells], dtype=draw(st.sampled_from([np.int64, object])))
    return keys, vals


class TestSumByKey:
    """sum_by_key, which packs key and value into one sorted int64 word when
    both fit, against the argsort grouping it replaced."""

    @given(keyed_values())
    @settings(max_examples=300, deadline=None)
    def test_matches_argsort_grouping(self, kv):
        keys, vals = kv
        packs = (
            vals.dtype == np.int64
            and keys.size > 0
            and int(keys.max()).bit_length() + (int(vals.max()) - int(vals.min())).bit_length() <= 63
        )
        want = ref_sum_by_key(keys, vals)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = linalg.sum_by_key(keys, vals)
        assert argsort.called == (keys.size > 0 and not packs)
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        if vals.dtype == object:  # no wrap-around: the sums are the exact ones
            exact = Counter()
            for k, v in zip(keys.tolist(), vals.tolist()):
                exact[k] += v
            assert dict(zip(got[0].tolist(), got[1].tolist())) == {k: v for k, v in exact.items() if v}

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty_single_and_cancelling(self, dtype):
        empty = np.zeros(0, dtype=np.int64)
        keys, vals = linalg.sum_by_key(empty, empty.astype(dtype))
        assert keys.size == vals.size == 0
        keys, vals = linalg.sum_by_key(np.array([7]), np.array([-(2**62)], dtype=dtype))
        assert keys.tolist() == [7] and vals.tolist() == [-(2**62)]
        keys, vals = linalg.sum_by_key(np.array([3, 1, 3, 1]), np.array([5, 2, -5, 2], dtype=dtype))
        assert keys.tolist() == [1] and vals.tolist() == [4]

    def test_packs_up_to_63_bits(self):
        # key 2**40 (41 bits) with a span of 2**22 - 1 (22 bits) packs; one
        # more bit of span does not
        keys = np.array([2**40, 0, 2**40], dtype=np.int64)
        for span, packs in ((2**22 - 1, True), (2**22, False)):
            vals = np.array([-(2**61), -(2**61) + span, 1 - 2**61], dtype=np.int64)
            with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                got = linalg.sum_by_key(keys, vals)
            assert argsort.called != packs
            assert got[0].tolist() == [0, 2**40]
            assert got[1].tolist() == [-(2**61) + span, -(2**62) + 1]


class TestSparseEngine:
    """The Gram join, the array reconstruction and the nullspace of tall
    sparse systems against dense and per-entry references."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_gram_join_matches_dense_product(self, data):
        nc = data.draw(st.integers(1, 7))
        nr = data.draw(st.integers(2 * nc + 1, 4 * nc + 3))
        entries = data.draw(st.sampled_from([_sparse_small, _near_2_62]))
        cells = data.draw(
            st.lists(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1), entries), max_size=3 * nr)
        )
        rows = [[0] * nc for _ in range(nr)]
        for r, c, v in cells:
            rows[r][c] = v
        arr = _int_array(rows)
        dense = np.array(rows, dtype=object)
        want = dense.T @ dense
        big = max(abs(v) for row in rows for v in row)
        l1 = max(sum(abs(row[c]) for row in rows) for c in range(nc))
        for block in (linalg._JOIN_PAIRS, 1, 4):
            with mock.patch.object(linalg, "_JOIN_PAIRS", block):
                got = _gram(triples(arr))
            assert got.shape == (nc, nc)
            assert (got.dense() == want).all()
            assert (got.val.dtype == np.int64) == (big * max(l1, 1) < 2**63)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_array_reconstruction_matches_per_entry(self, data):
        m = prod(_PRIMES[: data.draw(st.integers(1, 4))])
        size = 2 * isqrt(m // 2)
        fracs = st.builds(
            lambda a, b: a * pow(b, -1, m) % m, st.integers(-size, size), st.integers(1, min(size, _PRIMES[-1] - 1))
        )
        residues = data.draw(st.lists(st.one_of(fracs, st.integers(0, m - 1)), min_size=1, max_size=12))
        ref = [ref_rat_reconstruct(r, m) for r in residues]
        got = rat_reconstruct(np.array([residues], dtype=np.int64 if m < 2**62 else object), m)
        if None in ref:
            assert got is None
        else:
            num, den = got
            assert num.shape == den.shape == (1, len(residues))
            assert [Fraction(int(a), int(b)) for a, b in zip(num[0], den[0])] == ref

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tall_kronecker_systems_match_rref_reference(self, data):
        n, p, q = data.draw(st.integers(3, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        entries = st.sampled_from([0, 0, 0, 1, -1, 2, 2**40])
        ss = [np.array(data.draw(st.lists(st.lists(entries, min_size=p, max_size=p), min_size=p, max_size=p)), dtype=np.int64) for _ in range(n)]
        # equal actions on both sides make the identity an intertwiner
        ts = ss if p == q and data.draw(st.booleans()) else [
            np.array(data.draw(st.lists(st.lists(entries, min_size=q, max_size=q), min_size=q, max_size=q)), dtype=np.int64)
            for _ in range(n)
        ]
        self._matches_rref_reference(kronecker_system(ss, ts))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tall_leibniz_systems_match_rref_reference(self, data):
        n = data.draw(st.integers(4, 5))  # tall from n = 4 on: n**2 (n + 1) / 2 rows
        c = np.zeros((n, n, n), dtype=object)
        for i, j, k, v in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3, _sparse_small), max_size=2 * n * n)):
            c[i, j, k] = c[j, i, k] = v
        self._matches_rref_reference(_int_array(leibniz_shaped(c).tolist()))

    @staticmethod
    def _matches_rref_reference(arr: np.ndarray) -> None:
        assert arr.shape[0] > 2 * arr.shape[1]
        red, pivots = rref(Mat.from_rows(arr.tolist()))
        assert nullspace_int(arr) == (kernel_mat(rref_kernel(red, pivots), arr.shape[1]), pivots)


@st.composite
def _block_systems(draw):
    """(matrix, p): blocks on the diagonal, rows and columns shuffled.

    One block or several, some of one shape so that they share a stack,
    with empty rows and columns, and coupling entries that are multiples
    of p: those join blocks over the integers but vanish mod p.
    """
    p = draw(st.sampled_from([2, 3, 7, _PRIMES[0]]))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, p])
    shapes = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5)), min_size=1, max_size=6))
    if draw(st.booleans()):
        shapes = [shapes[0]] * len(shapes)
    nr = sum(r for r, _ in shapes) + draw(st.integers(0, 2))
    nc = sum(c for _, c in shapes) + draw(st.integers(0, 2))
    arr = np.zeros((nr, nc), dtype=np.int64)
    r0 = c0 = 0
    for r, c in shapes:
        if r:
            block = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
            arr[r0 : r0 + r, c0 : c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    if nr:
        cells = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1), st.integers(-2, 2))
        for i, j, q in draw(st.lists(cells, max_size=4)):
            arr[i, j] += q * p
    rows, cols = draw(st.permutations(range(nr))), draw(st.permutations(range(nc)))
    return arr[list(rows)][:, list(cols)], p


class TestComponentEngine:
    """Elimination by connected components against the per-column
    reference, the sparse verifying product, and the engine's routes."""

    @given(_block_systems())
    @settings(max_examples=250, deadline=None)
    def test_component_elimination_matches_per_column_reference(self, system):
        arr, p = system
        nc = arr.shape[1]
        ref, ref_pivots = ref_rref_mod_p(arr, p)
        free = [c for c in range(nc) if c not in ref_pivots]
        for blocks in (linalg._components(triples(arr)), arr):
            pivots, red = linalg._eliminate_mod_p(blocks, nc, p)
            assert pivots == ref_pivots
            rows = np.zeros((len(pivots), nc), dtype=np.int64)
            rows[np.arange(len(pivots)), list(pivots)] = 1
            rows[:, free] = red
            assert (rows == ref[: len(pivots)]).all()
            assert not ref[len(pivots) :].any()

    def test_verification_rejects_a_changed_entry(self):
        arr = block_system(7, 10, (3, 4))
        system = triples(arr)
        kernel, _ = nullspace_int(arr)
        assert kernel.rows and linalg._verify(system, kernel)
        for i in range(kernel.rows):
            for j in np.flatnonzero(arr.any(axis=0)):
                bent = kernel.ints.copy()
                bent[i, j] += 1
                assert not linalg._verify(system, Mat(bent, kernel.den))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_join_matches_dense_product(self, data):
        nr, nc, f = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)), data.draw(st.integers(0, 4))
        entries = data.draw(st.sampled_from([_sparse_small, _near_2_62]))
        a = _int_array(data.draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr)))
        b = _int_array(data.draw(st.lists(st.lists(entries, min_size=f, max_size=f), min_size=nc, max_size=nc)))
        b = b.reshape(nc, f)
        want = a.astype(object) @ b.astype(object)
        # the left entries in any order the caller gives them
        row, inner = np.nonzero(a)
        order = np.array(data.draw(st.permutations(range(row.size))), dtype=np.int64)
        row, inner = row[order], inner[order]
        right = triples(b)
        l1 = int(np.abs(b.astype(object)).sum(axis=0).max(initial=0))
        fits = int(np.abs(a.astype(object)).max()) * max(l1, 1) < 2**63
        for block in (linalg._JOIN_PAIRS, 1, 3):
            with mock.patch.object(linalg, "_JOIN_PAIRS", block):
                dense = linalg.sparse_join(row, inner, a[row, inner], right, nr)
                keyed = linalg.sparse_join(row, inner, a[row, inner], right, nr, keyed=True)
            assert dense.shape == keyed.shape == (nr, f)
            assert (dense == want).all() and (keyed.dense() == want).all()
            assert (dense.dtype == np.int64) == (keyed.val.dtype == np.int64) == fits
            assert np.array_equal(np.column_stack((keyed.row, keyed.col)), np.argwhere(want != 0))

    def test_join_switches_to_object_past_its_bound(self):
        # max|left| = 2**31 and the right's largest column L1 sum is 2 top:
        # int64 while 2**31 * 2 top < 2**63
        a = np.array([[2**31, 2**31], [0, 1], [0, 0]], dtype=np.int64)
        row, inner = np.nonzero(a)
        for top, dtype in ((2**31 - 1, np.int64), (2**31, object)):
            b = np.array([[top, 1], [top, -1]], dtype=np.int64)
            want = a.astype(object) @ b.astype(object)
            dense = linalg.sparse_join(row, inner, a[row, inner], triples(b), 3)
            keyed = linalg.sparse_join(row, inner, a[row, inner], triples(b), 3, keyed=True)
            assert dense.dtype == keyed.val.dtype == dtype
            assert (dense == want).all() and (keyed.dense() == want).all()

    def test_each_route_is_a_module_function(self, monkeypatch):
        # an outside tracer can wrap every route of the engine by name
        calls = Counter()
        for name in ("_gram", "_components", "_eliminate_mod_p", "_nullspace_bareiss", "_verify"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
        arr = block_system(3, 30, (11, 3))  # tall and wide enough to be labelled
        assert arr.shape[0] > 2 * arr.shape[1] >= 2 * linalg._LABEL_MIN_COLS
        nullspace_int(arr)
        assert calls["_gram"] == calls["_components"] == 1
        assert calls["_verify"] == calls["_eliminate_mod_p"] >= 1
        calls.clear()
        nullspace_int(np.array([[3**130, 1]], dtype=object))  # the primes run out
        assert calls["_eliminate_mod_p"] == len(_PRIMES) and calls["_nullspace_bareiss"] == 1
        assert not calls["_gram"] and not calls["_components"]


class TestReconstruction:
    def test_round_trip_small_fractions(self):
        m = 1
        for p in _PRIMES[:4]:
            m *= p
        qs = [fr(3, 7), fr(-22, 5), fr(0), fr(1001, 999)]
        res = np.array([(q.numerator * pow(q.denominator, -1, m)) % m for q in qs], dtype=object)
        assert [ref_rat_reconstruct(int(r), m) for r in res] == qs
        num, den = rat_reconstruct(res, m)
        assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == qs

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

    def test_solve_is_canonical_under_a_bad_first_prime(self):
        # mod the first prime the row is (0, 1, 1): x = (0, 1, 0) solves it
        # exactly, but the reduced echelon solution is (1/p, 0, 0)
        p = _PRIMES[0]
        assert solve(Mat.from_rows([[p, 1, 1]]), [1]) == (fr(1, p), fr(0), fr(0))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_int_columns_match_one_at_a_time(self, data):
        nr, nc, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        ints = st.integers(-4, 4)
        rows = data.draw(st.lists(st.lists(ints, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
        m = RefMat.from_rows(rows)
        # right-hand sides in the column space and not, in any order
        cols = [
            list(m.apply(data.draw(st.lists(ints, min_size=nc, max_size=nc))))
            if data.draw(st.booleans())
            else data.draw(st.lists(ints, min_size=nr, max_size=nr))
            for _ in range(k)
        ]
        got = solve_int(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64).T.reshape(nr, k))
        for b, x in zip(cols, got, strict=True):
            want = ref_solve(m, b)
            assert (x is None) == (want is None)
            assert x is None or x.row(0) == want

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

    def test_unsigned_entries_past_2_63_do_not_wrap(self):
        m = Mat(np.array([[2**64 - 1, 2**63]], dtype=np.uint64))
        assert m.ints.dtype == object and m.ints.tolist() == [[2**64 - 1, 2**63]]
        small = Mat(np.array([[2**62 - 1, 0]], dtype=np.uint64))
        assert small.ints.dtype == np.int64 and small.ints.tolist() == [[2**62 - 1, 0]]

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
