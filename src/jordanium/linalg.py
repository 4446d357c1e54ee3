"""Exact rational linear algebra.

Scalars and vectors are ``fractions.Fraction`` values and tuples of them.  A
matrix (:class:`Mat`) is one integer array and one positive denominator in
lowest terms: int64 while every entry is below 2**62 in size, Python ints
(object dtype) otherwise.  Sums, products, Kronecker products and equality
are array operations on it, every product one :func:`exact_int_matmul`.  The
routines favour determinism: pivoting always picks the first nonzero entry
in row-major order, and nullspace bases are returned in reduced echelon
form, so identical inputs give identical outputs on every run.

Every exact solve goes through one nullspace engine on integer matrices,
given as a dense array (a Mat's own array) or as :class:`Triples`: the
nonzero (row, column, value) entries in sorted order, the shape and the row
offsets.  A dense array is read into triples by one ``np.nonzero``.  Sparse
products are one join (:func:`sparse_join`), summed into a dense array or
by key (:func:`sum_by_key`, which sorts key and value as one packed int64
word when both fit in 63 bits).  A system with more than twice as many rows
as columns is first replaced by its Gram matrix, which has the same
nullspace: the keyed join of its triples with themselves.  A work matrix of
at least ``_LABEL_MIN_COLS`` columns is split into its connected
components; the RREF of a block-diagonal matrix is the union of its
blocks', so components of similar size are stacked and eliminated together,
one step per column of the largest of them.  The engine eliminates modulo
word-size primes, combines the residues by CRT and lifts them by one
rational reconstruction over the whole residue array
(:func:`rat_reconstruct`).  The kernel is one :class:`Mat` whose rows are
the reduced echelon basis, checked once, exactly, against the full system
by the join of its triples with the kernel's.  Bareiss (fraction-free)
elimination runs only when the primes run out without a verified answer.
Each route is a module-level function that a tracer outside the package can
wrap: ``_gram``, ``_components``, ``_eliminate_mod_p`` (once per prime),
``_nullspace_bareiss`` and ``_verify``.  :func:`rref` stays as the plain
rational reference.
:func:`solve` reads the kernel of [A | b].

Operator identities run on integer stacks of one scale (:func:`scaled_int_mats`),
each :func:`pair_products` or :func:`commutators` one :func:`exact_int_matmul`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

Vec = tuple[Fraction, ...]

# Primes just below 2**21: residues fit in int64 with exact products
# (p*p < 2**42).
_PRIMES = (
    2097143, 2097133, 2097131, 2097097, 2097091, 2097083, 2097047, 2097041,
    2097031, 2097023, 2097013, 2096993, 2096987, 2096971, 2096959, 2096957,
)


def frac(x) -> Fraction:
    """Coerce ints, strings like '-3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to exact rational: %r" % (x,))
    return Fraction(x)


def format_fraction(q: Fraction) -> str:
    return str(frac(q))


def parse_fraction(s) -> Fraction:
    """A rational from an int or a string like '-3/4'; ValueError for anything else."""
    if isinstance(s, (float, bool)):
        raise ValueError("wire numbers are ints or strings, not %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def parse_int(x) -> int:
    """An index or dimension from an int or a string of one; ValueError for anything else."""
    if isinstance(x, (float, bool)):
        raise ValueError("expected an integer, not %r" % (x,))
    return int(x)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class Mat:
    """Exact rational matrix ints / den: one integer array and one positive
    denominator, kept in lowest terms (the layout of FLINT's ``fmpq_mat``).

    ints is int64 when every entry is below 2**62 in size, so the sum or
    difference of two such arrays cannot overflow, and object dtype (Python
    ints) otherwise.  It is a read-only view.  Equal matrices have equal
    shape, den and ints, so equality is one array comparison.  ``data`` is
    the same matrix as row tuples of ``Fraction``, built on first use.
    """

    __slots__ = ("ints", "den", "_data")

    def __init__(self, ints: np.ndarray, den: int = 1):
        if ints.ndim != 2 or (ints.dtype != object and ints.dtype.kind not in "biu"):
            raise ValueError("a Mat is a 2-D integer array and a denominator")
        den = int(den)
        if den <= 0:
            raise ValueError("the denominator must be positive")
        ints = _signed(ints)
        if den > 1:
            g = gcd(den, int(np.gcd.reduce(ints, axis=None)))  # den when ints is 0
            if g > 1:
                ints = (ints if g < 2**63 else ints.astype(object)) // g
                den //= g
        fits = max_abs_int(ints) < 2**62
        if fits != (ints.dtype != object):
            ints = ints.astype(np.int64 if fits else object)
        self.ints = ints.view()
        self.ints.flags.writeable = False
        self.den = den
        self._data: Optional[tuple[Vec, ...]] = None

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "Mat":
        """The matrix of rows of rationals: ints, Fractions or strings like
        '-3/4'; ValueError when the rows differ in length."""
        rows = [[x if type(x) is Fraction else frac(x) for x in r] for r in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("matrix rows differ in length")
        dens = [x.denominator for r in rows for x in r]
        den = lcm(*dens)
        flat = [x.numerator * (den // d) for x, d in zip((x for r in rows for x in r), dens)]
        try:
            ints = np.array(flat, dtype=np.int64)
        except OverflowError:
            ints = np.array(flat, dtype=object)
        return Mat(ints.reshape(len(rows), cols), den)

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat(np.zeros((r, c), dtype=np.int64))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.ints.shape[0]

    @property
    def cols(self) -> int:
        return self.ints.shape[1]

    def _fractions(self, ints: list[int]) -> Vec:
        zero, d = Fraction(0), self.den
        return tuple(Fraction(v, d) if v else zero for v in ints)

    @property
    def data(self) -> tuple[Vec, ...]:
        if self._data is None:
            self._data = tuple(map(self._fractions, self.ints.tolist()))
        return self._data

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return Fraction(int(self.ints[ij]), self.den)

    def row(self, i: int) -> Vec:
        return self._fractions(self.ints[i].tolist())

    def col(self, j: int) -> Vec:
        return self._fractions(self.ints[:, j].tolist())

    def nonzero_rows(self) -> list[int]:
        return np.flatnonzero((self.ints != 0).any(axis=1)).tolist()

    def _aligned(self, other: "Mat") -> tuple[np.ndarray, np.ndarray, int]:
        """Both integer arrays over the common denominator, and that denominator."""
        if self.ints.shape != other.ints.shape:
            raise ValueError("shape mismatch in matrix sum")
        d = lcm(self.den, other.den)
        return scale_ints(self.ints, d // self.den), scale_ints(other.ints, d // other.den), d

    def __add__(self, other: "Mat") -> "Mat":
        a, b, d = self._aligned(other)
        return Mat(a + b, d)

    def __sub__(self, other: "Mat") -> "Mat":
        a, b, d = self._aligned(other)
        return Mat(a - b, d)

    def __neg__(self) -> "Mat":
        return Mat(-self.ints, self.den)

    def scale(self, c) -> "Mat":
        c = frac(c)
        return Mat(scale_ints(self.ints, c.numerator), self.den * c.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return Mat(exact_int_matmul(self.ints, other.ints), self.den * other.den)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return (self @ Mat.from_rows([v]).transpose()).flatten()

    def transpose(self) -> "Mat":
        return Mat(self.ints.T, self.den)

    def commutator(self, other: "Mat") -> "Mat":
        return self @ other - other @ self

    def flatten(self) -> Vec:
        return self._fractions(self.ints.ravel().tolist())

    def is_zero(self) -> bool:
        return not self.ints.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.den == other.den
            and self.ints.shape == other.ints.shape
            and np.array_equal(self.ints, other.ints)
        )

    def __hash__(self) -> int:
        return hash((self.ints.shape, self.den, tuple(self.ints.ravel().tolist())))

    def __repr__(self) -> str:  # keep debug output short
        return "Mat(%dx%d)" % (self.rows, self.cols)


# ---------------------------------------------------------------------------
# exact reduced row echelon form


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form over the rationals.

    Pivoting is deterministic: scan columns left to right, take the first row
    with a nonzero entry.  Returns the RREF and the pivot column indices.
    """
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Mat.from_rows(a), tuple(pivots)


def rref_bareiss(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Same RREF via fraction-free (Bareiss) elimination on a scaled copy.

    Works on the integer array of m, keeps all intermediate entries integral
    via the two-step exact division, and normalizes at the end.  Used as the
    fallback for the modular solver; the RREF of a matrix is unique, so this
    must agree with :func:`rref`.
    """
    nr, nc = m.rows, m.cols
    a: list[list[int]] = m.ints.tolist()
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        for i in range(nr):
            if i == r:
                continue
            fi = a[i][c]
            if fi == 0 and piv == prev:
                continue  # the update would leave the row as it is
            a[i] = [(piv * a[i][j] - fi * a[r][j]) // prev for j in range(nc)]
        prev = piv
        pivots.append(c)
        r += 1
    if any(any(row) for row in a[r:]):
        raise AssertionError("Bareiss left a nonzero non-pivot row")
    # every step scales the earlier pivot rows alike: each pivot ends as prev
    out = np.array(a, dtype=object).reshape(nr, nc)
    return Mat(out if prev > 0 else -out, abs(prev)), tuple(pivots)


def _free_columns(nc: int, pivots: Sequence[int]) -> np.ndarray:
    free = np.ones(nc, dtype=bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def rat_reconstruct(res: np.ndarray, m: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Wang's rational reconstruction of every entry of an integer array mod m.

    Returns (num, den) with num = res * den mod m, |num| and den at most
    sqrt(m / 2), den > 0 and gcd(num, den) = 1 entrywise, or None when some
    entry has no such fraction.  One extended Euclidean loop runs on all
    entries at once, each leaving it when its remainder falls to the bound.
    Every remainder and cofactor stays below m in size: int64 while
    m < 2**62, object dtype otherwise.
    """
    dtype = np.int64 if m < 2**62 else object
    bound = isqrt(m // 2)
    s0, s1 = np.full(res.size, m, dtype=dtype), (res.ravel() % m).astype(dtype)
    t0, t1 = np.zeros(res.size, dtype=dtype), np.ones(res.size, dtype=dtype)
    live = np.flatnonzero(s1 > bound)
    while live.size:
        a, b = s0[live], s1[live]
        q = a // b
        s0[live], s1[live] = b, a - q * b
        a, b = t0[live], t1[live]
        t0[live], t1[live] = b, a - q * b
        live = live[s1[live] > bound]
    # t1 is never 0: its size grows at every step from 1
    if max_abs_int(t1) > bound:
        return None
    num, den = np.where(t1 < 0, -s1, s1), np.abs(t1)
    if (np.gcd(num, den) != 1).any():
        return None
    return num.reshape(res.shape), den.reshape(res.shape)


def _crt_pair(r1: np.ndarray, m1: int, r2: np.ndarray, m2: int) -> np.ndarray:
    """Entrywise x = r1 mod m1, x = r2 mod m2, in [0, m1 m2): int64 while
    m1 m2 < 2**62 (r1 is reduced mod m2 first), object dtype otherwise."""
    if m1 * m2 >= 2**62:
        r1, r2 = r1.astype(object), r2.astype(object)
    return r1 + m1 * ((r2 - r1 % m2) * pow(m1, -1, m2) % m2)


def max_abs_int(arr: np.ndarray) -> int:
    if not arr.size:
        return 0
    a = np.abs(arr)
    # np.abs leaves int64's -2**63 negative; read unsigned, it is 2**63
    return int((a.view(np.uint64) if a.dtype == np.int64 else a).max())


def exact_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer matrices, picking the cheapest safe dtype.

    Float64 BLAS is used when every partial sum provably stays below 2**53,
    which also makes the result independent of BLAS thread count.
    """
    inner = a.shape[1]
    bound = max_abs_int(a) * max_abs_int(b) * max(inner, 1)
    if a.dtype != object and b.dtype != object:
        if bound < 2**53:
            prod = a.astype(np.float64) @ b.astype(np.float64)
            return np.rint(prod).astype(np.int64)
        if bound < 2**62:
            return a.astype(np.int64) @ b.astype(np.int64)
    ao = a.astype(object)
    bo = b.astype(object)
    return ao @ bo


# ---------------------------------------------------------------------------
# stacks of integer operators


def scale_ints(arr: np.ndarray, s: int) -> np.ndarray:
    """s * arr for an integer array, exactly: int64 only while every entry
    stays below 2**62 in size, object dtype otherwise."""
    if s == 1:
        return arr
    if arr.dtype != object and max(max_abs_int(arr), 1) * abs(s) >= 2**62:
        arr = arr.astype(object)
    return arr * s


def scaled_int_mats(*stacks: Sequence[Mat]) -> tuple[tuple[np.ndarray, ...], int]:
    """Stacks of equal-shape matrices as (len, rows, cols) integer arrays
    s * stack, for s the lcm of their denominators, so identities between
    stacks carry equal powers of s on both sides."""
    s = lcm(*(m.den for st in stacks for m in st))
    return tuple(
        np.stack([scale_ints(m.ints, s // m.den) for m in st])
        if st
        else np.zeros((0, 0, 0), dtype=np.int64)
        for st in stacks
    ), s


def pair_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """p[s, t] = X_s Y_t for stacks of integer matrices, as one exact product."""
    (b, r, k), (d, _, c) = xs.shape, ys.shape
    prod = exact_int_matmul(xs.reshape(b * r, k), ys.transpose(1, 0, 2).reshape(k, d * c))
    return prod.reshape(b, r, d, c).transpose(0, 2, 1, 3)


def commutators(xs: np.ndarray) -> np.ndarray:
    """c[s, t] = [X_s, X_t] for a stack of square integer matrices.

    Every product comes from one exact_int_matmul, int64 below 2**62 or
    object dtype, so the difference of two cannot overflow.
    """
    prod = pair_products(xs, xs)
    return prod - prod.transpose(1, 0, 2, 3)


def kron(b: Mat, m: Mat) -> Mat:
    """Kronecker product: out[i * m.rows + r, j * m.cols + c] = b[i, j] * m[r, c]."""
    x, y = b.ints, m.ints
    if max_abs_int(x) * max_abs_int(y) >= 2**62:
        x, y = x.astype(object), y.astype(object)
    return Mat(np.kron(x, y), b.den * m.den)


# ---------------------------------------------------------------------------
# sparse systems


class Triples(NamedTuple):
    """An integer matrix by its nonzero entries: row, col and val in
    increasing (row, column) order, val int64 or object dtype, the shape,
    the row offsets ptr (row i is entries ptr[i]:ptr[i + 1]) and col_l1, the
    largest L1 sum of a column, computed once by the builder of the triples."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]
    ptr: np.ndarray
    col_l1: int

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.val.dtype)
        out[self.row, self.col] = self.val
        return out


def _triples(row: np.ndarray, col: np.ndarray, val: np.ndarray, shape: tuple[int, int]) -> Triples:
    ptr = np.searchsorted(row, np.arange(shape[0] + 1))
    wide = val.dtype == object or max_abs_int(val) * val.size >= 2**63
    l1 = np.zeros(shape[1], dtype=object if wide else np.int64)
    np.add.at(l1, col, np.abs(val.astype(l1.dtype, copy=False)))
    return Triples(row, col, val, shape, ptr, int(l1.max(initial=0)))


def _signed(arr: np.ndarray) -> np.ndarray:
    """An integer array in int64, or in object dtype when it is object or unsigned past 2**63."""
    wide = arr.dtype == object or (arr.dtype.kind == "u" and max_abs_int(arr) >= 2**63)
    return arr.astype(object if wide else np.int64, copy=False)


def triples(arr: np.ndarray) -> Triples:
    """The nonzero entries of a dense integer array, read by one np.nonzero."""
    if arr.dtype != object and arr.dtype.kind not in "biu":
        raise ValueError("triples are read from an integer array")
    arr = _signed(arr)
    r, c = np.nonzero(arr)
    return _triples(r, c, arr[r, c], arr.shape)


def triples_by_key(keys: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> Triples:
    """The matrix whose entry (k // cols, k % cols) is the sum of the values
    under key k (:func:`sum_by_key`)."""
    keys, vals = sum_by_key(keys, vals)
    r, c = np.divmod(keys, max(shape[1], 1))
    del keys  # freed before _triples' temporaries, which peak memory would otherwise add to
    return _triples(r, c, vals, shape)


def row_pairs(ptr: np.ndarray, rows: np.ndarray, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Join positions into rows with the entries of CSR rows (row offsets
    ptr): pair t is position first + left[t] with entry right[t] of its row."""
    cnt = ptr[rows + 1] - ptr[rows]
    left = np.repeat(np.arange(first, first + len(rows)), cnt)
    right = np.arange(left.size) + np.repeat(ptr[rows] - np.cumsum(cnt) + cnt, cnt)
    return left, right


def sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in increasing order with the nonzero sums of their values.

    Integer keys and values are grouped by one sort of the packed words
    (key << vb) | (value - min), vb the bits of the value span, when the
    keys are nonnegative and key and span bits add up to at most 63; any
    other input (object values, keys or spans too wide to pack) is grouped
    by an argsort of the keys.  Each caller keeps its sums exact under its
    own bound, so the order of the additions does not change them.
    """
    if keys.size == 0:
        return keys, vals
    packs = vals.dtype == np.int64 and keys.dtype == np.int64 and keys.min() >= 0
    if packs:
        lo = int(vals.min())
        vb = (int(vals.max()) - lo).bit_length()
        packs = int(keys.max()).bit_length() + vb <= 63
    if packs:
        packed = np.sort((keys << vb) | (vals - lo))
        keys, vals = packed >> vb, (packed & ((1 << vb) - 1)) + lo
    else:
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(vals, starts)
    nz = sums != 0
    return keys[starts][nz], sums[nz]


_JOIN_PAIRS = 2**21  # products per block of a join, bounding its memory


def sparse_join(
    row: np.ndarray, inner: np.ndarray, val: np.ndarray, right: Triples, rows: int, keyed: bool = False
) -> Union[np.ndarray, Triples]:
    """L R for L by its nonzero entries (row, inner, val), in any order with
    distinct (row, inner), and R as triples (Gustavson's row-by-row product):
    each entry of L meets the row of R that inner selects, at most
    _JOIN_PAIRS products at a time, added into a dense (rows, cols) array by
    np.add.at or, keyed, summed by key into :class:`Triples`.  Entry (i, j)
    sums max|L| |R[k, j]| over distinct k at most: int64 while
    max|L| max(R.col_l1, 1) < 2**63, object dtype otherwise."""
    cols = right.shape[1]
    dtype = np.int64 if max_abs_int(val) * max(right.col_l1, 1) < 2**63 else object
    val = val.astype(dtype, copy=False)
    cnt = right.ptr[inner + 1] - right.ptr[inner]
    ends = np.cumsum(cnt)  # products up to each entry of L
    first = right.ptr[inner] - ends + cnt  # entry of R of pair p of entry t is p + first[t]
    out = np.zeros(0 if keyed else rows * cols, dtype=dtype)  # keyed: the empty first sums
    parts = [(np.zeros(0, dtype=np.int64), out)]
    lo = 0
    while lo < val.size:
        done = ends[lo] - cnt[lo]
        hi = val.size
        if ends[-1] - done > _JOIN_PAIRS:  # the search is a sixth of a small join's time
            hi = max(lo + 1, int(np.searchsorted(ends, done + _JOIN_PAIRS, side="right")))
        t = np.repeat(np.arange(lo, hi), cnt[lo:hi])
        u = np.arange(done, ends[hi - 1]) + first[t]
        # v in place, t and u freed before the sums and k and v before the next
        # block: each would otherwise add a block-sized array to the peak
        k = row[t] * cols + right.col[u]
        v = right.val[u].astype(dtype, copy=False)
        v *= val[t]
        del t, u
        if keyed:
            parts.append(sum_by_key(k, v))
        else:
            np.add.at(out, k, v)
        del k, v
        lo = hi
    if keyed:
        return triples_by_key(*map(np.concatenate, zip(*parts)), (rows, cols))
    return out.reshape(rows, cols)


def _gram(a: Triples) -> Triples:
    """A^T A of an integer matrix A: the keyed join of its triples, entry
    (r, c) meeting every entry of row r under the key (c, column)."""
    return sparse_join(a.col, a.row, a.val, a, a.shape[1], keyed=True)


# ---------------------------------------------------------------------------
# the nullspace engine

# Work matrices of at least this many columns are split into connected
# components before elimination; smaller ones are eliminated whole.
# Labelling costs a fixed few hundred microseconds of numpy calls.  On the
# 74 nullspaces of a calculus round (2-72 columns, 64 of them 4 x 2; the
# systems captured from one round, best of 9 on 2 vCPUs), labelling every
# system took 18.7 ms against 12.2 ms from 16, 32 or 64 columns on, and
# 13.9 ms from 128; on the 29 of a derivation-algebra round 64 was best.
_LABEL_MIN_COLS = 64


def _label(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The smallest node of each node's connected component, in the graph
    on n nodes with edges (u, v): every root takes the smallest root it
    meets along an edge, then the links are followed to their roots,
    until no edge joins two roots."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        low = np.minimum(lu, lv)
        new = lab.copy()
        np.minimum.at(new, lu, low)
        np.minimum.at(new, lv, low)
        jump = new[new]
        while (jump != new).any():
            new, jump = jump, jump[jump]
        if (new == lab).all():
            return lab
        lab = new


# a work matrix split into groups of components (stack, cols) by
# _components, or, below _LABEL_MIN_COLS columns, the dense matrix itself
Blocks = Union[list[tuple[np.ndarray, np.ndarray]], np.ndarray]


def _components(work: Triples) -> Blocks:
    """The work matrix split into connected components, stacked in groups.

    Rows and columns are the nodes and nonzero entries the edges.  A group
    (stack, cols) holds K components as a zero-padded (K, R, C) stack,
    each with its rows in any order and its columns in increasing order,
    and cols (K, C) their global columns, -1 on padding.  Empty columns are
    in no component.
    """
    nr, nc = work.shape
    lab = _label(work.col, nc + work.row, nc + nr)
    cols = np.bincount(work.col, minlength=nc).nonzero()[0]
    rows = np.bincount(work.row, minlength=nr).nonzero()[0]
    # a component is named by its smallest node, which is one of its columns
    names = cols[lab[cols] == cols]
    col_comp = np.searchsorted(names, lab[cols])
    col_place, ncols = _places(col_comp, names.size)
    row_place, nrows = _places(np.searchsorted(names, lab[nc + rows]), names.size)
    group, slot, shapes = _grouping(nrows, ncols)
    comp = np.searchsorted(names, lab[work.col])
    at_row = row_place[np.searchsorted(rows, work.row)]
    at_col = col_place[np.searchsorted(cols, work.col)]
    blocks: Blocks = []
    for g, shape in enumerate(shapes):
        stack = np.zeros(shape, dtype=work.val.dtype)
        mine = group[comp] == g
        stack[slot[comp[mine]], at_row[mine], at_col[mine]] = work.val[mine]
        gcols = np.full((shape[0], shape[2]), -1)
        mine = group[col_comp] == g
        gcols[slot[col_comp[mine]], col_place[mine]] = cols[mine]
        blocks.append((stack, gcols))
    return blocks


def _places(owner: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For nodes in increasing order and their owners 0..k-1: each node's
    place among its owner's nodes, and the count per owner."""
    counts = np.bincount(owner, minlength=k)
    order = np.argsort(owner, kind="stable")
    place = np.empty(owner.size, dtype=np.int64)
    place[order] = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return place, counts


def _grouping(nrows: np.ndarray, ncols: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """Components in groups, most columns first: a group takes the next
    component while its zero-padded stack holds at most four times the
    entries of its components' dense blocks.  Returns each component's
    group and slot in it, and each group's stack shape (K, R, C)."""
    group = np.zeros(ncols.size, dtype=np.int64)
    slot = np.zeros(ncols.size, dtype=np.int64)
    groups: list[list[int]] = []  # [K, most rows, columns, entries of the dense blocks]
    for k in np.argsort(-ncols, kind="stable").tolist():
        r, c = int(nrows[k]), int(ncols[k])
        g = groups[-1] if groups else None
        if g is not None and (g[0] + 1) * max(g[1], r) * g[2] <= 4 * (g[3] + r * c):
            g[0], g[1], g[3] = g[0] + 1, max(g[1], r), g[3] + r * c
        else:
            groups.append([1, r, c, r * c])
        group[k], slot[k] = len(groups) - 1, groups[-1][0] - 1
    return group, slot, [(g[0], g[1], g[2]) for g in groups]


def _blocks(work: Triples) -> Blocks:
    return _components(work) if work.shape[1] >= _LABEL_MIN_COLS else work.dense()


def _rref_mod_p(m: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan over GF(p) of one matrix, one column at a time, with the
    pivot rule of :func:`rref`; only the rows nonzero in the pivot column
    are updated.  Returns the reduced matrix and the pivot columns."""
    a = np.mod(m, p).astype(np.int64)
    nr, nc = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # row r is 0 left of c, so only columns c onward change
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, p)) % p
        colv = a[:, c].copy()
        colv[r] = 0
        tgt = np.nonzero(colv)[0]
        if tgt.size:
            a[tgt, c:] = (a[tgt, c:] - colv[tgt, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _rref_stack_mod_p(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan over GF(p) of every matrix of a (K, R, C) stack at once,
    one step per column; each step updates every row of the matrices with
    a pivot in that column.

    In each matrix the first row not yet a pivot row and nonzero in the
    column becomes its pivot row; the reduced rows are the RREF whichever
    is taken.  Returns the reduced pivot rows as a (P, C) array, and for
    each its matrix and its pivot column, in column order.
    """
    nk, nr, nc = stack.shape
    a = np.mod(stack, p).astype(np.int64)
    unused = np.ones((nk, nr), dtype=bool)
    found = []
    for c in range(nc):
        live = (a[:, :, c] != 0) & unused
        k = live.any(axis=1).nonzero()[0]
        if k.size == 0:
            continue
        r = live[k].argmax(axis=1)
        # the pivot rows are 0 left of c, so only columns c onward change
        top = a[k, r, c:]
        top = top * np.array([pow(x, -1, p) for x in top[:, 0].tolist()], dtype=np.int64)[:, None] % p
        sel = slice(None) if k.size == nk else k  # a slice is a view, not a copy
        blk = a[sel, :, c:]
        blk = (blk - blk[:, :, :1] * top[:, None, :]) % p
        blk[np.arange(k.size), r] = top
        a[sel, :, c:] = blk
        unused[k, r] = False
        found.append((k, r, np.full(k.size, c)))
    if not found:
        return a[:0, 0], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    k, r, c = (np.concatenate(x) for x in zip(*found))
    return a[k, r], k, c


def _eliminate_mod_p(blocks: Blocks, nc: int, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The RREF mod p of a work matrix with nc columns, from its blocks.

    Returns the pivot columns and red, with red[i, t] the entry of the
    pivot row of pivots[i] at the t-th free column; the row is 1 at its
    pivot and 0 at the other pivots.  The RREF of a block-diagonal matrix
    is the union of its blocks' RREFs, each over its columns in increasing
    order.  A stack of one matrix is eliminated by :func:`_rref_mod_p`,
    which skips the rows that are 0 in the pivot column; a stack of
    several, all at once.
    """
    if isinstance(blocks, np.ndarray):
        red, pivots = _rref_mod_p(blocks, p)
        return pivots, red[: len(pivots)][:, _free_columns(nc, pivots)]
    found = []
    for stack, cols in blocks:
        if len(stack) == 1:
            red, c = _rref_mod_p(stack[0], p)
            red, k, c = red[: len(c)], np.zeros(len(c), dtype=np.int64), np.array(c, dtype=np.int64)
        else:
            red, k, c = _rref_stack_mod_p(stack, p)
        i, j = red.nonzero()
        off = j != c[i]  # the other nonzero entries are at free columns
        i, j = i[off], j[off]
        found.append((cols[k, c], cols[k, c][i], cols[k[i], j], red[i, j]))
    pivots = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [f[0] for f in found]))
    free = _free_columns(nc, pivots)
    red = np.zeros((pivots.size, free.size), dtype=np.int64)
    for _, at_piv, at_free, vals in found:
        red[np.searchsorted(pivots, at_piv), np.searchsorted(free, at_free)] = vals
    return tuple(pivots.tolist()), red


def _verify(system: Triples, kernel: Mat) -> bool:
    """Whether every kernel row is annihilated by the full system, exactly."""
    return not sparse_join(system.row, system.col, system.val, triples(kernel.ints.T), system.shape[0]).any()


def _kernel(nc: int, pivots: Sequence[int], num: np.ndarray, den) -> Mat:
    """The canonical kernel, over the lcm of the denominators: the vector of
    the t-th free column f is 1 at f, 0 at every other free column and
    num[i, t] / den at pivots[i] (den one integer or an array like num)."""
    d = lcm(*set(np.ravel(den).tolist()))
    if max(max_abs_int(num), 1) * d >= 2**62:
        num, den = num.astype(object), np.asarray(den, dtype=object)
    free = _free_columns(nc, pivots)
    out = np.zeros((free.size, nc), dtype=num.dtype)
    out[np.arange(free.size), free] = d
    out[:, list(pivots)] = (num * (d // den)).T
    return Mat(out, d)


def _nullspace_modular(system: Triples, blocks: Blocks) -> Optional[tuple[Mat, tuple[int, ...]]]:
    """Multi-prime modular nullspace of a system, eliminating on blocks.

    blocks split a work matrix with the nullspace of the system (the system
    itself or its Gram matrix).  Each prime gives an RREF of the work
    matrix mod p; a prime with fewer pivots, or with the same number of
    pivots further right, is bad and skipped, and the pivot entries of the
    free columns are combined by CRT over the good primes.  After each
    prime they are rationally reconstructed and the kernel is checked
    exactly against the full system.  Returns (kernel, pivots), or None
    when the primes run out first.

    The verified kernel certifies the rank: it gives nullity >= nc - (rank
    mod p) >= the true nullity, so the pivots are the rational ones.
    """
    nc = system.shape[1]
    best: Optional[tuple[int, ...]] = None
    for p in _PRIMES:
        pivots, red = _eliminate_mod_p(blocks, nc, p)
        res = -red % p
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus = pivots, res, p
        elif pivots == best:
            residues = _crt_pair(residues, modulus, res, p)
            modulus *= p
        else:
            continue
        lifted = rat_reconstruct(residues, modulus)
        if lifted is not None:
            kernel = _kernel(nc, best, *lifted)
            if _verify(system, kernel):
                return kernel, best
    return None


def _nullspace_bareiss(system: Triples, work: Triples) -> tuple[Mat, tuple[int, ...]]:
    """The nullspace by fraction-free elimination on the dense work matrix."""
    nc = work.shape[1]
    red, pivots = rref_bareiss(Mat(work.dense()))
    kernel = _kernel(nc, pivots, -red.ints[: len(pivots)][:, _free_columns(nc, pivots)], red.den)
    if not _verify(system, kernel):
        raise AssertionError("nullspace verification failed")
    return kernel, pivots


# ---------------------------------------------------------------------------
# public solvers


def nullspace_int(system: Union[np.ndarray, Triples]) -> tuple[Mat, tuple[int, ...]]:
    """Nullspace of an integer matrix: a numpy array, or its :class:`Triples`.

    Returns (kernel, pivot columns).  The rows of the kernel Mat are the
    canonical basis, one per free column in increasing order, with
    v_a[free_b] = delta_ab, so expansion coefficients of span members are
    read off directly.  Tall matrices are compressed to their Gram matrix
    first: over an ordered field null(A^T A) = null(A).
    """
    a = system if isinstance(system, Triples) else triples(system)
    nr, nc = a.shape
    work = _gram(a) if nr > 2 * nc else a
    found = _nullspace_modular(a, _blocks(work))
    return found if found is not None else _nullspace_bareiss(a, work)


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right nullspace in reduced echelon form; m @ v = 0 is
    verified exactly for every vector before it is returned."""
    return list(nullspace_int(m.ints)[0].data)


def rank(m: Mat) -> int:
    """Exact rank, certified by a verified nullspace basis.

    The modular path certifies both bounds: pivots nonzero mod p give
    rank >= r, and the verified nullspace vectors give rank <= r.
    """
    return m.cols - nullspace_int(m.ints)[0].rows


def rank_lower_bound(arr: np.ndarray, target: int) -> int:
    """Largest rank of an integer matrix mod the first three primes.

    Reduction mod p never raises the rank, so this is a lower bound on the
    rational rank; it stops early once it reaches target.
    """
    a = triples(arr)
    blocks = _blocks(a)
    best = 0
    for p in _PRIMES[:3]:
        best = max(best, len(_eliminate_mod_p(blocks, a.shape[1], p)[0]))
        if best == target:
            break
    return best


def solve(m: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """The exact solution of m x = b in reduced echelon form (free variables
    set to 0), or None when there is none."""
    if len(b) != m.rows:
        raise ValueError("right hand side has wrong length")
    if m.rows == 0:
        return zero_vec(m.cols)
    rhs = Mat.from_rows([b])
    (x,) = solve_int(scale_ints(m.ints, rhs.den), scale_ints(rhs.ints[0], m.den))
    return None if x is None else x.row(0)


def solve_int(arr: np.ndarray, rhs: np.ndarray) -> list[Optional[Mat]]:
    """:func:`solve` for an integer matrix A and each column b of an integer
    right-hand side B (one column when rhs is 1-D): a (1, cols) Mat, or None.

    The columns of B follow those of A in one kernel of [A | B].  A x = b is
    consistent exactly when b is free and its kernel vector is 0 on the
    pivot columns of B; then the vector is (-x, 1) on A and b, for x the
    reduced echelon solution.
    """
    nc = arr.shape[1]
    aug = np.concatenate((arr, rhs if rhs.ndim == 2 else rhs[:, None]), axis=1)
    kernel, pivots = nullspace_int(aug)
    free = _free_columns(aug.shape[1], pivots).tolist()
    rhs_pivots = [p for p in pivots if p >= nc]
    rows = (kernel.ints[free.index(c)] if c in free else None for c in range(nc, aug.shape[1]))
    return [None if r is None or r[rhs_pivots].any() else Mat(-r[None, :nc], kernel.den) for r in rows]


def expand_in_basis(vectors: Sequence[Vec], target: Vec) -> Optional[Vec]:
    """Coefficients expressing target as a combination of vectors, or None."""
    if not vectors:
        return () if all(x == 0 for x in target) else None
    m = Mat.from_rows(list(zip(*vectors, strict=True)))
    return solve(m, list(target))
