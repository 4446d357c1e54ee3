"""Exact rational linear algebra.

Scalars and vectors are ``fractions.Fraction`` values and tuples of them.  A
matrix (:class:`Mat`) is one integer array and one positive denominator in
lowest terms: int64 while every entry is below 2**62 in size, Python ints
(object dtype) otherwise.  Sums, products, Kronecker products and equality
are array operations on it, every product one :func:`exact_int_matmul`.  The
routines favour determinism: pivoting always picks the first nonzero entry
in row-major order, and nullspace bases are returned in reduced echelon
form, so identical inputs give identical outputs on every run.

Every exact solve goes through one nullspace engine on integer matrices (a
Mat's own array).  A matrix with more than twice as many rows as columns is
first replaced by its Gram matrix, which has the same nullspace.  At every size the engine
eliminates modulo several word-size primes and lifts the result back to
rationals by CRT and rational reconstruction; Bareiss (fraction-free)
elimination runs only when the primes run out without a verified answer.
Each returned kernel vector is checked once, exactly, by one integer
product with the full matrix before any Gram compression.  :func:`rref`
stays as the plain rational reference.

:func:`solve` is the kernel vector of the normal equations A^T [A | b] whose
free coordinate is the right-hand side, negated; only that one vector is
lifted, and the answer is checked exactly against A x = b.

Operator identities run on integer stacks of one scale (:func:`scaled_int_mats`),
each :func:`pair_products` or :func:`commutators` one :func:`exact_int_matmul`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

Vec = tuple[Fraction, ...]

# Primes just below 2**21: residues fit in int64 with exact products
# (p*p < 2**42), and float64 matmuls on residue matrices stay exact.
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
        if ints.dtype != object:
            ints = ints.astype(np.int64, copy=False)
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
    out = []
    for i, row in enumerate(a):
        if i < len(pivots):
            piv = row[pivots[i]]
            out.append([Fraction(x, piv) for x in row])
        else:
            if any(row):
                raise AssertionError("Bareiss left a nonzero non-pivot row")
            out.append(row)
    return Mat.from_rows(out), tuple(pivots)


def _kernel_vectors(
    nc: int, pivots: Sequence[int], cols: Sequence[int], coeffs
) -> list[Vec]:
    """Kernel vectors v_f for the free columns f in cols.

    v_f[f] = 1, v_f is 0 on every other free column, and v_f[pivots[i]] =
    coeffs[i][t] for the t-th entry f of cols.
    """
    basis = []
    for t, f in enumerate(cols):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = coeffs[i][t]
        basis.append(tuple(v))
    return basis


def _free_columns(nc: int, pivots: Sequence[int], lift: Optional[int]) -> list[int]:
    pivset = set(pivots)
    cols = range(nc) if lift is None else (lift,)
    return [c for c in cols if c not in pivset]


def _rref_mod_p(m: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Vectorized Gauss-Jordan over GF(p); same pivot rule as :func:`rref`."""
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
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        colv = a[:, c].copy()
        colv[r] = 0
        tgt = np.nonzero(colv)[0]
        if tgt.size:
            a[tgt] = (a[tgt] - colv[tgt, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _rat_reconstruct(r: int, m: int) -> Optional[Fraction]:
    """Wang's rational reconstruction of r mod m, or None."""
    r %= m
    if r == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    s0, s1 = m, r
    t0, t1 = 0, 1
    while s1 > bound:
        q = s0 // s1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    a, b = s1, t1
    if b < 0:
        a, b = -a, -b
    if gcd(a, b) != 1:
        return None
    if (a - b * r) % m != 0:
        return None
    return Fraction(a, b)


def _crt_pair(r1: np.ndarray, m1: int, r2: np.ndarray, m2: int) -> np.ndarray:
    """Entrywise x = r1 mod m1, x = r2 mod m2, in [0, m1 m2); object arrays."""
    return (r1 + m1 * (((r2 - r1) * pow(m1, -1, m2)) % m2)) % (m1 * m2)


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


def _annihilates(arr: np.ndarray, vectors: Sequence[Vec]) -> bool:
    """arr @ v == 0 for every v, as one exact integer product."""
    if not vectors:
        return True
    return not (exact_int_matmul(arr, Mat.from_rows(vectors).ints.T) != 0).any()


# ---------------------------------------------------------------------------
# the nullspace engine


def _nullspace_modular(
    arr: np.ndarray, work: np.ndarray, lift: Optional[int] = None
) -> Optional[tuple[list[Vec], tuple[int, ...]]]:
    """Multi-prime modular nullspace of arr, eliminating on work.

    work has the nullspace of arr (arr itself or its Gram matrix).  Each
    prime gives an RREF of work mod p; a prime with fewer pivots, or with
    the same number of pivots further right, is bad and skipped, and the
    pivot entries of the lifted free columns are combined by CRT over the
    good primes.  After each prime they are rationally reconstructed and
    checked exactly against arr.  Returns (basis, pivots), or None when the
    primes run out first, or when the column to lift is a pivot mod every
    good prime.

    Lifting every free column certifies the rank: the verified vectors give
    nullity >= nc - (rank mod p) >= the true nullity.
    """
    nc = arr.shape[1]
    best: Optional[tuple[int, ...]] = None
    residues = np.empty((0, 0), dtype=object)
    modulus = 1
    for p in _PRIMES:
        red, pivots = _rref_mod_p(work, p)
        cols = _free_columns(nc, pivots, lift)
        res = (-red[: len(pivots), cols] % p).astype(object)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus = pivots, res, p
        elif pivots == best:
            residues = _crt_pair(residues, modulus, res, p)
            modulus *= p
        else:
            continue
        if lift is not None and not cols:
            continue
        coeffs = []
        for row in residues:
            coeffs.append([_rat_reconstruct(int(x), modulus) for x in row])
            if None in coeffs[-1]:
                break
        else:
            basis = _kernel_vectors(nc, best, cols, coeffs)
            if _annihilates(arr, basis):
                return basis, best
    return None


def _nullspace_of_int(
    arr: np.ndarray, lift: Optional[int] = None
) -> tuple[list[Vec], tuple[int, ...]]:
    """Canonical nullspace vectors of an integer matrix, and its pivots.

    lift=None gives the vector of every free column; an int gives only that
    column's vector, or none when it is a pivot.  Tall matrices are
    compressed to their Gram matrix first: over an ordered field
    null(A^T A) = null(A), and A^T A is exact integer arithmetic.  The
    modular engine runs at every size; Bareiss elimination runs only when it
    gives no answer.  Every returned vector is checked exactly against arr,
    once.
    """
    nr, nc = arr.shape
    if nc == 0:
        return [], ()
    work = exact_int_matmul(arr.T, arr) if nr > 2 * nc else arr
    found = _nullspace_modular(arr, work, lift)
    if found is not None:
        return found
    red, pivots = rref_bareiss(Mat(work))
    cols = _free_columns(nc, pivots, lift)
    coeffs = [[-red[i, f] for f in cols] for i in range(len(pivots))]
    basis = _kernel_vectors(nc, pivots, cols, coeffs)
    if not _annihilates(arr, basis):
        raise AssertionError("nullspace verification failed")
    return basis, pivots


# ---------------------------------------------------------------------------
# public solvers


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right nullspace, in reduced echelon form.

    Every returned vector satisfies m @ v = 0 exactly; this is re-verified
    by multiplication before returning.
    """
    if m.cols == 0:
        return []
    return _nullspace_of_int(m.ints)[0]


def nullspace_int(arr: np.ndarray) -> tuple[list[Vec], tuple[int, ...]]:
    """Nullspace of an integer matrix given as a numpy array.

    Returns (basis, pivot columns); the free columns are the complement of
    the pivots, and the canonical basis satisfies v_a[free_b] = delta_ab,
    which makes expansion coefficients of span members directly readable.
    """
    if arr.dtype not in (np.int64, object):
        arr = arr.astype(np.int64)
    return _nullspace_of_int(arr)


def rank(m: Mat) -> int:
    """Exact rank, certified by a verified nullspace basis.

    The modular path certifies both bounds: pivots nonzero mod p give
    rank >= r, and the verified nullspace vectors give rank <= r.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    return m.cols - len(nullspace(m))


def rank_lower_bound(arr: np.ndarray, target: int) -> int:
    """Largest rank of an integer matrix mod the first three primes.

    Reduction mod p never raises the rank, so this is a lower bound on the
    rational rank; it stops early once it reaches target.
    """
    best = 0
    for p in _PRIMES[:3]:
        best = max(best, len(_rref_mod_p(arr, p)[1]))
        if best == target:
            break
    return best


def solve(m: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """One exact solution of m x = b (free variables set to 0), or None.

    With A and b lifted to integers over one denominator, the normal
    equations A^T [A | b] are always consistent, and while A x = b is
    consistent they have the same row space, hence the same RREF solution.  That solution is the negated
    kernel vector whose free coordinate is the right-hand side; it is
    checked exactly against A x = b, so a nonzero residual means "no
    solution".
    """
    if len(b) != m.rows:
        raise ValueError("right hand side has wrong length")
    if m.rows == 0:
        return zero_vec(m.cols)
    rhs = Mat.from_rows([b])
    return solve_int(scale_ints(m.ints, rhs.den), scale_ints(rhs.ints[0], m.den))


def solve_int(arr: np.ndarray, rhs: np.ndarray) -> Optional[Vec]:
    """:func:`solve` for an integer matrix and an integer right-hand side."""
    nc = arr.shape[1]
    aug = np.concatenate((arr, rhs.reshape(-1, 1)), axis=1)
    kernel, _ = _nullspace_of_int(exact_int_matmul(arr.T, aug), lift=nc)
    if not kernel or not _annihilates(aug, kernel):
        return None
    return tuple(-x for x in kernel[0][:nc])


def expand_in_basis(vectors: Sequence[Vec], target: Vec) -> Optional[Vec]:
    """Coefficients expressing target as a combination of vectors, or None."""
    if not vectors:
        return () if all(x == 0 for x in target) else None
    m = Mat.from_rows(list(zip(*vectors, strict=True)))
    return solve(m, list(target))
