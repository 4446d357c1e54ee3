"""The rational matrix as row tuples of Fractions, kept as a reference.

``RefMat`` is the library's matrix as it was before it became one integer
array and one denominator: every operation is a Python loop over
``Fraction`` entries.  ``ref_nullspace``, ``ref_rank`` and ``ref_solve``
read plain Gauss-Jordan elimination over the rationals, so they share
nothing with the library's modular nullspace engine.  ``ref_rat_reconstruct``
is Wang's rational reconstruction of one residue at a time, as the engine
ran it before it became one array loop.  ``ref_rref_mod_p`` is Gauss-Jordan
mod p of the whole matrix, one column at a time, as the engine ran it
before it split systems into connected components.  ``ref_sum_by_key``
groups by one argsort of the keys and two gathers, as ``sum_by_key``
grouped every input before it sorted packed integer words.
``ref_check_jacobi`` is the Jacobi test as one dense product over
``Fraction`` entries, as ``check_jacobi`` ran it (on integers) before it
joined the nonzero bracket constants.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

Vec = tuple[Fraction, ...]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


@dataclass(frozen=True)
class RefMat:
    """Dense rational matrix; data is a tuple of row tuples."""

    data: tuple[Vec, ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "RefMat":
        return RefMat(tuple(tuple(Fraction(x) for x in r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.data[ij[0]][ij[1]]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def __add__(self, other: "RefMat") -> "RefMat":
        return RefMat(tuple(
            tuple(a + b for a, b in zip(r, s, strict=True))
            for r, s in zip(self.data, other.data, strict=True)
        ))

    def __sub__(self, other: "RefMat") -> "RefMat":
        return self + -other

    def __neg__(self) -> "RefMat":
        return self.scale(-1)

    def scale(self, c) -> "RefMat":
        c = Fraction(c)
        return RefMat(tuple(tuple(c * x for x in r) for r in self.data))

    def __matmul__(self, other: "RefMat") -> "RefMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        bt = other.transpose().data
        return RefMat(tuple(tuple(_dot(r, c) for c in bt) for r in self.data))

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(_dot(r, v) for r in self.data)

    def transpose(self) -> "RefMat":
        return RefMat(tuple(zip(*self.data, strict=True))) if self.data else self

    def commutator(self, other: "RefMat") -> "RefMat":
        return self @ other - other @ self

    def flatten(self) -> Vec:
        return tuple(x for r in self.data for x in r)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)


def ref_kron(b: RefMat, m: RefMat) -> RefMat:
    """out[i * m.rows + r, j * m.cols + c] = b[i, j] * m[r, c]."""
    return RefMat(tuple(
        tuple(chain.from_iterable(tuple(q * v for v in row) for q in brow))
        for brow in b.data
        for row in m.data
    ))


def ref_rref(m: RefMat) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Gauss-Jordan over the rationals, first nonzero pivot in each column."""
    a = [list(r) for r in m.data]
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        pr = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def ref_nullspace(m: RefMat) -> list[Vec]:
    """One kernel vector per free column, in reduced echelon form."""
    red, pivots = ref_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def ref_rank(m: RefMat) -> int:
    return len(ref_rref(m)[1])


def ref_solve(m: RefMat, b: Sequence[Fraction]) -> Optional[Vec]:
    """The solution of m x = b with free variables 0, or None."""
    red, pivots = ref_rref(RefMat(tuple(r + (Fraction(x),) for r, x in zip(m.data, b))))
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i][m.cols]
    return tuple(x)


def ref_rat_reconstruct(r: int, m: int) -> Optional[Fraction]:
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


def ref_rref_mod_p(m: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan over GF(p) of the whole matrix, one column at a time,
    with the pivot rule of the rational RREF: the first nonzero row at or
    below the next pivot row.  Returns the reduced matrix, pivot rows
    first, and the pivot columns."""
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


def ref_sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in increasing order with the nonzero sums of their
    values: argsort the keys, gather keys and values, add each run."""
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, starts)
    nz = sums != 0
    return keys[starts][nz], sums[nz]


def ref_check_jacobi(b: Sequence[Sequence[Sequence]]) -> bool:
    """Jacobi identity of bracket constants b[p][q][e], from the dense
    t[p, q, r, f] = sum_e b[p, q, e] b[e, r, f] over Fractions."""
    d = len(b)
    if d == 0:
        return True
    bi = np.array([[[Fraction(x) for x in v] for v in row] for row in b], dtype=object).reshape(d, d, d)
    t = (bi.reshape(d * d, d) @ bi.reshape(d, d * d)).reshape(d, d, d, d)
    return bool((t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3) == 0).all())
