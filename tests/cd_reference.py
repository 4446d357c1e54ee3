"""Cayley-Dickson object formulas, kept as references for the integer routes.

``CD`` is the Cayley-Dickson element type with the recursive doubling
product (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)) on `Fraction`
coordinates.  The library computes on the integer ``sign_tensor`` instead;
the loops below are what it used before, with every entry product going
through ``CD``, so they share nothing with ``cayley_dickson.basis_products``
but the basis conventions (``hermitian_pairs``).  ``complete_triality_reference``
is the completion as one ``solve_int`` call per query, as the library ran
it before it cached the solution map.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from jordanium.algebra import AlgebraPresentation, hermitian_pairs
from jordanium.cayley_dickson import MAX_LEVEL
from jordanium.derivations import _triality_terms
from jordanium.linalg import Mat, frac, nullspace_int, solve_int


def _conj_coords(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return (a[0],) + tuple(-x for x in a[1:])


def _mul_coords(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    a1, a2 = a[:h], a[h:]
    c1, c2 = b[:h], b[h:]
    first = tuple(
        x - y
        for x, y in zip(_mul_coords(a1, c1), _mul_coords(_conj_coords(c2), a2))
    )
    second = tuple(
        x + y
        for x, y in zip(_mul_coords(c2, a1), _mul_coords(a2, _conj_coords(c1)))
    )
    return first + second


@dataclass(frozen=True)
class CD:
    """Element of the level-th Cayley-Dickson algebra."""

    level: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not (0 <= self.level <= MAX_LEVEL):
            raise ValueError("Cayley-Dickson level must be between 0 and %d" % MAX_LEVEL)
        if len(self.coords) != 2**self.level:
            raise ValueError("expected %d coordinates" % 2**self.level)
        object.__setattr__(self, "coords", tuple(frac(x) for x in self.coords))

    @staticmethod
    def from_coords(level: int, coords: Sequence) -> "CD":
        return CD(level, tuple(frac(x) for x in coords))

    @staticmethod
    def zero(level: int) -> "CD":
        return CD(level, (Fraction(0),) * 2**level)

    @staticmethod
    def one(level: int) -> "CD":
        return CD.basis(level, 0)

    @staticmethod
    def basis(level: int, j: int) -> "CD":
        n = 2**level
        if not (0 <= j < n):
            raise ValueError("basis index out of range")
        return CD(level, tuple(Fraction(1 if i == j else 0) for i in range(n)))

    def _check(self, other: "CD"):
        if self.level != other.level:
            raise ValueError("mixed Cayley-Dickson levels")

    def __add__(self, other: "CD") -> "CD":
        self._check(other)
        return CD(self.level, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "CD") -> "CD":
        self._check(other)
        return CD(self.level, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "CD":
        return CD(self.level, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, CD):
            self._check(other)
            return CD(self.level, _mul_coords(self.coords, other.coords))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "CD":
        c = frac(c)
        return CD(self.level, tuple(c * x for x in self.coords))

    def conj(self) -> "CD":
        return CD(self.level, _conj_coords(self.coords))

    def real_part(self) -> Fraction:
        return self.coords[0]

    def norm_sq(self) -> Fraction:
        # equals real_part(a * conj(a)) for levels 0..3
        return sum((x * x for x in self.coords), Fraction(0))

    def inverse(self) -> "CD":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.conj().scale(Fraction(1) / n)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def is_real(self) -> bool:
        return all(x == 0 for x in self.coords[1:])


def _blank(n, level):
    return [[CD.zero(level) for _ in range(n)] for _ in range(n)]


def cd_hermitian_basis(n, level):
    """Hermitian basis as n x n grids of CD entries: diagonal units, then eps_k
    at each hermitian pair with its conjugate at the transposed position."""
    mats = []
    for i in range(n):
        m = _blank(n, level)
        m[i][i] = CD.one(level)
        mats.append(m)
    for pi, pj in hermitian_pairs(n):
        for k in range(2**level):
            m = _blank(n, level)
            m[pi][pj] = CD.basis(level, k)
            m[pj][pi] = CD.basis(level, k).conj()
            mats.append(m)
    return mats


def cd_antihermitian_basis(n, level):
    """Antihermitian basis: imaginary diagonals first, then off-diagonal slots."""
    mats = []
    for i in range(n):
        for k in range(1, 2**level):
            m = _blank(n, level)
            m[i][i] = CD.basis(level, k)
            mats.append(m)
    for pi, pj in hermitian_pairs(n):
        for k in range(2**level):
            m = _blank(n, level)
            eps = CD.basis(level, k)
            m[pi][pj] = eps
            m[pj][pi] = -eps.conj()
            mats.append(m)
    return mats


def _cd_mat_mul(x, y):
    """n x n product of CD grids, skipping zero entries."""
    n = len(x)
    level = x[0][0].level
    out = _blank(n, level)
    for i in range(n):
        for t in range(n):
            if x[i][t].is_zero():
                continue
            for j in range(n):
                if not y[t][j].is_zero():
                    out[i][j] = out[i][j] + x[i][t] * y[t][j]
    return out


def _add(x, y, sign=1):
    n = len(x)
    return [[x[i][j] + y[i][j].scale(sign) for j in range(n)] for i in range(n)]


def _hermitian_coords(w):
    n = len(w)
    coords = []
    for i in range(n):
        if not w[i][i].is_real():
            raise AssertionError("commutator left the hermitian matrices: diagonal")
        coords.append(w[i][i].real_part())
    for pi, pj in hermitian_pairs(n):
        if not (w[pj][pi] - w[pi][pj].conj()).is_zero():
            raise AssertionError("commutator left the hermitian matrices: off-diagonal")
        coords.extend(w[pi][pj].coords)
    return coords


def _antihermitian_coords(w):
    n = len(w)
    coords = []
    for i in range(n):
        entry = w[i][i]
        if entry.coords[0] != 0:
            raise AssertionError("antihermitian product left the module: diagonal")
        coords.extend(entry.coords[1:])
    for pi, pj in hermitian_pairs(n):
        entry = w[pi][pj]
        if not (w[pj][pi] + entry.conj()).is_zero():
            raise AssertionError("antihermitian product left the module: off-diagonal")
        coords.extend(entry.coords)
    return coords


def _operator(cols):
    m = len(cols)
    return Mat.from_rows([[cols[c][r] for c in range(m)] for r in range(m)])


def commutator_action_reference(x1, x2, x3):
    """z -> M z - z M on the 27 hermitian octonion basis matrices, as a Mat."""
    m = _blank(3, 3)
    for (pi, pj), x in zip(hermitian_pairs(3), (x1, x2, x3)):
        x = CD.from_coords(3, [frac(v) for v in x])
        m[pi][pj] = x
        m[pj][pi] = -x.conj()
    cols = [_hermitian_coords(_add(_cd_mat_mul(m, z), _cd_mat_mul(z, m), -1)) for z in cd_hermitian_basis(3, 3)]
    return _operator(cols)


def triality_defect_reference(d1, d2, d3):
    """First basis pair (i, j) with (d1 x) y + x (d2 y) != conj(d3(conj(x y)))."""
    for i in range(8):
        x = CD.basis(3, i)
        dx = CD.from_coords(3, tuple(d1.data[a][i] for a in range(8)))
        for j in range(8):
            y = CD.basis(3, j)
            dy = CD.from_coords(3, tuple(d2.data[b][j] for b in range(8)))
            lhs = dx * y + x * dy
            xy = (x * y).conj()
            d3xy = CD.from_coords(
                3,
                tuple(
                    sum((d3.data[r][m] * xy.coords[m] for m in range(8)), Fraction(0))
                    for r in range(8)
                ),
            )
            if lhs.coords != d3xy.conj().coords:
                return (i, j)
    return None


def complete_triality_reference(d1):
    """(d2, d3) by solving the 512 x 56 completion system for this d1 alone.

    The d2 and d3 terms of the defect, folded by antisymmetry, are the
    integer matrix; the d1 term is the right-hand side of one ``solve_int``.
    """
    if d1.rows != 8 or d1.cols != 8:
        raise ValueError("expected an 8x8 matrix")
    if d1 != -d1.transpose():
        raise ValueError("triality completion needs an antisymmetric input")
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    col = np.zeros(64, dtype=np.int64)
    fold = np.zeros(64, dtype=np.int64)
    for t, (i, j) in enumerate(pairs):
        col[[8 * i + j, 8 * j + i]] = t
        fold[[8 * i + j, 8 * j + i]] = (1, -1)
    index, sign = _triality_terms()
    rows = np.zeros((512, 2 * len(pairs)), dtype=np.int64)
    for t in (1, 2):
        entry = index[t] - 64 * t
        np.add.at(rows, (np.arange(512), col[entry] + len(pairs) * (t - 1)), sign[t] * fold[entry])
    if nullspace_int(rows)[0].rows:
        raise AssertionError("the triality completion system is not uniquely solvable")
    (u,) = solve_int(rows, -sign[0] * d1.ints.reshape(64)[index[0]])
    if u is None:
        raise ValueError("no compatible completion exists")
    i, j = np.array(pairs).T

    def unpack(offset):
        m = np.zeros((8, 8), dtype=u.ints.dtype)
        m[i, j] = u.ints[0, offset : offset + len(pairs)]
        m[j, i] = -m[i, j]
        return Mat(m, u.den * d1.den)

    return unpack(0), unpack(len(pairs))


def antihermitian_reference(n, level):
    """The operators z -> (x z + z x) / 2 of the hermitian basis x on the
    antihermitian carrier, as Mats."""
    anti = cd_antihermitian_basis(n, level)
    half = Fraction(1, 2)
    ops = []
    for x in cd_hermitian_basis(n, level):
        cols = []
        for z in anti:
            w = _add(_cd_mat_mul(x, z), _cd_mat_mul(z, x))
            cols.append(_antihermitian_coords([[e.scale(half) for e in row] for row in w]))
        ops.append(_operator(cols))
    return ops


def _mat_mul_sparse(a, b, n):
    """n x n product of grids of coordinate tuples, None marking a zero entry."""
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        row = a[i]
        for t in range(n):
            x = row[t]
            if x is None:
                continue
            brow = b[t]
            for j in range(n):
                y = brow[j]
                if y is None:
                    continue
                p = _mul_coords(x, y)
                cur = out[i][j]
                out[i][j] = p if cur is None else tuple(u + v for u, v in zip(cur, p))
    return out


def _entry_sum(x, y, d):
    if x is None and y is None:
        return (Fraction(0),) * d
    if x is None:
        return y
    if y is None:
        return x
    return tuple(u + v for u, v in zip(x, y))


def hermitian_reference(n, level):
    """``build_hermitian(n, level)`` by the coordinate-tuple loop: the
    cd_hermitian_basis grids multiplied entry by entry with the recursive
    doubling formula, each x_a x_b + x_b x_a read off the hermitian pairs."""
    d = 2**level
    basis = [
        [[None if m.is_zero() else m.coords for m in row] for row in grid]
        for grid in cd_hermitian_basis(n, level)
    ]
    dim = len(basis)
    structure = {}
    for a in range(dim):
        for b in range(a, dim):
            ab = _mat_mul_sparse(basis[a], basis[b], n)
            ba = _mat_mul_sparse(basis[b], basis[a], n)
            doubled = []
            for i in range(n):
                e = _entry_sum(ab[i][i], ba[i][i], d)
                if any(e[1:]):
                    raise AssertionError("symmetrized product has a non-real diagonal entry")
                doubled.append(e[0])
            for pi, pj in hermitian_pairs(n):
                e = _entry_sum(ab[pi][pj], ba[pi][pj], d)
                if _entry_sum(ab[pj][pi], ba[pj][pi], d) != _conj_coords(e):
                    raise AssertionError("symmetrized product is not hermitian")
                doubled.extend(e)
            entries = [(k, v / 2) for k, v in enumerate(doubled) if v]
            if entries:
                structure[(a, b)] = entries
    unit = tuple(Fraction(1 if i < n else 0) for i in range(dim))
    return AlgebraPresentation("J%d_%d" % (d, n), dim, unit, structure)
