"""Cayley-Dickson object formulas, kept as references for the integer routes.

These are the loops the library used before it moved to one integer sign
tensor: every entry product goes through ``CD`` and the recursive doubling
formula, so they share nothing with ``cayley_dickson.mat_product`` but the
basis conventions (``hermitian_pairs``).
"""

from fractions import Fraction

from jordanium.algebra import hermitian_pairs
from jordanium.cayley_dickson import CD
from jordanium.linalg import Mat, frac


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
