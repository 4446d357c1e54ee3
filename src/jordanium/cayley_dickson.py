"""Cayley-Dickson doubling on integer signs: reals through octonions.

Levels 0..3 give coordinate algebras of dimension 1, 2, 4, 8.  The doubling
product is

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

and conjugation is (a, b)* = (a*, -b).  Basis vectors multiply by XOR of
their indices up to sign: eps(i) eps(j) = +/- eps(i ^ j), with the sign
produced by the recursion.  Levels above 3 lose the composition property
and are rejected.

The package has no Cayley-Dickson element type.  ``sign_tensor(level)`` is
the multiplication table as one signed (d, d, d) integer array, built level
by level from the doubling formula; :func:`basis_table` reads it as
(index, sign) pairs, and :func:`basis_products` makes every product of
matrices with Cayley-Dickson entries in the package: one sparse join of the
basis matrices' nonzero entries through it (Baez, "The Octonions", Bull.
AMS 39, 2002).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import row_pairs, sum_by_key

MAX_LEVEL = 3


@lru_cache(maxsize=None)
def sign_tensor(level: int) -> np.ndarray:
    """Read-only (d, d, d) int64 array o with eps_a eps_b = sum_c o[a, b, c] eps_c.

    The nonzero entries are o[a, b, a ^ b] = +/-1.  With the previous level's
    table p on d units and the conjugation signs s = (1, -1, ..., -1), the
    doubling formula on basis pairs gives four blocks:

        (eps_a, 0)(eps_b, 0) = (eps_a eps_b, 0)               p[a, b]
        (eps_a, 0)(0, eps_b) = (0, eps_b eps_a)               p[b, a]
        (0, eps_a)(eps_b, 0) = (0, eps_a conj(eps_b))         s[b] p[a, b]
        (0, eps_a)(0, eps_b) = (-conj(eps_b) eps_a, 0)        -s[b] p[b, a]
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError("Cayley-Dickson level must be between 0 and %d" % MAX_LEVEL)
    if level == 0:
        o = np.ones((1, 1, 1), dtype=np.int64)
    else:
        p = sign_tensor(level - 1)
        d = len(p)
        s = np.r_[1, -np.ones(d - 1, dtype=np.int64)]
        swapped = p.transpose(1, 0, 2)
        o = np.zeros((2 * d, 2 * d, 2 * d), dtype=np.int64)
        o[:d, :d, :d] = p
        o[:d, d:, d:] = swapped
        o[d:, :d, d:] = p * s[None, :, None]
        o[d:, d:, :d] = -swapped * s[None, :, None]
    o.setflags(write=False)
    return o


@lru_cache(maxsize=None)
def basis_table(level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """table[i][j] = (k, sign) with eps_i * eps_j = sign * eps_k, k = i XOR j.

    Read off :func:`sign_tensor`.
    """
    o = sign_tensor(level)
    d = len(o)
    return tuple(tuple((i ^ j, int(o[i, j, i ^ j])) for j in range(d)) for i in range(d))


def conj_array(x: np.ndarray) -> np.ndarray:
    """Entrywise conjugate of an array whose last axis holds coordinates."""
    return np.concatenate((x[..., :1], -x[..., 1:]), axis=-1)


def basis_products(
    x: np.ndarray, y: np.ndarray, out: np.ndarray, o: np.ndarray, sign: int
) -> tuple[np.ndarray, ...]:
    """Coordinates over the basis out of x_a y_b + sign y_b x_a, every (a, b).

    x, y and out are (N, n, n, d) arrays of matrices with Cayley-Dickson
    entries, each entry of each matrix 0 or +/-eps_k (an atom (row, column,
    k, sign)), and o is the level's sign tensor.  The product of two atoms is
    nonzero only when the inner indices meet, and then it is the atom
    (r, c, k1 ^ k2, s1 s2 o[k1, k2, k1 ^ k2]): atoms of x by column are joined
    with atoms of y by row, and atoms of y by column with atoms of x by row,
    and every term is summed under the key (a, b, r, c, k).

    A coordinate is read off the first atom of its out matrix, which presumes
    disjoint supports, and each product must then be exactly the combination
    of out its coordinates give: AssertionError otherwise, raised also under
    python -O (a product outside the span of out, or overlapping supports
    misread).  With at most A atoms in one basis matrix, every sum has at most
    2 A**2 terms of size 1, so int64 is exact.

    Returns (a, b, m, v): x_a y_b + sign y_b x_a = sum of v out_m, nonzero v
    only, ordered by (a, b) and then by the position of out_m's first atom.
    """
    _, n, _, d = out.shape
    size, count = n * n * d, len(y)

    def atoms(basis):
        m, r, c, k = np.nonzero(basis)
        return m, r, c, k, basis[m, r, c, k].astype(np.int64)

    def join(p, q):
        # atoms of p against the atoms of q whose row is p's column
        pm, pr, pc, pk, ps = p
        qm, qr, qc, qk, qs = q
        by_row = np.argsort(qr, kind="stable")
        s, t = row_pairs(np.searchsorted(qr[by_row], np.arange(n + 1)), pc)
        t = by_row[t]
        k = pk[s] ^ qk[t]
        return pm[s], qm[t], (pr[s] * n + qc[t]) * d + k, ps[s] * qs[t] * o[pk[s], qk[t], k]

    xs, ys = atoms(x), atoms(y)
    a1, b1, at1, v1 = join(xs, ys)
    b2, a2, at2, v2 = join(ys, xs)
    keys, vals = sum_by_key(
        np.concatenate(((a1 * count + b1) * size + at1, (a2 * count + b2) * size + at2)),
        np.concatenate((v1, sign * v2)),
    )
    # coordinates from the first atom of each out matrix
    m, r, c, k, s = atoms(out)
    pos = (r * n + c) * d + k
    _, first = np.unique(m, return_index=True)
    lead = np.full(size, -1)
    lead[pos[first]] = first
    at = lead[keys % size]
    read = at >= 0
    cpair, cm, cv = keys[read] // size, m[at[read]], vals[read] * s[at[read]]
    # the products as those coordinates times the atoms of out
    t, u = row_pairs(np.searchsorted(m, np.arange(len(out) + 1)), cm)
    rebuilt, rvals = sum_by_key(cpair[t] * size + pos[u], cv[t] * s[u])
    if not (np.array_equal(rebuilt, keys) and np.array_equal(rvals, vals)):
        raise AssertionError("a basis product leaves the span of the out basis")
    return cpair // count, cpair % count, cm, cv
