"""Vectorized exact identity checks on integer structure tensors.

The heavy verifications (the linearized Jordan identity over all basis
triples, the module operator identity) are cubic or worse in the dimension,
so they run as numpy matrix products on denominator-cleared integer tensors.

The module identity takes linalg.exact_int_matmul products, exact on any
input.  The Jordan kernel uses float64 GEMMs only under proven magnitude
bounds, each covering the whole sum a result is built from: every product
and partial sum stays below 2**53, so the floating point arithmetic is exact
and independent of BLAS threading.  It takes the exact tensor as it is and
raises ExactOverflow, before any float conversion, on object dtype or when a
bound fails; the caller then falls back to rational arithmetic or exits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .linalg import commutators, exact_int_matmul

_F64_SAFE = 2**53


class ExactOverflow(Exception):
    """Raised when entries are too large for the fast integer path."""


def to_int_tensor(entries: Sequence[tuple[tuple[int, ...], Fraction]], shape: tuple[int, ...]):
    """Clear denominators of a sparse rational tensor.

    Returns (array, scale) with array = scale * tensor, exactly: int64 when
    every entry fits, object dtype otherwise.
    """
    scale = 1
    for _, q in entries:
        scale = lcm(scale, q.denominator)
    vals = [q.numerator * (scale // q.denominator) for _, q in entries]
    fits = all(-(2**62) < v < 2**62 for v in vals)
    out = np.zeros(shape, dtype=np.int64 if fits else object)
    for (idx, _), v in zip(entries, vals):
        out[idx] = v
    return out, scale


def _check_int64(*arrays: np.ndarray):
    if any(arr.dtype == object for arr in arrays):
        raise ExactOverflow("entries past int64 have no exact float64 path")


def _check_f64(bound: int):
    if bound >= _F64_SAFE:
        raise ExactOverflow("magnitude bound %d too large for exact float64" % bound)


def _smallest_store(arr: np.ndarray) -> np.ndarray:
    m = int(np.abs(arr).max()) if arr.size else 0
    for dt, lim in ((np.int8, 127), (np.int16, 32767), (np.int32, 2**31 - 1)):
        if m <= lim:
            return arr.astype(dt)
    return arr.astype(np.int64)


def jordan_violation(c: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First basis triple violating the linearized Jordan identity.

    c is the integer structure tensor, c[i, j, k] = coefficient of e_k in
    e_i e_j (times a global scale).  The identity checked for every triple
    i <= j <= k (it is fully symmetric) is

        [L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i] = 0.

    Returns the lexicographically smallest violating (i, j, k), or None.
    """
    _check_int64(c)
    n = c.shape[0]
    if n == 0:
        return None
    cmax = int(np.abs(c).max()) if c.size else 0
    lmat = np.ascontiguousarray(c.transpose(0, 2, 1)).astype(np.float64)  # L[i][r][j]
    _check_f64(cmax * cmax * n)
    u = (c.reshape(n * n, n).astype(np.float64) @ lmat.reshape(n, n * n)).reshape(n, n, n, n)
    umax = int(np.abs(u).max()) if u.size else 0
    _check_f64(6 * cmax * umax * n)  # s sums six products L U over n terms
    ustore = _smallest_store(u)
    del u

    best: Optional[tuple[int, int, int]] = None

    def note(i: int, j: int, k: int):
        nonlocal best
        t = (i, j, k)
        if best is None or t < best:
            best = t

    for j in range(n):
        kcnt = n - j
        uj = ustore[j, j:].astype(np.float64)  # U[j,k], k >= j
        uj_t = np.ascontiguousarray(uj.transpose(1, 0, 2)).reshape(n, kcnt * n)
        uj_f = uj.reshape(kcnt * n, n)
        uij_all = ustore[: j + 1, j].astype(np.float64)  # U[i,j], i <= j
        blk = max(1, 12_000_000 // max(1, kcnt * n * n))
        for i0 in range(0, j + 1, blk):
            i1 = min(j + 1, i0 + blk)
            b = i1 - i0
            li = lmat[i0:i1]  # (b, n, n)
            li_t = np.ascontiguousarray(li.transpose(1, 0, 2)).reshape(n, b * n)
            # X1 = [L_i, U_jk]
            p1 = (li.reshape(b * n, n) @ uj_t).reshape(b, n, kcnt, n)
            q1 = (uj_f @ li_t).reshape(kcnt, n, b, n)
            s = p1.transpose(0, 2, 1, 3) - q1.transpose(2, 0, 1, 3)
            del p1, q1
            # X2 = [L_j, U_ik]
            usub = ustore[i0:i1, j:].astype(np.float64)  # (b, kcnt, n, n)
            p2 = (lmat[j] @ usub.transpose(2, 0, 1, 3).reshape(n, b * kcnt * n)).reshape(
                n, b, kcnt, n
            )
            q2 = (usub.reshape(b * kcnt * n, n) @ lmat[j]).reshape(b, kcnt, n, n)
            s += p2.transpose(1, 2, 0, 3)
            s -= q2
            del p2, q2, usub
            # X3 = [L_k, U_ij]
            uij = uij_all[i0:i1]  # (b, n, n)
            p3 = (lmat[j:].reshape(kcnt * n, n) @ np.ascontiguousarray(
                uij.transpose(1, 0, 2)
            ).reshape(n, b * n)).reshape(kcnt, n, b, n)
            q3 = (uij.reshape(b * n, n) @ np.ascontiguousarray(
                lmat[j:].transpose(1, 0, 2)
            ).reshape(n, kcnt * n)).reshape(b, n, kcnt, n)
            s += p3.transpose(2, 0, 1, 3)
            s -= q3.transpose(0, 2, 1, 3)
            del p3, q3
            bad = np.abs(s).max(axis=(2, 3))
            if bad.any():
                for il, kl in zip(*np.nonzero(bad)):
                    note(i0 + int(il), j, j + int(kl))
            del s
    return best


def module_identity_violation(c: np.ndarray, a: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First violation of [[A_i, A_j], A_k] + A((e_i e_k) e_j - e_i (e_k e_j)).

    c is the algebra structure tensor, a[i] the action operator of e_i
    (a[i][out][in]); both must carry the same denominator-clearing scale so
    that the two terms are comparable.  Checks all triples with i < j; both
    sides are antisymmetric in (i, j) and vanish at i = j.

    Every product is one exact_int_matmul, so no entry size is too large.
    The terms are compared as g a_k + assoc . a against a_k g, each side a
    sum of at most two int64 products below 2**62, so nothing overflows.

    Returns the smallest violating (i, j, k) with i < j, else None.
    """
    n = c.shape[0]
    m = a.shape[1]
    if n < 2:
        return None
    # assoc[i, k, j, :] = (e_i e_k) e_j - e_i (e_k e_j)
    t1 = exact_int_matmul(c.reshape(n * n, n), c.reshape(n, n * n)).reshape(n, n, n, n)
    # t1[i, k, j, r] = sum_m c[i,k,m] c[m,j,r]
    c_i_mr = np.ascontiguousarray(c.transpose(1, 0, 2)).reshape(n, n * n)
    t2 = exact_int_matmul(c.reshape(n * n, n), c_i_mr).reshape(n, n, n, n)
    # t2[k, j, i, r] = sum_m c[k,j,m] c[i,m,r]
    assoc = t1 - t2.transpose(2, 0, 1, 3)
    del t1, t2

    # g[p] = [A_i, A_j] for the p-th pair i < j, in lexicographic order
    ii, jj = np.triu_indices(n, 1)
    g = commutators(a)[ii, jj]
    npairs = len(ii)
    g_rows = g.reshape(npairs * m, m)
    g_cols = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(m, npairs * m)
    a_flat = a.reshape(n, m * m)
    best: Optional[tuple[int, int, int]] = None
    for k in range(n):
        lhs = exact_int_matmul(g_rows, a[k]).reshape(npairs, m, m)
        lhs = lhs + exact_int_matmul(assoc[ii, k, jj], a_flat).reshape(npairs, m, m)
        rhs = exact_int_matmul(a[k], g_cols).reshape(m, npairs, m).transpose(1, 0, 2)
        hits = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
        if hits.size:
            t = (int(ii[hits[0]]), int(jj[hits[0]]), k)
            if best is None or t < best:
                best = t
    return best
