"""Vectorized exact identity checks on integer structure tensors.

The heavy verifications (the linearized Jordan identity over all basis
triples, the module operator identity) are cubic or worse in the dimension,
so they run vectorized on denominator-cleared integer tensors, and both are
exact on any input: no float64 path remains.

The Jordan identity is summed over joins of the nonzero structure
constants only, in int64 under a proven bound on every sum and in object
dtype past it.  The module identity takes linalg.exact_int_matmul
products.  Neither raises ExactOverflow; the class stays for callers that
catch it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .linalg import commutators, exact_int_matmul, max_abs_int


class ExactOverflow(Exception):
    """Entries too large for an exact path; no check in the package raises
    it any longer, and it stays for callers that catch it."""


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


def _row_pairs(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join positions into rows with the entries of CSR rows (row offsets
    ptr): pair t is position left[t] with entry right[t] of its row."""
    cnt = ptr[rows + 1] - ptr[rows]
    left = np.repeat(np.arange(len(rows)), cnt)
    right = np.arange(left.size) + np.repeat(ptr[rows] - np.cumsum(cnt) + cnt, cnt)
    return left, right


def _sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in increasing order with the nonzero sums of their values."""
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, starts)
    nz = sums != 0
    return keys[starts][nz], sums[nz]


def jordan_violation(c: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First basis triple violating the linearized Jordan identity.

    c is the integer structure tensor, c[i, j, k] = coefficient of e_k in
    e_i e_j (times a global scale).  The identity checked for every triple
    i <= j <= k (it is fully symmetric) is

        [L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i] = 0.

    Applied to e_l, each commutator is G(i, j, k, l) = (e_i e_j)(e_k e_l)
    - e_k((e_i e_j) e_l), and summing G over every ordering of (i, j, k)
    gives 2, 1 or 1/3 times the identity's value on e_l (three, two or one
    distinct indices).  Both terms are joins of the nonzero entries of c
    through X(i, j, b, r) = sum_a c[i, j, a] c[a, b, r]; the sums are
    taken one l at a time under the key (sorted (i, j, k), r).  Every sum
    is of at most 12 n**2 products of three entries, so int64 is used when
    that bound stays below 2**63 and object dtype otherwise: exact on any
    input.

    Returns the lexicographically smallest violating (i, j, k), or None.
    """
    n = c.shape[0]
    cmax = max_abs_int(c)
    if cmax == 0:
        return None
    dtype = np.int64 if 12 * n * n * cmax**3 < 2**63 else object
    # the entries of c in row-major order, so CSR by the first index
    ci, cj, ck = np.nonzero(c)
    cv = c[ci, cj, ck].astype(dtype)
    cptr = np.searchsorted(ci, np.arange(n + 1))
    # X(i, j, b, r), CSR by b
    left, right = _row_pairs(cptr, ck)
    keys, xv = _sum_by_key(
        ((cj[right] * n + ci[left]) * n + cj[left]) * n + ck[right], cv[left] * cv[right]
    )
    xb, xi, xj, xr = keys // n**3, keys // n**2 % n, keys // n % n, keys % n
    xptr = np.searchsorted(xb, np.arange(n + 1))

    best: Optional[int] = None
    for l in range(n):
        # (e_i e_j)(e_k e_l): c[l, k, b] against X(i, j, b, r)
        row = np.arange(cptr[l], cptr[l + 1])
        s, t = _row_pairs(xptr, ck[row])
        s = row[s]
        i1, j1, k1, r1, v1 = xi[t], xj[t], cj[s], xr[t], xv[t] * cv[s]
        # e_k((e_i e_j) e_l): X(i, j, l, m) against c[m, k, r]
        xs = np.arange(xptr[l], xptr[l + 1])
        s, t = _row_pairs(cptr, xr[xs])
        s = xs[s]
        i2, j2, k2, r2, v2 = xi[s], xj[s], cj[t], ck[t], -(xv[s] * cv[t])
        i, j, k, r = (np.concatenate(p) for p in ((i1, i2), (j1, j2), (k1, k2), (r1, r2)))
        lo = np.minimum(np.minimum(i, j), k)
        hi = np.maximum(np.maximum(i, j), k)
        code = (lo * n + (i + j + k - lo - hi)) * n + hi
        keys, _ = _sum_by_key(code * n + r, np.concatenate((v1, v2)))
        if keys.size and (best is None or keys[0] // n < best):
            best = int(keys[0] // n)
    if best is None:
        return None
    return best // (n * n), best // n % n, best % n


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
