"""Vectorized exact identity checks on integer structure tensors.

The heavy verifications, the linearized Jordan identity over all basis
triples and the module operator identity, are cubic or worse in the
dimension.  Both are summed over joins of the nonzero entries of the
denominator-cleared tensors only, in int64 under a proven bound on every
sum and in object dtype past it: exact on any input, with no float64 path.
The associative center's system is read off the Jordan kernel's join.
None raises ExactOverflow; the class stays for callers that catch it.

After a first join shared by every index, each kernel joins its remaining
terms over runs of consecutive l (the Jordan kernel) or k (the module
kernel).  A run takes the next index while the run's joined terms, counted
from the CSR row offsets before any join, stay within ``_RUN_TERMS``; an
index with more terms is a run on its own.  A run is summed by one
:func:`~jordanium.linalg.sum_by_key` under a key that carries the index
between the triple and the output coordinate, so each sum is still the sum
of one index, and the smallest key in any run still names the smallest
violating triple.  Small tensors pay the fixed numpy cost of a join once
per run instead of once per index; the largest (the free module of the
27-dimensional algebra, about 19,500 terms per l) keep one index per run,
so memory does not grow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import Mat, max_abs_int, row_pairs, sum_by_key


class ExactOverflow(Exception):
    """Entries too large for an exact path; no check in the package raises
    it any longer, and it stays for callers that catch it."""


# Joined terms per run of l (or k) in the two identity kernels.  On the 64
# Jordan and 41 module kernel inputs of one module-oracle round (best of 7,
# 2 vCPUs), one index per run took 0.133 + 0.051 s, runs of 2**12 terms
# 0.103 + 0.039 s, 2**14 0.099 + 0.034 s, 2**16 0.113 + 0.036 s and 2**18
# 0.137 + 0.041 s: past 2**14 the sorts grow faster than the calls shrink.
_RUN_TERMS = 2**14


def to_int_tensor(entries: Sequence[tuple[tuple[int, ...], Fraction]], shape: tuple[int, ...]):
    """Clear denominators of a sparse rational tensor, adding the values
    given at one index.

    Returns (array, scale) with array = scale * tensor, exactly and in
    lowest terms, as a :class:`Mat` holds a matrix: read-only, int64 when
    every entry is below 2**62 in size, object dtype otherwise.
    """
    vals = Mat.from_rows([[q for _, q in entries]])
    v = vals.ints[0]
    if len(v) * max_abs_int(v) >= 2**63:
        v = v.astype(object)  # a sum of repeated values may leave int64
    at = np.array([idx for idx, _ in entries], dtype=np.intp).reshape(-1, len(shape))
    keys, sums = sum_by_key(np.ravel_multi_index(tuple(at.T), shape), v)
    out = np.zeros(int(np.prod(shape)), dtype=v.dtype)
    out[keys] = sums
    t = Mat(out.reshape(1, -1), vals.den)
    return t.ints.reshape(shape), t.den


def _csr(t: np.ndarray, dtype) -> tuple[np.ndarray, ...]:
    """Nonzero entries (i, j, k, value) of a 3-tensor in row-major order,
    with the offsets of its rows i."""
    i, j, k = np.nonzero(t)
    return i, j, k, t[i, j, k].astype(dtype), np.searchsorted(i, np.arange(t.shape[0] + 1))


def _join_x(csr: tuple[np.ndarray, ...], i, j, a, v) -> tuple[np.ndarray, np.ndarray]:
    """X(i, j, b, r) = sum_a c[i, j, a] c[a, b, r] over the entries (i, j, a)
    of c with values v, joined with the rows a of c (csr = _csr(c)).

    Returns the distinct keys ((b n + i) n + j) n + r in increasing order,
    so CSR by b, with their nonzero sums.
    """
    ci, cj, ck, cv, cptr = csr
    n = len(cptr) - 1
    s, t = row_pairs(cptr, a)
    return sum_by_key(((cj[t] * n + i[s]) * n + j[s]) * n + ck[t], v[s] * cv[t])


def _row_sums(ptr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of w over each CSR row (row offsets ptr)."""
    return np.diff(np.concatenate(([0], np.cumsum(w)))[ptr])


def _runs(terms: np.ndarray):
    """Runs [lo, hi) of consecutive indices whose terms add up to at most
    _RUN_TERMS; an index with more terms is a run on its own."""
    done = np.concatenate(([0], np.cumsum(terms)))
    lo = 0
    while lo < len(terms):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + _RUN_TERMS, side="right")) - 1)
        yield lo, hi
        lo = hi


def _require_commutative(c: np.ndarray) -> None:
    if not np.array_equal(c, c.transpose(1, 0, 2)):
        raise ValueError("structure tensor is not commutative")


def jordan_violation(c: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First basis triple violating the linearized Jordan identity.

    c is the integer structure tensor of a commutative algebra,
    c[i, j, k] = coefficient of e_k in e_i e_j (times a global scale);
    ValueError if c[i, j] != c[j, i] anywhere.  The identity checked for
    every triple i <= j <= k (it is fully symmetric) is

        [L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i] = 0.

    Applied to e_l, each commutator is G(i, j, k, l) = (e_i e_j)(e_k e_l)
    - e_k((e_i e_j) e_l), and summing G over every ordering of (i, j, k)
    gives 2, 1 or 1/3 times the identity's value on e_l (three, two or one
    distinct indices).  Both terms are joins of the nonzero entries of c
    through X(i, j, b, r) = sum_a c[i, j, a] c[a, b, r], taken over runs of
    consecutive l (at most _RUN_TERMS terms a run, or one l) and summed
    under the key ((sorted (i, j, k)) n + l) n + r, below n**5: a sum per
    (triple, l, r), and the smallest key of any run has the smallest
    violating triple of that run.

    By commutativity X and G are symmetric in (i, j), so X is joined from
    the entries with i <= j only, those with i < j weighted by 2: every
    key's sum is that over all orderings, from half the terms, and with
    i <= j the sorted triple is (min(i, k), ., max(j, k)).  A weighted
    term stands for two equal ones, so the absolute values of a sum's
    terms add up to what they did over all orderings: at most 12 n**2
    products of three entries.  int64 is used when that bound stays below
    2**63 and object dtype otherwise: exact on any input.

    Returns the lexicographically smallest violating (i, j, k), or None.
    """
    _require_commutative(c)
    n = c.shape[0]
    dtype = np.int64 if 12 * n * n * max_abs_int(c) ** 3 < 2**63 else object
    csr = ci, cj, ck, cv, cptr = _csr(c, dtype)
    up = ci <= cj
    keys, xv = _join_x(csr, ci[up], cj[up], ck[up], np.where(ci[up] < cj[up], 2, 1) * cv[up])
    xb, xi, xj, xr = keys // n**3, keys // n**2 % n, keys // n % n, keys % n
    xptr = np.searchsorted(xb, np.arange(n + 1))

    def key(i, j, k, l, r):
        # (sorted (i, j, k), l, r) for i <= j
        lo, mid, hi = np.minimum(i, k), np.maximum(i, np.minimum(j, k)), np.maximum(j, k)
        return (((lo * n + mid) * n + hi) * n + l) * n + r

    # terms joined for each l: c[l, k, b] meets X row b, X(i, j, l, m) meets c row m
    terms = _row_sums(cptr, np.diff(xptr)[ck]) + _row_sums(xptr, np.diff(cptr)[xr])
    best: Optional[int] = None
    for lo, hi in _runs(terms):
        # (e_i e_j)(e_k e_l): c[l, k, b] against X(i, j, b, r)
        s, t = row_pairs(xptr, ck[cptr[lo] : cptr[hi]], cptr[lo])
        k1, v1 = key(xi[t], xj[t], cj[s], ci[s], xr[t]), xv[t] * cv[s]
        # e_k((e_i e_j) e_l): X(i, j, l, m) against c[m, k, r]
        s, t = row_pairs(cptr, xr[xptr[lo] : xptr[hi]], xptr[lo])
        k2, v2 = key(xi[s], xj[s], cj[t], xb[s], ck[t]), -(xv[s] * cv[t])
        keys, _ = sum_by_key(np.concatenate((k1, k2)), np.concatenate((v1, v2)))
        if keys.size and (best is None or keys[0] // (n * n) < best):
            best = int(keys[0] // (n * n))
    if best is None:
        return None
    return best // (n * n), best // n % n, best % n


def center_system(c: np.ndarray) -> np.ndarray:
    """The nonzero rows, in order, of the integer system whose nullspace is
    the associative center {z : (x y) z = x (y z)} of a commutative algebra.

    Row (i n + j) n + r, column z holds the e_r coordinate of
    (e_i e_j) e_z - e_i (e_j e_z), which is X(i, j, z, r) - X(j, z, i, r) by
    commutativity (ValueError if c is not commutative), with X the Jordan
    kernel's join over all entries of c.  Each entry is at most
    2 n max|c|**2 in size: int64 when n max|c|**2 < 2**62, else object.
    """
    _require_commutative(c)
    n = c.shape[0]
    dtype = np.int64 if n * max_abs_int(c) ** 2 < 2**62 else object
    csr = ci, cj, ck, cv, _ = _csr(c, dtype)
    keys, xv = _join_x(csr, ci, cj, ck, cv)
    b, i, j, r = keys // n**3, keys // n**2 % n, keys // n % n, keys % n
    keys, vals = sum_by_key(
        np.concatenate(((((i * n + j) * n + r) * n + b), ((b * n + i) * n + r) * n + j)),
        np.concatenate((xv, -xv)),
    )
    rows, at = np.unique(keys // n, return_inverse=True)
    out = np.zeros((rows.size, n), dtype=dtype)
    out[at, keys % n] = vals
    return out


def module_identity_violation(c: np.ndarray, a: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First violation of [[A_i, A_j], A_k] + A((e_i e_k) e_j - e_i (e_k e_j)).

    c is the algebra structure tensor, a[i] the action operator of e_i
    (a[i][out][in]); both must carry the same denominator-clearing scale so
    that the two terms are comparable.  Both sides are antisymmetric in
    (i, j), so the triples i < j decide it; joined terms at i = j get sign 0.

    With t[i, alpha, beta] = a[i][beta][alpha], G = A_i A_j - A_j A_i is
    summed once; then, over runs of consecutive k (at most _RUN_TERMS terms
    a run, or one k), G A_k, -A_k G and sum_r assoc(i, k, j, r) A_r are
    summed under the key ((i n + j) n + k, alpha, beta), with
    assoc(i, k, j, r) = X(k, i, j, r) - X(k, j, i, r) and X the Jordan
    kernel's join.  A run's terms are counted before the associator's
    sums over coinciding (i, j, k, r) merge, so the count is an upper
    bound.  For M the largest entry, the terms of any sum add up to at most
    (4 m**2 + 2 n**2) M**3 in size: int64 below 2**63, else object.

    Returns the smallest violating (i, j), with the smallest k for it, as
    (i, j, k) with i < j, else None.
    """
    n, m = c.shape[0], a.shape[1]
    big = max(max_abs_int(c), max_abs_int(a))
    dtype = np.int64 if (4 * m * m + 2 * n * n) * big**3 < 2**63 else object
    ci, cj, ck, cv, cptr = _csr(c, dtype)
    # the action's entries CSR by op and by (op, in), and as u CSR by in
    t = a.transpose(0, 2, 1)
    ti, ta, tb, tv, optr = _csr(t, dtype)
    tptr = np.searchsorted(ti * m + ta, np.arange(n * m + 1))
    _, ui, ub, uv, uptr = _csr(t.transpose(1, 0, 2), dtype)
    # G keyed (in, i, j, out): A_i A_j sends f_alpha to t[j, alpha, g] t[i, g, beta] f_beta
    s, u = row_pairs(uptr, tb)
    x, y = ui[u], ti[s]
    pair, sign = np.minimum(x, y) * n + np.maximum(x, y), np.sign(y - x)
    keys, gv = sum_by_key((ta[s] * n * n + pair) * m + ub[u], sign * tv[s] * uv[u])
    g_in, g_pair, g_out = keys // (n * n * m), keys // m % (n * n), keys % m
    gptr = np.searchsorted(g_in, np.arange(m + 1))

    # terms joined for each k: t[k, alpha, g] meets G rows g; G(in, out g)
    # meets t[k, g, :]; c[k, x, w] c[w, y, r] meets A_r, counted before the
    # associator sums coincide
    terms = (
        _row_sums(optr, np.diff(gptr)[tb])
        + np.diff(tptr).reshape(n, m) @ np.bincount(g_out, minlength=m)
        + _row_sums(cptr, _row_sums(cptr, np.diff(optr)[ck])[ck])
    )
    best: Optional[int] = None
    for lo, hi in _runs(terms):
        # G A_k: t[k, alpha, g] against G(in g, out beta)
        s, u = row_pairs(gptr, tb[optr[lo] : optr[hi]], optr[lo])
        k1, v1 = ((g_pair[u] * n + ti[s]) * m + ta[s]) * m + g_out[u], tv[s] * gv[u]
        # -A_k G: G(in alpha, out g) against t[k, g, beta], G tiled once per k
        s, u = row_pairs(tptr, (np.arange(lo, hi)[:, None] * m + g_out).ravel())
        s %= g_out.size
        k2, v2 = ((g_pair[s] * n + ti[u]) * m + g_in[s]) * m + tb[u], -(gv[s] * tv[u])
        # assoc(i, k, j, r) from X(k, x, y, r) = c[k, x, w] c[w, y, r], then A_r
        s, u = row_pairs(cptr, ck[cptr[lo] : cptr[hi]], cptr[lo])
        x, y = cj[s], cj[u]
        pair, sign = np.minimum(x, y) * n + np.maximum(x, y), np.sign(y - x)
        keys, av = sum_by_key((pair * n + ci[s]) * n + ck[u], sign * cv[s] * cv[u])
        s, u = row_pairs(optr, keys % n)
        k3, v3 = (keys[s] // n * m + ta[u]) * m + tb[u], av[s] * tv[u]
        keys, _ = sum_by_key(np.concatenate((k1, k2, k3)), np.concatenate((v1, v2, v3)))
        if keys.size and (best is None or keys[0] // (m * m) < best):
            best = int(keys[0] // (m * m))
    if best is None:
        return None
    return best // (n * n), best // n % n, best % n
