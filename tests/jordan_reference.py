"""Reference routes for the Jordan kernel and the center system.

The Fraction triple loop decides the Jordan identity from left-multiplication
operators.  The full join is the sparse kernel as it was before it summed
over i <= j only: X over every ordered pair, both copies joined again for
each l.  The dense center system stacks L(e_i e_j) - L_i L_j block by block
with one tensordot and one product per basis pair.  The routes in
``jordanium.kernels`` must agree with these exactly.
"""

from typing import Optional

import numpy as np

from jordanium.kernels import _csr
from jordanium.linalg import max_abs_int, row_pairs, sum_by_key


def reference_witness_operator(a, i, j, k):
    """[L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i] from
    Fraction left-multiplication operators."""

    def term(x, y, z):
        u = a.left_op(a.basis_product(x, y))
        return u.commutator(a.left_mult_basis(z))

    return term(i, j, k) + term(k, i, j) + term(j, k, i)


def reference_jordan_violation(a):
    """Smallest i <= j <= k whose witness operator is nonzero, in Fractions."""
    n = a.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if not reference_witness_operator(a, i, j, k).is_zero():
                    return (i, j, k)
    return None


def full_join_jordan_violation(c: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The Jordan kernel over all ordered pairs (i, j): G(i, j, k, l) summed
    under the key (sorted (i, j, k), r), one l at a time."""
    n = c.shape[0]
    dtype = np.int64 if 12 * n * n * max_abs_int(c) ** 3 < 2**63 else object
    ci, cj, ck, cv, cptr = _csr(c, dtype)
    s, t = row_pairs(cptr, ck)
    keys, xv = sum_by_key(((cj[t] * n + ci[s]) * n + cj[s]) * n + ck[t], cv[s] * cv[t])
    xb, xi, xj, xr = keys // n**3, keys // n**2 % n, keys // n % n, keys % n
    xptr = np.searchsorted(xb, np.arange(n + 1))

    best: Optional[int] = None
    for l in range(n):
        s, t = row_pairs(xptr, ck[cptr[l] : cptr[l + 1]], cptr[l])
        i1, j1, k1, r1, v1 = xi[t], xj[t], cj[s], xr[t], xv[t] * cv[s]
        s, t = row_pairs(cptr, xr[xptr[l] : xptr[l + 1]], xptr[l])
        i2, j2, k2, r2, v2 = xi[s], xj[s], cj[t], ck[t], -(xv[s] * cv[t])
        i, j, k, r = (np.concatenate(p) for p in ((i1, i2), (j1, j2), (k1, k2), (r1, r2)))
        lo = np.minimum(np.minimum(i, j), k)
        hi = np.maximum(np.maximum(i, j), k)
        code = (lo * n + (i + j + k - lo - hi)) * n + hi
        keys, _ = sum_by_key(code * n + r, np.concatenate((v1, v2)))
        if keys.size and (best is None or keys[0] // n < best):
            best = int(keys[0] // n)
    if best is None:
        return None
    return best // (n * n), best // n % n, best % n


def dense_center_system(c: np.ndarray) -> np.ndarray:
    """Nonzero rows of the stacked blocks L(e_i e_j) - L_i L_j, row
    (i n + j) n + r and column z, one tensordot and one product per pair."""
    n = c.shape[0]
    if n * max_abs_int(c) ** 2 >= 2**62:
        c = c.astype(object)
    li = np.ascontiguousarray(c.transpose(0, 2, 1))  # scaled L_i as L[i][r][j]
    rows = np.zeros((n * n * n, n), dtype=c.dtype)
    pos = 0
    for i in range(n):
        for j in range(n):
            lij = np.tensordot(c[i, j], li, axes=(0, 0))  # scale^2 * L(e_i e_j)
            lilj = li[i] @ li[j]  # scale^2 * L_i L_j
            rows[pos : pos + n] = lij - lilj
            pos += n
    return rows[rows.any(axis=1)]
