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
(index, sign) pairs, and :func:`mat_product` multiplies (..., n, n, d)
integer arrays of matrices with Cayley-Dickson entries through it (Baez,
"The Octonions", Bull. AMS 39, 2002).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import max_abs_int

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


def mat_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of n x n matrices with Cayley-Dickson entries, as (..., n, n, d) arrays.

    (xy)[i, j] = sum_t x[i, t] y[t, j], each entry product contracted with
    ``sign_tensor``; leading axes broadcast.  The sum runs in int64 only when
    max|x| max|y| n d is below 2**63, and in object dtype otherwise: every
    output has at most n d nonzero terms, so this bounds the partial sums of
    any contraction order einsum picks.
    """
    n, d = x.shape[-2:]
    if max_abs_int(x) * max_abs_int(y) * n * d >= 2**63:
        x, y = x.astype(object), y.astype(object)
    o = sign_tensor(d.bit_length() - 1)
    return np.einsum("...ita,...tjb,abc->...ijc", x, y, o, optimize=True)


def coords_in_basis(w: np.ndarray, basis: np.ndarray) -> Optional[np.ndarray]:
    """Integer coordinates of each (n, n, d) matrix of w in basis, or None.

    basis is (N, n, n, d) with entries 0, +1, -1 and pairwise disjoint
    supports, so a coordinate is the inner product with its basis matrix
    divided by that matrix's squared norm.  None when some matrix of w is not
    the integer combination of the basis its coordinates give.  Each sum has
    at most two nonzero terms, so int64 input below 2**62 cannot overflow.
    """
    b = basis.reshape(len(basis), int(np.prod(basis.shape[1:])))
    flat = w.reshape(-1, b.shape[1])
    coords = (flat @ b.T) // (b * b).sum(axis=1)
    if not (coords @ b == flat).all():
        return None
    return coords.reshape(w.shape[:-3] + (len(basis),))
