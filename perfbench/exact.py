"""The benchmark's own exact arithmetic, kept apart from jordanium's code.

Every check of a program output is computed here from raw data (structure
constants, operator entries, matrices) or from a property the mathematics
must have.  Rationals are cleared to integers and multiplied as numpy int64
only under an explicit magnitude bound; past the bound the same products
run on Python integers (dtype=object), so every answer is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

# a prime below 2**31: residue products stay below 2**62
RANK_PRIME = 2147483647


def _bound_ok(*factors: int) -> bool:
    prod = 1
    for f in factors:
        prod *= max(int(f), 1)
    return prod < 2**62


def _maxabs(arr: np.ndarray) -> int:
    return max((abs(int(x)) for x in arr.flat), default=0)


def int_array(rows: Sequence[Sequence[Fraction]]) -> tuple[np.ndarray, int]:
    """(integer object array, scale) with array = scale * rows."""
    s = 1
    for row in rows:
        for x in row:
            s = lcm(s, Fraction(x).denominator)
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            x = Fraction(x)
            out[i, j] = x.numerator * (s // x.denominator)
    return out, s


def fraction_array(rows: Sequence[Sequence]) -> np.ndarray:
    """Object array of Fractions, for small exact matrix products."""
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


def _narrow(arr: np.ndarray, *partners: int) -> np.ndarray:
    """int64 copy when every product with the partners fits, else as is."""
    return arr.astype(np.int64) if _bound_ok(_maxabs(arr), *partners) else arr


# ---------------------------------------------------------------------------
# algebras given by structure constants


def structure_tensor(entries, dim: int) -> tuple[np.ndarray, int]:
    """Integer tensor c[i, j, k] (times a scale) from (i, j, k, q) entries.

    Entries are the commutative table as the algebra lists it; the (j, i)
    products are filled in from (i, j).
    """
    s = 1
    for _, _, _, q in entries:
        s = lcm(s, Fraction(q).denominator)
    c = np.zeros((dim, dim, dim), dtype=object)
    for i, j, k, q in entries:
        q = Fraction(q)
        v = q.numerator * (s // q.denominator)
        c[i, j, k] = v
        c[j, i, k] = v
    return c, s


def _left_mults(c: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(c.transpose(0, 2, 1))  # L[m][r][l] = c[m, l, r]


def jordan_value(c: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """[L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i], scaled."""
    lm = _left_mults(c)

    def term(x: int, y: int, z: int) -> np.ndarray:
        u = np.tensordot(c[x, y], lm, axes=(0, 0))
        return u.dot(lm[z]) - lm[z].dot(u)

    return term(i, j, k) + term(k, i, j) + term(j, k, i)


def smallest_jordan_violation(c: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest i <= j <= k where the identity fails.

    Dense over all triples at once; meant for small algebras only.
    """
    n = c.shape[0]
    cmax = _maxabs(c)
    lm = _narrow(_left_mults(c), cmax, n)
    cc = _narrow(c, cmax, n)
    u = np.tensordot(cc, lm, axes=(2, 0))  # u[i, j] = L(e_i e_j)
    u = _narrow(u, cmax, n, 2)
    # t[i, j, k] = [u[i, j], L_k]
    t = np.einsum("ijrm,kml->ijkrl", u, lm) - np.einsum("krm,ijml->ijkrl", lm, u)
    total = t + t.transpose(2, 0, 1, 3, 4) + t.transpose(1, 2, 0, 3, 4)
    bad = (total != 0).any(axis=(3, 4))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if bad[i, j, k]:
                    return (i, j, k)
    return None


def module_value(c: np.ndarray, a: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """[[A_i, A_j], A_k] + A((e_i e_k) e_j - e_i (e_k e_j)), scaled.

    c and a must carry one common scale; a[i] is the operator of e_i as
    a[i][out][in].
    """
    g = a[i].dot(a[j]) - a[j].dot(a[i])
    lhs = g.dot(a[k]) - a[k].dot(g)
    # (e_i e_k) e_j - e_i (e_k e_j) in coordinates, scaled twice
    ik = c[i, k]
    kj = c[k, j]
    assoc = np.tensordot(ik, c[:, j], axes=(0, 0)) - np.tensordot(kj, c[i], axes=(0, 0))
    return lhs + np.tensordot(assoc, a, axes=(0, 0))


def smallest_module_violation(c: np.ndarray, a: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Smallest (i, j, k) with i < j where the module identity fails."""
    n = c.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if (module_value(c, a, i, j, k) != 0).any():
                    return (i, j, k)
    return None


def module_tensors(structure_entries, dim: int, ops: Sequence) -> tuple[np.ndarray, np.ndarray, int]:
    """Structure tensor and action tensor under one shared scale s."""
    c, sc = structure_tensor(structure_entries, dim)
    rows = [x for op in ops for x in op]
    a, sa = int_array(rows)
    s = lcm(sc, sa)
    m = len(ops[0]) if ops else 0
    return c * (s // sc), a.reshape(len(ops), m, m) * (s // sa), s


# ---------------------------------------------------------------------------
# derivations


def leibniz_failures(c: np.ndarray, mats: Sequence[Sequence[Sequence]]) -> list[int]:
    """Indices of the operators X that break X(ab) = X(a) b + a X(b).

    Each X is cleared of denominators on its own (the rule is linear in X);
    the test runs on all basis pairs at once.
    """
    if not mats:
        return []
    n = c.shape[0]
    xs = np.stack([int_array(m)[0] for m in mats])
    cmax, xmax = _maxabs(c), _maxabs(xs)
    if _bound_ok(cmax, xmax, 3 * n):
        c, xs = c.astype(np.int64), xs.astype(np.int64)
    r1 = np.einsum("ijk,brk->bijr", c, xs)
    r2 = np.einsum("bmi,mjr->bijr", xs, c)
    r3 = np.einsum("bmj,imr->bijr", xs, c)
    res = r1 - r2 - r3
    return [b for b in range(len(mats)) if (res[b] != 0).any()]


def rank_mod_p(vectors: Sequence[Sequence], p: int = RANK_PRIME) -> int:
    """Rank of rational vectors modulo p, a lower bound on the exact rank.

    Each vector is scaled to coprime integers first; a rank equal to the
    number of vectors certifies their linear independence over Q.
    """
    rows = []
    for v in vectors:
        iv, _ = int_array([v])
        g = 0
        for x in iv.flat:
            g = gcd(g, int(x))
        rows.append([(int(x) // g if g else 0) % p for x in iv.flat])
    if not rows:
        return 0
    m = np.array(rows, dtype=np.int64)
    rank = 0
    nr, nc = m.shape
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r, col]), None)
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), -1, p)) % p
        others = np.nonzero(m[:, col])[0]
        for r in others:
            if r != rank:
                m[r] = (m[r] - m[r, col] * m[rank]) % p
        rank += 1
        if rank == nr:
            break
    return rank


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x.dot(y) - y.dot(x)


def expands_as(target: np.ndarray, coeffs: Sequence, basis: Sequence[np.ndarray]) -> bool:
    """target == sum_g coeffs[g] * basis[g], exactly."""
    acc = np.zeros(target.shape, dtype=object)
    acc[...] = Fraction(0)
    for q, b in zip(coeffs, basis, strict=True):
        if q:
            acc = acc + b * Fraction(q)
    return bool((acc == target).all())


def bracket_constants(mats: Sequence[np.ndarray], free: Sequence[int]) -> list[list[list[Fraction]]]:
    """b[p][q][g]: coefficients of [X_p, X_q] in the basis X, verified.

    The coordinates at the basis's free positions propose the coefficients
    (the basis is in reduced echelon form there); the full expansion is
    then checked exactly, and a failure raises.
    """
    d = len(mats)
    out = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for p in range(d):
        for q in range(p + 1, d):
            comm = commutator(mats[p], mats[q])
            flat = comm.reshape(-1)
            coeffs = [Fraction(flat[f]) for f in free]
            if not expands_as(comm, coeffs, mats):
                raise ValueError("bracket [X_%d, X_%d] leaves the span" % (p, q))
            out[p][q] = coeffs
            out[q][p] = [-x for x in coeffs]
    return out


def lie_morphism(blocks: Sequence[np.ndarray], b: list[list[list[Fraction]]]) -> bool:
    """[A_mu, A_nu] == sum_tau b[mu][nu][tau] A_tau for every pair."""
    d = len(blocks)
    for mu in range(d):
        for nu in range(mu + 1, d):
            if not expands_as(commutator(blocks[mu], blocks[nu]), b[mu][nu], blocks):
                return False
    return True


def intertwines(h: np.ndarray, src_ops: Sequence[np.ndarray], dst_ops: Sequence[np.ndarray]) -> bool:
    """h a = a h for every pair of action operators (target x source)."""
    return all(
        bool((t.dot(h) == h.dot(s)).all()) for s, t in zip(src_ops, dst_ops, strict=True)
    )


def inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = m.shape[0]
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return fraction_array([row[n:] for row in a])
