"""Derivation Lie algebras of the structure-constant algebras.

A derivation is a linear operator X with X(ab) = X(a)b + a X(b).  For a
fixed basis this is one homogeneous linear system over the matrix entries,
and :func:`derivation_basis` solves it exactly.  The system is built as
sorted (row, column, value) triples joined from the nonzero structure
constants, never as the dense n(n+1)/2 * n by n**2 array, and goes to
``linalg.nullspace_int`` as it is; its Gram matrix splits into connected
components (on the 27-dimensional algebra, 32 of at most 33 of its 729
columns).  On the 27-dimensional exceptional algebra the answer is the
52-dimensional simple Lie algebra of type f4; the subalgebra annihilating
the three diagonal idempotents is the 28-dimensional d4, isomorphic to
so(8) acting compatibly on the three off-diagonal octonion slots.
:func:`complete_triality` reconstructs, from one antisymmetric 8x8
generator, the unique other two members of such a compatible triple, by
one cached exact linear map (one kernel, computed on first use).

Inner derivations are the commutators [L_x, L_y] of multiplication
operators; for the simple algebras they span everything, and
:func:`express_in_inner` finds an explicit expansion.

The commutators [L_i, L_j] and [D_p, D_q] are products of the exact integer
structure tensor ``AlgebraPresentation.int_tensor()`` taken by
``linalg.exact_int_matmul``, which decides exactness per product (float64,
int64 or object dtype); no entry size raises ``ExactOverflow``.  The
Leibniz test of any stack of operators is one keyed ``linalg.sparse_join``
of the operators' nonzero entries with the transposed Leibniz system; the
system and its transpose are built once per presentation.  The Jacobi test
joins the nonzero bracket constants.  The octonion constructions read
the integer ``cayley_dickson.sign_tensor(3)``: the triality defect and
completion system are signed gathers of matrix entries, and a commutator
action is one exact product with a cached tensor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraPresentation, antihermitian_basis, center_basis, hermitian_basis
from .cayley_dickson import basis_products, conj_array, sign_tensor
from .linalg import (
    Mat,
    Triples,
    Vec,
    commutators,
    exact_int_matmul,
    max_abs_int,
    nullspace_int,
    pair_products,
    rank_lower_bound,
    row_pairs,
    scale_ints,
    scaled_int_mats,
    solve_int,
    sparse_join,
    sum_by_key,
    triples,
    triples_by_key,
)

# ---------------------------------------------------------------------------
# the Leibniz system


def _leibniz_system(a: AlgebraPresentation, transposed: bool = False) -> Triples:
    """The constraint X(e_i e_j) - X(e_i)e_j - e_i X(e_j) = 0 as triples.

    Unknowns are the n*n matrix entries X[r, c] flattened row-major; row
    t n + r is coordinate r for the t-th basis pair (i, j), i <= j, in
    increasing order.  Each nonzero structure constant c[x, y, z] enters
    three terms: +c[x, y, z] at X[s, z] in every row s of pair (x, y) when
    x <= y, and -c[x, y, z] at X[y, i] in row z of every pair (i, x) and
    at X[y, j] in row z of every pair (x, j).  An entry is the sum of at
    most three constants: int64 when 3 max|c| < 2**62, object dtype
    otherwise.  Built once per presentation and stashed on it, as is the
    transpose (row u the unknown u) on its first request.
    """
    cache = a.__dict__.setdefault("_leibniz_cache", {})
    if transposed in cache:
        return cache[transposed]
    if transposed:
        s = _leibniz_system(a)
        cache[True] = triples_by_key(s.col * s.shape[0] + s.row, s.val, s.shape[::-1])
        return cache[True]
    c, _ = a.int_tensor()
    if 3 * max_abs_int(c) >= 2**62:
        c = c.astype(object)
    n = a.dim
    x, y, z = np.nonzero(c)
    v = c[x, y, z]

    def pair(i: np.ndarray, j: np.ndarray) -> np.ndarray:  # index of (i, j), i <= j
        return i * n - i * (i - 1) // 2 + j - i

    up = np.flatnonzero(x <= y).repeat(n)
    s = np.tile(np.arange(n), up.size // max(n, 1))
    left = np.repeat(np.arange(x.size), x + 1)  # pairs (i, x), i = 0..x
    i = np.arange(left.size) - np.repeat(np.cumsum(x + 1) - x - 1, x + 1)
    right = np.repeat(np.arange(x.size), n - x)  # pairs (x, j), j = x..n-1
    j = np.arange(right.size) - np.repeat(np.cumsum(n - x) - n, n - x)
    row = np.concatenate(
        (pair(x[up], y[up]) * n + s, pair(i, x[left]) * n + z[left], pair(x[right], j) * n + z[right])
    )
    col = np.concatenate((s * n + z[up], y[left] * n + i, y[right] * n + j))
    vals = np.concatenate((v[up], -v[left], -v[right]))
    cache[False] = triples_by_key(row * (n * n) + col, vals, (n * (n + 1) // 2 * n, n * n))
    return cache[False]


def _leibniz_witnesses(a: AlgebraPresentation, xs: np.ndarray) -> list[Optional[tuple[int, int]]]:
    """For each integer operator of the stack xs (b, n, n), its first failing pair.

    The operators flattened row-major, one per row, times the transposed
    Leibniz system are their defects: one keyed ``linalg.sparse_join`` of
    the operators' nonzero entries, which passes only the system rows they
    select.  The defect is bilinear in the structure constants and X, so
    both scales cancel.  The witness is the pair of the row's first nonzero
    column, the lexicographically first (i, j), i <= j, in the system's
    order of pairs (``np.triu_indices``).
    """
    n, b = a.dim, len(xs)
    ops = triples(xs.reshape(b, n * n))
    defect = sparse_join(ops.row, ops.col, ops.val, _leibniz_system(a, transposed=True), b, keyed=True)
    fails = np.flatnonzero(np.diff(defect.ptr))  # operators with a nonzero defect
    first = dict(zip(fails.tolist(), (defect.col[defect.ptr[fails]] // n).tolist()))
    i, j = np.triu_indices(n)
    return [(int(i[first[k]]), int(j[first[k]])) if k in first else None for k in range(b)]


def leibniz_violation(a: AlgebraPresentation, x: Mat) -> Optional[tuple[int, int]]:
    """First basis pair (i, j), i <= j, where x fails the derivation rule, or None."""
    n = a.dim
    if x.rows != n or x.cols != n:
        raise ValueError("operator shape does not match the algebra")
    return _leibniz_witnesses(a, x.ints[None])[0]


@dataclass(frozen=True)
class DerivationBasis:
    """Canonical basis of the derivation Lie algebra of one algebra.

    The basis comes from the reduced echelon form of the Leibniz system, so
    flattened basis vectors satisfy mats[a].flatten()[free_coords[b]] ==
    delta(a, b); expansion coefficients of any span member can be read off
    its free coordinates directly.
    """

    algebra: AlgebraPresentation
    mats: tuple[Mat, ...]
    free_coords: tuple[int, ...]
    # the bracket constants as a (dim**2, dim) Mat, stored by bracket_constants
    brackets: Optional[Mat] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.mats)

    def _combination(self, q: Mat) -> Mat:
        """sum_a q[0, a] mats[a] for a (1, dim) Mat q, as one exact product."""
        n = self.algebra.dim
        (stack,), s = scaled_int_mats(self.mats)
        prod = exact_int_matmul(q.ints, stack.reshape(len(stack), n * n))
        return Mat(prod.reshape(n, n), s * q.den)

    def coefficients_of(self, x: Mat) -> Vec:
        """Exact expansion of x in this basis; raises if x is not in the span."""
        q = Mat(x.ints.reshape(1, -1)[:, list(self.free_coords)], x.den)
        if self._combination(q) != x:
            raise ValueError("operator is not in the derivation span")
        return q.flatten()

    def element(self, coeffs: Sequence) -> Mat:
        return self._combination(Mat.from_rows([coeffs]))


def derivation_basis(a: AlgebraPresentation) -> DerivationBasis:
    """All derivations, as the exact nullspace of the Leibniz system."""
    kernel, pivots = nullspace_int(_leibniz_system(a))
    n = a.dim
    pivset = set(pivots)
    free = tuple(k for k in range(n * n) if k not in pivset)
    return DerivationBasis(a, tuple(Mat(v.reshape(n, n), kernel.den) for v in kernel.ints), free)


# ---------------------------------------------------------------------------
# structure constants of the derivation algebra


def bracket_constants(der: DerivationBasis) -> Mat:
    """The (d**2, d) Mat whose row p d + q holds the coefficients of
    [D_p, D_q] in the basis, exactly verified; computed once per basis and
    stored on it as ``der.brackets``.

    The commutator of two derivations is a derivation, so it must expand in
    the computed basis; the expansion from the canonical free coordinates is
    re-checked by one exact matrix product over all pairs.
    """
    if der.brackets is not None:
        return der.brackets
    d = der.dim
    n = der.algebra.dim
    (ints,), s = scaled_int_mats(der.mats)
    flat = ints.reshape(d, n * n)
    free = np.array(der.free_coords, dtype=np.int64)
    ps, qs = np.triu_indices(d, 1)
    commflat = commutators(ints)[ps, qs].reshape(len(ps), n * n)
    # scaled coefficients: comm = sum_g (chat[g]/s) * mats[g] (both sides x s^2)
    chat = commflat[:, free]
    if not (exact_int_matmul(chat, flat) == scale_ints(commflat, s)).all():
        raise AssertionError("derivation bracket left the computed span")
    full = np.zeros((d, d, d), dtype=chat.dtype)
    full[ps, qs] = chat
    full[qs, ps] = -chat
    brackets = Mat(full.reshape(d * d, d), s * s)
    # DerivationBasis is frozen; the cache is its one mutable field
    object.__setattr__(der, "brackets", brackets)
    return brackets


def structure_constants(der: DerivationBasis) -> list[list[Vec]]:
    """b[p][q] = coefficients of [D_p, D_q]: :func:`bracket_constants` as lists."""
    d = der.dim
    coeffs = bracket_constants(der).flatten()
    return [[coeffs[(p * d + q) * d : (p * d + q + 1) * d] for q in range(d)] for p in range(d)]


def check_jacobi(b: list[list[Vec]]) -> bool:
    """Jacobi identity for bracket constants b[p][q] = coeffs of [D_p, D_q]: each
    nonzero b[p, q, e] times row e of b, b[e, r, f], is added under the three
    cyclic keys of ((p, q, r), f) by one sum_by_key, and no sum may be left;
    a sum has at most 3 d terms of size max|b|**2 (int64 below 2**63)."""
    d = len(b)
    if d == 0:
        return True
    bi = Mat.from_rows([v for row in b for v in row]).ints
    if 3 * d * max_abs_int(bi) ** 2 >= 2**63:
        bi = bi.astype(object)
    by_row = triples(bi.reshape(d, d * d))  # entry (e, r d + f) is b[e, r, f]
    pq, e = np.nonzero(bi)  # bi[p d + q, e] = b[p, q, e]
    left, right = row_pairs(by_row.ptr, e)
    prod = bi[pq[left], e[left]] * by_row.val[right]
    (p, q), (r, f) = np.divmod(pq[left], d), np.divmod(by_row.col[right], d)
    keys = np.concatenate([((x * d + y) * d + z) * d + f for x, y, z in ((p, q, r), (q, r, p), (r, p, q))])
    return sum_by_key(keys, np.tile(prod, 3))[0].size == 0


# ---------------------------------------------------------------------------
# structural checks


def check_unit_annihilated(der: DerivationBasis) -> bool:
    u = der.algebra.unit
    zero = der.algebra.zero()
    return all(m.apply(u) == zero for m in der.mats)


def check_center_stability(der: DerivationBasis) -> bool:
    """Derivations map the associative center into itself: every D_p(z_t),
    formed by one exact product, expands in the center basis (one solve_int)."""
    center = center_basis(der.algebra)
    if not der.dim:
        return True
    zs = Mat.from_rows(center)
    n = der.algebra.dim
    (x,), _ = scaled_int_mats(der.mats)
    # column (p, t) is a positive multiple of D_p(z_t)
    dz = exact_int_matmul(x.reshape(-1, n), zs.ints.T).reshape(der.dim, n, -1)
    return None not in solve_int(zs.ints.T, dz.transpose(1, 0, 2).reshape(n, -1))


def check_lie_rinehart(der: DerivationBasis) -> dict:
    """The center / derivation pair carries the expected structure.

    Checks that z * D is again a derivation for central z (module structure,
    one Leibniz test of every L_z D_p) and the mixed bracket law
    [D, z D'] = D(z) D' + z [D, D'], as exact products of scaled integer
    operators; both sides of the law carry the same scales.
    """
    a = der.algebra
    n = a.dim
    d = der.dim
    center = center_basis(a)
    if d == 0 or not center:
        return {"center_stable": True, "module_closed": True, "mixed_bracket": True}
    c, _ = a.int_tensor()
    (dints,), _ = scaled_int_mats(der.mats)
    k = len(center)
    zints = Mat.from_rows(center).ints
    # lz[z] = L_z and ldz[z, p] = L(D_p z), with L_x[r, m] = sum_i x_i c[i, m, r]
    lz = exact_int_matmul(zints, c.reshape(n, n * n)).reshape(k, n, n).transpose(0, 2, 1)
    dz = exact_int_matmul(zints, dints.reshape(d * n, n).T)  # dz[z, (p, r)] = D_p(z)_r
    ldz = exact_int_matmul(dz.reshape(k * d, n), c.reshape(n, n * n))
    ldz = ldz.reshape(k, d, n, n).transpose(0, 1, 3, 2)
    lzd = pair_products(lz, dints)  # lzd[z, p] = L_z D_p
    module_ok = all(w is None for w in _leibniz_witnesses(a, lzd.reshape(k * d, n, n)))
    comm = commutators(dints)
    bracket_ok = True
    for z in range(k):
        lhs = pair_products(dints, lzd[z]) - pair_products(lzd[z], dints).transpose(1, 0, 2, 3)
        z_comm = pair_products(lz[z : z + 1], comm.reshape(d * d, n, n))[0]
        rhs = pair_products(ldz[z], dints) + z_comm.reshape(d, d, n, n)
        if (lhs != rhs).any():
            bracket_ok = False
    return {
        "center_stable": check_center_stability(der),
        "module_closed": module_ok,
        "mixed_bracket": bracket_ok,
    }


# ---------------------------------------------------------------------------
# inner derivations


def inner_operator(a: AlgebraPresentation, x: Sequence, y: Sequence) -> Mat:
    """[L_x, L_y]; always a derivation when the algebra is Jordan."""
    return a.left_op(x).commutator(a.left_op(y))


def _inner_table(a: AlgebraPresentation) -> tuple[list[tuple[int, int]], np.ndarray, int]:
    """Pairs i < j, the integer stack s**2 [L_i, L_j] with L_i = c[i]^T, and s**2."""
    c, s = a.int_tensor()
    ii, jj = np.triu_indices(a.dim, 1)
    table = commutators(c.transpose(0, 2, 1))[ii, jj]
    return list(zip(ii.tolist(), jj.tolist())), table, s * s


def inner_basis_operators(a: AlgebraPresentation) -> list[tuple[tuple[int, int], Mat]]:
    """[L_i, L_j] for basis pairs i < j."""
    pairs, table, s2 = _inner_table(a)
    return [(pair, Mat(op, s2)) for pair, op in zip(pairs, table)]


def inner_span_report(a: AlgebraPresentation, der: Optional[DerivationBasis] = None) -> dict:
    """Whether the basis commutators [L_i, L_j] are derivations spanning Der.

    Rank reasoning: once every commutator passes the exact Leibniz test it
    lies in the derivation span, so its rank is at most dim Der; a mod-p
    pivot count meeting that bound is then an exact rank certificate.
    """
    if der is None:
        der = derivation_basis(a)
    pairs, table, _ = _inner_table(a)
    if pairs:
        all_der = all(w is None for w in _leibniz_witnesses(a, table))
        stacked = table.reshape(len(pairs), -1)
        rank_lower = rank_lower_bound(stacked, der.dim)
    else:
        all_der = True
        rank_lower = 0
    spans = all_der and rank_lower == der.dim
    if all_der and rank_lower < der.dim and pairs:
        # certificate failed; settle it exactly (small algebras only)
        rank_exact = stacked.shape[0] - nullspace_int(stacked.T)[0].rows
        spans = rank_exact == der.dim
        rank_lower = rank_exact
    return {
        "pairs": len(pairs),
        "all_derivations": all_der,
        "span_rank": rank_lower,
        "derivation_dim": der.dim,
        "spans_derivations": spans,
    }


InnerExpansion = list[tuple[tuple[int, int], Fraction]]


def express_in_inner(a: AlgebraPresentation, x: Mat) -> Optional[InnerExpansion]:
    """Write x as sum of q_(i,j) [L_i, L_j] over basis pairs, or None."""
    return inner_expansions(a, [x])[0]


def inner_expansions(a: AlgebraPresentation, xs: Sequence[Mat]) -> list[Optional[InnerExpansion]]:
    """:func:`express_in_inner` for each operator of xs, on one integer table.

    The columns are the integer table s**2 [L_i, L_j] and the right-hand
    sides, one per x, the integer arrays d x of the Mats x = ints / d, all
    solved in one kernel; the solution for x is (d / s**2) times its
    coefficients.
    """
    pairs, table, s2 = _inner_table(a)
    if not pairs or not xs:
        return [None] * len(xs)
    sols = solve_int(table.reshape(len(pairs), -1).T, np.stack([x.ints.ravel() for x in xs], axis=1))
    return [
        None
        if sol is None
        else [(pairs[t], Fraction(int(sol.ints[0, t]) * s2, sol.den * x.den)) for t in np.flatnonzero(sol.ints[0])]
        for x, sol in zip(xs, sols)
    ]


# ---------------------------------------------------------------------------
# the subalgebra fixing the diagonal idempotents


def annihilator_subalgebra(
    der: DerivationBasis, idempotent_indices: tuple[int, ...] = (0, 1, 2)
) -> list[Mat]:
    """Derivations killing the given idempotent basis elements.

    On the exceptional 27-dimensional algebra with the three diagonal
    idempotents this is the d4 subalgebra, dimension 28.
    """
    a = der.algebra
    for i in idempotent_indices:
        if not 0 <= i < a.dim:
            raise ValueError("idempotent index %d lies outside the basis of dimension %d" % (i, a.dim))
        if a.basis_product(i, i) != a.basis_element(i):
            raise ValueError("basis element %d is not idempotent" % i)
    if der.dim == 0:
        return []
    n = a.dim
    (ints,), s = scaled_int_mats(der.mats)
    # rows (t, r) read D_p(e_i)_r for the t-th index i
    kernel, _ = nullspace_int(ints[:, :, list(idempotent_indices)].transpose(2, 1, 0).reshape(-1, der.dim))
    stack = exact_int_matmul(kernel.ints, ints.reshape(der.dim, n * n))
    return [Mat(x.reshape(n, n), kernel.den * s) for x in stack]


def octonion_slot_block(x: Mat, slot: int, n_diag: int = 3, d: int = 8) -> Mat:
    """8x8 block of an operator on the slot-th off-diagonal coordinate range."""
    lo = n_diag + slot * d
    return Mat(x.ints[lo : lo + d, lo : lo + d], x.den)


def is_block_diagonal_for_slots(x: Mat, n_diag: int = 3, d: int = 8) -> bool:
    """True when x preserves the diagonal span and each octonion slot."""
    # block 0 is the diagonal span, block 1 + s the s-th slot
    block = np.maximum(np.arange(x.rows) - n_diag, -1) // d + 1
    return not x.ints[block[:, None] != block[None, :]].any()


# ---------------------------------------------------------------------------
# triality completion on the octonions


def random_so8(rng: random.Random) -> Mat:
    """Random antisymmetric 8x8 rational matrix, entries p/q with |p| <= 9, q <= 4."""
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for i, j in zip(*np.triu_indices(8, 1)):
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows[i][j] = q
        rows[j][i] = -q
    return Mat.from_rows(rows)


@lru_cache(maxsize=1)
def _triality_terms() -> tuple[np.ndarray, np.ndarray]:
    """Where the defect (d1 x) y + x (d2 y) - conj(d3(conj(x y))) reads d1, d2, d3.

    At x = eps_i, y = eps_j coordinate r of the defect is three signed
    entries: d1[r ^ j, i], d2[i ^ r, j] and d3[r, i ^ j], the signs read off
    ``sign_tensor(3)``.  Returns (index, sign), both (3, 512): flat indices
    into d1, d2, d3 stacked and flattened row-major, column 64 i + 8 j + r.
    """
    o = sign_tensor(3)
    kappa = conj_array(np.ones(8, dtype=np.int64))
    i, j, r = np.indices((8, 8, 8)).reshape(3, 512)
    m = i ^ j
    index = np.stack((8 * (r ^ j) + i, 64 + 8 * (i ^ r) + j, 128 + 8 * r + m))
    sign = np.stack((o[r ^ j, j, r], o[i, i ^ r, r], -kappa[r] * kappa[m] * o[i, j, m]))
    return index, sign


@lru_cache(maxsize=1)
def _triality_solver() -> tuple[np.ndarray, Mat, tuple[np.ndarray, np.ndarray]]:
    """(system, map, (i, j)): the completion's data, built once.

    Folded by antisymmetry onto the upper triangles (i, j), i < j, the
    defect is 512 integer rows in the 28 unknowns of d2, then d3, then d1.
    In one kernel, the vector of each d1 column (unit generator E_ij - E_ji)
    holds that generator's completion: the (56, 28) map.  Every d1 has one
    completion exactly when the 56 columns of d2 and d3 are the pivots.
    """
    i, j = np.triu_indices(8, 1)
    col = np.zeros(64, dtype=np.int64)
    fold = np.zeros(64, dtype=np.int64)  # 0 on the diagonal
    col[8 * i + j] = col[8 * j + i] = np.arange(i.size)
    fold[8 * i + j], fold[8 * j + i] = 1, -1
    index, sign = _triality_terms()
    system = np.zeros((512, 3 * i.size), dtype=np.int64)
    for t in range(3):
        entry = index[t] - 64 * t
        np.add.at(system, (np.arange(512), col[entry] + i.size * ((t + 2) % 3)), sign[t] * fold[entry])
    kernel, pivots = nullspace_int(system)
    if pivots != tuple(range(2 * i.size)):
        raise AssertionError("the triality completion system is not uniquely solvable")
    return system, Mat(kernel.ints[:, : 2 * i.size].T, kernel.den), (i, j)


def complete_triality(d1: Mat) -> tuple[Mat, Mat]:
    """The unique antisymmetric (d2, d3) compatible with antisymmetric d1.

    Compatibility means (d1 x) y + x (d2 y) = conj(d3(conj(x y))) for all
    octonions x, y.  It is one exact product of the cached map with the
    upper triangle of d1; one exact product with the cached system checks
    all 512 equations before it is returned.
    """
    if d1.rows != 8 or d1.cols != 8:
        raise ValueError("expected an 8x8 matrix")
    if d1 != -d1.transpose():
        raise ValueError("triality completion needs an antisymmetric input")
    system, completion, (i, j) = _triality_solver()
    x = d1.ints[i, j][:, None]
    u = exact_int_matmul(completion.ints, x)  # completion.den * d1.den times the upper triangles
    if exact_int_matmul(system, np.concatenate((u, scale_ints(x, completion.den)))).any():
        raise ValueError("no compatible completion exists")
    m = np.zeros((2, 8, 8), dtype=u.dtype)
    m[:, i, j] = u.reshape(2, i.size)
    m[:, j, i] = -m[:, i, j]
    return Mat(m[0], completion.den * d1.den), Mat(m[1], completion.den * d1.den)


def derivation_from_triality(d1: Mat) -> Mat:
    """27x27 derivation of the exceptional algebra built from one so(8) element.

    The completion (d2, d3) of d1 acts on the three off-diagonal octonion
    slots while the diagonal span is annihilated; the result lies in the d4
    subalgebra.
    """
    d2, d3 = complete_triality(d1)
    (blocks,), s = scaled_int_mats([d1, d2, d3])
    out = np.zeros((27, 27), dtype=blocks.dtype)
    for t, blk in enumerate(blocks):
        out[3 + 8 * t : 11 + 8 * t, 3 + 8 * t : 11 + 8 * t] = blk
    return Mat(out, s)


def triality_defect(d1: Mat, d2: Mat, d3: Mat) -> Optional[tuple[int, int]]:
    """First octonion basis pair (i, j) violating the compatibility relation.

    The defect on all 64 basis pairs is three signed gathers from d1, d2,
    d3 cleared to one scale; the pair returned is the first in row-major
    order, or None.  Entries below 2**62 (int64) bound each term, and the
    third is compared with minus the sum of the other two, so no int64
    sum overflows; larger entries are object dtype.
    """
    if any(m.rows != 8 or m.cols != 8 for m in (d1, d2, d3)):
        raise ValueError("expected 8x8 matrices")
    (ints,), _ = scaled_int_mats([d1, d2, d3])
    index, sign = _triality_terms()
    t = ints.reshape(192)[index] * sign
    hits = np.flatnonzero(t[0] + t[1] != -t[2])
    return None if hits.size == 0 else divmod(int(hits[0]) // 8, 8)


# ---------------------------------------------------------------------------
# off-diagonal commutator derivations


@lru_cache(maxsize=1)
def _commutator_tensor() -> np.ndarray:
    """(24, 27 * 27) integer t with z -> M z - z M equal to sum_p x_p t[p].

    x_p are the 24 octonion parameters of M and t[p] is the operator of
    the p-th unit parameter, row-major.  Hermitian closure of every
    M z - z M is checked here, once.
    """
    herm = hermitian_basis(3, 3)
    unit = antihermitian_basis(3, 3)[21:]  # off-diagonal slots only
    t = np.zeros((24, 27, 27), dtype=np.int64)
    p, z, m, v = basis_products(unit, herm, herm, sign_tensor(3), -1)
    t[p, m, z] = v
    return t.reshape(24, 27 * 27)


def commutator_action_matrix(x1: Sequence, x2: Sequence, x3: Sequence) -> Mat:
    """Derivation of the exceptional algebra from an antihermitian matrix.

    The three octonion parameters fill the off-diagonal slots of a 3x3
    antihermitian matrix M with zero diagonal (same slot convention as the
    hermitian basis); the operator is z -> M z - z M, which preserves
    hermiticity and satisfies the derivation rule.  It is linear in the
    parameters: one exact product of their cleared integers with the cached
    integer tensor of the unit parameters.
    """
    if any(len(x) != 8 for x in (x1, x2, x3)):
        raise ValueError("octonion parameters need 8 coordinates")
    params = Mat.from_rows([[v for x in (x1, x2, x3) for v in x]])
    return Mat(exact_int_matmul(params.ints, _commutator_tensor()).reshape(27, 27), params.den)
