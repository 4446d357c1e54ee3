"""Finite-dimensional commutative algebras given by rational structure constants.

An :class:`AlgebraPresentation` holds a basis-free description of a
commutative algebra with unit: the dimension, the unit's coordinates, and the
structure tensor c with e_i e_j = sum_k c[i,j,k] e_k, stored as one read-only
integer array s * c and the scale s in lowest terms, as ``Mat`` holds a matrix;
coefficients given twice at one (i, j, k) are added.  Commutativity and the
unit law are enforced at construction; the Jordan identity is not, it is the
job of :func:`check_jordan`, so deliberately broken presentations can be built
for testing.

Constructors cover the standard classification:

* ``build_hermitian(n, level)``: hermitian n x n matrices over the level-th
  Cayley-Dickson algebra under the symmetrized product x y = (xy + yx) / 2.
  Octonion entries (level 3) are restricted to n <= 3; hermitian octonion
  matrices of larger size do not satisfy the Jordan identity.  The basis
  matrices are integer arrays (``hermitian_basis``), and all their products
  are one sparse join through the integer ``sign_tensor(level)``.
* ``build_spin(n)``: the spin factor on R + R^n with
  (s + v)(s' + v') = (ss' + <v, v'>) + (sv' + s'v).
* ``direct_sum``: block sums, giving the non-simple semisimple examples.

Elements are plain coordinate tuples of Fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .cayley_dickson import basis_products, conj_array, sign_tensor
from .linalg import (
    Mat,
    Vec,
    basis_vec,
    exact_int_matmul,
    frac,
    format_fraction,
    nullspace_int,
    parse_fraction,
    parse_int,
    scale_ints,
    zero_vec,
)

# Largest dense integer array one input may ask for: 2 * 10**7 entries, 160 MB
# in int64.  It bounds a wire algebra's n**3 structure tensor, a wire module's
# n m**2 action tensor and the hom system of `module homdim`.
DENSE_ENTRY_CAP = 2 * 10**7


def refuse_above_cap(what: str, entries: int) -> None:
    """ValueError when a dense array of that many entries is above the cap."""
    if entries > DENSE_ENTRY_CAP:
        raise ValueError("%s has %d entries, above the cap of %d" % (what, entries, DENSE_ENTRY_CAP))


class AlgebraPresentation:
    """Commutative unital algebra on one integer structure tensor and scale."""

    def __init__(self, label: str, dim: int, unit: Sequence, structure):
        """structure maps (i, j) to a sparse list of (k, coeff), summed per k.

        The (j, i) products are filled in by commutativity.  Raises if a pair
        given in both orders has other sums or the unit law fails.
        """
        dim = int(dim)
        given = np.zeros((dim, dim), dtype=bool)
        entries = []
        for (i, j), row in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("structure index out of range")
            given[i, j] = True
            for k, q in row:
                k, q = int(k), frac(q)
                if not q:
                    continue
                if not 0 <= k < dim:
                    raise ValueError("structure index out of range")
                entries.append(((i, j, k), q))
        c, s = kernels.to_int_tensor(entries, (dim,) * 3)
        self._set(label, unit, np.where(given[:, :, None], c, c.transpose(1, 0, 2)), s)

    @classmethod
    def _from_tensor(cls, label: str, unit: Sequence, c: np.ndarray, s: int) -> "AlgebraPresentation":
        """The algebra of the integer tensor c / s, with the checks of __init__."""
        a = cls.__new__(cls)
        a._set(label, unit, c, s)
        return a

    def _set(self, label: str, unit: Sequence, c: np.ndarray, s: int) -> None:
        n = len(c)
        self.label, self.dim = str(label), n
        self.unit: Vec = tuple(frac(x) for x in unit)
        if len(self.unit) != n:
            raise ValueError("unit has wrong length")
        t = Mat(c.reshape(n, n * n), s)  # lowest terms, read-only
        c = t.ints.reshape(n, n, n)
        if not np.array_equal(c, c.transpose(1, 0, 2)):
            raise ValueError("structure constants are not commutative")
        self._tensor = c, t.den
        self._center_cache: Optional[list[Vec]] = None
        j = self.unit_defect()
        if j is not None:
            raise ValueError("unit law fails on basis vector %d" % j)

    # -- products ----------------------------------------------------------

    def basis_product(self, i: int, j: int) -> Vec:
        c, s = self._tensor
        return tuple(Fraction(v, s) for v in c[i, j].tolist())

    def mul(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        return self.left_op(x).apply(y)

    def left_mult_basis(self, i: int) -> Mat:
        """Matrix of left multiplication by e_i."""
        c, s = self._tensor
        return Mat(c[i].T, s)

    def left_op(self, x: Sequence[Fraction]) -> Mat:
        """Matrix of left multiplication by x: sum_i x_i L_i, one exact product."""
        c, s = self._tensor
        xs = Mat.from_rows([x])
        n = self.dim
        return Mat(exact_int_matmul(xs.ints, c.reshape(n, n * n)).reshape(n, n).T, s * xs.den)

    def unit_defect(self) -> Optional[int]:
        """First j with unit e_j != e_j, or None: s d L(unit) = s d I, for d the
        unit's denominator, as one array comparison; summed exactly, no float."""
        c, s = self._tensor
        u = Mat.from_rows([self.unit])
        at = np.flatnonzero(u.ints[0])
        lu = np.tensordot(u.ints[0, at].astype(object), c[at], axes=1)  # row j: s d (unit e_j)
        bad = np.flatnonzero((lu != scale_ints(np.eye(self.dim, dtype=np.int64), s * u.den)).any(axis=1))
        return int(bad[0]) if bad.size else None

    # -- integer form ------------------------------------------------------

    def structure_entries(self) -> list[tuple[int, int, int, Fraction]]:
        """All nonzero (i, j, k, c) in lexicographic order."""
        c, s = self._tensor
        idx = np.nonzero(c)  # row-major, so lexicographic
        vals = c[idx].tolist()
        q = {v: Fraction(v, s) for v in set(vals)}  # one Fraction per distinct value
        return [(i, j, k, q[v]) for i, j, k, v in zip(*(x.tolist() for x in idx), vals)]

    def int_tensor(self):
        """(tensor, scale) with tensor = scale * structure constants, exact and
        in lowest terms: a read-only int64 array when every entry is below
        2**62 in size, object dtype otherwise."""
        return self._tensor

    # -- misc --------------------------------------------------------------

    def basis_element(self, i: int) -> Vec:
        return basis_vec(self.dim, i)

    def zero(self) -> Vec:
        return zero_vec(self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and self.label == other.label
            and self.dim == other.dim
            and self.unit == other.unit
            and self._tensor[1] == other._tensor[1]
            and np.array_equal(self._tensor[0], other._tensor[0])
        )

    def __repr__(self):
        return "AlgebraPresentation(%r, dim=%d)" % (self.label, self.dim)


# ---------------------------------------------------------------------------
# constructors


def build_real() -> AlgebraPresentation:
    return AlgebraPresentation("R", 1, (1,), {(0, 0): [(0, 1)]})


def build_spin(n: int) -> AlgebraPresentation:
    """Spin factor of dimension n + 1; basis: unit, then n vector units."""
    if n < 1:
        raise ValueError("spin factor needs n >= 1")
    dim = n + 1
    c = np.zeros((dim,) * 3, dtype=np.int64)
    c[0] = c[:, 0] = np.eye(dim, dtype=np.int64)
    v = np.arange(1, dim)
    c[v, v, 0] = 1
    return AlgebraPresentation._from_tensor("JSpin%d" % n, basis_vec(dim, 0), c, 1)


def hermitian_pairs(n: int) -> list[tuple[int, int]]:
    """Positions carrying the unconjugated entry of each off-diagonal basis
    element.  For n = 3 the cyclic convention (2,3), (3,1), (1,2) is used
    (0-based: (1,2), (2,0), (0,1)); otherwise lexicographic (i, j), i < j.
    """
    if n == 3:
        return [(1, 2), (2, 0), (0, 1)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def hermitian_basis(n: int, level: int) -> np.ndarray:
    """Read-only (N, n, n, d) int64 array of the basis of :func:`build_hermitian`.

    The diagonal units, then for each of :func:`hermitian_pairs` the d unit
    entries eps_k there, with conj(eps_k) at the transposed position.
    """
    return _matrix_basis(n, level, 1)


@lru_cache(maxsize=None)
def antihermitian_basis(n: int, level: int) -> np.ndarray:
    """Read-only (N, n, n, d) int64 array of antihermitian basis matrices.

    The d - 1 imaginary units on each diagonal position, then for each of
    :func:`hermitian_pairs` the d unit entries eps_k there, with
    -conj(eps_k) at the transposed position.
    """
    return _matrix_basis(n, level, -1)


def _matrix_basis(n: int, level: int, sign: int) -> np.ndarray:
    d = 2**level
    eye = np.eye(d, dtype=np.int64)
    diag = eye[:1] if sign == 1 else eye[1:]
    blocks = []
    for i in range(n):
        block = np.zeros((len(diag), n, n, d), dtype=np.int64)
        block[:, i, i] = diag
        blocks.append(block)
    for pi, pj in hermitian_pairs(n):
        block = np.zeros((d, n, n, d), dtype=np.int64)
        block[:, pi, pj] = eye
        block[:, pj, pi] = sign * conj_array(eye)
        blocks.append(block)
    basis = np.concatenate(blocks)
    basis.setflags(write=False)
    return basis


def build_hermitian(n: int, level: int) -> AlgebraPresentation:
    """Hermitian n x n matrices over the level-th Cayley-Dickson algebra
    under the symmetrized product x y = (xy + yx) / 2.

    Dimension n + n(n-1)/2 * 2**level.  Basis order: diagonal units E_1..E_n,
    then for each off-diagonal position all 2**level coordinate entries.
    The doubled products xy + yx are one integer join of the basis matrices'
    entries through ``sign_tensor(level)`` (``cayley_dickson.basis_products``),
    which raises if one leaves the hermitian matrices; they are kept on scale 2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0 <= level <= 3):
        raise ValueError("Cayley-Dickson level must be 0..3")
    if level == 3 and n > 3:
        raise ValueError(
            "hermitian octonion matrices are only Jordan for n <= 3; n=%d rejected" % n
        )
    basis = hermitian_basis(n, level)
    dim = len(basis)
    doubled = np.zeros((dim,) * 3, dtype=np.int64)
    a, b, k, v = basis_products(basis, basis, basis, sign_tensor(level), 1)
    doubled[a, b, k] = v
    unit = (1,) * n + (0,) * (dim - n)
    return AlgebraPresentation._from_tensor("J%d_%d" % (2**level, n), unit, doubled, 2)


def direct_sum(a: AlgebraPresentation, b: AlgebraPresentation, label: Optional[str] = None):
    (ca, sa), (cb, sb) = a.int_tensor(), b.int_tensor()
    s = lcm(sa, sb)
    ca, cb = scale_ints(ca, s // sa), scale_ints(cb, s // sb)
    c = np.zeros((a.dim + b.dim,) * 3, dtype=np.result_type(ca, cb))
    c[: a.dim, : a.dim, : a.dim] = ca
    c[a.dim :, a.dim :, a.dim :] = cb
    return AlgebraPresentation._from_tensor(label or (a.label + "+" + b.label), a.unit + b.unit, c, s)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class JordanVerdict:
    passed: bool
    witness_triple: Optional[tuple[int, int, int]] = None
    witness_operator: Optional[Mat] = None


def jordan_witness_operator(a: AlgebraPresentation, i: int, j: int, k: int) -> Mat:
    """[L(e_i e_j), L_k] + [L(e_k e_i), L_j] + [L(e_j e_k), L_i], exactly.

    Built from the integer structure tensor c = s * constants.  For the
    three terms (x, y, z), U_t = s**2 L(e_x e_y) and Z_t = s L_z, and the
    sum of commutators is the one exact product
    [U_1 U_2 U_3 Z_1 Z_2 Z_3] [Z_1; Z_2; Z_3; -U_1; -U_2; -U_3] = s**3 value.
    """
    c, s = a.int_tensor()
    n = a.dim
    lm = np.ascontiguousarray(c.transpose(0, 2, 1))  # s * L_x as lm[x][r][j]
    triples = ((i, j, k), (k, i, j), (j, k, i))
    pairs = np.stack([c[x, y] for x, y, _ in triples])
    u = exact_int_matmul(pairs, lm.reshape(n, n * n)).reshape(3, n, n)
    z = lm[[t[2] for t in triples]]
    total = exact_int_matmul(
        np.concatenate((u, z)).transpose(1, 0, 2).reshape(n, 6 * n),
        np.concatenate((z, -u)).reshape(6 * n, n),
    )
    return Mat(total, s**3)


def check_jordan(a: AlgebraPresentation) -> JordanVerdict:
    """Complete check of the linearized Jordan identity over basis triples.

    The identity [L(xy), L_z] + [L(zx), L_y] + [L(yz), L_x] = 0 is linear in
    each argument and fully symmetric, so checking representative triples
    i <= j <= k over the basis decides it for the whole algebra; the kernel
    is exact on any entry size.
    """
    return jordan_verdict(a, kernels.jordan_violation(a.int_tensor()[0]))


def jordan_verdict(a: AlgebraPresentation, witness: Optional[tuple[int, int, int]]) -> JordanVerdict:
    """The verdict for the Jordan kernel's result on a's tensor: a pass when
    witness is None, else the witness with its nonzero operator."""
    if witness is None:
        return JordanVerdict(True)
    op = jordan_witness_operator(a, *witness)
    if op.is_zero():
        raise AssertionError("Jordan witness %s evaluates to zero" % (witness,))
    return JordanVerdict(False, witness, op)


def center_basis(a: AlgebraPresentation) -> list[Vec]:
    """Basis of {z : (x y) z = x (y z) for all x, y}, canonically ordered.

    For a commutative algebra this associative center is found as one
    nullspace: stack the operators L(e_i e_j) - L_i L_j over all ordered
    basis pairs, summed over the Jordan kernel's sparse join
    (``kernels.center_system``).  Computed once per algebra; each call
    returns a new list.
    """
    if a._center_cache is None:
        kernel, _ = nullspace_int(kernels.center_system(a.int_tensor()[0]))
        a._center_cache = [kernel.row(i) for i in range(kernel.rows)]
    return list(a._center_cache)


def unit_check(a: AlgebraPresentation) -> bool:
    return a.unit_defect() is None


# ---------------------------------------------------------------------------
# serialization


def algebra_to_dict(a: AlgebraPresentation) -> dict:
    return {
        "label": a.label,
        "dim": a.dim,
        "unit": [format_fraction(x) for x in a.unit],
        "structure": [
            [i, j, k, format_fraction(q)] for i, j, k, q in a.structure_entries()
        ],
    }


def algebra_from_dict(d: dict) -> AlgebraPresentation:
    if not isinstance(d["label"], str):
        raise ValueError("the label must be a string, not %r" % (d["label"],))
    dim = parse_int(d["dim"])
    refuse_above_cap("the structure tensor", dim**3)
    structure: dict[tuple[int, int], list] = {}
    for i, j, k, q in d["structure"]:
        structure.setdefault((parse_int(i), parse_int(j)), []).append((parse_int(k), parse_fraction(q)))
    # the constructor fills in and checks the mirrored pairs
    return AlgebraPresentation(d["label"], dim, [parse_fraction(x) for x in d["unit"]], structure)


def algebra_dumps(a: AlgebraPresentation, pretty: bool = False) -> str:
    return json.dumps(algebra_to_dict(a), indent=2 if pretty else None, sort_keys=True)


def algebra_loads(s: str) -> AlgebraPresentation:
    return algebra_from_dict(json.loads(s))
