"""Modules over the structure-constant algebras.

A module action stores one operator per algebra basis element; the unit must
act as the identity.  Whether the action makes a genuine module is decided
by :func:`check_module` through two independent routes: the split null
extension (J + M with M squaring to zero) must pass the full Jordan check,
and the multilinear operator identity

    [[A_x, A_y], A_z] + A((xz)y - x(zy)) = 0

must hold on basis triples.  The two verdicts are reported side by side.

Constructors: free modules (block copies of left multiplication),
antihermitian matrices over the associative Cayley-Dickson levels acting by
the symmetrized product, and Clifford modules over the spin factors.  Module
homomorphisms are computed exactly as intertwiner nullspaces.

Exactness: both oracles are sums over joins of nonzero integer entries of
the extension's tensor, placed on one scale by the block builder that
:func:`split_null_extension` shares.  The extension is built as a presentation
only on FAIL, for the witness operator.  Both decide on any entry size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .algebra import (
    AlgebraPresentation,
    JordanVerdict,
    algebra_from_dict,
    algebra_to_dict,
    antihermitian_basis,
    build_hermitian,
    center_basis,
    hermitian_basis,
    jordan_verdict,
    refuse_above_cap,
)
from .cayley_dickson import basis_products, sign_tensor
from .linalg import (
    Mat,
    Vec,
    exact_int_matmul,
    expand_in_basis,
    format_fraction,
    kron,
    nullspace_int,
    pair_products,
    parse_fraction,
    parse_int,
    scale_ints,
    scaled_int_mats,
)


class ModuleAction:
    """Action of an algebra on an m-dimensional carrier, one Mat per basis."""

    def __init__(self, algebra: AlgebraPresentation, ops: Sequence[Mat], label: str):
        self.algebra = algebra
        self.label = str(label)
        self.ops = tuple(ops)
        if len(self.ops) != algebra.dim:
            raise ValueError("need one operator per algebra basis element")
        self.mdim = self.ops[0].rows if self.ops else 0
        for op in self.ops:
            if op.rows != self.mdim or op.cols != self.mdim:
                raise ValueError("action operators must be square and same size")
        (lam,), s = scaled_int_mats(self.ops)
        self._tensor = np.ascontiguousarray(lam.transpose(0, 2, 1)), s
        if self.mdim and self.op_of(algebra.unit) != Mat.identity(self.mdim):
            raise ValueError("unit does not act as the identity")

    def op_of(self, x: Sequence) -> Mat:
        """The operator sum_i x_i A_i, one exact product with the action tensor."""
        t, s = self.int_tensor()
        xs = Mat.from_rows([x])
        m = self.mdim
        prod = exact_int_matmul(xs.ints, t.reshape(len(t), m * m))
        return Mat(prod.reshape(m, m).T, s * xs.den)

    def act(self, x: Sequence, m: Sequence[Fraction]) -> Vec:
        return self.op_of(x).apply(m)

    def action_entries(self) -> list[tuple[int, int, int, Fraction]]:
        """Nonzero (i, alpha, beta, coeff): e_i f_alpha = sum_beta coeff f_beta."""
        t, s = self.int_tensor()
        idx = np.nonzero(t)  # row-major, so sorted by (i, alpha, beta)
        return [
            (i, alpha, beta, Fraction(v, s))
            for i, alpha, beta, v in zip(*(a.tolist() for a in idx), t[idx].tolist())
        ]

    def int_tensor(self):
        """(tensor, scale) with tensor[i, alpha, beta] = scale * the f_beta
        coordinate of e_i f_alpha, exact; int64 when it fits."""
        return self._tensor

    def __eq__(self, other):
        return (
            isinstance(other, ModuleAction)
            and self.label == other.label
            and self.algebra == other.algebra
            and self.ops == other.ops
        )

    def __repr__(self):
        return "ModuleAction(%r, mdim=%d over %s)" % (self.label, self.mdim, self.algebra.label)


# ---------------------------------------------------------------------------
# split null extension and the module check


def _extension_tensor(mod: ModuleAction) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(ext, c, t, s): the split null extension's tensor ext, the algebra's
    c and the action's t, all three on the one scale s."""
    (c, sc), (t, st) = mod.algebra.int_tensor(), mod.int_tensor()
    s = lcm(sc, st)
    c, t = scale_ints(c, s // sc), scale_ints(t, s // st)
    n = mod.algebra.dim
    # ext[i, n + alpha, n + beta] = ext[n + alpha, i, n + beta] = t[i, alpha, beta]
    ext = np.zeros((n + mod.mdim,) * 3, dtype=np.result_type(c, t))
    ext[:n, :n, :n] = c
    ext[:n, n:, n:] = t
    ext[n:, :n, n:] = t.transpose(1, 0, 2)
    return ext, c, t, s


def split_null_extension(mod: ModuleAction) -> AlgebraPresentation:
    """J + M with product (x, m)(x', m') = (xx', x m' + m x') and M M = 0."""
    ext, _, _, s = _extension_tensor(mod)
    a = mod.algebra
    return AlgebraPresentation._from_tensor("snx(%s,%s)" % (a.label, mod.label), a.unit + (0,) * mod.mdim, ext, s)


@dataclass(frozen=True)
class ModuleVerdict:
    passed: bool
    extension_verdict: JordanVerdict
    operator_witness: Optional[tuple[int, int, int]]

    @property
    def oracles_agree(self) -> bool:
        return self.extension_verdict.passed == (self.operator_witness is None)


def check_module(mod: ModuleAction) -> ModuleVerdict:
    """Dual-oracle module check.

    Oracle one: the split null extension passes the full Jordan check.
    Oracle two: the operator identity [[A_i, A_j], A_k] = -A((e_i e_k) e_j -
    e_i (e_k e_j)) holds on all basis triples.  A genuine module passes both.
    """
    ext, c, t, _ = _extension_tensor(mod)
    witness = kernels.module_identity_violation(c, t.transpose(0, 2, 1))
    triple = kernels.jordan_violation(ext)
    if triple is None:
        verdict = JordanVerdict(True)
    else:
        # the extension as a presentation only for the witness operator
        verdict = jordan_verdict(split_null_extension(mod), triple)
    return ModuleVerdict(verdict.passed and witness is None, verdict, witness)


# ---------------------------------------------------------------------------
# constructors


def build_free(a: AlgebraPresentation, p: int) -> ModuleAction:
    """p block copies of the algebra acting on itself by left multiplication."""
    if p < 0:
        raise ValueError("rank must be nonnegative")
    eye = Mat.identity(p)
    ops = [kron(eye, a.left_mult_basis(i)) for i in range(a.dim)]
    return ModuleAction(a, ops, "free%d(%s)" % (p, a.label))


def build_antihermitian(n: int, level: int) -> ModuleAction:
    """Antihermitian n x n matrices over associative Cayley-Dickson entries,
    acted on by the hermitian algebra through x a = (xa + ax)/2.

    Carrier dimension n(n-1)/2 * 2**level + n * (2**level - 1).  Octonion
    entries are rejected: the symmetrized action needs associativity.  All
    products xa + ax of basis matrices are one integer join of their entries
    (``cayley_dickson.basis_products``), which raises if one leaves the
    antihermitian matrices.
    """
    if not (0 <= level <= 2):
        raise ValueError("antihermitian module needs Cayley-Dickson level 0..2")
    if n < 1:
        raise ValueError("need n >= 1")
    herm, anti = hermitian_basis(n, level), antihermitian_basis(n, level)
    ops = np.zeros((len(herm), len(anti), len(anti)), dtype=np.int64)
    i, alpha, beta, v = basis_products(herm, anti, anti, sign_tensor(level), 1)
    ops[i, beta, alpha] = v
    return ModuleAction(build_hermitian(n, level), [Mat(op, 2) for op in ops], "A%d_%d" % (2**level, n))


def _blade_mult_sign(i: int, mask: int, from_left: bool) -> int:
    """Sign of e_i times blade(mask) (or blade times e_i), generators squaring
    to +1; counts the transpositions needed to slot e_i into position."""
    if from_left:
        below = mask & ((1 << i) - 1)
        count = bin(below).count("1")
    else:
        above = mask >> (i + 1)
        count = bin(above).count("1")
    return -1 if count % 2 else 1


def build_clifford(n: int) -> ModuleAction:
    """The 2**n-dimensional Clifford module over the spin factor of rank n.

    Blades are indexed by bitmask; the scalar basis element acts as the
    identity and each vector generator by the symmetrized product with e_i.
    """
    from .algebra import build_spin

    if not (1 <= n <= 8):
        raise ValueError("Clifford module supported for 1 <= n <= 8")
    a = build_spin(n)
    m = 1 << n
    ops = [Mat.identity(m)]
    for i in range(n):
        doubled = np.zeros((m, m), dtype=np.int64)
        for mask in range(m):
            doubled[mask ^ (1 << i), mask] = (
                _blade_mult_sign(i, mask, True) + _blade_mult_sign(i, mask, False)
            )
        ops.append(Mat(doubled, 2))
    return ModuleAction(a, ops, "Cl%d" % n)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class ModuleHom:
    source: ModuleAction
    target: ModuleAction
    matrix: Mat  # (target.mdim x source.mdim)

    def __post_init__(self):
        if self.matrix.rows != self.target.mdim or self.matrix.cols != self.source.mdim:
            raise ValueError("hom matrix has wrong shape")

    def intertwining_defect(self) -> Optional[int]:
        """Index of the first algebra basis element where x phi != phi x."""
        for i, (s_op, t_op) in enumerate(zip(self.source.ops, self.target.ops)):
            if t_op @ self.matrix != self.matrix @ s_op:
                return i
        return None


def compose(f: ModuleHom, g: ModuleHom) -> ModuleHom:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("middle modules do not match")
    return ModuleHom(g.source, f.target, f.matrix @ g.matrix)


def hom_basis(m1: ModuleAction, m2: ModuleAction) -> list[ModuleHom]:
    """Exact basis of the intertwiner space {phi : phi a = a phi for all a}.

    Unknowns are the entries of the (m2.mdim x m1.mdim) matrix, row-major.
    """
    if m1.algebra != m2.algebra:
        raise ValueError("modules live over different algebras")
    p, q = m1.mdim, m2.mdim
    if p == 0 or q == 0:
        return []
    n = m1.algebra.dim
    (a1s, a2s), _ = scaled_int_mats(m1.ops, m2.ops)
    rows = np.zeros((n * q * p, q * p), dtype=a1s.dtype)
    eye_p = np.eye(p, dtype=np.int64)
    eye_q = np.eye(q, dtype=np.int64)
    for i in range(n):
        rows[i * q * p : (i + 1) * q * p] = np.kron(a2s[i], eye_p) - np.kron(eye_q, a1s[i].T)
    homs, _ = nullspace_int(rows)  # row v is the (q x p) hom, row-major
    hs = homs.ints.reshape(homs.rows, q, p)
    # T_i H == H S_i for every basis element i and hom H, both sides scaled alike
    if (pair_products(a2s, hs) != pair_products(hs, a1s).transpose(1, 0, 2, 3)).any():
        raise AssertionError("hom basis element fails to intertwine")
    return [ModuleHom(m1, m2, Mat(h, homs.den)) for h in hs]


def hom_center_restriction(hom: ModuleHom) -> Optional[list[list[Vec]]]:
    """For free modules: the matrix of central elements describing the hom.

    An intertwiner between free ranks p and q decomposes into q x p blocks,
    each of which must be left multiplication by a central element.  Returns
    that grid of center elements or None when the decomposition fails.
    """
    a = hom.source.algebra
    n = a.dim
    p, q = hom.source.mdim // n, hom.target.mdim // n
    if hom.source.mdim != n * p or hom.target.mdim != n * q:
        raise ValueError("hom_center_restriction expects free modules")
    center = center_basis(a)
    out = []
    ints, den = hom.matrix.ints, hom.matrix.den
    for u in range(q):
        row = []
        for t in range(p):
            block = Mat(ints[u * n : (u + 1) * n, t * n : (t + 1) * n], den)
            z = block.apply(a.unit)
            if expand_in_basis(center, z) is None:
                return None
            if a.left_op(z) != block:
                return None
            row.append(z)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# serialization


def module_to_dict(mod: ModuleAction, inline_algebra: bool = True) -> dict:
    return {
        "label": mod.label,
        "algebra": algebra_to_dict(mod.algebra) if inline_algebra else mod.algebra.label,
        "mdim": mod.mdim,
        "action": [
            [i, alpha, beta, format_fraction(v)]
            for i, alpha, beta, v in mod.action_entries()
        ],
    }


def module_from_dict(
    d: dict, algebra_lookup: Optional[Callable[[str], AlgebraPresentation]] = None
) -> ModuleAction:
    if not isinstance(d["label"], str):
        raise ValueError("the label must be a string, not %r" % (d["label"],))
    spec = d["algebra"]
    if isinstance(spec, str):
        if algebra_lookup is None:
            raise ValueError("algebra given by label but no lookup provided")
        a = algebra_lookup(spec)
        if a is None:
            raise ValueError("unknown algebra label %r" % spec)
    else:
        a = algebra_from_dict(spec)
    m = parse_int(d["mdim"])
    if m < 0:
        raise ValueError("mdim must be nonnegative")
    refuse_above_cap("the action tensor", a.dim * m * m)
    entries = []
    for i, alpha, beta, v in d["action"]:
        i, alpha, beta = parse_int(i), parse_int(alpha), parse_int(beta)
        if not (0 <= i < a.dim and 0 <= alpha < m and 0 <= beta < m):
            raise ValueError("action index out of range")
        entries.append(((i, beta, alpha), parse_fraction(v)))
    ops, den = kernels.to_int_tensor(entries, (a.dim, m, m))
    return ModuleAction(a, [Mat(op, den) for op in ops], d["label"])


def module_dumps(mod: ModuleAction, pretty: bool = False) -> str:
    return json.dumps(module_to_dict(mod), indent=2 if pretty else None, sort_keys=True)


def module_loads(s: str, algebra_lookup=None) -> ModuleAction:
    return module_from_dict(json.loads(s), algebra_lookup)
