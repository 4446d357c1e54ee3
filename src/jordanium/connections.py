"""Derivation-based connections on Jordan modules.

A connection stores one covariant operator per derivation-frame element and
is validated against the Leibniz invariant

    grad_mu(x . m) = X_mu(x) . m + x . grad_mu(m).

Free modules carry a flat base connection (block copies of the frame
matrices); any other connection over them differs by a gauge potential with
values in center (x) fiber endomorphisms.  Curvature is computed from the
commutator definition

    R_mu_nu = [grad_mu, grad_nu] - sum_tau c^tau_mu_nu grad_tau

and, for potential-built connections, re-derived through the gauge formula
X(A(Y)) - Y(A(X)) + [A(X), A(Y)] - A([X, Y]) as a second path that must
agree exactly.  The extension of a connection to module-valued forms,
``extend_to_forms`` (defined in :mod:`jordanium.forms` and re-exported
here), is the differential's 1/(n+1)-compensated alternating sum with the
covariant operators in place of the frame matrices, so that
grad(w f) = (dw) f + (-1)^n w grad(f) holds exactly under the normalized
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .algebra import center_basis
from .derivations import DerivationBasis, express_in_inner
from .forms import bracket_table, extend_to_forms, forms_leibniz_check
from .linalg import (
    Mat,
    Vec,
    expand_in_basis,
    format_fraction,
    frac,
    parse_fraction,
    solve,
)
from .modules import ModuleAction


def _kron(b: Mat, m: Mat) -> Mat:
    """Fiber-block Kronecker product: out[bn+r, cn+s] = b[b,c] * m[r,s]."""
    p, n = b.rows, m.rows
    rows = []
    for br in range(p):
        for r in range(n):
            row = []
            for bc in range(p):
                coef = b.data[br][bc]
                if coef:
                    row.extend(coef * v for v in m.data[r])
                else:
                    row.extend([Fraction(0)] * m.cols)
            rows.append(tuple(row))
    return Mat(tuple(rows))


def leibniz_defect(
    der: DerivationBasis, module: ModuleAction, ops: Sequence[Mat]
) -> Optional[tuple[int, int]]:
    """First (mu, i) violating the covariant Leibniz rule, None when clean."""
    for mu, g in enumerate(ops):
        for i, lam in enumerate(module.ops):
            x_ei = der.mats[mu].col(i)
            if g @ lam - lam @ g != module.op_of(x_ei):
                return mu, i
    return None


def center_linearity_defect(
    der: DerivationBasis, module: ModuleAction, ops: Sequence[Mat]
) -> Optional[tuple[int, int]]:
    """First (t, mu) violating grad_{z X} = z . grad_X over the center basis."""
    zs = center_basis(der.algebra)
    if len(zs) <= 1:
        return None
    alg = der.algebra
    for t, z in enumerate(zs):
        lz = alg.left_op(z)
        zop = module.op_of(z)
        for mu, x in enumerate(der.mats):
            coeffs = der.coefficients_of(lz @ x)
            acc = Mat.zeros(module.mdim, module.mdim)
            for nu, cq in enumerate(coeffs):
                if cq:
                    acc = acc + ops[nu].scale(cq)
            if acc != zop @ ops[mu]:
                return t, mu
    return None


@dataclass(frozen=True)
class GaugePotential:
    """Per-frame fiber endomorphism with coefficients over the center basis.

    mats[mu][t] is the p x p block attached to center element z_t, so the
    value on X_mu is sum_t z_t (x) mats[mu][t].
    """

    rank: int
    mats: tuple[tuple[Mat, ...], ...]

    def __post_init__(self):
        for per_mu in self.mats:
            for m in per_mu:
                if m.rows != self.rank or m.cols != self.rank:
                    raise ValueError("potential blocks must be rank x rank")

    @property
    def frame_dim(self) -> int:
        return len(self.mats)

    @property
    def center_dim(self) -> int:
        return len(self.mats[0]) if self.mats else 0

    def is_zero(self) -> bool:
        return all(m.is_zero() for per_mu in self.mats for m in per_mu)


def gauge_potential(der: DerivationBasis, rank: int, per_mu) -> GaugePotential:
    """Normalize raw input: one Mat per frame element, or one list per center layer."""
    mats = []
    for entry in per_mu:
        if isinstance(entry, Mat):
            mats.append((entry,))
        else:
            mats.append(tuple(entry))
    if len(mats) != der.dim:
        raise ValueError("need one potential entry per derivation basis element")
    zdim = len(center_basis(der.algebra))
    for per in mats:
        if len(per) != zdim:
            raise ValueError("potential center layers do not match dim Z(J)")
    return GaugePotential(rank, tuple(mats))


def zero_potential(der: DerivationBasis, rank: int) -> GaugePotential:
    zdim = len(center_basis(der.algebra))
    z = Mat.zeros(rank, rank)
    return GaugePotential(rank, tuple(tuple(z for _ in range(zdim)) for _ in range(der.dim)))


class Connection:
    """Covariant operators over one derivation frame, validated on build."""

    def __init__(
        self,
        der: DerivationBasis,
        module: ModuleAction,
        ops: Sequence[Mat],
        base_ops: Optional[tuple[Mat, ...]] = None,
        potential: Optional[GaugePotential] = None,
        is_base: bool = False,
    ):
        self.der = der
        self.module = module
        self.ops = tuple(ops)
        self.base_ops = base_ops
        self.potential = potential
        self.is_base = bool(is_base)
        if len(self.ops) != der.dim:
            raise ValueError("need one operator per derivation basis element")
        for g in self.ops:
            if g.rows != module.mdim or g.cols != module.mdim:
                raise ValueError("covariant operators must act on the carrier")
        bad = leibniz_defect(der, module, self.ops)
        if bad is not None:
            raise ValueError("Leibniz rule fails at derivation %d, basis %d" % bad)
        badz = center_linearity_defect(der, module, self.ops)
        if badz is not None:
            raise ValueError("center linearity fails at center %d, derivation %d" % badz)

    def op(self, mu: int) -> Mat:
        return self.ops[mu]

    def apply(self, x_coeffs: Sequence, m: Sequence) -> Vec:
        """Covariant derivative along a frame-coefficient vector."""
        acc = [Fraction(0)] * self.module.mdim
        for mu, c in enumerate(x_coeffs):
            c = frac(c)
            if c:
                for t, v in enumerate(self.ops[mu].apply(m)):
                    acc[t] += c * v
        return tuple(acc)


def free_rank(module: ModuleAction) -> Optional[int]:
    """Fiber rank when the module is in free block form, else None."""
    n = module.algebra.dim
    if n == 0 or module.mdim % n:
        return None
    p = module.mdim // n
    for i in range(n):
        lm = module.algebra.left_mult_basis(i)
        op = module.ops[i]
        for br in range(p):
            for bc in range(p):
                for r in range(n):
                    for c in range(n):
                        expect = lm.data[r][c] if br == bc else Fraction(0)
                        if op.data[br * n + r][bc * n + c] != expect:
                            return None
    return p


def base_connection(der: DerivationBasis, module: ModuleAction) -> Connection:
    """The flat lift of the frame to a free module: block copies of each X_mu."""
    p = free_rank(module)
    if p is None:
        raise ValueError("base connection needs a module in free block form")
    n = der.algebra.dim
    ops = []
    for x in der.mats:
        rows = []
        for br in range(p):
            for r in range(n):
                row = [Fraction(0)] * (p * n)
                for c in range(n):
                    row[br * n + c] = x.data[r][c]
                rows.append(tuple(row))
        ops.append(Mat(tuple(rows)))
    conn = Connection(der, module, ops, is_base=True)
    conn.base_ops = conn.ops
    conn.potential = zero_potential(der, p)
    return conn


def potential_operator(der: DerivationBasis, a: GaugePotential, mu: int) -> Mat:
    """The module operator sum_t kron(A_t, L_{z_t}) for frame element mu."""
    zs = center_basis(der.algebra)
    alg = der.algebra
    n = alg.dim
    acc = Mat.zeros(a.rank * n, a.rank * n)
    for t, block in enumerate(a.mats[mu]):
        if not block.is_zero():
            acc = acc + _kron(block, alg.left_op(zs[t]))
    return acc


def with_potential(c0: Connection, a: GaugePotential) -> Connection:
    if a.frame_dim != c0.der.dim:
        raise ValueError("potential frame size does not match the connection")
    if a.rank * c0.der.algebra.dim != c0.module.mdim:
        raise ValueError("potential rank does not match the module")
    ops = [
        c0.ops[mu] + potential_operator(c0.der, a, mu) for mu in range(c0.der.dim)
    ]
    base_ops = c0.ops if c0.is_base else None
    raw = a if c0.is_base else None
    return Connection(c0.der, c0.module, ops, base_ops=base_ops, potential=raw)


def potential_from_connection(c: Connection, c0: Connection) -> Optional[GaugePotential]:
    """Decompose c - c0 as a gauge potential; None when no decomposition exists."""
    alg = c.der.algebra
    n = alg.dim
    p = c.module.mdim // n if n and c.module.mdim % n == 0 else None
    if p is None:
        return None
    zs = center_basis(alg)
    columns = []
    keys = []
    for t, z in enumerate(zs):
        lz = alg.left_op(z)
        for br in range(p):
            for bc in range(p):
                e = Mat(tuple(
                    tuple(Fraction(1) if (r == br and cc == bc) else Fraction(0) for cc in range(p))
                    for r in range(p)
                ))
                columns.append(_kron(e, lz).flatten())
                keys.append((t, br, bc))
    sys = Mat(tuple(zip(*columns)))
    per_mu = []
    for mu in range(c.der.dim):
        diff = (c.ops[mu] - c0.ops[mu]).flatten()
        sol = solve(sys, diff)
        if sol is None:
            return None
        blocks = [[[Fraction(0)] * p for _ in range(p)] for _ in zs]
        for (t, br, bc), q in zip(keys, sol):
            blocks[t][br][bc] = q
        per_mu.append(tuple(Mat.from_rows(b) for b in blocks))
    return GaugePotential(p, tuple(per_mu))


# ---------------------------------------------------------------------------
# curvature


@dataclass
class Curvature:
    der: DerivationBasis
    module: ModuleAction
    table: dict = field(default_factory=dict)

    def at(self, mu: int, nu: int) -> Mat:
        if mu == nu:
            return Mat.zeros(self.module.mdim, self.module.mdim)
        if mu < nu:
            return self.table[(mu, nu)]
        return -self.table[(nu, mu)]

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.table.values())

    def endomorphism_defect(self) -> Optional[tuple[tuple[int, int], int]]:
        """First (pair, algebra index) where R fails to intertwine the action."""
        for key, r in self.table.items():
            for i, lam in enumerate(self.module.ops):
                if r @ lam != lam @ r:
                    return key, i
        return None


def _gauge_curvature_table(c: Connection) -> dict:
    """Curvature blocks from the potential formula, as module operators."""
    der = c.der
    alg = der.algebra
    a = c.potential
    zs = center_basis(alg)
    zdim = len(zs)
    br = bracket_table(der)
    # products and derivative images of center elements, re-expanded
    zz = [[expand_in_basis(zs, alg.mul(zs[t], zs[u])) for u in range(zdim)] for t in range(zdim)]
    dz = [[expand_in_basis(zs, der.mats[mu].apply(zs[t])) for t in range(zdim)] for mu in range(der.dim)]
    if any(w is None for row in zz for w in row) or any(w is None for row in dz for w in row):
        raise AssertionError("center failed to close under product or derivations")
    p = a.rank
    out = {}
    for mu, nu in combinations(range(der.dim), 2):
        layers = [Mat.zeros(p, p) for _ in range(zdim)]
        for t in range(zdim):
            for s, w in enumerate(dz[mu][t]):
                if w:
                    layers[s] = layers[s] + a.mats[nu][t].scale(w)
            for s, w in enumerate(dz[nu][t]):
                if w:
                    layers[s] = layers[s] - a.mats[mu][t].scale(w)
            for u in range(zdim):
                comm = a.mats[mu][t] @ a.mats[nu][u] - a.mats[nu][t] @ a.mats[mu][u]
                if not comm.is_zero():
                    for s, w in enumerate(zz[t][u]):
                        if w:
                            layers[s] = layers[s] + comm.scale(w)
        for tau, q in enumerate(br[mu][nu]):
            if q:
                for s in range(zdim):
                    layers[s] = layers[s] - a.mats[tau][s].scale(q)
        acc = Mat.zeros(c.module.mdim, c.module.mdim)
        for s, block in enumerate(layers):
            if not block.is_zero():
                acc = acc + _kron(block, alg.left_op(zs[s]))
        out[(mu, nu)] = acc
    return out


def curvature(c: Connection) -> Curvature:
    """R from the commutator definition; potential-built connections also run
    the gauge formula and the two paths must agree exactly."""
    br = bracket_table(c.der)
    table = {}
    for mu, nu in combinations(range(c.der.dim), 2):
        r = c.ops[mu] @ c.ops[nu] - c.ops[nu] @ c.ops[mu]
        for tau, q in enumerate(br[mu][nu]):
            if q:
                r = r - c.ops[tau].scale(q)
        table[(mu, nu)] = r
    if c.potential is not None and c.base_ops is not None:
        alt = _gauge_curvature_table(c)
        for key, r in table.items():
            if alt[key] != r:
                raise AssertionError("curvature paths disagree at pair %s" % (key,))
    return Curvature(c.der, c.module, table)


def flatness_check(c: Connection) -> bool:
    return curvature(c).is_zero()


def lie_hom_check(a: GaugePotential, der: DerivationBasis) -> bool:
    """[A_mu, A_nu] == sum_tau c^tau_mu_nu A_tau; stated over a simple base."""
    if a.center_dim != 1:
        raise ValueError("the bracket criterion applies over a one-dimensional center")
    br = bracket_table(der)
    for mu, nu in combinations(range(der.dim), 2):
        lhs = a.mats[mu][0] @ a.mats[nu][0] - a.mats[nu][0] @ a.mats[mu][0]
        rhs = Mat.zeros(a.rank, a.rank)
        for tau, q in enumerate(br[mu][nu]):
            if q:
                rhs = rhs + a.mats[tau][0].scale(q)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# inner connections


def inner_operator_on_module(module: ModuleAction, pairs) -> Mat:
    """sum q [Lam_i, Lam_j] for an expansion of a derivation by basis pairs."""
    acc = Mat.zeros(module.mdim, module.mdim)
    for (i, j), q in pairs:
        li, lj = module.ops[i], module.ops[j]
        acc = acc + (li @ lj - lj @ li).scale(q)
    return acc


def inner_connection(der: DerivationBasis, module: ModuleAction) -> Connection:
    """Connection from inner expansions of every frame element.

    Each X_mu = sum q [L_i, L_j] is mirrored by sum q [Lam_i, Lam_j] on the
    carrier; the Leibniz rule is re-verified rather than trusted, since the
    construction silently depends on the chosen expansion.
    """
    ops = []
    for x in der.mats:
        pairs = express_in_inner(der.algebra, x)
        if pairs is None:
            raise ValueError("frame element has no inner expansion")
        ops.append(inner_operator_on_module(module, pairs))
    return Connection(der, module, ops)


# ---------------------------------------------------------------------------
# serialization


def _mat_to_lists(m: Mat):
    return [[format_fraction(v) for v in row] for row in m.data]


def _mat_from_lists(rows) -> Mat:
    return Mat.from_rows([[parse_fraction(str(v)) for v in row] for row in rows])


def potential_to_dict(a: GaugePotential) -> dict:
    if a.center_dim == 1:
        layers = [_mat_to_lists(per[0]) for per in a.mats]
    else:
        layers = [[_mat_to_lists(block) for block in per] for per in a.mats]
    return {"rank": a.rank, "center_dim": a.center_dim, "potential": layers}


def potential_from_dict(d: dict) -> GaugePotential:
    rank = int(d["rank"])
    zdim = int(d.get("center_dim", 1))
    mats = []
    for per in d["potential"]:
        if zdim == 1:
            mats.append((_mat_from_lists(per),))
        else:
            mats.append(tuple(_mat_from_lists(block) for block in per))
    return GaugePotential(rank, tuple(mats))


def curvature_report(cur: Curvature, full: bool = False) -> dict:
    pairs = []
    for (mu, nu), m in sorted(cur.table.items()):
        entry = {"mu": mu, "nu": nu, "zero": m.is_zero()}
        if full:
            entry["matrix"] = _mat_to_lists(m)
        pairs.append(entry)
    return {"flat": cur.is_zero(), "pairs": pairs}
