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

Exactness is decided by batched ``linalg.exact_int_matmul`` products of
integer stacks on one common scale (``linalg.scaled_int_mats``); ``Mat``
appears only in what is returned.  The gauge-formula path stays in
``Fraction`` arithmetic as the independent second route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .algebra import center_basis
from .derivations import DerivationBasis, InnerExpansion, inner_expansions
from .forms import bracket_table, extend_to_forms, forms_leibniz_check
from .linalg import (
    Mat,
    Vec,
    commutators,
    exact_int_matmul,
    expand_in_basis,
    format_fraction,
    frac,
    kron,
    mat_from_flat,
    mats_from_ints,
    max_abs_int,
    pair_products,
    parse_fraction,
    scale_ints,
    scaled_int_mats,
    solve,
)
from .modules import ModuleAction

_CHUNK = 16  # operators per block of a batched check, bounding its memory


def _first_commutator_failure(ops: np.ndarray, lam: np.ndarray, rhs) -> Optional[tuple[int, int]]:
    """First (s, i), row-major, where [O_s, Lam_i] != rhs(rows)[s - rows.start, i]."""
    for lo in range(0, len(ops), _CHUNK):
        block = ops[lo : lo + _CHUNK]
        comm = pair_products(block, lam) - pair_products(lam, block).transpose(1, 0, 2, 3)
        hits = np.argwhere((comm != rhs(slice(lo, lo + _CHUNK))).any(axis=(2, 3)))
        if hits.size:
            return lo + int(hits[0][0]), int(hits[0][1])
    return None


def _bracket_terms(ops: Sequence[Mat], der: DerivationBasis):
    """([O_mu, O_nu], sum_tau c^tau_mu_nu O_tau) over pairs mu < nu, flattened
    and both times s**2 for the common scale s of the operators and constants; s."""
    brackets = [Mat(tuple(row)) for row in bracket_table(der)]
    (o, b), s = scaled_int_mats(ops, brackets)
    (d, r, c), (ii, jj) = o.shape, np.triu_indices(len(o), 1)
    comm = commutators(o)[ii, jj].reshape(len(ii), r * c)
    return comm, exact_int_matmul(b[ii, jj], o.reshape(d, r * c)), s


def leibniz_defect(
    der: DerivationBasis, module: ModuleAction, ops: Sequence[Mat]
) -> Optional[tuple[int, int]]:
    """First (mu, i) violating the covariant Leibniz rule, None when clean.

    Compares [G_mu, Lam_i] with sum_j X_mu[j, i] Lam_j, both times s**2.
    """
    n, m = der.algebra.dim, module.mdim
    (x, lam, g), _ = scaled_int_mats(der.mats, module.ops, ops)

    def rhs(rows):
        xs = x[rows].transpose(0, 2, 1)
        return exact_int_matmul(xs.reshape(-1, n), lam.reshape(n, m * m)).reshape(len(xs), n, m, m)

    return _first_commutator_failure(g, lam, rhs)


def center_linearity_defect(
    der: DerivationBasis, module: ModuleAction, ops: Sequence[Mat]
) -> Optional[tuple[int, int]]:
    """First (t, mu) violating grad_{z X} = z . grad_X over the center basis.

    The frame coefficients of L_z X_mu are its free coordinates, checked to
    reproduce it as in DerivationBasis.coefficients_of; both sides carry s**3.
    """
    zs = center_basis(der.algebra)
    if len(zs) <= 1:
        return None
    alg = der.algebra
    n, m, d = alg.dim, module.mdim, der.dim
    (x, g, lz, zop), s = scaled_int_mats(
        der.mats, ops, [alg.left_op(z) for z in zs], [module.op_of(z) for z in zs]
    )
    lzx = pair_products(lz, x).reshape(len(zs) * d, n * n)  # s**2 L_z X_mu
    coeffs = lzx[:, der.free_coords]  # s**2 times the frame coefficients
    in_span = (exact_int_matmul(coeffs, x.reshape(d, n * n)) == scale_ints(lzx, s)).all(axis=1)
    zg = pair_products(zop, g).reshape(len(zs) * d, m * m)
    linear = (exact_int_matmul(coeffs, g.reshape(d, m * m)) == scale_ints(zg, s)).all(axis=1)
    for tmu in range(len(zs) * d):
        if not in_span[tmu]:
            raise ValueError("operator is not in the derivation span")
        if not linear[tmu]:
            return divmod(tmu, d)
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
    eye = Mat.identity(p)
    for i, op in enumerate(module.ops):
        if op != kron(eye, module.algebra.left_mult_basis(i)):
            return None
    return p


def base_connection(der: DerivationBasis, module: ModuleAction) -> Connection:
    """The flat lift of the frame to a free module: block copies of each X_mu."""
    p = free_rank(module)
    if p is None:
        raise ValueError("base connection needs a module in free block form")
    eye = Mat.identity(p)
    conn = Connection(der, module, [kron(eye, x) for x in der.mats], is_base=True)
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
            acc = acc + kron(block, alg.left_op(zs[t]))
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
    units = [mat_from_flat(e, p, p) for e in Mat.identity(p * p).data]  # E_(br, bc), row-major
    sys = Mat(tuple(zip(*(kron(e, lz).flatten() for lz in map(alg.left_op, zs) for e in units))))
    per_mu = []
    for mu in range(c.der.dim):
        sol = solve(sys, (c.ops[mu] - c0.ops[mu]).flatten())
        if sol is None:
            return None
        per_mu.append(tuple(mat_from_flat(sol[t * p * p : (t + 1) * p * p], p, p) for t in range(len(zs))))
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
        keys = list(self.table)
        (r, lam), _ = scaled_int_mats(list(self.table.values()), self.module.ops)
        hit = _first_commutator_failure(r, lam, lambda rows: 0)
        return None if hit is None else (keys[hit[0]], hit[1])


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
                acc = acc + kron(block, alg.left_op(zs[s]))
        out[(mu, nu)] = acc
    return out


def curvature(c: Connection) -> Curvature:
    """R from the commutator definition; potential-built connections also run
    the gauge formula and the two paths must agree exactly."""
    comm, contr, s = _bracket_terms(c.ops, c.der)
    if max_abs_int(comm) + max_abs_int(contr) >= 2**63:
        comm = comm.astype(object)
    keys = list(combinations(range(c.der.dim), 2))
    m = c.module.mdim
    table = dict(zip(keys, mats_from_ints((comm - contr).reshape(len(keys), m, m), s * s)))
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
    comm, contr, _ = _bracket_terms([per[0] for per in a.mats], der)
    return bool((comm == contr).all())


# ---------------------------------------------------------------------------
# inner connections


def inner_operator_on_module(module: ModuleAction, pairs) -> Mat:
    """sum q [Lam_i, Lam_j] for an expansion of a derivation by basis pairs."""
    return _inner_operators(module, [pairs])[0]


def _inner_operators(module: ModuleAction, expansions: Sequence[InnerExpansion]) -> list[Mat]:
    """sum q [Lam_i, Lam_j] for each expansion: its coefficient grid times the
    commutator table of the action, one exact product for all expansions."""
    n, m = module.algebra.dim, module.mdim
    grids = []
    for pairs in expansions:
        q = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in pairs:
            q[i][j] += frac(v)
        grids.append(Mat.from_rows(q))
    (q, lam), s = scaled_int_mats(grids, module.ops)
    sums = exact_int_matmul(q.reshape(len(grids), n * n), commutators(lam).reshape(n * n, m * m))
    return mats_from_ints(sums.reshape(len(grids), m, m), s**3)


def inner_connection(der: DerivationBasis, module: ModuleAction) -> Connection:
    """Connection from inner expansions of every frame element.

    Each X_mu = sum q [L_i, L_j] is mirrored by sum q [Lam_i, Lam_j] on the
    carrier; the Leibniz rule is re-verified rather than trusted, since the
    construction silently depends on the chosen expansion.
    """
    expansions = inner_expansions(der.algebra, der.mats)
    if any(e is None for e in expansions):
        raise ValueError("frame element has no inner expansion")
    return Connection(der, module, _inner_operators(module, expansions))


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
