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
integer stacks on one common scale (``linalg.scaled_int_mats``).  The gauge
formula stays the independent second route: its independence is in the
formula (center products, derivative images of the center, potential
blocks), and it too runs on integer stacks, compared with the commutator
route's as one array.
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
    format_fraction,
    frac,
    kron,
    pair_products,
    parse_fraction,
    parse_int,
    scale_ints,
    scaled_int_mats,
    solve_int,
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
    and both times s = s_c s_o**2, for the scales s_o of the operators and
    s_c of the bracket constants; s."""
    (o,), so = scaled_int_mats(ops)
    br = bracket_table(der)
    (d, r, c), (ii, jj) = o.shape, np.triu_indices(len(o), 1)
    comm = commutators(o)[ii, jj].reshape(len(ii), r * c)
    contr = exact_int_matmul(br.ints.reshape(d, d, d)[ii, jj], o.reshape(d, r * c))
    return scale_ints(comm, br.den), scale_ints(contr, so), br.den * so * so


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
        (g,), s = scaled_int_mats(self.ops)
        xs = Mat.from_rows([x_coeffs])
        k = self.module.mdim
        op = exact_int_matmul(xs.ints, g.reshape(len(g), k * k)).reshape(k, k)
        return Mat(op, s * xs.den).apply(m)


def free_rank(module: ModuleAction) -> Optional[int]:
    """Fiber rank when the module is in free block form, else None."""
    n = module.algebra.dim
    if n == 0 or module.mdim % n:
        return None
    p = module.mdim // n
    eye, left = Mat.identity(p), module.algebra.left_mult_basis
    return p if all(op == kron(eye, left(i)) for i, op in enumerate(module.ops)) else None


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


def _center_kron(alg, blocks: np.ndarray) -> tuple[np.ndarray, int]:
    """sum_t kron(blocks[b, t], L_{z_t}) over the center basis z, for each b.

    blocks is an integer stack (B, dim Z, p, p); returns the (B, p n, p n)
    integer stack and the scale of the L_z it carries on top of the blocks'.
    """
    (lz,), sl = scaled_int_mats([alg.left_op(z) for z in center_basis(alg)])
    b, k, p, _ = blocks.shape
    n = alg.dim
    out = exact_int_matmul(blocks.transpose(0, 2, 3, 1).reshape(b * p * p, k), lz.reshape(k, n * n))
    return out.reshape(b, p, p, n, n).transpose(0, 1, 3, 2, 4).reshape(b, p * n, p * n), sl


def potential_operator(der: DerivationBasis, a: GaugePotential, mu: int) -> Mat:
    """The module operator sum_t kron(A_t, L_{z_t}) for frame element mu."""
    (blocks,), s = scaled_int_mats(a.mats[mu])
    ops, sl = _center_kron(der.algebra, blocks[None])
    return Mat(ops[0], s * sl)


def with_potential(c0: Connection, a: GaugePotential) -> Connection:
    if a.frame_dim != c0.der.dim:
        raise ValueError("potential frame size does not match the connection")
    if a.rank * c0.der.algebra.dim != c0.module.mdim:
        raise ValueError("potential rank does not match the module")
    zdim = len(center_basis(c0.der.algebra))
    if any(len(per) != zdim for per in a.mats):
        raise ValueError("potential center layers do not match dim Z(J)")
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
    k = len(center_basis(alg))
    # column (t, br, bc) is kron(E, L_{z_t}) flattened, for the unit matrix E at (br, bc)
    cols, sl = _center_kron(alg, np.eye(k * p * p, dtype=np.int64).reshape(-1, k, p, p))
    system = cols.reshape(k * p * p, -1).T
    per_mu = []
    for mu in range(c.der.dim):
        diff = c.ops[mu] - c0.ops[mu]
        (sol,) = solve_int(scale_ints(system, diff.den), scale_ints(diff.ints.ravel(), sl))
        if sol is None:
            return None
        per_mu.append(tuple(Mat(b, sol.den) for b in sol.ints.reshape(k, p, p)))
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


def _center_expansions(der: DerivationBasis) -> tuple[Mat, Mat]:
    """Center coordinates of z_t z_u (rows (t, u)) and of X_mu(z_t) (rows
    (mu, t)), for z the center basis and X the frame.

    The products are one contraction of the structure tensor, the images one
    product with the frame stack, and all of them are expanded by one
    solve_int; AssertionError when one leaves the center.
    """
    alg = der.algebra
    zs = Mat.from_rows(center_basis(alg))
    k, n = zs.rows, alg.dim
    c, sc = alg.int_tensor()
    (x,), sx = scaled_int_mats(der.mats)
    # zc[t, j] = sum_i z_t[i] c[i, j]; row (u, t) of zz is z_t z_u, which is
    # row (t, u) by commutativity
    zc = exact_int_matmul(zs.ints, c.reshape(n, n * n)).reshape(k, n, n)
    zz = exact_int_matmul(zs.ints, zc.transpose(1, 0, 2).reshape(n, k * n)).reshape(k * k, n)
    dz = exact_int_matmul(x.reshape(-1, n), zs.ints.T).reshape(-1, n, k).transpose(0, 2, 1).reshape(-1, n)
    (tz, td), s = scaled_int_mats([Mat(zz, zs.den**2 * sc)], [Mat(dz, zs.den * sx)])
    # each integer solution y of zs.ints^T y = s * target gives the coordinates y zs.den / s
    sols = solve_int(zs.ints.T, np.concatenate((tz[0], td[0])).T)
    if None in sols:
        raise AssertionError("center failed to close under product or derivations")
    (y,), sy = scaled_int_mats(sols)
    y = scale_ints(y.reshape(-1, k), zs.den)
    return Mat(y[: k * k], sy * s), Mat(y[k * k :], sy * s)


def _gauge_curvature_table(c: Connection) -> tuple[np.ndarray, int]:
    """Curvature of every pair mu < nu from the potential formula, as one
    integer stack of module operators and its scale.

    With A[mu, t] the potential blocks, dz[mu, t, s] and zz[t, u, s] the
    center coordinates of X_mu(z_t) and z_t z_u, and c the frame's bracket
    constants, layer s of R_mu_nu is

        sum_t dz[mu, t, s] A[nu, t] - dz[nu, t, s] A[mu, t]
        + sum_(t, u) zz[t, u, s] (A[mu, t] A[nu, u] - A[nu, t] A[mu, u])
        - sum_tau c^tau_mu_nu A[tau, s],

    and R_mu_nu = sum_s kron(layer s, L_{z_s}).
    """
    der = c.der
    alg = der.algebra
    d, p = der.dim, c.potential.rank
    zz, dz = _center_expansions(der)
    k, br = zz.cols, bracket_table(der)
    (a,), sa = scaled_int_mats([block for per in c.potential.mats for block in per])
    a = a.reshape(d, k, p, p)
    # each term as a Mat with rows (mu, nu, s) and columns the p x p block
    dza = exact_int_matmul(
        dz.ints.reshape(d, k, k).transpose(0, 2, 1).reshape(d * k, k),
        a.transpose(1, 0, 2, 3).reshape(k, d * p * p),
    ).reshape(d, k, d, p, p)  # [mu, s, nu]
    dza = dza - dza.transpose(2, 1, 0, 3, 4)
    q = pair_products(a.reshape(d * k, p, p), a.reshape(d * k, p, p)).reshape(d, k, d, k, p, p)
    q = q - q.transpose(2, 1, 0, 3, 4, 5)
    zq = exact_int_matmul(zz.ints.T, q.transpose(1, 3, 0, 2, 4, 5).reshape(k * k, d * d * p * p))
    layers = (
        Mat(dza.transpose(0, 2, 1, 3, 4).reshape(-1, p * p), dz.den * sa)
        + Mat(zq.reshape(k, d, d, p * p).transpose(1, 2, 0, 3).reshape(-1, p * p), zz.den * sa * sa)
        - Mat(exact_int_matmul(br.ints, a.reshape(d, k * p * p)).reshape(-1, p * p), br.den * sa)
    )
    ii, jj = np.triu_indices(d, 1)
    out, sl = _center_kron(alg, layers.ints.reshape(d, d, k, p, p)[ii, jj])
    return out, layers.den * sl


def curvature(c: Connection) -> Curvature:
    """R from the commutator definition; potential-built connections also run
    the gauge formula and the two paths must agree exactly."""
    comm, contr, s = _bracket_terms(c.ops, c.der)
    keys = list(combinations(range(c.der.dim), 2))
    m = c.module.mdim
    r = Mat(comm.reshape(len(keys) * m, m), s) - Mat(contr.reshape(len(keys) * m, m), s)
    stack = r.ints.reshape(len(keys), m, m)
    if c.potential is not None and c.base_ops is not None:
        alt, s_alt = _gauge_curvature_table(c)
        hits = np.flatnonzero((scale_ints(stack, s_alt) != scale_ints(alt, r.den)).any(axis=(1, 2)))
        if hits.size:
            raise AssertionError("curvature paths disagree at pair %s" % (keys[hits[0]],))
    return Curvature(c.der, c.module, {key: Mat(x, r.den) for key, x in zip(keys, stack)})


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
    return [Mat(x, s**3) for x in sums.reshape(len(grids), m, m)]


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
    return [[format_fraction(Fraction(v, m.den)) for v in row] for row in m.ints.tolist()]


def _mat_from_lists(rows) -> Mat:
    return Mat.from_rows([[parse_fraction(v) for v in row] for row in rows])


def potential_to_dict(a: GaugePotential) -> dict:
    if a.center_dim == 1:
        layers = [_mat_to_lists(per[0]) for per in a.mats]
    else:
        layers = [[_mat_to_lists(block) for block in per] for per in a.mats]
    return {"rank": a.rank, "center_dim": a.center_dim, "potential": layers}


def potential_from_dict(d: dict) -> GaugePotential:
    rank = parse_int(d["rank"])
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    zdim = parse_int(d.get("center_dim", 1))
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
