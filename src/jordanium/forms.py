"""Derivation-based differential forms with exact rational coefficients.

A degree-n form stores one value (an algebra or module coordinate vector)
per strictly increasing n-tuple of derivation-basis indices; evaluation on
arbitrary argument tuples is the antisymmetric multilinear extension.

Products follow the normalized antisymmetrization

    (w ^ f)(X_1, ..., X_{n+l}) = 1/(n+l)! sum_perm sign(perm) w(...) f(...)

which reduces to a shuffle sum weighted by n! l! / (n+l)!.  Under that
normalization the compatible differential carries a degree-dependent factor,

    d|degree n = 1/(n+1) * (Koszul alternating sum),

and the pair satisfies d(w^f) = (dw)^f + (-1)^n w^(df), d^2 = 0, and
graded commutativity w^f = (-1)^{nl} f^w, all as exact identities.  A
connection extends to module-valued forms (:func:`extend_to_forms`) by the
same sum with its covariant operators in place of the frame matrices.

Both are computed on integers.  A form is one ``Mat`` of shape (C(D, n), V)
over the sorted keys of its degree (one integer array and one denominator),
so equal forms hold equal arrays.  The differential of degree n is a
:class:`KoszulOperator`, the transposed sparse integer matrix ``dt`` and one
``scale`` that also holds the 1/(n+1), built once per frame (``d_der``) or
connection (``extend_to_forms``), cached on it and applied by one join.
``wedge`` is one exact contraction of the two coefficient arrays with the
algebra's structure tensor (or the module's action tensor), gathered over the
disjoint key pairs and summed into the merged keys with their shuffle signs;
n! l! / (n+l)! joins the one denominator.  Sums run in int64 only below a
bound checked before they start, in object dtype otherwise, and each result
is one ``Mat`` of the summed array over its scale.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, lcm, prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import center_basis
from .derivations import DerivationBasis, bracket_constants
from .linalg import (
    Mat,
    Triples,
    Vec,
    basis_vec,
    exact_int_matmul,
    format_fraction,
    frac,
    max_abs_int,
    parse_fraction,
    parse_int,
    row_pairs,
    scale_ints,
    scaled_int_mats,
    sparse_join,
    triples_by_key,
    zero_vec,
)
from .modules import ModuleAction

if TYPE_CHECKING:
    from .connections import Connection

DEGREE_CAP = 3

Key = tuple[int, ...]


def bracket_table(der: DerivationBasis) -> Mat:
    """Structure constants of the frame as the (d**2, d) Mat of
    :func:`derivations.bracket_constants` (row p d + q: the coefficients of
    [X_p, X_q]), computed once per basis."""
    return bracket_constants(der)


def _sort_sign(indices: Sequence[int]) -> tuple[Key, int]:
    # insertion sort, counting swaps; arities here never exceed DEGREE_CAP
    arr = list(indices)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return tuple(arr), sign


def _merge_sign(k1: Key, k2: Key) -> tuple[Key, int]:
    """Sorted union of two disjoint increasing tuples and the shuffle sign."""
    inv = sum(1 for a in k1 for b in k2 if a > b)
    merged = tuple(sorted(k1 + k2))
    return merged, (-1 if inv % 2 else 1)


def _det(rows: list[Vec]) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = Fraction(-1 if inv % 2 else 1)
        for r, c in enumerate(perm):
            prod *= rows[r][c]
            if not prod:
                break
        total += prod
    return total


class DerForm:
    """One homogeneous form over a fixed derivation basis.

    module=None means the values live in the base algebra; otherwise they are
    carrier coordinates of the given module action.  The form is the Mat
    ``mat`` of shape (C(D, n), V), for D the frame dimension, n the degree and
    V the value dimension: row t is the value on the t-th sorted key.
    """

    def __init__(
        self,
        der: DerivationBasis,
        degree: int,
        coeffs: Optional[dict] = None,
        module: Optional[ModuleAction] = None,
    ):
        if not 0 <= degree <= DEGREE_CAP:
            raise ValueError("form degree must lie in 0..%d" % DEGREE_CAP)
        degree = int(degree)
        value_dim = module.mdim if module is not None else der.algebra.dim
        keys, rows = _keys(der.dim, degree)
        targets, vecs = [], []
        for key, vec in (coeffs or {}).items():
            key = tuple(int(k) for k in key)
            if len(key) != degree:
                raise ValueError("coefficient key arity differs from degree")
            if any(not 0 <= k < der.dim for k in key):
                raise ValueError("derivation index out of range")
            t = rows.get(key)
            if t is None:
                raise ValueError("coefficient keys must be strictly increasing")
            if len(vec) != value_dim:
                raise ValueError("coefficient value has the wrong dimension")
            targets.append(t)
            vecs.append(vec)
        vals = Mat.from_rows(vecs)
        ints = np.zeros((len(keys), value_dim), dtype=vals.ints.dtype)
        ints[targets] = vals.ints.reshape(len(vecs), value_dim)
        self._set(der, degree, Mat(ints, vals.den), module)

    def _set(self, der: DerivationBasis, degree: int, mat: Mat, module: Optional[ModuleAction]):
        self.der, self.degree, self.mat, self.module = der, degree, mat, module
        self.value_dim = mat.cols
        self._coeffs: Optional[Mapping[Key, Vec]] = None

    @property
    def coeffs(self) -> Mapping[Key, Vec]:
        """Read-only {key: Fraction tuple} of the nonzero values, built on first
        read; the package itself computes on ``mat``."""
        if self._coeffs is None:
            keys, _ = _keys(self.der.dim, self.degree)
            nz = self.mat.nonzero_rows()
            self._coeffs = MappingProxyType({keys[t]: self.mat.row(t) for t in nz})
        return self._coeffs

    # -- container plumbing ------------------------------------------------

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DerForm):
            return NotImplemented
        return (
            self.der.mats == other.der.mats
            and self.degree == other.degree
            and self.module == other.module
            and self.mat == other.mat
        )

    def _operand(self, other: "DerForm") -> Mat:
        """other's Mat, once other is a form of this one's degree and carrier."""
        if not isinstance(other, DerForm):
            raise TypeError("can only combine forms with forms")
        if self.degree != other.degree or self.module != other.module:
            raise ValueError("can only combine forms of equal degree and carrier")
        return other.mat

    def __add__(self, other):
        return _form(self.der, self.degree, self.mat + self._operand(other), self.module)

    def __sub__(self, other):
        return _form(self.der, self.degree, self.mat - self._operand(other), self.module)

    def __neg__(self):
        return _form(self.der, self.degree, -self.mat, self.module)

    def scale(self, c) -> "DerForm":
        return _form(self.der, self.degree, self.mat.scale(c), self.module)

    def __repr__(self):
        kind = "module" if self.module is not None else "algebra"
        keys = len(self.mat.nonzero_rows())
        return "DerForm(deg=%d, %s-valued, %d keys)" % (self.degree, kind, keys)

    # -- evaluation --------------------------------------------------------

    def at(self, *indices: int) -> Vec:
        """Value on basis derivations, extended antisymmetrically."""
        if len(indices) != self.degree:
            raise ValueError("expected %d arguments" % self.degree)
        key, sign = _sort_sign(indices)
        t = _keys(self.der.dim, self.degree)[1].get(key)
        if t is None:  # a repeated or out-of-range index
            return zero_vec(self.value_dim)
        vec = self.mat.row(t)
        return vec if sign == 1 else tuple(-v for v in vec)

    def eval(self, *args: Union[int, Sequence]) -> Vec:
        """Value on arguments given as basis indices or frame coefficient vectors."""
        if len(args) != self.degree:
            raise ValueError("expected %d arguments" % self.degree)
        if all(isinstance(a, int) for a in args):
            return self.at(*args)
        dim = self.der.dim
        rows = [basis_vec(dim, a) if isinstance(a, int) else tuple(map(frac, a)) for a in args]
        if any(len(row) != dim for row in rows):
            raise ValueError("argument has the wrong frame dimension")
        keys, _ = _keys(dim, self.degree)
        nz = self.mat.nonzero_rows()
        # the sum over keys of the arguments' minor on the key times its value
        minors = [[_det([tuple(row[k] for k in keys[t]) for row in rows]) for t in nz]]
        return (Mat.from_rows(minors) @ Mat(self.mat.ints[nz], self.mat.den)).row(0)


def _form(der: DerivationBasis, degree: int, mat: Mat, module) -> DerForm:
    """The form whose row t is row t of mat, for a computed mat of the right shape."""
    w = DerForm.__new__(DerForm)
    w._set(der, degree, mat, module)
    return w


def _zero(der: DerivationBasis, degree: int, module: Optional[ModuleAction]) -> DerForm:
    value_dim = module.mdim if module is not None else der.algebra.dim
    return _form(der, degree, Mat.zeros(comb(der.dim, degree), value_dim), module)


# ---------------------------------------------------------------------------
# constructors


def zero_form(der: DerivationBasis, degree: int, module: Optional[ModuleAction] = None) -> DerForm:
    return DerForm(der, degree, {}, module)


def element_form(der: DerivationBasis, x: Sequence) -> DerForm:
    """Degree-0 form wrapping an algebra element."""
    return DerForm(der, 0, {(): x})


def module_element_form(der: DerivationBasis, module: ModuleAction, m: Sequence) -> DerForm:
    """Degree-0 form wrapping a module carrier element."""
    return DerForm(der, 0, {(): m}, module)


def unit_form(der: DerivationBasis) -> DerForm:
    return element_form(der, der.algebra.unit)


def coordinate_form(der: DerivationBasis, k: int) -> DerForm:
    """The dual frame 1-form theta^k with theta^k(X_j) = delta_kj * unit."""
    if not 0 <= k < der.dim:
        raise ValueError("derivation index out of range")
    return DerForm(der, 1, {(k,): der.algebra.unit})


# ---------------------------------------------------------------------------
# integer operators on the sorted keys


@lru_cache(maxsize=None)
def _keys(dim: int, degree: int) -> tuple[tuple[Key, ...], dict[Key, int]]:
    """The sorted keys of one degree, and the row of each."""
    keys = tuple(combinations(range(dim), degree))
    return keys, {key: t for t, key in enumerate(keys)}


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class KoszulOperator:
    """The differential on degree-n forms as one sparse integer matrix and one scale.

    For a form cleared to x = s_x * w, apply(x) is scale * s_x * (dw), for
    scale (n + 1) s and s the common scale of the operators and brackets.
    dt is the transpose of the integer differential as ``linalg.Triples``:
    row k V + v is coordinate v on source key k and column t V + v' is
    coordinate v' on target key t, for V the value dimension (one column
    per target key at V = 0, so the shape still counts the targets).
    """

    __slots__ = ("dt", "scale")

    def __init__(self, dt: Triples, scale: int):
        # a plain class: a dataclass costs each CLI process milliseconds at import
        _read_only(dt.row, dt.col, dt.val, dt.ptr)
        self.dt, self.scale = dt, scale

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Integer image of x, shape (..., C(D, n), V) -> (..., C(D, n + 1), V):
        the nonzero entries of x, one output row per form of the batch, are
        joined with the rows of dt they select (``linalg.sparse_join``)."""
        v = x.shape[-1]
        nt = self.dt.shape[1] // max(v, 1)
        batch = prod(x.shape[:-2])
        flat = x.reshape(batch, self.dt.shape[0])
        b, r = np.nonzero(flat)
        out = sparse_join(b, r, flat[b, r], self.dt, batch)
        return out[:, : nt * v].reshape(x.shape[:-2] + (nt, v))


def _build_koszul(der: DerivationBasis, ops: Sequence[Mat], v: int, n: int) -> KoszulOperator:
    """Assemble the degree-n differential with ops (v x v) along the frame.

    Target key t takes the frame term (-1)^p O_mu w(t without p) for each
    position p, mu = t[p], and the bracket term (-1)^(r+u) c^tau_{t[r] t[u]}
    w(tau, rest) for positions r < u, rest = t without r and u, with one
    more sign for each index of rest below tau.
    """
    d = der.dim
    (o,), so = scaled_int_mats(ops)
    br = bracket_table(der)
    s = lcm(so, br.den)
    o = scale_ints(o, s // so)
    b = scale_ints(br.ints, s // br.den)
    nk, nt = comb(d, n), comb(d, n + 1)
    targets = np.array(_keys(d, n + 1)[0], dtype=np.int64).reshape(nt, n + 1)
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # in lexicographic order sorted keys have increasing base-d codes
    codes = np.array(_keys(d, n)[0], dtype=np.int64).reshape(nk, n) @ powers
    cols = nt * max(v, 1)
    # keys are (row, column) of dt as row * cols + column, so their sort is dt's
    keys, vals = [], []
    # frame term: the nonzeros (v', v) of O_mu, in CSR by mu
    mu, vo, vi = np.nonzero(o)
    oval = o[mu, vo, vi]
    optr = np.searchsorted(mu, np.arange(d + 1))
    for p in range(n + 1):
        src = np.searchsorted(codes, np.delete(targets, p, axis=1) @ powers)
        t, e = row_pairs(optr, targets[:, p])
        keys.append((src[t] * v + vi[e]) * cols + t * v + vo[e])
        vals.append(-oval[e] if p % 2 else oval[e])
    # bracket term: a signed map of keys, tensored with the identity on values
    pq, tau = np.nonzero(b)
    bval = b[pq, tau]
    bptr = np.searchsorted(pq, np.arange(d * d + 1))
    diag = np.arange(v)
    for r, u in combinations(range(n + 1), 2):
        t, e = row_pairs(bptr, targets[:, r] * d + targets[:, u])
        rest, ins = np.delete(targets, [r, u], axis=1)[t], tau[e]
        keep = ~(rest == ins[:, None]).any(axis=1)
        t, e, rest, ins = t[keep], e[keep], rest[keep], ins[keep]
        src = np.searchsorted(codes, np.sort(np.column_stack((rest, ins)), axis=1) @ powers)
        odd = (r + u + (rest < ins[:, None]).sum(axis=1)) % 2
        keys.append((((src * v)[:, None] + diag) * cols + (t * v)[:, None] + diag).ravel())
        vals.append(np.repeat(np.where(odd, -bval[e], bval[e]), v))
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    # every sum is at most the sum of all |vals|
    if vals.dtype != object and max_abs_int(vals) * len(vals) >= 2**63:
        vals = vals.astype(object)
    return KoszulOperator(triples_by_key(keys, vals, (nk * v, cols)), (n + 1) * s)


def koszul_operator(owner: Union[DerivationBasis, "Connection"], degree: int) -> KoszulOperator:
    """The differential on degree-n forms, built once per owner and degree.

    A DerivationBasis owns the frame's differential (:func:`d_der`), a
    Connection the one of its covariant operators (:func:`extend_to_forms`).
    """
    if not 0 <= degree < DEGREE_CAP:
        raise ValueError("differential would exceed the degree cap of %d" % DEGREE_CAP)
    cache = getattr(owner, "_koszul_cache", None)
    if cache is None:
        cache = {}
        # DerivationBasis is frozen; stash through the back door
        object.__setattr__(owner, "_koszul_cache", cache)
    if degree not in cache:
        if isinstance(owner, DerivationBasis):
            cache[degree] = _build_koszul(owner, owner.mats, owner.algebra.dim, degree)
        else:
            cache[degree] = _build_koszul(owner.der, owner.ops, owner.module.mdim, degree)
    return cache[degree]


@lru_cache(maxsize=None)
def _shuffles(dim: int, n: int, l: int) -> tuple[np.ndarray, ...]:
    """(left, right, merged, sign) over the disjoint pairs of sorted keys of
    degrees n and l: their rows, the row of the merged key and the shuffle sign."""
    left, _ = _keys(dim, n)
    right, _ = _keys(dim, l)
    _, merged = _keys(dim, n + l)
    found = []
    for a, k1 in enumerate(left):
        for b, k2 in enumerate(right):
            if not set(k1) & set(k2):
                key, sign = _merge_sign(k1, k2)
                found.append((a, b, merged[key], sign))
    return _read_only(*np.array(found, dtype=np.intp).reshape(-1, 4).T.copy())


# ---------------------------------------------------------------------------
# product and differential


def wedge(w: DerForm, f: DerForm) -> DerForm:
    """Normalized antisymmetrized product; left factor must be algebra-valued."""
    if w.module is not None:
        raise ValueError("left wedge factor must take values in the algebra")
    if w.der is not f.der and w.der.mats != f.der.mats:
        raise ValueError("wedge factors use different derivation bases")
    n, l = w.degree, f.degree
    if n + l > DEGREE_CAP:
        raise ValueError("wedge degree exceeds the cap of %d" % DEGREE_CAP)
    mod = f.module
    if w.is_zero() or f.is_zero():
        return _zero(w.der, n + l, mod)
    # c[i, j, k] = s_c times coordinate k of e_i times value basis vector j
    c, s_c = w.der.algebra.int_tensor() if mod is None else mod.int_tensor()
    xw, xf = w.mat.ints, f.mat.ints
    mult = comb(n + l, n)
    c_l1 = int(np.abs(c).sum(axis=(0, 1)).max())
    # |each sum| <= max|xw| max|xf| c_l1 mult, the bound on int64 sums
    if max_abs_int(xw) * max_abs_int(xf) * c_l1 * mult >= 2**63:
        xw = xw.astype(object)
    vdim, jdim, kdim = c.shape
    t = exact_int_matmul(xw, c.reshape(vdim, jdim * kdim)).reshape(-1, jdim, kdim)
    prod = exact_int_matmul(t.transpose(0, 2, 1).reshape(-1, jdim), xf.T)
    prod = prod.reshape(len(xw), kdim, len(xf))
    left, right, merged, sign = _shuffles(w.der.dim, n, l)
    out = np.zeros((len(_keys(w.der.dim, n + l)[0]), kdim), dtype=prod.dtype)
    np.add.at(out, merged, prod[left, :, right] * sign[:, None])
    return _form(w.der, n + l, Mat(out, s_c * w.mat.den * f.mat.den * mult), mod)


def _koszul(w: DerForm, owner: Union[DerivationBasis, "Connection"]) -> DerForm:
    """1/(n+1) times the Koszul alternating sum of a degree-n form, with the
    owner's operators acting on the values along the frame."""
    n = w.degree
    if w.is_zero() or n + 1 > w.der.dim:
        return _zero(w.der, n + 1, w.module)
    op = koszul_operator(owner, n)
    return _form(w.der, n + 1, Mat(op.apply(w.mat.ints), op.scale * w.mat.den), w.module)


def d_der(w: DerForm) -> DerForm:
    """Differential of an algebra-valued form."""
    if w.module is not None:
        raise ValueError(
            "module-valued forms are differentiated by a connection, not by d_der"
        )
    if w.degree + 1 > DEGREE_CAP:
        raise ValueError("differential would exceed the degree cap of %d" % DEGREE_CAP)
    return _koszul(w, w.der)


def extend_to_forms(c: "Connection", phi: DerForm) -> DerForm:
    """Degree-raising covariant differential of a module-valued form."""
    if phi.module is None or phi.module != c.module:
        raise ValueError("form must take values in the connection's module")
    if phi.degree + 1 > DEGREE_CAP:
        raise ValueError("extension would exceed the degree cap of %d" % DEGREE_CAP)
    return _koszul(phi, c)


# ---------------------------------------------------------------------------
# graded-structure checks


def _graded_leibniz(w: DerForm, f: DerForm, diff: Callable[[DerForm], DerForm]) -> bool:
    """diff(w^f) == (dw)^f + (-1)^n w^diff(f), as exact forms."""
    lhs = diff(wedge(w, f))
    rhs = wedge(d_der(w), f)
    tail = wedge(w, diff(f))
    rhs = rhs - tail if w.degree % 2 else rhs + tail
    return lhs == rhs


def leibniz_check(w: DerForm, f: DerForm) -> bool:
    """d(w^f) == (dw)^f + (-1)^n w^(df), as exact forms."""
    if w.module is not None or f.module is not None:
        raise ValueError("the Leibniz check applies to algebra-valued forms")
    if w.degree + f.degree + 1 > DEGREE_CAP:
        raise ValueError("combined degree leaves no room below the cap")
    return _graded_leibniz(w, f, d_der)


def forms_leibniz_check(c: "Connection", w: DerForm, phi: DerForm) -> bool:
    """grad(w phi) == (dw) phi + (-1)^n w grad(phi) as exact forms."""
    if w.module is not None or phi.module != c.module:
        raise ValueError("need an algebra-valued form acting on a module-valued one")
    return _graded_leibniz(w, phi, lambda x: extend_to_forms(c, x))


def graded_commutativity_check(w: DerForm, f: DerForm) -> bool:
    """w^f == (-1)^{nl} f^w for algebra-valued forms."""
    lhs = wedge(w, f)
    rhs = wedge(f, w)
    if (w.degree * f.degree) % 2:
        rhs = -rhs
    return lhs == rhs


def form_associator(w1: DerForm, w2: DerForm, w3: DerForm) -> DerForm:
    """(w1^w2)^w3 - w1^(w2^w3); nonzero in general, the product is not associative."""
    return wedge(wedge(w1, w2), w3) - wedge(w1, wedge(w2, w3))


def z_linearity_defect(w: DerForm) -> Optional[tuple[int, Key]]:
    """First (center index, key) where center-scaling the first slot fails.

    Forms must be linear over the center acting on derivations, which is a
    real condition only when the center is bigger than the span of the unit
    (direct sums).  Returns None when the form passes.
    """
    alg = w.der.algebra
    if w.degree == 0 or w.der.dim == 0:
        return None
    value_op = alg.left_op if w.module is None else w.module.op_of
    cols = []
    for z in center_basis(alg):
        lz = alg.left_op(z)
        # z rescales each frame derivation inside the span; coefficients_of
        # raises if the center fails to stabilize the frame
        zcols = [w.der.coefficients_of(lz @ x) for x in w.der.mats]
        cols.append((z, zcols, value_op(z)))
    for key in combinations(range(w.der.dim), w.degree):
        for zi, (z, zcols, zval) in enumerate(cols):
            expect = zval.apply(w.at(*key))
            acc = list(zero_vec(w.value_dim))
            for nu, c in enumerate(zcols[key[0]]):
                if c:
                    got = w.at(nu, *key[1:])
                    for t, v in enumerate(got):
                        acc[t] += c * v
            if tuple(acc) != expect:
                return zi, key
    return None


# ---------------------------------------------------------------------------
# serialization


def form_to_dict(w: DerForm) -> dict:
    keys, _ = _keys(w.der.dim, w.degree)
    entries = [
        [list(keys[t]), [format_fraction(v) for v in w.mat.row(t)]]
        for t in w.mat.nonzero_rows()
    ]
    return {"degree": w.degree, "entries": entries}


def form_from_dict(
    der: DerivationBasis, d: dict, module: Optional[ModuleAction] = None
) -> DerForm:
    coeffs = {
        tuple(parse_int(k) for k in key): tuple(parse_fraction(s) for s in vec)
        for key, vec in d["entries"]
    }
    return DerForm(der, parse_int(d["degree"]), coeffs, module)
