"""Differential forms over derivation frames: wedge, d, graded identities."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium import forms, linalg
from jordanium.algebra import (
    algebra_from_dict,
    algebra_to_dict,
    build_hermitian,
    build_spin,
    center_basis,
    direct_sum,
)
from jordanium.connections import base_connection, gauge_potential, with_potential
from jordanium.derivations import derivation_basis, structure_constants
from jordanium.forms import (
    DEGREE_CAP,
    DerForm,
    coordinate_form,
    d_der,
    element_form,
    extend_to_forms,
    form_associator,
    form_from_dict,
    form_to_dict,
    graded_commutativity_check,
    koszul_operator,
    leibniz_check,
    module_element_form,
    unit_form,
    wedge,
    z_linearity_defect,
    zero_form,
)
from jordanium.linalg import Mat, expand_in_basis, format_fraction
from jordanium.modules import build_free, module_from_dict

fr = Fraction


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def _vec(rng, n):
    return tuple(fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))


def _one_form(der, rng):
    return DerForm(
        der, 1, {(k,): _vec(rng, der.algebra.dim) for k in range(der.dim)}
    )


def _two_form(der, rng):
    keys = [(i, j) for i in range(der.dim) for j in range(i + 1, der.dim)]
    return DerForm(der, 2, {k: _vec(rng, der.algebra.dim) for k in keys})


class TestEvaluation:
    def test_dual_frame_pairing(self):
        der = derivation_basis(build_spin(3))
        unit = der.algebra.unit
        zero = der.algebra.zero()
        for k in range(der.dim):
            th = coordinate_form(der, k)
            for j in range(der.dim):
                assert th.eval(j) == (unit if j == k else zero)

    def test_wedge_of_dual_frames_halves(self):
        der = derivation_basis(build_spin(3))
        w = wedge(coordinate_form(der, 0), coordinate_form(der, 1))
        half_unit = tuple(fr(1, 2) * u for u in der.algebra.unit)
        assert w.eval(0, 1) == half_unit

    def test_repeated_argument_vanishes(self):
        der = derivation_basis(build_spin(3))
        w = wedge(coordinate_form(der, 0), coordinate_form(der, 1))
        assert w.eval(0, 0) == der.algebra.zero()
        assert w.at(1, 1) == der.algebra.zero()

    def test_swapped_arguments_flip_sign(self):
        der = derivation_basis(build_spin(3))
        w = wedge(coordinate_form(der, 0), coordinate_form(der, 1))
        assert w.eval(1, 0) == tuple(-v for v in w.eval(0, 1))
        assert w.at(1, 0) == tuple(-v for v in w.at(0, 1))

    def test_eval_on_coefficient_vectors_is_a_minor(self):
        der = derivation_basis(build_spin(3))
        w = wedge(coordinate_form(der, 0), coordinate_form(der, 1))
        x = (fr(2), fr(1), fr(0))
        y = (fr(1, 3), fr(5), fr(-2))
        minor = x[0] * y[1] - x[1] * y[0]
        expect = tuple(minor * v for v in w.at(0, 1))
        assert w.eval(x, y) == expect

    def test_zero_form_arity(self):
        der = derivation_basis(build_spin(3))
        x = element_form(der, der.algebra.basis_element(1))
        assert x.eval() == der.algebra.basis_element(1)
        assert x.degree == 0


class TestDifferential:
    def test_d_of_element_is_the_frame_action(self):
        der = derivation_basis(build_hermitian(3, 0))
        x = der.algebra.basis_element(3)
        dx = d_der(element_form(der, x))
        for mu in range(der.dim):
            assert dx.eval(mu) == der.mats[mu].apply(x)

    def test_d_of_unit_vanishes(self):
        der = derivation_basis(build_hermitian(3, 0))
        assert d_der(unit_form(der)).is_zero()

    def test_d_of_dual_frame_reads_structure_constants(self):
        der = derivation_basis(build_spin(3))
        b = structure_constants(der)
        for tau in range(der.dim):
            dth = d_der(coordinate_form(der, tau))
            for i in range(der.dim):
                for j in range(i + 1, der.dim):
                    expect = tuple(
                        fr(-1, 2) * b[i][j][tau] * u for u in der.algebra.unit
                    )
                    assert dth.at(i, j) == expect

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_spin(2),
            lambda: build_spin(3),
            lambda: build_spin(4),
            lambda: build_hermitian(3, 0),
        ],
    )
    def test_d_squared_is_zero(self, builder):
        der = derivation_basis(builder())
        a = der.algebra
        rng = random.Random(11)
        for i in range(a.dim):
            assert d_der(d_der(element_form(der, a.basis_element(i)))).is_zero()
        for _ in range(3):
            w = _one_form(der, rng)
            assert d_der(d_der(w)).is_zero()

    def test_module_valued_forms_are_not_d_differentiable(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        phi = module_element_form(der, mod, tuple(fr(1) for _ in range(mod.mdim)))
        with pytest.raises(ValueError):
            d_der(phi)


class TestGradedIdentities:
    def test_unit_form_is_a_left_and_right_identity(self):
        der = derivation_basis(build_spin(3))
        rng = random.Random(3)
        one = unit_form(der)
        for f in [_one_form(der, rng), _two_form(der, rng)]:
            assert wedge(one, f) == f
            assert wedge(f, one) == f

    def test_wedge_with_module_valued_form_acts(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 2)
        x = der.algebra.basis_element(1)
        m = tuple(fr(k) for k in range(mod.mdim))
        prod = wedge(element_form(der, x), module_element_form(der, mod, m))
        assert prod.eval() == mod.act(x, m)

    def test_module_valued_left_factor_rejected(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        phi = module_element_form(der, mod, tuple(fr(1) for _ in range(mod.mdim)))
        with pytest.raises(ValueError):
            wedge(phi, unit_form(der))

    @pytest.mark.parametrize("degrees", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
    def test_leibniz(self, degrees):
        der = derivation_basis(build_spin(3))
        rng = random.Random(17)
        make = {
            0: lambda: element_form(der, _vec(rng, der.algebra.dim)),
            1: lambda: _one_form(der, rng),
            2: lambda: _two_form(der, rng),
        }
        w, f = make[degrees[0]](), make[degrees[1]]()
        assert leibniz_check(w, f)

    @pytest.mark.parametrize("degrees", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    def test_graded_commutativity(self, degrees):
        der = derivation_basis(build_spin(3))
        rng = random.Random(23)
        make = {
            0: lambda: element_form(der, _vec(rng, der.algebra.dim)),
            1: lambda: _one_form(der, rng),
            2: lambda: _two_form(der, rng),
        }
        assert graded_commutativity_check(make[degrees[0]](), make[degrees[1]]())


def _super_commutator_on(a, b, phi):
    """[L_a, L_b] with the sign (-1)^{|a||b|}, applied to the probe phi."""
    t1 = wedge(a, wedge(b, phi))
    t2 = wedge(b, wedge(a, phi))
    return t1 + t2 if (a.degree * b.degree) % 2 else t1 - t2


class TestAssociatorSymmetry:
    @pytest.mark.parametrize("degrees", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    def test_graded_reversal_law(self, degrees):
        der = derivation_basis(build_spin(3))
        rng = random.Random(sum(degrees) * 7 + 1)
        make = {
            0: lambda: element_form(der, _vec(rng, der.algebra.dim)),
            1: lambda: _one_form(der, rng),
        }
        x, y, z = (make[d]() for d in degrees)
        n1, n2, n3 = degrees
        sign = (-1) ** (n1 * n2 + n2 * n3 + n3 * n1)
        lhs = form_associator(x, y, z)
        rhs = form_associator(z, y, x)
        rhs = rhs.scale(-sign)
        assert lhs == rhs

    def test_associator_is_genuinely_nonzero(self):
        # (e1 e1) e2 = e2 while e1 (e1 e2) = 0 in a spin factor
        der = derivation_basis(build_spin(3))
        e1 = element_form(der, der.algebra.basis_element(1))
        e2 = element_form(der, der.algebra.basis_element(2))
        assoc = form_associator(e1, e1, e2)
        assert not assoc.is_zero()
        assert assoc.eval() == der.algebra.basis_element(2)

    def test_plain_reversal_sign_fails_for_odd_forms(self):
        # dropping the global flip breaks the law once degrees are odd
        der = derivation_basis(build_spin(3))
        rng = random.Random(99)
        x, y, z = (_one_form(der, rng) for _ in range(3))
        lhs = form_associator(x, y, z)
        plain = form_associator(z, y, x).scale((-1) ** (1 * 1 + 1 * 1 + 1 * 1))
        assert lhs != plain


class TestGradedJordanIdentity:
    @pytest.mark.parametrize(
        "degrees",
        [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 1),
            (1, 1, 0, 0),
            (1, 0, 1, 1),
            (1, 1, 1, 0),
        ],
    )
    def test_cyclic_super_commutator_sum_vanishes(self, degrees):
        der = derivation_basis(build_spin(3))
        rng = random.Random(41 + sum(degrees))
        make = {
            0: lambda: element_form(der, _vec(rng, der.algebra.dim)),
            1: lambda: _one_form(der, rng),
        }
        x, y, z = (make[d]() for d in degrees[:3])
        phi = make[degrees[3]]()
        total = zero_form(der, sum(degrees))
        for u, v, t in [(x, y, z), (y, z, x), (z, x, y)]:
            term = _super_commutator_on(wedge(u, v), t, phi)
            if (u.degree * t.degree) % 2:
                term = -term
            total = total + term
        assert total.is_zero()

    def test_plain_commutator_variant_fails(self):
        der = derivation_basis(build_spin(3))
        rng = random.Random(5)
        x, y = _one_form(der, rng), _one_form(der, rng)
        z = element_form(der, _vec(rng, der.algebra.dim))
        phi = element_form(der, _vec(rng, der.algebra.dim))
        total = zero_form(der, 2)
        for u, v, t in [(x, y, z), (y, z, x), (z, x, y)]:
            a = wedge(u, v)
            term = wedge(a, wedge(t, phi)) - wedge(t, wedge(a, phi))
            if (u.degree * t.degree) % 2:
                term = -term
            total = total + term
        assert not total.is_zero()


class TestCenterLinearity:
    def test_simple_algebra_forms_pass(self):
        der = derivation_basis(build_spin(3))
        rng = random.Random(8)
        assert z_linearity_defect(_one_form(der, rng)) is None
        assert z_linearity_defect(_two_form(der, rng)) is None

    def test_block_compatible_form_passes(self):
        a = direct_sum(build_hermitian(2, 0), build_hermitian(2, 0))
        der = derivation_basis(a)
        idem1 = (fr(1), fr(1), fr(0), fr(0), fr(0), fr(0))
        w = DerForm(der, 1, {(0,): idem1})
        assert z_linearity_defect(w) is None

    def test_mixed_form_has_a_defect(self):
        a = direct_sum(build_hermitian(2, 0), build_hermitian(2, 0))
        der = derivation_basis(a)
        w = DerForm(der, 1, {(0,): a.unit})
        assert z_linearity_defect(w) == (0, (0,))


class TestDegreeCap:
    def test_constructor_rejects_high_degree(self):
        der = derivation_basis(build_spin(5))
        with pytest.raises(ValueError):
            DerForm(der, DEGREE_CAP + 1)

    def test_wedge_beyond_cap_rejected(self):
        der = derivation_basis(build_spin(5))
        rng = random.Random(2)
        w = _two_form(der, rng)
        with pytest.raises(ValueError):
            wedge(w, w)

    def test_d_at_cap_rejected(self):
        der = derivation_basis(build_spin(5))
        w = DerForm(der, 3, {(0, 1, 2): der.algebra.unit})
        with pytest.raises(ValueError):
            d_der(w)

    def test_leibniz_check_cap_guard(self):
        der = derivation_basis(build_spin(3))
        rng = random.Random(6)
        w, f = _two_form(der, rng), _one_form(der, rng)
        with pytest.raises(ValueError):
            leibniz_check(w, f)


class TestCoefficientValidation:
    def test_keys_must_match_degree(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            DerForm(der, 2, {(0,): der.algebra.unit})

    def test_keys_must_be_increasing(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            DerForm(der, 2, {(1, 0): der.algebra.unit})

    def test_out_of_range_index(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            DerForm(der, 1, {(7,): der.algebra.unit})

    def test_value_dimension_checked(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            DerForm(der, 1, {(0,): (fr(1),)})


class TestWireFormat:
    def test_algebra_valued_round_trip(self):
        der = derivation_basis(build_spin(3))
        rng = random.Random(31)
        w = _two_form(der, rng)
        assert form_from_dict(der, form_to_dict(w)) == w

    def test_module_valued_round_trip(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 2)
        rng = random.Random(37)
        phi = DerForm(
            der, 1, {(k,): _vec(rng, mod.mdim) for k in range(der.dim)}, module=mod
        )
        again = form_from_dict(der, form_to_dict(phi), module=mod)
        assert again == phi


# ---------------------------------------------------------------------------
# the integer differential and product against the Fraction loops


def _koszul_reference(w, ops):
    """1/(n+1) times the Koszul alternating sum, entry by entry in Fraction."""
    n = w.degree
    der = w.der
    brackets = structure_constants(der)
    out = {}
    for key in combinations(range(der.dim), n + 1):
        acc = [fr(0)] * w.value_dim
        for p, kp in enumerate(key):
            val = w.coeffs.get(key[:p] + key[p + 1 :])
            if val is None:
                continue
            for t, v in enumerate(ops[kp].apply(val)):
                acc[t] += -v if p % 2 else v
        for r, s in combinations(range(n + 1), 2):
            rest = tuple(key[t] for t in range(n + 1) if t != r and t != s)
            sgn_rs = -1 if (r + s) % 2 else 1
            for tau, q in enumerate(brackets[key[r]][key[s]]):
                if not q or tau in rest:
                    continue
                pos = sum(1 for x in rest if x < tau)
                val = w.coeffs.get(rest[:pos] + (tau,) + rest[pos:])
                if val is None:
                    continue
                c = q * sgn_rs * (-1 if pos % 2 else 1)
                for t, v in enumerate(val):
                    acc[t] += c * v
        if any(acc):
            out[key] = tuple(v / (n + 1) for v in acc)
    return DerForm(der, n + 1, out, w.module)


def _wedge_reference(w, f):
    """The shuffle sum of the normalized product, pair by pair in Fraction."""
    n, l = w.degree, f.degree
    factor = fr(factorial(n) * factorial(l), factorial(n + l))
    alg, mod = w.der.algebra, f.module
    out = {}
    for k1, v1 in w.coeffs.items():
        for k2, v2 in f.coeffs.items():
            if set(k1) & set(k2):
                continue
            inv = sum(1 for a in k1 for b in k2 if a > b)
            key = tuple(sorted(k1 + k2))
            val = alg.mul(v1, v2) if mod is None else mod.act(v1, v2)
            contrib = vec_scale(-factor if inv % 2 else factor, val)
            out[key] = vec_add(out[key], contrib) if key in out else contrib
    return DerForm(w.der, n + l, out, mod)


def _big_spin(n, entry):
    """The spin factor on R + R^n whose form is entry * identity."""
    structure = [[0, 0, 0, "1"]]
    for i in range(1, n + 1):
        structure += [[0, i, i, "1"], [i, i, 0, str(entry)]]
    unit = ["1"] + ["0"] * n
    return algebra_from_dict(
        {"label": "JSpin%d(big)" % n, "dim": n + 1, "unit": unit, "structure": structure}
    )


_ALGEBRAS = {
    "J1_3": lambda: build_hermitian(3, 0),
    "J2_3": lambda: build_hermitian(3, 1),
    "JSpin2": lambda: build_spin(2),
    "JSpin3": lambda: build_spin(3),
    "JSpin4": lambda: build_spin(4),
    "J1_2+J1_2": lambda: direct_sum(build_hermitian(2, 0), build_hermitian(2, 0)),
}


@lru_cache(maxsize=None)
def _der(label):
    if label == "JSpin3(2**45)":
        return derivation_basis(_big_spin(3, 2**45))
    return derivation_basis(_ALGEBRAS[label]())


def _random_form(der, degree, rng, value_dim, module=None, big=1):
    keys = list(combinations(range(der.dim), degree))
    coeffs = {
        key: tuple(big * fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(value_dim))
        for key in keys
        if rng.random() < 0.7
    }
    return DerForm(der, degree, coeffs, module)


@lru_cache(maxsize=None)
def _connection(label, rank, seed):
    """A free module of the given rank with a random rational gauge potential."""
    der = _der(label)
    a = der.algebra
    rng = random.Random(seed)
    center = center_basis(a)
    # a direct sum's frame element acts in one summand, and its potential is
    # a block times that summand's unit, expanded over the center basis
    half = a.dim // 2
    units = [
        tuple(u if (k < half) == first else fr(0) for k, u in enumerate(a.unit))
        for first in (True, False)
    ]
    weights = [expand_in_basis(center, z) for z in units] if len(center) > 1 else [(fr(1),)] * 2
    per_mu = []
    for x in der.mats:
        block = Mat.from_rows(
            [[fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)] for _ in range(rank)]
        )
        in_first = any(x.data[r][c] for r in range(half) for c in range(a.dim))
        per_mu.append(tuple(block.scale(q) for q in weights[0 if in_first else 1]))
    pot = gauge_potential(der, rank, per_mu)
    return with_potential(base_connection(der, build_free(a, rank)), pot)


class TestIntegerCalculus:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(_ALGEBRAS) + ["JSpin3(2**45)"]),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, 2**32),
    )
    def test_d_and_wedge_equal_the_fraction_loops(self, label, n, l, seed):
        der = _der(label)
        rng = random.Random(seed)
        big = (2**45 if seed % 2 else 2**62) if "2**45" in label else 1
        w = _random_form(der, n, rng, der.algebra.dim, big=big)
        assert d_der(w) == _koszul_reference(w, der.mats)
        l = min(l, DEGREE_CAP - n)
        f = _random_form(der, l, rng, der.algebra.dim, big=big)
        assert wedge(w, f) == _wedge_reference(w, f)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(_ALGEBRAS)),
        st.integers(1, 2),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, 2**32),
    )
    def test_module_valued_forms_equal_the_fraction_loops(self, label, rank, n, l, seed):
        c = _connection(label, rank, seed % 3)
        rng = random.Random(seed)
        phi = _random_form(c.der, n, rng, c.module.mdim, module=c.module)
        assert extend_to_forms(c, phi) == _koszul_reference(phi, c.ops)
        l = min(l, DEGREE_CAP - n)
        w = _random_form(c.der, l, rng, c.der.algebra.dim)
        assert wedge(w, phi) == _wedge_reference(w, phi)

    def test_large_entries_take_the_object_route(self, monkeypatch):
        der = _der("JSpin3(2**45)")
        v = der.algebra.dim
        op = koszul_operator(der, 1)
        # entries just below 2**62 fit int64 one by one, but their sums do not
        near = tuple(fr(2**62 - 1 - t) for t in range(v))
        w = DerForm(der, 1, {(k,): near for k in range(der.dim)})
        assert w.mat.ints.dtype == np.int64
        assert op.apply(w.mat.ints).dtype == np.dtype(object)
        assert d_der(w) == _koszul_reference(w, der.mats)
        small = DerForm(der, 1, {(k,): (1,) * v for k in range(der.dim)})
        assert op.apply(small.mat.ints).dtype == np.int64
        assert d_der(small) == _koszul_reference(small, der.mats)
        seen = []
        real = forms.exact_int_matmul

        def spy(a, b):
            seen.append((a.dtype, b.dtype))
            return real(a, b)

        monkeypatch.setattr(forms, "exact_int_matmul", spy)
        rng = random.Random(4)
        w, f = (_random_form(der, 1, rng, v, big=2**45) for _ in range(2))
        assert wedge(w, f) == _wedge_reference(w, f)
        assert seen and seen[0][0] == np.dtype(object)

    @pytest.mark.parametrize("owner", ["frame", "connection"])
    @pytest.mark.parametrize("label", sorted(_ALGEBRAS) + ["JSpin3(2**45)"])
    def test_operator_columns_are_the_differentials_of_basis_forms(self, label, owner):
        der = _der(label)
        c = _connection(label, 1, 0) if owner == "connection" else None
        ops, module = (der.mats, None) if c is None else (c.ops, c.module)
        v = der.algebra.dim if c is None else c.module.mdim
        for n in range(DEGREE_CAP):
            op = koszul_operator(der if c is None else c, n)
            keys = list(combinations(range(der.dim), n))
            basis = np.eye(len(keys) * v, dtype=np.int64).reshape(len(keys) * v, len(keys), v)
            image = op.apply(basis)
            assert image.shape == (len(keys) * v, comb(der.dim, n + 1), v)
            for i, (key, j) in enumerate(product(keys, range(v))):
                w = DerForm(der, n, {key: tuple(int(k == j) for k in range(v))}, module)
                assert Mat(image[i], op.scale) == _koszul_reference(w, ops).mat

    @pytest.mark.parametrize("owner", ["frame", "connection"])
    @pytest.mark.parametrize("label", ["J2_3", "JSpin4", "JSpin3(2**45)"])
    def test_blocked_joins_match_one_block(self, label, owner, monkeypatch):
        der = _der(label)
        c = _connection(label, 1, 0) if owner == "connection" else None
        v = der.algebra.dim if c is None else c.module.mdim
        dtypes = set()
        for n in range(DEGREE_CAP):
            op = koszul_operator(der if c is None else c, n)
            rows = comb(der.dim, n)
            basis = np.eye(rows * v, dtype=np.int64).reshape(rows * v, rows, v)
            # entries near 2**62 take the object route
            for x in (basis, basis * (2**62 - 1)):
                want = op.apply(x)
                dtypes.add(want.dtype)
                for block in (1, 3):
                    monkeypatch.setattr(linalg, "_JOIN_PAIRS", block)
                    got = op.apply(x)
                    assert got.dtype == want.dtype and (got == want).all()
                monkeypatch.undo()
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("label", sorted(_ALGEBRAS) + ["JSpin3(2**45)"])
    def test_d_squared_vanishes_on_the_whole_space(self, label):
        der = _der(label)
        v = der.algebra.dim
        for n in range(DEGREE_CAP - 1):
            rows = comb(der.dim, n)
            # every basis form of degree n at once: one per (key, coordinate)
            basis = np.eye(rows * v, dtype=np.int64).reshape(rows * v, rows, v)
            first = koszul_operator(der, n).apply(basis)
            assert first.any() or comb(der.dim, n + 1) == 0
            assert not koszul_operator(der, n + 1).apply(first).any()

    def test_operator_on_a_zero_dimensional_module(self):
        der = _der("JSpin3")
        doc = {"label": "zero", "algebra": algebra_to_dict(der.algebra), "mdim": 0, "action": []}
        zero = module_from_dict(doc)
        c = base_connection(der, zero)
        for n in range(DEGREE_CAP):
            x = np.zeros((2, comb(der.dim, n), 0), dtype=np.int64)
            assert koszul_operator(c, n).apply(x).shape == (2, comb(der.dim, n + 1), 0)
            assert extend_to_forms(c, zero_form(der, n, zero)) == zero_form(der, n + 1, zero)

    def test_operators_are_cached_on_their_owner(self):
        der = _der("JSpin3")
        assert koszul_operator(der, 1) is koszul_operator(der, 1)
        c = _connection("JSpin3", 1, 0)
        assert koszul_operator(c, 1) is koszul_operator(c, 1)
        assert koszul_operator(c, 1) is not koszul_operator(der, 1)

    def test_operator_degree_capped(self):
        with pytest.raises(ValueError):
            koszul_operator(_der("JSpin3"), DEGREE_CAP)


def _routes(label, n, l, seed):
    """Forms reached by every route the package offers, from one seed."""
    der = _der(label)
    v = der.algebra.dim
    rng = random.Random(seed)
    big = (2**45 if seed % 2 else 2**62) if "2**45" in label else 1
    w = _random_form(der, n, rng, v, big=big)
    l = min(l, DEGREE_CAP - n)
    f = _random_form(der, l, rng, v, big=big)
    # the same values by the dict constructor, keys reversed, one zero row added
    zero_key = next((k for k in combinations(range(der.dim), n) if k not in w.coeffs), None)
    items = list(w.coeffs.items())[::-1] + ([(zero_key, (0,) * v)] if zero_key else [])
    found = [
        w,
        DerForm(der, n, dict(items)),
        w + w - w,
        w.scale(2).scale(fr(1, 2)),
        -(-w),
        w - w,
        zero_form(der, n),
        wedge(w, f),
        _wedge_reference(w, f),
        wedge(unit_form(der), w),
    ]
    c = _connection(label, 1, seed % 3)
    phi = _random_form(der, n, rng, c.module.mdim, module=c.module, big=big)
    found += [phi, phi - phi, zero_form(der, n, c.module), wedge(f, phi), _wedge_reference(f, phi)]
    # n < DEGREE_CAP, so each form has a differential
    found += [d_der(w), _koszul_reference(w, der.mats)]
    found += [extend_to_forms(c, phi), _koszul_reference(phi, c.ops)]
    if n + 2 <= DEGREE_CAP:
        found += [d_der(d_der(w)), zero_form(der, n + 2)]
    return found


class TestCanonicalForm:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(_ALGEBRAS) + ["JSpin3(2**45)"]),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, DEGREE_CAP - 1),
        st.integers(0, 2**32),
    )
    def test_forms_are_equal_exactly_when_their_coefficients_are(self, label, n, l, seed):
        found = _routes(label, n, l, seed)
        for a, b in product(found, repeat=2):
            same = a.degree == b.degree and a.module == b.module and a.coeffs == b.coeffs
            assert (a == b) == same
            assert (form_to_dict(a) == form_to_dict(b)) == (a.degree == b.degree and a.coeffs == b.coeffs)
        for a in found:
            entries = [[list(k), [format_fraction(x) for x in vec]] for k, vec in sorted(a.coeffs.items())]
            assert form_to_dict(a) == {"degree": a.degree, "entries": entries}
            assert all(any(vec) for vec in a.coeffs.values())
