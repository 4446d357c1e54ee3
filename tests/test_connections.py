"""Connections on free modules: potentials, curvature, flatness, extension."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium.algebra import build_hermitian, build_spin, center_basis, direct_sum
from jordanium.connections import (
    Connection,
    Curvature,
    base_connection,
    center_linearity_defect,
    curvature,
    curvature_report,
    extend_to_forms,
    flatness_check,
    forms_leibniz_check,
    free_rank,
    gauge_potential,
    inner_connection,
    inner_operator_on_module,
    leibniz_defect,
    lie_hom_check,
    potential_from_connection,
    potential_from_dict,
    potential_operator,
    potential_to_dict,
    with_potential,
    zero_potential,
)
from jordanium.derivations import derivation_basis, structure_constants
from jordanium.forms import DerForm, module_element_form, wedge
from jordanium.linalg import Mat, expand_in_basis
from jordanium.modules import build_antihermitian, build_free

fr = Fraction


def _rand_mat(rng, p):
    return Mat.from_rows(
        [[fr(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p)] for _ in range(p)]
    )


def _rand_potential(der, rng, p):
    return gauge_potential(der, p, [_rand_mat(rng, p) for _ in range(der.dim)])


class TestBaseConnection:
    def test_rank_one_base_is_the_frame(self):
        der = derivation_basis(build_spin(3))
        c0 = base_connection(der, build_free(der.algebra, 1))
        assert c0.is_base
        assert list(c0.ops) == list(der.mats)
        assert flatness_check(c0)

    def test_higher_rank_base_is_flat(self):
        der = derivation_basis(build_hermitian(3, 0))
        mod = build_free(der.algebra, 2)
        c0 = base_connection(der, mod)
        assert free_rank(mod) == 2
        assert curvature(c0).is_zero()
        assert c0.potential is not None and c0.potential.is_zero()

    def test_base_needs_a_free_module(self):
        der = derivation_basis(build_hermitian(2, 1))
        with pytest.raises(ValueError):
            base_connection(der, build_antihermitian(2, 1))

    def test_free_rank_rejects_non_free(self):
        assert free_rank(build_antihermitian(2, 1)) is None


class TestConnectionValidation:
    def test_leibniz_violation_rejected(self):
        # a single matrix-unit bump does not commute with the action, so it
        # cannot be absorbed as a gauge potential
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        bump = Mat.from_rows(
            [[fr(1) if (r, c) == (0, 1) else fr(0) for c in range(4)] for r in range(4)]
        )
        bad = list(der.mats)
        bad[1] = bad[1] + bump
        with pytest.raises(ValueError, match="Leibniz"):
            Connection(der, mod, bad)

    def test_uniform_identity_shift_is_a_gauge_potential(self):
        # adding the identity to every op commutes out of the Leibniz bracket
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        shifted = Connection(der, mod, [m + Mat.identity(mod.mdim) for m in der.mats])
        c0 = base_connection(der, mod)
        a = potential_from_connection(shifted, c0)
        assert a is not None
        assert a.mats[0][0] == Mat.from_rows([[fr(1)]])

    def test_apply_contracts_frame_coefficients(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        c0 = base_connection(der, mod)
        m = tuple(fr(k + 1) for k in range(mod.mdim))
        x = (fr(2), fr(0), fr(-1))
        expect = tuple(
            2 * u - w for u, w in zip(c0.ops[0].apply(m), c0.ops[2].apply(m))
        )
        assert c0.apply(x, m) == expect


class TestCurvature:
    def test_random_potentials_match_both_paths(self):
        # curvature() cross-checks the commutator table against the gauge
        # formula internally, so surviving the call is the two-path assertion
        der = derivation_basis(build_hermitian(2, 1))
        mod = build_free(der.algebra, 2)
        c0 = base_connection(der, mod)
        rng = random.Random(2024)
        seen_curved = False
        for _ in range(20):
            a = _rand_potential(der, rng, 2)
            cur = curvature(with_potential(c0, a))
            assert cur.endomorphism_defect() is None
            for (mu, nu) in list(cur.table):
                assert cur.at(nu, mu) == -cur.at(mu, nu)
            if not cur.is_zero():
                seen_curved = True
        assert seen_curved

    def test_gauge_formula_needs_a_closed_center(self, monkeypatch):
        # e_1 spans no subalgebra of JSpin2: e_1 e_1 = e_0
        der = derivation_basis(build_spin(2))
        c = with_potential(base_connection(der, build_free(der.algebra, 1)), zero_potential(der, 1))
        monkeypatch.setattr("jordanium.connections.center_basis", lambda a: [a.basis_element(1)])
        with pytest.raises(AssertionError, match="center failed to close"):
            curvature(c)

    def test_scalar_potential_curvature_is_minus_bracket_contraction(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 1)
        c0 = base_connection(der, mod)
        vals = [fr(1), fr(2), fr(5, 3)]
        a = gauge_potential(
            der, 1, [Mat.from_rows([[v]]) for v in vals]
        )
        c = with_potential(c0, a)
        cur = curvature(c)
        b = structure_constants(der)
        for mu in range(der.dim):
            for nu in range(mu + 1, der.dim):
                expect = Mat.zeros(mod.mdim, mod.mdim)
                for tau in range(der.dim):
                    if b[mu][nu][tau]:
                        expect = expect - potential_operator(der, a, tau).scale(
                            b[mu][nu][tau]
                        )
                assert cur.at(mu, nu) == expect

    def test_potential_round_trip(self):
        der = derivation_basis(build_hermitian(2, 1))
        mod = build_free(der.algebra, 3)
        c0 = base_connection(der, mod)
        a = _rand_potential(der, random.Random(7), 3)
        c = with_potential(c0, a)
        assert potential_from_connection(c, c0) == a

    def test_report_shape(self):
        der = derivation_basis(build_spin(3))
        c0 = base_connection(der, build_free(der.algebra, 1))
        rep = curvature_report(curvature(c0))
        assert rep["flat"] is True
        assert len(rep["pairs"]) == 3
        assert all(p["zero"] for p in rep["pairs"])
        full = curvature_report(curvature(c0), full=True)
        assert "matrix" in full["pairs"][0]


class TestFlatness:
    def test_adjoint_potential_is_a_lie_hom_and_flat(self):
        der = derivation_basis(build_hermitian(3, 0))
        b = structure_constants(der)
        mats = [
            Mat.from_rows([[b[mu][i][j] for i in range(der.dim)] for j in range(der.dim)])
            for mu in range(der.dim)
        ]
        a = gauge_potential(der, der.dim, mats)
        assert lie_hom_check(a, der)
        mod = build_free(der.algebra, der.dim)
        c = with_potential(base_connection(der, mod), a)
        assert flatness_check(c)

    def test_rank_one_lie_hom_forces_zero(self):
        # scalars commute, so a rank one Lie morphism over a simple frame
        # algebra must vanish
        der = derivation_basis(build_hermitian(3, 0))
        assert lie_hom_check(a=zero_potential(der, 1), der=der)
        a = gauge_potential(der, 1, [Mat.from_rows([[fr(1)]])] + [
            Mat.zeros(1, 1) for _ in range(der.dim - 1)
        ])
        assert not lie_hom_check(a, der)

    def test_flat_iff_lie_hom_on_random_samples(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 2)
        c0 = base_connection(der, mod)
        rng = random.Random(13)
        outcomes = set()
        for _ in range(12):
            a = _rand_potential(der, rng, 2)
            flat = flatness_check(with_potential(c0, a))
            assert flat == lie_hom_check(a, der)
            outcomes.add(flat)
        # the adjoint morphism gives a designed flat witness
        b = structure_constants(der)
        mats = [
            Mat.from_rows([[b[mu][i][j] for i in range(der.dim)] for j in range(der.dim)])
            for mu in range(der.dim)
        ]
        adj = gauge_potential(der, der.dim, mats)
        adj_mod = build_free(der.algebra, der.dim)
        assert flatness_check(with_potential(base_connection(der, adj_mod), adj))
        assert False in outcomes


class TestInnerConnection:
    def test_antihermitian_inner_connection_is_flat(self):
        a = build_hermitian(2, 1)
        der = derivation_basis(a)
        mod = build_antihermitian(2, 1)
        c = inner_connection(der, mod)
        assert flatness_check(c)

    def test_inner_connection_on_free_module_matches_base_plus_potential(self):
        a = build_hermitian(3, 0)
        der = derivation_basis(a)
        mod = build_free(a, 1)
        c = inner_connection(der, mod)
        c0 = base_connection(der, mod)
        assert potential_from_connection(c, c0) is not None


class TestExtension:
    def test_degree_zero_extension_applies_the_ops(self):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 2)
        c0 = base_connection(der, mod)
        m = tuple(fr(k - 2, 3) for k in range(mod.mdim))
        nabla = extend_to_forms(c0, module_element_form(der, mod, m))
        for mu in range(der.dim):
            assert nabla.eval(mu) == c0.ops[mu].apply(m)

    def test_second_extension_doubles_to_curvature(self):
        der = derivation_basis(build_hermitian(2, 1))
        mod = build_free(der.algebra, 2)
        c0 = base_connection(der, mod)
        a = _rand_potential(der, random.Random(3), 2)
        c = with_potential(c0, a)
        cur = curvature(c)
        m = tuple(fr((k * 7) % 5 - 2, 2) for k in range(mod.mdim))
        twice = extend_to_forms(c, extend_to_forms(c, module_element_form(der, mod, m)))
        for mu in range(der.dim):
            for nu in range(mu + 1, der.dim):
                got = tuple(2 * v for v in twice.at(mu, nu))
                assert got == cur.at(mu, nu).apply(m)

    @pytest.mark.parametrize("degrees", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    def test_leibniz_for_module_valued_forms(self, degrees):
        der = derivation_basis(build_spin(3))
        mod = build_free(der.algebra, 2)
        c = with_potential(
            base_connection(der, mod), _rand_potential(der, random.Random(9), 2)
        )
        rng = random.Random(degrees[0] * 10 + degrees[1])

        def alg_form(n):
            keys = [()] if n == 0 else (
                [(k,) for k in range(der.dim)]
                if n == 1
                else [(i, j) for i in range(der.dim) for j in range(i + 1, der.dim)]
            )
            return DerForm(
                der,
                n,
                {
                    k: tuple(fr(rng.randint(-3, 3), 2) for _ in range(der.algebra.dim))
                    for k in keys
                },
            )

        def mod_form(n):
            keys = [()] if n == 0 else (
                [(k,) for k in range(der.dim)]
                if n == 1
                else [(i, j) for i in range(der.dim) for j in range(i + 1, der.dim)]
            )
            return DerForm(
                der,
                n,
                {
                    k: tuple(fr(rng.randint(-3, 3), 2) for _ in range(mod.mdim))
                    for k in keys
                },
                module=mod,
            )

        assert forms_leibniz_check(c, alg_form(degrees[0]), mod_form(degrees[1]))


class TestDirectSumPotentials:
    @staticmethod
    def _setup():
        a = direct_sum(build_hermitian(3, 0), build_hermitian(2, 0))
        der = derivation_basis(a)
        mod = build_free(a, 2)
        return a, der, mod

    def test_layer_compatible_potential_has_two_path_curvature(self):
        from jordanium.algebra import center_basis
        from jordanium.linalg import expand_in_basis

        a, der, mod = self._setup()
        center = center_basis(a)
        # unit idempotents of the two summands, expanded over the center basis
        idem1 = tuple(fr(1) if k in (0, 1, 2) else fr(0) for k in range(a.dim))
        idem2 = tuple(fr(1) if k in (6, 7) else fr(0) for k in range(a.dim))
        weights = [expand_in_basis(center, z) for z in (idem1, idem2)]
        assert all(w is not None for w in weights)
        rng = random.Random(6)
        per_mu = []
        for mu in range(der.dim):
            # frame elements of summand one come first in the solver output
            w = weights[0] if mu < 3 else weights[1]
            b = _rand_mat(rng, 2)
            per_mu.append(tuple(b.scale(q) for q in w))
        pot = gauge_potential(der, 2, per_mu)
        c = with_potential(base_connection(der, mod), pot)
        cur = curvature(c)  # internal cross-check against the gauge formula
        assert cur.endomorphism_defect() is None

    def test_layer_incompatible_potential_rejected(self):
        a, der, mod = self._setup()
        zdim = 2
        rng = random.Random(5)
        per_mu = [
            tuple(_rand_mat(rng, 2) for _ in range(zdim)) for _ in range(der.dim)
        ]
        pot = gauge_potential(der, 2, per_mu)
        with pytest.raises(ValueError, match="center linearity"):
            with_potential(base_connection(der, mod), pot)


class TestPotentialWireFormat:
    def test_flat_layout_round_trip(self):
        der = derivation_basis(build_spin(3))
        a = _rand_potential(der, random.Random(21), 2)
        d = potential_to_dict(a)
        assert d["center_dim"] == 1
        assert potential_from_dict(d) == a

    def test_nested_layout_round_trip(self):
        alg = direct_sum(build_hermitian(2, 0), build_hermitian(2, 0))
        der = derivation_basis(alg)
        rng = random.Random(22)
        per_mu = [tuple(_rand_mat(rng, 2) for _ in range(2)) for _ in range(der.dim)]
        a = gauge_potential(der, 2, per_mu)
        d = potential_to_dict(a)
        assert d["center_dim"] == 2
        assert potential_from_dict(d) == a

    def test_entry_count_validated(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            gauge_potential(der, 1, [Mat.identity(1)])


# ---------------------------------------------------------------------------
# batched integer checks against Fraction loops kept here as the reference


def ref_leibniz_defect(der, module, ops):
    for mu, g in enumerate(ops):
        for i, lam in enumerate(module.ops):
            if g @ lam - lam @ g != module.op_of(der.mats[mu].col(i)):
                return mu, i
    return None


def ref_center_linearity_defect(der, module, ops):
    zs = center_basis(der.algebra)
    if len(zs) <= 1:
        return None
    for t, z in enumerate(zs):
        lz = der.algebra.left_op(z)
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


def ref_curvature_table(c):
    br = structure_constants(c.der)
    table = {}
    for mu, nu in combinations(range(c.der.dim), 2):
        r = c.ops[mu] @ c.ops[nu] - c.ops[nu] @ c.ops[mu]
        for tau, q in enumerate(br[mu][nu]):
            if q:
                r = r - c.ops[tau].scale(q)
        table[(mu, nu)] = r
    return table


def ref_endomorphism_defect(cur):
    for key, r in cur.table.items():
        for i, lam in enumerate(cur.module.ops):
            if r @ lam != lam @ r:
                return key, i
    return None


def ref_lie_hom_check(a, der):
    br = structure_constants(der)
    for mu, nu in combinations(range(der.dim), 2):
        lhs = a.mats[mu][0] @ a.mats[nu][0] - a.mats[nu][0] @ a.mats[mu][0]
        rhs = Mat.zeros(a.rank, a.rank)
        for tau, q in enumerate(br[mu][nu]):
            if q:
                rhs = rhs + a.mats[tau][0].scale(q)
        if lhs != rhs:
            return False
    return True


def ref_inner_operator(module, pairs):
    acc = Mat.zeros(module.mdim, module.mdim)
    for (i, j), q in pairs:
        acc = acc + module.ops[i].commutator(module.ops[j]).scale(q)
    return acc


# label -> (constructor, basis indices of the unit of each summand; None when simple)
_ALGEBRAS = {
    "J2_2": (lambda: build_hermitian(2, 1), None),
    "JSpin3": (lambda: build_spin(3), None),
    "J1_2+J1_2": (lambda: direct_sum(build_hermitian(2, 0), build_hermitian(2, 0)), ((0, 1), (3, 4))),
    "J1_2+JSpin3": (lambda: direct_sum(build_hermitian(2, 0), build_spin(3)), ((0, 1), (3,))),
}
@lru_cache(maxsize=None)
def _der(label):
    return derivation_basis(_ALGEBRAS[label][0]())


def _summand_weights(label, der):
    """Per frame element, center coordinates of the unit of the summand it acts on."""
    units = _ALGEBRAS[label][1]
    if units is None:
        return [(fr(1),)] * der.dim
    a = der.algebra
    center = center_basis(a)
    weights = [
        expand_in_basis(center, tuple(fr(1) if k in idx else fr(0) for k in range(a.dim)))
        for idx in units
    ]
    # the first summand is J1_2, on basis elements 0..2
    return [weights[0] if any(any(r) for r in x.data[:3]) else weights[1] for x in der.mats]


_ENTRY = st.builds(
    lambda num, den, big: fr(num * big, den),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.sampled_from([1, 1, 2**31 + 1, 2**62 + 1]),
)


class TestIntegerChecksMatchFractionLoops:
    @given(st.sampled_from(sorted(_ALGEBRAS)), st.integers(1, 2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_same_witnesses_and_tables(self, label, p, data):
        der = _der(label)
        mod = build_free(der.algebra, p)
        c0 = base_connection(der, mod)
        blocks = [
            Mat.from_rows([[data.draw(_ENTRY) for _ in range(p)] for _ in range(p)])
            for _ in range(der.dim)
        ]
        weights = _summand_weights(label, der)
        pot = gauge_potential(der, p, [tuple(b.scale(q) for q in w) for b, w in zip(blocks, weights)])
        c = with_potential(c0, pot)

        cur = curvature(c)  # also asserts the gauge-formula path equal
        assert cur.table == ref_curvature_table(c)
        assert cur.endomorphism_defect() is None
        if len(pot.mats[0]) == 1:
            assert lie_hom_check(pot, der) == ref_lie_hom_check(pot, der)

        # operators that break the Leibniz rule or center linearity
        ops = list(c.ops)
        mu = data.draw(st.integers(0, der.dim - 1))
        r, s = data.draw(st.integers(0, mod.mdim - 1)), data.draw(st.integers(0, mod.mdim - 1))
        bump = Mat.from_rows(
            [[data.draw(_ENTRY) if (i, j) == (r, s) else 0 for j in range(mod.mdim)] for i in range(mod.mdim)]
        )
        ops[mu] = ops[mu] + bump
        raw = [c0.ops[nu] + potential_operator(der, pot, nu) for nu in range(der.dim)]
        # a potential on the other summand's center layer breaks center linearity
        swapped = gauge_potential(der, p, [tuple(b.scale(q) for q in w[::-1]) for b, w in zip(blocks, weights)])
        nu = data.draw(st.integers(0, der.dim - 1))
        raw[nu] = raw[nu] + potential_operator(der, swapped, nu)
        for trial in (ops, raw):
            assert leibniz_defect(der, mod, trial) == ref_leibniz_defect(der, mod, trial)
            assert center_linearity_defect(der, mod, trial) == ref_center_linearity_defect(der, mod, trial)

        table = dict(cur.table)
        if table:
            key = sorted(table)[data.draw(st.integers(0, len(table) - 1))]
            table[key] = table[key] + bump
            bent = Curvature(der, mod, table)
            assert bent.endomorphism_defect() == ref_endomorphism_defect(bent)

        n = der.algebra.dim
        pairs = [
            ((data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))), data.draw(_ENTRY))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        assert inner_operator_on_module(mod, pairs) == ref_inner_operator(mod, pairs)
