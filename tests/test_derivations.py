"""Derivation algebras: solver, brackets, inner span, d4 and triality."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium import cli, derivations, linalg
from jordanium.algebra import (
    AlgebraPresentation,
    build_hermitian,
    build_real,
    build_spin,
    direct_sum,
)
from jordanium.derivations import (
    DerivationBasis,
    _leibniz_witnesses,
    annihilator_subalgebra,
    check_jacobi,
    check_center_stability,
    check_lie_rinehart,
    check_unit_annihilated,
    commutator_action_matrix,
    complete_triality,
    derivation_basis,
    derivation_from_triality,
    express_in_inner,
    inner_basis_operators,
    inner_operator,
    inner_span_report,
    is_block_diagonal_for_slots,
    leibniz_violation,
    octonion_slot_block,
    structure_constants,
    triality_defect,
)
from jordanium.linalg import (
    Mat,
    Triples,
    basis_vec,
    exact_int_matmul,
    max_abs_int,
    rank,
    scaled_int_mats,
    solve,
)

from cd_reference import commutator_action_reference, complete_triality_reference, triality_defect_reference
from mat_reference import ref_check_jacobi

fr = Fraction


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def random_so8(rng):
    rows = [[fr(0)] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            q = fr(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][j] = q
            rows[j][i] = -q
    return Mat.from_rows(rows)


class TestSolver:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: build_real(), 0),
            (lambda: build_hermitian(2, 0), 1),
            (lambda: build_hermitian(3, 0), 3),
            (lambda: build_hermitian(3, 1), 8),
            (lambda: build_hermitian(2, 2), 10),
            (lambda: build_spin(2), 1),
            (lambda: build_spin(3), 3),
            (lambda: build_spin(4), 6),
            (lambda: build_spin(5), 10),
        ],
    )
    def test_dims_match_classification(self, builder, expected):
        assert derivation_basis(builder()).dim == expected

    def test_direct_sum_dims_add(self):
        a = direct_sum(build_hermitian(3, 0), build_hermitian(2, 0))
        assert derivation_basis(a).dim == 3 + 1

    def test_basis_mats_are_derivations(self):
        a = build_hermitian(3, 1)
        der = derivation_basis(a)
        for x in der.mats:
            assert leibniz_violation(a, x) is None
        assert check_unit_annihilated(der)

    def test_coefficients_read_off_basis(self):
        der = derivation_basis(build_hermitian(3, 0))
        for k, x in enumerate(der.mats):
            assert der.coefficients_of(x) == basis_vec(der.dim, k)

    def test_element_coefficients_round_trip(self):
        der = derivation_basis(build_hermitian(3, 1))
        coeffs = tuple(fr(k - 3, 2) for k in range(der.dim))
        x = der.element(coeffs)
        assert leibniz_violation(der.algebra, x) is None
        assert der.coefficients_of(x) == coeffs


def dense_leibniz_system(a: AlgebraPresentation) -> np.ndarray:
    """The Leibniz system as a dense array, one block of n rows per pair
    i <= j, as the library built it before it built triples."""
    c, _ = a.int_tensor()
    if 3 * max_abs_int(c) >= 2**62:
        c = c.astype(object)
    n = a.dim
    lm = np.ascontiguousarray(c.transpose(0, 2, 1))  # lm[i][r][m] = c[i,m,r]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = np.zeros((len(pairs) * n, n * n), dtype=c.dtype)
    idx = np.arange(n)
    for t, (i, j) in enumerate(pairs):
        blk = rows[t * n : (t + 1) * n].reshape(n, n, n)
        blk[idx, idx] += c[i, j]
        blk[:, :, i] -= lm[j]
        blk[:, :, j] -= lm[i]
    return rows


def spin_with_form_entries(n: int, entry: int) -> AlgebraPresentation:
    """JSpin_n with e_i e_i = entry * 1 for the n non-unit basis elements."""
    structure = {(0, 0): [(0, Fraction(1))]}
    for i in range(1, n + 1):
        structure[(0, i)] = [(i, Fraction(1))]
        structure[(i, i)] = [(0, Fraction(entry))]
    return AlgebraPresentation("JSpin%d(%d)" % (n, entry), n + 1, (1,) + (0,) * n, structure)


_LEIBNIZ_CASES = {
    **{label: build for label, build in sorted(cli._ALIASES.items())},
    "jspin5_2**45": lambda: spin_with_form_entries(5, 2**45),  # object-dtype Gram
    "jspin3_2**61": lambda: spin_with_form_entries(3, 2**61),  # object-dtype triples
    "dim0": lambda: AlgebraPresentation("zero", 0, (), {}),
}


class TestLeibnizTriples:
    @pytest.mark.parametrize("label", list(_LEIBNIZ_CASES))
    def test_triples_match_dense_builder(self, label):
        a = _LEIBNIZ_CASES[label]()
        got = derivations._leibniz_system(a)
        want = dense_leibniz_system(a)
        assert isinstance(got, Triples) and got.shape == want.shape
        assert got.val.dtype == want.dtype
        r, c = np.nonzero(want)  # row-major order, as the triples are sorted
        assert np.array_equal(got.row, r) and np.array_equal(got.col, c)
        assert (got.val == want[r, c]).all()

    def test_large_entries_keep_their_derivations(self):
        # spin factors: so(n) acting on the non-unit span, whatever the form
        for n, entry in ((5, 2**45), (3, 2**61)):
            der = derivation_basis(spin_with_form_entries(n, entry))
            assert der.dim == n * (n - 1) // 2
            assert all(leibniz_violation(der.algebra, m) is None for m in der.mats)

    def test_albert_peak_memory_stays_sparse(self):
        # the dense 10,206 x 729 system and its float64 copy peaked at 127 MB
        a = build_hermitian(3, 3)
        tracemalloc.start()
        try:
            der = derivation_basis(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert der.dim == 52
        assert peak < 48 * 2**20


class TestBrackets:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_hermitian(3, 1),
            lambda: build_hermitian(2, 2),
            lambda: build_spin(4),
        ],
    )
    def test_closure_and_jacobi(self, builder):
        der = derivation_basis(builder())
        b = structure_constants(der)
        assert check_jacobi(b)
        zero = tuple(fr(0) for _ in range(der.dim))
        for i in range(der.dim):
            assert b[i][i] == zero
            for j in range(der.dim):
                assert b[i][j] == tuple(-v for v in b[j][i])

    def test_bracket_matches_matrix_commutator(self):
        der = derivation_basis(build_hermitian(3, 1))
        b = structure_constants(der)
        for i, j in [(0, 1), (2, 5), (3, 7)]:
            assert der.element(b[i][j]) == der.mats[i].commutator(der.mats[j])


class TestCenterInteraction:
    def test_simple_algebra_flags(self):
        der = derivation_basis(build_hermitian(3, 1))
        assert check_center_stability(der)
        flags = check_lie_rinehart(der)
        assert all(flags.values())

    def test_direct_sum_flags(self):
        a = direct_sum(build_hermitian(3, 0), build_spin(3))
        der = derivation_basis(a)
        assert der.dim == 6
        assert check_center_stability(der)
        assert all(check_lie_rinehart(der).values())

    def test_operator_moving_a_central_unit_out_of_the_center(self):
        # J1_3 + JSpin3: the center is spanned by the units e_0 + e_1 + e_2 and e_6
        a = direct_sum(build_hermitian(3, 0), build_spin(3))
        assert a.dim == 10 and a.unit == (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)

        def sends_e0(k, q):
            return Mat.from_rows([[q if (r, c) == (k, 0) else 0 for c in range(10)] for r in range(10)])

        # e_0 -> e_0 moves J1_3's unit to E_11; e_0 -> 2 e_6 moves it to twice the other unit
        out, into = sends_e0(0, 1), sends_e0(6, 2)
        assert not check_center_stability(DerivationBasis(a, (out,), (0,)))
        assert check_center_stability(DerivationBasis(a, (into,), (0,)))
        assert not check_center_stability(DerivationBasis(a, (into.scale(fr(1, 3)), out), (0, 1)))

    def test_bent_derivation_is_not_module_closed(self):
        # the unit is central and L_1 D_0 = D_0, which the bend at (1, 1) takes off the derivations
        der = derivation_basis(build_hermitian(3, 0))
        n = der.algebra.dim
        bend = Mat.from_rows([[int((r, c) == (1, 1)) for c in range(n)] for r in range(n)])
        bent = DerivationBasis(der.algebra, (der.mats[0] + bend,) + der.mats[1:], der.free_coords)
        assert check_lie_rinehart(der)["module_closed"] is True
        assert check_lie_rinehart(bent)["module_closed"] is False


class TestInnerDerivations:
    def test_inner_operators_are_derivations(self):
        a = build_hermitian(3, 0)
        for _, x in inner_basis_operators(a):
            assert leibniz_violation(a, x) is None

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_hermitian(3, 0),
            lambda: build_hermitian(2, 1),
            lambda: build_spin(3),
        ],
    )
    def test_inner_span_is_everything(self, builder):
        report = inner_span_report(builder())
        assert report["spans_derivations"]
        assert report["span_rank"] == report["derivation_dim"]

    def test_express_in_inner_round_trip(self):
        a = build_hermitian(3, 1)
        der = derivation_basis(a)
        x = der.element(tuple(fr(k + 1, 3) for k in range(der.dim)))
        pairs = express_in_inner(a, x)
        assert pairs is not None
        rebuilt = Mat.zeros(a.dim, a.dim)
        for (i, j), q in pairs:
            rebuilt = rebuilt + inner_operator(
                a, a.basis_element(i), a.basis_element(j)
            ).scale(q)
        assert rebuilt == x


class TestD4:
    def test_dimension_and_block_structure(self, albert_ctx):
        sub = annihilator_subalgebra(albert_ctx.der)
        assert len(sub) == 28
        for x in sub:
            assert is_block_diagonal_for_slots(x)
            b1 = octonion_slot_block(x, 0)
            assert b1.transpose() == -b1

    def test_blocks_form_triality_triples(self, albert_ctx):
        sub = annihilator_subalgebra(albert_ctx.der)
        for x in sub:
            b2, b3 = complete_triality(octonion_slot_block(x, 0))
            assert octonion_slot_block(x, 1) == b2
            assert octonion_slot_block(x, 2) == b3

    def test_closed_under_bracket(self, albert_ctx):
        sub = annihilator_subalgebra(albert_ctx.der)
        a = albert_ctx.algebra
        for i, j in [(0, 1), (5, 20), (13, 27)]:
            c = sub[i].commutator(sub[j])
            assert leibniz_violation(a, c) is None
            for idx in range(3):
                assert c.apply(basis_vec(27, idx)) == tuple(fr(0) for _ in range(27))

    def test_rejects_non_idempotent_indices(self):
        der = derivation_basis(build_spin(3))
        with pytest.raises(ValueError):
            annihilator_subalgebra(der, idempotent_indices=(1,))


class TestTriality:
    def test_completion_solves_the_relation(self, albert_ctx):
        rng = random.Random(20240817)
        for _ in range(5):
            d1 = random_so8(rng)
            d2, d3 = complete_triality(d1)
            assert triality_defect(d1, d2, d3) is None
            x = derivation_from_triality(d1)
            assert leibniz_violation(albert_ctx.algebra, x) is None
            for idx in range(3):
                assert x.apply(basis_vec(27, idx)) == tuple(fr(0) for _ in range(27))

    def test_completion_is_linear(self):
        rng = random.Random(7)
        d1, e1 = random_so8(rng), random_so8(rng)
        d2, d3 = complete_triality(d1)
        e2, e3 = complete_triality(e1)
        s2, s3 = complete_triality(d1.scale(fr(2, 3)) + e1.scale(fr(-5)))
        assert s2 == d2.scale(fr(2, 3)) + e2.scale(fr(-5))
        assert s3 == d3.scale(fr(2, 3)) + e3.scale(fr(-5))

    def test_defect_reports_first_failure(self):
        rng = random.Random(2)
        d1 = random_so8(rng)
        d2, d3 = complete_triality(d1)
        bumped = d2 + Mat.from_rows(
            [[fr(1) if (i, j) == (0, 1) else fr(0) for j in range(8)] for i in range(8)]
        )
        assert triality_defect(d1, bumped, d3) is not None


class TestExceptionalCompletion:
    def test_antihermitian_actions_extend_d4_to_f4(self, albert_ctx):
        a = albert_ctx.algebra
        sub = annihilator_subalgebra(albert_ctx.der)
        extras = []
        zero8 = tuple(fr(0) for _ in range(8))
        for slot in range(3):
            for k in range(8):
                params = [list(zero8) for _ in range(3)]
                params[slot][k] = fr(1)
                m = commutator_action_matrix(*params)
                assert leibniz_violation(a, m) is None
                extras.append(m)
        stacked = Mat.from_rows([x.flatten() for x in sub + extras])
        assert rank(stacked) == 52
        assert albert_ctx.der.dim == 52

    def test_action_moves_an_idempotent(self):
        # slot 0 fills the (1,2) position, so it commutes with E_00 but not E_11
        zero8 = tuple(fr(0) for _ in range(8))
        one_hot = [fr(0)] * 8
        one_hot[0] = fr(1)
        m = commutator_action_matrix(one_hot, zero8, zero8)
        assert m.apply(basis_vec(27, 0)) == tuple(fr(0) for _ in range(27))
        assert m.apply(basis_vec(27, 1)) != tuple(fr(0) for _ in range(27))


# ---------------------------------------------------------------------------
# the integer derivation layer against Fraction references


RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_algebras(draw):
    """Commutative algebras with unit e_0 and fractional structure constants.

    Half are spin factors with a random diagonal form, some of whose products
    are perturbed; the others are random, so most of them are not Jordan.
    Entries are scaled by 1, 2**31 or 2**62 to reach every dtype of the
    exact products: float64, int64 and object.
    """
    n = draw(st.integers(2, 5))
    spin = draw(st.booleans())
    big = draw(st.sampled_from([1, 2**31, 2**62]))
    structure = {(0, j): [(j, Fraction(1))] for j in range(n)}
    for i in range(1, n):
        for j in range(i, n):
            entries = {0: draw(RATIONAL)} if spin and i == j else {}
            if not spin or draw(st.integers(0, 5)) == 0:
                for k in range(n):
                    if draw(st.booleans()):
                        entries[k] = draw(RATIONAL)
            structure[(i, j)] = [(k, q * big) for k, q in entries.items()]
    return AlgebraPresentation("random", n, (1,) + (0,) * (n - 1), structure)


def random_operator(draw, n):
    return Mat.from_rows([[draw(RATIONAL) for _ in range(n)] for _ in range(n)])


def reference_leibniz(a, x):
    """First pair i <= j with x(e_i e_j) != x(e_i) e_j + e_i x(e_j), in Fractions."""
    for i in range(a.dim):
        ei = a.basis_element(i)
        for j in range(i, a.dim):
            ej = a.basis_element(j)
            rhs = vec_add(a.mul(x.apply(ei), ej), a.mul(ei, x.apply(ej)))
            if x.apply(a.mul(ei, ej)) != rhs:
                return (i, j)
    return None


def reference_brackets(der):
    """Coefficients of every [D_p, D_q], from Fraction commutators."""
    d = der.dim
    out = [[tuple(Fraction(0) for _ in range(d))] * d for _ in range(d)]
    for p in range(d):
        for q in range(p + 1, d):
            v = der.coefficients_of(der.mats[p].commutator(der.mats[q]))
            out[p][q] = v
            out[q][p] = tuple(-x for x in v)
    return out


def reference_expansions(a, xs):
    """express_in_inner of each x on Fraction commutators built by inner_operator."""
    ops = [
        ((i, j), inner_operator(a, a.basis_element(i), a.basis_element(j)))
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
    ]
    cols = [m.flatten() for _, m in ops]
    system = Mat.from_rows([[col[r] for col in cols] for r in range(len(cols[0]))])
    out = []
    for x in xs:
        sol = solve(system, x.flatten())
        out.append(None if sol is None else [(ops[t][0], q) for t, q in enumerate(sol) if q])
    return out


class TestIntegerLayer:
    @given(small_algebras())
    @settings(max_examples=40, deadline=None)
    def test_commutator_table_matches_inner_operator(self, a):
        expected = [
            ((i, j), inner_operator(a, a.basis_element(i), a.basis_element(j)))
            for i in range(a.dim)
            for j in range(i + 1, a.dim)
        ]
        assert inner_basis_operators(a) == expected

    @given(small_algebras(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batched_leibniz_matches_reference(self, a, data):
        n = a.dim
        ders = list(derivation_basis(a).mats)
        ops = [x for _, x in inner_basis_operators(a)] + ders
        ops += [random_operator(data.draw, n) for _ in range(data.draw(st.integers(0, 12)))]
        # bent off column 0, a derivation still kills the unit: its witness is past the pairs (0, j)
        for x in ders[: data.draw(st.integers(0, 3))]:
            ops.append(x + Mat.from_rows([[0] + [data.draw(RATIONAL) for _ in range(n - 1)] for _ in range(n)]))
        expected = [reference_leibniz(a, x) for x in ops]
        # scaled past 2**62, every nonzero entry is object dtype
        ops = [x.scale(data.draw(st.sampled_from([1, 2**64]))) for x in ops]
        assert [leibniz_violation(a, x) for x in ops] == expected
        (stack,), _ = scaled_int_mats(ops)
        for block in (linalg._JOIN_PAIRS, 1, 3):
            with mock.patch.object(linalg, "_JOIN_PAIRS", block):
                assert _leibniz_witnesses(a, stack) == expected

    @pytest.mark.parametrize("builder", [lambda: build_hermitian(3, 1), lambda: build_hermitian(3, 2)])
    def test_brackets_and_expansions_as_with_fraction_operators(self, builder):
        a = builder()
        der = derivation_basis(a)
        assert structure_constants(der) == reference_brackets(der)
        x = der.element(tuple(Fraction(k - 2, k + 1) for k in range(der.dim)))
        ys = (x, Mat.identity(a.dim))  # commutators are traceless: no expansion of 1
        assert [express_in_inner(a, y) for y in ys] == reference_expansions(a, ys)



OCTONION_SCALES = st.sampled_from([1, 2**31, 2**62, 2**62 + 1])


class TestOctonionIntegerRoutes:
    """The sign-tensor routes against the CD-object loops of cd_reference."""

    @given(st.lists(RATIONAL, min_size=24, max_size=24), OCTONION_SCALES)
    @settings(max_examples=30, deadline=None)
    def test_commutator_action_matches_cd_loop(self, coords, big):
        params = [[q * big for q in coords[8 * s : 8 * s + 8]] for s in range(3)]
        assert commutator_action_matrix(*params) == commutator_action_reference(*params)

    @given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 7), st.integers(0, 7), RATIONAL, OCTONION_SCALES)
    @settings(max_examples=15, deadline=None)
    def test_triality_defect_matches_cd_loop(self, seed, which, i, j, q, big):
        d1 = random_so8(random.Random(seed))
        ms = [d1, *complete_triality(d1)]
        assert triality_defect(*ms) is None
        assert triality_defect_reference(*ms) is None
        bump = Mat.from_rows([[q * big if (r, c) == (i, j) else fr(0) for c in range(8)] for r in range(8)])
        ms[which] = ms[which] + bump
        expected = triality_defect_reference(*ms)
        assert (expected is None) == (q == 0)
        assert triality_defect(*ms) == expected

    def test_large_parameters_take_exact_int_matmul(self, monkeypatch):
        seen = []

        def spy(a, b):
            seen.append(max_abs_int(a))
            return exact_int_matmul(a, b)

        monkeypatch.setattr(derivations, "exact_int_matmul", spy)
        params = [[fr(2**62 + 3 * s + k, 1 + k % 3) for k in range(8)] for s in range(3)]
        assert commutator_action_matrix(*params) == commutator_action_reference(*params)
        assert len(seen) == 1 and seen[0] >= 2**62

    def test_defect_rejects_non_8x8_input(self):
        with pytest.raises(ValueError):
            triality_defect(Mat.identity(7), Mat.identity(8), Mat.identity(8))
        with pytest.raises(ValueError):
            triality_defect(Mat.identity(8), Mat.identity(8), Mat.zeros(8, 9))

    def test_parameter_length_checked_first(self):
        zero8 = [fr(0)] * 8
        with pytest.raises(ValueError, match="8 coordinates"):
            commutator_action_matrix([fr(1)] * 7, zero8, zero8)
        with pytest.raises(ValueError, match="8 coordinates"):
            commutator_action_matrix(zero8, zero8, [fr(1)] * 9)


class TestTrialityMap:
    """The cached completion map against one solve_int per query."""

    @given(
        st.lists(st.integers(-(2**70), 2**70), min_size=28, max_size=28),
        st.lists(st.integers(1, 10**6), min_size=28, max_size=28),
    )
    @settings(max_examples=25, deadline=None)
    def test_map_matches_solve_int_route(self, nums, dens):
        rows = [[fr(0)] * 8 for _ in range(8)]
        for t, (i, j) in enumerate(zip(*np.triu_indices(8, 1))):
            rows[i][j] = fr(nums[t], dens[t])
            rows[j][i] = -rows[i][j]
        d1 = Mat.from_rows(rows)
        assert complete_triality(d1) == complete_triality_reference(d1)

    def test_seeded_inputs_match_solve_int_route(self):
        rng = random.Random(11)
        for _ in range(10):
            d1 = random_so8(rng)
            for m in (d1, d1.scale(2**70)):
                assert complete_triality(m) == complete_triality_reference(m)

    def test_rejects_malformed_input(self):
        for f in (complete_triality, complete_triality_reference):
            with pytest.raises(ValueError, match="expected an 8x8 matrix"):
                f(Mat.zeros(7, 7))
            with pytest.raises(ValueError, match="expected an 8x8 matrix"):
                f(Mat.zeros(8, 9))
            with pytest.raises(ValueError, match="needs an antisymmetric input"):
                f(Mat.identity(8))

    def test_wrong_map_raises_instead_of_returning(self, monkeypatch):
        system, completion, upper = derivations._triality_solver()
        ints = completion.ints.copy()
        ints[5, 0] += 1
        wrong = (system, Mat(ints, completion.den), upper)
        monkeypatch.setattr(derivations, "_triality_solver", lambda: wrong)
        d1 = Mat.from_rows([[fr((r, c) == (0, 1)) - fr((r, c) == (1, 0)) for c in range(8)] for r in range(8)])
        with pytest.raises(ValueError, match="no compatible completion exists"):
            complete_triality(d1)
        monkeypatch.undo()
        assert complete_triality(d1) == complete_triality_reference(d1)


@lru_cache(maxsize=None)
def lie_brackets(name):
    builders = {
        "so3": lambda: build_spin(3),
        "so4": lambda: build_spin(4),
        "su3": lambda: build_hermitian(3, 1),
    }
    return structure_constants(derivation_basis(builders[name]()))


@st.composite
def bracket_tables(draw):
    """(kind, b): a random antisymmetric table, the brackets of a real Lie
    algebra, or those brackets with one pair (p, q), (q, p) perturbed;
    scaled by 1, 2**31, 2**32, 2**62 or 2**62 + 1 to reach int64 and object
    dtype; at 2**32 and up an int64 Jacobi sum would wrap by 2**64."""
    kind = draw(st.sampled_from(["random", "lie", "bent"]))
    if kind == "random":
        d = draw(st.integers(0, 4))
        b = [[[fr(0)] * d for _ in range(d)] for _ in range(d)]
        for p in range(d):
            for q in range(p + 1, d):
                for e in range(d):
                    b[p][q][e] = draw(RATIONAL)
                    b[q][p][e] = -b[p][q][e]
    else:
        b = [[list(v) for v in row] for row in lie_brackets(draw(st.sampled_from(["so3", "so4", "su3"])))]
        if kind == "bent":
            d = len(b)
            p, q = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            e = draw(st.integers(0, d - 1))
            c = draw(RATIONAL.filter(bool))
            b[p][q][e] += c
            b[q][p][e] -= c
    big = draw(st.sampled_from([1, 2**31, 2**32, 2**62, 2**62 + 1]))
    return kind, [[tuple(x * big for x in v) for v in row] for row in b]


class TestJacobiJoin:
    """check_jacobi's join of the nonzero constants against the dense product."""

    @given(bracket_tables())
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_product(self, case):
        kind, b = case
        assert check_jacobi(b) == ref_check_jacobi(b)
        if kind == "lie":
            assert check_jacobi(b)

    @pytest.mark.parametrize("big", [1, 2**62])
    def test_perturbed_pair_fails(self, big):
        # so(3): [e_0, e_1] gains c e_0, so the Jacobi sum on (0, 1, 2) is c [e_0, e_2] != 0
        b = [[list(v) for v in row] for row in lie_brackets("so3")]
        b[0][1][0] += fr(1, 3)
        b[1][0][0] -= fr(1, 3)
        b = [[tuple(x * big for x in v) for v in row] for row in b]
        assert not ref_check_jacobi(b)
        assert not check_jacobi(b)

    def test_dimensions_zero_and_one(self):
        assert check_jacobi([]) and ref_check_jacobi([])
        assert check_jacobi([[(fr(0),)]])
        # not antisymmetric: t[0, 0, 0, 0] = x**2 three times over (3 * 2**64 wraps to 0 in int64)
        for x in (fr(5), fr(2**32), fr(2**62 + 1, 3)):
            assert check_jacobi([[(x,)]]) is ref_check_jacobi([[(x,)]]) is False

    def test_albert_peak_memory(self, albert_ctx):
        # the dense (52**2, 52**2) product peaked at 175 MB
        b = structure_constants(albert_ctx.der)
        tracemalloc.start()
        try:
            ok = check_jacobi(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 48 * 2**20


_UNDER_O = """
import json, sys
from fractions import Fraction
from jordanium.algebra import AlgebraPresentation, build_hermitian, build_spin, center_basis, check_jordan, direct_sum
from jordanium.connections import base_connection, curvature, curvature_report, gauge_potential, lie_hom_check, with_potential
from jordanium.derivations import check_lie_rinehart, derivation_basis, inner_span_report, structure_constants
from jordanium.linalg import Mat
from jordanium.modules import ModuleAction, build_antihermitian, build_free, check_module

j23 = build_hermitian(3, 1)
structure = {(0, 0): [(0, Fraction(1))]}
for i in range(1, 6):
    structure[(0, i)] = [(i, Fraction(1))]
    structure[(i, i)] = [(0, Fraction(2 * 10**7))]
big = AlgebraPresentation("JSpin5(big)", 6, (1, 0, 0, 0, 0, 0), structure)
structure45 = dict(structure)
for i in range(1, 6):
    structure45[(i, i)] = [(0, Fraction(2**45))]
big45 = AlgebraPresentation("JSpin5(2**45)", 6, (1, 0, 0, 0, 0, 0), structure45)
free13 = build_free(build_hermitian(3, 0), 1)
ops = list(free13.ops)
rows = [list(r) for r in ops[3].data]
rows[1][4] += Fraction(2, 3)
ops[3] = Mat.from_rows(rows)
bent = check_module(ModuleAction(free13.algebra, ops, "bent"))
table = {}
for i, j, k, q in build_hermitian(3, 2).structure_entries():
    if i <= j:
        table.setdefault((i, j), {})[k] = q
entries = table.setdefault((3, 4), {})
entries[5] = entries.get(5, 0) + Fraction(1, 3)
bad = check_jordan(AlgebraPresentation("J4_3(bad)", 15, (1,) * 3 + (0,) * 12, {ij: list(e.items()) for ij, e in table.items()}))
brackets = structure_constants(derivation_basis(j23))
js3 = derivation_basis(build_spin(3))
pot = gauge_potential(js3, 2, [Mat.from_rows([[Fraction(k - r, 1 + c) for c in range(2)] for r in range(2)]) for k in range(3)])
conn = with_potential(base_connection(js3, build_free(js3.algebra, 2)), pot)
modules = [build_free(js3.algebra, 2), build_free(j23, 1), build_antihermitian(3, 1)]
print(json.dumps({
    "optimize": sys.flags.optimize,
    "inner": inner_span_report(j23),
    "brackets": [[[str(q) for q in v] for v in row] for row in brackets],
    "lie_rinehart": check_lie_rinehart(derivation_basis(direct_sum(build_hermitian(3, 0), build_spin(3)))),
    "jordan": check_jordan(big).passed,
    "jordan_bad": [bad.witness_triple, [[str(q) for q in row] for row in bad.witness_operator.data]],
    "curvature": curvature_report(curvature(conn), full=True),
    "lie_hom": lie_hom_check(pot, js3),
    "modules": [check_module(m).passed for m in modules],
    "module_bad": [
        bent.passed,
        bent.operator_witness,
        bent.extension_verdict.witness_triple,
        [[str(q) for q in row] for row in bent.extension_verdict.witness_operator.data],
    ],
    "center_big45": [[str(q) for q in z] for z in center_basis(big45)],
}))
"""


def _run_checks(*flags):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _UNDER_O], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_same_results_under_python_O():
    plain, optimized = _run_checks(), _run_checks("-O")
    assert (plain.pop("optimize"), optimized.pop("optimize")) == (0, 1)
    assert optimized == plain
    assert plain["inner"]["spans_derivations"] and plain["jordan"]
    assert plain["jordan_bad"][0] is not None
    assert all(plain["lie_rinehart"].values())
    assert not plain["curvature"]["flat"] and not plain["lie_hom"]
    assert plain["modules"] == [True, True, True]
    assert plain["module_bad"][0] is False and None not in plain["module_bad"]
    assert plain["center_big45"] == [["1", "0", "0", "0", "0", "0"]]
