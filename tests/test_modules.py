"""Jordan modules: dual-oracle check, constructors, intertwiners, wire format."""

from fractions import Fraction
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium import kernels
from jordanium.algebra import (
    AlgebraPresentation,
    build_hermitian,
    build_real,
    build_spin,
    check_jordan,
    direct_sum,
)
from jordanium.linalg import Mat, basis_vec, commutators, exact_int_matmul
from jordanium.modules import (
    ModuleAction,
    ModuleHom,
    build_antihermitian,
    build_clifford,
    build_free,
    check_module,
    compose,
    hom_basis,
    hom_center_restriction,
    module_dumps,
    module_from_dict,
    module_loads,
    module_to_dict,
    split_null_extension,
)

from cd_reference import antihermitian_reference
from jordan_reference import full_join_jordan_violation, reference_jordan_violation

fr = Fraction


class TestDualOracle:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_free(build_hermitian(3, 0), 1),
            lambda: build_free(build_spin(3), 2),
            lambda: build_antihermitian(2, 1),
            lambda: build_clifford(2),
        ],
    )
    def test_genuine_modules_pass_both(self, make):
        verdict = check_module(make())
        assert verdict.passed
        assert verdict.extension_verdict.passed
        assert verdict.operator_witness is None
        assert verdict.oracles_agree

    def test_perturbed_action_fails_both(self):
        good = build_free(build_spin(3), 1)
        ops = list(good.ops)
        rows = [list(r) for r in ops[1].data]
        rows[0][0] += fr(1, 5)
        ops[1] = Mat.from_rows(rows)
        bad = ModuleAction(good.algebra, ops, "bent")
        verdict = check_module(bad)
        assert not verdict.passed
        assert verdict.operator_witness is not None
        assert not verdict.extension_verdict.passed
        assert verdict.oracles_agree

    def test_failing_module_runs_the_jordan_kernel_once(self, monkeypatch):
        good = build_free(build_hermitian(3, 0), 1)
        ops = list(good.ops)
        rows = [list(r) for r in ops[3].data]
        rows[1][4] += fr(2, 3)
        ops[3] = Mat.from_rows(rows)
        bad = ModuleAction(good.algebra, ops, "bent")
        expected = check_jordan(split_null_extension(bad))
        calls = []
        real = kernels.jordan_violation
        monkeypatch.setattr(kernels, "jordan_violation", lambda c: calls.append(c) or real(c))
        verdict = check_module(bad)
        assert len(calls) == 1
        assert not expected.passed and verdict.extension_verdict == expected

    def test_unit_must_act_as_identity(self):
        a = build_spin(3)
        ops = [Mat.zeros(4, 4)] + [Mat.zeros(4, 4) for _ in range(3)]
        with pytest.raises(ValueError):
            ModuleAction(a, ops, "dead unit")

    def test_operator_count_checked(self):
        a = build_spin(3)
        with pytest.raises(ValueError):
            ModuleAction(a, [Mat.identity(2)], "short")


def reference_module_identity_violation(c, a) -> Optional[tuple[int, int, int]]:
    """The dense route: per k, exact_int_matmul products of the stacked
    commutators g[p] = [A_i, A_j] (pairs i < j) and of the associators
    assoc[i, k, j] = (e_i e_k) e_j - e_i (e_k e_j), compared as
    g A_k + assoc . A against A_k g."""
    n = c.shape[0]
    m = a.shape[1]
    if n < 2:
        return None
    t1 = exact_int_matmul(c.reshape(n * n, n), c.reshape(n, n * n)).reshape(n, n, n, n)
    # t1[i, k, j, r] = sum_m c[i,k,m] c[m,j,r]
    c_i_mr = np.ascontiguousarray(c.transpose(1, 0, 2)).reshape(n, n * n)
    t2 = exact_int_matmul(c.reshape(n * n, n), c_i_mr).reshape(n, n, n, n)
    # t2[k, j, i, r] = sum_m c[k,j,m] c[i,m,r]
    assoc = t1 - t2.transpose(2, 0, 1, 3)
    ii, jj = np.triu_indices(n, 1)
    g = commutators(a)[ii, jj]
    npairs = len(ii)
    g_rows = g.reshape(npairs * m, m)
    g_cols = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(m, npairs * m)
    a_flat = a.reshape(n, m * m)
    best = None
    for k in range(n):
        lhs = exact_int_matmul(g_rows, a[k]).reshape(npairs, m, m)
        lhs = lhs + exact_int_matmul(assoc[ii, k, jj], a_flat).reshape(npairs, m, m)
        rhs = exact_int_matmul(a[k], g_cols).reshape(m, npairs, m).transpose(1, 0, 2)
        hits = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
        if hits.size:
            t = (int(ii[hits[0]]), int(jj[hits[0]]), k)
            if best is None or t < best:
                best = t
    return best


def dense_module_value(c, a, i, j, k) -> np.ndarray:
    """[[A_i, A_j], A_k] + A((e_i e_k) e_j - e_i (e_k e_j)) in object dtype."""
    c, a = c.astype(object), a.astype(object)
    assoc = c[i, k] @ c[:, j] - c[k, j] @ c[i]
    g = a[i] @ a[j] - a[j] @ a[i]
    return g @ a[k] - a[k] @ g + np.tensordot(assoc, a, axes=(0, 0))


def zero_module(a):
    return ModuleAction(a, [Mat.zeros(0, 0)] * a.dim, "zero(%s)" % a.label)


MODULES = [
    lambda: build_free(build_hermitian(2, 0), 1),
    lambda: build_free(build_hermitian(3, 0), 1),
    lambda: build_free(build_hermitian(2, 1), 1),
    lambda: build_free(build_spin(2), 2),
    lambda: build_antihermitian(2, 1),
    lambda: build_antihermitian(3, 0),
    lambda: build_antihermitian(2, 2),
    lambda: build_clifford(2),
    lambda: build_clifford(3),
    # n = 1 and mdim = 0
    lambda: build_free(build_real(), 2),
    lambda: zero_module(build_spin(2)),
    lambda: zero_module(build_hermitian(2, 0)),
]
# denominators up to 5, so the action and the algebra (halves in the
# hermitian algebras) clear with different scales
RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@st.composite
def module_candidates(draw):
    """Free, antihermitian and Clifford modules, most of them perturbed in
    operators of basis elements off the unit (which keeps the unit acting
    as the identity), with the structure constants and the action scaled by
    1, 2**22, 2**31 + 1 or 2**62 + 1 (the unit divided by it), so the
    kernels sum in int64 and in object dtype."""
    mod = draw(st.sampled_from(MODULES))()
    a, m = mod.algebra, mod.mdim
    grids = [[list(row) for row in op.data] for op in mod.ops]
    free = [i for i in range(a.dim) if a.unit[i] == 0]
    if m and free:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.sampled_from(free))
            r, col = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            grids[i][r][col] += draw(RATIONAL)
    big = draw(st.sampled_from([1, 2**22, 2**31 + 1, 2**62 + 1]))
    structure = {}
    for i, j, k, q in a.structure_entries():
        if i <= j:
            structure.setdefault((i, j), []).append((k, q * big))
    scaled = AlgebraPresentation(a.label, a.dim, [x / big for x in a.unit], structure)
    ops = [Mat.from_rows([[v * big for v in row] for row in g]) for g in grids]
    return ModuleAction(scaled, ops, mod.label)


class TestSparseModuleKernel:
    """The sparse module-identity kernel against the dense reference, and
    check_module against the presentation route of both oracles."""

    @given(module_candidates())
    @settings(max_examples=60, deadline=None)
    def test_same_verdict_as_dense_and_presentation_routes(self, mod):
        snx = split_null_extension(mod)
        n = mod.algebra.dim
        t, _ = snx.int_tensor()
        c, a = t[:n, :n, :n], t[:n, n:, n:].transpose(0, 2, 1)
        expected = reference_module_identity_violation(c, a)
        assert kernels.module_identity_violation(c, a) == expected
        ext = check_jordan(snx)
        verdict = check_module(mod)
        assert verdict.operator_witness == expected
        assert verdict.extension_verdict.passed == ext.passed
        assert verdict.extension_verdict.witness_triple == ext.witness_triple
        assert verdict.extension_verdict.witness_operator == ext.witness_operator
        assert verdict.passed == (ext.passed and expected is None)
        assert verdict.oracles_agree == (ext.passed == (expected is None))

    @given(module_candidates())
    @settings(max_examples=40, deadline=None)
    def test_any_run_budget_keeps_the_witnesses(self, mod):
        # budget 1: one l (or k) per run; 2**40: every l (or k) in one run
        snx = split_null_extension(mod)
        n = mod.algebra.dim
        t, _ = snx.int_tensor()
        c, a = t[:n, :n, :n], t[:n, n:, n:].transpose(0, 2, 1)
        expected = reference_module_identity_violation(c, a)
        ext = reference_jordan_violation(snx) if snx.dim <= 7 else None
        for budget in (1, 2**40):
            with mock.patch.object(kernels, "_RUN_TERMS", budget):
                assert kernels.module_identity_violation(c, a) == expected
                if snx.dim <= 7:  # the Fraction loop takes about 1 s at dimension 8
                    assert kernels.jordan_violation(t) == ext

    def test_smallest_pair_in_a_later_run(self):
        # free JSpin3 with one entry of A_1 bent: the pair (1, 3) fails at
        # k = 1, the smallest pair, (1, 2), only at k = 3
        good = build_free(build_spin(3), 1)
        ops = list(good.ops)
        rows = [list(r) for r in ops[1].data]
        rows[0][3] += 1
        ops[1] = Mat.from_rows(rows)
        mod = ModuleAction(good.algebra, ops, "bent")
        t, _ = split_null_extension(mod).int_tensor()
        c, a = t[:4, :4, :4], t[:4, 4:, 4:].transpose(0, 2, 1)
        hits = [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(4) if dense_module_value(c, a, i, j, k).any()]
        assert min(hits) == (1, 2, 3) and min(k for _, _, k in hits) == 1
        assert reference_module_identity_violation(c, a) == (1, 2, 3)
        for budget in (1, 2, kernels._RUN_TERMS, 2**40):
            with mock.patch.object(kernels, "_RUN_TERMS", budget):
                assert kernels.module_identity_violation(c, a) == (1, 2, 3)

    def test_different_denominators_in_algebra_and_action(self):
        # halves in the algebra, a third in the action: scales 2 and 6
        good = build_free(build_hermitian(2, 0), 1)
        assert good.algebra.int_tensor()[1] == 2
        ops = list(good.ops)
        rows = [list(r) for r in ops[2].data]
        rows[0][1] += fr(1, 3)
        ops[2] = Mat.from_rows(rows)
        bad = ModuleAction(good.algebra, ops, "third")
        assert bad.int_tensor()[1] == 6
        verdict = check_module(bad)
        snx = split_null_extension(bad)
        assert not verdict.passed and verdict.oracles_agree
        assert verdict.extension_verdict == check_jordan(snx)
        t, _ = snx.int_tensor()
        n = bad.algebra.dim
        c, a = t[:n, :n, :n], t[:n, n:, n:].transpose(0, 2, 1)
        assert verdict.operator_witness == reference_module_identity_violation(c, a)
        assert verdict.operator_witness is not None

    def test_extension_tensor_is_the_presentations(self, monkeypatch):
        # the tensor oracle one reads is the split null extension's own
        seen = []
        real = kernels.jordan_violation
        monkeypatch.setattr(kernels, "jordan_violation", lambda c: seen.append(c) or real(c))
        ops = list(build_clifford(2).ops)
        ops[1] = ops[1].scale(fr(1, 3))  # action scale 3, algebra scale 1
        mod = ModuleAction(build_spin(2), ops, "thirds")
        check_module(mod)
        expected, _ = split_null_extension(mod).int_tensor()
        assert seen[0].shape == expected.shape and (seen[0] == expected).all()

    @pytest.mark.parametrize("mod", [zero_module(build_spin(3)), build_free(build_real(), 3)])
    def test_degenerate_modules_pass(self, mod):
        verdict = check_module(mod)
        assert verdict.passed and verdict.oracles_agree


class TestHalfJoinKernel:
    """The Jordan kernel, which joins the pairs i <= j only, against the full
    join it replaced and, on small extensions, the Fraction triple loop."""

    @given(module_candidates())
    @settings(max_examples=60, deadline=None)
    def test_same_witness_on_split_null_extensions(self, mod):
        snx = split_null_extension(mod)
        t, _ = snx.int_tensor()
        expected = full_join_jordan_violation(t)
        assert kernels.jordan_violation(t) == expected
        if snx.dim <= 7:  # the Fraction loop takes about 1 s at dimension 8
            assert reference_jordan_violation(snx) == expected


class TestSplitNullExtension:
    def test_dims_and_unit(self):
        mod = build_antihermitian(3, 1)
        snx = split_null_extension(mod)
        assert snx.dim == 9 + 9
        assert snx.label == "snx(J2_3,A2_3)"
        assert check_jordan(snx).passed

    def test_module_part_squares_to_zero(self):
        mod = build_antihermitian(2, 1)
        snx = split_null_extension(mod)
        n = mod.algebra.dim
        for alpha in range(mod.mdim):
            for beta in range(mod.mdim):
                prod = snx.basis_product(n + alpha, n + beta)
                assert all(v == 0 for v in prod)

    def test_free_rank_one_mirrors_left_multiplication(self):
        a = build_spin(3)
        snx = split_null_extension(build_free(a, 1))
        n = a.dim
        for i in range(n):
            for j in range(n):
                prod = snx.basis_product(i, n + j)
                assert prod[:n] == a.zero()
                assert prod[n:] == a.basis_product(i, j)


class TestConstructors:
    @pytest.mark.parametrize(
        "n,level,expected",
        [(2, 0, 1), (3, 0, 3), (2, 1, 4), (3, 1, 9), (2, 2, 10), (3, 2, 21)],
    )
    def test_antihermitian_dims(self, n, level, expected):
        mod = build_antihermitian(n, level)
        assert mod.mdim == expected
        assert mod.algebra.label == "J%d_%d" % (2**level, n)

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antihermitian_matches_cd_loop(self, n, level):
        assert build_antihermitian(n, level).ops == tuple(antihermitian_reference(n, level))

    def test_antihermitian_rejects_octonions(self):
        with pytest.raises(ValueError):
            build_antihermitian(3, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_clifford_dims(self, n):
        mod = build_clifford(n)
        assert mod.mdim == 2**n
        assert mod.algebra.dim == n + 1

    def test_clifford_generator_matrices_frozen(self):
        # blade order 1, e1, e2, e12; generators swap blades with unit weight
        mod = build_clifford(2)
        assert mod.ops[1] == Mat.from_rows(
            [
                [fr(0), fr(1), fr(0), fr(0)],
                [fr(1), fr(0), fr(0), fr(0)],
                [fr(0), fr(0), fr(0), fr(0)],
                [fr(0), fr(0), fr(0), fr(0)],
            ]
        )
        assert mod.ops[2] == Mat.from_rows(
            [
                [fr(0), fr(0), fr(1), fr(0)],
                [fr(0), fr(0), fr(0), fr(0)],
                [fr(1), fr(0), fr(0), fr(0)],
                [fr(0), fr(0), fr(0), fr(0)],
            ]
        )

    def test_clifford_scalar_acts_as_identity(self):
        mod = build_clifford(3)
        assert mod.ops[0] == Mat.identity(8)
        assert check_module(mod).passed

    def test_clifford_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_clifford(0)
        with pytest.raises(ValueError):
            build_clifford(9)

    def test_free_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            build_free(build_spin(2), -1)

    def test_free_action_is_blockwise_left_multiplication(self):
        a = build_hermitian(2, 0)
        mod = build_free(a, 2)
        n = a.dim
        for i in range(n):
            for j in range(n):
                got = mod.act(a.basis_element(i), basis_vec(2 * n, n + j))
                assert got[:n] == a.zero()
                assert got[n:] == a.basis_product(i, j)


class TestHoms:
    def test_dimension_free_over_simple(self):
        a = build_hermitian(3, 0)
        homs = hom_basis(build_free(a, 2), build_free(a, 3))
        assert len(homs) == 6

    def test_dimension_scales_with_center(self):
        a = direct_sum(build_hermitian(2, 0), build_hermitian(2, 0))
        homs = hom_basis(build_free(a, 1), build_free(a, 2))
        assert len(homs) == 4

    def test_identity_and_composition(self):
        mod = build_free(build_spin(3), 2)
        ident = ModuleHom(mod, mod, Mat.identity(mod.mdim))
        assert ident.intertwining_defect() is None
        homs = hom_basis(mod, mod)
        f, g = homs[0], homs[-1]
        fg = compose(f, g)
        assert fg.source is mod and fg.target is mod
        assert fg.intertwining_defect() is None

    def test_composition_needs_matching_middle(self):
        a = build_spin(3)
        f = ModuleHom(build_free(a, 1), build_free(a, 1), Mat.identity(a.dim))
        g = ModuleHom(build_free(a, 2), build_free(a, 2), Mat.identity(2 * a.dim))
        with pytest.raises(ValueError):
            compose(f, g)

    def test_non_intertwiner_has_defect(self):
        mod = build_free(build_spin(3), 1)
        rows = [[fr(0)] * 4 for _ in range(4)]
        rows[0][1] = fr(1)
        bad = ModuleHom(mod, mod, Mat.from_rows(rows))
        assert bad.intertwining_defect() is not None

    def test_center_restriction_reconstructs_blocks(self):
        a = build_hermitian(3, 0)
        m1, m2 = build_free(a, 2), build_free(a, 2)
        for hom in hom_basis(m1, m2):
            grid = hom_center_restriction(hom)
            assert grid is not None
            n = a.dim
            for r, row in enumerate(grid):
                for c, z in enumerate(row):
                    block = Mat.from_rows(
                        [
                            [hom.matrix[(r * n + s, c * n + t)] for t in range(n)]
                            for s in range(n)
                        ]
                    )
                    lz = Mat.zeros(n, n)
                    for k, coeff in enumerate(z):
                        if coeff:
                            lz = lz + a.left_mult_basis(k).scale(coeff)
                    assert block == lz

    def test_center_restriction_needs_free_shapes(self):
        mod = build_antihermitian(3, 0)  # carrier dim 3 over a 6-dim algebra
        hom = hom_basis(mod, mod)[0]
        with pytest.raises(ValueError):
            hom_center_restriction(hom)

    def test_center_restriction_refuses_noncentral_blocks(self):
        a = build_hermitian(2, 0)
        mod = build_free(a, 1)
        fake = ModuleHom(mod, mod, a.left_op(a.basis_element(2)))
        assert hom_center_restriction(fake) is None


class TestWireFormat:
    def test_round_trip_inline(self):
        mod = build_antihermitian(2, 1)
        again = module_loads(module_dumps(mod))
        assert again == mod

    def test_round_trip_by_label(self):
        mod = build_clifford(2)
        d = module_to_dict(mod, inline_algebra=False)
        assert d["algebra"] == "JSpin2"
        again = module_from_dict(d, algebra_lookup=lambda s: build_spin(2))
        assert again == mod

    def test_label_without_lookup_fails(self):
        d = module_to_dict(build_clifford(1), inline_algebra=False)
        with pytest.raises(ValueError):
            module_from_dict(d)
