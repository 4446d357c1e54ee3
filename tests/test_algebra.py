"""Algebra presentations, classification constructors and the Jordan check."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium.algebra import (
    AlgebraPresentation,
    algebra_dumps,
    algebra_from_dict,
    algebra_loads,
    algebra_to_dict,
    build_hermitian,
    build_real,
    build_spin,
    center_basis,
    check_jordan,
    direct_sum,
    hermitian_basis,
    jordan_witness_operator,
    unit_check,
)
from jordanium import kernels
from jordanium.cayley_dickson import basis_products, sign_tensor
from jordanium.linalg import Mat

from algebra_reference import (
    TableAlgebra,
    reference_direct_sum,
    reference_split_null_extension,
    upper_structure,
)
from cd_reference import hermitian_reference

from jordan_reference import (
    dense_center_system,
    reference_jordan_violation,
    reference_witness_operator,
)

fr = Fraction

# hermitian (n, level) of the classification list in the acceptance tests
CLASSIFICATION = [(n, level) for level in range(3) for n in range(1, 5)] + [(3, 3)]


def herm_dim(n, level):
    return n + n * (n - 1) // 2 * 2**level


def sdict(entries):
    """Group flat (i, j, k, c) rows into the upper-triangular structure map."""
    table = {}
    for i, j, k, v in entries:
        if i <= j:
            table.setdefault((i, j), []).append((k, v))
    return table


class TestConstructors:
    def test_real_is_trivial(self):
        a = build_real()
        assert a.dim == 1
        assert a.mul((fr(3),), (fr(5),)) == (fr(15),)

    @pytest.mark.parametrize("n,level", [(2, 0), (3, 0), (2, 1), (3, 1), (4, 0), (2, 2), (3, 3)])
    def test_hermitian_dims(self, n, level):
        a = build_hermitian(n, level)
        assert a.dim == herm_dim(n, level)
        assert unit_check(a)

    def test_octonion_hermitian_needs_n_at_most_3(self):
        with pytest.raises(ValueError):
            build_hermitian(4, 3)
        # n = 2 over the octonions is still a Jordan algebra (a spin factor
        # in disguise), so the constructor accepts it
        a = build_hermitian(2, 3)
        assert a.dim == 10
        assert check_jordan(a).passed

    def test_spin_products(self):
        a = build_spin(4)
        assert a.dim == 5
        # u0 is the unit, u_i u_j = delta_ij u0
        for i in range(1, 5):
            ei = a.basis_element(i)
            assert a.mul(a.unit, ei) == ei
            for j in range(1, 5):
                got = a.basis_product(i, j)
                expect = a.basis_element(0) if i == j else a.zero()
                assert got == expect

    def test_symmetric_2x2_structure_frozen(self):
        a = build_hermitian(2, 0)
        entries = a.structure_entries()
        assert (0, 0, 0, fr(1)) in entries
        assert (0, 2, 2, fr(1, 2)) in entries
        assert (2, 2, 0, fr(1)) in entries
        assert (2, 2, 1, fr(1)) in entries
        assert len(entries) == 8

    def test_direct_sum_blocks(self):
        a = direct_sum(build_hermitian(2, 0), build_spin(3))
        assert a.dim == 3 + 4
        x = a.basis_element(0)
        y = a.basis_element(5)
        assert a.mul(x, y) == a.zero()
        assert unit_check(a)


class TestHermitianJoin:
    """build_hermitian's sign-tensor join against the CD-object loop, and
    its closure check."""

    @pytest.mark.parametrize("n,level", CLASSIFICATION + [(5, 0), (5, 1), (5, 2), (6, 1)])
    def test_matches_cd_reference(self, n, level):
        a, ref = build_hermitian(n, level), hermitian_reference(n, level)
        assert a.structure_entries() == ref.structure_entries()
        assert algebra_dumps(a) == algebra_dumps(ref)

    def test_every_flipped_product_sign_is_caught(self):
        # a flipped square eps_a eps_a = +1 still gives hermitian products;
        # any other flipped sign breaks hermiticity of some product
        o, basis = sign_tensor(3), hermitian_basis(3, 3)
        flips = [(a, b) for a in range(8) for b in range(8) if a != b]
        for a, b in flips:
            bent = o.copy()
            bent[a, b, a ^ b] *= -1
            with pytest.raises(AssertionError, match="leaves the span"):
                basis_products(basis, basis, basis, bent, 1)
        assert len(flips) == 56

    def test_basis_not_closed_is_caught(self):
        # without eps_1 at (1, 2) (basis matrix 4), the products of the
        # (1, 0) and (0, 2) entries still land there
        basis = np.delete(hermitian_basis(3, 2), 4, axis=0)
        with pytest.raises(AssertionError, match="leaves the span"):
            basis_products(basis, basis, basis, sign_tensor(2), 1)

    def test_overlapping_supports_are_caught(self):
        # an antisymmetric matrix on the support of the symmetric one: every
        # product lands on covered positions, but a coordinate read off the
        # shared first atom gives the wrong combination
        anti = np.zeros((1, 2, 2, 1), dtype=np.int64)
        anti[0, 0, 1, 0], anti[0, 1, 0, 0] = 1, -1
        basis = np.concatenate((hermitian_basis(2, 0), anti))
        with pytest.raises(AssertionError, match="leaves the span"):
            basis_products(basis, basis, basis, sign_tensor(0), 1)

    def test_closure_check_raises_under_python_O(self):
        script = (
            "import numpy as np\n"
            "from jordanium.algebra import hermitian_basis\n"
            "from jordanium.cayley_dickson import basis_products, sign_tensor\n"
            "o = sign_tensor(3).copy()\n"
            "o[1, 2, 3] *= -1\n"
            "cases = [(hermitian_basis(3, 3), o), (np.delete(hermitian_basis(3, 2), 4, axis=0), sign_tensor(2))]\n"
            "for basis, signs in cases:\n"
            "    try:\n"
            "        basis_products(basis, basis, basis, signs, 1)\n"
            "    except AssertionError:\n"
            "        print('raised')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised", "raised"]


class TestJordanCheck:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_hermitian(3, 0),
            lambda: build_hermitian(3, 1),
            lambda: build_hermitian(2, 2),
            lambda: build_spin(5),
            lambda: direct_sum(build_hermitian(2, 0), build_hermitian(2, 0)),
        ],
    )
    def test_constructed_algebras_pass(self, builder):
        v = check_jordan(builder())
        assert v.passed and v.witness_triple is None

    def test_corrupted_structure_is_caught(self):
        a = build_hermitian(3, 0)
        # perturb a product of two off-diagonal elements: the unit row only
        # sees diagonal products, so the presentation still constructs
        bad = []
        for i, j, k, v in a.structure_entries():
            if (i, j) == (3, 4):
                bad.append((i, j, k, v + fr(1, 3)))
            else:
                bad.append((i, j, k, v))
        b = AlgebraPresentation("broken", a.dim, a.unit, sdict(bad))
        verdict = check_jordan(b)
        assert not verdict.passed
        assert verdict.witness_triple is not None
        assert verdict.witness_operator is not None
        assert not verdict.witness_operator.is_zero()

    def test_spin_like_with_wrong_sign_fails(self):
        # u_i u_i = -u0 spoils positivity but not commutativity; the Jordan
        # identity survives, so this one must PASS (it is still a Jordan algebra)
        n = 3
        dim = n + 1
        structure = []
        for i in range(1, dim):
            structure.append((i, i, 0, fr(-1)))
            structure.append((0, i, i, fr(1)))
        structure.append((0, 0, 0, fr(1)))
        unit = tuple(fr(1) if i == 0 else fr(0) for i in range(dim))
        a = AlgebraPresentation("pseudo-spin", dim, unit, sdict(structure))
        assert check_jordan(a).passed

    def test_noncommutative_structure_rejected_at_init(self):
        with pytest.raises(ValueError):
            AlgebraPresentation(
                "bad",
                2,
                (fr(1), fr(0)),
                {
                    (0, 0): [(0, fr(1))],
                    (0, 1): [(1, fr(1))],
                    (1, 0): [(1, fr(2))],
                    (1, 1): [(0, fr(1))],
                },
            )


def _unit_failures(dim, unit, structure):
    """The j with unit e_j != e_j, entry by entry from a structure dict."""
    bad = []
    for j in range(dim):
        col = [Fraction(0)] * dim
        for i in range(dim):
            for k, q in structure.get((min(i, j), max(i, j)), []):
                col[k] += unit[i] * q
        if col != [Fraction(int(k == j)) for k in range(dim)]:
            bad.append(j)
    return bad


class TestUnitLaw:
    @given(st.sampled_from([build_spin(3), build_hermitian(2, 1), direct_sum(build_real(), build_spin(2))]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_first_failing_basis_vector_is_named(self, a, data):
        # a valid table with up to two upper-triangle entries dropped or rescaled
        structure = {}
        for i, j, k, q in a.structure_entries():
            if i <= j:
                structure.setdefault((i, j), []).append((k, q))
        for _ in range(data.draw(st.integers(0, 2))):
            ij = data.draw(st.sampled_from(sorted(structure)))
            factor = data.draw(st.sampled_from([0, 2, Fraction(1, 3)]))
            structure[ij] = [(k, factor * q) for k, q in structure[ij]]
        bad = _unit_failures(a.dim, a.unit, structure)
        if not bad:
            assert unit_check(AlgebraPresentation("t", a.dim, a.unit, structure))
        else:
            with pytest.raises(ValueError, match="unit law fails on basis vector %d$" % bad[0]):
                AlgebraPresentation("t", a.dim, a.unit, structure)


class TestCenter:
    @pytest.mark.parametrize(
        "builder,zdim",
        [
            (lambda: build_hermitian(3, 0), 1),
            (lambda: build_hermitian(3, 3), 1),
            (lambda: build_spin(4), 1),
            (lambda: direct_sum(build_hermitian(2, 0), build_hermitian(2, 0)), 2),
            (
                lambda: direct_sum(
                    direct_sum(build_hermitian(2, 0), build_spin(3)), build_real()
                ),
                3,
            ),
        ],
    )
    def test_center_dims(self, builder, zdim):
        a = builder()
        zs = center_basis(a)
        assert len(zs) == zdim
        for z in zs:
            lz = a.left_op(z)
            for i in range(a.dim):
                for j in range(a.dim):
                    xi, xj = a.basis_element(i), a.basis_element(j)
                    assert a.mul(a.mul(xi, z), xj) == a.mul(xi, a.mul(z, xj))

    def test_unit_spans_center_of_simple(self):
        a = build_hermitian(3, 1)
        (z,) = center_basis(a)
        q = next(v for v in z if v)
        assert tuple(x / q for x in z) == a.unit

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_hermitian(3, 0),
            lambda: build_hermitian(3, 1),
            lambda: build_hermitian(3, 3),
            lambda: build_spin(4),
            lambda: direct_sum(build_hermitian(2, 0), build_hermitian(2, 0)),
            lambda: direct_sum(direct_sum(build_hermitian(2, 0), build_spin(3)), build_real()),
            lambda: big_spin(5, [2**45] * 5),
        ],
    )
    def test_sparse_system_equals_dense_stack(self, builder):
        c, _ = builder().int_tensor()
        got, expected = kernels.center_system(c), dense_center_system(c)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape and (got == expected).all()

    def test_dimension_46_spin_factor_with_2_45_form(self):
        a = big_spin(45, [2**45] * 45)
        assert kernels.center_system(a.int_tensor()[0]).dtype == object
        assert center_basis(a) == [a.unit]


def big_spin(n, forms):
    """The spin factor on R + R^n whose form has the diagonal entries forms."""
    structure = {(0, 0): [(0, fr(1))]}
    for i, q in enumerate(forms, start=1):
        structure[(0, i)] = [(i, fr(1))]
        structure[(i, i)] = [(0, fr(q))]
    unit = (fr(1),) + (fr(0),) * n
    return AlgebraPresentation("JSpin%d(big)" % n, n + 1, unit, structure)


class TestIntTensor:
    """The kernels take the one exact tensor as it is, on any entry size."""

    @staticmethod
    def _spin(entry):
        """JSpin3 with form entries entry/3, entry, entry."""
        return big_spin(3, (fr(entry, 3), entry, entry))

    def test_small_entries_pass_the_cap(self):
        a = self._spin(5)
        c, s = a.int_tensor()
        assert c.dtype == "int64" and s == 3
        assert kernels.jordan_violation(c) is None

    @pytest.mark.parametrize("entry,dtype", [(2**45, "int64"), (2**63, "object")])
    def test_exact_tensor_past_the_cap(self, entry, dtype):
        a = self._spin(entry)
        c, s = a.int_tensor()
        assert c.dtype == dtype and s == 3
        assert (c[0, 0, 0], c[1, 1, 0], c[2, 2, 0]) == (3, entry, 3 * entry)
        assert a.int_tensor() is a.int_tensor()  # built once
        assert kernels.jordan_violation(c) is None
        assert len(center_basis(a)) == 1

    def test_jordan_bound_covers_all_six_products(self):
        # cmax = 2 * 10**7 and n = 6: 12 n**2 cmax**3 is past 2**63, so the
        # kernel sums in object dtype and decides without ExactOverflow
        a = big_spin(5, [2 * 10**7] * 5)
        assert kernels.jordan_violation(a.int_tensor()[0]) is None
        assert check_jordan(a).passed

    def test_kernels_reject_a_noncommutative_tensor(self):
        c = build_spin(2).int_tensor()[0].copy()
        c[1, 2, 0] = 1  # e_1 e_2 = e_0, but e_2 e_1 = 0
        with pytest.raises(ValueError, match="not commutative"):
            kernels.jordan_violation(c)
        with pytest.raises(ValueError, match="not commutative"):
            kernels.center_system(c)


RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
PERTURBABLE = [
    # (builder, index of the first basis element that is not diagonal)
    (lambda: build_hermitian(2, 0), 2),
    (lambda: build_hermitian(3, 0), 3),
    (lambda: build_hermitian(2, 1), 2),
    (lambda: build_hermitian(2, 2), 2),
    (lambda: build_hermitian(3, 1), 3),
    (lambda: build_spin(3), 1),
]


@st.composite
def jordan_candidates(draw):
    """Commutative unital algebras, most of them not Jordan, with every
    structure constant scaled by 1, 2**22, 2**31 + 1 or 2**62 + 1 (and the
    unit divided by it), so the kernel sums in int64 and in object dtype.
    At 2**22 every product of three entries is a multiple of 2**64: summed
    in int64, each would wrap to zero.

    Half are random tables on a unit e_0; the others are small hermitian
    algebras and spin factors with products of two off-diagonal elements
    perturbed, which keeps the unit law.
    """
    big = draw(st.sampled_from([1, 2**22, 2**31 + 1, 2**62 + 1]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        unit = (1,) + (0,) * (n - 1)
        table = {(0, j): {j: Fraction(1)} for j in range(n)}
        for i in range(1, n):
            for j in range(i, n):
                table[(i, j)] = {k: draw(RATIONAL) for k in range(n) if draw(st.booleans())}
    else:
        builder, first = draw(st.sampled_from(PERTURBABLE))
        base = builder()
        n, unit = base.dim, base.unit
        table = {}
        for i, j, k, q in base.structure_entries():
            if i <= j:
                table.setdefault((i, j), {})[k] = q
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(first, n - 1))
            j = draw(st.integers(i, n - 1))
            k = draw(st.integers(0, n - 1))
            entries = table.setdefault((i, j), {})
            entries[k] = entries.get(k, 0) + draw(RATIONAL)
    structure = {ij: [(k, q * big) for k, q in e.items()] for ij, e in table.items()}
    return AlgebraPresentation("candidate", n, [Fraction(x) / big for x in unit], structure)


class TestSparseKernel:
    """The sparse integer Jordan kernel against the Fraction triple loop."""

    @given(jordan_candidates(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_witness_and_operator_as_fraction_loop(self, a, data):
        expected = reference_jordan_violation(a)
        assert kernels.jordan_violation(a.int_tensor()[0]) == expected
        verdict = check_jordan(a)
        assert verdict.passed == (expected is None)
        assert verdict.witness_triple == expected
        if expected is not None:
            assert verdict.witness_operator == reference_witness_operator(a, *expected)
        i, j, k = (data.draw(st.integers(0, a.dim - 1)) for _ in range(3))
        assert jordan_witness_operator(a, i, j, k) == reference_witness_operator(a, i, j, k)

    @given(jordan_candidates())
    @settings(max_examples=60, deadline=None)
    def test_any_run_budget_keeps_the_witness(self, a):
        # budget 1: one l per run; 2**40: every l in one run
        expected = reference_jordan_violation(a)
        c = a.int_tensor()[0]
        for budget in (1, 2**40):
            with mock.patch.object(kernels, "_RUN_TERMS", budget):
                assert kernels.jordan_violation(c) == expected

    def test_sums_stay_apart_for_each_l(self):
        # J2_2 with e2 e2 = 0 and e3 e3 = e1 - e0: the witness operator of
        # (2, 3, 3) sends e_0 to e_2 / 2 and e_1 to -e_2 / 2, so one run
        # holding l = 0 and l = 1 must not add their values at e_2
        base = build_hermitian(2, 1)
        table = upper_structure(base.structure_entries())
        table[(2, 2)] = []
        table[(3, 3)] = [(0, Fraction(-1)), (1, Fraction(1))]
        a = AlgebraPresentation("bent", 4, base.unit, table)
        w = reference_witness_operator(a, 2, 3, 3)
        assert reference_jordan_violation(a) == (2, 3, 3)
        assert (w.ints[2, :2] != 0).all() and (w.ints.sum(axis=1) == 0).all()
        for budget in (1, kernels._RUN_TERMS, 2**40):
            with mock.patch.object(kernels, "_RUN_TERMS", budget):
                assert kernels.jordan_violation(a.int_tensor()[0]) == (2, 3, 3)

    def test_smallest_triple_in_a_later_run(self):
        # JSpin3 with e3 added to e1 e3: some triple fails on e_2, the
        # smallest one, (1, 1, 3), only from e_3 on
        base = build_spin(3)
        table = upper_structure(base.structure_entries())
        table[(1, 3)] = table.get((1, 3), []) + [(3, Fraction(1))]
        a = AlgebraPresentation("bent", 4, base.unit, table)

        def first_l(t):
            w = reference_witness_operator(a, *t)
            return min((l for l in range(4) if (w.ints[:, l] != 0).any()), default=None)

        firsts = [first_l((i, j, k)) for i in range(4) for j in range(i, 4) for k in range(j, 4)]
        assert reference_jordan_violation(a) == (1, 1, 3)
        assert first_l((1, 1, 3)) == 3 and min(f for f in firsts if f is not None) == 2
        for budget in (1, 2, kernels._RUN_TERMS, 2**40):
            with mock.patch.object(kernels, "_RUN_TERMS", budget):
                assert kernels.jordan_violation(a.int_tensor()[0]) == (1, 1, 3)


class TestSerialization:
    def test_round_trip_exact(self):
        a = build_hermitian(3, 1)
        b = algebra_loads(algebra_dumps(a))
        assert b == a

    def test_dump_is_deterministic(self):
        a = build_spin(6)
        assert algebra_dumps(a) == algebra_dumps(build_spin(6))

    def test_dict_shape(self):
        d = algebra_to_dict(build_hermitian(2, 0))
        assert set(d) == {"label", "dim", "unit", "structure"}
        assert d["dim"] == 3
        i, j, k, q = d["structure"][0]
        assert isinstance(q, str)

    def test_lower_triangular_entries_load(self):
        # the wire format carries both (i,j) and (j,i) rows; a file holding
        # only the lower-triangular orientation must load to the same algebra
        d = algebra_to_dict(build_hermitian(2, 0))
        lower = [row for row in d["structure"] if row[0] >= row[1]]
        assert len(lower) < len(d["structure"])
        d2 = dict(d, structure=lower)
        assert algebra_from_dict(d2) == algebra_from_dict(d)

    def test_conflicting_mirror_entries_rejected(self):
        d = algebra_to_dict(build_hermitian(2, 0))
        i, j, k, _ = next(r for r in d["structure"] if r[0] < r[1])
        d2 = dict(d, structure=d["structure"] + [[j, i, k, "7/1"]])
        with pytest.raises(ValueError):
            algebra_from_dict(d2)

    @pytest.mark.parametrize("first", [True, False])
    def test_mirror_entry_of_zero_rejected(self, first):
        d = algebra_to_dict(build_hermitian(2, 0))
        i, j, k, _ = next(r for r in d["structure"] if r[0] < r[1])
        rows = [r for r in d["structure"] if r[:2] != [j, i]]
        zero = [[j, i, k, "0"]]
        with pytest.raises(ValueError, match="not commutative"):
            algebra_from_dict(dict(d, structure=zero + rows if first else rows + zero))

    @given(st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_spin_round_trip(self, n):
        a = build_spin(n)
        assert algebra_loads(algebra_dumps(a)) == a


class TestRepeatedEntries:
    def test_pair_in_both_orders_compared_by_sums(self):
        # JSpin1 with e_0 e_1 given as 1/3 + 2/3 one way and as 1 the other,
        # and a cancelling pair that disappears
        a = AlgebraPresentation(
            "t",
            2,
            (1, 0),
            {
                (0, 0): [(0, 1)],
                (0, 1): [(1, fr(1, 3)), (1, fr(2, 3)), (0, 5), (0, -5)],
                (1, 0): [(1, 1)],
                (1, 1): [(0, 1)],
            },
        )
        assert a.structure_entries() == build_spin(1).structure_entries()


def _alias_algebras():
    from jordanium.cli import _ALIASES

    return sorted(_ALIASES.items())


class TestTensorInvariants:
    """int_tensor() is the stored tensor, read-only, in lowest terms, with
    the dtype, values and scale of clearing the Fraction table entry by
    entry (tests/algebra_reference.py)."""

    @staticmethod
    def _assert_as_table(a):
        c, s = a.int_tensor()
        ref = TableAlgebra(a.label, a.dim, a.unit, upper_structure(a.structure_entries()))
        expected, scale = ref.int_tensor()
        assert c.dtype == expected.dtype and s == scale
        assert c.shape == expected.shape and (c == expected).all()
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * 3] = 1
        assert a.int_tensor() is a.int_tensor()

    @pytest.mark.parametrize("name,builder", _alias_algebras())
    def test_every_cli_alias(self, name, builder):
        self._assert_as_table(builder())

    @pytest.mark.parametrize(
        "n,entry,dtype,scale",
        [(5, 2**45, "int64", 1), (3, 2**61, "int64", 1), (3, 2**62, "object", 1), (3, fr(2**61, 3), "int64", 3)],
    )
    def test_spin_factors_with_large_forms(self, n, entry, dtype, scale):
        a = big_spin(n, [entry] * n)
        c, s = a.int_tensor()
        assert c.dtype == dtype and s == scale
        assert c[1, 1, 0] == entry * scale
        self._assert_as_table(a)

    def test_dimension_zero(self):
        a = AlgebraPresentation("zero", 0, (), {})
        c, s = a.int_tensor()
        assert c.shape == (0, 0, 0) and c.dtype == "int64" and s == 1
        assert not c.flags.writeable
        assert a.structure_entries() == [] and a.unit_defect() is None

    def test_int_tensor_is_a_plain_method(self):
        # perfbench/tracer.py wraps the method found in the class body
        assert "int_tensor" in AlgebraPresentation.__dict__


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = SMALL.filter(bool)


@st.composite
def fraction_tables(draw):
    """(n, unit, table): dimension 0 to 5, the unit u e_0 with e_0 e_j =
    e_j / u, and sparse random constants {(i, j): {k: q}} for 1 <= i <= j,
    all scaled by 1, 2**31 + 1 or 2**62 + 1 (past int64 in the tensor)."""
    n = draw(st.integers(0, 5))
    big = draw(st.sampled_from([1, 2**31 + 1, 2**62 + 1]))
    u = draw(NONZERO)
    table = {(0, j): {j: 1 / u} for j in range(n)}
    for i in range(1, n):
        for j in range(i, n):
            if draw(st.booleans()):
                table[(i, j)] = {k: draw(SMALL) * big for k in range(n) if draw(st.booleans())}
    unit = tuple(u if i == 0 else fr(0) for i in range(n))
    return n, unit, table


FAULTS = ["range", "commute", "unit"]


def wire_structure(data, n, table, fault=None):
    """The constructor's dict input for a table: each pair given as (i, j),
    as (j, i) or both, coefficients split into repeats, zero entries and
    given-but-empty pairs added, and at most one fault."""
    structure = {}
    for (i, j), row in table.items():
        orders = [(i, j)] if i == j else data.draw(st.sampled_from([[(i, j)], [(j, i)], [(i, j), (j, i)]]))
        for ij in orders:
            entries = []
            for k, q in row.items():
                if data.draw(st.booleans()):
                    part = data.draw(SMALL)
                    entries += [(k, part), (k, q - part)]
                else:
                    entries.append((k, q))
            if data.draw(st.booleans()):
                entries.append((data.draw(st.integers(0, n + 1)), 0))
            structure[ij] = entries
    if fault == "range":
        if n and data.draw(st.booleans()):
            ij = data.draw(st.sampled_from(sorted(structure)))
            structure[ij] = structure[ij] + [(n + data.draw(st.integers(0, 2)), data.draw(NONZERO))]
        else:
            structure[(n, data.draw(st.integers(0, n)))] = []
    elif fault == "commute":
        both = [(i, j) for i, j in structure if i < j and (j, i) in structure]
        if both:
            i, j = data.draw(st.sampled_from(both))
            structure[(j, i)] = structure[(j, i)] + [(data.draw(st.integers(0, n - 1)), data.draw(NONZERO))]
    elif fault == "unit" and n:
        j = data.draw(st.integers(0, n - 1))
        extra = [(data.draw(st.integers(0, n - 1)), data.draw(NONZERO))]
        for ij in {(0, j), (j, 0)} & set(structure):
            structure[ij] = structure[ij] + extra
    return structure


def _built(cls, *args):
    try:
        return cls(*args), None
    except ValueError as e:
        return None, str(e)


class TestAgainstFractionTable:
    """The tensor presentation against the Fraction-table one it replaced."""

    @given(fraction_tables(), st.sampled_from([None] + FAULTS), st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_presentation_or_same_error(self, drawn, fault, data):
        n, unit, table = drawn
        structure = wire_structure(data, n, table, fault)
        a, err = _built(AlgebraPresentation, "t", n, unit, structure)
        ref, ref_err = _built(TableAlgebra, "t", n, unit, structure)
        assert err == ref_err
        if a is None:
            return
        assert a.unit_defect() is ref.unit_defect() is None
        assert a.structure_entries() == ref.structure_entries()
        for i in range(n):
            for j in range(n):
                assert a.basis_product(i, j) == ref.basis_product(i, j)
        vec = st.lists(SMALL, min_size=n, max_size=n).map(tuple)
        x, y = data.draw(vec), data.draw(vec)
        assert a.mul(x, y) == ref.mul(x, y)
        c, s = a.int_tensor()
        expected, scale = ref.int_tensor()
        assert c.dtype == expected.dtype and s == scale and (c == expected).all()
        # a second wiring of the same table, and a different table
        again = wire_structure(data, n, table)
        assert a == AlgebraPresentation("t", n, unit, again)
        n2, unit2, table2 = data.draw(fraction_tables())
        other = wire_structure(data, n2, table2)
        b, rb = AlgebraPresentation("t", n2, unit2, other), TableAlgebra("t", n2, unit2, other)
        assert (a == b) == (ref == rb)
        ab, rab = direct_sum(a, b), reference_direct_sum(ref, rb)
        assert (ab.label, ab.dim, ab.unit) == (rab.label, rab.dim, rab.unit)
        assert ab.structure_entries() == rab.structure_entries()
        self._assert_extension(a, ref, data)

    @staticmethod
    def _assert_extension(a, ref, data):
        from jordanium.modules import ModuleAction, build_free, split_null_extension

        mod = build_free(a, data.draw(st.integers(0, 2)))
        if mod.mdim and a.dim > 1:
            # a perturbed action of e_1, which keeps the unit acting as the identity
            ops = list(mod.ops)
            r, col = (data.draw(st.integers(0, mod.mdim - 1)) for _ in range(2))
            ops[1] = ops[1] + Mat.from_rows(
                [[data.draw(NONZERO) if (p, q) == (r, col) else 0 for q in range(mod.mdim)] for p in range(mod.mdim)]
            )
            mod = ModuleAction(a, ops, "perturbed")
        snx = split_null_extension(mod)
        rsnx = reference_split_null_extension(ref, mod.action_entries(), mod.mdim, mod.label)
        assert (snx.label, snx.dim, snx.unit) == (rsnx.label, rsnx.dim, rsnx.unit)
        assert snx.structure_entries() == rsnx.structure_entries()
