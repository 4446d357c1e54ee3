"""The benchmark's checkers must reject wrong answers.

    PYTHONPATH=src:perfbench python3 -m pytest perfbench/tests -q

Each test feeds a checker a deliberately wrong output (a flipped verdict,
a dimension off by one, a non-intertwining matrix, a witness that
evaluates to zero, ...) and expects a complaint, next to the right output
that must pass.
"""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import exact as X
import run as R
import workloads as W
from jordanium import algebra as A
from jordanium import connections as C
from jordanium import derivations as D
from jordanium import modules as M
from jordanium.linalg import Mat


@pytest.fixture(scope="module")
def j13():
    return A.build_hermitian(3, 0)


@pytest.fixture(scope="module")
def js3_der():
    return D.derivation_basis(A.build_spin(3))


def test_flipped_jordan_verdict(j13):
    check = W.jordan_verdict(True)
    assert check(A.check_jordan(j13)) == []
    assert check(A.JordanVerdict(False, (0, 0, 0))) != []


def test_flipped_module_verdict(j13):
    good = M.check_module(M.build_free(j13, 1))
    assert W.module_passes(good) == []
    bad = M.ModuleVerdict(False, good.extension_verdict, (0, 1, 2))
    assert W.module_passes(bad) != []


def test_witness_that_evaluates_to_zero(j13):
    bad = W.perturb_algebra(j13, random.Random(4))
    c, s = X.structure_tensor(bad.structure_entries(), bad.dim)
    verdict = A.check_jordan(bad)
    assert W.jordan_witness_problems(c, s, verdict, minimal=True) == []
    # the unit's triple is never a violation
    zero = A.JordanVerdict(False, (0, 0, 0))
    assert "evaluates to zero" in W.jordan_witness_problems(c, s, zero, minimal=False)[0]


def test_witness_that_is_not_the_smallest(j13):
    bad = W.perturb_algebra(j13, random.Random(4))
    c, s = X.structure_tensor(bad.structure_entries(), bad.dim)
    first = X.smallest_jordan_violation(c)
    n = bad.dim
    later = next(
        (i, j, k)
        for i in range(n)
        for j in range(i, n)
        for k in range(j, n)
        if (i, j, k) > first and (X.jordan_value(c, i, j, k) != 0).any()
    )
    problems = W.jordan_witness_problems(c, s, A.JordanVerdict(False, later), minimal=True)
    assert problems and "not the smallest" in problems[0]


def test_wrong_witness_operator(j13):
    bad = W.perturb_algebra(j13, random.Random(4))
    c, s = X.structure_tensor(bad.structure_entries(), bad.dim)
    v = A.check_jordan(bad)
    doubled = A.JordanVerdict(False, v.witness_triple, v.witness_operator.scale(2))
    assert "differs" in W.jordan_witness_problems(c, s, doubled, minimal=False)[0]


def test_module_operator_witness_that_evaluates_to_zero(j13):
    bad = W.perturb_module(M.build_free(j13, 1), random.Random(2))
    v = M.check_module(bad)
    assert W.module_verdict_problems(bad, v, minimal=True) == []
    zero = M.ModuleVerdict(False, v.extension_verdict, (0, 1, 0))
    _, c, act, _ = W.own_snx_tensors(bad)
    assert not (X.module_value(c, act, 0, 1, 0) != 0).any()
    assert "evaluates to zero" in W.module_verdict_problems(bad, zero, minimal=False)[0]


def test_derivation_dimension_off_by_one(j13):
    der = D.derivation_basis(j13)
    c = W.own_tensor(j13)
    assert W.derivation_problems(c, der.mats, 3) == []
    assert W.derivation_problems(c, der.mats, 4) != []
    assert W.derivation_problems(c, der.mats[:-1], 3) != []


def test_non_derivation_and_dependent_basis(j13):
    der = D.derivation_basis(j13)
    c = W.own_tensor(j13)
    ident = Mat.identity(j13.dim)
    assert "Leibniz" in W.derivation_problems(c, der.mats[:-1] + (ident,), 3)[0]
    twice = der.mats[:-1] + (der.mats[0].scale(2),)
    assert "rank" in W.derivation_problems(c, twice, 3)[0]


def test_classical_dimensions():
    assert W.classical_der_dim("herm", 3, 3) == 52
    assert W.classical_der_dim("herm", 3, 2) == 21
    assert W.classical_der_dim("herm", 3, 1) == 8
    assert W.classical_der_dim("herm", 4, 1) == 15
    assert W.classical_der_dim("herm", 2, 2) == 10
    assert W.classical_der_dim("spin", 9) == 36


def test_wrong_structure_constants(js3_der):
    b = D.structure_constants(js3_der)
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert W.bracket_sample_problems(js3_der, b, pairs) == []
    wrong = [[list(v) for v in row] for row in b]
    wrong[0][1][2] += 1
    assert W.bracket_sample_problems(js3_der, wrong, pairs) != []


def test_span_report_with_a_wrong_rank():
    good = {"pairs": 120, "all_derivations": True, "span_rank": 15, "derivation_dim": 15, "spans_derivations": True}
    assert W.span_problems(good, 16, 15) == []
    assert W.span_problems(dict(good, span_rank=14), 16, 15) != []


def test_non_intertwining_matrix(j13):
    f1, f2 = M.build_free(j13, 1), M.build_free(j13, 2)
    homs = M.hom_basis(f1, f2)
    assert W.hom_problems(homs, f1, f2, 2) == []
    assert W.hom_problems(homs, f1, f2, 3) != []
    h = homs[0]
    rows = [list(r) for r in h.matrix.data]
    rows[0][1] += 1
    fake = SimpleNamespace(matrix=Mat.from_rows(rows))
    assert "intertwine" in W.hom_problems([fake, homs[1]], f1, f2, 2)[0]


def test_lie_morphism_evaluation(js3_der):
    b = W.own_brackets(js3_der)
    assert X.lie_morphism(W.adjoint_blocks(b), b)
    assert X.lie_morphism(W.conjugated_adjoint(b, random.Random(1)), b)
    diag = [X.fraction_array([[v]]) for v in (1, 2, 3)]
    assert not X.lie_morphism(diag, b)


def test_flatness_claim_against_curvature(js3_der):
    a = js3_der.algebra
    flat = C.curvature(C.base_connection(js3_der, M.build_free(a, 1)))
    assert W.flat_problems(flat, True) == []
    assert W.flat_problems(flat, False) != []
    scal = C.gauge_potential(js3_der, 1, [Mat.from_rows([[v]]) for v in (1, 2, 3)])
    curved = C.curvature(C.with_potential(C.base_connection(js3_der, M.build_free(a, 1)), scal))
    assert W.flat_problems(curved, True) != []


def test_flipped_boolean_results():
    assert W.all_true("x")([True, True]) == []
    assert W.all_true("x")([True, False]) != []
    assert W.expect_true("x")(False) != []


def test_cli_outputs():
    report = {"results": {"dim": 9, "jordan": True}, "timing_ms": 5}
    out = (0, json.dumps(report, sort_keys=True, separators=(",", ":")).encode())
    check = lambda doc: [] if doc["results"]["dim"] == 9 else ["dim"]
    assert W.cli_problems(out, 0, check) == []
    # a flipped exit code
    assert W.cli_problems((1, out[1]), 0, check) != []
    # only timing_ms may differ between the rounds of a run
    slower = (0, out[1].replace(b'"timing_ms":5', b'"timing_ms":70'))
    assert W.stable_report(slower) == W.stable_report(out)
    other = (0, out[1].replace(b'"jordan":true', b'"jordan":false'))
    assert W.stable_report(other) != W.stable_report(out)
    assert W.stable_report((1, out[1])) != W.stable_report(out)
    # a wrong report field, and a report where none is expected
    wrong = (0, out[1].replace(b'"dim":9', b'"dim":8'))
    assert W.cli_problems(wrong, 0, check) != []
    assert W.cli_problems(out, 0, None) != []


def test_outputs_that_differ_between_rounds():
    same = [{"digests": {"op 0 a": "x", "op 1 b": "y"}} for _ in range(3)]
    assert R.unstable_outputs(same) == []
    same[2]["digests"]["op 1 b"] = "z"
    assert R.unstable_outputs(same) == ["op 1 b: output differs between rounds"]


def test_annihilator_dimension_and_idempotents():
    j23 = A.build_hermitian(3, 1)
    c = W.own_tensor(j23)
    der = D.derivation_basis(j23)
    sub = D.annihilator_subalgebra(der)
    assert W.annihilator_problems(c, sub, 2) == []
    assert W.annihilator_problems(c, sub, 3) != []
    # a derivation that moves a diagonal idempotent, in place of one that does not
    moving = next(m for m in der.mats if any(m.data[r][0] for r in range(j23.dim)))
    assert "idempotent" in W.annihilator_problems(c, [sub[0], moving], 2)[-1]


def test_rank_mod_p_and_inverse():
    vecs = [[Fraction(1, 2), 1, 0], [0, 1, 1], [Fraction(1, 2), 2, 1]]
    assert X.rank_mod_p(vecs) == 2
    assert X.rank_mod_p(vecs[:2]) == 2
    g = X.fraction_array([[1, 2], [3, 5]])
    assert (g.dot(X.inverse(g)) == X.fraction_array([[1, 0], [0, 1]])).all()


def test_leibniz_failures_on_albert_blocks():
    albert = A.build_hermitian(3, 3)
    c = W.own_tensor(albert)
    z = [Fraction(0)] * 8
    x = D.commutator_action_matrix([Fraction(1)] + z[1:], z, z)
    assert W.albert_derivation_problems(c, x) == []
    assert W.albert_derivation_problems(c, Mat.identity(27)) != []
    assert W.albert_derivation_problems(c, Mat.zeros(27, 27)) != []
    d1 = W._random_so8(random.Random(3))
    y = D.derivation_from_triality(d1)
    assert W.albert_derivation_problems(c, y, slot0=d1) == []
    assert W.albert_derivation_problems(c, y, slot0=d1.scale(2)) != []
    assert W.completion_problems(D.complete_triality(d1)) == []
    assert W.completion_problems((Mat.identity(8), Mat.identity(8))) != []
