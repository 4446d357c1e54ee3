"""Acceptance gate: ten criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to watch the verdict lines appear.
Every mathematical comparison is exact rational arithmetic; the only
tolerances anywhere are the stated wall-clock caps, which are asserted
alongside the mathematics.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from jordanium.algebra import (
    build_hermitian,
    build_spin,
    check_jordan,
    direct_sum,
)
from jordanium.connections import (
    base_connection,
    curvature,
    flatness_check,
    gauge_potential,
    inner_connection,
    lie_hom_check,
    with_potential,
)
from jordanium.derivations import (
    annihilator_subalgebra,
    check_jacobi,
    commutator_action_matrix,
    complete_triality,
    derivation_basis,
    derivation_from_triality,
    inner_span_report,
    leibniz_violation,
    random_so8,
    structure_constants,
    triality_defect,
)
from jordanium.forms import (
    DerForm,
    d_der,
    element_form,
    graded_commutativity_check,
    leibniz_check,
)
from jordanium.linalg import Mat, rank
from jordanium.modules import (
    build_antihermitian,
    build_clifford,
    build_free,
    check_module,
    hom_basis,
    hom_center_restriction,
)

fr = Fraction

HERMITIAN_CASES = [(n, level) for level in range(3) for n in range(1, 5)] + [(3, 3)]
SPIN_CASES = list(range(2, 10))


def _verdict(num, name, problems, elapsed=None, cap=None):
    ok = not problems
    if cap is not None and elapsed is not None and elapsed >= cap:
        ok = False
        problems = list(problems) + ["runtime %.1fs exceeded %gs cap" % (elapsed, cap)]
    stamp = "" if elapsed is None else " (%.1fs)" % elapsed
    line = "ACCEPTANCE %02d %s: %s%s" % (num, name, "PASS" if ok else "FAIL", stamp)
    print(line, flush=True)
    assert ok, line + " :: " + "; ".join(str(p) for p in problems)


def _classification_algebras():
    algs = [build_hermitian(n, level) for n, level in HERMITIAN_CASES]
    algs += [build_spin(n) for n in SPIN_CASES]
    return algs


def _rand_mat(rng, p):
    return Mat.from_rows(
        [[fr(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p)] for _ in range(p)]
    )


def test_criterion_01_classification_constructors():
    t0 = time.perf_counter()
    problems = []
    for a in _classification_algebras():
        verdict = check_jordan(a)
        if not verdict.passed:
            problems.append("%s failed the Jordan check" % a.label)
    _verdict(1, "classification-constructors", problems, time.perf_counter() - t0, 30)


def test_criterion_02_exceptional_derivations(albert_ctx):
    t0 = time.perf_counter()
    problems = []
    der = albert_ctx.der
    if der.dim != 52:
        problems.append("Der dim %d != 52" % der.dim)
    try:
        b = structure_constants(der)  # raises if a bracket leaves the span
    except AssertionError as e:
        problems.append(str(e))
        b = None
    if b is not None and not check_jacobi(b):
        problems.append("Jacobi identity fails for the 52-dim bracket table")
    sub = annihilator_subalgebra(der)
    if len(sub) != 28:
        problems.append("d4 dim %d != 28" % len(sub))
    extras = []
    zero8 = tuple(fr(0) for _ in range(8))
    for slot in range(3):
        for k in range(8):
            params = [list(zero8) for _ in range(3)]
            params[slot][k] = fr(1)
            m = commutator_action_matrix(*params)
            if leibniz_violation(albert_ctx.algebra, m) is not None:
                problems.append("antihermitian action (%d,%d) is not a derivation" % (slot, k))
            extras.append(m)
    got = rank(Mat.from_rows([x.flatten() for x in sub + extras]))
    if got != 52:
        problems.append("d4 + antihermitian actions span %d != 52" % got)
    _verdict(2, "exceptional-derivations", problems, time.perf_counter() - t0, 300)


def test_criterion_03_derivation_dimensions():
    t0 = time.perf_counter()
    cases = [
        (build_hermitian(3, 0), 3),
        (build_hermitian(3, 1), 8),
        (build_hermitian(2, 2), 10),
    ] + [(build_spin(n), n * (n - 1) // 2) for n in range(2, 7)]
    problems = []
    for a, expected in cases:
        got = derivation_basis(a).dim
        if got != expected:
            problems.append("Der(%s) dim %d != %d" % (a.label, got, expected))
    _verdict(3, "derivation-dimensions", problems, time.perf_counter() - t0)


def test_criterion_04_triality_completion(albert_ctx):
    # warm the shared algebra before the clock starts: the criterion times the
    # twenty completions, not the construction of the 27-dim product table
    a = albert_ctx.algebra
    t0 = time.perf_counter()
    rng = random.Random(20260826)
    problems = []
    for trial in range(20):
        d1 = random_so8(rng)
        d2, d3 = complete_triality(d1)
        bad = triality_defect(d1, d2, d3)
        if bad is not None:
            problems.append("trial %d: residual at basis pair %s" % (trial, (bad,)))
        x = derivation_from_triality(d1)
        if leibniz_violation(a, x) is not None:
            problems.append("trial %d: completion is not a derivation" % trial)
    _verdict(4, "triality-completion", problems, time.perf_counter() - t0, 10)


def test_criterion_05_inner_derivation_span(albert_ctx):
    t0 = time.perf_counter()
    cases = [
        build_hermitian(3, 0),
        build_hermitian(2, 1),
        build_hermitian(3, 1),
        build_hermitian(2, 2),
        build_spin(3),
        build_spin(4),
        build_spin(5),
    ]
    problems = []
    for a in cases:
        rep = inner_span_report(a)
        if not rep["spans_derivations"]:
            problems.append("inner span short for %s" % a.label)
    rep = inner_span_report(albert_ctx.algebra, albert_ctx.der)
    if not rep["spans_derivations"]:
        problems.append("inner span short for the 27-dim exceptional algebra")
    _verdict(5, "inner-derivation-span", problems, time.perf_counter() - t0)


def test_criterion_06_module_dual_oracle():
    t0 = time.perf_counter()
    problems = []
    mods = []
    for a in _classification_algebras():
        for p in (1, 2, 3):
            mods.append(build_free(a, p))
    for level in range(3):
        for n in (2, 3):
            mods.append(build_antihermitian(n, level))
    for n in range(1, 5):
        mods.append(build_clifford(n))
    for mod in mods:
        verdict = check_module(mod)
        if not verdict.passed:
            problems.append("%s fails the module check" % mod.label)
        if not verdict.oracles_agree:
            problems.append("%s: oracles disagree" % mod.label)
    _verdict(6, "module-dual-oracle", problems, time.perf_counter() - t0)


def test_criterion_07_hom_dimensions():
    t0 = time.perf_counter()
    problems = []
    simple = [build_hermitian(3, 0), build_hermitian(2, 1), build_spin(3)]
    two_center = direct_sum(build_hermitian(2, 0), build_hermitian(2, 0))
    for a, zdim in [(s, 1) for s in simple] + [(two_center, 2)]:
        for p, q in itertools.product((1, 2, 3), repeat=2):
            homs = hom_basis(build_free(a, p), build_free(a, q))
            if len(homs) != zdim * p * q:
                problems.append(
                    "hom(%s: free%d -> free%d) dim %d != %d"
                    % (a.label, p, q, len(homs), zdim * p * q)
                )
            for hom in homs:
                if hom_center_restriction(hom) is None:
                    problems.append(
                        "hom over %s (%d,%d) has a non-central block" % (a.label, p, q)
                    )
                    break
    _verdict(7, "hom-dimensions", problems, time.perf_counter() - t0)


def test_criterion_08_differential_identities():
    t0 = time.perf_counter()
    problems = []
    algebras = [build_spin(2), build_spin(3), build_spin(4), build_hermitian(3, 0)]
    for a in algebras:
        der = derivation_basis(a)
        for deg in (0, 1):
            for key in itertools.combinations(range(der.dim), deg):
                for i in range(a.dim):
                    w = DerForm(der, deg, {key: a.basis_element(i)})
                    if not d_der(d_der(w)).is_zero():
                        problems.append(
                            "d^2 != 0 on %s degree %d key %s basis %d"
                            % (a.label, deg, key, i)
                        )
    rng = random.Random(88)

    def rand_form(der, deg):
        keys = list(itertools.combinations(range(der.dim), deg))
        return DerForm(
            der,
            deg,
            {
                k: tuple(
                    fr(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(der.algebra.dim)
                )
                for k in keys
            },
        )

    for a in (build_spin(3), build_hermitian(3, 0)):
        der = derivation_basis(a)
        for n, l in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2)]:
            for _ in range(2):
                if not leibniz_check(rand_form(der, n), rand_form(der, l)):
                    problems.append("Leibniz fails on %s degrees (%d,%d)" % (a.label, n, l))
        for n, l in [(0, 1), (1, 1), (1, 2), (2, 1)]:
            for _ in range(2):
                if not graded_commutativity_check(rand_form(der, n), rand_form(der, l)):
                    problems.append(
                        "graded commutativity fails on %s degrees (%d,%d)" % (a.label, n, l)
                    )
    _verdict(8, "differential-identities", problems, time.perf_counter() - t0)


def test_criterion_09_connection_curvature():
    t0 = time.perf_counter()
    problems = []
    j22 = build_hermitian(2, 1)
    jspin3 = build_spin(3)

    for a in (j22, jspin3):
        der = derivation_basis(a)
        for p in (1, 2):
            if not curvature(base_connection(der, build_free(a, p))).is_zero():
                problems.append("base connection over %s rank %d is curved" % (a.label, p))

    # twenty random potentials, curvature computed along both routes
    flats = 0
    for a in (j22, jspin3):
        der = derivation_basis(a)
        mod = build_free(a, 2)
        c0 = base_connection(der, mod)
        rng = random.Random(261 if a is j22 else 262)
        for trial in range(10):
            pot = gauge_potential(der, 2, [_rand_mat(rng, 2) for _ in range(der.dim)])
            try:
                cur = curvature(with_potential(c0, pot))  # internal two-path assert
            except AssertionError as e:
                problems.append("curvature paths disagree on %s: %s" % (a.label, e))
                continue
            if cur.endomorphism_defect() is not None:
                problems.append("curvature is not an endomorphism on %s" % a.label)
            flat = cur.is_zero()
            flats += flat
            if flat != lie_hom_check(pot, der):
                problems.append(
                    "flat/Lie-morphism equivalence fails on %s trial %d" % (a.label, trial)
                )

    # engineered witnesses for both directions of the equivalence
    for a in (build_hermitian(3, 0), jspin3):
        der = derivation_basis(a)
        b = structure_constants(der)
        adj = gauge_potential(
            der,
            der.dim,
            [
                Mat.from_rows(
                    [[b[mu][i][j] for i in range(der.dim)] for j in range(der.dim)]
                )
                for mu in range(der.dim)
            ],
        )
        if not lie_hom_check(adj, der):
            problems.append("adjoint potential over %s is not a Lie morphism" % a.label)
        c = with_potential(base_connection(der, build_free(a, der.dim)), adj)
        if not flatness_check(c):
            problems.append("adjoint connection over %s is curved" % a.label)
        if adj.is_zero():
            problems.append("adjoint witness over %s is trivial" % a.label)
    der3 = derivation_basis(jspin3)
    scal = gauge_potential(
        der3, 1, [Mat.from_rows([[fr(v)]]) for v in (1, 2, 3)]
    )
    if lie_hom_check(scal, der3):
        problems.append("curved scalar witness is unexpectedly a Lie morphism")
    if flatness_check(with_potential(base_connection(der3, build_free(jspin3, 1)), scal)):
        problems.append("curved scalar witness is unexpectedly flat")

    # the inner connection on the antihermitian module is flat
    der22 = derivation_basis(j22)
    if not flatness_check(inner_connection(der22, build_antihermitian(2, 1))):
        problems.append("inner connection on the antihermitian module is curved")
    _verdict(9, "connection-curvature", problems, time.perf_counter() - t0)


def _canonical_cli(cmd, threads):
    env = dict(os.environ, JORDANIUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "jordanium.cli"] + cmd,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    d = json.loads(proc.stdout)
    d.pop("timing_ms", None)
    return json.dumps(d, sort_keys=True, separators=(",", ":")), None


def test_criterion_10_cli_determinism():
    t0 = time.perf_counter()
    problems = []
    commands = [
        ["algebra", "check", "--algebra", "j23"],
        ["der", "basis", "--algebra", "j13"],
        ["forms", "d2check", "--algebra", "jspin2"],
        ["module", "homdim", "--free", "2", "2", "--algebra", "jspin3"],
    ]
    for cmd in commands:
        outs = []
        for threads in (1, 1, 8, 8):
            out, err = _canonical_cli(cmd, threads)
            if err:
                problems.append("%s: %s" % (" ".join(cmd), err))
                break
            outs.append(out)
        if len(outs) == 4 and len(set(outs)) != 1:
            problems.append("%s: report bytes vary across runs/threads" % " ".join(cmd))
    _verdict(10, "cli-determinism", problems, time.perf_counter() - t0)
