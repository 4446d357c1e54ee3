"""The four workloads: inputs made from a seed, timed operations, checks.

A workload's ``setup`` builds its inputs from a ``random.Random``; ``run``
registers each timed operation with the ``Round`` together with the check
of its output.  Checks run after every operation has been timed, and use
``exact`` (the benchmark's own arithmetic) or a property the mathematics
must have, never a saved copy of an earlier output.

Operations call jordanium through module attributes (``A.check_jordan``),
so a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from time import perf_counter, process_time

import numpy as np

from jordanium import algebra as A
from jordanium import connections as C
from jordanium import derivations as D
from jordanium import forms as F
from jordanium import modules as M
from jordanium.linalg import Mat

import exact as X

# hermitian (n, Cayley-Dickson level) and spin factor sizes of the
# classification list in the acceptance tests
HERMITIAN = [(n, level) for level in range(3) for n in range(1, 5)] + [(3, 3)]
SPIN = range(2, 10)


class CliCrash(Exception):
    """A CLI process ended in an uncaught exception."""


def _cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class Round:
    """Timed operations of one round, and the deferred checks of their outputs."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.op_s: list[float] = []
        self.op_cpu_s: list[float] = []
        self.op_keys: list[str] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.layer_extra: dict[str, float] = {}
        self.child_traces: list[dict] = []
        self._checks: list = []

    def op(self, label: str, fn, *args, check=None, stable=None):
        """Time fn(*args); on an exception count a failed operation.

        Operations are keyed by their place in the round, so the same
        operation has the same key in every round of a run.  With
        ``stable``, the digest of ``stable(output)`` is kept: every round
        of a run must give the same one.
        """
        key = "op %d %s" % (len(self.op_s), label)
        self.op_keys.append(key)
        c0 = _cpu_s()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # a failed operation is reported, not fatal
            self.op_s.append(perf_counter() - t0)
            self.op_cpu_s.append(_cpu_s() - c0)
            self.failures.append("%s: %s: %s" % (label, type(e).__name__, e))
            return None
        self.op_s.append(perf_counter() - t0)
        self.op_cpu_s.append(_cpu_s() - c0)
        if check is not None:
            self._checks.append((label, check, out))
        if stable is not None:
            self.digests[key] = hashlib.sha256(stable(out)).hexdigest()
        return out

    def run_checks(self) -> None:
        for label, check, out in self._checks:
            for p in check(out) or ():
                self.problems.append("%s: %s" % (label, p))


def fr_array(m: Mat) -> np.ndarray:
    return X.fraction_array(m.data)


def _rand_q(rng, lo=-3, hi=3, den=2) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero_q(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def _structure_dict(a: A.AlgebraPresentation) -> dict:
    out: dict = {}
    for i, j, k, q in a.structure_entries():
        if i <= j:
            out.setdefault((i, j), []).append((k, q))
    return out


def perturb_algebra(a: A.AlgebraPresentation, rng) -> A.AlgebraPresentation:
    """Change one structure constant e_i e_j (both off the unit's support).

    Products with unit components are untouched, so the unit law still
    holds and the constructor accepts the algebra; the Jordan check must
    then fail.
    """
    cands = [
        (i, j, k, q)
        for i, j, k, q in a.structure_entries()
        if i <= j and a.unit[i] == 0 and a.unit[j] == 0
    ]
    i, j, k, q = rng.choice(cands)
    delta = _nonzero_q(rng)
    if q + delta == 0:
        delta = -delta
    st = _structure_dict(a)
    st[(i, j)] = [(kk, qq + delta if kk == k else qq) for kk, qq in st[(i, j)]]
    return A.AlgebraPresentation(a.label + "~", a.dim, a.unit, st)


def perturb_module(mod: M.ModuleAction, rng) -> M.ModuleAction:
    """Change one operator entry of a basis element off the unit's support."""
    a = mod.algebra
    i = rng.choice([t for t in range(a.dim) if a.unit[t] == 0])
    r, c = rng.randrange(mod.mdim), rng.randrange(mod.mdim)
    rows = [list(row) for row in mod.ops[i].data]
    rows[r][c] += _nonzero_q(rng)
    ops = list(mod.ops)
    ops[i] = Mat.from_rows(rows)
    return M.ModuleAction(a, ops, mod.label + "~")


def big_spin(n: int, entry: int = 2**45) -> A.AlgebraPresentation:
    """Spin factor on R + R^n whose form has diagonal entries `entry`."""
    st = {(0, 0): [(0, Fraction(1))]}
    for i in range(1, n + 1):
        st[(0, i)] = [(i, Fraction(1))]
        st[(i, i)] = [(0, Fraction(entry))]
    unit = (Fraction(1),) + (Fraction(0),) * n
    return A.AlgebraPresentation("JSpin%d(2^45)" % n, n + 1, unit, st)


def own_tensor(a: A.AlgebraPresentation) -> np.ndarray:
    return X.structure_tensor(a.structure_entries(), a.dim)[0]


def own_snx_tensors(mod: M.ModuleAction):
    """(split-null-extension tensor, algebra tensor, action tensor, scale).

    Built here from the structure constants and operator entries; all three
    tensors carry the one scale.
    """
    a = mod.algebra
    n, m = a.dim, mod.mdim
    c, act, s = X.module_tensors(a.structure_entries(), n, [op.data for op in mod.ops])
    ext = np.zeros((n + m, n + m, n + m), dtype=object)
    ext[:n, :n, :n] = c
    for i in range(n):
        # e_i f_alpha = sum_beta act[i][beta][alpha] f_beta
        ext[i, n:, n:] = act[i].T
        ext[n:, i, n:] = act[i].T
    return ext, c, act, s


# ---------------------------------------------------------------------------
# checks shared by several workloads


def expect_true(what: str):
    return lambda out: [] if out is True else ["%s is %r, expected True" % (what, out)]


def jordan_verdict(expected: bool):
    def check(v):
        if v.passed != expected:
            return ["Jordan verdict %s, expected %s" % (v.passed, expected)]
        return []

    return check


def jordan_witness_problems(c: np.ndarray, s: int, verdict, minimal: bool) -> list[str]:
    """A FAIL verdict whose witness triple evaluates nonzero, here, exactly.

    c is the structure tensor times s, so the identity's value is s**3
    times the program's witness operator.
    """
    if verdict.passed or verdict.witness_triple is None:
        return ["verdict should be FAIL with a witness triple"]
    w = tuple(verdict.witness_triple)
    value = X.jordan_value(c, *w)
    if not (value != 0).any():
        return ["witness %s evaluates to zero" % (w,)]
    if verdict.witness_operator is not None:
        if not (fr_array(verdict.witness_operator) * s**3 == value).all():
            return ["witness operator differs from its own evaluation"]
    if minimal:
        first = X.smallest_jordan_violation(c)
        if first != w:
            return ["witness %s is not the smallest violation %s" % (w, first)]
    return []


def module_verdict_problems(mod: M.ModuleAction, v, minimal: bool) -> list[str]:
    """Perturbed module: FAIL, oracles agree, both witnesses are real."""
    if v.passed or not v.oracles_agree:
        return ["perturbed module: passed=%s oracles_agree=%s" % (v.passed, v.oracles_agree)]
    ext, c, act, s = own_snx_tensors(mod)
    probs = jordan_witness_problems(ext, s, v.extension_verdict, minimal)
    w = v.operator_witness
    if w is None:
        return probs + ["no operator witness"]
    if not (X.module_value(c, act, *w) != 0).any():
        probs.append("operator witness %s evaluates to zero" % (tuple(w),))
    elif minimal and X.smallest_module_violation(c, act) != tuple(w):
        probs.append("operator witness %s is not the smallest" % (tuple(w),))
    return probs


def module_passes(v) -> list[str]:
    if not (v.passed and v.oracles_agree):
        return ["module verdict passed=%s oracles_agree=%s" % (v.passed, v.oracles_agree)]
    return []


# ---------------------------------------------------------------------------
# module-oracle


def free_cases() -> list[tuple[int, int, int]]:
    """(n, level, rank): split null extension of dim <= 45, plus albert
    rank 1 (dim 54).  J4_3 rank 3 (dim 60) is left out: at 6 s it alone
    would take most of a round."""
    out = []
    for n, level in HERMITIAN:
        dim = n + n * (n - 1) // 2 * 2**level
        for p in (1, 2, 3):
            if dim * (p + 1) <= 45 or (n, level, p) == (3, 3, 1):
                out.append((n, level, p))
    return out


class ModuleOracle:
    name = "module-oracle"

    def setup(self, rng) -> dict:
        herm = {nl: A.build_hermitian(*nl) for nl in HERMITIAN}
        spins = [A.build_spin(n) for n in SPIN]
        mods = [M.build_free(herm[(n, level)], p) for n, level, p in free_cases()]
        mods += [
            M.build_antihermitian(n, level)
            for level in range(3)
            for n in (2, 3)
            if (n, level) != (3, 2)
        ]
        mods += [M.build_clifford(n) for n in range(1, 5)]
        return {
            "algebras": list(herm.values()) + spins,
            "modules": mods,
            "bad_module": perturb_module(M.build_free(herm[(3, 0)], 2), rng),
            "bad_albert": perturb_algebra(herm[(3, 3)], rng),
            "big_spin": big_spin(5),
        }

    def run(self, inp: dict, rnd: Round) -> None:
        for a in inp["algebras"]:
            rnd.op("check_jordan " + a.label, A.check_jordan, a, check=jordan_verdict(True))
        for mod in inp["modules"]:
            rnd.op("check_module " + mod.label, M.check_module, mod, check=module_passes)
        bad = inp["bad_module"]
        rnd.op(
            "check_module " + bad.label,
            M.check_module,
            bad,
            check=lambda v: module_verdict_problems(bad, v, minimal=True),
        )
        alb = inp["bad_albert"]
        rnd.op(
            "check_jordan " + alb.label,
            A.check_jordan,
            alb,
            check=lambda v: jordan_witness_problems(
                *X.structure_tensor(alb.structure_entries(), alb.dim), v, minimal=False
            ),
        )
        big = inp["big_spin"]
        rnd.op("check_jordan " + big.label, A.check_jordan, big, check=jordan_verdict(True))


# ---------------------------------------------------------------------------
# derivation-algebra


def classical_der_dim(kind: str, n: int, level: int = 0) -> int:
    """Dimension of the derivation algebra, from the classification.

    H_1 = R has none; H_2 over a d-dimensional composition algebra is a
    spin factor, with so(d+1); H_n for n >= 3 gives so(n), su(n), sp(n)
    and f4 over R, C, H and O; the spin factor on R + R^n gives so(n).
    """
    if kind == "spin":
        return n * (n - 1) // 2
    if n == 1:
        return 0
    if n == 2:
        d = 2**level
        return (d + 1) * d // 2
    return (n * (n - 1) // 2, n * n - 1, n * (2 * n + 1), 52)[level]


def derivation_problems(c: np.ndarray, mats, expected: int) -> list[str]:
    """Basis size, the Leibniz rule on every element, rank mod a prime."""
    if len(mats) != expected:
        return ["dimension %d, expected %d" % (len(mats), expected)]
    bad = X.leibniz_failures(c, [m.data for m in mats])
    if bad:
        return ["elements %s break the Leibniz rule" % bad[:5]]
    r = X.rank_mod_p([m.flatten() for m in mats])
    if r != expected:
        return ["rank mod p is %d, expected %d" % (r, expected)]
    return []


def bracket_sample_problems(der, b, pairs) -> list[str]:
    mats = [fr_array(m) for m in der.mats]
    for p, q in pairs:
        if not X.expands_as(X.commutator(mats[p], mats[q]), b[p][q], mats):
            return ["[D_%d, D_%d] does not expand by the structure constants" % (p, q)]
    return []


def _random_so8(rng) -> Mat:
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][j] = q
            rows[j][i] = -q
    return Mat.from_rows(rows)


class DerivationAlgebra:
    name = "derivation-algebra"

    # f4 on albert (12 s) and sp(4) on the 28-dim quaternion H_4 (13 s) run
    # the same nullspace path as the smaller algebras but would each take
    # longer than a whole round, so they are left out.  The bracket, Jacobi
    # and annihilator operations run on sp(3), the derivations of J4_3;
    # albert still enters through its triality and commutator derivations.
    SKIP = {(4, 2), (3, 3)}

    def setup(self, rng) -> dict:
        algs = [
            (A.build_hermitian(n, level), classical_der_dim("herm", n, level))
            for n, level in HERMITIAN
            if (n, level) not in self.SKIP
        ]
        algs += [(A.build_spin(n), classical_der_dim("spin", n)) for n in SPIN]
        octs = [
            [[_rand_q(rng) for _ in range(8)] for _ in range(3)] for _ in range(2)
        ]
        return {
            "algebras": algs,
            "albert": A.build_hermitian(3, 3),
            "octonion_params": octs,
            "so8": [_random_so8(rng) for _ in range(4)],
            "bracket_pairs": rng.sample(list(combinations(range(21), 2)), 6),
        }

    def run(self, inp: dict, rnd: Round) -> None:
        ders = {}
        for a, expected in inp["algebras"]:
            c = own_tensor(a)
            ders[a.label] = rnd.op(
                "derivation_basis " + a.label,
                D.derivation_basis,
                a,
                check=lambda der, c=c, e=expected: derivation_problems(c, der.mats, e),
            )
        sp3 = ders["J4_3"]
        pairs = inp["bracket_pairs"]
        b = rnd.op(
            "structure_constants sp3",
            D.structure_constants,
            sp3,
            check=lambda b: bracket_sample_problems(sp3, b, pairs),
        )
        rnd.op("check_jacobi sp3", D.check_jacobi, b, check=expect_true("check_jacobi"))
        c15 = own_tensor(sp3.algebra)
        rnd.op(
            "annihilator_subalgebra J4_3",
            D.annihilator_subalgebra,
            sp3,
            check=lambda sub: annihilator_problems(c15, sub, 9),
        )

        albert = inp["albert"]
        c27 = own_tensor(albert)
        for params in inp["octonion_params"]:
            rnd.op(
                "commutator_action_matrix",
                D.commutator_action_matrix,
                *params,
                check=lambda x: albert_derivation_problems(c27, x),
            )
        for d1 in inp["so8"]:
            rnd.op("complete_triality", D.complete_triality, d1, check=completion_problems)
            x = rnd.op(
                "derivation_from_triality",
                D.derivation_from_triality,
                d1,
                check=lambda x, d1=d1: albert_derivation_problems(c27, x, slot0=d1),
            )
            rnd.op(
                "leibniz_violation",
                D.leibniz_violation,
                albert,
                x,
                check=lambda w: [] if w is None else ["violation at %s" % (w,)],
            )
        rnd.op(
            "inner_span_report J4_3",
            D.inner_span_report,
            sp3.algebra,
            sp3,
            check=lambda rep: span_problems(rep, 15, 21),
        )


def annihilator_problems(c: np.ndarray, sub, expected: int) -> list[str]:
    """Derivations of H_3 killing the three diagonal idempotents.

    They form tri(K) = der(K) + 2 Im(K) for the composition algebra K:
    dimension 0, 2, 9 and 28 (d4) over R, C, H and O.
    """
    probs = derivation_problems(c, sub, expected)
    n = c.shape[0]
    if any(m.data[r][i] for m in sub for r in range(n) for i in range(3)):
        probs.append("an element moves a diagonal idempotent")
    return probs


def albert_derivation_problems(c27: np.ndarray, x: Mat, slot0: Mat = None) -> list[str]:
    """A nonzero derivation of albert; with slot0, its first octonion block."""
    if x.is_zero():
        return ["zero operator"]
    if X.leibniz_failures(c27, [x.data]):
        return ["not a derivation"]
    if slot0 is not None and [row[3:11] for row in x.data[3:11]] != list(slot0.data):
        return ["first octonion block is not the so(8) input"]
    return []


def completion_problems(pair) -> list[str]:
    if any(d.transpose() != -d for d in pair):
        return ["completion is not antisymmetric"]
    return []


def span_problems(rep: dict, n: int, d: int) -> list[str]:
    """Inner derivations of a simple algebra of dim n span all d derivations."""
    want = {
        "pairs": n * (n - 1) // 2,
        "all_derivations": True,
        "span_rank": d,
        "derivation_dim": d,
        "spans_derivations": True,
    }
    return [] if rep == want else ["report %s, expected %s" % (rep, want)]


# ---------------------------------------------------------------------------
# calculus


def own_brackets(der) -> list:
    return X.bracket_constants([fr_array(m) for m in der.mats], der.free_coords)


def curvature_is_zero(cur) -> bool:
    return all(x == 0 for m in cur.table.values() for row in m.data for x in row)


def adjoint_blocks(b) -> list[np.ndarray]:
    """ad(X_mu) as d x d matrices: column i holds the coefficients of [X_mu, X_i]."""
    d = len(b)
    return [X.fraction_array([[b[mu][i][j] for i in range(d)] for j in range(d)]) for mu in range(d)]


def conjugated_adjoint(b, rng) -> list[np.ndarray]:
    """g ad(X_mu) g^-1 for a seeded unimodular g: a Lie morphism, so flat."""
    d = len(b)
    lower = X.fraction_array([[1 if r == c else (rng.randint(-2, 2) if r > c else 0) for c in range(d)] for r in range(d)])
    upper = X.fraction_array([[1 if r == c else (rng.randint(-2, 2) if r < c else 0) for c in range(d)] for r in range(d)])
    g = lower.dot(upper)
    g_inv = X.inverse(g)
    return [g.dot(m).dot(g_inv) for m in adjoint_blocks(b)]


def _mat(arr: np.ndarray) -> Mat:
    return Mat.from_rows(arr.tolist())


class Calculus:
    name = "calculus"

    def setup(self, rng) -> dict:
        j23, js4, js3 = A.build_hermitian(3, 1), A.build_spin(4), A.build_spin(3)
        j13, j22 = A.build_hermitian(3, 0), A.build_hermitian(2, 1)
        der = {a.label: D.derivation_basis(a) for a in (j23, js4, js3, j13, j22)}

        def rand_form(d, deg):
            return F.DerForm(
                d,
                deg,
                {
                    k: tuple(_rand_q(rng, -4, 4, 3) for _ in range(d.algebra.dim))
                    for k in combinations(range(d.dim), deg)
                },
            )

        leib = {
            lab: [(rand_form(der[lab], n), rand_form(der[lab], l)) for n, l in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))]
            for lab in ("JSpin3", "J1_3", "JSpin4")
        }
        grad = {
            lab: [(rand_form(der[lab], n), rand_form(der[lab], l)) for n, l in ((0, 1), (1, 1), (1, 2), (2, 1))]
            for lab in ("JSpin3", "J1_3", "JSpin4")
        }
        conns = []
        for a in (j22, js3):
            d = der[a.label]
            b = own_brackets(d)
            for p in (1, 2, 3):
                blocks = [[[_rand_q(rng) for _ in range(p)] for _ in range(p)] for _ in range(d.dim)]
                pots = [[X.fraction_array(m) for m in blocks]]
                if p == d.dim:
                    pots.append(conjugated_adjoint(b, rng))
                conns.append(
                    {
                        "der": d,
                        "module": M.build_free(a, p),
                        "potentials": [
                            (C.gauge_potential(d, p, [_mat(m) for m in pot]), X.lie_morphism(pot, b))
                            for pot in pots
                        ],
                    }
                )
        d3 = der["JSpin3"]
        adj = C.gauge_potential(d3, 3, [_mat(m) for m in adjoint_blocks(own_brackets(d3))])
        scal = C.gauge_potential(d3, 1, [Mat.from_rows([[v]]) for v in (1, 2, 3)])
        pair = A.build_hermitian(2, 0)
        homs = []
        for a, zdim in ((j13, 1), (js3, 1), (A.direct_sum(pair, pair), 2)):
            homs.append((zdim, {p: M.build_free(a, p) for p in (1, 2)}))
        return {
            "dd": [der["J2_3"], der["JSpin4"]],
            "leibniz": leib,
            "graded": grad,
            "conns": conns,
            "adjoint": (d3, M.build_free(js3, 3), adj),
            "scalar": (d3, M.build_free(js3, 1), scal),
            "inner": (der["J2_2"], M.build_antihermitian(2, 1)),
            "homs": homs,
        }

    def run(self, inp: dict, rnd: Round) -> None:
        for d in inp["dd"]:
            a = d.algebra
            # one certificate, as `forms d2check` gives it: degrees 0 and 1
            forms = [
                F.DerForm(d, deg, {key: a.basis_element(i)})
                for deg in (0, 1)
                for key in combinations(range(d.dim), deg)
                for i in range(a.dim)
            ]
            rnd.op(
                "d(d w) " + a.label,
                lambda fs: [F.d_der(F.d_der(w)) for w in fs],
                forms,
                check=lambda outs: [] if all(not any(any(v) for v in o.coeffs.values()) for o in outs) else ["d(d w) != 0"],
            )
        for lab, pairs in inp["leibniz"].items():
            rnd.op("leibniz_check " + lab, lambda ps: [F.leibniz_check(w, f) for w, f in ps], pairs, check=all_true("Leibniz rule"))
        for lab, pairs in inp["graded"].items():
            rnd.op(
                "graded_commutativity_check " + lab,
                lambda ps: [F.graded_commutativity_check(w, f) for w, f in ps],
                pairs,
                check=all_true("graded commutativity"),
            )

        for case in inp["conns"]:
            d, mod = case["der"], case["module"]
            tag = "%s free%d" % (d.algebra.label, mod.mdim // d.algebra.dim)
            c0 = rnd.op("base_connection " + tag, C.base_connection, d, mod)
            rnd.op("curvature base " + tag, C.curvature, c0, check=lambda cur: flat_problems(cur, True))
            for pot, morphism in case["potentials"]:
                c = rnd.op("with_potential " + tag, C.with_potential, c0, pot)
                rnd.op("curvature " + tag, C.curvature, c, check=lambda cur, m=morphism: flat_problems(cur, m))
                rnd.op(
                    "lie_hom_check " + tag,
                    C.lie_hom_check,
                    pot,
                    d,
                    check=lambda got, m=morphism: [] if got == m else ["lie_hom_check %s, own %s" % (got, m)],
                )
        for key, expected in (("adjoint", True), ("scalar", False)):
            d, mod, pot = inp[key]
            c = rnd.op(
                key + " witness",
                lambda d, mod, pot: C.with_potential(C.base_connection(d, mod), pot),
                d,
                mod,
                pot,
            )
            rnd.op(
                "flatness_check " + key,
                C.flatness_check,
                c,
                check=lambda got, e=expected: [] if got is e else ["flat=%s, expected %s" % (got, e)],
            )
        d, mod = inp["inner"]
        ic = rnd.op("inner_connection " + mod.label, C.inner_connection, d, mod)
        rnd.op("curvature inner " + mod.label, C.curvature, ic, check=lambda cur: flat_problems(cur, True))

        for zdim, frees in inp["homs"]:
            # free 2 -> 2 is left out: over J1_3 and J1_2 + J1_2 it takes
            # 1.2 s, a sixth of the round, on the same path as 1 -> 2
            for p, q in ((1, 1), (1, 2), (2, 1)):
                src, dst = frees[p], frees[q]
                rnd.op(
                    "hom_basis %s %d->%d" % (src.algebra.label, p, q),
                    M.hom_basis,
                    src,
                    dst,
                    check=lambda homs, s=src, t=dst, want=zdim * p * q: hom_problems(homs, s, t, want),
                )


def all_true(what: str):
    return lambda outs: [] if all(x is True for x in outs) else ["%s fails" % what]


def flat_problems(cur, expected: bool) -> list[str]:
    flat = curvature_is_zero(cur)
    return [] if flat == expected else ["flat=%s, expected %s" % (flat, expected)]


def hom_problems(homs, src, dst, want: int) -> list[str]:
    """want intertwiners, each commuting with every action operator."""
    if len(homs) != want:
        return ["hom dim %d, expected %d" % (len(homs), want)]
    so = [fr_array(m) for m in src.ops]
    do = [fr_array(m) for m in dst.ops]
    if not all(X.intertwines(fr_array(h.matrix), so, do) for h in homs):
        return ["a hom does not intertwine the actions"]
    return []


# ---------------------------------------------------------------------------
# cli-reports

_TIMING = re.compile(rb'"timing_ms":\d+,?')
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
TRACE_TAG = "perfbench-trace "


class CliReports:
    name = "cli-reports"

    def setup(self, rng) -> dict:
        j13, js3 = A.build_hermitian(3, 0), A.build_spin(3)
        free = M.module_dumps(M.build_free(j13, 2))
        d3 = D.derivation_basis(js3)
        b3 = own_brackets(d3)
        rand = [X.fraction_array([[_rand_q(rng) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
        flat = conjugated_adjoint(b3, rng)

        def pot_json(blocks):
            pot = C.gauge_potential(d3, len(blocks[0]), [_mat(m) for m in blocks])
            return json.dumps(dict(C.potential_to_dict(pot), algebra="jspin3"))

        bad_alg = perturb_algebra(j13, rng)
        return {
            "free": free,
            "bad_module": M.module_dumps(perturb_module(M.build_free(j13, 1), rng)),
            "bad_algebra": A.algebra_dumps(bad_alg),
            "bad_algebra_c": own_tensor(bad_alg),
            "big_spin": A.algebra_dumps(big_spin(5)),
            "malformed": free[: rng.randint(10, len(free) // 2)],
            "rand_pot": (pot_json(rand), X.lie_morphism(rand, b3)),
            "flat_pot": pot_json(flat),
            "antiherm": M.module_dumps(M.build_antihermitian(2, 1)),
            "triality_seed": rng.randrange(10**6),
        }

    def invocations(self, inp: dict) -> list:
        """(argv, stdin, expected exit code, check of the parsed output)."""

        def fields(**want):
            def check(doc):
                res = doc.get("results", doc)
                bad = {k: res.get(k) for k, v in want.items() if res.get(k) != v}
                return ["fields %s, expected %s" % (bad, {k: want[k] for k in bad})] if bad else []

            return check

        def witness_real(doc):
            w = doc["results"].get("witness")
            if not w or not (X.jordan_value(inp["bad_algebra_c"], *w) != 0).any():
                return ["witness %s does not evaluate nonzero" % (w,)]
            return []

        def curvature_matches(doc):
            return fields(flat=inp["rand_pot"][1])(doc) + (
                [] if len(doc["results"]["pairs"]) == 3 else ["expected 3 frame pairs"]
            )

        return [
            (["algebra", "build", "--type", "herm", "--n", "3", "--level", "1"], None, 0, fields(dim=9, label="J2_3")),
            (["algebra", "check", "--algebra", "j23"], None, 0, fields(dim=9, jordan=True, center_dim=1)),
            (["algebra", "check", "--algebra", "-"], inp["bad_algebra"], 1, lambda d: fields(jordan=False)(d) + witness_real(d)),
            (["algebra", "check", "--algebra", "-"], inp["big_spin"], 0, fields(dim=6, jordan=True, center_dim=1)),
            (["der", "basis", "--algebra", "j13"], None, 0, fields(dim=classical_der_dim("herm", 3, 0))),
            (["der", "inner", "--algebra", "j22"], None, 0, fields(derivation_dim=3, span_rank=3, spans_derivations=True)),
            (["der", "d4", "--algebra", "j23"], None, 0, fields(derivation_dim=8, dim=2)),
            (["der", "triality", "--seed", str(inp["triality_seed"]), "--count", "2"], None, 0, fields(residual_zero=True, count=2)),
            (["module", "build", "--type", "free", "--algebra", "jspin3", "--rank", "2"], None, 0, fields(mdim=8)),
            (["module", "check", "--module", "-"], inp["free"], 0, fields(mdim=12, passed=True, oracles_agree=True)),
            (["module", "check", "--module", "-"], inp["bad_module"], 1, fields(passed=False, oracles_agree=True)),
            (["module", "check", "--module", "-"], inp["malformed"], 2, None),
            (["module", "homdim", "--free", "2", "3", "--algebra", "jspin3"], None, 0, fields(p=2, q=3, dim=6)),
            (["forms", "d2check", "--algebra", "jspin3", "--maxdeg", "1"], None, 0, fields(all_zero=True, forms_checked=4 + 3 * 4)),
            (["conn", "curvature", "--potential", "-"], inp["rand_pot"][0], 0, curvature_matches),
            (["conn", "flat", "--potential", "-"], inp["flat_pot"], 0, fields(flat=True)),
            (["conn", "innerflat", "--module", "-"], inp["antiherm"], 0, fields(flat=True)),
        ]

    def _invoke(self, rnd: Round, argv, stdin):
        if rnd.trace:
            cmd = [sys.executable, SHIM] + argv
        else:
            cmd = [sys.executable, "-m", "jordanium.cli"] + argv
        proc = subprocess.run(cmd, input=(stdin or "").encode(), capture_output=True, timeout=120)
        err = proc.stderr
        if rnd.trace:
            lines = err.decode(errors="replace").splitlines()
            for line in lines:
                if line.startswith(TRACE_TAG):
                    rnd.child_traces.append(json.loads(line[len(TRACE_TAG):]))
            err = "\n".join(l for l in lines if not l.startswith(TRACE_TAG)).encode()
        if b"Traceback (most recent call last)" in err:
            tail = err.decode(errors="replace").strip().splitlines()[-1]
            raise CliCrash("exit %d: %s" % (proc.returncode, tail))
        return proc.returncode, proc.stdout

    def run(self, inp: dict, rnd: Round) -> None:
        for argv, stdin, want_rc, check in self.invocations(inp):
            rnd.op(
                " ".join(argv[:2]),
                self._invoke,
                rnd,
                argv,
                stdin,
                check=lambda out, rc=want_rc, chk=check: cli_problems(out, rc, chk),
                stable=stable_report,
            )
            key = "cli.%s.%s.wall_s" % (argv[0], argv[1])
            rnd.layer_extra[key] = rnd.layer_extra.get(key, 0.0) + rnd.op_s[-1]

    def reference_times(self, rnd: Round, reps: int = 3) -> None:
        """cli.import_s and cli.python_s: medians of `reps` subprocesses."""
        for key, code in (("cli.import_s", "import jordanium.cli"), ("cli.python_s", "pass")):
            times = []
            for _ in range(reps):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
                times.append(perf_counter() - t0)
            rnd.layer_extra[key] = sorted(times)[reps // 2]


def cli_problems(out, want_rc: int, check) -> list[str]:
    """Exit code and report fields; out is (exit code, stdout bytes)."""
    rc, stdout = out
    if rc != want_rc:
        return ["exit %d, expected %d" % (rc, want_rc)]
    if check is None:
        return [] if not stdout else ["unexpected report on stdout"]
    return check(json.loads(stdout))


def stable_report(out) -> bytes:
    """Exit code and report bytes without timing_ms: the same in every round."""
    rc, stdout = out
    return b"%d\n" % rc + _TIMING.sub(b"", stdout)


WORKLOADS = {w.name: w for w in (ModuleOracle(), DerivationAlgebra(), Calculus(), CliReports())}
