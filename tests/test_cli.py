"""Command line interface: schemas, exit codes, pipelines, determinism."""

import copy
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanium.algebra import DENSE_ENTRY_CAP, algebra_dumps, algebra_loads, build_spin
from jordanium.cli import main
from jordanium.connections import gauge_potential, potential_to_dict
from jordanium.derivations import derivation_basis, structure_constants
from jordanium.linalg import Mat
from jordanium.modules import build_antihermitian, build_free, module_dumps

REPORT_KEYS = {"tool", "version", "command", "inputs_digest", "results", "timing_ms"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestReportEnvelope:
    def test_schema_and_pass(self, capsys):
        code, rep = report(capsys, "algebra", "check", "--algebra", "j13")
        assert code == 0
        assert set(rep) == REPORT_KEYS
        assert rep["tool"] == "jordanium"
        assert rep["command"] == "algebra check"
        assert rep["results"]["jordan"] is True
        assert isinstance(rep["timing_ms"], int)
        assert len(rep["inputs_digest"]) == 64

    def test_pretty_adds_stderr_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "--pretty", "algebra", "check", "--algebra", "jspin3"
        )
        assert code == 0
        assert out.startswith("{\n")
        assert "algebra check: pass" in err

    def test_digest_tracks_inputs(self, capsys):
        _, rep1 = report(capsys, "algebra", "check", "--algebra", "j13")
        _, rep2 = report(capsys, "algebra", "check", "--algebra", "jspin3")
        assert rep1["inputs_digest"] != rep2["inputs_digest"]


class TestAliases:
    @pytest.mark.parametrize(
        "alias,label,dim",
        [
            ("j13", "J1_3", 6),
            ("j22", "J2_2", 4),
            ("j42", "J4_2", 6),
            ("jspin2", "JSpin2", 3),
            ("jspin9", "JSpin9", 10),
            ("real", "R", 1),
        ],
    )
    def test_alias_resolves(self, capsys, alias, label, dim):
        code, rep = report(capsys, "algebra", "check", "--algebra", alias)
        assert code == 0
        assert rep["results"]["label"] == label
        assert rep["results"]["dim"] == dim

    def test_unknown_alias_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "check", "--algebra", "j99")
        assert code == 2
        assert err.strip()


class TestBuildCommands:
    def test_algebra_build_emits_wire_object(self, capsys):
        code, out, _ = run_cli(
            capsys, "algebra", "build", "--type", "herm", "--n", "3", "--level", "1"
        )
        assert code == 0
        d = json.loads(out)
        assert d["label"] == "J2_3"
        assert d["dim"] == 9
        assert "structure" in d

    def test_algebra_build_at_n_12_over_quaternions(self, capsys):
        code, out, _ = run_cli(
            capsys, "algebra", "build", "--type", "herm", "--n", "12", "--level", "2"
        )
        assert code == 0
        assert json.loads(out)["dim"] == 276

    def test_build_then_check_pipeline(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "algebra", "build", "--type", "herm", "--n", "2", "--level", "2"
        )
        f = tmp_path / "algebra.json"
        f.write_text(out)
        code, rep = report(capsys, "algebra", "check", "--algebra", str(f))
        assert code == 0
        assert rep["results"]["label"] == "J4_2"
        assert rep["results"]["jordan"] is True

    def test_sum_build(self, capsys):
        code, out, _ = run_cli(
            capsys, "algebra", "build", "--type", "sum", "--parts", "j12", "j12"
        )
        assert code == 0
        d = json.loads(out)
        assert d["dim"] == 6

    def test_module_build_and_check(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "module", "build", "--type", "clifford", "--n", "2"
        )
        f = tmp_path / "cl2.json"
        f.write_text(out)
        code, rep = report(capsys, "module", "check", "--module", str(f))
        assert code == 0
        assert rep["results"]["passed"] is True

    def test_module_build_free_needs_rank(self, capsys):
        code, _, err = run_cli(
            capsys, "module", "build", "--type", "free", "--algebra", "jspin2"
        )
        assert code == 2
        assert "rank" in err


class TestOutOfRangeInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["algebra", "build", "--type", "herm", "--n", "0", "--level", "1"],
            ["algebra", "build", "--type", "herm", "--n", "3", "--level", "9"],
            ["algebra", "build", "--type", "spin", "--n", "0"],
            ["der", "triality", "--count", "-1"],
        ],
    )
    def test_exits_2_without_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() and "Traceback" not in err


def _spin2_wire(**changes):
    """Wire dict of JSpin2 with some fields replaced."""
    d = json.loads(algebra_dumps(build_spin(2)))
    d.update(changes)
    return d


def _spin2_constant(value):
    """Wire dict of JSpin2 with its last structure constant, e2 e2 = 1 e0, replaced."""
    d = _spin2_wire()
    d["structure"][-1][3] = value
    return d


def _spin_wire(n):
    """Wire dict of the spin factor on R + R^n, written out directly."""
    structure = [[0, 0, 0, "1"]]
    for i in range(1, n + 1):
        structure += [[0, i, i, "1"], [i, i, 0, "1"]]
    return {"label": "JSpin%d" % n, "dim": n + 1, "unit": ["1"] + ["0"] * n, "structure": structure}


def _free_module_wire(entry_change=None, **changes):
    """Wire dict of the free rank-1 module over JSpin2, with one action
    entry (t, field, value) or some fields replaced."""
    d = json.loads(module_dumps(build_free(build_spin(2), 1)))
    if entry_change is not None:
        t, field, value = entry_change
        d["action"][t][field] = value
    d.update(changes)
    return d


def _module_by_label_wire(**changes):
    """Wire dict of a module over an algebra given by label, fields replaced."""
    d = {"label": "m", "algebra": "jspin2", "mdim": 0, "action": []}
    d.update(changes)
    return d


def _potential_wire(**changes):
    """Wire dict of a scalar potential over JSpin3, fields replaced."""
    d = {"algebra": "jspin3", "rank": 1, "center_dim": 1, "potential": [[["1"]], [["2"]], [["3"]]]}
    d.update(changes)
    return d


class TestMalformedInput:
    """A zero denominator, an out-of-range index, an unknown algebra label, a
    negative carrier dimension, an algebra with missing keys, a document that
    is not a JSON object, potential layers that do not match the center,
    ragged potential rows, a float or bool where an exact number belongs, and
    an algebra or module whose dense tensor is above the entry cap is
    unusable input: exit 2."""

    ZERO_DEN = _spin2_wire(structure=[[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 1, 0, "1/0"]])
    BAD_K = _spin2_wire(structure=[[0, 0, 0, "1"], [0, 1, 5, "1"], [1, 1, 0, "1"]])

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["algebra", "check", "--algebra", "-"], ZERO_DEN),
            (["module", "homdim", "--free", "1", "1", "--algebra", "-"], ZERO_DEN),
            (["der", "basis", "--algebra", "-"], ZERO_DEN),
            (["algebra", "check", "--algebra", "-"], BAD_K),
            (["module", "homdim", "--free", "1", "1", "--algebra", "-"], BAD_K),
            (["module", "check", "--module", "-"], _free_module_wire((0, 3, "1/0"))),
            (["module", "check", "--module", "-"], _free_module_wire((0, 2, 7))),
            (["module", "check", "--module", "-"], _free_module_wire((0, 0, 9))),
            (["module", "check", "--module", "-"], _free_module_wire((1, 1, -1))),
            (["module", "check", "--module", "-"], _module_by_label_wire(algebra="nosuch")),
            (["module", "check", "--module", "-"], _module_by_label_wire(mdim=-1)),
            (["conn", "curvature", "--potential", "-"], _potential_wire(algebra={"label": "x"})),
            (["conn", "curvature", "--potential", "-"], 5),
            (["conn", "curvature", "--potential", "-"], ["algebra"]),
            (["conn", "curvature", "--potential", "-"], _potential_wire(center_dim=0, potential=[[], [], []])),
            (["conn", "curvature", "--potential", "-"], _potential_wire(rank=2, potential=[[["1", "0"], ["0"]]] * 3)),
            (["algebra", "check", "--algebra", "-"], _spin2_constant(0.1)),
            (["algebra", "check", "--algebra", "-"], _spin2_constant(True)),
            (["algebra", "check", "--algebra", "-"], _spin2_wire(dim=3.7)),
            (["module", "check", "--module", "-"], _free_module_wire((0, 0, 0.5))),
            (["conn", "curvature", "--potential", "-"], _potential_wire(potential=[[[0.5]], [["2"]], [["3"]]])),
            (["module", "check", "--module", "-"], _module_by_label_wire(mdim=10**6)),
            (["algebra", "check", "--algebra", "-"], _spin_wire(2999)),
            (["conn", "curvature", "--potential", "-"], _potential_wire(rank=-1, potential=[])),
            (["conn", "flat", "--potential", "-"], _potential_wire(rank=-1, potential=[])),
            (["conn", "curvature", "--potential", "-"], _potential_wire(rank=100000, potential=[])),
            (["conn", "flat", "--potential", "-"], _potential_wire(rank=100000, potential=[])),
        ],
    )
    def test_exits_2_without_traceback(self, capsys, monkeypatch, argv, doc):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() and "Traceback" not in err

    @pytest.mark.parametrize("label", [[[1]], None, 3, {"x": 1}, True])
    @pytest.mark.parametrize(
        "argv, make, kind",
        [
            (["algebra", "check", "--algebra", "-"], lambda x: _spin2_wire(label=x), "algebra"),
            (["module", "check", "--module", "-"], lambda x: _module_by_label_wire(label=x), "module"),
            (["module", "check", "--module", "-"], lambda x: _free_module_wire(label=x), "module"),
            (["module", "check", "--module", "-"], lambda x: _free_module_wire(algebra=_spin2_wire(label=x)), "module"),
        ],
    )
    def test_label_that_is_not_a_string(self, capsys, monkeypatch, argv, make, kind, label):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make(label))))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "bad %s input" % kind in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--algebra", "--module", "--potential"])
    def test_json_nested_past_the_recursion_limit(self, capsys, monkeypatch, tmp_path, flag):
        # the decoder raises RecursionError here, not JSONDecodeError
        argv = {
            "--algebra": ["algebra", "check"],
            "--module": ["module", "check"],
            "--potential": ["conn", "curvature"],
        }[flag]
        f = tmp_path / "deep.json"
        f.write_text("[" * 100000)
        code, out, err = run_cli(capsys, *argv, flag, str(f))
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    def test_every_nesting_depth_near_the_limit(self, capsys, tmp_path):
        # a document the decoder still reads may be too deep to encode for
        # the inputs digest: every depth either reports or exits 2
        f = tmp_path / "deep.json"
        doc = json.dumps(_spin2_wire(extra=None))
        codes = set()
        for depth in range(sys.getrecursionlimit() - 400, sys.getrecursionlimit() + 1):
            f.write_text(doc.replace("null", "[" * depth + "]" * depth))
            code, _, err = run_cli(capsys, "algebra", "check", "--algebra", str(f))
            assert code in (0, 2) and "Traceback" not in err
            codes.add(code)
        assert codes == {0, 2}

    def test_zero_dimensional_module_is_valid(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_module_by_label_wire())))
        code, rep = report(capsys, "module", "check", "--module", "-")
        assert code == 0
        assert rep["results"]["mdim"] == 0
        assert rep["results"]["passed"] is True

    def test_derivations_of_zero_dimensional_algebra(self, capsys, monkeypatch):
        doc = {"label": "zero", "dim": 0, "unit": [], "structure": []}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, rep = report(capsys, "der", "basis", "--algebra", "-")
        assert code == 0
        assert rep["results"] == {"dim": 0, "label": "zero"}

    def test_potential_with_zero_denominator(self, capsys, tmp_path):
        der = derivation_basis(build_spin(3))
        d = potential_to_dict(gauge_potential(der, 1, [Mat.from_rows([[1]])] * der.dim))
        d["algebra"] = "jspin3"
        d["potential"][0][0][0] = "2/0"
        f = tmp_path / "pot.json"
        f.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "conn", "curvature", "--potential", str(f))
        assert code == 2
        assert "Traceback" not in err


def _paths(doc, prefix=()):
    """Every position in a JSON document, as the keys and indices leading to it."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


# each wire document with the subcommands that read it from stdin
_FUZZ_CASES = [
    (
        _spin2_wire(),
        [
            ["algebra", "check", "--algebra", "-"],
            ["der", "basis", "--algebra", "-"],
            ["der", "inner", "--algebra", "-"],
            ["module", "homdim", "--free", "1", "1", "--algebra", "-"],
        ],
    ),
    (
        json.loads(module_dumps(build_free(build_spin(2), 1))),
        [["module", "check", "--module", "-"], ["conn", "innerflat", "--module", "-"]],
    ),
    (_potential_wire(), [["conn", "curvature", "--potential", "-"], ["conn", "flat", "--potential", "-"]]),
]
_FUZZ_VALUES = [None, 0.5, True, "1/0", [[1, 2], [3]], 10**30, -(10**30), -1, 100000, "x", {}, []]


@st.composite
def _mutated_inputs(draw):
    """(argv, stdin): a wire document cut short, or with one to three fields
    replaced by a value of another type or an out-of-range number."""
    doc, commands = draw(st.sampled_from(_FUZZ_CASES))
    argv = draw(st.sampled_from(commands))
    if draw(st.booleans()):
        text = json.dumps(doc)
        return argv, text[: draw(st.integers(0, len(text) - 1))]
    for _ in range(draw(st.integers(1, 3))):
        doc = _replaced(doc, draw(st.sampled_from(list(_paths(doc)))), draw(st.sampled_from(_FUZZ_VALUES)))
    return argv, json.dumps(doc)


class TestFuzzedInput:
    @given(_mutated_inputs())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_contract(self, case):
        argv, text = case
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""


class TestHomSystemCap:
    def test_oversized_hom_system_exits_2_before_allocating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("hom_basis called above the cap")

        monkeypatch.setattr("jordanium.cli.hom_basis", refuse)
        # free 2 -> 2 over the Albert algebra: 27 * 2916**2 entries
        argv = ["module", "homdim", "--free", "2", "2", "--algebra", "albert"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert str(27 * 2916**2) in err

    def test_albert_one_to_one_is_under_the_cap(self):
        assert 27 * 729**2 <= DENSE_ENTRY_CAP


def _run_with_address_cap(argv):
    """The CLI in a child process whose address space is capped at 1.5 GB, so
    an unguarded oversized allocation fails at once, in the child."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

    env = dict(os.environ, JORDANIUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "jordanium.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=300,
        check=False,
    )


class TestBuildSizeCap:
    @pytest.mark.parametrize(
        "argv, entries",
        [
            # dim**2 (dim + 1) / 2 structure constants, dim = n + 1
            (["algebra", "build", "--type", "spin", "--n", "3000"], 3001**2 * 3002 // 2),
            (["algebra", "build", "--type", "spin", "--n", "341"], 342**2 * 343 // 2),
            # dim = n + n (n - 1) / 2 * 2**level = 45150
            (["algebra", "build", "--type", "herm", "--n", "300", "--level", "0"], 45150**2 * 45151 // 2),
            # the action tensor: dim * (rank * dim)**2
            (["module", "build", "--type", "free", "--algebra", "albert", "--rank", "400"], 27 * 10800**2),
            (["module", "build", "--type", "antiherm", "--n", "300", "--level", "0"], 45150**2 * 45151 // 2),
            # hermitian dim 276 (10,550,976 structure constants), carrier 300
            (["module", "build", "--type", "antiherm", "--n", "12", "--level", "2"], 276 * 300**2),
        ],
    )
    def test_oversized_builds_exit_2_before_allocating(self, argv, entries):
        proc = _run_with_address_cap(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "%d entries, above the cap" % entries in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_largest_spin_factor_under_the_cap(self):
        assert 341**2 * 342 // 2 <= DENSE_ENTRY_CAP < 342**2 * 343 // 2


class TestDerivationCommands:
    def test_basis_dim(self, capsys):
        code, rep = report(capsys, "der", "basis", "--algebra", "j23")
        assert code == 0
        assert rep["results"]["dim"] == 8

    def test_inner_span(self, capsys):
        code, rep = report(capsys, "der", "inner", "--algebra", "j13")
        assert code == 0
        assert rep["results"]["spans_derivations"] is True

    def test_d4_on_small_algebra_reports_dim(self, capsys):
        code, rep = report(capsys, "der", "d4", "--algebra", "j13")
        assert code == 0
        assert "dim" in rep["results"]

    def test_triality_samples(self, capsys):
        code, rep = report(capsys, "der", "triality", "--seed", "3", "--count", "2")
        assert code == 0
        assert rep["results"]["residual_zero"] is True


class TestFormsCommand:
    def test_d2check_passes(self, capsys):
        code, rep = report(capsys, "forms", "d2check", "--algebra", "jspin3")
        assert code == 0
        assert rep["results"]["all_zero"] is True

    def test_maxdeg_capped(self, capsys):
        code, _, err = run_cli(
            capsys, "forms", "d2check", "--algebra", "jspin3", "--maxdeg", "2"
        )
        assert code == 2
        assert err.strip()


class TestConnectionCommands:
    @staticmethod
    def _write_scalar_potential(tmp_path, vals):
        der = derivation_basis(build_spin(3))
        a = gauge_potential(der, 1, [Mat.from_rows([[v]]) for v in vals])
        d = potential_to_dict(a)
        d["algebra"] = "jspin3"
        f = tmp_path / "pot.json"
        f.write_text(json.dumps(d))
        return f

    def test_zero_potential_is_flat(self, capsys, tmp_path):
        f = self._write_scalar_potential(tmp_path, [Fraction(0)] * 3)
        code, rep = report(capsys, "conn", "flat", "--potential", str(f))
        assert code == 0
        assert rep["results"]["flat"] is True

    def test_curved_potential_fails_flat(self, capsys, tmp_path):
        f = self._write_scalar_potential(
            tmp_path, [Fraction(1), Fraction(2), Fraction(3)]
        )
        code, rep = report(capsys, "conn", "flat", "--potential", str(f))
        assert code == 1
        assert rep["results"]["flat"] is False

    def test_curvature_report_is_informational(self, capsys, tmp_path):
        # same curved input, but the report command succeeds and shows matrices
        f = self._write_scalar_potential(
            tmp_path, [Fraction(1), Fraction(2), Fraction(3)]
        )
        code, rep = report(capsys, "conn", "curvature", "--potential", str(f), "--full")
        assert code == 0
        assert rep["results"]["flat"] is False
        assert any("matrix" in p for p in rep["results"]["pairs"])

    def test_adjoint_potential_flat(self, capsys, tmp_path):
        der = derivation_basis(build_spin(3))
        b = structure_constants(der)
        mats = [
            Mat.from_rows(
                [[b[mu][i][j] for i in range(der.dim)] for j in range(der.dim)]
            )
            for mu in range(der.dim)
        ]
        d = potential_to_dict(gauge_potential(der, der.dim, mats))
        d["algebra"] = "jspin3"
        f = tmp_path / "adj.json"
        f.write_text(json.dumps(d))
        code, rep = report(capsys, "conn", "flat", "--potential", str(f))
        assert code == 0
        assert rep["results"]["flat"] is True

    def test_innerflat_from_built_module(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "module", "build", "--type", "antiherm", "--n", "2", "--level", "1"
        )
        f = tmp_path / "a22.json"
        f.write_text(out)
        code, rep = report(capsys, "conn", "innerflat", "--module", str(f))
        assert code == 0
        assert rep["results"]["flat"] is True

    def test_malformed_potential_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run_cli(capsys, "conn", "flat", "--potential", str(f))
        assert code == 2
        assert "malformed" in err


class TestErrorPaths:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "algebra", "check", "--algebra", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert err.strip()

    def test_corrupt_algebra_fails_check(self, capsys, tmp_path):
        # a wire file that parses but is not a Jordan algebra: exit 1
        _, out, _ = run_cli(
            capsys, "algebra", "build", "--type", "herm", "--n", "3", "--level", "0"
        )
        d = json.loads(out)
        bad = []
        for i, j, k, v in d["structure"]:
            if (i, j) in ((3, 4), (4, 3)):
                num, _, den = v.partition("/")
                v = "%d/%d" % (int(num) * 3 + 1, 3 * int(den or 1))
            bad.append([i, j, k, v])
        f = tmp_path / "corrupt.json"
        f.write_text(json.dumps(dict(d, structure=bad)))
        code, rep = report(capsys, "algebra", "check", "--algebra", str(f))
        assert code == 1
        assert rep["results"]["jordan"] is False


def _big_spin_file(tmp_path, n, entry):
    """Wire file of the spin factor on R + R^n whose form is entry * identity."""
    structure = [[0, 0, 0, "1"]]
    for i in range(1, n + 1):
        structure += [[0, i, i, "1"], [i, i, 0, str(entry)]]
    d = {"label": "JSpin%d(big)" % n, "dim": n + 1, "unit": ["1"] + ["0"] * n, "structure": structure}
    f = tmp_path / "big.json"
    f.write_text(json.dumps(d))
    return str(f)


class TestLargeEntries:
    """Form entries beyond the float kernels' bounds still get exact verdicts."""

    def test_center_of_spin_factor_with_2_45_entries(self, capsys, tmp_path):
        f = _big_spin_file(tmp_path, 5, 2**45)
        code, rep = report(capsys, "algebra", "check", "--algebra", f)
        assert code == 0
        assert rep["results"]["jordan"] is True
        assert rep["results"]["center_dim"] == 1

    def test_derivations_of_spin_factor_with_2_45_entries(self, capsys, tmp_path):
        # Der(JSpin9) = so(9), of dimension 36
        f = _big_spin_file(tmp_path, 9, 2**45)
        code, rep = report(capsys, "der", "basis", "--algebra", f)
        assert code == 0
        assert rep["results"]["dim"] == 36

    def test_inner_derivations_of_spin_factor_with_2_45_entries(self, capsys, tmp_path):
        f = _big_spin_file(tmp_path, 3, 2**45)
        code, rep = report(capsys, "der", "inner", "--algebra", f)
        assert code == 0
        assert rep["results"]["derivation_dim"] == 3
        assert rep["results"]["spans_derivations"] is True

    def test_module_check_of_free_module_with_2_45_entries(self, capsys, tmp_path):
        # both identities are decided by exact integer sums, so the genuine
        # modules pass both oracles; over JSpin5 with 2 * 10**7 entries the
        # Jordan sums of the split null extension are past int64
        for n, entry in ((3, 2**45), (5, 2 * 10**7)):
            a = algebra_loads(Path(_big_spin_file(tmp_path, n, entry)).read_text())
            f = tmp_path / "module.json"
            f.write_text(module_dumps(build_free(a, 1)))
            code, rep = report(capsys, "module", "check", "--module", str(f))
            assert code == 0
            assert rep["results"]["passed"] is True
            assert rep["results"]["oracles_agree"] is True

    def test_homdim_with_a_2_63_entry(self, capsys, tmp_path):
        # endomorphisms of the free rank-1 module of a simple algebra: its center
        f = _big_spin_file(tmp_path, 2, 2**63)
        code, rep = report(capsys, "module", "homdim", "--free", "1", "1", "--algebra", f)
        assert code == 0
        assert rep["results"]["dim"] == 1


class TestRepeatedEntries:
    """A wire constant given twice at one (i, j, k) is the sum of the two,
    in the products and in the integer tensor every check reads."""

    DOC = {"label": "rep", "dim": 1, "unit": ["1"], "structure": [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"]]}

    def test_build_and_check_report_the_summed_algebra(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.DOC)))
        code, out, _ = run_cli(capsys, "algebra", "build", "--type", "sum", "--parts", "-", "real")
        assert code == 0
        assert json.loads(out)["structure"] == [[0, 0, 0, "1"], [1, 1, 1, "1"]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.DOC)))
        code, rep = report(capsys, "algebra", "check", "--algebra", "-")
        assert code == 0
        assert rep["results"]["jordan"] is True and rep["results"]["center_dim"] == 1

    def test_int_tensor_agrees_with_the_products(self):
        a = algebra_loads(json.dumps(self.DOC))
        assert a.basis_product(0, 0) == (Fraction(1),)
        c, s = a.int_tensor()
        assert c.tolist() == [[[1]]] and s == 1

    @staticmethod
    def _module(*values):
        return {"label": "rep", "algebra": "real", "mdim": 1, "action": [[0, 0, 0, v] for v in values]}

    def test_module_entries_are_added(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self._module("1/2", "1/2"))))
        code, rep = report(capsys, "module", "check", "--module", "-")
        assert code == 0
        assert rep["results"]["passed"] is True

    def test_module_entries_summing_past_the_unit_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self._module("3", "1"))))
        code, out, err = run_cli(capsys, "module", "check", "--module", "-")
        assert code == 2
        assert out == ""
        assert "unit does not act as the identity" in err


def test_too_large_to_check_exactly_exits_2(capsys, tmp_path):
    # dimension 46 with 2**45 entries once had no exact Jordan check; the
    # sparse kernel sums past int64 in object dtype, so it now gets a verdict
    f = _big_spin_file(tmp_path, 45, 2**45)
    code, rep = report(capsys, "algebra", "check", "--algebra", f)
    assert code == 0
    assert rep["results"]["jordan"] is True
    assert rep["results"]["center_dim"] == 1


def _canonical_run(cmd, threads, flags=()):
    env = dict(os.environ, JORDANIUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "jordanium.cli"] + cmd,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    d.pop("timing_ms")
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


class TestDeterminism:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["der", "basis", "--algebra", "j23"],
            ["algebra", "check", "--algebra", "jspin4"],
            ["der", "inner", "--algebra", "j13"],
        ],
    )
    def test_reports_stable_across_runs_and_threads(self, cmd):
        first = _canonical_run(cmd, 1)
        assert _canonical_run(cmd, 1) == first
        assert _canonical_run(cmd, 8) == first


class TestOptimizedInterpreter:
    def test_reports_equal_under_python_O(self, tmp_path):
        # python -O strips assert statements; exactness checks must not be asserts
        mod = tmp_path / "antiherm.json"
        mod.write_text(module_dumps(build_antihermitian(2, 1)))
        for cmd in (
            ["forms", "d2check", "--algebra", "j23", "--maxdeg", "1"],
            ["conn", "innerflat", "--module", str(mod)],
        ):
            assert _canonical_run(cmd, 1, ("-O",)) == _canonical_run(cmd, 1)
