"""Batch command-line surface; every subcommand prints one JSON document.

Reports are deterministic for identical inputs apart from the timing_ms
field: keys are sorted and all mathematical payloads are exact rationals.
Build subcommands emit the object wire format itself so they can be piped
into the matching check subcommand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from itertools import combinations
from typing import Optional

from . import __version__
from .algebra import (
    AlgebraPresentation,
    algebra_dumps,
    algebra_from_dict,
    algebra_to_dict,
    build_hermitian,
    build_real,
    build_spin,
    center_basis,
    check_jordan,
    direct_sum,
    refuse_above_cap,
)
from .connections import (
    Connection,
    base_connection,
    curvature,
    curvature_report,
    inner_connection,
    potential_from_dict,
    with_potential,
)
from .derivations import (
    annihilator_subalgebra,
    complete_triality,
    derivation_basis,
    derivation_from_triality,
    inner_span_report,
    is_block_diagonal_for_slots,
    octonion_slot_block,
    random_so8,
    triality_defect,
)
from .forms import DerForm, d_der
from .modules import (
    build_antihermitian,
    build_clifford,
    build_free,
    check_module,
    hom_basis,
    module_dumps,
    module_from_dict,
    module_to_dict,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# input resolution


def _alias_builders():
    table = {
        "albert": lambda: build_hermitian(3, 3),
        "real": build_real,
    }
    for n in range(1, 5):
        for level in range(0, 4):
            if level == 3 and n != 3:
                continue
            name = "j%d%d" % (2**level, n)
            table[name] = lambda n=n, level=level: build_hermitian(n, level)
    for n in range(2, 10):
        table["jspin%d" % n] = lambda n=n: build_spin(n)
    return table


_ALIASES = _alias_builders()


def _algebra_by_label(label: str) -> Optional[AlgebraPresentation]:
    key = label.lower().replace("_", "")
    if key in _ALIASES:
        return _ALIASES[key]()
    return None


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (value, e))


def _parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError("malformed JSON input: %s" % e)
    except RecursionError:
        raise UsageError("JSON input is nested too deeply")
    if not isinstance(doc, dict):
        raise UsageError("JSON input must be an object, not %s" % type(doc).__name__)
    return doc


def resolve_algebra(value: Optional[str]) -> tuple[AlgebraPresentation, dict]:
    """Alias, file path, or '-' for stdin; returns the algebra and its dict."""
    if value is None:
        value = "-"
    built = _algebra_by_label(value)
    if built is not None:
        return built, algebra_to_dict(built)
    d = _parse_json(_read_source(value))
    try:
        return algebra_from_dict(d), d
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError("bad algebra input: %s" % e)


def resolve_module(value: Optional[str]):
    if value is None:
        value = "-"
    d = _parse_json(_read_source(value))
    try:
        mod = module_from_dict(d, algebra_lookup=_algebra_by_label)
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError("bad module input: %s" % e)
    return mod, d


# ---------------------------------------------------------------------------
# report plumbing


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_report(args, command: str, inputs, results: dict, ok: bool) -> int:
    try:
        digest = hashlib.sha256(_canonical(inputs).encode("utf-8")).hexdigest()
    except RecursionError:  # input the decoder read just under its limit
        raise UsageError("JSON input is nested too deeply")
    report = {
        "tool": "jordanium",
        "version": __version__,
        "command": command,
        "inputs_digest": digest,
        "results": results,
        "timing_ms": int((time.monotonic() - args._t0) * 1000),
    }
    if args.pretty:
        print(json.dumps(report, sort_keys=True, indent=2))
        print("%s: %s" % (command, "pass" if ok else "FAIL"), file=sys.stderr)
    else:
        print(_canonical(report))
    return 0 if ok else 1


def _emit_object(args, text_pretty: str, text_plain: str) -> int:
    print(text_pretty if args.pretty else text_plain, end="")
    if not (args.pretty and text_pretty.endswith("\n")) and not text_plain.endswith("\n"):
        print()
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _refuse_above_cap(what: str, entries: int) -> None:
    """UsageError when a dense array of that many entries is above the cap,
    checked before anything is allocated."""
    try:
        refuse_above_cap(what, entries)
    except ValueError as e:
        raise UsageError(str(e))


def _hermitian_dim(n: int, level: int) -> int:
    return n + n * (n - 1) // 2 * 2**level


def _refuse_algebra_above_cap(what: str, dim: int) -> None:
    # the builders fill a dense dim**3 tensor; the cap counts its dim**2 (dim + 1) / 2
    # independent entries, the products e_i e_j for i <= j of a commutative algebra
    _refuse_above_cap("the structure of " + what, dim * dim * (dim + 1) // 2)


def cmd_algebra_build(args) -> int:
    if args.type == "herm":
        if args.n is None or args.level is None:
            raise UsageError("--type herm needs --n and --level")
        # levels outside 0..3 are refused by the builder
        dim = _hermitian_dim(args.n, min(max(args.level, 0), 3))
        _refuse_algebra_above_cap("the hermitian algebra", dim)
        try:
            a = build_hermitian(args.n, args.level)
        except ValueError as e:
            raise UsageError(str(e))
    elif args.type == "spin":
        if args.n is None:
            raise UsageError("--type spin needs --n")
        _refuse_algebra_above_cap("the spin factor", args.n + 1)
        try:
            a = build_spin(args.n)
        except ValueError as e:
            raise UsageError(str(e))
    else:
        if not args.parts or len(args.parts) < 2:
            raise UsageError("--type sum needs at least two --parts")
        parts = [resolve_algebra(p)[0] for p in args.parts]
        a = parts[0]
        for b in parts[1:]:
            a = direct_sum(a, b)
    return _emit_object(args, algebra_dumps(a, pretty=True), algebra_dumps(a))


def cmd_algebra_check(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    verdict = check_jordan(a)
    zdim = len(center_basis(a))
    results = {
        "label": a.label,
        "dim": a.dim,
        "jordan": verdict.passed,
        "witness": list(verdict.witness_triple) if verdict.witness_triple else None,
        "center_dim": zdim,
    }
    return _emit_report(args, "algebra check", {"algebra": adict}, results, verdict.passed)


def cmd_der_basis(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    der = derivation_basis(a)
    results = {"label": a.label, "dim": der.dim}
    return _emit_report(args, "der basis", {"algebra": adict}, results, True)


def cmd_der_inner(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    report = inner_span_report(a)
    ok = bool(report["spans_derivations"])
    return _emit_report(args, "der inner", {"algebra": adict}, report, ok)


def cmd_der_d4(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    der = derivation_basis(a)
    try:
        sub = annihilator_subalgebra(der)
    except ValueError as e:
        raise UsageError(str(e))
    results = {"label": a.label, "derivation_dim": der.dim, "dim": len(sub)}
    ok = True
    if a.dim == 27:
        blocks_ok = all(is_block_diagonal_for_slots(x) for x in sub)
        tri_ok = blocks_ok
        if blocks_ok:
            for x in sub:
                b1 = octonion_slot_block(x, 0)
                b2, b3 = complete_triality(b1)
                if octonion_slot_block(x, 1) != b2 or octonion_slot_block(x, 2) != b3:
                    tri_ok = False
                    break
        results["block_diagonal"] = blocks_ok
        results["triality_consistent"] = tri_ok
        ok = blocks_ok and tri_ok
    return _emit_report(args, "der d4", {"algebra": adict}, results, ok)


def cmd_der_triality(args) -> int:
    rng = random.Random(args.seed)
    count = args.count
    if count < 0:
        raise UsageError("--count must be >= 0")
    ok = True
    for _ in range(count):
        d1 = random_so8(rng)
        d2, d3 = complete_triality(d1)
        if triality_defect(d1, d2, d3) is not None:
            ok = False
            break
        # the assembled operator must be a derivation of the 27-dim algebra
        derivation_from_triality(d1)
    results = {"count": count, "seed": args.seed, "residual_zero": ok}
    return _emit_report(
        args, "der triality", {"count": count, "seed": args.seed}, results, ok
    )


def cmd_module_build(args) -> int:
    if args.type == "free":
        a, _ = resolve_algebra(args.algebra)
        if args.rank is None or args.rank < 1:
            raise UsageError("--type free needs --rank >= 1")
        _refuse_above_cap("the action tensor of the free module", a.dim * (args.rank * a.dim) ** 2)
        mod = build_free(a, args.rank)
    elif args.type == "antiherm":
        if args.n is None or args.level is None:
            raise UsageError("--type antiherm needs --n and --level")
        # levels outside 0..2 are refused by the builder
        level = min(max(args.level, 0), 2)
        herm = _hermitian_dim(args.n, level)
        anti = args.n * (2**level - 1) + args.n * (args.n - 1) // 2 * 2**level
        _refuse_algebra_above_cap("the hermitian algebra", herm)
        _refuse_above_cap("the action tensor of the antihermitian module", herm * anti**2)
        try:
            mod = build_antihermitian(args.n, args.level)
        except ValueError as e:
            raise UsageError(str(e))
    else:
        if args.n is None:
            raise UsageError("--type clifford needs --n")
        try:
            mod = build_clifford(args.n)
        except ValueError as e:
            raise UsageError(str(e))
    return _emit_object(args, module_dumps(mod, pretty=True), module_dumps(mod))


def cmd_module_check(args) -> int:
    mod, mdict = resolve_module(args.module)
    verdict = check_module(mod)
    ext = verdict.extension_verdict
    results = {
        "label": mod.label,
        "mdim": mod.mdim,
        "passed": verdict.passed,
        "oracles_agree": verdict.oracles_agree,
        "extension_witness": list(ext.witness_triple) if ext.witness_triple else None,
        "operator_witness": list(verdict.operator_witness)
        if verdict.operator_witness
        else None,
    }
    return _emit_report(args, "module check", {"module": mdict}, results, verdict.passed)


def cmd_module_homdim(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    p, q = args.free
    if p < 1 or q < 1:
        raise UsageError("ranks must be positive")
    # hom_basis builds an (n Q P) x (Q P) integer system, for module dimensions
    # P = p n, Q = q n; free 1 -> 1 over the Albert algebra has 1.4 * 10**7 entries
    _refuse_above_cap("the hom system", a.dim * (p * a.dim * q * a.dim) ** 2)
    homs = hom_basis(build_free(a, p), build_free(a, q))
    results = {"label": a.label, "p": p, "q": q, "dim": len(homs)}
    return _emit_report(
        args, "module homdim", {"algebra": adict, "free": [p, q]}, results, True
    )


def cmd_forms_d2check(args) -> int:
    a, adict = resolve_algebra(args.algebra)
    if not 0 <= args.maxdeg <= 1:
        raise UsageError("--maxdeg must be 0 or 1: d^2 needs two degrees of room")
    der = derivation_basis(a)
    checked = 0
    failure = None
    for deg in range(0, args.maxdeg + 1):
        for key in combinations(range(der.dim), deg):
            for i in range(a.dim):
                w = DerForm(der, deg, {key: a.basis_element(i)})
                checked += 1
                if not d_der(d_der(w)).is_zero():
                    failure = {"degree": deg, "key": list(key), "basis": i}
                    break
            if failure:
                break
        if failure:
            break
    results = {
        "label": a.label,
        "max_degree": args.maxdeg,
        "forms_checked": checked,
        "all_zero": failure is None,
    }
    if failure:
        results["first_failure"] = failure
    return _emit_report(
        args,
        "forms d2check",
        {"algebra": adict, "maxdeg": args.maxdeg},
        results,
        failure is None,
    )


def _connection_from_potential_file(args) -> tuple[Connection, dict]:
    d = _parse_json(_read_source(args.potential))
    if "algebra" not in d:
        raise UsageError("potential file needs an 'algebra' entry")
    spec = d["algebra"]
    if isinstance(spec, str):
        a = _algebra_by_label(spec)
        if a is None:
            raise UsageError("unknown algebra alias %r" % spec)
    else:
        try:
            a = algebra_from_dict(spec)
        except (KeyError, ValueError, TypeError) as e:
            raise UsageError("bad algebra input: %s" % e)
    try:
        pot = potential_from_dict(d)
        # the free module of that rank has n (p n)**2 action entries
        refuse_above_cap("the free module of rank %d" % pot.rank, a.dim * (pot.rank * a.dim) ** 2)
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError("bad potential input: %s" % e)
    der = derivation_basis(a)
    mod = build_free(a, pot.rank)
    c0 = base_connection(der, mod)
    try:
        conn = with_potential(c0, pot)
    except ValueError as e:
        raise UsageError("potential does not define a connection: %s" % e)
    return conn, d


def cmd_conn_curvature(args) -> int:
    conn, d = _connection_from_potential_file(args)
    rep = curvature_report(curvature(conn), full=args.full)
    rep["label"] = conn.der.algebra.label
    return _emit_report(args, "conn curvature", {"potential": d}, rep, True)


def cmd_conn_flat(args) -> int:
    conn, d = _connection_from_potential_file(args)
    rep = curvature_report(curvature(conn), full=False)
    rep["label"] = conn.der.algebra.label
    return _emit_report(args, "conn flat", {"potential": d}, rep, bool(rep["flat"]))


def cmd_conn_innerflat(args) -> int:
    mod, mdict = resolve_module(args.module)
    der = derivation_basis(mod.algebra)
    try:
        conn = inner_connection(der, mod)
    except ValueError as e:
        raise UsageError(str(e))
    rep = curvature_report(curvature(conn), full=False)
    rep["label"] = mod.label
    return _emit_report(args, "conn innerflat", {"module": mdict}, rep, bool(rep["flat"]))


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jordanium",
        description="Exact computations on Jordan algebras, modules and connections.",
    )
    ap.add_argument("--pretty", action="store_true", help="indent JSON, summary on stderr")
    sub = ap.add_subparsers(dest="group", required=True)

    g = sub.add_parser("algebra").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("build")
    p.add_argument("--type", choices=["herm", "spin", "sum"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--parts", nargs="*")
    p.set_defaults(func=cmd_algebra_build)
    p = g.add_parser("check")
    p.add_argument("--algebra", help="alias, file, or - for stdin")
    p.set_defaults(func=cmd_algebra_check)

    g = sub.add_parser("der").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("basis")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_der_basis)
    p = g.add_parser("inner")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_der_inner)
    p = g.add_parser("d4")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_der_d4)
    p = g.add_parser("triality")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_der_triality)

    g = sub.add_parser("module").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("build")
    p.add_argument("--type", choices=["free", "antiherm", "clifford"], required=True)
    p.add_argument("--algebra")
    p.add_argument("--rank", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--level", type=int)
    p.set_defaults(func=cmd_module_build)
    p = g.add_parser("check")
    p.add_argument("--module", help="file or - for stdin")
    p.set_defaults(func=cmd_module_check)
    p = g.add_parser("homdim")
    p.add_argument("--free", nargs=2, type=int, required=True, metavar=("P", "Q"))
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_module_homdim)

    g = sub.add_parser("forms").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("d2check")
    p.add_argument("--algebra", required=True)
    p.add_argument("--maxdeg", type=int, default=1)
    p.set_defaults(func=cmd_forms_d2check)

    g = sub.add_parser("conn").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("curvature")
    p.add_argument("--potential", required=True, help="file or - for stdin")
    p.add_argument("--full", action="store_true", help="include curvature matrices")
    p.set_defaults(func=cmd_conn_curvature)
    p = g.add_parser("flat")
    p.add_argument("--potential", required=True)
    p.set_defaults(func=cmd_conn_flat)
    p = g.add_parser("innerflat")
    p.add_argument("--module", required=True, help="module JSON file or - for stdin")
    p.set_defaults(func=cmd_conn_innerflat)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main())
