"""Command-line surface: validate, classify, strictify, pullback, induce.

Every command prints one canonical JSON report to stdout and uses exit
codes 0 (all checks pass), 1 (a check fails, or is undecided under
--strict), 2 (usage or parse errors).  A command loads each document once:
its `loaded` dict hands every later load of the same file (by device and
inode) and cap the value parsed and certified first.

`main(argv)` may be called repeatedly in one process.  It builds the
argument parser at its first call, not at import, and keeps it; each call
dispatches by command name to the module's `cmd_<command>` as bound then.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional

from .core import (
    AInftyError,
    CheckReport,
    check_F1,
    check_isofibration,
    check_quasi_equivalence,
    combined_verdict,
    kernel_acyclicity,
)
from .fields import Field, FieldError
from .documents import (
    DocumentError,
    RawCertificates,
    _load_once,
    _read_document,
    load_certificates,
    load_functor,
    parse_category,
    parse_functor,
    serialize_category,
    serialize_functor,
)
from .pullback import build_pullback, certify_fibration_closure, induce_functor
from .strictify import strictify


def _report_json(command: str, checks: Dict[str, CheckReport],
                 extra: Optional[dict] = None) -> dict:
    payload = {
        "command": command,
        "checks": {
            name: {
                "verdict": rep.verdict,
                "witnesses": list(rep.witnesses),
                "details": rep.details,
            }
            for name, rep in checks.items()
        },
    }
    payload["overall"] = combined_verdict(rep.verdict for rep in checks.values())
    if extra:
        payload.update(extra)
    return payload


def _finish(payload: dict, strict: bool) -> int:
    print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    if payload["overall"] == "fail":
        return 1
    if payload["overall"] == "undecided" and strict:
        return 1
    return 0


def _load_any(path: str, cap: Optional[int], loaded: dict):
    text = _read_document(path)
    head = (text.splitlines() or [""])[0].strip()
    if head == "acat":
        return "category", _load_once(loaded, head, path, cap,
                                      lambda: parse_category(text, path, cap))
    if head == "afun":
        return "functor", _load_once(loaded, head, path, cap, lambda: parse_functor(
            text, path, cap=cap, loaded=loaded)).functor
    raise DocumentError(path, 1, f"unknown document header {head!r}")


def _expected_field(args):
    name = getattr(args, "field", None)
    if name is None:
        return None
    if name == "Q":
        return Field.rationals()
    if getattr(args, "p", None) is None:
        raise DocumentError("<args>", 0, "--field Fp needs --p <prime>")
    try:
        return Field.prime(args.p)
    except FieldError as exc:
        raise DocumentError("<args>", 0, str(exc)) from exc


def _check_field(args, path: str, fld) -> None:
    want = _expected_field(args)
    if want is not None and fld != want:
        raise DocumentError(path, 1,
                            f"document field {fld.kind} does not match --field")


def _ref_path(doc_path: str, ref: str) -> str:
    """A path named inside a functor document, made absolute; relative
    paths are read from the document's directory."""
    return os.path.abspath(os.path.join(os.path.dirname(doc_path), ref))


def _write(out_dir: str, files: Dict[str, str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    _expected_field(args)   # a bad --field/--p is a usage error, not a failed document
    checks: Dict[str, CheckReport] = {}
    loaded: dict = {}
    for path in args.paths:
        try:
            kind, value = _load_any(path, args.max_arity, loaded)
            fld = value.fld if kind == "category" else value.source.fld
            _check_field(args, path, fld)
            details = {"kind": kind, "arity_bound": value.arity_bound,
                       "total": value.total}
            checks[path] = CheckReport("pass", [], details)
        except (DocumentError, AInftyError, OSError) as exc:
            checks[path] = CheckReport("fail", [str(exc)])
    return _finish(_report_json("validate", checks), args.strict)


def _certs(args) -> RawCertificates:
    if getattr(args, "certificates", None):
        return load_certificates(args.certificates)
    return RawCertificates()


def _f1_report(f1) -> CheckReport:
    """check_F1's verdict, the kernel dimension of each pair split, and on
    a failure the first pair and degree where F1 is not onto."""
    return CheckReport(
        "pass" if f1.passed else "fail",
        [] if f1.passed else [f"pair {f1.failure[0]}, degree {f1.failure[1]}"],
        {"kernel_dims": {f"{x},{y}": s.kernel.dim
                         for (x, y), s in f1.splits.items()}})


def cmd_classify(args) -> int:
    doc = load_functor(args.functor, args.max_arity, loaded={})
    functor = doc.functor
    _check_field(args, args.functor, functor.source.fld)
    certs = _certs(args)
    tags = set(certs.isolifts) | set(certs.essentials) or {"self"}
    tag = "self" if "self" in tags else sorted(tags)[0]
    f1 = check_F1(functor)
    checks: Dict[str, CheckReport] = {"f1": _f1_report(f1)}
    essentials = None
    if functor.source.units is not None and functor.target.units is not None:
        checks["f2_isofibration"] = check_isofibration(
            functor, certs.resolve_isolifts(tag, functor))
        essentials = certs.resolve_essentials(tag, functor)
    else:
        checks["f2_isofibration"] = CheckReport("undecided", ["units required"])
    checks["quasi_equivalence"] = check_quasi_equivalence(functor, essentials)
    if f1.passed:
        checks["kernel_acyclicity"] = kernel_acyclicity(functor)
    extra = {"arity_bound": functor.arity_bound, "total": functor.total}
    return _finish(_report_json("classify", checks, extra), args.strict)


def cmd_strictify(args) -> int:
    doc = load_functor(args.functor, loaded={})
    functor = doc.functor
    _check_field(args, args.functor, functor.source.fld)
    s = strictify(functor, max_arity=args.max_arity)
    target_abs = _ref_path(args.functor, doc.target_path)
    source_abs = _ref_path(args.functor, doc.source_path)
    _write(args.out, {
        "model.acat": serialize_category(s.transported),
        "projection.afun": serialize_functor(s.projection, "model.acat", target_abs),
        "phi.afun": serialize_functor(s.phi_functor, source_abs, "model.acat"),
        "psi.afun": serialize_functor(s.psi_functor, "model.acat", source_abs)})
    check = CheckReport.derived("strictify.conjugation",
                                ["m.m = 0 on A", "F's equation"])
    check.details.update(arity_bound=s.arity_bound, total=s.total, outputs=[
        "model.acat", "projection.afun", "phi.afun", "psi.afun"])
    checks = {"strictification": check}
    return _finish(_report_json("strictify", checks), args.strict)


def cmd_pullback(args) -> int:
    loaded: dict = {}
    fdoc = load_functor(args.f, loaded=loaded)
    gdoc = load_functor(args.g, loaded=loaded)
    f, g = fdoc.functor, gdoc.functor
    _check_field(args, args.f, f.source.fld)
    _check_field(args, args.g, g.source.fld)
    certs = _certs(args)
    f1 = check_F1(f)
    checks: Dict[str, CheckReport] = {"f1": _f1_report(f1)}
    if not f1.passed:
        return _finish(_report_json("pullback", checks), args.strict)
    p = build_pullback(f, g, max_arity=args.max_arity)
    # build_pullback returns only once these hold (ainfty.pullback's lemmas;
    # AInftyCategory.derived runs check_strict_units on P's units)
    checks["structure_squares_to_zero"] = CheckReport.derived(
        "pullback.projections_injective", ["G's equation", "m''.m'' = 0"])
    checks["square_commutativity"] = CheckReport.derived(
        "pullback.square", ["projection.phi = F", "psi.phi = Id"])
    if p.category.units is not None:
        checks["unit_closure"] = CheckReport.derived(
            "pullback.unit_pairs", ["F strictly unital", "G strictly unital"])
    fib = certify_fibration_closure(
        p, f_isolifts=certs.resolve_isolifts("F", f),
        f_essentials=certs.resolve_essentials("F", f))
    checks.update(fib.sections)
    _write(args.out, {
        "pullback.acat": serialize_category(p.category),
        "alpha.afun": serialize_functor(
            p.alpha, "pullback.acat", _ref_path(args.g, gdoc.source_path)),
        "beta.afun": serialize_functor(
            p.beta, "pullback.acat", _ref_path(args.f, fdoc.source_path))})
    extra = {"arity_bound": p.arity_bound, "total": p.total,
             "objects": list(p.category.objects)}
    return _finish(_report_json("pullback", checks, extra), args.strict)


def cmd_induce(args) -> int:
    loaded: dict = {}
    fdoc, gdoc, idoc, ldoc = (load_functor(path, loaded=loaded) for path in
                              (args.f, args.g, args.cone_i, args.cone_l))
    for path, doc in ((args.f, fdoc), (args.g, gdoc), (args.cone_i, idoc),
                      (args.cone_l, ldoc)):
        _check_field(args, path, doc.functor.source.fld)
    p = build_pullback(fdoc.functor, gdoc.functor, max_arity=args.max_arity)
    rep = induce_functor(p, idoc.functor, ldoc.functor)
    # a returned report has passed the cone check and derived the rest
    checks = {
        "cone_commutes": CheckReport("pass", [], {
            "method": "exact", "arity_bound": rep.functor.arity_bound,
            "total": rep.cone_total}),
        "a_infinity": CheckReport.derived("pullback.induced_functor", [
            "cone_i's equation", "cone_l's equation", "F.cone_i = G.cone_l"]),
        "triangles": CheckReport.derived(
            "pullback.triangles", ["F.cone_i = G.cone_l", "psi.phi = Id"]),
        "uniqueness": CheckReport.derived(
            "pullback.uniqueness", ["alpha.N = cone_l", "(Id_K x G).N = phi.cone_i"]),
    }
    _write(args.out, {
        "induced.afun": serialize_functor(
            rep.functor, _ref_path(args.cone_i, idoc.source_path), "pullback.acat"),
        "pullback.acat": serialize_category(p.category)})
    extra = {"arity_bound": rep.functor.arity_bound, "total": rep.functor.total}
    return _finish(_report_json("induce", checks, extra), args.strict)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a DocumentError, so that `main` reports it
    as JSON with exit 2 instead of printing usage text and exiting."""

    def error(self, message):
        raise DocumentError("<args>", 0, message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first `main` call and kept."""
    parser = _Parser(
        prog="ainfty",
        description="Exact pullbacks of A-infinity categories along "
                    "graded-split surjective functors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--max-arity", type=int, default=None)
    common.add_argument("--field", choices=["Q", "Fp"], default=None)
    common.add_argument("--p", type=int, default=None)
    common.add_argument("--strict", action="store_true")

    pv = sub.add_parser("validate", parents=[common],
                        help="validate category/functor documents")
    pv.add_argument("paths", nargs="+")

    pc = sub.add_parser("classify", parents=[common],
                        help="F1/F2/quasi-equivalence classifiers")
    pc.add_argument("functor")
    pc.add_argument("--certificates", default=None)

    ps = sub.add_parser("strictify", parents=[common],
                        help="split model, phi = (r1, F), psi, projection")
    ps.add_argument("functor")
    ps.add_argument("--out", required=True)

    pp = sub.add_parser("pullback", parents=[common],
                        help="build and certify the pullback")
    pp.add_argument("f", help="functor document satisfying F1")
    pp.add_argument("g", help="functor document with the same target")
    pp.add_argument("--out", required=True)
    pp.add_argument("--certificates", default=None)

    pi = sub.add_parser("induce", parents=[common],
                        help="universal functor from a cone")
    pi.add_argument("f")
    pi.add_argument("g")
    pi.add_argument("cone_i", help="cone leg into the source of F")
    pi.add_argument("cone_l", help="cone leg into the source of G")
    pi.add_argument("--out", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # parsed in place, so a usage error after the command name still names it
    args = argparse.Namespace(command=None)
    try:
        _parser().parse_args(argv, args)
        if args.max_arity is not None and args.max_arity < 1:
            raise DocumentError("<args>", 0, "--max-arity must be at least 1")
        if (args.max_arity is not None and args.max_arity < 2
                and args.command in ("strictify", "pullback", "induce")):
            raise DocumentError("<args>", 0, f"--max-arity must be at least 2 "
                                f"for {args.command}: strict units need m2")
        if args.p is not None and args.field != "Fp":
            raise DocumentError("<args>", 0, "--p needs --field Fp")
        # names read at call time: a cmd_* rebound on this module after the
        # parser is built is the one that runs
        return {"validate": cmd_validate, "classify": cmd_classify,
                "strictify": cmd_strictify, "pullback": cmd_pullback,
                "induce": cmd_induce}[args.command](args)
    except (DocumentError, OSError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc),
                          "overall": "error"}, sort_keys=True, indent=2))
        return 2
    except AInftyError as exc:
        print(json.dumps({"command": args.command, "error": str(exc),
                          "overall": "fail"}, sort_keys=True, indent=2))
        return 1


if __name__ == "__main__":
    sys.exit(main())
