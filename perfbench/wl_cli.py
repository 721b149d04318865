"""cli-docs: documents and the CLI, with ``ainfty.cli.main`` called
in-process and its stdout captured.

Set-up writes the README worked example and five seeded instances as
documents.  Each instance runs validate, classify, strictify, validate
(strictify outputs), pullback, validate (pullback outputs), induce on the
self-cone formed by the written alpha.afun and beta.afun, and validate
(induced.afun); later reads consume earlier writes.  Classifier enumeration
over F_p and dense elimination do the heavy work.

Four malformed-input probes keep the CLI's promise in view: exactly one JSON
object on stdout and exit 2 for the first three, and --max-arity taking
effect for the last.  Each fails today and is counted as a failed job.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil

from ainfty import cli, documents
from ainfty.fields import FieldError
from ainfty.quiver import QuiverError

import gen
import oracle
from jobs import Fault, Job, raised_in

README_A = """acat
field Fp 5
object o
basis o o 1 0
basis o o e 0
basis o o t -1
unit o ; 1 1
mu 1 ; o o ; t ; e 1
mu 2 ; o o o ; 1 1 ; 1 1
mu 2 ; o o o ; 1 e ; e 1
mu 2 ; o o o ; 1 t ; t 4
mu 2 ; o o o ; e 1 ; e 1
mu 2 ; o o o ; t 1 ; t 1
"""
README_B = """acat
field Fp 5
object p
basis p p 1' 0
unit p ; 1' 1
mu 2 ; p p p ; 1' 1' ; 1' 1
"""
README_F = """afun
source a.acat
target b.acat
objmap o p
comp 1 ; o o ; 1 ; 1' 1
"""
README_G = """afun
source b.acat
target b.acat
objmap p p
comp 1 ; p p ; 1' ; 1' 1
"""
# comp 1 sends t (degree -1) to 1' (degree 0): breaks the degree rule
BAD_DEGREE_F = README_F.replace("comp 1 ; o o ; 1 ; 1' 1", "comp 1 ; o o ; t ; 1' 1")
BAD_CERT = "acert\n;\n"

# (field, generators, d, objects, acyclic, twist F, G, certificates)
INSTANCES = (
    ("F5", (("e", 0), ("f", 0)), {}, 1, True, True, "id", False),
    ("F7", (("e", 0),), {}, 1, True, False, "incl", False),
    ("Q", (("a", -1), ("b", 0)), {"a": "b"}, 1, True, True, "id", True),
    ("F5", (("e", 0),), {}, 1, False, False, "id", False),
    ("F5", (("e", 0),), {}, 2, True, True, "id", False),
)
BOUND = 4
TWIST_TERMS = 2


def _main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _one_json(out):
    """The report, if stdout is exactly one JSON object; else None."""
    try:
        value = json.loads(out)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _round_trips(path):
    """Written document parses again and serializes to the same bytes."""
    text = _read(path)
    if text.startswith("acat\n"):
        again = documents.serialize_category(documents.parse_category(text, path))
    else:
        doc = documents.load_functor(path)
        again = documents.serialize_functor(doc.functor, doc.source_path,
                                            doc.target_path)
    return again == text


def _records(text, kind):
    return [line.split() for line in text.splitlines()
            if line.split()[:1] == [kind]]


def _pullback_shape_holds(text, expected):
    objects = [r[1] for r in _records(text, "object")]
    dims = {}
    for r in _records(text, "basis"):
        dims[(r[1], r[2])] = dims.get((r[1], r[2]), 0) + 1
    return sorted(objects) == sorted(expected["objects"]) and dims == expected["dims"]


def _identity_doc_holds(text, expected):
    """Every comp record is "comp 1 ; p q ; b ; b 1" and every basis
    element of the pullback has one."""
    total = sum(expected["dims"].values())
    comps = [line for line in text.splitlines() if line.startswith("comp ")]
    if len(comps) != total:
        return False
    one = {"1", "1/1"}
    for line in comps:
        fields = [f.split() for f in line.split(";")]
        if (fields[0] != ["comp", "1"] or len(fields[2]) != 1
                or len(fields[3]) != 2 or fields[3][0] != fields[2][0]
                or fields[3][1] not in one):
            return False
    objmaps = _records(text, "objmap")
    return sorted(r[1] for r in objmaps) == sorted(expected["objects"]) and all(
        r[1] == r[2] for r in objmaps)


def _expected_pullback(f, g):
    quiver, _ = gen.expected_pullback_quiver(f, g)
    return {"objects": list(quiver.objects),
            "dims": {pair: sp.dim for pair, sp in quiver.hom.items()}}


class _Work:
    def __init__(self, root):
        self.root = root

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def relabel(self, text):
        """Reports and documents name absolute paths; digest them relative
        to the work directory so two checkouts compare byte for byte."""
        return text.replace(self.root, "<work>")


def _cli_job(work, name, field, argv, want_code, want_overall, written=(),
             extra=None, known_fault=None):
    """A main(argv) call; passes on one JSON report with the known exit
    code and overall verdict (None: any), round-tripping written documents
    and `extra(report)`."""
    def run():
        return _main(argv)

    def check(result, exc):
        if exc is not None:
            return False, f"raised {type(exc).__name__}: {exc}"
        code, out = result
        report = _one_json(out)
        ok = (report is not None and code == want_code
              and want_overall in (None, report.get("overall")))
        texts = [work.relabel(out)]
        for path in written:
            ok = ok and os.path.exists(path) and _round_trips(path)
            texts.append(work.relabel(_read(path)) if os.path.exists(path) else "")
        if ok and extra is not None:
            ok = extra(report)
        return ok, "\0".join(texts)

    return Job(name, field, run, check, known_fault)


def _instance_docs(work, k, spec, rng):
    fname, gens, d_of, n_obj, acyclic, twist_f, gkind, certs = spec
    f = gen.extension_projection(gen.field_named(fname), gens, d_of, n_obj,
                                 acyclic)
    if twist_f:
        f = gen.twist_functor(f, rng, TWIST_TERMS, f"cli:{k}", BOUND)
    g = gen.g_functor(gkind, f.target, rng)
    d = f"i{k}"
    _write(work.path(d, "src.acat"), documents.serialize_category(f.source))
    _write(work.path(d, "tgt.acat"), documents.serialize_category(f.target))
    _write(work.path(d, "gsrc.acat"), documents.serialize_category(g.source))
    _write(work.path(d, "f.afun"),
           documents.serialize_functor(f, "src.acat", "tgt.acat"))
    _write(work.path(d, "g.afun"),
           documents.serialize_functor(g, "gsrc.acat", "tgt.acat"))
    if certs:
        _write(work.path(d, "c.acert"), gen.unit_certificate_text(f))
    return f, g


def setup(seed: int, workdir: str):
    rng = random.Random(seed)
    work = _Work(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    P = work.path
    for name, text in (("a.acat", README_A), ("b.acat", README_B),
                       ("f.afun", README_F), ("g.afun", README_G),
                       ("bad.afun", BAD_DEGREE_F), ("bad.acert", BAD_CERT)):
        _write(P("readme", name), text)
    r = lambda *parts: P("readme", *parts)
    readme_shape = {"objects": ["o&p"], "dims": {("o&p", "o&p"): 3}}
    jobs = [
        _cli_job(work, "readme/validate", "Fp",
                 ["validate", r("a.acat"), r("b.acat"), r("f.afun"), r("g.afun")],
                 0, "pass"),
        _cli_job(work, "readme/classify", "Fp", ["classify", r("f.afun")], 0, "pass"),
        _cli_job(work, "readme/pullback", "Fp",
                 ["pullback", r("f.afun"), r("g.afun"), "--out", r("out")],
                 0, "pass", [r("out", n) for n in
                             ("pullback.acat", "alpha.afun", "beta.afun")],
                 extra=lambda rep: _pullback_shape_holds(
                     _read(r("out", "pullback.acat")), readme_shape)),
        _cli_job(work, "readme/validate-pullback", "Fp",
                 ["validate", r("out", "pullback.acat"), r("out", "alpha.afun"),
                  r("out", "beta.afun")], 0, "pass"),
        _cli_job(work, "readme/induce", "Fp",
                 ["induce", r("f.afun"), r("g.afun"), r("out", "beta.afun"),
                  r("out", "alpha.afun"), "--out", r("ind")], 0, "pass",
                 [r("ind", "induced.afun"), r("ind", "pullback.acat")],
                 extra=lambda rep: _identity_doc_holds(
                     _read(r("ind", "induced.afun")), readme_shape)),
        _cli_job(work, "readme/validate-induced", "Fp",
                 ["validate", r("ind", "induced.afun")], 0, "pass"),
    ]
    for k, spec in enumerate(INSTANCES):
        jobs += _instance_jobs(work, k, spec, rng)
    jobs += _probe_jobs(work, r)
    return jobs, []


def _instance_jobs(work, k, spec, rng):
    fname, _, _, _, acyclic, _, _, certs = spec
    f, g = _instance_docs(work, k, spec, rng)
    field = "Q" if fname == "Q" else "Fp"
    i = lambda *parts: work.path(f"i{k}", *parts)
    with oracle.checking():
        shape = _expected_pullback(f, g)
    bound = ["--max-arity", str(BOUND)]
    if not acyclic:
        classify, pull = (1, "fail"), (1, "fail")
    elif fname == "Q":
        # classify has unit certificates; pullback has none, so F2 over Q
        # stays undecided
        classify, pull = (0, "pass"), (0, "undecided")
    else:
        classify, pull = (0, "pass"), (0, "pass")
    cert_args = ["--certificates", i("c.acert")] if certs else []
    st = [i("st", n) for n in ("model.acat", "projection.afun", "phi.afun",
                               "psi.afun")]
    pb = [i("pb", n) for n in ("pullback.acat", "alpha.afun", "beta.afun")]
    name = f"i{k}-{fname}-{'acyclic' if acyclic else 'nonacyclic'}"
    return [
        _cli_job(work, f"{name}/validate", field,
                 ["validate", i("src.acat"), i("tgt.acat"), i("gsrc.acat"),
                  i("f.afun"), i("g.afun")], 0, "pass"),
        _cli_job(work, f"{name}/classify", field,
                 ["classify", i("f.afun")] + cert_args, *classify),
        _cli_job(work, f"{name}/strictify", field,
                 ["strictify", i("f.afun"), "--out", i("st")] + bound, 0, "pass", st),
        _cli_job(work, f"{name}/validate-strictify", field, ["validate"] + st,
                 0, "pass"),
        _cli_job(work, f"{name}/pullback", field,
                 ["pullback", i("f.afun"), i("g.afun"), "--out", i("pb")] + bound,
                 *pull, pb,
                 extra=lambda rep: _pullback_shape_holds(_read(pb[0]), shape)),
        _cli_job(work, f"{name}/validate-pullback", field, ["validate"] + pb,
                 0, "pass"),
        _cli_job(work, f"{name}/induce", field,
                 ["induce", i("f.afun"), i("g.afun"), pb[2], pb[1],
                  "--out", i("ind")] + bound, 0, "pass",
                 [i("ind", "induced.afun"), i("ind", "pullback.acat")],
                 extra=lambda rep: _identity_doc_holds(
                     _read(i("ind", "induced.afun")), shape)),
        _cli_job(work, f"{name}/validate-induced", field,
                 ["validate", i("ind", "induced.afun")], 0, "pass"),
    ]


def _probe_jobs(work, r):
    def max_arity_taken(rep):
        return _arity_bounds(rep) == {2}

    def arity_bound_4(result, exc):
        return exc is None and _arity_bounds(_one_json(result[1]) or {}) == {4}

    return [
        _cli_job(work, "probe/degree-violating-comp", "Fp",
                 ["validate", r("bad.afun")], 2, None,
                 known_fault=Fault("uncaught QuiverError from parse_functor: "
                                   "traceback, exit 1, no JSON",
                                   raised_in(QuiverError, "parse_functor"))),
        _cli_job(work, "probe/field-fp-4", "Fp",
                 ["classify", r("f.afun"), "--field", "Fp", "--p", "4"], 2, None,
                 known_fault=Fault("uncaught FieldError from _expected_field",
                                   raised_in(FieldError, "_expected_field"))),
        _cli_job(work, "probe/semicolon-certificate", "Fp",
                 ["classify", r("f.afun"), "--certificates", r("bad.acert")],
                 2, None,
                 known_fault=Fault("uncaught IndexError from parse_certificates",
                                   raised_in(IndexError, "parse_certificates"))),
        _cli_job(work, "probe/validate-max-arity", "Fp",
                 ["validate", r("a.acat"), "--max-arity", "2"], 0, "pass",
                 extra=max_arity_taken,
                 known_fault=Fault("--max-arity ignored: arity_bound stays 4",
                                   arity_bound_4)),
    ]


def _arity_bounds(report):
    """The arity bounds a validate report gives, one per checked document."""
    checks = report.get("checks") or {}
    return {c.get("details", {}).get("arity_bound") for c in checks.values()}
