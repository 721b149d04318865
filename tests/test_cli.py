from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pathlib
import random
import shutil
import sys

import pytest

from ainfty import cli
from ainfty.cli import main
from ainfty.core import AInftyFunctor
from ainfty.fields import Field
from ainfty.documents import load_category, serialize_category, serialize_functor

from helpers import (
    colliding_pair_functors,
    nilpotent_category,
    sq_functor,
    square_zero_extension,
    twisted_functor,
)

QQ = Field.rationals()
F5 = Field.prime(5)


def write_sq(tmp_path, fld):
    f = sq_functor(fld)
    (tmp_path / "src.acat").write_text(serialize_category(f.source))
    (tmp_path / "tgt.acat").write_text(serialize_category(f.target))
    (tmp_path / "f.afun").write_text(
        serialize_functor(f, "src.acat", "tgt.acat"))
    g = AInftyFunctor.identity(f.target)
    (tmp_path / "g.afun").write_text(
        serialize_functor(g, "tgt.acat", "tgt.acat"))
    return f, g


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_pass(tmp_path, capsys):
    write_sq(tmp_path, F5)
    code, rep = run(capsys, "validate", str(tmp_path / "src.acat"),
                    str(tmp_path / "f.afun"))
    assert code == 0 and rep["overall"] == "pass"


def test_validate_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.acat"
    bad.write_text("acat\nfield Q\nobject o\nbasis o o x 0\nmu 1 ; o o ; x ; x 1/0\n")
    code, rep = run(capsys, "validate", str(bad))
    assert code == 1 and rep["overall"] == "fail"


def test_validate_missing_file_exit_one(tmp_path, capsys):
    code, rep = run(capsys, "validate", str(tmp_path / "missing.acat"))
    assert code == 1


def test_classify_sq_f5(tmp_path, capsys):
    write_sq(tmp_path, F5)
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 0
    checks = {k: v["verdict"] for k, v in rep["checks"].items()}
    assert checks == {"f1": "pass", "f2_isofibration": "pass",
                      "quasi_equivalence": "pass", "kernel_acyclicity": "pass"}


def test_classify_rationals_undecided_and_strict(tmp_path, capsys):
    write_sq(tmp_path, QQ)
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 0 and rep["overall"] == "undecided"
    code2, rep2 = run(capsys, "classify", str(tmp_path / "f.afun"), "--strict")
    assert code2 == 1


# a lift t (degree -1) is no degree-0 cocycle class: one report, exit 1
CERT_LIFT_OUTSIDE_DEGREE_0 = (
    1, "fail", ["certificate lift at (o,o) is not a cocycle class"])


def test_classify_with_certificates(tmp_path, capsys):
    write_sq(tmp_path, QQ)
    cases = {"1 1/1": (0, "pass", []), "t 1": CERT_LIFT_OUTSIDE_DEGREE_0}
    for lift, (want_code, verdict, witnesses) in cases.items():
        (tmp_path / "c.acert").write_text(
            f"acert\nisolift self ; o ; p ; 1' 1 ; o ; {lift}\n")
        code, rep = run(capsys, "classify", str(tmp_path / "f.afun"),
                        "--certificates", str(tmp_path / "c.acert"))
        check = rep["checks"]["f2_isofibration"]
        assert (check["verdict"], check["witnesses"]) == (verdict, witnesses)
        assert code == want_code and rep["overall"] == verdict


@pytest.mark.parametrize("record, message", [
    ("isolift self ; o ; q ; 1' 1 ; o ; 1 1", "certificate names unknown object 'q'"),
    ("isolift self ; o ; p ; 1' 1 ; z ; 1 1", "certificate names unknown object 'z'"),
    ("essential self ; q ; o ; 1' 1", "certificate names unknown object 'q'"),
    ("isolift self ; o ; p ; 1' 1 ; o ; w 1", "no basis element named 'w'"),
    ("isolift self ; o ; p ; 1' 1 ; o ; 1 1 1 1", "vector names '1' twice"),
    ("essential self ; p", "essential record: essential tag ; b ; a ; iso-vec"),
])
def test_certificate_errors_name_file_and_line(tmp_path, capsys, record, message):
    # objects are checked before vectors, and the record's own line is named
    write_sq(tmp_path, QQ)
    cert = tmp_path / "c.acert"
    cert.write_text(f"acert\n# a comment\n{record}\n")
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"),
                    "--certificates", str(cert))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == f"{cert}:3: {message}"


def test_pullback_certificate_outside_degree_0(tmp_path, capsys):
    write_sq(tmp_path, QQ)
    (tmp_path / "c.acert").write_text(
        "acert\nisolift F ; o ; p ; 1' 1 ; o ; t 1\n")
    code, rep = run(capsys, "pullback", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), "--out", str(tmp_path / "pb"),
                    "--certificates", str(tmp_path / "c.acert"))
    want_code, verdict, witnesses = CERT_LIFT_OUTSIDE_DEGREE_0
    check = rep["checks"]["f_isofibration"]
    assert (check["verdict"], check["witnesses"]) == (verdict, witnesses)
    assert code == want_code and rep["overall"] == verdict


def test_strictify_outputs_validate(tmp_path, capsys):
    rng = random.Random(8)
    base = nilpotent_category(QQ, (("a", -1), ("b", 0)))
    ext, f_strict = square_zero_extension(QQ, base, acyclic=True)
    f = twisted_functor(f_strict, rng, max_arity=2, density=0.5)
    (tmp_path / "src.acat").write_text(serialize_category(f.source))
    (tmp_path / "tgt.acat").write_text(serialize_category(f.target))
    (tmp_path / "f.afun").write_text(
        serialize_functor(f, "src.acat", "tgt.acat"))
    out = tmp_path / "out"
    code, rep = run(capsys, "strictify", str(tmp_path / "f.afun"),
                    "--out", str(out))
    assert code == 0
    code2, rep2 = run(capsys, "validate", str(out / "model.acat"),
                      str(out / "projection.afun"), str(out / "phi.afun"),
                      str(out / "psi.afun"))
    assert code2 == 0, rep2


def test_pullback_writes_valid_documents(tmp_path, capsys):
    write_sq(tmp_path, F5)
    out = tmp_path / "out"
    code, rep = run(capsys, "pullback", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), "--out", str(out))
    assert code == 0 and rep["overall"] == "pass"
    assert rep["checks"]["alpha_acyclic_fibration"]["verdict"] == "pass"
    code2, rep2 = run(capsys, "validate", str(out / "pullback.acat"),
                      str(out / "alpha.afun"), str(out / "beta.afun"))
    assert code2 == 0, rep2


def test_pullback_f1_failure_exit_one(tmp_path, capsys):
    small = nilpotent_category(QQ, ())
    big = nilpotent_category(QQ, (("w", 2),))
    from ainfty.quiver import FormalMorphism
    morphism = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    f = AInftyFunctor.build(morphism, small, big)
    g = AInftyFunctor.identity(big)
    (tmp_path / "small.acat").write_text(serialize_category(small))
    (tmp_path / "big.acat").write_text(serialize_category(big))
    (tmp_path / "f.afun").write_text(
        serialize_functor(f, "small.acat", "big.acat"))
    (tmp_path / "g.afun").write_text(
        serialize_functor(g, "big.acat", "big.acat"))
    code, rep = run(capsys, "pullback", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), "--out", str(tmp_path / "o"))
    assert code == 1 and rep["checks"]["f1"]["verdict"] == "fail"


def test_pullback_object_name_collision_exit_one(tmp_path, capsys):
    f, g = colliding_pair_functors(QQ)
    for name, cat in (("a.acat", f.source), ("b.acat", g.source),
                      ("t.acat", f.target)):
        (tmp_path / name).write_text(serialize_category(cat))
    (tmp_path / "f.afun").write_text(serialize_functor(f, "a.acat", "t.acat"))
    (tmp_path / "g.afun").write_text(serialize_functor(g, "b.acat", "t.acat"))
    code, rep = run(capsys, "pullback", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), "--out", str(tmp_path / "o"))
    assert code == 1 and rep["overall"] == "fail"
    assert "share the name 'a&b&c'" in rep["error"]


def test_induce_self_cone(tmp_path, capsys):
    write_sq(tmp_path, F5)
    out = tmp_path / "out"
    run(capsys, "pullback", str(tmp_path / "f.afun"),
        str(tmp_path / "g.afun"), "--out", str(out))
    code, rep = run(capsys, "induce", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), str(out / "beta.afun"),
                    str(out / "alpha.afun"), "--out", str(tmp_path / "o2"))
    assert code == 0 and rep["overall"] == "pass"
    code2, _ = run(capsys, "validate", str(tmp_path / "o2" / "induced.afun"))
    assert code2 == 0


def test_usage_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "nope.afun"
    code = main(["classify", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["overall"] == "error"


@pytest.mark.parametrize("argv, command", [
    ([], None),
    (["frobnicate"], None),
    (["validate"], "validate"),
    (["strictify", "f.afun"], "strictify"),
    (["classify", "f.afun", "--max-arity", "x"], "classify"),
    (["validate", "a.acat", "--bogus"], "validate"),
])
def test_argparse_usage_error_is_one_json_report(capsys, argv, command):
    # argparse's own usage errors keep the contract: one JSON object, exit 2,
    # and no usage text
    code = main(argv)
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert rep["overall"] == "error" and rep["command"] == command


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: ainfty" in capsys.readouterr().out


# -- byte stability of the README worked example --------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden" / "readme"
README_INPUTS = ("a.acat", "b.acat", "f.afun", "g.afun")
# (command, arguments relative to the work directory, documents it writes)
README_RUNS = (
    ("validate", ["a.acat", "b.acat", "f.afun", "g.afun"], ()),
    ("classify", ["f.afun"], ()),
    ("strictify", ["f.afun", "--out", "st"],
     ("st/model.acat", "st/projection.afun", "st/phi.afun", "st/psi.afun")),
    ("pullback", ["f.afun", "g.afun", "--out", "pb"],
     ("pb/pullback.acat", "pb/alpha.afun", "pb/beta.afun")),
    ("induce", ["f.afun", "g.afun", "pb/beta.afun", "pb/alpha.afun",
                "--out", "ind"],
     ("ind/induced.afun", "ind/pullback.acat")),
)


def readme_outputs(work: pathlib.Path):
    """Run the five commands on the README example inside `work`; return
    {golden file name: (exit code, text)} with `work` relabelled `<tmp>`."""
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, work / name)
    out = {}
    for command, args, written in README_RUNS:
        argv = [a if a.startswith("--") else str(work / a) for a in args]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command] + argv)
        out[f"{command}.json"] = (code, buf.getvalue())
        for rel in written:
            out[rel] = (code, (work / rel).read_text())
    return {name: (code, text.replace(str(work), "<tmp>"))
            for name, (code, text) in out.items()}


def test_readme_example_bytes_stable(tmp_path):
    for name, (code, text) in readme_outputs(tmp_path).items():
        assert code == 0, name
        assert text == (GOLDEN / "expected" / name).read_text(), name


def test_main_repeated_in_one_process(tmp_path, monkeypatch, capsys):
    # the parser is built at the first call only, a second round of the
    # README commands repeats the first byte for byte, and dispatch reads
    # the command function's name at call time
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    code, _ = run(capsys, "validate", str(GOLDEN / "a.acat"))
    assert code == 0
    first = len(built)
    assert first > 0
    rounds = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        rounds.append(readme_outputs(tmp_path / name))
    assert rounds[0] == rounds[1]
    assert all(code == 0 for code, _ in rounds[0].values())
    for _ in range(2):
        assert main(["frobnicate"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "error" and "frobnicate" in report["error"]
    assert len(built) == first
    seen = []

    def fake(args):
        seen.append(args.paths)
        return 7
    monkeypatch.setattr(cli, "cmd_validate", fake)
    assert main(["validate", "x.acat"]) == 7
    assert seen == [["x.acat"]]


def _counted(monkeypatch, module, names):
    """{name: calls}, counting every call of `module`'s functions `names`
    through whichever ainfty module names them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(importlib.import_module(module), name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("ainfty")
                    and getattr(mod, name, None) is fn):
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_readme_cohomology_and_f1_computed_once(tmp_path, monkeypatch, capsys):
    # F1 and each hom's cohomology are computed once per functor and pair;
    # under pullback F and G share their target, loaded once, and alpha's
    # splits are read off the pullback's block layout, not eliminated
    calls = _counted(monkeypatch, "ainfty.linear", ["cohomology", "split_surjection"])
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    counts = {}
    for command, args in (("classify", ["f.afun"]),
                          ("pullback", ["f.afun", "g.afun", "--out", "pb"])):
        calls.update(dict.fromkeys(calls, 0))
        argv = [a if a.startswith("--") else str(tmp_path / a) for a in args]
        code, _ = run(capsys, command, *argv)
        assert code == 0
        counts[command] = dict(calls)
    assert counts == {"classify": {"cohomology": 3, "split_surjection": 1},
                      "pullback": {"cohomology": 4, "split_surjection": 1}}


def _named_categories(docs):
    """Resolved paths of the category documents among `docs` and of those
    that the functor documents among them name."""
    out = set()
    for doc in docs:
        lines = doc.read_text().splitlines()
        if lines[0] == "acat":
            out.add(doc.resolve())
        out.update((doc.parent / line.split(None, 1)[1]).resolve()
                   for line in lines if line.split()[0] in ("source", "target"))
    return out


def test_readme_each_category_parsed_once_per_command(tmp_path, monkeypatch, capsys):
    # a command parses and certifies each (resolved path, cap) once, however
    # many of its documents name it
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    code, _ = run(capsys, "pullback", str(tmp_path / "f.afun"),
                  str(tmp_path / "g.afun"), "--out", str(tmp_path / "pb"))
    assert code == 0
    calls = _counted(monkeypatch, "ainfty.documents", ["parse_category"])
    for command, docs, rest in (
            ("induce", ["f.afun", "g.afun", "pb/beta.afun", "pb/alpha.afun"],
             ["--out", str(tmp_path / "ind")]),
            ("validate", ["pb/pullback.acat", "pb/alpha.afun", "pb/beta.afun"], [])):
        calls["parse_category"] = 0
        paths = [tmp_path / d for d in docs]
        code, _ = run(capsys, command, *map(str, paths), *rest)
        assert code == 0
        assert calls["parse_category"] == len(_named_categories(paths)) == 3, command


def test_linked_documents_parsed_once_per_command(tmp_path, monkeypatch, capsys):
    # a document is known by its file, not its path: a symlink and a hard
    # link to it share its one parse
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    for name, stem in (("a.acat", "a"), ("f.afun", "f")):
        ext = name.split(".")[1]
        (tmp_path / f"{stem}_sym.{ext}").symlink_to(tmp_path / name)
        (tmp_path / f"{stem}_hard.{ext}").hardlink_to(tmp_path / name)
    calls = _counted(monkeypatch, "ainfty.documents",
                     ["parse_category", "parse_functor"])
    docs = ["a.acat", "a_sym.acat", "a_hard.acat", "f.afun", "f_sym.afun",
            "f_hard.afun"]
    code, rep = run(capsys, "validate", *(str(tmp_path / d) for d in docs))
    assert code == 0 and len(rep["checks"]) == 6
    # a.acat, and b.acat which f names; f once
    assert calls == {"parse_category": 2, "parse_functor": 1}


def test_linked_functor_document_resolves_from_its_own_directory(tmp_path, capsys):
    # d2/f.afun links to d1/f.afun, but names a.acat and b.acat relative to
    # d2, where they are missing: it fails alone and beside d1/f.afun alike
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / "d1" / name)
    (tmp_path / "d2" / "f.afun").symlink_to(tmp_path / "d1" / "f.afun")
    d1, d2 = str(tmp_path / "d1" / "f.afun"), str(tmp_path / "d2" / "f.afun")
    alone_code, alone = run(capsys, "validate", d2)
    both_code, both = run(capsys, "validate", d1, d2)
    assert alone_code == both_code == 1
    assert both["checks"][d1]["verdict"] == "pass"
    assert both["checks"][d2] == alone["checks"][d2]
    assert "No such file or directory" in alone["checks"][d2]["witnesses"][0]


@pytest.mark.parametrize("argv, code", [
    (["validate", "missing.acat"], 1),
    (["classify", "missing.afun"], 2),
    (["pullback", "missing.afun", "g.afun", "--out", "pb"], 2),
])
def test_missing_document_reports_its_path(tmp_path, capsys, argv, code):
    # a path that cannot be stat'ed is read uncached and fails as the read does
    shutil.copy(GOLDEN / "g.afun", tmp_path / "g.afun")
    argv = [a if a.startswith("--") or a in ("validate", "classify", "pullback")
            else str(tmp_path / a) for a in argv]
    got, rep = run(capsys, *argv)
    error = f"[Errno 2] No such file or directory: '{tmp_path / 'missing'}"
    assert got == code
    if code == 1:
        assert rep["checks"][argv[1]]["witnesses"][0].startswith(error)
    else:
        assert rep["overall"] == "error" and rep["error"].startswith(error)
    assert not (tmp_path / "pb").exists()


def test_output_directory_made_once_per_command(tmp_path, monkeypatch, capsys):
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    made = []
    makedirs = cli.os.makedirs
    monkeypatch.setattr(cli.os, "makedirs",
                        lambda *a, **k: made.append(a[0]) or makedirs(*a, **k))
    code, _ = run(capsys, "strictify", str(tmp_path / "f.afun"),
                  "--out", str(tmp_path / "st"))
    assert code == 0 and made == [str(tmp_path / "st")]
    assert len(list((tmp_path / "st").iterdir())) == 4


def test_classify_functor_into_terminal_category(tmp_path, capsys):
    # a zero unit reads back, and every functor into T is an isofibration
    shutil.copy(GOLDEN / "a.acat", tmp_path / "a.acat")
    (tmp_path / "t.acat").write_text("acat\nfield Fp 5\nobject *\nunit * ;\n")
    (tmp_path / "f.afun").write_text(
        "afun\nsource a.acat\ntarget t.acat\nobjmap o *\n")
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"]["f1"]["verdict"] == "pass"
    assert rep["checks"]["f2_isofibration"]["verdict"] == "pass"


@pytest.mark.parametrize("command", ["classify", "validate"])
def test_field_fp_not_prime_exit_two(tmp_path, capsys, command):
    write_sq(tmp_path, F5)
    code, rep = run(capsys, command, str(tmp_path / "f.afun"),
                    "--field", "Fp", "--p", "4")
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"].startswith("<args>:0: ")


def test_semicolon_certificate_line_exit_two(tmp_path, capsys):
    write_sq(tmp_path, F5)
    (tmp_path / "c.acert").write_text("acert\n;\n")
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"),
                    "--certificates", str(tmp_path / "c.acert"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == f"{tmp_path / 'c.acert'}:2: unknown record ''"


def test_validate_max_arity_caps_bound(capsys):
    code, rep = run(capsys, "validate", str(GOLDEN / "a.acat"),
                    "--max-arity", "2")
    assert code == 0
    assert rep["checks"][str(GOLDEN / "a.acat")]["details"]["arity_bound"] == 2


@pytest.mark.parametrize("command, doc", [("validate", "a.acat"),
                                          ("classify", "f.afun")])
def test_huge_max_arity_returns_one_report(capsys, command, doc):
    # the sums stop at the last arity a word reaches, so a bound of 10**9
    # answers at once, and is reported as given
    code, rep = run(capsys, command, str(GOLDEN / doc),
                    "--max-arity", "1000000000")
    assert code == 0 and rep["overall"] == "pass"
    details = rep if command == "classify" else rep["checks"][str(GOLDEN / doc)]["details"]
    assert details["arity_bound"] == 10 ** 9


def _without_bound(text):
    """A report or document without its arity-bound lines."""
    return [line for line in text.splitlines()
            if not line.startswith("maxarity") and '"arity_bound"' not in line]


def test_huge_max_arity_constructions_return_one_report(tmp_path, capsys):
    # psi's recursion and the pullback's arity loop stop where the data
    # stops: strictify, pullback and induce at a bound of 10**9 answer with
    # one report each, the bound as given, and the reports and documents of
    # bound 6 but for the bound itself
    outputs = {}
    for bound in ("6", "1000000000"):
        work = tmp_path / bound
        work.mkdir()
        for name in README_INPUTS:
            shutil.copy(GOLDEN / name, work / name)
        for command, args, written in README_RUNS[2:]:
            argv = [a if a.startswith("--") else str(work / a) for a in args]
            code = main([command, *argv, "--max-arity", bound])
            out = capsys.readouterr().out
            rep = json.loads(out)
            assert code == 0 and rep["overall"] == "pass"
            details = rep["checks"].get("strictification", {}).get("details", rep)
            assert details["arity_bound"] == int(bound)
            texts = [out] + [(work / rel).read_text() for rel in written]
            outputs.setdefault(bound, []).extend(
                _without_bound(t.replace(str(work), "<tmp>")) for t in texts)
    assert outputs["1000000000"] == outputs["6"]


@pytest.mark.parametrize("command, args", [
    ("validate", ["{d}/a.acat", "--max-arity", "-3"]),
    ("pullback", ["{d}/f.afun", "{d}/g.afun", "--out", "{d}/o",
                  "--max-arity", "0"]),
])
def test_max_arity_below_one_exit_two(tmp_path, capsys, command, args):
    # a bound below 1 certifies nothing: a usage error, not a pass or a
    # failed check
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    code, rep = run(capsys, command, *(a.format(d=tmp_path) for a in args))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == "<args>:0: --max-arity must be at least 1"
    assert not (tmp_path / "o").exists()


def test_strict_unit_commands_need_max_arity_two(tmp_path, capsys):
    # at bound 1 the transported category has no m2 to state its strict
    # units with: a usage error that writes nothing, and bound 2 passes
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    for command, args, _ in README_RUNS[2:]:
        argv = [a if a.startswith("--") else str(tmp_path / a) for a in args]
        code, rep = run(capsys, command, *argv, "--max-arity", "1")
        assert code == 2 and rep["overall"] == "error"
        assert rep["error"] == (f"<args>:0: --max-arity must be at least 2 "
                                f"for {command}: strict units need m2")
        assert not (tmp_path / args[-1]).exists()
        code, rep = run(capsys, command, *argv, "--max-arity", "2")
        assert code == 0 and rep["overall"] == "pass"
        details = rep["checks"].get("strictification", {}).get("details", rep)
        assert details["arity_bound"] == 2


def test_degree_violating_mu_is_a_document_error(tmp_path, capsys):
    # t . 1 must have degree -1; an output of degree 0 breaks the degree rule
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    a = tmp_path / "a.acat"
    a.write_text(a.read_text().replace("mu 2 ; o o o ; 1 t ; t 4",
                                       "mu 2 ; o o o ; 1 t ; e 4"))
    code, rep = run(capsys, "validate", str(a))
    assert code == 1 and rep["overall"] == "fail"
    (witness,) = rep["checks"][str(a)]["witnesses"]
    assert witness.startswith(f"{a}:1: degree violation at arity 2")
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"].startswith(f"{a}:1: degree violation")


@pytest.mark.parametrize("doc, record, line", [
    ("f.afun", "comp 0 ; o ; ; 1' 1", 6), ("a.acat", "mu 0 ; o ; ; 1 1", 14)])
def test_arity_zero_record_is_a_document_error(tmp_path, capsys, doc, record,
                                               line):
    # formal morphisms and structures have no arity-0 part; the record is
    # rejected at its line instead of escaping as a QuiverError
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    path = tmp_path / doc
    path.write_text(path.read_text() + record + "\n")
    kind = record.split()[0]
    message = f"{path}:{line}: {kind} arity must be at least 1"
    code, rep = run(capsys, "validate", str(path))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(path)]["witnesses"] == [message]
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == message


@pytest.mark.parametrize("doc, records, line, first", [
    ("a.acat", "mu 1 ; o o ; t ; e 2", 14, 8),
    ("a.acat", "object o", 14, 3),
    ("a.acat", "basis o o e 0", 14, 5),
    ("a.acat", "field Fp 5", 14, 2),
    ("a.acat", "unit o ; 1 1", 14, 7),
    ("a.acat", "maxarity 4\nmaxarity 4", 15, 14),
    ("f.afun", "objmap o p", 6, 4),
    ("f.afun", "source a.acat", 6, 2),
    ("f.afun", "target b.acat", 6, 3),
    ("f.afun", "maxarity 4\nmaxarity 4", 7, 6),
    ("f.afun", "comp 1 ; o o ; 1 ; 1' 2", 6, 5),
])
def test_repeated_record_is_a_document_error(tmp_path, capsys, doc, records,
                                             line, first):
    # a second record setting the same thing would silently win over the
    # first; it is rejected at its own line, naming the first
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    path = tmp_path / doc
    path.write_text(path.read_text() + records + "\n")
    kind = records.split()[0]
    message = f"{path}:{line}: {kind} record repeats line {first}"
    code, rep = run(capsys, "validate", str(path))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(path)]["witnesses"] == [message]
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == message


@pytest.mark.parametrize("record, line", [("source", 2), ("target", 3)])
def test_record_without_path_is_a_document_error(tmp_path, capsys, record,
                                                 line):
    # a bare source or target record is rejected at its line instead of
    # escaping as a traceback with no report
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    path = tmp_path / "f.afun"
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = record + "\n"
    path.write_text("".join(lines))
    message = f"{path}:{line}: {record} record: {record} <path>"
    code, rep = run(capsys, "validate", str(path))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(path)]["witnesses"] == [message]
    code, rep = run(capsys, "classify", str(path))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == message


@pytest.mark.parametrize("old, new, line, message", [
    ("objmap o p\n", "objmap o p\nobjmap zz p\n", 5,
     "objmap names unknown source object 'zz'"),
    ("objmap o p\n", "objmap o nope\n", 4,
     "objmap maps 'o' to unknown target object 'nope'"),
])
def test_objmap_checked_against_the_documents(tmp_path, capsys, old, new,
                                              line, message):
    # an objmap record naming an object outside the source, or mapping to
    # one outside the target, is reported at its own line
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    path = tmp_path / "f.afun"
    path.write_text(path.read_text().replace(old, new))
    code, rep = run(capsys, "validate", str(path))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(path)]["witnesses"] == [f"{path}:{line}: {message}"]
    code, rep = run(capsys, "classify", str(path))
    assert code == 2 and rep["error"] == f"{path}:{line}: {message}"


@pytest.mark.parametrize("slot", [1, 2, 3])
def test_induce_checks_field_of_every_document(tmp_path, capsys, slot):
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    (tmp_path / "qb.acat").write_text(
        (GOLDEN / "b.acat").read_text().replace("field Fp 5", "field Q"))
    (tmp_path / "gq.afun").write_text(
        (GOLDEN / "g.afun").read_text().replace("b.acat", "qb.acat"))
    docs = [str(tmp_path / n) for n in ("f.afun", "g.afun", "f.afun", "g.afun")]
    docs[slot] = str(tmp_path / "gq.afun")
    code, rep = run(capsys, "induce", *docs, "--out", str(tmp_path / "o"),
                    "--field", "Fp", "--p", "5")
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == (f"{tmp_path / 'gq.afun'}:1: "
                            "document field rationals does not match --field")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("legs, message", [
    (("f.afun", "f.afun"), "cone_i must land in the source of F"),
    (("id_a.afun", "id_a.afun"), "cone_l must land in the source of G"),
], ids=["cone_i", "cone_l"])
def test_induce_refuses_a_leg_in_the_wrong_category(tmp_path, capsys, legs,
                                                    message):
    # F: a -> b and G: b -> b; a leg into the other category is a failure
    # with exit 1 and one JSON object, not a traceback from composing it
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    id_a = AInftyFunctor.identity(load_category(str(tmp_path / "a.acat")))
    (tmp_path / "id_a.afun").write_text(serialize_functor(id_a, "a.acat", "a.acat"))
    code, rep = run(capsys, "induce", str(tmp_path / "f.afun"),
                    str(tmp_path / "g.afun"), *(str(tmp_path / n) for n in legs),
                    "--out", str(tmp_path / "o"))
    assert code == 1
    assert rep == {"command": "induce", "error": message, "overall": "fail"}
    assert not (tmp_path / "o").exists()


def test_validate_fails_maxarity_below_one(tmp_path, capsys):
    # the README category with a broken m2 and a maxarity record of -3
    a = tmp_path / "a.acat"
    a.write_text((GOLDEN / "a.acat").read_text().replace(
        "field Fp 5\n", "field Fp 5\nmaxarity -3\n")
        + "mu 2 ; o o o ; e e ; e 1\n")
    code, rep = run(capsys, "validate", str(a))
    assert code == 1 and rep["overall"] == "fail"
    (witness,) = rep["checks"][str(a)]["witnesses"]
    assert witness.startswith(f"{a}:3: maxarity -3 certifies nothing")


@pytest.mark.parametrize("command, code, overall", [
    ("validate", 1, "fail"), ("classify", 2, "error")])
def test_non_utf8_document_keeps_the_contract(tmp_path, capsys, command,
                                              code, overall):
    bad = tmp_path / "x.acat"
    bad.write_bytes(b"acat\nfield Q\n\xff\n")
    got, rep = run(capsys, command, str(bad))
    assert got == code and rep["overall"] == overall
    message = (rep["checks"][str(bad)]["witnesses"][0]
               if command == "validate" else rep["error"])
    assert message.startswith(f"{bad}:3: not UTF-8 text")


def test_non_utf8_certificates_exit_two(tmp_path, capsys):
    write_sq(tmp_path, F5)
    (tmp_path / "c.acert").write_bytes(b"acert\n\xfe\n")
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"),
                    "--certificates", str(tmp_path / "c.acert"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"].startswith(f"{tmp_path / 'c.acert'}:2: not UTF-8")


@pytest.mark.parametrize("command", ["validate", "classify"])
@pytest.mark.parametrize("flags", [["--p", "7"], ["--field", "Q", "--p", "5"]])
def test_p_without_field_fp_exit_two(tmp_path, capsys, command, flags):
    # --p only names the prime of --field Fp; anywhere else it is a usage
    # error, not a silently ignored flag
    write_sq(tmp_path, F5)
    code, rep = run(capsys, command, str(tmp_path / "f.afun"), *flags)
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == "<args>:0: --p needs --field Fp"


# -- diagnostics: every document error keeps the contract -----------------------
# (document, text replaced or None to append, new text, line, message); each
# record is rejected at `path:line` with one JSON report: validate fails the
# document with exit 1, classify stops with exit 2

DOCUMENT_DIAGNOSTICS = {
    "invalid-identifier": ("a.acat", None, "object a;b", 14,
                           "invalid identifier 'a;b'"),
    "field-record": ("a.acat", "field Fp 5", "field R", 2,
                     "field record must be 'Q' or 'Fp <prime>'"),
    "mu-shape": ("a.acat", None, "mu 2 ; o o o ; 1 1", 14,
                 "mu record: mu n ; objects ; inputs ; output"),
    "mu-arity": ("a.acat", None, "mu x ; o o ; 1 ; 1 1", 14,
                 "mu arity must be an integer"),
    "mu-objects": ("a.acat", None, "mu 2 ; o o ; 1 1 ; 1 1", 14,
                   "mu arity 2 needs 3 objects"),
    "mu-inputs": ("a.acat", None, "mu 2 ; o o o ; 1 ; 1 1", 14,
                  "mu arity 2 needs 2 inputs"),
    "maxarity": ("a.acat", None, "maxarity x", 14, "maxarity needs one integer"),
    "maxarity-two-bounds": ("a.acat", None, "maxarity 3 4", 14,
                            "maxarity needs one integer"),
    "mu-vector-repeats": ("a.acat", "mu 1 ; o o ; t ; e 1", "mu 1 ; o o ; t ; e 1 e 4",
                          8, "vector names 'e' twice"),
    "unit-vector-repeats": ("a.acat", "unit o ; 1 1", "unit o ; 1 1 1 2", 7,
                            "vector names '1' twice"),
    "object-record": ("a.acat", None, "object", 14, "object record needs one name"),
    "basis-record": ("a.acat", None, "basis o o z", 14,
                     "basis record: basis x y name deg"),
    "basis-degree": ("a.acat", None, "basis o o z x", 14,
                     "basis degree must be an integer"),
    "unit-record": ("a.acat", "unit o ; 1 1", "unit o 1 1", 7,
                    "unit record: unit x ; name scalar ..."),
    "acat-unknown-record": ("a.acat", None, "frob", 14, "unknown record 'frob'"),
    "unit-unknown-object": ("a.acat", None, "unit q ; 1 1", 14,
                            "unit names unknown object 'q'"),
    "units-missing": ("a.acat", None, "object q", 1, "units missing for ['q']"),
    "comp-shape": ("f.afun", None, "comp 1 ; o o ; 1", 6,
                   "comp record: comp n ; objects ; inputs ; output"),
    "afun-unknown-record": ("f.afun", None, "frob", 6, "unknown record 'frob'"),
    "objmap-record": ("f.afun", "objmap o p", "objmap o", 4,
                      "objmap record: objmap x Fx"),
    "no-target": ("f.afun", "target b.acat\n", "", 1,
                  "functor documents need source and target"),
    "objmap-missing": ("f.afun", "objmap o p\n", "", 1, "objmap missing for 'o'"),
    "fields-differ": ("f.afun", "target b.acat", "target qb.acat", 1,
                      "source and target fields differ"),
    "functor-defect": ("f.afun", "comp 1 ; o o ; 1 ; 1' 1", "comp 1 ; o o ; 1 ; 1' 2",
                       1, "functor defect nonzero at arity 2, objects "
                          "('o', 'o', 'o'), inputs (0, 0)"),
}


@pytest.mark.parametrize("doc, old, new, line, message",
                         DOCUMENT_DIAGNOSTICS.values(), ids=DOCUMENT_DIAGNOSTICS)
def test_document_diagnostics_keep_the_contract(tmp_path, capsys, doc, old, new,
                                                line, message):
    for name in README_INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    (tmp_path / "qb.acat").write_text(
        (GOLDEN / "b.acat").read_text().replace("field Fp 5", "field Q"))
    path = tmp_path / doc
    text = path.read_text()
    assert old is None or text.count(old) == 1
    path.write_text(text + new + "\n" if old is None else text.replace(old, new))
    code, rep = run(capsys, "validate", str(path))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(path)]["witnesses"] == [f"{path}:{line}: {message}"]
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == f"{path}:{line}: {message}"


def test_unknown_document_header_fails_validate(tmp_path, capsys):
    bad = tmp_path / "x.doc"
    bad.write_text("frob\nfield Q\n")
    code, rep = run(capsys, "validate", str(bad))
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(bad)]["witnesses"] == [
        f"{bad}:1: unknown document header 'frob'"]


def test_field_flags_checked_against_the_document(tmp_path, capsys):
    # --field Q names the rationals, so an F_5 document fails validate;
    # --field Fp without --p names no field and is a usage error
    a = tmp_path / "a.acat"
    shutil.copy(GOLDEN / "a.acat", a)
    code, rep = run(capsys, "validate", str(a), "--field", "Q")
    assert code == 1 and rep["overall"] == "fail"
    assert rep["checks"][str(a)]["witnesses"] == [
        f"{a}:1: document field prime-field does not match --field"]
    code, rep = run(capsys, "validate", str(a), "--field", "Fp")
    assert code == 2 and rep["overall"] == "error"
    assert rep["error"] == "<args>:0: --field Fp needs --p <prime>"


def test_classify_without_units_is_undecided(tmp_path, capsys):
    for name in README_INPUTS:
        text = (GOLDEN / name).read_text()
        (tmp_path / name).write_text("".join(
            ln for ln in text.splitlines(keepends=True) if not ln.startswith("unit")))
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"))
    assert code == 0 and rep["overall"] == "undecided"
    assert rep["checks"]["f2_isofibration"] == {
        "verdict": "undecided", "witnesses": ["units required"], "details": {}}
    code, rep = run(capsys, "classify", str(tmp_path / "f.afun"), "--strict")
    assert code == 1 and rep["overall"] == "undecided"
