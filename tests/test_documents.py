from __future__ import annotations

import pathlib
import random

import pytest

from ainfty.fields import Field
from ainfty.documents import (
    DocumentError,
    load_category,
    load_certificates,
    load_functor,
    parse_category,
    parse_certificates,
    parse_functor,
    serialize_category,
    serialize_functor,
)

from helpers import (
    nilpotent_category,
    random_dg_category,
    sq_functor,
    sq_source,
    square_zero_extension,
    terminal_category,
    twisted_functor,
)

QQ = Field.rationals()
F5 = Field.prime(5)


def test_category_round_trip_sq():
    cat = sq_source(QQ)
    text = serialize_category(cat)
    cat2 = parse_category(text, "sq.acat")
    assert serialize_category(cat2) == text
    assert cat2.quiver == cat.quiver
    assert cat2.structure == cat.structure
    assert cat2.units == cat.units


def test_category_round_trip_random(rng):
    for seed in range(6):
        r = random.Random(seed)
        cat = random_dg_category(r, QQ if seed % 2 else F5, 1, 2)
        text = serialize_category(cat)
        assert serialize_category(parse_category(text)) == text


def test_zero_unit_round_trip():
    # an object with no homs has the zero unit, written with no pairs
    text = serialize_category(terminal_category(F5))
    assert "unit * ; \n" in text
    cat = parse_category(text, "t.acat")
    assert cat.units == {"*": {}}
    assert serialize_category(cat) == text
    # only unit records may be empty: a mu record still needs its pairs
    with pytest.raises(DocumentError) as exc:
        parse_category("acat\nfield Q\nobject o\nbasis o o x 0\n"
                       "mu 1 ; o o ; x ;\n", "m.acat")
    assert "m.acat:5: vector needs 'name scalar' pairs" in str(exc.value)


README = pathlib.Path(__file__).parent / "golden" / "readme"


@pytest.mark.parametrize("bound", [-3, 0])
def test_maxarity_below_one_is_a_document_error(tmp_path, bound):
    # a bound below 1 certifies nothing: m(e, e) = e breaks m.m = 0 at
    # arity 2, and such a record would hide that
    text = (README / "a.acat").read_text().replace(
        "field Fp 5\n", f"field Fp 5\nmaxarity {bound}\n")
    text += "mu 2 ; o o o ; e e ; e 1\n"
    with pytest.raises(DocumentError) as exc:
        parse_category(text, "a.acat")
    assert str(exc.value).startswith(f"a.acat:3: maxarity {bound} certifies")
    for name in ("a.acat", "b.acat"):
        (tmp_path / name).write_text((README / name).read_text())
    text = (README / "f.afun").read_text() + f"maxarity {bound}\n"
    ln = text.count("\n")
    with pytest.raises(DocumentError) as exc:
        parse_functor(text, str(tmp_path / "f.afun"))
    assert exc.value.line == ln and "certifies nothing" in str(exc.value)


def test_non_utf8_document_is_a_document_error(tmp_path):
    bad = tmp_path / "x.doc"
    bad.write_bytes(b"acat\nfield Q\n\xff\n")
    for load in (load_category, load_functor, load_certificates):
        with pytest.raises(DocumentError) as exc:
            load(str(bad))
        assert exc.value.line == 3 and "not UTF-8" in str(exc.value)


def test_functor_round_trip(tmp_path):
    f = sq_functor(F5)
    (tmp_path / "src.acat").write_text(serialize_category(f.source))
    (tmp_path / "tgt.acat").write_text(serialize_category(f.target))
    text = serialize_functor(f, "src.acat", "tgt.acat")
    (tmp_path / "f.afun").write_text(text)
    doc = parse_functor(text, str(tmp_path / "f.afun"))
    assert serialize_functor(doc.functor, doc.source_path, doc.target_path) == text
    assert doc.functor.morphism == f.morphism


def test_malformed_scalar_rejected():
    cat = sq_source(QQ)
    text = serialize_category(cat).replace("e 1/1", "e 1/0")
    with pytest.raises(DocumentError) as exc:
        parse_category(text, "bad.acat")
    assert "denominator" in str(exc.value)
    assert exc.value.line > 1


def test_unknown_basis_name_located():
    cat = sq_source(QQ)
    text = serialize_category(cat).replace("mu 1 ; o o ; t ;", "mu 1 ; o o ; zz ;")
    with pytest.raises(DocumentError) as exc:
        parse_category(text, "bad.acat")
    assert "zz" in str(exc.value)


def test_basis_pair_with_unknown_object_located():
    # reported at the basis record, not at line 1
    golden = pathlib.Path(__file__).parent / "golden" / "readme" / "a.acat"
    lines = golden.read_text().splitlines() + ["basis o q z 0"]
    with pytest.raises(DocumentError) as exc:
        parse_category("\n".join(lines) + "\n", "a.acat")
    assert str(exc.value) == (f"a.acat:{len(lines)}: "
                              "basis pair (o,q) names unknown objects")


def test_invalid_structure_rejected():
    # perturb a serialized valid document into one whose defect is nonzero
    cat = sq_source(QQ)
    text = serialize_category(cat).replace(
        "mu 2 ; o o o ; 1 t ; t -1/1", "mu 2 ; o o o ; 1 t ; t 1/1")
    with pytest.raises(DocumentError) as exc:
        parse_category(text, "bad.acat")
    assert "defect" in str(exc.value) or "u2" in str(exc.value)


def test_wrong_header_rejected():
    with pytest.raises(DocumentError):
        parse_category("afun\n", "x.acat")
    with pytest.raises(DocumentError):
        parse_functor("acat\n", "x.afun")


def test_missing_field_rejected():
    with pytest.raises(DocumentError) as exc:
        parse_category("acat\nobject o\n", "x.acat")
    assert "field" in str(exc.value)


def test_certificates_parse():
    text = (
        "acert\n"
        "isolift alpha ; x ; b ; u 1/1 ; a ; v 1/1\n"
        "essential F ; b ; a ; w 2/1\n"
    )
    raw = parse_certificates(text)
    assert list(raw.isolifts) == ["alpha"]
    assert list(raw.essentials) == ["F"]


def test_certificate_bad_record():
    with pytest.raises(DocumentError):
        parse_certificates("acert\nisolift onlytag\n")


def test_functor_documents_validate_composite(tmp_path):
    # a twisted functor document survives the full load path
    rng = random.Random(4)
    base = nilpotent_category(QQ, (("a", -1), ("b", 0)))
    ext, f_strict = square_zero_extension(QQ, base, acyclic=True)
    f = twisted_functor(f_strict, rng, max_arity=2, density=0.5)
    (tmp_path / "src.acat").write_text(serialize_category(f.source))
    (tmp_path / "tgt.acat").write_text(serialize_category(f.target))
    text = serialize_functor(f, "src.acat", "tgt.acat")
    doc = parse_functor(text, str(tmp_path / "f.afun"))
    assert doc.functor.morphism == f.morphism
    assert doc.functor.strictly_unital == f.strictly_unital
