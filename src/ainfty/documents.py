"""Line-delimited interchange documents and machine-readable reports.

Three document kinds, distinguished by their first record:

* ``acat``: a category document (field, objects, based homs, optional units
  and arity bound, structure components as sparse entries).
* ``afun``: a functor document referencing its source and target category
  documents by path (resolved relative to the functor document).
* ``acert``: certificate records for rational-field isomorphism searches.

Serialization is canonical: records in a fixed order, components sorted,
rationals as ``p/q`` in lowest terms with positive denominator, prime-field
scalars as residues.  ``parse(serialize(x))`` reproduces ``x`` and
``serialize(parse(text))`` reproduces canonical ``text`` byte for byte.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .fields import Field, FieldError
from .linear import GradedSpace, Vec
from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    EssentialCertificate,
    IsoLiftCertificate,
)
from .quiver import Components, FormalMorphism, GradedQuiver, QuiverError


class DocumentError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


_IDENT_BAD = set(" \t;,")


def _check_ident(path: str, line: int, token: str) -> str:
    if not token or any(c in _IDENT_BAD for c in token):
        raise DocumentError(path, line, f"invalid identifier {token!r}")
    return token


def _parse_field_record(path: str, ln: int, parts: List[str]) -> Field:
    try:
        if parts == ["Q"]:
            return Field.rationals()
        if len(parts) == 2 and parts[0] == "Fp":
            return Field.prime(int(parts[1]))
    except (ValueError, FieldError) as exc:
        raise DocumentError(path, ln, str(exc)) from exc
    raise DocumentError(path, ln, "field record must be 'Q' or 'Fp <prime>'")


def _format_field(fld: Field) -> str:
    if fld.characteristic == 0:
        return "field Q"
    return f"field Fp {fld.characteristic}"


def _parse_vec(path: str, ln: int, fld: Field, space: GradedSpace,
               tokens: List[str]) -> Vec:
    if len(tokens) % 2 != 0 or not tokens:
        raise DocumentError(path, ln, "vector needs 'name scalar' pairs")
    vec: Vec = {}
    named = set()
    for name, sc in zip(tokens[::2], tokens[1::2]):
        if name in named:
            raise DocumentError(path, ln, f"vector names {name!r} twice")
        named.add(name)
        try:
            idx = space.index(name)
        except ValueError as exc:
            raise DocumentError(path, ln, str(exc)) from exc
        try:
            val = fld.parse(sc)
        except FieldError as exc:
            raise DocumentError(path, ln, str(exc)) from exc
        if not fld.is_zero(val):
            vec[idx] = val
    return vec


def _format_vec(fld: Field, space: GradedSpace, vec: Vec) -> str:
    return " ".join(
        f"{space.name(i)} {fld.format(vec[i])}" for i in sorted(vec)
    )


def _records(text: str, path: str, header: str, kind: str) -> List[Tuple[int, str]]:
    """(line number, text) of every record after the header line; blank
    lines and ``#`` comments are skipped."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise DocumentError(path, 1, f"{kind} documents start with {header!r}")
    stripped = ((ln, raw.strip()) for ln, raw in enumerate(lines[1:], start=2))
    return [(ln, line) for ln, line in stripped
            if line and not line.startswith("#")]


def _once(seen: Dict[tuple, int], key: tuple, path: str, ln: int) -> None:
    """A record that sets key (key[0] is its kind) may appear once; a second
    one is an error at its own line rather than silently the winner."""
    if key in seen:
        raise DocumentError(path, ln, f"{key[0]} record repeats line {seen[key]}")
    seen[key] = ln


def _parse_entry(path: str, ln: int, fields: List[str], fld: Field,
                 source: GradedQuiver, target: GradedQuiver,
                 object_map: Dict[str, str]):
    """One ``mu`` or ``comp`` record: ``kind n ; objects ; inputs ; output``.

    Inputs name basis elements of `source`; the output names basis elements
    of `target` at the images of the end objects.  Returns the component
    key, the input tuple and the output vector.
    """
    head = fields[0].split()
    kind = head[0]
    if len(fields) != 4:
        raise DocumentError(path, ln,
                            f"{kind} record: {kind} n ; objects ; inputs ; output")
    try:
        n = int(head[1])
    except (IndexError, ValueError) as exc:
        raise DocumentError(path, ln, f"{kind} arity must be an integer") from exc
    if n < 1:
        raise DocumentError(path, ln, f"{kind} arity must be at least 1")
    objs = tuple(fields[1].split())
    if len(objs) != n + 1:
        raise DocumentError(path, ln, f"{kind} arity {n} needs {n + 1} objects")
    in_names = fields[2].split()
    if len(in_names) != n:
        raise DocumentError(path, ln, f"{kind} arity {n} needs {n} inputs")
    in_t = []
    for i, name in enumerate(in_names):
        sp = source.space(objs[n - 1 - i], objs[n - i])
        try:
            in_t.append(sp.index(name))
        except ValueError as exc:
            raise DocumentError(path, ln, str(exc)) from exc
    out_space = target.space(object_map.get(objs[0]), object_map.get(objs[-1]))
    vec = _parse_vec(path, ln, fld, out_space, fields[3].split())
    return (n, objs), tuple(in_t), vec


def _format_entries(kind: str, fld: Field, source: GradedQuiver,
                    target: GradedQuiver, object_map: Dict[str, str],
                    components: Components) -> List[str]:
    """The sorted ``mu`` or ``comp`` records of a component family."""
    records = []
    for (n, objs), table in components.items():
        out_space = target.space(object_map[objs[0]], object_map[objs[-1]])
        for in_t, vec in table.items():
            names = [
                source.space(objs[n - 1 - i], objs[n - i]).name(b)
                for i, b in enumerate(in_t)
            ]
            records.append(
                f"{kind} {n} ; {' '.join(objs)} ; {' '.join(names)} ; "
                f"{_format_vec(fld, out_space, vec)}"
            )
    return sorted(records)


def _capped(max_arity: Optional[int], cap: Optional[int]) -> Optional[int]:
    """A document's own arity bound, lowered to `cap` when one is given."""
    if cap is None:
        return max_arity
    return cap if max_arity is None else min(max_arity, cap)


def _parse_maxarity(path: str, ln: int, parts: List[str]) -> Tuple[int, int]:
    """A maxarity record's bound and line."""
    try:
        _, bound = parts
        return int(bound), ln
    except ValueError as exc:
        raise DocumentError(path, ln, "maxarity needs one integer") from exc


def _certifies(path: str, ln: int, max_arity: Optional[int], built):
    """`built` (a category or functor), unless its document's maxarity
    record is below 1 and not total for it: such a bound certifies nothing."""
    if max_arity is not None and max_arity < 1 and not built.total:
        raise DocumentError(path, ln, f"maxarity {max_arity} certifies nothing "
                                      "(below 1 and not total)")
    return built


def _read_document(path: str) -> str:
    """A document's text; a byte that is not UTF-8 is a document error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(path, data.count(b"\n", 0, exc.start) + 1,
                            f"not UTF-8 text: {exc.reason}") from exc


# -- category documents -----------------------------------------------------

def parse_category(text: str, path: str = "<category>",
                   cap: Optional[int] = None) -> AInftyCategory:
    fld: Optional[Field] = None
    max_arity: Optional[int] = None
    arity_ln = 0
    objects: List[str] = []
    basis: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    basis_ln: Dict[Tuple[str, str], int] = {}
    unit_lines: List[Tuple[int, str, List[str]]] = []
    mu_lines: List[Tuple[int, List[str]]] = []
    seen: Dict[tuple, int] = {}
    for ln, line in _records(text, path, "acat", "category"):
        parts = line.split()
        kind = parts[0]
        if kind in ("field", "maxarity"):
            _once(seen, (kind,), path, ln)
        if kind == "field":
            fld = _parse_field_record(path, ln, parts[1:])
        elif kind == "maxarity":
            max_arity, arity_ln = _parse_maxarity(path, ln, parts)
        elif kind == "object":
            if len(parts) != 2:
                raise DocumentError(path, ln, "object record needs one name")
            _once(seen, (kind, parts[1]), path, ln)
            objects.append(_check_ident(path, ln, parts[1]))
        elif kind == "basis":
            if len(parts) != 5:
                raise DocumentError(path, ln, "basis record: basis x y name deg")
            x, y, name = (_check_ident(path, ln, p) for p in parts[1:4])
            _once(seen, (kind, x, y, name), path, ln)
            try:
                deg = int(parts[4])
            except ValueError as exc:
                raise DocumentError(path, ln, "basis degree must be an integer") from exc
            basis.setdefault((x, y), []).append((name, deg))
            basis_ln.setdefault((x, y), ln)
        elif kind == "unit":
            fields = [f.strip() for f in line.split(";")]
            head = fields[0].split()
            if len(head) != 2 or len(fields) != 2:
                raise DocumentError(path, ln, "unit record: unit x ; name scalar ...")
            _once(seen, (kind, head[1]), path, ln)
            unit_lines.append((ln, head[1], fields[1].split()))
        elif kind == "mu":
            mu_lines.append((ln, [f.strip() for f in line.split(";")]))
        else:
            raise DocumentError(path, ln, f"unknown record {kind!r}")
    if fld is None:
        raise DocumentError(path, 1, "missing field record")
    for (x, y) in basis:
        if x not in objects or y not in objects:
            raise DocumentError(path, basis_ln[(x, y)],
                                f"basis pair ({x},{y}) names unknown objects")
    quiver = GradedQuiver(fld, tuple(objects), {
        pair: GradedSpace(tuple(b)) for pair, b in basis.items()})
    comps: Components = {}
    ident = {x: x for x in objects}
    for ln, fields in mu_lines:
        key, in_t, vec = _parse_entry(path, ln, fields, fld, quiver, quiver, ident)
        _once(seen, ("mu", key, in_t), path, ln)
        comps.setdefault(key, {})[in_t] = vec
    units = None
    if unit_lines:
        units = {}
        for ln, x, tokens in unit_lines:
            if x not in objects:
                raise DocumentError(path, ln, f"unit names unknown object {x!r}")
            # a zero unit (an object with no homs) is written with no pairs
            units[x] = (_parse_vec(path, ln, fld, quiver.space(x, x), tokens)
                        if tokens else {})
        missing = [x for x in objects if x not in units]
        if missing:
            raise DocumentError(path, 1, f"units missing for {missing}")
    try:
        cat = AInftyCategory.build(quiver, comps, units=units,
                                   max_arity=_capped(max_arity, cap))
    except (AInftyError, QuiverError) as exc:
        raise DocumentError(path, 1, str(exc)) from exc
    return _certifies(path, arity_ln, max_arity, cat)


def serialize_category(cat: AInftyCategory) -> str:
    fld = cat.fld
    out = ["acat", _format_field(fld), f"maxarity {cat.arity_bound}"]
    for x in cat.objects:
        out.append(f"object {x}")
    for x in cat.objects:
        for y in cat.objects:
            sp = cat.quiver.space(x, y)
            for name, deg in sp.basis:
                out.append(f"basis {x} {y} {name} {deg}")
    if cat.units is not None:
        for x in cat.objects:
            vec = cat.units[x]
            out.append(f"unit {x} ; {_format_vec(fld, cat.quiver.space(x, x), vec)}")
    out.extend(_format_entries("mu", fld, cat.quiver, cat.quiver,
                               {x: x for x in cat.objects},
                               cat.structure.components))
    return "\n".join(out) + "\n"


def _load_once(loaded: Optional[dict], kind: str, path: str,
               cap: Optional[int], parse):
    """parse(), or what it gave for the same kind (``acat`` or ``afun``),
    file (device and inode: one stat, through symlinks) and cap when `loaded`
    (one dict per command) has it; a failed parse is not kept, and a path
    that cannot be stat'ed is parsed uncached, to fail as it would.  A
    functor document names its categories relative to the directory of the
    path it is read through, so that directory is part of an afun key."""
    if loaded is None:
        return parse()
    try:
        st = os.stat(path)
    except OSError:
        return parse()
    key = (kind, st.st_dev, st.st_ino, cap,
           os.path.dirname(path) if kind == "afun" else None)
    if key not in loaded:
        loaded[key] = parse()
    return loaded[key]


def load_category(path: str, cap: Optional[int] = None,
                  loaded: Optional[dict] = None) -> AInftyCategory:
    """Parse a category document; `cap` lowers its verification bound.
    With a `loaded` dict each (file, cap) is parsed and certified
    once, and later loads return the same category."""
    return _load_once(loaded, "acat", path, cap,
                      lambda: parse_category(_read_document(path), path, cap))


# -- functor documents ------------------------------------------------------

@dataclass
class FunctorDocument:
    functor: AInftyFunctor
    source_path: str
    target_path: str


def parse_functor(text: str, path: str = "<functor>",
                  cap: Optional[int] = None,
                  loaded: Optional[dict] = None) -> FunctorDocument:
    records = _records(text, path, "afun", "functor")
    base_dir = os.path.dirname(path)
    source_path = target_path = None
    max_arity: Optional[int] = None
    arity_ln = 0
    objmap: Dict[str, str] = {}
    objmap_lines: Dict[str, int] = {}
    comp_lines: List[Tuple[int, List[str]]] = []
    seen: Dict[tuple, int] = {}
    for ln, line in records:
        parts = line.split()
        kind = parts[0]
        if kind in ("source", "target", "maxarity"):
            _once(seen, (kind,), path, ln)
        if kind in ("source", "target") and len(parts) < 2:
            raise DocumentError(path, ln, f"{kind} record: {kind} <path>")
        if kind == "source":
            source_path = line.split(None, 1)[1].strip()
        elif kind == "target":
            target_path = line.split(None, 1)[1].strip()
        elif kind == "maxarity":
            max_arity, arity_ln = _parse_maxarity(path, ln, parts)
        elif kind == "objmap":
            if len(parts) != 3:
                raise DocumentError(path, ln, "objmap record: objmap x Fx")
            _once(seen, (kind, parts[1]), path, ln)
            objmap[parts[1]] = parts[2]
            objmap_lines[parts[1]] = ln
        elif kind == "comp":
            comp_lines.append((ln, [f.strip() for f in line.split(";")]))
        else:
            raise DocumentError(path, ln, f"unknown record {kind!r}")
    if source_path is None or target_path is None:
        raise DocumentError(path, 1, "functor documents need source and target")
    source = load_category(os.path.join(base_dir, source_path), cap, loaded)
    target = load_category(os.path.join(base_dir, target_path), cap, loaded)
    for x in source.objects:
        if x not in objmap:
            raise DocumentError(path, 1, f"objmap missing for {x!r}")
    for x, ln in objmap_lines.items():
        if x not in source.objects:
            raise DocumentError(path, ln,
                                f"objmap names unknown source object {x!r}")
        if objmap[x] not in target.objects:
            raise DocumentError(path, ln, f"objmap maps {x!r} to unknown "
                                f"target object {objmap[x]!r}")
    comps: Components = {}
    fld = source.fld
    if fld != target.fld:
        raise DocumentError(path, 1, "source and target fields differ")
    for ln, fields in comp_lines:
        key, in_t, vec = _parse_entry(path, ln, fields, fld, source.quiver,
                                      target.quiver, objmap)
        _once(seen, ("comp", key, in_t), path, ln)
        comps.setdefault(key, {})[in_t] = vec
    morphism = FormalMorphism(source.quiver, target.quiver, objmap, comps)
    try:
        functor = AInftyFunctor.build(morphism, source, target,
                                      max_arity=_capped(max_arity, cap))
    except AInftyError as exc:
        raise DocumentError(path, 1, str(exc)) from exc
    return FunctorDocument(_certifies(path, arity_ln, max_arity, functor),
                           source_path, target_path)


def serialize_functor(functor: AInftyFunctor, source_path: str,
                      target_path: str) -> str:
    fld = functor.source.fld
    out = ["afun", f"source {source_path}", f"target {target_path}",
           f"maxarity {functor.arity_bound}"]
    for x in functor.source.objects:
        out.append(f"objmap {x} {functor.object_map[x]}")
    out.extend(_format_entries("comp", fld, functor.source.quiver,
                               functor.target.quiver, functor.object_map,
                               functor.morphism.components))
    return "\n".join(out) + "\n"


def load_functor(path: str, cap: Optional[int] = None,
                 loaded: Optional[dict] = None) -> FunctorDocument:
    """Parse a functor document and the category documents it names; `cap`
    lowers the verification bound of all three.  With a `loaded` dict (one
    per command) each (file, cap), functor or category, is parsed
    and certified once: functors naming the same category share it."""
    return _load_once(loaded, "afun", path, cap, lambda: parse_functor(
        _read_document(path), path, cap=cap, loaded=loaded))


# -- certificates -----------------------------------------------------------

@dataclass
class RawCertificates:
    """Certificate records with unresolved basis names, grouped by tag; each
    record keeps its line, so that resolving reports ``path:line``."""

    path: str = "<certificates>"
    isolifts: Dict[str, List[Tuple[int, str, str, List[str], str, List[str]]]] = field(
        default_factory=dict)
    essentials: Dict[str, List[Tuple[int, str, str, List[str]]]] = field(
        default_factory=dict)

    def _check_objects(self, ln: int, *named: Tuple[str, AInftyCategory]) -> None:
        for x, cat in named:
            if x not in cat.objects:
                raise DocumentError(self.path, ln,
                                    f"certificate names unknown object {x!r}")

    def resolve_isolifts(self, tag: str, functor: AInftyFunctor
                         ) -> List[IsoLiftCertificate]:
        out = []
        src, tgt = functor.source, functor.target
        for (ln, x, b, iso_tokens, a, lift_tokens) in self.isolifts.get(tag, []):
            self._check_objects(ln, (x, src), (b, tgt), (a, src))
            iso = _parse_vec(self.path, ln, src.fld,
                             tgt.quiver.space(functor.object_map[x], b), iso_tokens)
            lift = _parse_vec(self.path, ln, src.fld, src.quiver.space(x, a),
                              lift_tokens)
            out.append(IsoLiftCertificate(x, b, iso, a, lift))
        return out

    def resolve_essentials(self, tag: str, functor: AInftyFunctor
                           ) -> List[EssentialCertificate]:
        out = []
        src, tgt = functor.source, functor.target
        for (ln, b, a, iso_tokens) in self.essentials.get(tag, []):
            self._check_objects(ln, (b, tgt), (a, src))
            iso = _parse_vec(self.path, ln, src.fld,
                             tgt.quiver.space(functor.object_map[a], b), iso_tokens)
            out.append(EssentialCertificate(b, a, iso))
        return out


def parse_certificates(text: str, path: str = "<certificates>") -> RawCertificates:
    raw = RawCertificates(path)
    for ln, line in _records(text, path, "acert", "certificate"):
        fields = [f.strip() for f in line.split(";")]
        head = fields[0].split() or [""]
        if head[0] == "isolift":
            # isolift tag ; x ; b ; iso-vec ; a ; lift-vec
            if len(head) != 2 or len(fields) != 6:
                raise DocumentError(
                    path, ln,
                    "isolift record: isolift tag ; x ; b ; iso-vec ; a ; lift-vec")
            tag = head[1]
            x, b, a = fields[1], fields[2], fields[4]
            raw.isolifts.setdefault(tag, []).append(
                (ln, x, b, fields[3].split(), a, fields[5].split()))
        elif head[0] == "essential":
            if len(head) != 2 or len(fields) != 4:
                raise DocumentError(
                    path, ln, "essential record: essential tag ; b ; a ; iso-vec")
            tag = head[1]
            raw.essentials.setdefault(tag, []).append(
                (ln, fields[1], fields[2], fields[3].split()))
        else:
            raise DocumentError(path, ln, f"unknown record {head[0]!r}")
    return raw


def load_certificates(path: str) -> RawCertificates:
    return parse_certificates(_read_document(path), path)
