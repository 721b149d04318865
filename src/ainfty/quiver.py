"""Graded quivers, formal morphisms, prenatural transformations.

Conventions, fixed once for the whole package:

* An arity-n input tuple is written left to right as (f_n, ..., f_1); f_1 is
  the first-applied input.  The object tuple is (x_0, ..., x_n) with
  f_j in hom(x_{j-1}, x_j), so tuple position i holds f_{n-i}.
* A formal morphism component of arity n has degree shift 1-n; a prenatural
  of degree g has arity-n shift g-n.  Every arity is >= 1: families are
  flat, and both constructors raise QuiverError on an arity-0 key.
* Reduced degree of a basis element is deg - 1.  Inserting a prenatural of
  degree g past inputs of total reduced degree R contributes the Koszul sign
  (-1)**((g-1) * R).  Compositions of formal morphisms carry no signs.

Components are stored sparsely: {(arity, object tuple): {input tuple: output
vector}}.  The constructors of FormalMorphism and Prenatural own this
invariant: each copies the family it is given into fresh outer and table
dicts with no empty vector and no empty table, so equality is equality of
the stored dicts and filling in the dict passed to a constructor leaves the
family as it was.  Vectors are shared, not copied: nothing writes into a
vector it did not build.  `validate` also says whether every coefficient is
reduced and nonzero, the canonical form that `build` stores.  The identity
is a type, `Identity`, which the engine tests instead of the data.
`compose_formal` and `r_compose` compose an identity built by hand in full,
with the same result; a prenatural is inserted only between `Identity`
endpoints (the double sum), and any other endpoints raise QuiverError.

Basis tokens are ints that each fix a basis element of one hom and the
parity of its reduced degree (`_tokens`, once per quiver).  The sums that
must vanish key each word by one bytes object, its input tokens and then
its output's token, 4 bytes each, and decode only the sums that do not
cancel: `double_sum`, m . m of one structure, reads each arity of m once
for both roles, and `functor_sum` adds F . m_A and -m_B . F into one dict.
Every kept sum goes through `_expand`, keyed by (path, inputs, output
index); the kept double sum, `_add_double_sum`, inserts any flat
prenatural in one pass over the outer entries.  Only m . m runs on an
arity schedule (`_schedule`); both double sums share the sign rule.
"""
from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .fields import Field, Scalar
from .linear import EMPTY_SPACE, GradedSpace, Vec

Components = Dict[Tuple[int, Tuple[str, ...]], Dict[Tuple[int, ...], Vec]]


class QuiverError(ValueError):
    """Structural errors: endpoint mismatches, degree violations."""


@dataclass(frozen=True)
class GradedQuiver:
    """Objects plus a graded hom space for every ordered pair."""

    fld: Field
    objects: Tuple[str, ...]
    hom: Dict[Tuple[str, str], GradedSpace] = field(default_factory=dict)
    _interval: Optional[Tuple[int, int]] = field(init=False, repr=False, compare=False)
    _numbering: Optional[tuple] = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise QuiverError("duplicate object names")
        for (x, y) in self.hom:
            if x not in self.objects or y not in self.objects:
                raise QuiverError(f"hom pair ({x},{y}) outside the object set")
        degs = [d for sp in self.hom.values() for _, d in sp.basis]
        object.__setattr__(self, "_interval", (min(degs), max(degs)) if degs else None)

    def space(self, x: str, y: str) -> GradedSpace:
        return self.hom.get((x, y), EMPTY_SPACE)

    def degree_interval(self) -> Optional[Tuple[int, int]]:
        """The least and greatest basis degree, or None with no basis."""
        return self._interval

    def paths(self, n: int) -> Iterator[Tuple[str, ...]]:
        """Object tuples (x_0..x_n) whose consecutive homs are all nonzero."""
        paths = [(x,) for x in self.objects]
        for _ in range(n):
            paths = [path + (y,) for path in paths for y in self.objects
                     if self.space(path[-1], y).dim > 0]
        return iter(paths)

    def basis_tuples(self, objs: Tuple[str, ...]) -> Iterator[Tuple[int, ...]]:
        """All input index tuples for the object tuple, in (f_n..f_1) order."""
        n = len(objs) - 1
        return itertools.product(*(range(self.space(objs[n - 1 - i], objs[n - i]).dim)
                                   for i in range(n)))

    def input_degrees(self, objs: Tuple[str, ...], in_t: Tuple[int, ...]) -> List[int]:
        n = len(objs) - 1
        return [
            self.space(objs[n - 1 - i], objs[n - i]).degree(b)
            for i, b in enumerate(in_t)
        ]


def normalize_components(comps: Components) -> Components:
    """A fresh copy of comps without empty vectors or empty tables;
    QuiverError on a key of arity < 1, as families are flat."""
    out: Components = {}
    for key, table in comps.items():
        if key[0] < 1:
            raise QuiverError(f"no component of arity {key[0]}: families are flat")
        clean = {it: v for it, v in table.items() if v}
        if clean:
            out[key] = clean
    return out


@dataclass
class FormalMorphism:
    """Object map plus arity-indexed multilinear components of shift 1-n."""

    source: GradedQuiver
    target: GradedQuiver
    object_map: Dict[str, str]
    components: Components = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.components = normalize_components(self.components)

    def out_pair(self, objs: Tuple[str, ...]) -> Tuple[str, str]:
        return (self.object_map[objs[0]], self.object_map[objs[-1]])

    def shift(self, n: int) -> int:
        return 1 - n

    def component(self, n: int, objs: Tuple[str, ...]) -> Dict[Tuple[int, ...], Vec]:
        return self.components.get((n, objs), {})

    def validate(self) -> bool:
        return _validate_family(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalMorphism):
            return NotImplemented
        return (self.object_map == other.object_map
                and self.components == other.components)


@dataclass
class Prenatural:
    """Degree-g arity-indexed family between two formal morphisms."""

    frm: FormalMorphism
    to: FormalMorphism
    degree: int
    components: Components = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.components = normalize_components(self.components)

    @property
    def source(self) -> GradedQuiver:
        return self.frm.source

    @property
    def target(self) -> GradedQuiver:
        return self.frm.target

    def out_pair(self, objs: Tuple[str, ...]) -> Tuple[str, str]:
        return (self.frm.object_map[objs[0]], self.to.object_map[objs[-1]])

    def shift(self, n: int) -> int:
        return self.degree - n

    def component(self, n: int, objs: Tuple[str, ...]) -> Dict[Tuple[int, ...], Vec]:
        return self.components.get((n, objs), {})

    def validate(self) -> bool:
        return _validate_family(self)

    def sub(self, other: "Prenatural") -> "Prenatural":
        """self - other in one pass over other's entries, each difference
        reduced once with no `Field` call; the tables other does not touch
        are shared until the constructor copies them."""
        if self.degree != other.degree:
            raise QuiverError("cannot subtract prenaturals of different degrees")
        p = self.source.fld.characteristic
        comps: Components = dict(self.components)
        for key, table in other.components.items():
            mine = dict(comps.get(key, {}))
            for it, v in table.items():
                vec = dict(mine.get(it, {}))
                for oi, c in v.items():
                    s = vec.get(oi, 0) - c
                    if p:
                        s %= p
                    if s:
                        vec[oi] = s
                    else:
                        vec.pop(oi, None)
                mine[it] = vec
            comps[key] = mine
        return Prenatural(self.frm, self.to, self.degree, comps)

    def arity_part(self, n: int) -> "Prenatural":
        comps = {k: t for k, t in self.components.items() if k[0] == n}
        return Prenatural(self.frm, self.to, self.degree, comps)

    def first_nonzero(self) -> Optional[Tuple[int, Tuple[str, ...], Tuple[int, ...]]]:
        return first_difference(self.components, {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prenatural):
            return NotImplemented
        return (self.degree == other.degree
                and self.components == other.components)


def first_difference(a: Components, b: Components
                     ) -> Optional[Tuple[int, Tuple[str, ...], Tuple[int, ...]]]:
    """(arity, objects, inputs) of the first entry, keys and then inputs in
    sorted order, where two component families differ; None when they
    agree."""
    for key in sorted(a.keys() | b.keys()):
        ta, tb = a.get(key, {}), b.get(key, {})
        if ta != tb:
            for it in sorted(ta.keys() | tb.keys()):
                if ta.get(it, {}) != tb.get(it, {}):
                    return (key[0], key[1], it)
    return None


def _validate_family(fam) -> bool:
    """Raise QuiverError at the first malformed entry; return whether every
    coefficient is canonical, reduced and nonzero."""
    src, tgt = fam.source, fam.target
    p, canonical = tgt.fld.characteristic, True
    for (n, objs), table in fam.components.items():
        if len(objs) != n + 1:
            raise QuiverError(f"object tuple {objs} has wrong length for arity {n}")
        for x in objs:
            if x not in src.objects:
                raise QuiverError(f"object {x!r} not in the source quiver")
        out_space = tgt.space(*fam.out_pair(objs))
        # the basis of each input, in input tuple order
        bases = [src.space(objs[n - 1 - i], objs[n - i]).basis for i in range(n)]
        shift = fam.shift(n)
        for in_t, vec in table.items():
            if len(in_t) != n:
                raise QuiverError(f"input tuple {in_t} has wrong arity")
            want = shift
            for basis, b in zip(bases, in_t):
                if not 0 <= b < len(basis):
                    raise QuiverError("input index outside the source hom space")
                want += basis[b][1]
            for oi, c in vec.items():
                canonical = canonical and (0 < c < p if p else c != 0)
                if not 0 <= oi < out_space.dim:
                    raise QuiverError("output index outside the target hom space")
                if out_space.degree(oi) != want:
                    raise QuiverError(
                        f"degree violation at arity {n}, objects {objs}: "
                        f"output {out_space.name(oi)} has degree "
                        f"{out_space.degree(oi)}, expected {want}"
                    )
    return canonical


class Identity(FormalMorphism):
    """The identity of a quiver, made from the quiver alone, so that
    `dataclasses.replace` cannot give one other data (it raises TypeError)."""

    def __init__(self, q: GradedQuiver) -> None:
        super().__init__(q, q, {x: x for x in q.objects},
                         {(1, pair): {(i,): {i: q.fld.one} for i in range(sp.dim)}
                          for pair, sp in q.hom.items() if sp.dim})


identity_formal = Identity


# -- sparse contraction engine ----------------------------------------------

# inverted index: (target pair, output basis index) -> start object -> entries
_Entry = Tuple[Tuple[str, ...], Tuple[int, ...], Scalar]
_Inv = Dict[Tuple[Tuple[str, str], int], Dict[str, List[_Entry]]]


def _invert(fam) -> _Inv:
    inv: _Inv = {}
    for (n, objs), table in fam.components.items():
        pair = fam.out_pair(objs)
        for in_t, vec in table.items():
            for oi, c in vec.items():
                inv.setdefault((pair, oi), {}).setdefault(objs[0], []).append(
                    (objs, in_t, c)
                )
    return inv


_Tokens = Dict[Tuple[str, str], List[int]]
_Packed = Dict[Tuple[str, str], List[bytes]]


def _tokens(q: GradedQuiver) -> Tuple[_Tokens, List[Tuple[str, str, int]], _Packed]:
    """Each basis element b of hom(x, y) numbered: its token 2 i + odd, odd
    when its reduced degree is, at tokens[(x, y)][b], the token packed as a
    4-byte native unsigned int at packed[(x, y)][b], and cells[i] = (x, y,
    b).  A quiver is numbered once, on first use, and keeps its numbering."""
    if q._numbering is None:
        tokens: _Tokens = {}
        cells: List[Tuple[str, str, int]] = []
        for (x, y), sp in q.hom.items():
            toks = tokens[(x, y)] = []
            for b, (_, deg) in enumerate(sp.basis):
                toks.append(2 * len(cells) + (deg % 2 == 0))
                cells.append((x, y, b))
        packed = {xy: [struct.pack("=I", t) for t in ts] for xy, ts in tokens.items()}
        object.__setattr__(q, "_numbering", (tokens, cells, packed))
    return q._numbering


_Flat = Dict[Tuple[Tuple[str, ...], Tuple[int, ...], int], Scalar]


def _expand(outer, blocks, max_arity: int) -> Components:
    """The sum, under each component of `outer`, over words of `blocks` of
    arity <= max_arity: the one entry for every kept sum.

    A formal morphism `blocks` is swept as a plain block sum, one block at
    a time: each partial word (end object, path, inputs, coefficient) is
    extended by the entries of the next block's bucket that start at its
    end object and leave room for the blocks after it (arity >= 1 each).  A
    prenatural is inserted once among identity blocks, the double sum
    (`_add_double_sum`), and must go between `Identity` endpoints, or
    QuiverError is raised.  Either sum adds its products, with no `Field`
    call per word, into one dict keyed (path, inputs, output index), and
    `_regrouped` reduces each sum once.
    """
    fld = blocks.source.fld
    if isinstance(blocks, Prenatural):
        _check_inserted(blocks)
        return _regrouped(fld, _add_double_sum(outer, blocks, max_arity))
    inv = _invert(blocks)
    flat: _Flat = {}
    get = flat.get
    for (r, Y), table in outer.components.items():
        for in_t, out_vec in table.items():
            room = max_arity - (r - 1)
            words = [(epath[-1], epath, ein, ec)
                     for lst in inv.get(((Y[0], Y[1]), in_t[r - 1]), {}).values()
                     for epath, ein, ec in lst if len(ein) <= room]
            for j in range(2, r + 1):
                buckets = inv.get(((Y[j - 1], Y[j]), in_t[r - j]), {})
                room = max_arity - (r - j)
                words = [(epath[-1], path + epath[1:], ein + acc, coeff * ec)
                         for end, path, acc, coeff in words
                         for epath, ein, ec in buckets.get(end, ())
                         if len(ein) + len(acc) <= room]
            for oi, x in out_vec.items():
                for _, path, acc, coeff in words:
                    key = (path, acc, oi)
                    flat[key] = get(key, 0) + coeff * x
    return _regrouped(fld, flat)


def _check_inserted(ins: Prenatural) -> None:
    """QuiverError unless ins goes between `Identity` endpoints: a double
    sum inserts it among identity blocks and sums no other words."""
    if not (isinstance(ins.frm, Identity) and isinstance(ins.to, Identity)):
        raise QuiverError("an inserted prenatural must go between Identity endpoints")


def _regrouped(fld: Field, flat: _Flat) -> Components:
    """The sums of `flat`, each reduced once by `Field.reduced`, regrouped
    into components without the zeros, in the order the words reached them."""
    result: Components = {}
    for (path, acc, oi), c in fld.reduced(flat).items():
        result.setdefault((len(acc), path), {}).setdefault(acc, {})[oi] = c
    return result


def _add_double_sum(outer, ins: Prenatural, max_arity: int) -> _Flat:
    """The double sum over (entry, slot k) of outer(..., ins(...), ...), in
    one pass over outer's entries: an `ins` entry with e inputs in the
    bucket of slot k of an arity-r entry replaces that slot, giving a word
    of arity r - 1 + e, kept when that is at most max_arity.

    The insertion is indexed by (output token, input count) once per call.
    Slot k's sign flips past each slot j < k whose token is odd, when ins
    has even degree; each (outer entry, slot, insertion entry) triple is
    visited once.  The sums that must vanish are summed over tokens instead
    (`double_sum`, `functor_sum`).
    """
    tokens = _tokens(outer.source)[0]
    index: Dict[int, Dict[int, List[_Entry]]] = {}
    for (e, objs), table in ins.components.items():
        outs = tokens[ins.out_pair(objs)]
        for in_t, vec in table.items():
            for b, c in vec.items():
                index.setdefault(outs[b], {}).setdefault(e, []).append((objs, in_t, c))
    flip = (ins.degree - 1) % 2
    flat: _Flat = {}
    get = flat.get
    for (r, Y), table in outer.components.items():
        lists = [tokens[(Y[r - 1 - i], Y[r - i])] for i in range(r)]
        for in_t, out_vec in table.items():
            items, sign = out_vec.items(), 1
            for i in range(r - 1, -1, -1):
                t = lists[i][in_t[i]]
                lengths = index.get(t)
                if lengths:
                    signed = items if sign == 1 else [(oi, -x) for oi, x in items]
                    head, tail = Y[:r - 1 - i], Y[r + 1 - i:]
                    before, after = in_t[:i], in_t[i + 1:]
                    for e, entries in lengths.items():
                        if r - 1 + e > max_arity:
                            continue
                        for oi, x in signed:
                            for epath, ein, ec in entries:
                                key = (head + epath + tail, before + ein + after, oi)
                                flat[key] = get(key, 0) + ec * x
                if flip and t & 1:
                    sign = -sign
    return flat


def _rows(fam) -> Dict[int, List[Tuple[Tuple[str, ...], Dict[Tuple[int, ...], Vec]]]]:
    """fam's (objects, table) pairs by arity."""
    rows: Dict[int, list] = {}
    for (r, Y), table in fam.components.items():
        rows.setdefault(r, []).append((Y, table))
    return rows


def _schedule(rows, max_arity: int) -> Iterator[Tuple[int, range]]:
    """The arities of m . m, from m's arities (`rows`): (n, the outer
    arities r whose words with one insertion of arity n + 1 - r have arity
    n), for n from 1 to max_arity or to the last arity a word reaches,
    2 widest - 1, whichever comes first."""
    shortest, widest = min(rows, default=1), max(rows, default=0)
    for n in range(1, min(max_arity, 2 * widest - 1) + 1):
        yield n, range(max(1, n + 1 - widest), min(n + 2 - shortest, widest + 1))


# -- the sums that must vanish: words keyed by packed basis tokens -------------

def double_sum(m: Prenatural, max_arity: int) -> Iterator[Tuple[int, Components]]:
    """m . m one output arity at a time, on `_schedule`: yields (n, the
    arity-n part of m over words with one m block among identity blocks).

    This stream must vanish, so it is summed in token space: each word is
    keyed by one bytes object (`_token_pass`), and each part decodes only
    its nonzero sums, none on an accepted structure.  Step n reads m's
    arity-n entries once, as outer entries and as insertions together, so a
    consumer that stops at arity n has read only m^1..m^n; each (outer
    entry, slot, output, insertion entry) is visited once.
    """
    q = m.source
    tokens, cells, packed = _tokens(q)
    rows = _rows(m)
    passes: list = [None]           # passes[r]: (slots, bucket) of m's arity r
    flat: Dict[bytes, Scalar] = {}
    get = flat.get
    for n, arities in _schedule(rows, max_arity):
        passes.append(_token_pass(n, rows.get(n, ()), tokens, tokens, packed))
        for r in arities:
            bucket = passes[n + 1 - r][1]
            for t, before, tail, x in passes[r][0]:
                entries = bucket.get(t)
                if entries:
                    for ein, ec in entries:
                        key = before + ein + tail
                        flat[key] = get(key, 0) + ec * x
        yield n, _decoded(q, flat, cells, cells)
        flat.clear()


def functor_sum(f: FormalMorphism, m_a: Prenatural, m_b: Prenatural,
                max_arity: int) -> Components:
    """F . m_A - m_B . F up to max_arity, the sum that vanishes on a functor,
    summed over the source's tokens.  Both sides add into one dict keyed as
    in `double_sum`, each output's token from the target's numbering, so
    they cancel before any decode: an accepted functor decodes nothing.
    F's entries are tokenized once (`_token_pass`), for their signed slots
    under one m_A entry and as blocks under m_B.  m_A must go between
    `Identity` endpoints, or QuiverError is raised before any sum."""
    _check_inserted(m_a)
    q = f.source
    tokens, cells, packed = _tokens(q)
    b_tokens, b_cells, b_packed = _tokens(f.target)
    om = f.object_map
    f_outs = {(x, y): b_tokens.get((om[x], om[y])) for x in om for y in om}
    f_packed = {(x, y): b_packed.get((om[x], om[y])) for x in om for y in om}
    f_passes = {r: _token_pass(r, rows, tokens, f_outs, f_packed)
                for r, rows in sorted(_rows(f).items()) if r <= max_arity}
    # F . m_A: F's slot records by token, in increasing arity, against the
    # m_A entries with that output token, packed only when one meets one
    by_token: Dict[int, list] = {}
    for r, (slots, _) in f_passes.items():
        for t, before, tail, x in slots:
            by_token.setdefault(t, []).append((r, before, tail, x))
    flat: Dict[bytes, Scalar] = {}
    get = flat.get
    for (e, Y), table in m_a.components.items():
        room = max_arity + 1 - e
        if room < 1:
            continue
        outs = tokens[(Y[0], Y[e])]
        lists = [packed[(Y[e - 1 - i], Y[e - i])] for i in range(e)]
        for in_t, vec in table.items():
            ein = None
            for b, c in vec.items():
                recs = by_token.get(outs[b])
                if recs is None:
                    continue
                if ein is None:
                    ein = b"".join([lst[i] for lst, i in zip(lists, in_t)])
                for r, before, tail, x in recs:
                    if r > room:
                        break
                    key = before + ein + tail
                    flat[key] = get(key, 0) + c * x
    # m_B . F, negated: under each m_B entry, words (end object, packed
    # inputs, coefficient) of F blocks end to end, block j's output its j-th
    # input, rooms in bytes (4 a token).  F's entries by target token and
    # start object (its last token's source), and all under None for block 1
    index: Dict[int, Dict[Optional[str], list]] = {}
    for _, bucket in f_passes.values():
        for t, entries in bucket.items():
            starts = index.setdefault(t, {None: []})
            for word, c in entries:
                toks = memoryview(word).cast("I")
                w = (cells[toks[0] >> 1][1], word, c)
                starts[None].append(w)
                starts.setdefault(cells[toks[-1] >> 1][0], []).append(w)
    for (r, Z), table in m_b.components.items():
        if r > max_arity:
            continue
        lists = [b_tokens[(Z[j - 1], Z[j])] for j in range(1, r + 1)]
        outs = b_packed[(Z[0], Z[r])]
        for in_t, out_vec in table.items():
            words = [(None, b"", 1)] if r == 1 else [
                w for w in index.get(lists[0][in_t[r - 1]], {}).get(None, ())
                if len(w[1]) <= 4 * (max_arity + 1 - r)]
            for j in range(2, r):
                starts = index.get(lists[j - 1][in_t[r - j]], {})
                room = 4 * (max_arity - (r - j))
                words = [(y, toks + acc, coeff * c) for last, acc, coeff in words
                         for y, toks, c in starts.get(last, ())
                         if len(toks) + len(acc) <= room]
            starts = index.get(lists[r - 1][in_t[0]], {})
            for last, acc, coeff in words:
                for _, toks, c in starts.get(last, ()):
                    if len(toks) + len(acc) <= 4 * max_arity:
                        word, x = toks + acc, coeff * c
                        for oi, d in out_vec.items():
                            key = word + outs[oi]
                            flat[key] = get(key, 0) - x * d
    return _decoded(q, flat, cells, b_cells)


def _token_pass(r: int, rows, tokens: _Tokens, out_tokens: _Tokens,
                out_packed: _Packed) -> Tuple[list, Dict[int, list]]:
    """One read of a family's arity-r entries, each tokenized and packed
    once: per (entry, slot k, output), the token of slot k, the packed
    tokens left of it, those right of it and then the output's, and the
    output's coefficient times the sign of slot k, which flips past each
    slot j < k whose token is odd (the inserted m has degree 2); and the
    entries by output token, (packed inputs, coefficient).  An output's
    token is read from `out_tokens` and `out_packed` at (first, last)."""
    pack = struct.Struct(f"={r}I").pack
    slots: list = []
    bucket: Dict[int, list] = {}
    for Y, table in rows:
        lists = [tokens[(Y[r - 1 - i], Y[r - i])] for i in range(r)]
        outs, packed = out_tokens[(Y[0], Y[r])], out_packed[(Y[0], Y[r])]
        for in_t, out_vec in table.items():
            toks = [lst[b] for lst, b in zip(lists, in_t)]
            word, items, sign = pack(*toks), out_vec.items(), 1
            for b, c in items:
                bucket.setdefault(outs[b], []).append((word, c))
            for i in range(r - 1, -1, -1):
                t, before, after = toks[i], word[:4 * i], word[4 * i + 4:]
                for b, c in items:
                    slots.append((t, before, after + packed[b], c if sign == 1 else -c))
                if t & 1:
                    sign = -sign
    return slots, bucket


def _decoded(q: GradedQuiver, flat, cells, out_cells) -> Components:
    """The nonzero sums of a bytes-keyed `flat`, reduced once, as
    components: a key's inputs are read through `cells` and its last token,
    the output, through `out_cells`; the path runs from the source of the
    last input (f_1) through the target of each input, last to first."""
    result: Components = {}
    for key, c in q.fld.reduced(flat).items():
        toks = memoryview(key).cast("I")
        word = [cells[t >> 1] for t in toks[:-1]]
        path = (word[-1][0],) + tuple([y for _, y, _ in reversed(word)])
        result.setdefault((len(word), path), {}).setdefault(
            tuple([b for _, _, b in word]), {})[out_cells[toks[-1] >> 1][2]] = c
    return result


def compose_formal(g: FormalMorphism, f: FormalMorphism, max_arity: int) -> FormalMorphism:
    """Composition (g . f)^n as the partition sum over blocks of f.

    When one operand is an `Identity` the composite is the other operand's
    components of arity <= max_arity, with no sum; the composite of two is
    an `Identity`."""
    if f.target.objects != g.source.objects:
        raise QuiverError("compose_formal: target(f) must be source(g)")
    if isinstance(f, Identity) and isinstance(g, Identity):
        return f
    other = f if isinstance(g, Identity) else g if isinstance(f, Identity) else None
    if other is None:
        comps = _expand(g, f, max_arity)
    else:
        comps = {key: table for key, table in other.components.items()
                 if key[0] <= max_arity}
    obj_map = {x: g.object_map[f.object_map[x]] for x in f.source.objects}
    return FormalMorphism(f.source, g.target, obj_map, comps)


def r_compose(f: FormalMorphism, t: Prenatural, max_arity: int) -> Prenatural:
    """Precompose a prenatural with a formal morphism: t^r over f-blocks,
    between the endpoints t.frm . f and t.to . f (one object when t's are)."""
    if f.target.objects != t.source.objects:
        raise QuiverError("r_compose: target(f) must be the prenatural's source")
    frm = compose_formal(t.frm, f, max_arity)
    to = frm if t.to is t.frm else compose_formal(t.to, f, max_arity)
    return Prenatural(frm, to, t.degree, _expand(t, f, max_arity))


def l_compose(f: FormalMorphism, t: Prenatural, max_arity: int) -> Prenatural:
    """Postcompose: f^j over words with one t-block among identity blocks,
    the double sum, between f and f; t's endpoints must be an `Identity`."""
    if t.target.objects != f.source.objects:
        raise QuiverError("l_compose: the prenatural must land in source(f)")
    return Prenatural(f, f, t.degree, _expand(f, t, max_arity))


def compose_prenatural(d: Prenatural, d_prime: Prenatural, max_arity: int) -> Prenatural:
    """The coderivation composite: d^r over words with one d'-insertion
    among identity blocks, between d's own endpoints; d''s endpoints must be
    an `Identity`.  The result has degree deg(d) + deg(d') - 1 (bar degrees
    add)."""
    if d_prime.target.objects != d.source.objects:
        raise QuiverError("compose_prenatural: endpoint mismatch")
    return Prenatural(d.frm, d.to, d.degree + d_prime.degree - 1,
                      _expand(d, d_prime, max_arity))


# -- evaluation --------------------------------------------------------------

def eval_multilinear(fam, n: int, objs: Tuple[str, ...], vecs: Sequence[Vec]) -> Vec:
    """Evaluate on a tuple of vectors by multilinear expansion, summed
    unreduced and reduced once."""
    table = fam.components.get((n, objs), {})
    raw: Vec = {}
    if len(vecs) != n:
        raise QuiverError("wrong number of inputs")
    for in_t, vec in table.items():
        coeff = 1
        for i, b in enumerate(in_t):
            x = vecs[i].get(b)
            if x is None:
                break
            coeff *= x
        else:
            for oi, y in vec.items():
                raw[oi] = raw.get(oi, 0) + coeff * y
    return fam.source.fld.reduced(raw)
