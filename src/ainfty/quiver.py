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
parity of its reduced degree (`_tokens`).  The two double sums share the
arity schedule (`_rows`, `_schedule`), the tokens and the sign rule, a
flip past each odd token.  The kept one, `_add_double_sum` (composites,
functor defects), inserts any flat prenatural and keys each word by
(path, inputs, output index).  The stream, `double_sum`, is m . m of one
structure, the sum that must vanish: it reads each arity of m once for
both roles, keys each word by its tuple of input tokens and decodes back
into paths and inputs only the sums that do not cancel.
"""
from __future__ import annotations

import itertools
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


def _tokens(q: GradedQuiver) -> Tuple[_Tokens, List[Tuple[str, str, int]]]:
    """Each basis element b of hom(x, y) numbered: its token 2 i + odd, odd
    when its reduced degree is, at tokens[(x, y)][b], and cells[i] = (x, y,
    b)."""
    tokens: _Tokens = {}
    cells: List[Tuple[str, str, int]] = []
    for (x, y), sp in q.hom.items():
        toks = tokens[(x, y)] = []
        for b, (_, deg) in enumerate(sp.basis):
            toks.append(2 * len(cells) + (deg % 2 == 0))
            cells.append((x, y, b))
    return tokens, cells


_Flat = Dict[Tuple[Tuple[str, ...], Tuple[int, ...], int], Scalar]


def accumulate(flat: _Flat, sign: int, outer, blocks, max_arity: int) -> _Flat:
    """Add sign times the sum, under each component of `outer`, over words
    of `blocks` into `flat`, and return `flat`.

    A formal morphism `blocks` gives a plain block sum, every block from it.
    A prenatural is inserted once among identity blocks, which is the double
    sum (`_add_double_sum`); its endpoints must both be an `Identity`, or
    QuiverError is raised, as the words between other endpoints are not
    summed here.

    The block sum under one entry is swept one block at a time: each partial
    word (end object, path, inputs, coefficient) is extended by the entries
    of the next block's bucket that start at its end object and leave room
    for the blocks after it (arity >= 1 each).  No `Field` method runs per
    word: each adds its signed product into `flat`, keyed (path, inputs,
    output index), so over F_p the sums stay unreduced ints until `regroup`
    reduces them.
    """
    if isinstance(blocks, Prenatural):
        if not (isinstance(blocks.frm, Identity) and isinstance(blocks.to, Identity)):
            raise QuiverError("an inserted prenatural must go between Identity endpoints")
        _add_double_sum(flat, sign, outer, blocks, max_arity)
        return flat
    inv = _invert(blocks)
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
                x *= sign
                for _, path, acc, coeff in words:
                    key = (path, acc, oi)
                    flat[key] = get(key, 0) + coeff * x
    return flat


def regroup(fld: Field, flat: _Flat) -> Components:
    """The sums of `flat`, each reduced once by `Field.reduced`, regrouped
    into components without the zeros, in the order the words reached them."""
    result: Components = {}
    for (path, acc, oi), c in fld.reduced(flat).items():
        result.setdefault((len(acc), path), {}).setdefault(acc, {})[oi] = c
    return result


def _expand(outer, blocks, max_arity: int) -> Components:
    """`accumulate` into a fresh dict, regrouped."""
    return regroup(blocks.source.fld, accumulate({}, 1, outer, blocks, max_arity))


def _add_double_sum(flat: _Flat, sign: int, outer, ins: Prenatural,
                    max_arity: int) -> None:
    """Add sign times the double sum into `flat`, arity by arity on
    `_schedule`.

    The double sum over (entry, slot k) of outer(..., ins(...), ...): an
    `ins` entry with e inputs in the bucket of slot k replaces that slot,
    giving a word of arity r - 1 + e.  The insertion is indexed by (output
    token, input count) once per call, and an outer entry's slots and signs
    when its arity is first needed: each (outer entry, slot, insertion
    entry) triple is visited once.  The sums that must vanish are streamed
    by `double_sum` instead.
    """
    tokens, _ = _tokens(outer.source)
    index: Dict[int, Dict[int, List[_Entry]]] = {}
    for (e, objs), table in ins.components.items():
        outs = tokens[ins.out_pair(objs)]
        for in_t, vec in table.items():
            for b, c in vec.items():
                index.setdefault(outs[b], {}).setdefault(e, []).append((objs, in_t, c))
    flip = (ins.degree - 1) % 2
    rows = _rows(outer)
    slots: Dict[int, list] = {}
    get = flat.get
    for n, arities in _schedule(rows, {e for e, _ in ins.components}, max_arity):
        for r in arities:
            if r not in slots:
                slots[r] = _slots(r, rows.get(r, ()), index, tokens, flip, sign)
            e = n + 1 - r
            for lengths, head, tail, before, after, out in slots[r]:
                entries = lengths.get(e)
                if entries:
                    for oi, x in out:
                        for epath, ein, ec in entries:
                            key = (head + epath + tail, before + ein + after, oi)
                            flat[key] = get(key, 0) + ec * x


def _rows(fam) -> Dict[int, List[Tuple[Tuple[str, ...], Dict[Tuple[int, ...], Vec]]]]:
    """fam's (objects, table) pairs by arity."""
    rows: Dict[int, list] = {}
    for (r, Y), table in fam.components.items():
        rows.setdefault(r, []).append((Y, table))
    return rows


def _schedule(rows, ins_rows, max_arity: int) -> Iterator[Tuple[int, range]]:
    """The arities of a double sum, from the outer family's arities (`rows`)
    and the insertion's (`ins_rows`): (n, the outer arities r whose words
    with one insertion of arity n + 1 - r have arity n), for n from 1 to
    max_arity or to the last arity a word reaches, widest outer arity - 1 +
    longest insertion arity, whichever comes first."""
    shortest, longest = min(ins_rows, default=1), max(ins_rows, default=0)
    widest = max(rows, default=0)
    for n in range(1, min(max_arity, widest - 1 + longest) + 1):
        yield n, range(max(1, n + 1 - longest), min(n + 2 - shortest, widest + 1))


def _slots(r: int, rows, index, tokens: _Tokens, flip: int, start: int) -> list:
    """Per (arity-r outer entry, slot k) whose insertion bucket is not
    empty: the bucket's entries by input count, the objects and inputs left
    and right of slot k, and the entry's output items times `start` and the
    sign of slot k, which flips past each slot j < k whose token is odd when
    `flip` is set."""
    out = []
    for Y, table in rows:
        lists = [tokens[(Y[r - 1 - i], Y[r - i])] for i in range(r)]
        for in_t, out_vec in table.items():
            items, negated, sign = out_vec.items(), None, start
            for i in range(r - 1, -1, -1):
                t = lists[i][in_t[i]]
                lengths = index.get(t)
                if lengths:
                    if sign == -1 and negated is None:
                        negated = [(oi, -x) for oi, x in items]
                    out.append((lengths, Y[:r - 1 - i], Y[r + 1 - i:], in_t[:i],
                                in_t[i + 1:], items if sign == 1 else negated))
                if flip and t & 1:
                    sign = -sign
    return out


# -- the certification stream: words keyed by basis tokens --------------------

def double_sum(m: Prenatural, max_arity: int) -> Iterator[Tuple[int, Components]]:
    """m . m one output arity at a time, on `_schedule`: yields (n, the
    arity-n part of m over words with one m block among identity blocks).

    This is the stream of sums that must vanish, so it is summed in token
    space and decodes only what does not cancel.  A word is keyed by one
    int tuple, its input tokens, with its output index; tokens fix the
    path, so each part's nonzero sums are decoded back into components, and
    on an accepted structure nothing is.  Step n reads m's arity-n entries
    once (`_token_pass`), as outer entries and as insertions together, so a
    consumer that stops at arity n has read only m^1..m^n; each (outer
    entry, slot, insertion entry) triple is visited once.
    """
    q = m.source
    tokens, cells = _tokens(q)
    rows = _rows(m)
    passes: list = [None]           # passes[r]: (slots, bucket) of m's arity r
    flat: Dict[Tuple[Tuple[int, ...], int], Scalar] = {}
    get = flat.get
    for n, arities in _schedule(rows, rows, max_arity):
        passes.append(_token_pass(n, rows.get(n, ()), tokens))
        for r in arities:
            bucket = passes[n + 1 - r][1]
            for t, before, after, out in passes[r][0]:
                entries = bucket.get(t)
                if entries:
                    for oi, x in out:
                        for ein, ec in entries:
                            key = (before + ein + after, oi)
                            flat[key] = get(key, 0) + ec * x
        yield n, _decoded(q, flat, cells)
        flat.clear()


def _token_pass(r: int, rows, tokens: _Tokens) -> Tuple[list, Dict[int, list]]:
    """One read of the arity-r entries of a structure m, each tokenized
    once: per (entry, slot k), the token of slot k, the tokens left and
    right of it and the entry's output items times the sign of slot k,
    which flips past each slot j < k whose token is odd (m has degree 2);
    and the entries by output token, (input tokens, coefficient), as
    insertions."""
    slots: list = []
    bucket: Dict[int, list] = {}
    for Y, table in rows:
        lists = [tokens[(Y[r - 1 - i], Y[r - i])] for i in range(r)]
        outs = tokens[(Y[0], Y[r])]
        for in_t, out_vec in table.items():
            toks = tuple([lst[b] for lst, b in zip(lists, in_t)])
            for b, c in out_vec.items():
                bucket.setdefault(outs[b], []).append((toks, c))
            items, negated, sign = out_vec.items(), None, 1
            for i in range(r - 1, -1, -1):
                t = toks[i]
                if sign == -1 and negated is None:
                    negated = [(oi, -x) for oi, x in items]
                slots.append((t, toks[:i], toks[i + 1:], items if sign == 1 else negated))
                if t & 1:
                    sign = -sign
    return slots, bucket


def _decoded(q: GradedQuiver, flat, cells) -> Components:
    """The nonzero sums of a token-keyed `flat`, reduced once, as
    components: a word's path runs from the source of its last token (f_1)
    through the target of each token from the last to the first."""
    result: Components = {}
    for (toks, oi), c in q.fld.reduced(flat).items():
        word = [cells[t >> 1] for t in toks]
        path = (word[-1][0],) + tuple([y for _, y, _ in reversed(word)])
        result.setdefault((len(toks), path), {}).setdefault(
            tuple([b for _, _, b in word]), {})[oi] = c
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
