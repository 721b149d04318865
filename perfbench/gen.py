"""Seeded input generators for the benchmark workloads.

Everything the workloads measure is built here from a seed: DG categories of
based complexes, nilpotent categories and their square-zero extensions,
formal diffeomorphisms, transported (twisted) structures and functors,
point inclusions, doubled collapses, unit certificates and the documents
the CLI reads.  None of it comes from the test suite, so a test change
cannot change what is measured.

Package functions are reached through their modules (``qv.l_compose``), not
imported by name, so that a traced run which rebinds them in every
``ainfty`` module also sees the calls made from here.

Shapes are fixed per workload cell and the seed draws only coefficients,
perturbations and which variants a cell gets: the sparsity of every input,
and with it the cost of every job, does not depend on the seed.
"""
from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ainfty import core, fields, linear, quiver as qv

Vec = Dict[int, object]
Pair = Tuple[str, str]
RawD = Dict[Pair, Dict[int, Vec]]
RawComp = Dict[Tuple[str, str, str], Dict[Tuple[int, int], Vec]]

COEFFS = (1, 2, -1, -2)


def field_named(name: str) -> fields.Field:
    """"Q" or "F<p>"."""
    if name == "Q":
        return fields.Field.rationals()
    return fields.Field.prime(int(name[1:]))


def _add(fld, vec: Vec, i: int, c) -> None:
    s = fld.add(vec.get(i, fld.zero), c)
    if fld.is_zero(s):
        vec.pop(i, None)
    else:
        vec[i] = s


# -- DG data through the sign dictionary ---------------------------------------

def dg_components(quiver, raw_d: RawD, raw_comp: RawComp):
    """m1 = D and m2(g, f) = (-1)**deg(f) g.f, as in the package README."""
    fld = quiver.fld
    comps = {}
    for (x, y), table in raw_d.items():
        t = {(i,): dict(v) for i, v in table.items() if v}
        if t:
            comps[(1, (x, y))] = t
    for (x, y, z), table in raw_comp.items():
        sp1 = quiver.space(x, y)
        t = {}
        for (j, i), v in table.items():
            if not v:
                continue
            if sp1.degree(i) % 2:
                v = {k: fld.neg(c) for k, c in v.items()}
            t[(j, i)] = dict(v)
        if t:
            comps[(2, (x, y, z))] = t
    return comps


class DG:
    """Raw DG data: quiver, hom differential, plain composition, units."""

    def __init__(self, quiver, raw_d: RawD, raw_comp: RawComp,
                 units: Dict[str, Vec]):
        self.quiver = quiver
        self.raw_d = raw_d
        self.raw_comp = raw_comp
        self.units = units

    @property
    def fld(self):
        return self.quiver.fld

    def components(self):
        return dg_components(self.quiver, self.raw_d, self.raw_comp)

    def build(self, max_arity: Optional[int] = None):
        return core.AInftyCategory.build(
            self.quiver, self.components(),
            units={x: dict(u) for x, u in self.units.items()},
            max_arity=max_arity)


def endo_complexes(fld, shapes: Sequence[Sequence[int]]) -> DG:
    """DG category of based complexes c0, c1, ... with the given degrees.

    In each complex, d sends basis 0 to basis 1 when their degrees are
    consecutive.  hom(x, y) has basis "i>j" (basis i of x to basis j of y)
    of degree deg_y(j) - deg_x(i), differential D f = (-1)**deg(f) d.f - f.d
    and honest composition.
    """
    objects = tuple(f"c{k}" for k in range(len(shapes)))
    degs = {x: list(s) for x, s in zip(objects, shapes)}
    dmap = {x: ({0: 1} if len(s) > 1 and s[1] == s[0] + 1 else {})
            for x, s in zip(objects, shapes)}
    hom = {}
    for x in objects:
        for y in objects:
            hom[(x, y)] = linear.GradedSpace(tuple(
                (f"{i}>{j}", dj - di)
                for i, di in enumerate(degs[x]) for j, dj in enumerate(degs[y])))
    quiver = qv.GradedQuiver(fld, objects, hom)

    def idx(x, y, i, j):
        return i * len(degs[y]) + j

    raw_d: RawD = {}
    for x in objects:
        for y in objects:
            table = {}
            for i in range(len(degs[x])):
                for j in range(len(degs[y])):
                    k = idx(x, y, i, j)
                    out: Vec = {}
                    if j in dmap[y]:
                        deg = degs[y][j] - degs[x][i]
                        _add(fld, out, idx(x, y, i, dmap[y][j]),
                             fld.from_int(-1 if deg % 2 else 1))
                    for i2, i3 in dmap[x].items():
                        if i3 == i:
                            _add(fld, out, idx(x, y, i2, j), fld.from_int(-1))
                    if out:
                        table[k] = out
            if table:
                raw_d[(x, y)] = table
    raw_comp: RawComp = {}
    for x, y, z in itertools.product(objects, repeat=3):
        table = {}
        for i in range(len(degs[x])):
            for j in range(len(degs[y])):
                for m in range(len(degs[z])):
                    table[(idx(y, z, j, m), idx(x, y, i, j))] = {
                        idx(x, z, i, m): fld.one}
        raw_comp[(x, y, z)] = table
    units = {x: {idx(x, x, i, i): fld.one for i in range(len(degs[x]))}
             for x in objects}
    return DG(quiver, raw_d, raw_comp, units)


def nilpotent(fld, gens: Sequence[Tuple[str, int]],
              d_of: Optional[Dict[str, str]] = None, n_objects: int = 1) -> DG:
    """Units plus generators whose products all vanish; d on generators."""
    d_of = d_of or {}
    objects = tuple(f"o{i}" for i in range(n_objects))
    hom = {}
    names = {}
    for x in objects:
        for y in objects:
            basis = ((("1", 0),) if x == y else ()) + tuple(gens)
            hom[(x, y)] = linear.GradedSpace(basis)
            names[(x, y)] = [n for n, _ in basis]
    quiver = qv.GradedQuiver(fld, objects, hom)
    raw_d: RawD = {}
    for pair, nm in names.items():
        table = {nm.index(s): {nm.index(t): fld.one} for s, t in d_of.items()}
        if table:
            raw_d[pair] = table
    raw_comp: RawComp = {}
    for x, y, z in itertools.product(objects, repeat=3):
        table = {}
        for j, nj in enumerate(names[(y, z)]):
            for i, ni in enumerate(names[(x, y)]):
                if nj == "1" and y == z:
                    table[(j, i)] = {i: fld.one}
                elif ni == "1" and x == y:
                    table[(j, i)] = {j: fld.one}
        if table:
            raw_comp[(x, y, z)] = table
    return DG(quiver, raw_d, raw_comp, {x: {0: fld.one} for x in objects})


def square_zero(base: DG, acyclic: bool) -> Tuple[DG, Dict[Pair, int]]:
    """A = base tensor C, C = k1 + kv (+ ku, du = v), products of v, u zero.

    D(h.c) = (Dh).c + (-1)**deg(h) h.(dc); (g.c).h = (g o h).c and
    g.(h.c) = (-1)**(deg c deg g) (g o h).c.  With acyclic=True the kernel of
    the projection onto base is the cone of the identity, hence acyclic.
    Returns the extension and the base dimension of every hom.
    """
    fld = base.fld
    steps = (("v", 0), ("u", -1)) if acyclic else (("v", 0),)
    bq = base.quiver
    hom = {}
    bdim = {}
    for (x, y), sp in bq.hom.items():
        basis = list(sp.basis)
        for tag, shift in steps:
            basis += [(f"{n}.{tag}", d + shift) for n, d in sp.basis]
        hom[(x, y)] = linear.GradedSpace(tuple(basis))
        bdim[(x, y)] = sp.dim
    quiver = qv.GradedQuiver(fld, bq.objects, hom)
    off = {"": 0, "v": 1, "u": 2}

    def blk(pair, tag, i):
        return off[tag] * bdim[pair] + i

    def moved(pair, tag, vec):
        return {blk(pair, tag, k): c for k, c in vec.items()}

    raw_d: RawD = {}
    for pair in bq.hom:
        sp = bq.space(*pair)
        table = {}
        for tag in ("",) + tuple(t for t, _ in steps):
            for i, vec in base.raw_d.get(pair, {}).items():
                table[blk(pair, tag, i)] = moved(pair, tag, vec)
        if acyclic:
            for i in range(sp.dim):
                v = dict(table.get(blk(pair, "u", i), {}))
                _add(fld, v, blk(pair, "v", i),
                     fld.from_int(-1 if sp.degree(i) % 2 else 1))
                table[blk(pair, "u", i)] = v
        table = {k: v for k, v in table.items() if v}
        if table:
            raw_d[pair] = table
    raw_comp: RawComp = {}
    for (x, y, z), raw in base.raw_comp.items():
        sp2 = bq.space(y, z)
        table = {}
        for (j, i), vec in raw.items():
            table[(j, i)] = moved((x, z), "", vec)
            for tag, shift in steps:
                table[(blk((y, z), tag, j), i)] = moved((x, z), tag, vec)
                sign = -1 if (shift % 2 and sp2.degree(j) % 2) else 1
                table[(j, blk((x, y), tag, i))] = {
                    k: fld.mul(fld.from_int(sign), c)
                    for k, c in moved((x, z), tag, vec).items()}
        raw_comp[(x, y, z)] = {k: v for k, v in table.items() if v}
    units = {x: dict(u) for x, u in base.units.items()}
    return DG(quiver, raw_d, raw_comp, units), bdim


def projection_morphism(ext: DG, base_quiver, bdim: Dict[Pair, int]):
    """The strict projection h.1 -> h, h.v, h.u -> 0."""
    fld = ext.fld
    comps = {(1, pair): {(i,): {i: fld.one} for i in range(n)}
             for pair, n in bdim.items() if n}
    return qv.FormalMorphism(ext.quiver, base_quiver,
                             {x: x for x in ext.quiver.objects}, comps)


def extension_projection(fld, gens, d_of, n_objects: int, acyclic: bool):
    """The strict projection F: A -> A' of the square-zero extension A of
    the nilpotent category A' on `gens`; its kernel is acyclic or not."""
    base_dg = nilpotent(fld, gens, d_of, n_objects)
    ext_dg, bdim = square_zero(base_dg, acyclic)
    base = base_dg.build()
    return core.AInftyFunctor.build(
        projection_morphism(ext_dg, base.quiver, bdim), ext_dg.build(), base)


# -- formal diffeomorphisms and transport --------------------------------------

def meets_unit(quiver, units, objs, in_t) -> bool:
    n = len(in_t)
    for i, b in enumerate(in_t):
        xa, xb = objs[n - 1 - i], objs[n - i]
        if xa == xb and units and xa in units and b in units[xa]:
            return True
    return False


def diffeo(quiver, rng: random.Random, count: int, support: str,
           units: Optional[Dict[str, Vec]] = None, arity: int = 2):
    """Arity-1 identity plus `count` arity-`arity` terms.

    Where the terms sit depends only on the quiver and the `support` tag;
    the seeded `rng` draws their coefficients.  Inputs meeting a unit are
    skipped, so transport keeps strict units.
    """
    fld = quiver.fld
    comps = {k: {it: dict(v) for it, v in t.items()}
             for k, t in qv.identity_formal(quiver).components.items()}
    slots = []
    for objs in quiver.paths(arity):
        out = quiver.space(objs[0], objs[-1])
        for in_t in quiver.basis_tuples(objs):
            if meets_unit(quiver, units, objs, in_t):
                continue
            want = sum(quiver.input_degrees(objs, in_t)) + 1 - arity
            slots += [(objs, in_t, o) for o in range(out.dim)
                      if out.degree(o) == want]
    random.Random(support).shuffle(slots)
    for objs, in_t, o in slots[:count]:
        comps.setdefault((arity, objs), {})[in_t] = {
            o: fld.from_int(rng.choice(COEFFS))}
    return qv.FormalMorphism(quiver, quiver, {x: x for x in quiver.objects},
                             comps)


def formal_inverse(u, max_arity: int):
    """Compositional inverse of an arity-1-identity formal morphism."""
    fld = u.source.fld
    comps = {k: {it: dict(v) for it, v in t.items()}
             for k, t in qv.identity_formal(u.source).components.items()}
    for n in range(2, max_arity + 1):
        inv = qv.FormalMorphism(u.source, u.source, dict(u.object_map), comps)
        resid = qv.compose_formal(u, inv, n)
        for (m, objs), table in resid.components.items():
            if m == n:
                neg = {it: {k: fld.neg(c) for k, c in v.items()}
                       for it, v in table.items() if v}
                if neg:
                    comps[(n, objs)] = neg
    return qv.FormalMorphism(u.source, u.source, dict(u.object_map), comps)


def transport(cat, u, max_arity: int):
    """Structure components m' making u: (A, m) -> (A, m') a functor.

    Arity by arity: the arity-n equation fixes m'^n from lower data, because
    u^1 is the identity.  Truncated at max_arity, so the result certifies
    up to that bound and (generically) fails above it.
    """
    ident = qv.identity_formal(cat.quiver)
    m_new = qv.Prenatural(ident, ident, 2, {})
    lhs = qv.l_compose(u, cat.structure, max_arity)
    for n in range(1, max_arity + 1):
        top = lhs.arity_part(n).sub(qv.r_compose(u, m_new, n).arity_part(n))
        comps = dict(m_new.components)
        comps.update({k: t for k, t in top.components.items() if t})
        m_new = qv.Prenatural(ident, ident, 2, comps)
    return m_new.components


def twist_functor(strict_f, rng: random.Random, count: int, support: str,
                  bound: int):
    """F . u^-1 out of the source transported along a diffeomorphism u.

    The arity-1 part, hence F1 and the classifier verdicts, stay those of
    the strict functor; the higher components become nonzero.
    """
    src = strict_f.source
    units = src.units if strict_f.strictly_unital else None
    u = diffeo(src.quiver, rng, count, support, units=units)
    comps = transport(src, u, bound)
    twisted = core.AInftyCategory.build(
        src.quiver, comps,
        units={x: dict(v) for x, v in src.units.items()} if src.units else None,
        max_arity=bound)
    morphism = qv.compose_formal(strict_f.morphism, formal_inverse(u, bound),
                                 bound)
    return core.AInftyFunctor.build(morphism, twisted, strict_f.target,
                                    max_arity=bound)


# -- the functors G ------------------------------------------------------------

def identity_functor(cat):
    return core.AInftyFunctor.build(qv.identity_formal(cat.quiver), cat, cat)


def point_inclusion(target, obj: str):
    """The unit inclusion of the one-object point category onto `obj`."""
    fld = target.fld
    point = nilpotent(fld, ()).build()
    morphism = qv.FormalMorphism(point.quiver, target.quiver, {"o0": obj}, {
        (1, ("o0", "o0")): {(0,): dict(target.unit_vec(obj))}})
    return core.AInftyFunctor.build(morphism, point, target)


def doubled_collapse(base):
    """Collapse a two-copy doubling of a one-object category onto it."""
    fld = base.fld
    (o,) = base.objects
    sp = base.quiver.space(o, o)
    objs = ("y1", "y2")
    quiver = qv.GradedQuiver(fld, objs, {(a, b): sp for a in objs for b in objs})
    comps = {}
    for (n, _), table in base.structure.components.items():
        for path in itertools.product(objs, repeat=n + 1):
            comps[(n, path)] = {it: dict(v) for it, v in table.items()}
    units = ({a: dict(base.unit_vec(o)) for a in objs}
             if base.units is not None else None)
    doubled = core.AInftyCategory.build(quiver, comps, units=units)
    m = {(1, (a, b)): {(i,): {i: fld.one} for i in range(sp.dim)}
         for a in objs for b in objs}
    morphism = qv.FormalMorphism(quiver, base.quiver, {a: o for a in objs}, m)
    return core.AInftyFunctor.build(morphism, doubled, base)


def g_functor(kind: str, base, rng: random.Random):
    """G for a pullback along F: A -> base: "id", "incl" (a seeded object)
    or "doubled"."""
    if kind == "id":
        return identity_functor(base)
    if kind == "incl":
        return point_inclusion(base, rng.choice(list(base.objects)))
    return doubled_collapse(base)


# -- pullback quiver from the inputs alone --------------------------------------

def kernel_degrees(f, x1: str, x2: str) -> List[int]:
    """Degrees of the kernel basis of F1 on hom(x1, x2), in package order
    (by degree): dim A_d - dim A'_d per degree, since F1 is surjective."""
    src = f.source.quiver.space(x1, x2).dims_by_degree()
    tgt = f.target.quiver.space(f.object_map[x1],
                                f.object_map[x2]).dims_by_degree()
    out = []
    for d in sorted(set(src) | set(tgt)):
        out += [d] * (src.get(d, 0) - tgt.get(d, 0))
    return out


def expected_pullback_quiver(f, g):
    """Objects "x&y" with F0 x = G0 y and homs Ker F1 (+) A''(y1, y2).

    Computed from the inputs' dimensions alone; hom(p1, p2) has dimension
    dim A(x1,x2) - dim A'(Fx1,Fx2) + dim A''(y1,y2).
    """
    fld = f.source.fld
    pairs = {f"{x}&{y}": (x, y) for x in f.source.objects
             for y in g.source.objects if f.object_map[x] == g.object_map[y]}
    objects = tuple(sorted(pairs))
    hom = {}
    for p1 in objects:
        for p2 in objects:
            (x1, y1), (x2, y2) = pairs[p1], pairs[p2]
            basis = [(f"k:ker{i}", d)
                     for i, d in enumerate(kernel_degrees(f, x1, x2))]
            basis += [("a:" + n, d)
                      for n, d in g.source.quiver.space(y1, y2).basis]
            if basis:
                hom[(p1, p2)] = linear.GradedSpace(tuple(basis))
    return qv.GradedQuiver(fld, objects, hom), pairs


# -- certificates ----------------------------------------------------------------

def unit_isolifts(functor, source_units, target_units):
    """Identity isomorphisms lifted by identities, one per source object."""
    return [core.IsoLiftCertificate(x, functor.object_map[x],
                                    dict(target_units[functor.object_map[x]]),
                                    x, dict(source_units[x]))
            for x in functor.source.objects]


def unit_certificate_text(functor) -> str:
    """The same certificates as an ``acert`` document (tag ``self``)."""
    fld = functor.source.fld
    lines = ["acert"]
    for x in functor.source.objects:
        b = functor.object_map[x]
        tq, sq = functor.target.quiver.space(b, b), functor.source.quiver.space(x, x)
        iso = " ".join(f"{tq.name(i)} {fld.format(c)}"
                       for i, c in sorted(functor.target.unit_vec(b).items()))
        lift = " ".join(f"{sq.name(i)} {fld.format(c)}"
                        for i, c in sorted(functor.source.unit_vec(x).items()))
        lines.append(f"isolift self ; {x} ; {b} ; {iso} ; {x} ; {lift}")
    return "\n".join(lines) + "\n"
