"""A small-scope slice of the pullback theorem, enumerated exhaustively.

The universe: every strictly unital category over F_2 with one object whose
hom has the basis 1 and a subset of e (degree 0) and t (degree -1), every
entry of m1, m2 and m3 not fixed by the unit free, and the point and the
doubled point (two objects, every hom spanned by one degree-0 element).
Every strictly unital functor between two of them, each F1 and F2 entry
free, is pulled back along the identity of its target and along the
inclusion of the point at each target object.  build_pullback must raise
F1Error exactly when check_F1 fails; every closure runs under the oracle
of conftest.py, which recomputes each derived clause of alpha on alpha.
"""
from __future__ import annotations

import itertools
from collections import Counter

from ainfty.core import AInftyCategory, AInftyError, AInftyFunctor, check_F1
from ainfty.fields import Field
from ainfty.linear import GradedSpace
from ainfty.pullback import F1Error, build_pullback, certify_fibration_closure
from ainfty.quiver import FormalMorphism, GradedQuiver

from helpers import doubled_object_functor, inclusion_functor, point_category

F2 = Field.prime(2)
BASIS = (("1", 0), ("e", 0), ("t", -1))


def _free_slots(source: GradedQuiver, target: GradedQuiver, object_map,
                units, shift: int):
    """(arity, objects, inputs, output) for every entry of an arity-1 to
    arity-3 family of degree `shift` - arity whose inputs are no units."""
    for n in (1, 2, 3):
        for objs in itertools.product(source.objects, repeat=n + 1):
            spaces = [source.space(a, b) for a, b in zip(objs, objs[1:])]
            out = target.space(object_map[objs[0]], object_map[objs[-1]])
            for in_t in itertools.product(*(range(sp.dim) for sp in reversed(spaces))):
                if any(units.get((a, b)) == i for (a, b), i in
                       zip(reversed(list(zip(objs, objs[1:]))), in_t)):
                    continue
                degree = shift - n + sum(
                    sp.degree(i) for sp, i in zip(reversed(spaces), in_t))
                for o in range(out.dim):
                    if out.degree(o) == degree:
                        yield n, objs, in_t, o


def _family(fixed, slots, bits):
    comps = {key: {it: dict(v) for it, v in t.items()} for key, t in fixed.items()}
    for (n, objs, in_t, o), bit in zip(slots, bits):
        if bit:
            comps.setdefault((n, objs), {}).setdefault(in_t, {})[o] = F2.one
    return comps


def one_object_categories(names):
    """(candidates, the ones that certify) on one object o with the basis
    1 and `names`."""
    space = GradedSpace(tuple(b for b in BASIS if b[0] == "1" or b[0] in names))
    quiver = GradedQuiver(F2, ("o",), {("o", "o"): space})
    unit_products = {(0, i): {i: F2.one} for i in range(space.dim)}
    unit_products.update({(i, 0): {i: F2.one} for i in range(space.dim)})
    slots = list(_free_slots(quiver, quiver, {"o": "o"}, {("o", "o"): 0}, 2))
    cats = []
    for bits in itertools.product((0, 1), repeat=len(slots)):
        comps = _family({(2, ("o",) * 3): unit_products}, slots, bits)
        try:
            cats.append(AInftyCategory.build(quiver, comps, units={"o": {0: F2.one}}))
        except AInftyError:
            pass
    return 2 ** len(slots), cats


def strictly_unital_functors(a: AInftyCategory, b: AInftyCategory):
    """Every functor a -> b with F1(1_x) = 1_{F x} and no other entry on
    a unit, each other entry of arity at most 3 free."""
    units = {(x, x): next(iter(a.unit_vec(x))) for x in a.objects}
    for images in itertools.product(b.objects, repeat=len(a.objects)):
        object_map = dict(zip(a.objects, images))
        fixed = {(1, (x, x)): {(units[(x, x)],): dict(b.unit_vec(object_map[x]))}
                 for x in a.objects}
        slots = list(_free_slots(a.quiver, b.quiver, object_map, units, 1))
        for bits in itertools.product((0, 1), repeat=len(slots)):
            morphism = FormalMorphism(a.quiver, b.quiver, object_map,
                                      _family(fixed, slots, bits))
            try:
                yield AInftyFunctor.build(morphism, a, b)
            except AInftyError:
                pass


def test_one_object_universe_sizes():
    # 7 free bits on the basis 1, e, t (m1(t), m2(e, e), m2(e, t), m2(t, e)
    # and m3(e, e, e)), and 14 of the 128 candidates certify
    sizes = {}
    for names in ("", "e", "t", "et"):
        tried, cats = one_object_categories(names)
        sizes[names] = (tried, len(cats))
    assert sizes == {"": (1, 1), "e": (4, 4), "t": (2, 2), "et": (128, 14)}


def _universe():
    point = point_category(F2)
    cats = [cat for names in ("", "e", "t", "et")
            for cat in one_object_categories(names)[1]]
    return point, cats + [doubled_object_functor(point).source]


def test_pullback_closure_over_the_universe():
    point, cats = _universe()
    seen = Counter()
    for a, b in itertools.product(cats, repeat=2):
        for f in strictly_unital_functors(a, b):
            seen["functors"] += 1
            legs = [AInftyFunctor.identity(b)] + [
                inclusion_functor(point, b, y) for y in b.objects]
            for g in legs:
                try:
                    p = build_pullback(f, g)
                except F1Error:
                    assert not check_F1(f).passed
                    seen["F1Error"] += 1
                    continue
                assert check_F1(f).passed
                sections = certify_fibration_closure(p).sections
                assert sections["alpha_f1"].passed
                seen["pullbacks"] += 1
                seen["F2 fails"] += sections["f_isofibration"].verdict == "fail"
                seen["QE fails"] += sections["f_quasi_equivalence"].verdict == "fail"
                seen["derived F2"] += "alpha_isofibration_isofib" in sections
                seen["acyclic fibration"] += "alpha_acyclic_fibration" in sections
    # 1337 functors, 185 of them F1, and 2730 (F, G) pairs; F2 fails only
    # into the doubled point, where an iso between the copies has no lift
    assert dict(seen) == {"functors": 1337, "F1Error": 2304, "pullbacks": 426,
                          "F2 fails": 162, "QE fails": 240, "derived F2": 264,
                          "acyclic fibration": 150}
