"""Strictification of a graded-split surjective functor.

Given F: A ->> A' with split arity-1 components, build the split model
quiver with homs Ker(F1) (+) A'-hom and, in its coordinates, the
isomorphism phi = (r1, F): A -> model (phi^1 = decompose, phi^n = (0, F^n)
for n >= 2), its inverse psi, the structure m_model = phi . m . psi that
makes phi an A-infinity functor, and the strict projection onto the
A'-summand, under which F becomes projection . phi.  Nothing here is
certified beyond the premises (m.m = 0 on A, F's equation): psi.phi = Id
and projection.phi = F hold by construction (build_phi_psi, strictify),
and (strictify.conjugation) as bar composition is associative (Lefevre-Hasegawa,
arXiv:math/0310337) the equations follow from m_model = phi.m.psi:
phi.m = phi.m.psi.phi = m_model.phi, m_model.m_model = phi.m.m.psi = 0,
psi.m_model = m.psi and projection.m_model = F.m.psi = m'.projection.

`Blocks` owns the K (+) M layout, here and in the pullback: it builds the
homs, with a "k:" basis prefix for the kernel part and an "a:" prefix for
the M-part, and every read or write of a block goes through its members.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .linear import GradedMap, GradedSpace, SplitData, Vec, vec_scale
from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    Pair,
    _choose_bound,
    certify_premise,
    check_F1,
)
from .quiver import (
    Components,
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    accumulate,
    compose_formal,
    eval_multilinear,
    identity_formal,
    regroup,
)

KER_PREFIX = "k:"
SUM_PREFIX = "a:"


class StrictifyError(AInftyError):
    pass


@dataclass(frozen=True)
class Blocks:
    """The K (+) M layout: the hom of `quiver` from x to y is a kernel block
    of kdims[(x, y)] elements, then the hom of `other` from over[x] to
    over[y].  The split model has M = A' over F0; the pullback has M = A''
    over its second projection."""
    quiver: GradedQuiver
    other: GradedQuiver
    over: Dict[str, str]
    kdims: Dict[Pair, int]

    @staticmethod
    def build(fld, objects: Tuple[str, ...], kernel: Dict[Pair, GradedSpace],
              other: GradedQuiver, over: Dict[str, str]) -> "Blocks":
        """The homs kernel[(x, y)] (+) other(over x, over y), prefixed."""
        hom: Dict[Pair, GradedSpace] = {}
        kdims: Dict[Pair, int] = {}
        for x in objects:
            for y in objects:
                basis = [(KER_PREFIX + n, d) for n, d in kernel[(x, y)].basis]
                kdims[(x, y)] = len(basis)
                basis += [(SUM_PREFIX + n, d)
                          for n, d in other.space(over[x], over[y]).basis]
                if basis:
                    hom[(x, y)] = GradedSpace(tuple(basis))
        return Blocks(GradedQuiver(fld, objects, hom), other, over, kdims)

    def vec(self, x: str, y: str, k: Vec, m: Vec) -> Vec:
        """(k, m) in the hom (x, y): the part of k below the kernel block,
        then m moved past it."""
        kdim = self.kdims[(x, y)]
        out = {i: c for i, c in k.items() if i < kdim}
        out.update((kdim + i, c) for i, c in m.items())
        return out

    def family(self, kernel_comps: Components, m_comps: Components,
               ends: Optional[Dict[str, str]] = None) -> Components:
        """vec per (key, inputs) of two families with the same keys: the
        kernel part of one beside the other moved past the kernel block.
        `ends` maps each key's end objects to objects of `quiver`."""
        out: Components = {}
        for key in dict.fromkeys([*kernel_comps, *m_comps]):
            x, y = key[1][0], key[1][-1]
            if ends is not None:
                x, y = ends[x], ends[y]
            k_table = kernel_comps.get(key, {})
            m_table = m_comps.get(key, {})
            table = {}
            for in_t in dict.fromkeys([*k_table, *m_table]):
                v = self.vec(x, y, k_table.get(in_t, {}), m_table.get(in_t, {}))
                if v:
                    table[in_t] = v
            if table:
                out[key] = table
        return out

    def m_part(self, comps: Components, ends: Dict[str, str]) -> Components:
        """The M-part of a family landing in `quiver`: each output past the
        kernel block moved back by it, the kernel part dropped.  `ends` maps
        each key's end objects to objects of `quiver`."""
        out: Components = {}
        for key, table in comps.items():
            kdim = self.kdims[(ends[key[1][0]], ends[key[1][-1]])]
            part = {}
            for in_t, vec in table.items():
                m = {i - kdim: c for i, c in vec.items() if i >= kdim}
                if m:
                    part[in_t] = m
            if part:
                out[key] = part
        return out

    def lift(self, m_comps: Components) -> Components:
        """An `other`-family along every path of `quiver` over its objects,
        each input moved past its kernel block; outputs stay as they are."""
        fibres: Dict[str, List[str]] = {}
        for x in self.quiver.objects:
            fibres.setdefault(self.over[x], []).append(x)
        out: Components = {}
        for (n, path), table in m_comps.items():
            for objs in itertools.product(*(fibres.get(o, []) for o in path)):
                kdims = [self.kdims[(objs[n - 1 - i], objs[n - i])]
                         for i in range(n)]
                out[(n, objs)] = {
                    tuple(k + b for k, b in zip(kdims, in_t)): vec
                    for in_t, vec in table.items()}
        return out

    def projection(self) -> FormalMorphism:
        """The strict morphism (k, m) |-> m onto `other`: its identity,
        lifted."""
        comps = self.lift(identity_formal(self.other).components)
        return FormalMorphism(self.quiver, self.other, dict(self.over), comps)

    def projection_splits(self) -> Dict[Pair, SplitData]:
        """The projection's arity-1 splits per pair, read off the layout:
        the kernel is the kernel block, named ker{k} in (degree, column)
        order, include and retract are its coordinates, and the section is
        m |-> (0, m).  They are split_surjection's: per degree, [M | I] with
        M = [0 | I] is already reduced, its pivots the M-columns, so the
        free columns are the kernel block's and no pivot row touches them."""
        fld = self.quiver.fld
        one = fld.one
        out: Dict[Pair, SplitData] = {}
        for x, y in itertools.product(self.quiver.objects, repeat=2):
            src = self.quiver.space(x, y)
            tgt = self.other.space(self.over[x], self.over[y])
            kdim, mdim = self.kdims[(x, y)], tgt.dim
            cols = list(enumerate(sorted(range(kdim), key=src.degree)))
            kernel = GradedSpace(tuple((f"ker{k}", src.degree(c)) for k, c in cols))
            out[(x, y)] = SplitData(
                GradedMap(fld, src, tgt, 0, {(i, kdim + i): one for i in range(mdim)}),
                kernel,
                GradedMap(fld, kernel, src, 0, {(c, k): one for k, c in cols}),
                GradedMap(fld, src, kernel, 0, {(k, c): one for k, c in cols}),
                GradedMap(fld, tgt, src, 0, {(kdim + i, i): one for i in range(mdim)}))
        return out


def _columns(*maps: GradedMap) -> Dict[Tuple[int, ...], Vec]:
    """The arity-1 table of the block row [maps[0] | maps[1] | ...]."""
    cols = [gm.column(j) for gm in maps for j in range(gm.source.dim)]
    return {(j,): v for j, v in enumerate(cols) if v}


@dataclass
class SplitModel:
    base: AInftyCategory
    functor: AInftyFunctor
    splits: Dict[Pair, SplitData]
    blocks: Blocks                # Ker(F1) (+) A' over F0
    decompose: FormalMorphism     # strict: A -> model, f |-> (r1 f, F1 f)
    recompose: FormalMorphism     # strict: model -> A, (g, h) |-> i1 g + s1 h

    @property
    def quiver(self) -> GradedQuiver:
        return self.blocks.quiver


def build_split_model(functor: AInftyFunctor) -> SplitModel:
    """The split model quiver with its exact decompose/recompose pair, on
    check_F1's splits; StrictifyError when F1 fails.

    The two are mutually inverse because every split satisfies the five
    splitting identities, which split_surjection forces per pair.
    """
    f1 = check_F1(functor)
    if not f1.passed:
        raise StrictifyError("condition F1 failed; no split model exists")
    base = functor.source
    blocks = Blocks.build(
        base.fld, base.objects,
        {pair: split.kernel for pair, split in f1.splits.items()},
        functor.target.quiver, dict(functor.object_map))
    r1 = {(1, pair): _columns(split.retract)
          for pair, split in f1.splits.items()}
    f_1 = {key: t for key, t in functor.morphism.components.items()
           if key[0] == 1}
    rec = {(1, pair): _columns(split.include, split.section)
           for pair, split in f1.splits.items()}
    ident = {x: x for x in base.objects}
    decompose = FormalMorphism(base.quiver, blocks.quiver, dict(ident),
                               blocks.family(r1, f_1))
    recompose = FormalMorphism(blocks.quiver, base.quiver, dict(ident), rec)
    return SplitModel(base, functor, f1.splits, blocks, decompose, recompose)


def build_phi_psi(model: SplitModel, max_arity: int
                  ) -> Tuple[FormalMorphism, FormalMorphism]:
    """phi: A -> model and its two-sided inverse psi: model -> A.

    phi = (r1, F): phi^1 = decompose and, for n >= 2, phi^n = (0, F^n), F^n
    moved past the kernel block, since r1 . s1 = 0 and F1 . s1 = id; the
    kernel part of decompose is r1, so phi is the family of the two.
    psi^1 = recompose; phi . psi = Id solved arity by arity gives psi^n =
    -s1 . (F . psi)^n for n >= 2, composed while psi^n is still zero and
    read with the section of the split at the block's end objects.  A word
    of two or more psi-blocks under F reaches at most F's widest arity times
    psi's widest, so past that psi^n and every later arity are zero and the
    loop stops.  psi . phi = Id follows: formal morphisms with invertible
    arity-1 parts form a group up to any bound, so phi's right inverse is
    its inverse.
    """
    base = model.base
    fld = base.fld
    ident_map = {x: x for x in base.objects}
    f = model.functor.morphism
    f_n = {key: t for key, t in f.components.items() if key[0] <= max_arity}
    phi = FormalMorphism(base.quiver, model.quiver, dict(ident_map),
                         model.blocks.family(model.decompose.components, f_n))
    minus = fld.from_int(-1)
    psi_comps: Components = dict(model.recompose.components)
    f_widest = max((n for n, _ in f.components), default=0)
    for n in range(2, max_arity + 1):
        if n > f_widest * max((m for m, _ in psi_comps), default=0):
            break
        psi = FormalMorphism(model.quiver, base.quiver, dict(ident_map), psi_comps)
        for (m, objs), table in compose_formal(f, psi, n).components.items():
            if m == n:
                section = model.splits[(objs[0], objs[-1])].section
                psi_comps[(n, objs)] = {
                    in_t: vec_scale(fld, minus, section.apply(vec))
                    for in_t, vec in table.items()}
    return phi, FormalMorphism(model.quiver, base.quiver, dict(ident_map),
                               psi_comps)


def transport_structure(model: SplitModel, phi: FormalMorphism,
                        psi: FormalMorphism, max_arity: int) -> Prenatural:
    """m_model = phi . m . psi, the base structure m conjugated once into
    model coordinates.

    phi . m = m_model . phi holds by construction, as psi is phi's two-sided
    inverse to max_arity (see build_phi_psi): phi . m = phi . m . psi . phi
    = m_model . phi, so strictify derives phi's equation.  Bar composition
    is associative, so the sum is (phi . m) . psi: the double sum phi . m
    between phi and phi, then its block sum over psi.  Its endpoints phi .
    psi are the identity: it is regrouped under the model's `Identity`,
    phi . psi unformed."""
    fld = model.quiver.fld
    phi_m = Prenatural(phi, phi, 2, regroup(
        fld, accumulate({}, 1, phi, model.base.structure, max_arity)))
    ident = identity_formal(model.quiver)
    return Prenatural(ident, ident, 2, regroup(
        fld, accumulate({}, 1, phi_m, psi, max_arity)))


def strict_projection(model: SplitModel, transported: AInftyCategory,
                      max_arity: int) -> AInftyFunctor:
    """The strict functor (k, a') |-> a' out of the transported category.

    Its functor equation, that the split-off component of every transported
    operation is the target operation of the split-off parts, is derived
    from projection . phi = F (see strictify) and F's equation.
    """
    certify_premise(model.functor, max_arity)
    return AInftyFunctor.derived(model.blocks.projection(), transported,
                                 model.functor.target, max_arity)


@dataclass
class Strictification:
    model: SplitModel
    transported: AInftyCategory       # (model, m_model): m conjugated into the model
    projection: AInftyFunctor         # strict: (model, m_model) -> A'
    phi_functor: AInftyFunctor        # phi = (r1, F): (A, m) -> (model, m_model)
    psi_functor: AInftyFunctor        # its inverse: (model, m_model) -> (A, m)
    arity_bound: int
    total: bool


def strictify(functor: AInftyFunctor,
              max_arity: Optional[int] = None) -> Strictification:
    """Full strictification bundle for an F1 functor, on check_F1's splits
    (computed once per functor); StrictifyError when F1 fails, or when the
    bound is below 2 and not total: the transported category then has no m2
    to state its strict units with.  projection . phi = F up to the bound,
    as the written documents promise, by construction: the projection is
    strict and reads the A'-part, where Blocks.family puts F in phi."""
    model = build_split_model(functor)
    # the model's hom Ker F1(x, y) + A'(Fx, Fy) has A(x, y)'s degrees, F1
    # being degreewise split surjective, so its interval is the base's: m
    # and m.m on both; the functor equations of F and projection, phi, psi
    base, tgt = (q.degree_interval() for q in (
        model.base.quiver, model.functor.target.quiver))
    bound, total = _choose_bound(
        max_arity, (base, base, 2), (base, tgt, 1), (base, base, 1))
    if bound < 2 and not total:
        raise StrictifyError(f"arity bound {bound} is below 2: "
                             "strict units need m2")
    phi, psi = build_phi_psi(model, bound)
    m_model = transport_structure(model, phi, psi, bound)

    base = model.base
    units_model = None
    if base.units is not None:
        units_model = {
            x: eval_multilinear(model.decompose, 1, (x, x), [base.unit_vec(x)])
            for x in base.objects
        }
    certify_premise(base, bound)
    transported = AInftyCategory.derived(m_model, units_model, bound)
    projection = strict_projection(model, transported, bound)
    phi_functor = AInftyFunctor.derived(phi, base, transported, bound)
    psi_functor = AInftyFunctor.derived(psi, transported, base, bound)
    return Strictification(model, transported, projection, phi_functor,
                           psi_functor, bound, total)
