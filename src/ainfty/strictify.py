"""Strictification of a graded-split surjective functor.

Given F: A ->> A' with split arity-1 components, build the split model
quiver with homs Ker(F1) (+) A'-hom, the automorphism phi of the underlying
formal calculus (phi^1 = id, phi^n = s1 . F^n for n >= 2), its inverse psi,
the transported structure that makes decompose . phi an A-infinity functor
from the original category to the model, and the strict projection onto
the A'-summand.  The structure is transported once, straight into model
coordinates: m_model = (decompose . phi) . m . (psi . recompose).

Basis names in model homs carry a "k:" prefix for the kernel part and an
"a:" prefix for the split-off part.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .linear import GradedSpace, SplitData, Vec, vec_scale
from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    Pair,
    _choose_bound,
    check_F1,
    functor_verify_bound,
    structure_verify_bound,
)
from .quiver import (
    Components,
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    compose_formal,
    eval_multilinear,
    identity_formal,
    l_compose,
    normalize_components,
    r_compose,
)

KER_PREFIX = "k:"
SUM_PREFIX = "a:"


class StrictifyError(AInftyError):
    pass


def sum_space(left: GradedSpace, right: GradedSpace) -> GradedSpace:
    """K (+) M with prefixed basis names; left block first."""
    basis = [(KER_PREFIX + n, d) for n, d in left.basis]
    basis += [(SUM_PREFIX + n, d) for n, d in right.basis]
    return GradedSpace(tuple(basis))


def sum_vec(fld, left: Vec, right: Vec, left_dim: int) -> Vec:
    out: Vec = dict(left)
    for i, c in right.items():
        out[left_dim + i] = c
    return {i: c for i, c in out.items() if not fld.is_zero(c)}


def summand_projection(source: GradedQuiver, target: GradedQuiver,
                       object_map: Dict[str, str]) -> FormalMorphism:
    """The strict morphism (k, a) |-> a onto the second summand.

    Every hom of `source` is K (+) M, kernel block first, with M the hom of
    `target` between the images of its end objects.
    """
    fld = source.fld
    comps: Components = {}
    for (x, y), sp in source.hom.items():
        adim = target.space(object_map[x], object_map[y]).dim
        kdim = sp.dim - adim
        table = {(kdim + bi,): {bi: fld.one} for bi in range(adim)}
        if table:
            comps[(1, (x, y))] = table
    return FormalMorphism(source, target, dict(object_map), comps)


@dataclass
class SplitModel:
    base: AInftyCategory
    functor: AInftyFunctor
    splits: Dict[Pair, SplitData]
    quiver: GradedQuiver
    decompose: FormalMorphism     # strict: A -> model, f |-> (r1 f, F1 f)
    recompose: FormalMorphism     # strict: model -> A, (g, h) |-> i1 g + s1 h


def build_split_model(functor: AInftyFunctor) -> SplitModel:
    """The split model quiver with its exact decompose/recompose pair, on
    check_F1's splits; StrictifyError when F1 fails.

    The two are mutually inverse because every split satisfies the five
    splitting identities, which split_surjection certifies per pair.
    """
    f1 = check_F1(functor)
    if not f1.passed:
        raise StrictifyError("condition F1 failed; no split model exists")
    base = functor.source
    fld = base.fld
    hom: Dict[Pair, GradedSpace] = {}
    for x in base.objects:
        for y in base.objects:
            split = f1.splits[(x, y)]
            sp = sum_space(split.kernel, split.surjection.target)
            if sp.dim:
                hom[(x, y)] = sp
    quiver = GradedQuiver(fld, base.objects, hom)
    dec: Components = {}
    rec: Components = {}
    for x in base.objects:
        for y in base.objects:
            split = f1.splits[(x, y)]
            kdim = split.kernel.dim
            src = base.quiver.space(x, y)
            dtable: Dict[Tuple[int, ...], Vec] = {}
            for i in range(src.dim):
                v = sum_vec(fld, split.retract.apply({i: fld.one}),
                            split.surjection.apply({i: fld.one}), kdim)
                if v:
                    dtable[(i,)] = v
            if dtable:
                dec[(1, (x, y))] = dtable
            rtable: Dict[Tuple[int, ...], Vec] = {}
            for ki in range(kdim):
                v = split.include.column(ki)
                if v:
                    rtable[(ki,)] = v
            for bi in range(split.surjection.target.dim):
                v = split.section.apply({bi: fld.one})
                if v:
                    rtable[(kdim + bi,)] = v
            if rtable:
                rec[(1, (x, y))] = rtable
    ident = {x: x for x in base.objects}
    decompose = FormalMorphism(base.quiver, quiver, dict(ident), dec)
    recompose = FormalMorphism(quiver, base.quiver, dict(ident), rec)
    return SplitModel(base, functor, f1.splits, quiver, decompose, recompose)


def build_phi_psi(model: SplitModel, max_arity: int
                  ) -> Tuple[FormalMorphism, FormalMorphism]:
    """phi and its two-sided inverse psi on the base quiver.

    phi^n = s1 . F^n for n >= 2 (sections indexed by the block endpoints),
    phi^1 = id; psi is solved arity by arity from phi . psi = Id, which the
    arity filtration makes finite and the solve forces.  psi . phi = Id is
    checked.
    """
    base = model.base
    fld = base.fld
    ident = identity_formal(base.quiver)
    phi_comps: Components = {k: {it: dict(v) for it, v in t.items()}
                             for k, t in ident.components.items()}
    for (n, objs), table in model.functor.morphism.components.items():
        if not 2 <= n <= max_arity:
            continue
        section = model.splits[(objs[0], objs[-1])].section
        ptable: Dict[Tuple[int, ...], Vec] = {}
        for in_t, vec in table.items():
            img = section.apply(vec)
            if img:
                ptable[in_t] = img
        if ptable:
            phi_comps[(n, objs)] = ptable
    ident_map = {x: x for x in base.objects}
    phi = FormalMorphism(base.quiver, base.quiver, dict(ident_map), phi_comps)
    psi_comps: Components = {k: {it: dict(v) for it, v in t.items()}
                             for k, t in ident.components.items()}
    for n in range(2, max_arity + 1):
        psi = FormalMorphism(base.quiver, base.quiver, dict(ident_map), psi_comps)
        resid = compose_formal(phi, psi, n)
        for (m, objs), table in resid.components.items():
            if m != n:
                continue
            neg = {
                it: vec_scale(fld, fld.from_int(-1), v)
                for it, v in table.items() if v
            }
            if neg:
                psi_comps[(n, objs)] = neg
    psi = FormalMorphism(base.quiver, base.quiver, dict(ident_map),
                         normalize_components(fld, psi_comps))
    if compose_formal(psi, phi, max_arity) != ident:
        raise StrictifyError("psi . phi is not the identity")
    return phi, psi


def transport_structure(model: SplitModel, phi: FormalMorphism,
                        psi: FormalMorphism, max_arity: int) -> Prenatural:
    """phi . m . psi, the base structure m conjugated once.

    strictify passes decompose . phi and psi . recompose, which gives the
    model's structure m_model: (decompose . phi) . m = m_model . (decompose .
    phi) holds by construction, because decompose/recompose are strict
    mutual inverses and psi is phi's two-sided inverse to max_arity
    (build_phi_psi forces one side and checks the other).  strictify
    certifies it as phi_functor's functor equation."""
    m = model.base.structure
    return l_compose(phi, r_compose(psi, m, max_arity), max_arity)


def strict_projection(model: SplitModel, transported: AInftyCategory,
                      max_arity: int) -> AInftyFunctor:
    """The strict functor (k, a') |-> a' out of the transported category.

    Building it certifies the functor equation, which is exactly the
    statement that the split-off component of every transported operation
    is the target operation of the split-off parts.
    """
    functor = model.functor
    morphism = summand_projection(
        model.quiver, functor.target.quiver,
        {x: functor.object_map[x] for x in model.base.objects})
    return AInftyFunctor.build(morphism, transported, functor.target,
                               max_arity=max_arity)


@dataclass
class Strictification:
    model: SplitModel
    phi: FormalMorphism               # base quiver automorphism, Id at arity 1
    psi: FormalMorphism               # its two-sided inverse
    transported: AInftyCategory       # (model, m_model): m conjugated into the model
    projection: AInftyFunctor         # strict: (model, m_model) -> A'
    phi_functor: AInftyFunctor        # decompose . phi: (A, m) -> (model, m_model)
    psi_functor: AInftyFunctor        # psi . recompose: (model, m_model) -> (A, m)
    arity_bound: int
    total: bool

    @property
    def f1_strict(self) -> FormalMorphism:
        """The formal morphism {F0, F1, 0, ...}."""
        f = self.model.functor.morphism
        comps = {k: {it: dict(v) for it, v in t.items()}
                 for k, t in f.components.items() if k[0] == 1}
        return FormalMorphism(f.source, f.target, dict(f.object_map), comps)


def strictify(functor: AInftyFunctor,
              max_arity: Optional[int] = None) -> Strictification:
    """Full strictification bundle for an F1 functor, on check_F1's splits
    (computed once per functor); StrictifyError when F1 fails."""
    model = build_split_model(functor)
    full = _total_bound(model)
    bound, total = _choose_bound(max_arity, full)
    phi, psi = build_phi_psi(model, bound)
    phi_model = compose_formal(model.decompose, phi, bound)
    psi_model = compose_formal(psi, model.recompose, bound)
    m_model = transport_structure(model, phi_model, psi_model, bound)

    base = model.base
    units_model = None
    if base.units is not None:
        units_model = {
            x: eval_multilinear(model.decompose, 1, (x, x), [base.unit_vec(x)])
            for x in base.objects
        }
    transported = AInftyCategory.build(model.quiver, m_model.components,
                                       units_model, max_arity=bound)
    projection = strict_projection(model, transported, bound)
    phi_functor = AInftyFunctor.build(phi_model, base, transported,
                                      max_arity=bound)
    psi_functor = AInftyFunctor.build(psi_model, transported, base,
                                      max_arity=bound)

    s = Strictification(model, phi, psi, transported, projection,
                        phi_functor, psi_functor, bound, total)
    # commuting square (the formal-morphism reading of the bar-level
    # diagrams); F . psi = f1_strict follows from it and phi . psi = id
    if compose_formal(s.f1_strict, phi, bound) != functor.morphism:
        raise StrictifyError("F1-strict . phi differs from F")
    return s


def _total_bound(model: SplitModel) -> Optional[int]:
    base_q = model.base.quiver
    tgt_q = model.functor.target.quiver
    candidates = [
        structure_verify_bound(base_q),
        structure_verify_bound(model.quiver),
        functor_verify_bound(base_q, tgt_q),
        functor_verify_bound(model.quiver, tgt_q),
        functor_verify_bound(base_q, model.quiver),
        functor_verify_bound(model.quiver, base_q),
    ]
    if any(c is None for c in candidates):
        return None
    return max(candidates)
