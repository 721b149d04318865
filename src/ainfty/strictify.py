"""Strictification of a graded-split surjective functor.

Given F: A ->> A' with split arity-1 components, build the split model
quiver with homs Ker(F1) (+) A'-hom and, in its coordinates, the
isomorphism phi = (r1, F): A -> model (phi^1 = decompose, phi^n = (0, F^n)
for n >= 2), its inverse psi, the structure m_model = phi . m . psi that
makes phi an A-infinity functor, and the strict projection onto the
A'-summand, under which F becomes projection . phi.

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
    """phi: A -> model and its two-sided inverse psi: model -> A.

    phi = (r1, F): phi^1 = decompose and, for n >= 2, phi^n = (0, F^n), F^n
    shifted past the kernel block, since r1 . s1 = 0 and F1 . s1 = id.
    psi^1 = recompose; phi . psi = Id solved arity by arity gives psi^n =
    -s1 . (F . psi)^n for n >= 2, composed while psi^n is still zero and
    read with the section of the split at the block's end objects.
    psi . phi = Id is checked.
    """
    base = model.base
    fld = base.fld
    ident_map = {x: x for x in base.objects}
    f = model.functor.morphism
    phi_comps: Components = dict(model.decompose.components)
    for (n, objs), table in f.components.items():
        if 2 <= n <= max_arity:
            kdim = model.splits[(objs[0], objs[-1])].kernel.dim
            phi_comps[(n, objs)] = {
                in_t: {kdim + i: c for i, c in vec.items()}
                for in_t, vec in table.items()}
    phi = FormalMorphism(base.quiver, model.quiver, dict(ident_map),
                         normalize_components(phi_comps))
    minus = fld.from_int(-1)
    psi_comps: Components = dict(model.recompose.components)
    for n in range(2, max_arity + 1):
        psi = FormalMorphism(model.quiver, base.quiver, dict(ident_map), psi_comps)
        for (m, objs), table in compose_formal(f, psi, n).components.items():
            if m == n:
                section = model.splits[(objs[0], objs[-1])].section
                psi_comps[(n, objs)] = {
                    in_t: vec_scale(fld, minus, section.apply(vec))
                    for in_t, vec in table.items()}
    psi = FormalMorphism(model.quiver, base.quiver, dict(ident_map),
                         normalize_components(psi_comps))
    if compose_formal(psi, phi, max_arity) != identity_formal(base.quiver):
        raise StrictifyError("psi . phi is not the identity")
    return phi, psi


def transport_structure(model: SplitModel, phi: FormalMorphism,
                        psi: FormalMorphism, max_arity: int) -> Prenatural:
    """m_model = phi . m . psi, the base structure m conjugated once into
    model coordinates.

    phi . m = m_model . phi holds by construction, because psi is phi's
    two-sided inverse to max_arity (build_phi_psi forces one side and checks
    the other); strictify certifies it as phi_functor's functor equation."""
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
    transported: AInftyCategory       # (model, m_model): m conjugated into the model
    projection: AInftyFunctor         # strict: (model, m_model) -> A'
    phi_functor: AInftyFunctor        # phi = (r1, F): (A, m) -> (model, m_model)
    psi_functor: AInftyFunctor        # its inverse: (model, m_model) -> (A, m)
    arity_bound: int
    total: bool


def strictify(functor: AInftyFunctor,
              max_arity: Optional[int] = None) -> Strictification:
    """Full strictification bundle for an F1 functor, on check_F1's splits
    (computed once per functor); StrictifyError when F1 fails."""
    model = build_split_model(functor)
    full = _total_bound(model)
    bound, total = _choose_bound(max_arity, full)
    phi, psi = build_phi_psi(model, bound)
    m_model = transport_structure(model, phi, psi, bound)

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
    phi_functor = AInftyFunctor.build(phi, base, transported, max_arity=bound)
    psi_functor = AInftyFunctor.build(psi, transported, base, max_arity=bound)
    # the commuting square: projection . phi = F, the identity that the
    # written projection and phi documents promise
    if compose_formal(projection.morphism, phi, bound) != functor.morphism:
        raise StrictifyError("projection . phi differs from F")
    return Strictification(model, transported, projection, phi_functor,
                           psi_functor, bound, total)


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
