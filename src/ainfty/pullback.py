"""Pullback of an F1 functor along an arbitrary functor.

The pullback quiver has objects (x, y) with F0 x = G0 y and homs
Ker(F1)(x1, x2) (+) A''(y1, y2).  Its structure is a closed form: m'' on
the A''-parts plus the kernel part of m_model . (Id_K x G).  The product
morphism Id_K x G is built as the identity on kernel parts, with no kernel
part in its other outputs (the lemma _kernel_block_is_identity checks), so
the product-morphism equation holds by construction.  The builders certify
the rest exactly: the category's vanishing self-composition, alpha's
functor equation (the projection equation) and beta's, and the pullback
square F.beta = G.alpha.

A commuting cone induces N with cone_l as its A''-part, so alpha.N = cone_l
holds by construction; the triangles through beta and the product morphism
are certified, and uniqueness is the product morphism being the identity on
kernel parts, checked by one scan of its components.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .linear import GradedSpace, Vec
from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    CheckReport,
    EssentialCertificate,
    IsoLiftCertificate,
    Pair,
    _choose_bound,
    arity_feasibility_bound,
    check_F1,
    check_isofibration,
    check_quasi_equivalence,
    combined_verdict,
    _essential_surjectivity,
    _hom_level_quasi_iso,
    kernel_acyclicity,
)
from .quiver import (
    Components,
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    compose_formal,
    identity_formal,
    normalize_components,
    r_compose,
)
from .strictify import (
    Strictification,
    strictify,
    sum_space,
    sum_vec,
    summand_projection,
)

PAIR_SEP = "&"


class F1Error(AInftyError):
    def __init__(self, failure):
        pair, degree = failure
        super().__init__(f"F1 fails at {pair}: not surjective in degree {degree}")
        self.failure = failure


class ConeError(AInftyError):
    def __init__(self, arity, objs, in_t):
        super().__init__(
            f"cone does not commute at arity {arity}, objects {objs}, inputs {in_t}"
        )
        self.arity, self.objs, self.in_t = arity, objs, in_t


class InternalConsistencyError(AInftyError):
    pass


def pair_name(x: str, y: str) -> str:
    return f"{x}{PAIR_SEP}{y}"


@dataclass
class PullbackCategory:
    category: AInftyCategory
    alpha: AInftyFunctor                  # strict projection onto A''
    beta: AInftyFunctor                   # psi_functor . (Id_K x G)
    product_morphism: FormalMorphism      # (Id_K x G): P -> model
    object_pairs: Dict[str, Tuple[str, str]]
    strictification: Strictification
    f: AInftyFunctor
    g: AInftyFunctor
    arity_bound: int
    total: bool


def build_pullback_quiver(
    strict: Strictification, g: AInftyFunctor
) -> Tuple[GradedQuiver, FormalMorphism, Dict[str, Tuple[str, str]]]:
    """Objects, homs and the product morphism Id_K x G into the split model."""
    model = strict.model
    f = model.functor
    fld = model.base.fld
    pairs: Dict[str, Tuple[str, str]] = {}
    for x in model.base.objects:
        for y in g.source.objects:
            if f.object_map[x] == g.object_map[y]:
                pairs[pair_name(x, y)] = (x, y)
    objects = tuple(sorted(pairs))
    hom: Dict[Pair, GradedSpace] = {}
    for p1 in objects:
        for p2 in objects:
            (x1, y1), (x2, y2) = pairs[p1], pairs[p2]
            sp = sum_space(model.splits[(x1, x2)].kernel,
                           g.source.quiver.space(y1, y2))
            if sp.dim:
                hom[(p1, p2)] = sp
    quiver = GradedQuiver(fld, objects, hom)

    # arity 1: (k, a'') |-> (k, G1 a''); arity n >= 2: all-A'' tuples |-> (0, G^n)
    comps: Components = {}
    for p1 in objects:
        for p2 in objects:
            kdim = model.splits[(pairs[p1][0], pairs[p2][0])].kernel.dim
            if kdim:
                comps[(1, (p1, p2))] = {(i,): {i: fld.one} for i in range(kdim)}
    for key, table in g.morphism.components.items():
        for pkey, ptable in _embed_a(pairs, model.splits, key, table):
            comps.setdefault(pkey, {}).update(ptable)
    object_map = {p: pairs[p][0] for p in objects}
    product = FormalMorphism(quiver, strict.model.quiver, object_map, comps)
    return quiver, product, pairs


def _pullback_paths(pairs, yobjs):
    """All object tuples of the pullback whose second components match yobjs."""
    by_y: Dict[str, List[str]] = {}
    for p, (_, y) in pairs.items():
        by_y.setdefault(y, []).append(p)
    return itertools.product(*(sorted(by_y.get(y, [])) for y in yobjs))


def _embed_a(pairs, splits, key, table):
    """One A''-table, keyed (n, yobjs), along every pullback path over yobjs.

    Every input and the output move past the kernel block of their pair;
    yields ((n, pobjs), table in pullback coordinates) for nonempty tables.
    """
    n, yobjs = key
    for pobjs in _pullback_paths(pairs, yobjs):
        xs = [pairs[p][0] for p in pobjs]
        kdims = [splits[(xs[n - 1 - i], xs[n - i])].kernel.dim for i in range(n)]
        out_kdim = splits[(xs[0], xs[-1])].kernel.dim
        ptable: Dict[Tuple[int, ...], Vec] = {}
        for in_t, vec in table.items():
            out = {out_kdim + oi: c for oi, c in vec.items()}
            if out:
                ptable[tuple(k + b for k, b in zip(kdims, in_t))] = out
        if ptable:
            yield (n, pobjs), ptable


def _kernel_part(vec: Vec, kdim: int) -> Vec:
    return {i: c for i, c in vec.items() if i < kdim}


def _kernel_dim(p: PullbackCategory, p1: str, p2: str) -> int:
    """Kernel block size of the pullback hom (p1, p2)."""
    x1, x2 = p.object_pairs[p1][0], p.object_pairs[p2][0]
    return p.strictification.model.splits[(x1, x2)].kernel.dim


def solve_pullback_arity(
    pairs: Dict[str, Tuple[str, str]],
    rhs: Prenatural,
    g: AInftyFunctor,
    splits,
    n: int,
) -> Components:
    """Arity n of the structure, read off rhs = r_compose(product, m_model,
    max_arity >= n) with no engine call: m''^n on the A''-parts, rhs^n's
    kernel part on the kernel.  That solves the kernel part of the
    product-morphism equation by construction (see the module docstring);
    its A''-part is beta's functor equation, which build_pullback certifies."""
    comps: Components = {}
    for key, table in g.source.structure.components.items():
        if key[0] == n:
            for pkey, ptable in _embed_a(pairs, splits, key, table):
                comps.setdefault(pkey, {}).update(ptable)
    for (m, pobjs), table in rhs.components.items():
        if m == n:
            kdim = splits[(pairs[pobjs[0]][0], pairs[pobjs[-1]][0])].kernel.dim
            ctable = comps.setdefault((n, pobjs), {})
            for in_t, vec in table.items():
                ctable[in_t] = {**_kernel_part(vec, kdim), **ctable.get(in_t, {})}
    return normalize_components(comps)


def build_pullback_structure(
    quiver: GradedQuiver,
    pairs: Dict[str, Tuple[str, str]],
    product: FormalMorphism,
    m_model: Prenatural,
    g: AInftyFunctor,
    splits,
    max_arity: int,
) -> Prenatural:
    """m'' on the A''-parts plus the kernel part of m_model . (Id_K x G),
    from one r_compose for every arity.  The product-morphism equation holds
    by construction; build_pullback's builders certify alpha's functor
    equation (the projection equation), beta's and the self-composition."""
    ident = identity_formal(quiver)
    rhs = r_compose(product, m_model, max_arity)
    comps: Components = {}
    for n in range(1, max_arity + 1):
        comps.update(solve_pullback_arity(pairs, rhs, g, splits, n))
    return Prenatural(ident, ident, 2, comps)


def build_pullback(
    f: AInftyFunctor,
    g: AInftyFunctor,
    max_arity: Optional[int] = None,
) -> PullbackCategory:
    """The pullback category with both projections, fully certified; F is
    strictified on check_F1's splits.  F1Error when F1 fails."""
    if g.target.quiver != f.target.quiver:
        raise AInftyError("the two functors must share their target")
    f1 = check_F1(f)
    if not f1.passed:
        raise F1Error(f1.failure)
    full = _total_bound_pullback(f, g)
    bound, total = _choose_bound(max_arity, full)
    strict = strictify(f, max_arity=bound)
    quiver, product, pairs = build_pullback_quiver(strict, g)
    splits = strict.model.splits
    m_model = strict.transported.structure
    structure = build_pullback_structure(quiver, pairs, product, m_model, g,
                                         splits, bound)
    pr_a = summand_projection(quiver, g.source.quiver,
                              {p: pairs[p][1] for p in quiver.objects})

    units = None
    if (f.source.units is not None and g.source.units is not None
            and f.strictly_unital and g.strictly_unital):
        units = {
            p: sum_vec(quiver.fld,
                       splits[(x, x)].retract.apply(f.source.unit_vec(x)),
                       g.source.unit_vec(y), splits[(x, x)].kernel.dim)
            for p, (x, y) in pairs.items()
        }
    category = AInftyCategory.build(quiver, structure.components, units,
                                    max_arity=bound)
    alpha = AInftyFunctor.build(pr_a, category, g.source, max_arity=bound)
    beta = AInftyFunctor.build(
        compose_formal(strict.psi_functor.morphism, product, bound),
        category, f.source, max_arity=bound)

    # square commutativity, exact at the formal-morphism level
    if (compose_formal(f.morphism, beta.morphism, bound)
            != compose_formal(g.morphism, alpha.morphism, bound)):
        raise InternalConsistencyError("pullback square does not commute")
    return PullbackCategory(category, alpha, beta, product, pairs, strict,
                            f, g, bound, total)


def _total_bound_pullback(f: AInftyFunctor, g: AInftyFunctor) -> Optional[int]:
    src_q = f.source.quiver
    gsrc_q = g.source.quiver
    tgt_q = f.target.quiver
    degs = [d for q in (src_q, gsrc_q, tgt_q)
            for sp in q.hom.values() for _, d in sp.basis]
    if not degs:
        return 0
    iv = (min(degs), max(degs))
    comp = arity_feasibility_bound(iv, iv, 1)
    structure = arity_feasibility_bound(iv, iv, 2)
    defect = arity_feasibility_bound(iv, iv, 3)
    if comp is None or structure is None or defect is None:
        return None
    return max(comp, structure, defect)


# -- universal property --------------------------------------------------------

@dataclass
class UniversalReport:
    """triangles: beta.N = cone_i and product.N = phi.cone_i, certified
    exactly by induce_functor; alpha.N = cone_l holds by construction
    (alpha is the strict A'' projection and N's A''-part is cone_l).
    uniqueness: _kernel_block_is_identity, the lemma that the product
    morphism's arity-1 kernel block is the identity and its other outputs
    have zero kernel part, so the product triangle forces N's kernel part;
    the same lemma makes the pullback structure's closed form exact."""
    functor: AInftyFunctor
    triangles: bool
    uniqueness: bool


def induce_functor(
    p: PullbackCategory,
    cone_i: AInftyFunctor,
    cone_l: AInftyFunctor,
    max_arity: Optional[int] = None,
) -> UniversalReport:
    """The unique functor into the pullback induced by a commuting cone.

    cone_i lands in the original source of F (it is carried into the split
    model through phi = (r1, F)); cone_l lands in the source of G.
    Commutation of F . cone_i = G . cone_l is checked exactly first.  N is
    cone_l on A'' and phi . cone_i on the kernel; see UniversalReport.
    """
    bound = min(p.arity_bound, max_arity) if max_arity else p.arity_bound
    if cone_i.source.quiver.objects != cone_l.source.quiver.objects:
        raise AInftyError("cone legs must share their source category")
    lhs = compose_formal(p.f.morphism, cone_i.morphism, bound)
    rhs = compose_formal(p.g.morphism, cone_l.morphism, bound)
    if lhs != rhs:
        diff_keys = set(lhs.components) | set(rhs.components)
        for key in sorted(diff_keys):
            a = lhs.components.get(key, {})
            b = rhs.components.get(key, {})
            if a != b:
                bad = sorted(set(a) | set(b))[0]
                raise ConeError(key[0], key[1], bad)
    fld = p.category.fld
    strict = p.strictification
    i_model = compose_formal(strict.phi_functor.morphism, cone_i.morphism, bound)

    c_objects = cone_i.source.quiver.objects
    object_map = {}
    for c in c_objects:
        px = cone_i.object_map[c]
        py = cone_l.object_map[c]
        name = pair_name(px, py)
        if name not in p.object_pairs:
            raise ConeError(0, (c,), ())
        object_map[c] = name
    comps: Components = {}
    for key in set(i_model.components) | set(cone_l.morphism.components):
        kdim = _kernel_dim(p, object_map[key[1][0]], object_map[key[1][-1]])
        im_table = i_model.components.get(key, {})
        l_table = cone_l.morphism.components.get(key, {})
        comps[key] = {
            in_t: sum_vec(fld, _kernel_part(im_table.get(in_t, {}), kdim),
                          l_table.get(in_t, {}), kdim)
            for in_t in set(im_table) | set(l_table)}
    morphism = FormalMorphism(cone_i.source.quiver, p.category.quiver,
                              object_map, normalize_components(comps))
    functor = AInftyFunctor.build(morphism, cone_i.source, p.category,
                                  max_arity=bound)
    tri_b = compose_formal(p.beta.morphism, morphism, bound) == cone_i.morphism
    tri_p = compose_formal(p.product_morphism, morphism, bound) == i_model
    return UniversalReport(functor, tri_b and tri_p, _kernel_block_is_identity(p))


def _kernel_block_is_identity(p: PullbackCategory) -> bool:
    """The uniqueness lemma's hypothesis: the product morphism maps the
    kernel part of its input, and nothing else, to its output's."""
    one = p.category.fld.one
    seen = 0
    for (n, pobjs), table in p.product_morphism.components.items():
        kdim = _kernel_dim(p, pobjs[0], pobjs[-1])
        for in_t, vec in table.items():
            identity = n == 1 and in_t[0] < kdim
            if _kernel_part(vec, kdim) != ({in_t[0]: one} if identity else {}):
                return False
            seen += identity
    objs = p.category.objects
    return seen == sum(_kernel_dim(p, p1, p2) for p1 in objs for p2 in objs)


# -- fibration closure ----------------------------------------------------------

@dataclass
class FibrationReport:
    sections: Dict[str, CheckReport]

    @property
    def acyclic_fibration(self) -> str:
        return self.sections.get("alpha_acyclic_fibration",
                                 CheckReport("undecided")).verdict


def certify_fibration_closure(
    p: PullbackCategory,
    f_isolifts: Optional[List[IsoLiftCertificate]] = None,
    f_essentials: Optional[List[EssentialCertificate]] = None,
    alpha_isolifts: Optional[List[IsoLiftCertificate]] = None,
    alpha_essentials: Optional[List[EssentialCertificate]] = None,
) -> FibrationReport:
    """F1 closure unconditionally; F2 and acyclicity clause by clause."""
    sections: Dict[str, CheckReport] = {}
    alpha_f1 = check_F1(p.alpha)
    sections["alpha_f1"] = CheckReport(
        "pass" if alpha_f1.passed else "fail",
        [] if alpha_f1.passed else [str(alpha_f1.failure)],
    )
    unital = (p.f.source.units is not None and p.f.target.units is not None
              and p.g.source.units is not None
              and p.category.units is not None)
    if not unital:
        sections["f_isofibration"] = CheckReport(
            "undecided", ["units required for the F2 clauses"])
        return FibrationReport(sections)
    f_iso = check_isofibration(p.f, f_isolifts)
    sections["f_isofibration"] = f_iso
    if f_iso.passed:
        sections["alpha_isofibration_isofib"] = check_isofibration(
            p.alpha, alpha_isolifts)
    f_qe = check_quasi_equivalence(p.f, f_essentials)
    sections["f_quasi_equivalence"] = CheckReport(
        f_qe.verdict, f_qe.hom_level.witnesses + f_qe.essential.witnesses)
    if f_iso.passed and f_qe.passed:
        sections["alpha_kernel_acyclicity_ff"] = kernel_acyclicity(p.alpha)
        sections["alpha_hom_level_ff"] = _hom_level_quasi_iso(p.alpha)
        sections["alpha_essential_surjectivity_exsurj"] = _essential_surjectivity(
            p.alpha, alpha_essentials)
        clause_keys = [
            "alpha_f1", "alpha_isofibration_isofib", "alpha_kernel_acyclicity_ff",
            "alpha_hom_level_ff", "alpha_essential_surjectivity_exsurj",
        ]
        sections["alpha_acyclic_fibration"] = CheckReport(
            combined_verdict(sections[k].verdict for k in clause_keys))
    return FibrationReport(sections)
