"""Pullback of an F1 functor along an arbitrary functor.

The pullback quiver has objects (x, y) with F0 x = G0 y and homs
Ker(F1)(x1, x2) (+) A''(y1, y2): the split model's `Blocks` layout over a
second quiver, which owns every block read and write here.  Its structure
m_P is a closed form: m'' on the A''-parts plus the kernel part of
m_model . (Id_K x G).  Nothing about P is certified: four lemmas derive
the functors and then m_P . m_P = 0, each up to the pullback's bound, from
strictify's values and from premises that `certify_premise` checks first
(G's equation and m'' . m'' = 0):

- alpha, the strict projection onto A'', is a functor with no premise:
  m_P's A''-part is m'' lifted, so alpha . m_P = m'' . alpha entry for
  entry.
- The product morphism Id_K x G: P -> (model, m_model) is the identity on
  kernel parts, with no kernel part in its other outputs (the kernel-block
  lemma: build_pullback_quiver makes it Blocks.family(id_K, Blocks.lift(G)),
  which moves every output of G past the kernel block), so its kernel-part
  equation holds by construction; its A'-part is G . alpha, whose equation
  follows from G's (the premise) and the strict projection model -> A'.
  beta = psi . (Id_K x G) is then a composite of functors.
- m_P . m_P = 0 (pullback.projections_injective).  The two lemmas above
  do not use it, so each projection F, alpha or Id_K x G, has
  F o b_P^2 = b^2 o F = 0 on the bar
  constructions: m'' . m'' = 0 is a premise, and m_model . m_model =
  phi.m.m.psi = 0 is derived in strictify.  At the lowest arity n where
  D = m_P . m_P is nonzero, the arity-n part of F o b_P^2 is F^1 D^n; the
  two arity-1 maps are jointly injective (the kernel-block lemma), so
  D = 0 by induction on the arity.
- A commuting cone induces N with cone_l as its A''-part and the kernel
  part of phi . cone_i on the kernel, so alpha . N = cone_l and
  (Id_K x G) . N = phi . cone_i, both functors once the legs are (the
  premises).  At the lowest arity n where D = N b_C - b_P N is nonzero,
  alpha^1 D^n = 0 and (Id_K x G)^1 D^n = 0; the two are jointly injective
  (the kernel-block lemma again), so D = 0 by induction on the arity.

The lemmas join functors across categories, so the categories must match,
structure and all (`same_category`): F's target and G's, each cone leg's
target and F's or G's source, and the two legs' sources.  A mismatch is an
AInftyError before any engine call.  The one exact check kept is the cone,
F . cone_i = G . cone_l, a premise.  The square, the kernel block and the
triangles are derived (build_pullback, build_pullback_quiver,
UniversalReport), not recomputed, and so are alpha's fibration clauses,
from F's (certify_fibration_closure).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    CheckReport,
    EssentialCertificate,
    IsoLiftCertificate,
    F1Result,
    _choose_bound,
    certify_premise,
    check_F1,
    check_isofibration,
    check_quasi_equivalence,
    combined_verdict,
    same_category,
)
from .quiver import (
    Components,
    FormalMorphism,
    Prenatural,
    compose_formal,
    first_difference,
    identity_formal,
    r_compose,
)
from .strictify import Blocks, Strictification, strictify

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


def pair_name(x: str, y: str) -> str:
    return f"{x}{PAIR_SEP}{y}"


@dataclass
class PullbackCategory:
    category: AInftyCategory
    alpha: AInftyFunctor                  # strict projection onto A''
    beta: AInftyFunctor                   # psi_functor . (Id_K x G)
    product_morphism: FormalMorphism      # (Id_K x G): P -> model
    blocks: Blocks                        # Ker(F1) (+) A'' over the pairs
    object_pairs: Dict[str, Tuple[str, str]]
    strictification: Strictification
    f: AInftyFunctor
    g: AInftyFunctor
    arity_bound: int
    total: bool


def build_pullback_quiver(
    strict: Strictification, g: AInftyFunctor
) -> Tuple[Blocks, FormalMorphism, Dict[str, Tuple[str, str]]]:
    """The blocks over the object pairs and the product morphism Id_K x G
    into the split model."""
    model = strict.model
    f = model.functor
    pairs: Dict[str, Tuple[str, str]] = {}
    for x, y in [(x, y) for x in model.base.objects for y in g.source.objects
                 if f.object_map[x] == g.object_map[y]]:
        if (name := pair_name(x, y)) in pairs:
            raise AInftyError(f"pullback objects {pairs[name]} and {(x, y)} "
                              f"share the name {name!r}")
        pairs[name] = (x, y)
    objects = tuple(sorted(pairs))
    kernel = {(p1, p2): model.splits[(pairs[p1][0], pairs[p2][0])].kernel
              for p1 in objects for p2 in objects}
    blocks = Blocks.build(model.base.fld, objects, kernel, g.source.quiver,
                          {p: pairs[p][1] for p in objects})

    # arity 1: (k, a'') |-> (k, G1 a''); arity n >= 2: all-A'' tuples |-> (0, G^n)
    one = model.base.fld.one
    id_k = {(1, pair): {(i,): {i: one} for i in range(kdim)}
            for pair, kdim in blocks.kdims.items()}
    comps = blocks.family(id_k, blocks.lift(g.morphism.components))
    object_map = {p: pairs[p][0] for p in objects}
    product = FormalMorphism(blocks.quiver, model.quiver, object_map, comps)
    return blocks, product, pairs


def solve_pullback_arity(blocks: Blocks, rhs: Prenatural, g: AInftyFunctor,
                         n: int) -> Components:
    """Arity n of the structure, read off rhs = r_compose(product, m_model,
    max_arity >= n) with no engine call: m''^n on the A''-parts, rhs^n's
    kernel part on the kernel.  That solves the kernel part of the
    product-morphism equation by construction, and the A''-part makes
    alpha a functor (see the module docstring)."""
    m_n = {key: t for key, t in g.source.structure.components.items()
           if key[0] == n}
    rhs_n = {key: t for key, t in rhs.components.items() if key[0] == n}
    return blocks.family(rhs_n, blocks.lift(m_n))


def build_pullback_structure(
    blocks: Blocks,
    product: FormalMorphism,
    m_model: Prenatural,
    g: AInftyFunctor,
    max_arity: int,
) -> Prenatural:
    """m'' on the A''-parts plus the kernel part of m_model . (Id_K x G),
    from one r_compose for every arity, solved at the arities present in
    rhs or m'' only.  build_pullback derives its self-composition and the
    functors (see the module docstring)."""
    ident = identity_formal(blocks.quiver)
    rhs = r_compose(product, m_model, max_arity)
    comps: Components = {}
    for n in sorted({n for n, _ in (*rhs.components, *g.source.structure.components)
                     if 1 <= n <= max_arity}):
        comps.update(solve_pullback_arity(blocks, rhs, g, n))
    return Prenatural(ident, ident, 2, comps)


def build_pullback(
    f: AInftyFunctor,
    g: AInftyFunctor,
    max_arity: Optional[int] = None,
) -> PullbackCategory:
    """The pullback category with both projections; F is strictified on
    check_F1's splits.  G's equation and m'' . m'' = 0 are certified, m_P's
    relation, alpha and beta derived (see the module docstring).  F1Error
    when F1 fails.  m_P is made by the package from canonical parts
    (regrouped sums, m'' as `build` stored it), so it is not admitted again.
    pullback.square, the square commutes by construction: F . beta =
    F . psi . (Id_K x G) = projection . (Id_K x G) = G . alpha, by
    strictify's projection . phi = F and psi = phi^-1, and as the product
    morphism's A'-part is G . alpha.  pullback.layout_split: alpha's F1
    splits are read off the block layout (`Blocks.projection_splits`), not
    eliminated.  pullback.unit_pairs: with F and G strictly unital, P's
    units are the pairs (r 1_x, 1_y), which AInftyCategory.derived checks
    with check_strict_units."""
    if not same_category(g.target, f.target):
        raise AInftyError("the two functors must share their target")
    f1 = check_F1(f)
    if not f1.passed:
        raise F1Error(f1.failure)
    # one hull interval over the degrees of A, A'' and A'
    ends = [d for q in (f.source.quiver, g.source.quiver, f.target.quiver)
            for d in q.degree_interval() or ()]
    iv = (min(ends), max(ends)) if ends else None
    bound, total = _choose_bound(max_arity, (iv, iv, 1), (iv, iv, 2))
    strict = strictify(f, max_arity=bound)
    certify_premise(g, bound)
    certify_premise(g.source, bound)
    blocks, product, pairs = build_pullback_quiver(strict, g)
    splits = strict.model.splits
    structure = build_pullback_structure(
        blocks, product, strict.transported.structure, g, bound)

    units = None
    if (f.source.units is not None and g.source.units is not None
            and f.strictly_unital and g.strictly_unital):
        units = {
            p: blocks.vec(p, p,
                          splits[(x, x)].retract.apply(f.source.unit_vec(x)),
                          g.source.unit_vec(y))
            for p, (x, y) in pairs.items()
        }
    category = AInftyCategory.derived(structure, units, bound)
    alpha = AInftyFunctor.derived(blocks.projection(), category, g.source, bound)
    alpha._f1 = F1Result(True, blocks.projection_splits())
    beta = strict.psi_functor.compose(
        AInftyFunctor.derived(product, category, strict.transported, bound))
    return PullbackCategory(category, alpha, beta, product, blocks, pairs,
                            strict, f, g, bound, total)


# -- universal property --------------------------------------------------------

@dataclass
class UniversalReport:
    """functor: N, derived, not certified.  Its lemma: alpha . N = cone_l
    and product . N = phi . cone_i are functors (the legs are certified up
    to the bound first), so at N's lowest nonzero defect arity both arity-1
    maps kill the defect, and they are jointly injective; alpha and the
    product morphism are functors by their own lemmas (module docstring)."""
    functor: AInftyFunctor
    # alpha.N = cone_l, N's A''-part; (Id_K x G).N = phi.cone_i, its kernel
    # part by how N is built, its A'-part G.cone_l = F.cone_i by the cone
    # check; so beta.N = psi.(Id_K x G).N = psi.phi.cone_i = cone_i
    triangles = True
    # the kernel-block lemma (module docstring): the product triangle
    # forces N's kernel part, alpha's its A''-part
    uniqueness = True


def induce_functor(
    p: PullbackCategory,
    cone_i: AInftyFunctor,
    cone_l: AInftyFunctor,
) -> UniversalReport:
    """The unique functor into the pullback induced by a commuting cone.

    cone_i lands in the original source of F (it is carried into the split
    model through phi = (r1, F)); cone_l lands in the source of G, and the
    legs share their source category.  Both legs' equations are certified
    up to the bound, then F . cone_i = G . cone_l is checked exactly.  N is
    cone_l on A'' and phi . cone_i on the kernel; see UniversalReport.
    """
    bound = p.arity_bound
    for a, b, mismatch in (
            (cone_i.source, cone_l.source, "cone legs must share their source"),
            (cone_i.target, p.f.source, "cone_i must land in the source of F"),
            (cone_l.target, p.g.source, "cone_l must land in the source of G")):
        if not same_category(a, b):
            raise AInftyError(mismatch)
    certify_premise(cone_i, bound)
    certify_premise(cone_l, bound)
    lhs = compose_formal(p.f.morphism, cone_i.morphism, bound)
    rhs = compose_formal(p.g.morphism, cone_l.morphism, bound)
    bad = first_difference(lhs.components, rhs.components)
    if bad is not None:
        raise ConeError(*bad)
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
    comps = p.blocks.family(i_model.components, cone_l.morphism.components,
                            ends=object_map)
    morphism = FormalMorphism(cone_i.source.quiver, p.category.quiver,
                              object_map, comps)
    return UniversalReport(
        AInftyFunctor.derived(morphism, cone_i.source, p.category, bound))


# -- fibration closure ----------------------------------------------------------

@dataclass
class FibrationReport:
    sections: Dict[str, CheckReport]


# alpha's clauses: the F clauses each is reported under, and the name of its
# lemma in certify_fibration_closure's docstring
_F2, _QE = "f_isofibration", "f_quasi_equivalence"
ALPHA_CLAUSES = {
    "alpha_isofibration_isofib": ((_F2,), "pullback.alpha_lifts_isos"),
    "alpha_kernel_acyclicity_ff": ((_F2, _QE), "pullback.alpha_kernel_is_Fs"),
    "alpha_hom_level_ff": ((_F2, _QE), "pullback.alpha_split_acyclic_kernel"),
    "alpha_essential_surjectivity_exsurj": ((_F2, _QE),
                                            "pullback.alpha_lifts_objects"),
}


def certify_fibration_closure(
    p: PullbackCategory,
    f_isolifts: Optional[List[IsoLiftCertificate]] = None,
    f_essentials: Optional[List[EssentialCertificate]] = None,
    alpha_isolifts: Optional[List[IsoLiftCertificate]] = None,
) -> FibrationReport:
    """alpha's fibration clauses, derived from F's; nothing about P is
    computed.

    alpha's F1 holds by its block layout (pullback.layout_split: the
    section m -> (0, m) splits alpha1 onto, build_pullback).  With units on
    F, G and P, F's F2 and quasi-equivalence are computed, and each clause
    of ALPHA_CLAUSES is reported as derived once the F clauses it names
    pass: F2 under F's F2, the other three under F's F2 and
    quasi-equivalence, the hypotheses of the closure theorem.  All four
    lemmas rest on one fact: P's arity-1 complex is the fibre product
    A x_{A'} A'' through phi1 = (r1, F1), so 0 -> P -> A (+) A'' -> A' -> 0
    is exact (Weibel, An Introduction to Homological Algebra, 1.3).

    - pullback.alpha_kernel_is_Fs: alpha's kernel complex is F's kernel
      complex, acyclic because F1 is onto (build_pullback's premise) and a
      quasi-isomorphism.
    - pullback.alpha_split_acyclic_kernel: alpha1 is split onto with an
      acyclic kernel, so it is a quasi-isomorphism.
    - pullback.alpha_lifts_objects: for b'' in A'', F's essential
      surjectivity gives x with F x ~ G b''; F2 lifts that iso to x -> x'
      with F x' = G b'', so (x', b'') is an object of P over b''.
    - pullback.alpha_lifts_isos: at an object (x, y) of P, an iso
      v: y -> b'' gives the iso [G v] out of G y = F x; F2 lifts it to an
      iso [u]: x -> x' with [F u] = [G v].  By exactness the pair
      ([u], [v]) comes from a class c of H0(P).  The kernel K of H0(P) ->
      H0(A) x H0(A'') is the image of the connecting map, and K.K = 0: the
      product of connecting classes (m1 a1, 0) and (m1 a2, 0) is m1 of
      (m2(a1, m1 a2), 0).  The inverse pair lifts the same way to d, so
      d c and c d are 1 + n with n.n = 0, and c is invertible.

    alpha_isolifts is deprecated and read only to warn: it is removed with
    the benchmark change of ROADMAP item 23, which stops passing it.
    """
    if alpha_isolifts is not None:
        warnings.warn("alpha_isolifts is ignored, alpha's F2 being derived "
                      "from F's; it is removed with the benchmark change of "
                      "ROADMAP item 23", DeprecationWarning, stacklevel=2)
    sections = {"alpha_f1": CheckReport.derived("pullback.layout_split", [])}
    unital = (p.f.source.units is not None and p.f.target.units is not None
              and p.g.source.units is not None
              and p.category.units is not None)
    if not unital:
        sections["f_isofibration"] = CheckReport(
            "undecided", ["units required for the F2 clauses"])
        return FibrationReport(sections)
    sections["f_isofibration"] = check_isofibration(p.f, f_isolifts)
    f_qe = check_quasi_equivalence(p.f, f_essentials)
    sections["f_quasi_equivalence"] = CheckReport(
        f_qe.verdict, f_qe.hom_level.witnesses + f_qe.essential.witnesses)
    for key, (premises, lemma) in ALPHA_CLAUSES.items():
        if all(sections[k].passed for k in premises):
            sections[key] = CheckReport.derived(lemma, premises)
    if all(key in sections for key in ALPHA_CLAUSES):
        sections["alpha_acyclic_fibration"] = CheckReport(combined_verdict(
            sections[k].verdict for k in ("alpha_f1", *ALPHA_CLAUSES)))
    return FibrationReport(sections)
