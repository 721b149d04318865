from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from ainfty.fields import Field
from ainfty.linear import vec_add, vec_scale
from ainfty.quiver import (
    FormalMorphism,
    compose_formal,
    eval_multilinear,
    identity_formal,
)
from ainfty.core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    FunctorDefectError,
    check_F1,
    check_strict_units,
    functor_defect,
    structure_defect,
)
from ainfty.pullback import (
    ConeError,
    F1Error,
    build_pullback,
    build_pullback_quiver,
    build_pullback_structure,
    certify_fibration_closure,
    induce_functor,
    pair_name,
)
from ainfty.documents import load_category, load_functor
from ainfty.strictify import strictify

from helpers import (
    beta_two_step,
    bump_coefficient,
    colliding_pair_functors,
    cyclic_garbage,
    doubled_object_functor,
    eval_basis,
    formal_inverse,
    idempotent_category,
    inclusion_functor,
    kernel_block_is_identity,
    nilpotent_category,
    pasting_mismatches,
    point_category,
    product_mismatches,
    pullback_squares_to_zero,
    pullback_structure_by_recursion,
    random_diffeo,
    random_dg_category,
    random_f1_functor,
    random_g_functor,
    short_f2_functor,
    sq_functor,
    square_commutes,
    square_zero_extension,
    terminal_category,
    to_terminal,
    transported_structure_two_step,
    triangles_hold,
    twist_structure,
    twisted_functor,
    unit_isolifts,
)

QQ = Field.rationals()
F5 = Field.prime(5)


import functools


@functools.lru_cache(maxsize=None)
def sq_pullback(char=0):
    fld = Field.rationals() if char == 0 else Field.prime(char)
    f = sq_functor(fld)
    g = AInftyFunctor.identity(f.target)
    return build_pullback(f, g)


@functools.lru_cache(maxsize=None)
def twisted_pair(seed=3, char=0, acyclic=True, gens=(("a", -1), ("b", 0)),
                 f_density=0.5, g_density=0.5):
    fld = Field.rationals() if char == 0 else Field.prime(char)
    rng = random.Random(seed)
    base = nilpotent_category(fld, gens)
    ext, f_strict = square_zero_extension(fld, base, acyclic=acyclic)
    f = twisted_functor(f_strict, rng, max_arity=2, density=f_density)
    gd = doubled_object_functor(base)
    g = twisted_functor(gd, rng, max_arity=2, density=g_density)
    return f, g


@functools.lru_cache(maxsize=None)
def twisted_pullback(seed=3, char=0, f_density=0.5, g_density=0.5,
                     max_arity=4):
    f, g = twisted_pair(seed, char, f_density=f_density, g_density=g_density)
    return build_pullback(f, g, max_arity=max_arity)


# -- quiver construction -------------------------------------------------------

def test_pullback_quiver_identity_g():
    f = sq_functor(QQ)
    s = strictify(f)
    g = AInftyFunctor.identity(f.target)
    blocks, product, pairs = build_pullback_quiver(s, g)
    quiver = blocks.quiver
    assert quiver.objects == (pair_name("o", "p"),)
    sp = quiver.space(*([quiver.objects[0]] * 2))
    assert [n for n, _ in sp.basis] == ["k:ker0", "k:ker1", "a:1'"]


def test_pullback_empty_when_images_disjoint():
    # G hits an object F never reaches: empty object set is allowed
    big = nilpotent_category(QQ, (), n_objects=2)
    small = point_category(QQ)
    incl1 = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    f = AInftyFunctor.build(incl1, small, big)
    incl2 = FormalMorphism(small.quiver, big.quiver, {"o0": "o1"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    g = AInftyFunctor.build(incl2, small, big)
    p = build_pullback(f, g)
    assert p.category.objects == ()
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_f1"].passed


def test_pullback_object_names_must_not_collide():
    # (a&b, c) and (a, b&c) would both be the object a&b&c
    f, g = colliding_pair_functors(QQ)
    with pytest.raises(AInftyError, match=r"\('a&b', 'c'\) and \('a', 'b&c'\) "
                                          r"share the name 'a&b&c'"):
        build_pullback(f, g)


def test_pullback_quiver_one_object_inclusion():
    # G: point -> A' picks the unique object; hom = span{e,t} (+) A''-hom
    f = sq_functor(QQ)
    pt = point_category(QQ)
    g_m = FormalMorphism(pt.quiver, f.target.quiver, {"o0": "p"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    g = AInftyFunctor.build(g_m, pt, f.target)
    p = build_pullback(f, g)
    name = pair_name("o", "o0")
    assert p.category.objects == (name,)
    sp = p.category.quiver.space(name, name)
    assert [n for n, _ in sp.basis] == ["k:ker0", "k:ker1", "a:1"]


def test_pullback_along_identity_reproduces_model():
    # G = Id: the pullback structure equals the transported model structure
    # under the object renaming x -> (x, F0 x)
    p = sq_pullback(0)
    m_s = p.strictification.transported.structure
    renamed = {}
    for (n, objs), table in m_s.components.items():
        pobjs = tuple(pair_name(x, p.f.object_map[x]) for x in objs)
        renamed[(n, pobjs)] = table
    assert p.category.structure.components == renamed


def test_f1_failure_aborts():
    small = nilpotent_category(QQ, ())
    big = nilpotent_category(QQ, (("w", 2),))
    morphism = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    f = AInftyFunctor.build(morphism, small, big)
    g = AInftyFunctor.identity(big)
    with pytest.raises(F1Error):
        build_pullback(f, g)


# -- the structure recursion -----------------------------------------------------

def test_arity_one_closed_form():
    # D~^1(k, a'') = (pr_K m_S^1 (k, G^1 a''), m''^1 a'') on every basis element
    p = twisted_pullback(seed=5)
    f, g = p.f, p.g
    s = p.strictification
    m_s = s.transported.structure
    app = g.source.structure
    for pname in p.category.objects:
        x, y = p.object_pairs[pname]
        sp = p.category.quiver.space(pname, pname)
        kdim = s.model.splits[(x, x)].kernel.dim
        for i in range(sp.dim):
            got = eval_basis(p.category.structure, 1, (pname, pname), (i,))
            img = eval_basis(p.product_morphism, 1, (pname, pname), (i,))
            model_out = eval_multilinear(m_s, 1, (x, x), [img])
            want = {k: c for k, c in model_out.items() if k < kdim}
            if i >= kdim:
                app_out = eval_basis(app, 1, (y, y), (i - kdim,))
                for oi, c in app_out.items():
                    want[kdim + oi] = c
            assert got == want


def test_defining_equations_hold():
    from ainfty.quiver import l_compose, r_compose
    p = twisted_pullback(seed=9, f_density=0.8, g_density=0.8)
    f, g = p.f, p.g
    bound = 4
    s = p.strictification
    eq1 = l_compose(p.product_morphism, p.category.structure, bound).sub(
        r_compose(p.product_morphism, s.transported.structure, bound))
    assert not eq1.components
    pr_a = p.alpha.morphism
    eq2 = l_compose(pr_a, p.category.structure, bound).sub(
        r_compose(pr_a, g.source.structure, bound))
    assert not eq2.components


def test_structure_squares_to_zero_g2_fixture():
    p = twisted_pullback(seed=13, f_density=0.9, g_density=0.9)
    g = p.g
    assert any(n >= 2 for (n, _) in g.morphism.components)
    defect = structure_defect(p.category.structure, 4)
    assert not defect.components


def test_square_commutativity():
    p = twisted_pullback(seed=21, f_density=0.7, g_density=0.7)
    f, g = p.f, p.g
    bound = p.arity_bound
    model_pr = p.strictification.projection.morphism
    assert compose_formal(model_pr, p.product_morphism, bound) == \
        compose_formal(g.morphism, p.alpha.morphism, bound)
    assert compose_formal(f.morphism, p.beta.morphism, bound) == \
        compose_formal(g.morphism, p.alpha.morphism, bound)


def test_alpha_f1_with_inclusion_section():
    p = twisted_pullback(seed=25)
    res = check_F1(p.alpha)
    assert res.passed
    # the canonical section is the inclusion of the second summand
    for pname1 in p.category.objects:
        for pname2 in p.category.objects:
            split = res.splits[(pname1, pname2)]
            x1, _ = p.object_pairs[pname1]
            x2, _ = p.object_pairs[pname2]
            kdim = p.strictification.model.splits[(x1, x2)].kernel.dim
            for bi in range(split.surjection.target.dim):
                assert split.section.apply({bi: QQ.one}) == {kdim + bi: QQ.one}


def test_unit_closure():
    p = twisted_pullback(seed=31, f_density=0.6)
    f, g = p.f, p.g
    assert p.category.units is not None
    assert check_strict_units(p.category).passed
    # units are (kernel part of 1_x, 1_y)
    for pname, (x, y) in p.object_pairs.items():
        split = p.strictification.model.splits[(x, x)]
        kpart = split.retract.apply(f.source.unit_vec(x))
        kdim = split.kernel.dim
        want = dict(kpart)
        for i, c in g.source.unit_vec(y).items():
            want[kdim + i] = c
        assert p.category.units[pname] == want
    # alpha and the product morphism are strictly unital
    assert p.alpha.strictly_unital


# -- strict DG oracle --------------------------------------------------------------

def test_strict_dg_matches_componentwise_fiber_product():
    # with F, G strict DG the pullback agrees, after recompose, with the
    # direct componentwise structure on pairs satisfying F1 a = G1 c
    base = nilpotent_category(QQ, (("a", -1), ("b", 0)), d_of={"a": "b"})
    ext, f = square_zero_extension(QQ, base, acyclic=True)
    g = doubled_object_functor(base)
    p = build_pullback(f, g)
    fld = QQ
    s = p.strictification

    def iso(pname, vec):
        # P-hom -> (A-part, A''-part) via (k, a'') |-> (i k + s G^1 a'', a'')
        x1, y1 = p.object_pairs[pname[0]]
        x2, y2 = p.object_pairs[pname[1]]
        split = s.model.splits[(x1, x2)]
        kdim = split.kernel.dim
        apart = {}
        cpart = {}
        for i, c in vec.items():
            if i < kdim:
                apart = vec_add(fld, apart, vec_scale(
                    fld, c, split.include.column(i)))
            else:
                cpart[i - kdim] = c
        g1 = eval_multilinear(g.morphism, 1, (y1, y2), [cpart]) if cpart else {}
        apart = vec_add(fld, apart, split.section.apply(g1))
        return apart, cpart

    mA = f.source.structure
    mC = g.source.structure
    for pname in p.category.objects:
        x, y = p.object_pairs[pname]
        sp = p.category.quiver.space(pname, pname)
        for i in range(sp.dim):
            va, vc = iso((pname, pname), {i: fld.one})
            # fiber condition
            fa = eval_multilinear(f.morphism, 1, (x, x), [va]) if va else {}
            gc = eval_multilinear(g.morphism, 1, (y, y), [vc]) if vc else {}
            assert fa == gc
            # arity 1 matches componentwise
            out = eval_basis(p.category.structure, 1, (pname, pname), (i,))
            oa, oc = iso((pname, pname), out)
            assert oa == (eval_multilinear(mA, 1, (x, x), [va]) if va else {})
            assert oc == (eval_multilinear(mC, 1, (y, y), [vc]) if vc else {})
            for j in range(sp.dim):
                wa, wc = iso((pname, pname), {j: fld.one})
                out2 = eval_basis(p.category.structure, 2,
                                  (pname, pname, pname), (i, j))
                oa2, oc2 = iso((pname, pname), out2)
                assert oa2 == eval_multilinear(mA, 2, (x, x, x), [va, wa])
                assert oc2 == eval_multilinear(mC, 2, (y, y, y), [vc, wc])


# -- universal property --------------------------------------------------------------

def _alpha_triangle(p, rep, cone_l):
    """alpha . N = cone_l, which induce_functor does not check: it holds by
    construction."""
    return (compose_formal(p.alpha.morphism, rep.functor.morphism,
                           rep.functor.arity_bound) == cone_l.morphism)


def test_self_cone_gives_identity():
    p = sq_pullback(0)
    rep = induce_functor(p, p.beta, p.alpha)
    assert rep.functor.morphism == identity_formal(p.category.quiver)
    assert rep.triangles and rep.uniqueness
    assert _alpha_triangle(p, rep, p.alpha)


def test_twisted_cone_recovers_inverse():
    p = twisted_pullback(seed=37, f_density=0.6, g_density=0.6)
    rng = random.Random(99)
    u = random_diffeo(rng, p.category.quiver, max_arity=2, density=0.4,
                      unital_for=p.category.units)
    c_cat = twist_structure(p.category, u, p.arity_bound)
    v = formal_inverse(u, p.arity_bound)
    t = AInftyFunctor.build(v, c_cat, p.category, max_arity=p.arity_bound)
    cone_i = p.beta.compose(t)
    cone_l = p.alpha.compose(t)
    rep = induce_functor(p, cone_i, cone_l)
    assert rep.triangles and rep.uniqueness
    assert _alpha_triangle(p, rep, cone_l)
    assert rep.functor.morphism == t.morphism    # uniqueness pins N = t


def test_bumped_kernel_block_breaks_uniqueness():
    # uniqueness rests on the product morphism's identity kernel block,
    # which build_pullback_quiver forces; the oracle that conftest.py runs
    # on every pullback rejects one changed coefficient of it
    p = twisted_pullback(seed=37, f_density=0.6, g_density=0.6)
    product = p.product_morphism

    def kernel_block(key, out):
        x1, x2 = p.object_pairs[key[1][0]][0], p.object_pairs[key[1][-1]][0]
        return out < p.strictification.model.splits[(x1, x2)].kernel.dim

    bumped = dataclasses.replace(product, components=bump_coefficient(
        QQ, product.components, 1, kernel_block))
    assert kernel_block_is_identity(p)
    assert not kernel_block_is_identity(
        dataclasses.replace(p, product_morphism=bumped))


def test_deleted_kernel_block_entry_breaks_uniqueness():
    # every present entry of the product morphism still passes, so only the
    # oracle's count of identity entries sees that one arity-1 kernel entry
    # is gone
    p = twisted_pullback(seed=37, f_density=0.6, g_density=0.6)
    product = p.product_morphism
    comps = {key: dict(table) for key, table in product.components.items()}
    key = next(key for key in sorted(comps) if key[0] == 1
               and p.blocks.kdims[(key[1][0], key[1][-1])])
    assert comps[key].pop((0,)) == {0: QQ.one}
    deleted = dataclasses.replace(product, components=comps)
    assert not kernel_block_is_identity(
        dataclasses.replace(p, product_morphism=deleted))


def _bumped(fam, allowed=lambda key, out: True):
    """fam with one arity-1 coefficient raised by one (bump_coefficient)."""
    return dataclasses.replace(fam, components=bump_coefficient(
        QQ, fam.components, 1, allowed))


def test_square_and_triangle_oracles_reject_tampering():
    # build_pullback and induce_functor derive the square and the triangles;
    # the oracles that conftest.py runs on every result reject a changed
    # alpha or N
    p = twisted_pullback(seed=37, f_density=0.6, g_density=0.6)
    n = induce_functor(p, p.beta, p.alpha).functor.morphism
    assert square_commutes(p) and triangles_hold(p, n, p.beta.morphism)
    alpha = dataclasses.replace(p.alpha, morphism=_bumped(p.alpha.morphism))
    assert not square_commutes(dataclasses.replace(p, alpha=alpha))

    def kernel(key, out):
        return out < p.blocks.kdims[(key[1][0], key[1][-1])]

    for part in (kernel, lambda key, out: not kernel(key, out)):
        assert not triangles_hold(p, _bumped(n, part), p.beta.morphism)


def test_broken_cone_is_rejected():
    p = sq_pullback(0)
    f = p.f
    # cone with a wrong object image: alpha leg to A'' but iota to a category
    # whose functor misses the square
    bad = AInftyFunctor.identity(f.source)
    with pytest.raises((ConeError, Exception)):
        induce_functor(p, bad, bad)


@pytest.mark.parametrize("pick", [0, -1], ids=["first-input", "last-input"])
def test_broken_cone_names_arity_and_tuple(pick):
    p = twisted_pullback(seed=41, f_density=0.7)
    # corrupt the alpha leg of the self-cone in one input of its first
    # arity-1 table with several: G^1 is injective here, so the square
    # genuinely stops commuting, and the named entry is one where it does
    cone_l = p.alpha
    comps = {k: {it: dict(vv) for it, vv in tab.items()}
             for k, tab in cone_l.morphism.components.items()}
    table = next(t for (n, _), t in sorted(comps.items()) if n == 1 and len(t) > 1)
    in_t = sorted(table)[pick]
    out = table[in_t]
    oi = sorted(out)[0]
    out[oi] = QQ.add(out[oi], QQ.one)
    broken = FormalMorphism(cone_l.morphism.source, cone_l.morphism.target,
                            dict(cone_l.morphism.object_map), comps)
    fake = AInftyFunctor(broken, cone_l.source, cone_l.target,
                         cone_l.arity_bound, cone_l.total)
    with pytest.raises(ConeError) as exc:
        induce_functor(p, p.beta, fake)
    err = exc.value
    assert err.arity >= 1 and err.objs
    bound = p.arity_bound
    lhs = compose_formal(p.f.morphism, p.beta.morphism, bound)
    rhs = compose_formal(p.g.morphism, broken, bound)
    assert (eval_basis(lhs, err.arity, err.objs, err.in_t)
            != eval_basis(rhs, err.arity, err.objs, err.in_t))


def test_equal_targets_given_in_different_coefficients_pull_back():
    # the README F and a G whose target is the README b.acat built through
    # the API with 6 in place of 1 over F_5: build stores 6 as 1, so the
    # two targets are one category and the pullback exists
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    f = load_functor(str(golden / "f.afun")).functor
    b = f.target
    comps = {key: {it: {oi: c + 5 for oi, c in vec.items()}
                   for it, vec in table.items()}
             for key, table in b.structure.components.items()}
    b6 = AInftyCategory.build(b.quiver, comps, b.units)
    g = AInftyFunctor.identity(b6)
    p = build_pullback(f, g)
    assert p.category.objects == ("o&p",)


# -- products: pullbacks over the terminal category ------------------------------------

def test_readme_pullback_over_terminal_is_product():
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    a, b = (load_category(str(golden / n)) for n in ("a.acat", "b.acat"))
    term = terminal_category(a.fld)
    p = build_pullback(to_terminal(a, term), to_terminal(b, term))
    assert p.category.objects == ("o&p",) and p.total
    assert p.category.quiver.space("o&p", "o&p").dim == 4     # 3 + 1
    assert product_mismatches(p) == []
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_f1"].verdict == "pass"
    assert rep.sections["f_isofibration"].verdict == "pass"


@pytest.mark.parametrize("fld", [QQ, Field.prime(3), F5], ids=["Q", "F3", "F5"])
def test_pasting_lemma_pullbacks_are_isomorphic(fld):
    # P(F, G.H) and P(alpha_{F,G}, H) through the induced functors; seed 9
    # twists G and H at arity 2, and P(F, G.H) has entries of arity >= 3
    rng = random.Random(9)
    f = random_f1_functor(rng, fld, density=0.35)
    g = random_g_functor(rng, f.target)
    h = random_g_functor(rng, g.source)
    assert all(any(n == 2 for n, _ in leg.morphism.components) for leg in (g, h))
    assert pasting_mismatches(f, g, h) == []


@pytest.mark.parametrize("seed", range(6))
def test_seeded_dg_pullback_over_terminal_is_product(seed):
    rng = random.Random(seed)
    a = random_dg_category(rng, F5, 1 + seed % 2, 2)
    b = random_dg_category(rng, F5, 1, 2)
    term = terminal_category(F5)
    p = build_pullback(to_terminal(a, term), to_terminal(b, term), max_arity=3)
    assert len(p.category.objects) == len(a.objects) * len(b.objects)
    assert product_mismatches(p) == []
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_f1"].verdict == "pass"
    assert rep.sections["f_isofibration"].verdict == "pass"


# -- fibration closure ----------------------------------------------------------------

def test_sq_family_closure_over_f5():
    p = sq_pullback(5)
    rep = certify_fibration_closure(p)
    for key in ("alpha_f1", "f_isofibration", "alpha_isofibration_isofib",
                "f_quasi_equivalence", "alpha_kernel_acyclicity_ff",
                "alpha_hom_level_ff", "alpha_essential_surjectivity_exsurj",
                "alpha_acyclic_fibration"):
        assert rep.sections[key].verdict == "pass", key
    assert rep.sections["alpha_acyclic_fibration"].passed


def test_closure_with_non_acyclic_kernel_reports_witness():
    base = nilpotent_category(F5, (("e", 0),))
    ext, f = square_zero_extension(F5, base, acyclic=False)
    g = AInftyFunctor.identity(base)
    p = build_pullback(f, g)
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_f1"].passed
    assert rep.sections["f_isofibration"].passed
    # F is not a quasi-equivalence, so the acyclicity clauses are not claimed
    assert rep.sections["f_quasi_equivalence"].verdict == "fail"
    assert "alpha_acyclic_fibration" not in rep.sections
    # the kernel witness is still reachable directly
    from ainfty.core import kernel_acyclicity
    krep = kernel_acyclicity(p.alpha)
    assert krep.verdict == "fail" and krep.witnesses


def test_closure_identity_f():
    cat = sq_source(None) if False else point_category(F5)
    f = AInftyFunctor.identity(cat)
    g = AInftyFunctor.identity(cat)
    p = build_pullback(f, g)
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_acyclic_fibration"].passed


ALPHA_CLAUSE_KEYS = ("alpha_isofibration_isofib", "alpha_kernel_acyclicity_ff",
                     "alpha_hom_level_ff", "alpha_essential_surjectivity_exsurj")


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
def test_closure_computes_nothing_about_the_pullback(fld):
    # alpha's clauses are derived from F's: the closure itself, without the
    # oracle conftest.py wraps it in, builds no H0 and no cohomology of P
    f = sq_functor(fld)
    p = build_pullback(f, AInftyFunctor.identity(f.target))
    closure = inspect.unwrap(certify_fibration_closure)
    sections = closure(p, f_isolifts=unit_isolifts(f) if fld is QQ else None).sections
    assert p.category._h0 is None and p.category._coh == {}
    for key in ALPHA_CLAUSE_KEYS:
        assert sections[key].verdict == "pass", key
        assert sections[key].details["method"] == "derived", key
        assert set(sections[key].details["premises"]) <= {
            "f_isofibration", "f_quasi_equivalence"}, key


def test_rational_closure_needs_no_alpha_certificates():
    # over Q, F's certificates decide F's F2; alpha's F2 and essential
    # surjectivity follow from it, with no certificate for alpha
    f = sq_functor(QQ)
    p = build_pullback(f, AInftyFunctor.identity(f.target))
    sections = certify_fibration_closure(p, f_isolifts=unit_isolifts(f)).sections
    assert sections["f_isofibration"].verdict == "pass"
    assert sections["alpha_isofibration_isofib"].verdict == "pass"
    assert sections["alpha_essential_surjectivity_exsurj"].verdict == "pass"
    # without F's certificates F2 is undecided, and nothing is derived from it
    sections = certify_fibration_closure(p).sections
    assert sections["f_isofibration"].verdict == "undecided"
    assert not set(ALPHA_CLAUSE_KEYS) & set(sections)


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
def test_alpha_isolifts_warns_and_changes_no_verdict(fld):
    f = sq_functor(fld)
    p = build_pullback(f, AInftyFunctor.identity(f.target))
    f_lifts = unit_isolifts(f) if fld is QQ else None
    plain = certify_fibration_closure(p, f_isolifts=f_lifts).sections
    with pytest.warns(DeprecationWarning, match="ROADMAP item 23"):
        given = certify_fibration_closure(
            p, f_isolifts=f_lifts, alpha_isolifts=unit_isolifts(p.alpha)).sections
    assert given == plain


def test_multi_object_f_with_per_pair_kernels():
    # two-object source: sections and kernels are indexed per ordered pair
    rng = random.Random(55)
    base2 = nilpotent_category(QQ, (("a", -1),), n_objects=2)
    ext2, f_strict = square_zero_extension(QQ, base2, acyclic=True)
    f = twisted_functor(f_strict, rng, max_arity=2, density=0.3)
    g = twisted_functor(
        AInftyFunctor.identity(base2), rng, max_arity=2, density=0.3)
    p = build_pullback(f, g, max_arity=4)
    assert len(p.category.objects) == 2
    assert not structure_defect(p.category.structure, 4).components
    rep = induce_functor(p, p.beta, p.alpha)
    assert rep.functor.morphism == identity_formal(p.category.quiver)
    assert rep.triangles and rep.uniqueness


def test_non_injective_object_map_f():
    # F collapses two objects onto one; gamma uses the per-pair sections
    rng = random.Random(77)
    base = nilpotent_category(QQ, (("a", -1), ("b", 0)))
    f = twisted_functor(doubled_object_functor(base), rng, max_arity=2,
                        density=0.4)
    assert len(set(f.object_map.values())) < len(f.source.objects)
    assert check_F1(f).passed
    pt = point_category(QQ)
    from helpers import inclusion_functor
    g = inclusion_functor(pt, base, "o0")
    p = build_pullback(f, g, max_arity=4)
    # both copies of the collapsed object appear in the pullback
    assert len(p.category.objects) == 2
    assert not structure_defect(p.category.structure, 4).components
    rep = induce_functor(p, p.beta, p.alpha)
    assert rep.triangles and rep.uniqueness


def test_beta_lands_in_original_source():
    p = twisted_pullback(seed=43)
    f = p.f
    assert p.beta.target is f.source
    # beta is a certified functor by construction; its defect is zero
    from ainfty.core import functor_defect
    assert not functor_defect(p.beta.morphism, p.category, f.source,
                              p.arity_bound).components


@pytest.mark.parametrize("char", [0, 5])
def test_pullback_closed_form_matches_recursion(char):
    # m'' on A'' plus the kernel part of m_model . (Id_K x G) equals the
    # structure solved arity by arity, whose split-off defect vanishes
    fld = QQ if char == 0 else F5
    pairs_fg = [twisted_pair(seed, char) for seed in (1, 2, 3)]
    for seed in range(4):
        rng = random.Random(seed)
        f = random_f1_functor(rng, fld, density=0.35)
        pairs_fg.append((f, random_g_functor(rng, f.target)))
    for f, g in pairs_fg:
        for bound in range(3, 7):
            s = strictify(f, max_arity=bound)
            blocks, product, _ = build_pullback_quiver(s, g)
            args = (blocks, product, s.transported.structure, g, bound)
            assert (build_pullback_structure(*args)
                    == pullback_structure_by_recursion(*args))


@pytest.mark.parametrize("char", [0, 5])
def test_one_step_transport_and_beta_match_two_step(char):
    # m conjugated once into model coordinates, and beta as one composite,
    # equal the two-step paths through the base quiver
    fld = QQ if char == 0 else F5
    for seed in range(4):
        rng = random.Random(seed)
        f = random_f1_functor(rng, fld, density=0.35)
        g = random_g_functor(rng, f.target)
        for bound in range(3, 7):
            p = build_pullback(f, g, max_arity=bound)
            s = p.strictification
            assert p.arity_bound == s.arity_bound == bound
            assert (s.transported.structure.components
                    == transported_structure_two_step(s, bound).components)
            assert (p.beta.morphism.components
                    == beta_two_step(p, bound).components)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_tampered_kernel_block_is_rejected(monkeypatch, arity):
    # the closed-form structure is not re-checked: m_P . m_P = 0 and beta's
    # functor equation are derived from it; the oracle that conftest.py
    # runs on every pullback recomputes m_P . m_P and rejects a wrong
    # kernel-block coefficient
    pullback = importlib.import_module("ainfty.pullback")
    f, g = twisted_pair(seed=3)
    solve = pullback.solve_pullback_arity

    def tampered(blocks, rhs, g, n):
        comps = solve(blocks, rhs, g, n)
        if n != arity:
            return comps

        def kernel_block(key, out):
            return out < blocks.kdims[(key[1][0], key[1][-1])]

        return bump_coefficient(g.source.fld, comps, n, kernel_block)

    monkeypatch.setattr(pullback, "solve_pullback_arity", tampered)
    # the construction itself, without the oracle conftest.py wraps it in
    p = inspect.unwrap(pullback.build_pullback)(f, g, max_arity=3)
    assert not pullback_squares_to_zero(p)


def _coefficients(obj):
    """Every scalar stored in a category, functor or family."""
    if isinstance(obj, AInftyCategory):
        yield from _coefficients(obj.structure)
        for vec in (obj.units or {}).values():
            yield from vec.values()
    elif isinstance(obj, AInftyFunctor):
        yield from _coefficients(obj.morphism)
    else:
        for table in obj.components.values():
            for vec in table.values():
                yield from vec.values()


def test_readme_example_over_q_has_no_float_coefficients(tmp_path):
    # integral rationals are ints and the rest Fractions; an int reaching a
    # true division makes a float, which an identity check can miss
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    for name in ("a.acat", "b.acat", "f.afun", "g.afun"):
        text = (golden / name).read_text()
        (tmp_path / name).write_text(
            text.replace("field Fp 5", "field Q").replace(" t 4\n", " t -1\n"))
    f = load_functor(str(tmp_path / "f.afun")).functor
    g = load_functor(str(tmp_path / "g.afun")).functor
    assert f.source.fld == Field.rationals()
    s = strictify(f)
    p = build_pullback(f, g)
    induced = induce_functor(p, p.beta, p.alpha).functor
    results = [s.transported, s.projection,
               s.phi_functor, s.psi_functor, s.model.decompose,
               s.model.recompose, p.category, p.alpha, p.beta,
               p.product_morphism, induced]
    seen = 0
    for obj in results:
        for c in _coefficients(obj):
            assert type(c) in (int, Fraction), (obj, c)
            seen += 1
    assert seen


def _count_calls(monkeypatch, name, when=lambda: True):
    """Count calls of ainfty.quiver.<name> through every module that binds
    it, the quiver module's own callers included."""
    quiver = importlib.import_module("ainfty.quiver")
    fn = getattr(quiver, name)
    calls = []

    def counted(*args, **kwargs):
        if when():
            calls.append(args)
        return fn(*args, **kwargs)
    for mod in ("ainfty.quiver", "ainfty.core", "ainfty.pullback", "ainfty.strictify"):
        mod = importlib.import_module(mod)
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _while_in(monkeypatch, module, name):
    """A list that is nonempty exactly while <module>.<name> runs."""
    mod = importlib.import_module(module)
    fn = getattr(mod, name)
    inside = []

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return fn(*args, **kwargs)
        finally:
            inside.pop()
    monkeypatch.setattr(mod, name, traced)
    return inside


def test_readme_engine_call_counts(monkeypatch):
    # m . m keeps m's own endpoints, and a functor defect is one sum whose
    # endpoints are F: neither forms a composite
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    f = load_functor(str(golden / "f.afun")).functor
    g = load_functor(str(golden / "g.afun")).functor
    bound = f.source.arity_bound
    composed = _count_calls(monkeypatch, "compose_formal")
    structure_defect(f.source.structure, bound)
    assert len(composed) == 0
    functor_defect(f.morphism, f.source, f.target, bound)
    assert len(composed) == 0

    # the builders' certification (m.m, functor equations) is counted apart,
    # and each build is logged
    certifying = []
    builds = []
    for cls in (AInftyCategory, AInftyFunctor):
        def certified(*args, _build=cls.build, _name=cls.__name__, **kwargs):
            builds.append(_name)
            certifying.append(True)
            try:
                return _build(*args, **kwargs)
            finally:
                certifying.pop()
        monkeypatch.setattr(cls, "build", staticmethod(certified))

    # the pullback structure and the transported structure are closed
    # forms: one right-hand side, and one conjugation (phi . m) . psi summed
    # by the engine itself, with no r_compose
    engine = {}
    inside_of = {}
    for module, name in (("ainfty.pullback", "build_pullback_structure"),
                         ("ainfty.strictify", "transport_structure"),
                         ("ainfty.pullback", "strictify")):
        inside = inside_of[name] = _while_in(monkeypatch, module, name)
        for op in ("r_compose", "l_compose"):
            engine[(name, op)] = _count_calls(
                monkeypatch, op,
                when=lambda inside=inside: bool(inside) and not certifying)
    # outside strictify, the structure and certification, build_pullback
    # composes once, for beta; the square F.beta = G.alpha is derived
    composed = _count_calls(
        monkeypatch, "compose_formal",
        when=lambda: not (certifying or inside_of["strictify"]
                          or inside_of["build_pullback_structure"]))
    # strictify composes only in model coordinates, solving psi up to F's
    # widest arity times psi's, never for the README's strict F (psi^1
    # alone: test_psi_recursion_stops_where_the_words_stop counts a twisted
    # F); psi . phi = Id and projection . phi = F are derived; the transport
    # sums (phi . m) . psi under the model's identity and forms no endpoint
    # composite; no decompose/recompose operand
    strictify_composed = _count_calls(
        monkeypatch, "compose_formal",
        when=lambda: bool(inside_of["strictify"]) and not certifying)
    p = build_pullback(f, g)
    assert p.arity_bound > 1
    strict = p.strictification
    assert max(n for n, _ in f.morphism.components) == 1
    assert len(strictify_composed) == 0
    assert not any(arg is strict.model.decompose or arg is strict.model.recompose
                   for args in strictify_composed for arg in args)
    assert {key: len(calls) for key, calls in engine.items()} == {
        ("build_pullback_structure", "r_compose"): 1,
        ("build_pullback_structure", "l_compose"): 0,
        ("transport_structure", "r_compose"): 0,
        ("transport_structure", "l_compose"): 0,
        # strictify transports once, straight into model coordinates
        ("strictify", "r_compose"): 0,
        ("strictify", "l_compose"): 0,
    }
    # beta is one composite, psi_functor . product
    assert len(composed) == 1
    assert composed[0][1] is p.product_morphism
    # strictify derives phi's functor equation and the rest; build_pullback
    # derives m_P . m_P = 0, alpha and beta: neither calls a builder
    assert builds == []

    # composites and identities are derived from their operands' equations
    builds.clear()
    p.f.compose(p.beta)
    p.alpha.compose(AInftyFunctor.identity(p.category))
    assert builds == []

    # induce_functor composes three times and certifies nothing: the two
    # sides of the cone and phi . cone_i; N is derived, and the triangles
    # and uniqueness take no composite
    induced = _count_calls(monkeypatch, "compose_formal")
    rep = induce_functor(p, p.beta, p.alpha)
    assert len(induced) == 3 and builds == []
    assert rep.triangles and rep.uniqueness
    assert _alpha_triangle(p, rep, p.alpha)


def test_unreduced_units_keep_strict_unitality():
    # build stores units canonical: README's b.acat built with the unit 6
    # in place of 1 over F_5 is the same category, so F into it stays
    # strictly unital, the pullback keeps its units and the fibration
    # closure is decided; an explicit zero in a unit over Q is dropped too
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    f = load_functor(str(golden / "f.afun")).functor
    b = f.target
    b6 = AInftyCategory.build(b.quiver, b.structure.components, {"p": {0: 6}})
    assert b6.units == b.units
    f6 = AInftyFunctor.build(f.morphism, f.source, b6)
    assert f6.strictly_unital
    p = build_pullback(f6, AInftyFunctor.identity(b6))
    assert p.category.units is not None
    closure = certify_fibration_closure(p).sections
    assert closure["f_isofibration"].verdict == "pass"
    cat = idempotent_category(QQ)
    zero = AInftyCategory.build(cat.quiver, cat.structure.components,
                                {"o": {0: QQ.one, 1: QQ.zero}})
    assert zero.units == cat.units
    assert AInftyFunctor.build(identity_formal(cat.quiver), cat, zero).strictly_unital


def test_readme_pullback_admits_nothing_twice(monkeypatch):
    # `build` is the one admission step: the README pullback validates no
    # family, in strictify or anywhere else, and sums no m . m, m_P . m_P
    # = 0 being derived; a premise certified past its bound is not
    # validated either
    golden = pathlib.Path(__file__).parent / "golden" / "readme"
    f = load_functor(str(golden / "f.afun")).functor
    g = load_functor(str(golden / "g.afun")).functor
    src = f.source
    short = AInftyCategory.build(src.quiver, src.structure.components,
                                 src.units, max_arity=2)
    assert not short.total
    quiver = importlib.import_module("ainfty.quiver")
    core = importlib.import_module("ainfty.core")
    validate, certify = quiver._validate_family, core._certify_structure
    validated, certified = [], []
    monkeypatch.setattr(quiver, "_validate_family",
                        lambda fam, *args: validated.append(fam)
                        or validate(fam, *args))
    monkeypatch.setattr(core, "_certify_structure",
                        lambda m, n: certified.append(m) or certify(m, n))
    # the construction itself: the oracles conftest.py runs on its result
    # validate m_P on purpose
    inspect.unwrap(build_pullback)(f, g)
    assert validated == [] and certified == []
    core.certify_premise(short, 3)
    assert validated == [] and certified == [short.structure]


def test_pullback_leaves_no_garbage_cycles():
    # after a warm-up, the constructions leave nothing that only the cyclic
    # garbage collector could free, so peak memory does not follow its
    # schedule
    rng = random.Random(1)
    f = random_f1_functor(rng, F5)
    g = random_g_functor(rng, f.target)
    p = build_pullback(f, g, max_arity=4)
    left = {
        "build_pullback": cyclic_garbage(lambda: build_pullback(f, g, max_arity=4)),
        "strictify": cyclic_garbage(lambda: strictify(f, 4)),
        "induce_functor": cyclic_garbage(lambda: induce_functor(p, p.beta, p.alpha)),
    }
    assert left == {"build_pullback": 0, "strictify": 0, "induce_functor": 0}


# -- derived functors and their premises -------------------------------------------

G_KINDS = {
    "identity": AInftyFunctor.identity,
    "point": lambda base: inclusion_functor(point_category(base.fld), base, "o0"),
    "doubled": doubled_object_functor,
}


def _diffeo_cone(p, rng):
    """((beta . t, alpha . t), t) for t: C -> P the inverse of a formal
    diffeomorphism u of P with arity-2 terms, C the structure twisted along
    u; the cone induces N = t, which is not strict."""
    u = random_diffeo(rng, p.category.quiver, max_arity=2, density=0.5,
                      unital_for=p.category.units)
    c_cat = twist_structure(p.category, u, p.arity_bound)
    t = AInftyFunctor.build(formal_inverse(u, p.arity_bound), c_cat,
                            p.category, max_arity=p.arity_bound)
    return (p.beta.compose(t), p.alpha.compose(t)), t


@pytest.mark.parametrize("twist_f", [False, True], ids=["strict-F", "twisted-F"])
@pytest.mark.parametrize("fld", [QQ, Field.prime(2), Field.prime(3), F5],
                         ids=["Q", "F2", "F3", "F5"])
def test_derived_functors_are_functors(fld, twist_f):
    # the oracle the derivations replace: alpha, beta, the product morphism
    # P -> (model, m_model) and N have zero functor defect up to the bound,
    # for strict and twisted F and G, G the identity, a point inclusion or a
    # doubled collapse, and N induced by the self-cone and by a cone through
    # a non-strict diffeomorphism; N's kernel part bumped at arity 2 is
    # flagged (bump_coefficient raises if N has no such coefficient)
    for kind, twist_g in itertools.product(G_KINDS, (False, True)):
        rng = random.Random(f"{kind}-{twist_g}-{twist_f}")
        base = nilpotent_category(fld, (("a", -1), ("b", 0)))
        _, f = square_zero_extension(fld, base, acyclic=True)
        if twist_f:
            f = twisted_functor(f, rng, max_arity=2, density=0.5)
        g = G_KINDS[kind](base)
        if twist_g:
            g = twisted_functor(g, rng, max_arity=2, density=0.5)
        p = build_pullback(f, g, max_arity=4)
        bound = p.arity_bound
        cone, t = _diffeo_cone(p, rng)
        n = induce_functor(p, *cone).functor
        assert any(k >= 2 for k, _ in n.morphism.components)
        # equal over F_2 too: build drops the zeros random_diffeo writes there
        assert n.morphism == t.morphism, kind
        values = [(v.morphism, v.source, v.target) for v in
                  (p.alpha, p.beta, n, induce_functor(p, p.beta, p.alpha).functor)]
        values.append((p.product_morphism, p.category, p.strictification.transported))
        for morphism, source, target in values:
            assert not functor_defect(morphism, source, target, bound).components, kind

        omap = n.object_map

        def kernel_block(key, out):
            return out < p.blocks.kdims[(omap[key[1][0]], omap[key[1][-1]])]

        mutant = dataclasses.replace(n.morphism, components=bump_coefficient(
            fld, n.morphism.components, 2, kernel_block))
        assert functor_defect(mutant, n.source, p.category, bound).components


def test_certified_premises_cost_no_functor_defect(monkeypatch):
    # with G and both legs certified to the bound, neither build_pullback
    # (strictify derives phi) nor induce_functor runs a functor defect
    f, g = twisted_pair(seed=3)
    assert g.total or g.arity_bound >= 4
    p0 = build_pullback(f, g, max_arity=4)
    (cone_i, cone_l), _ = _diffeo_cone(p0, random.Random(5))
    core = importlib.import_module("ainfty.core")
    defect = core.functor_defect
    calls = []
    monkeypatch.setattr(core, "functor_defect",
                        lambda morphism, *args: calls.append(morphism)
                        or defect(morphism, *args))
    build_pullback(f, g, max_arity=4)
    assert calls == []
    induce_functor(p0, p0.beta, p0.alpha)
    induce_functor(p0, cone_i, cone_l)
    assert calls == []


def test_short_g_is_certified_to_the_bound():
    # G's equation up to the bound is the premise of the derived beta; a G
    # certified to arity 2 only is refused with its own witness
    g = short_f2_functor(units=False)
    assert g.arity_bound == 2 and not g.total
    witness = functor_defect(g.morphism, g.source, g.target, 4).first_nonzero()
    assert witness == (3, ("o0",) * 4, (1, 0, 0))
    with pytest.raises(FunctorDefectError) as exc:
        build_pullback(AInftyFunctor.identity(g.target), g)
    assert exc.value.witness == witness


@pytest.mark.parametrize("leg", ["cone_i", "cone_l"])
def test_short_cone_leg_is_certified_to_the_bound(leg):
    # each leg's equation up to the bound is a premise of the derived N; a
    # leg certified to arity 2 only is refused with its own witness, before
    # the cone check (which the other, identity leg would fail)
    short = short_f2_functor(units=False)
    ident = AInftyFunctor.identity(short.source)
    p = build_pullback(ident, ident)
    assert p.arity_bound >= 3
    legs = {"cone_i": ident, "cone_l": ident, leg: short}
    with pytest.raises(FunctorDefectError) as exc:
        induce_functor(p, legs["cone_i"], legs["cone_l"])
    assert exc.value.witness == functor_defect(
        short.morphism, short.source, short.target, p.arity_bound).first_nonzero()


@pytest.mark.parametrize("where", ["g-target", "leg-sources"])
def test_categories_must_match_in_structure(monkeypatch, where):
    # one quiver with two structures: G's target against F's, and the two
    # legs' sources, are refused before any engine call
    f, g = twisted_pair(seed=3)
    p = build_pullback(f, g, max_arity=4)
    if where == "g-target":
        # F's target with the differential a -> b
        cat = f.target
        other = nilpotent_category(QQ, (("a", -1), ("b", 0)), d_of={"a": "b"})
        run = lambda: build_pullback(f, AInftyFunctor.identity(other))
    else:
        # P twisted along a diffeomorphism with arity-2 terms
        cat = p.category
        u = random_diffeo(random.Random(11), cat.quiver, max_arity=2,
                          density=0.5, unital_for=cat.units)
        other = twist_structure(cat, u, p.arity_bound)
        run = lambda: induce_functor(
            p, dataclasses.replace(p.beta, source=other), p.alpha)
    assert other.quiver == cat.quiver and other.structure != cat.structure

    def no_engine(*args):
        raise AssertionError("engine called")
    # every block sweep inverts its families and every double sum runs
    # _add_double_sum, whichever entry point (composite, defect) they serve
    for name in ("_expand", "_invert", "_add_double_sum"):
        monkeypatch.setattr(importlib.import_module("ainfty.quiver"), name,
                            no_engine)
    with pytest.raises(AInftyError, match="must share their"):
        run()
