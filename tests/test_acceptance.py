"""Acceptance suite: one test per criterion, exact arithmetic, no tolerances.

Each test prints a single PASS line on success (run with -s to see them all);
a failure shows up as an ordinary assertion error naming the criterion.
"""
from __future__ import annotations

import random
import sys

from ainfty.fields import Field
from ainfty.linear import vec_add, vec_scale
from ainfty.quiver import (
    compose_formal,
    compose_prenatural,
    eval_multilinear,
    identity_formal,
    l_compose,
    r_compose,
)
from ainfty.core import (
    AInftyFunctor,
    check_strict_units,
    kernel_acyclicity,
    structure_defect,
)
from ainfty.strictify import strictify, transport_structure
from ainfty.pullback import build_pullback, certify_fibration_closure, induce_functor
from ainfty.documents import (
    parse_category,
    parse_functor,
    serialize_category,
    serialize_functor,
)

from helpers import (
    double_sum_defect,
    doubled_object_functor,
    engine_defect_map,
    eval_basis,
    f1_strict,
    formal_inverse,
    inclusion_functor,
    nilpotent_category,
    outer_after_insertion,
    perturb_structure,
    point_category,
    random_dg_category,
    random_diffeo,
    random_f1_functor,
    random_flat_prenatural,
    random_formal_morphism,
    random_g_functor,
    sq_functor,
    square_zero_extension,
    strictification_base_phi_psi,
    twist_structure,
    twisted_functor,
    unit_isolifts,
)

QQ = Field.rationals()
F5 = Field.prime(5)


def _ok(line: str) -> None:
    print(line, file=sys.stderr)


def _small_quiver(rng, fld=QQ, n_objects=1, max_dim=3):
    from ainfty.linear import GradedSpace
    from ainfty.quiver import GradedQuiver
    objects = tuple(f"x{i}" for i in range(n_objects))
    hom = {}
    for a in objects:
        for b in objects:
            dim = rng.randint(1, max_dim)
            hom[(a, b)] = GradedSpace(
                tuple((f"{a}{b}{i}", rng.randint(-2, 2)) for i in range(dim)))
    return GradedQuiver(fld, objects, hom)


def _valid_category(rng, fld):
    kind = rng.randrange(4)
    if kind == 0:
        return random_dg_category(rng, fld, n_objects=1, max_dim=2)
    if kind == 1:
        gens = rng.choice(((("a", -1),), (("a", -1), ("b", 0))))
        d_of = {"a": "b"} if len(gens) == 2 and rng.random() < 0.5 else {}
        return nilpotent_category(fld, gens, d_of=d_of)
    if kind == 2:
        base = nilpotent_category(fld, (("a", -1),))
        return square_zero_extension(fld, base, acyclic=bool(rng.random() < 0.5))[0]
    base = nilpotent_category(fld, (("a", -1), ("b", 0)))
    u = random_diffeo(rng, base.quiver, max_arity=2, density=0.3,
                      unital_for=base.units)
    return twist_structure(base, u, 4)


def test_criterion_1_structure_oracle():
    """200 candidates: defect vanishes exactly iff unperturbed."""
    from ainfty.quiver import Prenatural
    rng = random.Random(101)
    for _ in range(100):
        fld = QQ if rng.random() < 0.5 else F5
        cat = _valid_category(rng, fld)
        defect = structure_defect(cat.structure, 5)
        assert not defect.components, "valid candidate has nonzero defect"
    n_perturbed = 0
    while n_perturbed < 100:
        fld = QQ if rng.random() < 0.5 else F5
        cat = _valid_category(rng, fld)
        comps = perturb_structure(rng, cat, max_arity=3)
        if comps is None:
            continue
        ident = identity_formal(cat.quiver)
        cand = Prenatural(ident, ident, 2, comps)
        defect = compose_prenatural(cand, cand, 5)
        if not defect.components:
            continue                # perturbation invisible at this bound
        assert defect.first_nonzero() is not None
        n_perturbed += 1
    _ok("ACCEPTANCE 01 structure-oracle: PASS (100 valid + 100 perturbed)")


def test_criterion_2_sign_anchor():
    """compose_prenatural defect == explicit double sum, arities <= 5."""
    rng = random.Random(202)
    for trial in range(50):
        q = _small_quiver(rng, QQ if trial % 2 else F5,
                          n_objects=rng.randint(1, 2), max_dim=3)
        m = random_flat_prenatural(rng, q, degree=2, max_arity=3)
        engine = engine_defect_map(compose_prenatural(m, m, 5))
        dense = double_sum_defect(q, m, 5)
        assert engine == dense, f"sign anchor trial {trial}"
    _ok("ACCEPTANCE 02 sign-anchor: PASS (50 structures, arities <= 5)")


def test_criterion_3_operator_laws():
    """Proposition laws 1-5 on 50 random composable triples."""
    rng = random.Random(303)
    bound = 4
    for trial in range(50):
        fld = QQ if trial % 2 else F5
        qa = _small_quiver(rng, fld, max_dim=2)
        qb = _small_quiver(rng, fld, max_dim=2)
        qc = _small_quiver(rng, fld, max_dim=2)
        f = random_formal_morphism(rng, qa, qb, max_arity=2)
        g = random_formal_morphism(rng, qb, qc, max_arity=2)
        da = random_flat_prenatural(rng, qa, degree=2, max_arity=2)
        db = random_flat_prenatural(rng, qb, degree=2, max_arity=2)
        dc = random_flat_prenatural(rng, qc, degree=2, max_arity=2)
        # 1. L_f(d o d) = L_f(d) o d (odd bar degree)
        assert l_compose(f, compose_prenatural(da, da, bound), bound) == \
            compose_prenatural(l_compose(f, da, bound), da, bound)
        # 2. R_f(d o d) = d o R_f(d); R_f(d) lies between f and f, so the
        # insertions between non-identities (2, 4, 5) take the word oracle
        assert r_compose(f, compose_prenatural(db, db, bound), bound).components \
            == outer_after_insertion(db, qa, r_compose(f, db, bound), bound)
        # 3. R_f R_g = R_{g.f}
        assert r_compose(f, r_compose(g, dc, bound), bound) == \
            r_compose(compose_formal(g, f, bound), dc, bound)
        # 4. L_g L_f = L_{g.f}
        assert outer_after_insertion(g, qa, l_compose(f, da, bound), bound) == \
            l_compose(compose_formal(g, f, bound), da, bound).components
        # 5. L_g R_f = R_f L_g
        assert outer_after_insertion(g, qa, r_compose(f, db, bound), bound) == \
            r_compose(f, l_compose(g, db, bound), bound).components
    _ok("ACCEPTANCE 03 operator-laws: PASS (laws 1-5 on 50 triples)")


def test_criterion_4_strictification():
    """30 F1 functors with F^2 != 0: inverses, diagram, transport, display."""
    rng = random.Random(404)
    for trial in range(30):
        fld = QQ if trial % 2 else F5
        f = random_f1_functor(rng, fld, density=0.4)
        s = strictify(f, max_arity=6)
        ident = identity_formal(f.source.quiver)
        phi, psi = strictification_base_phi_psi(s, 6)
        assert compose_formal(phi, psi, 6) == ident
        assert compose_formal(psi, phi, 6) == ident
        assert compose_formal(f1_strict(f), phi, 6) == f.morphism
        assert l_compose(phi, f.source.structure, 6) == \
            r_compose(phi, transport_structure(s.model, phi, psi, 6), 6)
        # the split-off component law: pr^1 of m_model is the target structure
        pr = s.projection.morphism
        tgt = f.target
        for (n, objs), table in s.transported.structure.components.items():
            fobjs = tuple(f.object_map[x] for x in objs)
            for in_t, vec in table.items():
                lhs = eval_multilinear(pr, 1, (objs[0], objs[-1]), [vec])
                imgs = [eval_basis(pr, 1, (objs[n - 1 - i], objs[n - i]), (b,))
                        for i, b in enumerate(in_t)]
                assert lhs == eval_multilinear(tgt.structure, n, fobjs, imgs)
    _ok("ACCEPTANCE 04 strictification: PASS (30 functors, arity 6)")


def test_criterion_5_structure_recursion():
    """30 pullbacks: recursion completes, equations and defect vanish <= 6."""
    rng = random.Random(505)
    for trial in range(30):
        fld = QQ if trial % 2 else F5
        f = random_f1_functor(rng, fld, density=0.35)
        g = random_g_functor(rng, f.target)
        p = build_pullback(f, g, max_arity=6)
        bound = 6
        m_s = p.strictification.transported.structure
        eq1 = l_compose(p.product_morphism, p.category.structure, bound).sub(
            r_compose(p.product_morphism, m_s, bound))
        assert not eq1.components, "equation (product morphism) violated"
        eq2 = l_compose(p.alpha.morphism, p.category.structure, bound).sub(
            r_compose(p.alpha.morphism, g.source.structure, bound))
        assert not eq2.components, "equation (projection) violated"
        assert not structure_defect(p.category.structure, bound).components
        # arity-1 closed form on every basis element
        for pname in p.category.objects:
            x, y = p.object_pairs[pname]
            sp = p.category.quiver.space(pname, pname)
            kdim = p.strictification.model.splits[(x, x)].kernel.dim
            for i in range(sp.dim):
                got = eval_basis(p.category.structure, 1, (pname, pname), (i,))
                img = eval_basis(p.product_morphism, 1, (pname, pname), (i,))
                model_out = eval_multilinear(m_s, 1, (x, x), [img])
                want = {k: c for k, c in model_out.items() if k < kdim}
                if i >= kdim:
                    for oi, c in eval_basis(g.source.structure, 1, (y, y),
                                            (i - kdim,)).items():
                        want[kdim + oi] = c
                assert got == want
    _ok("ACCEPTANCE 05 theorem-2-recursion: PASS (30 pullbacks, arity 6)")


def test_criterion_6_strict_dg_oracle():
    """Strict DG inputs: pullback equals the componentwise fiber product."""
    rng = random.Random(606)
    for trial in range(8):
        fld = QQ if trial % 2 else F5
        gens = rng.choice(((("a", -1),), (("a", -1), ("b", 0))))
        d_of = {"a": "b"} if len(gens) == 2 and rng.random() < 0.5 else {}
        base = nilpotent_category(fld, gens, d_of=d_of)
        ext, f = square_zero_extension(fld, base, acyclic=True)
        g = [AInftyFunctor.identity(base), doubled_object_functor(base),
             inclusion_functor(point_category(fld), base, base.objects[0])
             ][trial % 3]
        p = build_pullback(f, g)
        s = p.strictification

        def iso(pair, vec):
            x1, _ = p.object_pairs[pair[0]]
            x2, _ = p.object_pairs[pair[1]]
            split = s.model.splits[(x1, x2)]
            kdim = split.kernel.dim
            apart, cpart = {}, {}
            for i, c in vec.items():
                if i < kdim:
                    apart = vec_add(fld, apart,
                                    vec_scale(fld, c, split.include.column(i)))
                else:
                    cpart[i - kdim] = c
            y1 = p.object_pairs[pair[0]][1]
            y2 = p.object_pairs[pair[1]][1]
            g1 = eval_multilinear(g.morphism, 1, (y1, y2), [cpart]) \
                if cpart else {}
            return vec_add(fld, apart, split.section.apply(g1)), cpart

        mA, mC = f.source.structure, g.source.structure
        for p1 in p.category.objects:
            for p2 in p.category.objects:
                x1, y1 = p.object_pairs[p1]
                x2, y2 = p.object_pairs[p2]
                sp = p.category.quiver.space(p1, p2)
                for i in range(sp.dim):
                    va, vc = iso((p1, p2), {i: fld.one})
                    fa = eval_multilinear(f.morphism, 1, (x1, x2), [va])
                    gc = eval_multilinear(g.morphism, 1, (y1, y2), [vc])
                    assert fa == gc, "image violates the fiber condition"
                    out = eval_basis(p.category.structure, 1, (p1, p2), (i,))
                    oa, oc = iso((p1, p2), out)
                    assert oa == eval_multilinear(mA, 1, (x1, x2), [va])
                    assert oc == eval_multilinear(mC, 1, (y1, y2), [vc])
                for p0 in p.category.objects:
                    x0, y0 = p.object_pairs[p0]
                    sp1 = p.category.quiver.space(p0, p1)
                    for i in range(sp.dim):
                        va, vc = iso((p1, p2), {i: fld.one})
                        for j in range(sp1.dim):
                            wa, wc = iso((p0, p1), {j: fld.one})
                            out2 = eval_basis(p.category.structure, 2,
                                              (p0, p1, p2), (i, j))
                            oa2, oc2 = iso((p0, p2), out2)
                            assert oa2 == eval_multilinear(
                                mA, 2, (x0, x1, x2), [va, wa])
                            assert oc2 == eval_multilinear(
                                mC, 2, (y0, y1, y2), [vc, wc])
    _ok("ACCEPTANCE 06 strict-dg-oracle: PASS (8 componentwise comparisons)")


def test_criterion_7_universal_property():
    """20 cones: induced functor is A-infinity, triangles exact, unique."""
    rng = random.Random(707)
    pulls = []
    for trial in range(5):
        fld = QQ if trial % 2 else F5
        f = random_f1_functor(rng, fld, density=0.35)
        g = random_g_functor(rng, f.target)
        pulls.append(build_pullback(f, g, max_arity=4))
    n_cones = 0
    for k, p in enumerate(pulls):
        rep = induce_functor(p, p.beta, p.alpha)   # the self-cone
        assert rep.functor.morphism == identity_formal(p.category.quiver)
        assert rep.triangles and rep.uniqueness
        # alpha . N = cone_l holds by construction and is not in triangles
        assert compose_formal(p.alpha.morphism, rep.functor.morphism,
                              p.arity_bound) == p.alpha.morphism
        n_cones += 1
        for j in range(3):
            u = random_diffeo(rng, p.category.quiver, max_arity=2,
                              density=0.35, unital_for=p.category.units)
            c_cat = twist_structure(p.category, u, p.arity_bound)
            v = formal_inverse(u, p.arity_bound)
            t = AInftyFunctor.build(v, c_cat, p.category,
                                    max_arity=p.arity_bound)
            cone_l = p.alpha.compose(t)
            rep = induce_functor(p, p.beta.compose(t), cone_l)
            assert rep.triangles and rep.uniqueness
            assert compose_formal(p.alpha.morphism, rep.functor.morphism,
                                  p.arity_bound) == cone_l.morphism
            assert rep.functor.morphism == t.morphism
            n_cones += 1
    assert n_cones == 20
    _ok("ACCEPTANCE 07 universal-property: PASS (20 cones incl. self-cones)")


def _sq_family_member(fld, variant):
    if variant == "sq-id":
        f = sq_functor(fld)
        g = AInftyFunctor.identity(f.target)
    elif variant == "sq-incl":
        f = sq_functor(fld)
        g = inclusion_functor(point_category(fld), f.target, "p")
    else:
        base = nilpotent_category(fld, (("e", 0), ("s", -1)), d_of={"s": "e"})
        ext, f = square_zero_extension(fld, base, acyclic=True)
        g = AInftyFunctor.identity(base)
    return f, g


def test_criterion_8_fibration_closure():
    """SQ family over F5 plus two rational variants with certificates."""
    for variant in ("sq-id", "sq-incl", "ext-id"):
        f, g = _sq_family_member(F5, variant)
        p = build_pullback(f, g)
        rep = certify_fibration_closure(p)
        for key in ("alpha_f1", "f_isofibration", "alpha_isofibration_isofib",
                    "f_quasi_equivalence", "alpha_kernel_acyclicity_ff",
                    "alpha_hom_level_ff",
                    "alpha_essential_surjectivity_exsurj",
                    "alpha_acyclic_fibration"):
            assert rep.sections[key].verdict == "pass", (variant, key)
    # the rational variants need F certificates for the isomorphism searches;
    # alpha's clauses are derived from F's
    for variant in ("sq-id", "ext-id"):
        f, g = _sq_family_member(QQ, variant)
        p = build_pullback(f, g)
        rep = certify_fibration_closure(p, f_isolifts=unit_isolifts(p.f))
        assert rep.sections["alpha_f1"].passed, variant
        assert rep.sections["f_isofibration"].passed, variant
        assert rep.sections["alpha_isofibration_isofib"].passed, variant
        assert rep.sections["alpha_kernel_acyclicity_ff"].passed, variant
        assert rep.sections["alpha_hom_level_ff"].passed, variant
        assert rep.sections["alpha_essential_surjectivity_exsurj"].passed
        assert rep.sections["alpha_acyclic_fibration"].passed, variant
    # a non-acyclic kernel downgrades the report and carries a witness
    base = nilpotent_category(F5, (("e", 0),))
    ext, f = square_zero_extension(F5, base, acyclic=False)
    p = build_pullback(f, AInftyFunctor.identity(base))
    rep = certify_fibration_closure(p)
    assert rep.sections["alpha_f1"].passed
    assert rep.sections["f_quasi_equivalence"].verdict == "fail"
    assert kernel_acyclicity(p.alpha).verdict == "fail"
    _ok("ACCEPTANCE 08 fibration-closure: PASS (3x F5, 2x Q with certificates)")


def test_criterion_9_unit_closure():
    """10 strictly unital instances: pullback units and functor units hold."""
    rng = random.Random(909)
    for trial in range(10):
        fld = QQ if trial % 2 else F5
        f = random_f1_functor(rng, fld, density=0.3)
        g = random_g_functor(rng, f.target)
        assert f.strictly_unital and g.strictly_unital
        p = build_pullback(f, g, max_arity=4)
        assert p.category.units is not None
        assert check_strict_units(p.category).passed
        assert p.alpha.strictly_unital
        product_functor = AInftyFunctor.build(
            p.product_morphism, p.category,
            p.strictification.transported, max_arity=4)
        assert product_functor.strictly_unital
    _ok("ACCEPTANCE 09 unit-closure: PASS (10 unital instances)")


def test_criterion_10_serialization():
    """100 documents round-trip byte-identically."""
    rng = random.Random(1010)
    n_docs = 0
    while n_docs < 100:
        fld = QQ if rng.random() < 0.5 else F5
        cat = _valid_category(rng, fld)
        text = serialize_category(cat)
        again = parse_category(text, "roundtrip.acat")
        assert serialize_category(again) == text
        assert again.structure == cat.structure
        n_docs += 1
        if n_docs < 100 and rng.random() < 0.4:
            base = nilpotent_category(fld, (("a", -1),))
            ext, fs = square_zero_extension(fld, base, acyclic=True)
            f = twisted_functor(fs, rng, max_arity=2, density=0.4)
            ftext = serialize_functor(f, "src.acat", "tgt.acat")
            import os, tempfile
            with tempfile.TemporaryDirectory() as d:
                with open(os.path.join(d, "src.acat"), "w") as fh:
                    fh.write(serialize_category(f.source))
                with open(os.path.join(d, "tgt.acat"), "w") as fh:
                    fh.write(serialize_category(f.target))
                fpath = os.path.join(d, "f.afun")
                with open(fpath, "w") as fh:
                    fh.write(ftext)
                doc = parse_functor(ftext, fpath)
            assert serialize_functor(doc.functor, doc.source_path,
                                     doc.target_path) == ftext
            n_docs += 1
    _ok("ACCEPTANCE 10 serialization: PASS (100 byte-identical round trips)")
