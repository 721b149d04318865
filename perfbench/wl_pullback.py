"""pullback-pipeline: the arity-by-arity recursions, F1 splitting and the
fibration classifiers.

One job is one (F, G) instance.  F is the projection of a square-zero
extension A of a nilpotent category A' onto A' (acyclic or not), possibly
twisted; G is the identity of A', a point inclusion or a doubled collapse,
possibly twisted.  The job runs

1. build_pullback(F, G), which strictifies F;
2. certify_fibration_closure, by enumeration over F5 and with unit
   certificates over Q;
3. induce_functor on the self-cone (beta, alpha);
4. induce_functor on the cone (beta . t, alpha . t), where t = u^-1 and u
   is a formal diffeomorphism of the pullback quiver built during set-up
   from the inputs alone (the cone's source is the pullback transported
   along u).

The instance list is fixed; the seed draws the twists' coefficients, the
point an inclusion picks and the cone's diffeomorphism.
"""
from __future__ import annotations

import random

from ainfty import core, pullback

import gen
import oracle
from jobs import Job

BASES = {
    "a": ((("a", -1),), {}, 1),
    "ab": ((("a", -1), ("b", 0)), {"a": "b"}, 1),
    "2a": ((("a", -1),), {}, 2),
}

# (base, G, twist F, twist G, arity bound), run over Q and F5, acyclic or not
INSTANCES = (
    ("a", "id", False, False, 4),
    ("a", "incl", False, False, 5),
    ("a", "doubled", False, False, 4),
    ("ab", "id", False, False, 5),
    ("2a", "id", False, False, 4),
    ("2a", "incl", False, False, 6),
    ("a", "id", True, False, 6),
    ("a", "doubled", True, True, 5),
    ("ab", "incl", True, False, 4),
    ("ab", "doubled", False, True, 6),
    ("2a", "id", True, True, 5),
    ("a", "id", False, True, 6),
)
FIELDS = ("Q", "F5")
TWIST_TERMS = 2
CONE_TERMS = 2


def make_instance(rng, fname, acyclic, spec):
    bkey, gkind, twist_f, twist_g, bound = spec
    f = gen.extension_projection(gen.field_named(fname), *BASES[bkey], acyclic)
    g = gen.g_functor(gkind, f.target, rng)
    tag = f"{bkey}:{gkind}:{acyclic}"
    if twist_f:
        f = gen.twist_functor(f, rng, TWIST_TERMS, f"F:{tag}", bound)
    if twist_g:
        g = gen.twist_functor(g, rng, TWIST_TERMS, f"G:{tag}", bound)
    quiver, pairs = gen.expected_pullback_quiver(f, g)
    u = gen.diffeo(quiver, rng, CONE_TERMS, f"cone:{tag}")
    return {
        "f": f, "g": g, "bound": bound, "acyclic": acyclic, "quiver": quiver,
        "pairs": pairs, "u": u, "t": gen.formal_inverse(u, bound),
        "strict": not (twist_f or twist_g), "fname": fname,
        "f_certs": (gen.unit_isolifts(f, f.source.units, f.target.units)
                    if fname == "Q" else None),
    }


def setup(seed: int, workdir: str):
    rng = random.Random(seed)
    jobs = []
    for fname in FIELDS:
        for acyclic in (True, False):
            for spec in INSTANCES:
                inst = make_instance(rng, fname, acyclic, spec)
                name = (f"{fname}-{'acyclic' if acyclic else 'nonacyclic'}-"
                        f"{spec[0]}-{spec[1]}-{'tF' if spec[2] else 'sF'}"
                        f"{'tG' if spec[3] else 'sG'}-b{spec[4]}")
                jobs.append(Job(name, "Q" if fname == "Q" else "Fp",
                                lambda inst=inst: _run(inst), _checker(inst)))
    return jobs, []


def _run(inst):
    """The job, once per pass on freshly built inputs: the classifiers cache
    H0 on the categories they are given."""
    f, g, bound = inst["f"], inst["g"], inst["bound"]
    p = pullback.build_pullback(f, g, max_arity=bound)
    if inst["f_certs"] is not None:
        fib = pullback.certify_fibration_closure(
            p, f_isolifts=inst["f_certs"],
            alpha_isolifts=gen.unit_isolifts(p.alpha, p.category.units,
                                             g.source.units))
    else:
        fib = pullback.certify_fibration_closure(p)
    self_cone = pullback.induce_functor(p, p.beta, p.alpha)
    cone_src = core.AInftyCategory.build(
        p.category.quiver, gen.transport(p.category, inst["u"], bound),
        max_arity=bound)
    t = core.AInftyFunctor.build(inst["t"], cone_src, p.category, max_arity=bound)
    t_cone = pullback.induce_functor(p, p.beta.compose(t), p.alpha.compose(t))
    return p, fib, self_cone, t, t_cone


def _identity_components(quiver):
    fld = quiver.fld
    return {(1, pair): {(i,): {i: fld.one} for i in range(sp.dim)}
            for pair, sp in quiver.hom.items() if sp.dim}


def _clean(comps):
    return {k: {it: v for it, v in t.items() if v}
            for k, t in comps.items() if any(t.values())}


def _fiber_product_holds(inst, p):
    """On strict DG inputs the pullback is the componentwise fiber product:
    under (k, c) -> (i k + s G1 c, c) its m1 and m2 are those of A and A''."""
    f, g = inst["f"], inst["g"]
    char = f.source.fld.characteristic
    splits = p.strictification.model.splits
    mA, mC = f.source.structure.components, g.source.structure.components
    objs = p.category.objects
    pairs = p.object_pairs

    def iso(p1, p2, vec):
        (x1, y1), (x2, y2) = pairs[p1], pairs[p2]
        split = splits[(x1, x2)]
        kdim = split.kernel.dim
        kpart = {i: c for i, c in vec.items() if i < kdim}
        cpart = {i - kdim: c for i, c in vec.items() if i >= kdim}
        gc = oracle.dense_eval(g.morphism.components, 1, (y1, y2), [cpart], char)
        return oracle.vec_sum(oracle.apply_map(split.include, kpart, char),
                              oracle.apply_map(split.section, gc, char),
                              char), cpart

    mP = p.category.structure.components
    for p1 in objs:
        for p2 in objs:
            x1, x2 = pairs[p1][0], pairs[p2][0]
            y1, y2 = pairs[p1][1], pairs[p2][1]
            for i in range(p.category.quiver.space(p1, p2).dim):
                va, vc = iso(p1, p2, {i: 1})
                if (oracle.dense_eval(f.morphism.components, 1, (x1, x2), [va], char)
                        != oracle.dense_eval(g.morphism.components, 1, (y1, y2),
                                             [vc], char)):
                    return False
                oa, oc = iso(p1, p2, mP.get((1, (p1, p2)), {}).get((i,), {}))
                if (oa != oracle.dense_eval(mA, 1, (x1, x2), [va], char)
                        or oc != oracle.dense_eval(mC, 1, (y1, y2), [vc], char)):
                    return False
                for p0 in objs:
                    x0, y0 = pairs[p0]
                    for j in range(p.category.quiver.space(p0, p1).dim):
                        wa, wc = iso(p0, p1, {j: 1})
                        out = mP.get((2, (p0, p1, p2)), {}).get((i, j), {})
                        oa, oc = iso(p0, p2, out)
                        if (oa != oracle.dense_eval(mA, 2, (x0, x1, x2),
                                                    [va, wa], char)
                                or oc != oracle.dense_eval(mC, 2, (y0, y1, y2),
                                                           [vc, wc], char)):
                            return False
    return True


def _checker(inst):
    def check(result, exc):
        if exc is not None:
            return False, oracle.canonical(("raised", type(exc).__name__, str(exc)))
        p, fib, self_cone, t, t_cone = result
        verdicts = {k: r.verdict for k, r in fib.sections.items()}
        # the expected quiver has hom(p1, p2) of dimension dim A(x1,x2) -
        # dim A'(Fx1,Fx2) + dim A''(y1,y2), degree by degree
        ok = p.category.quiver == inst["quiver"]
        if ok and inst["strict"]:
            ok = _fiber_product_holds(inst, p)
        if inst["acyclic"]:
            ok = ok and verdicts.get("alpha_acyclic_fibration") == "pass"
        else:
            ok = (ok and verdicts.get("f_quasi_equivalence") == "fail"
                  and core.kernel_acyclicity(p.alpha).verdict == "fail")
        for rep, want in ((self_cone, _identity_components(p.category.quiver)),
                          (t_cone, _clean(t.morphism.components))):
            ok = (ok and rep.triangles and rep.uniqueness
                  and _clean(rep.functor.morphism.components) == want)
        text = oracle.canonical((sorted(p.category.objects),
                                 p.category.structure.components, verdicts,
                                 self_cone.functor.morphism.components,
                                 t_cone.functor.morphism.components))
        return ok, text
    return check
