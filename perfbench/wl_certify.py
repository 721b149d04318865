"""certify-grid: AInftyCategory.build and AInftyFunctor.build alone.

Grid: objects {1, 2, 3} x arity bound {4, 5, 6} x field {Q, F5}, drawn
REPLICAS times.  Each draw of a cell holds a DG category of based complexes
A, a formal diffeomorphism u with a fixed support and seeded coefficients,
and the structure m' transported along u up to the cell's bound.  Its four
jobs, in order:

1. build (A, m') at the bound: accepted;
2. build m' with one seeded perturbation: rejected, with the witness the
   dense double-sum defect predicts;
3. build u: (A, m) -> (A, m'): accepted, strictly unital;
4. build u^-1: (A, m') -> (A, m): accepted, strictly unital.

One candidate in four is perturbed.  The contraction engine and scalar
arithmetic do nearly all the work; there is no elimination, no document
and no CLI.
"""
from __future__ import annotations

import itertools
import random

from ainfty import core

import gen
import oracle
from jobs import Job

# (complex degrees per object, diffeomorphism terms); 3-object cells are
# sparser per hom dimension so that no cell dominates a pass.
SHAPES = {
    1: ([(0, 1)], 4),
    2: ([(0, 1), (0,)], 5),
    3: ([(0, 1), (0,), (1,)], 5),
}
BOUNDS = (4, 5, 6)
FIELDS = ("Q", "F5")
# Independent draws per cell.  Job cost depends on the drawn coefficients
# through cancellations (entry counts move by about 10% between seeds);
# several draws per cell average that out of every pass.  The tail job
# (the 11th slowest) moves most: timing ten seeds in one process, so that
# machine drift falls on all alike, its spread between seeds was 0.18 with
# two draws and 0.07 with three.
REPLICAS = 3
PERTURB_CHECK_ARITY = 3
SAMPLE_CHECK_ARITY = 4


def _perturb(rng, quiver, comps, units):
    """One seeded change of an arity-1 or arity-2 entry that the dense
    defect sees at arity <= 3, with the witness it predicts."""
    fld = quiver.fld
    for _ in range(200):
        n = rng.choice((1, 2))
        paths = list(quiver.paths(n))
        objs = rng.choice(paths)
        out = quiver.space(objs[0], objs[-1])
        in_t = rng.choice(list(quiver.basis_tuples(objs)))
        if gen.meets_unit(quiver, units, objs, in_t):
            continue
        want = sum(quiver.input_degrees(objs, in_t)) + 2 - n
        outs = [o for o in range(out.dim) if out.degree(o) == want]
        if not outs:
            continue
        o = rng.choice(outs)
        bad = {k: {it: dict(v) for it, v in t.items()} for k, t in comps.items()}
        vec = bad.setdefault((n, objs), {}).setdefault(in_t, {})
        s = fld.add(vec.get(o, fld.zero), fld.from_int(rng.choice((1, 2))))
        vec[o] = fld.one if fld.is_zero(s) else s
        with oracle.checking():
            witness = oracle.first_witness(
                oracle.dense_defect(quiver, bad, PERTURB_CHECK_ARITY))
        if witness is not None:
            return bad, witness
    raise RuntimeError("no visible perturbation found")


def _build_cat(quiver, comps, units, bound):
    return lambda: core.AInftyCategory.build(
        quiver, comps, units={x: dict(u) for x, u in units.items()},
        max_arity=bound)


def setup(seed: int, workdir: str):
    rng = random.Random(seed)
    sample = {k: (rng.choice(BOUNDS), rng.choice(FIELDS)) for k in SHAPES}
    jobs, problems = [], []
    for k, bound, fname, r in itertools.product(SHAPES, BOUNDS, FIELDS,
                                                range(REPLICAS)):
        shapes, count = SHAPES[k]
        base = gen.endo_complexes(gen.field_named(fname), shapes).build(
            max_arity=bound)
        u = gen.diffeo(base.quiver, rng, count, f"grid:{k}:{r}", units=base.units)
        comps = gen.transport(base, u, bound)
        bad, witness = _perturb(rng, base.quiver, comps, base.units)
        if sample[k] == (bound, fname) and r == 0:
            with oracle.checking():
                defect = oracle.dense_defect(base.quiver, comps,
                                             SAMPLE_CHECK_ARITY)
            if defect:
                problems.append(f"valid cell {k}/{bound}/{fname} has dense "
                                f"defect at {min(defect)}")
        jobs += _cell_jobs(f"{k}obj-b{bound}-{fname}-r{r}", fname, base, comps,
                           bad, witness, u, gen.formal_inverse(u, bound), bound)
    return jobs, problems


def _cell_jobs(cell, fname, base, comps, bad, witness, u, u_inv, bound):
    built = {}
    field = "Q" if fname == "Q" else "Fp"

    def run_valid():
        built["cat"] = _build_cat(base.quiver, comps, base.units, bound)()
        return built["cat"]

    def check_valid(cat, exc):
        ok = exc is None and cat.arity_bound == bound
        return ok, oracle.canonical(("accept", bound, cat.total) if ok else exc)

    def check_bad(cat, exc):
        got = getattr(exc, "witness", None)
        ok = isinstance(exc, core.StructureDefectError) and got == witness
        return ok, oracle.canonical(("reject", got))

    def functor(source_key, morphism):
        def run():
            cat = built["cat"]
            src, tgt = (base, cat) if source_key == "base" else (cat, base)
            return core.AInftyFunctor.build(morphism, src, tgt, max_arity=bound)
        return run

    def check_functor(fun, exc):
        ok = exc is None and fun.arity_bound == bound and fun.strictly_unital
        return ok, oracle.canonical(("accept", bound, fun.total) if ok else exc)

    return [
        Job(f"{cell}/category", field, run_valid, check_valid),
        Job(f"{cell}/perturbed", field,
            _build_cat(base.quiver, bad, base.units, bound), check_bad),
        Job(f"{cell}/functor-u", field, functor("base", u), check_functor),
        Job(f"{cell}/functor-u-inverse", field, functor("twisted", u_inv),
            check_functor),
    ]
