from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.fields import Field
from ainfty.linear import GradedSpace
from ainfty.quiver import (
    FormalMorphism,
    GradedQuiver,
    compose_formal,
    eval_multilinear,
    identity_formal,
    l_compose,
    r_compose,
)
from ainfty.core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    FunctorDefectError,
    StructureDefectError,
    UnitAxiomError,
    check_F1,
    check_strict_units,
    functor_defect,
)
from ainfty.pullback import build_pullback
from ainfty.strictify import (
    KER_PREFIX,
    SUM_PREFIX,
    Blocks,
    StrictifyError,
    build_phi_psi,
    build_split_model,
    strictify,
    transport_structure,
)

from helpers import (
    bar_expand_combo,
    base_phi_psi,
    bump_coefficient,
    coderivation_expand_combo,
    doubled_object_functor,
    eval_basis,
    f1_strict,
    nilpotent_category,
    phi_is_functor,
    point_category,
    projection_phi_is_f,
    psi_phi_is_identity,
    random_f1_functor,
    short_f2_functor,
    sq_functor,
    square_zero_extension,
    strictification_base_phi_psi,
    terminal_category,
    to_terminal,
    twist_structure,
    twisted_functor,
)

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


def fixture_functor(seed=3, density=0.5, base_gens=(("a", -1), ("b", 0))):
    rng = random.Random(seed)
    base = nilpotent_category(QQ, base_gens)
    ext, f_strict = square_zero_extension(QQ, base, acyclic=True)
    return twisted_functor(f_strict, rng, max_arity=2, density=density)


def test_split_model_sq():
    f = sq_functor(QQ)
    model = build_split_model(f)
    sp = model.quiver.space("o", "o")
    assert [n for n, _ in sp.basis] == ["k:ker0", "k:ker1", "a:1'"]
    # decompose/recompose are mutually inverse because split_surjection
    # certifies the five splitting identities of every split


def test_split_model_identity_functor():
    cat = point_category(QQ)
    f = AInftyFunctor.identity(cat)
    model = build_split_model(f)
    assert model.quiver.space("o0", "o0").dim == 1
    assert model.splits[("o0", "o0")].kernel.dim == 0


def test_decompose_chain_only_when_section_is():
    # fixture where the echelon section is not a chain map: the section of
    # c~ is t while d(t) = e and d(c~) = 0, so s1 d != d s1; decompose is
    # still a graded isomorphism and the strictification goes through
    from ainfty.linear import GradedSpace
    from ainfty.quiver import GradedQuiver
    from ainfty.core import AInftyCategory, AInftyFunctor
    one = QQ.one
    neg = QQ.from_int(-1)
    spa = GradedSpace((("1", 0), ("e", 0), ("t", -1), ("c", -1)))
    qa = GradedQuiver(QQ, ("o",), {("o", "o"): spa})
    I, E, T, C = 0, 1, 2, 3
    a = AInftyCategory.build(qa, {
        (1, ("o", "o")): {(T,): {E: one}},
        (2, ("o", "o", "o")): {
            (I, I): {I: one}, (I, E): {E: one}, (E, I): {E: one},
            (I, T): {T: neg}, (T, I): {T: one},
            (I, C): {C: neg}, (C, I): {C: one},
        },
    }, units={"o": {I: one}})
    spb = GradedSpace((("1'", 0), ("c~", -1)))
    qb = GradedQuiver(QQ, ("p",), {("p", "p"): spb})
    b = AInftyCategory.build(qb, {
        (2, ("p", "p", "p")): {
            (0, 0): {0: one}, (0, 1): {1: neg}, (1, 0): {1: one},
        },
    }, units={"p": {0: one}})
    morphism = FormalMorphism(qa, qb, {"o": "p"}, {
        (1, ("o", "o")): {(I,): {0: one}, (T,): {1: one}, (C,): {1: one}},
    })
    f = AInftyFunctor.build(morphism, a, b)
    res = check_F1(f)
    model = build_split_model(f)
    split = res.splits[("o", "o")]
    # the echelon section sends c~ to t, which the differential does not fix
    assert split.section.apply({1: one}) == {T: one}
    s_d = split.section.apply({})                       # d(c~) = 0
    d_s = eval_multilinear(a.structure, 1, ("o", "o"),
                           [split.section.apply({1: one})])
    assert d_s != s_d                                   # s1 is not a chain map
    # decompose fails to intertwine the naive differentials in the same way
    lhs = eval_multilinear(model.decompose, 1, ("o", "o"),
                           [eval_multilinear(a.structure, 1, ("o", "o"),
                                             [{T: one}])])
    naive = eval_basis(model.decompose, 1, ("o", "o"), (T,))
    kdim = split.kernel.dim
    k_diff = {}   # the naive model differential of decompose(t): kernel part only
    for i, cth in naive.items():
        if i < kdim:
            w = eval_multilinear(a.structure, 1, ("o", "o"),
                                 [split.include.column(i)])
            for oi, cc in split.retract.apply(w).items():
                k_diff[oi] = QQ.add(k_diff.get(oi, QQ.zero), QQ.mul(cth, cc))
    assert lhs != k_diff
    # the full strictification still closes exactly
    s = strictify(f)
    phi, _ = strictification_base_phi_psi(s, s.arity_bound)
    assert compose_formal(f1_strict(f), phi, s.arity_bound) == f.morphism


def test_strict_functor_gives_identity_phi_psi():
    f = sq_functor(QQ)
    s = strictify(f)
    ident = identity_formal(f.source.quiver)
    phi, psi = strictification_base_phi_psi(s, s.arity_bound)
    assert phi == ident
    assert psi == ident


def test_phi_psi_f2_only_fixture():
    f = fixture_functor()
    assert any(n == 2 for (n, _) in f.morphism.components)
    model = build_split_model(f)
    phi, psi = base_phi_psi(model, *build_phi_psi(model, 4), 4)
    # phi^2 = s1 . F^2 and psi^2 = -s1 . F^2 when F^3 = 0
    for (n, objs), table in f.morphism.components.items():
        if n != 2:
            continue
        split = model.splits[(objs[0], objs[-1])]
        for in_t, vec in table.items():
            want = split.section.apply(vec)
            got_phi = eval_basis(phi, 2, objs, in_t)
            got_psi = eval_basis(psi, 2, objs, in_t)
            assert got_phi == want
            assert got_psi == {k: QQ.neg(c) for k, c in want.items()}


def test_phi_psi_two_sided_inverse_arity_three():
    f = fixture_functor(seed=11, density=0.9)
    model = build_split_model(f)
    phi, psi = build_phi_psi(model, 5)
    assert compose_formal(phi, psi, 5) == identity_formal(model.quiver)
    assert compose_formal(psi, phi, 5) == identity_formal(f.source.quiver)


def test_psi_equals_truncated_geometric_series():
    # psi's components agree with the corestriction of sum (-1)^m gamma^m,
    # gamma = bar(phi) - id at the word level
    f = fixture_functor(seed=7, density=0.8)
    model = build_split_model(f)
    phi, psi = base_phi_psi(model, *build_phi_psi(model, 4), 4)
    quiver = f.source.quiver
    fld = QQ
    for n in range(1, 4):
        for objs in quiver.paths(n):
            for letters in quiver.basis_tuples(objs):
                word = (objs, letters)
                combo = {word: fld.one}
                series = dict(combo)
                power = dict(combo)
                sign = fld.from_int(-1)
                for _ in range(n + 1):
                    expanded = bar_expand_combo(phi, power)
                    for w, c in power.items():
                        s = fld.add(expanded.get(w, fld.zero), fld.neg(c))
                        if fld.is_zero(s):
                            expanded.pop(w, None)
                        else:
                            expanded[w] = s
                    power = expanded
                    for w, c in power.items():
                        cur = series.get(w, fld.zero)
                        s = fld.add(cur, fld.mul(sign, c))
                        if fld.is_zero(s):
                            series.pop(w, None)
                        else:
                            series[w] = s
                    sign = fld.neg(sign)
                cores = {w: c for w, c in series.items() if len(w[1]) == 1}
                want = eval_basis(psi, n, objs, letters)
                got = {}
                for (wobjs, wletters), c in cores.items():
                    got[wletters[0]] = fld.add(got.get(wletters[0], fld.zero), c)
                got = {k: v for k, v in got.items() if not fld.is_zero(v)}
                assert got == want


def test_transport_identity_at_arity_one():
    f = fixture_functor(seed=13)
    model = build_split_model(f)
    phi, psi = base_phi_psi(model, *build_phi_psi(model, 4), 4)
    m_hat = transport_structure(model, phi, psi, 4)
    base = f.source
    for (n, objs), table in base.structure.components.items():
        if n == 1:
            assert m_hat.components[(1, objs)] == table


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(4))
def test_transport_closed_form_matches_recursion(fld, seed):
    # phi . m . psi equals the structure solved arity by arity from
    # phi . m = m_hat . phi (the reference recursion twist_structure)
    f = random_f1_functor(random.Random(seed), fld, density=0.5)
    model = build_split_model(f)
    for bound in range(3, 7):
        phi, psi = base_phi_psi(model, *build_phi_psi(model, bound), bound)
        assert (transport_structure(model, phi, psi, bound)
                == twist_structure(f.source, phi, bound).structure)


def test_transport_matches_conjugated_differential():
    # m_hat^n equals the corestriction of bar(phi) . D . bar(psi) on words
    f = fixture_functor(seed=17, density=0.7)
    model = build_split_model(f)
    phi, psi = base_phi_psi(model, *build_phi_psi(model, 4), 4)
    m_hat = transport_structure(model, phi, psi, 4)
    base = f.source
    quiver = base.quiver
    fld = QQ
    for n in range(1, 4):
        for objs in quiver.paths(n):
            for letters in quiver.basis_tuples(objs):
                combo = {(objs, letters): fld.one}
                through = bar_expand_combo(
                    phi, coderivation_expand_combo(
                        base.structure, bar_expand_combo(psi, combo)))
                cores = {}
                for (wobjs, wletters), c in through.items():
                    if len(wletters) == 1:
                        cores[wletters[0]] = fld.add(
                            cores.get(wletters[0], fld.zero), c)
                cores = {k: v for k, v in cores.items() if not fld.is_zero(v)}
                assert cores == eval_basis(m_hat, n, objs, letters)


def test_strictification_bundle_fixture():
    f = fixture_functor(seed=23, density=0.9)
    s = strictify(f, max_arity=5)
    # strictify asserts projection . phi = F; both directions of diagram
    # (12), re-checked in base coordinates
    strict_part = f1_strict(f)
    phi, psi = strictification_base_phi_psi(s, 5)
    assert compose_formal(strict_part, phi, 5) == f.morphism
    assert compose_formal(f.morphism, psi, 5) == strict_part
    # phi = (r1, F) is an A-infinity functor (A, m) -> (model, m_model)
    assert not functor_defect(s.phi_functor.morphism, f.source, s.transported,
                              5).components
    # the transported structure is strictly unital with decomposed units
    assert s.transported.units is not None
    assert check_strict_units(s.transported).passed
    for x in f.source.objects:
        want = eval_multilinear(s.model.decompose, 1, (x, x),
                                [f.source.unit_vec(x)])
        assert s.transported.units[x] == want


def test_projection_display():
    # the split-off component of m_model is the target structure of the parts
    f = fixture_functor(seed=29, density=0.8)
    s = strictify(f, max_arity=4)
    target = f.target
    pr = s.projection.morphism
    for (n, objs), table in s.transported.structure.components.items():
        fobjs = tuple(f.object_map[x] for x in objs)
        for in_t, vec in table.items():
            lhs = eval_multilinear(pr, 1, (objs[0], objs[-1]), [vec])
            imgs = []
            for i, b in enumerate(in_t):
                pair = (objs[n - 1 - i], objs[n - i])
                imgs.append(eval_basis(pr, 1, pair, (b,)))
            rhs = eval_multilinear(target.structure, n, fobjs, imgs)
            assert lhs == rhs


def test_strict_input_transport_degenerates():
    # if F is strict the transported structure is the conjugated original,
    # associated as (decompose . m) . recompose
    f = sq_functor(QQ)
    s = strictify(f)
    conj = r_compose(s.model.recompose,
                     l_compose(s.model.decompose, f.source.structure, 4), 4)
    assert s.transported.structure == conj


def test_strictify_requires_f1(qq):
    small = nilpotent_category(qq, ())
    big = nilpotent_category(qq, (("w", 2),))
    morphism = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: qq.one}},
    })
    f = AInftyFunctor.build(morphism, small, big)
    with pytest.raises(StrictifyError):
        strictify(f)


def test_bound_below_two_is_refused():
    # the transported category at bound 1 has no m2 to state its strict
    # units with: a StrictifyError naming the bound, not a unit failure
    f = fixture_functor()
    for run in (strictify, lambda f, max_arity: build_pullback(f, f, max_arity)):
        with pytest.raises(StrictifyError, match="arity bound 1 is below 2"):
            run(f, max_arity=1)
    assert strictify(f, max_arity=2).arity_bound == 2
    assert build_pullback(f, f, max_arity=2).arity_bound == 2


# `from ainfty import strictify` is the function; patch through the module
STRICTIFY = importlib.import_module("ainfty.strictify")


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_tampered_transport_is_rejected(monkeypatch, arity):
    # strictify derives phi's equation from m_model = phi . m . psi; the
    # oracle that conftest.py runs on every strictification recomputes it,
    # and rejects a transport with one wrong coefficient
    f = fixture_functor()
    solve = STRICTIFY.transport_structure

    def tampered(model, phi, psi, max_arity):
        m_hat = solve(model, phi, psi, max_arity)
        return dataclasses.replace(m_hat, components=bump_coefficient(
            QQ, m_hat.components, arity))

    monkeypatch.setattr(STRICTIFY, "transport_structure", tampered)
    # the construction itself, without the oracle conftest.py wraps it in
    s = inspect.unwrap(STRICTIFY.strictify)(f, max_arity=3)
    assert not phi_is_functor(s)


# -- derived values and their premises ------------------------------------------

def _non_associative_identity():
    """The identity functor of an F_5 algebra on e, f (degree 0) with
    e.e = f and e.f = e, so (e.e).e = 0 but e.(e.e) = e; both certified to
    arity 2 only, the algebra not totally."""
    q = GradedQuiver(F5, ("o",), {("o", "o"): GradedSpace((("e", 0), ("f", 0)))})
    m2 = {(0, 0): {1: F5.one}, (0, 1): {0: F5.one}}
    cat = AInftyCategory.build(q, {(2, ("o",) * 3): m2}, max_arity=2)
    return AInftyFunctor.build(identity_formal(q), cat, cat, max_arity=2)


def test_square_is_checked_up_to_the_bound():
    # F has an arity-3 component; strictified to arity 2, projection . phi
    # equals F's components up to arity 2 (projection_phi_is_f, which
    # conftest.py runs on every strictification, compares the same)
    f = random_f1_functor(random.Random(248), QQ, density=0.5)
    assert max(n for n, _ in f.morphism.components) == 3
    s = strictify(f, max_arity=2)
    square = compose_formal(s.projection.morphism, s.phi_functor.morphism, 2)
    assert square.components == {key: t for key, t in f.morphism.components.items()
                                 if key[0] <= 2}


def test_phi_psi_oracles_reject_tampering():
    # strictify derives psi . phi = Id and projection . phi = F; the oracles
    # that conftest.py runs on every strictification reject a changed psi,
    # a changed kernel part of phi and a changed A'-part of phi
    s = strictify(fixture_functor(seed=11, density=0.9), max_arity=4)
    assert psi_phi_is_identity(s) and projection_phi_is_f(s)

    def bumped(functor, allowed=lambda key, out: True):
        m = functor.morphism
        return dataclasses.replace(functor, morphism=dataclasses.replace(
            m, components=bump_coefficient(QQ, m.components, 1, allowed)))

    def kernel(key, out):
        return out < s.model.blocks.kdims[(key[1][0], key[1][-1])]

    psi = dataclasses.replace(s, psi_functor=bumped(s.psi_functor))
    assert not psi_phi_is_identity(psi) and projection_phi_is_f(psi)
    phi_k = dataclasses.replace(s, phi_functor=bumped(s.phi_functor, kernel))
    assert not psi_phi_is_identity(phi_k) and projection_phi_is_f(phi_k)
    phi_a = dataclasses.replace(s, phi_functor=bumped(
        s.phi_functor, lambda key, out: not kernel(key, out)))
    assert not projection_phi_is_f(phi_a)


def test_source_premise_is_certified_to_the_bound():
    # m.m = 0 on the source up to the bound is the premise of the derived
    # transported category, and on G's source of the pullback's derived
    # relation; a shorter certified bound is extended first, and fails with
    # the source's own witness (along the terminal category's identity the
    # pullback is the source itself, under other object names)
    f = _non_associative_identity()
    assert f.source.arity_bound == 2 and not f.source.total
    term = terminal_category(F5)
    for run in (strictify, lambda f: build_pullback(f, f),
                lambda f: build_pullback(AInftyFunctor.identity(term),
                                         to_terminal(f.source, term))):
        with pytest.raises(StructureDefectError) as exc:
            run(f)
        assert exc.value.witness == (3, ("o",) * 4, (0, 0, 0))


def test_functor_premise_is_certified_to_the_bound():
    # F's equation up to the bound is the premise of the derived projection
    f = short_f2_functor(units=False)
    assert f.arity_bound == 2 and not f.total
    for run in (strictify, lambda f: build_pullback(f, f)):
        with pytest.raises(FunctorDefectError) as exc:
            run(f)
        assert exc.value.witness == (3, ("o0",) * 4, (1, 0, 0))


def test_functor_premise_comes_after_the_transported_units():
    # F^2 meets the unit, so the transported units fail u1; that check runs
    # where the transported category is derived, before F's premise
    f = short_f2_functor(units=True)
    for run in (strictify, lambda f: build_pullback(f, f)):
        with pytest.raises(UnitAxiomError):
            run(f)


def _same_fields(derived, built):
    for fd in dataclasses.fields(built):
        assert getattr(derived, fd.name) == getattr(built, fd.name), fd.name


@given(st.integers(0, 10 ** 6), st.sampled_from([QQ, F3, F5]))
@settings(max_examples=16, deadline=None)
def test_derived_values_match_their_builds(seed, fld):
    # the certifications the lemmas replace, kept as oracles: every derived
    # value equals, field for field, the value build certifies from its data
    rng = random.Random(seed)
    f = random_f1_functor(rng, fld, density=0.5)
    s = strictify(f, max_arity=rng.randint(2, 5))
    bound, t = s.arity_bound, s.transported
    assert t.structure.frm == t.structure.to == identity_formal(t.quiver)
    _same_fields(t, AInftyCategory.build(t.quiver, t.structure.components,
                                         t.units, max_arity=bound))
    for derived, target in ((s.projection, f.target), (s.psi_functor, f.source)):
        _same_fields(derived, AInftyFunctor.build(derived.morphism, t, target,
                                                  max_arity=bound))
    for g, h in ((s.projection, s.phi_functor), (s.psi_functor, s.phi_functor),
                 (f, s.psi_functor)):
        gh = g.compose(h)
        _same_fields(gh, AInftyFunctor.build(
            gh.morphism, h.source, g.target, min(g.arity_bound, h.arity_bound)))
    for cat in (f.source, f.target, t):
        _same_fields(AInftyFunctor.identity(cat),
                     AInftyFunctor.build(identity_formal(cat.quiver), cat, cat))


# -- the K (+) M block layout ---------------------------------------------------

def block_layouts(fld):
    """Blocks of three split models, one pullback and one hand-made layout:
    sq_functor's, a seeded random F1 functor's, and those of a square-zero
    projection composed with a doubled-object collapse, whose fibres have
    two objects with nonzero kernels, and its pullback along the identity;
    the last has a kernel block of a different size on every hom."""
    base = nilpotent_category(fld, (("a", -1), ("b", 0)))
    collapse = doubled_object_functor(base)
    _, f_strict = square_zero_extension(fld, collapse.source, acyclic=True)
    f = collapse.compose(f_strict)
    sizes = {("y1", "y1"): 0, ("y1", "y2"): 1, ("y2", "y1"): 2, ("y2", "y2"): 3}
    kernel = {pair: GradedSpace(tuple((f"e{i}", i) for i in range(size)))
              for pair, size in sizes.items()}
    return [build_split_model(sq_functor(fld)).blocks,
            build_split_model(random_f1_functor(random.Random(4), fld)).blocks,
            build_split_model(f).blocks,
            build_pullback(f, AInftyFunctor.identity(base), max_arity=3).blocks,
            Blocks.build(fld, ("y1", "y2"), kernel, base.quiver,
                         {"y1": "o0", "y2": "o0"})]


def _halves(blocks, x, y, vec):
    """(the kernel part, the M-part) of a vector of the hom (x, y), split
    at the hom's first "a:" basis element."""
    names = [n for n, _ in blocks.quiver.space(x, y).basis]
    kdim = sum(n.startswith(KER_PREFIX) for n in names)
    return ({i: c for i, c in vec.items() if i < kdim},
            {i - kdim: c for i, c in vec.items() if i >= kdim})


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
def test_blocks_vec_and_family_round_trip(fld):
    # vec(x, y, k, m) splits back into (k below the kernel block, m), and
    # family does vec per (key, inputs), through `ends` when given
    rng = random.Random(11)

    def rand_vec(dim):
        return {i: fld.from_int(rng.randint(1, 4))
                for i in range(dim) if rng.random() < 0.6}

    for blocks in block_layouts(fld):
        q, other, over = blocks.quiver, blocks.other, blocks.over
        kernel_comps, m_comps, want = {}, {}, {}
        for x, y in itertools.product(q.objects, repeat=2):
            sp = q.space(x, y)
            m_sp = other.space(over[x], over[y])
            kdim = blocks.kdims[(x, y)]
            assert [n for n, _ in sp.basis[kdim:]] == [
                SUM_PREFIX + n for n, _ in m_sp.basis]
            assert all(n.startswith(KER_PREFIX) for n, _ in sp.basis[:kdim])
            k, m = rand_vec(sp.dim), rand_vec(m_sp.dim)
            k_part = {i: c for i, c in k.items() if i < kdim}
            assert _halves(blocks, x, y, blocks.vec(x, y, k, m)) == (k_part, m)
            key = (1, (x, y))
            for in_t in [(0,), (1,), (2,)]:
                k = rand_vec(sp.dim) if in_t != (1,) else {}
                m = rand_vec(m_sp.dim) if in_t != (0,) else {}
                if in_t != (1,):
                    kernel_comps.setdefault(key, {})[in_t] = k
                if in_t != (0,):
                    m_comps.setdefault(key, {})[in_t] = m
                k_part = {i: c for i, c in k.items() if i < kdim}
                if k_part or m:
                    want.setdefault(key, {})[in_t] = (k_part, m)
        got = blocks.family(kernel_comps, m_comps)
        assert list(got) == list(want)
        assert {key: {in_t: _halves(blocks, key[1][0], key[1][-1], v)
                      for in_t, v in table.items()}
                for key, table in got.items()} == want

        def renamed(comps):
            return {(n, tuple("c" + x for x in objs)): t
                    for (n, objs), t in comps.items()}

        ends = {"c" + x: x for x in q.objects}
        assert blocks.family(renamed(kernel_comps), renamed(m_comps),
                             ends=ends) == renamed(got)


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
def test_blocks_lift_covers_every_path(fld):
    # an other-family lifts to one table per path of block objects over its
    # path (the product of the fibre sizes); every lifted input names the
    # "a:" copy of the original input, and shifts back to it
    rng = random.Random(5)
    for blocks in block_layouts(fld):
        q, other, over = blocks.quiver, blocks.other, blocks.over
        fibre = {o: [x for x in q.objects if over[x] == o]
                 for o in other.objects}
        m_comps = {}
        for n in (1, 2, 3):
            for path in other.paths(n):
                m_comps[(n, path)] = {
                    in_t: {0: fld.from_int(rng.randint(1, 4))}
                    for in_t in other.basis_tuples(path)}
        lifted = blocks.lift(m_comps)
        assert len(lifted) == sum(math.prod(len(fibre[o]) for o in path)
                                  for _, path in m_comps)
        for (n, objs), table in lifted.items():
            path = tuple(over[x] for x in objs)
            back = {}
            for in_t, vec in table.items():
                orig = []
                for i, b in enumerate(in_t):
                    x, y = objs[n - 1 - i], objs[n - i]
                    name = q.space(x, y).name(b)
                    assert name.startswith(SUM_PREFIX)
                    orig.append(b - blocks.kdims[(x, y)])
                    assert other.space(over[x], over[y]).name(
                        orig[-1]) == name[len(SUM_PREFIX):]
                back[tuple(orig)] = vec
            assert back == m_comps[(n, path)]


# -- phi = (r1, F) and psi in model coordinates ---------------------------------

@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(3))
def test_phi_psi_in_model_coordinates(fld, seed):
    # phi^1 = decompose, phi^n = (0, F^n) for n >= 2, psi^1 = recompose and
    # psi^n = -s1 . (F . psi)^n with psi^n still zero; phi . psi = Id
    f = random_f1_functor(random.Random(seed), fld, density=0.5)
    model = build_split_model(f)
    minus = fld.from_int(-1)
    for bound in range(3, 7):
        phi, psi = build_phi_psi(model, bound)
        assert phi.components.items() >= model.decompose.components.items()
        assert psi.components.items() >= model.recompose.components.items()
        higher = {key for key in phi.components if key[0] >= 2}
        assert higher == {key for key in f.morphism.components
                          if 2 <= key[0] <= bound}
        for n, objs in higher:
            kdim = model.splits[(objs[0], objs[-1])].kernel.dim
            for in_t, vec in phi.components[(n, objs)].items():
                assert min(vec) >= kdim
                assert ({i - kdim: c for i, c in vec.items()}
                        == f.morphism.components[(n, objs)][in_t])
        for n in range(2, bound + 1):
            below = FormalMorphism(psi.source, psi.target, psi.object_map, {
                key: t for key, t in psi.components.items() if key[0] < n})
            want = {}
            for (m, objs), table in compose_formal(
                    f.morphism, below, n).components.items():
                if m == n:
                    section = model.splits[(objs[0], objs[-1])].section
                    want[(n, objs)] = {
                        in_t: {i: fld.mul(minus, c)
                               for i, c in section.apply(vec).items()}
                        for in_t, vec in table.items()}
            got = {key: t for key, t in psi.components.items() if key[0] == n}
            assert got == want
        assert compose_formal(phi, psi, bound) == identity_formal(model.quiver)


def test_psi_recursion_stops_where_the_words_stop(monkeypatch):
    # psi^n = -s1 . (F . psi)^n needs a word of two or more psi-blocks
    # under F, which reaches at most F's widest arity times psi's widest: a
    # strict F composes nothing, and a twisted F with F^2 and psi^2 solves
    # n = 2, ..., N while N <= 4, then stops however high the bound
    calls = []
    compose = STRICTIFY.compose_formal
    monkeypatch.setattr(STRICTIFY, "compose_formal",
                        lambda g, f, n: calls.append(n) or compose(g, f, n))
    model = build_split_model(sq_functor(QQ))
    assert build_phi_psi(model, 10 ** 9)[1] == model.recompose and calls == []
    model = build_split_model(fixture_functor())
    psis = {}
    for bound in (3, 4, 8, 10 ** 9):
        calls.clear()
        psis[bound] = build_phi_psi(model, bound)[1]
        assert calls == list(range(2, min(bound, 4) + 1))
    assert max(n for n, _ in psis[4].components) == 2
    assert psis[8] == psis[10 ** 9] == psis[4]


def test_shifted_phi_coefficient_is_rejected(monkeypatch):
    # one a-part coefficient of phi^2 moved: phi is then no longer the
    # inverse of psi, and strictify's certification refuses the result
    f = fixture_functor()
    build = STRICTIFY.build_phi_psi

    def shifted(model, max_arity):
        phi, psi = build(model, max_arity)
        kdims = {key: model.splits[(key[1][0], key[1][-1])].kernel.dim
                 for key in phi.components}
        return dataclasses.replace(phi, components=bump_coefficient(
            QQ, phi.components, 2,
            allowed=lambda key, out: out >= kdims[key])), psi

    monkeypatch.setattr(STRICTIFY, "build_phi_psi", shifted)
    with pytest.raises(AInftyError):
        strictify(f, max_arity=3)
