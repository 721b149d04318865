from __future__ import annotations

import functools
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import core, quiver
from ainfty.fields import Field
from ainfty.documents import load_category, parse_category, parse_certificates
from ainfty.linear import GradedSpace, rref, vec_add, vec_scale
from ainfty.quiver import (
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    QuiverError,
    identity_formal,
    l_compose,
    r_compose,
)
from ainfty.core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    FunctorDefectError,
    H0Category,
    IsoLiftCertificate,
    StructureDefectError,
    UnitAxiomError,
    arity_feasibility_bound,
    build_h0,
    check_F1,
    check_isofibration,
    check_quasi_equivalence,
    check_strict_units,
    _arity1_iso_everywhere,
    _choose_bound,
    _units_lift,
    cohomology_matrix,
    functor_defect,
    kernel_acyclicity,
    structure_defect,
)

from helpers import (
    arity1_iso_by_rank,
    bar_expand_word,
    bump_coefficient,
    doubled_object_functor,
    endo_complex_category,
    h0_basis_law_failures,
    h0_is_iso_by_classes,
    idempotent_category,
    inclusion_functor,
    insertion_expand_word,
    isofibration_by_enumeration,
    m3_category,
    nilpotent_category,
    outer_after_words,
    point_category,
    random_dg_category,
    sq_functor,
    sq_source,
    sq_target,
    square_zero_extension,
    strict_units_by_basis,
    perturb_structure,
    random_diffeo,
    random_f1_functor,
    random_flat_prenatural,
    random_formal_morphism,
    random_g_functor,
    terminal_category,
    to_terminal,
    twist_structure,
    twisted_functor,
)

QQ = Field.rationals()
F5 = Field.prime(5)


# -- feasibility bounds ---------------------------------------------------------

def test_arity_bound_negative_degrees():
    # degrees in [-1, 0]: structure components vanish above arity 3
    assert arity_feasibility_bound((-1, 0), (-1, 0), 2) == 3
    assert arity_feasibility_bound((-1, 0), (-1, 0), 3) == 4


def test_arity_bound_unbounded():
    assert arity_feasibility_bound((-1, 1), (-1, 1), 2) is None


def test_arity_bound_empty():
    assert arity_feasibility_bound(None, (0, 0), 2) == 0
    assert arity_feasibility_bound((0, 0), None, 2) == 0


@pytest.mark.parametrize("max_arity, triples, want", [
    # no bound asked: the full bound, or the default and not total
    (None, [((-1, 0), (-1, 0), 2)], (4, True)),
    (None, [((-1, 1), (-1, 1), 2)], (core.DEFAULT_ARITY_BOUND, False)),
    # below, at and above the full bound
    (3, [((-1, 0), (-1, 0), 2)], (3, False)),
    (4, [((-1, 0), (-1, 0), 2)], (4, True)),
    (5, [((-1, 0), (-1, 0), 2)], (5, True)),
    # the largest over every family, and none when one is unbounded
    (None, [((-1, 0), (-1, 0), 1)], (3, True)),
    (None, [((-1, 0), (-1, 0), 1), ((-1, 0), (-1, 0), 2)], (4, True)),
    (4, [((-1, 0), (-1, 0), 2), ((-1, 1), (-1, 1), 2)], (4, False)),
    # a family with no homs has no arity
    (None, [(None, (-1, 0), 2)], (0, True)),
    (2, [((-1, 0), None, 1)], (2, True)),
])
def test_choose_bound_decides_bound_and_totality(max_arity, triples, want):
    assert _choose_bound(max_arity, *triples) == want


@functools.cache
def _bound_by_definition(src, low, high, limit=400):
    """The largest arity n <= limit whose output degree window
    [max(n*lo, low+n), min(n*hi, high+n)] is nonempty, where [low, high] is
    the target interval shifted down by the degree: 0 when none is, None
    when n = limit is."""
    lo, hi = src
    for n in range(limit, 0, -1):
        if max(n * lo, low + n) <= min(n * hi, high + n):
            return None if n == limit else n
    return 0


def test_arity_bound_closed_form_matches_its_definition():
    intervals = [None] + [(lo, hi) for lo in range(-6, 7) for hi in range(lo, 7)]
    for src, tgt in itertools.product(intervals, intervals):
        for degree in range(-4, 6):
            want = (0 if src is None or tgt is None else _bound_by_definition(
                src, tgt[0] - degree, tgt[1] - degree))
            assert arity_feasibility_bound(src, tgt, degree) == want, (src, tgt, degree)


# -- structure validation ---------------------------------------------------------

def test_dg_categories_have_zero_defect(rng):
    for seed in range(8):
        cat = random_dg_category(random.Random(seed), QQ, n_objects=1, max_dim=2)
        defect = structure_defect(cat.structure, 4)
        assert not defect.components


def test_m3_defect_zero_to_arity_five():
    cat = m3_category(QQ)
    defect = structure_defect(cat.structure, 5)
    assert not defect.components
    assert cat.arity_bound == 5 and not cat.total


def test_m3_perturbed_witness_at_arity_five(qq):
    # enlarge M3 by c of degree 3 so the perturbation m3(a,a,b) = c typechecks;
    # the defect then has the single surviving term at (a,a,a,a,a)
    sp = GradedSpace((("a", 1), ("b", 2), ("c", 3)))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    comps = {
        (3, ("o",) * 4): {(0, 0, 0): {1: qq.one}, (0, 0, 1): {2: qq.one}},
    }
    ident = identity_formal(q)
    defect = structure_defect(Prenatural(ident, ident, 2, comps), 5)
    assert defect.components
    n, objs, in_t = defect.first_nonzero()
    assert n == 5 and in_t == (0, 0, 0, 0, 0)
    with pytest.raises(StructureDefectError):
        AInftyCategory.build(q, comps, max_arity=5)


def test_zero_coefficient_outside_the_hom_is_rejected(qq):
    # a zero is validated like any coefficient: at index 99 it used to pass
    # build and then break serialize_category with an IndexError
    cat = point_category(qq)
    comps = {key: {in_t: dict(vec) for in_t, vec in table.items()}
             for key, table in cat.structure.components.items()}
    comps[(2, ("o0",) * 3)][(0, 0)][99] = qq.zero
    with pytest.raises(QuiverError, match="output index outside the target hom space"):
        AInftyCategory.build(cat.quiver, comps, cat.units)


def test_zero_coefficient_of_the_wrong_degree_is_rejected(qq):
    # m2(1, 1) has degree 0, so even a zero at the degree -1 generator a
    # breaks the degree rule
    cat = nilpotent_category(qq, (("a", -1),))
    comps = {key: {in_t: dict(vec) for in_t, vec in table.items()}
             for key, table in cat.structure.components.items()}
    comps[(2, ("o0",) * 3)][(0, 0)][1] = qq.zero
    with pytest.raises(QuiverError, match="degree violation at arity 2"):
        AInftyCategory.build(cat.quiver, comps, cat.units)


def test_build_stores_canonical_families():
    # over F_5, 6 is stored as 1 and an explicit zero at a valid output is
    # dropped, so the value equals the one built from canonical data; a
    # canonical family is stored as given, with no copy
    a = load_category(str(GOLDEN / "a.acat"))
    comps = {key: {in_t: dict(vec) for in_t, vec in table.items()}
             for key, table in a.structure.components.items()}
    e, t = (a.quiver.space("o", "o").index(name) for name in ("e", "t"))
    comps[(2, ("o",) * 3)][(e, e)] = {e: 0}
    comps[(1, ("o",) * 2)] = {it: {oi: c + 5 for oi, c in vec.items()}
                              for it, vec in comps[(1, ("o",) * 2)].items()}
    cat = AInftyCategory.build(a.quiver, comps, a.units)
    assert cat.structure.components == a.structure.components
    assert core.same_category(cat, a)
    morphism = FormalMorphism(a.quiver, a.quiver, {"o": "o"}, {
        (1, ("o", "o")): {(i,): {i: 6} for i in range(3)},
        (2, ("o",) * 3): {(e, e): {t: 0}}})
    f = AInftyFunctor.build(morphism, cat, a)
    assert f.morphism == identity_formal(a.quiver)
    assert AInftyFunctor.build(f.morphism, a, a).morphism is f.morphism


def test_build_stops_at_the_first_nonzero_arity(monkeypatch):
    """Transported structures perturbed at arity 1..3 are refused at their
    first nonzero arity: build, and certify_premise past a shorter bound,
    raise the witness structure_defect names, and neither advances the
    stream of m . m past the witness arity."""
    yielded = []
    stream = core.double_sum

    def counted(*args):
        for n, part in stream(*args):
            yielded.append(n)
            yield n, part
    monkeypatch.setattr(core, "double_sum", counted)
    rng = random.Random(19)
    early = 0
    for _ in range(16):
        dg = random_dg_category(rng, rng.choice((QQ, F5)), 1, 3)
        cat = AInftyCategory.derived(dg.structure, None, dg.arity_bound)
        bound = rng.randint(4, 6)
        twisted = twist_structure(cat, random_diffeo(rng, cat.quiver, 3), bound)
        comps = perturb_structure(rng, twisted, max_arity=3)
        ident = identity_formal(cat.quiver)
        candidate = Prenatural(ident, ident, 2, comps or {})
        witness = structure_defect(candidate, bound).first_nonzero()
        if witness is None:
            continue
        short = AInftyCategory.derived(candidate, None, 1)
        for refuse in (lambda: AInftyCategory.build(cat.quiver, comps, max_arity=bound),
                       lambda: core.certify_premise(short, bound)):
            yielded.clear()
            with pytest.raises(StructureDefectError) as exc:
                refuse()
            assert exc.value.witness == witness
            assert yielded == list(range(1, witness[0] + 1))
        early += witness[0] < bound
    assert early >= 8


def test_degree_violation_reported_before_evaluation(qq):
    sp = GradedSpace((("a", 0),))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    comps = {(1, ("o", "o")): {(0,): {0: qq.one}}}  # deg 0 -> deg 0 under shift 1
    ident = identity_formal(q)
    with pytest.raises(Exception) as exc:
        structure_defect(Prenatural(ident, ident, 2, comps), 3)
    assert "degree" in str(exc.value)


def test_flatness_required(qq):
    sp = GradedSpace((("a", 2),))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    comps = {(0, ("o",)): {(): {0: qq.one}}}
    with pytest.raises(AInftyError):
        AInftyCategory.build(q, comps)


# -- strict units -----------------------------------------------------------------

def test_sq_units_pass():
    cat = sq_source(QQ)
    assert check_strict_units(cat).passed


def test_point_unit_algebra():
    assert check_strict_units(point_category(QQ)).passed


def test_m3_fake_unit_fails_u2(qq):
    sp = GradedSpace((("a", 1), ("b", 2)))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    comps = {(3, ("o",) * 4): {(0, 0, 0): {1: qq.one}}}
    ident = identity_formal(q)
    cat = AInftyCategory(q, Prenatural(ident, ident, 2, comps), {"o": {0: qq.one}},
                         5, False)
    report = check_strict_units(cat)
    assert not report.passed
    assert any("u2" in w for w in report.witnesses)


def test_unit_must_be_degree_zero(qq):
    sp = GradedSpace((("a", 1),))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    cat = AInftyCategory(q, Prenatural(ident, ident, 2, {}), {"o": {0: qq.one}},
                         3, False)
    report = check_strict_units(cat)
    assert any("degree 0" in w for w in report.witnesses)


def test_dg_category_units_pass(rng):
    cat = random_dg_category(rng, QQ, n_objects=1, max_dim=2)
    assert cat.units is not None
    assert check_strict_units(cat).passed


@pytest.mark.parametrize("units, message", [
    ({"zz": {0: 1}}, "unit names unknown object 'zz'"),
    ({"o0": {7: 1}}, "unit of o0 names indices [7] outside hom(o0, o0)"),
    ({"o0": {-1: 1}}, "unit of o0 names indices [-1] outside hom(o0, o0)"),
    ({}, "units missing for ['o0']"),
    ({"o0": {7: 0}}, "unit of o0 names indices [7] outside hom(o0, o0)"),
])
def test_unit_gaps_are_violations(units, message):
    # build refuses what the document reader refuses, as a unit violation
    point = point_category(QQ)
    with pytest.raises(UnitAxiomError) as exc:
        AInftyCategory.build(point.quiver, point.structure.components, units=units)
    assert message in exc.value.violations


UNIT_FIELDS = (QQ, Field.prime(2), Field.prime(3), F5)
GOLDEN = pathlib.Path(__file__).parent / "golden" / "readme"


def test_unit_check_matches_basis_oracle_on_readme():
    paths = sorted(GOLDEN.rglob("*.acat"))
    assert len(paths) >= 3
    for path in paths:
        cat = load_category(str(path))
        assert check_strict_units(cat) == strict_units_by_basis(cat), path


def test_unit_check_order_survives_a_cancelled_first_output():
    # with the unit u + v, the other inputs (1, 1) are named first and lose
    # their first output to cancellation; they are still reported first
    sp = GradedSpace((("u", 0), ("a", 0), ("v", 0)))
    q = GradedQuiver(QQ, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    comps = {(3, ("o",) * 4): {(0, 1, 1): {1: 1}, (0, 2, 1): {1: 1},
                                (2, 1, 1): {1: -1, 2: 1}}}
    cat = AInftyCategory(q, Prenatural(ident, ident, 2, comps),
                         {"o": {0: QQ.one, 2: QQ.one}}, 5, False)
    report = check_strict_units(cat)
    assert report == strict_units_by_basis(cat)
    assert [w for w in report.witnesses if "slot 0" in w] == [
        f"u1 fails: arity 3 at {('o',) * 4}, unit in slot 0, other inputs {red}"
        for red in ((1, 1), (2, 1))]


def _endo_unit_categories(fld):
    """Endo-complex categories whose unit at x is a sum of two basis
    elements, as built and twisted to carry components of arity 3."""
    cat = endo_complex_category(fld, {"x": (("a", 0), ("b", 1)), "y": (("c", 0),)},
                                {"x": {0: 1}})
    assert len(cat.units["x"]) == 2
    u = random_diffeo(random.Random(fld.characteristic), cat.quiver, max_arity=3,
                      unital_for=cat.units)
    twisted = twist_structure(cat, u, max_arity=3)
    assert any(n == 3 for n, _ in twisted.structure.components)
    return [cat, twisted]


def _unit_perturbed(rng, cat, arity, changes):
    """cat with `changes` random coefficients of arity `arity` changed, each
    on an input tuple that a unit meets; no axiom is checked."""
    quiver, fld, units = cat.quiver, cat.fld, cat.units
    sites = [(objs, in_t) for objs in quiver.paths(arity)
             if quiver.space(objs[0], objs[-1]).dim
             for in_t in quiver.basis_tuples(objs)
             if any(objs[arity - 1 - s] == objs[arity - s]
                    and in_t[s] in units[objs[arity - s]] for s in range(arity))]
    comps = {k: {it: dict(v) for it, v in t.items()}
             for k, t in cat.structure.components.items()}
    for _ in range(changes):
        objs, in_t = rng.choice(sites)
        vec = comps.setdefault((arity, objs), {}).setdefault(in_t, {})
        o = rng.randrange(quiver.space(objs[0], objs[-1]).dim)
        delta = fld.from_int(rng.choice([1, 2, -1])) or fld.one
        vec[o] = fld.add(vec.get(o, fld.zero), delta)
        if fld.is_zero(vec[o]):
            del vec[o]
    ident = identity_formal(quiver)
    return AInftyCategory(quiver, Prenatural(ident, ident, 2, comps), units,
                          cat.arity_bound, cat.total)


@pytest.mark.parametrize("fld", UNIT_FIELDS, ids=lambda f: f"p{f.characteristic}")
def test_unit_check_matches_basis_oracle(fld):
    # one pass per table gives the per-basis verdict and violations, in
    # order, on valid units and on seeded changes to entries a unit meets
    rng = random.Random(21 + fld.characteristic)
    for cat in _endo_unit_categories(fld):
        assert check_strict_units(cat) == strict_units_by_basis(cat)
        assert check_strict_units(cat).passed
        for arity in (1, 2, 3):
            for changes in (1, 1, 3, 3):
                bad = _unit_perturbed(rng, cat, arity, changes)
                report = check_strict_units(bad)
                assert report == strict_units_by_basis(bad), (arity, changes)
                assert changes > 1 or not report.passed


# -- functors -----------------------------------------------------------------

def test_identity_functor_defect_zero():
    cat = sq_source(QQ)
    f = AInftyFunctor.identity(cat)
    assert not functor_defect(f.morphism, cat, cat, 4).components


def test_strict_non_chain_map_arity_one_witness(qq):
    # strict map failing to commute with m1 on one element: witness at arity 1
    a = sq_source(qq)
    b = sq_source(qq)
    morphism = FormalMorphism(a.quiver, b.quiver, {"o": "o"}, {
        (1, ("o", "o")): {(0,): {0: qq.one}, (1,): {1: qq.one}},  # kills t
    })
    defect = functor_defect(morphism, a, b, 3)
    bad = defect.first_nonzero()
    assert bad is not None and bad[0] == 1 and bad[2] == (2,)
    with pytest.raises(FunctorDefectError):
        AInftyFunctor.build(morphism, a, b)


def test_object_map_must_land_in_target(qq):
    a = sq_source(qq)
    b = sq_target(qq)
    morphism = FormalMorphism(a.quiver, b.quiver, {"o": "nowhere"}, {})
    with pytest.raises(AInftyError):
        AInftyFunctor.build(morphism, a, b)


def test_sq_functor_defect_zero():
    f = sq_functor(QQ)
    assert not functor_defect(f.morphism, f.source, f.target, 3).components
    assert f.strictly_unital


def test_unit_in_a_higher_component_is_not_strictly_unital():
    # F: point -> span{1, x}, x in degree -1 with m1 = 0, maps 1 to 1 and
    # has F2(1, 1) = x: a functor whose arity-2 part meets the unit
    point = point_category(QQ)
    q = GradedQuiver(QQ, ("b",), {("b", "b"): GradedSpace((("1", 0), ("x", -1)))})
    m2 = {(0, 0): {0: QQ.one}, (0, 1): {1: QQ.from_int(-1)}, (1, 0): {1: QQ.one}}
    b = AInftyCategory.build(q, {(2, ("b",) * 3): m2}, units={"b": {0: QQ.one}})
    comps = {(1, ("o0", "o0")): {(0,): {0: QQ.one}},
             (2, ("o0",) * 3): {(0, 0): {1: QQ.one}}}
    f = AInftyFunctor.build(FormalMorphism(point.quiver, q, {"o0": "b"}, comps),
                            point, b)
    assert f.total and not f.strictly_unital
    del comps[(2, ("o0",) * 3)]
    strict = FormalMorphism(point.quiver, q, {"o0": "b"}, comps)
    assert AInftyFunctor.build(strict, point, b).strictly_unital


def _loop_quiver(rng, fld, names):
    """Random homs between all objects, every loop with a degree-2 element
    (room for an arity-0 structure component) and odd degrees for signs."""
    hom = {}
    for a in names:
        for b in names:
            degs = [rng.randint(-1, 1) for _ in range(rng.randint(1, 2))]
            degs += [2] if a == b else []
            hom[(a, b)] = GradedSpace(tuple((f"{a}{b}{i}", d)
                                            for i, d in enumerate(degs)))
    return GradedQuiver(fld, names, hom)


def _curved(rng, q, bound):
    """An unchecked category on q: a random degree-2 structure, plus an
    arity-0 element of degree 2 at every object."""
    m = random_flat_prenatural(rng, q, 2, bound, density=0.5)
    comps = dict(m.components)
    for x in q.objects:
        top = q.space(x, x).dim - 1
        comps[(0, (x,))] = {(): {top: q.fld.from_int(rng.choice((-1, 1, 2)))}}
    return AInftyCategory.derived(Prenatural(m.frm, m.to, 2, comps), None, bound)


def _by_hand(cat):
    """cat with its structure's endpoints a hand-built identity."""
    ident = cat.structure.frm
    hand = FormalMorphism(ident.source, ident.target, dict(ident.object_map),
                          ident.components)
    structure = Prenatural(hand, hand, 2, cat.structure.components)
    return AInftyCategory.derived(structure, None, cat.arity_bound)


def _defect_cases(rng, fld):
    """(F, A, B, bound, small): an F1 functor twisted to F^2 != 0 and a
    twisted strict one (defect 0), each with one coefficient bumped, and
    a random morphism between unchecked categories with arity-0 parts;
    small cases take the oracle."""
    for f in (random_f1_functor(rng, fld),
              twisted_functor(sq_functor(fld), rng, max_arity=3)):
        bound = min(f.arity_bound, 3)
        yield f.morphism, f.source, f.target, bound, False
        top = max(n for n, _ in f.morphism.components)
        bumped = FormalMorphism(f.morphism.source, f.morphism.target,
                                dict(f.morphism.object_map),
                                bump_coefficient(fld, f.morphism.components, top))
        yield bumped, f.source, f.target, bound, False
    qa = _loop_quiver(rng, fld, ("x0", "x1"))
    qb = _loop_quiver(rng, fld, ("y0", "y1"))
    a, b = _curved(rng, qa, 2), _curved(rng, qb, 2)
    f = random_formal_morphism(rng, qa, qb, max_arity=2, density=0.7)
    yield f, a, b, 2, True


def _oracle_defect(f, a, b, bound):
    """F . m_A - m_B . F word by word: F after the insertion of m_A, minus
    m_B after the bar extension of F, over every word up to bound."""
    fld, q = a.fld, a.quiver
    left = outer_after_words(f, q, bound,
                             lambda w: insertion_expand_word(a.structure, w))
    right = outer_after_words(b.structure, q, bound,
                              lambda w: bar_expand_word(f, w))
    out = {}
    for key in left.keys() | right.keys():
        lt, rt = left.get(key, {}), right.get(key, {})
        for in_t in lt.keys() | rt.keys():
            vec = vec_add(fld, lt.get(in_t, {}),
                          vec_scale(fld, fld.from_int(-1), rt.get(in_t, {})))
            if vec:
                out.setdefault(key, {})[in_t] = vec
    return out


@given(st.integers(0, 10 ** 6), st.sampled_from([0, 2, 3, 5]))
@settings(max_examples=25, deadline=None)
def test_functor_defect_is_one_sum_of_both_sides(seed, p):
    # the one-accumulator defect equals the public composition
    # l_compose(F, m_A) - r_compose(F, m_B) and, on small cases, the word
    # oracle; its endpoints are F, and build raises the reference witness.
    # m_A over a hand-built identity is not inserted
    rng = random.Random(seed)
    fld = QQ if p == 0 else Field.prime(p)
    for f, a, b, bound, small in _defect_cases(rng, fld):
        defect = functor_defect(f, a, b, bound)
        right = r_compose(f, b.structure, bound)
        want = l_compose(f, a.structure, bound).sub(right)
        assert defect.components == want.components
        assert defect.frm is f and defect.to is f
        assert defect.degree == want.degree == 2
        if small:
            # m_B's arity-0 table enters at every object
            assert {x for (n, (x, *_)) in right.components if n == 0} == set(
                a.objects)
            assert defect.components == _oracle_defect(f, a, b, bound)
            with pytest.raises(QuiverError, match="between Identity endpoints"):
                functor_defect(f, _by_hand(a), b, bound)
        if not want.components:
            assert AInftyFunctor.build(f, a, b, bound).arity_bound == bound
        else:
            with pytest.raises(FunctorDefectError) as exc:
                AInftyFunctor.build(f, a, b, bound)
            assert exc.value.witness == want.first_nonzero()


def test_functor_defect_over_a_hand_built_identity(monkeypatch):
    # a source structure over a hand-built identity is refused before any
    # sum: F . m_A is the double sum, which needs Identity endpoints
    rng = random.Random(7)
    qa, qb = _loop_quiver(rng, F5, ("x0",)), _loop_quiver(rng, F5, ("y0", "y1"))
    a, b = _curved(rng, qa, 3), _curved(rng, qb, 3)
    f = random_formal_morphism(rng, qa, qb, max_arity=3, density=0.8)
    defect = functor_defect(f, a, b, 3)
    assert defect.components

    def no_double_sum(*args):
        raise AssertionError("double sum over a hand-built identity")
    monkeypatch.setattr(quiver, "_add_double_sum", no_double_sum)
    with pytest.raises(QuiverError, match="between Identity endpoints"):
        functor_defect(f, _by_hand(a), b, 3)


def test_functor_defect_endpoint_mismatch():
    # F: a -> b against m_b on both sides, then m_a on both sides
    a, b = sq_source(QQ), sq_target(QQ)
    f = FormalMorphism(a.quiver, b.quiver, {"o": "p"}, {})
    with pytest.raises(QuiverError):
        functor_defect(f, b, b, 2)
    with pytest.raises(QuiverError):
        functor_defect(f, a, a, 2)


def test_functor_composition_validates(rng):
    f = sq_functor(QQ)
    idt = AInftyFunctor.identity(f.target)
    comp = idt.compose(f)
    assert comp.morphism == f.morphism


def test_compose_requires_the_middle_category():
    # a composite is derived from its operands' equations, which hold only
    # through one shared middle category: same quiver and same structure
    plain = nilpotent_category(QQ, (("a", -1), ("b", 0)))
    with_d = nilpotent_category(QQ, (("a", -1), ("b", 0)), d_of={"a": "b"})
    other_quiver = nilpotent_category(QQ, (("a", -1),))
    assert with_d.quiver == plain.quiver and with_d.objects == other_quiver.objects
    for middle in (with_d, other_quiver):
        with pytest.raises(AInftyError, match="compose"):
            AInftyFunctor.identity(plain).compose(AInftyFunctor.identity(middle))


# -- F1 ----------------------------------------------------------------------------

def test_check_f1_identity_trivial():
    cat = sq_source(QQ)
    res = check_F1(AInftyFunctor.identity(cat))
    assert res.passed
    assert all(s.kernel.dim == 0 for s in res.splits.values())


def test_check_f1_sq_kernel():
    res = check_F1(sq_functor(QQ))
    assert res.passed
    kernel = res.splits[("o", "o")].kernel
    assert sorted(d for _, d in kernel.basis) == [-1, 0]


def test_check_f1_failure_names_degree(qq):
    # proper graded subspace inclusion: fails in the missing degree
    small = nilpotent_category(qq, ())
    big = nilpotent_category(qq, (("w", 2),))
    morphism = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: qq.one}},
    })
    f = AInftyFunctor.build(morphism, small, big)
    res = check_F1(f)
    assert not res.passed
    assert res.failure == (("o0", "o0"), 2)


# -- H0 ----------------------------------------------------------------------------

def test_build_h0_sq():
    cat = sq_source(QQ)
    h0 = build_h0(cat)
    assert h0.dim("o", "o") == 1        # t kills e; only [1] survives
    assert h0.unit_coords["o"] == [QQ.one]


def test_build_h0_zero_differential():
    cat = nilpotent_category(QQ, (("e", 0), ("s", 1)))
    h0 = build_h0(cat)
    assert h0.dim("o0", "o0") == 2      # degree-0 part verbatim


def test_build_h0_requires_units():
    with pytest.raises(AInftyError) as exc:
        build_h0(m3_category(QQ))
    assert "units required" in str(exc.value)


def test_h0_iso_detection():
    cat = sq_source(F5)
    h0 = build_h0(cat)
    assert h0.is_iso("o", "o", [F5.from_int(2)])
    assert not h0.is_iso("o", "o", [F5.zero])


def test_h0_functoriality_on_composite(rng):
    # in every degree present, the matrix of [g . f] on cohomology is the
    # product of the matrices of [g] and [f]
    base = nilpotent_category(F5, (("a", -1), ("e", 0)))
    g = doubled_object_functor(base)            # doubled -> base
    doubled = g.source
    from helpers import inclusion_functor, point_category
    for f in (inclusion_functor(point_category(F5), doubled, "y1"),
              twisted_functor(AInftyFunctor.identity(doubled), rng,
                              max_arity=2, density=0.5)):
        comp = g.compose(f)
        for x in f.source.objects:
            for y in f.source.objects:
                fx, fy = f.object_map[x], f.object_map[y]
                cohs = (f.source.pair_cohomology(x, y),
                        doubled.pair_cohomology(fx, fy),
                        base.pair_cohomology(g.object_map[fx], g.object_map[fy]))
                for d in sorted(set().union(*(c.dims for c in cohs))):
                    m_f = cohomology_matrix(f, x, y, d)
                    m_g = cohomology_matrix(g, fx, fy, d)
                    m_c = cohomology_matrix(comp, x, y, d)
                    cols = cohs[0].dims.get(d, 0)
                    prod = [[sum((F5.mul(m_g[i][k], m_f[k][j])
                                  for k in range(len(m_f))), start=F5.zero) % 5
                             for j in range(cols)]
                            for i in range(len(m_g))]
                    assert m_c == prod, (x, y, d)


def test_f1_and_pair_cohomology_computed_once():
    f = sq_functor(QQ)
    assert check_F1(f) is check_F1(f)
    cat = f.source
    assert cat.pair_cohomology("o", "o") is cat.pair_cohomology("o", "o")
    # [F1]'s H0 matrix: F2, QE and unit lifting read one per key
    assert cohomology_matrix(f, "o", "o", 0) is cohomology_matrix(f, "o", "o", 0)
    # the memos are not part of the value
    assert f == sq_functor(QQ)


def test_arity1_iso_matches_rank_reference():
    base = nilpotent_category(F5, (("e", 0),))
    small, big = nilpotent_category(QQ, ()), nilpotent_category(QQ, (("w", 2),))
    not_surjective = AInftyFunctor.build(
        FormalMorphism(small.quiver, big.quiver, {"o0": "o0"},
                       {(1, ("o0", "o0")): {(0,): {0: QQ.one}}}), small, big)
    from helpers import inclusion_functor, random_f1_functor
    functors = [
        AInftyFunctor.identity(sq_source(QQ)),
        sq_functor(QQ),
        doubled_object_functor(base),
        to_terminal(base, terminal_category(F5)),
        inclusion_functor(point_category(F5), base, "o0"),
        random_f1_functor(random.Random(3), QQ),
        random_f1_functor(random.Random(4), F5),
        not_surjective,
    ]
    verdicts = [_arity1_iso_everywhere(f) for f in functors]
    assert verdicts == [arity1_iso_by_rank(f) for f in functors]
    assert verdicts[0] and not all(verdicts)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=20, deadline=None)
def test_h0_laws_hold_by_construction(seed, rational):
    # build_h0 checks no law on classes: u2 and the arity-3 relation imply
    # them, as the basis-class reference confirms on random unital
    # categories, DG and twisted to nonzero m3
    rng = random.Random(seed)
    cat = random_dg_category(rng, QQ if rational else F5, rng.randint(1, 2), 2)
    u = random_diffeo(rng, cat.quiver, max_arity=3, unital_for=cat.units)
    for c in (cat, twist_structure(cat, u, 3)):
        assert h0_basis_law_failures(c.h0()) == []


def _quasi_isomorphic_pair(fld):
    """c0 is two degree-0 lines, c1 the same plus an acyclic pair: every
    H0 hom is 2 x 2 matrices, with isomorphisms between c0 and c1."""
    complexes = {"c0": (("v0", 0), ("v1", 0)),
                 "c1": (("v0", 0), ("v1", 0), ("a", -1), ("b", 0))}
    return endo_complex_category(fld, complexes, {"c0": {}, "c1": {2: 3}})


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=15, deadline=None)
def test_h0_tables_match_class_vector_reference(seed, rational):
    # table-based is_iso, and the order of isos, equal the path that
    # builds class vectors and evaluates m2 on them; random strictly
    # unital H0s with two objects and a hom of dimension >= 2: random DG,
    # twisted to nonzero m3, and a pair of isomorphic objects
    rng = random.Random(seed)
    fld = QQ if rational else F5
    scalars = [fld.from_int(k) for k in (-2, -1, 0, 1, 2)]
    scalars.append(fld.inv(fld.from_int(2)))
    pairs = list(itertools.product(("c0", "c1"), repeat=2))
    cat = random_dg_category(rng, fld, 2, 2)
    while max(cat.h0().dim(x, y) for x, y in pairs) < 2:
        cat = random_dg_category(rng, fld, 2, 2)
    u = random_diffeo(rng, cat.quiver, max_arity=3, unital_for=cat.units)
    for c in (cat, twist_structure(cat, u, 3), _quasi_isomorphic_pair(fld)):
        h0 = c.h0()

        def classes(x, y):
            d = h0.dim(x, y)
            basis = [[fld.one if j == i else fld.zero for j in range(d)]
                     for i in range(d)]
            return basis + [[rng.choice(scalars) for _ in range(d)] for _ in range(3)]
        for x, y in pairs:
            units = [list(h0.unit_coords[x])] if x == y else []
            for f in classes(x, y) + units:
                assert h0.is_iso(x, y, f) == h0_is_iso_by_classes(h0, x, y, f)
            if not rational and h0.dim(x, y) <= 3:
                every = map(list, itertools.product(list(fld.elements()),
                                                    repeat=h0.dim(x, y)))
                want = [f for f in every if h0_is_iso_by_classes(h0, x, y, f)]
                # a partial enumeration first, then two calls that replay it
                next(h0.isos(x, y), None)
                assert list(h0.isos(x, y)) == list(h0.isos(x, y)) == want


def _degree_zero_algebra(fld, products):
    """One object with basis 1, a, b in degree 0 and unit 1; m2 is the unit
    laws plus `products`, (g, f) -> g.f by basis index; certified to
    arity 2 only, which is not total."""
    sp = GradedSpace((("1", 0), ("a", 0), ("b", 0)))
    q = GradedQuiver(fld, ("o",), {("o", "o"): sp})
    m2 = {(i, j): {j if i == 0 else i: fld.one}
          for i in range(3) for j in range(3) if 0 in (i, j)}
    m2.update({k: {v: fld.one} for k, v in products.items()})
    return AInftyCategory.build(q, {(2, ("o",) * 3): m2},
                                units={"o": {0: fld.one}}, max_arity=2)


def test_h0_certifies_arity_three_below_it():
    # a.a = b and b.a = a: (a.a).a = a but a.(a.a) = a.b = 0
    bad = _degree_zero_algebra(F5, {(1, 1): 2, (2, 1): 1})
    assert bad.arity_bound == 2 and not bad.total
    with pytest.raises(StructureDefectError) as exc:
        bad.h0()
    assert exc.value.witness[0] == 3
    # a.a = b and every other product of a and b zero: associative
    good = _degree_zero_algebra(F5, {(1, 1): 2})
    assert good.arity_bound == 2 and not good.total
    assert good.h0().dim("o", "o") == 3
    assert h0_basis_law_failures(good.h0()) == []


# -- isofibration ------------------------------------------------------------------

def test_isofibration_identity():
    cat = sq_source(QQ)
    rep = check_isofibration(AInftyFunctor.identity(cat))
    assert rep.passed


def test_isofibration_sq_over_f5():
    rep = check_isofibration(sq_functor(F5))
    assert rep.passed and rep.details["method"] == "enumeration"


def test_isofibration_unlifted_cross_iso_fails():
    base = point_category(F5)
    doubled = doubled_object_functor(base).source
    # include the point onto the first copy: the iso y1 ~ y2 has no lift
    morphism = FormalMorphism(base.quiver, doubled.quiver, {"o0": "y1"}, {
        (1, ("o0", "o0")): {(0,): {0: F5.one}},
    })
    f = AInftyFunctor.build(morphism, base, doubled)
    rep = check_isofibration(f)
    assert rep.verdict == "fail"
    assert any("no lift" in w for w in rep.witnesses)


def test_isofibration_rationals_undecided_without_certificates():
    rep = check_isofibration(sq_functor(QQ))
    assert rep.verdict == "undecided"


def test_isofibration_into_terminal_category():
    # every functor into the terminal category is an isofibration: its one
    # iso 0 = 1_* lifts to 1_o, though the H0 matrix into H0(*,*) = 0 has
    # no rows to carry its dim H0(o,o) columns
    rep = check_isofibration(to_terminal(sq_source(F5), terminal_category(F5)))
    assert rep.verdict == "pass" and rep.details["method"] == "enumeration"


def test_isofibration_into_terminal_category_by_certificate():
    src = sq_source(QQ)
    f = to_terminal(src, terminal_category(QQ))
    cert = IsoLiftCertificate("o", "*", {}, "o", src.unit_vec("o"))
    assert check_isofibration(f, [cert]).verdict == "pass"


def _f2_instances(rng, fld):
    """Functors of every shape the F2 classifier meets: an F1 functor, a
    functor into its target, a doubled collapse, point inclusions, and
    composites with the functor to the terminal category."""
    f = random_f1_functor(rng, fld, require_f2=False)
    point = point_category(fld)
    doubled = doubled_object_functor(
        nilpotent_category(fld, rng.choice([(), (("e", 0),), (("a", -1),)])))
    yield f
    yield random_g_functor(rng, f.target)
    yield doubled
    for target in (f.source, f.target, doubled.source):
        yield inclusion_functor(point, target, rng.choice(target.objects))
    term = terminal_category(fld)
    yield to_terminal(f.target, term).compose(f)
    yield to_terminal(doubled.target, term).compose(doubled)


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
@settings(max_examples=30, deadline=None)
def test_isofibration_matches_enumeration(seed, p):
    # the first-iso rule under unit lifting, the dimension pre-filter and the
    # enumeration fallback give the verdict, witnesses and details of trying
    # every iso class and every lift
    for f in _f2_instances(random.Random(seed), Field.prime(p)):
        rep, want = check_isofibration(f), isofibration_by_enumeration(f)
        assert (rep.verdict, rep.witnesses, rep.details) == (
            want.verdict, want.witnesses, want.details)


@pytest.mark.parametrize("p, verdict", [(2, "pass"), (3, "fail")])
def test_isofibration_into_a_product_of_fields_enumerates(p, verdict):
    # the point onto an object with H0 End = k x k: [F1] is not onto, so
    # unit lifting does not apply.  Over F_2 the only unit is (1, 1); over
    # F_3 the first iso is the unit, which lifts, and a later one does not
    fld = Field.prime(p)
    f = inclusion_functor(point_category(fld), idempotent_category(fld), "o")
    h0t = f.target.h0()
    assert not _units_lift(f, f.source.h0(), h0t, "o0")
    assert next(h0t.isos("o", "o")) == h0t.unit_coords["o"]
    rep = check_isofibration(f)
    want = isofibration_by_enumeration(f)
    assert rep.verdict == want.verdict == verdict
    assert rep.witnesses == want.witnesses and rep.details == want.details


def test_isofibration_below_arity_two_enumerates():
    # F1: 1 -> 1, a -> 1 + e, b -> 0 from a local algebra onto End = k x k
    # over F_3 is onto and unital on H0 but not multiplicative, which only
    # F's arity-2 equation would give; certified to arity 1, F2 is decided
    # by enumeration: the unit lifts, the unit 1 + e does not
    fld = Field.prime(3)
    src, tgt = _degree_zero_algebra(fld, {}), idempotent_category(fld)
    morphism = FormalMorphism(src.quiver, tgt.quiver, {"o": "o"}, {
        (1, ("o", "o")): {(0,): {0: fld.one}, (1,): {0: fld.one, 1: fld.one}},
    })
    f = AInftyFunctor.build(morphism, src, tgt, max_arity=1)
    assert f.arity_bound == 1 and not f.total
    h0t = tgt.h0()
    assert not _units_lift(f, src.h0(), h0t, "o")
    assert next(h0t.isos("o", "o")) == h0t.unit_coords["o"]
    rep, want = check_isofibration(f), isofibration_by_enumeration(f)
    assert rep.verdict == want.verdict == "fail"
    assert rep.witnesses == want.witnesses and rep.details == want.details


def _counted_is_iso(monkeypatch):
    calls = []
    real = H0Category.is_iso

    def counted(self, x, y, f):
        calls.append((x, y))
        return real(self, x, y, f)
    monkeypatch.setattr(H0Category, "is_iso", counted)
    return calls


def test_isofibration_work_is_one_lift_per_pair(monkeypatch):
    # under unit lifting each (x, b) tries the classes of H0(F x, b) up to
    # its first iso, then that iso's lift candidates; enumerating every iso
    # makes more calls than this bound on both functors
    base = nilpotent_category(F5, (("e", 0),))
    elements = list(F5.elements())
    for f in (sq_functor(F5), doubled_object_functor(base)):
        h0s, h0t = f.source.h0(), f.target.h0()
        bound = 0
        for x in f.source.objects:
            assert _units_lift(f, h0s, h0t, x)
            px = f.object_map[x]
            for b in f.target.objects:
                every = itertools.product(elements, repeat=h0t.dim(px, b))
                tried = 0
                for c in map(list, every):
                    tried += 1
                    if h0_is_iso_by_classes(h0t, px, b, c):
                        break
                bound += tried
                for a in f.source.objects:
                    if f.object_map[a] == b:
                        mat = cohomology_matrix(f, x, a, 0)
                        bound += 5 ** (h0s.dim(x, a) - len(rref(F5, mat)[1]))
        # a context of its own: undoing the whole fixture would unbind the
        # oracles conftest.py binds for the rest of the test
        with monkeypatch.context() as mp:
            calls = _counted_is_iso(mp)
            assert check_isofibration(f).verdict == "pass"
            assert 0 < len(calls) <= bound


@pytest.mark.parametrize("fld", [QQ, F5], ids=["Q", "F5"])
def test_one_sided_inverse_is_not_an_iso(fld):
    # x = k is a retract of y = k^2: the inclusion 0>0 has the projection as
    # a left inverse, [m2(g, f)] = 1_x, but no right one; is_iso refuses it
    # by dimension (End y is M_2(k)), where a left-inverse solve would not
    cat = endo_complex_category(fld, {"x": (("a", 0),),
                                      "y": (("b", 0), ("c", 0))}, {})
    h0 = cat.h0()
    dims = [h0.dim(s, t) for s, t in (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"))]
    assert dims == [1, 4, 2, 2]
    f = [fld.one, fld.zero]
    assert h0.table("x", "y", "x")[0][0] == h0.unit_coords["x"]
    assert not h0.is_iso("x", "y", f)
    assert h0.is_iso("y", "y", h0.unit_coords["y"])


def test_isos_skip_homs_whose_dimensions_differ(monkeypatch):
    # dim H0(o0, o0) = 2 (1 and a) but dim H0(o0, o1) = 1: no class is tried
    h0 = nilpotent_category(F5, (("a", 0),), n_objects=2).h0()
    assert (h0.dim("o0", "o0"), h0.dim("o0", "o1")) == (2, 1)
    calls = _counted_is_iso(monkeypatch)
    assert list(h0.isos("o0", "o1")) == [] and list(h0.isos("o1", "o0")) == []
    assert calls == []
    assert list(h0.isos("o0", "o0")) and calls


# -- quasi-equivalence and kernels ----------------------------------------------------

def test_qe_identity():
    cat = sq_source(QQ)
    rep = check_quasi_equivalence(AInftyFunctor.identity(cat))
    assert rep.verdict == "pass"


def test_qe_sq():
    rep = check_quasi_equivalence(sq_functor(QQ))
    assert rep.verdict == "pass"   # kernel {e, t} is acyclic; H0 objects covered


def test_qe_collapse_fails_with_witness():
    a = nilpotent_category(QQ, (("e", 0),))
    b = point_category(QQ)
    morphism = FormalMorphism(a.quiver, b.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    f = AInftyFunctor.build(morphism, a, b)
    rep = check_quasi_equivalence(f)
    assert rep.verdict == "fail"
    assert any("H^0" in w for w in rep.hom_level.witnesses)


def test_qe_witness_when_the_induced_map_is_not_an_iso():
    # the zero endofunctor of m2(e, e) = e: H^0(o, o) has dimension 1 on
    # both sides, and the map between them is 0
    q = GradedQuiver(QQ, ("o",), {("o", "o"): GradedSpace((("e", 0),))})
    cat = AInftyCategory.build(q, {(2, ("o",) * 3): {(0, 0): {0: QQ.one}}})
    zero = AInftyFunctor.build(FormalMorphism(q, q, {"o": "o"}, {}), cat, cat)
    rep = check_quasi_equivalence(zero)
    assert rep.hom_level.witnesses == ["H^0(o,o): induced map is not an isomorphism"]


@pytest.mark.parametrize("fld, cert, verdict", [
    (Field.prime(3), None, "pass"),
    (QQ, "acert\nessential F ; y2 ; o0 ; 1 1\n", "pass"),
    (QQ, None, "undecided"),
], ids=["F3", "Q-certificate", "Q-no-certificate"])
def test_essential_surjectivity_onto_a_missed_isomorphic_object(fld, cert, verdict):
    # the point onto y1 of the doubled point, whose y2 is isomorphic to y1
    point = point_category(fld)
    f = inclusion_functor(point, doubled_object_functor(point).source, "y1")
    certs = parse_certificates(cert).resolve_essentials("F", f) if cert else None
    assert check_quasi_equivalence(f, certs).essential.verdict == verdict


def test_essential_surjectivity_fails_onto_a_non_isomorphic_object():
    fld = Field.prime(3)
    point = point_category(fld)
    f = inclusion_functor(point, nilpotent_category(fld, (), n_objects=2), "o0")
    rep = check_quasi_equivalence(f).essential
    assert rep.verdict == "fail"
    assert rep.witnesses == ["no H0 isomorphism onto o1"]


def test_kernel_acyclicity_identity_vacuous():
    cat = sq_source(QQ)
    rep = kernel_acyclicity(AInftyFunctor.identity(cat))
    assert rep.passed


def test_kernel_acyclicity_sq():
    assert kernel_acyclicity(sq_functor(QQ)).passed


def test_kernel_not_acyclic_witness():
    # kill a closed non-exact generator: kernel has surviving cohomology
    a = nilpotent_category(QQ, (("e", 0),))
    b = point_category(QQ)
    morphism = FormalMorphism(a.quiver, b.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: QQ.one}},
    })
    f = AInftyFunctor.build(morphism, a, b)
    rep = kernel_acyclicity(f)
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_kernel_acyclicity_requires_f1(qq):
    small = nilpotent_category(qq, ())
    big = nilpotent_category(qq, (("w", 2),))
    morphism = FormalMorphism(small.quiver, big.quiver, {"o0": "o0"}, {
        (1, ("o0", "o0")): {(0,): {0: qq.one}},
    })
    f = AInftyFunctor.build(morphism, small, big)
    with pytest.raises(AInftyError):
        kernel_acyclicity(f)


def _readme_categories(fld_record: str, minus_one: str):
    """The README's a.acat and b.acat under another field record."""
    return [parse_category((GOLDEN / name).read_text()
                           .replace("field Fp 5", fld_record)
                           .replace("t 4", f"t {minus_one}"), name)
            for name in ("a.acat", "b.acat")]


def test_classifiers_certify_f1_as_a_chain_map():
    # the README F with F1(e) = 1' breaks F's arity-1 equation, which a
    # bound of 0 leaves uncertified: each classifier certifies it where it
    # first reads F1 as a chain map, and raises the defect build names
    a, b = _readme_categories("field Fp 5", "4")
    morphism = FormalMorphism(a.quiver, b.quiver, {"o": "p"}, {
        (1, ("o", "o")): {(0,): {0: 1}, (1,): {0: 1}}})
    witness = (1, ("o", "o"), (2,))
    with pytest.raises(FunctorDefectError) as exc:
        AInftyFunctor.build(morphism, a, b)
    assert exc.value.witness == witness
    for classify in (kernel_acyclicity, check_quasi_equivalence, check_isofibration):
        with pytest.raises(FunctorDefectError) as exc:
            classify(AInftyFunctor.build(morphism, a, b, max_arity=0))
        assert exc.value.witness == witness
    # over Q with certificates and two objects over one, F1 is first read
    # by the lift check: the unit lifts 1' only when F1 is a chain map
    a, b = _readme_categories("field Q", "-1")
    doubled = doubled_object_functor(a).source
    morphism = FormalMorphism(doubled.quiver, b.quiver, {"y1": "p", "y2": "p"}, {
        (1, pair): {(0,): {0: 1}, (1,): {0: 1}} for pair in doubled.quiver.hom})
    f = AInftyFunctor.build(morphism, doubled, b, max_arity=0)
    cert = IsoLiftCertificate("y1", "p", {0: 1}, "y1", doubled.unit_vec("y1"))
    with pytest.raises(FunctorDefectError) as exc:
        check_isofibration(f, [cert])
    assert exc.value.witness[:2] == (1, ("y1", "y1"))


def test_qe_with_f1_implies_kernel_acyclic(rng):
    # tested implication on extension fixtures
    for seed in range(4):
        r = random.Random(seed)
        base = nilpotent_category(QQ, (("e", 0), ("s", -1)), d_of={"s": "e"})
        ext, f = square_zero_extension(QQ, base, acyclic=True)
        res = check_F1(f)
        qe = check_quasi_equivalence(f)
        assert res.passed
        if qe.hom_level.passed:
            assert kernel_acyclicity(f).passed


def test_extension_with_non_acyclic_kernel():
    base = nilpotent_category(QQ, (("e", 0),))
    ext, f = square_zero_extension(QQ, base, acyclic=False)
    assert check_F1(f).passed
    assert kernel_acyclicity(f).verdict == "fail"
    assert check_quasi_equivalence(f).hom_level.verdict == "fail"


# -- closure axioms of a category of fibrant objects ----------------------------
# Brown's axioms, with F1 functors as fibrations and quasi-equivalences as
# weak equivalences, on the seeded F1 generator over F_3 and F_5

def _fibration(functor: AInftyFunctor) -> bool:
    return (check_F1(functor).passed
            and check_isofibration(functor).verdict == "pass")


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]))
@settings(max_examples=10, deadline=None)
def test_f1_and_f2_closed_under_composition(seed, p):
    # after the functor to the terminal category, and before a twisted
    # identity, whose composite F2 is decided by enumeration
    rng = random.Random(seed)
    fld = Field.prime(p)
    f = random_f1_functor(rng, fld)
    term = to_terminal(f.target, terminal_category(fld))
    twisted = twisted_functor(AInftyFunctor.identity(f.source), rng,
                              max_arity=2, density=0.4)
    assert _fibration(f) and _fibration(term) and _fibration(twisted)
    assert _fibration(term.compose(f))
    after_twist = f.compose(twisted)
    assert not _arity1_iso_everywhere(after_twist)
    assert _fibration(after_twist)


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]))
@settings(max_examples=10, deadline=None)
def test_identities_are_acyclic_fibrations(seed, p):
    rng = random.Random(seed)
    f = random_f1_functor(rng, Field.prime(p))
    twisted = twisted_functor(AInftyFunctor.identity(f.source), rng,
                              max_arity=2, density=0.4)
    for cat in (f.source, f.target, twisted.source):
        ident = AInftyFunctor.identity(cat)
        assert _fibration(ident)
        assert check_quasi_equivalence(ident).verdict == "pass"
        assert kernel_acyclicity(ident).verdict == "pass"


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]))
@settings(max_examples=10, deadline=None)
def test_every_category_reaches_the_terminal_by_f1(seed, p):
    rng = random.Random(seed)
    fld = Field.prime(p)
    f = random_f1_functor(rng, fld)
    cats = (f.source, f.target, random_dg_category(rng, fld, 2, 2),
            point_category(fld), terminal_category(fld))
    for cat in cats:
        assert check_F1(to_terminal(cat, terminal_category(fld))).passed
