from __future__ import annotations

import copy
import dataclasses
import pathlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfty import quiver
from ainfty.core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    StructureDefectError,
    structure_defect,
)
from ainfty.documents import parse_category
from ainfty.fields import Field
from ainfty.linear import GradedSpace
from ainfty.quiver import (
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    QuiverError,
    compose_formal,
    compose_prenatural,
    identity_formal,
    l_compose,
    r_compose,
)

from helpers import (
    bar_expand_word,
    coderivation_expand_word,
    cyclic_garbage,
    double_sum_defect,
    engine_defect_map,
    eval_basis,
    insertion_expand_word,
    outer_after_insertion,
    outer_after_words,
    random_flat_prenatural,
    random_formal_morphism,
    random_prenatural,
    random_dg_category,
    random_diffeo,
    twist_structure,
)

QQ = Field.rationals()
F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F2": Field.prime(2), "F3": Field.prime(3), "F5": F5}


def _nonzero(fam):
    """fam without the coefficients that vanish in its field (the random
    families draw from small integers, and 2 or 3 is zero in F_2 or F_3)."""
    comps = {key: {it: {oi: c for oi, c in v.items() if c} for it, v in table.items()}
             for key, table in fam.components.items()}
    return dataclasses.replace(fam, components=comps)


def small_quiver(rng: random.Random, fld=QQ, n_objects=1, max_dim=3):
    objects = tuple(f"x{i}" for i in range(n_objects))
    hom = {}
    for a in objects:
        for b in objects:
            dim = rng.randint(1, max_dim)
            hom[(a, b)] = GradedSpace(
                tuple((f"{a}{b}{i}", rng.randint(-2, 2)) for i in range(dim)))
    return GradedQuiver(fld, objects, hom)


def test_identity_formal_one_object(qq):
    sp = GradedSpace((("1", 0),))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    assert ident.components == {(1, ("o", "o")): {(0,): {0: qq.one}}}


def test_identity_formal_empty_quiver(qq):
    q = GradedQuiver(qq, (), {})
    ident = identity_formal(q)
    assert ident.components == {}


def test_constructors_own_the_sparse_invariant(qq):
    # empty vectors and tables are dropped at construction, into dicts of
    # the family's own: filling in the passed dict afterwards changes nothing
    sp = GradedSpace((("a", 0), ("b", 1)))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    one, two = (1, ("o", "o")), (2, ("o", "o", "o"))
    clean = {one: {(0,): {0: qq.one}}}
    for make in (lambda c: FormalMorphism(q, q, {"o": "o"}, c),
                 lambda c: Prenatural(ident, ident, 1, c)):
        comps = {one: {(0,): {0: qq.one}, (1,): {}}, two: {}}
        fam = make(comps)
        assert fam == make(copy.deepcopy(clean)) and fam.components == clean
        comps[one][(1,)] = {1: qq.one}
        comps[two] = {(0, 0): {0: qq.one}}
        assert fam.components == clean
    assert not Prenatural(ident, ident, 2, {two: {(0, 0): {}}}).components


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_unit_laws(seed):
    rng = random.Random(seed)
    q1 = small_quiver(rng)
    q2 = small_quiver(rng)
    f = random_formal_morphism(rng, q1, q2, max_arity=3)
    bound = 4
    assert compose_formal(identity_formal(q2), f, bound) == f
    assert compose_formal(f, identity_formal(q1), bound) == f


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_compose_formal_associative(seed):
    rng = random.Random(seed)
    q1, q2, q3, q4 = (small_quiver(rng, max_dim=2) for _ in range(4))
    f = random_formal_morphism(rng, q1, q2, max_arity=2)
    g = random_formal_morphism(rng, q2, q3, max_arity=2)
    h = random_formal_morphism(rng, q3, q4, max_arity=2)
    bound = 4
    left = compose_formal(h, compose_formal(g, f, bound), bound)
    right = compose_formal(compose_formal(h, g, bound), f, bound)
    assert left == right


def test_compose_formal_arity_one_is_plain_composition(rng):
    q1, q2, q3 = (small_quiver(rng) for _ in range(3))
    f = random_formal_morphism(rng, q1, q2, max_arity=1)
    g = random_formal_morphism(rng, q2, q3, max_arity=1)
    gf = compose_formal(g, f, 3)
    for (n, objs) in gf.components:
        assert n == 1


def test_compose_formal_strict_right_factor(rng):
    # f strict: (g.f)^n = g^n (f^1 x ... x f^1)
    q1, q2, q3 = (small_quiver(rng) for _ in range(3))
    f = random_formal_morphism(rng, q1, q2, max_arity=1, density=0.9)
    g = random_formal_morphism(rng, q2, q3, max_arity=3)
    gf = compose_formal(g, f, 3)
    from ainfty.quiver import eval_multilinear
    for (n, objs), table in gf.components.items():
        for in_t, vec in table.items():
            imgs = []
            for i, b in enumerate(in_t):
                pair = (objs[n - 1 - i], objs[n - i])
                imgs.append(eval_basis(f, 1, pair, (b,)))
            fobjs = tuple(f.object_map[x] for x in objs)
            want = eval_multilinear(g, n, fobjs, imgs)
            assert vec == want


def test_compose_formal_arity_two_partitions(rng):
    # (g.f)^2 = g^1 f^2 + g^2 (f^1 x f^1), frozen on a 1-dim example
    sp = GradedSpace((("a", 0),))
    q = GradedQuiver(QQ, ("o",), {("o", "o"): sp})
    two = QQ.from_int(2)
    three = QQ.from_int(3)
    f = FormalMorphism(q, q, {"o": "o"}, {
        (1, ("o", "o")): {(0,): {0: two}},
        (2, ("o", "o", "o")): {(0, 0): {0: QQ.from_int(-1)}},
    })
    g = FormalMorphism(q, q, {"o": "o"}, {
        (1, ("o", "o")): {(0,): {0: three}},
        (2, ("o", "o", "o")): {(0, 0): {0: QQ.from_int(5)}},
    })
    gf = compose_formal(g, f, 2)
    # g^1 f^2 = 3*(-1) = -3; g^2(f^1, f^1) = 5*2*2 = 20; total 17
    assert gf.components[(2, ("o", "o", "o"))][(0, 0)] == {0: QQ.from_int(17)}


def test_quiver_mismatch_raises(rng):
    q1 = small_quiver(rng)
    q2 = small_quiver(rng, n_objects=2)
    f = random_formal_morphism(rng, q1, q1, max_arity=1)
    g = random_formal_morphism(rng, q2, q2, max_arity=1)
    with pytest.raises(QuiverError):
        compose_formal(g, f, 2)


# -- the sign anchor ----------------------------------------------------------

@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(FIELDS)))
@settings(max_examples=30, deadline=None)
def test_sign_anchor_double_sum(seed, field):
    """compose_prenatural(m, m) equals the explicit double sum, term by term,
    in characteristic 0, 2 (where the sign vanishes), 3 and 5."""
    rng = random.Random(seed)
    q = small_quiver(rng, FIELDS[field], n_objects=rng.randint(1, 2))
    m = random_flat_prenatural(rng, q, degree=2, max_arity=3)
    defect = compose_prenatural(m, m, 5)
    assert engine_defect_map(defect) == double_sum_defect(q, m, 5)


def stepped_quiver(rng: random.Random, fld, n_objects):
    """Every hom has one or two basis elements in consecutive degrees, so
    random families of any degree mostly find outputs."""
    objects = tuple(f"x{i}" for i in range(n_objects))
    hom = {}
    for a in objects:
        for b in objects:
            lo = rng.randint(-1, 0)
            hom[(a, b)] = GradedSpace(tuple(
                (f"{a}{b}{i}", lo + i) for i in range(rng.randint(1, 2))))
    return GradedQuiver(fld, objects, hom)


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(FIELDS)), st.integers(0, 3),
       st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_identity_endpoint_double_sum_matches_oracles(seed, field, degree, bound):
    """On identity endpoints compose_prenatural and l_compose are the
    classical double sum: flat insertions of either parity, words up to
    arity 5 cut at bounds 1..4, checked against the dense oracles over Q
    and over F_2, F_3 and F_5, where sums cancel often."""
    rng = random.Random(seed)
    fld = FIELDS[field]
    q = stepped_quiver(rng, fld, rng.randint(1, 2))
    ident = identity_formal(q)
    t = random_flat_prenatural(rng, q, degree, 3, density=0.6)
    d = random_flat_prenatural(rng, q, rng.randint(0, 3), 3, density=0.6)
    h = random_formal_morphism(rng, q, stepped_quiver(rng, fld, 1), 3, density=0.6)
    for expand in (insertion_expand_word, coderivation_expand_word):
        def words(w):
            return expand(t, w)
        assert compose_prenatural(d, t, bound).components == outer_after_words(
            d, q, bound, words)
        assert l_compose(h, t, bound).components == outer_after_words(h, q, bound, words)
    m = random_flat_prenatural(rng, q, degree=2, max_arity=3, density=0.6)
    assert engine_defect_map(compose_prenatural(m, m, bound)) == double_sum_defect(
        q, m, bound)


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(FIELDS)), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_double_sum_stream_matches_oracles(seed, field, bound):
    """m . m one arity at a time: the arities run without a gap from 1 up
    to the bound or the last arity a word reaches, whichever comes first,
    each part is the whole sum restricted to its arity, and the merged
    parts are compose_prenatural and the explicit double sum.  With up to
    three objects a basis index recurs across hom pairs, so a part decoded
    to the wrong path or inputs shows."""
    rng = random.Random(seed)
    fld = FIELDS[field]
    q = stepped_quiver(rng, fld, rng.randint(1, 3))
    ident = identity_formal(q)
    m = random_flat_prenatural(rng, q, degree=2, max_arity=3, density=0.6)
    whole = compose_prenatural(m, m, bound)
    parts = list(quiver.double_sum(m, bound))
    widest = max((n for n, _ in m.components), default=0)
    assert [n for n, _ in parts] == list(range(1, min(bound, 2 * widest - 1) + 1))
    merged = {}
    for n, part in parts:
        assert part == {key: tb for key, tb in whole.components.items()
                        if key[0] == n}
        merged.update(part)
    assert merged == whole.components
    mm = Prenatural(ident, ident, 3, merged)
    assert engine_defect_map(mm) == double_sum_defect(q, m, bound)


def test_validate_range_checks_input_indices(qq):
    # a negative index would read the last basis element's degree, and one
    # past the end would escape as a bare IndexError
    q = GradedQuiver(qq, ("o",), {("o", "o"): GradedSpace((("a", 0), ("b", 1)))})
    for bad in (-1, 2):
        f = FormalMorphism(q, q, {"o": "o"}, {(1, ("o", "o")): {(bad,): {1: qq.one}}})
        with pytest.raises(QuiverError, match="input index outside the source hom space"):
            f.validate()


def test_structure_defect_makes_no_invert_call(monkeypatch):
    # the double sum indexes the structure in its own pass, and m . m keeps
    # m's own endpoints, so the block sweep's index is never built
    golden = pathlib.Path(__file__).parent / "golden" / "readme" / "a.acat"
    cat = parse_category(golden.read_text(), "a.acat")

    def no_invert(fam):
        raise AssertionError("_invert called")
    monkeypatch.setattr(quiver, "_invert", no_invert)
    assert not structure_defect(cat.structure, cat.arity_bound).components
    assert [n for n, _ in quiver.double_sum(cat.structure, 3)] == [1, 2, 3]


def test_double_sum_stops_at_the_last_arity_a_word_reaches():
    # a word of m . m has arity at most widest - 1 + widest, so a bound of
    # 10**9 yields the same parts as that arity, and no more
    golden = pathlib.Path(__file__).parent / "golden" / "readme" / "a.acat"
    m = parse_category(golden.read_text(), "a.acat").structure
    widest = max(n for n, _ in m.components)
    parts = list(quiver.double_sum(m, 10 ** 9))
    assert len(parts) <= widest + widest
    assert parts == list(quiver.double_sum(m, 2 * widest - 1))
    assert [n for n, _ in parts] == list(range(1, 2 * widest))


def test_stream_reads_each_arity_of_the_structure_once(monkeypatch):
    # build on the README category tokenizes each arity of m once, for its
    # slots and its insertions together; a structure refused at arity 2
    # (m2(t, 1) doubled, with an m3 past it) is never read at arity 3
    golden = pathlib.Path(__file__).parent / "golden" / "readme" / "a.acat"
    cat = parse_category(golden.read_text(), "a.acat")
    read = []
    token_pass = quiver._token_pass

    def counted(r, rows, *args):
        read.append(r)
        return token_pass(r, rows, *args)
    monkeypatch.setattr(quiver, "_token_pass", counted)
    AInftyCategory.build(cat.quiver, cat.structure.components)
    assert read and len(read) == len(set(read))
    sp = cat.quiver.space("o", "o")
    e, t, one = sp.index("e"), sp.index("t"), sp.index("1")
    comps = {key: dict(table) for key, table in cat.structure.components.items()}
    comps[(2, ("o",) * 3)][(t, one)] = {t: 2}
    comps[(3, ("o",) * 4)] = {(e, e, e): {t: 1}}
    read.clear()
    with pytest.raises(StructureDefectError) as exc:
        AInftyCategory.build(cat.quiver, comps)
    assert exc.value.witness[0] == 2
    assert read == [1, 2]


def test_a_quiver_is_numbered_once():
    # one category build and two functor builds over one quiver number its
    # basis once, on first use, and keep that numbering; it takes no part
    # in equality
    readme = pathlib.Path(__file__).parent / "golden" / "readme"
    a = parse_category((readme / "a.acat").read_text(), "a.acat")
    b = parse_category((readme / "b.acat").read_text(), "b.acat")
    q = GradedQuiver(a.fld, a.objects, dict(a.quiver.hom))
    assert q._numbering is None
    cat = AInftyCategory.build(q, a.structure.components)
    numbering = q._numbering
    assert numbering is not None
    target = b.quiver._numbering
    assert target is not None
    comps = {(1, ("o", "o")): {(0,): {0: 1}}}        # the README functor
    for _ in range(2):
        AInftyFunctor.build(FormalMorphism(q, b.quiver, {"o": "p"}, comps), cat, b)
        assert q._numbering is numbering and b.quiver._numbering is target
    fresh = GradedQuiver(a.fld, a.objects, dict(a.quiver.hom))
    assert fresh == q and fresh._numbering is None
    assert quiver._tokens(fresh) == numbering


def test_identity_operand_composes_without_the_engine(monkeypatch):
    rng = random.Random(3)
    q1, q2 = (small_quiver(rng, n_objects=2, max_dim=2) for _ in range(2))
    g = random_formal_morphism(rng, q1, q2, max_arity=3, density=0.9)
    assert any(n == 3 for n, _ in g.components)
    kept = copy.deepcopy({key: t for key, t in g.components.items() if key[0] <= 2})
    before = copy.deepcopy(g.components)

    def no_engine(*args):
        raise AssertionError("_expand called")
    monkeypatch.setattr(quiver, "_expand", no_engine)
    for composite in (lambda: compose_formal(g, identity_formal(q1), 2),
                      lambda: compose_formal(identity_formal(q2), g, 2)):
        gi = composite()
        assert gi.components == kept and gi.object_map == g.object_map
        for table in gi.components.values():
            table.clear()
        gi.components[(1, ("x0", "x0"))] = {(0,): {}}
        assert g.components == before


def test_identity_is_known_by_its_type(monkeypatch):
    # an Identity takes its quiver alone; the same data built by hand is
    # composed in full and gives the same composites, and the composite of
    # two identities is an Identity.  A prenatural is inserted only between
    # Identity values: one between hand-built identities is refused
    rng = random.Random(5)
    q = small_quiver(rng, n_objects=2, max_dim=2)
    ident = identity_formal(q)
    assert isinstance(ident, quiver.Identity)
    with pytest.raises(TypeError):
        dataclasses.replace(ident, components={})
    hand = FormalMorphism(q, q, dict(ident.object_map), copy.deepcopy(ident.components))
    assert hand == ident and not isinstance(hand, quiver.Identity)
    g = random_formal_morphism(rng, q, q, max_arity=2, density=0.9)
    m = random_flat_prenatural(rng, q, 2, 3, density=0.9)
    m_hand = Prenatural(hand, hand, 2, m.components)
    swept, summed = [], []
    expand, double = quiver._expand, quiver._add_double_sum
    monkeypatch.setattr(quiver, "_expand",
                        lambda *args: swept.append(args[0]) or expand(*args))
    # (outer, ins, max_arity): the outer is the first argument
    monkeypatch.setattr(quiver, "_add_double_sum",
                        lambda *args: summed.append(args[0]) or double(*args))
    assert compose_formal(ident, ident, 2) is ident
    assert compose_formal(g, ident, 2) == g == compose_formal(ident, g, 2)
    assert swept == []
    assert compose_formal(g, hand, 2) == g == compose_formal(hand, g, 2)
    assert [id(f) for f in swept] == [id(g), id(hand)]
    mm = compose_prenatural(m, m, 3)
    assert mm.components and compose_prenatural(m_hand, m, 3) == mm
    assert [id(t) for t in summed] == [id(m), id(m_hand)]
    for insert in (lambda: compose_prenatural(m_hand, m_hand, 3),
                   lambda: compose_prenatural(m, m_hand, 3),
                   lambda: l_compose(g, m_hand, 3),
                   lambda: quiver._expand(m, m_hand, 3)):
        with pytest.raises(QuiverError, match="between Identity endpoints"):
            insert()
    assert len(summed) == 2


def test_near_identities_are_composed_in_full(qq):
    # only the identity itself skips the sum: an arity-1 table that swaps,
    # scales or drops a basis element, or an extra arity-2 component, is
    # composed, and the composite with an invertible g is not g
    sp = GradedSpace((("a", 0), ("b", 0), ("c", -1)))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    one, two, key = qq.one, qq.from_int(2), (1, ("o", "o"))
    ident = {(i,): {i: one} for i in range(3)}
    g = FormalMorphism(q, q, {"o": "o"},
                       {key: {**ident, (1,): {0: two, 1: one}}})
    for comps in ({key: {**ident, (0,): {1: one}, (1,): {0: one}}},
                  {key: {**ident, (0,): {0: two}}},
                  {key: {(0,): {0: one}, (1,): {1: one}}},
                  {key: ident, (2, ("o",) * 3): {(0, 0): {2: one}}}):
        near = FormalMorphism(q, q, {"o": "o"}, comps)
        assert compose_formal(g, near, 2) != g
    assert compose_formal(g, identity_formal(q), 2) == g


def test_prenatural_arity_one_square(rng):
    # flat degree-2 m with only arity-1 support: (m o m)^1 = m^1 m^1
    sp = GradedSpace((("a", 0), ("b", 1), ("c", 2)))
    q = GradedQuiver(QQ, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    m = Prenatural(ident, ident, 2, {
        (1, ("o", "o")): {(0,): {1: QQ.one}, (1,): {2: QQ.from_int(3)}},
    })
    sq = compose_prenatural(m, m, 3)
    assert sq.components == {(1, ("o", "o")): {(0,): {2: QQ.from_int(3)}}}
    assert sq.degree == 3


def test_prenatural_zero_argument(rng):
    q = small_quiver(rng)
    ident = identity_formal(q)
    d = random_flat_prenatural(rng, q, degree=2, max_arity=2)
    zero = Prenatural(ident, ident, 2, {})
    assert not compose_prenatural(d, zero, 4).components
    assert not compose_prenatural(zero, d, 4).components


def test_arity_zero_key_is_refused_by_both_constructors(qq):
    # families are flat: a key of arity < 1 is a QuiverError when either
    # constructor runs, through dataclasses.replace too, even with an empty
    # table; AInftyCategory.build names curvature as an AInftyError instead
    sp = GradedSpace((("a", 0), ("b", 1), ("c", 2)))
    q = GradedQuiver(qq, ("o",), {("o", "o"): sp})
    ident = identity_formal(q)
    one = {(1, ("o", "o")): {(0,): {1: qq.one}}}
    f = FormalMorphism(q, q, {"o": "o"}, {(1, ("o", "o")): {(0,): {0: qq.one}}})
    m = Prenatural(ident, ident, 2, one)
    for key, table in (((0, ("o",)), {(): {2: qq.one}}), ((0, ("o",)), {}),
                       ((-1, ()), {(): {2: qq.one}})):
        for make in (lambda c: FormalMorphism(q, q, {"o": "o"}, c),
                     lambda c: Prenatural(ident, ident, 2, c),
                     lambda c: dataclasses.replace(f, components=c),
                     lambda c: dataclasses.replace(m, components=c)):
            with pytest.raises(QuiverError, match="families are flat"):
                make({**one, key: table})
        with pytest.raises(AInftyError, match="structures must be flat"):
            AInftyCategory.build(q, {**one, key: table})


# -- l/r composition ----------------------------------------------------------

def _setup_lr(rng, seed=None):
    if seed is not None:
        rng = random.Random(seed)
    qa = small_quiver(rng, max_dim=2)
    qb = small_quiver(rng, max_dim=2)
    qc = small_quiver(rng, max_dim=2)
    f = random_formal_morphism(rng, qa, qb, max_arity=2)
    g = random_formal_morphism(rng, qb, qc, max_arity=2)
    da = random_flat_prenatural(rng, qa, degree=2, max_arity=2)
    db = random_flat_prenatural(rng, qb, degree=2, max_arity=2)
    dc = random_flat_prenatural(rng, qc, degree=2, max_arity=2)
    return qa, qb, qc, f, g, da, db, dc


def test_l_compose_identity_unit_law(rng):
    qa = small_quiver(rng)
    d = random_flat_prenatural(rng, qa, degree=2, max_arity=3)
    assert l_compose(identity_formal(qa), d, 4) == d


def test_r_compose_identity_unit_law(rng):
    qa = small_quiver(rng)
    d = random_flat_prenatural(rng, qa, degree=2, max_arity=3)
    assert r_compose(identity_formal(qa), d, 4) == d


def test_l_compose_strict_functor_chain_rule(rng):
    # f strict, arity-n component of L_f(d) is f^1 d^n: one insertion only
    qa, qb = small_quiver(rng), small_quiver(rng)
    f = random_formal_morphism(rng, qa, qb, max_arity=1, density=0.9)
    d = random_flat_prenatural(rng, qa, degree=2, max_arity=3)
    from ainfty.quiver import eval_multilinear
    ld = l_compose(f, d, 4)
    for (n, objs), table in ld.components.items():
        for in_t, vec in table.items():
            inner = eval_basis(d, n, objs, in_t)
            want = eval_multilinear(
                f, 1, (objs[0], objs[-1]), [inner]) if inner else {}
            assert vec == want


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_law_3_r_r_composes(seed):
    _, _, _, f, g, da, db, dc = _setup_lr(None, seed)
    bound = 4
    lhs = r_compose(f, r_compose(g, dc, bound), bound)
    rhs = r_compose(compose_formal(g, f, bound), dc, bound)
    assert lhs == rhs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_law_4_l_l_composes(seed):
    # L_f(d) lies between f and f, so L_g of it is the word oracle
    qa, _, _, f, g, da, db, dc = _setup_lr(None, seed)
    bound = 4
    lhs = outer_after_insertion(g, qa, l_compose(f, da, bound), bound)
    rhs = l_compose(compose_formal(g, f, bound), da, bound)
    assert lhs == rhs.components


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_law_5_l_r_commute(seed):
    # (g . d) . f = g . (d . f), the associativity that the transport
    # (phi . m) . psi rests on; R_f(d) lies between f and f, so L_g of it
    # is the word oracle
    qa, _, _, f, g, da, db, dc = _setup_lr(None, seed)
    bound = 4
    lhs = outer_after_insertion(g, qa, r_compose(f, db, bound), bound)
    rhs = r_compose(f, l_compose(g, db, bound), bound)
    assert lhs == rhs.components


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_law_1_l_of_square(seed):
    # odd bar degree: L_f(d o d) = L_f(d) o d
    rng = random.Random(seed)
    qa = small_quiver(rng, max_dim=2)
    qb = small_quiver(rng, max_dim=2)
    f = random_formal_morphism(rng, qa, qb, max_arity=2)
    d = random_flat_prenatural(rng, qa, degree=2, max_arity=2)
    bound = 4
    lhs = l_compose(f, compose_prenatural(d, d, bound), bound)
    rhs = compose_prenatural(l_compose(f, d, bound), d, bound)
    assert lhs == rhs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_law_2_r_of_square(seed):
    # odd bar degree: R_f(d o d) = d o R_f(d)
    rng = random.Random(seed)
    qa = small_quiver(rng, max_dim=2)
    qb = small_quiver(rng, max_dim=2)
    f = random_formal_morphism(rng, qa, qb, max_arity=2)
    d = random_flat_prenatural(rng, qb, degree=2, max_arity=2)
    bound = 4
    lhs = r_compose(f, compose_prenatural(d, d, bound), bound)
    rhs = outer_after_insertion(d, qa, r_compose(f, d, bound), bound)
    assert lhs.components == rhs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_mixed_module_identity(seed):
    # d_B o L_f(d_A) = R_f(d_B) o d_A, for any degrees
    rng = random.Random(seed)
    qa = small_quiver(rng, max_dim=2)
    qb = small_quiver(rng, max_dim=2)
    f = random_formal_morphism(rng, qa, qb, max_arity=2)
    da = random_flat_prenatural(rng, qa, degree=rng.choice([1, 2, 3]), max_arity=2)
    db = random_flat_prenatural(rng, qb, degree=rng.choice([1, 2, 3]), max_arity=2)
    bound = 4
    lhs = outer_after_insertion(db, qa, l_compose(f, da, bound), bound)
    rhs = compose_prenatural(r_compose(f, db, bound), da, bound)
    assert lhs == rhs.components


def test_degree_bookkeeping_validates(rng):
    # every produced component passes the shift invariant
    for seed in range(5):
        r = random.Random(seed)
        qa = small_quiver(r, max_dim=2)
        qb = small_quiver(r, max_dim=2)
        f = random_formal_morphism(r, qa, qb, max_arity=2)
        d = random_flat_prenatural(r, qa, degree=2, max_arity=2)
        l_compose(f, d, 4).validate()
        r_compose(f, random_flat_prenatural(r, qb, 2, 2), 4).validate()
        compose_prenatural(d, d, 4).validate()
        compose_formal(f, identity_formal(qa), 4).validate()


def _differing_endpoints(rng, src, tgt):
    """Two random formal morphisms src -> tgt with one object map."""
    f = random_formal_morphism(rng, src, tgt, max_arity=2, density=0.9)
    g = random_formal_morphism(rng, src, tgt, max_arity=2, density=0.9,
                               object_map=dict(f.object_map))
    return f, g


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(FIELDS)))
@settings(max_examples=25, deadline=None)
def test_differing_endpoints_match_bar_oracle(seed, field):
    # t: f => g with f != g precomposes with k against the bar oracle, and
    # an outer d: p => q takes an insertion between identities against the
    # word oracle, keeping its own endpoints; inserting t is refused
    rng = random.Random(seed)
    q0, qa, qb, qc = (small_quiver(rng, FIELDS[field], n_objects=2, max_dim=3)
                      for _ in range(4))
    f, g = map(_nonzero, _differing_endpoints(rng, qa, qb))
    assume(f != g)
    t = _nonzero(random_prenatural(rng, f, g, rng.choice([1, 2]), 1, 2, density=0.9))
    h = _nonzero(random_formal_morphism(rng, qb, qc, max_arity=2, density=0.9))
    k = _nonzero(random_formal_morphism(rng, q0, qa, max_arity=2, density=0.9))
    p, q = map(_nonzero, _differing_endpoints(rng, qb, qc))
    d = _nonzero(random_prenatural(rng, p, q, rng.choice([1, 2]), 1, 2, density=0.9))
    ident = identity_formal(qb)
    s = _nonzero(random_prenatural(rng, ident, ident, rng.choice([1, 2]), 1, 2,
                                   density=0.9))
    bound = 3
    for insert in (lambda: l_compose(h, t, bound),
                   lambda: compose_prenatural(d, t, bound),
                   lambda: quiver._expand(h, t, bound)):
        with pytest.raises(QuiverError, match="between Identity endpoints"):
            insert()
    ds = compose_prenatural(d, s, bound)
    assert ds.components == outer_after_words(
        d, qb, bound, lambda w: insertion_expand_word(s, w))
    assert ds.frm is p and ds.to is q and ds.degree == d.degree + s.degree - 1
    rt = r_compose(k, t, bound)
    assert rt.components == outer_after_words(
        t, q0, bound, lambda w: bar_expand_word(k, w))
    assert (rt.frm, rt.to) == (compose_formal(f, k, bound), compose_formal(g, k, bound))


def test_insertion_with_outer_entries_past_the_bound():
    # h has entries of arity 4 = the bound + 1 and the bound itself, and t
    # arity-1 parts of either parity: every word of l_compose(h, t, 3) has
    # arity 1 to 3, the outer arity or more, so the entries of arity 4 add
    # nothing, and those of arity 3 take arity-1 insertions in each slot
    reached = 0
    for seed in range(12):
        rng = random.Random(seed)
        qa, qc = (stepped_quiver(rng, F5, 2) for _ in range(2))
        t = random_flat_prenatural(rng, qa, rng.randint(0, 3), 2, density=0.9)
        h = random_formal_morphism(rng, qa, qc, max_arity=4, density=0.9)
        reached += any(n == 4 for n, _ in h.components)
        assert l_compose(h, t, 3).components == outer_after_words(
            h, qa, 3, lambda w: insertion_expand_word(t, w)), seed
    assert reached >= 8


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_shared_endpoint_equals_copied_endpoint(seed):
    rng = random.Random(seed)
    q0, qa, qb = (small_quiver(rng, n_objects=2, max_dim=3) for _ in range(3))
    f = random_formal_morphism(rng, qa, qb, max_arity=2, density=0.9)
    shared = random_prenatural(rng, f, f, rng.choice([1, 2]), 1, 2, density=0.9)
    copied = Prenatural(f, copy.copy(f), shared.degree, shared.components)
    h = random_formal_morphism(rng, qb, q0, max_arity=2, density=0.9)
    k = random_formal_morphism(rng, q0, qa, max_arity=2, density=0.9)
    d = random_flat_prenatural(rng, qb, 2, 2, density=0.9)
    bound = 3
    a, b = r_compose(k, shared, bound), r_compose(k, copied, bound)
    assert a.components == b.components and a.degree == b.degree
    assert a.frm == b.frm and a.to == b.to
    assert a.frm is a.to and b.frm is not b.to
    # neither is inserted: their endpoints are not identities
    for t in (shared, copied):
        for insert in (lambda: l_compose(h, t, bound),
                       lambda: compose_prenatural(d, t, bound)):
            with pytest.raises(QuiverError, match="between Identity endpoints"):
                insert()


# -- deferred reduction ----------------------------------------------------------

def _assert_reduced(fam):
    p = fam.target.fld.characteristic
    for table in fam.components.values():
        assert table
        for vec in table.values():
            assert vec
            for c in vec.values():
                assert c != 0
                assert not p or (type(c) is int and 0 < c < p)


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(FIELDS)))
@settings(max_examples=25, deadline=None)
def test_results_hold_reduced_nonzero_coefficients(seed, field):
    """Every coefficient the four entry points store is nonzero, and over
    F_p a residue in [1, p), through the block sum and the double sum, with
    and without the insertion sign; t between f and g is not inserted."""
    rng = random.Random(seed)
    fld = FIELDS[field]
    qa, qb, qc = (stepped_quiver(rng, fld, 2) for _ in range(3))
    ident, qa_ident = identity_formal(qb), identity_formal(qa)
    f = _nonzero(random_formal_morphism(rng, qa, qb, 2, density=0.9))
    g = _nonzero(random_formal_morphism(rng, qa, qb, 2, density=0.9,
                                        object_map=dict(f.object_map)))
    h = _nonzero(random_formal_morphism(rng, qb, qc, 2, density=0.9))
    t = _nonzero(random_prenatural(rng, f, g, rng.randint(1, 2), 1, 2, density=0.9))
    s = _nonzero(random_prenatural(rng, ident, ident, rng.randint(0, 3), 1, 3,
                                   density=0.9))
    d = _nonzero(random_prenatural(rng, ident, ident, 2, 1, 3, density=0.9))
    bound = 4
    for result in (compose_formal(h, f, bound), r_compose(f, s, bound),
                   r_compose(f, d, bound), r_compose(qa_ident, t, bound),
                   l_compose(h, s, bound), compose_prenatural(d, s, bound)):
        _assert_reduced(result)
    for insert in (lambda: l_compose(h, t, bound),
                   lambda: compose_prenatural(d, t, bound)):
        with pytest.raises(QuiverError, match="between Identity endpoints"):
            insert()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_deferred_sums_cancel_and_return(field):
    """p equal contributions cancel mod p and leave no entry; a sum whose
    partial sums run 1, 0, 1 keeps the value 1.  Through the sweep
    (compose_formal) and through the identity-endpoint double sum
    (compose_prenatural)."""
    fld = FIELDS[field]
    p = fld.characteristic
    sp = GradedSpace(tuple((f"a{i}", 0) for i in range(max(p, 3))))
    q = GradedQuiver(fld, ("o",), {("o", "o"): sp})
    key, one = (1, ("o", "o")), fld.one
    spread = {key: {(0,): {i: one for i in range(sp.dim)}}}     # a0 -> sum a_i
    count = p or 3
    equal = {key: {(i,): {0: one} for i in range(count)}}      # a_i -> a0
    returning = {key: {(0,): {0: one}, (1,): {0: fld.from_int(-1)}, (2,): {0: one}}}
    ident = identity_formal(q)
    for outer, want in ((equal, {} if p else {key: {(0,): {0: count}}}),
                        (returning, {key: {(0,): {0: one}}})):
        f = FormalMorphism(q, q, {"o": "o"}, spread)
        g = FormalMorphism(q, q, {"o": "o"}, outer)
        assert compose_formal(g, f, 1).components == want
        t = Prenatural(ident, ident, 1, spread)
        d = Prenatural(ident, ident, 1, outer)
        assert compose_prenatural(d, t, 1).components == want


def test_compose_prenatural_leaves_no_garbage_cycles():
    # the engine and the path enumerators loop instead of recursing through
    # closures: after a warm-up, no call leaves anything that only the
    # cyclic garbage collector could free
    rng = random.Random(7)
    cat = random_dg_category(rng, QQ, 2, 2)
    u = random_diffeo(rng, cat.quiver, max_arity=3, unital_for=cat.units)
    cat = twist_structure(cat, u, 4)
    m, q = cat.structure, cat.quiver
    assert m.components
    qb, qc = (small_quiver(rng, n_objects=2, max_dim=2) for _ in range(2))
    f = random_formal_morphism(rng, q, qb, max_arity=2)
    f2 = random_formal_morphism(rng, q, qb, max_arity=2, object_map=f.object_map)
    g = random_formal_morphism(rng, qb, qc, max_arity=2)
    t = random_prenatural(rng, f, f2, 2, 1, 2)
    assert t.frm is not t.to and t.components
    ident = identity_formal(q)
    assert m.frm is m.to and m.frm.components == ident.components
    t1 = random_flat_prenatural(rng, q, 1, 2, density=0.9)
    assert t1.components
    with pytest.raises(QuiverError, match="between Identity endpoints"):
        l_compose(g, t, 4)
    calls = {
        "compose_prenatural": lambda: compose_prenatural(m, m, 4),
        "compose_prenatural, odd degree insertion":
            lambda: compose_prenatural(m, t1, 4),
        "compose_formal": lambda: compose_formal(g, f, 4),
        "compose_formal, identity operand": lambda: compose_formal(f, ident, 4),
        "r_compose": lambda: r_compose(u, m, 4),
        "r_compose, differing endpoints": lambda: r_compose(u, t, 4),
        "l_compose": lambda: l_compose(u, m, 4),
        "paths": lambda: list(q.paths(3)),
        "basis_tuples": lambda: [list(q.basis_tuples(objs)) for objs in q.paths(3)],
    }
    left = {name: cyclic_garbage(call) for name, call in calls.items()}
    assert left == dict.fromkeys(calls, 0)
