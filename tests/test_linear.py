from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import ainfty.linear as linear_module
from ainfty.fields import Field
from ainfty.linear import (
    GradedMap,
    GradedSpace,
    LinearError,
    NotSquareZeroError,
    NotSurjectiveError,
    cohomology,
    nullspace_dense,
    rref,
    solve_dense,
    split_surjection,
    vec_add,
    vec_scale,
)

from helpers import graded_identity, split_identity_failures


def test_graded_space_unique_names():
    with pytest.raises(LinearError):
        GradedSpace((("a", 0), ("a", 1)))


def test_graded_map_shift_invariant(qq):
    src = GradedSpace((("x", 0),))
    tgt = GradedSpace((("y", 1),))
    GradedMap(qq, src, tgt, 1, {(0, 0): qq.one})
    with pytest.raises(LinearError):
        GradedMap(qq, src, tgt, 0, {(0, 0): qq.one})


def _dense(m: GradedMap):
    """m's dense matrix, one row per target and one column per source index."""
    return [[m.entries.get((ti, si), m.fld.zero) for si in range(m.source.dim)]
            for ti in range(m.target.dim)]


def test_solve_identity(qq):
    sp = GradedSpace((("a", 0), ("b", 1)))
    ident = _dense(graded_identity(qq, sp))
    v = [qq.from_int(3), qq.from_int(-2)]
    assert solve_dense(qq, ident, v) == v


def test_solve_zero_map_has_no_preimage(qq):
    sp = GradedSpace((("a", 0),))
    zero = _dense(GradedMap(qq, sp, sp, 0))
    assert solve_dense(qq, zero, [qq.one]) is None
    assert solve_dense(qq, zero, [qq.zero]) == [qq.zero]


def test_solve_one_by_two_coordinate_sum(qq):
    # the map (1 1): Q<a, b> -> Q<c>; any preimage of c has coordinate sum 1
    src = GradedSpace((("a", 0), ("b", 0)))
    tgt = GradedSpace((("c", 0),))
    m = GradedMap(qq, src, tgt, 0, {(0, 0): qq.one, (0, 1): qq.one})
    pre = solve_dense(qq, _dense(m), [qq.one])
    assert pre is not None
    assert m.apply(dict(enumerate(pre))) == {0: qq.one}
    assert sum(pre) == qq.one


def test_split_identity(qq):
    sp = GradedSpace((("a", 0), ("b", -1)))
    data = split_surjection(graded_identity(qq, sp))
    assert data.kernel.dim == 0
    assert data.section == graded_identity(qq, sp)
    assert data.retract.entries == {}


def test_split_sq_arity_one(qq):
    # SQ's F1: <1, e, t> -> <1'>, 1 -> 1'; kernel is {e, t}
    src = GradedSpace((("1", 0), ("e", 0), ("t", -1)))
    tgt = GradedSpace((("1'", 0),))
    m = GradedMap(qq, src, tgt, 0, {(0, 0): qq.one})
    data = split_surjection(m)
    assert [d for _, d in data.kernel.basis] == [-1, 0]
    cols = {tuple(sorted(data.include.column(k).items()))
            for k in range(2)}
    assert cols == {((2, qq.one),), ((1, qq.one),)}
    assert split_identity_failures(data) == []


def test_split_not_surjective_names_degree(qq):
    src = GradedSpace((("x", 2),))
    tgt = GradedSpace((("y", 3),))
    m = GradedMap(qq, src, tgt, 0)
    with pytest.raises(NotSurjectiveError) as exc:
        split_surjection(m)
    assert exc.value.degree == 3


def test_split_shift_rejected(qq):
    src = GradedSpace((("x", 0),))
    tgt = GradedSpace((("y", 1),))
    with pytest.raises(LinearError):
        split_surjection(GradedMap(qq, src, tgt, 1, {(0, 0): qq.one}))


def test_split_identities_random(qq, f5, rng):
    # random graded maps of mixed degrees: a surjection must split into the
    # echelon kernel (nullspace_dense per block) and the section that
    # solve_dense finds row by row; any other map must be rejected at its
    # first rank-short degree
    for fld in (qq, f5):
        outcomes = {True: 0, False: 0}
        for _ in range(80):
            outcomes[_check_random_split(fld, rng)] += 1
        assert min(outcomes.values()) >= 20


def _check_random_split(fld, rng) -> bool:
    src = GradedSpace(tuple((f"s{i}", rng.randint(-1, 1))
                            for i in range(rng.randint(0, 6))))
    tgt = GradedSpace(tuple((f"t{j}", rng.randint(-1, 1))
                            for j in range(rng.randint(0, 3))))
    gm = GradedMap(fld, src, tgt, 0, {
        (j, i): fld.from_int(rng.randint(-3, 3))
        for j in range(tgt.dim) for i in range(src.dim)
        if tgt.degree(j) == src.degree(i) and rng.random() < 0.8
    })
    blocks = {}
    for d in sorted(set(src.degrees()) | set(tgt.degrees())):
        rows, cols = tgt.indices_of_degree(d), src.indices_of_degree(d)
        blocks[d] = (rows, cols, [[gm.entries.get((ti, si), fld.zero)
                                   for si in cols] for ti in rows])
    short = [d for d, (rows, _, block) in blocks.items()
             if len(rref(fld, block)[1]) < len(rows)]
    if short:
        with pytest.raises(NotSurjectiveError) as exc:
            split_surjection(gm)
        assert exc.value.degree == short[0]
        return False
    data = split_surjection(gm)
    assert split_identity_failures(data) == []
    k = 0
    for d, (rows, cols, block) in blocks.items():
        for r, ti in enumerate(rows):
            e_r = [fld.one if i == r else fld.zero for i in range(len(rows))]
            col = [data.section.entries.get((si, ti), fld.zero) for si in cols]
            assert col == solve_dense(fld, block, e_r)
        null = nullspace_dense(fld, block) if rows else [
            [fld.one if j == i else fld.zero for j in range(len(cols))]
            for i in range(len(cols))]
        for v in null:
            assert data.kernel.degree(k) == d
            assert [data.include.entries.get((si, k), fld.zero)
                    for si in cols] == v
            k += 1
    assert k == data.kernel.dim == src.dim - tgt.dim
    return True


def test_split_retract_tampering_rejected(qq):
    # split_surjection does not recompute the splitting identities, which
    # its elimination forces; the oracle that conftest.py runs on every
    # split rejects a tampered retract
    src = GradedSpace((("1", 0), ("e", 0), ("t", -1)))
    tgt = GradedSpace((("1'", 0),))
    data = split_surjection(GradedMap(qq, src, tgt, 0, {(0, 0): qq.one, (0, 1): qq.one}))
    assert split_surjection.__wrapped__ is linear_module.split_surjection.__wrapped__
    # the retract keeps the free coordinates: e (kernel vector e - 1) and t
    assert data.retract.entries == {(0, 2): qq.one, (1, 1): qq.one}
    for key in [(0, 2), (1, 1), (1, 0)]:
        entries = dict(data.retract.entries)
        entries[key] = qq.add(entries.get(key, qq.zero), qq.one)
        bad = dataclasses.replace(data, retract=GradedMap(
            qq, src, data.kernel, 0, entries))
        assert "retract . include = id" in split_identity_failures(bad)


def test_solve_dense_always_recovers_image(qq, rng):
    # solve_dense(m, m(v)) succeeds and reproduces m(v) exactly
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        src = GradedSpace(tuple((f"s{i}", rng.randint(-1, 1)) for i in range(n)))
        tgt = GradedSpace(tuple((f"t{j}", rng.randint(-1, 1)) for j in range(m)))
        entries = {}
        for j in range(m):
            for i in range(n):
                if tgt.degree(j) == src.degree(i) and rng.random() < 0.5:
                    c = qq.from_int(rng.randint(-3, 3))
                    if c:
                        entries[(j, i)] = c
        gm = GradedMap(qq, src, tgt, 0, entries)
        v = {i: qq.from_int(rng.randint(-2, 2)) for i in range(n)
             if rng.random() < 0.7}
        v = {i: c for i, c in v.items() if c}
        image = gm.apply(v)
        pre = solve_dense(qq, _dense(gm), [image.get(j, qq.zero) for j in range(m)])
        assert pre is not None
        assert gm.apply(dict(enumerate(pre))) == image


def test_cohomology_zero_differential(qq):
    sp = GradedSpace((("a", 0), ("b", 1)))
    coh = cohomology(sp, GradedMap(qq, sp, sp, 1))
    assert coh.dims == {0: 1, 1: 1}


def test_cohomology_acyclic_pair(qq):
    sp = GradedSpace((("e", 0), ("t", -1)))
    d = GradedMap(qq, sp, sp, 1, {(0, 1): qq.one})
    coh = cohomology(sp, d)
    assert coh.dims == {0: 0, -1: 0}


def test_cohomology_d_squared_witness(qq):
    sp = GradedSpace((("a", 0), ("b", 1), ("c", 2)))
    d = GradedMap(qq, sp, sp, 1, {(1, 0): qq.one, (2, 1): qq.one})
    with pytest.raises(NotSquareZeroError) as exc:
        cohomology(sp, d)
    assert exc.value.witness == "a"


def test_cohomology_dims_bounded_by_space(qq, rng):
    for _ in range(15):
        n = rng.randint(1, 5)
        sp = GradedSpace(tuple((f"v{i}", rng.randint(-1, 1)) for i in range(n)))
        entries = {}
        for i in range(n):
            for j in range(n):
                if sp.degree(j) == sp.degree(i) + 1 and rng.random() < 0.3:
                    entries[(j, i)] = qq.one
        try:
            coh = cohomology(sp, GradedMap(qq, sp, sp, 1, entries))
        except NotSquareZeroError:
            continue
        by_deg = sp.dims_by_degree()
        for k, dim in coh.dims.items():
            assert dim <= by_deg.get(k, 0)


def test_cohomology_coords(qq):
    sp = GradedSpace((("e", 0), ("t", -1), ("z", 0)))
    d = GradedMap(qq, sp, sp, 1, {(0, 1): qq.one})
    coh = cohomology(sp, d)
    assert coh.dims == {0: 1, -1: 0}
    # z generates H^0; e is exact
    assert coh.coords({2: qq.one}, 0) == [qq.one]
    assert coh.coords({0: qq.one}, 0) == [qq.zero]
    assert coh.coords({0: qq.one, 2: qq.from_int(2)}, 0) == [qq.from_int(2)]


def _coords_by_solve(coh, v, degree):
    """The reference answer: one solve of [reps | image] x = v per call."""
    fld = coh.d.fld
    idx = coh.space.indices_of_degree(degree)
    reps = coh.reps.get(degree, [])
    image = [coh.d.apply({si: fld.one})
             for si in coh.space.indices_of_degree(degree - 1)]
    cols = reps + image
    rows = [[col.get(si, fld.zero) for col in cols] for si in idx]
    rhs = [v.get(si, fld.zero) for si in idx]
    sol = solve_dense(fld, rows, rhs) if idx else ([] if not v else None)
    return None if sol is None else sol[: len(reps)]


def _random_complex(fld, rng):
    """A square-zero differential on degrees -1, 0, 1 with random blocks."""
    dims = [rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 3)]
    sp = GradedSpace(tuple((f"v{d}_{i}", d - 1)
                           for d, n in enumerate(dims) for i in range(n)))
    lo, mid, hi = (sp.indices_of_degree(d) for d in (-1, 0, 1))
    r = lambda: fld.from_int(rng.randint(-2, 2))
    d_lo = [[r() for _ in lo] for _ in mid]
    # rows of d_mid lie in the left nullspace of d_lo, so d_mid . d_lo = 0
    left_null = (nullspace_dense(fld, [list(c) for c in zip(*d_lo)]) if lo
                 else [[fld.one if j == i else fld.zero for j in range(len(mid))]
                       for i in range(len(mid))])
    entries = {(mid[i], lo[j]): c for i, row in enumerate(d_lo)
               for j, c in enumerate(row)}
    for t in hi:
        row = [fld.zero] * len(mid)
        for w in left_null:
            a = r()
            row = [fld.add(x, fld.mul(a, y)) for x, y in zip(row, w)]
        entries.update({(t, mid[j]): c for j, c in enumerate(row)})
    return sp, GradedMap(fld, sp, sp, 1, entries)


@pytest.mark.parametrize("fld", [Field.rationals(), Field.prime(5)])
def test_cohomology_coords_match_per_call_solve(fld, rng):
    answers = {"none": 0, "class": 0}
    for _ in range(40):
        sp, d = _random_complex(fld, rng)
        coh = cohomology(sp, d)
        for deg in (-1, 0, 1, 2):
            idx = sp.indices_of_degree(deg)
            r = lambda: fld.from_int(rng.randint(-3, 3))
            cocycle = {}
            for rep in coh.reps.get(deg, []):
                cocycle = vec_add(fld, cocycle, vec_scale(fld, r(), rep))
            below = {si: r() for si in sp.indices_of_degree(deg - 1)}
            boundary = d.apply(below)
            arbitrary = {si: r() for si in idx}
            for v in (cocycle, boundary, vec_add(fld, cocycle, boundary),
                      arbitrary, {}):
                want = _coords_by_solve(coh, v, deg)
                assert coh.coords(v, deg) == want
                answers["none" if want is None else "class"] += 1
            if idx and sp.degrees() != [deg]:
                other = next(i for i in range(sp.dim) if sp.degree(i) != deg)
                with pytest.raises(LinearError):
                    coh.coords({idx[0]: fld.one, other: fld.one}, deg)
    assert answers["none"] > 10 and answers["class"] > 10


def test_cohomology_coords_reduce_each_degree_once(qq, monkeypatch):
    """coords reads the reduction cohomology made; it eliminates nothing."""
    sp = GradedSpace((("e", 0), ("t", -1), ("z", 0)))
    coh = cohomology(sp, GradedMap(qq, sp, sp, 1, {(0, 1): qq.one}))
    calls = []
    real = linear_module.rref
    monkeypatch.setattr(linear_module, "rref",
                        lambda *a: calls.append(1) or real(*a))
    for v in ({2: qq.one}, {0: qq.one}, {0: qq.one, 2: qq.from_int(2)}):
        coh.coords(v, 0)
    assert coh.coords({1: qq.one}, -1) is None
    assert len(calls) == 0


@pytest.mark.parametrize("fld", [Field.rationals(), Field.prime(5)])
def test_cohomology_eliminates_each_degree_at_most_twice(fld, rng, monkeypatch):
    """Per degree, cohomology makes one rref for the cocycles (none when
    the degree above is empty) and one for [boundaries | cocycles | I]."""
    calls = []
    real = linear_module.rref
    monkeypatch.setattr(linear_module, "rref",
                        lambda *a: calls.append(1) or real(*a))
    for _ in range(10):
        sp, d = _random_complex(fld, rng)
        calls.clear()
        cohomology(sp, d)
        assert len(calls) <= 2 * len(sp.degrees())


# -- sums reduced once ---------------------------------------------------------

def _field_sum(fld, terms):
    """Sum (key, value) terms one Field.add at a time, zeros dropped."""
    out = {}
    for key, x in terms:
        out[key] = fld.add(out.get(key, fld.zero), x)
    return {key: x for key, x in out.items() if not fld.is_zero(x)}


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_sums_hold_reduced_nonzero_coefficients(seed, p):
    """vec_add, GradedMap.apply and .compose sum raw values and reduce
    once: each result equals the sum taken one Field operation at a time,
    and every coefficient it holds is a residue in [1, p)."""
    rng = random.Random(seed)
    fld = Field.prime(p)
    s0, s1, s2 = (GradedSpace(tuple((f"x{i}", rng.randint(0, 1))
                                    for i in range(rng.randint(1, 4))))
                  for _ in range(3))

    def rand_vec(sp):
        return {i: rng.randrange(1, p) for i in range(sp.dim) if rng.random() < 0.8}

    def rand_map(src, tgt):
        return GradedMap(fld, src, tgt, 0, {
            (t, j): rng.randrange(1, p) for t in range(tgt.dim)
            for j in range(src.dim)
            if tgt.degree(t) == src.degree(j) and rng.random() < 0.8})

    a, c = rand_map(s0, s1), rand_map(s1, s2)
    u, v, w = rand_vec(s1), rand_vec(s1), rand_vec(s0)
    results = [
        (vec_add(fld, u, v), _field_sum(fld, [*u.items(), *v.items()])),
        (vec_add(fld, u, {i: fld.neg(x) for i, x in u.items()}), {}),
        (a.apply(w), _field_sum(fld, [(t, fld.mul(x, w[j]))
                                      for (t, j), x in a.entries.items() if j in w])),
        (c.compose(a).entries, _field_sum(fld, [
            ((t, j), fld.mul(y, x)) for (m, j), x in a.entries.items()
            for (t, k), y in c.entries.items() if k == m])),
    ]
    for got, want in results:
        assert got == want
        assert all(type(x) is int and 0 < x < p for x in got.values())
