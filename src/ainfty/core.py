"""A-infinity categories, functors, strict units, and homotopy classifiers.

A structure is a flat degree-2 prenatural endotransformation of the identity
whose self-composition vanishes; a functor is a formal morphism F with
l_compose(F, D_source) = r_compose(F, D_target).  Holding a value certifies
its equation up to the recorded arity bound.  `build` is the one admission
step: it checks new data and stores the family (and a category's units) in
canonical form, every coefficient reduced and no zeros.  `derived` takes a
value from certified values by a lemma, whose premises `certify_premise`
checks past their recorded bounds; the package's own constructions are
canonical by how they are made, and are not validated again.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .fields import Field, Scalar
from .linear import (
    Cohomology,
    GradedMap,
    NotSurjectiveError,
    SplitData,
    Vec,
    cohomology,
    nullspace_dense,
    rref,
    solve_dense,
    split_surjection,
)
from .quiver import (
    Components,
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    QuiverError,
    accumulate,
    compose_formal,
    double_sum,
    eval_multilinear,
    first_difference,
    identity_formal,
    compose_prenatural,
    regroup,
)

DEFAULT_ARITY_BOUND = 6

Pair = Tuple[str, str]


class AInftyError(ValueError):
    pass


class StructureDefectError(AInftyError):
    def __init__(self, witness):
        n, objs, in_t = witness
        super().__init__(
            f"structure defect nonzero at arity {n}, objects {objs}, inputs {in_t}"
        )
        self.witness = witness


class FunctorDefectError(AInftyError):
    def __init__(self, witness):
        n, objs, in_t = witness
        super().__init__(
            f"functor defect nonzero at arity {n}, objects {objs}, inputs {in_t}"
        )
        self.witness = witness


class UnitAxiomError(AInftyError):
    def __init__(self, violations: List[str]):
        super().__init__("unit axioms violated: " + "; ".join(violations[:3]))
        self.violations = violations


@dataclass
class CheckReport:
    verdict: str                       # pass | fail | undecided
    witnesses: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @staticmethod
    def derived(lemma: str, premises: Sequence[str]) -> "CheckReport":
        """A clause that follows by `lemma` from `premises`, which are
        certified or passed: a pass that names both, not a recomputation."""
        return CheckReport("pass", [], {"method": "derived", "lemma": lemma,
                                        "premises": list(premises)})


def combined_verdict(verdicts: Iterable[str]) -> str:
    """fail if any verdict fails, pass if all pass, undecided otherwise."""
    verdicts = set(verdicts)
    if "fail" in verdicts:
        return "fail"
    return "pass" if verdicts <= {"pass"} else "undecided"


# -- arity bounds from degree feasibility ------------------------------------

def arity_feasibility_bound(
    src_interval: Optional[Tuple[int, int]],
    tgt_interval: Optional[Tuple[int, int]],
    degree: int,
) -> Optional[int]:
    """Largest arity a degree-`degree` prenatural component can have, or None.

    Arity n >= 1 is feasible when some total input degree t in [n*lo, n*hi]
    satisfies t + degree - n in [lo', hi'], that is when
    n*(lo-1) <= hi'-degree and n*(1-hi) <= degree-lo'.  Both are linear in
    n, so the feasible arities form an interval [least, most].  Returns 0
    when it is empty, None when it has no upper end.  At most one slope is
    positive, since both would need lo > 1 > hi, so `most` is set once.
    """
    if src_interval is None or tgt_interval is None:
        return 0
    (lo, hi), (lo2, hi2) = src_interval, tgt_interval
    least, most = 1, None
    for a, c in ((lo - 1, hi2 - degree), (1 - hi, degree - lo2)):
        if a > 0:
            most = c // a
        elif a < 0:
            least = max(least, -(c // -a))
        elif c < 0:
            return 0
    if most is None:
        return None
    return most if least <= most else 0


def _choose_bound(max_arity: Optional[int], *triples) -> Tuple[int, bool]:
    """(bound, total): the arity to certify up to, and whether it covers
    every arity.  Each triple is (source interval, target interval, degree)
    of a family: its components have that degree and its defects one more,
    and past the largest feasible arity of all of them everything vanishes.
    """
    bounds = [arity_feasibility_bound(src, tgt, d)
              for src, tgt, degree in triples for d in (degree, degree + 1)]
    full = None if None in bounds else max(bounds)
    if max_arity is None:
        return (DEFAULT_ARITY_BOUND, False) if full is None else (full, True)
    return max_arity, full is not None and max_arity >= full


# -- categories ---------------------------------------------------------------

def arity1_map(fam, x: str, y: str) -> GradedMap:
    """The arity-1 component of a formal morphism or prenatural at (x, y)
    as a graded map: a functor's F1 (shift 0), a structure's m1 (shift 1)."""
    entries: Dict[Tuple[int, int], Scalar] = {}
    for in_t, vec in fam.component(1, (x, y)).items():
        for oi, c in vec.items():
            entries[(oi, in_t[0])] = c
    return GradedMap(fam.source.fld, fam.source.space(x, y),
                     fam.target.space(*fam.out_pair((x, y))), fam.shift(1),
                     entries)


def structure_defect(structure: Prenatural, max_arity: int) -> Prenatural:
    """Self-composition of the candidate structure; zero certifies it."""
    structure.validate()
    return compose_prenatural(structure, structure, max_arity)


def _certify(parts: Iterable[Components], error) -> None:
    """Raise error at the first nonzero entry of the first nonzero part; a
    part is read only after every part before it is zero."""
    for part in parts:
        bad = first_difference(part, {})
        if bad is not None:
            raise error(bad)


def _canonical(fam):
    """fam validated, and copied into canonical form only when not in it."""
    if fam.validate():
        return fam
    reduced = fam.target.fld.reduced
    return replace(fam, components={key: {it: reduced(v) for it, v in t.items()}
                                    for key, t in fam.components.items()})


def _certify_structure(structure: Prenatural, max_arity: int) -> None:
    """Certify m . m = 0 up to max_arity on a structure already admitted
    (by `build`) or made by the package.  The sum is read one arity at a
    time: a defect stops it at its first nonzero arity, with the witness
    that `structure_defect(...).first_nonzero()` names (it sorts by arity)."""
    _certify((part for _, part in double_sum(structure, structure, max_arity)),
             StructureDefectError)


@dataclass
class AInftyCategory:
    quiver: GradedQuiver
    structure: Prenatural
    units: Optional[Dict[str, Vec]]
    arity_bound: int
    total: bool
    _h0: Optional["H0Category"] = field(default=None, repr=False, compare=False)
    _coh: Dict[Pair, Cohomology] = field(default_factory=dict, repr=False, compare=False)

    @property
    def fld(self) -> Field:
        return self.quiver.fld

    @property
    def objects(self) -> Tuple[str, ...]:
        return self.quiver.objects

    @staticmethod
    def build(
        quiver: GradedQuiver,
        components: Components,
        units: Optional[Dict[str, Vec]] = None,
        max_arity: Optional[int] = None,
    ) -> "AInftyCategory":
        ident = identity_formal(quiver)
        structure = Prenatural(ident, ident, 2, components)
        if not structure.is_flat():
            raise AInftyError("structures must be flat: arity-0 part must vanish")
        iv = quiver.degree_interval()
        bound, _ = _choose_bound(max_arity, (iv, iv, 2))
        structure = _canonical(structure)
        _certify_structure(structure, bound)
        if units is None:
            return AInftyCategory.derived(structure, None, bound)
        # reduced and checked with their zeros, so that an index outside
        # hom(x, x) is named whatever its coefficient; stored without them
        p = quiver.fld.characteristic
        units = {x: {i: c % p if p else c for i, c in u.items()}
                 for x, u in units.items()}
        cat = AInftyCategory.derived(structure, units, bound)
        cat.units = {x: {i: c for i, c in u.items() if c} for x, u in units.items()}
        return cat

    @staticmethod
    def derived(structure: Prenatural, units: Optional[Dict[str, Vec]],
                max_arity: Optional[int]) -> "AInftyCategory":
        """`build` with m.m = 0 up to max_arity derived, not checked."""
        iv = structure.source.degree_interval()
        bound, total = _choose_bound(max_arity, (iv, iv, 2))
        cat = AInftyCategory(structure.source, structure, units, bound, total)
        if units is not None:
            report = check_strict_units(cat)
            if not report.passed:
                raise UnitAxiomError(report.witnesses)
        return cat

    def unit_vec(self, x: str) -> Vec:
        if self.units is None:
            raise AInftyError("units required")
        return self.units[x]

    def h0(self) -> "H0Category":
        if self._h0 is None:
            self._h0 = build_h0(self)
        return self._h0

    def pair_cohomology(self, x: str, y: str) -> Cohomology:
        """Cohomology of (hom(x, y), m1), computed once per pair and kept."""
        if (x, y) not in self._coh:
            self._coh[(x, y)] = cohomology(self.quiver.space(x, y),
                                           arity1_map(self.structure, x, y))
        return self._coh[(x, y)]


def check_strict_units(cat: AInftyCategory) -> CheckReport:
    """Verify u1 on every stored component and the signed u2 on every basis.

    u2 reads m2(f, 1_src) = f and m2(1_tgt, f) = (-1)**deg(f) f, the unique
    unit normalization compatible with the structure-relation signs.  Each
    table is read in one pass per unit slot: a flat accumulator collects the
    contraction with the unit for every choice of the other inputs at once
    and is reduced once.  Units naming an unknown object or a basis index
    outside hom(x, x), and objects without a unit, are violations too.
    """
    if cat.units is None:
        raise AInftyError("units required")
    fld = cat.fld
    units = cat.units
    objects = cat.objects
    comps = cat.structure.components
    violations: List[str] = []
    for x, u in units.items():
        if x not in objects:
            violations.append(f"unit names unknown object {x!r}")
            continue
        sp = cat.quiver.space(x, x)
        outside = [oi for oi in u if not 0 <= oi < sp.dim]
        if outside:
            violations.append(
                f"unit of {x} names indices {outside} outside hom({x}, {x})")
            continue
        for oi, c in u.items():
            if not fld.is_zero(c) and sp.degree(oi) != 0:
                violations.append(f"unit of {x} is not concentrated in degree 0")
                break
    missing = [x for x in objects if x not in units]
    if missing:
        violations.append(f"units missing for {missing}")
    # u1: any component of arity != 2 vanishes once a unit occupies a slot
    for (n, objs), table in sorted(comps.items()):
        if n == 2:
            continue
        for slot, red in _unit_slot_residues(fld, units, objs, table):
            violations.append(
                f"u1 fails: arity {n} at {objs}, unit in slot {slot}, "
                f"other inputs {red}"
            )
    # u2 on every basis morphism
    minus_one = fld.from_int(-1)
    for (x, y), sp in sorted(cat.quiver.hom.items()):
        if x not in units or y not in units:
            continue
        right = _unit_contraction(fld, comps.get((2, (x, x, y)), {}), units[x], 1)
        left = _unit_contraction(fld, comps.get((2, (x, y, y)), {}), units[y], 0)
        for i in range(sp.dim):
            if right.get((i,)) != {i: fld.one}:
                violations.append(f"u2 fails: m2({sp.name(i)}, 1_{x}) != {sp.name(i)}")
            sign = fld.one if sp.degree(i) % 2 == 0 else minus_one
            if left.get((i,)) != {i: sign}:
                violations.append(
                    f"u2 fails: m2(1_{y}, {sp.name(i)}) != (-1)^deg {sp.name(i)}"
                )
    verdict = "pass" if not violations else "fail"
    return CheckReport(verdict, violations)


def _unit_contraction(fld: Field, table, unit: Vec, slot: int
                      ) -> Dict[Tuple[int, ...], Vec]:
    """{other inputs: nonzero value} of one component table with `unit` in
    input `slot`, read in one pass into a flat accumulator reduced once;
    keys in the order the table first names them."""
    raw: Dict[Tuple[Tuple[int, ...], int], Scalar] = {}
    for in_t, vec in table.items():
        w = unit.get(in_t[slot])
        if w is None:
            continue
        red = in_t[:slot] + in_t[slot + 1:]
        for oi, c in vec.items():
            key = (red, oi)
            raw[key] = raw.get(key, 0) + w * c
    if not raw:
        return {}
    out: Dict[Tuple[int, ...], Vec] = {red: {} for red, _ in raw}
    for (red, oi), c in fld.reduced(raw).items():
        out[red][oi] = c
    return {red: vec for red, vec in out.items() if vec}


def _unit_slot_residues(fld: Field, units: Dict[str, Vec],
                        objs: Tuple[str, ...], table):
    """Contract one component with a unit in each slot that can hold one.

    Yields (slot, other inputs) for every nonzero contraction, slots in
    increasing order.
    """
    n = len(objs) - 1
    for slot in range(n):
        xa, xb = objs[n - 1 - slot], objs[n - slot]
        if xa != xb or xa not in units:
            continue
        for red in _unit_contraction(fld, table, units[xa], slot):
            yield slot, red


# -- functors -----------------------------------------------------------------

def functor_defect(morphism: FormalMorphism, source: AInftyCategory,
                   target: AInftyCategory, max_arity: int) -> Prenatural:
    """F . m_A - m_B . F up to max_arity: the words of both sides and m_B's
    arity-0 table at each F x, summed in one dict and reduced once; its
    endpoints are F."""
    f, m_a, m_b = morphism, source.structure, target.structure
    if m_a.target.objects != f.source.objects or f.target.objects != m_b.source.objects:
        raise QuiverError("functor_defect: F must map m_A's objects to m_B's")
    flat = accumulate({}, 1, f, m_a, max_arity)
    accumulate(flat, -1, m_b, f, max_arity)
    for x in f.source.objects:
        for in_t, vec in m_b.component(0, (f.object_map[x],)).items():
            for oi, c in vec.items():
                flat[((x,), in_t, oi)] = flat.get(((x,), in_t, oi), 0) - c
    return Prenatural(f, f, m_a.degree, regroup(f.target.fld, flat))


@dataclass
class AInftyFunctor:
    morphism: FormalMorphism
    source: AInftyCategory
    target: AInftyCategory
    arity_bound: int
    total: bool
    strictly_unital: bool = False
    _f1: Optional["F1Result"] = field(default=None, repr=False, compare=False)
    _coh_maps: Dict[Tuple[str, str, int], List[List[Scalar]]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def object_map(self) -> Dict[str, str]:
        return self.morphism.object_map

    @staticmethod
    def build(
        morphism: FormalMorphism,
        source: AInftyCategory,
        target: AInftyCategory,
        max_arity: Optional[int] = None,
    ) -> "AInftyFunctor":
        for x in source.objects:
            if morphism.object_map.get(x) not in target.objects:
                raise AInftyError(f"object map image of {x!r} is not in the target")
        morphism = _canonical(morphism)
        bound, _ = _choose_bound(max_arity, (source.quiver.degree_interval(),
                                             target.quiver.degree_interval(), 1))
        _certify([functor_defect(morphism, source, target, bound).components],
                 FunctorDefectError)
        return AInftyFunctor.derived(morphism, source, target, bound)

    @staticmethod
    def derived(morphism: FormalMorphism, source: AInftyCategory,
                target: AInftyCategory, max_arity: Optional[int]) -> "AInftyFunctor":
        """`build` with the equation up to max_arity derived, not checked."""
        bound, total = _choose_bound(max_arity, (source.quiver.degree_interval(),
                                                 target.quiver.degree_interval(), 1))
        unital = (source.units is not None and target.units is not None
                  and _strictly_unital(morphism, source, target))
        return AInftyFunctor(morphism, source, target, bound, total, unital)

    @staticmethod
    def identity(cat: AInftyCategory) -> "AInftyFunctor":
        """Id . m = m . Id, at every arity."""
        return AInftyFunctor.derived(identity_formal(cat.quiver), cat, cat, None)

    def compose(self, other: "AInftyFunctor") -> "AInftyFunctor":
        """self . other (other applied first): G.F.m = G.m'.F = m''.G.F."""
        if not same_category(other.target, self.source):
            raise AInftyError("compose: other's target is not self's source")
        bound = min(self.arity_bound, other.arity_bound)
        morphism = compose_formal(self.morphism, other.morphism, bound)
        return AInftyFunctor.derived(morphism, other.source, self.target, bound)


def same_category(a: AInftyCategory, b: AInftyCategory) -> bool:
    """One quiver and one structure: what a lemma that joins a functor into
    a to a functor out of b needs (units and bounds aside)."""
    return a.quiver == b.quiver and a.structure == b.structure


def certify_premise(value, n: int) -> None:
    """A lemma's premise: value's equation up to arity n, certified past its bound."""
    if value.total or value.arity_bound >= n:
        return
    if isinstance(value, AInftyCategory):
        _certify_structure(value.structure, n)
    else:
        defect = functor_defect(value.morphism, value.source, value.target, n)
        _certify([defect.components], FunctorDefectError)


def _strictly_unital(morphism: FormalMorphism, source: AInftyCategory,
                     target: AInftyCategory) -> bool:
    fld = source.fld
    for x, u in source.units.items():
        fx = morphism.object_map[x]
        img = eval_multilinear(morphism, 1, (x, x), [u])
        if img != target.units[fx]:
            return False
    for (n, objs), table in morphism.components.items():
        if n >= 2 and any(_unit_slot_residues(fld, source.units, objs, table)):
            return False
    return True


# -- condition F1 -------------------------------------------------------------

@dataclass
class F1Result:
    passed: bool
    splits: Dict[Pair, SplitData]
    failure: Optional[Tuple[Pair, int]] = None


def check_F1(functor: AInftyFunctor) -> F1Result:
    """Split every arity-1 component, or report the first failing pair.
    Computed once per functor and kept on it: strictify, build_pullback and
    the classifiers read the same splits."""
    if functor._f1 is None:
        certify_premise(functor, 1)     # the classifiers read F1 as a chain map
        splits: Dict[Pair, SplitData] = {}
        failure = None
        for x, y in itertools.product(functor.source.objects, repeat=2):
            try:
                splits[(x, y)] = split_surjection(arity1_map(functor.morphism, x, y))
            except NotSurjectiveError as exc:
                failure = ((x, y), exc.degree)
                break
        functor._f1 = F1Result(failure is None, splits, failure)
    return functor._f1


# -- H0 and isomorphism testing ------------------------------------------------

@dataclass
class H0Category:
    """Degree-0 cohomology of a strictly unital category as a finite
    category with structure constants: classes are coordinate lists over
    cat.pair_cohomology's degree-0 basis, and composition reads the table of
    [m2(e_i, e_j)] on basis classes, built for a triple the first time it is
    needed.  Exact, because m2 is bilinear and coords linear.  The invertible
    classes of a hom are enumerated once, lazily, and replayed."""
    cat: AInftyCategory
    unit_coords: Dict[str, List[Scalar]]
    _tables: Dict[Tuple[str, str, str], List[List[List[Scalar]]]] = field(
        default_factory=dict, repr=False, compare=False)
    _isos: Dict[Pair, Iterator[List[Scalar]]] = field(
        default_factory=dict, repr=False, compare=False)

    def dim(self, x: str, y: str) -> int:
        return self.cat.pair_cohomology(x, y).dims.get(0, 0)

    def coords_of(self, x: str, y: str, vec: Vec) -> Optional[List[Scalar]]:
        """Class coordinates of a degree-0 cocycle, else None."""
        coh = self.cat.pair_cohomology(x, y)
        if any(coh.space.degree(i) != 0 and not self.cat.fld.is_zero(c)
               for i, c in vec.items()):
            return None
        return coh.coords(vec, 0)

    def table(self, x: str, y: str, z: str) -> List[List[List[Scalar]]]:
        """[i][j]: class coordinates of [m2(e_i, e_j)] for the basis classes
        e_i of H0(y, z) and e_j of H0(x, y); built once per triple."""
        key = (x, y, z)
        if key not in self._tables:
            coh, m = self.cat.pair_cohomology, self.cat.structure
            self._tables[key] = [
                [coh(x, z).coords(eval_multilinear(m, 2, key, [g, f]), 0)
                 for f in coh(x, y).reps.get(0, [])]
                for g in coh(y, z).reps.get(0, [])]
        return self._tables[key]

    def is_iso(self, x: str, y: str, f: Sequence[Scalar]) -> bool:
        """Invertibility of a degree-0 class f: x -> y, by one linear solve
        for g: y -> x with [m2(g, f)] = 1_x.

        Composing with an iso is a bijection, so none exists unless H0(x,
        y), H0(y, x), End x and End y have one dimension d.  Then a left
        inverse is two-sided: e = f g is an idempotent of End y, and a |->
        f a g is an isomorphism End x -> e End(y) e; were e != 1, the Peirce
        decomposition would give dim End y >= d + 1.  So f g = 1_y is
        forced, and the (y, x, y) table is never read."""
        fld, d = self.cat.fld, self.dim(x, x)
        if not d == self.dim(y, y) == self.dim(x, y) == self.dim(y, x):
            return False
        gf = self.table(x, y, x)        # row i: g = e_i
        cols = [_combine(fld, f, gf[i], d) for i in range(d)]
        rows = [[col[r] for col in cols] for r in range(d)]
        return solve_dense(fld, rows, list(self.unit_coords[x])) is not None

    def isos(self, x: str, y: str) -> Iterator[List[Scalar]]:
        """The invertible classes x -> y, in coordinate order; prime fields
        only.  Each call reads an `itertools.tee` copy of one lazy filter per
        hom, so each class is tested once per H0.  Composing with an iso is a
        bijection, so none exists unless H0(x, y), H0(y, x), H0(x, x) and
        H0(y, y) have one dimension; otherwise no class is tried."""
        if (x, y) not in self._isos:
            fld, d = self.cat.fld, self.dim(x, y)
            every = ()
            if d == self.dim(y, x) == self.dim(x, x) == self.dim(y, y):
                every = itertools.product(list(fld.elements()), repeat=d)
            self._isos[(x, y)] = (c for c in map(list, every)
                                  if self.is_iso(x, y, c))
        self._isos[(x, y)], replay = itertools.tee(self._isos[(x, y)])
        return replay


def _combine(fld: Field, coeffs: Sequence[Scalar], vecs, dim: int) -> List[Scalar]:
    """sum of c * v over `coeffs` and the coordinate lists `vecs`, summed
    unreduced and reduced once."""
    out = [0] * dim
    for c, vec in zip(coeffs, vecs):
        if c:
            for k, v in enumerate(vec):
                out[k] += c * v
    p = fld.characteristic
    return [x % p for x in out] if p else out


def build_h0(cat: AInftyCategory) -> H0Category:
    """Degree-0 cohomology category; requires strict units.

    Its laws are not re-checked: the certified u2 gives the unit laws, and
    the arity-3 structure relation makes m2 associative on classes (Seidel,
    Fukaya Categories and Picard-Lefschetz Theory, ch. I (1c)), a premise
    certified to 3 when the structure's bound does not cover it.  Each unit
    has a class: check_strict_units makes 1_x a degree-0 cocycle (u1 at
    arity 1 is m1(1_x) = 0, beside its degree check).
    """
    if cat.units is None:
        raise AInftyError("units required")
    certify_premise(cat, 3)
    return H0Category(cat, {x: cat.pair_cohomology(x, x).coords(cat.unit_vec(x), 0)
                            for x in cat.objects})


def cohomology_matrix(functor: AInftyFunctor, x: str, y: str,
                      degree: int) -> List[List[Scalar]]:
    """Matrix of [F1]: H^degree(x, y) -> H^degree(F x, F y), columns over
    source classes; computed once per (x, y, degree) and kept on the
    functor, so callers must not mutate it."""
    key = (x, y, degree)
    if key not in functor._coh_maps:
        certify_premise(functor, 1)     # [F1] is defined when F1 is a chain map
        fx, fy = functor.object_map[x], functor.object_map[y]
        target = functor.target.pair_cohomology(fx, fy)
        cols = []
        for rep in functor.source.pair_cohomology(x, y).reps.get(degree, []):
            img = eval_multilinear(functor.morphism, 1, (x, y), [rep])
            coords = target.coords(img, degree)
            assert coords is not None
            cols.append(coords)
        functor._coh_maps[key] = [[col[i] for col in cols]
                                for i in range(target.dims.get(degree, 0))]
    return functor._coh_maps[key]


# -- classifiers ----------------------------------------------------------------

def _arity1_iso_everywhere(functor: AInftyFunctor) -> bool:
    """F is bijective on objects and F1 invertible on every hom, read off
    check_F1: a shift-0 map is invertible iff split surjective, kernel 0."""
    om = functor.object_map
    if sorted(om[x] for x in functor.source.objects) != sorted(functor.target.objects):
        return False
    f1 = check_F1(functor)
    return f1.passed and all(s.kernel.dim == 0 for s in f1.splits.values())


@dataclass
class IsoLiftCertificate:
    source_object: str
    target_object: str
    iso: Vec             # degree-0 cocycle in target hom(F0 x, b)
    lift_object: str
    lift: Vec            # degree-0 cocycle in source hom(x, a)


@dataclass
class EssentialCertificate:
    target_object: str
    source_object: str
    iso: Vec             # degree-0 cocycle in target hom(F0 a, b)


def check_isofibration(
    functor: AInftyFunctor,
    certificates: Optional[List[IsoLiftCertificate]] = None,
) -> CheckReport:
    """Condition F2: every H0 isomorphism out of an image object lifts.

    Decided by enumeration over a prime field; over the rationals the verdict
    is certificate-based, with "undecided" when no certificates are given.
    Over a prime field, the first iso phi0: F x -> b decides (x, b) whenever
    [F1]: H0(x, x) -> H0(F x, F x) is onto and unital (`_units_lift`): every
    unit u' of End(F x) is then [F1] of a unit u of End(x) (Bass; Lam, A
    First Course in Noncommutative Rings, section 20), so a lift psi0 of phi0
    gives the lift psi0 . u of every iso phi0 . u'.  Otherwise every iso of
    H0(F x, b) is tried.  Either way the witness is the first iso, in
    coordinate order, that has no lift.
    """
    src, tgt = functor.source, functor.target
    if src.units is None or tgt.units is None:
        raise AInftyError("units required")
    if _arity1_iso_everywhere(functor):
        return CheckReport("pass", [], {"method": "arity-1 isomorphism"})
    fld = src.fld
    h0s, h0t = src.h0(), tgt.h0()
    if fld.characteristic == 0:
        if not certificates:
            return CheckReport("undecided", [],
                               {"method": "certificates", "entries": 0})
        for cert in certificates:
            err = _verify_iso_lift(functor, h0s, h0t, cert)
            if err:
                return CheckReport("fail", [err], {"method": "certificates"})
        return CheckReport("pass", [],
                           {"method": "certificates", "entries": len(certificates)})
    fibers: Dict[str, List[str]] = {}
    for a in src.objects:
        fibers.setdefault(functor.object_map[a], []).append(a)
    for x in src.objects:
        px = functor.object_map[x]
        first_decides = _units_lift(functor, h0s, h0t, x)
        for b in tgt.objects:
            # enumerated once per (px, b): isos replays it for every x over px
            isos = h0t.isos(px, b)
            for coords in itertools.islice(isos, 1) if first_decides else isos:
                if not _find_lift(functor, h0s, x, coords, fibers.get(b, [])):
                    return CheckReport(
                        "fail",
                        [f"iso at H0({px},{b}) with coords {coords} "
                         f"has no lift from {x}"],
                        {"method": "enumeration"},
                    )
    return CheckReport("pass", [], {"method": "enumeration"})


def _units_lift(functor, h0s, h0t, x) -> bool:
    """Whether [F1]: H0(x, x) -> H0(F x, F x) is onto and sends 1_x to
    1_{F x}, with F's arity-2 equation certified: that makes it
    multiplicative, so a surjection of finite-dimensional algebras, and
    those are onto on units."""
    if not (functor.total or functor.arity_bound >= 2):
        return False
    fld, mat = functor.source.fld, cohomology_matrix(functor, x, x, 0)
    if mat and len(rref(fld, mat)[1]) != len(mat):
        return False
    unit = _combine(fld, h0s.unit_coords[x], zip(*mat), len(mat))
    return unit == h0t.unit_coords[functor.object_map[x]]


def _find_lift(functor, h0s, x, coords, fiber) -> bool:
    """Whether some iso class x -> a, a in the fiber, maps to `coords` under
    [F1]."""
    fld = functor.source.fld
    for a in fiber:
        # H0(Fx, Fa) = 0: one zero row keeps the dim H0(x, a) columns
        mat = cohomology_matrix(functor, x, a, 0) or [[fld.zero] * h0s.dim(x, a)]
        null = nullspace_dense(fld, mat)
        part = solve_dense(fld, mat, coords or [fld.zero])
        if part is None:
            continue
        vecs = [part] + null
        for combo in itertools.product(list(fld.elements()), repeat=len(null)):
            if h0s.is_iso(x, a, _combine(fld, (fld.one,) + combo, vecs, len(part))):
                return True
    return False


def _verify_iso_lift(functor, h0s, h0t, cert: IsoLiftCertificate) -> Optional[str]:
    src, tgt = functor.source, functor.target
    x, b, a = cert.source_object, cert.target_object, cert.lift_object
    px = functor.object_map.get(x)
    if px is None or b not in tgt.objects or a not in src.objects:
        return f"certificate names unknown objects ({x}, {b}, {a})"
    if functor.object_map[a] != b:
        return f"lift object {a} does not map to {b}"
    phi_coords = h0t.coords_of(px, b, cert.iso)
    if phi_coords is None:
        return f"certificate iso at ({px},{b}) is not a cocycle class"
    if not h0t.is_iso(px, b, phi_coords):
        return f"certificate iso at ({px},{b}) is not invertible in H0"
    psi_coords = h0s.coords_of(x, a, cert.lift)
    if psi_coords is None:
        return f"certificate lift at ({x},{a}) is not a cocycle class"
    if not h0s.is_iso(x, a, psi_coords):
        return f"certificate lift at ({x},{a}) is not invertible in H0"
    certify_premise(functor, 1)         # F1 maps the lift's class to a class
    img = eval_multilinear(functor.morphism, 1, (x, a), [cert.lift])
    img_coords = h0t.coords_of(px, b, img)
    if img_coords != phi_coords:
        return f"certificate lift at ({x},{a}) does not map to the iso"
    return None


def kernel_acyclicity(functor: AInftyFunctor) -> CheckReport:
    """Per pair, cohomology of (Ker F1, m1 restricted); pass iff all vanish.
    The kernels are check_F1's; raises when F1 fails."""
    f1 = check_F1(functor)
    if not f1.passed:
        raise AInftyError("F1 not established; kernels are not defined")
    witnesses: List[str] = []
    dims_out: Dict[str, Dict[int, int]] = {}
    m = functor.source.structure
    for x in functor.source.objects:
        for y in functor.source.objects:
            split = f1.splits[(x, y)]
            # m1 preserves Ker F1 because F's arity-1 equation is certified
            dmap = split.retract.compose(arity1_map(m, x, y).compose(split.include))
            coh = cohomology(split.kernel, dmap)
            nonzero = {d: k for d, k in coh.dims.items() if k}
            if nonzero:
                dims_out[f"{x},{y}"] = nonzero
                d0 = sorted(nonzero)[0]
                witnesses.append(
                    f"Ker F1({x},{y}) has H^{d0} of dimension {nonzero[d0]}"
                )
    verdict = "pass" if not witnesses else "fail"
    return CheckReport(verdict, witnesses, {"nonacyclic": dims_out})


@dataclass
class QEReport:
    verdict: str
    hom_level: CheckReport
    essential: CheckReport


def check_quasi_equivalence(
    functor: AInftyFunctor,
    certificates: Optional[List[EssentialCertificate]] = None,
) -> QEReport:
    """Hom-level quasi-isomorphisms plus essential surjectivity of H0."""
    hom = _hom_level_quasi_iso(functor)
    ess = _essential_surjectivity(functor, certificates)
    return QEReport(combined_verdict([hom.verdict, ess.verdict]), hom, ess)


def _hom_level_quasi_iso(functor: AInftyFunctor) -> CheckReport:
    fld = functor.source.fld
    witnesses: List[str] = []
    for x in functor.source.objects:
        for y in functor.source.objects:
            fx, fy = functor.object_map[x], functor.object_map[y]
            cs = functor.source.pair_cohomology(x, y)
            ct = functor.target.pair_cohomology(fx, fy)
            degrees = sorted(set(cs.dims) | set(ct.dims))
            for d in degrees:
                ds, dt = cs.dims.get(d, 0), ct.dims.get(d, 0)
                if ds != dt:
                    witnesses.append(
                        f"H^{d}({x},{y}): source dim {ds} vs target dim {dt}"
                    )
                    continue
                if ds == 0:
                    continue
                rows = cohomology_matrix(functor, x, y, d)
                if len(rref(fld, rows)[1]) != ds:
                    witnesses.append(
                        f"H^{d}({x},{y}): induced map is not an isomorphism"
                    )
    verdict = "pass" if not witnesses else "fail"
    return CheckReport(verdict, witnesses)


def _essential_surjectivity(
    functor: AInftyFunctor,
    certificates: Optional[List[EssentialCertificate]],
) -> CheckReport:
    src, tgt = functor.source, functor.target
    if src.units is None or tgt.units is None:
        return CheckReport("undecided", ["units required for essential surjectivity"])
    fld = src.fld
    image = {functor.object_map[a] for a in src.objects}
    missing = [b for b in tgt.objects if b not in image]
    if not missing:
        return CheckReport("pass", [], {"method": "object image"})
    h0t = tgt.h0()
    still: List[str] = []
    for b in missing:
        found = False
        if fld.characteristic != 0:
            found = any(next(h0t.isos(functor.object_map[a], b), None) is not None
                        for a in src.objects)
        elif certificates:
            for cert in certificates:
                if cert.target_object != b:
                    continue
                fa = functor.object_map.get(cert.source_object)
                if fa is None:
                    continue
                coords = h0t.coords_of(fa, b, cert.iso)
                if coords is not None and h0t.is_iso(fa, b, coords):
                    found = True
                    break
        if not found:
            still.append(b)
    if not still:
        return CheckReport("pass", [], {"method": "enumeration/certificates"})
    if fld.characteristic != 0:
        return CheckReport("fail",
                           [f"no H0 isomorphism onto {b}" for b in still])
    return CheckReport("undecided",
                       [f"object {b} not covered by certificates" for b in still])
