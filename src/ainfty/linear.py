"""Based graded linear algebra over an exact field.

Vectors are sparse ``{basis index: scalar}`` dictionaries.  Maps between
graded spaces carry a degree shift and are stored sparsely; elimination is
done densely per degree block with deterministic pivoting (leftmost nonzero
column, first nonzero row), so kernels, sections and cohomology
representatives are reproducible across runs.  Each cohomology degree is
eliminated once, and that one reduction serves both the representatives
and every class-coordinate query.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .fields import Field, Scalar

Vec = Dict[int, Scalar]


class LinearError(ValueError):
    """Structural errors: dimension mismatches, shift violations."""


class NotSurjectiveError(LinearError):
    """A map expected to be degreewise surjective fails in some degree."""

    def __init__(self, degree: int):
        super().__init__(f"not surjective in degree {degree}")
        self.degree = degree


class NotSquareZeroError(LinearError):
    """d ∘ d is nonzero; carries a witness basis element."""

    def __init__(self, witness: str):
        super().__init__(f"differential does not square to zero on {witness}")
        self.witness = witness


# -- vector helpers ---------------------------------------------------------

def vec_add(fld: Field, u: Vec, v: Vec) -> Vec:
    return fld.reduced({i: u.get(i, 0) + v.get(i, 0) for i in {**u, **v}})


def vec_scale(fld: Field, c: Scalar, v: Vec) -> Vec:
    if fld.is_zero(c):
        return {}
    return {i: fld.mul(c, x) for i, x in v.items()}


@dataclass(frozen=True)
class GradedSpace:
    """Finite based Z-graded space: an ordered basis of (name, degree)."""

    basis: Tuple[Tuple[str, int], ...]
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {n: i for i, (n, _) in enumerate(self.basis)}
        if len(index) != len(self.basis):
            raise LinearError("basis names must be unique within a space")
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degree(self, i: int) -> int:
        return self.basis[i][1]

    def name(self, i: int) -> str:
        return self.basis[i][0]

    def index(self, name: str) -> int:
        if name not in self._index:
            raise LinearError(f"no basis element named {name!r}")
        return self._index[name]

    def indices_of_degree(self, d: int) -> List[int]:
        return [i for i, (_, deg) in enumerate(self.basis) if deg == d]

    def degrees(self) -> List[int]:
        return sorted({deg for _, deg in self.basis})

    def dims_by_degree(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for _, deg in self.basis:
            out[deg] = out.get(deg, 0) + 1
        return out


EMPTY_SPACE = GradedSpace(())


@dataclass
class GradedMap:
    """Degree-homogeneous linear map, sparse over (target idx, source idx)."""

    fld: Field
    source: GradedSpace
    target: GradedSpace
    shift: int
    entries: Dict[Tuple[int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: Dict[Tuple[int, int], Scalar] = {}
        for (ti, si), c in self.entries.items():
            if self.fld.is_zero(c):
                continue
            if self.target.degree(ti) != self.source.degree(si) + self.shift:
                raise LinearError(
                    f"entry {self.target.name(ti)}<-{self.source.name(si)} "
                    f"violates shift {self.shift}"
                )
            clean[(ti, si)] = c
        self.entries = clean

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for (ti, si), c in self.entries.items():
            x = v.get(si)
            if x is not None:
                out[ti] = out.get(ti, 0) + c * x
        return self.fld.reduced(out)

    def column(self, si: int) -> Vec:
        return {ti: c for (ti, s), c in self.entries.items() if s == si}

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        if other.target is not self.source and other.target != self.source:
            raise LinearError("composition mismatch")
        entries: Dict[Tuple[int, int], Scalar] = {}
        for (mi, si), c in other.entries.items():
            for (ti, mj), d in self.entries.items():
                if mj == mi:
                    entries[(ti, si)] = entries.get((ti, si), 0) + d * c
        return GradedMap(self.fld, other.source, self.target, self.shift + other.shift,
                         self.fld.reduced(entries))

    def is_zero(self) -> bool:
        return not self.entries


# -- dense elimination ------------------------------------------------------

def rref(fld: Field, rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not fld.is_zero(mat[i][c])), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = fld.inv(mat[r][c])
        mat[r] = [fld.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and not fld.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def solve_dense(fld: Field, rows: List[List[Scalar]], rhs: List[Scalar]) -> Optional[List[Scalar]]:
    """One solution of rows * x = rhs (free variables set to zero)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not aug:
        return [] if ncols == 0 else [fld.zero] * ncols
    mat, pivots = rref(fld, aug)
    for row in mat:
        if all(fld.is_zero(x) for x in row[:ncols]) and not fld.is_zero(row[ncols]):
            return None
    x = [fld.zero] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = mat[r][ncols]
    return x


def nullspace_dense(fld: Field, rows: List[List[Scalar]]) -> List[List[Scalar]]:
    """Canonical nullspace basis from the RREF (one vector per free column)."""
    ncols = len(rows[0]) if rows else 0
    if not rows:
        return []
    mat, pivots = rref(fld, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [fld.zero] * ncols
        v[fc] = fld.one
        for r, pc in enumerate(pivots):
            v[pc] = fld.neg(mat[r][fc])
        basis.append(v)
    return basis


# -- graded operations ------------------------------------------------------

def _degree_block(m: GradedMap, d: int) -> Tuple[List[int], List[int], List[List[Scalar]]]:
    """Rows/cols indices and the dense block of m in source degree d."""
    cols = m.source.indices_of_degree(d)
    rows = m.target.indices_of_degree(d + m.shift)
    block = [[m.entries.get((ti, si), m.fld.zero) for si in cols] for ti in rows]
    return rows, cols, block


@dataclass
class SplitData:
    """A graded splitting of a degreewise surjection.

    surjection ∘ section = id, retract ∘ include = id,
    surjection ∘ include = 0, retract ∘ section = 0,
    include ∘ retract + section ∘ surjection = id; split_surjection forces all five.
    """

    surjection: GradedMap
    kernel: GradedSpace
    include: GradedMap
    retract: GradedMap
    section: GradedMap


def split_surjection(m: GradedMap) -> SplitData:
    """Split a degreewise surjection of shift 0.

    Each degree block is eliminated once, as ``rref([block | I])``.  A pivot
    in the ``I`` half means the block is not surjective: NotSurjectiveError
    names the first such degree.  Otherwise the ``I`` half is the section
    (free variables set to zero), the block half gives the echelon nullspace
    basis (one kernel vector per free column, ordered by (degree, column)),
    and the retract keeps the free coordinates.

    The splitting identities are forced, not checked: with every pivot in
    the block half, rref([M | I]) = [EM | E], E invertible and EM's pivot
    columns the identity, so M . section = E^-1 EM . section = id; EM, hence
    M, kills each kernel vector e_c - (column c of EM on the pivots); the
    retract reads free coordinates, 1 on a kernel vector's own column and 0
    on the others' and on the pivot-supported section; and include . retract
    + section . surjection fixes both, which span the source.
    """
    if m.shift != 0:
        raise LinearError("only shift-0 maps can satisfy the splitting condition")
    fld = m.fld
    degrees = sorted(set(m.source.degrees()) | set(m.target.degrees()))
    kernel_basis: List[Tuple[str, int]] = []
    include_entries: Dict[Tuple[int, int], Scalar] = {}
    retract_entries: Dict[Tuple[int, int], Scalar] = {}
    section_entries: Dict[Tuple[int, int], Scalar] = {}
    for d in degrees:
        rows, cols, block = _degree_block(m, d)
        ncols = len(cols)
        mat, pivots = rref(fld, [
            row + [fld.one if j == r else fld.zero for j in range(len(rows))]
            for r, row in enumerate(block)
        ]) if rows else ([], [])
        if pivots and pivots[-1] >= ncols:
            raise NotSurjectiveError(d)
        for i, pc in enumerate(pivots):
            for r, ti in enumerate(rows):
                if not fld.is_zero(mat[i][ncols + r]):
                    section_entries[(cols[pc], ti)] = mat[i][ncols + r]
        for fc in range(ncols):
            if fc in pivots:
                continue
            k = len(kernel_basis)
            kernel_basis.append((f"ker{k}", d))
            include_entries[(cols[fc], k)] = fld.one
            retract_entries[(k, cols[fc])] = fld.one
            for i, pc in enumerate(pivots):
                if not fld.is_zero(mat[i][fc]):
                    include_entries[(cols[pc], k)] = fld.neg(mat[i][fc])
    kernel = GradedSpace(tuple(kernel_basis))
    return SplitData(m, kernel,
                     GradedMap(fld, kernel, m.source, 0, include_entries),
                     GradedMap(fld, m.source, kernel, 0, retract_entries),
                     GradedMap(fld, m.target, m.source, 0, section_entries))


@dataclass
class Cohomology:
    """Degreewise cohomology of (space, d) with chosen representatives.

    ``cohomology`` eliminates each degree once, as
    ``rref([boundaries | cocycles | I])``: row operations on the pool half
    do not depend on the appended I, so its pivots pick the representatives
    (the cocycles adding pivots past the boundary span), and the I half
    answers every ``coords`` query of the degree.
    """

    space: GradedSpace
    d: GradedMap
    dims: Dict[int, int]
    reps: Dict[int, List[Vec]]
    # degree -> (indices, the I half T, rank of [boundaries | cocycles],
    #            the rows whose pivot is a representative's column)
    _reduced: Dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)

    def coords(self, v: Vec, degree: int) -> Optional[List[Scalar]]:
        """Class coordinates of a degree-homogeneous cocycle, or None.

        rref([P | I]) = [TP | T] with T invertible and TP in echelon form, so
        v lies in the span of P, the cocycles, iff T . v vanishes past P's
        rank.  Then T . v holds v's unique coordinates on P's pivot columns,
        a basis of the cocycles whose boundary part spans the boundaries, so
        the class coordinates are T . v on the representatives' rows.
        """
        fld = self.d.fld
        for si, c in v.items():
            if self.space.degree(si) != degree and not fld.is_zero(c):
                raise LinearError("vector is not homogeneous of the stated degree")
        idx, t, rank, rep_rows = self._reduced.get(degree, ([], [], 0, []))
        tv = [fld.zero] * len(t)
        for r, si in enumerate(idx):
            if not fld.is_zero(v.get(si, fld.zero)):
                tv = [fld.add(x, fld.mul(row[r], v[si])) for x, row in zip(tv, t)]
        if any(not fld.is_zero(x) for x in tv[rank:]):
            return None
        return [tv[i] for i in rep_rows]


def cohomology(space: GradedSpace, d: GradedMap) -> Cohomology:
    """ker/im of a square-zero shift-1 differential, per degree."""
    if d.shift != 1:
        raise LinearError("a differential must have shift +1")
    if d.source != space or d.target != space:
        raise LinearError("differential endpoints must both be the given space")
    dd = d.compose(d)
    if not dd.is_zero():
        si = sorted(dd.entries)[0][1]
        raise NotSquareZeroError(space.name(si))
    fld = d.fld
    coh = Cohomology(space, d, {}, {})
    for deg in space.degrees():
        rows_out, idx, block = _degree_block(d, deg)
        null = nullspace_dense(fld, block) if rows_out else [
            [fld.one if j == i else fld.zero for j in range(len(idx))]
            for i in range(len(idx))]
        _, below, bnd = _degree_block(d, deg - 1)
        mat, pivots = rref(fld, [
            bnd[r] + [v[r] for v in null]
            + [fld.one if j == r else fld.zero for j in range(len(idx))]
            for r in range(len(idx))])
        npool = len(below) + len(null)
        rank = sum(p < npool for p in pivots)
        rep_rows = [i for i, p in enumerate(pivots[:rank]) if p >= len(below)]
        coh.reps[deg] = [
            {si: x for si, x in zip(idx, null[pivots[i] - len(below)])
             if not fld.is_zero(x)} for i in rep_rows]
        coh.dims[deg] = len(rep_rows)
        coh._reduced[deg] = (idx, [row[npool:] for row in mat], rank, rep_rows)
    return coh
