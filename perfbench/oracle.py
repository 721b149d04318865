"""Checks computed apart from the package.

The dense double-sum defect below walks object paths and basis tuples
directly and does its own scalar arithmetic; it never calls the contraction
engine or the package's field and vector helpers.  It decides during set-up
whether a perturbed structure is visibly broken and confirms that valid
candidates have zero defect at low arity.
"""
from __future__ import annotations

import contextlib
import itertools
import time
from typing import Dict, Iterator, Tuple

check_s = 0.0   # time spent in set-up checks, which setup_s leaves out


@contextlib.contextmanager
def checking():
    """Count the time of a check made during set-up in `check_s`."""
    global check_s
    t0 = time.perf_counter()
    try:
        yield
    finally:
        check_s += time.perf_counter() - t0


def _ops(characteristic: int):
    if characteristic == 0:
        return (lambda a, b: a + b), (lambda a, b: a * b), (lambda a: -a)
    p = characteristic
    return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p), (lambda a: (-a) % p)


def _paths(objects, dims, n) -> Iterator[Tuple[str, ...]]:
    for objs in itertools.product(objects, repeat=n + 1):
        if all(dims.get((objs[i], objs[i + 1]), 0) for i in range(n)):
            yield objs


def dense_defect(quiver, comps, max_arity: int) -> Dict[tuple, dict]:
    """{(n, objs, inputs): nonzero vector} of sum m(..., m(...), ...).

    Inputs are written (f_n, ..., f_1); the inner operation consumes
    f_{d+m} .. f_{d+1}, and its sign is (-1) to the sum of reduced degrees
    (deg - 1) of the d inputs to its right.
    """
    add, mul, neg = _ops(quiver.fld.characteristic)
    dims = {pair: sp.dim for pair, sp in quiver.hom.items()}
    degree = {pair: [d for _, d in sp.basis] for pair, sp in quiver.hom.items()}
    out = {}
    for n in range(1, max_arity + 1):
        for objs in _paths(quiver.objects, dims, n):
            spaces = [(objs[n - 1 - i], objs[n - i]) for i in range(n)]
            for in_t in itertools.product(*(range(dims[s]) for s in spaces)):
                degs = [degree[s][b] for s, b in zip(spaces, in_t)]
                acc = {}
                for m in range(1, n + 1):
                    for d in range(0, n - m + 1):
                        lo, hi = n - d - m, n - d
                        inner = comps.get((m, objs[d:d + m + 1]), {}).get(in_t[lo:hi])
                        if not inner:
                            continue
                        odd = (sum(degs[n - 1 - j] for j in range(d)) - d) % 2
                        outer = comps.get((n - m + 1, objs[:d + 1] + objs[d + m:]), {})
                        for oi, c in inner.items():
                            vec = outer.get(in_t[:lo] + (oi,) + in_t[hi:])
                            if not vec:
                                continue
                            c = neg(c) if odd else c
                            for k, v in vec.items():
                                acc[k] = add(acc.get(k, 0), mul(c, v))
                acc = {k: v for k, v in acc.items() if v != 0}
                if acc:
                    out[(n, objs, in_t)] = acc
    return out


def first_witness(defect: Dict[tuple, dict]):
    """The witness the package must report: least (arity, objects, inputs)."""
    return min(defect) if defect else None


def canonical(value) -> str:
    """Deterministic text of nested dicts/lists/tuples of scalars and names."""
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    return str(value)


def dense_eval(comps, n: int, objs, vecs, characteristic: int) -> dict:
    """Multilinear evaluation of one component on vectors, densely."""
    add, mul, _ = _ops(characteristic)
    out = {}
    for in_t, vec in comps.get((n, tuple(objs)), {}).items():
        coeff = 1
        for v, b in zip(vecs, in_t):
            x = v.get(b)
            if x is None:
                coeff = 0
                break
            coeff = mul(coeff, x)
        if coeff == 0:
            continue
        for k, c in vec.items():
            out[k] = add(out.get(k, 0), mul(coeff, c))
    return {k: v for k, v in out.items() if v != 0}


def vec_sum(u: dict, v: dict, characteristic: int) -> dict:
    add, _, _ = _ops(characteristic)
    out = dict(u)
    for k, c in v.items():
        s = add(out.get(k, 0), c)
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def apply_map(gmap, vec: dict, characteristic: int) -> dict:
    """A linear map's sparse (target, source) entries applied to a vector."""
    _, mul, _ = _ops(characteristic)
    out = {}
    for (ti, si), c in gmap.entries.items():
        if si in vec:
            out = vec_sum(out, {ti: mul(c, vec[si])}, characteristic)
    return out
