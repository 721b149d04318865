from __future__ import annotations

import functools
import importlib
import os
import random
import sys

import pytest

from ainfty.core import H0Category
from ainfty.fields import Field

from helpers import (
    alpha_clauses_computed,
    alpha_splits_are_eliminated,
    h0_is_iso_by_classes,
    kernel_block_is_identity,
    oracle_running,
    phi_is_functor,
    projection_phi_is_f,
    psi_phi_is_identity,
    pullback_squares_to_zero,
    split_identity_failures,
    square_commutes,
    structure_is_admissible,
    triangles_hold,
)

TESTS = os.path.dirname(os.path.abspath(__file__))


def _check_split(data, m):
    assert split_identity_failures(data) == []


def _check_strictify(s, functor, max_arity=None):
    assert psi_phi_is_identity(s) and projection_phi_is_f(s) and phi_is_functor(s)
    # strictify bounds the model's families by the base's degree interval
    assert s.model.quiver.degree_interval() == s.model.base.quiver.degree_interval()


def _check_pullback(p, f, g, max_arity=None):
    assert square_commutes(p) and kernel_block_is_identity(p)
    assert structure_is_admissible(p.category)
    assert pullback_squares_to_zero(p) and alpha_splits_are_eliminated(p)


def _check_closure(out, p, *args, **kwargs):
    # alpha's F2 appears once F's passes, its other three clauses once F's
    # F2 and quasi-equivalence pass; each has the verdict computed on alpha
    sections = out.sections
    passed = {key for key, rep in sections.items() if rep.passed}
    gates = {"alpha_isofibration_isofib": {"f_isofibration"}, **dict.fromkeys(
        ("alpha_kernel_acyclicity_ff", "alpha_hom_level_ff",
         "alpha_essential_surjectivity_exsurj"),
        {"f_isofibration", "f_quasi_equivalence"})}
    keys = [key for key, gate in gates.items() if gate <= passed]
    assert keys == [key for key in gates if key in sections]
    assert alpha_clauses_computed(p, keys) == {
        key: sections[key].verdict for key in keys}


def _check_induce(rep, p, cone_i, cone_l):
    assert triangles_hold(p, rep.functor.morphism, cone_i.morphism)


def _check_is_iso(out, h0, x, y, f):
    assert out == h0_is_iso_by_classes(h0, x, y, f)


# each construction whose identities the package derives, with the oracle
# that recomputes them on its result
FORCED = [
    (getattr(importlib.import_module(f"ainfty.{module}"), name), check)
    for module, name, check in (
        ("linear", "split_surjection", _check_split),
        ("strictify", "strictify", _check_strictify),
        ("pullback", "build_pullback", _check_pullback),
        ("pullback", "induce_functor", _check_induce),
        ("pullback", "certify_fibration_closure", _check_closure))]
# the same for methods, wrapped on their class
FORCED_METHODS = [(H0Category, "is_iso", _check_is_iso)]


def _oracle_checked(fn, check):
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        out = fn(*args, **kwargs)
        with oracle_running():
            check(out, *args, **kwargs)
        return out
    return checked


@pytest.fixture(autouse=True)
def forced_identity_oracles(monkeypatch):
    """Every call of a construction in FORCED, from the package or from a
    test, has its result checked by the matching oracle when it returns.
    The wrapper is bound wherever a caller looks the construction up: in
    every ainfty module and every module of the test directory, and on the
    class for a method in FORCED_METHODS."""
    for cls, name, check in FORCED_METHODS:
        monkeypatch.setattr(cls, name, _oracle_checked(vars(cls)[name], check))
    wrapped = [(fn, _oracle_checked(fn, check)) for fn, check in FORCED]
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        path = getattr(mod, "__file__", None) or ""
        if name.split(".")[0] != "ainfty" and os.path.dirname(path) != TESTS:
            continue
        for attr, value in list(vars(mod).items()):
            for fn, checked in wrapped:
                if value is fn:
                    monkeypatch.setattr(mod, attr, checked)


@pytest.fixture
def qq() -> Field:
    return Field.rationals()


@pytest.fixture
def f5() -> Field:
    return Field.prime(5)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
