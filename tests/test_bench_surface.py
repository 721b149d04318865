"""The traced benchmark rebinds ainfty functions by name from outside the
package (perfbench/tracing.py).  Installing and removing both tracers here
turns a rename or removal of any of those functions into a test failure
instead of a crashed benchmark run."""
from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("tracer", ["SpanTracer", "Counter"])
def test_tracer_rebinds_every_name(monkeypatch, tracer):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    linear = importlib.import_module("ainfty.linear")
    rref = linear.rref
    t = getattr(tracing, tracer)()
    try:
        t.install()
        assert linear.rref is not rref
    finally:
        t.uninstall()
    assert linear.rref is rref
