"""The mutants of tests/mutate.py still name live code."""
from __future__ import annotations

import pathlib

from mutate import MUTANTS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ainfty"


def test_mutation_sites_occur_once():
    # a snippet that vanished or repeats would mutate nothing, or the wrong
    # line; each occurs exactly once in the whole package, in its own file
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert len(MUTANTS) >= 55
    for name, module, snippet, replacement, tests in MUTANTS:
        counts = {m: text.count(snippet) for m, text in sources.items()
                  if snippet in text}
        assert counts == {module: 1}, name
        assert snippet != replacement and tests, name
