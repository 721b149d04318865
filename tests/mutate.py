"""Mutation runs over src/ainfty: does the test suite notice a broken line?

Each mutant is one exact snippet of one package file and its replacement.
The script copies the repository into a temporary directory, then for one
mutant at a time writes the mutated file, runs the mutant's test subset
there with ``pytest -x`` and puts the file back.  A mutant is killed when
the subset fails and survives when it passes.  It prints one line per
mutant and then the totals, and exits 1 when a mutant survives that is not
listed as equivalent.

    python tests/mutate.py

Standard library only, no options; it is not collected by pytest, and
``test_mutation_sites_occur_once`` checks that every snippet still occurs
exactly once, so the list cannot rot silently.  Runs take a few minutes.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file under src/ainfty, exact snippet, replacement, test subset)
MUTANTS = [
    # -- the contraction engine
    ("accumulate inserts between any endpoints", "quiver.py",
     "if not (isinstance(blocks.frm, Identity) and isinstance(blocks.to, Identity)):",
     "if False:", ["tests/test_quiver.py"]),
    ("constructors admit an arity-0 key", "quiver.py",
     "if key[0] < 1:", "if key[0] < 0:", ["tests/test_quiver.py"]),
    ("_slots drops the odd-token sign flip", "quiver.py",
     "in_t[i + 1:], items if sign == 1 else negated))\n"
     "                if flip and t & 1:\n                    sign = -sign",
     "in_t[i + 1:], items if sign == 1 else negated))\n"
     "                if flip and t & 1:\n                    sign = sign",
     ["tests/test_quiver.py"]),
    # -- the arity schedule of both double sums
    ("_schedule stops one arity short", "quiver.py",
     "min(max_arity, widest - 1 + longest)", "min(max_arity, widest - 2 + longest)",
     ["tests/test_quiver.py"]),
    ("_schedule yields one arity past the last word", "quiver.py",
     "min(max_arity, widest - 1 + longest)", "min(max_arity, widest + longest)",
     ["tests/test_quiver.py"]),
    ("_schedule skips the shortest insertion arity", "quiver.py",
     "min(n + 2 - shortest, widest + 1)", "min(n + 1 - shortest, widest + 1)",
     ["tests/test_quiver.py"]),
    # -- the certification stream, summed over basis tokens
    ("stream drops the odd-token sign flip", "quiver.py",
     "items if sign == 1 else negated))\n"
     "                if t & 1:\n                    sign = -sign",
     "items if sign == 1 else negated))\n"
     "                if t & 1:\n                    sign = sign",
     ["tests/test_quiver.py"]),
    ("stream decodes the path unreversed", "quiver.py",
     "for _, y, _ in reversed(word)", "for _, y, _ in word", ["tests/test_quiver.py"]),
    ("stream inserts at each slot entries of the slot's own arity", "quiver.py",
     "bucket = passes[n + 1 - r][1]", "bucket = passes[r][1]",
     ["tests/test_quiver.py"]),
    ("stream reads two arities ahead", "quiver.py",
     "passes.append(_token_pass(n, rows.get(n, ()), tokens))",
     "passes.append(_token_pass(n, rows.get(n, ()), tokens))\n"
     "        [_token_pass(k, rows.get(k, ()), tokens) for k in (n + 1, n + 2)]",
     ["tests/test_quiver.py"]),
    ("regroup keeps raw sums", "quiver.py",
     "for (path, acc, oi), c in fld.reduced(flat).items():",
     "for (path, acc, oi), c in flat.items():", ["tests/test_quiver.py"]),
    # -- arity bounds
    ("feasibility bound floors the least arity", "core.py",
     "least = max(least, -(c // -a))", "least = max(least, c // a)",
     ["tests/test_core.py"]),
    ("_choose_bound total flag", "core.py",
     "return max_arity, full is not None and max_arity >= full",
     "return max_arity, full is not None and max_arity > full",
     ["tests/test_core.py", "tests/test_strictify.py"]),
    # -- certification
    ("functor_defect m_B.F sign", "core.py",
     "accumulate(flat, -1, m_b, f, max_arity)",
     "accumulate(flat, 1, m_b, f, max_arity)", ["tests/test_core.py"]),
    ("_certify_structure one arity short", "core.py",
     "double_sum(structure, max_arity)),",
     "double_sum(structure, max_arity - 1)),", ["tests/test_core.py"]),
    ("certify_premise never extends", "core.py",
     "if value.total or value.arity_bound >= n:", "if True:",
     ["tests/test_strictify.py", "tests/test_pullback.py"]),
    ("build leaves curvature to the constructor", "core.py",
     "if any(n < 1 for n, _ in components):", "if False:",
     ["tests/test_core.py"]),
    ("build admits without _canonical", "core.py",
     "structure = _canonical(structure)", "structure = structure",
     ["tests/test_core.py"]),
    ("build stores units unreduced", "core.py",
     "units = {x: {i: c % p if p else c for i, c in u.items()}",
     "units = {x: {i: c for i, c in u.items()}", ["tests/test_pullback.py"]),
    ("build keeps zeros in units", "core.py",
     "cat.units = {x: {i: c for i, c in u.items() if c} for x, u in units.items()}",
     "cat.units = units", ["tests/test_pullback.py"]),
    ("u2 left-unit sign", "core.py",
     "sign = fld.one if sp.degree(i) % 2 == 0 else minus_one",
     "sign = fld.one", ["tests/test_core.py"]),
    ("_strictly_unital skips arity 2", "core.py",
     "if n >= 2 and any(_unit_slot_residues(fld, source.units, objs, table)):",
     "if n >= 3 and any(_unit_slot_residues(fld, source.units, objs, table)):",
     ["tests/test_core.py", "tests/test_pullback.py"]),
    # -- classifiers
    ("is_iso dimension guard", "core.py",
     "if not d == self.dim(y, y) == self.dim(x, y) == self.dim(y, x):",
     "if False:", ["tests/test_core.py"]),
    ("is_iso rank test", "core.py",
     "return solve_dense(fld, rows, list(self.unit_coords[x])) is not None",
     "return solve_dense(fld, rows, list(self.unit_coords[x])) is None",
     ["tests/test_core.py"]),
    ("isos dimension guard", "core.py",
     "if d == self.dim(y, x) == self.dim(x, x) == self.dim(y, y):",
     "if True:", ["tests/test_core.py"]),
    ("_units_lift rank test", "core.py",
     "if mat and len(rref(fld, mat)[1]) != len(mat):",
     "if mat and len(rref(fld, mat)[1]) > len(mat):", ["tests/test_core.py"]),
    ("hom-level rank test", "core.py",
     "if len(rref(fld, rows)[1]) != ds:", "if len(rref(fld, rows)[1]) > ds:",
     ["tests/test_core.py"]),
    ("check_F1 reads F1 uncertified", "core.py",
     "certify_premise(functor, 1)     # the classifiers read F1 as a chain map",
     "pass", ["tests/test_core.py"]),
    # -- constructions
    ("build_phi_psi minus", "strictify.py",
     "minus = fld.from_int(-1)", "minus = fld.from_int(1)",
     ["tests/test_strictify.py"]),
    ("psi recursion stops at the reach itself", "strictify.py",
     "if n > f_widest * max(", "if n >= f_widest * max(",
     ["tests/test_strictify.py"]),
    ("layout section without the kernel offset", "strictify.py",
     "{(kdim + i, i): one for i in range(mdim)}",
     "{(i, i): one for i in range(mdim)}",
     ["tests/test_pullback.py"]),
    ("transport sign", "strictify.py",
     "accumulate({}, 1, phi_m, psi, max_arity)",
     "accumulate({}, -1, phi_m, psi, max_arity)",
     ["tests/test_strictify.py"]),
    ("Blocks.vec keeps the whole kernel vector", "strictify.py",
     "out = {i: c for i, c in k.items() if i < kdim}", "out = dict(k)",
     ["tests/test_pullback.py"]),
    ("id_K coefficient", "pullback.py",
     "id_k = {(1, pair): {(i,): {i: one} for i in range(kdim)}",
     "id_k = {(1, pair): {(i,): {i: 2 * one} for i in range(kdim)}",
     ["tests/test_pullback.py"]),
    ("pullback premise m''.m'' = 0 dropped", "pullback.py",
     "    certify_premise(g.source, bound)\n", "", ["tests/test_strictify.py"]),
    ("pullback loop leaves arity 1 out", "pullback.py",
     "if 1 <= n <= max_arity}", "if 1 < n <= max_arity}",
     ["tests/test_pullback.py"]),
    # -- the fibration closure: each alpha clause derived without a premise
    ("alpha F2 derived without F's F2", "pullback.py",
     '"alpha_isofibration_isofib": ((_F2,),', '"alpha_isofibration_isofib": ((),',
     ["tests/test_small_scope.py"]),
    ("alpha kernel clause derived without F's quasi-equivalence", "pullback.py",
     '"alpha_kernel_acyclicity_ff": ((_F2, _QE),',
     '"alpha_kernel_acyclicity_ff": ((_F2,),', ["tests/test_small_scope.py"]),
    ("alpha hom level derived without F's quasi-equivalence", "pullback.py",
     '"alpha_hom_level_ff": ((_F2, _QE),', '"alpha_hom_level_ff": ((_F2,),',
     ["tests/test_small_scope.py"]),
    ("alpha essential surjectivity derived without F's F2", "pullback.py",
     '"alpha_essential_surjectivity_exsurj": ((_F2, _QE),',
     '"alpha_essential_surjectivity_exsurj": ((_QE,),',
     ["tests/test_small_scope.py"]),
    ("cone check without the kernel offset", "strictify.py",
     "m = {i - kdim: c for i, c in vec.items() if i >= kdim}",
     "m = {i: c for i, c in vec.items() if i >= kdim}", ["tests/test_pullback.py"]),
    ("cone check skipped", "pullback.py",
     "if bad is not None:\n        raise ConeError(*bad)",
     "if False:\n        raise ConeError(*bad)", ["tests/test_pullback.py"]),
    # -- parsers and spaces
    ("_once lets a record repeat", "documents.py",
     "    if key in seen:\n        raise DocumentError(path, ln, f\"{key[0]} record repeats",
     "    if False:\n        raise DocumentError(path, ln, f\"{key[0]} record repeats",
     ["tests/test_documents.py", "tests/test_cli.py"]),
    ("GradedSpace allows repeated names", "linear.py",
     "if len(index) != len(self.basis):", "if False:", ["tests/test_linear.py"]),
    ("coords reads one row short of the rank", "linear.py",
     "for x in tv[rank:]):", "for x in tv[rank + 1:]):", ["tests/test_linear.py"]),
    ("representative rows skip the first cocycle column", "linear.py",
     "if p >= len(below)]", "if p > len(below)]", ["tests/test_linear.py"]),
    ("pullback object names may collide", "pullback.py",
     "if (name := pair_name(x, y)) in pairs:",
     "if (name := pair_name(x, y)) in ():",
     ["tests/test_pullback.py"]),
]

# name -> why no input can tell the mutant from the code
EQUIVALENT: dict[str, str] = {}


def _run(copy: pathlib.Path, tests) -> bool:
    """Whether the test subset passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache")
    killed, survived = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        for name, module, snippet, replacement, tests in MUTANTS:
            path = copy / "src" / "ainfty" / module
            original = path.read_text()
            if original.count(snippet) != 1:
                print(f"{name}: snippet not found exactly once in {module}")
                return 2
            path.write_text(original.replace(snippet, replacement))
            try:
                passed = _run(copy, tests)
            finally:
                path.write_text(original)
            verdict = "survived" if passed else "killed"
            if passed:
                survived.append(name)
                if name in EQUIVALENT:
                    verdict += f" (equivalent: {EQUIVALENT[name]})"
            else:
                killed += 1
            print(f"{verdict:8} {module}: {name}", flush=True)
    print(f"{len(MUTANTS)} mutants: {killed} killed, {len(survived)} survived, "
          f"{sum(n in EQUIVALENT for n in survived)} of them equivalent")
    return 1 if any(n not in EQUIVALENT for n in survived) else 0


if __name__ == "__main__":
    sys.exit(main())
