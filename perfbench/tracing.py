"""Per-layer tracing from outside the package.

A traced pass rebinds the layers' public functions and methods, in every
``ainfty`` module that holds them (the modules import names directly), to
wrappers that record spans: name, start, end, parent span and job.  A
span's self time is its duration minus the time its child spans cover;
a stage's time (strictify and pullback constructions) is its duration minus
the time of the stages nested in it, so stages include the engine, the
certification and the linear algebra they call.

Counts come from a separate counting pass with no spans at all, because
wrapping every scalar operation would swamp the self times of everything
above it.  Spans are recorded only while set-up or a job runs; the
benchmark's checks in between run untraced.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer key -> (module, qualified names); every span name is "<key>:<name>"
SPANS = {
    "linear.elim": ("ainfty.linear", ("rref", "solve_dense", "nullspace_dense")),
    "linear.split": ("ainfty.linear", ("split_surjection", "cohomology")),
    "quiver.compose_formal": ("ainfty.quiver", ("compose_formal",)),
    "quiver.l_compose": ("ainfty.quiver", ("l_compose",)),
    "quiver.r_compose": ("ainfty.quiver", ("r_compose",)),
    "quiver.compose_prenatural": ("ainfty.quiver", ("compose_prenatural",)),
    "quiver.eval": ("ainfty.quiver", ("eval_multilinear",)),
    "core.certify": ("ainfty.core", ("AInftyCategory.build", "AInftyFunctor.build",
                                     "structure_defect", "functor_defect",
                                     "check_strict_units")),
    "core.classify": ("ainfty.core", ("check_F1", "build_h0", "check_isofibration",
                                      "check_quasi_equivalence", "kernel_acyclicity",
                                      "_hom_level_quasi_iso",
                                      "_essential_surjectivity")),
    "strictify.split_model": ("ainfty.strictify", ("build_split_model",)),
    "strictify.phi_psi": ("ainfty.strictify", ("build_phi_psi",)),
    "strictify.transport": ("ainfty.strictify", ("transport_structure",)),
    "strictify.self": ("ainfty.strictify", ("strictify", "strict_projection")),
    "pullback.solve": ("ainfty.pullback", ("solve_pullback_arity",)),
    "pullback.verify": ("ainfty.pullback", ("build_pullback_structure",)),
    "pullback.build": ("ainfty.pullback", ("build_pullback",)),
    "pullback.closure": ("ainfty.pullback", ("certify_fibration_closure",)),
    "pullback.induce": ("ainfty.pullback", ("induce_functor",)),
    "documents.parse": ("ainfty.documents", ("parse_category", "parse_functor",
                                             "parse_certificates", "load_category",
                                             "load_functor", "load_certificates")),
    "documents.serialize": ("ainfty.documents", ("serialize_category",
                                                 "serialize_functor")),
    "cli": ("ainfty.cli", ("main", "cmd_validate", "cmd_classify", "cmd_strictify",
                           "cmd_pullback", "cmd_induce")),
}
STAGE_LAYERS = ("strictify.", "pullback.")

ENGINE = ("quiver.compose_formal", "quiver.l_compose", "quiver.r_compose",
          "quiver.compose_prenatural")

# per-layer metric -> (kind, unit, span keys); kind "self" sums self time,
# "stage" sums stage time
TIME_METRICS = {
    "linear.elim_self_s": ("self", ["linear.elim"]),
    "linear.split_self_s": ("self", ["linear.split"]),
    "quiver.engine_self_s": ("self", list(ENGINE)),
    "quiver.compose_formal_s": ("self", ["quiver.compose_formal"]),
    "quiver.l_compose_s": ("self", ["quiver.l_compose"]),
    "quiver.r_compose_s": ("self", ["quiver.r_compose"]),
    "quiver.compose_prenatural_s": ("self", ["quiver.compose_prenatural"]),
    "quiver.eval_self_s": ("self", ["quiver.eval"]),
    "core.certify_self_s": ("self", ["core.certify"]),
    "core.classify_self_s": ("self", ["core.classify"]),
    "strictify.split_model_s": ("stage", ["strictify.split_model"]),
    "strictify.phi_psi_s": ("stage", ["strictify.phi_psi"]),
    "strictify.transport_s": ("stage", ["strictify.transport"]),
    "strictify.self_s": ("stage", ["strictify.self"]),
    "pullback.solve_s": ("stage", ["pullback.solve"]),
    "pullback.verify_s": ("stage", ["pullback.verify"]),
    "pullback.build_s": ("stage", ["pullback.build"]),
    "pullback.closure_s": ("stage", ["pullback.closure"]),
    "pullback.induce_s": ("stage", ["pullback.induce"]),
    "documents.parse_self_s": ("self", ["documents.parse"]),
    "documents.serialize_self_s": ("self", ["documents.serialize"]),
    "cli.self_s": ("self", ["cli"]),
}

COUNT_METRICS = (
    "fields.mul_calls", "fields.add_calls", "fields.inv_calls",
    "linear.elim_calls", "linear.vec_calls",
    "quiver.engine_calls", "quiver.result_entries", "quiver.eval_calls",
    "core.certify_calls", "core.entries_certified", "core.is_iso_calls",
    "documents.bytes_read", "documents.bytes_written", "cli.commands",
)


def _entries(components) -> int:
    return sum(len(v) for table in components.values() for v in table.values())


class _Patcher:
    """Rebinds a function in every ainfty module (or a method on its class)
    and puts the originals back."""

    def __init__(self):
        self._undo = []

    def patch(self, module: str, qualname: str, make):
        mod = importlib.import_module(module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            self._undo.append((cls, attr, raw))
            return
        fn = getattr(mod, qualname)
        wrapped = make(fn)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "ainfty" or name.startswith("ainfty.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, fn))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


class SpanTracer:
    """Spans around every call into the layers listed in SPANS."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []                       # (id, name, start, end, parent, job)
        self.self_ns = defaultdict(int)       # layer key -> self time
        self.stage_ns = defaultdict(int)      # layer key -> stage time
        self.job_ns = 0                       # time inside jobs
        self.covered_ns = 0                   # job time under a top-level span
        self._stack = []                      # [id, key, start, child_ns, stage_child_ns]
        self._stage_stack = []
        self._job_start = 0
        self._patcher = _Patcher()

    # -- job boundaries (called by jobs.run_pass and around set-up) ---------

    def begin_job(self, name):
        self.job = name
        self.active = True
        self._job_start = time.perf_counter_ns()

    def end_job(self):
        if self.job != "setup":
            self.job_ns += time.perf_counter_ns() - self._job_start
        self.active = False
        self.job = None

    # -- wrapping --------------------------------------------------------------

    def _make(self, key, name):
        stage = key.startswith(STAGE_LAYERS)
        label = f"{key}:{name}"
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                parent = stack[-1][0] if stack else -1
                frame = [len(tracer.spans), key, 0, 0, 0]
                tracer.spans.append(None)
                if stage:
                    tracer._stage_stack.append(frame)
                stack.append(frame)
                frame[2] = start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    dur = end - start
                    tracer.self_ns[key] += dur - frame[3]
                    if stack:
                        stack[-1][3] += dur
                    elif tracer.job != "setup":
                        tracer.covered_ns += dur
                    if stage:
                        tracer._stage_stack.pop()
                        tracer.stage_ns[key] += dur - frame[4]
                        if tracer._stage_stack:
                            tracer._stage_stack[-1][4] += dur
                    tracer.spans[frame[0]] = (frame[0], label, start, end,
                                              parent, tracer.job)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def install(self):
        for key, (module, names) in SPANS.items():
            for name in names:
                self._patcher.patch(module, name, self._make(key, name))

    def uninstall(self):
        self._patcher.restore()

    def times(self, passes: int):
        """Per-pass seconds of every time metric."""
        out = {}
        for metric, (kind, keys) in TIME_METRICS.items():
            src = self.self_ns if kind == "self" else self.stage_ns
            out[metric] = sum(src[k] for k in keys) / passes / 1e9
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for span in self.spans:
                if span is not None:
                    fh.write("\t".join(str(x) for x in span) + "\n")


class Counter:
    """Counts calls, scalar operations and entries; no timing."""

    def __init__(self):
        self.active = False
        self.job = None
        self.counts = defaultdict(int)
        self._patcher = _Patcher()

    def begin_job(self, name):
        self.job = name
        self.active = True

    def end_job(self):
        self.active = False
        self.job = None

    def _counting(self, metric, measure=None):
        counter = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not counter.active:
                    return fn(*args, **kwargs)
                counter.counts[metric] += 1
                result = fn(*args, **kwargs)
                if measure is not None:
                    measure(counter.counts, args, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def install(self):
        p = self._patcher
        for op, metric in (("mul", "fields.mul_calls"), ("add", "fields.add_calls"),
                           ("sub", "fields.add_calls"), ("neg", "fields.add_calls"),
                           ("inv", "fields.inv_calls")):
            p.patch("ainfty.fields", f"Field.{op}", self._counting(metric))
        for name in ("rref", "solve_dense", "nullspace_dense"):
            p.patch("ainfty.linear", name, self._counting("linear.elim_calls"))
        for name in ("vec_add", "vec_scale"):
            p.patch("ainfty.linear", name, self._counting("linear.vec_calls"))

        def result_entries(counts, args, result):
            counts["quiver.result_entries"] += _entries(result.components)
        for name in ("compose_formal", "l_compose", "r_compose", "compose_prenatural"):
            p.patch("ainfty.quiver", name,
                    self._counting("quiver.engine_calls", result_entries))
        p.patch("ainfty.quiver", "eval_multilinear",
                self._counting("quiver.eval_calls"))

        def arity_part(counts, args, result):
            counts["arity_part.given"] += _entries(args[0].components)
            counts["arity_part.kept"] += _entries(result.components)
        p.patch("ainfty.quiver", "Prenatural.arity_part",
                self._counting("arity_part.calls", arity_part))

        def category_entries(counts, args, result):
            counts["core.entries_certified"] += _entries(args[1])

        def functor_entries(counts, args, result):
            counts["core.entries_certified"] += _entries(args[0].components)
        p.patch("ainfty.core", "AInftyCategory.build",
                self._counting("core.certify_calls", category_entries))
        p.patch("ainfty.core", "AInftyFunctor.build",
                self._counting("core.certify_calls", functor_entries))
        p.patch("ainfty.core", "H0Category.is_iso", self._counting("core.is_iso_calls"))

        def read(counts, args, result):
            counts["documents.bytes_read"] += len(args[0].encode())

        def written(counts, args, result):
            counts["documents.bytes_written"] += len(result.encode())
        for name in ("parse_category", "parse_functor", "parse_certificates"):
            p.patch("ainfty.documents", name, self._counting("documents.parses", read))
        for name in ("serialize_category", "serialize_functor"):
            p.patch("ainfty.documents", name,
                    self._counting("documents.serializations", written))
        p.patch("ainfty.cli", "main", self._counting("cli.commands"))

    def uninstall(self):
        self._patcher.restore()

    def metrics(self):
        out = {m: self.counts.get(m, 0) for m in COUNT_METRICS}
        given = self.counts.get("arity_part.given", 0)
        out["quiver.arity_part_kept"] = (
            self.counts.get("arity_part.kept", 0) / given if given else 0.0)
        return out
