"""Layer tracing from the benchmark's own files.

`Tracer.install()` replaces the public functions and methods of each layer
with timing wrappers, patched where the name is looked up: on the class for
methods, and in every `hecke_kit` module namespace that holds the function
(so `induce` imported by name into `mackey` is wrapped there too).
`uninstall()` puts the originals back.

Each wrapped call is a span with a name, start, end, parent span and
instance id.  The many tiny `BiPoly` operations are leaf counters instead:
their calls and time are added up per metric and their time is charged to
the enclosing span as child time, but they record no span of their own.
A span's self time is its duration minus the time its child spans and leaf
counters cover, including the wrappers' own bookkeeping for those children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from hecke_kit import coxeter, hecke, linalg, mackey, repmod, report, scalars, twists

# per-layer metric names, in the order they are reported
METRICS = (
    "scalars.bipoly_mul.calls", "scalars.bipoly_mul.self_s",
    "scalars.bipoly_add.calls", "scalars.bipoly_add.self_s",
    "scalars.specialize.calls",
    "hecke.mul.calls", "hecke.mul.self_s", "hecke.mul.terms",
    "hecke.change_basis.calls", "hecke.change_basis.self_s",
    "hecke.apply_morphism.calls", "hecke.apply_morphism.self_s",
    "hecke.morphism.builds", "hecke.morphism.self_s",
    "coxeter.enumerate.self_s", "coxeter.enumerate.elements",
    "coxeter.cosets.calls", "coxeter.cosets.self_s",
    "linalg.matmul.calls", "linalg.matmul.self_s", "linalg.matmul.madds",
    "linalg.matmul.nonintegral_out",
    "linalg.kernel.calls", "linalg.kernel.self_s", "linalg.kernel.unknowns",
    "linalg.det_mod.calls", "linalg.det_mod.self_s", "linalg.det_mod.retries",
    "linalg.inverse.calls", "linalg.inverse.self_s",
    "repmod.induce.calls", "repmod.induce.self_s", "repmod.induce.dim",
    "repmod.validate.self_s", "repmod.twist_along.self_s",
    "repmod.hom_space.calls", "repmod.hom_space.self_s", "repmod.hom_space.dim",
    "repmod.iso_test.calls", "repmod.iso_test.self_s", "repmod.iso_test.candidates",
    "repmod.iso_test.found",
    "mackey.build_sides.self_s", "mackey.verify.self_s", "mackey.tensor.self_s",
    "twists.transport.self_s", "twists.pairing.self_s", "twists.verify.self_s",
    "report.to_json.self_s",
)

# set-up metrics: enumeration happens once per process, before the rounds
SETUP_METRICS = ("coxeter.enumerate.self_s", "coxeter.enumerate.elements")


def _matmul_counts(totals, args, out):
    a, b = args
    totals["linalg.matmul.madds"] += sum(len(a.cols[i]) for col in b.cols for i in col)
    totals["linalg.matmul.nonintegral_out"] += sum(
        1 for col in out.cols for v in col.values() if v.denominator != 1)


def _hecke_terms(totals, args, out):
    a, b = args
    if isinstance(b, hecke.HeckeElement):
        totals["hecke.mul.terms"] += len(a.coeffs) * len(b.coeffs)


def _enumerated(totals, args, out):
    totals["coxeter.enumerate.elements"] += args[0].size


def _kernel_unknowns(totals, args, out):
    totals["linalg.kernel.unknowns"] += args[1]


def _det_retries(totals, args, out):
    totals["linalg.det_mod.retries"] += out is None


def _induced_dim(totals, args, out):
    totals["repmod.induce.dim"] += out.dim


def _hom_dim(totals, args, out):
    totals["repmod.hom_space.dim"] += len(out)


def _iso_found(totals, args, out):
    totals["repmod.iso_test.found"] += out["map"] is not None


# (owner, attribute, span name, extra counter); owner is a class or a module
def _span_targets():
    return (
        (hecke.HeckeElement, "__mul__", "hecke.mul", _hecke_terms),
        (hecke.HeckeElement, "change_basis", "hecke.change_basis", None),
        (hecke, "apply_morphism", "hecke.apply_morphism", None),
        (hecke.MorphismSpec, "__init__", "hecke.morphism", None),
        (coxeter.CoxeterSystem, "__init__", "coxeter.enumerate", _enumerated),
        (coxeter.CoxeterSystem, "double_coset_reps", "coxeter.cosets", None),
        (coxeter.CoxeterSystem, "parabolic_coset_reps", "coxeter.cosets", None),
        (coxeter.CoxeterSystem, "min_coset_reps", "coxeter.cosets", None),
        (coxeter.CoxeterSystem, "cross_section", "coxeter.cosets", None),
        (coxeter.CoxeterSystem, "triple_factorize", "coxeter.cosets", None),
        (linalg.RatMat, "__matmul__", "linalg.matmul", _matmul_counts),
        (linalg, "kernel_basis", "linalg.kernel", _kernel_unknowns),
        (linalg.RatMat, "det_mod", "linalg.det_mod", _det_retries),
        (linalg.RatMat, "inverse", "linalg.inverse", None),
        (repmod, "induce", "repmod.induce", _induced_dim),
        (repmod, "validate", "repmod.validate", None),
        (repmod, "twist_along", "repmod.twist_along", None),
        (repmod, "hom_space", "repmod.hom_space", _hom_dim),
        (repmod, "iso_test_detail", "repmod.iso_test", _iso_found),
        (mackey, "build_sides", "mackey.build_sides", None),
        (mackey, "verify", "mackey.verify", None),
        (mackey, "verify_tensor_decomposition", "mackey.tensor", None),
        (twists, "transport_induction_twist", "twists.transport", None),
        (twists, "build_pairing", "twists.pairing", None),
        (twists, "verify_thm44", "twists.verify", None),
        (twists, "verify_thm48", "twists.verify", None),
        (report.VerificationReport, "to_json", "report.to_json", None),
    )


def _leaf_targets():
    return (
        (scalars.BiPoly, "__mul__", "scalars.bipoly_mul"),
        (scalars.BiPoly, "__rmul__", "scalars.bipoly_mul"),
        (scalars.BiPoly, "__add__", "scalars.bipoly_add"),
        (scalars.BiPoly, "__radd__", "scalars.bipoly_add"),
        (scalars.BiPoly, "specialize", "scalars.specialize"),
    )


class Tracer:
    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[tuple] = []      # (id, name id, start, end, parent id, instance)
        self.record_spans = True
        self._next_id = 0
        self.instance = -1
        self._stack: list[list] = []      # [span id, child time]
        self._iso_depth = 0
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, counter):
        totals, stack, spans = self.totals, self._stack, self.spans
        calls, self_s = name + ".calls", name + ".self_s"
        if name == "hecke.morphism":
            calls = "hecke.morphism.builds"
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        iso = name == "repmod.iso_test"
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            if iso:
                tracer._iso_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if iso:
                    tracer._iso_depth -= 1
                if tracer.record_spans:
                    spans.append((frame[0], nid, t0, t1, parent[0] if parent else -1,
                                  tracer.instance))
                totals[calls] += 1
                totals[self_s] += (t1 - t0) - frame[1]
            if counter is not None:
                counter(totals, args, out)
            if parent is not None:
                parent[1] += perf_counter() - t_in
            return out

        return wrapper

    def _leaf(self, name, fn):
        totals, stack = self.totals, self._stack
        calls, self_s = name + ".calls", name + ".self_s"

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
            totals[calls] += 1
            totals[self_s] += t1 - t0
            if stack:
                stack[-1][1] += perf_counter() - t0
            return out

        return wrapper

    def _candidate_counter(self, fn):
        totals = self.totals
        tracer = self

        def wrapper(*args):
            if tracer._iso_depth:
                totals["repmod.iso_test.candidates"] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        original = owner.__dict__[attr]
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            # also every hecke_kit module that imported the function by name
            targets = [(mod, name) for mod_name, mod in list(sys.modules.items())
                       if mod_name.startswith("hecke_kit") and mod is not None
                       for name, val in vars(mod).items() if val is original]
        for target, name in targets:
            self._patches.append((target, name, original))
            setattr(target, name, new)

    def install(self):
        if self._patches:
            return
        for owner, attr, name, counter in _span_targets():
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], counter))
        for owner, attr, name in _leaf_targets():
            self._patch(owner, attr, self._leaf(name, owner.__dict__[attr]))
        inv = linalg.RatMat.__dict__["is_invertible"]
        self._patch(linalg.RatMat, "is_invertible", self._candidate_counter(inv))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def take_totals(self) -> dict:
        """Per-layer totals since the last call, every metric present."""
        out = {name: self.totals.get(name, 0.0) for name in METRICS}
        self.totals.clear()
        return out

    def spans_json(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "instance"],
            "spans": [[k, self.names[n], round(s, 7), round(e, 7), p, i]
                      for k, n, s, e, p, i in sorted(self.spans)],
        }
