"""Per-layer tracing from outside the library.

The traced run replaces each target function with a wrapper wherever the
``fanrep`` modules bind it (the modules import kernels by name, e.g.
``from .exactnum import mat_mul``), and each class attribute for methods.
A wrapper records a span: name, start, end, parent span and job id.
Counts and self times are accumulated as spans close; raw spans stay in
memory (up to SPAN_CAP of them) and are written out when the run ends.

A span's self time is its duration minus the time its direct child spans
cover, so work in a function that is not a target is charged to the
nearest target that called it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  Besides the functions the per-layer
# metrics name, the public entry points the CLI calls directly are traced
# too, so that cli.run's self time is the CLI's own parsing, dispatch and
# IO rather than library work.
TARGETS = [
    ("exactnum", "mat_mul", "exactnum.mat_mul"),
    ("exactnum", "invert", "exactnum.invert"),
    ("exactnum", "solve_nullspace", "exactnum.solve_nullspace"),
    ("exactnum", "parse_rational", "exactnum.parse_rational"),
    ("exactnum", "RatMatrix.__init__", "exactnum.RatMatrix.init"),
    ("exactnum", "RatMatrix.power", "exactnum.power"),
    ("exactnum", "RatMatrix.is_invertible", "exactnum.is_invertible"),
    ("geometry", "chart_bases", "geometry.chart_bases"),
    ("geometry", "fan_from_json", "geometry.fan_from_json"),
    ("geometry", "validate_fan", "geometry.validate_fan"),
    ("geometry", "is_smooth", "geometry.is_smooth"),
    ("geometry", "dual_cone_smooth", "geometry.dual_cone_smooth"),
    ("charts", "stratum_loop_exponents", "charts.stratum_loop_exponents"),
    ("charts", "gluing_map", "charts.gluing_map"),
    ("charts", "check_cocycle", "charts.check_cocycle"),
    ("quivers", "fan_quiver", "quivers.fan_quiver"),
    ("quivers", "hypercube_quiver", "quivers.hypercube_quiver"),
    ("quivers", "arrangement_quiver", "quivers.arrangement_quiver"),
    ("quivers", "quiver_from_json", "quivers.quiver_from_json"),
    ("quivers", "quiver_to_json", "quivers.quiver_to_json"),
    ("reps", "Representation.__init__", "reps.Representation.init"),
    ("reps", "monodromy", "reps.monodromy"),
    ("reps", "validate_Cn", "reps.validate_Cn"),
    ("reps", "validate_CSigma", "reps.validate_CSigma"),
    ("reps", "validate_CDelta", "reps.validate_CDelta"),
    ("reps", "hom_basis", "reps.hom_basis"),
    ("reps", "are_isomorphic", "reps.are_isomorphic"),
    ("reps", "rep_from_json", "reps.rep_from_json"),
    ("reps", "rep_to_json", "reps.rep_to_json"),
    ("descent", "DescentDatum.__init__", "descent.DescentDatum.init"),
    ("descent", "DescentDatum.delta", "descent.DescentDatum.delta"),
    ("descent", "validate_descent", "descent.validate_descent"),
    ("descent", "glue", "descent.glue"),
    ("descent", "section", "descent.section"),
    ("descent", "descent_from_json", "descent.descent_from_json"),
    ("descent", "descent_to_json", "descent.descent_to_json"),
    ("cli", "run", "cli.run"),
]

# spans the benchmark opens around its own code
BENCH_SPANS = ["cli.dump"]

# Raw spans kept for the .tsv; later spans still count in every metric but
# are not written out.  A traced (P1)^3 job opens tens of thousands of spans,
# so the file covers the first jobs of a run, not all of them.
SPAN_CAP = 200_000

LAYERS = ["exactnum", "geometry", "charts", "quivers", "reps", "descent", "cli"]

# What a traced run reports, in order.  Calls and times are per job; the
# spans of the other targets only attribute time to the right layer.
PER_LAYER = [
    "exactnum.mat_mul.calls", "exactnum.mat_mul.self_s",
    "exactnum.power.calls", "exactnum.power.self_s",
    "exactnum.invert.calls", "exactnum.invert.self_s", "exactnum.invert.useful_ratio",
    "exactnum.is_invertible.calls", "exactnum.is_invertible.self_s",
    "exactnum.solve_nullspace.calls", "exactnum.solve_nullspace.self_s", "exactnum.solve_nullspace.cells",
    "exactnum.RatMatrix.entries_built", "exactnum.RatMatrix.init_self_s",
    "exactnum.parse_rational.calls", "exactnum.parse_rational.self_s",
    "geometry.chart_bases.calls", "geometry.chart_bases.self_s",
    "charts.stratum_loop_exponents.calls", "charts.stratum_loop_exponents.self_s",
    "quivers.fan_quiver.calls", "quivers.fan_quiver.self_s",
    "quivers.hypercube_quiver.calls", "quivers.hypercube_quiver.self_s",
    "quivers.arrangement_quiver.calls", "quivers.arrangement_quiver.self_s",
    "reps.validate_Cn.calls", "reps.validate_Cn.self_s",
    "reps.validate_CSigma.calls", "reps.validate_CSigma.self_s",
    "reps.validate_CDelta.calls", "reps.validate_CDelta.self_s",
    "reps.monodromy.calls",
    "reps.hom_basis.self_s",
    "reps.are_isomorphic.calls",
    "reps.rep_from_json.self_s", "reps.rep_to_json.self_s",
    "descent.descent_from_json.self_s", "descent.descent_to_json.self_s",
    "descent.validate_descent.calls", "descent.validate_descent.self_s", "descent.validate_descent.calls_per_job",
    "descent.glue.self_s", "descent.section.self_s",
    "descent.DescentDatum.init_self_s", "descent.DescentDatum.delta.calls", "descent.DescentDatum.delta.inverting_calls",
    "cli.run.self_s", "cli.dump_s",
    *[f"layer.{layer}.self_s" for layer in LAYERS],
    "trace.overhead_ratio",
]


class Tracer:
    """Span recorder with a single call stack (the benchmark has one thread)."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS] + BENCH_SPANS
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.active = False
        self.job = 0
        self._installed = []
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.work = [0] * n  # cells solved / entries built, where defined
        self.useful_inverts = 0
        self.inverting_deltas = 0
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0

    # --- span bookkeeping -------------------------------------------------

    def enter(self, nid: int):
        idx = len(self.span_name)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_job.append(self.job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [nid, 0.0, 0.0, idx, False]
        self.stack.append(frame)
        frame[1] = now = perf_counter()
        if idx >= 0:
            self.span_start[idx] = now
        return frame

    def exit(self, frame):
        now = perf_counter()
        self.stack.pop()
        nid, start, child, idx, _ = frame
        dur = now - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.span_end[idx] = now

    def span(self, name: str):
        """Context manager for a span around the benchmark's own code."""
        return _BenchSpan(self, self.ids[name])

    # --- wrappers -----------------------------------------------------------

    def _wrapper(self, fn, name: str):
        nid = self.ids[name]
        tracer = self
        invert_id = self.ids["exactnum.invert"]
        is_inv_id = self.ids["exactnum.is_invertible"]
        delta_id = self.ids["descent.DescentDatum.delta"]

        # the work a call does, from its arguments, where a metric counts it
        size = {
            "exactnum.solve_nullspace": lambda a: a.rows * a.cols,
            "exactnum.RatMatrix.init": lambda matrix, rows, cols, entries: rows * cols,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if size is not None:
                tracer.work[nid] += size(*args, **kwargs)
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if nid == invert_id:
                parent = tracer.stack[-1][0] if tracer.stack else -1
                if parent != is_inv_id:
                    tracer.useful_inverts += 1
                if parent == delta_id:
                    tracer.stack[-1][4] = True  # this delta call inverted
            elif nid == delta_id and frame[4]:
                tracer.inverting_deltas += 1
            return result

        return traced

    def install(self):
        """Wrap every target at every binding in the loaded fanrep modules."""
        modules = fanrep_modules()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"fanrep.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(original, name))
                self._installed.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def unwrapped_bindings(self, callers=()) -> list:
        """Names in the fanrep modules, their classes and the given caller
        modules that are still bound to an original target; empty when
        every binding is wrapped."""
        originals = [original for _, _, original in self._installed]

        def is_original(value):
            return any(value is original for original in originals)

        left = []
        for mod in fanrep_modules() + list(callers):
            for key, value in vars(mod).items():
                if is_original(value):
                    left.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for akey, avalue in vars(value).items():
                        if is_original(getattr(avalue, "__func__", avalue)):
                            left.append(f"{mod.__name__}.{key}.{akey}")
        return sorted(left)

    # --- results ------------------------------------------------------------

    def metrics(self, jobs: int, slowdown: float = 1.0) -> dict:
        """The PER_LAYER metrics except the overhead ratio, per job over the
        traced phase.  Times are divided by ``slowdown`` (raw job time
        over job time at the reference speed), so that they are at the
        reference speed like the end-to-end times."""
        ids = self.ids
        out = {}
        for name in self.names:
            nid = ids[name]
            calls = self.calls[nid] / jobs
            self_s = self.self_s[nid] / jobs / slowdown
            if name.endswith(".init"):
                out[f"{name[: -len('.init')]}.init_self_s"] = (self_s, "s/job")
            elif name in BENCH_SPANS:
                out[f"{name}_s"] = (self_s, "s/job")
            else:
                out[f"{name}.calls"] = (calls, "1/job")
                out[f"{name}.self_s"] = (self_s, "s/job")
        inverts = self.calls[ids["exactnum.invert"]]
        out["exactnum.invert.useful_ratio"] = (self.useful_inverts / inverts if inverts else 0.0, "1")
        out["exactnum.solve_nullspace.cells"] = (self.work[ids["exactnum.solve_nullspace"]] / jobs, "1/job")
        out["exactnum.RatMatrix.entries_built"] = (self.work[ids["exactnum.RatMatrix.init"]] / jobs, "1/job")
        out["descent.DescentDatum.delta.inverting_calls"] = (self.inverting_deltas / jobs, "1/job")
        out["descent.validate_descent.calls_per_job"] = out["descent.validate_descent.calls"]
        for layer in LAYERS:
            total = sum(s for n, s in zip(self.names, self.self_s) if n.startswith(layer + "."))
            out[f"layer.{layer}.self_s"] = (total / jobs / slowdown, "s/job")
        return {name: out[name] for name in PER_LAYER if name in out}

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_job[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


class _BenchSpan:
    __slots__ = ("tracer", "nid", "frame")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame = self.tracer.enter(self.nid) if self.tracer.active else None

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer.exit(self.frame)
        return False


def fanrep_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if mod is not None and (name == "fanrep" or name.startswith("fanrep."))]
