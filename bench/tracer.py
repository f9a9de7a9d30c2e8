"""Outside-in tracer for the evoinc layers.

The tracer changes no evoinc source. `install()` replaces the public entry
points of each module with timing wrappers, rebinding every `evoinc.*`
module attribute that holds the original (so names imported with
`from .geometry import dykstra` are covered too), and `uninstall()` puts
the originals back. Untraced passes therefore run the program unchanged.

Each wrapped call is one span: name, start, end, index of the parent span
and the operation id (one operation is one `evoinc.cli.main` call). Spans
are kept in memory and written out by `write_spans` when the run ends.
Counts come from arguments and return values only: rows from `x.shape[0]`,
vertex slots from the projector's (m, n), Dykstra cycles from a counting
wrapper around `proj_a`, Duhamel steps from the forcing grid, relaxed
iterations from `SolveReport.iterations`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (span name, module, attribute path, hook). A name may cover several
# attributes (both right-hand-side families share `rhs.vertex_array`).
TARGETS = (
    ("cli.main", "evoinc.cli", "main", None),
    ("config.load_config", "evoinc.config", "load_config", None),
    ("config.build_experiment", "evoinc.config", "build_experiment", None),
    ("suites.projection_difference_battery", "evoinc.suites",
     "projection_difference_battery", None),
    ("suites.slater_battery", "evoinc.suites", "slater_battery", None),
    ("suites.intersection_continuity_battery", "evoinc.suites",
     "intersection_continuity_battery", None),
    ("suites.monotone_battery", "evoinc.suites", "monotone_battery", None),
    ("suites.p2_oracle_battery", "evoinc.suites", "p2_oracle_battery", None),
    ("suites.complete_continuity_battery", "evoinc.suites",
     "complete_continuity_battery", None),
    ("suites.semigroup_battery", "evoinc.suites", "semigroup_battery", None),
    ("solver.solve_global", "evoinc.solver", "solve_global", None),
    ("solver.solve_window", "evoinc.solver", "solve_window", "window"),
    ("solver.compute_window", "evoinc.solver", "compute_window", None),
    ("solver.elementary_bound_probe", "evoinc.solver",
     "elementary_bound_probe", None),
    ("selection.nearest_point_selection", "evoinc.selection",
     "nearest_point_selection", None),
    ("selection.node_distances", "evoinc.selection", "node_distances", None),
    ("selection.approximate_selection", "evoinc.selection",
     "approximate_selection", None),
    ("rhs.vertex_array", "evoinc.rhs", "BasisFamilyMap.vertex_array", None),
    ("rhs.vertex_array", "evoinc.rhs", "SingletonAffineMap.vertex_array",
     None),
    ("geometry.HullProjector.project", "evoinc.geometry",
     "HullProjector.project", "project"),
    ("geometry.exact_fallback", "evoinc.geometry", "_wolfe_min_norm", None),
    ("geometry.dykstra", "evoinc.geometry", "dykstra", "dykstra"),
    ("monotone.prox_step", "evoinc.monotone", "prox_step", None),
    ("monotone.solve_monotone_ivp", "evoinc.monotone", "solve_monotone_ivp",
     None),
    ("semigroup.duhamel_solve", "evoinc.semigroup", "duhamel_solve",
     "duhamel"),
    ("semigroup.rk4_oracle", "evoinc.semigroup", "rk4_oracle", None),
    ("semigroup.yosida_smooth", "evoinc.semigroup", "yosida_smooth", None),
    ("semigroup.counterexample_profile", "evoinc.semigroup",
     "counterexample_profile", None),
)

# Per-call durations are kept for these spans, for percentiles.
DURATIONS = ("monotone.prox_step",)

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("geometry.HullProjector.project.calls", "count", "lower"),
    ("geometry.HullProjector.project.rows", "count", "lower"),
    ("geometry.HullProjector.project.rows_per_call", "count", "higher"),
    ("geometry.HullProjector.project.vertex_slots", "count", "lower"),
    ("geometry.HullProjector.project.self_s", "s", "lower"),
    ("geometry.HullProjector.project.raised", "count", "lower"),
    ("geometry.HullProjector.exact_fallback_rows", "count", "lower"),
    ("geometry.HullProjector.exact_fallback_frac", "ratio", "lower"),
    ("geometry.dykstra.calls", "count", "lower"),
    ("geometry.dykstra.cycles", "count", "lower"),
    ("geometry.dykstra.self_s", "s", "lower"),
    ("selection.nearest_point_selection.calls", "count", "lower"),
    ("selection.nearest_point_selection.self_s", "s", "lower"),
    ("selection.nearest_point_selection.total_s", "s", "lower"),
    ("selection.node_distances.calls", "count", "lower"),
    ("selection.node_distances.self_s", "s", "lower"),
    ("selection.node_distances.total_s", "s", "lower"),
    ("selection.approximate_selection.calls", "count", "lower"),
    ("selection.approximate_selection.self_s", "s", "lower"),
    ("selection.approximate_selection.total_s", "s", "lower"),
    ("rhs.vertex_array.calls", "count", "lower"),
    ("rhs.vertex_array.self_s", "s", "lower"),
    ("monotone.prox_step.calls", "count", "lower"),
    ("monotone.prox_step.self_s", "s", "lower"),
    ("monotone.prox_step.p50_us", "us", "lower"),
    ("monotone.prox_step.p99_us", "us", "lower"),
    ("monotone.prox_step.raised", "count", "lower"),
    ("monotone.solve_monotone_ivp.calls", "count", "lower"),
    ("monotone.solve_monotone_ivp.self_s", "s", "lower"),
    ("semigroup.duhamel_solve.steps", "count", "lower"),
    ("semigroup.duhamel_solve.self_s", "s", "lower"),
    ("semigroup.rk4_oracle.self_s", "s", "lower"),
    ("semigroup.yosida_smooth.self_s", "s", "lower"),
    ("semigroup.counterexample_profile.self_s", "s", "lower"),
    ("solver.solve_global.self_s", "s", "lower"),
    ("solver.solve_window.calls", "count", "lower"),
    ("solver.solve_window.self_s", "s", "lower"),
    ("solver.relaxed_iters", "count", "lower"),
    ("solver.compute_window.self_s", "s", "lower"),
    ("solver.elementary_bound_probe.self_s", "s", "lower"),
    ("config.load_config.total_s", "s", "lower"),
    ("config.build_experiment.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("suites.projection_difference_battery.self_s", "s", "lower"),
    ("suites.slater_battery.self_s", "s", "lower"),
    ("suites.intersection_continuity_battery.self_s", "s", "lower"),
    ("suites.monotone_battery.self_s", "s", "lower"),
    ("suites.p2_oracle_battery.self_s", "s", "lower"),
    ("suites.complete_continuity_battery.self_s", "s", "lower"),
    ("suites.semigroup_battery.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_project(tracer, args, kwargs):
    projector, x = args[0], _arg(args, kwargs, 1, "x")
    shape = getattr(x, "shape", ())
    tracer.counts["project.rows"] += shape[0] if len(shape) == 2 else 1
    vertices = getattr(projector, "v", None)  # (m, n, d) vertex stack
    if vertices is not None:
        m, n = vertices.shape[:2]
        tracer.counts["project.vertex_slots"] += m * n
    return args, kwargs, None


def _hook_dykstra(tracer, args, kwargs):
    proj_a = _arg(args, kwargs, 1, "proj_a")
    calls = [0]

    def counted(z):
        calls[0] += 1
        return proj_a(z)

    if len(args) > 1:
        args = args[:1] + (counted,) + args[2:]
    else:
        kwargs = dict(kwargs, proj_a=counted)

    def done(_result):
        # One proj_a call per cycle plus one for the final residual.
        tracer.counts["dykstra.cycles"] += max(calls[0] - 1, 0)

    return args, kwargs, done


def _hook_duhamel(tracer, args, kwargs):
    forcing = _arg(args, kwargs, 2, "forcing")
    tracer.counts["duhamel.steps"] += forcing.num_nodes - 1
    return args, kwargs, None


def _hook_window(tracer, args, kwargs):
    def done(result):
        iterations = result.report.iterations
        tracer.counts["relaxed_iters"] += iterations
        tracer.window_iterations.append(iterations)

    return args, kwargs, done


HOOKS = {"project": _hook_project, "dykstra": _hook_dykstra,
         "duhamel": _hook_duhamel, "window": _hook_window}


class Tracer:
    """Spans and per-layer counters for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.missing = []        # targets the program no longer has
        self.op = -1
        self.window_iterations = []
        self.durations = {name: [] for name in DURATIONS}
        self._patches = []       # (owner, attribute, original)
        self._stack = []         # [span index, seconds spent in children]
        self.reset()

    def reset(self):
        """Start a fresh set of per-pass counters (spans are kept)."""
        self.calls = Counter()
        self.total = Counter()
        self.self_s = Counter()
        self.raised = Counter()
        self.counts = Counter()

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])

    def _exit(self, name, raised):
        end = time.perf_counter()
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_s[name] += duration - children
        if raised:
            self.raised[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if name in self.durations:
            self.durations[name].append(duration)

    def _wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            done = None
            if hook is not None:
                args, kwargs, done = hook(tracer, args, kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._exit(name, raised=True)
                raise
            tracer._exit(name, raised=False)
            if done is not None:
                done(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == "evoinc" or key.startswith("evoinc."))]
        self.missing = []
        for name, module_name, path, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrapper(name, original, HOOKS.get(hook))
            self._patch(owner, attr, original, wrapper)
            if outer:
                continue  # a method: patching the class covers every caller
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics -------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer values of the counters since the last `reset`."""
        out = {}
        for name in set(self.calls) | {t[0] for t in TARGETS}:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.raised"] = self.raised[name]
        project = "geometry.HullProjector.project"
        rows = self.counts["project.rows"]
        out[f"{project}.rows"] = rows
        out[f"{project}.vertex_slots"] = self.counts["project.vertex_slots"]
        out[f"{project}.rows_per_call"] = \
            rows / self.calls[project] if self.calls[project] else 0.0
        fallback = self.calls["geometry.exact_fallback"]
        out["geometry.HullProjector.exact_fallback_rows"] = fallback
        out["geometry.HullProjector.exact_fallback_frac"] = \
            fallback / rows if rows else 0.0
        out["geometry.dykstra.cycles"] = self.counts["dykstra.cycles"]
        out["semigroup.duhamel_solve.steps"] = self.counts["duhamel.steps"]
        out["solver.relaxed_iters"] = self.counts["relaxed_iters"]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
