"""Outside-in tracer for the newton_flow layers.

The tracer wraps named public functions of the package from outside, at
every binding inside the ``newton_flow.*`` namespaces.  Patching one
module attribute is not enough: ``flow`` reaches ``fd.deriv1`` through the
module, imports ``elem_sym_all`` under its own name, and calls
``sphere_radius_exact`` from a closure through its module globals.

Memory stays bounded however many calls are made.  Every call updates an
aggregate (calls, self time, inclusive time) on the fly.  Full spans are
kept only for the workload, for each job, and for the first entry into
each layer within a job.  Self time is span time minus the time of
wrapped child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

PACKAGE = "newton_flow"

# layer -> public functions traced in it
TARGETS = {
    "fd": ("deriv1", "deriv2", "flux_divergence"),
    "flow": ("run", "step_revolution", "revolution_speed",
             "revolution_cfl_bound", "sphere_radius_exact", "step_curve",
             "curve_speed", "curve_cfl_bound", "curve_normals_curvature"),
    "symfun": ("newton_family", "trace_identities", "modified_sff_norm_sq",
               "cauchy_schwarz_bound", "definiteness", "sqrt_psd", "elem_sym",
               "elem_sym_excluding", "elem_sym_all", "elem_sym_all_rows",
               "elem_sym_excluding_rows"),
    "catalog": ("sample_arrays", "revolution_geometry"),
    "gapcheck": ("evaluate", "evaluate_from_samples", "gauss_check"),
    "cli": ("main", "load_scene", "render_json"),
    "operators": ("lr_apply", "verify_support_identity",
                  "verify_position_identity", "verify_product_rule",
                  "verify_shrinker_pde"),
}

# counts taken from a traced function's result: key -> (counter, getter)
RESULT_COUNTS = {
    "catalog.sample_arrays": ("catalog.samples", lambda arr: arr.count),
}


class Tracer:
    """Aggregating span tracer; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats = {}       # "layer.func" -> [calls, self_s, incl_s]
        self.counters = {counter: 0 for counter, _ in RESULT_COUNTS.values()}
        self.spans = []       # (name, start, end, job, parent)
        self.absent = []
        self._stack = [[0.0, "root"]]   # frames: [child_s, name]
        self._seen = set()              # layers entered in the current job
        self._job = None
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                self.stats[key] = [0, 0.0, 0.0]
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, key, layer, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        count = RESULT_COUNTS.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, key]
            first = layer not in tracer._seen
            if first:
                tracer._seen.add(layer)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                parent[0] += dur
                if first:
                    tracer.spans.append((key, t0, t1, tracer._job, parent[1]))
            if count is not None:
                tracer.counters[count[0]] += count[1](result)
            return result

        return wrapper

    # -- benchmark-level spans ----------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """Full span around a workload or, with job set, around one job."""
        parent = self._stack[-1]
        saved = (self._job, self._seen)
        if job is not None:
            self._job, self._seen = job, set()
        self._stack.append([0.0, name])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[0] += t1 - t0
            self.spans.append((name, t0, t1, self._job, parent[1]))
            self._job, self._seen = saved

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(self.stats.get(f"{layer}.{name}", (0, 0.0))[1]
                   for name in TARGETS[layer])

    def spans_as_dicts(self) -> list:
        return [{"name": n, "start": s, "end": e, "job": j, "parent": p}
                for n, s, e, j, p in self.spans]

