"""Per-layer tracing of avg_sfpde from outside the package.

The tracer wraps public functions and methods of the package's modules while
it is installed and restores them afterwards; nothing under ``src/`` changes.

Time is kept on one process-wide timeline.  Every wrapper entry and exit
takes the clock under a lock and charges the interval since the previous
event, on any thread, to the innermost open call of the thread that reports
it.  Self times therefore never overlap, even when the sweep's thread pool
runs two paths at once, and their sum cannot exceed the traced wall time.
An interval reported by a thread with no open call belongs to no layer; it
shows up in ``trace.untraced_s``.

Cheap hot functions (``to_values``, ``moments_centered``, ...) only update
in-memory aggregates of calls, self time and inclusive time.  Full spans
(name, study id, span id, parent id, thread, start, end) are recorded only
at coarse boundaries: one study (``cli.main``), the study function, one row
(the path map) and one path task.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import threading
import time

# (aggregate key, "module:qualified.name") for every timed boundary.
TIMED = [
    ("cli.main", "cli:main"),
    ("experiments.study", "experiments:averaging_sweep"),
    ("experiments.study", "experiments:khasminskii_diagnostic"),
    ("experiments.study", "experiments:continuity_study"),
    ("experiments.study", "experiments:hypothesis_audit"),
    ("presets.get_preset", "presets:get_preset"),
    ("integrator.run", "integrator:PathRunner.run"),
    ("integrator.normal_block", "integrator:normal_block"),
    ("integrator.khasminskii_freeze", "integrator:khasminskii_freeze"),
    ("integrator.other", "integrator:PathRunner.__init__"),
    ("integrator.other", "integrator:coupled_run"),
    ("integrator.other", "integrator:run_path"),
    ("integrator.other", "integrator:Trajectory.sup_sq_distance"),
    ("spectral.to_values", "spectral:SpectralSpace.to_values"),
    ("spectral.to_coeffs", "spectral:SpectralSpace.to_coeffs"),
    ("spectral.nonlinear_from_values", "spectral:PdeOperator.nonlinear_from_values"),
    ("spectral.probes", "spectral:PdeOperator.apply"),
    ("spectral.probes", "spectral:PdeOperator.pairing"),
    ("spectral.probes", "spectral:PdeOperator.monotonicity_gap"),
    ("spectral.probes", "spectral:PdeOperator.b_norm"),
    ("spectral.probes", "spectral:PdeOperator.dual_norm"),
    ("spectral.probes", "spectral:coercivity_probe"),
    ("coefficients.compose_drift", "coefficients:CoefficientSet.compose_drift"),
    ("coefficients.falsifiers", "coefficients:check_growth"),
    ("coefficients.falsifiers", "coefficients:check_holder"),
    ("coefficients.falsifiers", "coefficients:check_holder_averaged"),
    ("coefficients.falsifiers", "coefficients:check_h5"),
    ("coefficients.falsifiers", "coefficients:estimate_rate"),
    ("coefficients.sample_history", "coefficients:sample_history"),
    ("delay.delay_integral", "delay:delay_integral"),
    ("delay.delay_pair_integral", "delay:delay_pair_integral"),
    ("delay.moments_centered", "delay:DelayMeasure.moments_centered"),
    ("delay.values_at", "delay:HistoryBuffer.values_at"),
    ("delay.values_at", "delay:ConstantTail.values_at"),
    ("delay.values_at", "delay:ExponentialTail.values_at"),
    ("delay.values_at", "delay:TabulatedTail.values_at"),
    ("delay.values_at", "delay:SegmentTail.values_at"),
    ("delay.pair_seminorm", "delay:pair_seminorm"),
    ("reporting.io", "reporting:report_csv_text"),
    ("reporting.io", "reporting:report_svg_text"),
    ("reporting.io", "reporting:trajectory_csv_text"),
    ("reporting.io", "reporting:write_manifest"),
    ("reporting.io", "reporting:read_manifest"),
]

# Called once or twice per step: counted, never timed.
COUNTED = [
    ("coefficients.osc_eval", "coefficients:Oscillator.scalar_eval"),
    ("coefficients.osc_eval", "coefficients:Oscillator.__call__"),
]

# Functions whose calls are recorded as full spans, with their span name.
SPAN_NAMES = {"cli.main": "study", "experiments.study": "study-function"}

PACKAGE = "avg_sfpde"


class Tracer:
    """Aggregates, counters and coarse spans for one traced iteration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self._last = time.perf_counter()
        self._next_id = 0
        self.study_id = None
        self.reset()

    # -- bookkeeping --------------------------------------------------------
    def reset(self):
        """Drop everything recorded so far and restart the timeline."""
        with self._lock:
            self.agg = {}          # key -> [calls, self_s, inclusive_s]
            self.counts = {}
            self.spans = []
            self.pool_cpu = 0.0    # summed thread CPU time of path tasks
            self.pool_capacity = 0.0  # threads x wall time of path maps
            self._last = time.perf_counter()

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, stack):
        now = time.perf_counter()
        dt = now - self._last
        self._last = now
        if stack:
            stack[-1][1] += dt
        return now

    def enter(self, key):
        stack = self._stack()
        with self._lock:
            now = self._charge(stack)
            stack.append([key, 0.0, 0.0])
        return now

    def exit(self):
        stack = self._stack()
        with self._lock:
            now = self._charge(stack)
            key, own, kids = stack.pop()
            a = self.agg.get(key)
            if a is None:
                a = self.agg[key] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += own
            a[2] += own + kids
            if stack:
                stack[-1][2] += own + kids
        return now

    def new_span_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span_parents(self):
        parents = getattr(self._local, "spans", None)
        if parents is None:
            parents = self._local.spans = []
        return parents

    def record_span(self, name, span_id, parent, start, end):
        with self._lock:
            self.spans.append({"name": name, "study": self.study_id,
                               "id": span_id, "parent": parent,
                               "thread": threading.get_ident(),
                               "start": start, "end": end})

    def self_total(self):
        return sum(a[1] for a in self.agg.values())

    # -- wrappers -------------------------------------------------------------
    def _timed(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    def _spanned(self, key, fn):
        tracer = self
        name = SPAN_NAMES[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parents = tracer.span_parents()
            span_id = tracer.new_span_id()
            if key == "cli.main":
                tracer.study_id = span_id
            parent = parents[-1] if parents else None
            parents.append(span_id)
            start = tracer.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.exit()
                parents.pop()
                tracer.record_span(name, span_id, parent, start, end)
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _run_wrapper(self, fn):
        """PathRunner.run: counts path-steps and blow-ups besides timing."""
        tracer = self
        timed = self._timed("integrator.run", fn)
        blowup = sys.modules[PACKAGE + ".integrator"].BlowUpError

        @functools.wraps(fn)
        def wrapper(runner):
            tracer.count("integrator.path_steps", runner.cfg.n_steps)
            try:
                return timed(runner)
            except blowup:
                tracer.count("integrator.blowups")
                raise
        return wrapper

    def _transform_wrapper(self, key, fn):
        """Sine transforms: 2*k*m nominal flops per call besides timing."""
        tracer = self
        timed = self._timed(key, fn)

        @functools.wraps(fn)
        def wrapper(space, *args, **kwargs):
            tracer.count("spectral.transform_flops", 2 * space.k * space.m)
            return timed(space, *args, **kwargs)
        return wrapper

    def _map_paths_wrapper(self, fn):
        """Path map = one row span; each path task is a span of its own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task, n_paths, threads):
            row_id = tracer.new_span_id()
            parents = tracer.span_parents()
            parent = parents[-1] if parents else None

            def path_task(pid):
                span_id = tracer.new_span_id()
                cpu0 = time.thread_time()
                start = tracer.enter("experiments.study")
                try:
                    return task(pid)
                finally:
                    end = tracer.exit()
                    cpu = time.thread_time() - cpu0
                    with tracer._lock:
                        tracer.pool_cpu += cpu
                    tracer.record_span("path", span_id, row_id, start, end)

            parents.append(row_id)
            start = tracer.enter("experiments.study")
            try:
                return fn(path_task, n_paths, threads)
            finally:
                end = tracer.exit()
                parents.pop()
                with tracer._lock:
                    tracer.pool_capacity += max(threads, 1) * (end - start)
                tracer.record_span("row", row_id, parent, start, end)
        return wrapper

    # -- install / uninstall ----------------------------------------------
    def install(self):
        """Wrap every boundary of the package; call ``uninstall`` to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, target in TIMED:
            if key in SPAN_NAMES:
                self._patch(target, lambda fn, k=key: self._spanned(k, fn))
            elif target == "integrator:PathRunner.run":
                self._patch(target, self._run_wrapper)
            elif key in ("spectral.to_values", "spectral.to_coeffs"):
                self._patch(target, lambda fn, k=key: self._transform_wrapper(k, fn))
            else:
                self._patch(target, lambda fn, k=key: self._timed(k, fn))
        for key, target in COUNTED:
            self._patch(target, lambda fn, k=key: self._counted(k, fn))
        self._patch("experiments:_map_paths", self._map_paths_wrapper)
        self._patch_attr(pathlib.Path, "write_text",
                         lambda fn: self._timed("reporting.io", fn))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, target, make):
        module_name, qualname = target.split(":")
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            self._patch_attr(getattr(module, cls_name), attr, make)
            return
        original = getattr(module, qualname)
        wrapper = make(original)
        # from-imports bind the same object under other modules' names
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))
