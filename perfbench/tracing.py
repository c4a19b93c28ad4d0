"""Per-layer tracing of the package from outside it.

Each hook replaces a function where its callers look it up (a module
attribute, or a method on a class) with a wrapper that records a span: name,
start, end, parent. Spans are kept in memory and written out at the end of
the run; functions called tens of thousands of times per command are
aggregated only (count, inclusive and self time), not kept as spans. A hook
whose target no longer exists is reported as missing, and so are the
metrics that depend on it; the run carries on.

Self time is a span's duration minus the time its child spans cover. Child
spans on another thread (the Monte Carlo path blocks) overlap each other, so
their coverage is the union of their intervals.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict

_clock = time.perf_counter


class _Stat:
    __slots__ = ("count", "incl", "self_s", "layer_outer", "samples")

    def __init__(self):
        self.count = 0
        self.incl = 0.0         # calls not nested in a call of the same name
        self.self_s = 0.0
        self.layer_outer = 0.0  # calls not nested in any span of the same layer
        self.samples = []       # per-call durations, only where a metric needs them


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "cross", "sid")

    def __init__(self, name, layer, start):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0   # same-thread children: sequential, so a sum
        self.cross = []    # other-thread children: (start, end) intervals
        self.sid = None    # index in Tracer.spans once the span has ended


def _union_length(intervals):
    total, hi = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= hi:
            continue
        total += b - max(a, hi)
        hi = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack = None
        self.spans = []  # [name, parent frame, start, end, thread] until written
        self.track_memory = False
        self.stats = defaultdict(_Stat)
        self.layer_time = defaultdict(float)  # main-thread time under each layer
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def call(self, name, layer, fn, args, kwargs, keep_span=True, samples=False):
        stack = self._stack()
        cross_parent = None
        if stack:
            parent = stack[-1]
        elif self._main_stack and threading.current_thread() is not self._main:
            parent = cross_parent = self._main_stack[-1]
        else:
            parent = None
        # a block on a pool thread sits under simulate_paths on the main thread
        same_name, same_layer = False, cross_parent is not None
        for f in stack:
            same_name = same_name or f.name == name
            same_layer = same_layer or f.layer == layer
        frame = _Frame(name, layer, _clock())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            dur = end - frame.start
            covered = frame.child + (_union_length(frame.cross) if frame.cross else 0.0)
            if stack:
                stack[-1].child += dur
            with self._lock:
                if cross_parent is not None:
                    cross_parent.cross.append((frame.start, end))
                st = self.stats[name]
                st.count += 1
                st.self_s += dur - covered
                if not same_name:
                    st.incl += dur
                if not same_layer:
                    st.layer_outer += dur
                    if threading.current_thread() is self._main:
                        self.layer_time[layer] += dur
                if samples:
                    st.samples.append(dur)
                if keep_span:
                    frame.sid = len(self.spans)
                    self.spans.append([name, parent, frame.start, end,
                                       threading.get_ident()])

    def add(self, key, value):
        with self._lock:
            self.counters[key] += value

    def peak(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def reset(self):
        """Forget everything recorded so far (after the warm-up)."""
        self.spans.clear()
        self.stats.clear()
        self.layer_time.clear()
        self.counters.clear()
        self.maxima.clear()

    # -- installing hooks ----------------------------------------------------

    def wrap(self, target, layer, name=None, keep_span=True, make=None):
        """Hook ``module:attr`` or ``module:Class.method``. ``make(original)``
        may supply a custom wrapper; by default each call becomes a span
        called ``name``."""
        modname, _, path = target.partition(":")
        try:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(owner, attr,
                make(original) if make else self._plain(name, layer, original, keep_span))

    def _plain(self, name, layer, original, keep_span):
        def wrapper(*args, **kwargs):
            return self.call(name, layer, original, args, kwargs, keep_span)
        return wrapper

    def write_spans(self, path):
        """Spans as [id, name, parent id, start, end, thread]; a span ends
        after its children, so each parent id is known by then."""
        rows = [[i, name, parent.sid if parent else None, start, end, thread]
                for i, (name, parent, start, end, thread) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "thread"],
                       "spans": rows}, fh)


def _state_dim(n):
    """d for a Riccati state vector of length d(d+1) + 2."""
    return int(round((-1.0 + math.sqrt(1.0 + 4.0 * (n - 2))) / 2.0))


def install(tracer: Tracer) -> None:
    """Hook every layer of psdaffine. Call before the warm-up."""
    t = tracer

    def traced_integrate(original):
        def integrate(f, t0, y0, *args, **kwargs):
            d = _state_dim(len(y0))
            rhs_name = f"riccati.rhs.d{d}"

            def rhs(tt, y):
                return t.call(rhs_name, "riccati", f, (tt, y), {}, keep_span=False)
            monitor = kwargs.get("monitor")
            if monitor is not None:
                def traced_monitor(tt, y):
                    return t.call("riccati.monitor", "riccati", monitor, (tt, y), {},
                                  keep_span=False)
                kwargs["monitor"] = traced_monitor
            res = t.call(f"dopri5.integrate.d{d}", "dopri5", original, (rhs, t0, y0) + args,
                         kwargs, samples=True)
            t.add("dopri5.steps_accepted", getattr(res, "n_accepted", 0))
            t.add("dopri5.steps_rejected", getattr(res, "n_rejected", 0))
            return res
        return integrate

    def traced_block(original):
        sig = inspect.signature(original)

        def block(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs).arguments
                t.add("montecarlo.path_steps", len(bound["paths"]) * int(bound["n_steps"]))
            except (TypeError, KeyError):
                pass
            return t.call("montecarlo.block", "montecarlo", original, args, kwargs)
        return block

    def traced_project(original):
        import numpy as np

        def project(x, *args, **kwargs):
            out = t.call("montecarlo.project", "montecarlo", original, (x,) + args, kwargs,
                         keep_span=False)
            if x.shape[-1] == 2:
                a, bb, c = x[:, 0, 0], x[:, 0, 1], x[:, 1, 1]
                lo = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + bb * bb)
            else:
                lo = np.linalg.eigvalsh(x)[:, 0]
            t.add("montecarlo.project_active", int(np.count_nonzero(lo < 0.0)))
            t.add("montecarlo.project_rows", len(x))
            return out
        return project

    def traced_poisson(original):
        def poisson(*args, **kwargs):
            counts = t.call("montecarlo.poisson", "montecarlo", original, args, kwargs,
                            keep_span=False)
            if getattr(counts, "size", 0):
                t.peak("montecarlo.poisson_max_count", float(counts.max()))
            return counts
        return poisson

    def traced_simulate(original):
        # tracemalloc slows every allocation, so it runs only in the memory
        # pass (Tracer.track_memory), never while spans are timed
        def simulate(*args, **kwargs):
            if not t.track_memory:
                return t.call("montecarlo.simulate", "montecarlo", original, args, kwargs)
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                t.peak("montecarlo.peak_traced_bytes", tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return simulate

    hot = {"keep_span": False}
    hooks = [
        ("psdaffine.cli:load_params", "cli", "cli.parse", {}),
        ("psdaffine.cli:load_ugrid", "cli", "cli.parse", {}),
        ("psdaffine.cli:load_matrix_file", "cli", "cli.parse", {}),
        ("psdaffine.cli:_emit", "cli", "cli.emit", {}),
        ("psdaffine.riccati:solve", "riccati", "riccati.solve", {}),
        ("psdaffine.riccati:solve_boundary", "riccati", "riccati.solve_boundary", {}),
        ("psdaffine.riccati:transform", "riccati", "riccati.transform", {}),
        ("psdaffine._dopri5:integrate", "dopri5", None, {"make": traced_integrate}),
        ("psdaffine.riccati:psd_project", "symcore", "symcore.psd_project", hot),
        ("psdaffine.riccati:min_eig", "symcore", "symcore.min_eig", hot),
        ("psdaffine.closedform:mat_exp", "symcore", "symcore.mat_exp", hot),
        ("psdaffine.model:GeneralDrift.apply", "model", "model.drift_apply", hot),
        ("psdaffine.model:LyapunovDrift.apply", "model", "model.drift_apply", hot),
        ("psdaffine.model:GeneralDrift.adjoint", "model", "model.drift_adjoint", hot),
        ("psdaffine.model:LyapunovDrift.adjoint", "model", "model.drift_adjoint", hot),
        ("psdaffine.closedform:mbajd_transform", "closedform", "closedform.transform", {}),
        ("psdaffine.closedform:mbajd_phi", "closedform", "closedform.phi", {}),
        ("psdaffine.closedform:mbajd_psi", "closedform", "closedform.psi", hot),
        ("psdaffine.closedform:sigma_integral", "closedform", "closedform.sigma", hot),
        ("psdaffine.closedform:_adaptive_simpson", "closedform", "closedform.quad", hot),
        ("psdaffine.closedform:flow_omega", "closedform", "closedform.flow_omega", hot),
        ("psdaffine.montecarlo:estimate_transform", "montecarlo", "montecarlo.estimate", {}),
        ("psdaffine.montecarlo:simulate_paths", "montecarlo", None,
         {"make": traced_simulate}),
        ("psdaffine.montecarlo:_simulate_block", "montecarlo", None, {"make": traced_block}),
        ("psdaffine.montecarlo:_sqrt_psd_batch", "montecarlo", "montecarlo.sqrt", hot),
        ("psdaffine.montecarlo:_project_psd_batch", "montecarlo", None,
         {"make": traced_project}),
        ("psdaffine.montecarlo:_poisson_from_uniform", "montecarlo", None,
         {"make": traced_poisson}),
    ]
    for target, layer, name, opts in hooks:
        tracer.wrap(target, layer, name, **opts)


class Missing(Exception):
    """A metric's hook target is gone."""


def metrics(tracer: Tracer, timed_wall: float, commands: int) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit). Metrics
    whose hooks are missing are left out; ``missing_metrics`` lists them."""
    gone = set(tracer.missing)
    st = tracer.stats

    def need(*targets):
        for tgt in targets:
            if tgt in gone:
                raise Missing(tgt)

    def s(name):
        return st[name] if name in st else _Stat()

    def family(prefix):
        return [v for k, v in st.items() if k.startswith(prefix)]

    M = "psdaffine.montecarlo:"
    C = "psdaffine.closedform:"
    integrate = "psdaffine._dopri5:integrate"
    solves = family("dopri5.integrate.")
    rhs = family("riccati.rhs.")
    n_solves = sum(x.count for x in solves)
    acc = tracer.counters["dopri5.steps_accepted"]
    rej = tracer.counters["dopri5.steps_rejected"]
    evals = s("closedform.phi").count
    simulate_s = s("montecarlo.simulate").incl
    path_steps = tracer.counters["montecarlo.path_steps"]
    rows = tracer.counters["montecarlo.project_rows"]

    def ratio(a, b):
        return a / b if b else 0.0

    def solve_ms(d):
        sm = s(f"dopri5.integrate.d{d}").samples
        return 1e3 * statistics.median(sm) if sm else 0.0

    def rhs_us(d):
        x = s(f"riccati.rhs.d{d}")
        return 1e6 * ratio(x.incl, x.count)

    def riccati_self():
        return sum(s(n).self_s for n in ("riccati.solve", "riccati.solve_boundary",
                                         "riccati.transform"))

    table = {
        "cli.commands": (lambda: commands, "count", ()),
        "cli.parse_s": (lambda: s("cli.parse").incl, "s",
                        ("psdaffine.cli:load_params", "psdaffine.cli:load_ugrid")),
        "cli.emit_s": (lambda: s("cli.emit").incl, "s", ("psdaffine.cli:_emit",)),
        "cli.self_s": (lambda: s("cli.main").self_s, "s", ()),
        "symcore.psd_project_calls": (lambda: s("symcore.psd_project").count, "count",
                                      ("psdaffine.riccati:psd_project",)),
        "symcore.psd_project_s": (lambda: s("symcore.psd_project").incl, "s",
                                  ("psdaffine.riccati:psd_project",)),
        "symcore.min_eig_calls": (lambda: s("symcore.min_eig").count, "count",
                                  ("psdaffine.riccati:min_eig",)),
        "symcore.min_eig_s": (lambda: s("symcore.min_eig").incl, "s",
                              ("psdaffine.riccati:min_eig",)),
        "symcore.mat_exp_calls": (lambda: s("symcore.mat_exp").count, "count",
                                  (C + "mat_exp",)),
        "symcore.mat_exp_s": (lambda: s("symcore.mat_exp").incl, "s", (C + "mat_exp",)),
        "model.drift_apply_calls": (lambda: s("model.drift_apply").count, "count",
                                    ("psdaffine.model:GeneralDrift.apply",)),
        "model.drift_apply_s": (lambda: s("model.drift_apply").incl, "s",
                                ("psdaffine.model:GeneralDrift.apply",)),
        "model.drift_adjoint_calls": (lambda: s("model.drift_adjoint").count, "count",
                                      ("psdaffine.model:GeneralDrift.adjoint",)),
        "model.drift_adjoint_s": (lambda: s("model.drift_adjoint").incl, "s",
                                  ("psdaffine.model:GeneralDrift.adjoint",)),
        "dopri5.solves": (lambda: n_solves, "count", (integrate,)),
        "dopri5.steps_accepted": (lambda: acc, "count", (integrate,)),
        "dopri5.steps_rejected": (lambda: rej, "count", (integrate,)),
        "dopri5.accept_ratio": (lambda: ratio(acc, acc + rej), "fraction", (integrate,)),
        "dopri5.rhs_evals": (lambda: sum(x.count for x in rhs), "count", (integrate,)),
        "dopri5.self_s": (lambda: sum(x.self_s for x in solves), "s", (integrate,)),
        "dopri5.solve_ms.d2": (lambda: solve_ms(2), "ms", (integrate,)),
        "dopri5.solve_ms.d3": (lambda: solve_ms(3), "ms", (integrate,)),
        "dopri5.solve_ms.d5": (lambda: solve_ms(5), "ms", (integrate,)),
        "dopri5.share": (lambda: ratio(tracer.layer_time["dopri5"], timed_wall), "fraction",
                         (integrate,)),
        "riccati.rhs_s": (lambda: sum(x.incl for x in rhs), "s", (integrate,)),
        "riccati.rhs_us.d2": (lambda: rhs_us(2), "us", (integrate,)),
        "riccati.rhs_us.d3": (lambda: rhs_us(3), "us", (integrate,)),
        "riccati.rhs_us.d5": (lambda: rhs_us(5), "us", (integrate,)),
        "riccati.monitor_s": (lambda: s("riccati.monitor").incl, "s", (integrate,)),
        "riccati.self_s": (riccati_self, "s",
                           ("psdaffine.riccati:solve", "psdaffine.riccati:solve_boundary")),
        "riccati.boundary_share": (
            lambda: ratio(s("riccati.solve_boundary").count,
                          s("riccati.solve").count + s("riccati.solve_boundary").count),
            "fraction", ("psdaffine.riccati:solve", "psdaffine.riccati:solve_boundary")),
        "riccati.share": (lambda: ratio(tracer.layer_time["riccati"], timed_wall), "fraction",
                          ("psdaffine.riccati:solve", "psdaffine.riccati:solve_boundary")),
        "closedform.evals": (lambda: evals, "count", (C + "mbajd_phi",)),
        "closedform.phi_s": (lambda: s("closedform.phi").layer_outer, "s", (C + "mbajd_phi",)),
        "closedform.psi_s": (lambda: s("closedform.psi").layer_outer, "s", (C + "mbajd_psi",)),
        "closedform.sigma_calls": (lambda: s("closedform.sigma").count, "count",
                                   (C + "sigma_integral",)),
        "closedform.sigma_s": (lambda: s("closedform.sigma").incl, "s",
                               (C + "sigma_integral",)),
        "closedform.quad_s": (lambda: s("closedform.quad").incl, "s",
                              (C + "_adaptive_simpson",)),
        "closedform.witness_evals": (lambda: s("closedform.flow_omega").count, "count",
                                     (C + "flow_omega",)),
        "closedform.expm_per_eval": (lambda: ratio(s("symcore.mat_exp").count, evals), "count",
                                     (C + "mat_exp", C + "mbajd_phi")),
        "closedform.share": (lambda: ratio(tracer.layer_time["closedform"], timed_wall),
                             "fraction", (C + "mbajd_phi", C + "mbajd_psi")),
        "montecarlo.path_steps": (lambda: path_steps, "count", (M + "_simulate_block",)),
        "montecarlo.path_steps_per_s": (lambda: ratio(path_steps, simulate_s), "1/s",
                                        (M + "_simulate_block", M + "simulate_paths")),
        "montecarlo.simulate_s": (lambda: simulate_s, "s", (M + "simulate_paths",)),
        "montecarlo.block_overlap": (lambda: ratio(s("montecarlo.block").incl, simulate_s),
                                     "ratio", (M + "_simulate_block", M + "simulate_paths")),
        "montecarlo.sqrt_s": (lambda: s("montecarlo.sqrt").incl, "s",
                              (M + "_sqrt_psd_batch",)),
        "montecarlo.project_s": (lambda: s("montecarlo.project").incl, "s",
                                 (M + "_project_psd_batch",)),
        "montecarlo.poisson_s": (lambda: s("montecarlo.poisson").incl, "s",
                                 (M + "_poisson_from_uniform",)),
        "montecarlo.block_self_s": (lambda: s("montecarlo.block").self_s, "s",
                                    (M + "_simulate_block",)),
        "montecarlo.project_active_frac": (
            lambda: ratio(tracer.counters["montecarlo.project_active"], rows), "fraction",
            (M + "_project_psd_batch",)),
        "montecarlo.poisson_max_count": (
            lambda: tracer.maxima["montecarlo.poisson_max_count"], "count",
            (M + "_poisson_from_uniform",)),
        "montecarlo.peak_traced_mb": (
            lambda: tracer.maxima["montecarlo.peak_traced_bytes"] / 2**20, "MB",
            (M + "simulate_paths",)),
        "montecarlo.share": (lambda: ratio(tracer.layer_time["montecarlo"], timed_wall),
                             "fraction", (M + "estimate_transform", M + "simulate_paths")),
        "trace.missing_hooks": (lambda: len(tracer.missing), "count", ()),
    }
    out, missing = {}, []
    for key, (fn, unit, targets) in table.items():
        try:
            need(*targets)
            out[key] = (float(fn()), unit)
        except Missing:
            missing.append(key)
    return out, missing
