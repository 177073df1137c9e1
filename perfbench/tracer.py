"""Outside-in span tracing of the hybrideq package.

The tracer wraps public functions of the package's modules from the
outside: `src/` is never edited.  Several modules import functions by name
(`from .sets import project_intersection`), so patching only the defining
module would miss every call made through such an alias; `Tracer.install`
therefore rebinds every attribute of every loaded `hybrideq` module that
refers to a wrapped function.

Each span records a name, start, end, parent span and solve id.  Spans are
kept in memory in flat typed arrays and written out once, when the run
ends.  A span's self time is its duration minus the time its child spans
cover; it is accumulated while the span is open, because spans of this
single-threaded program nest strictly.

The module also holds the untraced IterationClock, which times outer
iterations in reference seconds with the help of a probe kernel.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _kernel_bytes_hook(tracer, args, kwargs, result):
    # bytes computed from array sizes: array arguments read plus an array
    # result written; cache behaviour is not observed, hence "computed"
    moved = sum(getattr(v, "nbytes", 0) for v in args) + getattr(result, "nbytes", 0)
    tracer.count("space.kernel.bytes", moved)


def _project_hook(tracer, args, kwargs, result):
    tracer.count("sets.project.cuts", len(args[0].cuts))


def _add_cut_hook(tracer, args, kwargs, result):
    tracer.count("sets.add_cut.offered", 1)
    # add_cut returns its input unchanged when an existing cut dominates
    tracer.count("sets.add_cut.kept", int(result is not args[0]))


def _emit_hook(tracer, args, kwargs, result):
    tracer.count("harness.emit.bytes", sum(Path(p).stat().st_size for p in result))


#: (module, attribute, span name, hook) for every traced function; a dotted
#: attribute names a method of a class defined in that module
TARGETS = (
    ("space", "pnorm", "space.pnorm", _kernel_bytes_hook),
    ("space", "pairing", "space.pairing", _kernel_bytes_hook),
    ("space", "gauge_coords", "space.gauge_coords", _kernel_bytes_hook),
    ("space", "phi_coords", "space.phi_coords", _kernel_bytes_hook),
    ("space", "duality_jacobian", "space.duality_jacobian", _kernel_bytes_hook),
    ("sets", "project_intersection", "sets.project", _project_hook),
    ("sets", "dykstra_project", "sets.dykstra", None),
    ("sets", "project_primitive", "sets.project_primitive", None),
    ("sets", "worst_violation", "sets.worst_violation", None),
    ("sets", "contains", "sets.contains", None),
    ("sets", "add_cut", "sets.add_cut", _add_cut_hook),
    ("sets", "sample_feasible", "sets.sample_feasible", None),
    ("retraction", "sunny_retract", "retraction.retract", None),
    ("retraction", "retraction_vi_residual", "retraction.vi_residual", None),
    ("equilibrium", "solve_resolvent_certified", "equilibrium.resolve", None),
    ("equilibrium", "resolvent_gap", "equilibrium.gap", None),
    ("operators", "RelaxedFamily.apply_at", "operators.apply", None),
    ("solver", "run", "solver.run", None),
    ("solver", "step_y", "solver.step_y", None),
    ("solver", "audit_result", "solver.audit_result", None),
    ("harness", "load_scenario", "harness.load", None),
    ("harness", "build_bundle", "harness.build_bundle", None),
    ("harness", "build_config", "harness.build_config", None),
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "emit_report", "harness.emit", _emit_hook),
    ("cli", "main", "cli.main", None),
)


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hybrideq" or name.startswith("hybrideq."))
    ]


class Patch:
    """Replaces functions by wrappers in every module that holds them; undone by `undo`."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> int:
        """Wrap `hybrideq.<module_name>.<attr>` and rebind each alias; returns the binding count.

        A function the package no longer has is skipped with count 0.
        """
        owner = sys.modules[f"hybrideq.{module_name}"]
        *cls_path, func_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, func_name, None)
        if original is None:
            return 0
        wrapper = make_wrapper(original)
        holders = [owner] if cls_path else _package_modules()
        bound = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, original))
                    bound += 1
        return bound

    def undo(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


class SetupDone(Exception):
    """Raised at the first outer iteration of a set-up pass to end it there."""


# the probe: a fixed kernel of the program's kind of work (interpreted
# calls on 8-vectors: a matrix-vector product and a 3-norm), run twice
_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.standard_normal((8, 8))
_PROBE_V = _PROBE_RNG.standard_normal((8, 8))

#: a round figure near the probe's time on an unshared core of the machine
#: the baseline was measured on (80-100 us on an x86 Xeon at 2.0 GHz,
#: Python 3.11.7, numpy 2.4.6); it only sets the scale of reference seconds
PROBE_REF_S = 1e-4
PROBE_EVERY_S = 0.01


def probe_s() -> float:
    """Wall time of one run of the probe kernel."""
    t0 = time.perf_counter()
    for _ in range(2):
        for v in _PROBE_V:
            w = _PROBE_M @ v
            float(np.sum(np.abs(w) ** 3) ** (1 / 3))
    return time.perf_counter() - t0


class IterationClock:
    """Iteration timing, corrected for the speed of the core.

    `solver.step_y` is the first call of each outer iteration, so
    consecutive calls bound one iteration; `run` returning closes the last
    one.  Only these two functions are wrapped.  Each of these marks runs
    the probe, and while `sampling` is on, an interval timer runs it every
    PROBE_EVERY_S in between.  An event records the clock before the probe,
    the probe's time and the clock after it; `marks` holds the indices of
    the events made at step_y and at run's return.  The time between two
    consecutive events, which excludes the probes, counts at the reference
    speed: scaled by PROBE_REF_S over the mean probe time at its two ends,
    because while another tenant of the host slows this core down, the
    probe slows down with the program.  With `setup_only` set, the first
    `step_y` call reads the clock and raises SetupDone instead, so that a
    set-up pass ends exactly where the first iteration would begin.
    """

    def __init__(self):
        self.setup_only = False
        self._patch = Patch()
        self._busy = False
        self.reset()

    def _probe(self, mark: bool = False) -> None:
        if self._busy:  # a timer tick during a mark's probe
            return
        self._busy = True
        t0 = time.perf_counter()
        probe = probe_s()
        if mark:
            self.marks.append(len(self.events))
        self.events.append((t0, probe, time.perf_counter()))
        self._busy = False

    def install(self):
        def wrap_step(fn):
            def step_y(*args, **kwargs):
                if self.setup_only:
                    self.setup_end = time.perf_counter()
                    raise SetupDone
                self._probe(mark=True)
                return fn(*args, **kwargs)

            return step_y

        def wrap_run(fn):
            def run(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    if not self.setup_only:
                        self._probe(mark=True)

            return run

        self._patch.replace("solver", "step_y", wrap_step)
        self._patch.replace("solver", "run", wrap_run)
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())

    def uninstall(self):
        self.sampling(False)
        signal.signal(signal.SIGALRM, self._handler)
        self._patch.undo()

    def sampling(self, on: bool) -> None:
        interval = PROBE_EVERY_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def reset(self):
        self.events = []
        self.marks = []
        self.setup_end = None
        self.end = None

    def finish(self) -> None:
        """End a solve: stop the timer and record a last event."""
        self.sampling(False)
        self._probe()
        self.end = len(self.events) - 1

    def _ref_s(self, lo: int, hi: int) -> float:
        """Time from the end of event lo to the start of event hi at the reference speed."""
        ev = self.events
        return sum(
            (ev[j + 1][0] - ev[j][2]) * PROBE_REF_S / (0.5 * (ev[j][1] + ev[j + 1][1]))
            for j in range(lo, hi)
        )

    def solve_s(self) -> tuple:
        """From the first step_y call to the end of the solve, without the
        probes: (wall time, time at the reference speed)."""
        ev = self.events[self.marks[0] : self.end + 1]
        wall = sum(b[0] - a[2] for a, b in zip(ev, ev[1:]))
        return wall, self._ref_s(self.marks[0], self.end)

    def iterations_ref_s(self) -> list:
        """Each outer iteration's time at the reference speed."""
        return [self._ref_s(a, b) for a, b in zip(self.marks, self.marks[1:])]


class Tracer:
    """Records a span around every call into the TARGETS functions."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counters = {}
        self.bindings = {}
        self.solve_id = -1
        self._stack = []
        self._patch = Patch()

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrapper_factory(self, span_name, hook):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        tracer = self
        stack = self._stack
        names, parents, solves = self.name, self.parent, self.solve
        starts, ends, selfs = self.start, self.end, self.self_time
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                solves.append(tracer.solve_id)
                starts.append(0.0)
                ends.append(0.0)
                selfs.append(0.0)
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
                    selfs[idx] = (t1 - t0) - frame[1]
                    if stack:
                        stack[-1][1] += t1 - t0
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

            return traced

        return make

    def install(self):
        for module_name, attr, span_name, hook in TARGETS:
            self.bindings[span_name] = self._patch.replace(
                module_name, attr, self._wrapper_factory(span_name, hook)
            )

    def uninstall(self):
        self._patch.undo()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "solve": np.frombuffer(self.solve, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self": np.frombuffer(self.self_time, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write all spans (one row per span) plus the name table and counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "counters": self.counters}, indent=1) + "\n"
        )
