"""Span recorder for the benchmark's traced pass.

Timing wrappers are installed, for the duration of one pass only, on the
module-level names that ``platoonsec.engine`` and ``platoonsec.cli`` look up
at call time.  Each call records a span (layer name, parent span, start, end)
in memory; a layer's self time is its spans' durations minus the part their
child spans cover.  The untraced passes never carry a wrapper.
"""

from __future__ import annotations

import contextlib
import time

import platoonsec.cli
import platoonsec.engine

# module -> {name looked up at call time: layer span name}
WRAPPED = {
    platoonsec.engine: {
        "find_common_lyapunov": "stability.cert_search",
        "lyapunov_constants": "stability.constants",
        "min_dwell_time": "stability.dwell",
        "equilibrium_strategy": "game.solve",
        "detector_sample": "threat.detector",
        "attack_signal": "threat.signal",
        "switching_decision": "supervisor.decide",
    },
    platoonsec.cli: {
        "load_scenario": "config.load",
        "run_scenario": "engine.run",
        "trace_metrics": "engine.metrics",
        "write_trace_csv": "output.csv",
        "write_metrics_json": "output.json",
    },
}

# the span whose return value (a run's trace) is reduced to exact counts
KEPT_SPAN = "engine.run"


class Tracer:
    """Spans of one pass, held as parallel lists of names, parent indices
    (-1 for a root) and start/end clock readings in nanoseconds.

    Flat lists of strings and ints keep the recorder off the cyclic garbage
    collector's books, which would otherwise add to the traced time.
    """

    def __init__(self, keep):
        """``keep`` reduces each ``engine.run`` result to what the counts need,
        so the pass does not hold every full trace in memory."""
        self.keep = keep
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kept: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, kept = self._stack, self.kept
        keep = self.keep if name == KEPT_SPAN else None
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in WRAPPED; restore the originals on exit.

        A name the module no longer has raises AttributeError: a layer that
        lost its wrapper would otherwise read as zero time, a false gain.
        """
        saved = []
        try:
            for module, names in WRAPPED.items():
                for attr, span_name in names.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> tuple[dict, dict]:
        """Per layer: (self seconds, call count)."""
        spans = list(zip(self.names, self.parents, self.starts, self.ends))
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, _, start, end) in enumerate(spans):
            seconds[name] = seconds.get(name, 0.0) + (end - start - child_ns[i]) * 1e-9
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def write(self, path) -> None:
        """All spans as CSV, start/end relative to the first span."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, span in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                parent, name, start, end = span
                f.write(f"{i},{parent},{name},{start - t0},{end - t0}\n")
