"""Layer tracing from outside the program: wrappers, self time and spans.

:func:`install` replaces the entry points of each layer of the
simulated stack (listed in :data:`LAYERS`) with timing wrappers.  The
program's own code is not edited; the wrappers are set on the classes
and modules at run time, in the traced process only.

- A plain function is timed per call.
- A generator (a simulation process body or a ``yield from`` callee) is
  timed per resume: each ``send``/``throw`` into it is one timed slice,
  so the wall time it spends suspended waiting on simulated events is
  never charged to it.
- A layer's *self time* is the wall time of its frames minus the time
  of wrapped frames nested inside them (of any layer).  Time spent
  outside every wrapped frame is the engine's: the event heap, callback
  dispatch, process plumbing and the workloads' client loops.
- Every generator call also records a span: its name, wall and sim start
  and end, the span that created it, and the client operation it serves
  (inherited from the creating span; a client ``append``/``write``/
  ``read``/``create_blob`` starts a new operation).  Plain functions are
  the hot paths (a message send, a cache lookup, a metric sample); they
  are counted and timed, not spanned.  Only calls that cross into a
  layer are wrapped; calls inside a layer are part of its frames.

Wrappers only observe: they pass every value, exception and return
value through unchanged, so a traced run's simulated observables equal
an untraced run's (``run.py`` checks this on every traced run).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "LAYERS", "install", "self_test"]

#: Layer -> [(module, class or None, [attribute names])].  Generator
#: functions are detected and wrapped per resume; the rest per call.
LAYERS: Dict[str, List[Tuple[str, Optional[str], List[str]]]] = {
    "client": [
        ("repro.blobseer.client", "BlobSeerClient",
         ["create_blob", "append", "write", "read",
          "_push_chunk", "_ticket_rpc", "_retry_pushes"]),
    ],
    "network": [
        ("repro.simulation.network", "FlowNetwork",
         ["transfer", "abort", "_admit", "_deliver_message", "_finish",
          "_timer_fired", "_black_hole"]),
    ],
    "solver": [
        ("repro.simulation.network", "FlowNetwork", ["_reallocate"]),
    ],
    "metadata": [
        # The per-node RPCs (MetadataStore.get/put) run inside these two
        # calls, so their time is already the metadata layer's.
        ("repro.blobseer.segment_tree", None, ["tree_update", "tree_query"]),
    ],
    "version_manager": [
        ("repro.blobseer.version_manager", "VersionManager",
         ["remote_create_blob", "remote_ticket", "remote_complete",
          "remote_get_latest", "abandon"]),
        ("repro.blobseer.rpc", "GroupCommitGate", ["_drain"]),
    ],
    "provider_manager": [
        ("repro.blobseer.provider_manager", "ProviderManager",
         ["remote_allocate"]),
    ],
    "provider": [
        ("repro.blobseer.provider", "DataProvider", ["_ingest", "_serve"]),
    ],
    "cache": [
        ("repro.cache.core", "Cache",
         ["lookup", "get", "put", "invalidate", "resize"]),
    ],
    "monitoring": [
        ("repro.monitoring.pipeline", "MonitoringStack",
         ["emit", "_flusher", "_sensor"]),
        ("repro.monitoring.service", "MonitoringService", ["ingest"]),
        ("repro.monitoring.repository", "StorageServer", ["offer", "_drain"]),
    ],
    "introspection": [
        ("repro.introspection.query", "QueryEngine",
         ["window_points", "window_stat", "window_percentile", "refresh",
          "events_in_window", "provider_rollup", "site_rollup", "hot_blobs",
          "hot_chunks", "cache_stats"]),
        ("repro.introspection.provenance", "DecisionJournal",
         ["record_decision"]),
    ],
    "decision": [
        ("repro.adaptation.controller", "ControlLoop", ["run"]),
        # Every loop class that defines its own ``step`` is added by
        # install(), so subclasses added later are covered too.
    ],
    "security": [
        ("repro.security.detection", "DetectionEngine", ["run", "scan_once"]),
        ("repro.security.history", "IntrospectionActivitySource",
         ["run", "pull_once"]),
        ("repro.security.enforcement", "PolicyEnforcement", ["apply"]),
    ],
    "telemetry": [
        ("repro.telemetry.metrics", "MetricsRegistry",
         ["sample", "counter", "gauge", "histogram", "series"]),
        ("repro.telemetry.metrics", "Counter", ["inc"]),
        ("repro.telemetry.metrics", "Gauge", ["set", "add"]),
        ("repro.telemetry.metrics", "Histogram", ["observe"]),
    ],
}

#: Client calls that start a new client operation (a span tree root).
_OP_ROOTS = {"BlobSeerClient.append", "BlobSeerClient.write",
             "BlobSeerClient.read", "BlobSeerClient.create_blob"}


class LayerTracer:
    """Self-time accounting, call counts and spans for wrapped calls.

    A frame on :attr:`stack` is ``[child_wall_s, span_id, layer]``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.sim_clock: Callable[[], float] = lambda: 0.0
        self.stack: List[list] = []
        self.reset()

    def reset(self, sim_clock: Optional[Callable[[], float]] = None) -> None:
        """Forget the counts and times recorded so far (call outside any
        frame).  Spans are kept for causality; only those opened after
        the reset are written out."""
        if sim_clock is not None:
            self.sim_clock = sim_clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls into a layer from outside it (or from no layer at all).
        self.entries: Dict[str, int] = defaultdict(int)
        #: name -> [finished spans, summed sim duration]
        self.sim_by_name: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        if not hasattr(self, "spans"):
            #: [name, wall0, wall1, sim0, sim1, parent, op]
            self.spans: List[list] = []
            self.next_op = 0
        self.span_base = len(self.spans)

    # -- wrapping ---------------------------------------------------------------
    def _enter(self, layer: str, name: str, first: bool = True) -> list:
        """Push a frame; *first* is False for a generator's later slices,
        which are resumes of a call already counted."""
        stack = self.stack
        parent = stack[-1] if stack else None
        if first:
            self.calls[name] += 1
            if parent is None or parent[2] != layer:
                self.entries[layer] += 1
        frame = [0.0, parent[1] if parent is not None else -1, layer]
        stack.append(frame)
        return frame

    def _leave(self, layer: str, frame: list, elapsed: float) -> None:
        self.stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def wrap_function(self, layer: str, name: str, fn: Callable) -> Callable:
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._enter(layer, name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(layer, frame, clock() - start)

        timed.__wrapped_layer__ = layer
        return timed

    def wrap_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        op_root = name in _OP_ROOTS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            gen = tracer._drive(inner, layer, name, parent, op_root)
            gen.__name__ = getattr(inner, "__name__", name)
            return gen

        spanned.__wrapped_layer__ = layer
        return spanned

    def _drive(self, inner, layer: str, name: str, parent: int, op_root: bool):
        """Resume *inner* slice by slice, timing each slice."""
        clock = self.clock
        if op_root:
            op = self.next_op
            self.next_op += 1
        else:
            op = self.spans[parent][6] if parent >= 0 else -1
        span_id = -1
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            first = span_id < 0
            if first:  # the call starts now
                span_id = len(self.spans)
                self.spans.append([name, clock(), None, self.sim_clock(),
                                   None, parent, op])
            frame = self._enter(layer, name, first)
            frame[1] = span_id
            start = clock()
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except BaseException as exc:
                self._leave(layer, frame, clock() - start)
                self._close(span_id, name)
                if isinstance(exc, StopIteration):
                    return exc.value
                raise
            self._leave(layer, frame, clock() - start)
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:
                error, value = exc, None

    def _close(self, span_id: int, name: str) -> None:
        span = self.spans[span_id]
        span[2] = self.clock()
        span[4] = self.sim_clock()
        if span_id >= self.span_base:
            record = self.sim_by_name[name]
            record[0] += 1
            record[1] += span[4] - span[3]

    # -- reporting --------------------------------------------------------------
    def mean_sim_s(self, name: str) -> float:
        """Mean simulated duration of the finished spans named *name*."""
        count, total = self.sim_by_name.get(name, (0, 0.0))
        return total / count if count else 0.0

    def write_spans(self, path: str) -> int:
        """Write every recorded span as gzip'd JSON lines; returns count.

        Spans still open when the run ended (calls in flight at a fixed
        horizon) have null ends."""
        spans = self.spans[self.span_base:]
        dumps = json.JSONEncoder(separators=(",", ":")).encode
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(dumps(["name", "wall_start", "wall_end", "sim_start",
                             "sim_end", "parent", "op"]) + "\n")
            out.writelines(dumps(span) + "\n" for span in spans)
        return len(spans)


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in :data:`LAYERS` for the rest of the
    process's life (a traced repetition runs in a process of its own)."""
    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner, attr: str, layer: str, label: str) -> None:
        original = owner.__dict__[attr]
        if hasattr(original, "__wrapped_layer__"):
            return
        if inspect.isgeneratorfunction(original):
            wrapped = tracer.wrap_generator(layer, label, original)
        else:
            wrapped = tracer.wrap_function(layer, label, original)
        setattr(owner, attr, wrapped)
        patched.append((owner, attr, original))

    for layer, entries in LAYERS.items():
        for module_name, class_name, attrs in entries:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                label = f"{class_name}.{attr}" if class_name else attr
                patch(owner, attr, layer, label)

    # Every control loop's own ``step`` (the plan/execute work of a
    # MAPE-K iteration) belongs to the decision layer.
    from repro.adaptation.controller import ControlLoop

    pending = [ControlLoop]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in cls.__dict__:
            patch(cls, "step", "decision", f"{cls.__name__}.step")

    # Modules that imported a wrapped module-level function by name keep
    # the original; point them at the wrapper as well.
    for owner, attr, original in patched:
        if not isinstance(owner, type(sys)):
            continue
        for module in list(sys.modules.values()):
            if (module is not owner and module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original):
                setattr(module, attr, getattr(owner, attr))


def self_test() -> List[str]:
    """Check the self-time arithmetic on a synthetic nested chain.

    ``outer`` (layer a) sleeps 20 ms, delegates to ``middle`` (layer b),
    then sleeps 5 ms.  ``middle`` sleeps 30 ms, calls the plain function
    ``leaf`` (layer c, 10 ms), yields, and after the resume sleeps 10 ms
    more.  While suspended at the yield the chain sleeps 50 ms with no
    frame active, which must be charged to nobody.  Expected self times:
    a = 25 ms, b = 40 ms, c = 10 ms.  Returns a list of failures.
    """
    tracer = LayerTracer()
    sleep = time.sleep

    def leaf():
        sleep(0.010)

    leaf_w = tracer.wrap_function("c", "leaf", leaf)

    def middle():
        sleep(0.030)
        leaf_w()
        yield "tick"
        sleep(0.010)
        return 7

    middle_w = tracer.wrap_generator("b", "middle", middle)

    def outer():
        sleep(0.020)
        got = yield from middle_w()
        sleep(0.005)
        return got

    outer_w = tracer.wrap_generator("a", "outer", outer)
    gen = outer_w()
    failures = []
    if next(gen) != "tick":
        failures.append("the chain did not pass its yielded value through")
    sleep(0.050)
    try:
        gen.send(None)
        failures.append("the chain did not finish")
    except StopIteration as stop:
        if stop.value != 7:
            failures.append(f"return value {stop.value!r} != 7")
    expected = {"a": 0.025, "b": 0.040, "c": 0.010}
    for layer, want in expected.items():
        got = tracer.self_s.get(layer, 0.0)
        # A sleep never returns early; allow scheduling delay above it.
        if not want <= got <= want + 0.015:
            failures.append(f"self time of {layer}: {got:.4f}s, expected "
                            f"{want:.3f}s (+0.015s slack)")
    if tracer.stack:
        failures.append("frames left on the stack")
    names = [span[0] for span in tracer.spans]
    if names != ["outer", "middle"]:
        failures.append(f"spans {names} != ['outer', 'middle']")
    elif tracer.spans[1][5] != 0:
        failures.append("middle's parent span is not outer")
    return failures
