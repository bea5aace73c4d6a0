"""Layer spans for the traced run, recorded from outside the simulator.

Nothing under ``src/`` is edited.  :func:`install` wraps public entry
points on their classes before the workload is built, so every bound method
a component caches at construction is already the wrapped one:

* ``Engine.run_until`` is the root span (layer ``sim``);
* ``Engine.schedule``/``schedule_at``/``post``/``post_at`` and the
  ``Timer`` constructor wrap the callback they are given, so every callback
  the engine fires runs inside a span named after the ``repro`` package
  that defined it (``other`` for code outside ``repro``); the four
  scheduling calls and ``Timer.arm_at`` (through which every timer arming
  files its event) are themselves ``sim`` spans;
* the cross-layer entry points in :data:`BOUNDARIES` get explicit spans.

A span adds its duration minus the time its child spans cover to its
layer's *self time*, so the layers' self times (``sim`` holding the loop
time outside every other span) sum to the root span's wall time.  Spans are
aggregated in memory as they close and read out once the run ends.

An entry point that no longer exists is skipped and its layer reported in
:attr:`SpanRecorder.missing`, whose span metrics the runner then omits.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: ``repro`` package -> reported layer.  Packages not listed report under
#: their own name.
LAYER_OF_PACKAGE = {"cc": "tcp"}

#: Engine methods ``(self, time, callback, *args)`` whose callback is
#: wrapped.  The call itself is a ``sim`` span: filing an event is engine
#: work, whichever layer asks for it.
SCHEDULERS = ("schedule", "schedule_at", "post", "post_at")

#: Timer methods that file or cancel the timer's event: ``sim`` spans for
#: the same reason.  ``arm_after`` and ``arm_if_earlier`` arm through
#: ``arm_at``.
TIMER_SPANS = ("arm_at",)

#: Explicit spans: (module, class, method, layer).
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.fabric.host", "Host", "receive", "nic"),
    ("repro.core.juggler", "JugglerGRO", "receive_batch", "core"),
    ("repro.core.juggler", "JugglerGRO", "poll_complete", "core"),
    ("repro.core.juggler", "JugglerGRO", "check_timeouts", "core"),
    ("repro.core.standard_gro", "StandardGRO", "receive_batch", "core"),
    ("repro.core.standard_gro", "StandardGRO", "poll_complete", "core"),
    ("repro.core.standard_gro", "StandardGRO", "check_timeouts", "core"),
    ("repro.fabric.host", "Host", "deliver", "tcp"),
    ("repro.tcp.receiver", "TcpReceiver", "on_segment", "tcp"),
    ("repro.tcp.sender", "TcpSender", "on_ack_segment", "tcp"),
    ("repro.fabric.host", "Host", "transmit", "fabric"),
    ("repro.fabric.link", "QueuedLink", "enqueue", "fabric"),
    ("repro.fabric.switch", "Switch", "receive", "fabric"),
    ("repro.fabric.netfpga", "ReorderingSwitch", "receive", "fabric"),
)

#: Classes whose constructions are counted: (module, class, counter name).
COUNTED = (("repro.net.packet", "Packet", "packet_objs"),
           ("repro.net.segment", "Segment", "segment_objs"))

_ENGINE = ("repro.sim.engine", "Engine")
_TIMER = ("repro.sim.timer", "Timer")


class SpanRecorder:
    """Per-layer self time, span counts and object counts of one run."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self._by_module: Dict[str, int] = {}
        self.self_ns: List[int] = []
        self.spans: List[int] = []
        #: Open spans: each entry is the time its children covered so far.
        self._stack: List[int] = []
        self.objects: Dict[str, int] = {}
        #: Layers with at least one entry point that could not be wrapped.
        self.missing: Dict[str, List[str]] = {}

    # -- layers ---------------------------------------------------------------

    def layer_id(self, name: str) -> int:
        """The index of layer ``name``, registering it on first use."""
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_ns.append(0)
            self.spans.append(0)
        return index

    def layer_of_callback(self, callback) -> int:
        """The layer a callback belongs to: its defining ``repro`` package."""
        module = getattr(callback, "__module__", None)
        index = self._by_module.get(module)
        if index is None:
            parts = (module or "").split(".")
            if parts[0] == "repro" and len(parts) > 1:
                name = LAYER_OF_PACKAGE.get(parts[1], parts[1])
            else:
                name = "other"
            index = self._by_module[module] = self.layer_id(name)
        return index

    # -- spans ----------------------------------------------------------------

    def span(self, index: int, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of layer ``index``."""
        stack = self._stack
        self_ns = self.self_ns
        spans = self.spans

        def spanned(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                self_ns[index] += duration - stack.pop()
                spans[index] += 1
                if stack:
                    stack[-1] += duration

        spanned._perfbench_span = True
        return spanned

    def reset(self) -> None:
        """Zero the span totals (object counts are kept)."""
        self.self_ns[:] = [0] * len(self.self_ns)
        self.spans[:] = [0] * len(self.spans)

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Self time (ns) and span count per layer."""
        return {name: {"self_ns": self.self_ns[i], "spans": self.spans[i]}
                for i, name in enumerate(self.layers)}

    # -- installation ---------------------------------------------------------

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        fn = getattr(cls, attr)
        setattr(cls, attr,
                functools.wraps(fn)(self.span(self.layer_id(layer), fn)))

    def _missing(self, layer: str, where: str) -> None:
        self.missing.setdefault(layer, []).append(where)

    def install(self) -> None:
        """Wrap every entry point; record the ones that no longer exist.

        The wrapping is process-wide and permanent: call this once, in the
        process that runs the traced workload, before building it.
        """
        self.layer_id("sim")
        engine = _lookup(*_ENGINE)
        if engine is None or not hasattr(engine, "run_until"):
            self._missing("sim", "Engine.run_until")
        else:
            self._wrap_method(engine, "run_until", "sim")
            for name in SCHEDULERS:
                if hasattr(engine, name):
                    setattr(engine, name,
                            self._scheduler(getattr(engine, name)))
                else:
                    self._missing("sim", f"Engine.{name}")
        timer = _lookup(*_TIMER)
        if timer is None:
            self._missing("sim", "Timer")
        else:
            init = timer.__init__
            recorder = self

            @functools.wraps(init)
            def timer_init(self, engine, callback, *args, **kwargs):
                init(self, engine, recorder._wrap_callback(callback),
                     *args, **kwargs)

            timer.__init__ = timer_init
            for name in TIMER_SPANS:
                if hasattr(timer, name):
                    self._wrap_method(timer, name, "sim")
                else:
                    self._missing("sim", f"Timer.{name}")
        for module, cls_name, attr, layer in BOUNDARIES:
            cls = _lookup(module, cls_name)
            if cls is None or not hasattr(cls, attr):
                self._missing(layer, f"{cls_name}.{attr}")
            else:
                self._wrap_method(cls, attr, layer)
        for module, cls_name, counter in COUNTED:
            cls = _lookup(module, cls_name)
            if cls is not None:
                self._count_constructions(cls, counter)

    def _wrap_callback(self, callback):
        if getattr(callback, "_perfbench_span", False):
            return callback
        return self.span(self.layer_of_callback(callback), callback)

    def _scheduler(self, schedule: Callable) -> Callable:
        wrap = self._wrap_callback
        spanned = self.span(self.layer_id("sim"), schedule)

        @functools.wraps(schedule)
        def scheduling(engine, time, callback, *args):
            return spanned(engine, time, wrap(callback), *args)

        return scheduling

    def _count_constructions(self, cls, counter: str) -> None:
        """Count every instance made, including via ``cls.__new__(cls)``."""
        objects = self.objects
        objects[counter] = 0
        make = object.__new__

        def counting_new(klass, *args, **kwargs):
            objects[counter] += 1
            return make(klass)

        cls.__new__ = staticmethod(counting_new)


def _lookup(module: str, name: str):
    """``module.name``, or None when either no longer exists."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None
