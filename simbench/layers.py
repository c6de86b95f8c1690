"""Per-layer tracing for the traced benchmark run, from outside ``src/``.

The tracer patches public entry points of each layer of the simulator at
class level (before any network is built, so bound methods captured at
construction time are the wrapped ones) and records a span around every
call. Every event the kernel dispatches is wrapped at
``Simulator.schedule``/``schedule_at`` time, so its callback is timed and
attributed to the layer of the module that owns it. A layer's self time is
the time inside its spans minus the time inside their child spans.

Wrappers only time and count: they draw no random numbers, schedule
nothing of their own, and return what the wrapped call returns, so a
traced run simulates exactly what an untraced run does (the benchmark
checks this against the pinned digests).

Spans are timed with ``time.perf_counter_ns`` (cheap, wall clock); the
traced run also reports the process CPU time of the traced simulation, so
the tracing overhead can be set against the untraced ``sim_cpu_s`` and the
sum of the layer self times checked against a clock the spans do not drive.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

#: Layers the per-layer output reports, in print order. "sim.loop" is the
#: kernel's run loop outside every dispatched callback and every other span
#: (it is part of ``sim.self_s``, and also reported alone). "setup" is the
#: harness build (``Network()`` minus topology and spatial-index work);
#: "workloads" holds the control sends the benchmark schedules; "other" is
#: whatever the module map below does not name.
LAYERS = (
    "sim",
    "sim.loop",
    "radio",
    "radio.noise",
    "radio.spatial",
    "topology",
    "mac",
    "net",
    "core",
    "faults",
    "workloads",
    "runner",
    "setup",
    "other",
)

#: Layers reported as ``<layer>.self_s`` as they are ("sim" and "sim.loop"
#: are reported together as ``sim.self_s``). Spatial-index and topology work
#: happens only while building, reported as ``<layer>.build_s``; "other"
#: (modules the map does not name) is empty for every workload, so it only
#: enters the coverage sum.
SELF_LAYERS = ("radio", "radio.noise", "mac", "net", "core", "faults", "workloads", "runner", "setup")

#: Layers whose dispatched events are reported as ``<layer>.events``.
EVENT_LAYERS = ("radio", "mac", "net", "core", "faults", "workloads")

_MODULE_LAYERS = (
    ("repro.radio.noise", "radio.noise"),
    ("repro.radio.spatial", "radio.spatial"),
    ("repro.radio.", "radio"),
    ("repro.sim.", "sim"),
    ("repro.mac.", "mac"),
    ("repro.net.", "net"),
    ("repro.core.", "core"),
    ("repro.protocols.", "core"),
    ("repro.baselines.", "core"),
    ("repro.faults.", "faults"),
    ("repro.topology.", "topology"),
    ("repro.workloads.", "workloads"),
    ("repro.runner.", "runner"),
    ("__main__", "workloads"),
    ("bench", "workloads"),
)


def layer_of_module(module: str) -> str:
    """The layer a module belongs to (see ``_MODULE_LAYERS``)."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix):
            return layer
    return "other"


class LayerTracer:
    """Span recorder: per-layer self time, per-span calls and inclusive time."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.events: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.scheduled = 0
        self.cancelled = 0
        self.fanout = 0
        #: Open spans; each frame holds the time its children took.
        self.stack: List[List[int]] = []
        #: MAC and protocol counters harvested from finished networks.
        self.net_counters: Dict[str, Any] = {
            "trains": 0,
            "copies": 0,
            "backtracks": 0,
            "re_tele": 0,
            "feedback": 0,
            "athx": [],
        }
        self._module_layer: Dict[str, str] = {}

    # ------------------------------------------------------------ spans
    def span(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span ``name`` whose self time goes to ``layer``."""
        clock = time.perf_counter_ns
        stack = self.stack
        self_ns = self.self_ns
        calls = self.calls
        incl = self.incl_ns
        calls.setdefault(name, 0)
        incl.setdefault(name, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_ns[layer] += took - frame[0]
                incl[name] += took
                calls[name] += 1
                if stack:
                    stack[-1][0] += took

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, layer: str, name: str = "") -> None:
        """Replace ``owner.attr`` with a span-wrapped version."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(original, property):
            wrapped: Any = property(self.span(label, layer, original.fget))
        else:
            wrapped = self.span(label, layer, original)
        setattr(owner, attr, wrapped)

    def total_self_ns(self) -> int:
        """Self time summed over every layer."""
        return sum(self.self_ns.values())

    # --------------------------------------------------- kernel dispatch
    def _layer_of(self, callback: Callable[..., Any]) -> str:
        module = getattr(callback, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_of_module(module)
        return layer

    def _dispatcher(self) -> Callable[..., None]:
        clock = time.perf_counter_ns
        stack = self.stack
        self_ns = self.self_ns
        events = self.events

        def dispatch(layer: str, callback: Callable[..., Any], args: tuple) -> None:
            events[layer] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                callback(*args)
            finally:
                took = clock() - start
                stack.pop()
                self_ns[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took

        return dispatch

    def install(self) -> None:
        """Patch every traced entry point, for the rest of the process.

        Call before building networks, so that bound methods the simulator
        captures at construction time are the wrapped ones.
        """
        from repro.core.allocation import AllocationEngine
        from repro.core.forwarding import TeleForwarding
        from repro.experiments import chaos, harness, scale
        from repro.mac.lpl import LPLMac
        from repro.net.ctp import CtpForwarding, CtpRouting
        from repro.net.node import NodeStack
        from repro.radio.channel import Channel
        from repro.radio.noise import CPMNoiseModel
        from repro.radio.radio import Radio
        from repro.radio.spatial import SpatialChannel
        from repro.runner.cache import ResultCache
        from repro.runner.journal import RunJournal
        from repro.runner.taskspec import TaskSpec
        from repro.sim.simulator import Simulator
        from repro.topology.deployments import Deployment

        # Kernel: the run loop, scheduling (which re-wraps each callback so
        # its dispatch is timed and attributed), and cancellation.
        dispatch = self._dispatcher()
        layer_of = self._layer_of
        tracer = self

        def wrap_schedule(original: Callable[..., Any]) -> Callable[..., Any]:
            def schedule(sim: Any, when: int, callback: Callable[..., Any], *args: Any) -> Any:
                tracer.scheduled += 1
                return original(sim, when, dispatch, layer_of(callback), callback, args)

            return schedule

        def wrap_cancel(original: Callable[..., Any]) -> Callable[..., Any]:
            def cancel(sim: Any, event: Any) -> None:
                if event.pending:
                    tracer.cancelled += 1
                original(sim, event)

            return cancel

        for attr in ("schedule", "schedule_at"):
            setattr(Simulator, attr, wrap_schedule(Simulator.__dict__[attr]))
            self.patch(Simulator, attr, "sim")
        setattr(Simulator, "cancel", wrap_cancel(Simulator.__dict__["cancel"]))
        self.patch(Simulator, "cancel", "sim")
        self.patch(Simulator, "run", "sim.loop")

        # Radio layer: channel, radio, PRR; fan-out read off the new
        # transmission (the audible receivers of its rx map).
        start_tx = Channel.__dict__["start_transmission"]

        def start_transmission(channel: Any, radio: Any, frame: Any, done: Any) -> None:
            start_tx(channel, radio, frame, done)
            tracer.fanout += len(channel._active[-1].rx_power_dbm)

        setattr(Channel, "start_transmission", start_transmission)
        self.patch(Channel, "start_transmission", "radio")
        for attr in ("energy_dbm_at", "set_link_fault"):
            self.patch(Channel, attr, "radio")
        for attr in ("transmit", "deliver", "cca_clear", "turn_on", "turn_off"):
            self.patch(Radio, attr, "radio")
        self.patch(CPMNoiseModel, "sample", "radio.noise")
        self.patch(SpatialChannel, "__init__", "radio.spatial")
        self.patch(Channel, "_build_audible_from_spatial", "radio.spatial")

        # Topology: deployment generators and the dense gain matrix.
        for key in list(harness._TOPOLOGIES):
            original = harness._TOPOLOGIES[key]
            harness._TOPOLOGIES[key] = self.span(f"topology.{key}", "topology", original)
        self.patch(scale, "forest", "topology", "topology.forest")
        self.patch(Deployment, "gains", "topology")

        # MAC: sends, the receive entry from the radio, copy completion.
        for attr in ("send", "send_anycast", "_on_frame", "_copy_done"):
            self.patch(LPLMac, attr, "mac")

        # Net: frame dispatch from the MAC, sends from above, CTP beacons.
        for attr in ("_dispatch", "_anycast_dispatch", "send_broadcast", "send_unicast", "send_anycast"):
            self.patch(NodeStack, attr, "net")
        self.patch(CtpRouting, "beacon_received", "net")
        for attr in ("send", "_sent"):
            self.patch(CtpForwarding, attr, "net")

        # Core: TeleAdjusting forwarding and allocation handlers.
        for attr in (
            "send_control",
            "handle_control",
            "handle_feedback",
            "handle_handover",
            "snoop",
            "anycast_decision",
            "_forward_done",
            "e2e_ack_received",
        ):
            self.patch(TeleForwarding, attr, "core")
        for attr in (
            "handle_tele_beacon",
            "handle_position_request",
            "handle_allocation_ack",
            "handle_confirmation",
            "observe_routing_beacon",
            "fill_routing_beacon",
        ):
            self.patch(AllocationEngine, attr, "core")

        # Harness build, and the runner's cache, journal and fingerprints.
        self.patch(harness.Network, "__init__", "setup", "Network")
        self.patch(ResultCache, "load", "runner")
        self.patch(ResultCache, "store", "runner")
        self.patch(RunJournal, "record", "runner")
        self.patch(TaskSpec, "fingerprint", "runner")

        # Harvest per-network counters at the end of every chaos cell, where
        # the cell hands its finished network to the recovery report.
        report = chaos.recovery_report

        def recovery_report(network: Any) -> Any:
            self.harvest(network)
            return report(network)

        chaos.recovery_report = recovery_report

    # ------------------------------------------------- network counters
    def harvest(self, network: Any) -> None:
        """Fold one finished network's MAC and protocol counters in."""
        from repro.radio.frame import FrameType

        counters = self.net_counters
        for stack in network.stacks.values():
            counters["trains"] += stack.mac.trains_sent
            counters["copies"] += stack.mac.copies_sent
            counters["feedback"] += stack.tx_by_type.get(FrameType.FEEDBACK, 0)
        for adapter in network.protocols.values():
            summary = adapter.summary()
            counters["backtracks"] += summary.get("backtracks", 0)
            counters["re_tele"] += summary.get("re_tele_invocations", 0)
        counters["athx"].extend(
            r.athx for r in network.control_metrics.records if r.delivered and r.athx is not None
        )
