"""Outside-in per-layer tracing for one DDoSim run.

The tracer wraps the public entry points of each layer at class level,
before ``DDoSim`` is constructed, so nothing inside ``src/`` changes.
Every wrapped call is one span; spans are folded on the fly into a call
count, inclusive time and self time (inclusive minus the time covered by
child spans) with a stack of child-time accumulators.  Process
resumptions (``SimProcess._step``) are charged to the layer whose module
defines the resumed generator, so service, bot and C&C program code is
attributed to its layer instead of the event loop.

``netsim.simulator`` is what is left: the traced ``DDoSim.run`` wall time
minus the time covered by the top-level layer spans (the event loop, the
heap, process resumption bookkeeping and result collection).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Dict, List, Optional, Tuple

SIMULATOR = "netsim.simulator"

#: layer -> (module, class, method) entry points wrapped at class level
ENTRY_POINTS: Dict[str, List[Tuple[str, str, str]]] = {
    "netsim.netdevice": [
        ("repro.netsim.netdevice", "PointToPointDevice", "send"),
        ("repro.netsim.netdevice", "PointToPointDevice", "_transmit_complete"),
        ("repro.netsim.netdevice", "NetDevice", "receive"),
    ],
    "netsim.queues": [
        ("repro.netsim.queues", "DropTailQueue", "enqueue"),
        ("repro.netsim.queues", "DropTailQueue", "dequeue"),
        ("repro.netsim.queues", "DropTailQueue", "fluid_drop"),
    ],
    "netsim.channel": [
        ("repro.netsim.channel", "PointToPointChannel", "transmit"),
        ("repro.netsim.channel", "PointToPointChannel", "fluid_carry"),
    ],
    "netsim.ip": [
        ("repro.netsim.ip", "IpStack", "send"),
        ("repro.netsim.ip", "IpStack", "receive"),
    ],
    "netsim.udp": [
        ("repro.netsim.udp", "Udp", "send_datagram"),
        ("repro.netsim.udp", "Udp", "receive"),
    ],
    "netsim.tcp": [
        ("repro.netsim.tcp", "Tcp", "receive"),
        ("repro.netsim.tcp", "Tcp", "connect"),
        ("repro.netsim.tcp", "TcpConnection", "send"),
        ("repro.netsim.tcp", "TcpConnection", "_on_timeout"),
    ],
    "netsim.sink": [
        ("repro.netsim.sink", "PacketSink", "_on_datagram"),
        ("repro.netsim.sink", "PacketSink", "account_fluid"),
        ("repro.netsim.tracing", "FlowMonitor", "_tap"),
    ],
    "netsim.flows": [
        ("repro.netsim.flows", "FlowEngine", "start_flow"),
        ("repro.netsim.flows", "FlowEngine", "stop_flow"),
        ("repro.netsim.flows", "FlowEngine", "on_link_change"),
        ("repro.netsim.flows", "FlowEngine", "flush"),
        ("repro.netsim.flows", "FlowEngine", "advance"),
        ("repro.netsim.flows", "FlowEngine", "_inject"),
    ],
    "services": [
        ("repro.services.exploits", "ExploitKit", "rop_payload"),
    ],
    "memsafety": [
        ("repro.memsafety.rop", "ChainInterpreter", "run"),
        ("repro.memsafety.rop", "ChainBuilder", "execlp_chain"),
        ("repro.memsafety.stack", "StackFrame", "copy_unchecked"),
    ],
    "botnet": [
        ("repro.botnet.cnc", "CncServer", "broadcast"),
        ("repro.botnet.cnc", "CncServer", "issue_attack"),
    ],
    "container": [
        ("repro.container.runtime", "ContainerRuntime", "create"),
        ("repro.container.runtime", "ContainerRuntime", "start"),
        ("repro.container.container", "Container", "exec_run"),
    ],
    "core.churn": [
        ("repro.core.churn", "DynamicChurn", "step"),
    ],
}

#: every layer the trace reports, the simulator remainder included
LAYERS = (SIMULATOR,) + tuple(ENTRY_POINTS)

#: module prefix -> layer that owns generator code defined there; the
#: vulnerable daemons in repro.binaries and the attacker's DNS/DHCPv6
#: service programs in repro.core.attacker count as services
PROCESS_LAYERS = (
    ("repro.botnet.", "botnet"),
    ("repro.services.", "services"),
    ("repro.binaries.", "services"),
    ("repro.core.attacker", "services"),
    ("repro.memsafety.", "memsafety"),
    ("repro.container.", "container"),
    ("repro.core.churn", "core.churn"),
)

_PROCESS_STEP = ("repro.netsim.process", "SimProcess", "_step")


class LayerStat:
    __slots__ = ("calls", "inclusive", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Installs the layer wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {layer: LayerStat() for layer in ENTRY_POINTS}
        #: ``Class.method`` -> calls, for ratios based on one entry point
        self.entry_calls: Dict[str, List[int]] = {}
        #: child-time accumulators; index 0 collects top-level spans
        self._stack: List[float] = [0.0]
        #: entry points the program no longer has
        self.missing: List[str] = []
        #: (class, method) pairs replaced by a wrapper
        self._wrapped: List[Tuple[type, str]] = []
        self._module_layer: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, points in ENTRY_POINTS.items():
            stat = self.stats[layer]
            for module_name, class_name, method in points:
                cls, original = self._lookup(module_name, class_name, method)
                if original is None:
                    continue
                if inspect.isgeneratorfunction(original):
                    raise TypeError(
                        f"{class_name}.{method} is a generator; wrap its steps instead"
                    )
                calls = self.entry_calls.setdefault(f"{class_name}.{method}", [0])
                setattr(cls, method, self._span(original, stat, calls))
                self._wrapped.append((cls, method))
        cls, step = self._lookup(*_PROCESS_STEP)
        if step is not None:
            setattr(cls, _PROCESS_STEP[2], self._process_span(step))
            self._wrapped.append((cls, _PROCESS_STEP[2]))

    def untraced(self) -> List[str]:
        """Entry points whose calls the trace cannot see: those the
        program no longer has, and subclass overrides of a wrapped
        method that are not wrapped themselves.  Call it after the run,
        when every subclass has been imported."""
        found = list(self.missing)
        for cls, method in self._wrapped:
            for sub in _subclasses(cls):
                override = sub.__dict__.get(method)
                if override is not None and not hasattr(override, "__wrapped__"):
                    found.append(f"{sub.__module__}.{sub.__qualname__}.{method} "
                                 f"overrides traced {cls.__qualname__}.{method}")
        return found

    def reset(self) -> None:
        """Forget spans so far (called when the measured run starts)."""
        for stat in self.stats.values():
            stat.calls, stat.inclusive, stat.self_time = 0, 0.0, 0.0
        for calls in self.entry_calls.values():
            calls[0] = 0
        self._stack[:] = [0.0]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            layer: {"calls": stat.calls, "self_s": stat.self_time,
                    "inclusive_s": stat.inclusive}
            for layer, stat in self.stats.items()
        }

    def covered(self) -> float:
        """Wall time covered by top-level spans since :meth:`reset`."""
        return self._stack[0]

    # ------------------------------------------------------------------
    def _lookup(self, module_name: str, class_name: str, method: str):
        cls = getattr(importlib.import_module(module_name), class_name, None)
        original = None if cls is None else cls.__dict__.get(method)
        if original is None:
            self.missing.append(f"{module_name}.{class_name}.{method}")
        return cls, original

    def _span(self, fn, stat: LayerStat, entry_calls: Optional[List[int]] = None):
        stack = self._stack
        clock = time.perf_counter
        if entry_calls is None:
            entry_calls = [0]

        def span(*args, **kwargs):
            entry_calls[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.inclusive += elapsed
                stat.self_time += elapsed - child
                stack[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def _process_span(self, step):
        spans: Dict[Optional[str], object] = {None: step}
        for layer in set(layer for _, layer in PROCESS_LAYERS):
            spans[layer] = self._span(step, self.stats[layer])
        layer_of = self._layer_of

        def process_step(process, *args):
            code = getattr(process.generator, "gi_code", None)
            layer = None if code is None else layer_of(code.co_filename)
            return spans[layer](process, *args)

        process_step.__wrapped__ = step
        return process_step

    def _layer_of(self, filename: str) -> Optional[str]:
        try:
            return self._module_layer[filename]
        except KeyError:
            pass
        layer = None
        module = _module_name(filename)
        if module is not None:
            for prefix, owner in PROCESS_LAYERS:
                if module.startswith(prefix) or module == prefix.rstrip("."):
                    layer = owner
                    break
        self._module_layer[filename] = layer
        return layer


def _subclasses(cls: type) -> List[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _module_name(filename: str) -> Optional[str]:
    """``.../src/repro/botnet/bot.py`` -> ``repro.botnet.bot``."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return None
