"""Discrete-event simulation kernel.

A compact, dependency-free DES engine in the generator-coroutine style:
:class:`Environment` drives :class:`Process` generators that yield
:class:`Event` objects (timeouts, resource requests, store gets, ...).

This kernel is the substrate every other ``repro`` subsystem runs on —
network links, protocol stacks, devices and workloads share one
environment and one simulated clock.  Code that waits is a process;
fire-and-forget work (a packet hop, a retry deadline, an enqueue nobody
waits on) uses :meth:`Environment.call_later` and
:meth:`Store.put_nowait`, which schedule no extra events.
"""

from .core import (
    EmptySchedule,
    Environment,
    StopSimulation,
    default_environment_class,
    set_default_environment_class,
)
from .debug import (
    DebugEnvironment,
    SimHazard,
    SimHazardError,
    debug_environment_installed,
    install_debug_environment,
    uninstall_debug_environment,
)
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Interrupt,
    Process,
    Timeout,
)
from .monitor import Counter, RateMeter, Series, TimeWeighted
from .resources import (
    Container,
    FilterStore,
    PriorityItem,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "set_default_environment_class",
    "default_environment_class",
    "DebugEnvironment",
    "SimHazard",
    "SimHazardError",
    "install_debug_environment",
    "uninstall_debug_environment",
    "debug_environment_installed",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Initialize",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "PriorityStore",
    "PriorityItem",
    "TimeWeighted",
    "Counter",
    "Series",
    "RateMeter",
]
