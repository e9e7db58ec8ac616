"""Per-layer tracing by wrapping calls into each layer's public functions.

The tracer patches a fixed list of library functions (``TARGETS``) with
timing wrappers and wraps every generator handed to
``Environment.process``, so each resume of a simkernel process is timed
and charged to the ``repro.<pkg>`` that defined the generator.  Spans
nest on one stack: a span's *self* time is its duration minus the time
of the spans it contains, so the self times of all layers sum exactly
to the root span (one traced repetition of a workload).

Nothing is written while tracing: per-target totals stay in memory and
:meth:`Tracer.summary` hands them out at the end.  Spans are aggregated
per target (calls, inclusive and self seconds) instead of being kept one
by one, because a single repetition opens millions of them.

The wrappers change timing only.  The benchmark proves it: a traced
repetition must produce the same simulated-output digest as the
untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "TARGETS", "Tracer", "layer_metrics_names"]

#: Layers self time is charged to.  ``other`` holds whatever no named
#: layer claims: the benchmark's own code, repro packages without a layer
#: of their own (metrics, baselines, ...) and the interpreter.
LAYERS = (
    "simkernel", "net", "mqttsn", "coap", "http", "capture", "core",
    "dfanalyzer", "dfanalyzer.store", "dfanalyzer.query", "device",
    "workloads", "harness", "other",
)

#: ``(module, qualname, layer)``: the layer boundaries that get a span.
#: Generator functions are timed per resume; plain functions per call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simkernel.core", "Environment.run", "simkernel"),
    ("repro.simkernel.resources", "Store.put", "simkernel"),
    ("repro.simkernel.resources", "Store.get", "simkernel"),
    ("repro.net.topology", "Network.send", "net"),
    ("repro.net.link", "Link.send", "net"),
    ("repro.net.host", "Host.deliver", "net"),
    ("repro.net.fleet", "FleetClientProxy.setup", "net"),
    ("repro.net.fleet", "FleetClientProxy.capture", "net"),
    ("repro.net.fleet", "FleetClientProxy.flush_groups", "net"),
    ("repro.net.fleet", "FleetClientProxy.drain", "net"),
    ("repro.mqttsn.packets", "MqttSnMessage.encode", "mqttsn"),
    ("repro.mqttsn.packets", "decode", "mqttsn"),
    ("repro.mqttsn.client", "MqttSnClient.connect", "mqttsn"),
    ("repro.mqttsn.client", "MqttSnClient.register", "mqttsn"),
    ("repro.mqttsn.client", "MqttSnClient.publish", "mqttsn"),
    ("repro.mqttsn.client", "MqttSnClient.publish_nowait", "mqttsn"),
    ("repro.coap.messages", "CoapMessage.encode", "coap"),
    ("repro.coap.messages", "CoapMessage.decode", "coap"),
    ("repro.coap.endpoint", "CoapClient.post", "coap"),
    ("repro.coap.endpoint", "CoapClient.post_nowait", "coap"),
    ("repro.http.client", "HttpSession.request", "http"),
    ("repro.http.messages", "HttpRequest.encode", "http"),
    ("repro.http.messages", "HttpResponse.encode", "http"),
    ("repro.capture.client", "CaptureClient.setup", "capture"),
    ("repro.capture.client", "CaptureClient.capture", "capture"),
    ("repro.capture.client", "CaptureClient.flush_groups", "capture"),
    ("repro.capture.client", "CaptureClient.drain", "capture"),
    ("repro.capture.journal", "CaptureJournal.append", "capture"),
    ("repro.capture.journal", "CaptureJournal.ack", "capture"),
    ("repro.capture.journal", "CaptureJournal.unacked", "capture"),
    ("repro.capture.envelope", "ReplayDeduper.seen", "capture"),
    ("repro.capture.envelope", "wrap_payload", "capture"),
    ("repro.capture.envelope", "unwrap_payload", "capture"),
    ("repro.core.model", "Workflow.begin", "core"),
    ("repro.core.model", "Workflow.end", "core"),
    ("repro.core.model", "Task.begin", "core"),
    ("repro.core.model", "Task.end", "core"),
    ("repro.core.serialization", "encode_payload", "core"),
    ("repro.core.serialization", "decode_payload", "core"),
    ("repro.core.translator", "Translator.translate_payload", "core"),
    ("repro.core.server", "CallableBackend.ingest", "core"),
    ("repro.core.server", "CallableBackend.ingest_batch", "core"),
    ("repro.dfanalyzer.ingestion", "DfAnalyzerService.ingest", "dfanalyzer"),
    ("repro.dfanalyzer.store", "Table.insert", "dfanalyzer.store"),
    ("repro.dfanalyzer.store", "Table.update_where", "dfanalyzer.store"),
    ("repro.dfanalyzer.query", "Query.rows", "dfanalyzer.query"),
    ("repro.dfanalyzer.queries", "latest_epoch_metrics", "dfanalyzer.query"),
    ("repro.dfanalyzer.queries", "top_k_by_metric", "dfanalyzer.query"),
    ("repro.dfanalyzer.queries", "task_durations", "dfanalyzer.query"),
    ("repro.dfanalyzer.queries", "lineage_of", "dfanalyzer.query"),
    ("repro.device.cpu", "Cpu.run", "device"),
    ("repro.workloads.synthetic", "synthetic_workload", "workloads"),
    ("repro.workloads.federated", "federated_training", "workloads"),
    ("repro.harness.experiments", "run_capture_experiment", "harness"),
    ("repro.harness.experiments", "run_null_baseline", "harness"),
)

#: Entry points into the backend: a call to one of these made while no
#: other is active is one backend batch.
_BACKEND_ENTRIES = (
    "CallableBackend.ingest", "CallableBackend.ingest_batch",
    "DfAnalyzerService.ingest",
)

_PAPER_QUERIES = (
    "latest_epoch_metrics", "top_k_by_metric", "task_durations", "lineage_of",
)


def layer_metrics_names() -> List[str]:
    """Names of every per-layer metric :meth:`Tracer.metrics` reports."""
    return list(Tracer().metrics(1.0))


def _resolve(module: str, qualname: str):
    """``(owner, attr, raw attribute, function)`` for a dotted target, or
    ``None``; the raw attribute differs from the function for class and
    static methods."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not inspect.isfunction(fn):
        return None
    return owner, attr, raw, fn


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Span stack plus per-target totals; install/uninstall the wrappers."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.target_layer: List[int] = []
        self.calls: List[int] = []
        self.incl: List[float] = []
        self.self_s: List[float] = []
        self._index: Dict[str, int] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.missing: List[str] = []
        # counters taken at layer boundaries
        self.events = 0
        self.processes = 0
        self.bytes_sent = 0
        self.payload_bytes = 0
        self.publish_encodes = 0
        self.publish_dups = 0
        self.replayed = 0
        self.duplicates = 0
        self.store_rows_scanned = 0
        self.query_rows_scanned = 0
        self.records_ingested = 0
        self.backend_batches = 0
        self._backend_depth = 0
        self.units = 0
        self.root_s = 0.0
        self._file_target: Dict[str, int] = {}
        self._target("root", "other")

    # -- bookkeeping -------------------------------------------------------
    def _target(self, name: str, layer: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.target_layer.append(LAYERS.index(layer))
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return index

    def _push(self, index: int) -> None:
        self._stack.append([index, self._clock(), 0.0])

    def _pop(self) -> float:
        index, start, child = self._stack.pop()
        duration = self._clock() - start
        self.self_s[index] += duration - child
        self.incl[index] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _process_target(self, filename: str) -> int:
        """Target of the processes whose generators ``filename`` defines."""
        index = self._file_target.get(filename)
        if index is None:
            name = "other"
            path = filename.replace("\\", "/")
            marker = path.rfind("/repro/")
            if marker >= 0:
                parts = path[marker + len("/repro/"):].split("/")
                name = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
                if name == "dfanalyzer" and len(parts) > 1:
                    module = parts[1][:-3]
                    if module == "store":
                        name = "dfanalyzer.store"
                    elif module in ("query", "queries"):
                        name = "dfanalyzer.query"
            if name not in LAYERS:
                name = "other"
            index = self._file_target[filename] = self._target(f"process:{name}", name)
        return index

    # -- spans -------------------------------------------------------------
    def _drive(self, gen, index: int):
        """Delegate to ``gen`` like ``yield from``, timing each resume."""
        push, pop = self._push, self._pop
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            push(index)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    thrown, error = error, None
                    yielded = gen.throw(thrown)
            except StopIteration as stop:
                pop()
                return stop.value
            except BaseException:
                pop()
                raise
            pop()
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error = exc

    def _timed_generator(self, index: int):
        calls, drive = self.calls, self._drive

        def start(gen):
            calls[index] += 1
            driven = drive(gen, index)
            driven.__name__ = gen.__name__
            driven.__qualname__ = gen.__qualname__
            return driven
        return start

    def _wrap(self, qualname: str, layer: str, fn: Callable) -> Callable:
        index = self._target(qualname, layer)
        if inspect.isgeneratorfunction(fn):
            start = self._timed_generator(index)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return start(fn(*args, **kwargs))
            return gen_wrapper

        calls, push, pop = self.calls, self._push, self._pop
        hook = self._hook(qualname)
        backend_entry = qualname in _BACKEND_ENTRIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if backend_entry:
                if self._backend_depth == 0:
                    self.backend_batches += 1
                self._backend_depth += 1
            push(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
                if backend_entry:
                    self._backend_depth -= 1
            calls[index] += 1
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _hook(self, qualname: str) -> Optional[Callable]:
        """Counters taken from a call's arguments or result."""
        if qualname == "Link.send":
            def hook(args, result):
                self.bytes_sent += args[1].size
        elif qualname == "MqttSnMessage.encode":
            def hook(args, result):
                message = args[0]
                if type(message).__name__ == "Publish":
                    self.publish_encodes += 1
                    if message.dup:
                        self.publish_dups += 1
        elif qualname == "encode_payload":
            def hook(args, result):
                self.payload_bytes += len(result)
        elif qualname == "CaptureJournal.unacked":
            def hook(args, result):
                self.replayed += len(result)
        elif qualname == "ReplayDeduper.seen":
            def hook(args, result):
                if result:
                    self.duplicates += 1
        elif qualname == "DfAnalyzerService.ingest":
            def hook(args, result):
                self.records_ingested += result
        elif qualname == "Table.update_where":
            # the table length *before* the call is what a full scan reads;
            # update_where never changes the row count
            def hook(args, result):
                self.store_rows_scanned += len(args[0])
        else:
            hook = None
        return hook

    # -- install / uninstall ------------------------------------------------
    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def install(self) -> None:
        """Patch every target and the kernel's step/process entry points."""
        from repro.dfanalyzer.store import Table
        from repro.simkernel import core as kernel

        self.missing = []
        for module, qualname, layer in TARGETS:
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(f"{module}:{qualname}")
                continue
            owner, attr, raw, fn = found
            wrapper = self._wrap(qualname, layer, fn)
            self._patch(owner, attr, raw,
                        type(raw)(wrapper) if raw is not fn else wrapper)
            if not isinstance(owner, type):
                # module-level function: rebind every ``from x import f``
                for mod in _repro_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, fn, wrapper)

        env_cls = kernel.Environment
        step, process = env_cls.step, env_cls.process
        drive_code = self._drive.__code__

        def counted_step(env):
            self.events += 1
            return step(env)

        def timed_process(env, generator, name=None):
            self.processes += 1
            code = getattr(generator, "gi_code", None)
            # generators of wrapped functions are timed already
            if code is not None and code is not drive_code:
                index = self._process_target(code.co_filename)
                self.calls[index] += 1
                if name is None:
                    name = generator.__name__
                generator = self._drive(generator, index)
            return process(env, generator, name=name)

        self._patch(env_cls, "step", step, counted_step)
        self._patch(env_cls, "process", process, timed_process)

        rows = Table.rows

        def counted_rows(table):
            self.query_rows_scanned += len(table)
            return rows(table)

        self._patch(Table, "rows", rows, counted_rows)

    def uninstall(self) -> None:
        """Restore every patched attribute, including late bindings."""
        originals = {}
        for owner, attr, original, replacement in reversed(self._patches):
            setattr(owner, attr, original)
            originals[id(replacement)] = (replacement, original)
        self._patches = []
        # modules that bound a wrapper after install (lazy imports)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    # -- repetitions -----------------------------------------------------------
    def run_unit(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one repetition under the root span; returns its result and
        traced wall seconds."""
        if self._stack:
            raise RuntimeError("a traced repetition is already running")
        self._push(0)
        try:
            result = fn()
        finally:
            duration = self._pop()
        self.units += 1
        self.root_s += duration
        return result, duration

    # -- results ------------------------------------------------------------
    def _stat(self, name: str) -> Tuple[int, float]:
        index = self._index.get(name)
        if index is None:
            return 0, 0.0
        return self.calls[index], self.incl[index]

    def layer_self_s(self) -> List[float]:
        totals = [0.0] * len(LAYERS)
        for index, seconds in enumerate(self.self_s):
            totals[self.target_layer[index]] += seconds
        return totals

    def metrics(self, untraced_wall_s: float, scale: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics per repetition (counts repeat exactly); every
        time is multiplied by ``scale`` and compared with the equally
        scaled ``untraced_wall_s`` for the tracing overhead."""
        n = max(self.units, 1)
        wall = self.root_s / n * scale
        out: Dict[str, float] = {
            "trace.wall_s": wall,
            "trace.overhead": wall / untraced_wall_s if untraced_wall_s > 0 else 0.0,
        }
        for layer, seconds in zip(LAYERS, self.layer_self_s()):
            out[f"{layer}.self_s"] = seconds / n * scale
            out[f"{layer}.share"] = seconds / self.root_s if self.root_s > 0 else 0.0

        def calls(name):
            return self._stat(name)[0] / n

        def secs(*names):
            return sum(self._stat(name)[1] for name in names) / n * scale

        def ratio(a, b):
            return a / b if b else 0.0

        events = self.events / n
        sends = calls("Link.send")
        publish_fresh = self.publish_encodes - self.publish_dups
        records = calls("CaptureClient.capture")
        ingested = self.records_ingested / n
        batches = self.backend_batches / n
        out.update({
            "simkernel.events": events,
            "simkernel.processes": self.processes / n,
            "simkernel.ns_per_event": ratio(out["simkernel.self_s"] * 1e9, events),
            "net.packets_sent": sends,
            "net.bytes_sent": self.bytes_sent / n,
            "net.delivery_ratio": ratio(calls("Host.deliver"), calls("Network.send")),
            "mqttsn.packets_encoded": calls("MqttSnMessage.encode"),
            "mqttsn.packets_decoded": calls("decode"),
            "mqttsn.publishes": calls("MqttSnClient.publish_nowait"),
            "mqttsn.retransmit_ratio": ratio(self.publish_encodes, publish_fresh),
            "coap.requests": calls("CoapClient.post") + calls("CoapClient.post_nowait"),
            "http.requests": calls("HttpSession.request"),
            "capture.records": records,
            "capture.journal.appends": calls("CaptureJournal.append"),
            "capture.journal.append_s": secs("CaptureJournal.append"),
            "capture.journal.replayed": self.replayed / n,
            "capture.dedup.duplicates": self.duplicates / n,
            "capture.ingest_ratio": ratio(ingested, records),
            "core.encode_s": secs("encode_payload"),
            "core.encode_calls": calls("encode_payload"),
            "core.payload_bytes": self.payload_bytes / n,
            "core.decode_s": secs("decode_payload"),
            "core.translate_s": secs("Translator.translate_payload"),
            "core.backend_batches": batches,
            "core.records_per_backend_batch": ratio(ingested, batches),
            "dfanalyzer.ingest_s": secs("DfAnalyzerService.ingest"),
            "dfanalyzer.ingest_calls": calls("DfAnalyzerService.ingest"),
            "dfanalyzer.store.update_s": secs("Table.update_where"),
            "dfanalyzer.store.update_calls": calls("Table.update_where"),
            "dfanalyzer.store.rows_scanned": self.store_rows_scanned / n,
            "dfanalyzer.store.insert_s": secs("Table.insert"),
            "dfanalyzer.query_s": secs(*_PAPER_QUERIES),
            "dfanalyzer.query.rows_scanned": self.query_rows_scanned / n,
        })
        return out

    def summary(self) -> Dict[str, Any]:
        """Per-target span totals, for the trace file."""
        return {
            "units": self.units,
            "root_s": self.root_s,
            "missing_targets": list(self.missing),
            "targets": {
                name: {
                    "layer": LAYERS[self.target_layer[i]],
                    "calls": self.calls[i],
                    "incl_s": self.incl[i],
                    "self_s": self.self_s[i],
                }
                for i, name in enumerate(self.names)
            },
        }
