"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every workload drives the library through public calls only.  A
repetition ("unit") is a fixed amount of work determined by the seed;
the runner repeats it for the measured period.  Each unit returns its
operations (host seconds + pass/fail), the work it completed and a
digest of the *simulated* outputs, which must be identical on every
repetition, under tracing, and (for the reference seeds) to the digest
recorded in ``reference.json``.

Only calls into the library are timed; checks and digests run outside
the timers.  Library functions are called through their modules
(``harness.run_capture_experiment``) so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.dfanalyzer as dfa
import repro.workloads as rw
from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, ProvLightServer
from repro.core import client as core_client
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.harness import experiments as harness
from repro.harness.paper_reference import LOW_OVERHEAD_THRESHOLD
from repro.metrics import relative_overhead
from repro.net import Network
from repro.simkernel import Environment

__all__ = ["Op", "Unit", "WORKLOADS", "make_workload"]


@dataclass
class Op:
    """One timed operation: a world pair, a fleet world or a query."""

    seconds: float
    ok: bool
    problem: str = ""
    #: clock reading when the op started
    start: float = 0.0


@dataclass
class Unit:
    """One repetition of a workload's fixed-size work."""

    ops: List[Op]
    #: backend-ingested records (capture workloads) or answered queries
    work: int
    digest: str

    @property
    def timed_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _setup(**fields) -> harness.ExperimentSetup:
    """An ExperimentSetup that ignores the ``REPRO_*`` environment
    defaults, so the caller's environment cannot change the workload."""
    base = dict(broker_shards=1, broker_placement="hash", pool_min=None,
                pool_max=None, chaos=None, topology=None)
    base.update(fields)
    return harness.ExperimentSetup(**base)


def _restart_client_ids() -> None:
    """Make the next world's MQTT-SN client ids start at ``provlight-1``.

    The ids come from a process-wide counter, so without this a world's
    CONNECT and envelope sizes (hence its simulated timings) depend on
    how many clients the process built before it, and repetitions of
    the same seed would differ.  See NOTES.md, known gaps.
    """
    if isinstance(getattr(core_client, "_client_ids", None), itertools.count):
        core_client._client_ids = itertools.count(1)


# ---------------------------------------------------------------- capture
@dataclass(frozen=True)
class Cell:
    """One experimental condition: a capture world, optionally paired
    with a null-baseline world for the paper's overhead."""

    name: str
    setup: harness.ExperimentSetup
    config: rw.SyntheticWorkloadConfig
    null: bool = True
    durable: bool = False
    #: the low-overhead shape of Tables VII/IX (MQTT-SN and CoAP cells)
    shape_check: bool = False

    def expected_records(self) -> int:
        return self.setup.n_devices * (2 * self.config.number_of_tasks + 2)


class CaptureWorkload:
    """Runs a list of cells per repetition (op = one cell)."""

    def __init__(self, cells: Sequence[Cell], warmup: Sequence[Cell], seed: int,
                 workdir: str, clock=perf_counter):
        self.clock = clock
        self.cells = list(cells)
        self.warmup = list(warmup)
        self.seed = seed
        self.workdir = workdir
        self._journals = 0

    def prepare(self) -> List[str]:
        """Warm-up: one tiny world per distinct stack, so lazy imports and
        first-use caches are paid in set-up, not in the first repetition."""
        problems = []
        for cell in self.warmup:
            op, _, _ = self.run_cell(cell)
            if not op.ok:
                problems.append(f"warm-up {op.problem}")
        return problems

    def run_unit(self) -> Unit:
        ops, digests, work = [], [], 0
        for cell in self.cells:
            op, digest, records = self.run_cell(cell)
            ops.append(op)
            digests.append(digest)
            if op.ok:
                work += records
        return Unit(ops=ops, work=work, digest=_digest(digests))

    def run_cell(self, cell: Cell) -> Tuple[Op, str, int]:
        capture_config = None
        journal_dir = None
        if cell.durable:
            self._journals += 1
            journal_dir = os.path.join(self.workdir, f"journals-{self._journals}")
            capture_config = replace(cell.setup.capture_config(), durable=True,
                                     journal_dir=journal_dir)
        null = None
        start = self.clock()
        try:
            if cell.null:
                null = harness.run_null_baseline(
                    cell.config, self.seed, n_devices=cell.setup.n_devices,
                    device_spec=cell.setup.device_spec)
            _restart_client_ids()
            outcome = harness.run_capture_experiment(
                cell.setup, cell.config, self.seed, capture_config=capture_config)
            seconds = self.clock() - start
        except Exception as exc:  # an operation that raises counts as failed
            return Op(self.clock() - start, False,
                      f"{cell.name}: {type(exc).__name__}: {exc}", start), "raised", 0
        finally:
            if journal_dir is not None:
                shutil.rmtree(journal_dir, ignore_errors=True)
        problems = check_cell(cell, outcome, null)
        digest = _digest([
            cell.name, [repr(e) for e in outcome.elapsed], repr(null),
            outcome.backend_records, outcome.fleet_stats, outcome.topology_stats,
        ])
        return (Op(seconds, not problems, f"{cell.name}: {'; '.join(problems)}"
                   if problems else "", start), digest, outcome.backend_records)


def check_cell(cell: Cell, outcome, null: Optional[float]) -> List[str]:
    """Invariants that hold for any seed."""
    problems = []
    expected = cell.expected_records()
    if outcome.backend_records != expected:
        problems.append(f"ingested {outcome.backend_records} of {expected} records")
    if len(outcome.elapsed) != cell.setup.n_devices:
        problems.append(f"{len(outcome.elapsed)} of {cell.setup.n_devices} devices finished")
    if outcome.fleet_stats is not None:
        completed = outcome.fleet_stats.get("records_completed")
        if completed != outcome.backend_records:
            problems.append(f"fleet completed {completed} records, backend has "
                            f"{outcome.backend_records}")
    if cell.shape_check and null is not None:
        overhead = relative_overhead(outcome.mean_elapsed, null)
        if not 0.0 < overhead < LOW_OVERHEAD_THRESHOLD:
            problems.append(f"overhead {overhead:.4f} outside (0, {LOW_OVERHEAD_THRESHOLD})")
    return problems


def fanin64(seed: int, workdir: str, clock=perf_counter, devices: int = 64,
            tasks: int = 20) -> CaptureWorkload:
    """Table IX's heaviest cell, scaled to 20 tasks per device."""
    def cell(name, n, t):
        return Cell(
            name,
            _setup(n_devices=n, bandwidth="1Gbit", delay="23ms", transport="mqttsn",
                   qos=2, group_size=0, translator_workers=8),
            rw.SyntheticWorkloadConfig(number_of_tasks=t, attributes_per_task=100,
                                       task_duration_s=0.5),
            shape_check=True,
        )
    return CaptureWorkload([cell("fanin64", devices, tasks)],
                           [cell("warmup", 2, 5)], seed, workdir, clock)


def edge_grid(seed: int, workdir: str, clock=perf_counter, tasks: int = 100) -> CaptureWorkload:
    """Tables VII/VIII: one device, every transport, grouping, attributes."""
    attrs = ((10, "int"), (100, "float"))
    cells, warmup = [], []
    for transport in ("mqttsn", "coap", "http"):
        for group in (0, 50):
            for n_attrs, kind in attrs:
                cells.append(Cell(
                    f"{transport}-g{group}-{n_attrs}{kind}",
                    _setup(transport=transport, group_size=group),
                    rw.SyntheticWorkloadConfig(number_of_tasks=tasks,
                                               attributes_per_task=n_attrs,
                                               attribute_kind=kind),
                    shape_check=transport != "http",
                ))
        warmup.append(Cell(f"warmup-{transport}", _setup(transport=transport, group_size=50),
                           rw.SyntheticWorkloadConfig(number_of_tasks=5)))
    for n_attrs, kind in attrs:
        cells.append(Cell(
            f"durable-mqttsn-{n_attrs}{kind}", _setup(transport="mqttsn", qos=1),
            rw.SyntheticWorkloadConfig(number_of_tasks=tasks, attributes_per_task=n_attrs,
                                       attribute_kind=kind),
            durable=True, shape_check=True,
        ))
    warmup.append(Cell("warmup-durable", _setup(transport="mqttsn", qos=1),
                       rw.SyntheticWorkloadConfig(number_of_tasks=5), durable=True))
    return CaptureWorkload(cells, warmup, seed, workdir, clock)


def fleet_churn(seed: int, workdir: str, clock=perf_counter, devices: int = 64,
                tasks: int = 20) -> CaptureWorkload:
    """A durable fleet on the wan-fog continuum with 20% device churn."""
    def cell(name, n, t):
        return Cell(
            name,
            _setup(n_devices=n, topology="wan-fog", chaos="churn@3:0.2:2",
                   transport="mqttsn", qos=1, group_size=0),
            rw.SyntheticWorkloadConfig(number_of_tasks=t, attributes_per_task=10),
            null=False, durable=True,
        )
    return CaptureWorkload([cell("fleet-churn", devices, tasks)],
                           [cell("warmup", 5, 10)], seed, workdir, clock)


# ---------------------------------------------------------------- queries
QUERY_KINDS = ("latest_epoch_metrics", "top_k_by_metric", "task_durations", "lineage_of")


class QueryWorkload:
    """FL provenance in DfAnalyzer, then a closed loop from one caller.

    One op analyses one FL client: the four paper queries, one after the
    other (``lineage_of`` on a seeded round).  An op costs about as much
    for every client, whereas single queries differ fourfold by kind, so
    op percentiles do not depend on the seed's mix of kinds.
    """

    def __init__(self, seed: int, workdir: str, clock=perf_counter, clients: int = 64,
                 rounds: int = 10, epochs: int = 2, batch: int = 64):
        self.seed = seed
        self.clock = clock
        self.config = rw.FederatedConfig(n_clients=clients, rounds=rounds,
                                         local_epochs=epochs, seed=seed)
        self.batch_size = batch
        self.backend: Optional[dfa.DfAnalyzerService] = None
        #: ``(client, round)`` per op
        self.targets: List[Tuple[int, int]] = []
        #: the four reference answers per op, in QUERY_KINDS order
        self.references: List[List[Any]] = []
        self._world_digest: Optional[str] = None

    # -- set-up ------------------------------------------------------------
    def prepare(self) -> List[str]:
        backend, history = self._train()
        problems = []
        config = self.config
        expected = config.n_clients * (2 * config.rounds * config.local_epochs + 2)
        if backend.records_ingested.count != expected:
            problems.append(f"FL ingested {backend.records_ingested.count} of {expected} records")
        digest = _digest([[repr(r["loss"]), repr(r["accuracy"])] for r in history["rounds"]]
                         + [backend.records_ingested.count])
        if self._world_digest is not None and digest != self._world_digest:
            problems.append("FL set-up is not deterministic")
        self._world_digest = digest
        self.backend = backend
        rng = np.random.default_rng(self.seed)
        self.targets = [(int(rng.integers(config.n_clients)), int(rng.integers(config.rounds)))
                        for _ in range(self.batch_size)]
        self.references = [[self._reference(kind, client, round_id) for kind in QUERY_KINDS]
                           for client, round_id in self.targets]
        return problems

    def _train(self):
        config = self.config
        _restart_client_ids()
        env = Environment()
        net = Network(env, seed=self.seed)
        net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="fl-server"))
        backend = dfa.DfAnalyzerService()
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(backend.ingest), workers=8)
        clients, topics = [], []
        for i in range(config.n_clients):
            device = Device(env, A8M3, name=f"fl-client-{i}")
            net.add_host(f"edge-{i}", device=device)
            net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.023)
            topic = f"provlight/fl-client-{i}/data"
            topics.append(topic)
            clients.append(create_client(device, server.endpoint, topic,
                                         CaptureConfig(transport="mqttsn", qos=2)))
        history: Dict[str, Any] = {}

        def scenario(env):
            for topic in topics:
                yield from server.pool.attach(topic)
            yield from rw.federated_training(env, clients, config, history)
            for client in clients:
                yield from client.drain()

        env.process(scenario(env), name="fl-scenario")
        env.run()
        return backend, history

    # -- the timed loop ----------------------------------------------------
    def ask(self, kind: str, client: int, round_id: int):
        backend, flow = self.backend, f"fl-client-{client}"
        if kind == "latest_epoch_metrics":
            return dfa.latest_epoch_metrics(backend, flow, ["round", "lr"],
                                            metrics=("elapsed_time", "loss"))
        if kind == "top_k_by_metric":
            return dfa.top_k_by_metric(backend, flow, "accuracy", ["round", "epoch"], k=3)
        if kind == "task_durations":
            return dfa.task_durations(backend, flow)
        return dfa.lineage_of(backend, flow, self._metrics_tag(client, round_id))

    def _metrics_tag(self, client: int, round_id: int) -> str:
        return f"metrics-r{round_id}-c{client}-e{self.config.local_epochs - 1}"

    def run_unit(self) -> Unit:
        ops, answers = [], []
        for (client, round_id), references in zip(self.targets, self.references):
            start = self.clock()
            try:
                answer = [self.ask(kind, client, round_id) for kind in QUERY_KINDS]
            except Exception as exc:  # an operation that raises counts as failed
                ops.append(Op(self.clock() - start, False,
                              f"client {client}: {type(exc).__name__}: {exc}", start))
                answers.append("raised")
                continue
            seconds = self.clock() - start
            wrong = [kind for kind, got, want in zip(QUERY_KINDS, answer, references)
                     if got != want]
            ops.append(Op(seconds, not wrong,
                          f"client {client}: wrong {', '.join(wrong)}" if wrong else "", start))
            answers.append(answer)
        return Unit(ops=ops, work=len(QUERY_KINDS) * sum(op.ok for op in ops),
                    digest=_digest([self._world_digest, answers]))

    # -- reference answers, straight from the raw columns ------------------
    def _reference(self, kind: str, client: int, round_id: int):
        store = self.backend.store
        flow = f"fl-client-{client}"
        if kind == "task_durations":
            return _ref_task_durations(store.table("tasks"), flow)
        datasets = store.table("datasets")
        if kind == "latest_epoch_metrics":
            return _ref_latest_epoch(datasets, flow)
        if kind == "top_k_by_metric":
            return _ref_top_k(datasets, flow)
        return _ref_lineage(datasets, flow, self._metrics_tag(client, round_id))


def _ref_latest_epoch(table, flow, hyper=("round", "lr"), metrics=("elapsed_time", "loss")):
    flows, epochs = table.column("dataflow_tag"), table.column("epoch")
    hyper_cols = [table.column(h) for h in hyper]
    metric_cols = [table.column(m) for m in metrics]
    latest: Dict[tuple, int] = {}
    for i, tag in enumerate(flows):
        if tag != flow or epochs[i] is None or all(c[i] is None for c in metric_cols):
            continue
        key = tuple(c[i] for c in hyper_cols)
        if key not in latest or epochs[i] > epochs[latest[key]]:
            latest[key] = i
    out = []
    for key, i in sorted(latest.items(), key=lambda kv: str(kv[0])):
        row = dict(zip(hyper, key))
        row["epoch"] = epochs[i]
        row.update((m, c[i]) for m, c in zip(metrics, metric_cols))
        out.append(row)
    return out


def _ref_top_k(table, flow, metric="accuracy", hyper=("round", "epoch"), k=3):
    flows, values = table.column("dataflow_tag"), table.column(metric)
    hyper_cols = [table.column(h) for h in hyper]
    rows = [i for i, tag in enumerate(flows) if tag == flow and values[i] is not None]
    best = sorted(rows, key=lambda i: values[i], reverse=True)[:k]
    return [dict([(h, c[i]) for h, c in zip(hyper, hyper_cols)] + [(metric, values[i])])
            for i in best]


def _ref_task_durations(table, flow):
    flows, status = table.column("dataflow_tag"), table.column("status")
    task_ids, transforms = table.column("task_id"), table.column("transformation_tag")
    begins, ends = table.column("time_begin"), table.column("time_end")
    out = []
    for i, tag in enumerate(flows):
        if tag != flow or status[i] != "FINISHED":
            continue
        begin, end = begins[i], ends[i]
        numeric = isinstance(begin, (int, float)) and isinstance(end, (int, float))
        out.append({"task_id": task_ids[i], "transformation": transforms[i],
                    "duration": end - begin if numeric else None})
    return out


def _ref_lineage(table, flow, tag, max_depth=100):
    parents = {}
    for dataset_tag, row_flow, derivations in zip(
            table.column("dataset_tag"), table.column("dataflow_tag"),
            table.column("derivations")):
        if row_flow == flow:
            parents[dataset_tag] = [d for d in (derivations or "").split(",") if d]
    chain, seen, current = [], set(), tag
    for _ in range(max_depth):
        derived_from = parents.get(current)
        if not derived_from or derived_from[0] in seen:
            break
        current = derived_from[0]
        seen.add(current)
        chain.append(current)
    return chain


WORKLOADS = {
    "fanin64": fanin64,
    "edge-grid": edge_grid,
    "fleet-churn": fleet_churn,
    "query-fl": QueryWorkload,
}


def make_workload(name: str, seed: int, workdir: str, clock=perf_counter, **size):
    """Build a workload timing its ops with ``clock``; ``size`` overrides
    its dimensions (self-tests)."""
    return WORKLOADS[name](seed, workdir, clock, **size)
