"""The benchmark's workloads: seeded inputs, set-up, and timed epochs.

Every workload runs as a sequence of epochs.  In each epoch a fresh
sketch is built from that epoch's slice of a seeded Zipf trace, then
queried, put through the analytics suite and exported.  Each timing
metric is the quiet decile (:func:`~perfbench.harness.quiet_decile`) over
the run's epochs (the latency p99: over windows of consecutive queries,
see :data:`LATENCY_WINDOW`).  Correctness checks run outside the
timed regions and raise :class:`~perfbench.harness.CorrectnessError` on
any mismatch.
"""

from __future__ import annotations

import importlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.harness import (
    CorrectnessError,
    Ops,
    clock,
    host_probe,
    median,
    peak_rss_mb,
    percentile,
    quiet_decile,
    spread,
)
from perfbench.tracer import Tracer, epoch_layer_values, package_tracer
from repro.common.errors import ReproError
from repro.core import serialization, setops
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.observability.tracing import TraceSink
from repro.runtime import sharded
from repro.service.client import AggregationClient
from repro.workloads import zipf

heavy = importlib.import_module("repro.core.tasks.heavy")

#: hash seed of every sketch: part of the program's configuration, so it
#: is the same for every input seed
CONFIG_SEED = 1

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: a run measures at least this many epochs, however slow the host
MIN_EPOCHS = 4

#: shard processes on ``distributed``.  The parent routes every pair of an
#: epoch before any shard starts (``batch_items`` covers the epoch), the
#: two shards then ingest in parallel while the parent waits, and the
#: server works only while the client waits; no timed phase keeps more
#: than two processes busy, which fits a 2-CPU host.  Two is also the
#: smallest count that runs the merge tree.
SHARDS = 2

#: remote analytics tasks spread through each epoch's closed loop of point
#: queries on ``distributed``; they are timed into ``analytics_s``, and the
#: latency percentiles are those of the loop's point queries (a 20 ms task
#: among 0.5 ms queries would decide p99 by how many tasks land above it)
ANALYTICS_TASKS = ("cardinality", "distribution", "entropy", "heavy_hitters")

#: point queries per p99 window: the 99th percentile is taken per window
#: of exactly this many consecutive queries, so each window's p99 has ten
#: samples beyond it (the median is taken per epoch), and reduced over the
#: run's windows like every timing.  Pooling the whole run instead let a
#: few noisy seconds of the host decide p99 (its spread between runs was
#: twice as wide).
LATENCY_WINDOW = 1000

#: sample size of the end-of-run service-vs-in-process answer check
CONTRACT_SAMPLE = 64

#: each ``distributed`` epoch pushes to an aggregate of its own, named
#: ``bench-<epoch>`` and seeded (untimed) with the previous epoch's sketch,
#: so every timed push folds into the same amount of data and the queries
#: read a two-epoch aggregate.  One aggregate growing over the whole run
#: made the remote tasks slower epoch by epoch (55 to 90 ms over 30
#: epochs), so a run's figures followed how many epochs it held.
AGGREGATE = "bench"

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_items_per_s", "items/s"),
    ("point_queries_per_s", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ready_to_answer_s", "s"),
    ("analytics_s", "s"),
    ("export_s", "s"),
    ("wire_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)

#: the timing metrics and whether higher is better; each is the quiet
#: decile of its per-epoch (or per-window) values
TIMINGS = {
    "ingest_items_per_s": True,
    "point_queries_per_s": True,
    "query_p50_ms": False,
    "query_p99_ms": False,
    "ready_to_answer_s": False,
    "analytics_s": False,
    "export_s": False,
}

PER_LAYER = (
    ("workloads.zipf_trace.s", "s"),
    ("core.davinci.insert_batch.s", "s"),
    ("core.davinci.insert_batch.items", "count"),
    ("core.davinci.query.s", "s"),
    ("core.davinci.query.calls", "count"),
    ("core.kernel.ingest_chunk.s", "s"),
    ("core.kernel.chunks", "count"),
    ("core.kernel.vectorized_share", "ratio"),
    ("core.frequent_part.insert_batch.s", "s"),
    ("core.element_filter.offer_batch.s", "s"),
    ("core.infrequent_part.insert_batch.s", "s"),
    ("core.infrequent_part.decode.s", "s"),
    ("core.infrequent_part.decode_complete_ratio", "ratio"),
    ("core.infrequent_part.decoded_keys", "count"),
    ("core.tasks.cardinality.s", "s"),
    ("core.tasks.distribution.s", "s"),
    ("core.tasks.entropy.s", "s"),
    ("core.tasks.heavy_hitters.s", "s"),
    ("core.tasks.heavy_changers.s", "s"),
    ("core.tasks.inner_join.s", "s"),
    ("core.setops.union.s", "s"),
    ("core.setops.difference.s", "s"),
    ("core.serialization.to_wire.s", "s"),
    ("core.serialization.from_wire.s", "s"),
    ("core.serialization.wire_bytes", "bytes"),
    ("runtime.sharded.ingest.s", "s"),
    ("runtime.sharded.ingest.items", "count"),
    ("runtime.sharded.partition_pairs.s", "s"),
    ("runtime.sharded.finalize.s", "s"),
    ("runtime.sharded.merge_tree.s", "s"),
    ("runtime.sharded.shard_skew", "ratio"),
    ("service.protocol.encode_message.s", "s"),
    ("service.protocol.decode_payload.s", "s"),
    ("service.client.push.s", "s"),
    ("service.client.push.calls", "count"),
    ("service.client.query.s", "s"),
    ("service.client.query.calls", "count"),
    ("service.client.server_wait.s", "s"),
    ("service.client.retries", "count"),
    ("host.probe_s", "s"),
    ("trace.overhead_share", "ratio"),
)


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape (the seed only changes the inputs)."""

    name: str
    memory_kb: int
    skew: float
    #: items per epoch
    epoch_items: int
    #: distinct trace slices generated at set-up; epochs cycle through them
    pool_slices: int
    #: distinct flows of the whole pool
    flows: int
    #: the fixed point-query sample: the heaviest ranks plus random tail ranks
    heavy_keys: int
    tail_keys: int
    #: export round trips per epoch
    export_repeats: int
    #: shard processes (0: a single process, no service)
    shards: int
    why: str

    @property
    def threshold(self) -> int:
        """Heavy-hitter / heavy-changer threshold: 0.05% of an epoch."""
        return max(1, self.epoch_items // 2000)


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="ingest_tight",
            memory_kb=8,
            skew=1.1,
            epoch_items=150_000,
            pool_slices=8,
            flows=22_000,
            heavy_keys=500,
            tail_keys=3_500,
            export_repeats=8,
            shards=0,
            why="8 KB sketch where ingest is nearly all of an epoch; "
            "ingest-engine changes show here, query-side ones should not",
        ),
        Spec(
            name="distributed",
            memory_kb=64,
            skew=1.1,
            epoch_items=100_000,
            pool_slices=6,
            flows=30_000,
            heavy_keys=50,
            # the first key answers the push, so the loop is 250 queries and
            # four epochs fill a p99 window
            tail_keys=201,
            export_repeats=2,
            shards=SHARDS,
            why="sharded ingest, framed push to a server process and a "
            "closed-loop remote query mix; the only path through runtime "
            "and service",
        ),
    )
}


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
class Inputs:
    """The seeded trace pool, its slices, the key sample and ground truth."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        # generate_keys lists keys in Zipf rank order: keys[0] is heaviest
        keys = zipf.generate_keys(spec.flows, seed=seed + 1)
        self.trace: List[int] = zipf.zipf_trace(
            spec.epoch_items * spec.pool_slices,
            spec.flows,
            spec.skew,
            seed=seed,
            keys=keys,
        )
        rng = random.Random(seed)
        tail = rng.sample(range(spec.heavy_keys, spec.flows), spec.tail_keys)
        self.sample: List[int] = [
            int(keys[rank]) for rank in list(range(spec.heavy_keys)) + tail
        ]
        self._truth: Dict[int, Counter] = {}

    def slice_index(self, epoch: int) -> int:
        return epoch % self.spec.pool_slices

    def slice(self, epoch: int) -> List[int]:
        n = self.spec.epoch_items
        start = self.slice_index(epoch) * n
        return self.trace[start:start + n]

    def truth(self, epoch: int) -> Counter:
        """Exact frequencies of one slice (computed outside timed code)."""
        index = self.slice_index(epoch)
        counts = self._truth.get(index)
        if counts is None:
            counts = self._truth[index] = Counter(self.slice(epoch))
        return counts


def frequency_are(
    keys: List[int], answers: List[Optional[int]], truth: Counter
) -> float:
    """Average relative error of point answers over keys present in truth."""
    errors = [
        abs(answer - truth[key]) / truth[key]
        for key, answer in zip(keys, answers)
        if answer is not None and truth[key] > 0
    ]
    return sum(errors) / len(errors) if errors else 0.0


# --------------------------------------------------------------------- #
# per-run record
# --------------------------------------------------------------------- #
class Record:
    """Samples gathered over one run's epochs."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.latency_samples = 0
        self.window: List[float] = []
        #: samples beyond p99 in each closed latency window
        self.beyond_p99: List[int] = []
        self.accuracy: Dict[str, Dict[int, float]] = {
            "freq_are": {},
            "cardinality_re": {},
        }
        self.layers: List[Dict[str, float]] = []
        #: timed seconds per epoch, split by whether the epoch was traced
        self.measured: Dict[bool, List[float]] = {True: [], False: []}
        self.retries = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_point_queries(self, latencies: List[float]) -> None:
        """One epoch's point-query latencies."""
        self.add("point_queries_per_s", len(latencies) / sum(latencies))
        self.add("query_p50_ms", percentile(latencies, 50) * 1e3)
        self.latency_samples += len(latencies)
        self.window.extend(latencies)
        while len(self.window) >= LATENCY_WINDOW:
            self.close_window(LATENCY_WINDOW)

    def close_window(self, size: int) -> None:
        window, self.window = self.window[:size], self.window[size:]
        p99 = percentile(window, 99)
        self.add("query_p99_ms", p99 * 1e3)
        self.beyond_p99.append(sum(1 for x in window if x > p99))


class Tracing:
    """Switches the tracer on for the timed part of a traced epoch."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self._on = False

    def on(self) -> None:
        if self.tracer is not None and not self._on:
            self.tracer.reset()
            self.tracer.install()
            self._on = True

    def off(self) -> None:
        if self.tracer is not None and self._on:
            self.tracer.uninstall()
            self._on = False

    def count(self, name: str, amount: float) -> None:
        if self._on and self.tracer is not None:
            self.tracer.count(name, amount)


def _verify_export(sketch: DaVinciSketch, copy: DaVinciSketch, what: str) -> None:
    """from_wire(to_wire(s)) must carry exactly the state of s."""
    if copy.to_state() != sketch.to_state():
        raise CorrectnessError(f"{what}: from_wire(to_wire(s)) state differs from s")


def _time_export(
    spec: Spec, sketch: DaVinciSketch, ops: Ops, record: Record
) -> Tuple[float, Optional[Tuple[bytes, DaVinciSketch]]]:
    """Timed to_wire + from_wire round trips: (seconds, last pair)."""
    pair = None
    total = 0.0
    for _ in range(spec.export_repeats):
        ops.attempted += 1
        started = clock()
        try:
            blob = serialization.to_wire(sketch)
            copy = serialization.from_wire(blob)
        except ReproError as exc:
            ops.fail(exc)
            continue
        elapsed = clock() - started
        record.add("export_s", elapsed)
        total += elapsed
        pair = (blob, copy)
    return total, pair


# --------------------------------------------------------------------- #
# single-process epochs (ingest_tight)
# --------------------------------------------------------------------- #
class InProcess:
    """One set-up of a single-process workload."""

    def __init__(self, spec: Spec, seed: int, tracing: Tracing) -> None:
        self.spec = spec
        self.config = DaVinciConfig.from_memory_kb(spec.memory_kb, seed=CONFIG_SEED)
        tracing.on()
        self.inputs = Inputs(spec, seed)
        tracing.off()
        # warm-up: ingest and decode the pool's last slice; that sketch is
        # the first timed epoch's "previous" operand
        built = self._build(-1, Ops())
        if built is None:
            raise RuntimeError("warm-up ingest failed")
        self.previous = built[0]
        self.previous.query(self.inputs.sample[0])

    def close(self) -> None:
        pass

    def _build(self, epoch: int, ops: Ops) -> Optional[Tuple[DaVinciSketch, float]]:
        """A fresh sketch of one slice and its timed ingest seconds."""
        pairs = [(key, 1) for key in self.inputs.slice(epoch)]
        sketch = DaVinciSketch(self.config)
        ops.attempted += 1
        started = clock()
        try:
            sketch.insert_batch(pairs)
        except ReproError as exc:
            ops.fail(exc)
            return None
        elapsed = clock() - started
        if sketch.total_count != len(pairs) or sketch.insertions != len(pairs):
            raise CorrectnessError(
                f"epoch {epoch}: sketch accepted {sketch.total_count} of "
                f"{len(pairs)} items"
            )
        return sketch, elapsed

    def epoch(
        self, epoch: int, ops: Ops, record: Record, tracing: Tracing
    ) -> Optional[float]:
        """One timed epoch; returns its timed seconds (None if aborted)."""
        spec = self.spec
        prev = self.previous
        tracing.on()
        built = self._build(epoch, ops)
        if built is None:
            tracing.off()
            return None
        sketch, ingest_s = built
        record.add("ingest_items_per_s", sketch.total_count / ingest_s)
        sample = self.inputs.sample

        # the first answer after new data, with the infrequent-part decode
        # that queries otherwise trigger lazily
        ops.attempted += 1
        started = clock()
        try:
            sketch.decode_result()
            first: Optional[int] = sketch.query(sample[0])
        except ReproError as exc:
            ops.fail(exc)
            first = None
        ready = clock() - started
        if first is not None:
            record.add("ready_to_answer_s", ready)

        answers: List[Optional[int]] = [first]
        latencies: List[float] = []
        query = sketch.query
        for key in sample[1:]:
            started = clock()
            try:
                answers.append(query(key))
            except ReproError as exc:
                ops.fail(exc)
                answers.append(None)
                continue
            latencies.append(clock() - started)
        ops.attempted += len(sample) - 1
        record.add_point_queries(latencies)

        threshold = spec.threshold
        tasks: List[Tuple[str, Callable[[], Any]]] = [
            ("cardinality", sketch.cardinality),
            ("distribution", sketch.distribution),
            ("entropy", sketch.entropy),
            ("heavy_hitters", lambda: sketch.heavy_hitters(threshold)),
            ("top_k", lambda: sketch.top_k(100)),
            ("heavy_changers", lambda: heavy.heavy_changers(sketch, prev, threshold)),
            ("inner_join", lambda: sketch.inner_join(prev)),
            ("union", lambda: setops.union(sketch, prev)),
            ("difference", lambda: setops.difference(sketch, prev)),
        ]
        results: Dict[str, Any] = {}
        started = clock()
        for name, task in tasks:
            ops.attempted += 1
            try:
                results[name] = task()
            except ReproError as exc:
                ops.fail(exc)
        analytics = clock() - started
        if len(results) == len(tasks):
            record.add("analytics_s", analytics)

        export_s, exported = _time_export(spec, sketch, ops, record)
        tracing.off()

        # ---- correctness gate (untimed) ----
        if exported is not None:
            blob, copy = exported
            record.add("wire_bytes", len(blob))
            _verify_export(sketch, copy, f"epoch {epoch}")
            copy_query = copy.query
            for key, answer in zip(sample, answers):
                if answer is not None and copy_query(key) != answer:
                    raise CorrectnessError(
                        f"epoch {epoch}: point answer for key {key} was "
                        f"{answer}, the exported sketch answers "
                        f"{copy_query(key)}"
                    )
        union = results.get("union")
        if union is not None and union.total_count != (
            sketch.total_count + prev.total_count
        ):
            raise CorrectnessError(f"epoch {epoch}: union lost items")
        truth = self.inputs.truth(epoch)
        index = self.inputs.slice_index(epoch)
        record.accuracy["freq_are"][index] = frequency_are(sample, answers, truth)
        if "cardinality" in results:
            record.accuracy["cardinality_re"][index] = (
                abs(results["cardinality"] - len(truth)) / len(truth)
            )
        self.previous = sketch
        return ingest_s + ready + sum(latencies) + analytics + export_s

    def finish(self) -> None:
        pass


# --------------------------------------------------------------------- #
# sharded ingest + aggregation service (distributed)
# --------------------------------------------------------------------- #
class _CpuPin:
    """Runs the client's service calls on the server's CPU.

    One client in a closed loop alternates with the server, so one CPU
    serves both; keeping them on it spares every request a wake-up on the
    other CPU, whose latency on a shared host varies from run to run.
    The client is released before each ingest, so forked shard workers
    get every CPU.
    """

    def __init__(self) -> None:
        self._all = (
            os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        )
        self.cpu = min(self._all) if self._all else None

    def pin(self) -> None:
        if self._all:
            os.sched_setaffinity(0, {self.cpu})

    def release(self) -> None:
        if self._all:
            os.sched_setaffinity(0, self._all)


class Distributed:
    """One set-up of ``distributed``: inputs, a server process, a client."""

    def __init__(self, spec: Spec, seed: int, tracing: Tracing) -> None:
        from perfbench.service_proc import ServiceProcess

        self.spec = spec
        self.config = DaVinciConfig.from_memory_kb(spec.memory_kb, seed=CONFIG_SEED)
        tracing.on()
        self.inputs = Inputs(spec, seed)
        tracing.off()
        self._pin = _CpuPin()
        self.service = ServiceProcess(self._pin.cpu)
        try:
            self.sink = TraceSink()
            self.client = AggregationClient("127.0.0.1", self.service.port, trace=self.sink)
            # warm-up: the pool's last slice, ingested and pushed to an
            # aggregate of its own; that sketch seeds the first epoch's
            # aggregate
            pairs = [(key, 1) for key in self.inputs.slice(-1)]
            warm = self._ingest(pairs, Tracing(None))[0]
            self.previous = warm
            #: the last epoch's aggregate: (name, seed sketch, pushed sketch)
            self.last: Optional[Tuple[str, DaVinciSketch, DaVinciSketch]] = None
            self._pin.pin()
            self.client.push("warmup", warm)
            self.client.query("warmup", "query", key=self.inputs.sample[0])
            for task in ANALYTICS_TASKS:
                self.client.query("warmup", task, **self._task_args(task))
        except BaseException:
            self.service.close()
            raise

    def close(self) -> None:
        self._pin.release()
        self.service.close()

    def _task_args(self, task: str) -> Dict[str, int]:
        return {"threshold": self.spec.threshold} if task == "heavy_hitters" else {}

    def _ingest(
        self, pairs: List[Tuple[int, int]], tracing: Tracing
    ) -> Tuple[DaVinciSketch, float, sharded.ShardedIngestor]:
        self._pin.release()
        ingestor = sharded.ShardedIngestor(
            self.config, num_shards=self.spec.shards, batch_items=len(pairs)
        )
        with ingestor:
            # workers are forked above, so they run the unwrapped package
            tracing.on()
            started = clock()
            routed = ingestor.ingest(pairs)
            merged = ingestor.finalize()
            elapsed = clock() - started
        if routed != len(pairs) or merged.total_count != len(pairs):
            raise CorrectnessError(
                f"sharded ingest accepted {merged.total_count} of {len(pairs)} items"
            )
        return merged, elapsed, ingestor

    def epoch(
        self, epoch: int, ops: Ops, record: Record, tracing: Tracing
    ) -> Optional[float]:
        """One timed epoch; returns its timed seconds (None if aborted)."""
        spec = self.spec
        client = self.client
        sample = self.inputs.sample
        pairs = [(key, 1) for key in self.inputs.slice(epoch)]
        self.sink.clear()
        aggregate = f"{AGGREGATE}-{epoch}"

        # untimed and untraced: the epoch's aggregate starts with the
        # previous epoch's sketch, so the timed push below folds into it
        self._pin.pin()
        ops.attempted += 1
        try:
            client.push(aggregate, self.previous)
        except ReproError as exc:
            ops.fail(exc)
            return None

        ops.attempted += 1
        try:
            merged, ingest_s, ingestor = self._ingest(pairs, tracing)
        except ReproError as exc:
            tracing.off()
            ops.fail(exc)
            return None
        record.add("ingest_items_per_s", len(pairs) / ingest_s)
        per_shard = [shard.total_count for shard in ingestor.shard_sketches]
        tracing.count(
            "runtime.sharded.shard_skew", max(per_shard) * len(per_shard) / sum(per_shard)
        )

        # push, then the first answer that reflects it
        self._pin.pin()
        ops.attempted += 2
        started = clock()
        try:
            pushed = client.push(aggregate, merged)
        except ReproError as exc:
            tracing.off()
            ops.fail(exc)
            return None
        try:
            first: Optional[int] = client.query(aggregate, "query", key=sample[0])
        except ReproError as exc:
            ops.fail(exc)
            first = None
        ready = clock() - started
        if first is not None:
            record.add("ready_to_answer_s", ready)

        # closed loop, one client: point queries with the analytics tasks
        # spread through them
        stride = (len(sample) - 1) // (len(ANALYTICS_TASKS) + 1)
        task_at = {stride * (i + 1): task for i, task in enumerate(ANALYTICS_TASKS)}
        answers: List[Optional[int]] = [first]
        latencies: List[float] = []
        analytics = 0.0
        results: Dict[str, Any] = {}
        for i, key in enumerate(sample[1:]):
            task = task_at.get(i)
            if task is not None:
                ops.attempted += 1
                started = clock()
                try:
                    results[task] = client.query(aggregate, task, **self._task_args(task))
                except ReproError as exc:
                    ops.fail(exc)
                else:
                    analytics += clock() - started
            started = clock()
            try:
                answers.append(client.query(aggregate, "query", key=key))
            except ReproError as exc:
                ops.fail(exc)
                answers.append(None)
                continue
            latencies.append(clock() - started)
        ops.attempted += len(sample) - 1
        record.add_point_queries(latencies)
        if len(results) == len(ANALYTICS_TASKS):
            record.add("analytics_s", analytics)

        export_s, exported = _time_export(spec, merged, ops, record)
        retries = len(self.sink.events("service.retry"))
        tracing.count("service.client.retries", retries)
        tracing.off()
        record.retries += retries

        # ---- correctness gate (untimed) ----
        if pushed.get("duplicate") or pushed.get("applied") != 2:
            raise CorrectnessError(
                f"epoch {epoch}: the push was not applied once after the "
                f"seed: {pushed}"
            )
        if exported is not None:
            blob, copy = exported
            record.add("wire_bytes", len(blob))
            _verify_export(merged, copy, f"epoch {epoch}")
        self.last = (aggregate, self.previous, merged)
        self.previous = merged
        truth = self.inputs.truth(epoch - 1) + self.inputs.truth(epoch)
        record.accuracy["freq_are"][epoch] = frequency_are(sample, answers, truth)
        if "cardinality" in results:
            record.accuracy["cardinality_re"][epoch] = (
                abs(results["cardinality"] - len(truth)) / len(truth)
            )
        return ingest_s + ready + sum(latencies) + analytics + export_s

    def finish(self) -> None:
        """The service-vs-in-process contract on the last aggregate."""
        if self.last is None:
            return
        aggregate, seed, pushed = self.last
        # the server folds pushes left to right; epochs share keys, so a
        # balanced merge tree would group the union differently
        fold = setops.union(seed, pushed)
        client = self.client
        if client.fetch_blob(aggregate) != serialization.to_wire(fold):
            raise CorrectnessError(
                f"the server's aggregate {aggregate} differs from the "
                "in-process fold of the two sketches pushed to it"
            )
        checks: List[Tuple[str, Dict[str, int], Any]] = [
            ("query", {"key": key}, fold.query(key))
            for key in self.inputs.sample[:CONTRACT_SAMPLE]
        ]
        checks += [
            ("cardinality", {}, fold.cardinality()),
            ("distribution", {}, fold.distribution()),
            ("entropy", {}, fold.entropy()),
            ("heavy_hitters", self._task_args("heavy_hitters"),
             fold.heavy_hitters(self.spec.threshold)),
        ]
        for task, args, expected in checks:
            answer = client.query(aggregate, task, **args)
            if answer != expected:
                raise CorrectnessError(
                    f"service answered {task}({args}) = {answer!r}, "
                    f"in-process fold answers {expected!r}"
                )


# --------------------------------------------------------------------- #
# a run
# --------------------------------------------------------------------- #
def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Set up, run epochs for ``seconds``, check, and summarize one run."""
    spec = SPECS[name]
    factory = Distributed if spec.shards else InProcess
    tracer = package_tracer() if trace else None
    ops = Ops()
    record = Record()

    setups: List[float] = []
    zipf_seconds: List[float] = []

    def set_up() -> Any:
        tracing = Tracing(tracer)
        started = clock()
        made = factory(spec, seed, tracing)
        setups.append(clock() - started)
        if tracer is not None:
            zipf_seconds.append(
                tracer.self_seconds_by_name().get("workloads.zipf_trace", 0.0)
            )
        return made

    state = set_up()
    probes: List[float] = []
    # the peak is taken before the first spare set-up, whose inputs would
    # otherwise sit in memory beside the running workload's
    rss: Optional[float] = None
    try:
        # the other set-ups are spread evenly over the run: the host's speed
        # drifts over seconds, and five set-ups in a row would all land in
        # one phase of it
        started = clock()
        deadline = started + seconds
        setup_at = [
            started + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)
        ]
        epoch = 0
        while epoch < MIN_EPOCHS or clock() < deadline:
            if setup_at and clock() >= setup_at[0]:
                del setup_at[0]
                if rss is None:
                    rss = peak_rss_mb()
                set_up().close()
            traced = tracer is not None and epoch % 2 == 0
            tracing = Tracing(tracer if traced else None)
            try:
                measured = state.epoch(epoch, ops, record, tracing)
            finally:
                tracing.off()
            if tracer is not None and measured is not None:
                record.measured[traced].append(measured)
                if traced:
                    record.layers.append(epoch_layer_values(tracer))
            probes.append(host_probe())
            epoch += 1
        if rss is None:
            rss = peak_rss_mb()
        for _ in setup_at:  # a run too short to reach them all
            set_up().close()
        state.finish()
    finally:
        state.close()
    return summarize(record, ops, setups, zipf_seconds, probes, rss, epoch, trace)


def summarize(
    record: Record,
    ops: Ops,
    setups: List[float],
    zipf_seconds: List[float],
    probes: List[float],
    rss: float,
    epochs: int,
    trace: bool,
) -> Dict[str, Any]:
    """Quiet deciles over epochs (``end_to_end``) or medians over traced
    epochs (``per_layer``)."""
    samples = record.samples
    if "query_p99_ms" not in samples:  # a run too short to fill a window
        record.close_window(len(record.window))
    values: Dict[str, float] = {"setup_s": median(setups)}
    for metric, _unit in END_TO_END:
        if metric in TIMINGS:
            values[metric] = quiet_decile(samples[metric], TIMINGS[metric])
    values["wire_bytes"] = median(samples["wire_bytes"])
    values["peak_rss_mb"] = rss
    epoch_spread = {
        "setup_s": spread(setups),
        "peak_rss_mb": None,
    }
    for metric in values:
        if metric not in epoch_spread:
            epoch_spread[metric] = spread(samples[metric])
    detail: Dict[str, Any] = {
        "epochs": epochs,
        "epoch_spread": epoch_spread,
        "epoch_median": {metric: median(samples[metric]) for metric in TIMINGS},
        "latency_samples": record.latency_samples,
        "latency_windows": len(record.beyond_p99),
        "latency_window_min_beyond_p99": min(record.beyond_p99),
        "host_probe_s": {"median": median(probes), "spread": spread(probes)},
        "accuracy": {
            metric: median(list(by_slice.values())) if by_slice else None
            for metric, by_slice in record.accuracy.items()
        },
        "failed_op_share": ops.failed / ops.attempted if ops.attempted else 0.0,
        "errors": ops.errors,
        "service_retries": record.retries,
    }
    result: Dict[str, Any] = {
        "end_to_end": values,
        "detail": detail,
        "attempted": ops.attempted,
        "failed": ops.failed,
    }
    if trace:
        layers: Dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            layers[metric] = median(
                [epoch_values.get(metric, 0.0) for epoch_values in record.layers]
            ) if record.layers else 0.0
        layers["workloads.zipf_trace.s"] = median(zipf_seconds)
        layers["host.probe_s"] = median(probes)
        traced, untraced = record.measured[True], record.measured[False]
        layers["trace.overhead_share"] = (
            median(traced) / median(untraced) - 1.0 if traced and untraced else 0.0
        )
        result["per_layer"] = layers
    return result
