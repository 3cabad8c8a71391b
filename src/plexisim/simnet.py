"""Deterministic queueing model of the edge/fog transaction pipeline.

Edge nodes source signed transactions toward the fog tier, where endorsing
peers verify them, the orderer batches them into blocks, and commits land
after a fixed propagation cost. Endorsement is one FIFO server with a
bounded buffer and no overflow queueing: arrivals beyond it fail
immediately, which is what makes latency blow up once the send rate passes
the service capacity. The model runs in one pass over the arrivals, with
no event queue.

Two credential models are compared: identity tokens (the registry keeps
only per-device partial key material, transactions stay small) versus a
certificate baseline (certificate plus key pair stored per device, a
certificate attached to every transaction, costlier verification). Default
sizes and cost factors are calibration constants, not measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from itertools import cycle, islice, repeat
from operator import add, lt
from typing import Optional, Sequence

from . import jsonread as jr
from .errors import ConfigurationError, ValidationError
from .ledger import BLOCK_INTERVAL_MS

# Calibrated defaults: fog endorsement capacity 175 tps in token mode and
# 175/(35/24) = 120 tps in certificate mode.
DEFAULT_FOG_RATE_TPS = 175.0
DEFAULT_EDGE_RATE_TPS = 50.0
CERT_VERIFY_FACTOR = 35.0 / 24.0

# The orderer cuts a block at BLOCK_MAX_TXS transactions or BLOCK_INTERVAL_MS
# (the ledger's commit interval) after the first, whichever comes first.
BLOCK_MAX_TXS = 10
# Fixed stage costs and buffering of the fog pipeline (simulated ms).
ENDORSE_ROUND_MS = 250.0
COMMIT_DELAY_MS = 425.0
BUFFER_DEPTH = 900
# Transaction bytes (base payload plus the credential model's per-tx
# overhead) are charged as transmission time on the edge-to-fog link.
BASE_TX_BYTES = 256
LINK_BYTES_PER_MS = 1024.0
# run_benchmark leaves this much simulated time at each end of a run out of
# its steady-state measurement window.
TRIM_S = 5.0
# The most transactions uniform_load builds for one run, 55 times the largest
# sweep point of the paper (300 tps for 60 s). A run peaks at the end of its
# pass, while the load's columns, the pass's arrivals and its service-order
# lists are all alive (tracemalloc, CPython 3.11, per transaction): 146 bytes
# when every tx commits and 103 when most fail if the arrivals already rise,
# and 210 and 186 if they must be sorted into triples first. So one run stays
# near 210 MB. run_benchmark builds no commit dict, and run_sim builds its
# dict after the arrivals are freed, below that peak.
MAX_SIM_TXS = 1_000_000


class Tier(Enum):
    EDGE = "edge"
    FOG = "fog"


@dataclass(frozen=True)
class NodeSpec:
    """One edge or fog node.

    The pipeline pass that ``run_sim`` and ``run_benchmark`` run reads
    ``link_delay_ms`` of every node and ``service_rate_tps`` of the fogs only:
    an edge's rate is validated but feeds no model stage.
    It stays so that edges and fogs share one node schema in ``bench
    --config`` topologies, and so the default topology keeps its fogs faster
    than its edges (``test_fog_faster_than_edge_by_default``).
    """

    node_id: str
    tier: Tier
    service_rate_tps: float
    link_delay_ms: float

    def __post_init__(self):
        if not self.service_rate_tps > 0:  # NaN too, which min() over the fogs skips
            raise ValidationError(f"node {self.node_id}: service rate must be positive")


@dataclass(frozen=True)
class Topology:
    nodes: tuple

    def edges(self) -> list:
        return [n for n in self.nodes if n.tier is Tier.EDGE]

    def fogs(self) -> list:
        return [n for n in self.nodes if n.tier is Tier.FOG]

    def validate(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise ConfigurationError(f"topology repeats node_id {repeated!r}")
        if not self.fogs():
            raise ConfigurationError("topology needs at least one orderer-hosting fog node")
        if not self.edges():
            raise ConfigurationError("topology needs at least one edge node")


def default_topology(n_edge: int = 4, n_fog: int = 2) -> Topology:
    nodes = [
        NodeSpec(f"edge-{i}", Tier.EDGE, DEFAULT_EDGE_RATE_TPS, 25.0) for i in range(n_edge)
    ] + [
        NodeSpec(f"fog-{i}", Tier.FOG, DEFAULT_FOG_RATE_TPS, 10.0) for i in range(n_fog)
    ]
    return Topology(nodes=tuple(nodes))


_TOPOLOGY = frozenset({"nodes"})
_NODE = frozenset({"node_id", "tier", "service_rate_tps", "link_delay_ms"})


def _node(n: dict) -> NodeSpec:
    jr.obj(n, _NODE)
    return NodeSpec(
        node_id=jr.of(str, n["node_id"]),
        tier=Tier(jr.of(str, n["tier"])),
        service_rate_tps=jr.number(n["service_rate_tps"]),
        link_delay_ms=jr.number(n["link_delay_ms"]),
    )


def topology_from_dict(raw) -> Topology:
    """JSON config form: {"nodes": [{node_id, tier, service_rate_tps, link_delay_ms}]}."""
    try:
        nodes = tuple(map(_node, jr.of(list, jr.obj(raw, _TOPOLOGY)["nodes"])))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed topology: {exc}") from exc
    topo = Topology(nodes=nodes)
    topo.validate()
    return topo


# The fields a credential model override may set: four byte counts, read
# as whole numbers, and verify_cost_factor, read as a number.
CREDENTIAL_FIELDS = frozenset({"cert_bytes", "keypair_bytes", "partial_key_bytes",
                               "tx_overhead_bytes", "verify_cost_factor"})
_MODE = frozenset({"mode"})


@dataclass(frozen=True)
class CredentialModel:
    mode: str                      # "nft" | "certificate"
    cert_bytes: int = 512
    keypair_bytes: int = 1024
    partial_key_bytes: int = 1024
    tx_overhead_bytes: int = 0
    verify_cost_factor: float = 1.0

    def per_device_storage(self) -> int:
        if self.mode == "certificate":
            return self.cert_bytes + self.keypair_bytes
        return self.partial_key_bytes

    @classmethod
    def nft_default(cls) -> "CredentialModel":
        return cls(mode="nft", tx_overhead_bytes=0, verify_cost_factor=1.0)

    @classmethod
    def certificate_default(cls) -> "CredentialModel":
        return cls(mode="certificate", tx_overhead_bytes=512,
                   verify_cost_factor=CERT_VERIFY_FACTOR)

    @classmethod
    def from_dict(cls, raw) -> "CredentialModel":
        """JSON form: {"mode": "nft" | "certificate", plus any of
        ``CREDENTIAL_FIELDS``}; the fields given replace the mode's defaults."""
        try:
            mode = jr.of(str, jr.obj(raw, _MODE, CREDENTIAL_FIELDS)["mode"])
            if mode not in ("nft", "certificate"):
                raise ValueError(f"unknown mode {mode!r}")
            fields = {k: jr.number(v) if k == "verify_cost_factor" else jr.whole(v)
                      for k, v in raw.items() if k != "mode"}
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed credential model: {exc}") from exc
        if fields.get("verify_cost_factor", 1.0) <= 0:
            raise ConfigurationError("verify_cost_factor must be positive")
        if any(v < 0 for v in fields.values()):
            raise ConfigurationError("credential model fields must not be negative")
        base = cls.certificate_default() if mode == "certificate" else cls.nft_default()
        model = replace(base, **fields)
        if model.per_device_storage() <= 0:
            raise ConfigurationError(f"{model.mode} model stores no bytes per device")
        return model


def memory_footprint(n_devices: int, model: CredentialModel) -> int:
    """Registry storage for a device population under one credential model."""
    if n_devices < 1:
        raise ValidationError("need at least one device")
    return n_devices * model.per_device_storage()


@dataclass
class Metrics:
    send_rate_tps: float
    achieved_throughput_tps: float
    latency_ms_mean: float
    latency_ms_p95: float
    failed_tx_count: int
    storage_bytes: int

    def to_row(self) -> dict:
        return {
            "send_rate_tps": self.send_rate_tps,
            "achieved_throughput_tps": round(self.achieved_throughput_tps, 3),
            "latency_ms_mean": round(self.latency_ms_mean, 3),
            "latency_ms_p95": round(self.latency_ms_p95, 3),
            "failed_tx_count": self.failed_tx_count,
            "storage_bytes": self.storage_bytes,
        }


@dataclass(frozen=True)
class LoadScenario:
    """Transaction submissions as two columns of equal length: tx i is sent
    at ``send_ms[i]`` (simulated ms) from the edge node ``edge_ids[i]``."""

    credential: CredentialModel
    send_ms: tuple
    edge_ids: tuple

    def __post_init__(self):
        if len(self.send_ms) != len(self.edge_ids):
            raise ValidationError(f"{len(self.send_ms)} send times for "
                                  f"{len(self.edge_ids)} edge ids")
        if not all(map(math.isfinite, self.send_ms)):
            raise ValidationError("send times must be finite")

    @property
    def submissions(self) -> tuple:
        """The (send_ms, edge_id) pair of each transaction."""
        return tuple(zip(self.send_ms, self.edge_ids))

    @property
    def duration_ms(self) -> float:
        return max(self.send_ms, default=0.0)


def uniform_load(
    rate_tps: float,
    duration_s: float,
    topology: Topology,
    credential: CredentialModel,
) -> LoadScenario:
    """Evenly spaced sends, ``1000 / rate_tps`` ms apart, dealt to the edges in
    turn. More than ``MAX_SIM_TXS`` transactions raise ``ValidationError``."""
    if not rate_tps * duration_s <= MAX_SIM_TXS:
        raise ValidationError(f"{rate_tps:g} tps for {duration_s:g} s is more than "
                              f"{MAX_SIM_TXS} simulated transactions")
    n = int(rate_tps * duration_s)
    edge_ids = [e.node_id for e in topology.edges()]
    return LoadScenario(credential, tuple([i * 1000.0 / rate_tps for i in range(n)]),
                        tuple(islice(cycle(edge_ids), n)))


# ---------------------------------------------------------------------------
# Pipeline model
# ---------------------------------------------------------------------------

def run_sim(
    topology: Topology,
    scenario: LoadScenario,
    n_devices: int = 100,
    measure_window: Optional[tuple] = None,
) -> tuple:
    """Run the load through the pipeline; returns (commit_ms, Metrics).

    ``commit_ms`` maps each committed transaction's index in the scenario's
    columns to its commit time. Failed transactions are absent from it. The
    send rate is the load's transaction count over its last send time.
    """
    served, commit, failed = _simulate(topology, scenario)
    duration_ms = scenario.duration_ms
    rate = len(scenario.send_ms) / (duration_ms / 1000.0) if duration_ms > 0 else 0.0
    metrics = _measure(scenario, served, commit, failed, rate, n_devices, measure_window)
    return dict(zip(served, commit)), metrics


def _simulate(topology: Topology, scenario: LoadScenario) -> tuple:
    """The pipeline model; returns (served, commit, failed): the index and
    commit time of each committed transaction, in service order, and the
    count of failed ones.

    One pass, no event queue. Arrivals are taken in (arrival time, send
    time, index) order. Each is admitted or failed against the buffer of
    transactions still waiting for the single FIFO endorsement server
    (Lindley's recursion with a ``BUFFER_DEPTH``-deep buffer). When a
    release and an arrival fall on the same instant, the release by a
    transaction whose service began at b comes first iff b is earlier than
    the arriving transaction's send time. Endorsed transactions enter
    ordering ``ENDORSE_ROUND_MS`` later, in service order, and are batched
    by the ledger's count-or-deadline cut; a transaction ordered exactly at
    the deadline goes to the next block.
    """
    topology.validate()
    links = {n.node_id: n.link_delay_ms for n in topology.nodes}
    # Endorsement runs in lock-step across the quorum; the slowest fog bounds it.
    bottleneck = min(n.service_rate_tps for n in topology.fogs())
    service_ms = 1000.0 * scenario.credential.verify_cost_factor / bottleneck
    wire_ms = (BASE_TX_BYTES + scenario.credential.tx_overhead_bytes) / LINK_BYTES_PER_MS
    # Each alone, so a wire time cannot cover a negative delay; a sum can overflow.
    stage_ms = (service_ms, wire_ms, *links.values(), max(links.values()) + wire_ms)
    if not all(0.0 <= ms < math.inf for ms in stage_ms):
        raise ValidationError("link, wire and service times must be finite and non-negative")

    send_time = scenario.send_ms
    link_ms = map(links.__getitem__, scenario.edge_ids)
    arrive = list(map(add, map(add, send_time, link_ms), repeat(wire_ms)))
    by_arrival = zip(arrive, send_time, range(len(send_time)))
    if not all(map(lt, arrive, islice(arrive, 1, None))):
        # Triples compare item by item, so one sort gives (arrival, send, index)
        # order; strictly rising arrivals are in that order already.
        by_arrival = sorted(by_arrival)
    del arrive                      # freed here once sorted; else the zip holds it

    # The last admitted tx releases the server at free_t; it began service at
    # free_s. A release (r, b) is handled before an arrival (a, s) iff
    # (r, b) < (a, s).
    free_t = free_s = -math.inf
    # The service starts b of the last ``BUFFER_DEPTH`` buffered txs; each
    # released the server at r = b + service_ms, the same float as its free_t.
    # Releases never decrease, so the txs still waiting at an arrival (a, s)
    # are those whose release is not before it, and the buffer is full iff the
    # oldest kept release is not. A -inf pad releases before every arrival.
    waiting = deque(repeat(-math.inf, BUFFER_DEPTH), maxlen=BUFFER_DEPTH)
    ordered: list = []              # time each admitted tx enters ordering, in service order
    served: list = []               # index of each admitted tx, in service order
    failed = 0
    for a, s, tx in by_arrival:
        if free_t < a or (free_t == a and free_s < s):
            start = a               # the server is free on arrival
        else:
            b = waiting[0]
            r = b + service_ms
            if r > a or (r == a and b >= s):
                # No queueing past the buffer: the transaction fails now.
                failed += 1
                continue
            waiting.append(free_s)
            start = free_t
        end = start + service_ms
        free_t, free_s = end, start
        ordered.append(end + ENDORSE_ROUND_MS)
        served.append(tx)
    del by_arrival                  # freed before the commit list is built

    # ``ordered`` never decreases, so a block is its first tx and every later
    # one ordered before the deadline, up to BLOCK_MAX_TXS; a full block is
    # cut when its last tx is ordered.
    commit: list = []               # commit time of each admitted tx, in service order
    first, m = 0, len(ordered)
    while first < m:
        deadline = ordered[first] + BLOCK_INTERVAL_MS
        last = first + BLOCK_MAX_TXS
        if last <= m and ordered[last - 1] < deadline:
            cut = ordered[last - 1]
        else:
            last = bisect_left(ordered, deadline, first + 1, min(last, m))
            cut = deadline
        commit += [cut + COMMIT_DELAY_MS] * (last - first)
        first = last
    return served, commit, failed


def _measure(
    scenario: LoadScenario,
    served: list,
    commit: list,
    failed_count: int,
    send_rate_tps: float,
    n_devices: int,
    window: Optional[tuple],
) -> Metrics:
    """Metrics of a run whose tx ``served[k]`` committed at ``commit[k]``; the
    lists are in service order, so ``commit`` never decreases."""
    send_time = scenario.send_ms
    if window is None:
        # Full-run measurement: count until the last commit lands.
        duration_ms = scenario.duration_ms
        end = max(duration_ms, commit[-1]) if commit else duration_ms
        window = (0.0, end if end > 0 else 1.0)
    w0, w1 = window

    latencies = [c - sent for c, sent in zip(commit, map(send_time.__getitem__, served))
                 if w0 <= sent <= w1]
    commits_in_window = bisect_right(commit, w1) - bisect_left(commit, w0)
    span_s = (w1 - w0) / 1000.0
    achieved = commits_in_window / span_s if span_s > 0 else 0.0

    latencies.sort()
    if latencies:
        mean = sum(latencies) / len(latencies)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    else:
        mean = p95 = 0.0

    return Metrics(
        send_rate_tps=send_rate_tps,
        achieved_throughput_tps=achieved,
        latency_ms_mean=mean,
        latency_ms_p95=p95,
        failed_tx_count=failed_count,
        storage_bytes=memory_footprint(n_devices, scenario.credential),
    )


def run_benchmark(
    send_rates: Sequence[float],
    model: CredentialModel,
    duration_s: float = 60.0,
    topology: Optional[Topology] = None,
    seed: int = 0,
    n_devices: int = 100,
) -> list:
    """One simulation per send rate; metrics over the steady-state window.

    Deterministic: the model draws nothing at random, so ``seed`` has no
    effect and is accepted for call compatibility.
    """
    if not send_rates:
        raise ValidationError("need at least one send rate")
    if not all(0 < rate < math.inf for rate in send_rates):
        raise ValidationError("send rates must be finite and positive")
    if not 2 * TRIM_S < duration_s < math.inf:
        # Shorter runs leave no steady-state window between the trimmed ends.
        raise ValidationError(f"benchmark duration must be finite and longer than "
                              f"{2 * TRIM_S:g} simulated seconds")
    topology = topology or default_topology()
    window = w0, w1 = (TRIM_S * 1000.0, (duration_s - TRIM_S) * 1000.0)
    results = []
    for rate in send_rates:
        scenario = uniform_load(rate, duration_s, topology, model)
        # send_ms is sorted, so these bisects count the sends inside the window.
        if bisect_right(scenario.send_ms, w1) == bisect_left(scenario.send_ms, w0):
            raise ValidationError(f"at {rate:g} tps no transaction is sent inside the "
                                  f"measured window ({TRIM_S:g} s to {duration_s - TRIM_S:g} s)")
        served, commit, failed = _simulate(topology, scenario)
        results.append(_measure(scenario, served, commit, failed, rate, n_devices, window))
    return results


def saturation_point(metrics: Sequence[Metrics]) -> float:
    """The plateau: highest commit rate achieved across tested send rates."""
    return max(m.achieved_throughput_tps for m in metrics)
