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
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigurationError, ValidationError
from .ledger import BLOCK_INTERVAL_MS, BLOCK_MAX_TXS

# Calibrated defaults: fog endorsement capacity 175 tps in token mode and
# 175/(35/24) = 120 tps in certificate mode.
DEFAULT_FOG_RATE_TPS = 175.0
DEFAULT_EDGE_RATE_TPS = 50.0
CERT_VERIFY_FACTOR = 35.0 / 24.0

# Fixed stage costs and buffering of the fog pipeline (simulated ms). Block
# batching follows the ledger's BLOCK_MAX_TXS / BLOCK_INTERVAL_MS policy.
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


class Tier(Enum):
    EDGE = "edge"
    FOG = "fog"


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    tier: Tier
    service_rate_tps: float
    link_delay_ms: float

    def __post_init__(self):
        if self.service_rate_tps <= 0:
            raise ValidationError(f"node {self.node_id}: service rate must be positive")


@dataclass(frozen=True)
class Topology:
    nodes: tuple

    def edges(self) -> list:
        return [n for n in self.nodes if n.tier is Tier.EDGE]

    def fogs(self) -> list:
        return [n for n in self.nodes if n.tier is Tier.FOG]

    def validate(self) -> None:
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


def topology_from_dict(raw: dict) -> Topology:
    """JSON config form: {"nodes": [{node_id, tier, service_rate_tps, link_delay_ms}]}."""
    try:
        nodes = tuple(
            NodeSpec(
                node_id=n["node_id"],
                tier=Tier(n["tier"]),
                service_rate_tps=float(n["service_rate_tps"]),
                link_delay_ms=float(n["link_delay_ms"]),
            )
            for n in raw["nodes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed topology: {exc!r}") from exc
    topo = Topology(nodes=nodes)
    topo.validate()
    return topo


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
    def from_dict(cls, raw: dict) -> "CredentialModel":
        base = cls.certificate_default() if raw.get("mode") == "certificate" else cls.nft_default()
        fields = {k: raw[k] for k in
                  ("cert_bytes", "keypair_bytes", "partial_key_bytes",
                   "tx_overhead_bytes", "verify_cost_factor") if k in raw}
        for k, v in fields.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigurationError(f"credential model field {k!r} must be a number")
        return replace(base, **fields)


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
    """Transaction submissions: (send_time_ms, edge_node_id) pairs."""

    credential: CredentialModel
    submissions: tuple

    @property
    def duration_ms(self) -> float:
        return max((t for t, _ in self.submissions), default=0.0)


def uniform_load(
    rate_tps: float,
    duration_s: float,
    topology: Topology,
    credential: CredentialModel,
) -> LoadScenario:
    edges = topology.edges()
    n = int(rate_tps * duration_s)
    subs = tuple(
        (i * 1000.0 / rate_tps, edges[i % len(edges)].node_id) for i in range(n)
    )
    return LoadScenario(credential=credential, submissions=subs)


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

    ``commit_ms`` maps each committed transaction's index in
    ``scenario.submissions`` to its commit time. Failed transactions are
    absent from it.

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
    stage_ms = (service_ms, *(d + wire_ms for d in links.values()))
    if not all(0.0 <= ms < math.inf for ms in stage_ms):
        raise ValidationError("link, wire and service times must be finite and non-negative")

    send_time = [t for t, _ in scenario.submissions]
    arrivals = sorted(
        (t + links[node_id] + wire_ms, t, tx)
        for tx, (t, node_id) in enumerate(scenario.submissions)
    )

    # A release is (time, service start of the releasing tx); it is handled
    # before an arrival (a, s) iff release < (a, s).
    free = (-math.inf, -math.inf)   # release of the last admitted tx
    waiting: deque = deque()        # for each buffered tx, the release that starts it
    ordered: list = []              # (time entering ordering, tx) in service order
    failed: list = []
    for arrive, send, tx in arrivals:
        now = (arrive, send)
        while waiting and waiting[0] < now:
            waiting.popleft()
        if free < now:
            start = arrive
        elif len(waiting) < BUFFER_DEPTH:
            start = free[0]
            waiting.append(free)
        else:
            # No queueing past the buffer: the transaction fails now.
            failed.append(tx)
            continue
        free = (start + service_ms, start)
        ordered.append((free[0] + ENDORSE_ROUND_MS, tx))

    commit_ms: dict = {}
    batch: list = []
    deadline = 0.0

    def cut(t: float) -> None:
        for tx in batch:
            commit_ms[tx] = t + COMMIT_DELAY_MS
        batch.clear()

    for t, tx in ordered:
        if batch and t >= deadline:
            cut(deadline)
        if not batch:
            deadline = t + BLOCK_INTERVAL_MS
        batch.append(tx)
        if len(batch) >= BLOCK_MAX_TXS:
            cut(t)
    if batch:
        cut(deadline)

    metrics = _measure(scenario, send_time, commit_ms, failed, n_devices, measure_window)
    return commit_ms, metrics


def _measure(
    scenario: LoadScenario,
    send_time: Sequence[float],
    commit_time: dict,
    failed: list,
    n_devices: int,
    window: Optional[tuple],
) -> Metrics:
    n = len(scenario.submissions)
    duration_ms = scenario.duration_ms
    if window is None:
        # Full-run measurement: count until the last commit lands.
        end = max([duration_ms, *commit_time.values()]) if commit_time else duration_ms
        window = (0.0, end if end > 0 else 1.0)
    w0, w1 = window

    latencies = [
        commit_time[tx] - send_time[tx]
        for tx in commit_time
        if w0 <= send_time[tx] <= w1
    ]
    commits_in_window = sum(1 for t in commit_time.values() if w0 <= t <= w1)
    span_s = (w1 - w0) / 1000.0
    achieved = commits_in_window / span_s if span_s > 0 else 0.0
    rate = n / (duration_ms / 1000.0) if duration_ms > 0 else 0.0

    latencies.sort()
    if latencies:
        mean = sum(latencies) / len(latencies)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    else:
        mean = p95 = 0.0

    return Metrics(
        send_rate_tps=rate,
        achieved_throughput_tps=achieved,
        latency_ms_mean=mean,
        latency_ms_p95=p95,
        failed_tx_count=len(failed),
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
    if not 10 <= duration_s < math.inf:
        raise ValidationError("benchmark duration must be finite and at least 10 simulated seconds")
    topology = topology or default_topology()
    results = []
    for rate in send_rates:
        scenario = uniform_load(rate, duration_s, topology, model)
        window = (TRIM_S * 1000.0, (duration_s - TRIM_S) * 1000.0)
        _, metrics = run_sim(topology, scenario, n_devices=n_devices, measure_window=window)
        metrics.send_rate_tps = rate
        results.append(metrics)
    return results


def saturation_point(metrics: Sequence[Metrics]) -> float:
    """The plateau: highest commit rate achieved across tested send rates."""
    return max(m.achieved_throughput_tps for m in metrics)
