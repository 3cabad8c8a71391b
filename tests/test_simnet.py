import dataclasses
import heapq
import itertools
import math
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plexisim import simnet
from plexisim.errors import ConfigurationError, SimError, ValidationError
from plexisim.ledger import BLOCK_INTERVAL_MS
from plexisim.simnet import (
    BASE_TX_BYTES,
    BLOCK_MAX_TXS,
    COMMIT_DELAY_MS,
    ENDORSE_ROUND_MS,
    LINK_BYTES_PER_MS,
    TRIM_S,
    CredentialModel,
    LoadScenario,
    NodeSpec,
    Tier,
    Topology,
    _measure,
    default_topology,
    memory_footprint,
    run_benchmark,
    run_sim,
    saturation_point,
    uniform_load,
)


NFT = CredentialModel.nft_default()
CERT = CredentialModel.certificate_default()


# ---------------------------------------------------------------------------
# The former discrete-event engine, kept as the reference for run_sim: a heap
# of (time, push order) events with string-keyed dispatch. It reads
# simnet.BUFFER_DEPTH at run time so tests can shrink the buffer.
# ---------------------------------------------------------------------------

class _EventQueue:
    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def push(self, time_ms: float, kind: str, data: dict) -> None:
        if time_ms < self._now - 1e-9:
            raise SimError(f"event {kind!r} scheduled in the past ({time_ms} < {self._now})")
        heapq.heappush(self._heap, (time_ms, next(self._seq), kind, data))

    def pop(self):
        time_ms, _, kind, data = heapq.heappop(self._heap)
        self._now = time_ms
        return time_ms, kind, data

    def __bool__(self) -> bool:
        return bool(self._heap)


def reference_run_sim(topology, scenario, n_devices=100, measure_window=None):
    """Process the load to quiescence; returns (commit_time, Metrics)."""
    topology.validate()
    links = {n.node_id: n.link_delay_ms for n in topology.nodes}
    # Endorsement runs in lock-step across the quorum; the slowest fog bounds it.
    bottleneck = min(n.service_rate_tps for n in topology.fogs())
    service_ms = 1000.0 * scenario.credential.verify_cost_factor / bottleneck
    wire_ms = (BASE_TX_BYTES + scenario.credential.tx_overhead_bytes) / LINK_BYTES_PER_MS

    queue = _EventQueue()
    send_time: dict = {}
    commit_time: dict = {}
    failed: list = []

    server_busy = False
    backlog: deque = deque()
    batch: list = []
    batch_gen = 0

    for i, (t, node_id) in enumerate(scenario.submissions):
        queue.push(t, "send", {"tx": i, "node": node_id})

    def start_service(t: float, tx: int) -> None:
        nonlocal server_busy
        server_busy = True
        queue.push(t + service_ms, "endorsed", {"tx": tx})

    def cut_batch(t: float) -> None:
        nonlocal batch, batch_gen
        txs = batch
        batch = []
        batch_gen += 1
        commit_at = t + COMMIT_DELAY_MS
        for tx in txs:
            commit_time[tx] = commit_at
        queue.push(commit_at, "commit", {"txs": txs})

    while queue:
        t, kind, data = queue.pop()
        if kind == "send":
            tx = data["tx"]
            send_time[tx] = t
            queue.push(t + links[data["node"]] + wire_ms, "arrive", {"tx": tx})
        elif kind == "arrive":
            tx = data["tx"]
            if not server_busy:
                start_service(t, tx)
            elif len(backlog) < simnet.BUFFER_DEPTH:
                backlog.append(tx)
            else:
                # No queueing past the buffer: the transaction fails now.
                failed.append(tx)
        elif kind == "endorsed":
            tx = data["tx"]
            queue.push(t + ENDORSE_ROUND_MS, "ordered", {"tx": tx})
            if backlog:
                start_service(t, backlog.popleft())
            else:
                server_busy = False
        elif kind == "ordered":
            tx = data["tx"]
            if not batch:
                queue.push(t + BLOCK_INTERVAL_MS, "batch_timeout", {"gen": batch_gen})
            batch.append(tx)
            if len(batch) >= BLOCK_MAX_TXS:
                cut_batch(t)
        elif kind == "batch_timeout":
            if data["gen"] == batch_gen and batch:
                cut_batch(t)
        elif kind == "commit":
            pass

    metrics = reference_measure(
        scenario, send_time, commit_time, failed, n_devices, measure_window
    )
    return commit_time, metrics


class TestFootprint:
    def test_ratio_two_thirds(self):
        for n in (20, 40, 60, 80, 100):
            ratio = memory_footprint(n, NFT) / memory_footprint(n, CERT)
            assert ratio == pytest.approx(2 / 3, abs=1e-12)

    def test_certificate_mode_definition(self):
        assert memory_footprint(1, CERT) == CERT.cert_bytes + CERT.keypair_bytes

    def test_nft_mode_definition(self):
        assert memory_footprint(1, NFT) == NFT.partial_key_bytes

    def test_linearity(self):
        for model in (NFT, CERT):
            for n in (1, 5, 50):
                assert memory_footprint(2 * n, model) == 2 * memory_footprint(n, model)

    def test_rejects_zero_devices(self):
        with pytest.raises(ValidationError):
            memory_footprint(0, NFT)


class TestTopology:
    def test_default_has_four_edge_two_fog(self):
        topo = default_topology()
        assert len(topo.edges()) == 4 and len(topo.fogs()) == 2

    def test_fog_faster_than_edge_by_default(self):
        topo = default_topology()
        assert min(f.service_rate_tps for f in topo.fogs()) > max(
            e.service_rate_tps for e in topo.edges()
        )

    def test_requires_fog(self):
        topo = Topology(nodes=(NodeSpec("e", Tier.EDGE, 10, 1),))
        with pytest.raises(ConfigurationError):
            topo.validate()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            NodeSpec("x", Tier.FOG, 0, 1)

    def test_repeated_node_id_rejected(self):
        # One links dict keyed by node_id would give the edge the fog's 50 ms
        # link, so its first commit would land at 1230.96 ms, not 1185.96.
        topo = Topology(nodes=(NodeSpec("n1", Tier.EDGE, 50.0, 5.0),
                               NodeSpec("n1", Tier.FOG, 175.0, 50.0)))
        with pytest.raises(ConfigurationError, match="n1"):
            topo.validate()
        with pytest.raises(ConfigurationError):
            run_sim(topo, load(NFT, [(0.0, "n1")]))

    def test_from_json_config(self):
        raw = {"nodes": [
            {"node_id": "e0", "tier": "edge", "service_rate_tps": 40, "link_delay_ms": 20},
            {"node_id": "f0", "tier": "fog", "service_rate_tps": 200, "link_delay_ms": 5},
        ]}
        topo = simnet.topology_from_dict(raw)
        assert [n.node_id for n in topo.fogs()] == ["f0"]

    def test_credential_from_dict_overrides(self):
        model = CredentialModel.from_dict({"mode": "certificate", "cert_bytes": 700})
        assert model.cert_bytes == 700
        assert model.verify_cost_factor == CERT.verify_cost_factor

    @pytest.mark.parametrize("raw", [
        {"mode": "nft", "partial_key_bytes": -5},
        {"mode": "nft", "partial_key_bytes": 0},
        {"mode": "nft", "tx_overhead_bytes": math.inf},
        {"mode": "certificate", "cert_bytes": 0, "keypair_bytes": 0},
        {"mode": "certificate", "keypair_bytes": math.nan},
        {"mode": "certificate", "verify_cost_factor": 0},
        {"mode": "nft", "verify_cost_factor": -1.0},
        {"mode": "nft", "verify_cost_factor": math.inf},
    ])
    def test_credential_from_dict_rejects_unusable_values(self, raw):
        with pytest.raises(ConfigurationError):
            CredentialModel.from_dict(raw)


def load(model, pairs):
    """The scenario that sends tx i at ``pairs[i][0]`` from edge ``pairs[i][1]``."""
    return LoadScenario(model, tuple(t for t, _ in pairs), tuple(e for _, e in pairs))


def edge_topology(links, fog_rates=(simnet.DEFAULT_FOG_RATE_TPS,) * 2):
    return Topology(nodes=tuple(
        [NodeSpec(f"edge-{i}", Tier.EDGE, simnet.DEFAULT_EDGE_RATE_TPS, float(d))
         for i, d in enumerate(links)]
        + [NodeSpec(f"fog-{i}", Tier.FOG, float(r), 10.0) for i, r in enumerate(fog_rates)]
    ))


def reference_uniform_load(rate_tps, duration_s, topology, credential):
    """The former generator-expression form of uniform_load."""
    edges = topology.edges()
    n = int(rate_tps * duration_s)
    return load(credential, [
        (i * 1000.0 / rate_tps, edges[i % len(edges)].node_id) for i in range(n)
    ])


class TestUniformLoad:
    @pytest.mark.parametrize("rate", [36, 37.5, 119, 274])
    def test_matches_reference(self, rate):
        for duration_s in (10.0, 15.0, 20.0):
            for n_edge in (1, 2, 3, 4):
                topo = default_topology(n_edge=n_edge)
                got = uniform_load(rate, duration_s, topo, NFT).submissions
                assert got == reference_uniform_load(rate, duration_s, topo, NFT).submissions
                assert len(got) == int(rate * duration_s)

    def test_no_submissions(self):
        topo = default_topology()
        got = uniform_load(36, 0.0, topo, NFT)
        assert got.submissions == reference_uniform_load(36, 0.0, topo, NFT).submissions == ()
        assert got.duration_ms == 0.0

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError):
            LoadScenario(NFT, (0.0, 1.0), ("edge-0",))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_send_rejected(self, bad):
        with pytest.raises(ValidationError):
            LoadScenario(NFT, (0.0, bad, 5.0), ("edge-0",) * 3)


class TestRunSim:
    def test_repeat_run_identical(self):
        topo = default_topology()
        scenario = uniform_load(40, 5, topo, NFT)
        assert run_sim(topo, scenario) == run_sim(topo, scenario)

    def test_zero_transaction_scenario(self):
        topo = default_topology()
        scenario = load(NFT, [])
        commit_ms, metrics = run_sim(topo, scenario)
        assert commit_ms == {}
        assert metrics.failed_tx_count == 0
        assert metrics.achieved_throughput_tps == 0.0

    def test_ten_tx_hand_trace(self):
        # Hand-derived schedule: link 25 ms + 256/1024 ms wire, service
        # 1000/175 ms, endorsement round 250 ms, so tx i enters ordering at
        # 90i + 280.964 ms. The 500 ms batch timeout from tx0 cuts a 6-tx
        # block at 780.964 committing at 1205.964; the remaining 4 cut at
        # 1320.964 committing at 1745.964.
        topo = default_topology()
        scenario = load(NFT, [(90.0 * i, f"edge-{i % 4}") for i in range(10)])
        commit_ms, metrics = run_sim(topo, scenario)
        blocks = [n for _, n in sorted(Counter(commit_ms.values()).items())]
        assert len(commit_ms) == 10
        assert blocks == [6, 4]
        assert commit_ms[0] == pytest.approx(1205.964286, abs=1e-3)
        assert commit_ms[9] == pytest.approx(1745.964286, abs=1e-3)
        assert metrics.failed_tx_count == 0

    def test_tx_ordered_at_deadline_goes_to_next_block(self):
        # Link 6 ms + 2 ms wire, service 8 ms, round 250 ms: tx0 enters
        # ordering at 266 ms and its block's deadline is 766 ms, the instant
        # tx1 (sent at 500 ms) enters ordering. tx1 opens the next block.
        topo = edge_topology([6], [125])
        model = CredentialModel(mode="nft", tx_overhead_bytes=1792)
        scenario = load(model, [(0.0, "edge-0"), (500.0, "edge-0")])
        commit_ms, _ = run_sim(topo, scenario)
        assert commit_ms == {0: 766.0 + COMMIT_DELAY_MS, 1: 1266.0 + COMMIT_DELAY_MS}

    def test_causality_link_delay(self):
        topo = default_topology()
        scenario = uniform_load(30, 3, topo, NFT)
        commit_ms, _ = run_sim(topo, scenario)
        min_link = min(n.link_delay_ms for n in topo.edges())
        for tx, t_commit in commit_ms.items():
            assert t_commit >= scenario.send_ms[tx] + min_link

    @pytest.mark.parametrize("topo, model", [
        (edge_topology([25.0, -30.0]), NFT),
        (edge_topology([25.0, math.nan]), NFT),
        (edge_topology([25.0, math.inf]), NFT),
        (default_topology(), CredentialModel(mode="nft", verify_cost_factor=-1.0)),
        (default_topology(), CredentialModel(mode="nft", tx_overhead_bytes=-30_000)),
    ])
    def test_negative_or_non_finite_stage_time_rejected(self, topo, model):
        scenario = load(model, [(0.0, "edge-0")])
        with pytest.raises(ValidationError):
            run_sim(topo, scenario)


# Topologies for the realistic differential check: the default, mixed edge
# links, and an edge with a 0 ms link.
REALISTIC_TOPOLOGIES = {
    "default": default_topology(),
    "mixed": edge_topology([3.0, 17.5, 25.0, 40.0]),
    "zero-link": edge_topology([0.0, 25.0]),
}


@st.composite
def tie_heavy_cases(draw):
    """Integer links, sends and service times so arrivals and releases tie."""
    links = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    fog_rates = draw(st.lists(st.sampled_from([40, 100, 125, 200, 250, 500, 1000]),
                              min_size=1, max_size=2))
    overhead = draw(st.sampled_from([0, 512, 1792]))
    factor = draw(st.sampled_from([1.0, simnet.CERT_VERIFY_FACTOR]))
    # A 20 ms span overloads the server; a 600 ms one spreads blocks out.
    span = draw(st.sampled_from([20, 600]))
    sends = draw(st.lists(st.tuples(st.integers(0, span), st.integers(0, len(links) - 1)),
                          max_size=40))
    if draw(st.booleans()):
        sends.sort()
    depth = draw(st.integers(1, 5))
    window = draw(st.none() | st.tuples(st.integers(0, 40), st.integers(41, 2000)))
    return links, fog_rates, overhead, factor, sends, depth, window


class TestMatchesEventEngine:
    """run_sim reproduces the former event engine exactly: commit times and
    metrics, including at full buffers where an arrival and a release tie."""

    @settings(max_examples=400, deadline=None)
    @given(case=tie_heavy_cases())
    # The release at 23 ms began at 15 ms, tx2's send time, so tx2 arrives
    # first, finds the 1-deep buffer full and fails.
    @example(case=([6], [125], 1792, 1.0, [(7, 0), (9, 0), (15, 0)], 1, None))
    # tx0 releases at 16 ms, having begun at 8 ms, the instant tx1 and tx2
    # (sent at 8 ms) arrive: both arrivals come first, so tx1 takes the
    # 1-deep buffer and tx2 fails.
    @example(case=([6], [125], 1792, 1.0, [(0, 0), (8, 0), (8, 0)], 1, None))
    # The tenth tx enters ordering exactly at the first one's deadline
    # (766 ms), so it opens the next block; the nine before it commit at
    # 1191 ms, the window's upper edge.
    @example(case=([6], [125], 1792, 1.0,
                   [(50 * i, 0) for i in range(9)] + [(500, 0)], 5, (0, 1191)))
    # tx1 (sent at 4 ms) and tx2 (sent at 0 ms) both arrive at 6.25 ms while
    # tx0 is in service: the earlier send goes first, so tx2 takes the 1-deep
    # buffer and tx1 fails, though tx1 has the lower index.
    @example(case=([6, 2], [125], 0, 1.0, [(0, 1), (4, 1), (0, 0)], 1, None))
    def test_tie_heavy(self, case):
        links, fog_rates, overhead, factor, sends, depth, window = case
        topo = edge_topology(links, fog_rates)
        model = CredentialModel(mode="nft", tx_overhead_bytes=overhead,
                                verify_cost_factor=factor)
        scenario = load(model, [(float(t), f"edge-{e}") for t, e in sends])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simnet, "BUFFER_DEPTH", depth)
            got_commits, got = run_sim(topo, scenario, measure_window=window)
            want_commits, want = reference_run_sim(topo, scenario, measure_window=window)
        assert got_commits == want_commits
        assert got.to_row() == want.to_row()
        assert got == want

    @pytest.mark.parametrize("name", sorted(REALISTIC_TOPOLOGIES))
    @pytest.mark.parametrize("model", [NFT, CERT], ids=["nft", "certificate"])
    def test_realistic_sweep(self, name, model):
        topo = REALISTIC_TOPOLOGIES[name]
        # 20 s runs across saturation, then perfbench's sweep shape: 15 s at
        # its lowest and highest rates, where the top rate fills the buffer.
        for duration_s, rate in ((20.0, 60), (20.0, 120), (20.0, 175), (20.0, 240),
                                 (15.0, 36), (15.0, 274)):
            scenario = uniform_load(rate, duration_s, topo, model)
            window = (TRIM_S * 1000.0, (duration_s - TRIM_S) * 1000.0)
            for w in (window, None):
                got = run_sim(topo, scenario, measure_window=w)
                want = reference_run_sim(topo, scenario, measure_window=w)
                assert got[0] == want[0]
                assert got[1].to_row() == want[1].to_row()
                if rate == 274:
                    assert want[1].failed_tx_count > 0


def reference_measure(scenario, send_time, commit_time, failed, n_devices, window):
    """The former two-pass form of _measure."""
    n = len(scenario.submissions)
    duration_ms = max((t for t, _ in scenario.submissions), default=0.0)
    if window is None:
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
    return simnet.Metrics(rate, achieved, mean, p95, len(failed),
                          memory_footprint(n_devices, scenario.credential))


class TestMeasure:
    @settings(max_examples=300, deadline=None)
    @given(sends=st.lists(st.integers(0, 60), max_size=30),
           waits=st.lists(st.none() | st.integers(0, 60), min_size=30, max_size=30),
           window=st.none() | st.tuples(st.integers(0, 60), st.integers(0, 120)))
    # tx0 is sent and commits on the window's lower edge; tx1 is sent and
    # tx2 commits on its upper one.
    @example(sends=[10, 20, 15], waits=[0, 10, 5] + [None] * 27, window=(10, 20))
    def test_matches_reference(self, sends, waits, window):
        # Small integer times, so sends and commits land on the window's edges.
        scenario = load(NFT, [(float(t), "edge-0") for t in sends])
        send_time = [float(t) for t in sends]
        commit_time = {tx: send_time[tx] + w for tx, w in enumerate(waits[:len(sends)])
                       if w is not None}
        failed = [tx for tx in range(len(sends)) if tx not in commit_time]
        # run_sim passes its commits in service order, where commit times never decrease.
        served = sorted(commit_time, key=commit_time.__getitem__)
        commit = [commit_time[tx] for tx in served]
        want = reference_measure(scenario, send_time, commit_time, failed, 10, window)
        assert _measure(scenario, served, commit, len(failed), want.send_rate_tps, 10,
                        window) == want


class TestBenchmark:
    def test_underload_matches_send_rate(self):
        results = run_benchmark([20, 60], NFT, duration_s=20.0)
        for m in results:
            assert m.failed_tx_count == 0
            assert m.achieved_throughput_tps == pytest.approx(m.send_rate_tps, abs=1.0)

    def test_achieved_never_exceeds_send_rate(self):
        for model in (NFT, CERT):
            for m in run_benchmark([40, 120, 160, 200], model, duration_s=20.0):
                assert m.achieved_throughput_tps <= m.send_rate_tps + 1.0

    def test_throughput_never_exceeds_capacity(self):
        results = run_benchmark([120, 200], NFT, duration_s=20.0)
        capacity = simnet.DEFAULT_FOG_RATE_TPS / NFT.verify_cost_factor
        for m in results:
            assert m.achieved_throughput_tps <= capacity + 1.0

    def test_saturation_ordering(self):
        # The cheaper verification mode saturates at or above the costlier.
        rates = [60, 120, 180]
        sat_nft = saturation_point(run_benchmark(rates, NFT, duration_s=20.0))
        sat_cert = saturation_point(run_benchmark(rates, CERT, duration_s=20.0))
        assert sat_nft >= sat_cert

    def test_duration_precondition(self):
        for duration_s in (5.0, 10.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                run_benchmark([20], NFT, duration_s=duration_s)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -5.0])
    def test_non_finite_or_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValidationError):
            run_benchmark([20, rate], NFT, duration_s=20.0)

    def test_empty_rates_rejected(self):
        with pytest.raises(ValidationError):
            run_benchmark([], NFT)

    def test_storage_reported(self):
        (m,) = run_benchmark([20], CERT, duration_s=20.0, n_devices=10)
        assert m.storage_bytes == memory_footprint(10, CERT)

    @settings(max_examples=60, deadline=None)
    # At 2 tps or more a send lands in every window of 500 ms or longer.
    @given(rate=st.floats(2.0, 300.0),
           duration_s=st.floats(10.5, 25.0),
           model=st.sampled_from([NFT, CERT]),
           name=st.sampled_from(sorted(REALISTIC_TOPOLOGIES)))
    def test_matches_run_sim(self, rate, duration_s, model, name):
        # run_benchmark measures the pass's columns directly; run_sim reports
        # the same metrics except the send rate, which run_benchmark takes
        # from the rate it ran.
        topo = REALISTIC_TOPOLOGIES[name]
        window = (TRIM_S * 1000.0, (duration_s - TRIM_S) * 1000.0)
        (got,) = run_benchmark([rate], model, duration_s, topo)
        _, want = run_sim(topo, uniform_load(rate, duration_s, topo, model),
                          measure_window=window)
        assert got == dataclasses.replace(want, send_rate_tps=rate)

