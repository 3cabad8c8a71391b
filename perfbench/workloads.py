"""The four seeded workloads: input generation, one operation, output checks.

Every workload runs in fixed-size rounds. A round builds fresh state from
inputs derived from ``(workload, seed, round)``, runs its operations one
after another (a closed loop with one caller), then audits what it built.
Fixed rounds keep memory and chain length independent of how fast the
code is, so a faster program does more rounds, not bigger ones.

Operations call only the public plexisim API. Checks never run inside the
timed region; each returns a list of error strings, and a non-empty list
makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any

from plexisim import cli, identity, simnet, telemetry
from plexisim import ledger as ledger_mod
from plexisim.aggregator import (
    ActionType,
    Direction,
    FlexRequest,
    FlexResource,
    RequestShape,
    ResourceKind,
    SetpointAction,
    Window,
)
from plexisim.clock import STEP_MS, SimClock
from plexisim.errors import EnrollmentRejected
from plexisim.market import Bid
from plexisim.workflow import Actor, ActorRole, Topic, WorkflowState


def round_rng(name: str, seed: int, r: int) -> random.Random:
    # String seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}:{r}")


@dataclass
class Item:
    """One operation's generated input; ``weight`` is how many ops it counts as."""

    spec: Any
    weight: int = 1


@dataclass
class Round:
    index: int
    state: Any
    items: list
    digest_parts: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)   # rejects, flags, ...


@dataclass
class Audit:
    """Outcome of the end-of-round audit and ledger counts read from outside."""

    digest: str
    errors: list
    txs: int = 0
    blocks: int = 0
    seconds: dict = field(default_factory=dict)   # save/read/replay/eq -> s
    chain_bytes: int = 0
    sim_commit_wait_ms: float = 0.0
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Chain audit shared by the workloads that hold a ledger
# ---------------------------------------------------------------------------

AUDIT_REPEATS = 3


def audit_chain(ledger: ledger_mod.LedgerSim, workdir: str) -> tuple[dict, int, list]:
    """save_chain + read_chain + replay_chain + state equality, each timed.

    Returns (seconds per step, chain file bytes, errors).
    """
    path = os.path.join(workdir, f"chain-{os.getpid()}.jsonl")
    try:
        t0 = time.perf_counter()
        ledger.save_chain(path)
        t1 = time.perf_counter()
        chain = ledger_mod.read_chain(path)
        t2 = time.perf_counter()
        state = ledger_mod.replay_chain(chain)
        t3 = time.perf_counter()
        same = state == ledger.state
        t4 = time.perf_counter()
        size = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    errors = []
    if not same:
        errors.append("replayed state differs from the live state")
    if [b.block_hash for b in chain] != [b.block_hash for b in ledger.chain]:
        errors.append("chain read back differs from the live chain")
    seconds = {"save": t1 - t0, "read": t2 - t1, "replay": t3 - t2, "eq": t4 - t3}
    return seconds, size, errors


def ledger_counts(ledger: ledger_mod.LedgerSim) -> tuple[int, int, float]:
    """(blocks, transactions, median simulated receipt wait in ms)."""
    waits = [
        ledger.receipt_for(tx.tx_id).latency_ms
        for block in ledger.chain
        for tx in block.tx_list
    ]
    return ledger.height, len(waits), (statistics.median(waits) if waits else 0.0)


def chain_audit(ledger, workdir: str, digest: str) -> Audit:
    """Audit ``AUDIT_REPEATS`` times and keep the fastest, so a collector pause
    or a burst of host contention inside one audit does not set the figure."""
    blocks, txs, wait = ledger_counts(ledger)
    runs = [audit_chain(ledger, workdir) for _ in range(AUDIT_REPEATS)]
    seconds, size, _ = min(runs, key=lambda run: sum(run[0].values()))
    errors = sorted({e for run in runs for e in run[2]})
    return Audit(digest=digest, errors=errors, txs=txs, blocks=blocks, seconds=seconds,
                 chain_bytes=size, sim_commit_wait_ms=wait)


def new_ledger(seed: int):
    clock = SimClock()
    anchor = identity.setup(128, seed=seed)
    led = ledger_mod.LedgerSim(clock, anchor_pk=identity.anchor_public_key(anchor))
    return clock, anchor, led


# Devices of the community registry that telemetry-audit and simnet-sweep set
# up: enough transactions that their chain audit is not one file open.
COMMUNITY_DEVICES = 500


def enroll_community(anchor, led, rng: random.Random) -> None:
    for i in range(COMMUNITY_DEVICES):
        dev = identity.make_device(f"community-{i:03d}", seed=rng.getrandbits(31))
        identity.enroll(dev, f"owner-{i:03d}", anchor, led)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# onboard-audit
# ---------------------------------------------------------------------------

REJECTED = "rejected"


class OnboardAudit:
    """Enroll a device, sign one message, verify it live; some re-enroll."""

    name = "onboard-audit"
    round_ops = 1000
    duplicate_share = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def new_round(self, r: int) -> Round:
        rng = round_rng(self.name, self.seed, r)
        clock, anchor, led = new_ledger(rng.getrandbits(31))
        n_dup = int(self.round_ops * self.duplicate_share)
        dup_at = set(rng.sample(range(1, self.round_ops), n_dup))
        items, fresh = [], []
        for i in range(self.round_ops):
            if i in dup_at:
                device, owner = items[rng.choice(fresh)].spec[:2]
                items.append(Item((device, owner, b"", True)))
                continue
            device = identity.make_device(f"r{r}-dev-{i:05d}", seed=rng.getrandbits(31))
            msg = rng.randbytes(rng.randint(16, 96))
            fresh.append(i)
            items.append(Item((device, f"owner-{i % 97:02d}", msg, False)))
        return Round(r, (clock, anchor, led), items)

    def run_op(self, rnd: Round, item: Item):
        clock, anchor, led = rnd.state
        device, owner, msg, _ = item.spec
        try:
            key, token_id = identity.enroll(device, owner, anchor, led)
        except EnrollmentRejected:
            rnd.counts["EnrollmentRejected"] += 1
            return REJECTED
        env = identity.sign(msg, key, clock.now())
        return token_id, identity.verify(env, led, anchor, device.responder())

    def check(self, rnd: Round, item: Item, out) -> list:
        return check_onboard(rnd.state[2], item.spec, out)

    def finish_round(self, rnd: Round) -> Audit:
        led = rnd.state[2]
        digest = led.chain[-1].block_hash if led.chain else ""
        return chain_audit(led, self.workdir, digest)


def check_onboard(led, spec, out) -> list:
    device, owner, _, duplicate = spec
    if duplicate:
        return [] if out == REJECTED else [f"duplicate {device.hardware_label} not rejected"]
    if out == REJECTED:
        return [f"fresh device {device.hardware_label} rejected"]
    token_id, status = out
    token = led.query(token_id) if token_id else None
    errors = []
    if token is None or token.owner_id != owner:
        errors.append(f"enrollment of {device.hardware_label} returned no live token")
    if status is not identity.VerifyStatus.ACCEPT:
        errors.append(f"verify of {device.hardware_label} gave {status}")
    return errors


# ---------------------------------------------------------------------------
# trade-rounds
# ---------------------------------------------------------------------------

PRICES = (2.0, 2.5, 3.0, 3.5)
CAPACITIES = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
OFFER_SHARES = (0.5, 0.75, 1.0)
KINDS = (ResourceKind.DG, ResourceKind.ESS, ResourceKind.HVAC)
N_PROSUMERS = 10
N_RESOURCES = 40


@dataclass(frozen=True)
class TradeSpec:
    request: FlexRequest
    bids: tuple
    mix: str            # small | hard | greedy | unsat


def make_resource(i: int, rng: random.Random) -> FlexResource:
    kind = KINDS[i % len(KINDS)]
    cap = rng.choice(CAPACITIES)
    # HVAC runs at capacity, so switching it off sheds exactly its capacity:
    # every resource then delivers its capacity and a cleared cover is
    # always schedulable.
    baseline = (SetpointAction(ActionType.ON, cap) if kind is ResourceKind.HVAC
                else SetpointAction(ActionType.IDLE, 0.0))
    return FlexResource(f"res-{i:02d}", kind, True, cap, baseline,
                        f"prosumer-{i % N_PROSUMERS:02d}")


class TradeRounds:
    """Drive one flex request from Created to Fulfilled through DfAggregator."""

    name = "trade-rounds"
    # Bid counts of one round's requests, fixed so that rounds differ only in
    # seeded prices, offers and order. "hard" is the exact solver's costly
    # region (quantity near half the offered kW), "greedy" takes the path
    # above market.EXACT_LIMIT, "unsat" asks for more than is offered.
    # "hard" stops at 18 bids: one 19- or 20-bid instance costs 90-140 ms
    # and varies 0.5-0.7 of that by seed, so the few that fit in a run would
    # set its throughput.
    mix = {
        "small": [n for n in range(2, 9) for _ in range(10)],
        "hard": [n for n in range(13, 19) for _ in range(3)],
        "greedy": list(range(21, 31)),
        "unsat": [*range(2, 9), 5],
    }
    quantity_share = {"small": (0.3, 0.8), "hard": (0.45, 0.55), "greedy": (0.3, 0.6),
                      "unsat": (1.1, 1.5)}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def new_round(self, r: int) -> Round:
        rng = round_rng(self.name, self.seed, r)
        clock, anchor, led, engine, agg = cli.build_stack(rng.getrandbits(31))
        resources = [make_resource(i, rng) for i in range(N_RESOURCES)]

        def enroll_actor(actor_id: str, role: ActorRole, topic: Topic) -> None:
            dev = identity.make_device(actor_id, seed=rng.getrandbits(31))
            _, token = identity.enroll(dev, owner_id=actor_id, anchor=anchor, registry=led)
            engine.register_actor(Actor(actor_id, role, {topic}, token))

        enroll_actor("dso-1", ActorRole.DSO_TSO, Topic.DF_FULFILLED)
        for p in range(N_PROSUMERS):
            enroll_actor(f"prosumer-{p:02d}", ActorRole.PROSUMER, Topic.FLEX_BID_REQUEST)
        for res in resources:
            enroll_actor(f"meter:{res.resource_id}", ActorRole.RESOURCE, Topic.DF_SCHEDULING)
            agg.register_resource(res)

        plan = [(kind, n) for kind, counts in self.mix.items() for n in counts]
        rng.shuffle(plan)
        items = [Item(self._request(f"r{r}-q{j:03d}", kind, n, resources, rng))
                 for j, (kind, n) in enumerate(plan)]
        return Round(r, (clock, led, engine, agg), items)

    def _request(self, req_id: str, mix: str, n_bids: int, resources: list,
                 rng: random.Random) -> TradeSpec:
        bids = tuple(
            Bid(f"{req_id}-b{k:02d}", res.owner,
                res.capacity_kw * rng.choice(OFFER_SHARES), rng.choice(PRICES),
                (res.resource_id,))
            for k, res in enumerate(rng.sample(resources, n_bids))
        )
        offered = sum(b.offered_kw for b in bids)
        quantity = round(offered * rng.uniform(*self.quantity_share[mix]), 2)
        # Window start is filled in when the request runs (it follows the clock).
        request = FlexRequest(req_id, Window(0, 1), RequestShape.SHED, quantity,
                              Direction.INCREASE_SUPPLY, 4.0, "dso-1")
        return TradeSpec(request, bids, mix)

    def run_op(self, rnd: Round, item: Item):
        clock, _, _, agg = rnd.state
        spec = item.spec
        # Two steps ahead, so bidding (0.5 s of simulated time per ledger
        # record) always ends before the window opens.
        start = clock.now() // STEP_MS + 2
        req = FlexRequest(spec.request.request_id, Window(start, 1), spec.request.shape,
                          spec.request.quantity_kw, spec.request.direction,
                          spec.request.incentive_per_kw, spec.request.issuer)
        schedule = agg.run_request(req, spec.bids)
        if schedule is None:
            return None, agg.workflow_state(req.request_id), {}, {}
        clock.advance_to(req.window.start_ms)
        agg.tick()
        applied = {rid: agg.current_setpoint(rid) for rid in schedule.assignment}
        clock.advance_to(req.window.end_ms)
        agg.activation_and_settlement(req.request_id)
        restored = {rid: agg.current_setpoint(rid) for rid in schedule.assignment}
        return schedule, agg.workflow_state(req.request_id), applied, restored

    def check(self, rnd: Round, item: Item, out) -> list:
        return check_trade(rnd.state[3].resources, item.spec, out)

    def finish_round(self, rnd: Round) -> Audit:
        _, led, engine, _ = rnd.state
        audit = chain_audit(led, self.workdir, led.chain[-1].block_hash)
        audit.extra["notifications"] = sum(len(a.inbox) for a in engine.actors.values())
        return audit


def check_trade(resources: dict, spec: TradeSpec, out) -> list:
    schedule, state, applied, restored = out
    rid = spec.request.request_id
    if spec.mix == "unsat":
        errors = [] if schedule is None else [f"{rid}: uncoverable request scheduled"]
        if state is not WorkflowState.BIDDING:
            errors.append(f"{rid}: uncoverable request left Bidding ({state.name})")
        return errors
    if schedule is None:
        return [f"{rid}: coverable request not scheduled"]
    errors = []
    if state is not WorkflowState.FULFILLED:
        errors.append(f"{rid}: ended in {state.name}, not FULFILLED")
    quantity = spec.request.quantity_kw
    offered = {b.bid_id: b for b in spec.bids}
    selected = schedule.selected_bids
    if any(offered.get(b.bid_id) != b for b in selected):
        errors.append(f"{rid}: cleared a bid that was not submitted")
    if sum(b.offered_kw for b in selected) < quantity - 1e-9:
        errors.append(f"{rid}: cleared cover below the quantity")
    if schedule.delivered_total(resources) < quantity - 1e-9:
        errors.append(f"{rid}: scheduled delivery below the quantity")
    if applied != schedule.assignment:
        errors.append(f"{rid}: setpoints not applied inside the window")
    if any(restored[r] != resources[r].baseline_setpoint for r in schedule.assignment):
        errors.append(f"{rid}: baselines not restored after settlement")
    return errors


# ---------------------------------------------------------------------------
# telemetry-audit
# ---------------------------------------------------------------------------

SAMPLES = telemetry.SAMPLES_PER_DAY
FRACTIONS = (0.5, 1.0, 2.0, 5.0, 10.0)


class TelemetryAudit:
    """Sign a site-day, maybe attack it, estimate before/after, detect."""

    name = "telemetry-audit"
    round_ops = 60          # site-days per round
    # Under half, so the median day is a clean one rather than the boundary
    # between clean and attacked days.
    attacked_share = 0.25

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        rng = round_rng(self.name, seed, -1)
        self.clock, anchor, self.ledger = new_ledger(rng.getrandbits(31))
        meter = identity.make_device("site-meter", seed=rng.getrandbits(31))
        self.key, _ = identity.enroll(meter, owner_id="site", anchor=anchor,
                                      registry=self.ledger)
        enroll_community(anchor, self.ledger, rng)

    def new_round(self, r: int) -> Round:
        rng = round_rng(self.name, self.seed, r)
        start = datetime(2021, 1, 1) + timedelta(days=rng.randrange(365))
        series = telemetry.generate_synthetic(self.round_ops, seed=rng.getrandbits(31),
                                              start=start)
        attacked = set(rng.sample(range(self.round_ops),
                                  int(self.round_ops * self.attacked_share)))
        items = []
        for d in range(self.round_ops):
            day = series[d * SAMPLES:(d + 1) * SAMPLES]
            profile = None
            if d in attacked:
                kind = rng.choice((telemetry.AttackKind.FDI, telemetry.AttackKind.MADIOT))
                target = "net_kw" if kind is telemetry.AttackKind.FDI else "tamb_c"
                lo = rng.randrange(SAMPLES)
                hi = rng.randint(lo + 1, SAMPLES)
                profile = telemetry.AttackProfile(kind, target, rng.choice(FRACTIONS),
                                                  (lo, hi))
            items.append(Item((day, profile, r * self.round_ops + d)))
        return Round(r, None, items)

    def run_op(self, rnd: Round, item: Item):
        day, profile, sim_time = item.spec
        envelopes = telemetry.sign_stream(day, self.key, sim_time)
        stored = day if profile is None else telemetry.apply_profile(day, profile)
        before = telemetry.estimate_flexibility(day)
        after = telemetry.estimate_flexibility(stored)
        flagged = telemetry.detect_tamper(stored, envelopes, self.ledger)
        return stored, before, after, flagged, envelopes[-1].signature

    def check(self, rnd: Round, item: Item, out) -> list:
        rnd.digest_parts.append((out[4].hex(), out[3], sum(out[2])))
        rnd.counts["flagged"] += len(out[3])
        return check_telemetry(item.spec, out[:4])

    def finish_round(self, rnd: Round) -> Audit:
        digest = sha(json.dumps(rnd.digest_parts))
        return chain_audit(self.ledger, self.workdir, digest)


def check_telemetry(spec, out) -> list:
    day, profile, sim_time = spec
    stored, before, after, flagged = out
    mutated = [i for i, (a, b) in enumerate(zip(day, stored)) if a != b]
    if flagged != mutated:
        return [f"day {sim_time}: flagged {len(flagged)} samples, mutated {len(mutated)}"]
    if profile is None:
        if mutated or after != before:
            return [f"day {sim_time}: clean day changed"]
        return []
    if not mutated:
        return [f"day {sim_time}: attack mutated nothing"]
    # Inflated net power raises the headroom estimate, inflated ambient
    # temperature lowers it. The estimate is floored at 0, so a mutated
    # sample must move strictly only where its clean estimate is above 0.
    sign = 1 if profile.kind is telemetry.AttackKind.FDI else -1
    moved = all(sign * (a - b) >= 0 for a, b in zip(after, before)) and all(
        sign * (after[i] - before[i]) > 0 for i in mutated if before[i] > 0)
    return [] if moved else [f"day {sim_time}: {profile.kind.value} moved the estimate the wrong way"]


# ---------------------------------------------------------------------------
# simnet-sweep
# ---------------------------------------------------------------------------

BASE_RATES = (40, 60, 80, 95, 105, 115, 125, 135, 150, 165, 180, 200, 225, 250, 270)
SWEEP_SECONDS = 15.0
CERT_BAND = (110.0, 130.0)
NFT_MIN = 170.0


class SimnetSweep:
    """Both credential modes over a seeded rate list; one op = one simulated tx.

    Each sweep point is its own ``run_benchmark`` call, so its host time is
    known. Set-up also enrolls the device population that simnet's storage
    model counts (``n_devices``), so the audit covers a real registry.
    """

    name = "simnet-sweep"
    n_devices = COMMUNITY_DEVICES

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.models = {"nft": simnet.CredentialModel.nft_default(),
                       "certificate": simnet.CredentialModel.certificate_default()}
        rng = round_rng(self.name, seed, -1)
        _, anchor, self.ledger = new_ledger(rng.getrandbits(31))
        enroll_community(anchor, self.ledger, rng)

    def new_round(self, r: int) -> Round:
        rng = round_rng(self.name, self.seed, r)
        rates = [rate + rng.randint(-4, 4) for rate in BASE_RATES]
        sim_seed = rng.getrandbits(31)
        items = [Item((mode, float(rate), sim_seed), int(rate * SWEEP_SECONDS))
                 for mode in self.models for rate in rates]
        return Round(r, {}, items)

    def run_op(self, rnd: Round, item: Item):
        mode, rate, sim_seed = item.spec
        (metrics,) = simnet.run_benchmark([rate], self.models[mode],
                                          duration_s=SWEEP_SECONDS, seed=sim_seed,
                                          n_devices=self.n_devices)
        return metrics

    def check(self, rnd: Round, item: Item, out) -> list:
        rnd.state.setdefault(item.spec[0], []).append(out)
        return check_sweep_point(item.spec, out)

    def finish_round(self, rnd: Round) -> Audit:
        rows = {mode: [m.to_row() for m in ms] for mode, ms in rnd.state.items()}
        audit = chain_audit(self.ledger, self.workdir,
                            sha(json.dumps(rows, sort_keys=True)))
        saturation = {mode: simnet.saturation_point(ms) for mode, ms in rnd.state.items()}
        audit.errors += check_saturation(saturation)
        audit.extra["saturation_tps"] = saturation
        return audit


def check_sweep_point(spec, metrics) -> list:
    mode, rate, _ = spec
    achieved = metrics.achieved_throughput_tps
    if achieved <= 0:
        return [f"{mode} at {rate} tps: no throughput"]
    # Below the certificate band both credential modes keep up with the load.
    if rate < CERT_BAND[0] and (metrics.failed_tx_count or abs(achieved - rate) > 0.05 * rate):
        return [f"{mode} at {rate} tps: {metrics.failed_tx_count} failed, "
                f"{achieved:.1f} tps achieved below saturation"]
    return []


def check_saturation(saturation: dict) -> list:
    errors = []
    cert, nft = saturation.get("certificate"), saturation.get("nft")
    if cert is None or not CERT_BAND[0] <= cert <= CERT_BAND[1]:
        errors.append(f"certificate saturation {cert} outside {list(CERT_BAND)}")
    if nft is None or nft < NFT_MIN:
        errors.append(f"token saturation {nft} below {NFT_MIN}")
    return errors


WORKLOADS = {w.name: w for w in (OnboardAudit, TradeRounds, TelemetryAudit, SimnetSweep)}
