"""Command-line entry point: enroll, trade, attack, and bench scenarios.

Every command is deterministic under a fixed --seed and writes plain
CSV/JSON artifacts into --out. Exit codes: 0 success, 1 error, 2 domain
infeasibility (for example an uncoverable flexibility request).

Set PLEXISIM_LOG to a level name (DEBUG, INFO, ...) to adjust logging.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import identity, jsonread as jr, simnet, telemetry
from .aggregator import (
    ActionType,
    DfAggregator,
    Direction,
    FlexRequest,
    FlexResource,
    RequestShape,
    ResourceKind,
    SetpointAction,
    Window,
)
from .clock import SimClock
from .errors import ConfigurationError, EnrollmentRejected, SimError, ValidationError
from .ledger import LedgerSim
from .market import Bid
from .workflow import Actor, ActorRole, Topic, WorkflowEngine

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSAT = 2


def _setup_logging() -> None:
    level = os.environ.get("PLEXISIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _read_config(path: str):
    """The JSON value in the file at ``path``; ConfigurationError otherwise."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # A value nested past the recursion limit stops the decoder.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_pretty_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _new_ledger(seed: int) -> tuple:
    """A fresh clock, the anchor for ``seed``, and an empty ledger trusting it."""
    clock = SimClock()
    anchor = identity.setup(128, seed=seed)
    return clock, anchor, LedgerSim(clock, anchor_pk=identity.anchor_public_key(anchor))


# ---------------------------------------------------------------------------
# enroll
# ---------------------------------------------------------------------------

def cmd_enroll(args) -> int:
    if args.n < 0:
        raise ValidationError(f"--n must be non-negative, got {args.n}")
    _, anchor, ledger = _new_ledger(args.seed)
    registry_path = Path(args.registry) if args.registry else Path(args.out) / "ledger.chain"
    if registry_path.exists():
        ledger.load_chain(registry_path)

    records = []
    duplicates = []
    for i in range(args.n):
        device = identity.make_device(f"dev-{i:04d}", seed=args.seed * 1_000_003 + i)
        try:
            _, token_id = identity.enroll(device, owner_id=f"owner-{i:04d}",
                                          anchor=anchor, registry=ledger)
            records.append(ledger.query(token_id).to_record())
        except EnrollmentRejected:
            duplicates.append(device.hardware_label)

    # The chain is saved first, and --out made before it only when the
    # registry is a file in it, so a registry that cannot be written leaves
    # no --out artifact.
    if registry_path.resolve().parent == Path(args.out).resolve():
        _out_dir(args.out)
    ledger.save_chain(registry_path)
    with open(_out_dir(args.out) / "enrollments.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(jr.canonical_json(rec) + "\n")

    print(f"enrolled {len(records)} devices, {len(duplicates)} duplicates")
    if duplicates:
        for label in duplicates:
            print(f"duplicate enrollment rejected: {label}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# trade
# ---------------------------------------------------------------------------

def demo_scenario() -> dict:
    """Grid-islanding demo: one DG, one HVAC, one ESS behind three bids."""
    return {
        "resources": [
            {"resource_id": "dg-1", "kind": "DG", "controllable": True,
             "capacity_kw": 5.0, "baseline": {"action": "IDLE", "level_kw": 0.0},
             "owner": "prosumer-a"},
            {"resource_id": "hvac-1", "kind": "HVAC", "controllable": True,
             "capacity_kw": 4.0, "baseline": {"action": "ON", "level_kw": 3.0},
             "owner": "prosumer-a"},
            {"resource_id": "ess-1", "kind": "ESS", "controllable": True,
             "capacity_kw": 5.0, "baseline": {"action": "IDLE", "level_kw": 0.0},
             "owner": "prosumer-b"},
            {"resource_id": "ess-2", "kind": "ESS", "controllable": True,
             "capacity_kw": 10.0, "baseline": {"action": "IDLE", "level_kw": 0.0},
             "owner": "prosumer-c"},
        ],
        "requests": [
            {"request_id": "req-1", "window": {"start": 1, "duration": 1},
             "shape": "shed", "quantity_kw": 10.0, "direction": "increase_supply",
             "incentive_per_kw": 4.0, "issuer": "dso-1"},
        ],
        "bids": [
            {"bid_id": "A", "prosumer": "prosumer-a", "offered_kw": 6.0,
             "price_per_kw": 3.0, "resource_ids": ["dg-1", "hvac-1"],
             "request_id": "req-1"},
            {"bid_id": "B", "prosumer": "prosumer-b", "offered_kw": 5.0,
             "price_per_kw": 2.0, "resource_ids": ["ess-1"], "request_id": "req-1"},
            {"bid_id": "C", "prosumer": "prosumer-c", "offered_kw": 10.0,
             "price_per_kw": 6.0, "resource_ids": ["ess-2"], "request_id": "req-1"},
        ],
    }


# The keys of each scenario object; every other key is an error.
_SCENARIO = frozenset({"resources", "requests", "bids"})
_RESOURCE = frozenset({"resource_id", "kind", "controllable", "capacity_kw", "baseline",
                       "owner"})
_BASELINE = frozenset({"action", "level_kw"})
_REQUEST = frozenset({"request_id", "window", "shape", "quantity_kw", "direction",
                      "incentive_per_kw", "issuer"})
_WINDOW = frozenset({"start", "duration"})
_BID = frozenset({"bid_id", "prosumer", "offered_kw", "price_per_kw", "resource_ids"})
_BID_OPTIONAL = frozenset({"request_id"})


def _resource(r: dict) -> FlexResource:
    jr.obj(r, _RESOURCE)
    baseline = jr.obj(r["baseline"], _BASELINE)
    return FlexResource(
        resource_id=jr.of(str, r["resource_id"]),
        kind=ResourceKind(jr.of(str, r["kind"])),
        controllable=jr.of(bool, r["controllable"]),
        capacity_kw=jr.number(r["capacity_kw"]),
        baseline_setpoint=SetpointAction(ActionType(jr.of(str, baseline["action"])),
                                         jr.number(baseline["level_kw"])),
        owner=jr.of(str, r["owner"]),
    )


def _request(q: dict) -> FlexRequest:
    jr.obj(q, _REQUEST)
    window = jr.obj(q["window"], _WINDOW)
    return FlexRequest(
        request_id=jr.of(str, q["request_id"]),
        window=Window(jr.whole(window["start"]), jr.whole(window["duration"])),
        shape=RequestShape(jr.of(str, q["shape"])),
        quantity_kw=jr.number(q["quantity_kw"]),
        direction=Direction(jr.of(str, q["direction"])),
        incentive_per_kw=jr.number(q["incentive_per_kw"]),
        issuer=jr.of(str, q["issuer"]),
    )


def _bid(b: dict, default_request) -> tuple:
    jr.obj(b, _BID, _BID_OPTIONAL)
    bid = Bid(
        bid_id=jr.of(str, b["bid_id"]),
        prosumer_id=jr.of(str, b["prosumer"]),
        offered_kw=jr.number(b["offered_kw"]),
        price_per_kw=jr.number(b["price_per_kw"]),
        resource_ids=tuple(jr.of(str, r) for r in jr.of(list, b["resource_ids"])),
    )
    return bid, jr.of(str, b["request_id"]) if "request_id" in b else default_request


def parse_scenario(raw) -> tuple:
    """(resources, requests, bids); bids are (Bid, request_id) pairs. A bid
    without a ``request_id`` answers the first request. Raises ValidationError."""
    try:
        jr.obj(raw, _SCENARIO)
        resources = [_resource(r) for r in jr.of(list, raw["resources"])]
        requests = [_request(q) for q in jr.of(list, raw["requests"])]
        default_request = requests[0].request_id if requests else None
        bids = [_bid(b, default_request) for b in jr.of(list, raw["bids"])]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario: {exc}") from exc
    known = {req.request_id for req in requests}
    for bid, request_id in bids:
        if request_id not in known:
            raise ValidationError(f"bid {bid.bid_id} names unknown request {request_id!r}")
    return resources, requests, bids


def build_stack(seed: int) -> tuple:
    """Clock, ledger, workflow engine, and aggregator wired together."""
    clock, anchor, ledger = _new_ledger(seed)
    contract_device = identity.make_device("dfasc-contract", seed=seed ^ 0x5F5F)
    contract_key, contract_token = identity.enroll(
        contract_device, owner_id="dfasc", anchor=anchor, registry=ledger
    )
    engine = WorkflowEngine(ledger, clock, contract_key)
    engine.register_actor(
        Actor("dfasc", ActorRole.DFASC_CONTRACT, {Topic.BID_OFFER}, contract_token)
    )
    agg = DfAggregator(engine, clock)
    return clock, anchor, ledger, engine, agg


def cmd_trade(args) -> int:
    raw = _read_config(args.config) if args.config else demo_scenario()
    resources, requests, bids = parse_scenario(raw)

    clock, anchor, ledger, engine, agg = build_stack(args.seed)

    # Every human or device actor gets an enrolled identity token.
    def ensure_actor(actor_id: str, role: ActorRole, topics: set) -> None:
        if actor_id in engine.actors:
            for t in topics:
                engine.subscribe(actor_id, t)
            return
        stable = int.from_bytes(hashlib.sha256(actor_id.encode()).digest()[:8], "big")
        dev = identity.make_device(actor_id, seed=args.seed ^ stable)
        _, token = identity.enroll(dev, owner_id=actor_id, anchor=anchor, registry=ledger)
        engine.register_actor(Actor(actor_id, role, set(topics), token))

    for req in requests:
        ensure_actor(req.issuer, ActorRole.DSO_TSO, {Topic.DF_FULFILLED})
    for res in resources:
        ensure_actor(res.owner, ActorRole.PROSUMER, {Topic.FLEX_BID_REQUEST})
        ensure_actor(f"meter:{res.resource_id}", ActorRole.RESOURCE, {Topic.DF_SCHEDULING})
        agg.register_resource(res)

    schedules = []
    unsat = []
    for req in requests:
        schedule = agg.run_request(req, [bid for bid, rid in bids if rid == req.request_id])
        if schedule is None:
            unsat.append(req.request_id)
            continue
        clock.advance_to(max(clock.now(), req.window.end_ms))
        agg.activation_and_settlement(req.request_id)
        schedules.append(schedule.to_record())

    out = _out_dir(args.out)
    _write_pretty_json(out / "trace.json", engine.trace)
    _write_pretty_json(out / "schedules.json", schedules)
    ledger.save_chain(out / "ledger.chain")

    if ledger.replay() != ledger.state:
        print("ledger replay mismatch", file=sys.stderr)
        return EXIT_ERROR
    if unsat:
        print(f"unsat: insufficient flexibility for {', '.join(unsat)}")
        return EXIT_UNSAT
    states = {r["request_id"]: agg.workflow_state(r["request_id"]).name for r in schedules}
    print(f"fulfilled {len(schedules)} request(s): {states}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

_ATTACK_CONFIG = frozenset({"dataset"})


def cmd_attack(args) -> int:
    if args.config:
        cfg = _read_config(args.config)
        try:
            dataset = jr.of(str, jr.obj(cfg, _ATTACK_CONFIG)["dataset"])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed attack config {args.config}: {exc}") from exc
        series = telemetry.load_dataset(dataset)
    else:
        series = telemetry.generate_synthetic(args.synthetic, seed=args.seed)

    _, anchor, ledger = _new_ledger(args.seed)
    meter = identity.make_device("site-meter", seed=args.seed)
    key, _ = identity.enroll(meter, owner_id="site", anchor=anchor, registry=ledger)

    envelopes = telemetry.sign_stream(series, key)
    target = "net_kw" if args.attack == "fdi" else "tamb_c"
    profile = telemetry.AttackProfile(
        kind=telemetry.AttackKind(args.attack),
        target_field=target,
        magnitude=args.fraction,
    )
    attacked = telemetry.apply_profile(series, profile)

    df_original = telemetry.estimate_flexibility(series)
    df_attacked = telemetry.estimate_flexibility(attacked)
    flagged = set(telemetry.detect_tamper(attacked, envelopes, ledger, signer=key.token_id,
                                          start=series[0].time))
    deltas = telemetry.per_step_deltas(series, attacked, target)
    gain = telemetry.madiot_gain(deltas, len(deltas))

    out = _out_dir(args.out)
    if not args.config:
        telemetry.write_dataset(out / "dataset.csv", series)
    report = out / "attack_report.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["time", "original", "attacked", "df_original", "df_attacked", "flagged"])
        for i, (o, a) in enumerate(zip(series, attacked)):
            writer.writerow(
                [o.time.isoformat(), repr(getattr(o, target)), repr(getattr(a, target)),
                 repr(df_original[i]), repr(df_attacked[i]), int(i in flagged)]
            )
    print(
        f"{args.attack} at {args.fraction}% on {target}: {len(flagged)}/{len(series)} "
        f"samples flagged, cumulative gain {gain:.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _parse_rates(text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--rates must be comma-separated numbers: {exc}") from exc


# A bench config's keys, both optional.
_BENCH_CONFIG = frozenset({"topology", "credential_models"})


def cmd_bench(args) -> int:
    rates = _parse_rates(args.rates)
    modes = args.mode or ["nft", "certificate"]
    models = {
        "nft": simnet.CredentialModel.nft_default(),
        "certificate": simnet.CredentialModel.certificate_default(),
    }
    topology = None
    if args.config:
        cfg = _read_config(args.config)
        try:
            jr.obj(cfg, frozenset(), _BENCH_CONFIG)
            overrides = jr.obj(cfg.get("credential_models", {}), frozenset(), frozenset(models))
            # The key names the mode, so an override holds model fields only.
            for raw in overrides.values():
                jr.obj(raw, frozenset(), simnet.CREDENTIAL_FIELDS)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed bench config {args.config}: {exc}") from exc
        if "topology" in cfg:
            topology = simnet.topology_from_dict(cfg["topology"])
        for mode, raw in overrides.items():
            models[mode] = simnet.CredentialModel.from_dict(dict(raw, mode=mode))
    runs = {mode: simnet.run_benchmark(rates, models[mode], duration_s=args.duration,
                                       seed=args.seed, topology=topology)
            for mode in modes}
    out = _out_dir(args.out)
    summary = {"seed": args.seed, "modes": {}}
    for mode, metrics in runs.items():
        model = models[mode]
        rows = [m.to_row() for m in metrics]
        path = out / f"metrics_{mode}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv_mod.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        _write_pretty_json(out / f"metrics_{mode}.json", rows)
        summary["modes"][mode] = {
            "saturation_tps": round(simnet.saturation_point(metrics), 3),
            "storage_bytes_100_devices": simnet.memory_footprint(100, model),
        }
    nft_store = simnet.memory_footprint(100, models["nft"])
    cert_store = simnet.memory_footprint(100, models["certificate"])
    summary["footprint_ratio"] = round(nft_store / cert_store, 6)
    _write_pretty_json(out / "summary.json", summary)
    print(json.dumps(summary["modes"], sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plexisim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enroll = sub.add_parser("enroll", help="enroll simulated devices")
    p_enroll.add_argument("--n", type=int, default=10)
    p_enroll.add_argument("--seed", type=int, default=0)
    p_enroll.add_argument("--out", default="out")
    p_enroll.add_argument("--registry", default=None,
                          help="existing ledger block file to enroll against")
    p_enroll.set_defaults(func=cmd_enroll)

    p_trade = sub.add_parser("trade", help="run the 4-step trading workflow")
    p_trade.add_argument("--config", default=None, help="scenario JSON (default: demo)")
    p_trade.add_argument("--seed", type=int, default=0)
    p_trade.add_argument("--out", default="out")
    p_trade.set_defaults(func=cmd_trade)

    p_attack = sub.add_parser("attack", help="inject attacks over telemetry")
    p_attack.add_argument("--attack", choices=["fdi", "madiot"], default="fdi")
    p_attack.add_argument("--fraction", type=float, default=2.0)
    p_attack.add_argument("--synthetic", type=int, default=7,
                          help="days of synthetic telemetry when no --config")
    p_attack.add_argument("--config", default=None, help="JSON with a dataset path")
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", default="out")
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser("bench", help="throughput/latency/footprint benchmark")
    p_bench.add_argument("--rates", default="20,40,60,80,100,120,140,160,180,200")
    p_bench.add_argument("--mode", action="append", choices=["nft", "certificate"])
    p_bench.add_argument("--duration", type=float, default=60.0)
    p_bench.add_argument("--config", default=None,
                         help="JSON with topology and credential model overrides")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="out")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        if os.path.exists(args.out) and not os.path.isdir(args.out):  # before any work
            raise ConfigurationError(f"--out {args.out} exists and is not a directory")
        return args.func(args)
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
