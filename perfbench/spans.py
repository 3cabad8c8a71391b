"""Span tracer that wraps plexisim's public functions from outside the package.

Each wrapper is installed where callers look the name up: ``aggregator``
binds ``market.clear_market`` as ``_clear`` and imports ``solve_csp`` and
``check_assignment`` by name, ``ledger`` imports ``sign``,
``sign_as_anchor`` and ``signature_valid`` from ``identity``, and
``telemetry`` calls ``identity.sign`` through the module. Methods are
patched on their class. ``uninstall`` puts every original back.

A span is ``(span_id, parent_id, name, start_ns, end_ns, op_id, meta, error)``.
Spans are recorded only inside an operation (``begin_op``/``end_op``) and
kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Optional

from plexisim import aggregator, identity, ledger, simnet, telemetry, workflow

OP = "bench.op"


def _bids(args, kwargs, result):
    # (bids offered, 1 when the request could not be covered)
    return [len(args[0]), int(result is None)]


def _sim(args, kwargs, result):
    # (simulated transactions submitted, trace events emitted)
    return [len(args[1].submissions), len(result[0])]


def patch_table() -> list:
    """(owner, attribute, span name, meta function) for every wrapped call."""
    agg_methods = ["run_request", "create_flex_request", "submit_bid", "clear",
                   "build_instance", "schedule_dr", "activation_and_settlement", "tick"]
    return [
        (identity, "enroll", "identity.enroll", None),
        (identity, "verify", "identity.verify", None),
        (identity, "derive_keypair", "identity.derive_keypair", None),
        (identity, "sign", "identity.sign", None),
        (identity, "sign_as_anchor", "identity.sign", None),
        (identity, "signature_valid", "identity.signature_valid", None),
        (ledger, "sign", "identity.sign", None),
        (ledger, "sign_as_anchor", "identity.sign", None),
        (ledger, "signature_valid", "identity.signature_valid", None),
        (ledger.LedgerSim, "submit", "ledger.submit", None),
        (ledger.LedgerSim, "query", "ledger.query", None),
        (ledger.LedgerSim, "create_nft", "ledger.create_nft", None),
        (ledger.LedgerSim, "record_event", "ledger.record_event", None),
        (aggregator, "_clear", "market.clear", _bids),
        (aggregator, "solve_csp", "csp.solve", None),
        (aggregator, "check_assignment", "csp.check_assignment", None),
        (aggregator, "build_csp", "aggregator.build_csp", None),
        *[(aggregator.DfAggregator, m, f"aggregator.{m}", None) for m in agg_methods],
        (workflow.WorkflowEngine, "advance", "workflow.advance", None),
        (workflow.WorkflowEngine, "publish", "workflow.publish", None),
        (workflow.WorkflowEngine, "create_workflow", "workflow.create_workflow", None),
        (telemetry, "sign_stream", "telemetry.sign_stream", None),
        (telemetry, "detect_tamper", "telemetry.detect_tamper", None),
        (telemetry, "apply_profile", "telemetry.apply_profile", None),
        (telemetry, "estimate_flexibility", "telemetry.estimate", None),
        (simnet, "run_benchmark", "simnet.run_benchmark", None),
        (simnet, "run_sim", "simnet.run_sim", _sim),
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._next_id = 1
        self._op: Optional[int] = None
        self._patched: list = []      # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, meta in patch_table():
            original = getattr(owner, attr)
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(original, name, meta))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patched)

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open()

    def end_op(self) -> None:
        self._close(self._stack[-1], OP, None, None)
        self._op = None

    def _open(self) -> tuple:
        frame = (self._next_id, self._stack[-1][0] if self._stack else 0,
                 time.perf_counter_ns())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: tuple, name: str, meta, error: Optional[str]) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, parent, start = frame
        self.spans.append((sid, parent, name, start, end, self._op, meta, error))

    def _wrap(self, fn: Callable, name: str, meta: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, name, None, type(exc).__name__)
                raise
            tracer._close(frame, name, meta(args, kwargs, result) if meta else None, None)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(spans: list) -> dict:
    """span_id -> duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, *_ in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered, cursor = 0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Per-name calls, self ns, errors and meta values; per-layer self ns."""
    selfs = self_times(spans)
    by_name: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "errors": defaultdict(int),
                                         "meta": []})
    by_layer: dict = defaultdict(int)
    op_ns = 0
    for span in spans:
        sid, _, name, start, end, _, meta, error = span
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_ns"] += selfs[sid]
        if error:
            entry["errors"][error] += 1
        if meta is not None:
            entry["meta"].append((meta, selfs[sid]))
        by_layer[layer_of(name)] += selfs[sid]
        if name == OP:
            op_ns += end - start
    return {"names": by_name, "layers": dict(by_layer), "op_ns": op_ns}
