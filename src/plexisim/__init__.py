"""Desk-scale simulator of a token-identity flexibility-aggregator stack.

The package re-exports nothing: import each name from the module that defines it.

Modules:
    clock       discrete simulation clock shared by every layer
    errors      exception types shared across the simulator
    jsonread    canonical JSON and typed readers for JSON input
    identity    certificate-less device identity (tokens, signing, verify)
    ledger      endorse/order/commit pipeline with deterministic replay
    csp         constraint model and backtracking solver
    market      whole-bid market clearing (one bounded branch-and-bound)
    aggregator  flexibility engine: requests, bids, scheduling, restoration
    workflow    event-driven workflow state machine with pub/sub
    telemetry   dataset ingestion, attack injection, tamper detection
    simnet      one-pass queueing benchmark harness (throughput/latency/footprint)
    cli         reproducible command-line scenarios
"""
