"""Desk-scale simulator of a token-identity flexibility-aggregator stack.

Modules:
    identity    certificate-less device identity (tokens, signing, verify)
    ledger      endorse/order/commit pipeline with deterministic replay
    csp         constraint model and backtracking solver
    market      whole-bid market clearing (one bounded branch-and-bound;
                MarketResult.exact is False if its node budget ran out)
    aggregator  flexibility engine: requests, bids, scheduling, restoration
    workflow    event-driven workflow state machine with pub/sub
    telemetry   dataset ingestion, attack injection, tamper detection
    simnet      one-pass queueing benchmark harness (throughput/latency/footprint)
    cli         reproducible command-line scenarios
"""

from .clock import STEP_MS, SimClock
from .identity import (
    AnchorKeys,
    NftToken,
    PufDevice,
    SignedEnvelope,
    SigningKey,
    VerifyStatus,
    derive_challenge,
    enroll,
    make_device,
    puf_respond,
    setup,
    sign,
    verify,
)
from .ledger import Block, CommitReceipt, LedgerSim, RegistryState, Transaction, replay_chain
from .csp import Constraint, CspInstance, check_assignment, solve_csp
from .market import Bid, MarketResult, clear_market
from .aggregator import (
    ActionType,
    DfAggregator,
    Direction,
    FlexRequest,
    FlexResource,
    RequestShape,
    ResourceKind,
    Schedule,
    SetpointAction,
    Window,
    build_csp,
    delivered_kw,
)
from .workflow import (
    Actor,
    ActorRole,
    Event,
    EventKind,
    Notification,
    Topic,
    Workflow,
    WorkflowEngine,
    WorkflowState,
)
from .telemetry import (
    AttackKind,
    AttackProfile,
    EstimatorConfig,
    TelemetrySample,
    apply_profile,
    detect_tamper,
    estimate_flexibility,
    fdi_inject,
    generate_synthetic,
    load_dataset,
    madiot_gain,
    madiot_inject,
    sign_stream,
)
from .simnet import (
    CredentialModel,
    LoadScenario,
    Metrics,
    NodeSpec,
    Topology,
    default_topology,
    memory_footprint,
    run_benchmark,
    run_sim,
    saturation_point,
    topology_from_dict,
)

__version__ = "0.1.0"
