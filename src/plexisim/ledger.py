"""Append-only simulated blockchain hosting the token registry contract.

One logical orderer imposes a total (sim_time, tx_id) order; endorsing peers
gate every transaction on envelope validity and contract preconditions
before it may be ordered. Committed blocks are hash-chained and the world
state is a pure fold over the chain, so replay reproduces the live state
exactly. Blocks persist as JSON lines with stable field order.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .clock import SimClock
from .errors import (
    AuthorizationError,
    DuplicateTransactionError,
    EnrollmentRejected,
    IntegrityViolationError,
    RejectedTransactionError,
    ValidationError,
)
from .identity import (
    ANCHOR_TOKEN_ID,
    AnchorKeys,
    NftToken,
    SignedEnvelope,
    SigningKey,
    TokenConstraints,
    compute_token_id,
    sign,
    sign_as_anchor,
    signature_valid,
)

GENESIS_PREV_HASH = "0" * 64

# Contract invocation kinds carried in transaction payloads.
OP_CREATE_NFT = "create_nft"
OP_SET_FLAG = "set_flag"
OP_RECORD_EVENT = "record_event"

FLAGS = ("revoked", "delegated", "transferred")

# Pipeline policy. simnet imports the batching constants to model the same
# block cuts.
QUORUM = 2
BLOCK_MAX_TXS = 10
BLOCK_INTERVAL_MS = 500
# Transactions from any other cluster commit as notarized.
HOME_CLUSTER = 0
PEER_SEED = b"plexisim-peers"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Peers, transactions, blocks
# ---------------------------------------------------------------------------

# (node_id, HMAC secret) of each endorsing peer.
ENDORSERS = tuple(
    (f"endorser-{i}", hashlib.sha256(PEER_SEED + f":endorser:{i}".encode()).digest())
    for i in range(QUORUM)
)


@dataclass
class Transaction:
    tx_id: str
    payload: dict
    envelope: SignedEnvelope
    sim_time_submitted: int
    cluster_id: int = 0
    endorsements: list = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "payload": self.payload,
            "envelope": self.envelope.to_record(),
            "endorsements": list(self.endorsements),
            "sim_time_submitted": self.sim_time_submitted,
            "cluster_id": self.cluster_id,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Transaction":
        return cls(
            tx_id=rec["tx_id"],
            payload=rec["payload"],
            envelope=SignedEnvelope.from_record(rec["envelope"]),
            sim_time_submitted=int(rec["sim_time_submitted"]),
            cluster_id=int(rec.get("cluster_id", 0)),
            endorsements=list(rec.get("endorsements", [])),
        )


def make_transaction(
    payload: dict,
    envelope: SignedEnvelope,
    sim_time: int,
    cluster_id: int = 0,
) -> Transaction:
    digest = hashlib.sha256(
        canonical_json(payload).encode("utf-8") + b"|" + envelope.canonical_bytes()
    ).hexdigest()
    return Transaction(
        tx_id=digest,
        payload=payload,
        envelope=envelope,
        sim_time_submitted=sim_time,
        cluster_id=cluster_id,
    )


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    tx_list: tuple
    block_hash: str
    sim_time_committed: int

    def to_record(self) -> dict:
        # Field order is fixed so block files diff and replay bit-exactly.
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "block_hash": self.block_hash,
            "sim_time_committed": self.sim_time_committed,
            "txs": [tx.to_record() for tx in self.tx_list],
        }


def compute_block_hash(height: int, prev_hash: str, txs: Iterable[Transaction]) -> str:
    body = f"{height}|{prev_hash}|" + ",".join(tx.tx_id for tx in txs)
    return hashlib.sha256(body.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CommitReceipt:
    tx_id: str
    block_height: int
    submitted_at: int
    committed_at: int
    notarized: bool = False

    @property
    def latency_ms(self) -> int:
        return self.committed_at - self.submitted_at


def _receipt(tx: Transaction, block: Block) -> CommitReceipt:
    return CommitReceipt(
        tx_id=tx.tx_id,
        block_height=block.height,
        submitted_at=tx.sim_time_submitted,
        committed_at=block.sim_time_committed,
        notarized=tx.cluster_id != HOME_CLUSTER,
    )


# ---------------------------------------------------------------------------
# World state
# ---------------------------------------------------------------------------

@dataclass
class RegistryState:
    """World state: tokens, the device index, and workflow event records."""

    tokens: dict = field(default_factory=dict)          # token_id -> NftToken
    device_index: dict = field(default_factory=dict)    # device_id hex -> token_id
    challenge_index: dict = field(default_factory=dict)  # device_id hex -> int
    delegates: dict = field(default_factory=dict)        # token_id -> actor id
    event_log: list = field(default_factory=list)

    def query(self, key: Union[str, bytes]) -> Optional[NftToken]:
        if isinstance(key, bytes):
            key = key.hex()
        if key in self.tokens:
            return self.tokens[key]
        token_id = self.device_index.get(key)
        if token_id is not None:
            return self.tokens.get(token_id)
        return None

    def challenge_index_for(self, device_id: Union[str, bytes]) -> int:
        if isinstance(device_id, bytes):
            device_id = device_id.hex()
        return self.challenge_index.get(device_id, 0)

    def actor_for_envelope(self, env: SignedEnvelope) -> Optional[str]:
        """Resolve the acting party behind an envelope via its token owner."""
        token = self.tokens.get(env.token_id)
        if token is None:
            return None
        return token.owner_id

    def apply(self, tx: Transaction) -> None:
        op = tx.payload.get("op")
        if op == OP_CREATE_NFT:
            self._apply_create(tx.payload)
        elif op == OP_SET_FLAG:
            self._apply_set_flag(tx.payload)
        elif op == OP_RECORD_EVENT:
            self.event_log.append(
                {
                    "workflow_id": tx.payload["workflow_id"],
                    "kind": tx.payload["kind"],
                    "payload": tx.payload.get("payload", {}),
                    "sim_time": tx.payload["sim_time"],
                }
            )
        else:
            raise IntegrityViolationError(f"unknown contract op {op!r}")

    def _apply_create(self, payload: dict) -> None:
        device_hex = payload["device_id"]
        if device_hex in self.device_index:
            raise IntegrityViolationError("duplicate device binding in chain")
        token = NftToken(
            token_id=payload["token_id"],
            token_name=payload["token_name"],
            device_id=bytes.fromhex(device_hex),
            public_key=bytes.fromhex(payload["public_key"]),
            owner_id=payload["owner_id"],
            constraints=TokenConstraints(),
            issue_time=int(payload["issue_time"]),
        )
        self.tokens[token.token_id] = token
        self.device_index[device_hex] = token.token_id
        self.challenge_index[device_hex] = int(payload.get("challenge_index", 0))

    def _apply_set_flag(self, payload: dict) -> None:
        token = self.tokens.get(payload["token_id"])
        if token is None:
            raise IntegrityViolationError("set_flag for unknown token in chain")
        flag = payload["flag"]
        cons = TokenConstraints(**token.constraints.as_dict())
        setattr(cons, flag, bool(payload.get("value", True)))
        owner = token.owner_id
        if flag == "delegated" and payload.get("delegate_id"):
            self.delegates[token.token_id] = payload["delegate_id"]
        if flag == "transferred" and payload.get("new_owner"):
            owner = payload["new_owner"]
        self.tokens[token.token_id] = NftToken(
            token_id=token.token_id,
            token_name=token.token_name,
            device_id=token.device_id,
            public_key=token.public_key,
            owner_id=owner,
            constraints=cons,
            issue_time=token.issue_time,
        )

    def authorized_actor(self, token_id: str) -> Optional[str]:
        """Who may mutate this token's flags: the delegate if set, else owner."""
        token = self.tokens.get(token_id)
        if token is None:
            return None
        if token.constraints.delegated and token_id in self.delegates:
            return self.delegates[token_id]
        return token.owner_id

    def canonical(self) -> str:
        return canonical_json(
            {
                "tokens": {tid: tok.to_record() for tid, tok in sorted(self.tokens.items())},
                "device_index": dict(sorted(self.device_index.items())),
                "challenge_index": dict(sorted(self.challenge_index.items())),
                "delegates": dict(sorted(self.delegates.items())),
                "event_log": self.event_log,
            }
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegistryState):
            return NotImplemented
        return self.canonical() == other.canonical()


# ---------------------------------------------------------------------------
# Ledger pipeline
# ---------------------------------------------------------------------------

class LedgerSim:
    """Single-orderer ledger with endorsement quorum and batched block cuts.

    Blocks are cut when ``BLOCK_MAX_TXS`` transactions are pending or when
    ``BLOCK_INTERVAL_MS`` of simulated time has elapsed since the first
    pending transaction, whichever comes first. ``submit`` is synchronous:
    if the count cut does not fire it advances the shared clock to the
    batching deadline so the receipt can be returned.
    """

    def __init__(self, clock: SimClock, anchor_pk: bytes):
        self.clock = clock
        self.anchor_pk = anchor_pk
        self.chain: list[Block] = []
        self.state = RegistryState()
        self._committed: dict[str, CommitReceipt] = {}
        self._pending: list[Transaction] = []
        self._pending_since: Optional[int] = None

    # -- queries ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain)

    def query(self, key: Union[str, bytes]) -> Optional[NftToken]:
        return self.state.query(key)

    def challenge_index_for(self, device_id: Union[str, bytes]) -> int:
        return self.state.challenge_index_for(device_id)

    def receipt_for(self, tx_id: str) -> Optional[CommitReceipt]:
        return self._committed.get(tx_id)

    # -- endorsement ------------------------------------------------------

    def _envelope_ok(self, env: SignedEnvelope) -> bool:
        if env.token_id == ANCHOR_TOKEN_ID:
            return signature_valid(self.anchor_pk, env.message, env.signature)
        token = self.state.tokens.get(env.token_id)
        if token is None or token.constraints.revoked:
            return False
        return signature_valid(token.public_key, env.message, env.signature)

    def _check_payload(self, tx: Transaction) -> None:
        payload = tx.payload
        op = payload.get("op")
        if op == OP_CREATE_NFT:
            if payload["device_id"] in self.state.device_index:
                raise EnrollmentRejected("device id already bound to a live token")
        elif op == OP_SET_FLAG:
            if payload.get("flag") not in FLAGS:
                raise ValidationError(f"unknown flag {payload.get('flag')!r}")
            token_id = payload["token_id"]
            allowed = self.state.authorized_actor(token_id)
            if allowed is None:
                raise ValidationError(f"no token {token_id}")
            actor = self.state.actor_for_envelope(tx.envelope)
            if actor != allowed:
                raise AuthorizationError(
                    f"actor {actor!r} may not mutate token owned via {allowed!r}"
                )
            # Bind the authorization to this exact mutation.
            if tx.envelope.message != canonical_json(payload).encode("utf-8"):
                raise AuthorizationError("envelope does not sign the set_flag payload")
        elif op == OP_RECORD_EVENT:
            pass
        else:
            raise ValidationError(f"unknown contract op {op!r}")

    def _endorse(self, tx: Transaction) -> None:
        if not self._envelope_ok(tx.envelope):
            raise RejectedTransactionError(f"envelope rejected for tx {tx.tx_id[:12]}")
        self._check_payload(tx)
        msg = tx.tx_id.encode("ascii")
        tx.endorsements = [
            {"peer": node_id, "sig": hmac.new(secret, msg, hashlib.sha256).hexdigest()}
            for node_id, secret in ENDORSERS
        ]

    # -- ordering and commit ----------------------------------------------

    def ingest(self, tx: Transaction) -> Optional[CommitReceipt]:
        """Endorse and enqueue; cut a block if the count threshold is hit.

        Returns this transaction's receipt when the ingest itself triggered
        the cut, otherwise None (the tx waits for the batching deadline).
        """
        if tx.tx_id in self._committed or any(p.tx_id == tx.tx_id for p in self._pending):
            raise DuplicateTransactionError(f"tx {tx.tx_id[:12]} already seen")
        self._endorse(tx)
        if self._pending_since is None:
            self._pending_since = self.clock.now()
        self._pending.append(tx)
        if len(self._pending) >= BLOCK_MAX_TXS:
            self._cut(self.clock.now())
            return self._committed[tx.tx_id]
        return None

    def cut_deadline(self) -> Optional[int]:
        if self._pending_since is None:
            return None
        return self._pending_since + BLOCK_INTERVAL_MS

    def flush_due(self, now: Optional[int] = None) -> None:
        """Cut a pending block whose batching interval has elapsed."""
        now = self.clock.now() if now is None else now
        deadline = self.cut_deadline()
        if deadline is not None and now >= deadline:
            self._cut(now)

    def force_cut(self) -> None:
        if self._pending:
            self._cut(self.clock.now())

    def submit(self, tx: Transaction) -> CommitReceipt:
        """Synchronous pipeline: endorse, order, commit, return the receipt."""
        receipt = self.ingest(tx)
        if receipt is None:
            deadline = self.cut_deadline()
            if deadline > self.clock.now():
                self.clock.advance_to(deadline)
            self._cut(self.clock.now())
            receipt = self._committed[tx.tx_id]
        return receipt

    def _cut(self, now: int) -> Block:
        # Deterministic total order inside the block.
        txs = sorted(self._pending, key=lambda t: (t.sim_time_submitted, t.tx_id))
        self._pending = []
        self._pending_since = None
        prev = self.chain[-1].block_hash if self.chain else GENESIS_PREV_HASH
        height = len(self.chain)
        block = Block(
            height=height,
            prev_hash=prev,
            tx_list=tuple(txs),
            block_hash=compute_block_hash(height, prev, txs),
            sim_time_committed=now,
        )
        for tx in txs:
            self.state.apply(tx)
            self._committed[tx.tx_id] = _receipt(tx, block)
        self.chain.append(block)
        return block

    # -- contract conveniences ---------------------------------------------

    def create_nft(
        self,
        response: bytes,
        owner_id: str,
        public_key: bytes,
        anchor: AnchorKeys,
        challenge_index: int = 0,
        token_name: str = "",
    ) -> NftToken:
        """Mint an identity token; the enrollment tx is anchor-signed."""
        if self.state.query(response) is not None:
            raise EnrollmentRejected("device id already bound to a live token")
        now = self.clock.now()
        payload = {
            "op": OP_CREATE_NFT,
            "token_id": compute_token_id(response, public_key, owner_id),
            "token_name": token_name,
            "device_id": response.hex(),
            "public_key": public_key.hex(),
            "owner_id": owner_id,
            "challenge_index": challenge_index,
            "issue_time": now,
        }
        env = sign_as_anchor(canonical_json(payload).encode("utf-8"), anchor, sim_time=now)
        self.submit(make_transaction(payload, env, now))
        return self.state.tokens[payload["token_id"]]

    def set_flag(
        self,
        token_id: str,
        flag: str,
        actor_key: SigningKey,
        value: bool = True,
        delegate_id: Optional[str] = None,
        new_owner: Optional[str] = None,
    ) -> NftToken:
        now = self.clock.now()
        payload = {
            "op": OP_SET_FLAG,
            "token_id": token_id,
            "flag": flag,
            "value": value,
            "sim_time": now,
        }
        if delegate_id is not None:
            payload["delegate_id"] = delegate_id
        if new_owner is not None:
            payload["new_owner"] = new_owner
        env = sign(canonical_json(payload).encode("utf-8"), actor_key, sim_time=now)
        self.submit(make_transaction(payload, env, now))
        return self.state.tokens[token_id]

    def record_event(
        self,
        workflow_id: str,
        kind: str,
        payload: dict,
        signer: SigningKey,
    ) -> CommitReceipt:
        now = self.clock.now()
        body = {
            "op": OP_RECORD_EVENT,
            "workflow_id": workflow_id,
            "kind": kind,
            "payload": payload,
            "sim_time": now,
        }
        env = sign(canonical_json(body).encode("utf-8"), signer, sim_time=now)
        return self.submit(make_transaction(body, env, now))

    # -- replay and persistence ---------------------------------------------

    def replay(self) -> RegistryState:
        return replay_chain(self.chain)

    def save_chain(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for block in self.chain:
                fh.write(json.dumps(block.to_record(), separators=(",", ":")) + "\n")

    def load_chain(self, path) -> None:
        self.chain = read_chain(path)
        self.state = replay_chain(self.chain)
        self._committed = {
            tx.tx_id: _receipt(tx, block) for block in self.chain for tx in block.tx_list
        }


def replay_chain(chain: Iterable[Block]) -> RegistryState:
    """Verify hash links and fold the chain into a fresh state."""
    state = RegistryState()
    prev = GENESIS_PREV_HASH
    for i, block in enumerate(chain):
        if block.height != i:
            raise IntegrityViolationError(f"block height gap at {i}")
        if block.prev_hash != prev:
            raise IntegrityViolationError(f"broken hash link at height {i}")
        expected = compute_block_hash(block.height, block.prev_hash, block.tx_list)
        if block.block_hash != expected:
            raise IntegrityViolationError(f"block hash mismatch at height {i}")
        for tx in block.tx_list:
            state.apply(tx)
        prev = block.block_hash
    return state


def read_chain(path) -> list[Block]:
    blocks: list[Block] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                txs = tuple(Transaction.from_record(t) for t in rec["txs"])
                blocks.append(
                    Block(
                        height=int(rec["height"]),
                        prev_hash=rec["prev_hash"],
                        tx_list=txs,
                        block_hash=rec["block_hash"],
                        sim_time_committed=int(rec.get("sim_time_committed", 0)),
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise IntegrityViolationError(
                    f"{path}: malformed block record on line {lineno}: {exc!r}"
                ) from exc
    return blocks
