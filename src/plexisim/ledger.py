"""Append-only simulated blockchain hosting the token registry contract.

A transaction is a contract call signed by one party: its ``payload``, its
``signer`` (a token id, or ``ANCHOR_TOKEN_ID`` for the enrollment anchor),
the Ed25519 ``signature`` and ``sim_time_submitted``. The signed message is
``canonical_json(payload)`` when the tx is built, and the stored payload
bytes when it is read back; ``tx_id`` is the SHA-256 of that message
followed by the signature, so neither is stored. Endorsement gates
every transaction on the signature (``identity.verify``, or the anchor key)
and on the registry contract (``RegistryState.admit``); one logical orderer
then commits each endorsed transaction in its own block, in submission
order. Committed blocks are hash-chained over every stored field (the
derived ``tx_id``s, each signer and submit time, and the commit time), and
the world state is the same contract folded over the chain, so replay
reproduces the live state exactly and refuses any tx the contract refuses.
A signature commits once: the contract keeps the signatures it has folded
in and refuses a second tx that carries one, however its payload is spelt.
Blocks persist as JSON lines filled from one fixed template, each payload
written as the bytes that were signed. ``read_chain`` walks each line
against that template, takes each payload's stored bytes as its message,
and refuses a line with another field order or whitespace between fields.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from math import copysign
from typing import Iterable, Optional, Union

from . import jsonread as jr
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
    VerifyStatus,
    compute_token_id,
    sign,
    sign_as_anchor,
    signature_valid,
    verify,
)
from .jsonread import canonical_json

GENESIS_PREV_HASH = "0" * 64

# Contract invocation kinds carried in transaction payloads.
OP_CREATE_NFT = "create_nft"
OP_SET_FLAG = "set_flag"
OP_RECORD_EVENT = "record_event"

FLAGS = ("revoked", "delegated", "transferred")
# Every token starts with no flag set; the constraints type is frozen, so
# tokens share one instance.
_NO_FLAGS = TokenConstraints()
# Each op's payload keys: the keys it must carry and the keys it may carry
# besides; any other key is refused. set_flag's sim_time must be an integer,
# and its optional keys are read as _SUBJECT_KEYS says.
_CONTRACT_KEYS = {
    OP_CREATE_NFT: (frozenset({"op", "token_id", "token_name", "device_id", "public_key",
                               "owner_id", "challenge_index", "issue_time"}), frozenset()),
    OP_SET_FLAG: (frozenset({"op", "token_id", "flag", "value", "sim_time"}),
                  frozenset({"delegate_id", "new_owner"})),
    OP_RECORD_EVENT: (frozenset({"op", "workflow_id", "kind", "payload", "sim_time"}),
                      frozenset()),
}
# The one optional key each flag reads, only when set true; a set_flag
# carrying a key it does not read is refused.
_SUBJECT_KEYS = {"delegated": "delegate_id", "transferred": "new_owner"}

# A block commits BLOCK_INTERVAL_MS after its transaction is submitted;
# simnet imports the interval as its batching deadline.
BLOCK_INTERVAL_MS = 500

_SEQUENCES = (list, tuple)


def _message(payload) -> bytes:
    """The signed bytes of a transaction payload."""
    try:
        message = canonical_json(payload).encode("utf-8")
    except (TypeError, ValueError) as exc:
        # A non-JSON value, or a dict mixing str and int keys, which sort_keys
        # cannot order.
        raise ValidationError(f"payload is not encodable as canonical JSON: {exc}") from exc
    # JSON writes a non-string key as a string, so the payload decoded from
    # the message would differ from this one. Walked after encoding, which
    # has refused a circular payload.
    if _has_non_str_key(payload):
        raise ValidationError("payload has a non-string key")
    return message


def _same_json(a, b) -> bool:
    """``canonical_json(a) == canonical_json(b)`` for JSON values, without
    serialising: ``1``, ``1.0`` and ``True`` differ, ``bytes`` and ``str``
    differ, floats compare by ``repr`` (``0.0`` vs ``-0.0`` differ, ``nan``
    equals ``nan``) and a tuple equals the list it serialises as.

    ``str``, ``int`` and ``float`` items of a dict or sequence are compared
    in the loop, with the same verdict, rather than by a call per item: the
    chain audit compares every value of the event log this way."""
    t = type(a)
    if t in _SEQUENCES:
        return type(b) in _SEQUENCES and len(a) == len(b) and _same_items(a, b)
    if t is not type(b):
        return False
    if t is dict:
        if a.keys() != b.keys():
            return False
        for k, x in a.items():
            y = b[k]
            t = type(x)
            if t is str or t is int:
                if type(y) is not t or x != y:
                    return False
            elif t is float:
                # repr tells the zeros apart and spells every nan alike.
                if type(y) is not float:
                    return False
                if x == y:
                    if x == 0.0 and copysign(1.0, x) != copysign(1.0, y):
                        return False
                elif x == x or y == y:
                    return False
            elif not _same_json(x, y):
                return False
        return True
    if t is float:
        return repr(a) == repr(b)
    return a == b


def _same_items(a, b) -> bool:
    """``_same_json`` of each pair of items of two sequences of one length,
    leaves compared in the loop as in ``_same_json``'s dict loop."""
    for x, y in zip(a, b):
        t = type(x)
        if t is str or t is int:
            if type(y) is not t or x != y:
                return False
        elif t is float:
            if type(y) is not float:
                return False
            if x == y:
                if x == 0.0 and copysign(1.0, x) != copysign(1.0, y):
                    return False
            elif x == x or y == y:
                return False
        elif not _same_json(x, y):
            return False
    return True


def _has_non_str_key(value) -> bool:
    """Whether a dict anywhere in ``value`` has a key that is not a ``str``.
    JSON writes such a key as a string, so a saved chain would read back a
    different payload."""
    t = type(value)
    if t is dict:
        for k, v in value.items():
            if type(k) is not str or _has_non_str_key(v):
                return True
    elif t in _SEQUENCES:
        for v in value:
            if _has_non_str_key(v):
                return True
    return False


# ---------------------------------------------------------------------------
# Transactions and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """A signed contract call. The signed ``message`` and the ``tx_id`` are
    derived from the stored fields: the same payload and signature give the
    same ``tx_id`` whatever ``signer`` and ``sim_time_submitted`` say. The
    ``payload`` is always the decoding of ``message``, so it shares no
    object with a dict a caller built or may still edit."""

    payload: dict
    signer: str
    signature: bytes
    sim_time_submitted: int
    message: bytes = field(init=False, compare=False, repr=False)
    tx_id: str = field(init=False, compare=False)

    def __post_init__(self):
        message = _message(self.payload)
        object.__setattr__(self, "payload", json.loads(message))
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "tx_id", hashlib.sha256(message + self.signature).hexdigest())

    @classmethod
    def _sealed(cls, payload, message: bytes, signer: str, signature: bytes,
                sim_time_submitted: int) -> "Transaction":
        """The tx whose ``message`` is taken as given and whose ``payload`` is
        its decoding; neither is encoded again."""
        tx = object.__new__(cls)
        # The fields in the order __init__ sets them, so every tx's instance
        # dict shares one key table.
        object.__setattr__(tx, "payload", payload)
        object.__setattr__(tx, "signer", signer)
        object.__setattr__(tx, "signature", signature)
        object.__setattr__(tx, "sim_time_submitted", sim_time_submitted)
        object.__setattr__(tx, "message", message)
        object.__setattr__(tx, "tx_id", hashlib.sha256(message + signature).hexdigest())
        return tx


# The chain file: one JSON line per block, filled from these templates by
# save_chain and read back against them by read_chain, so they are the one
# definition of the format. A tx is saved as its payload (the signed message
# itself), signer, signature and submit time; its message is the stored
# payload bytes and its tx_id is derived again on read.
_BLOCK_LINE = (b'{"height":%d,"prev_hash":%s,"block_hash":%s,"sim_time_committed":%d,'
               b'"txs":[%s]}\n')
_TX_RECORD = b'{"payload":%s,"signer":%s,"signature":"%s","sim_time_submitted":%d}'
_TX_SEP = b","


def _literals(template: bytes) -> list:
    """The text between a template's ``%`` fields."""
    return re.split(r"%[ds]", template.decode("ascii"))


_HEIGHT, _PREV_HASH, _BLOCK_HASH, _COMMITTED, _TXS, _BLOCK_END = _literals(_BLOCK_LINE)
_PAYLOAD, _SIGNER, _SIGNATURE, _SUBMITTED, _TX_END = _literals(_TX_RECORD)
_NEXT_PAYLOAD = _TX_SEP.decode("ascii") + _PAYLOAD
# Each literal's length, which the walk steps over once the literal matches.
(_HEIGHT_LEN, _PREV_HASH_LEN, _BLOCK_HASH_LEN, _COMMITTED_LEN, _TXS_LEN, _PAYLOAD_LEN,
 _NEXT_PAYLOAD_LEN, _SIGNER_LEN, _SIGNATURE_LEN, _SUBMITTED_LEN, _TX_END_LEN) = map(len, (
    _HEIGHT, _PREV_HASH, _BLOCK_HASH, _COMMITTED, _TXS, _PAYLOAD, _NEXT_PAYLOAD, _SIGNER,
    _SIGNATURE, _SUBMITTED, _TX_END))
# Reads the one JSON value that starts at an index, in C where available:
# no backtracking and no whitespace skipped before the value.
_scan = make_scanner(json.JSONDecoder())


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    tx_list: tuple
    block_hash: str
    sim_time_committed: int


def compute_block_hash(height: int, prev_hash: str, txs: Iterable[Transaction],
                       sim_time_committed: int) -> str:
    """SHA-256 over every stored field of a block but its own hash. Each
    signer is written as a JSON string, so the body reads only one way."""
    body = f"{height}|{prev_hash}|{sim_time_committed}|" + ",".join([
        f"{tx.tx_id}|{encode_basestring_ascii(tx.signer)}|{tx.sim_time_submitted}" for tx in txs
    ])
    return hashlib.sha256(body.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CommitReceipt:
    tx_id: str
    block_height: int
    submitted_at: int
    committed_at: int

    @property
    def latency_ms(self) -> int:
        return self.committed_at - self.submitted_at


def _receipt(tx: Transaction, block: Block) -> CommitReceipt:
    return CommitReceipt(
        tx_id=tx.tx_id,
        block_height=block.height,
        submitted_at=tx.sim_time_submitted,
        committed_at=block.sim_time_committed,
    )


# ---------------------------------------------------------------------------
# World state
# ---------------------------------------------------------------------------

def _token_from_create(payload: dict) -> tuple:
    """The token and challenge index a create_nft payload mints, its keys
    already checked. A malformed field raises ``TypeError`` or
    ``ValueError``: a hex field that is not lower-case hex (so one device has
    one device-index key), a non-string id or name, an issue time or
    challenge index that is not a JSON integer, a negative challenge index,
    or a token id that is not the hash of its device, key and owner."""
    # Typed fields keep token equality exact (see __eq__), and the state
    # holds the integers that were signed.
    token = NftToken(
        token_id=jr.of(str, payload["token_id"]),
        token_name=jr.of(str, payload["token_name"]),
        device_id=jr.hexbytes(payload["device_id"]),
        public_key=jr.hexbytes(payload["public_key"]),
        owner_id=jr.of(str, payload["owner_id"]),
        constraints=_NO_FLAGS,
        issue_time=jr.of(int, payload["issue_time"]),
    )
    if token.token_id != compute_token_id(token.device_id, token.public_key, token.owner_id):
        raise ValueError("create_nft token_id is not derived from device_id, public_key "
                         "and owner_id")
    # Live verification derives the device's challenge from this index.
    challenge_index = jr.of(int, payload["challenge_index"])
    if challenge_index < 0:
        raise ValueError("create_nft challenge_index must not be negative")
    return token, challenge_index


@dataclass
class RegistryState:
    """World state: tokens, the device index, and workflow event records."""

    tokens: dict = field(default_factory=dict)          # token_id -> NftToken
    device_index: dict = field(default_factory=dict)    # device_id hex -> token_id
    challenge_index: dict = field(default_factory=dict)  # device_id hex -> int
    delegates: dict = field(default_factory=dict)        # token_id -> actor id
    event_log: list = field(default_factory=list)
    # Of every tx folded in; the chain fixes it, so canonical() and == skip it.
    signatures: set = field(default_factory=set, repr=False)

    def query(self, key: Union[str, bytes]) -> Optional[NftToken]:
        """A ``str`` key is a token id, a ``bytes`` key a device id."""
        if isinstance(key, bytes):
            key = self.device_index.get(key.hex())
        return self.tokens.get(key)

    def challenge_index_for(self, device_id: bytes) -> int:
        return self.challenge_index.get(device_id.hex(), 0)

    def admit(self, tx: Transaction) -> None:
        """Check ``tx`` against the registry contract, then fold it in.

        This is the contract's one rule set: ``LedgerSim.submit`` endorses
        with it and ``apply`` replays with it. A refused tx raises
        ``DuplicateTransactionError``, ``ValidationError``,
        ``AuthorizationError`` or ``EnrollmentRejected`` before any field of
        the state changes. A signature commits once, checked first. A signer
        other than the anchor must be a live token at this point of the
        chain. The signature check itself (``identity.verify``, or the anchor
        key) is not part of it: it runs in ``submit`` only, because
        re-verifying a stored signature on replay would cost several times
        the whole chain audit per tx.

        The payload is a JSON object holding exactly its ``op`` and that
        op's keys (``_CONTRACT_KEYS``), each of its JSON type, none with a
        default: ``create_nft`` holds ``token_id``, ``token_name``,
        ``device_id``, ``public_key``, ``owner_id``, a non-negative
        ``challenge_index`` and ``issue_time``; ``set_flag`` holds
        ``token_id``, ``flag``, boolean ``value`` and integer ``sim_time``,
        and a ``delegated`` flag set true may add a non-empty string
        ``delegate_id``, a ``transferred`` one a non-empty string
        ``new_owner``; ``record_event`` holds string ``workflow_id`` and
        ``kind``, integer ``sim_time`` and a ``payload`` of any JSON value.
        """
        # Ed25519 signing is deterministic, so a signature folded in before is
        # that tx again, re-timed, respelt or copied into a re-hashed block.
        if tx.signature in self.signatures:
            raise DuplicateTransactionError(
                f"signature of tx {tx.tx_id[:12]} appears twice in the chain")
        if tx.signer != ANCHOR_TOKEN_ID:
            signer = self.tokens.get(tx.signer)
            if signer is None or signer.constraints.revoked:
                raise AuthorizationError(f"signer {tx.signer!r} is not a live token")
        # Every field is read with its type before any rule runs.
        try:
            op = jr.of(dict, tx.payload).get("op")
            if type(op) is not str or op not in _CONTRACT_KEYS:
                raise ValueError(f"unknown contract op {op!r}")
            payload = jr.obj(tx.payload, *_CONTRACT_KEYS[op])
            if op == OP_CREATE_NFT:
                token, challenge_index = _token_from_create(payload)
            elif op == OP_SET_FLAG:
                flag, token_id = payload["flag"], jr.of(str, payload["token_id"])
                if flag not in FLAGS:
                    raise ValueError(f"unknown flag {flag!r}")
                value = jr.of(bool, payload["value"])
                jr.of(int, payload["sim_time"])
                read = _SUBJECT_KEYS.get(flag) if value else None
                for k in _SUBJECT_KEYS.values():
                    if k in payload and k != read:
                        raise ValueError(f"set_flag of {flag}={value} does not read {k}")
                subject = jr.of(str, payload[read]) if read in payload else None
                if subject == "":
                    raise ValueError(f"{read} is empty")
            else:
                event = {"workflow_id": jr.of(str, payload["workflow_id"]),
                         "kind": jr.of(str, payload["kind"]),
                         "payload": payload["payload"],
                         "sim_time": jr.of(int, payload["sim_time"])}
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed payload of tx {tx.tx_id[:12]}: {exc}") from exc
        if op == OP_CREATE_NFT:
            # Only the anchor mints: a device key would pick its own token's key.
            if tx.signer != ANCHOR_TOKEN_ID:
                raise AuthorizationError("create_nft must be signed by the anchor")
            device_hex = payload["device_id"]
            if device_hex in self.device_index:
                raise EnrollmentRejected("device id already bound to a live token")
            self.tokens[token.token_id] = token
            self.device_index[device_hex] = token.token_id
            self.challenge_index[device_hex] = challenge_index
        elif op == OP_SET_FLAG:
            token = self.tokens.get(token_id)
            if token is None:
                raise ValidationError(f"no token {token_id}")
            # The delegate, once set, acts instead of the owner.
            allowed = token.owner_id
            if token.constraints.delegated:
                allowed = self.delegates.get(token_id, allowed)
            actor = getattr(self.tokens.get(tx.signer), "owner_id", None)
            if actor != allowed:
                raise AuthorizationError(f"actor {actor!r} may not mutate token owned via "
                                         f"{allowed!r}")
            # Revocation is final: a revoked token takes no further flag change.
            if token.constraints.revoked:
                raise ValidationError(f"token {token_id[:12]} is revoked")
            changes = {"constraints": replace(token.constraints,
                                              **{flag: value})}
            if subject and flag == "delegated":
                self.delegates[token_id] = subject
            elif subject:
                changes["owner_id"] = subject
            self.tokens[token_id] = replace(token, **changes)
        else:
            self.event_log.append(event)
        self.signatures.add(tx.signature)

    def apply(self, tx: Transaction) -> None:
        """Replay one committed tx through ``admit``; a tx the contract
        refuses raises ``IntegrityViolationError`` before any field of the
        state changes."""
        try:
            self.admit(tx)
        except (DuplicateTransactionError, ValidationError, AuthorizationError,
                EnrollmentRejected) as exc:
            raise IntegrityViolationError(
                f"tx {tx.tx_id[:12]} in chain breaks the contract: {exc}"
            ) from exc

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
        """Same verdict as comparing ``canonical()`` strings. Token, device
        index and delegate values have the types ``admit`` fixes, so plain
        ``==`` is exact for them; the free-form JSON values go through
        ``_same_json``."""
        if not isinstance(other, RegistryState):
            return NotImplemented
        return (
            self.tokens == other.tokens
            and self.device_index == other.device_index
            and self.delegates == other.delegates
            and _same_json(self.challenge_index, other.challenge_index)
            and _same_json(self.event_log, other.event_log)
        )


# ---------------------------------------------------------------------------
# Ledger pipeline
# ---------------------------------------------------------------------------

class LedgerSim:
    """Single-orderer ledger.

    ``submit`` is the one commit path and is synchronous: each endorsed
    transaction commits alone in a block ``BLOCK_INTERVAL_MS`` of simulated
    time after it was submitted, and the shared clock advances to that
    commit time before the receipt is returned. Batching under load is
    modelled in ``simnet``.
    """

    def __init__(self, clock: SimClock, anchor_pk: bytes):
        self.clock = clock
        self.anchor_pk = anchor_pk
        self.chain: list[Block] = []
        self.state = RegistryState()
        self._committed: dict[str, CommitReceipt] = {}

    # -- queries ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain)

    def query(self, key: Union[str, bytes]) -> Optional[NftToken]:
        return self.state.query(key)

    def challenge_index_for(self, device_id: bytes) -> int:
        return self.state.challenge_index_for(device_id)

    def receipt_for(self, tx_id: str) -> Optional[CommitReceipt]:
        return self._committed.get(tx_id)

    # -- commit -----------------------------------------------------------

    def submit(self, tx: Transaction) -> CommitReceipt:
        """Endorse ``tx`` (signature, then ``RegistryState.admit``), commit it
        alone in the next block and return its receipt."""
        if tx.signer == ANCHOR_TOKEN_ID:
            signed = signature_valid(self.anchor_pk, tx.message, tx.signature)
        else:
            env = SignedEnvelope(tx.message, tx.signature, tx.signer, tx.sim_time_submitted)
            signed = verify(env, self.state) is VerifyStatus.ACCEPT
        # Before the contract's duplicate rule, so a moved signature is forged.
        if not signed:
            raise RejectedTransactionError(f"signature rejected for tx {tx.tx_id[:12]}")
        self.state.admit(tx)
        now = self.clock.advance(BLOCK_INTERVAL_MS)
        prev = self.chain[-1].block_hash if self.chain else GENESIS_PREV_HASH
        height = len(self.chain)
        block = Block(
            height=height,
            prev_hash=prev,
            tx_list=(tx,),
            block_hash=compute_block_hash(height, prev, (tx,), now),
            sim_time_committed=now,
        )
        receipt = self._committed[tx.tx_id] = _receipt(tx, block)
        self.chain.append(block)
        return receipt

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
        self._call(payload, anchor, now)
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
        self._call(payload, actor_key, now)
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
        return self._call(body, signer, now)

    def _call(self, payload: dict, key: Union[SigningKey, AnchorKeys],
              now: int) -> CommitReceipt:
        """Sign ``payload`` with ``key`` (the anchor's, for a create_nft) and submit
        it, decoded from the signed bytes: no later edit to the dict commits."""
        message = _message(payload)
        # Names read at each call, so a wrapper patched onto them sees it.
        signing = sign_as_anchor if payload["op"] == OP_CREATE_NFT else sign
        env = signing(message, key, sim_time=now)
        return self.submit(Transaction._sealed(json.loads(message), message, env.token_id,
                                               env.signature, now))

    # -- replay and persistence ---------------------------------------------

    def replay(self) -> RegistryState:
        return replay_chain(self.chain)

    def save_chain(self, path) -> None:
        """Write one ``_BLOCK_LINE`` per block. Each payload is the signed
        ``message``, so its keys appear sorted; every string field goes
        through the JSON string encoder, so the file is ASCII JSON."""
        with open(path, "wb") as fh:
            fh.writelines(
                _BLOCK_LINE % (
                    block.height,
                    encode_basestring_ascii(block.prev_hash).encode(),
                    encode_basestring_ascii(block.block_hash).encode(),
                    block.sim_time_committed,
                    _TX_SEP.join([
                        _TX_RECORD % (tx.message, encode_basestring_ascii(tx.signer).encode(),
                                      tx.signature.hex().encode(), tx.sim_time_submitted)
                        for tx in block.tx_list
                    ]),
                )
                for block in self.chain
            )

    def load_chain(self, path) -> None:
        """Replace the chain with the file's; a file that fails to read or
        replay leaves the ledger as it was."""
        chain = read_chain(path)
        state = replay_chain(chain)
        self.chain, self.state = chain, state
        self._committed = {
            tx.tx_id: _receipt(tx, block) for block in chain for tx in block.tx_list
        }


def replay_chain(chain: Iterable[Block]) -> RegistryState:
    """Verify hash links and fold the chain into a fresh state through the
    contract, which also refuses a signature seen twice."""
    state = RegistryState()
    prev = GENESIS_PREV_HASH
    for i, block in enumerate(chain):
        if block.height != i:
            raise IntegrityViolationError(f"block height gap at {i}")
        if block.prev_hash != prev:
            raise IntegrityViolationError(f"broken hash link at height {i}")
        expected = compute_block_hash(block.height, block.prev_hash, block.tx_list,
                                      block.sim_time_committed)
        if block.block_hash != expected:
            raise IntegrityViolationError(f"block hash mismatch at height {i}")
        for tx in block.tx_list:
            state.apply(tx)
        prev = block.block_hash
    return state


def read_chain(path) -> list[Block]:
    """The blocks a chain file holds, one ``_BLOCK_LINE`` each. A line that
    is not UTF-8 or departs from the template (another field order,
    whitespace between fields, a value of the wrong JSON type, a
    signature not in lower-case hex) raises ``IntegrityViolationError``
    naming the line and the field; ``replay_chain`` checks the hashes and
    the contract."""
    blocks: list[Block] = []
    # Binary lines, decoded one at a time, so a byte that is not UTF-8 is
    # reported with its line.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                blocks.append(_block_from_line(line.decode("utf-8")))
            # A payload nested past the recursion limit stops the scanner.
            except (ValueError, RecursionError) as exc:
                raise IntegrityViolationError(
                    f"{path}: malformed block record on line {lineno}: {exc}"
                ) from exc
    return blocks


def _expected(literal: str, i: int):
    """Refuse a line on which ``literal`` does not stand at ``i``."""
    raise ValueError(f"expected {literal!r} at column {i}")


def _block_from_line(line: str) -> Block:
    """The block a saved line holds, read left to right against
    ``_BLOCK_LINE`` and ``_TX_RECORD``: each literal must stand where the
    template puts it, and each value is one JSON value of its field's type.
    A tx's message is its stored payload bytes. A departure raises
    ``ValueError`` naming the field being read."""
    # Each literal is checked inline rather than through a helper call:
    # this walk runs once per stored field of every tx of every audit.
    name = "height"
    try:
        if not line.startswith(_HEIGHT):
            _expected(_HEIGHT, 0)
        height, i = _scan(line, _HEIGHT_LEN)
        jr.of(int, height)
        name = "prev_hash"
        if not line.startswith(_PREV_HASH, i):
            _expected(_PREV_HASH, i)
        prev_hash, i = _scan(line, i + _PREV_HASH_LEN)
        jr.of(str, prev_hash)
        name = "block_hash"
        if not line.startswith(_BLOCK_HASH, i):
            _expected(_BLOCK_HASH, i)
        block_hash, i = _scan(line, i + _BLOCK_HASH_LEN)
        jr.of(str, block_hash)
        name = "sim_time_committed"
        if not line.startswith(_COMMITTED, i):
            _expected(_COMMITTED, i)
        committed, i = _scan(line, i + _COMMITTED_LEN)
        jr.of(int, committed)
        name = "txs"
        if not line.startswith(_TXS, i):
            _expected(_TXS, i)
        i += _TXS_LEN
        txs = []
        opening, opening_len = _PAYLOAD, _PAYLOAD_LEN
        # A line ends at its only newline, so the end literal ends the line.
        while not line.startswith(_BLOCK_END, i):
            name = "payload"
            if not line.startswith(opening, i):
                _expected(opening, i)
            start = i + opening_len
            payload, i = _scan(line, start)
            message = line[start:i].encode("utf-8")
            name = "signer"
            if not line.startswith(_SIGNER, i):
                _expected(_SIGNER, i)
            signer, i = _scan(line, i + _SIGNER_LEN)
            jr.of(str, signer)
            name = "signature"
            if not line.startswith(_SIGNATURE, i):
                _expected(_SIGNATURE, i)
            i += _SIGNATURE_LEN
            end = line.index('"', i)
            # Lower-case only: another spelling would be covered by no hash.
            signature = jr.hexbytes(line[i:end])
            name = "sim_time_submitted"
            if not line.startswith(_SUBMITTED, end):
                _expected(_SUBMITTED, end)
            submitted, i = _scan(line, end + _SUBMITTED_LEN)
            jr.of(int, submitted)
            name = "txs"
            if not line.startswith(_TX_END, i):
                _expected(_TX_END, i)
            i += _TX_END_LEN
            txs.append(Transaction._sealed(payload, message, signer, signature, submitted))
            opening, opening_len = _NEXT_PAYLOAD, _NEXT_PAYLOAD_LEN
    except StopIteration as exc:
        raise ValueError(f"field {name!r}: no JSON value at column {exc.value}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc
    return Block(height=height, prev_hash=prev_hash, tx_list=tuple(txs),
                 block_hash=block_hash, sim_time_committed=committed)
