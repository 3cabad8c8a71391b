"""Append-only simulated blockchain hosting the token registry contract.

A transaction is a contract call signed by one party: its ``payload``, its
``signer`` (a token id, or ``ANCHOR_TOKEN_ID`` for the enrollment anchor),
the Ed25519 ``signature`` and ``sim_time_submitted``. The signed message is
``canonical_json(payload)`` when the tx is built, and the stored payload
bytes when it is read back; ``tx_id`` is the SHA-256 of that message
followed by the signature, so neither is stored. Endorsement gates
every transaction on the signature (``identity.verify``, or the anchor key)
and on the registry contract (``RegistryState.admit``); one logical orderer
then commits each endorsed transaction alone in its own block, in
submission order, so a block holds exactly one tx. Committed blocks are
hash-chained over every stored field (the tx's derived ``tx_id``, signer
and submit time, and the commit time), and the world state is the same
contract folded over the chain, so replay reproduces the live state exactly
and refuses any tx the contract refuses, and any block of other than one tx.
A signature commits once: the contract keeps the signatures it has folded
in and refuses a second tx that carries one, however its payload is spelt.
Blocks persist as one length-prefixed binary record each: a fixed
``_RECORD`` header, then the signer's UTF-8 bytes, then the payload bytes
exactly as signed. A record stores no height or previous hash: its
position and the record before it give both. ``read_chain`` takes the
stored payload bytes as the tx's message, and refuses a record cut short,
one that runs past the file, and a payload that is not one ASCII JSON value
spanning its bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from math import copysign
from typing import Iterable, NamedTuple, Optional, Union

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
# Every token starts with no flag set; the constraints are a read-only
# tuple record, so tokens share one instance.
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
# Types of the JSON values that hold no dict; the key walk skips them.
_LEAVES = frozenset({str, int, float, bool, type(None)})
# Builds a tuple record from a tuple of its fields in one C call, without
# the Python frame of the record's generated __new__.
_record = tuple.__new__


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
    different payload. Walked by ``isinstance``, as the encoder walks: it
    writes a subclass of dict, list or tuple as its base."""
    if isinstance(value, dict):
        for k, v in value.items():
            if type(k) is not str or (type(v) not in _LEAVES and _has_non_str_key(v)):
                return True
    elif isinstance(value, _SEQUENCES):
        for v in value:
            if type(v) not in _LEAVES and _has_non_str_key(v):
                return True
    return False


# ---------------------------------------------------------------------------
# Transactions and blocks
# ---------------------------------------------------------------------------

class Transaction(namedtuple("Transaction", ("payload", "signer", "signature",
                                             "sim_time_submitted", "message", "tx_id"))):
    """A signed contract call, built from its four stored fields. The signed
    ``message`` and the ``tx_id`` are derived from them: the same payload
    and signature give the same ``tx_id`` whatever ``signer`` and
    ``sim_time_submitted`` say. The ``payload`` is always the decoding of
    ``message``, so it shares no object with a dict a caller built or may
    still edit. Equality covers all six fields."""

    __slots__ = ()

    def __new__(cls, payload, signer: str, signature: bytes, sim_time_submitted: int):
        message = _message(payload)
        return cls._sealed(json.loads(message), message, signer, signature, sim_time_submitted)

    @classmethod
    def _sealed(cls, payload, message: bytes, signer: str, signature: bytes,
                sim_time_submitted: int) -> "Transaction":
        """The tx whose ``message`` is taken as given and whose ``payload`` is
        its decoding; neither is encoded again."""
        return _record(cls, (payload, signer, signature, sim_time_submitted, message,
                             hashlib.sha256(message + signature).hexdigest()))

    def _replace(self, /, **changes) -> "Transaction":
        """This tx with ``changes`` to its stored fields: a new payload is
        encoded again, and ``tx_id`` follows the message and signature."""
        payload, signer, signature, submitted = map(changes.pop, self._fields[:4], self)
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        if payload is self.payload:
            return self._sealed(payload, self.message, signer, signature, submitted)
        return Transaction(payload, signer, signature, submitted)

    def __reduce__(self):
        # Copied and unpickled with its message as it is, not encoded again.
        return self._sealed, (self.payload, self.message, *self[1:4])


# The chain file: one record per block, this header followed by the
# signer's UTF-8 bytes and the payload bytes exactly as signed. The header
# holds the block hash as 32 raw bytes, the commit and submit sim times as
# little-endian int64, the 64-byte signature, and the signer and payload
# lengths. A record's height is its position and its prev_hash the hash of
# the record before it, so neither is stored; the tx's message is the
# stored payload bytes and its tx_id is derived again on read.
_RECORD = struct.Struct("<32sqq64sHI")
# Reads the one JSON value that starts at an index, in C where available:
# no backtracking and no whitespace skipped before the value.
_scan = make_scanner(json.JSONDecoder())


class Block(NamedTuple):
    """One committed tx: ``tx_list`` is the one-tuple ``(tx,)``."""

    height: int
    prev_hash: str
    tx_list: tuple
    block_hash: str
    sim_time_committed: int

    @property
    def latency_ms(self) -> int:
        """Simulated ms from the tx's submission to the block's commit."""
        return self.sim_time_committed - self.tx_list[0].sim_time_submitted


def compute_block_hash(height: int, prev_hash: str, tx: Transaction,
                       sim_time_committed: int) -> str:
    """SHA-256 over every stored field of a block but its own hash: the body
    ``height|prev_hash|sim_time_committed|tx_id|signer|sim_time_submitted``
    of its one tx. The signer is written as a JSON string, so the body reads
    only one way."""
    body = (f"{height}|{prev_hash}|{sim_time_committed}|{tx.tx_id}|"
            f"{encode_basestring_ascii(tx.signer)}|{tx.sim_time_submitted}")
    return hashlib.sha256(body.encode("ascii")).hexdigest()


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
    token = _record(NftToken, (
        jr.of(str, payload["token_id"]), jr.of(str, payload["token_name"]),
        jr.hexbytes(payload["device_id"]), jr.hexbytes(payload["public_key"]),
        jr.of(str, payload["owner_id"]), _NO_FLAGS, jr.of(int, payload["issue_time"])))
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
            changes = {"constraints": token.constraints._replace(**{flag: value})}
            if subject and flag == "delegated":
                self.delegates[token_id] = subject
            elif subject:
                changes["owner_id"] = subject
            self.tokens[token_id] = token._replace(**changes)
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
    commit time before the block is returned. Batching under load is
    modelled in ``simnet``.
    """

    def __init__(self, clock: SimClock, anchor_pk: bytes):
        self.clock = clock
        self.anchor_pk = anchor_pk
        self.chain: list[Block] = []
        self.state = RegistryState()
        self._committed: dict[str, Block] = {}

    # -- queries ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain)

    def query(self, key: Union[str, bytes]) -> Optional[NftToken]:
        return self.state.query(key)

    def challenge_index_for(self, device_id: bytes) -> int:
        return self.state.challenge_index_for(device_id)

    def receipt_for(self, tx_id: str) -> Optional[Block]:
        """The block that committed the tx ``tx_id``, if any."""
        return self._committed.get(tx_id)

    # -- commit -----------------------------------------------------------

    def submit(self, tx: Transaction) -> Block:
        """Endorse ``tx`` (signature, then ``RegistryState.admit``), commit it
        alone in the next block and return that block."""
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
        block = Block(height, prev, (tx,), compute_block_hash(height, prev, tx, now), now)
        self._committed[tx.tx_id] = block
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
    ) -> Block:
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
              now: int) -> Block:
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
        """Write one ``_RECORD`` per block, then its tx's signer and payload
        (the signed ``message``, so its keys appear sorted). Every record is
        packed before the file is opened, so a block the format cannot hold
        exactly raises ``ValidationError`` and creates or changes no file: a
        height or prev_hash other than its position and the hash before it
        give, a block hash that is not 64 lower-case hex digits, a signature
        of other than 64 bytes, a signer that is not UTF-8, a sim time
        outside int64, or a signer or payload longer than its length field."""
        parts = []
        pack, prev = _RECORD.pack, GENESIS_PREV_HASH
        try:
            for height, block in enumerate(self.chain):
                (tx,) = block.tx_list
                block_hash = block.block_hash
                raw = bytes.fromhex(block_hash)
                if len(raw) != 32 or raw.hex() != block_hash:
                    raise ValueError(f"block hash {block_hash!r} is not 64 lower-case hex digits")
                if block.height != height or block.prev_hash != prev:
                    raise ValueError("height or prev_hash is not the one its position gives")
                if len(tx.signature) != 64:
                    raise ValueError(f"signature of {len(tx.signature)} bytes, not 64")
                signer, message = tx.signer.encode("utf-8"), tx.message
                # struct refuses an int out of its field's range.
                parts += (pack(raw, block.sim_time_committed, tx.sim_time_submitted,
                               tx.signature, len(signer), len(message)), signer, message)
                prev = block_hash
        except (TypeError, ValueError, struct.error) as exc:
            raise ValidationError(f"block {height} cannot be saved: {exc}") from exc
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    def load_chain(self, path) -> None:
        """Replace the chain with the file's; a file that fails to read or
        replay leaves the ledger as it was."""
        chain = read_chain(path)
        state = replay_chain(chain)
        self.chain, self.state = chain, state
        self._committed = {block.tx_list[0].tx_id: block for block in chain}


def replay_chain(chain: Iterable[Block]) -> RegistryState:
    """Verify hash links and fold the chain into a fresh state through the
    contract, which also refuses a signature seen twice. A block that does
    not hold exactly one tx is refused."""
    state = RegistryState()
    prev = GENESIS_PREV_HASH
    for i, block in enumerate(chain):
        if block.height != i:
            raise IntegrityViolationError(f"block height gap at {i}")
        if block.prev_hash != prev:
            raise IntegrityViolationError(f"broken hash link at height {i}")
        if len(block.tx_list) != 1:
            raise IntegrityViolationError(
                f"block at height {i} holds {len(block.tx_list)} txs, not one")
        (tx,) = block.tx_list
        expected = compute_block_hash(block.height, block.prev_hash, tx,
                                      block.sim_time_committed)
        if block.block_hash != expected:
            raise IntegrityViolationError(f"block hash mismatch at height {i}")
        state.apply(tx)
        prev = block.block_hash
    return state


def read_chain(path) -> list[Block]:
    """The blocks a chain file holds, one ``_RECORD`` each, read in one
    call. A record cut short, one whose lengths run past the file, a signer
    that is not UTF-8, or a payload that is not one ASCII JSON value
    spanning its bytes raises ``IntegrityViolationError`` naming the record
    and its byte offset; ``replay_chain`` checks the hashes and the
    contract."""
    with open(path, "rb") as fh:
        data = fh.read()
    blocks: list[Block] = []
    unpack, size, end = _RECORD.unpack_from, _RECORD.size, len(data)
    prev, height, at = GENESIS_PREV_HASH, 0, 0
    try:
        while at < end:
            if end - at < size:
                raise ValueError(f"header cut short at {end - at} of {size} bytes")
            raw, committed, submitted, signature, n_signer, n_payload = unpack(data, at)
            start = at + size + n_signer
            stop = start + n_payload
            if stop > end:
                raise ValueError(f"record of {stop - at} bytes runs {stop - end} past the file")
            message = data[start:stop]
            payload, i = _scan(message.decode("ascii"), 0)
            if i != n_payload:
                raise ValueError(f"payload holds more than one JSON value (byte {i})")
            tx = Transaction._sealed(payload, message, data[at + size:start].decode("utf-8"),
                                     signature, submitted)
            block_hash = raw.hex()
            blocks.append(_record(Block, (height, prev, (tx,), block_hash, committed)))
            prev, height, at = block_hash, height + 1, stop
    except StopIteration as exc:
        raise IntegrityViolationError(
            f"{path}: malformed chain record {height} at byte {at}: payload holds no JSON "
            f"value at its byte {exc.value}") from None
    # A payload nested past the recursion limit stops the scanner.
    except (ValueError, RecursionError) as exc:
        raise IntegrityViolationError(
            f"{path}: malformed chain record {height} at byte {at}: {exc}") from exc
    return blocks
