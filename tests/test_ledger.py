import collections
import copy
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import re
import struct
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plexisim import identity
from plexisim.clock import SimClock
from plexisim.errors import (
    AuthorizationError,
    DuplicateTransactionError,
    EnrollmentRejected,
    IntegrityViolationError,
    RejectedTransactionError,
    SimError,
    ValidationError,
)
from plexisim.ledger import (
    BLOCK_INTERVAL_MS,
    GENESIS_PREV_HASH,
    Block,
    LedgerSim,
    RegistryState,
    Transaction,
    _CONTRACT_KEYS,
    _SUBJECT_KEYS,
    canonical_json,
    compute_block_hash,
    read_chain,
    replay_chain,
)


def as_tx(payload, env, now):
    """A tx carrying ``env``'s signer and signature on ``payload``."""
    return Transaction(payload, env.token_id, env.signature, now)


def record_tx(ledger, key, tag="x", payload=None):
    now = ledger.clock.now()
    body = {"op": "record_event", "workflow_id": "wf", "kind": tag,
            "payload": {} if payload is None else payload, "sim_time": now}
    return as_tx(body, identity.sign(canonical_json(body).encode(), key, now), now)


def flag_tx(ledger, token_id, flag, key, value=True, **extra):
    now = ledger.clock.now()
    payload = {"op": "set_flag", "token_id": token_id, "flag": flag, "value": value,
               "sim_time": now, **extra}
    return as_tx(payload, identity.sign(canonical_json(payload).encode(), key, now), now)


def retimed(tx, now):
    """``tx`` re-submitted with its unsigned sim_time_submitted moved to ``now``."""
    return tx._replace(sim_time_submitted=now)


def with_payload(tx, payload):
    """``tx`` holding another payload, its message and tx_id derived again."""
    return Transaction(payload, tx.signer, tx.signature, tx.sim_time_submitted)


def borrowed(tx, payload, now):
    """``tx``'s signer and signature moved onto another payload."""
    return Transaction(payload, tx.signer, tx.signature, now)


def anchor_signed(payload, anchor, now):
    return as_tx(payload, identity.sign_as_anchor(canonical_json(payload).encode(), anchor, now),
                 now)


def rehashed(chain, at, tx):
    """Block ``at`` of ``chain`` holding ``tx``, its hash recomputed as an
    editor could."""
    prev = chain[at - 1].block_hash if at else GENESIS_PREV_HASH
    committed = chain[at].sim_time_committed
    return Block(tx, compute_block_hash(at, prev, tx, committed), committed)


def create_tx(ledger, anchor, device, owner):
    """An anchor-signed enrollment tx and the key the device would hold."""
    resp = identity.puf_respond(device, identity.derive_challenge(anchor, 0))
    priv, pk = identity.derive_keypair(anchor, resp)
    now = ledger.clock.now()
    payload = {"op": "create_nft", "token_id": identity.compute_token_id(resp, pk, owner),
               "token_name": device.hardware_label, "device_id": resp.hex(),
               "public_key": pk.hex(), "owner_id": owner, "challenge_index": 0,
               "issue_time": now}
    env = identity.sign_as_anchor(canonical_json(payload).encode(), anchor, now)
    key = identity.SigningKey(seed=priv.private_bytes_raw(), token_id=payload["token_id"],
                              key=priv)
    return as_tx(payload, env, now), key


class TestSubmit:
    def test_create_nft_committed_and_queryable(self, anchor, ledger):
        device = identity.make_device("d", seed=1)
        _, token_id = identity.enroll(device, "alice", anchor, ledger)
        assert ledger.height == 1
        assert ledger.query(token_id).token_id == token_id

    def test_receipt_latency_non_negative(self, anchor, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        block = ledger.submit(tx)
        assert block is ledger.chain[-1] and block.tx == tx
        assert block.latency_ms >= 0
        assert block.sim_time_committed >= tx.sim_time_submitted

    def test_revoked_signer_rejected_at_endorsement(self, anchor, ledger, enrolled):
        _, key, token_id = enrolled
        owner = identity.make_device("alice-ctl", seed=2)
        owner_key, _ = identity.enroll(owner, "alice", anchor, ledger)
        ledger.set_flag(token_id, "revoked", owner_key)
        with pytest.raises(RejectedTransactionError):
            ledger.submit(record_tx(ledger, key))

    def test_revoked_signer_cannot_reuse_an_earlier_envelope(self, anchor, ledger, enrolled):
        _, key, token_id = enrolled
        used = record_tx(ledger, key)
        ledger.submit(used)
        owner = identity.make_device("alice-ctl", seed=2)
        owner_key, _ = identity.enroll(owner, "alice", anchor, ledger)
        ledger.set_flag(token_id, "revoked", owner_key)
        # A new payload gives a new tx_id; the signature does not cover it.
        payload = dict(used.payload, kind="replayed")
        with pytest.raises(RejectedTransactionError):
            ledger.submit(borrowed(used, payload, ledger.clock.now()))

    def test_live_signer_envelope_cannot_carry_another_payload(self, ledger, enrolled):
        _, key, _ = enrolled
        used = record_tx(ledger, key)
        ledger.submit(used)
        payload = dict(used.payload, kind="forged", payload={"kw": 999})
        height_before = ledger.height
        with pytest.raises(RejectedTransactionError):
            ledger.submit(borrowed(used, payload, ledger.clock.now()))
        assert ledger.height == height_before

    def test_duplicate_tx_id_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        ledger.submit(tx)
        with pytest.raises(DuplicateTransactionError):
            ledger.submit(tx)

    def test_signed_envelope_with_new_sim_time_rejected(self, ledger, enrolled):
        # sim_time_submitted is not signed and tx_id does not cover it.
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        ledger.submit(tx)
        copy = retimed(tx, ledger.clock.now())
        assert copy.sim_time_submitted != tx.sim_time_submitted
        assert copy.tx_id == tx.tx_id
        with pytest.raises(DuplicateTransactionError):
            ledger.submit(copy)
        assert len(ledger.state.event_log) == 1

    def test_admit_refuses_a_signature_it_has_folded_in(self, anchor, ledger):
        # The duplicate rule is the contract's own: a bare state refuses the
        # second fold of one event, with no ledger around it.
        create, key = create_tx(ledger, anchor, identity.make_device("d", seed=19), "alice")
        state = RegistryState()
        state.admit(create)
        event = record_tx(ledger, key)
        state.admit(event)
        before = state.canonical()
        with pytest.raises(DuplicateTransactionError, match="appears twice"):
            state.admit(event)
        assert state.canonical() == before

    def test_tx_id_is_the_hash_of_message_and_signature(self, tmp_path, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        assert tx.message == canonical_json(tx.payload).encode()
        assert tx.tx_id == hashlib.sha256(tx.message + tx.signature).hexdigest()
        ledger.submit(tx)
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        assert read_chain(path)[-1].tx.tx_id == tx.tx_id

    @pytest.mark.parametrize("payload", [
        {2: "a", 10: "b"}, {"x": [{"y": {1: "a"}}]}, collections.OrderedDict({1: 2}),
        type("DictSubclass", (dict,), {})({1: 2}),
        collections.namedtuple("Pair", "left right")({1: 2}, "b"),
    ], ids=["top-level", "nested", "OrderedDict", "dict subclass", "namedtuple"])
    def test_non_string_key_rejected(self, ledger, enrolled, payload):
        # JSON writes 2 as "2", so the saved chain would replay another state.
        _, key, _ = enrolled
        height, now = ledger.height, ledger.clock.now()
        with pytest.raises(ValidationError, match="non-string key"):
            ledger.record_event("wf", "k", payload, key)
        assert (ledger.height, ledger.clock.now()) == (height, now)
        assert ledger.state.event_log == []

    @pytest.mark.parametrize("clock_at, submitted", [
        (2 ** 63 - BLOCK_INTERVAL_MS, None), (0, 2 ** 63), (0, -2 ** 63 - 1), (0, 1.0),
    ], ids=["commit time past int64", "submit time past int64", "submit time below int64",
            "submit time a float"])
    def test_sim_time_a_record_cannot_hold_refused(self, ledger, enrolled, clock_at, submitted):
        # Refused at submit, before the contract or the clock, rather than
        # committed and then refused by save_chain.
        _, key, _ = enrolled
        ledger.clock.advance_to(max(ledger.clock.now(), clock_at))
        tx = record_tx(ledger, key)
        if submitted is not None:
            tx = retimed(tx, submitted)
        height, now, before = ledger.height, ledger.clock.now(), ledger.state.canonical()
        with pytest.raises(ValidationError, match="int64"):
            ledger.submit(tx)
        assert (ledger.height, ledger.clock.now()) == (height, now)
        assert ledger.state.canonical() == before
        ledger.save_chain(os.devnull)

    def test_caller_edit_after_commit_changes_nothing(self, tmp_path, ledger, enrolled):
        _, key, _ = enrolled
        p = {"kw": 5}
        block = ledger.record_event("wf", "k", p, key)
        p["kw"] = 500
        assert ledger.state.event_log[-1]["payload"] == {"kw": 5}
        assert block is ledger.chain[-1]
        assert block.tx.payload["payload"] == {"kw": 5}
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        assert replay_chain(read_chain(path)) == ledger.state

    def test_payload_edit_after_construction_changes_nothing(self, tmp_path, ledger, enrolled):
        # The signature covers the message built with the tx; the dict the
        # caller built stays editable until submit.
        _, key, token_id = enrolled
        now = ledger.clock.now()
        event = {"op": "record_event", "workflow_id": "wf", "kind": "k",
                 "payload": {"kw": 1.0}, "sim_time": now}
        event_signed = as_tx(event, identity.sign(canonical_json(event).encode(), key, now), now)
        event["payload"]["kw"] = 999.0
        ledger.submit(event_signed)
        now = ledger.clock.now()
        flag = {"op": "set_flag", "token_id": token_id, "flag": "delegated", "value": True,
                "sim_time": now, "delegate_id": "bob"}
        flag_signed = as_tx(flag, identity.sign(canonical_json(flag).encode(), key, now), now)
        flag["flag"] = "revoked"
        ledger.submit(flag_signed)
        constraints = ledger.query(token_id).constraints
        assert (constraints.delegated, constraints.revoked) == (True, False)
        assert ledger.state.event_log[-1]["payload"] == {"kw": 1.0}
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        assert replay_chain(read_chain(path)) == ledger.state

    def test_set_flag_without_value_refused(self, anchor, ledger, enrolled):
        # value has no default: an owner-signed flag change naming none
        # changes nothing.
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(identity.make_device("alice-ctl", seed=2), "alice",
                                       anchor, ledger)
        now = ledger.clock.now()
        payload = {"op": "set_flag", "token_id": token_id, "flag": "delegated"}
        tx = as_tx(payload, identity.sign(canonical_json(payload).encode(), owner_key, now), now)
        height, constraints = ledger.height, ledger.query(token_id).constraints
        with pytest.raises(ValidationError):
            ledger.submit(tx)
        assert (ledger.height, ledger.query(token_id).constraints) == (height, constraints)

    @pytest.mark.parametrize("op, call, passed", [
        ("create_nft", lambda ledger, anchor, key, token_id: ledger.create_nft(
            b"\x01" * 16, "bob", b"\x02" * 32, anchor), ()),
        ("set_flag", lambda ledger, anchor, key, token_id: ledger.set_flag(
            token_id, "delegated", key), ()),
        ("set_flag", lambda ledger, anchor, key, token_id: ledger.set_flag(
            token_id, "delegated", key, delegate_id="bob"), ("delegate_id",)),
        ("set_flag", lambda ledger, anchor, key, token_id: ledger.set_flag(
            token_id, "transferred", key, new_owner="bob"), ("new_owner",)),
        ("record_event", lambda ledger, anchor, key, token_id: ledger.record_event(
            "wf", "k", {"kw": 1}, key), ()),
    ], ids=["create_nft", "set_flag", "set_flag delegate_id", "set_flag new_owner",
            "record_event"])
    def test_builder_writes_exactly_the_contract_keys(self, anchor, ledger, enrolled, op, call,
                                                      passed):
        # The builders and the contract's key table name the same keys.
        _, key, token_id = enrolled
        call(ledger, anchor, key, token_id)
        payload = ledger.chain[-1].tx.payload
        assert payload["op"] == op
        assert payload.keys() == _CONTRACT_KEYS[op][0] | set(passed)

    @pytest.mark.parametrize("flag, value, extra", [
        ("transferred", False, {"new_owner": "mallory"}),
        ("delegated", False, {"delegate_id": "bob"}),
        ("revoked", True, {"delegate_id": "eve"}),
        ("delegated", False, {"sim_time": "later"}),
        ("transferred", True, {"new_owner": ""}),
        ("delegated", True, {"delegate_id": ""}),
    ], ids=["new_owner on transferred false", "delegate_id on delegated false",
            "delegate_id on revoked", "sim_time not an integer", "empty new_owner",
            "empty delegate_id"])
    def test_set_flag_takes_only_the_keys_it_reads(self, anchor, ledger, enrolled, flag, value,
                                                   extra):
        # Each would commit an owner or a delegate that no set flag names,
        # a time that is not one, or a set flag whose signed subject is
        # dropped.
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(identity.make_device("alice-ctl", seed=2), "alice",
                                       anchor, ledger)
        tx = flag_tx(ledger, token_id, flag, owner_key, value=value, **extra)
        height, before = ledger.height, ledger.state.canonical()
        with pytest.raises(ValidationError):
            ledger.submit(tx)
        assert (ledger.height, ledger.state.canonical()) == (height, before)
        with pytest.raises(IntegrityViolationError, match="breaks the contract"):
            replay_chain(appended(ledger.chain, tx))

    def test_bad_envelope_never_commits(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        bad = borrowed(tx, dict(tx.payload, kind=tx.payload["kind"] + "!"), ledger.clock.now())
        height_before = ledger.height
        with pytest.raises(RejectedTransactionError):
            ledger.submit(bad)
        assert ledger.height == height_before
        assert bad.tx_id not in [block.tx.tx_id for block in ledger.chain]


class TestCreateNft:
    def test_second_create_for_same_response_bottom(self, anchor, ledger):
        device = identity.make_device("d", seed=3)
        resp = identity.puf_respond(device, identity.derive_challenge(anchor, 0))
        _, pk = identity.derive_keypair(anchor, resp)
        ledger.create_nft(resp, "alice", pk, anchor)
        with pytest.raises(EnrollmentRejected):
            ledger.create_nft(resp, "alice", pk, anchor)

    def test_upper_case_device_id_of_bound_device_rejected(self, anchor, ledger):
        # bytes.fromhex reads either case, so an upper-case copy would bind
        # the same device a second time under another device-index key.
        first, _ = create_tx(ledger, anchor, identity.make_device("d", seed=5), "alice")
        ledger.submit(first)
        upper = dict(first.payload, device_id=first.payload["device_id"].upper())
        assert upper["device_id"] != first.payload["device_id"]
        with pytest.raises(ValidationError):
            ledger.submit(anchor_signed(upper, anchor, ledger.clock.now()))
        assert len(ledger.state.device_index) == 1

    def test_device_signed_create_rejected(self, anchor, ledger, enrolled):
        device = identity.make_device("d", seed=6)
        tx, key = create_tx(ledger, anchor, device, "mallory")
        now = ledger.clock.now()
        env = identity.sign(canonical_json(tx.payload).encode(), enrolled[1], now)
        height = ledger.height
        with pytest.raises(AuthorizationError):
            ledger.submit(as_tx(tx.payload, env, now))
        assert ledger.height == height and ledger.query(key.token_id) is None

    def test_issue_time_at_or_before_commit(self, anchor, ledger):
        device = identity.make_device("d", seed=4)
        _, token_id = identity.enroll(device, "alice", anchor, ledger)
        token = ledger.query(token_id)
        block = ledger.receipt_for(ledger.chain[-1].tx.tx_id)
        assert block is ledger.chain[-1]
        assert 0 <= token.issue_time <= block.sim_time_committed

    def test_flags_start_all_false(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        cons = ledger.query(token_id).constraints
        assert (cons.revoked, cons.delegated, cons.transferred) == (False, False, False)


class TestQuery:
    def test_read_your_writes_by_device_id(self, anchor, ledger):
        device = identity.make_device("d", seed=5)
        _, token_id = identity.enroll(device, "alice", anchor, ledger)
        resp = identity.puf_respond(device, identity.derive_challenge(anchor, 0))
        assert ledger.query(resp).token_id == token_id

    def test_unknown_key_returns_none(self, ledger):
        assert ledger.query("00" * 32) is None

    def test_query_never_changes_height(self, ledger, enrolled):
        _, _, token_id = enrolled
        h = ledger.height
        ledger.query(token_id)
        ledger.query("00" * 32)
        assert ledger.height == h


class TestSetFlag:
    def test_owner_revokes(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=6), "alice", anchor, ledger
        )
        token = ledger.set_flag(token_id, "revoked", owner_key)
        assert token.constraints.revoked

    def test_non_owner_rejected(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        mallory_key, _ = identity.enroll(
            identity.make_device("mallory-ctl", seed=7), "mallory", anchor, ledger
        )
        with pytest.raises((AuthorizationError, RejectedTransactionError)):
            ledger.set_flag(token_id, "revoked", mallory_key)

    def test_delegation_path(self, anchor, ledger, enrolled):
        # Two-actor trace: alice delegates her device token to bob, after
        # which bob's signature authorizes flag changes and alice's no
        # longer does.
        _, _, token_id = enrolled
        alice_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=8), "alice", anchor, ledger
        )
        bob_key, _ = identity.enroll(
            identity.make_device("bob-ctl", seed=9), "bob", anchor, ledger
        )
        ledger.set_flag(token_id, "delegated", alice_key, delegate_id="bob")
        token = ledger.set_flag(token_id, "revoked", bob_key)
        assert token.constraints.revoked and token.constraints.delegated
        with pytest.raises(AuthorizationError):
            ledger.set_flag(token_id, "revoked", alice_key, value=False)

    def test_revocation_is_final(self, anchor, ledger, enrolled):
        # The owner revokes through a second live token; that token then
        # cannot lift the revocation or change any other flag.
        _, key, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=12), "alice", anchor, ledger
        )
        ledger.set_flag(token_id, "revoked", owner_key)
        height = ledger.height
        for flag, value in (("revoked", False), ("delegated", True), ("transferred", True)):
            with pytest.raises(ValidationError):
                ledger.set_flag(token_id, flag, owner_key, value=value)
        assert ledger.height == height
        assert ledger.query(token_id).constraints.revoked
        env = identity.sign(b"m", key)
        assert identity.verify(env, ledger) is identity.VerifyStatus.BOTTOM

    def test_value_must_be_a_boolean(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=14), "alice", anchor, ledger
        )
        height, token = ledger.height, ledger.query(token_id)
        with pytest.raises(ValidationError):
            ledger.set_flag(token_id, "delegated", owner_key, value="false")
        assert ledger.height == height and ledger.query(token_id) == token
        tx = flag_tx(ledger, token_id, "delegated", owner_key, value="false")
        with pytest.raises(IntegrityViolationError, match="breaks the contract"):
            replay_chain(appended(ledger.chain, tx))

    def test_unknown_token_rejected(self, anchor, ledger, enrolled):
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=16), "alice", anchor, ledger
        )
        height, before = ledger.height, ledger.state.canonical()
        with pytest.raises(ValidationError, match="no token"):
            ledger.set_flag("f" * 64, "revoked", owner_key)
        assert (ledger.height, ledger.state.canonical()) == (height, before)

    def test_unknown_flag_rejected(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        alice_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=10), "alice", anchor, ledger
        )
        with pytest.raises(Exception):
            ledger.set_flag(token_id, "frozen", alice_key)


# Each malformed create_nft edit, and the refusal it gets: the first bad
# field in field order names it (``token_id``, ``token_name``, ``device_id``,
# ``public_key``, ``owner_id``, ``issue_time``, then the token id's
# derivation, then ``challenge_index``). ``{field!r}`` stands for the edited
# payload's value.
NOT_HEX = "non-hexadecimal number found in fromhex() arg at position 0"
NOT_DERIVED = "create_nft token_id is not derived from device_id, public_key and owner_id"
MALFORMED_CREATES = {
    "not an object": (lambda p: 5, "expected a JSON object, got 5"),
    "no device_id": (lambda p: {k: v for k, v in p.items() if k != "device_id"},
                     "missing key(s) ['device_id']"),
    "device_id not hex": (lambda p: dict(p, device_id="zz"), NOT_HEX),
    "public_key not hex": (lambda p: dict(p, public_key="zz"), NOT_HEX),
    "public_key null": (lambda p: dict(p, public_key=None), "expected a JSON string, got None"),
    "owner_id not str": (lambda p: dict(p, owner_id=5), "expected a JSON string, got 5"),
    "token_name not str": (lambda p: dict(p, token_name=["d"]),
                           "expected a JSON string, got ['d']"),
    "issue_time inf": (lambda p: dict(p, issue_time=math.inf), "expected a JSON integer, got inf"),
    "challenge_index not int": (lambda p: dict(p, challenge_index="one"),
                                "expected a JSON integer, got 'one'"),
    # int() would take each of these, so the state would disagree with the
    # signed payload.
    "issue_time fractional": (lambda p: dict(p, issue_time=5.7),
                              "expected a JSON integer, got 5.7"),
    "issue_time bool": (lambda p: dict(p, issue_time=True), "expected a JSON integer, got True"),
    "issue_time whole float": (lambda p: dict(p, issue_time=1.0),
                               "expected a JSON integer, got 1.0"),
    "issue_time string": (lambda p: dict(p, issue_time="12"), "expected a JSON integer, got '12'"),
    "challenge_index string": (lambda p: dict(p, challenge_index="3"),
                               "expected a JSON integer, got '3'"),
    "challenge_index fractional": (lambda p: dict(p, challenge_index=2.9),
                                   "expected a JSON integer, got 2.9"),
    "challenge_index bool": (lambda p: dict(p, challenge_index=True),
                             "expected a JSON integer, got True"),
    "challenge_index whole float": (lambda p: dict(p, challenge_index=1.0),
                                    "expected a JSON integer, got 1.0"),
    # Live verification could derive no challenge from it.
    "challenge_index negative": (lambda p: dict(p, challenge_index=-1),
                                 "create_nft challenge_index must not be negative"),
    "device_id upper case": (lambda p: dict(p, device_id=p["device_id"].upper()),
                             "{device_id!r} is not lower-case hex"),
    "public_key upper case": (lambda p: dict(p, public_key=p["public_key"].upper()),
                              "{public_key!r} is not lower-case hex"),
    "device_id with spaces": (lambda p: dict(p, device_id=p["device_id"][:2] + " "
                                             + p["device_id"][2:]),
                              "{device_id!r} is not lower-case hex"),
    "public_key with spaces": (lambda p: dict(p, public_key=" ".join(
        p["public_key"][i:i + 2] for i in range(0, len(p["public_key"]), 2))),
                               "{public_key!r} is not lower-case hex"),
    "token_id not derived": (lambda p: dict(p, token_id="f" * 64), NOT_DERIVED),
    "unknown key": (lambda p: dict(p, note="x"), "unknown key(s) ['note']"),
    "no challenge_index, unknown key": (lambda p: {
        **{k: v for k, v in p.items() if k != "challenge_index"}, "challenge": 0},
        "missing key(s) ['challenge_index']"),
    # Two bad fields: the first in field order names the refusal.
    "device_id upper case, public_key not hex": (
        lambda p: dict(p, device_id=p["device_id"].upper(), public_key="zz"),
        "{device_id!r} is not lower-case hex"),
    "issue_time bool, owner_id not str": (lambda p: dict(p, issue_time=True, owner_id=5),
                                          "expected a JSON string, got 5"),
    "public_key upper case, token_name not str": (
        lambda p: dict(p, public_key=p["public_key"].upper(), token_name=["d"]),
        "expected a JSON string, got ['d']"),
    "challenge_index whole float, token_id not derived": (
        lambda p: dict(p, challenge_index=1.0, token_id="f" * 64), NOT_DERIVED),
    "token_name not str, token_id not str": (lambda p: dict(p, token_name=["d"], token_id=5),
                                             "expected a JSON string, got 5"),
    "owner_id not str, device_id not hex": (lambda p: dict(p, owner_id=5, device_id="zz"),
                                            NOT_HEX),
    "challenge_index bool, issue_time whole float": (
        lambda p: dict(p, challenge_index=True, issue_time=1.0),
        "expected a JSON integer, got 1.0"),
}


class Str(str):
    """A ``str`` subclass, which JSON decoding never yields."""


# Fields only an in-memory tx can hold, since its payload is otherwise the
# decoding of its message: the contract refuses them as not strings.
HELD_CREATES = {
    f"{name} a str subclass": (lambda p, name=name: dict(p, **{name: Str(p[name])}),
                               f"expected a JSON string, got {{{name}!r}}")
    for name in ("token_id", "token_name", "device_id", "public_key", "owner_id")
}
MALFORMED_EVENTS = {
    "no kind": (lambda p: {k: v for k, v in p.items() if k != "kind"},
                "missing key(s) ['kind']"),
    "workflow_id not str": (lambda p: dict(p, workflow_id=["x"]),
                            "expected a JSON string, got ['x']"),
    "kind not str": (lambda p: dict(p, kind=5), "expected a JSON string, got 5"),
    "sim_time string": (lambda p: dict(p, sim_time="later"),
                        "expected a JSON integer, got 'later'"),
    "sim_time bool": (lambda p: dict(p, sim_time=True), "expected a JSON integer, got True"),
    "sim_time whole float": (lambda p: dict(p, sim_time=1.0), "expected a JSON integer, got 1.0"),
    "kind bool, sim_time whole float": (lambda p: dict(p, kind=True, sim_time=1.0),
                                        "expected a JSON string, got True"),
    "sim_time bool, workflow_id not str": (lambda p: dict(p, sim_time=True, workflow_id=5),
                                           "expected a JSON string, got 5"),
}
HELD_EVENTS = {
    f"{name} a str subclass": (lambda p, name=name: dict(p, **{name: Str(p[name])}),
                               f"expected a JSON string, got {{{name}!r}}")
    for name in ("workflow_id", "kind")
}


def held(tx, payload, signature=None):
    """``tx`` holding ``payload`` as given rather than decoded from its
    message, and ``signature`` if one is given."""
    return Transaction._sealed(payload, canonical_json(payload).encode(), tx.signer,
                               tx.signature if signature is None else signature,
                               tx.sim_time_submitted)


def refusal(message, payload) -> str:
    """A pattern for the contract's whole refusal ``message``, its
    ``{field!r}`` parts filled in from ``payload``."""
    if type(payload) is dict:
        message = message.format_map(payload)
    return f"malformed payload of tx [0-9a-f]{{12}}: {re.escape(message)}$"


class TestMalformedPayload:
    @pytest.mark.parametrize("edit, message", MALFORMED_CREATES.values(),
                             ids=MALFORMED_CREATES.keys())
    def test_malformed_create_rejected_at_ingest(self, anchor, ledger, enrolled, edit, message):
        # Rejected at endorsement, before the clock moves or the contract runs.
        create, _ = create_tx(ledger, anchor, identity.make_device("d", seed=19), "alice")
        height, now, before = ledger.height, ledger.clock.now(), ledger.state.canonical()
        payload = edit(dict(create.payload))
        with pytest.raises(ValidationError, match=refusal(message, payload)):
            ledger.submit(anchor_signed(payload, anchor, now))
        assert (ledger.height, ledger.clock.now()) == (height, now)
        assert ledger.state.canonical() == before

    def test_ill_typed_payload_signed_by_live_key_rejected(self, clock, anchor, ledger,
                                                           enrolled):
        _, key, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=20), "alice", anchor, ledger
        )
        height, now, before = ledger.height, clock.now(), ledger.state.canonical()
        unknown_op = {"op": "burn_nft", "token_id": token_id}
        ill_typed = [
            as_tx(5, identity.sign(b"5", key, now), now),
            flag_tx(ledger, [token_id], "revoked", owner_key),
            as_tx(unknown_op, identity.sign(canonical_json(unknown_op).encode(), key, now), now),
        ]
        for tx in ill_typed:
            with pytest.raises(ValidationError):
                ledger.submit(tx)
        assert (ledger.height, clock.now()) == (height, now)
        assert ledger.state.canonical() == before

    def test_endorsement_rejects_untyped_actor_fields(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=18), "alice", anchor, ledger
        )
        height = ledger.height
        for extra in ({"delegate_id": 7}, {"new_owner": ["bob"]}, {"delegate_id": None}):
            with pytest.raises(ValidationError):
                ledger.submit(flag_tx(ledger, token_id, "delegated", owner_key, **extra))
        assert ledger.height == height

    def test_set_flag_with_an_unknown_key_refused(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=18), "alice", anchor, ledger
        )
        tx = flag_tx(ledger, token_id, "revoked", owner_key, note="x")
        height, before = ledger.height, ledger.state.canonical()
        with pytest.raises(ValidationError, match="unknown key"):
            ledger.submit(tx)
        assert (ledger.height, ledger.state.canonical()) == (height, before)
        with pytest.raises(IntegrityViolationError, match="breaks the contract"):
            replay_chain(appended(ledger.chain, tx))

    def test_endorsement_rejects_event_without_fields(self, ledger, enrolled):
        _, key, _ = enrolled
        now = ledger.clock.now()
        payload = {"op": "record_event", "kind": "k", "sim_time": now}
        env = identity.sign(canonical_json(payload).encode(), key, now)
        with pytest.raises(ValidationError):
            ledger.submit(as_tx(payload, env, now))
        assert ledger.state.event_log == []

    @pytest.mark.parametrize("edit, message", [*MALFORMED_CREATES.values(),
                                               *HELD_CREATES.values()],
                             ids=[*MALFORMED_CREATES, *HELD_CREATES])
    def test_replay_rejects_malformed_create(self, anchor, ledger, enrolled, edit, message):
        assert_replay_refuses(ledger, 0, edit, message)

    @pytest.mark.parametrize("edit, message", [*MALFORMED_EVENTS.values(),
                                               *HELD_EVENTS.values()],
                             ids=[*MALFORMED_EVENTS, *HELD_EVENTS])
    def test_replay_rejects_malformed_event(self, ledger, enrolled, edit, message):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        assert_replay_refuses(ledger, ledger.height - 1, edit, message)

    @pytest.mark.parametrize("bad", [{1: "a", "b": 2}, b"x", object()],
                             ids=["mixed int and str keys", "bytes", "object"])
    @pytest.mark.parametrize("call", [
        lambda ledger, anchor, key, token_id, bad: ledger.record_event(
            "wf", "k", {"v": bad}, key),
        lambda ledger, anchor, key, token_id, bad: ledger.set_flag(
            token_id, "delegated", key, delegate_id=bad),
        lambda ledger, anchor, key, token_id, bad: ledger.create_nft(
            b"\x01" * 16, "bob", b"\x02" * 32, anchor, token_name=bad),
        lambda ledger, anchor, key, token_id, bad: Transaction(
            {"v": bad}, token_id, b"\x00" * 64, 0),
    ], ids=["record_event", "set_flag", "create_nft", "Transaction"])
    def test_unencodable_contract_call_rejected(self, clock, anchor, ledger, enrolled,
                                                call, bad):
        # canonical_json cannot encode the payload, so nothing is signed or built.
        _, key, token_id = enrolled
        height, now, before = ledger.height, clock.now(), ledger.state.canonical()
        with pytest.raises(ValidationError, match="canonical JSON"):
            call(ledger, anchor, key, token_id, bad)
        assert (ledger.height, clock.now()) == (height, now)
        assert ledger.state.canonical() == before

    def test_failed_apply_leaves_state_unchanged(self, ledger, enrolled):
        state = ledger.replay()
        tx = ledger.chain[0].tx
        before, signatures = state.canonical(), set(state.signatures)
        # Signed anew, but for the first case, so the contract reaches its
        # other rules; admit does not check signatures.
        fresh = b"\x01" * 64
        for payload, signature, error in (
                (tx.payload, tx.signature, DuplicateTransactionError),
                (dict(tx.payload, device_id="aa", public_key="zz"), fresh, ValidationError),
                ({"op": "record_event", "kind": "k", "sim_time": 0}, fresh, ValidationError),
                (tx.payload, fresh, EnrollmentRejected)):
            with pytest.raises(error):
                state.admit(held(tx, payload, signature))
        assert (state.canonical(), state.signatures) == (before, signatures)


def assert_replay_refuses(ledger, at, edit, message):
    """Block ``at`` holding ``edit`` of its tx's payload, re-hashed, makes
    replay refuse it with ``message``; admitted to the live state under a
    fresh signature, it is refused alike and changes nothing."""
    tx = ledger.chain[at].tx
    payload = edit(dict(tx.payload))
    ledger.chain[at] = rehashed(ledger.chain, at, held(tx, payload))
    with pytest.raises(IntegrityViolationError, match=f"breaks the contract: "
                       f"{refusal(message, payload)}"):
        ledger.replay()
    state = ledger.state
    before, signatures = state.canonical(), set(state.signatures)
    with pytest.raises(ValidationError, match=refusal(message, payload)):
        state.admit(held(tx, payload, b"\x01" * 64))
    assert (state.canonical(), state.signatures) == (before, signatures)


class TestReplay:
    def test_replay_matches_live_state(self, anchor, ledger, enrolled):
        _, key, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=11), "alice", anchor, ledger
        )
        ledger.set_flag(token_id, "delegated", owner_key, delegate_id="bob")
        for i in range(5):
            ledger.submit(record_tx(ledger, key, tag=f"e{i}"))
        replayed = ledger.replay()
        assert replayed == ledger.state
        assert replayed.canonical() == ledger.state.canonical()

    def test_mutated_chain_detected(self, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        block = ledger.chain[-1]
        tampered = Block(
            tx=borrowed(block.tx, {"op": "record_event", "workflow_id": "wf", "kind": "evil",
                                   "payload": {}, "sim_time": 0}, 0),
            block_hash=block.block_hash,
            sim_time_committed=block.sim_time_committed,
        )
        ledger.chain[-1] = tampered
        with pytest.raises(IntegrityViolationError):
            ledger.replay()

    def test_edited_flag_name_detected(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=13), "alice", anchor, ledger
        )
        ledger.set_flag(token_id, "delegated", owner_key, delegate_id="bob")
        at = len(ledger.chain) - 1
        tx = ledger.chain[at].tx
        edited = with_payload(tx, dict(tx.payload, flag="frozen"))
        ledger.chain[at] = rehashed(ledger.chain, at, edited)
        with pytest.raises(IntegrityViolationError):
            ledger.replay()

    def test_event_signed_by_revoked_token_rejected(self, anchor, ledger, enrolled):
        _, key, token_id = enrolled
        owner_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=15), "alice", anchor, ledger
        )
        ledger.set_flag(token_id, "revoked", owner_key)
        tx = record_tx(ledger, key)
        with pytest.raises(RejectedTransactionError):
            ledger.submit(tx)
        with pytest.raises(IntegrityViolationError, match="breaks the contract"):
            replay_chain(appended(ledger.chain, tx))

    def test_rehashed_copy_of_a_committed_block_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        last = ledger.chain[-1]
        height = len(ledger.chain)
        ledger.chain.append(Block(
            tx=last.tx,
            block_hash=compute_block_hash(height, last.block_hash, last.tx,
                                          last.sim_time_committed),
            sim_time_committed=last.sim_time_committed,
        ))
        with pytest.raises(IntegrityViolationError, match="twice"):
            ledger.replay()

    def test_retimed_copy_of_a_committed_tx_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        ledger.submit(tx)
        last = ledger.chain[-1]
        height = len(ledger.chain)
        copy = retimed(tx, ledger.clock.now())
        ledger.chain.append(Block(
            tx=copy,
            block_hash=compute_block_hash(height, last.block_hash, copy,
                                          last.sim_time_committed),
            sim_time_committed=last.sim_time_committed,
        ))
        with pytest.raises(IntegrityViolationError, match="twice"):
            ledger.replay()

    def test_empty_chain_empty_state(self):
        assert replay_chain([]) == RegistryState()

    def test_chain_links(self, ledger, enrolled):
        # Each block hash covers its position and the hash before it.
        _, key, _ = enrolled
        for i in range(3):
            ledger.submit(record_tx(ledger, key, tag=f"t{i}"))
        assert hashes_hold(ledger.chain)

    def retimed_chain(self, ledger, key, step):
        """Three events committed, then block 2 re-timed to ``step`` ms after
        block 1's commit time and the chain re-hashed from there, as an
        editor could."""
        for i in range(3):
            ledger.submit(record_tx(ledger, key, tag=f"t{i}"))
        chain = list(ledger.chain)
        chain[2] = chain[2]._replace(sim_time_committed=chain[1].sim_time_committed + step)
        return relinked(chain)

    def test_falling_commit_time_refused(self, ledger, enrolled):
        _, key, _ = enrolled
        chain = self.retimed_chain(ledger, key, -1)
        with pytest.raises(IntegrityViolationError, match="^commit time falls at height 2$"):
            replay_chain(chain)

    def test_equal_commit_times_replay(self, ledger, enrolled):
        _, key, _ = enrolled
        assert replay_chain(self.retimed_chain(ledger, key, 0)) == ledger.state

    def test_block_hash_of_a_one_tx_block_is_pinned(self):
        """The hashed body is ``height|prev_hash|sim_time_committed|tx_id|
        signer as a JSON string|sim_time_submitted``."""
        tx = Transaction({"op": "y", "kw": -0.5}, 'b"ob\xe9', b"\x02" * 64, -7)
        tx_id = "8612a0885d96fdf736f0e48def87aa04e73a2b5218ee8aa95300c8e3652f28f0"
        assert tx.tx_id == tx_id
        body = f'3|{"ab" * 32}|1500|{tx_id}|"b\\"ob\\u00e9"|-7'
        pinned = "f6ca79561d25d8eb19b4c4a2d827652ab0fa2f6be3ce48288a32990ccd2b1ba4"
        assert hashlib.sha256(body.encode("ascii")).hexdigest() == pinned
        assert compute_block_hash(3, "ab" * 32, tx, 1500) == pinned

    def test_exactly_once(self, ledger, enrolled):
        _, key, _ = enrolled
        seen = set()
        for i in range(4):
            ledger.submit(record_tx(ledger, key, tag=f"u{i}"))
        for block in ledger.chain:
            assert block.tx.tx_id not in seen
            seen.add(block.tx.tx_id)


class TestBatching:
    """The ledger commits one tx per block; batching under load is
    modelled in simnet."""

    def test_time_cut_after_interval(self, clock, ledger, enrolled):
        _, key, _ = enrolled
        start_height = ledger.height
        clock.advance(7)
        tx = record_tx(ledger, key, tag="solo")
        block = ledger.submit(tx)
        assert block is ledger.chain[-1]
        assert ledger.height == start_height + 1
        assert block.tx == tx
        assert block.latency_ms == BLOCK_INTERVAL_MS
        assert block.sim_time_committed == clock.now()


def committed_records(ledger, key, token_id) -> dict:
    """One committed record of each kind: a token, its constraints, a tx
    and the block that holds it."""
    block = ledger.record_event("wf", "k", {"kw": 1.5}, key)
    token = ledger.query(token_id)
    return {"token": token, "constraints": token.constraints, "tx": block.tx,
            "block": block}


def tx_id_holds(tx) -> bool:
    return tx.tx_id == hashlib.sha256(tx.message + tx.signature).hexdigest()


class TestRecords:
    """Blocks, transactions, tokens and their constraints are tuple
    records: read-only, and equal to a copy or plain tuple of their values."""

    @pytest.mark.parametrize("kind", ["token", "constraints", "tx", "block"])
    @pytest.mark.parametrize("assign", [setattr, object.__setattr__],
                             ids=["assignment", "object.__setattr__"])
    def test_committed_record_cannot_change(self, ledger, enrolled, kind, assign):
        _, key, token_id = enrolled
        record = committed_records(ledger, key, token_id)[kind]
        before = tuple(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                assign(record, name, record[-1])
            assert ledger.replay() == ledger.state
        with pytest.raises(AttributeError):
            assign(record, "note", 1)
        assert tuple(record) == before
        assert ledger.replay() == ledger.state

    @pytest.mark.parametrize("trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                      copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_records_survive_round_trips(self, ledger, enrolled, trip):
        _, key, token_id = enrolled
        records = committed_records(ledger, key, token_id)
        for record in records.values():
            back = trip(record)
            assert type(back) is type(record) and back == record
        for kind in ("token", "constraints"):
            assert hash(trip(records[kind])) == hash(records[kind])
        # The message is kept as it was stored, not encoded again.
        tx = Transaction._sealed({"kw": 1}, b'{"kw": 1}', "s", b"\x01" * 64, 0)
        back = trip(tx)
        assert back == tx and back.message == b'{"kw": 1}' and tx_id_holds(back)

    def test_tx_id_holds_however_a_tx_is_built_or_replaced(self, tmp_path, ledger, enrolled):
        _, key, token_id = enrolled
        built = record_tx(ledger, key)
        committed = committed_records(ledger, key, token_id)["tx"]
        ledger.save_chain(tmp_path / "ledger.chain")
        read = read_chain(tmp_path / "ledger.chain")[-1].tx
        assert read == committed
        txs = [built, committed, read]
        for tx in list(txs):
            txs += [tx._replace(signer="other"), tx._replace(sim_time_submitted=-1),
                    tx._replace(signature=b"\x07" * 64), tx._replace(payload={"kw": 2}),
                    copy.copy(tx), copy.deepcopy(tx), pickle.loads(pickle.dumps(tx))]
        assert all(tx_id_holds(tx) for tx in txs)
        assert committed._replace(payload={"kw": 2}).message == b'{"kw":2}'
        with pytest.raises(ValueError, match="unexpected field names"):
            committed._replace(tx_id="0" * 64)

    def test_record_equals_the_plain_tuple_of_its_values(self, ledger, enrolled):
        _, key, token_id = enrolled
        for record in committed_records(ledger, key, token_id).values():
            assert record == tuple(record) and tuple(record) == record
        token = ledger.query(token_id)
        assert hash(token) == hash(tuple(token))
        # Equality covers a tx's derived message and tx_id.
        tx = Transaction._sealed({"kw": 1}, b'{"kw": 1}', "s", b"\x01" * 64, 0)
        assert tx != Transaction({"kw": 1}, "s", b"\x01" * 64, 0)


# The chain file's record, written out here so the tests pin the layout: the
# block hash as 32 raw bytes, the commit and submit sim times as
# little-endian int64, the 64-byte signature, the signer and payload
# lengths (uint16, uint32), then the signer's UTF-8 bytes and the payload.
HEADER = "<32sqq64sHI"
HEADER_SIZE = struct.calcsize(HEADER)
FIELDS = ("block_hash", "committed", "submitted", "signature", "signer", "payload")


def record_bytes(block_hash, committed, submitted, signature, signer, payload) -> bytes:
    """One record of the chain file from its raw fields."""
    return struct.pack(HEADER, block_hash, committed, submitted, signature, len(signer),
                       len(payload)) + signer + payload


def split_records(data: bytes) -> list:
    """The raw fields of each record of a well-formed chain file, as dicts."""
    records, fh = [], io.BytesIO(data)
    while header := fh.read(HEADER_SIZE):
        *fixed, n_signer, n_payload = struct.unpack(HEADER, header)
        records.append(dict(zip(FIELDS, (*fixed, fh.read(n_signer), fh.read(n_payload)))))
    return records


def joined(records) -> bytes:
    return b"".join(record_bytes(**rec) for rec in records)


def cut_out(data: bytes, start: int, stop: int) -> bytes:
    return data[:start] + data[stop:]


def saved_records(ledger, path) -> list:
    ledger.save_chain(path)
    return split_records(path.read_bytes())


# Edits of a record that write a field as a value of another type would be
# written, or leave it out, each a function of the record's raw fields.
RESPELT_FIELDS = {
    # The commit time's eight bytes hold its decimal digits.
    "commit time as string": lambda rec: record_bytes(**dict(
        rec, committed=int.from_bytes(b"%08d" % rec["committed"], "little"))),
    "commit time as float": lambda rec: record_bytes(**dict(
        rec, committed=struct.unpack("<q", struct.pack("<d", rec["committed"]))[0])),
    "commit time missing": lambda rec: cut_out(record_bytes(**rec), 32, 40),
    "submit time as float": lambda rec: record_bytes(**dict(
        rec, submitted=struct.unpack("<q", struct.pack("<d", rec["submitted"]))[0])),
}


class Oversized(bytes):
    """Bytes that report a length past a uint32, as a payload too long for
    its length field would, without holding 4 GiB."""

    def __len__(self):
        return 2 ** 32


def with_tx(block, **changes):
    """``block`` holding its tx with ``changes`` to the tx's stored fields,
    its message and tx_id derived again; the block keeps its hash."""
    fields = dict(zip(Transaction._fields[:4], block.tx), **changes)
    return block._replace(tx=Transaction(**fields))


def with_oversized_payload(block):
    tx = block.tx
    return block._replace(tx=Transaction._sealed(
        tx.payload, Oversized(tx.message), tx.signer, tx.signature, tx.sim_time_submitted))


# Blocks that save_chain cannot store exactly, each an edit of a block.
UNSTORABLE = {
    "signature of 63 bytes": lambda b: with_tx(b, signature=b.tx.signature[:63]),
    "signature of 65 bytes": lambda b: with_tx(b, signature=b.tx.signature + b"\0"),
    "block hash in upper case": lambda b: b._replace(block_hash="AB" * 32),
    "block hash of 31 bytes": lambda b: b._replace(block_hash="ab" * 31),
    "block hash not hex": lambda b: b._replace(block_hash="zz" * 32),
    "block hash with a space": lambda b: b._replace(block_hash="ab " + "ab" * 31),
    "commit time past int64": lambda b: b._replace(sim_time_committed=2 ** 63),
    "commit time below int64": lambda b: b._replace(sim_time_committed=-2 ** 63 - 1),
    "submit time past int64": lambda b: with_tx(b, sim_time_submitted=2 ** 63),
    "signer longer than uint16": lambda b: with_tx(b, signer="s" * 2 ** 16),
    "payload longer than uint32": with_oversized_payload,
    "signer not UTF-8": lambda b: with_tx(b, signer="\ud800"),
}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, anchor, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        loaded = read_chain(path)
        assert replay_chain(loaded) == ledger.state
        # Stable bytes: saving the same chain twice is identical.
        path2 = tmp_path / "chain2"
        ledger.save_chain(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_file_is_length_prefixed_records(self, tmp_path, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key, payload={"text": "\xe9"}))
        records = saved_records(ledger, tmp_path / "ledger.chain")
        assert len(records) == len(ledger.chain) == 2
        assert HEADER_SIZE == 118
        for rec, block in zip(records, ledger.chain):
            tx = block.tx
            assert rec == {"block_hash": bytes.fromhex(block.block_hash),
                           "committed": block.sim_time_committed,
                           "submitted": tx.sim_time_submitted, "signature": tx.signature,
                           "signer": tx.signer.encode(), "payload": tx.message}
        payload = ledger.chain[-1].tx.payload
        assert records[-1]["payload"] == canonical_json(payload).encode()
        assert joined(records) == (tmp_path / "ledger.chain").read_bytes()

    def test_edited_payload_in_saved_chain_rejected(self, tmp_path, ledger, enrolled):
        # tx_id is rebuilt from the stored payload, so the stored block hash
        # no longer matches. A re-hashed edit is not caught here.
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key, payload={"kw": 5}))
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        data = path.read_bytes()
        assert data.count(b'"kw":5') == 1
        path.write_bytes(data.replace(b'"kw":5', b'"kw":7'))
        with pytest.raises(IntegrityViolationError, match="block hash mismatch at height 1"):
            replay_chain(read_chain(path))

    @pytest.mark.parametrize("edit", RESPELT_FIELDS.values(), ids=RESPELT_FIELDS.keys())
    def test_field_spelt_another_way_rejected(self, tmp_path, ledger, enrolled, edit):
        # A record has one spelling of each field: bytes written for another
        # type read as another value, which the block hash does not cover,
        # and a field left out shifts the rest of the record.
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "ledger.chain"
        first, last = saved_records(ledger, path)
        assert last["committed"] and last["submitted"]
        path.write_bytes(record_bytes(**first) + edit(last))
        with pytest.raises(IntegrityViolationError):
            replay_chain(read_chain(path))

    def test_old_format_record_rejected(self, tmp_path, ledger, enrolled):
        # The earlier format: one JSON line per block.
        path = tmp_path / "ledger.chain"
        block = ledger.chain[0]
        tx = block.tx
        line = {"height": 0, "prev_hash": GENESIS_PREV_HASH, "block_hash": block.block_hash,
                "sim_time_committed": block.sim_time_committed,
                "txs": [{"payload": tx.payload, "signer": tx.signer,
                         "signature": tx.signature.hex(),
                         "sim_time_submitted": tx.sim_time_submitted}]}
        path.write_text(json.dumps(line, separators=(",", ":")) + "\n")
        with pytest.raises(IntegrityViolationError, match="malformed chain record 0 at byte 0"):
            read_chain(path)

    def test_load_chain_restores_live_receipts(self, tmp_path, clock, anchor, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        live = ledger.submit(tx)
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        reloaded = LedgerSim(clock, anchor_pk=identity.anchor_public_key(anchor))
        reloaded.load_chain(path)
        restored = reloaded.receipt_for(tx.tx_id)
        assert restored == live and restored is reloaded.chain[-1]
        assert restored.latency_ms == BLOCK_INTERVAL_MS

    @pytest.mark.parametrize("payload", [
        lambda payload: b"",
        lambda payload: payload + payload,
    ], ids=["no tx", "two txs"])
    def test_txs_of_other_than_one_record_refused(self, tmp_path, ledger, enrolled, payload):
        # A record holds one tx: its payload slot holds one JSON value.
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "ledger.chain"
        first, last = saved_records(ledger, path)
        path.write_bytes(joined([first, dict(last, payload=payload(last["payload"]))]))
        at = len(record_bytes(**first))
        with pytest.raises(IntegrityViolationError, match=f"record 1 at byte {at}: payload"):
            read_chain(path)

    def test_load_chain_refused_keeps_the_old_chain(self, tmp_path, ledger, enrolled):
        # The second record repeats the first: it reads at height 1, and
        # replay refuses it.
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        path.write_bytes(path.read_bytes() * 2)
        height, before = ledger.height, ledger.state.canonical()
        with pytest.raises(IntegrityViolationError):
            ledger.load_chain(path)
        assert (ledger.height, ledger.state.canonical()) == (height, before)
        assert ledger.replay() == ledger.state

    def test_load_chain_moves_the_clock_to_the_head(self, tmp_path, anchor, ledger, enrolled):
        # A block appended after a load commits later than the loaded head.
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        head = ledger.chain[-1].sim_time_committed
        reloaded = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(anchor))
        reloaded.load_chain(path)
        assert reloaded.clock.now() == head
        block = reloaded.submit(record_tx(reloaded, key, tag="after"))
        assert block.sim_time_committed > head
        assert replay_chain(reloaded.chain) == reloaded.state

    def test_load_chain_never_moves_the_clock_back(self, tmp_path, anchor, ledger, enrolled):
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        later = SimClock(ledger.clock.now() + 7 * BLOCK_INTERVAL_MS)
        start = later.now()
        LedgerSim(later, anchor_pk=identity.anchor_public_key(anchor)).load_chain(path)
        assert later.now() == start

    def test_refused_load_chain_leaves_the_clock(self, tmp_path, anchor, ledger, enrolled):
        path = tmp_path / "ledger.chain"
        ledger.save_chain(path)
        path.write_bytes(path.read_bytes() * 2)
        fresh = SimClock()
        with pytest.raises(IntegrityViolationError):
            LedgerSim(fresh, anchor_pk=identity.anchor_public_key(anchor)).load_chain(path)
        assert fresh.now() == 0

    def test_length_past_the_file_is_refused(self, tmp_path, ledger, enrolled):
        path = tmp_path / "ledger.chain"
        (rec,) = saved_records(ledger, path)
        data = record_bytes(**rec)
        path.write_bytes(data[:HEADER_SIZE - 4] + struct.pack("<I", 2 ** 32 - 1)
                         + data[HEADER_SIZE:])
        with pytest.raises(IntegrityViolationError, match="record 0 at byte 0: .* past the file"):
            read_chain(path)

    @pytest.mark.parametrize("edit", UNSTORABLE.values(), ids=UNSTORABLE.keys())
    def test_block_it_cannot_store_exactly_is_refused(self, tmp_path, ledger, enrolled, edit):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        ledger.chain[-1] = edit(ledger.chain[-1])
        path = tmp_path / "ledger.chain"
        with pytest.raises(ValidationError, match="block 1 cannot be saved"):
            ledger.save_chain(path)
        assert not path.exists()
        # An existing file is left as it was.
        path.write_bytes(b"old")
        with pytest.raises(ValidationError):
            ledger.save_chain(path)
        assert path.read_bytes() == b"old"


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def reference_eq(a: RegistryState, b: RegistryState) -> bool:
    """State equality as it was first written: compare canonical JSON."""
    return a.canonical() == b.canonical()


# Small domains, so independently drawn values often collide or nearly do.
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.text("ab", max_size=2)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf])
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text("ab", max_size=2), kids, max_size=3)),
    max_leaves=8,
)


def respell(draw, value):
    """``value`` with some numbers recast between int, float and bool and
    some sequences between list and tuple: near twins of ``value``."""
    t = type(value)
    if t is dict:
        return {k: respell(draw, v) for k, v in value.items()}
    if t in (list, tuple):
        kind = draw(st.sampled_from((list, tuple)))
        return kind(respell(draw, v) for v in value)
    if t in (bool, int, float) and draw(st.booleans()):
        try:
            return draw(st.sampled_from((bool, int, float)))(value)
        except (ValueError, OverflowError):
            return value
    return value


@st.composite
def json_pairs(draw):
    """Two JSON values: independent, the second a JSON round trip of the
    first (tuples become lists, nan a new object), or a respelling of it."""
    a = draw(JSON_VALUES)
    how = draw(st.sampled_from(("independent", "round trip", "respelled")))
    if how == "independent":
        return a, draw(JSON_VALUES)
    if how == "round trip":
        return a, json.loads(json.dumps(a))
    return a, respell(draw, a)


def state_with(payload, challenge) -> RegistryState:
    return RegistryState(
        challenge_index={"aa": challenge},
        event_log=[{"workflow_id": "wf", "kind": "k", "payload": payload, "sim_time": 0}],
    )


@settings(max_examples=400, deadline=None)
@given(payloads=json_pairs(), challenges=json_pairs())
@example(payloads=({"kw": 1}, {"kw": 1.0}), challenges=(0, 0))
@example(payloads=({"kw": 1}, {"kw": True}), challenges=(0, 0))
@example(payloads=({"kw": 1.0}, {"kw": True}), challenges=(0, 0))
@example(payloads=({"kw": [0.0]}, {"kw": (-0.0,)}), challenges=(0, 0))
@example(payloads=({}, {}), challenges=((math.nan, "a"), [float("nan"), "a"]))
@example(payloads=({"kw": 0.0}, {"kw": -0.0}), challenges=([0.0], [0.0]))
@example(payloads=({"kw": math.nan}, {"kw": math.nan}), challenges=([math.nan], [math.nan]))
@example(payloads=({"kw": math.inf}, {"kw": -math.inf}), challenges=([math.inf], [math.inf]))
@example(payloads=(["a", 1], ["a", True]), challenges=(0, 0))
@example(payloads=({"kw": 2**53 + 1}, {"kw": 2.0**53}), challenges=(0, 0))
@example(payloads=({}, {}), challenges=([-0.0, 1], [0.0, 1]))
def test_state_equality_matches_canonical_compare(payloads, challenges):
    a = state_with(payloads[0], challenges[0])
    b = state_with(payloads[1], challenges[1])
    assert (a == b) is reference_eq(a, b)
    assert (b == a) is reference_eq(b, a)


# Tokens from small domains, so two drawn tokens often share most fields.
TOKENS = st.builds(
    identity.NftToken,
    token_id=st.sampled_from(("t1", "t2")), token_name=st.sampled_from(("", "n")),
    device_id=st.sampled_from((b"\x01", b"\x02")), public_key=st.just(b"\x03"),
    owner_id=st.sampled_from(("alice", "bob")),
    constraints=st.builds(identity.TokenConstraints, st.booleans(), st.booleans(),
                          st.booleans()),
    issue_time=st.integers(0, 1),
)


@st.composite
def token_pairs(draw):
    """Two token dicts: independent, equal field by field as other objects,
    or the second with one field of one token changed."""
    a = draw(st.dictionaries(st.sampled_from(("t1", "t2")), TOKENS, max_size=2))
    how = draw(st.sampled_from(("independent", "copied", "one field")))
    if how == "independent":
        return a, draw(st.dictionaries(st.sampled_from(("t1", "t2")), TOKENS, max_size=2))
    b = {tid: tok._replace() for tid, tok in a.items()}
    if how == "one field" and b:
        tid = draw(st.sampled_from(sorted(b)))
        other = draw(TOKENS)
        name = draw(st.sampled_from(other._fields))
        b[tid] = b[tid]._replace(**{name: getattr(other, name)})
    return a, b


@settings(max_examples=300, deadline=None)
@given(tokens=token_pairs())
def test_token_equality_matches_canonical_compare(tokens):
    a, b = RegistryState(tokens=tokens[0]), RegistryState(tokens=tokens[1])
    assert (a == b) is reference_eq(a, b)
    assert (b == a) is reference_eq(b, a)
    # A token stays hashable, its hash consistent with its equality.
    for x in tokens[0].values():
        for y in tokens[1].values():
            assert (x == y) is (x.to_record() == y.to_record())
            assert x != y or hash(x) == hash(y)


def test_state_equality_tells_bytes_from_str():
    a, b = state_with({}, "00"), state_with({}, b"00")
    assert a != b and b != a


ANCHOR = identity.setup(128, seed=4321)
OWNERS = ("alice", "bob")
OPS = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 7), st.sampled_from(OWNERS)),
    st.tuples(st.just("event"), st.integers(0, 9), JSON_VALUES),
    st.tuples(st.just("flag"), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from(("revoked", "delegated", "transferred")), st.booleans(),
              st.sampled_from(OWNERS)),
    st.tuples(st.just("advance"), st.sampled_from((1, BLOCK_INTERVAL_MS))),
    st.tuples(st.just("malformed create"), st.integers(0, 7),
              st.sampled_from(sorted(MALFORMED_CREATES))),
    st.tuples(st.just("retime"), st.integers(0, 30)),
    st.tuples(st.just("borrow"), st.integers(0, 30), JSON_VALUES),
)


def contract_tx(ledger, keys, sent, op, args):
    """The tx for one drawn call, and the key it mints (None if no key).
    ``sent`` holds the txs already committed."""
    if op == "create":
        device = identity.make_device(f"dev-{args[0]}", seed=args[0])
        return create_tx(ledger, ANCHOR, device, args[1])
    if op == "malformed create":
        tx, _ = create_tx(ledger, ANCHOR, identity.make_device(f"dev-{args[0]}", seed=args[0]),
                          "alice")
        return anchor_signed(MALFORMED_CREATES[args[1]][0](dict(tx.payload)), ANCHOR,
                             ledger.clock.now()), None
    if op == "retime":
        return retimed(sent[args[0] % len(sent)], ledger.clock.now()), None
    if op == "borrow":
        now = ledger.clock.now()
        payload = {"op": "record_event", "workflow_id": "wf", "kind": "x", "payload": args[1],
                   "sim_time": now}
        return borrowed(sent[args[0] % len(sent)], payload, now), None
    if op == "event":
        return record_tx(ledger, keys[args[0] % len(keys)], payload=args[1]), None
    signer, target, flag, value, other = args
    # A flag set true reads its own subject key; no other set_flag carries one.
    extra = {_SUBJECT_KEYS[flag]: other} if value and flag in _SUBJECT_KEYS else {}
    return flag_tx(ledger, keys[target % len(keys)].token_id, flag,
                   keys[signer % len(keys)], value=value, **extra), None


@settings(max_examples=100, deadline=None)
@given(devices=st.integers(1, 4), ops=st.lists(OPS, max_size=25))
def test_replay_of_saved_chain_equals_live_state(devices, ops):
    """Any sequence of contract calls, committed one tx per block through
    ``submit``, replays from its saved file to the live state. Rejected
    calls are skipped, and malformed enrollments, re-timed copies of earlier
    txs and earlier signatures moved onto new payloads are rejected."""
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    keys = [identity.enroll(identity.make_device(f"ctl-{i}", seed=100 + i), OWNERS[i % 2],
                            ANCHOR, ledger)[0]
            for i in range(devices)]
    sent = [block.tx for block in ledger.chain]
    for op, *args in ops:
        if op == "advance":
            ledger.clock.advance(args[0])
            continue
        tx, key = contract_tx(ledger, keys, sent, op, args)
        try:
            ledger.submit(tx)
        except SimError:
            continue
        assert op not in ("malformed create", "retime", "borrow")
        sent.append(tx)
        if key is not None:
            keys.append(key)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.chain")
        ledger.save_chain(path)
        replayed = replay_chain(read_chain(path))
    assert replayed == ledger.state
    assert replayed.canonical() == ledger.state.canonical()


# Characters a JSON writer must escape, or may write in more than one way.
AWKWARD_CHARS = 'a"\\/\n\t\x00\x1e\x7f \xe9☃\U0001f600'
AWKWARD_TEXT = st.text(st.sampled_from(AWKWARD_CHARS + "\ud800"), max_size=6)
AWKWARD_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | AWKWARD_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(AWKWARD_TEXT, kids, max_size=3),
    max_leaves=8,
)
# A signer is stored as UTF-8, which holds no lone surrogate.
SIGNER_TEXT = st.text(st.sampled_from(AWKWARD_CHARS), max_size=6)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def chains(draw):
    """Hash-linked blocks of one tx each with any payload, signer,
    signature and sim times the file can hold. Saving and reading check no
    signature and no contract rule."""
    chain, prev = [], GENESIS_PREV_HASH
    for height in range(draw(st.integers(0, 4))):
        tx = Transaction(draw(st.dictionaries(AWKWARD_TEXT, AWKWARD_JSON, max_size=4)),
                         draw(SIGNER_TEXT), draw(st.binary(min_size=64, max_size=64)),
                         draw(INT64))
        committed = draw(INT64)
        chain.append(Block(tx, compute_block_hash(height, prev, tx, committed), committed))
        prev = chain[-1].block_hash
    return chain


def saved_bytes(chain) -> bytes:
    ledger = LedgerSim(SimClock(), anchor_pk=b"")
    ledger.chain = chain
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.chain")
        ledger.save_chain(path)
        with open(path, "rb") as fh:
            return fh.read()


def read_back(data: bytes) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.chain")
        with open(path, "wb") as fh:
            fh.write(data)
        return read_chain(path)


def stored_fields(chain) -> list:
    """Every stored field of ``chain``, each payload as its signed message,
    and each derived ``tx_id``."""
    return [(block_hash, committed,
             (tx.message, tx.signer, tx.signature, tx.sim_time_submitted, tx.tx_id))
            for tx, block_hash, committed in chain]


def reference_read(data: bytes) -> list:
    """``read_chain`` written plainly, the reference it must agree with: each
    record read from an ``io.BytesIO``, its header by ``struct.unpack`` and
    its payload by ``json.loads``. Returns the stored fields of each block
    as ``stored_fields`` gives them, or raises ``ValueError``."""
    blocks, fh = [], io.BytesIO(data)
    while header := fh.read(HEADER_SIZE):
        if len(header) < HEADER_SIZE:
            raise ValueError("header cut short")
        block_hash, committed, submitted, signature, n_signer, n_payload = struct.unpack(
            HEADER, header)
        signer, message = fh.read(n_signer), fh.read(n_payload)
        if len(signer) < n_signer or len(message) < n_payload:
            raise ValueError("record runs past the file")
        text = message.decode("ascii")
        # json.loads skips whitespace around the value; a payload holds none.
        if text.strip(" \t\n\r") != text:
            raise ValueError("whitespace around the payload")
        json.loads(text)
        blocks.append((block_hash.hex(), committed,
                       (message, signer.decode("utf-8"), signature, submitted,
                        hashlib.sha256(message + signature).hexdigest())))
    return blocks


def read_outcome(data: bytes):
    """The stored fields ``read_chain`` reads from ``data``, or None if it
    refuses the file."""
    try:
        return stored_fields(read_back(data))
    except IntegrityViolationError:
        return None


def reference_outcome(data: bytes):
    try:
        return reference_read(data)
    # A payload nested past the recursion limit stops json.loads.
    except (ValueError, RecursionError):
        return None


def hashes_hold(chain) -> bool:
    """Whether ``replay_chain``'s check before the contract passes: each
    block hash over its position and the hash before it."""
    prev = GENESIS_PREV_HASH
    for height, (tx, block_hash, committed) in enumerate(chain):
        if block_hash != compute_block_hash(height, prev, tx, committed):
            return False
        prev = block_hash
    return True


def record_ends(data: bytes) -> list:
    """The offset at which each record of a well-formed file ends."""
    return list(itertools.accumulate(len(record_bytes(**rec)) for rec in split_records(data)))


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_saved_chain_reads_back_equal(chain):
    """Reading a saved chain gives back every stored field, and saving what
    was read gives the same bytes."""
    data = saved_bytes(chain)
    back = read_back(data)
    assert stored_fields(back) == stored_fields(chain)
    assert back == chain
    assert hashes_hold(back)
    assert saved_bytes(back) == data


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_read_chain_agrees_with_the_reference_reader(chain):
    data = saved_bytes(chain)
    assert read_outcome(data) == reference_outcome(data) == stored_fields(chain)


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_saved_record_is_the_header_signer_and_sorted_payload(chain):
    expected = b"".join(
        record_bytes(bytes.fromhex(block_hash), committed, tx.sim_time_submitted, tx.signature,
                     tx.signer.encode("utf-8"),
                     json.dumps(tx.payload, sort_keys=True, separators=(",", ":")).encode())
        for tx, block_hash, committed in chain)
    assert saved_bytes(chain) == expected


@settings(max_examples=200, deadline=None)
@given(chain=chains().filter(bool), data=st.data())
def test_any_single_byte_change_is_refused(chain, data):
    """Every byte of a record is a field the block hash covers, a length, or
    part of the signer or payload: with one byte changed, ``read_chain``
    refuses the file or a block fails the hash checks ``replay_chain``
    makes before the contract. A third of the changes fall in a header."""
    saved = bytearray(saved_bytes(chain))
    starts = [0, *record_ends(bytes(saved))[:-1]]
    headers = [start + k for start in starts for k in range(HEADER_SIZE)]
    i = data.draw(st.sampled_from(headers) | st.integers(0, len(saved) - 1))
    saved[i] = data.draw(st.integers(0, 255).filter(lambda byte: byte != saved[i]))
    try:
        back = read_back(bytes(saved))
    except IntegrityViolationError:
        return
    assert not hashes_hold(back)


@functools.cache
def live_chain_bytes() -> bytes:
    return saved_bytes(list(live_chain()))


def test_every_byte_of_a_live_chain_is_checked():
    """Each bit 0 and bit 7 flipped, one byte at a time, in a chain the
    contract admits: ``read_chain`` then ``replay_chain`` raises."""
    saved = live_chain_bytes()
    for i in range(len(saved)):
        for bit in (0x01, 0x80):
            edited = bytearray(saved)
            edited[i] ^= bit
            with pytest.raises(IntegrityViolationError):
                replay_chain(read_back(bytes(edited)))


@settings(max_examples=100, deadline=None)
@given(chain=chains(), data=st.data())
def test_a_cut_off_a_record_boundary_is_refused(chain, data):
    """A file cut anywhere but at the end of a record is refused, and the
    error names the record the cut falls in and the byte it starts at. A
    cut at a record's end leaves the chain's prefix, which reads and
    replays: no record pins the chain's length; a signed head at the end of
    the file would."""
    saved = saved_bytes(chain)
    ends = record_ends(saved)
    boundaries = [0, *ends]
    cut = data.draw(st.sampled_from(boundaries) | st.integers(0, len(saved)))
    if cut in boundaries:
        assert stored_fields(read_back(saved[:cut])) == stored_fields(
            chain[:boundaries.index(cut)])
        return
    record = sum(end < cut for end in ends)
    with pytest.raises(IntegrityViolationError,
                       match=f"record {record} at byte {boundaries[record]}: "):
        read_back(saved[:cut])


# Bytes an edit puts into a saved file: JSON punctuation, spellings of
# numbers and literals, whitespace, and any byte.
EDIT_BYTES = st.sampled_from(b'{}[]":,0123456789aeflnrstu-+.E \\/\n\x00\xe9') | st.integers(0, 255)


@settings(max_examples=200, deadline=None)
@given(chain=chains(), data=st.data())
def test_read_chain_agrees_with_the_reference_reader_on_byte_edits(chain, data):
    """One to three bytes of a saved file replaced, inserted or deleted:
    ``read_chain`` reads the same stored fields as the reference reader, or
    both refuse the file. Half the edits fall in a header, where the
    lengths are."""
    saved = bytearray(saved_bytes(chain))
    starts = [0, *record_ends(bytes(saved))[:-1]] if saved else []
    headers = [start + k for start in starts for k in range(HEADER_SIZE)]
    for _ in range(data.draw(st.integers(1, 3))):
        how = data.draw(st.sampled_from(("replace", "insert", "delete")) if saved
                        else st.just("insert"))
        top = len(saved) - (how != "insert")
        i = data.draw((st.sampled_from([h for h in headers if h <= top]) if headers else
                       st.nothing()) | st.integers(0, top))
        if how == "delete":
            del saved[i]
        elif how == "insert":
            saved.insert(i, data.draw(EDIT_BYTES))
        else:
            saved[i] = data.draw(EDIT_BYTES)
    assert read_outcome(bytes(saved)) == reference_outcome(bytes(saved))


@functools.cache
def live_chain() -> tuple:
    """A chain the ledger built, one tx per block: three enrollments, an
    event whose payload needs escapes, and a delegation."""
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    alice, _ = identity.enroll(identity.make_device("ctl-a", seed=201), "alice", ANCHOR, ledger)
    for i, owner in enumerate(OWNERS):
        identity.enroll(identity.make_device(f"dev-{i}", seed=202 + i), owner, ANCHOR, ledger)
    ledger.record_event("wf", "note", {"text": 'say "hi"\\\n \xe9'}, alice)
    ledger.clock.advance(7)
    ledger.set_flag(alice.token_id, "delegated", alice, delegate_id="bob")
    return tuple(ledger.chain)


@functools.cache
def live_chain_records() -> tuple:
    """The raw fields of each saved record of ``live_chain()``."""
    return tuple(split_records(live_chain_bytes()))


# Ways to write a payload that decode to the same object as its signed
# message but are other bytes.
RESPELLINGS = {
    "space after each colon": lambda payload: json.dumps(payload, sort_keys=True,
                                                         separators=(",", ": ")),
    "keys in reverse order": lambda payload: json.dumps(
        dict(sorted(payload.items(), reverse=True)), separators=(",", ":")),
}


def respelt(record: dict, how: str) -> dict:
    """``record`` with its tx's payload written another way; its hash is
    left as it was."""
    return dict(record, payload=RESPELLINGS[how](json.loads(record["payload"])).encode())


def relinked(chain) -> list:
    """``chain`` with every block hash recomputed, as an editor could."""
    out = list(chain)
    for at, block in enumerate(out):
        out[at] = rehashed(out, at, block.tx)
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data(), how=st.sampled_from(sorted(RESPELLINGS)))
def test_respelt_copy_of_a_committed_tx_is_refused(data, how):
    """A committed tx copied onto the chain with its payload spelt another
    way has another tx_id, but its signature appears twice."""
    records = live_chain_records()
    at = data.draw(st.integers(0, len(records) - 1))
    copy = read_back(joined([respelt(records[at], how)]))[0].tx
    assert copy.tx_id != live_chain()[at].tx.tx_id
    with pytest.raises(IntegrityViolationError, match="appears twice"):
        replay_chain(appended(read_back(joined(records)), copy))


@settings(max_examples=20, deadline=None)
@given(data=st.data(), how=st.sampled_from(sorted(RESPELLINGS)))
def test_tx_respelt_in_a_loaded_chain_cannot_be_submitted_again(data, how):
    """One tx of a saved chain respelt in place and the chain re-hashed:
    it loads, and its original is then a duplicate."""
    records = list(live_chain_records())
    at = data.draw(st.integers(0, len(records) - 1))
    records[at] = respelt(records[at], how)
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.chain")
        with open(path, "wb") as fh:
            fh.write(saved_bytes(relinked(read_back(joined(records)))))
        ledger.load_chain(path)
    original = live_chain()[at].tx
    assert ledger.chain[at].tx.tx_id != original.tx_id
    with pytest.raises(DuplicateTransactionError):
        ledger.submit(original)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_space_outside_the_payload_is_refused(data):
    """A space inserted anywhere but inside a payload (in a header or a
    signer, or between records) moves every field after it: ``read_chain``
    refuses the file or ``replay_chain`` a block. (Inside a payload it
    pushes the payload's last byte out of its slot.)"""
    saved = live_chain_bytes()
    ends = record_ends(saved)
    payloads = [(end - len(rec["payload"]), end)
                for rec, end in zip(live_chain_records(), ends)]
    i = data.draw(st.sampled_from([i for i in range(len(saved) + 1)
                                   if not any(start < i < end for start, end in payloads)]))
    with pytest.raises(IntegrityViolationError):
        replay_chain(read_back(saved[:i] + b" " + saved[i:]))


def reordered(items, data):
    """``items`` with two of them swapped or one moved, and the first index
    that then holds another item."""
    i, j = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2,
                              unique=True))
    out = list(items)
    if data.draw(st.booleans()):
        out[i], out[j] = out[j], out[i]
    else:
        out.insert(j, out.pop(i))
    return out, min(i, j)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), saved=st.booleans())
def test_replay_refuses_a_reordered_chain(data, saved):
    """Two blocks of a committed chain swapped, or one moved, in memory or
    as records of its saved file: only the block hash binds a block to its
    position, and replay names the first height whose block changed."""
    if saved:
        records, first = reordered(live_chain_records(), data)
        chain = read_back(joined(records))
    else:
        chain, first = reordered(live_chain(), data)
    with pytest.raises(IntegrityViolationError, match=f"block hash mismatch at height {first}$"):
        replay_chain(chain)


DROP = object()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_single_field_edit_of_a_saved_chain_is_refused(data):
    """Change one field of one saved record, or edit, drop or retype one key
    of its payload, without re-hashing and with the lengths kept right:
    ``read_chain`` then ``replay_chain`` raises
    ``IntegrityViolationError``. Swapped-in values include every value the
    chain already holds, such as another live token as ``signer``."""
    records = [dict(rec) for rec in live_chain_records()]
    at = data.draw(st.integers(0, len(records) - 1))
    record = records[at]
    name = data.draw(st.sampled_from(FIELDS))
    if name == "payload" and data.draw(st.booleans()):
        payload = json.loads(record["payload"])
        held = [value for rec in records for value in json.loads(rec["payload"]).values()]
        key = data.draw(st.sampled_from(sorted(payload)))
        value = data.draw(st.just(DROP) | st.sampled_from(held) | JSON_VALUES | st.integers())
        if value is DROP:
            del payload[key]
        else:
            assume(canonical_json(value) != canonical_json(payload[key]))
            payload[key] = value
        record["payload"] = canonical_json(payload).encode()
    else:
        fresh = {"block_hash": st.binary(min_size=32, max_size=32),
                 "signature": st.binary(min_size=64, max_size=64),
                 "committed": INT64, "submitted": INT64}.get(name, st.binary(max_size=80))
        value = data.draw(st.sampled_from([rec[name] for rec in records]) | fresh)
        assume(value != record[name])
        record[name] = value
    with pytest.raises(IntegrityViolationError):
        replay_chain(read_back(joined(records)))


def appended(chain, tx):
    """``chain`` with one more block holding ``tx``, committed
    ``BLOCK_INTERVAL_MS`` after the head and hashed as an editor could."""
    prev, head = (chain[-1].block_hash, chain[-1].sim_time_committed) if chain else (
        GENESIS_PREV_HASH, 0)
    committed = head + BLOCK_INTERVAL_MS
    return [*chain, Block(tx, compute_block_hash(len(chain), prev, tx, committed), committed)]


# Calls the contract refuses whoever signs them.
REFUSED_OPS = ("device create", "malformed create", "event lacking", "event extra key",
               "event retyped", "flag lacking", "flag extra key", "flag empty subject",
               "repeat")
DIFF_OPS = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 7), st.sampled_from(OWNERS)),
    st.tuples(st.just("device create"), st.integers(0, 7), st.integers(0, 9)),
    st.tuples(st.just("malformed create"), st.integers(0, 7),
              st.sampled_from(sorted(MALFORMED_CREATES))),
    st.tuples(st.just("event"), st.integers(0, 9), JSON_VALUES),
    st.tuples(st.just("event lacking"), st.integers(0, 9),
              st.sampled_from(("workflow_id", "kind", "payload", "sim_time"))),
    st.tuples(st.just("event extra key"), st.integers(0, 9),
              st.text(max_size=8).filter(lambda k: k not in _CONTRACT_KEYS["record_event"][0]),
              JSON_VALUES),
    st.tuples(st.just("event retyped"), st.integers(0, 9),
              st.fixed_dictionaries({}, optional={
                  "workflow_id": JSON_VALUES.filter(lambda v: type(v) is not str),
                  "kind": JSON_VALUES.filter(lambda v: type(v) is not str),
                  "sim_time": JSON_VALUES.filter(lambda v: type(v) is not int),
              }).filter(bool)),
    st.tuples(st.just("flag"), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from(("revoked", "delegated", "transferred", "frozen")),
              st.booleans(), st.sampled_from((*OWNERS, 7))),
    st.tuples(st.just("flag lacking"), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from(("revoked", "delegated", "transferred")),
              st.sets(st.sampled_from(("value", "sim_time")), min_size=1)),
    # A subject key that its flag and value do not read.
    st.tuples(st.just("flag extra key"), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from(("revoked", "delegated", "transferred")), st.booleans(),
              st.sampled_from(sorted(_SUBJECT_KEYS.values()))).filter(
        lambda t: not (t[4] and _SUBJECT_KEYS.get(t[3]) == t[5])),
    # A flag set true whose subject key is the empty string.
    st.tuples(st.just("flag empty subject"), st.integers(0, 9), st.integers(0, 9),
              st.sampled_from(sorted(_SUBJECT_KEYS))),
    # A committed tx submitted again, exactly or re-timed.
    st.tuples(st.just("repeat"), st.integers(0, 30), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from((1, BLOCK_INTERVAL_MS))),
)


def signed_call(ledger, keys, op, args):
    """The tx for one drawn call, signed by the drawn key (whose token may
    be revoked) or, for a repeat, a committed tx again, and the key it mints."""
    if op in ("create", "malformed create", "event", "flag"):
        return contract_tx(ledger, keys, [], op, args)
    if op == "repeat":
        sent = [block.tx for block in ledger.chain]
        tx = sent[args[0] % len(sent)]
        return (retimed(tx, ledger.clock.now()) if args[1] else tx), None
    key = keys[args[0] % len(keys)]
    if op == "device create":
        create, _ = create_tx(ledger, ANCHOR, identity.make_device(f"dev-{args[1]}",
                                                                   seed=args[1]), "alice")
        payload = create.payload
    elif op == "event lacking":
        tx = record_tx(ledger, key)
        payload = {k: v for k, v in tx.payload.items() if k != args[1]}
    elif op == "event extra key":
        payload = dict(record_tx(ledger, key).payload, **{args[1]: args[2]})
    elif op == "event retyped":
        payload = dict(record_tx(ledger, key).payload, **args[1])
    elif op == "flag lacking":
        target, flag, dropped = args[1:]
        tx = flag_tx(ledger, keys[target % len(keys)].token_id, flag, key)
        payload = {k: v for k, v in tx.payload.items() if k not in dropped}
    elif op == "flag empty subject":
        target, flag = args[1:]
        return flag_tx(ledger, keys[target % len(keys)].token_id, flag, key,
                       **{_SUBJECT_KEYS[flag]: ""}), None
    else:
        target, flag, value, name = args[1:]
        return flag_tx(ledger, keys[target % len(keys)].token_id, flag, key, value=value,
                       **{name: "bob"}), None
    now = ledger.clock.now()
    return as_tx(payload, identity.sign(canonical_json(payload).encode(), key, now), now), None


@settings(max_examples=100, deadline=None)
@given(devices=st.integers(1, 4), ops=st.lists(DIFF_OPS, max_size=25))
# bob's live token revokes alice's token: submit refuses it as unauthorised.
@example(devices=2, ops=[("flag", 1, 0, "revoked", True, "alice")])
# The owner revokes a token, then tries to delegate it.
@example(devices=3, ops=[("flag", 2, 0, "revoked", True, "alice"),
                         ("flag", 2, 0, "delegated", True, "bob")])
# A revoked token signs an event: submit's signature stage refuses it.
@example(devices=3, ops=[("flag", 2, 0, "revoked", True, "alice"),
                         ("event", 0, {"kw": 1})])
# An owner-signed set_flag naming neither value nor time.
@example(devices=1, ops=[("flag lacking", 0, 0, "delegated", {"value", "sim_time"})])
# An event carrying one more signed key.
@example(devices=1, ops=[("event extra key", 0, "evil", 1)])
# An event whose fields have the wrong JSON types.
@example(devices=1, ops=[("event retyped", 0,
                          {"workflow_id": ["x"], "kind": 5, "sim_time": "later"})])
# An owner-signed transfer set false that names a new owner.
@example(devices=1, ops=[("flag extra key", 0, 0, "transferred", False, "new_owner")])
# An owner-signed transfer whose new owner is the empty string.
@example(devices=1, ops=[("flag empty subject", 0, 0, "transferred")])
# The enrollment tx submitted again, re-timed.
@example(devices=1, ops=[("repeat", 0, True)])
def test_replay_refuses_exactly_what_submit_refuses(devices, ops):
    """``submit`` and replay apply one contract. With valid signatures, a
    tx that ``submit`` refuses, appended to the chain as a re-hashed block,
    makes replay raise ``IntegrityViolationError``, and the accepted txs
    replay to the live state. Only a revoked signer fails the signature
    stage."""
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    keys = [identity.enroll(identity.make_device(f"ctl-{i}", seed=100 + i), OWNERS[i % 2],
                            ANCHOR, ledger)[0]
            for i in range(devices)]
    for op, *args in ops:
        if op == "advance":
            ledger.clock.advance(args[0])
            continue
        tx, key = signed_call(ledger, keys, op, args)
        signer = ledger.query(tx.signer)
        revoked = signer is not None and signer.constraints.revoked
        try:
            ledger.submit(tx)
        except SimError as exc:
            assert isinstance(exc, RejectedTransactionError) == revoked
            with pytest.raises(IntegrityViolationError, match="breaks the contract"):
                replay_chain(appended(ledger.chain, tx))
            continue
        assert op not in REFUSED_OPS
        if key is not None:
            keys.append(key)
        assert replay_chain(ledger.chain) == ledger.state


def frames(fn, arg) -> int:
    """The Python frames ``fn(arg)`` enters, counted as ``sys.setprofile``
    "call" events, with the collector off so that no finalizer adds one."""
    count = 0

    def profile(frame, event, _):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return count


@pytest.mark.parametrize("op, replay_frames", [("create_nft", 3), ("record_event", 2)])
def test_python_frames_per_block(tmp_path, op, replay_frames):
    """``read_chain`` enters at most one Python frame per block, and
    ``replay_chain`` at most three per create_nft block and two per
    record_event block (its hash, the contract and, for a create, the token
    id), counted over the last four of nine blocks. A change that adds a
    call per block fails here without any timing."""
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    key, _ = identity.enroll(identity.make_device("ctl", seed=1), "alice", ANCHOR, ledger)
    for i in range(8):
        if op == "create_nft":
            ledger.create_nft(bytes([i]) * 16, OWNERS[i % 2], bytes([i]) * 32, ANCHOR)
        else:
            ledger.record_event("wf", "k", {"i": i}, key)
    whole, head = tmp_path / "whole", tmp_path / "head"
    ledger.save_chain(whole)
    head.write_bytes(joined(split_records(whole.read_bytes())[:5]))
    chain = ledger.chain
    assert len(chain) == 9
    assert (frames(replay_chain, chain) - frames(replay_chain, chain[:5])) / 4 <= replay_frames
    assert (frames(read_chain, whole) - frames(read_chain, head)) / 4 <= 1
