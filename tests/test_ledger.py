import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plexisim import identity
from plexisim import ledger as ledger_mod
from plexisim import jsonread as jr
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
    return dataclasses.replace(tx, sim_time_submitted=now)


def borrowed(tx, payload, now):
    """``tx``'s signer and signature moved onto another payload."""
    return Transaction(payload, tx.signer, tx.signature, now)


def anchor_signed(payload, anchor, now):
    return as_tx(payload, identity.sign_as_anchor(canonical_json(payload).encode(), anchor, now),
                 now)


def rehashed(block, *txs):
    """``block`` holding ``txs``, its hash recomputed as an editor could."""
    return dataclasses.replace(block, tx_list=txs,
                               block_hash=compute_block_hash(block.height, block.prev_hash, txs,
                                                             block.sim_time_committed))


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
        receipt = ledger.submit(record_tx(ledger, key))
        assert receipt.latency_ms >= 0
        assert receipt.committed_at >= receipt.submitted_at

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
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        assert read_chain(path)[-1].tx_list[0].tx_id == tx.tx_id

    @pytest.mark.parametrize("payload", [{2: "a", 10: "b"}, {"x": [{"y": {1: "a"}}]}],
                             ids=["top-level", "nested"])
    def test_non_string_key_rejected(self, ledger, enrolled, payload):
        # JSON writes 2 as "2", so the saved chain would replay another state.
        _, key, _ = enrolled
        height, now = ledger.height, ledger.clock.now()
        with pytest.raises(ValidationError, match="non-string key"):
            ledger.record_event("wf", "k", payload, key)
        assert (ledger.height, ledger.clock.now()) == (height, now)
        assert ledger.state.event_log == []

    def test_caller_edit_after_commit_changes_nothing(self, tmp_path, ledger, enrolled):
        _, key, _ = enrolled
        p = {"kw": 5}
        receipt = ledger.record_event("wf", "k", p, key)
        p["kw"] = 500
        assert ledger.state.event_log[-1]["payload"] == {"kw": 5}
        tx = ledger.chain[-1].tx_list[0]
        assert (tx.tx_id, tx.payload["payload"]) == (receipt.tx_id, {"kw": 5})
        path = tmp_path / "chain.jsonl"
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
        path = tmp_path / "chain.jsonl"
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
        payload = ledger.chain[-1].tx_list[0].payload
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
        with pytest.raises(IntegrityViolationError):
            replay_chain(appended(ledger.chain, tx))

    def test_bad_envelope_never_commits(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        bad = borrowed(tx, dict(tx.payload, kind=tx.payload["kind"] + "!"), ledger.clock.now())
        height_before = ledger.height
        with pytest.raises(RejectedTransactionError):
            ledger.submit(bad)
        assert ledger.height == height_before
        for block in ledger.chain:
            assert bad.tx_id not in [t.tx_id for t in block.tx_list]


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
        receipt = ledger.receipt_for(ledger.chain[-1].tx_list[0].tx_id)
        assert 0 <= token.issue_time <= receipt.committed_at

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
        with pytest.raises(IntegrityViolationError):
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


MALFORMED_CREATES = {
    "not an object": lambda p: 5,
    "no device_id": lambda p: {k: v for k, v in p.items() if k != "device_id"},
    "device_id not hex": lambda p: dict(p, device_id="zz"),
    "public_key not hex": lambda p: dict(p, public_key="zz"),
    "public_key null": lambda p: dict(p, public_key=None),
    "owner_id not str": lambda p: dict(p, owner_id=5),
    "token_name not str": lambda p: dict(p, token_name=["d"]),
    "issue_time inf": lambda p: dict(p, issue_time=math.inf),
    "challenge_index not int": lambda p: dict(p, challenge_index="one"),
    # int() would take each of these, so the state would disagree with the
    # signed payload.
    "issue_time fractional": lambda p: dict(p, issue_time=5.7),
    "issue_time bool": lambda p: dict(p, issue_time=True),
    "issue_time string": lambda p: dict(p, issue_time="12"),
    "challenge_index string": lambda p: dict(p, challenge_index="3"),
    "challenge_index fractional": lambda p: dict(p, challenge_index=2.9),
    # Live verification could derive no challenge from it.
    "challenge_index negative": lambda p: dict(p, challenge_index=-1),
    "device_id upper case": lambda p: dict(p, device_id=p["device_id"].upper()),
    "public_key upper case": lambda p: dict(p, public_key=p["public_key"].upper()),
    "device_id with spaces": lambda p: dict(p, device_id=p["device_id"][:2] + " "
                                            + p["device_id"][2:]),
    "token_id not derived": lambda p: dict(p, token_id="f" * 64),
    "unknown key": lambda p: dict(p, note="x"),
    "no challenge_index, unknown key": lambda p: {
        **{k: v for k, v in p.items() if k != "challenge_index"}, "challenge": 0},
}


class TestMalformedPayload:
    @pytest.mark.parametrize("edit", MALFORMED_CREATES.values(), ids=MALFORMED_CREATES.keys())
    def test_malformed_create_rejected_at_ingest(self, anchor, ledger, enrolled, edit):
        # Rejected at endorsement, before the clock moves or apply runs.
        create, _ = create_tx(ledger, anchor, identity.make_device("d", seed=19), "alice")
        height, now, before = ledger.height, ledger.clock.now(), ledger.state.canonical()
        with pytest.raises(ValidationError):
            ledger.submit(anchor_signed(edit(dict(create.payload)), anchor, now))
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
        with pytest.raises(IntegrityViolationError):
            replay_chain(appended(ledger.chain, tx))

    def test_endorsement_rejects_event_without_fields(self, ledger, enrolled):
        _, key, _ = enrolled
        now = ledger.clock.now()
        payload = {"op": "record_event", "kind": "k", "sim_time": now}
        env = identity.sign(canonical_json(payload).encode(), key, now)
        with pytest.raises(ValidationError):
            ledger.submit(as_tx(payload, env, now))
        assert ledger.state.event_log == []

    @pytest.mark.parametrize("edit", MALFORMED_CREATES.values(), ids=MALFORMED_CREATES.keys())
    def test_replay_rejects_malformed_create(self, anchor, ledger, enrolled, edit):
        # Re-hashed, so the block hash passes and apply sees the payload.
        block = ledger.chain[0]
        (tx,) = block.tx_list
        ledger.chain[0] = rehashed(block, dataclasses.replace(tx, payload=edit(dict(tx.payload))))
        with pytest.raises(IntegrityViolationError):
            ledger.replay()

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
        (tx,) = ledger.chain[0].tx_list
        before = state.canonical()
        for payload in (dict(tx.payload, device_id="aa", public_key="zz"),
                        {"op": "record_event", "kind": "k", "sim_time": 0}):
            with pytest.raises(IntegrityViolationError):
                state.apply(dataclasses.replace(tx, payload=payload))
        assert state.canonical() == before


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
            height=block.height,
            prev_hash=block.prev_hash,
            tx_list=block.tx_list[:-1]
            + (borrowed(block.tx_list[-1], {"op": "record_event", "workflow_id": "wf",
                                            "kind": "evil", "payload": {}, "sim_time": 0}, 0),),
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
        block = ledger.chain[-1]
        (tx,) = block.tx_list
        edited = dataclasses.replace(tx, payload=dict(tx.payload, flag="frozen"))
        ledger.chain[-1] = rehashed(block, edited)
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
        with pytest.raises(IntegrityViolationError):
            replay_chain(appended(ledger.chain, tx))

    def test_rehashed_copy_of_a_committed_block_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        last = ledger.chain[-1]
        height = len(ledger.chain)
        ledger.chain.append(Block(
            height=height,
            prev_hash=last.block_hash,
            tx_list=last.tx_list,
            block_hash=compute_block_hash(height, last.block_hash, last.tx_list,
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
        copy = (retimed(tx, ledger.clock.now()),)
        ledger.chain.append(Block(
            height=height,
            prev_hash=last.block_hash,
            tx_list=copy,
            block_hash=compute_block_hash(height, last.block_hash, copy,
                                          last.sim_time_committed),
            sim_time_committed=last.sim_time_committed,
        ))
        with pytest.raises(IntegrityViolationError, match="twice"):
            ledger.replay()

    def test_empty_chain_empty_state(self):
        assert replay_chain([]) == RegistryState()

    def test_chain_links(self, ledger, enrolled):
        _, key, _ = enrolled
        for i in range(3):
            ledger.submit(record_tx(ledger, key, tag=f"t{i}"))
        assert ledger.chain[0].prev_hash == GENESIS_PREV_HASH
        for prev, cur in zip(ledger.chain, ledger.chain[1:]):
            assert cur.prev_hash == prev.block_hash
            assert cur.height == prev.height + 1

    def test_block_hash_of_a_two_tx_block_is_pinned(self):
        """The hashed body is ``height|prev_hash|sim_time_committed|`` then,
        per tx and joined by commas, ``tx_id|signer as a JSON string|
        sim_time_submitted``."""
        txs = (Transaction({"op": "x", "n": 1}, "alice", bytes(range(64)), 5),
               Transaction({"op": "y", "kw": -0.5}, 'b"ob\xe9', b"\x02" * 64, -7))
        tx_ids = ["d41f6541d25157a79b233d92e7dec82111fe125ba2c96eb0d336d768abcc375d",
                  "8612a0885d96fdf736f0e48def87aa04e73a2b5218ee8aa95300c8e3652f28f0"]
        assert [tx.tx_id for tx in txs] == tx_ids
        body = f'3|{"ab" * 32}|1500|{tx_ids[0]}|"alice"|5,{tx_ids[1]}|"b\\"ob\\u00e9"|-7'
        pinned = "a2d8d22719312546d4524d06a52e05de7313a74d8c052cd7f16587fd653a9a0b"
        assert hashlib.sha256(body.encode("ascii")).hexdigest() == pinned
        assert compute_block_hash(3, "ab" * 32, txs, 1500) == pinned

    def test_exactly_once(self, ledger, enrolled):
        _, key, _ = enrolled
        seen = set()
        for i in range(4):
            ledger.submit(record_tx(ledger, key, tag=f"u{i}"))
        for block in ledger.chain:
            for tx in block.tx_list:
                assert tx.tx_id not in seen
                seen.add(tx.tx_id)


class TestBatching:
    """The ledger commits one tx per block; batching under load is
    modelled in simnet."""

    def test_time_cut_after_interval(self, clock, ledger, enrolled):
        _, key, _ = enrolled
        start_height = ledger.height
        clock.advance(7)
        tx = record_tx(ledger, key, tag="solo")
        receipt = ledger.submit(tx)
        block = ledger.chain[-1]
        assert ledger.height == start_height + 1
        assert block.tx_list == (tx,)
        assert block.sim_time_committed == tx.sim_time_submitted + BLOCK_INTERVAL_MS
        assert receipt.committed_at == clock.now() == block.sim_time_committed


# Edits of the enrolled fixture's block (height 0) that int() or
# bytes.fromhex would read back as the stored value, each with the field
# where the edited line departs from the template.
RESPELT_FIELDS = {
    "height as bool": ("height", lambda rec: rec.update(height=False)),
    "commit time as string": ("sim_time_committed", lambda rec: rec.update(
        sim_time_committed=str(rec["sim_time_committed"]))),
    "commit time as float": ("sim_time_committed", lambda rec: rec.update(
        sim_time_committed=float(rec["sim_time_committed"]))),
    "commit time missing": ("sim_time_committed", lambda rec: rec.pop("sim_time_committed")),
    "submit time as float": ("sim_time_submitted", lambda rec: rec["txs"][0].update(
        sim_time_submitted=float(rec["txs"][0]["sim_time_submitted"]))),
    "signature in upper case": ("signature", lambda rec: rec["txs"][0].update(
        signature=rec["txs"][0]["signature"].upper())),
}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, anchor, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        loaded = read_chain(path)
        assert replay_chain(loaded) == ledger.state
        # Stable bytes: saving the same chain twice is identical.
        path2 = tmp_path / "chain2.jsonl"
        ledger.save_chain(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_file_is_json_lines(self, tmp_path, ledger, enrolled):
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key))
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"height", "prev_hash", "block_hash",
                                "sim_time_committed", "txs"}
            for tx in rec["txs"]:
                assert set(tx) == {"payload", "signer", "signature", "sim_time_submitted"}

    def test_edited_payload_in_saved_chain_rejected(self, tmp_path, ledger, enrolled):
        # tx_id is rebuilt from the stored payload, so the stored block hash
        # no longer matches. A re-hashed edit is not caught here.
        _, key, _ = enrolled
        ledger.submit(record_tx(ledger, key, payload={"kw": 5}))
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        text = path.read_text()
        assert text.count('"kw":5') == 1
        path.write_text(text.replace('"kw":5', '"kw":500'))
        with pytest.raises(IntegrityViolationError, match="block hash mismatch"):
            replay_chain(read_chain(path))

    @pytest.mark.parametrize("name, edit", RESPELT_FIELDS.values(), ids=RESPELT_FIELDS.keys())
    def test_field_spelt_another_way_rejected(self, tmp_path, ledger, enrolled, name, edit):
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        rec = json.loads(path.read_text())
        edit(rec)
        # Written as save_chain spaces it, so only the edited field departs.
        path.write_text(json.dumps(rec, separators=(",", ":")) + "\n")
        with pytest.raises(IntegrityViolationError, match="malformed block record") as info:
            read_chain(path)
        assert f"field {name!r}" in str(info.value)

    def test_old_format_record_rejected(self, tmp_path, ledger, enrolled):
        # The earlier format stored the signed message in an envelope, and
        # no signer or signature field.
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        rec = json.loads(path.read_text())
        tx = rec["txs"][0]
        tx["envelope"] = {"message": canonical_json(tx["payload"]).encode().hex(),
                          "signature": tx.pop("signature"), "token_id": tx.pop("signer"),
                          "sim_time": tx["sim_time_submitted"]}
        tx["tx_id"] = "00" * 32
        path.write_text(json.dumps(rec, separators=(",", ":")) + "\n")
        with pytest.raises(IntegrityViolationError, match="'signer'"):
            read_chain(path)

    def test_load_chain_restores_live_receipts(self, tmp_path, clock, anchor, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        live = ledger.submit(tx)
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        reloaded = LedgerSim(clock, anchor_pk=identity.anchor_public_key(anchor))
        reloaded.load_chain(path)
        assert reloaded.receipt_for(tx.tx_id) == live

    def test_load_chain_refused_keeps_the_old_chain(self, tmp_path, ledger, enrolled):
        # The second block repeats the first at height 1: it reads, and
        # replay refuses it.
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        first = path.read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(first + first.replace(b'{"height":0,', b'{"height":1,', 1))
        height, before = ledger.height, ledger.state.canonical()
        with pytest.raises(IntegrityViolationError):
            ledger.load_chain(path)
        assert (ledger.height, ledger.state.canonical()) == (height, before)
        assert ledger.replay() == ledger.state


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
        return anchor_signed(MALFORMED_CREATES[args[1]](dict(tx.payload)), ANCHOR,
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
    sent = [tx for block in ledger.chain for tx in block.tx_list]
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
    assert all(len(block.tx_list) == 1 for block in ledger.chain)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        ledger.save_chain(path)
        replayed = replay_chain(read_chain(path))
    assert replayed == ledger.state
    assert replayed.canonical() == ledger.state.canonical()


# Characters a JSON writer must escape, or may write in more than one way.
AWKWARD_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1e\x7f \xe9\u2603\U0001f600\ud800'),
                       max_size=6)
AWKWARD_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | AWKWARD_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(AWKWARD_TEXT, kids, max_size=3),
    max_leaves=8,
)


@st.composite
def chains(draw):
    """Hash-linked blocks of zero to two txs with any payload, signer,
    signature and sim times. Saving and reading check no signature."""
    chain, prev = [], GENESIS_PREV_HASH
    for height in range(draw(st.integers(0, 4))):
        txs = tuple(
            Transaction(draw(st.dictionaries(AWKWARD_TEXT, AWKWARD_JSON, max_size=4)),
                        draw(AWKWARD_TEXT), draw(st.binary(max_size=64)), draw(st.integers()))
            for _ in range(draw(st.integers(0, 2)))
        )
        committed = draw(st.integers())
        chain.append(Block(height, prev, txs, compute_block_hash(height, prev, txs, committed),
                           committed))
        prev = chain[-1].block_hash
    return chain


def saved_bytes(chain) -> bytes:
    ledger = LedgerSim(SimClock(), anchor_pk=b"")
    ledger.chain = chain
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        ledger.save_chain(path)
        with open(path, "rb") as fh:
            return fh.read()


def read_back(data: bytes, reader=read_chain) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        return reader(path)


def reference_read_chain(path) -> list:
    """The chain reader before the template walk: ``json.loads`` each line,
    check every field's keys and JSON type, and re-encode each payload with
    ``canonical_json`` for its message."""
    blocks = []
    with open(path, "rb") as fh:
        for line in fh:
            rec = jr.obj(json.loads(line.decode("utf-8")),
                         frozenset({"height", "prev_hash", "block_hash", "sim_time_committed",
                                    "txs"}))
            txs = []
            for t in jr.of(list, rec["txs"]):
                jr.obj(t, frozenset({"payload", "signer", "signature", "sim_time_submitted"}))
                signature = bytes.fromhex(t["signature"])
                assert signature.hex() == t["signature"]
                txs.append(Transaction(t["payload"], jr.of(str, t["signer"]), signature,
                                       jr.of(int, t["sim_time_submitted"])))
            blocks.append(Block(jr.of(int, rec["height"]), jr.of(str, rec["prev_hash"]),
                                tuple(txs), jr.of(str, rec["block_hash"]),
                                jr.of(int, rec["sim_time_committed"])))
    return blocks


def stored_fields(chain) -> list:
    """Every stored field of ``chain``, each payload as its signed message,
    and each derived ``tx_id``."""
    return [(block.height, block.prev_hash, block.block_hash, block.sim_time_committed,
             [(tx.message, tx.signer, tx.signature, tx.sim_time_submitted, tx.tx_id)
              for tx in block.tx_list])
            for block in chain]


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_saved_chain_reads_back_equal(chain):
    assert stored_fields(read_back(saved_bytes(chain))) == stored_fields(chain)


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_template_reader_agrees_with_the_reference_reader(chain):
    """Every stored field, message and tx_id ``read_chain`` takes from a
    saved file is what decoding and re-encoding each line gives."""
    data = saved_bytes(chain)
    assert stored_fields(read_back(data)) == stored_fields(read_back(data, reference_read_chain))


def json_record(block) -> dict:
    """``block`` as a dict in the chain file's field order, payload keys sorted."""
    return {
        "height": block.height,
        "prev_hash": block.prev_hash,
        "block_hash": block.block_hash,
        "sim_time_committed": block.sim_time_committed,
        "txs": [{"payload": json.loads(tx.message), "signer": tx.signer,
                 "signature": tx.signature.hex(), "sim_time_submitted": tx.sim_time_submitted}
                for tx in block.tx_list],
    }


@settings(max_examples=100, deadline=None)
@given(chain=chains())
def test_saved_line_is_the_json_record_with_sorted_payload_keys(chain):
    expected = "".join(json.dumps(json_record(block), separators=(",", ":")) + "\n"
                       for block in chain)
    assert saved_bytes(chain) == expected.encode("ascii")


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
def live_chain_lines() -> tuple:
    """The saved lines of ``live_chain()``."""
    return tuple(saved_bytes(list(live_chain())).decode("ascii").splitlines())


def joined(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("ascii")


# Ways to write a payload that decode to the same object as its signed
# message but are other bytes.
RESPELLINGS = {
    "space after each colon": lambda payload: json.dumps(payload, sort_keys=True,
                                                         separators=(",", ": ")),
    "keys in reverse order": lambda payload: json.dumps(
        dict(sorted(payload.items(), reverse=True)), separators=(",", ":")),
}


def respelt(line: str, how: str) -> str:
    """``line`` with its one tx's payload written another way; its hashes
    are left as they were."""
    payload = json.loads(line)["txs"][0]["payload"]
    signed = '{"payload":' + canonical_json(payload)
    assert line.count(signed) == 1
    return line.replace(signed, '{"payload":' + RESPELLINGS[how](payload))


def relinked(chain) -> list:
    """``chain`` with every hash link and block hash recomputed, as an
    editor could."""
    out, prev = [], GENESIS_PREV_HASH
    for block in chain:
        out.append(Block(block.height, prev, block.tx_list,
                         compute_block_hash(block.height, prev, block.tx_list,
                                            block.sim_time_committed),
                         block.sim_time_committed))
        prev = out[-1].block_hash
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data(), how=st.sampled_from(sorted(RESPELLINGS)))
def test_respelt_copy_of_a_committed_tx_is_refused(data, how):
    """A committed tx copied onto the chain with its payload spelt another
    way has another tx_id, but its signature appears twice."""
    lines = live_chain_lines()
    at = data.draw(st.integers(0, len(lines) - 1))
    copy = read_back(joined([respelt(lines[at], how)]))[0].tx_list[0]
    assert copy.tx_id != live_chain()[at].tx_list[0].tx_id
    with pytest.raises(IntegrityViolationError, match="appears twice"):
        replay_chain(appended(read_back(joined(lines)), copy))


@settings(max_examples=20, deadline=None)
@given(data=st.data(), how=st.sampled_from(sorted(RESPELLINGS)))
def test_tx_respelt_in_a_loaded_chain_cannot_be_submitted_again(data, how):
    """One tx of a saved chain respelt in place and the chain re-hashed:
    it loads, and its original is then a duplicate."""
    lines = list(live_chain_lines())
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = respelt(lines[at], how)
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(ANCHOR))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        with open(path, "wb") as fh:
            fh.write(saved_bytes(relinked(read_back(joined(lines)))))
        ledger.load_chain(path)
    original = live_chain()[at].tx_list[0]
    assert ledger.chain[at].tx_list[0].tx_id != original.tx_id
    with pytest.raises(DuplicateTransactionError):
        ledger.submit(original)


def content_spans(line: str) -> list:
    """The (start, end) of each value in a saved line where a space is
    content, not layout: the payload and each JSON string value but the
    signature's hex."""
    spans = []
    for name in ("prev_hash", "block_hash", "payload", "signer"):
        start = line.index(f'"{name}":') + len(name) + 3
        spans.append((start, json.JSONDecoder().raw_decode(line, start)[1]))
    return spans


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_space_outside_the_payload_is_refused(data):
    """A space inserted anywhere but inside a value that can hold one
    departs from the template, and the error names the line. (Inside a
    value it changes what the block hash covers; replay refuses that.)"""
    lines = list(live_chain_lines())
    n = data.draw(st.integers(0, len(lines) - 1))
    line = lines[n]
    spans = content_spans(line)
    i = data.draw(st.sampled_from([i for i in range(len(line) + 1)
                                   if not any(start < i < end for start, end in spans)]))
    lines[n] = line[:i] + " " + line[i:]
    with pytest.raises(IntegrityViolationError, match=f"on line {n + 1}: field '"):
        read_back(joined(lines))


def reference_block_from_line(line: str) -> Block:
    """The template walk as first written, each literal checked by a call
    to ``past``: the reference that ``_block_from_line`` must agree with."""
    scan = ledger_mod._scan

    def past(i: int, literal: str) -> int:
        if line.startswith(literal, i):
            return i + len(literal)
        raise ValueError(f"expected {literal!r} at column {i}")

    name = "height"
    try:
        height, i = scan(line, past(0, ledger_mod._HEIGHT))
        jr.of(int, height)
        name = "prev_hash"
        prev_hash, i = scan(line, past(i, ledger_mod._PREV_HASH))
        jr.of(str, prev_hash)
        name = "block_hash"
        block_hash, i = scan(line, past(i, ledger_mod._BLOCK_HASH))
        jr.of(str, block_hash)
        name = "sim_time_committed"
        committed, i = scan(line, past(i, ledger_mod._COMMITTED))
        jr.of(int, committed)
        name = "txs"
        i = past(i, ledger_mod._TXS)
        txs = []
        opening = ledger_mod._PAYLOAD
        while not line.startswith(ledger_mod._BLOCK_END, i):
            name = "payload"
            start = past(i, opening)
            payload, i = scan(line, start)
            message = line[start:i].encode("utf-8")
            name = "signer"
            signer, i = scan(line, past(i, ledger_mod._SIGNER))
            jr.of(str, signer)
            name = "signature"
            i = past(i, ledger_mod._SIGNATURE)
            end = line.index('"', i)
            signature = jr.hexbytes(line[i:end])
            name = "sim_time_submitted"
            submitted, i = scan(line, past(end, ledger_mod._SUBMITTED))
            jr.of(int, submitted)
            name = "txs"
            i = past(i, ledger_mod._TX_END)
            txs.append(Transaction._sealed(payload, message, signer, signature, submitted))
            opening = ledger_mod._NEXT_PAYLOAD
    except StopIteration as exc:
        raise ValueError(f"field {name!r}: no JSON value at column {exc.value}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc
    return Block(height=height, prev_hash=prev_hash, tx_list=tuple(txs),
                 block_hash=block_hash, sim_time_committed=committed)


def walked(walk, line: str):
    """The stored fields of the block ``walk`` reads from ``line``, or the
    text of the ``ValueError`` it raises."""
    try:
        return stored_fields([walk(line)])
    except ValueError as exc:
        return str(exc)


# Characters a one-character edit puts into a saved line: template
# punctuation, JSON number and literal spellings, hex digits and escapes.
EDIT_CHARS = st.sampled_from('{}[]":,0123456789abcdefnrtlsu-+.E \\/\n\x00\xe9') | st.characters()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), how=st.sampled_from(("insert", "delete", "replace")))
def test_template_walk_agrees_with_the_reference_walk(data, how):
    """Any one character inserted, deleted or replaced on a saved line: both
    walks read the same block, or refuse it with the same message. Half the
    edits fall outside the hashes, payload and signer, where the template's
    literals are."""
    line = data.draw(st.sampled_from(live_chain_lines())) + "\n"
    layout = [i for i in range(len(line))
              if not any(start < i < end for start, end in content_spans(line))]
    i = data.draw(st.sampled_from(layout) | st.integers(0, len(line) - (how != "insert")))
    tail = line[i + (how != "insert"):]
    edited = line[:i] + ("" if how == "delete" else data.draw(EDIT_CHARS)) + tail
    assert walked(ledger_mod._block_from_line, edited) == walked(reference_block_from_line,
                                                                 edited)


DROP = object()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_single_field_edit_of_a_saved_chain_is_refused(data):
    """Edit, drop or retype one field of one saved block, its tx or its
    payload, without re-hashing: ``read_chain`` then ``replay_chain`` raises
    ``IntegrityViolationError``. Swapped-in values include every value the
    chain already holds, such as another live token as ``signer``."""
    lines = live_chain_lines()
    records = [json.loads(line) for line in lines]
    held = [value for rec in records
            for part in (rec, rec["txs"][0], rec["txs"][0]["payload"])
            for value in part.values() if not isinstance(value, (list, dict))]
    at = data.draw(st.integers(0, len(lines) - 1))
    block = records[at]
    part = data.draw(st.sampled_from((block, block["txs"][0], block["txs"][0]["payload"])))
    name = data.draw(st.sampled_from(sorted(k for k in part if k != "txs")))
    value = data.draw(st.just(DROP) | st.sampled_from(held) | JSON_VALUES | st.integers())
    if value is DROP:
        del part[name]
    else:
        assume(canonical_json(value) != canonical_json(part[name]))
        part[name] = value
    edited = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
    with pytest.raises(IntegrityViolationError):
        replay_chain(read_back(edited.encode()))


def appended(chain, tx):
    """``chain`` with one more block holding ``tx``, hashed as an editor could."""
    prev = chain[-1].block_hash if chain else GENESIS_PREV_HASH
    height = len(chain)
    return [*chain, Block(height, prev, (tx,), compute_block_hash(height, prev, (tx,), 0), 0)]


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
        sent = [tx for block in ledger.chain for tx in block.tx_list]
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
            with pytest.raises(IntegrityViolationError):
                replay_chain(appended(ledger.chain, tx))
            continue
        assert op not in REFUSED_OPS
        if key is not None:
            keys.append(key)
        assert replay_chain(ledger.chain) == ledger.state
