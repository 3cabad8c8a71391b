import dataclasses
import json

import pytest

from plexisim import identity
from plexisim.errors import (
    AuthorizationError,
    DuplicateTransactionError,
    EnrollmentRejected,
    IntegrityViolationError,
    RejectedTransactionError,
    ValidationError,
)
from plexisim.ledger import (
    BLOCK_INTERVAL_MS,
    BLOCK_MAX_TXS,
    GENESIS_PREV_HASH,
    Block,
    LedgerSim,
    RegistryState,
    canonical_json,
    make_transaction,
    read_chain,
    replay_chain,
)


def record_tx(ledger, key, tag="x", cluster_id=0):
    now = ledger.clock.now()
    payload = {"op": "record_event", "workflow_id": "wf", "kind": tag,
               "payload": {}, "sim_time": now}
    env = identity.sign(canonical_json(payload).encode(), key, now)
    return make_transaction(payload, env, now, cluster_id=cluster_id)


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
        # A new payload gives a new tx_id, so only revocation can stop it.
        payload = dict(used.payload, kind="replayed")
        with pytest.raises(RejectedTransactionError):
            ledger.submit(make_transaction(payload, used.envelope, ledger.clock.now()))

    def test_live_signer_envelope_cannot_carry_another_payload(self, ledger, enrolled):
        _, key, _ = enrolled
        used = record_tx(ledger, key)
        ledger.submit(used)
        payload = dict(used.payload, kind="forged", payload={"kw": 999})
        height_before = ledger.height
        with pytest.raises(RejectedTransactionError):
            ledger.submit(make_transaction(payload, used.envelope, ledger.clock.now()))
        assert ledger.height == height_before

    def test_duplicate_tx_id_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        ledger.submit(tx)
        with pytest.raises(DuplicateTransactionError):
            ledger.submit(tx)

    def test_bad_envelope_never_commits(self, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key)
        forged = identity.SignedEnvelope(
            tx.envelope.message + b"!", tx.envelope.signature,
            tx.envelope.token_id, tx.envelope.sim_time,
        )
        bad = make_transaction(tx.payload, forged, ledger.clock.now())
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

    def test_pending_duplicate_rejected_at_ingest(self, anchor, ledger):
        device = identity.make_device("d", seed=5)
        resp = identity.puf_respond(device, identity.derive_challenge(anchor, 0))
        _, pk = identity.derive_keypair(anchor, resp)

        def create_tx(owner):
            now = ledger.clock.now()
            payload = {"op": "create_nft", "token_id": identity.compute_token_id(resp, pk, owner),
                       "token_name": "d", "device_id": resp.hex(), "public_key": pk.hex(),
                       "owner_id": owner, "challenge_index": 0, "issue_time": now}
            env = identity.sign_as_anchor(canonical_json(payload).encode(), anchor, now)
            return make_transaction(payload, env, now)

        first = create_tx("alice")
        assert ledger.ingest(first) is None
        with pytest.raises(EnrollmentRejected):
            ledger.ingest(create_tx("mallory"))
        ledger.force_cut()
        assert [t.tx_id for t in ledger.chain[-1].tx_list] == [first.tx_id]
        assert ledger.query(resp).owner_id == "alice"
        assert ledger.replay() == ledger.state

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

    def test_unknown_flag_rejected(self, anchor, ledger, enrolled):
        _, _, token_id = enrolled
        alice_key, _ = identity.enroll(
            identity.make_device("alice-ctl", seed=10), "alice", anchor, ledger
        )
        with pytest.raises(Exception):
            ledger.set_flag(token_id, "frozen", alice_key)


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
            + (make_transaction({"op": "record_event", "workflow_id": "wf",
                                 "kind": "evil", "payload": {}, "sim_time": 0},
                                block.tx_list[-1].envelope, 0),),
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
        # tx_id is kept, so the block hash still matches.
        ledger.chain[-1] = dataclasses.replace(block, tx_list=(edited,))
        with pytest.raises(IntegrityViolationError):
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
    def test_count_cut_at_block_max(self, clock, anchor, ledger, enrolled):
        _, key, _ = enrolled
        start_height = ledger.height
        receipts = []
        for i in range(BLOCK_MAX_TXS):
            clock.advance(1)
            receipts.append(ledger.ingest(record_tx(ledger, key, tag=f"b{i}")))
        assert receipts[-1] is not None  # the 10th ingest cut the block
        assert all(r is None for r in receipts[:-1])
        assert ledger.height == start_height + 1
        assert len(ledger.chain[-1].tx_list) == BLOCK_MAX_TXS

    def test_time_cut_after_interval(self, clock, ledger, enrolled):
        _, key, _ = enrolled
        start_height = ledger.height
        ledger.ingest(record_tx(ledger, key, tag="solo"))
        assert ledger.height == start_height
        clock.advance(BLOCK_INTERVAL_MS)
        ledger.flush_due()
        assert ledger.height == start_height + 1

    def test_block_order_by_submit_time_then_id(self, clock, ledger, enrolled):
        _, key, _ = enrolled
        txs = []
        for i in range(3):
            clock.advance(5)
            txs.append(record_tx(ledger, key, tag=f"o{i}"))
        for tx in reversed(txs):
            ledger.ingest(tx)
        ledger.force_cut()
        committed = ledger.chain[-1].tx_list
        assert [t.tx_id for t in committed] == [t.tx_id for t in txs]


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

    def test_load_chain_restores_live_receipts(self, tmp_path, clock, anchor, ledger, enrolled):
        _, key, _ = enrolled
        tx = record_tx(ledger, key, cluster_id=1)
        live = ledger.submit(tx)
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(path)
        reloaded = LedgerSim(clock, anchor_pk=identity.anchor_public_key(anchor))
        reloaded.load_chain(path)
        assert live.notarized
        assert reloaded.receipt_for(tx.tx_id) == live


class TestNotary:
    def test_cross_cluster_tx_notarized(self, ledger, enrolled):
        _, key, _ = enrolled
        receipt = ledger.submit(record_tx(ledger, key, cluster_id=1))
        assert receipt.notarized

    def test_intra_cluster_skips_notarization(self, ledger, enrolled):
        _, key, _ = enrolled
        receipt = ledger.submit(record_tx(ledger, key))
        assert not receipt.notarized
