import dataclasses
import pickle

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given
from hypothesis import strategies as st

from plexisim import identity, telemetry
from plexisim.errors import ConfigurationError, EnrollmentRejected, RejectedTransactionError
from plexisim.identity import (
    CHALLENGE_BYTES,
    RESPONSE_BYTES,
    VerifyStatus,
    compute_token_id,
    derive_challenge,
    derive_keypair,
    enroll,
    make_device,
    puf_respond,
    setup,
    sign,
    verify,
)
from plexisim.clock import SimClock
from plexisim.ledger import OP_RECORD_EVENT, LedgerSim, Transaction, canonical_json


class TestSetup:
    def test_deterministic_under_seed(self):
        assert setup(128, seed=5) == setup(128, seed=5)

    def test_distinct_seeds_distinct_mpk(self):
        assert setup(128, seed=1).mpk != setup(128, seed=2).mpk

    @pytest.mark.parametrize("lam", [64, 100, 512])
    def test_unsupported_lambda(self, lam):
        with pytest.raises(ConfigurationError):
            setup(lam)

    @pytest.mark.parametrize("lam", [128, 192, 256])
    def test_supported_lambdas(self, lam):
        keys = setup(lam, seed=0)
        assert len(keys.msk) == lam // 8


class TestChallengeResponse:
    def test_challenge_deterministic(self, anchor):
        assert derive_challenge(anchor, 3) == derive_challenge(anchor, 3)

    def test_challenge_distinct_by_index(self, anchor):
        assert derive_challenge(anchor, 0) != derive_challenge(anchor, 1)

    def test_challenge_length(self, anchor):
        for index in (0, 1, 17, 9999):
            assert len(derive_challenge(anchor, index)) == CHALLENGE_BYTES

    def test_negative_index_rejected(self, anchor):
        with pytest.raises(ValueError):
            derive_challenge(anchor, -1)

    def test_puf_deterministic(self, anchor):
        device = make_device("d", seed=1)
        c = derive_challenge(anchor, 0)
        assert puf_respond(device, c) == puf_respond(device, c)

    def test_puf_distinct_across_devices(self, anchor):
        c = derive_challenge(anchor, 0)
        assert puf_respond(make_device("a", 1), c) != puf_respond(make_device("b", 2), c)

    def test_puf_response_length(self, anchor):
        c = derive_challenge(anchor, 0)
        assert len(puf_respond(make_device("a", 1), c)) == RESPONSE_BYTES

    def test_no_collisions_across_1000_devices(self, anchor):
        c = derive_challenge(anchor, 0)
        responses = {puf_respond(make_device(f"d{i}", seed=i), c) for i in range(1000)}
        assert len(responses) == 1000


class TestEnroll:
    def test_fresh_device_token_committed(self, anchor, ledger):
        device = make_device("fresh", seed=11)
        key, token_id = enroll(device, "alice", anchor, ledger)
        response = puf_respond(device, derive_challenge(anchor, 0))
        token = ledger.query(response)
        assert token is not None and token.token_id == token_id
        assert key.token_id == token_id

    def test_second_enroll_rejected(self, anchor, ledger):
        device = make_device("dup", seed=12)
        enroll(device, "alice", anchor, ledger)
        with pytest.raises(EnrollmentRejected):
            enroll(device, "alice", anchor, ledger)

    def test_token_id_formula(self, anchor, ledger):
        device = make_device("hash", seed=13)
        _, token_id = enroll(device, "bob", anchor, ledger)
        response = puf_respond(device, derive_challenge(anchor, 0))
        _, pk = derive_keypair(anchor, response)
        assert token_id == compute_token_id(response, pk, "bob")

    def test_keypair_unique_per_device(self, anchor):
        r1 = puf_respond(make_device("a", 1), derive_challenge(anchor, 0))
        r2 = puf_respond(make_device("b", 2), derive_challenge(anchor, 0))
        assert derive_keypair(anchor, r1)[1] != derive_keypair(anchor, r2)[1]


class TestSignVerify:
    def test_round_trip(self, anchor, ledger, enrolled):
        device, key, _ = enrolled
        env = sign(b"measurement", key)
        assert verify(env, ledger, anchor, device.responder()) is VerifyStatus.ACCEPT

    def test_tampered_message_rejected(self, anchor, ledger, enrolled):
        device, key, token_id = enrolled
        env = sign(b"measurement", key)
        bad = identity.SignedEnvelope(b"measuremenu", env.signature, token_id, env.sim_time)
        assert verify(bad, ledger, anchor, device.responder()) is VerifyStatus.REJECT

    def test_tampered_signature_rejected(self, anchor, ledger, enrolled):
        device, key, token_id = enrolled
        env = sign(b"m", key)
        sig = bytearray(env.signature)
        sig[0] ^= 0x01
        bad = identity.SignedEnvelope(b"m", bytes(sig), token_id, env.sim_time)
        assert verify(bad, ledger, anchor, device.responder()) is VerifyStatus.REJECT

    def test_two_signs_both_verify(self, anchor, ledger, enrolled):
        device, key, _ = enrolled
        for env in (sign(b"x", key), sign(b"x", key)):
            assert verify(env, ledger, anchor, device.responder()) is VerifyStatus.ACCEPT

    def test_unknown_token_bottom(self, ledger, enrolled):
        _, key, _ = enrolled
        env = sign(b"m", key)
        ghost = identity.SignedEnvelope(env.message, env.signature, "f" * 64, 0)
        assert verify(ghost, ledger) is VerifyStatus.BOTTOM

    def test_replay_from_other_device_bottom(self, anchor, ledger, enrolled):
        # Same token cited, but the live responder is a different physical
        # device, so the challenge-response comparison halts verification.
        device, key, _ = enrolled
        imposter = make_device("imposter", seed=555)
        env = sign(b"m", key)
        assert verify(env, ledger, anchor, imposter.responder()) is VerifyStatus.BOTTOM

    def test_spoofed_key_rejected(self, anchor, ledger, enrolled):
        # Envelope cites the honest token but was signed with a key bound
        # to a different token: the puf check passes, the signature fails.
        device, _, token_id = enrolled
        other = make_device("other", seed=556)
        other_key, _ = enroll(other, "mallory", anchor, ledger)
        forged = identity.SignedEnvelope(
            b"m", sign(b"m", other_key).signature, token_id, 0
        )
        assert verify(forged, ledger, anchor, device.responder()) is VerifyStatus.REJECT

    def test_partial_verification_without_oracle(self, ledger, enrolled):
        _, key, _ = enrolled
        env = sign(b"m", key)
        assert verify(env, ledger) is VerifyStatus.ACCEPT

    def test_revoked_token_bottom(self, anchor, ledger, enrolled):
        device, key, token_id = enrolled
        # The owner revokes through their own acting identity.
        controller = make_device("alice-controller", seed=42)
        alice_key, _ = enroll(controller, "alice", anchor, ledger)
        ledger.set_flag(token_id, "revoked", alice_key)
        env = sign(b"m", key)
        assert verify(env, ledger, anchor, device.responder()) is VerifyStatus.BOTTOM


class _CountingKeyClass:
    """Stands in for ``Ed25519PrivateKey`` and counts the keys built from bytes."""

    def __init__(self):
        self.built = 0

    def from_private_bytes(self, data):
        self.built += 1
        return Ed25519PrivateKey.from_private_bytes(data)


@pytest.fixture
def key_builds(monkeypatch):
    counter = _CountingKeyClass()
    monkeypatch.setattr(identity, "Ed25519PrivateKey", counter)
    return counter


class TestKeyObjectReuse:
    def test_enroll_builds_one_key_and_signing_builds_none(self, anchor, ledger, key_builds):
        key, _ = enroll(make_device("reuse", seed=21), "alice", anchor, ledger)
        assert key_builds.built == 1
        for i in range(50):
            sign(b"m%d" % i, key)
        assert key_builds.built == 1

    def test_anchor_builds_at_most_one_key(self, key_builds):
        anchor = setup(128, seed=3)
        for i in range(50):
            identity.sign_as_anchor(b"m%d" % i, anchor)
        assert key_builds.built <= 1


SEEDS = st.binary(min_size=32, max_size=32)


@given(seed=SEEDS, message=st.binary(max_size=256))
def test_held_key_signs_as_a_key_built_from_the_seed(seed, message):
    key = identity.SigningKey(seed=seed, token_id="t")
    assert sign(message, key).signature == Ed25519PrivateKey.from_private_bytes(seed).sign(message)


@given(anchor_seed=st.integers(0, 2**32), device_seed=st.integers(0, 2**32),
       message=st.binary(max_size=256))
def test_enrolled_and_anchor_keys_sign_as_keys_built_from_their_seeds(
        anchor_seed, device_seed, message):
    anchor = setup(128, seed=anchor_seed)
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(anchor))
    key, _ = enroll(make_device("d", seed=device_seed), "alice", anchor, ledger)
    fresh = Ed25519PrivateKey.from_private_bytes(key.seed)
    assert sign(message, key).signature == fresh.sign(message)
    anchor_fresh = Ed25519PrivateKey.from_private_bytes(identity.anchor_signing_seed(anchor))
    assert identity.sign_as_anchor(message, anchor).signature == anchor_fresh.sign(message)
    assert identity.anchor_public_key(anchor) == anchor_fresh.public_key().public_bytes_raw()


@given(seed=SEEDS, token_id=st.text(max_size=16), signs=st.sampled_from(["", "a", "b", "ab"]))
def test_key_object_takes_no_part_in_equality_hash_or_repr(seed, token_id, signs):
    a = identity.SigningKey(seed=seed, token_id=token_id)
    b = identity.SigningKey(seed=seed, token_id=token_id,
                            key=Ed25519PrivateKey.from_private_bytes(seed))
    for name in signs:
        sign(b"m", {"a": a, "b": b}[name])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"SigningKey(seed={seed!r}, token_id={token_id!r})"


def test_anchor_key_object_takes_no_part_in_equality_or_repr():
    a, b = setup(128, seed=8), setup(128, seed=8)
    identity.sign_as_anchor(b"m", a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"AnchorKeys(msk={a.msk!r}, mpk={a.mpk!r}, lam=128)"


def test_key_object_must_come_from_the_seed():
    other = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    with pytest.raises(ValueError):
        identity.SigningKey(seed=bytes(32), token_id="t", key=other)


def test_replaced_seed_gets_its_own_key_object():
    key = identity.SigningKey(seed=bytes(32), token_id="t")
    moved = dataclasses.replace(key, seed=bytes(range(32)))
    expected = Ed25519PrivateKey.from_private_bytes(bytes(range(32))).sign(b"m")
    assert sign(b"m", moved).signature == expected


def test_keys_pickle_without_their_key_objects(anchor):
    key = identity.SigningKey(seed=bytes(range(32)), token_id="t")
    for value in (key, anchor):
        assert pickle.loads(pickle.dumps(value)) == value
    assert sign(b"m", pickle.loads(pickle.dumps(key))).signature == sign(b"m", key).signature


# Expected verify status of an envelope in each case.
PARITY_CASES = {
    "live": VerifyStatus.ACCEPT,
    "revoked": VerifyStatus.BOTTOM,
    "unknown-token": VerifyStatus.BOTTOM,
    "device-id-alias": VerifyStatus.BOTTOM,
    "bad-signature": VerifyStatus.REJECT,
}


def _as_case(case, env, device_id):
    if case == "unknown-token":
        return dataclasses.replace(env, token_id="f" * 64)
    if case == "device-id-alias":
        return dataclasses.replace(env, token_id=device_id.hex())
    if case == "bad-signature":
        return dataclasses.replace(env, signature=bytes([env.signature[0] ^ 1]) + env.signature[1:])
    return env


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_verify_ledger_and_tamper_detection_agree(anchor, ledger, enrolled, case):
    _, key, token_id = enrolled
    if case == "revoked":
        owner_key, _ = enroll(make_device("alice-controller", seed=42), "alice", anchor, ledger)
        ledger.set_flag(token_id, "revoked", owner_key)
    device_id = ledger.query(token_id).device_id
    now = ledger.clock.now()
    body = {"op": OP_RECORD_EVENT, "workflow_id": "wf", "kind": case,
            "payload": {}, "sim_time": now}
    env = _as_case(case, sign(canonical_json(body).encode("utf-8"), key, now), device_id)
    status = verify(env, ledger)
    assert status is PARITY_CASES[case]

    try:
        ledger.submit(Transaction(body, env.token_id, env.signature, now))
        endorsed = True
    except RejectedTransactionError:
        endorsed = False
    assert endorsed is (status is VerifyStatus.ACCEPT)

    sample = telemetry.generate_synthetic(1, seed=6)[0]
    sample_env = _as_case(case, telemetry.sign_stream([sample], key)[0], device_id)
    assert verify(sample_env, ledger) is status
    unflagged = telemetry.detect_tamper([sample], [sample_env], ledger) == []
    assert unflagged is (status is VerifyStatus.ACCEPT)

def test_token_state_cannot_change_off_chain(ledger, enrolled):
    _, _, token_id = enrolled
    with pytest.raises(AttributeError):
        ledger.state.tokens[token_id].constraints.revoked = True
    # Not even by the setter a frozen dataclass would let through.
    with pytest.raises(AttributeError):
        object.__setattr__(ledger.state.tokens[token_id].constraints, "revoked", True)
    assert not ledger.query(token_id).constraints.revoked
    assert ledger.replay() == ledger.state
