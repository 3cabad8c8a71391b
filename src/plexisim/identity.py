"""Certificate-less device identity bound to ledger-hosted tokens.

A deployment anchor holds a master key pair. Devices are fingerprinted by a
simulated challenge-response function keyed on a per-device secret seed (the
response doubles as the device id). Enrollment derives an Ed25519 key pair
from the master secret mixed with the device response, mints an identity
token on the ledger, and hands the signing key back to the device. Message
envelopes verify in three stages: token lookup, live challenge-response
comparison, then signature check.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import ConfigurationError, EnrollmentRejected

SUPPORTED_LAMBDAS = (128, 192, 256)
CHALLENGE_BYTES = 32
RESPONSE_BYTES = 32

# Envelopes minted by the anchor itself (enrollment transactions) cite this
# sentinel instead of a token id; the ledger trusts the anchor key a priori.
ANCHOR_TOKEN_ID = "anchor"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnchorKeys:
    """Master secret/public key pair of the enrollment anchor."""

    msk: bytes
    mpk: bytes
    lam: int

    def __post_init__(self):
        expected = _derive_mpk(self.msk)
        if self.mpk != expected:
            raise ConfigurationError("mpk is not derived from msk")


@dataclass(frozen=True)
class PufDevice:
    """Simulated hardware fingerprint: a keyed PRF over a secret seed.

    The seed never leaves the device object; only responses are shared.
    """

    device_seed: bytes
    hardware_label: str

    def respond(self, challenge: bytes) -> bytes:
        return puf_respond(self, challenge)

    def responder(self) -> Callable[[bytes], bytes]:
        """Oracle callback handed to verifiers for the live response check."""
        return self.respond


@dataclass(frozen=True)
class SigningKey:
    """Device-held signing key, bound to the token minted at enrollment."""

    seed: bytes
    token_id: str


@dataclass(frozen=True)
class TokenConstraints:
    revoked: bool = False
    delegated: bool = False
    transferred: bool = False


@dataclass(frozen=True)
class NftToken:
    """Identity token binding a device fingerprint to a verification key."""

    token_id: str
    token_name: str
    device_id: bytes
    public_key: bytes
    owner_id: str
    constraints: TokenConstraints
    issue_time: int

    def to_record(self) -> dict:
        """JSON-lines enrollment record (hex encoded byte fields)."""
        return {
            "token_id": self.token_id,
            "token_name": self.token_name,
            "device_id": self.device_id.hex(),
            "public_key": self.public_key.hex(),
            "owner_id": self.owner_id,
            "constraints": dict(vars(self.constraints)),
            "issue_time": self.issue_time,
        }


@dataclass(frozen=True)
class SignedEnvelope:
    message: bytes
    signature: bytes
    token_id: str
    sim_time: int

    def canonical_bytes(self) -> bytes:
        return b"|".join(
            [
                self.message.hex().encode("ascii"),
                self.signature.hex().encode("ascii"),
                self.token_id.encode("utf-8"),
                str(self.sim_time).encode("ascii"),
            ]
        )

    def to_record(self) -> dict:
        return {
            "message": self.message.hex(),
            "signature": self.signature.hex(),
            "token_id": self.token_id,
            "sim_time": self.sim_time,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "SignedEnvelope":
        return cls(
            message=bytes.fromhex(rec["message"]),
            signature=bytes.fromhex(rec["signature"]),
            token_id=rec["token_id"],
            sim_time=int(rec["sim_time"]),
        )


class VerifyStatus(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    BOTTOM = "bottom"


# ---------------------------------------------------------------------------
# Key and fingerprint derivation
# ---------------------------------------------------------------------------

def _derive_mpk(msk: bytes) -> bytes:
    return hashlib.sha256(b"mpk:" + msk).digest()


def _prf(key: bytes, label: bytes, data: bytes = b"") -> bytes:
    return hmac.new(key, label + data, hashlib.sha256).digest()


def setup(lam: int, seed: Optional[int] = None) -> AnchorKeys:
    """Generate the anchor master key pair for security parameter ``lam``.

    An explicit ``seed`` makes the result reproducible; without one the
    secret comes from the OS entropy pool.
    """
    if lam not in SUPPORTED_LAMBDAS:
        raise ConfigurationError(f"unsupported security parameter {lam}")
    n_bytes = lam // 8
    if seed is None:
        msk = os.urandom(n_bytes)
    else:
        msk = random.Random(seed).randbytes(n_bytes)
    return AnchorKeys(msk=msk, mpk=_derive_mpk(msk), lam=lam)


def derive_challenge(anchor: AnchorKeys, index: int) -> bytes:
    """Keyed-hash challenge for the given enrollment index."""
    if index < 0:
        raise ValueError("challenge index must be non-negative")
    return _prf(anchor.msk, b"challenge:", str(index).encode("ascii"))[:CHALLENGE_BYTES]


def puf_respond(device: PufDevice, challenge: bytes) -> bytes:
    """Deterministic per-device response; doubles as the device id."""
    return _prf(device.device_seed, b"respond:", challenge)[:RESPONSE_BYTES]


def derive_keypair(anchor: AnchorKeys, response: bytes) -> tuple[bytes, bytes]:
    """Device key pair seeded by the master secret mixed with the response:
    (Ed25519 private seed, raw public key bytes).

    Mixing in the response keeps per-device keys distinct even though the
    generator takes only master-key material as its secret input.
    """
    seed = _prf(anchor.msk, b"keygen:", response)[:32]
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    pk = priv.public_key().public_bytes_raw()
    return seed, pk


def compute_token_id(device_id: bytes, public_key: bytes, owner_id: str) -> str:
    return hashlib.sha256(device_id + public_key + owner_id.encode("utf-8")).hexdigest()


def anchor_signing_seed(anchor: AnchorKeys) -> bytes:
    return _prf(anchor.msk, b"anchor-signing:")[:32]


def anchor_public_key(anchor: AnchorKeys) -> bytes:
    priv = Ed25519PrivateKey.from_private_bytes(anchor_signing_seed(anchor))
    return priv.public_key().public_bytes_raw()


# ---------------------------------------------------------------------------
# Signing and verification
# ---------------------------------------------------------------------------

def _sign_raw(seed: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(seed).sign(message)


def signature_valid(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def sign(message: bytes, sk: SigningKey, sim_time: int = 0) -> SignedEnvelope:
    """Sign a message under the device key; the envelope cites its token."""
    return SignedEnvelope(
        message=message,
        signature=_sign_raw(sk.seed, message),
        token_id=sk.token_id,
        sim_time=sim_time,
    )


def sign_as_anchor(message: bytes, anchor: AnchorKeys, sim_time: int = 0) -> SignedEnvelope:
    return SignedEnvelope(
        message=message,
        signature=_sign_raw(anchor_signing_seed(anchor), message),
        token_id=ANCHOR_TOKEN_ID,
        sim_time=sim_time,
    )


def enroll(
    device: PufDevice,
    owner_id: str,
    anchor: AnchorKeys,
    registry,
    challenge_index: int = 0,
    token_name: Optional[str] = None,
) -> tuple[SigningKey, str]:
    """Identity generation and binding.

    Challenges the device, refuses a second binding for the same response,
    derives the device key pair, and mints the token through the registry.
    Returns the device-held signing key and the committed token id.
    """
    challenge = derive_challenge(anchor, challenge_index)
    response = puf_respond(device, challenge)
    if registry.query(response) is not None:
        raise EnrollmentRejected(f"device {device.hardware_label!r} already enrolled")
    seed, pk = derive_keypair(anchor, response)
    token = registry.create_nft(
        response,
        owner_id,
        pk,
        anchor=anchor,
        challenge_index=challenge_index,
        token_name=token_name or f"device:{device.hardware_label}",
    )
    return SigningKey(seed=seed, token_id=token.token_id), token.token_id


def verify(
    env: SignedEnvelope,
    registry,
    anchor: Optional[AnchorKeys] = None,
    puf_oracle: Optional[Callable[[bytes], bytes]] = None,
) -> VerifyStatus:
    """Three-stage envelope verification.

    1. Look the token up by the envelope's token id; absence or a revoked
       flag halts with BOTTOM.
    2. With a live device oracle, re-derive the enrollment challenge and
       compare the fresh response to the token's device id; mismatch halts
       with BOTTOM. Without an oracle this stage is skipped and the result
       is only a partial (signature-only) verification.
    3. Check the signature under the token's public key: ACCEPT or REJECT.

    Ledger endorsement and telemetry tamper detection both apply this rule.
    """
    token = registry.query(env.token_id)
    if token is None:
        return VerifyStatus.BOTTOM
    if token.constraints.revoked:
        return VerifyStatus.BOTTOM
    if puf_oracle is not None:
        if anchor is None:
            raise ConfigurationError("live verification requires the anchor keys")
        index = registry.challenge_index_for(token.device_id)
        challenge = derive_challenge(anchor, index)
        if puf_oracle(challenge) != token.device_id:
            return VerifyStatus.BOTTOM
    if signature_valid(token.public_key, env.message, env.signature):
        return VerifyStatus.ACCEPT
    return VerifyStatus.REJECT


def make_device(label: str, seed: Optional[int] = None) -> PufDevice:
    """Convenience factory for simulated devices.

    The label is mixed into the secret, so two devices share a fingerprint
    only when both label and seed coincide.
    """
    if seed is None:
        raw = os.urandom(32)
    else:
        material = random.Random(seed).randbytes(32)
        raw = _prf(material, b"device:", label.encode("utf-8"))
    return PufDevice(device_seed=raw, hardware_label=label)
