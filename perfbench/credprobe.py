"""Measured cost of a certificate credential against an identity token.

simnet assumes certificate verification costs ``CERT_VERIFY_FACTOR`` = 35/24
times token verification; nothing in the package measures it. The token
path is a registry lookup plus an Ed25519 verify. The certificate path is
built locally with ``cryptography.x509``: parse the device certificate,
check the issuer's signature on it, then verify the message under the
certificate's key. Both sign the same message with the same device key.
The ratio is reported only; no default or acceptance band depends on it.
"""

from __future__ import annotations

import datetime
import statistics
import time

from cryptography import x509
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding
from cryptography.x509.oid import NameOID

from plexisim import identity, simnet
from plexisim.clock import SimClock
from plexisim.ledger import LedgerSim

REPEATS = 1500


def _certificate(subject_key, issuer_key, issuer_name: x509.Name, cn: str) -> x509.Certificate:
    start = datetime.datetime(2021, 1, 1, tzinfo=datetime.timezone.utc)
    return (
        x509.CertificateBuilder()
        .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, cn)]))
        .issuer_name(issuer_name)
        .public_key(subject_key.public_key())
        .serial_number(1)
        .not_valid_before(start)
        .not_valid_after(start + datetime.timedelta(days=3650))
        .sign(issuer_key, algorithm=None)
    )


def measure(seed: int) -> dict:
    """Median µs of each path, interleaved so drift hits both equally."""
    anchor = identity.setup(128, seed=seed)
    registry = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(anchor))
    device = identity.make_device("probe-device", seed=seed)
    key, token_id = identity.enroll(device, "probe-owner", anchor, registry)
    message = b"probe:" + bytes(range(48))
    env = identity.sign(message, key)

    ca_key = Ed25519PrivateKey.from_private_bytes(identity.anchor_signing_seed(anchor))
    ca_name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "probe-ca")])
    ca_cert = _certificate(ca_key, ca_key, ca_name, "probe-ca")
    device_key = Ed25519PrivateKey.from_private_bytes(key.seed)
    der = _certificate(device_key, ca_key, ca_name, "probe-device").public_bytes(Encoding.DER)

    def token_path() -> None:
        token = registry.query(env.token_id)
        if not identity.signature_valid(token.public_key, env.message, env.signature):
            raise AssertionError("token path rejected an honest signature")

    def cert_path() -> None:
        cert = x509.load_der_x509_certificate(der)
        cert.verify_directly_issued_by(ca_cert)  # raises on a bad issuer signature
        cert.public_key().verify(env.signature, env.message)  # raises on a bad signature

    token_us, cert_us = [], []
    for _ in range(REPEATS):
        for path, sink in ((token_path, token_us), (cert_path, cert_us)):
            t0 = time.perf_counter_ns()
            path()
            sink.append((time.perf_counter_ns() - t0) / 1e3)
    token_med, cert_med = statistics.median(token_us), statistics.median(cert_us)
    return {
        "identity.token_verify_us": token_med,
        "identity.cert_verify_us": cert_med,
        "identity.cert_over_token_verify": cert_med / token_med,
        "identity.cert_verify_factor_calibrated": simnet.CERT_VERIFY_FACTOR,
    }
