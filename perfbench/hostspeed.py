"""Host-speed reference: a fixed block of work timed between operations.

On a shared host the same code runs in fast and slow phases up to 2x apart,
lasting seconds to minutes, so runs a few minutes apart disagree by more
than any regression bound worth having. Every worker therefore times this
block (benchmark-owned code that no change to plexisim can touch) every
``EVERY_S`` seconds between operations, and scales each host time by
``REF_S`` over the block's time around it. The scaled figures read as host
times on a machine where the block takes ``REF_S``; the unscaled ones are
kept in the run's record.

The block mixes what plexisim spends its time on: interpreter work on dicts,
strings and tuples, SHA-256 over JSON as a ledger block does, and Ed25519
signing and verification through ``cryptography``.
"""

from __future__ import annotations

import hashlib
import json
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

REF_S = 0.005            # nominal block time the scaled figures refer to
EVERY_S = 0.2            # host time between two timings of the block
REPEATS = 2              # each timing keeps the faster of this many blocks

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUB = _KEY.public_key()
_MSGS = [f"reference-{i:02d}".encode() * 6 for i in range(6)]
_SIGS = [_KEY.sign(m) for m in _MSGS]


def block() -> str:
    table = {f"key-{i:04d}": (i * 7919) % 1013 for i in range(1200)}
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    digest = hashlib.sha256()
    for key, value in ranked[:250]:
        digest.update(json.dumps({"k": key, "v": value, "t": [value, key]},
                                 sort_keys=True).encode())
    for msg, sig in zip(_MSGS, _SIGS):
        _KEY.sign(msg)
        _PUB.verify(sig, msg)
    return digest.hexdigest()


def time_block() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        block()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Timings of the block, taken at most every ``EVERY_S`` on demand."""

    def __init__(self):
        self.points: list[float] = []
        self.taken_at = float("-inf")

    def take(self) -> int:
        """Time the block now; returns the index of the new point."""
        self.points.append(time_block())
        self.taken_at = time.perf_counter()
        return len(self.points) - 1

    def due(self) -> None:
        """Take a point if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self.taken_at >= EVERY_S:
            self.take()

    def scale(self, first: int, last: int) -> float:
        """``REF_S`` over the mean block time of points ``first..last``."""
        span = self.points[first:last + 1]
        return REF_S * len(span) / sum(span)
