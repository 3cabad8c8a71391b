"""Telemetry ingestion, attack injection, and flexibility estimation.

Dataset rows carry site net power, ambient temperature, HVAC draw, and the
theoretical demand-response headroom, sampled every 30 minutes. Both
injection attacks, FDI and MadIoT, scale one field of the readings in a
window up by a percentage of themselves (attacked = original + original *
fraction / 100). Samples signed at ingestion, one signature per day of
samples, can be re-verified later to flag exactly the samples mutated
after signing. Each sample is signed as one fixed-width 52-byte record;
one encoder builds a day's records in one pass (``canonical_sample_bytes``
is its one-sample case). Each day's signed message opens with a header
line, ``{"day":k,"days":n,"start":"<isoformat>"}``, that binds it to its
place in its stream and to the stream's first sample time: a day replayed,
moved to another place or spliced in from another stream is flagged whole,
and a stream shorter than it was signed, by whole days or by samples cut
from its end, is refused. The check runs a day at a time, with one verify
per day.
"""

from __future__ import annotations

import csv
import math
import random
import re
import struct
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter
from typing import Optional, Sequence

from .errors import ConfigurationError, IngestionError, ValidationError
from . import identity

CSV_HEADER = ["time", "net", "tamb", "hvac", "hvac_demand_res"]
SAMPLE_MINUTES = 30
SAMPLES_PER_DAY = 24 * 60 // SAMPLE_MINUTES
# generate_synthetic makes at most ten years of samples; the paper's dataset
# covers one.
MAX_SYNTHETIC_DAYS = 3650

TARGET_FIELDS = ("net_kw", "tamb_c", "hvac_kw")


@dataclass(frozen=True)
class TelemetrySample:
    time: datetime
    net_kw: float
    tamb_c: float
    hvac_kw: float
    hvac_demand_res_kw: float


# The constructor's arguments, in order, and a getter that reads them off a
# sample as one tuple.
_SAMPLE_FIELDS = tuple(f.name for f in fields(TelemetrySample))
_sample_args = attrgetter(*_SAMPLE_FIELDS)


class AttackKind(Enum):
    FDI = "fdi"
    MADIOT = "madiot"


@dataclass(frozen=True)
class AttackProfile:
    kind: AttackKind
    target_field: str
    magnitude: float                     # percent of the original reading
    window: Optional[tuple] = None       # (start, end) sample indices


# ---------------------------------------------------------------------------
# Ingestion and synthesis
# ---------------------------------------------------------------------------

# A reading cell: a decimal number, or nan/inf, which the finiteness check
# then refuses. float() alone also takes "1_0" as 10.0, and surrounding
# spaces and non-ASCII digits.
_READING = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                      r"|nan|inf(?:inity)?)", re.IGNORECASE)


def _reading(cell: str) -> float:
    if not _READING.fullmatch(cell):
        raise ValueError(f"{cell!r} is not a decimal number")
    return float(cell)


def load_dataset(path) -> list:
    """Parse and validate a telemetry CSV of one or more samples; errors carry the row number."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        # Decoding runs ahead of the csv reader, so no row number is known.
        raise IngestionError(f"cannot read {path} as UTF-8 CSV: {exc}") from None
    if not rows:
        raise IngestionError("empty file")
    header = rows[0]
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise IngestionError(f"missing column {missing[0]!r}")
        raise IngestionError(f"header must be exactly {','.join(CSV_HEADER)}")
    series: list[TelemetrySample] = []
    stride = timedelta(minutes=SAMPLE_MINUTES)
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise IngestionError("wrong column count", row=row_no)
        try:
            sample = TelemetrySample(
                time=datetime.fromisoformat(row[0]),
                net_kw=_reading(row[1]),
                tamb_c=_reading(row[2]),
                hvac_kw=_reading(row[3]),
                hvac_demand_res_kw=_reading(row[4]),
            )
        except ValueError as exc:
            raise IngestionError(f"unparsable row: {exc}", row=row_no) from None
        if not all(map(math.isfinite, (sample.net_kw, sample.tamb_c, sample.hvac_kw,
                                       sample.hvac_demand_res_kw))):
            raise IngestionError("non-finite reading", row=row_no)
        if sample.hvac_kw < 0:
            raise IngestionError("hvac consumption cannot be negative", row=row_no)
        if series:
            # A naive and an offset-carrying time do not compare.
            if (sample.time.tzinfo is None) is not (series[-1].time.tzinfo is None):
                raise IngestionError("timestamps mix naive and UTC-offset forms", row=row_no)
            if sample.time <= series[-1].time:
                raise IngestionError("timestamps not strictly increasing", row=row_no)
            if sample.time - series[-1].time != stride:
                raise IngestionError("stride is not 30 minutes", row=row_no)
        series.append(sample)
    if not series:
        raise IngestionError("no sample row")
    return series


def write_dataset(path, series: Sequence[TelemetrySample]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in series:
            writer.writerow(
                [s.time.isoformat(), repr(s.net_kw), repr(s.tamb_c),
                 repr(s.hvac_kw), repr(s.hvac_demand_res_kw)]
            )


# Synthetic site: rooftop solar peaks below the base load, so net stays positive.
BASE_LOAD_KW = 60.0
SOLAR_PEAK_KW = 25.0


def generate_synthetic(days: int, seed: int = 0, start: Optional[datetime] = None) -> list:
    """Schema-identical synthetic series: diurnal HVAC cycle, seasonal tamb."""
    if days < 1:
        raise ValidationError("need at least one day")
    if days > MAX_SYNTHETIC_DAYS:
        raise ValidationError(f"{days} days is more than {MAX_SYNTHETIC_DAYS} "
                              f"days of synthetic telemetry")
    rng = random.Random(seed)
    start = start or datetime(2021, 1, 1)
    series = []
    for i in range(days * SAMPLES_PER_DAY):
        t = start + timedelta(minutes=SAMPLE_MINUTES * i)
        hour = t.hour + t.minute / 60.0
        day_of_year = t.timetuple().tm_yday
        seasonal = 6.0 * math.sin(2 * math.pi * (day_of_year - 15) / 365.0)
        diurnal = 5.0 * math.sin(2 * math.pi * (hour - 9) / 24.0)
        tamb = 20.0 + seasonal + diurnal + rng.uniform(-0.5, 0.5)
        # HVAC chases the deviation from the comfort band, office hours only.
        occupancy = 1.0 if 8 <= hour < 18 else 0.25
        hvac = occupancy * (8.0 + 2.2 * abs(tamb - 21.0)) + rng.uniform(0.0, 1.5)
        solar = SOLAR_PEAK_KW * max(0.0, math.sin(math.pi * (hour - 6) / 12.0))
        net = BASE_LOAD_KW + hvac - solar + rng.uniform(-2.0, 2.0)
        dr = 0.6 * hvac
        series.append(
            TelemetrySample(
                time=t,
                net_kw=round(net, 3),
                tamb_c=round(tamb, 3),
                hvac_kw=round(hvac, 3),
                hvac_demand_res_kw=round(dr, 3),
            )
        )
    return series


# ---------------------------------------------------------------------------
# Attack injection
# ---------------------------------------------------------------------------

def fdi_inject(
    series: Sequence[TelemetrySample],
    fraction: float,
    target_field: str = "net_kw",
    window: Optional[tuple] = None,
) -> list:
    """Scale the target readings in ``window`` up by ``fraction`` percent of
    themselves; the input series is never mutated."""
    if target_field not in TARGET_FIELDS:
        raise ValidationError(f"cannot attack field {target_field!r}")
    if not 0 < fraction <= 100:
        raise ValidationError("fraction must be in (0, 100]")
    lo, hi = (0, len(series)) if window is None else window
    if not (0 <= lo <= hi <= len(series)):
        raise ValidationError(f"window {window} outside series bounds")
    out = list(series)
    # The constructor builds an attacked sample at about half the cost of
    # dataclasses.replace: the other fields pass through as the same
    # objects.
    at = _SAMPLE_FIELDS.index(target_field)
    for i in range(lo, hi):
        args = list(_sample_args(out[i]))
        v = args[at]
        args[at] = v + v * fraction / 100.0
        out[i] = TelemetrySample(*args)
    return out


def madiot_inject(
    series: Sequence[TelemetrySample],
    fraction: float,
    target_field: str = "tamb_c",
    window: Optional[tuple] = None,
) -> list:
    """Synchronized sensor manipulation: readings scaled by (1 + f/100)."""
    return fdi_inject(series, fraction, target_field, window)


def apply_profile(series: Sequence[TelemetrySample], profile: AttackProfile) -> list:
    """Run the injection described by an attack profile. Both kinds scale
    the profile's target field, so one injection serves FDI and MadIoT."""
    return fdi_inject(series, profile.magnitude, profile.target_field, profile.window)


def madiot_gain(deltas: Sequence[float], t: int) -> float:
    """Cumulative gain after the first ``t`` attack steps."""
    if not 0 <= t <= len(deltas):
        raise IndexError(f"t={t} outside 0..{len(deltas)}")
    return sum(deltas[:t])


def per_step_deltas(
    original: Sequence[TelemetrySample],
    attacked: Sequence[TelemetrySample],
    target_field: str,
) -> list:
    if len(original) != len(attacked):
        raise ValidationError("series lengths differ")
    return [
        getattr(a, target_field) - getattr(o, target_field)
        for o, a in zip(original, attacked)
    ]


# ---------------------------------------------------------------------------
# Flexibility estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Linear headroom model: a*net + b*hvac - c*(tamb - t_ref), floored at 0."""

    a: float = 0.05
    b: float = 0.5
    c: float = 1.0
    t_ref: float = 22.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ConfigurationError("estimator coefficients must be positive")


ESTIMATOR = EstimatorConfig()


def estimate_flexibility(series: Sequence[TelemetrySample]) -> list:
    """Per-sample demand-flexibility estimate in kW under ``ESTIMATOR``."""
    a, b, c, t_ref = ESTIMATOR.a, ESTIMATOR.b, ESTIMATOR.c, ESTIMATOR.t_ref
    # The same floor as max(0.0, x), nan and -0.0 included, without the call.
    return [x if (x := a * s.net_kw + b * s.hvac_kw - c * (s.tamb_c - t_ref)) > 0.0 else 0.0
            for s in series]


# ---------------------------------------------------------------------------
# Stream signing and tamper detection
# ---------------------------------------------------------------------------

# One sample's record: its four readings as IEEE-754 doubles, in field order,
# the days, seconds and microseconds of its wall time less datetime.min, and
# its UTC offset in microseconds, or _NAIVE for a time with no tzinfo.
_RECORD = struct.Struct("<4diiiq")
RECORD_SIZE = _RECORD.size
# Outside the +-24 h that a UTC offset can take.
_NAIVE = -(2 ** 63)
_US = timedelta(microseconds=1)
_MIN = datetime.min
_MIN_UTC = datetime.min.replace(tzinfo=timezone.utc)


def _domain_error(sample: TelemetrySample) -> ValidationError:
    """The error that names the first field the record does not take."""
    for name in _SAMPLE_FIELDS[1:]:
        value = getattr(sample, name)
        if type(value) is not float:
            return ValidationError(f"sample field {name} is {type(value).__name__}, "
                                   f"not float")
    if type(sample.time) is not datetime:
        return ValidationError(f"sample time is {type(sample.time).__name__}, not datetime")
    return ValidationError(f"sample time's tzinfo is {type(sample.time.tzinfo).__name__}, "
                           f"neither None nor datetime.timezone")


def _records(samples: Sequence[TelemetrySample]) -> list:
    """The day encoder: the ``canonical_sample_bytes`` of each sample in one
    pass, in order, with ``None`` for a sample that the record refuses."""
    pack = _RECORD.pack
    records = []
    append = records.append
    for sample in samples:
        time = sample.time
        net = sample.net_kw
        tamb = sample.tamb_c
        hvac = sample.hvac_kw
        res = sample.hvac_demand_res_kw
        if not (type(net) is type(tamb) is type(hvac) is type(res) is float
                and type(time) is datetime):
            append(None)
            continue
        tz = time.tzinfo
        if tz is None:
            since, offset = time - _MIN, _NAIVE
        elif type(tz) is timezone:
            # An aware difference is taken in UTC; the offset turns it back
            # into wall-clock time.
            utcoffset = tz.utcoffset(None)
            since, offset = time - _MIN_UTC + utcoffset, utcoffset // _US
        else:
            append(None)
            continue
        append(pack(net, tamb, hvac, res, since.days, since.seconds, since.microseconds, offset))
    return records


def canonical_sample_bytes(sample: TelemetrySample) -> bytes:
    """The 52-byte record that signs one sample: ``net_kw``, ``tamb_c``,
    ``hvac_kw`` and ``hvac_demand_res_kw`` as little-endian doubles, then
    the ``days``, ``seconds`` and ``microseconds`` of the wall-clock time
    less ``datetime.min`` as signed 32-bit ints, then the UTC offset in
    microseconds as a signed 64-bit int, or ``-2**63`` for a time with no
    tzinfo: the one-sample case of the day encoder.

    Only immutable values are encoded: each reading must be an exact
    ``float`` (compared by bit pattern, so ``0.0`` and ``-0.0`` differ, and
    so do NaN payloads) and ``time`` an exact ``datetime`` whose tzinfo is
    ``None`` or a ``datetime.timezone``. Anything else, ints, bools and
    float subclasses included, raises ``ValidationError``. Two such samples
    encode equal exactly when their readings' bits, wall times and offsets
    (or both being naive) are equal. The record is built again at each
    call; nothing is kept on the sample.
    """
    record, = _records((sample,))
    if record is None:
        raise _domain_error(sample)
    return record


# The first line of each day's signed message: the day's index in the
# stream, the stream's day count and the isoformat of its first sample's
# time, which holds only digits and "-T:.+". The pattern reads back exactly
# the lines that the template writes.
_DAY_HEADER = b'{"day":%d,"days":%d,"start":"%s"}\n'
_DAY_HEADER_LINE = re.compile(
    rb'\{"day":(0|[1-9][0-9]*),"days":([1-9][0-9]*),"start":"([-0-9T:.+]+)"\}')


def sign_stream(
    series: Sequence[TelemetrySample],
    key: identity.SigningKey,
    sim_time: int = 0,
) -> list:
    """Sign each day of samples; return one envelope per day.

    Day k of n holds samples ``[48k, 48k + 48)``. Its message is the header
    line ``{"day":k,"days":n,"start":"<isoformat of series[0].time>"}``,
    then ``b"\\n"``, then the day's ``canonical_sample_bytes`` back to back.
    The header binds the signed records to their place and their stream:
    the same samples signed as another day, in a stream of another length
    or in a stream that starts at another time, sign other bytes. The day
    encoder runs once over the whole series before any day is signed, so a
    sample that the record refuses raises ``ValidationError`` naming its
    field, and nothing is signed.
    """
    records = _records(series)
    if None in records:
        raise _domain_error(series[records.index(None)])
    bodies = [b"".join(records[lo:lo + SAMPLES_PER_DAY])
              for lo in range(0, len(records), SAMPLES_PER_DAY)]
    if not bodies:
        return []
    start = series[0].time.isoformat().encode("ascii")
    return [identity.sign(_DAY_HEADER % (d, len(bodies), start) + body, key, sim_time)
            for d, body in enumerate(bodies)]


def detect_tamper(
    series: Sequence[TelemetrySample],
    envelopes: Sequence[identity.SignedEnvelope],
    registry,
    signer: Optional[str] = None,
    start: Optional[datetime] = None,
) -> list:
    """Sorted indices of samples that no accepted signature covers as stored.

    ``envelopes[d]`` signs day d, samples ``[48d, 48d + 48)``; a list whose
    length is not the series' day count raises ``ValidationError``. Every
    sample of a day is flagged when its envelope's message opens with no day
    header, when the header names another stream start, when ``signer`` is
    given and the envelope cites another token, when the envelope's verify
    is not ACCEPT (bad signature, unknown or revoked token), when the header
    names another day, or when the signed records are not a whole number of
    52-byte records. The checks run in that order, so an envelope is
    verified at most once per call, and not at all when a cheaper check
    flags its day. Otherwise a sample is flagged when its offset in the day
    is past the signed records, when the signed record there differs from
    the sample's ``canonical_sample_bytes`` or when the sample is one that
    the record refuses. So any post-signing mutation of a signed field is
    flagged, and so is a sample moved to another offset, whose timestamp
    differs from the one signed there, and every sample of a day replayed or
    moved with its envelope. A series shorter than it was
    signed is refused: an accepted header of the stream whose day count
    differs from the series', or whose last day signs more records than the
    series' last day holds, raises ``ValidationError``, as a dropped day or
    samples cut from the end do.

    ``start`` is the time of the stream's first sample as it was signed
    (``sign_stream`` writes its isoformat into every header); a day signed
    for a stream that starts at another time is flagged whole, at one
    compare per day. Without ``start``, the stream is the one that the first
    envelope with a day header names, accepted or not. That binds the days
    to one another but not to a stream the caller chose: a whole stream
    offered with its own envelopes passes, and a day 0 spliced in with its
    envelope from another stream passes while every other day is flagged.

    ``signer`` is the token id of the meter that should sign the stream.
    Without it the check proves only that some live enrolled device signed
    each day: the holder of any enrolled key can falsify the stream, sign it
    again and pass this check.

    Verify verdicts are never cached across calls, so a revocation flags
    every index at the next call. The day encoder builds a day's records in
    one pass, so each sample is encoded at most once per call, and a day
    whose records all match is compared in one step.
    Mutations made before signing are invisible by construction.
    """
    days = -(-len(series) // SAMPLES_PER_DAY)
    if len(envelopes) != days:
        raise ValidationError(f"series holds {days} days of samples, but "
                              f"{len(envelopes)} envelopes are given")
    last_day = len(series) - (days - 1) * SAMPLES_PER_DAY
    expected = None if start is None else start.isoformat().encode("ascii")
    flagged = []
    for d, env in enumerate(envelopes):
        lo = d * SAMPLES_PER_DAY
        day = series[lo:lo + SAMPLES_PER_DAY]
        header, _, body = env.message.partition(b"\n")
        match = _DAY_HEADER_LINE.fullmatch(header)
        if match is not None and expected is None:
            expected = match[3]
        if (match is None or match[3] != expected
                or signer is not None and env.token_id != signer
                or identity.verify(env, registry) is not identity.VerifyStatus.ACCEPT):
            flagged.extend(range(lo, lo + len(day)))
            continue
        signed_day, signed_days = int(match[1]), int(match[2])
        if signed_days != days:
            raise ValidationError(f"series holds {days} days of samples, but its "
                                  f"signatures count {signed_days}")
        count, partial = divmod(len(body), RECORD_SIZE)
        if signed_day == days - 1 and not partial and count > last_day:
            raise ValidationError(f"the series' last day holds {last_day} samples, "
                                  f"but its signature covers {count}")
        if signed_day != d or partial:
            flagged.extend(range(lo, lo + len(day)))
            continue
        records = _records(day)
        if None not in records and b"".join(records) == body:
            continue
        for offset, record in enumerate(records):
            at = offset * RECORD_SIZE
            # Past the signed records the slice is empty, which no record is.
            if record is None or record != body[at:at + RECORD_SIZE]:
                flagged.append(lo + offset)
    return flagged
