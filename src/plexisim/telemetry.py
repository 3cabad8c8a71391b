"""Telemetry ingestion, attack injection, and flexibility estimation.

Dataset rows carry site net power, ambient temperature, HVAC draw, and the
theoretical demand-response headroom, sampled every 30 minutes. Both
injection attacks, FDI and MadIoT, scale one field of the readings in a
window up by a percentage of themselves (attacked = original + original *
fraction / 100). Samples signed at ingestion, one signature per day of
samples, can be re-verified later to flag exactly the samples mutated
after signing. Each day's signed message opens with a header line,
``{"day":k,"days":n}``, that binds it to its place in the stream: a day
replayed or moved to another place is flagged whole, and a stream shorter
than it was signed, by whole days or by samples cut from its end, is
refused. The check runs a day at a time, with one verify per day.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter
from typing import Optional, Sequence

from .errors import ConfigurationError, IngestionError, ValidationError
from . import identity
from .jsonread import canonical_json

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
    # The sample's canonical line, kept by ``canonical_sample_bytes`` once it
    # has checked that every field is immutable. Unset until then (the class
    # default), and not copied by ``dataclasses.replace``.
    _line: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)


# The constructor's arguments, in order, and a getter that reads them off a
# sample as one tuple.
_SAMPLE_FIELDS = tuple(f.name for f in fields(TelemetrySample) if f.init)
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
    # objects, and the new sample keeps no line until it is formatted.
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

# One sample line: keys in sorted order, compact separators. isoformat()
# yields only digits and "-T:.+", which json never escapes.
_SAMPLE_LINE = '{"hvac":%s,"hvac_demand_res":%s,"net":%s,"tamb":%s,"time":"%s"}'
# The same line for four finite floats: %r is float.__repr__.
_FLOAT_LINE = _SAMPLE_LINE.replace("%s", "%r", 4)


def _json_reading(v) -> str:
    # float.__repr__ is json's spelling of a finite float (v - v is nan for
    # nan and +-inf); anything else, float subclasses included, goes through
    # json itself, which also raises for what json.dumps rejects.
    return float.__repr__(v) if type(v) is float and v - v == 0.0 else canonical_json(v)


def canonical_sample_bytes(sample: TelemetrySample) -> bytes:
    """Sorted-key compact JSON of one sample, byte-identical to
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.

    A sample whose readings are exact finite floats and whose ``time`` is an
    exact ``datetime`` with no tzinfo or a ``datetime.timezone`` cannot change
    (the dataclass is frozen and those values are immutable), so its line is
    formatted once and kept on the sample. Any other sample is formatted at
    every call, so a mutable reading changed after signing is still seen.
    """
    line = sample._line
    if line is not None:
        return line
    hvac, res, net, tamb = (sample.hvac_kw, sample.hvac_demand_res_kw,
                            sample.net_kw, sample.tamb_c)
    time = sample.time
    if (type(hvac) is float and type(res) is float and type(net) is float
            and type(tamb) is float
            and 0.0 == hvac - hvac == res - res == net - net == tamb - tamb
            and type(time) is datetime
            and (time.tzinfo is None or type(time.tzinfo) is timezone)):
        line = (_FLOAT_LINE % (hvac, res, net, tamb, time.isoformat())).encode("utf-8")
        object.__setattr__(sample, "_line", line)
        return line
    return (_SAMPLE_LINE % (
        _json_reading(hvac),
        _json_reading(res),
        _json_reading(net),
        _json_reading(tamb),
        time.isoformat(),
    )).encode("utf-8")


# The first line of each day's signed message: the day's index in the
# stream and the stream's day count. The pattern reads back exactly the
# lines that the template writes.
_DAY_HEADER = b'{"day":%d,"days":%d}'
_DAY_HEADER_LINE = re.compile(rb'\{"day":(0|[1-9][0-9]*),"days":([1-9][0-9]*)\}')


def sign_stream(
    series: Sequence[TelemetrySample],
    key: identity.SigningKey,
    sim_time: int = 0,
) -> list:
    """Sign each day of samples; return one envelope per day.

    Day k of n holds samples ``[48k, 48k + 48)``. Its message is the header
    line ``{"day":k,"days":n}`` followed by the day's
    ``canonical_sample_bytes``, joined by ``b"\\n"`` (canonical JSON holds no
    raw newline). The header binds the signed lines to their place: the
    same samples signed as another day, or in a stream of another length,
    sign other bytes.
    """
    days = -(-len(series) // SAMPLES_PER_DAY)
    envelopes = []
    for d in range(days):
        day = series[d * SAMPLES_PER_DAY:(d + 1) * SAMPLES_PER_DAY]
        message = b"\n".join([_DAY_HEADER % (d, days), *map(canonical_sample_bytes, day)])
        envelopes.append(identity.sign(message, key, sim_time))
    return envelopes


def _signed_day(env: identity.SignedEnvelope, registry, days: int, last_day: int) -> tuple:
    """The day index that ``env`` names and the sample lines it signs, or
    ``(None, [])`` when its signature is not accepted or its message opens
    with no day header. A header that counts other than ``days`` days, or
    that names the last day over more lines than the series' last day holds
    (``last_day`` samples), raises ``ValidationError``."""
    if identity.verify(env, registry) is not identity.VerifyStatus.ACCEPT:
        return None, []
    header, *lines = env.message.split(b"\n")
    match = _DAY_HEADER_LINE.fullmatch(header)
    if match is None:
        return None, []
    day, signed_days = int(match[1]), int(match[2])
    if signed_days != days:
        raise ValidationError(f"series holds {days} days of samples, but its "
                              f"signatures count {signed_days}")
    if day == days - 1 and len(lines) > last_day:
        raise ValidationError(f"the series' last day holds {last_day} samples, "
                              f"but its signature covers {len(lines)}")
    return day, lines


def detect_tamper(
    series: Sequence[TelemetrySample],
    envelopes: Sequence[identity.SignedEnvelope],
    registry,
) -> list:
    """Sorted indices of samples that no accepted signature covers as stored.

    ``envelopes[d]`` signs day d, samples ``[48d, 48d + 48)``; a list whose
    length is not the series' day count raises ``ValidationError``. Each
    envelope is verified once per call, and every sample of its day is
    flagged when that verify is not ACCEPT (bad signature, unknown or
    revoked token) or when the envelope's header names another day or none.
    Otherwise a sample is flagged when its offset in the day is past the
    signed message's sample lines, or when the signed line there differs
    from the sample's current canonical bytes. So any post-signing mutation
    of a signed field is flagged, and so is a sample moved to another
    offset, whose timestamp differs from the one signed there, and every
    sample of a day replayed or moved with its envelope. A series shorter
    than it was signed is refused: a verified header whose day count
    differs from the series', or whose last day signs more lines than the
    series' last day holds, raises ``ValidationError``, as a dropped day or
    samples cut from the end do.

    Verify verdicts are never cached across calls, so a revocation flags
    every index at the next call. A sample that ``sign_stream`` formatted
    keeps its line (see ``canonical_sample_bytes``) and is not formatted
    again here. Mutations made before signing are invisible by construction.
    """
    days = -(-len(series) // SAMPLES_PER_DAY)
    if len(envelopes) != days:
        raise ValidationError(f"series holds {days} days of samples, but "
                              f"{len(envelopes)} envelopes are given")
    last_day = len(series) - (days - 1) * SAMPLES_PER_DAY
    flagged = []
    for d, env in enumerate(envelopes):
        day, lines = _signed_day(env, registry, days, last_day)
        lo = d * SAMPLES_PER_DAY
        for offset, sample in enumerate(series[lo:lo + SAMPLES_PER_DAY]):
            if (day != d or offset >= len(lines)
                    or lines[offset] != canonical_sample_bytes(sample)):
                flagged.append(lo + offset)
    return flagged
