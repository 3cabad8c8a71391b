import dataclasses
import json
import math
import random
import struct
from datetime import datetime, timedelta, timezone, tzinfo
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plexisim import identity, telemetry
from plexisim.clock import SimClock
from plexisim.errors import ConfigurationError, IngestionError, ValidationError
from plexisim.ledger import LedgerSim
from plexisim.telemetry import (
    EstimatorConfig,
    TelemetrySample,
    canonical_sample_bytes,
    detect_tamper,
    estimate_flexibility,
    fdi_inject,
    generate_synthetic,
    load_dataset,
    madiot_gain,
    madiot_inject,
    per_step_deltas,
    sign_stream,
    write_dataset,
)


def samples(values, field="net_kw", start=None):
    start = start or datetime(2021, 6, 1)
    base = {"net_kw": 50.0, "tamb_c": 20.0, "hvac_kw": 10.0, "hvac_demand_res_kw": 6.0}
    out = []
    for i, v in enumerate(values):
        kw = dict(base)
        kw[field] = v
        out.append(TelemetrySample(time=start + timedelta(minutes=30 * i), **kw))
    return out


class TestLoadDataset:
    def test_happy_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, samples([100.0, 200.0]))
        series = load_dataset(path)
        assert len(series) == 2
        assert series[1].time - series[0].time == timedelta(minutes=30)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,net,hvac,hvac_demand_res\n")
        with pytest.raises(IngestionError, match="tamb"):
            load_dataset(path)

    def test_out_of_order_times(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = samples([1.0, 2.0])
        write_dataset(path, [rows[1], rows[0]])
        with pytest.raises(IngestionError, match="row 3"):
            load_dataset(path)

    def test_wrong_stride(self, tmp_path):
        path = tmp_path / "d.csv"
        a = samples([1.0])[0]
        b = TelemetrySample(a.time + timedelta(minutes=31), 2.0, 20.0, 1.0, 0.5)
        write_dataset(path, [a, b])
        with pytest.raises(IngestionError, match="30 minutes"):
            load_dataset(path)

    def test_unparsable_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,net,tamb,hvac,hvac_demand_res\n"
            "2021-06-01T00:00:00,1.0,20.0,1.0,0.5\n"
            "2021-06-01T00:30:00,oops,20.0,1.0,0.5\n"
        )
        with pytest.raises(IngestionError, match="row 3"):
            load_dataset(path)

    def test_negative_hvac_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,net,tamb,hvac,hvac_demand_res\n"
            "2021-06-01T00:00:00,1.0,20.0,-1.0,0.5\n"
        )
        with pytest.raises(IngestionError):
            load_dataset(path)

    @pytest.mark.parametrize("row", [
        "nan,20.0,1.0,0.5", "inf,20.0,1.0,0.5", "1.0,-inf,1.0,0.5",
        "1.0,20.0,nan,0.5", "1.0,20.0,1.0,nan",
    ])
    def test_non_finite_reading_rejected(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,net,tamb,hvac,hvac_demand_res\n"
            "2021-06-01T00:00:00,1.0,20.0,1.0,0.5\n"
            f"2021-06-01T00:30:00,{row}\n"
        )
        with pytest.raises(IngestionError, match="row 3: non-finite reading"):
            load_dataset(path)


class TestFdi:
    def test_two_percent_arithmetic(self):
        series = samples([100.0, 200.0])
        attacked = fdi_inject(series, 2.0, "net_kw")
        assert [s.net_kw for s in attacked] == [102.0, 204.0]

    def test_negative_values_scale_too(self):
        attacked = fdi_inject(samples([-50.0]), 2.0, "net_kw")
        assert attacked[0].net_kw == pytest.approx(-51.0)

    @pytest.mark.parametrize("fraction", [0.0, -1.0, 101.0])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ValidationError):
            fdi_inject(samples([1.0]), fraction, "net_kw")

    def test_input_series_never_mutated(self):
        series = samples([10.0, 20.0])
        fdi_inject(series, 2.0, "net_kw")
        assert [s.net_kw for s in series] == [10.0, 20.0]

    def test_other_fields_untouched(self):
        series = samples([10.0])
        attacked = fdi_inject(series, 2.0, "net_kw")
        assert attacked[0].tamb_c == series[0].tamb_c
        assert attacked[0].hvac_kw == series[0].hvac_kw

    def test_window_slice(self):
        series = samples([10.0, 10.0, 10.0, 10.0])
        attacked = fdi_inject(series, 10.0, "net_kw", window=(1, 3))
        assert [s.net_kw for s in attacked] == [10.0, 11.0, 11.0, 10.0]

    def test_window_bounds_checked(self):
        with pytest.raises(ValidationError):
            fdi_inject(samples([1.0]), 2.0, "net_kw", window=(0, 5))

    def test_linearity_property(self):
        rng = random.Random(1)
        values = [rng.uniform(-100, 300) for _ in range(50)]
        series = samples(values)
        for p in (1.0, 2.0, 25.0):
            attacked = fdi_inject(series, p, "net_kw")
            for orig, att in zip(series, attacked):
                assert att.net_kw - orig.net_kw == pytest.approx(orig.net_kw * p / 100)

    def test_unknown_field_rejected(self):
        # "time" is a sample field, but not a reading an attack can scale.
        for field in ("hvac_demand_res_kw", "time", "nope"):
            with pytest.raises(ValidationError):
                fdi_inject(samples([1.0]), 2.0, field)


class TestMadiot:
    def test_tamb_scaling(self):
        attacked = madiot_inject(samples([20.0], field="tamb_c"), 2.0)
        assert attacked[0].tamb_c == pytest.approx(20.4)

    def test_hvac_scaling_and_delta(self):
        series = samples([100.0], field="hvac_kw")
        attacked = madiot_inject(series, 2.0, "hvac_kw")
        assert attacked[0].hvac_kw == pytest.approx(102.0)
        assert per_step_deltas(series, attacked, "hvac_kw")[0] == pytest.approx(2.0)

    def test_gain_examples(self):
        assert madiot_gain([1.0, 2.0, 3.0], 3) == 6.0
        assert madiot_gain([], 0) == 0.0
        assert madiot_gain([2.0, 2.0], 1) == 2.0

    def test_gain_bounds(self):
        with pytest.raises(IndexError):
            madiot_gain([1.0], 2)
        with pytest.raises(IndexError):
            madiot_gain([1.0], -1)

    def test_gain_additivity(self):
        rng = random.Random(4)
        d = [rng.uniform(0, 5) for _ in range(40)]
        for t1 in (0, 7, 20):
            for t2 in (0, 5, 15):
                assert madiot_gain(d, t1 + t2) == pytest.approx(
                    madiot_gain(d, t1) + sum(d[t1:t1 + t2])
                )

    def test_gain_matches_attack_deltas(self):
        series = samples([10.0, 20.0, 30.0], field="tamb_c")
        attacked = madiot_inject(series, 2.0)
        deltas = per_step_deltas(series, attacked, "tamb_c")
        assert madiot_gain(deltas, 3) == pytest.approx(sum(
            a.tamb_c - o.tamb_c for o, a in zip(series, attacked)
        ))

    def test_apply_profile_dispatch(self):
        from plexisim.telemetry import AttackKind, AttackProfile, apply_profile

        series = samples([100.0, 100.0])
        fdi = AttackProfile(AttackKind.FDI, "net_kw", 2.0, window=(0, 1))
        attacked = apply_profile(series, fdi)
        assert [s.net_kw for s in attacked] == [102.0, 100.0]
        mad = AttackProfile(AttackKind.MADIOT, "tamb_c", 2.0)
        assert [s.tamb_c for s in apply_profile(series, mad)] == pytest.approx([20.4, 20.4])


class TestEstimator:
    def test_fdi_raises_estimate_pointwise(self):
        series = generate_synthetic(2, seed=3)
        attacked = fdi_inject(series, 2.0, "net_kw")
        before = estimate_flexibility(series)
        after = estimate_flexibility(attacked)
        assert all(a >= b for a, b in zip(after, before))

    def test_madiot_lowers_estimate_above_tref(self):
        series = generate_synthetic(2, seed=3)
        attacked = madiot_inject(series, 2.0, "tamb_c")
        before = estimate_flexibility(series)
        after = estimate_flexibility(attacked)
        cfg = EstimatorConfig()
        checked = 0
        for s, b, a in zip(series, before, after):
            if s.tamb_c > cfg.t_ref:
                assert a <= b
                checked += 1
        assert checked > 0

    def test_zero_inputs_at_reference(self):
        s = TelemetrySample(datetime(2021, 1, 1), 0.0, EstimatorConfig().t_ref, 0.0, 0.0)
        assert estimate_flexibility([s]) == [0.0]

    def test_nonpositive_coefficients_rejected(self):
        for kw in ({"a": 0.0}, {"b": -1.0}, {"c": 0.0}):
            with pytest.raises(ConfigurationError):
                EstimatorConfig(**kw)

    def test_monotonic_in_each_field(self):
        base = samples([50.0])[0]
        est = lambda s: estimate_flexibility([s])[0]
        import dataclasses
        up_net = dataclasses.replace(base, net_kw=base.net_kw + 1)
        up_hvac = dataclasses.replace(base, hvac_kw=base.hvac_kw + 1)
        up_tamb = dataclasses.replace(base, tamb_c=base.tamb_c + 1)
        assert est(up_net) >= est(base)
        assert est(up_hvac) >= est(base)
        assert est(up_tamb) <= est(base)


class TestSynthetic:
    def test_round_trips_through_csv(self, tmp_path):
        series = generate_synthetic(1, seed=5)
        path = tmp_path / "synth.csv"
        write_dataset(path, series)
        loaded = load_dataset(path)
        assert len(loaded) == telemetry.SAMPLES_PER_DAY
        assert loaded == series

    def test_deterministic(self):
        assert generate_synthetic(1, seed=5) == generate_synthetic(1, seed=5)

    def test_net_positive_under_defaults(self):
        series = generate_synthetic(7, seed=0)
        assert all(s.net_kw > 0 for s in series)

    def test_rejects_zero_days(self):
        with pytest.raises(ValidationError):
            generate_synthetic(0)

    def test_rejects_more_than_the_day_bound(self):
        with pytest.raises(ValidationError):
            generate_synthetic(telemetry.MAX_SYNTHETIC_DAYS + 1)


class TestTamperDetection:
    def test_untampered_stream_clean(self, anchor, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(1, seed=6)
        envs = sign_stream(series, key)
        assert detect_tamper(series, envs, ledger) == []

    def test_post_signing_attack_flagged_exactly(self, anchor, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(1, seed=6)
        envs = sign_stream(series, key)
        attacked = fdi_inject(series, 2.0, "net_kw", window=(10, 20))
        assert detect_tamper(attacked, envs, ledger) == list(range(10, 20))

    def test_any_field_mutation_flagged(self, anchor, ledger, enrolled):
        import dataclasses

        _, key, _ = enrolled
        series = generate_synthetic(1, seed=8)
        envs = sign_stream(series, key)
        mutated = list(series)
        mutated[3] = dataclasses.replace(mutated[3], tamb_c=mutated[3].tamb_c + 0.001)
        mutated[7] = dataclasses.replace(
            mutated[7], hvac_demand_res_kw=mutated[7].hvac_demand_res_kw * 1.01
        )
        assert detect_tamper(mutated, envs, ledger) == [3, 7]

    def test_pre_signing_attack_invisible(self, anchor, ledger, enrolled):
        # A compromised device signs already-falsified data: the residual
        # threat signatures cannot cover.
        _, key, _ = enrolled
        series = generate_synthetic(1, seed=6)
        attacked = fdi_inject(series, 2.0, "net_kw")
        envs = sign_stream(attacked, key)
        assert detect_tamper(attacked, envs, ledger) == []

    def test_canonical_bytes_stable(self):
        s = samples([1.23456789])[0]
        assert canonical_sample_bytes(s) == canonical_sample_bytes(s)

    def test_record_built_again_equals_fresh_copy(self):
        s = generate_synthetic(1, seed=6)[0]
        before = repr(s)
        record = canonical_sample_bytes(s)
        again = canonical_sample_bytes(s)
        assert again == record and again is not record
        assert list(vars(s)) == list(SIGNED_FIELDS)   # nothing is kept on the sample
        copy = TelemetrySample(s.time, s.net_kw, s.tamb_c, s.hvac_kw, s.hvac_demand_res_kw)
        assert s == copy and hash(s) == hash(copy) and canonical_sample_bytes(copy) == record
        assert repr(s) == before == repr(copy)
        assert canonical_sample_bytes(dataclasses.replace(s, net_kw=1.5)) != record

    @pytest.mark.parametrize("mutable", ["reading", "tzinfo"])
    def test_mutable_value_changed_after_signing_flagged(self, ledger, enrolled, mutable):
        # A mutable value could change between signing and the check, so it
        # is never signed, and a stored sample that holds one is flagged
        # however its value reads.
        _, key, _ = enrolled
        series = generate_synthetic(1, seed=6)
        net, tz = [series[5].net_kw], Offset()
        edit = ({"net_kw": net} if mutable == "reading"
                else {"time": series[5].time.replace(tzinfo=tz)})
        with pytest.raises(ValidationError):
            sign_stream([*series[:5], dataclasses.replace(series[5], **edit), *series[6:]], key)
        envs = sign_stream(series, key)
        series[5] = dataclasses.replace(series[5], **edit)
        assert detect_tamper(series, envs, ledger) == [5]
        net.append(2.0)
        tz.minutes = 60
        assert detect_tamper(series, envs, ledger) == [5]

    def test_canonical_bytes_golden(self):
        # Four doubles, then days, seconds and microseconds since
        # datetime.min as int32 and the UTC offset in µs as int64.
        s = TelemetrySample(datetime(2021, 6, 1, 13, 30), 50.25, -3.5, 1e-07, 6.0)
        assert canonical_sample_bytes(s).hex() == (
            "0000000000204940" "0000000000000cc0" "48afbc9af2d77a3e" "0000000000001840"
            "95420b00" "d8bd0000" "00000000" "0000000000000080")
        west = timezone(-timedelta(hours=5, minutes=30))
        aware = dataclasses.replace(s, time=s.time.replace(microsecond=7, tzinfo=west))
        assert canonical_sample_bytes(aware)[32:].hex() == (
            "95420b00" "d8bd0000" "07000000" "00fad363fbffffff")
        east = timezone(timedelta(hours=1))
        last = dataclasses.replace(s, time=datetime.max.replace(tzinfo=east))
        assert canonical_sample_bytes(last)[32:].hex() == (
            "dab93700" "7f510100" "3f420f00" "00a493d600000000")
        assert telemetry.RECORD_SIZE == 52

    def test_signed_body_not_whole_records_flags_its_day(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=7)
        envs = sign_stream(series, key)
        per_day = telemetry.SAMPLES_PER_DAY
        header = day_header(1, 3, series[0].time.isoformat())
        body = b"".join(map(canonical_sample_bytes, series[per_day:2 * per_day]))
        assert envs[1].message == header + body
        for signed in (body + b"\0", body[:-1]):
            stored_envs = [envs[0], identity.sign(header + signed, key), envs[2]]
            assert detect_tamper(series, stored_envs, ledger) == list(range(per_day, 2 * per_day))

    def test_each_sample_encoded_once_per_call(self, ledger, enrolled, monkeypatch):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=5)
        encoded_ids, signed, verified = [], [], []
        real_records, real_sign, real_verify = telemetry._records, identity.sign, identity.verify

        def counting_records(samples):
            encoded_ids.extend(map(id, samples))
            return real_records(samples)

        def counting_sign(message, sk, sim_time=0):
            signed.append(message)
            return real_sign(message, sk, sim_time)

        def counting_verify(env, registry):
            verified.append(env)
            return real_verify(env, registry)

        monkeypatch.setattr(telemetry, "_records", counting_records)
        monkeypatch.setattr(identity, "sign", counting_sign)
        monkeypatch.setattr(identity, "verify", counting_verify)
        envs = sign_stream(series, key)
        assert signed == [env.message for env in envs] and len(envs) == 3
        assert sorted(encoded_ids) == sorted(map(id, series))
        encoded_ids.clear()
        assert detect_tamper(series, envs, ledger) == []
        assert verified == envs
        assert sorted(encoded_ids) == sorted(map(id, series))
        # A changed sample and one the record refuses send day 1 sample by
        # sample; day 2's envelope names day 0, so day 2 is encoded not at all.
        stored = list(series)
        stored[50] = _mutate(stored[50], "net_kw", 1.0)
        stored[60] = dataclasses.replace(stored[60], net_kw=1)
        encoded_ids.clear()
        replayed = [envs[0], envs[1], envs[0]]
        assert detect_tamper(stored, replayed, ledger) == [50, 60, *range(96, 144)]
        assert verified == envs + replayed
        assert sorted(encoded_ids) == sorted(map(id, stored[:96]))
        # A refused sample at offset k of day d: signing names its field and
        # signs nothing, and the check flags exactly index 48d + k.
        per_day = telemetry.SAMPLES_PER_DAY
        for d, k, field, value in [(0, 0, "hvac_kw", True), (1, 47, "tamb_c", Kw(20.0)),
                                   (2, 13, "time", series[109].time.replace(tzinfo=Offset()))]:
            stored = list(series)
            i = per_day * d + k
            stored[i] = dataclasses.replace(series[i], **{field: value})
            signed.clear()
            encoded_ids.clear()
            with pytest.raises(ValidationError, match=field):
                sign_stream(stored, key)
            assert signed == []
            assert sorted(encoded_ids) == sorted(map(id, stored))
            encoded_ids.clear()
            assert detect_tamper(stored, envs, ledger) == [i]
            assert sorted(encoded_ids) == sorted(map(id, stored))


class Offset(tzinfo):
    """A tzinfo whose UTC offset can change after a sample is signed."""

    minutes = 0

    def utcoffset(self, dt):
        return timedelta(minutes=self.minutes)

    def dst(self, dt):
        return None


class DateTime(datetime):
    """A datetime subclass, which the record refuses."""


class Kw(float):
    """A float subclass, which the record refuses."""


def reference_record(sample: TelemetrySample) -> bytes:
    """The record field by field: the wall time as the naive difference from
    ``datetime.min``, the offset from ``utcoffset()``."""
    t = sample.time
    wall = t.replace(tzinfo=None) - datetime.min
    offset = -2 ** 63 if t.tzinfo is None else t.utcoffset() // timedelta(microseconds=1)
    return struct.pack("<4diiiq", sample.net_kw, sample.tamb_c, sample.hvac_kw,
                       sample.hvac_demand_res_kw, wall.days, wall.seconds, wall.microseconds,
                       offset)


def record_key(sample: TelemetrySample) -> tuple:
    """What a record tells apart: the readings' bit patterns, the wall time,
    and the UTC offset or its absence."""
    readings = struct.pack("<4d", sample.net_kw, sample.tamb_c, sample.hvac_kw,
                           sample.hvac_demand_res_kw)
    return readings, sample.time.replace(tzinfo=None), sample.time.utcoffset()


# NaNs with other payloads and signs, which the record tells apart.
NANS = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in (
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001)]
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2e-308, 1.7976931348623157e308, 1e16, 1e-7,
     *NANS])
# The widest offsets that datetime.timezone takes, at µs resolution.
LAST_OFFSET = timedelta(hours=24) - timedelta(microseconds=1)
OFFSETS = st.builds(timezone, st.timedeltas(min_value=-LAST_OFFSET, max_value=LAST_OFFSET)
                    | st.sampled_from([LAST_OFFSET, -LAST_OFFSET]))
# Naive and aware times across [datetime.min, datetime.max].
TIMES = st.datetimes(timezones=st.none() | OFFSETS)
TIMES = TIMES | TIMES.map(lambda t: t.replace(microsecond=0))


def _same_instant_elsewhere(t, tz):
    """``t`` under the offset ``tz`` at the same instant, or ``t`` when that
    instant has no wall time there."""
    try:
        return t.astimezone(tz)
    except OverflowError:
        return t


def related_samples(data, a):
    """A sample that keeps or redraws each of ``a``'s readings, and whose
    time is ``a``'s, a fresh one, ``a``'s wall time under another offset (or
    naive), or ``a``'s instant under another offset."""
    tz = data.draw(OFFSETS)
    t = a.time
    time = data.draw(st.sampled_from([t, t.replace(tzinfo=None), t.replace(tzinfo=tz)])
                     | st.sampled_from([t] if t.tzinfo is None
                                       else [_same_instant_elsewhere(t, tz)])
                     | TIMES)
    readings = [data.draw(st.just(getattr(a, f)) | FLOATS) for f in READING_FIELDS]
    return TelemetrySample(time, *readings)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), time=TIMES, net=FLOATS, tamb=FLOATS, hvac=FLOATS, res=FLOATS)
@example(data=None, time=datetime.min.replace(tzinfo=timezone(LAST_OFFSET)),
         net=NANS[3], tamb=-0.0, hvac=0.0, res=5e-324)
@example(data=None, time=datetime.max.replace(tzinfo=timezone(-LAST_OFFSET)),
         net=1.0, tamb=1.0, hvac=1.0, res=1.0)
@example(data=None, time=datetime.min.replace(tzinfo=timezone(-LAST_OFFSET)),
         net=1.0, tamb=1.0, hvac=1.0, res=1.0)
@example(data=None, time=datetime.max.replace(tzinfo=timezone(LAST_OFFSET)),
         net=1.0, tamb=1.0, hvac=1.0, res=1.0)
@example(data=None, time=datetime.min, net=1.0, tamb=1.0, hvac=1.0, res=1.0)
@example(data=None, time=datetime.max, net=1.0, tamb=1.0, hvac=1.0, res=1.0)
def test_canonical_bytes_match_reference_record(data, time, net, tamb, hvac, res):
    """Each record is the independent ``struct.pack``; two records are equal
    exactly when the readings' bits, the wall times and the offsets are (or
    both times are naive); and no time in range raises ``struct.error``."""
    a = TelemetrySample(time, net, tamb, hvac, res)
    b = a if data is None else related_samples(data, a)
    assert canonical_sample_bytes(a) == reference_record(a)
    assert telemetry._records([a, b]) == [reference_record(a), reference_record(b)]
    assert len(reference_record(a)) == telemetry.RECORD_SIZE == 52
    same = canonical_sample_bytes(a) == canonical_sample_bytes(b)
    assert same == (record_key(a) == record_key(b))


# Few values, so that two drawn samples often share some or all of them.
FEW_SAMPLES = st.builds(
    TelemetrySample,
    st.builds(datetime, st.just(2021), st.just(6), st.just(1), st.integers(0, 1),
              tzinfo=st.sampled_from([None, timezone.utc, timezone(timedelta(0), "Z"),
                                      timezone(timedelta(hours=1))])),
    *[st.sampled_from([0.0, -0.0, 1.5, math.inf, *NANS])] * 4)


@settings(max_examples=500, deadline=None)
@given(a=FEW_SAMPLES, b=FEW_SAMPLES)
@example(a=TelemetrySample(datetime(2021, 6, 1, 1, tzinfo=timezone(timedelta(hours=1))),
                           1.5, 1.5, 1.5, 1.5),
         b=TelemetrySample(datetime(2021, 6, 1, 0, tzinfo=timezone.utc), 1.5, 1.5, 1.5, 1.5))
@example(a=TelemetrySample(datetime(2021, 6, 1), 1.5, 1.5, 1.5, 1.5),
         b=TelemetrySample(datetime(2021, 6, 1, tzinfo=timezone.utc), 1.5, 1.5, 1.5, 1.5))
def test_records_equal_exactly_when_bits_wall_time_and_offset_are(a, b):
    same = canonical_sample_bytes(a) == canonical_sample_bytes(b)
    assert same == (record_key(a) == record_key(b))


def _with_offset_tzinfo(t):
    return t.replace(tzinfo=Offset())


def _as_string(t):
    return t.isoformat()


def _as_date(t):
    return t.date()


def _as_subclass(t):
    return DateTime.combine(t.date(), t.timetz())


READING_FIELDS = ("net_kw", "tamb_c", "hvac_kw", "hvac_demand_res_kw")
# (field, a function of the sample's value that gives a value the record refuses)
OUT_OF_DOMAIN = (
    st.tuples(st.sampled_from(READING_FIELDS),
              st.sampled_from([int, bool, Kw, lambda v: [v], lambda v: (v,)]))
    | st.tuples(st.just("time"),
                st.sampled_from([_with_offset_tzinfo, _as_string, _as_date, _as_subclass])))


SIGNED_FIELDS = ("time", "net_kw", "tamb_c", "hvac_kw", "hvac_demand_res_kw")


def reference_inject(series, fraction, target_field, window):
    """fdi_inject as it was first written: one dataclasses.replace per
    attacked sample."""
    lo, hi = (0, len(series)) if window is None else window
    out = list(series)
    for i in range(lo, hi):
        v = getattr(out[i], target_field)
        out[i] = dataclasses.replace(out[i], **{target_field: v + v * fraction / 100.0})
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       readings=st.lists(st.tuples(FLOATS, FLOATS, FLOATS, FLOATS), min_size=1, max_size=12),
       target=st.sampled_from(telemetry.TARGET_FIELDS),
       fraction=st.floats(0, 100, exclude_min=True) | st.sampled_from([2.0, 100.0, 5e-324]),
       kind=st.sampled_from([None, *telemetry.AttackKind]))
def test_injection_matches_replace_reference(data, readings, target, fraction, kind):
    start = datetime(2021, 6, 1)
    series = [TelemetrySample(start + timedelta(minutes=30 * i), *r)
              for i, r in enumerate(readings)]
    lo = data.draw(st.integers(0, len(series)))
    window = data.draw(st.sampled_from([None, (lo, data.draw(st.integers(lo, len(series))))]))
    before = list(series), list(map(repr, series))
    if kind is None:
        attacked = fdi_inject(series, fraction, target, window)
    else:
        attacked = telemetry.apply_profile(
            series, telemetry.AttackProfile(kind, target, fraction, window))
    assert list(map(repr, attacked)) == list(map(repr, reference_inject(
        series, fraction, target, window)))
    assert all(a is b for a, b in zip(series, before[0])) and list(map(repr, series)) == before[1]
    lo, hi = window or (0, len(series))
    for i, (orig, new) in enumerate(zip(series, attacked)):
        if not lo <= i < hi:
            assert new is orig
            continue
        assert all(getattr(new, f) is getattr(orig, f) for f in SIGNED_FIELDS if f != target)
        assert canonical_sample_bytes(new) == reference_record(new)


@pytest.fixture(scope="module")
def site():
    """A registry with one enrolled meter, and a 150-sample stream.

    Module-scoped, because hypothesis runs many examples per test call and
    the tests only read the registry."""
    anchor = identity.setup(128, seed=1234)
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(anchor))
    key, _ = identity.enroll(identity.make_device("meter-0", seed=7), "alice", anchor, ledger)
    return ledger, key, generate_synthetic(4, seed=9)[:150]


@pytest.fixture(scope="module")
def neighbourhood(site):
    """``site``'s meter and stream in a registry of their own that also holds
    two other live devices: (registry, meter key, the others' keys, stream)."""
    _, _, stream = site
    anchor = identity.setup(128, seed=1234)
    ledger = LedgerSim(SimClock(), anchor_pk=identity.anchor_public_key(anchor))
    meter, *others = [
        identity.enroll(identity.make_device(f"meter-{i}", seed=7 + i), owner, anchor, ledger)[0]
        for i, owner in enumerate(("alice", "bob", "alice"))]
    return ledger, meter, others, stream


def _mutate(sample, field, delta):
    if field == "time":
        return dataclasses.replace(sample, time=sample.time + timedelta(minutes=delta))
    return dataclasses.replace(sample, **{field: getattr(sample, field) + delta})


def day_header(day, days, start):
    """The header line that opens the message of day ``day`` of ``days`` of
    a stream whose first sample's time has the isoformat ``start``."""
    return json.dumps({"day": day, "days": days, "start": start},
                      separators=(",", ":")).encode() + b"\n"


def reference_flags(series, envelopes, registry):
    """detect_tamper a sample at a time: each sample verifies its day's
    envelope, whose header must name that day, the series' day count and the
    start that the first accepted header names, and whose records must hold
    the sample's record at its offset."""
    per_day, size = telemetry.SAMPLES_PER_DAY, telemetry.RECORD_SIZE
    days = -(-len(series) // per_day)

    def header(env):
        """The (day, days, start) of an accepted envelope's header, or None."""
        if identity.verify(env, registry) is not identity.VerifyStatus.ACCEPT:
            return None
        try:
            fields = json.loads(env.message.partition(b"\n")[0])
            key = fields["day"], fields["days"], fields["start"]
        except (ValueError, TypeError, KeyError):
            return None
        return key if env.message.startswith(day_header(*key)) else None

    starts = [h[2] for h in map(header, envelopes) if h is not None]
    start = starts[0] if starts else None
    flagged = []
    for i, s in enumerate(series):
        env = envelopes[i // per_day]
        if header(env) != (i // per_day, days, start):
            flagged.append(i)
            continue
        body = env.message.partition(b"\n")[2]
        at = i % per_day * size
        if len(body) % size or body[at:at + size] != canonical_sample_bytes(s):
            flagged.append(i)
    return flagged


class TestDaySignatures:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 150),
        mutations=st.lists(st.tuples(
            st.integers(0, 149), st.sampled_from(SIGNED_FIELDS),
            st.sampled_from([-7, -1, 1, 30]) | st.floats(-50, 50, allow_nan=False),
        ), max_size=12),
    )
    def test_flags_exactly_the_changed_samples(self, site, n, mutations):
        ledger, key, stream = site
        series = stream[:n]
        envs = sign_stream(series, key)
        stored = list(series)
        for i, field, delta in mutations:
            stored[i % n] = _mutate(stored[i % n], field, delta)
        changed = [i for i in range(n)
                   if canonical_sample_bytes(stored[i]) != canonical_sample_bytes(series[i])]
        assert detect_tamper(stored, envs, ledger) == changed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 150), swap=st.booleans())
    def test_moved_samples_flagged(self, site, data, n, swap):
        ledger, key, stream = site
        series = stream[:n]
        envs = sign_stream(series, key)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        stored = list(series)
        if swap:
            stored[i], stored[j] = stored[j], stored[i]
        else:
            stored.insert(j, stored.pop(i))
        moved = [k for k in range(n) if stored[k] is not series[k]]
        assert moved == (sorted((i, j)) if swap else list(range(min(i, j), max(i, j) + 1)))
        assert detect_tamper(stored, envs, ledger) == moved

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 150),
        mutations=st.lists(st.tuples(st.integers(0, 149), st.sampled_from(SIGNED_FIELDS)),
                           max_size=6),
    )
    def test_signer_flags_every_day_another_live_token_signed(self, neighbourhood, data, n,
                                                              mutations):
        """With ``signer``, a day re-signed by any other live token is
        flagged whole; a day the meter signed keeps the flags it gets
        without ``signer``."""
        ledger, meter, others, stream = neighbourhood
        series = stream[:n]
        stored = list(series)
        for i, field in mutations:
            stored[i % n] = _mutate(stored[i % n], field, 1)
        signed = sign_stream(series, meter)
        forged = sign_stream(stored, data.draw(st.sampled_from(others)))
        assert detect_tamper(stored, forged, ledger) == []
        assert detect_tamper(stored, forged, ledger, signer=meter.token_id) == list(range(n))
        assert (detect_tamper(stored, signed, ledger, signer=meter.token_id)
                == detect_tamper(stored, signed, ledger))
        # Days mixed: each forged day is flagged whole, the rest as before.
        per_day = telemetry.SAMPLES_PER_DAY
        days = data.draw(st.sets(st.integers(0, len(signed) - 1)))
        mixed = [forged[d] if d in days else env for d, env in enumerate(signed)]
        expected = set(detect_tamper(stored, mixed, ledger))
        expected.update(i for i in range(n) if i // per_day in days)
        assert detect_tamper(stored, mixed, ledger, signer=meter.token_id) == sorted(expected)

    def test_one_sign_per_day(self, enrolled, monkeypatch):
        _, key, _ = enrolled
        calls = []
        real_sign = identity.sign

        def counting_sign(message, sk, sim_time=0):
            calls.append(message)
            return real_sign(message, sk, sim_time)

        monkeypatch.setattr(identity, "sign", counting_sign)
        series = generate_synthetic(7, seed=2)
        envs = sign_stream(series, key, sim_time=5)
        assert calls == [env.message for env in envs] and len(envs) == 7
        per_day = telemetry.SAMPLES_PER_DAY
        for d, env in enumerate(envs):
            day = series[d * per_day:(d + 1) * per_day]
            assert env.message == (day_header(d, 7, series[0].time.isoformat())
                                   + b"".join(map(canonical_sample_bytes, day)))
            assert env.sim_time == 5
        for n in (1, 47, 48, 49, 97):
            assert len(sign_stream(series[:n], key)) == math.ceil(n / per_day)

    def test_one_sample_envelope_is_the_per_sample_signature(self, enrolled):
        _, key, _ = enrolled
        s = generate_synthetic(1, seed=3)[0]
        assert sign_stream([s], key, 3) == [identity.sign(
            b'{"day":0,"days":1,"start":"2021-01-01T00:00:00"}\n' + canonical_sample_bytes(s),
            key, 3)]

    def test_count_mismatch_rejected(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(2, seed=3)[:50]
        envs = sign_stream(series, key)
        with pytest.raises(ValidationError, match="last day holds"):
            detect_tamper(series[:49], envs, ledger)
        for stored, stored_envs in [(series, envs[:1]), (series, envs + envs[-1:]),
                                    (series[:48], envs), (series, [])]:
            with pytest.raises(ValidationError, match="envelopes are given"):
                detect_tamper(stored, stored_envs, ledger)

    def test_days_out_of_order(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=4)
        envs = sign_stream(series, key)
        per_day = telemetry.SAMPLES_PER_DAY
        by_day = [s for d in (2, 1, 0) for s in series[d * per_day:(d + 1) * per_day]], envs[::-1]
        # Days 0 and 2 trade places with their envelopes; day 1 stays put.
        flagged = detect_tamper(*by_day, ledger)
        assert flagged == [*range(per_day), *range(2 * per_day, 3 * per_day)]
        assert flagged == reference_flags(*by_day, ledger)
        by_sample = series[::-1], envs[::-1]
        flagged = detect_tamper(*by_sample, ledger)
        assert flagged == reference_flags(*by_sample, ledger)
        assert len(flagged) == len(series)

    def test_day_replayed_in_place_of_another(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=7)
        envs = sign_stream(series, key)
        per_day = telemetry.SAMPLES_PER_DAY
        stored = [*series[:2 * per_day], *series[:per_day]]
        stored_envs = [envs[0], envs[1], envs[0]]
        assert detect_tamper(stored, stored_envs, ledger) == list(range(2 * per_day, 3 * per_day))

    def test_days_swapped_with_their_envelopes(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=7)
        envs = sign_stream(series, key)
        per_day = telemetry.SAMPLES_PER_DAY
        stored = [*series[per_day:2 * per_day], *series[:per_day], *series[2 * per_day:]]
        stored_envs = [envs[1], envs[0], envs[2]]
        assert detect_tamper(stored, stored_envs, ledger) == list(range(2 * per_day))

    def test_last_day_dropped(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=7)
        envs = sign_stream(series, key)
        kept = 2 * telemetry.SAMPLES_PER_DAY
        with pytest.raises(ValidationError, match="2 days"):
            detect_tamper(series[:kept], envs[:2], ledger)

    @pytest.mark.parametrize("days,cut", [
        (3, slice(-10, None)), (3, slice(-1, None)), (1, slice(-10, None)), (3, slice(60, 61))])
    def test_samples_cut_refused(self, ledger, enrolled, days, cut):
        # Cut from the end, the last day still names itself and every stored
        # line matches its signed line, but the signature covers the cut
        # samples too.
        _, key, _ = enrolled
        series = generate_synthetic(days, seed=7)
        envs = sign_stream(series, key)
        stored = list(series)
        del stored[cut]
        with pytest.raises(ValidationError, match="last day holds"):
            detect_tamper(stored, envs, ledger)

    def test_samples_appended_to_the_last_day_flagged(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(2, seed=7)
        envs = sign_stream(series[:70], key)
        assert detect_tamper(series[:75], envs, ledger) == [70, 71, 72, 73, 74]

    def test_signature_without_day_header_covers_nothing(self, ledger, enrolled):
        _, key, _ = enrolled
        series = generate_synthetic(1, seed=7)[:3]
        env = identity.sign(b"\n".join(map(canonical_sample_bytes, series)), key)
        assert detect_tamper(series, [env], ledger) == [0, 1, 2]

    def test_one_verify_per_envelope_per_call(self, ledger, enrolled, monkeypatch):
        _, key, _ = enrolled
        series = generate_synthetic(3, seed=5)
        envs = sign_stream(series, key)
        stored = list(series)
        stored[50] = _mutate(stored[50], "net_kw", 1.0)
        verified = []
        real_verify = identity.verify

        def counting_verify(env, registry):
            verified.append(env)
            return real_verify(env, registry)

        monkeypatch.setattr(identity, "verify", counting_verify)
        assert detect_tamper(stored, envs, ledger) == [50]
        assert verified == envs
        # The same envelope object in two places verifies in each.
        replayed = [envs[0], envs[1], envs[0]]
        assert detect_tamper(stored, replayed, ledger) == [50, *range(96, 144)]
        assert verified == envs + replayed
        # A list of the wrong length is refused before any verify.
        with pytest.raises(ValidationError):
            detect_tamper(stored, envs[:2], ledger)
        assert verified == envs + replayed

    def test_revocation_flags_every_index_at_next_call(self, anchor, ledger, enrolled):
        _, key, token_id = enrolled
        series = generate_synthetic(2, seed=3)[:60]
        envs = sign_stream(series, key)
        assert detect_tamper(series, envs, ledger) == []
        owner_key, _ = identity.enroll(identity.make_device("alice-controller", seed=42),
                                       "alice", anchor, ledger)
        ledger.set_flag(token_id, "revoked", owner_key)
        assert detect_tamper(series, envs, ledger) == list(range(60))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 150), bad=OUT_OF_DOMAIN)
def test_out_of_domain_sample_refused_at_signing_and_flagged(site, data, n, bad):
    ledger, key, stream = site
    series = stream[:n]
    i = data.draw(st.integers(0, n - 1))
    field, make = bad
    stored = list(series)
    stored[i] = dataclasses.replace(series[i], **{field: make(getattr(series[i], field))})
    with mock.patch.object(identity, "sign", wraps=identity.sign) as sign:
        with pytest.raises(ValidationError, match=field):
            sign_stream(stored, key)
    assert sign.call_count == 0
    envs = sign_stream(series, key)
    assert detect_tamper(stored, envs, ledger) == [i]
    assert detect_tamper(stored, envs, ledger, start=series[0].time) == [i]


class TestStreamBinding:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 150), seed=st.integers(0, 2 ** 16),
           shift=st.integers(-20_000, 20_000).filter(bool))
    def test_day_of_another_stream_flagged_whole(self, site, data, n, seed, shift):
        """A day spliced in with its envelope from another stream of the same
        meter flags exactly that day; a whole stream offered under another
        start flags every index."""
        ledger, key, stream = site
        series = stream[:n]
        start = series[0].time
        other = generate_synthetic(4, seed=seed,
                                   start=start + timedelta(minutes=30 * shift))[:n]
        envs, other_envs = sign_stream(series, key), sign_stream(other, key)
        per_day = telemetry.SAMPLES_PER_DAY
        d = data.draw(st.integers(0, len(envs) - 1))
        day = range(d * per_day, min((d + 1) * per_day, n))
        stored = [other[i] if i in day else s for i, s in enumerate(series)]
        stored_envs = [other_envs[k] if k == d else env for k, env in enumerate(envs)]
        assert detect_tamper(stored, stored_envs, ledger, start=start) == list(day)
        # Without start, the first accepted day names the stream: a spliced
        # day 0 passes, and every other day is flagged instead.
        assert detect_tamper(stored, stored_envs, ledger) == (
            list(day) if d else list(range(len(day), n)))
        assert detect_tamper(other, other_envs, ledger, start=start) == list(range(n))
        assert detect_tamper(other, other_envs, ledger) == []

    def test_january_replayed_into_february(self, site):
        ledger, key, _ = site
        jan = generate_synthetic(10, seed=1, start=datetime(2020, 1, 1))
        feb = generate_synthetic(10, seed=2, start=datetime(2020, 2, 1))
        jan_envs, feb_envs = sign_stream(jan, key), sign_stream(feb, key)
        per_day = telemetry.SAMPLES_PER_DAY
        day3 = slice(3 * per_day, 4 * per_day)
        stored, stored_envs = list(feb), list(feb_envs)
        stored[day3], stored_envs[3] = jan[day3], jan_envs[3]
        assert (detect_tamper(stored, stored_envs, ledger, signer=key.token_id)
                == list(range(3 * per_day, 4 * per_day)))
        assert (detect_tamper(jan, jan_envs, ledger, signer=key.token_id, start=feb[0].time)
                == list(range(len(jan))))

    def test_empty_series_flags_nothing(self, site):
        ledger, _, stream = site
        assert detect_tamper([], [], ledger) == []
        assert detect_tamper([], [], ledger, start=stream[0].time) == []


def test_utc_offset_change_mid_day(site, tmp_path):
    """A stream whose offset moves from +01:00 to +02:00 inside day 1, at
    the 30-minute UTC stride, loads, signs and checks clean; a sample moved
    to the same instant under another offset is flagged alone."""
    ledger, key, _ = site
    winter, summer = timezone(timedelta(hours=1)), timezone(timedelta(hours=2))
    first = datetime(2021, 3, 27, tzinfo=winter)
    switch = datetime(2021, 3, 28, 1, tzinfo=timezone.utc)
    readings = generate_synthetic(2, seed=11)
    series = []
    for i, s in enumerate(readings):
        t = first + timedelta(minutes=30 * i)
        series.append(dataclasses.replace(s, time=t.astimezone(summer if t >= switch else winter)))
    assert {s.time.utcoffset() for s in series[48:]} == {winter.utcoffset(None),
                                                        summer.utcoffset(None)}
    path = tmp_path / "dst.csv"
    write_dataset(path, series)
    loaded = load_dataset(path)
    assert list(map(canonical_sample_bytes, loaded)) == list(map(canonical_sample_bytes, series))
    envs = sign_stream(loaded, key)
    assert detect_tamper(loaded, envs, ledger) == []
    assert detect_tamper(loaded, envs, ledger, start=first) == []
    for i in (3, 49, 73, 74, 95):
        stored = list(loaded)
        other = winter if stored[i].time.utcoffset() == summer.utcoffset(None) else summer
        stored[i] = dataclasses.replace(stored[i], time=stored[i].time.astimezone(other))
        assert stored[i] == loaded[i]     # the same instant compares equal
        assert detect_tamper(stored, envs, ledger) == [i]
        assert detect_tamper(stored, envs, ledger, start=first) == [i]
