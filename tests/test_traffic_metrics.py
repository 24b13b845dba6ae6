"""Tests for traffic sources, sinks and the stats helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import Estimate, format_series, format_table, mean_confidence, ratio
from repro.net import Packet, ip
from repro.sim import Simulator
from repro.traffic import (
    CBRSource,
    ElasticSource,
    FlowSink,
    OnOffSource,
    PoissonSource,
    VBRVideoSource,
)


def collect(sim):
    """A send callable that records (time, packet)."""
    log = []

    def send(packet):
        log.append((sim.now, packet))
        return True

    return send, log


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
def test_cbr_rate_and_spacing():
    sim = Simulator()
    send, log = collect(sim)
    source = CBRSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        rate_bps=80e3, packet_size=1000, duration=1.0,
    ).start()
    sim.run(until=2.0)
    # 80 kbit/s at 1000 B -> one packet per 100 ms -> 10 packets in 1 s
    # (11 if float drift lets the boundary emission through).
    assert source.packets_sent in (10, 11)
    gaps = {round(b - a, 9) for (a, _), (b, _) in zip(log, log[1:])}
    assert gaps == {0.1}


def test_cbr_sequences_increase():
    sim = Simulator()
    send, log = collect(sim)
    CBRSource(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), duration=0.5).start()
    sim.run()
    sequences = [packet.seq for _t, packet in log]
    assert sequences == list(range(len(sequences)))


def test_cbr_validation():
    sim = Simulator()
    send, _ = collect(sim)
    with pytest.raises(ValueError):
        CBRSource(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), rate_bps=0)


def test_poisson_mean_rate():
    sim = Simulator()
    send, log = collect(sim)
    rng = np.random.default_rng(42)
    PoissonSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        rng, mean_rate_pps=100.0, duration=20.0,
    ).start()
    sim.run()
    # 100 pps over 20 s -> ~2000; allow 15% slack.
    assert 1700 < len(log) < 2300


def test_onoff_produces_bursts_and_silences():
    sim = Simulator()
    send, log = collect(sim)
    rng = np.random.default_rng(7)
    OnOffSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        rng, duration=30.0,
    ).start()
    sim.run()
    gaps = [b - a for (a, _), (b, _) in zip(log, log[1:])]
    packet_interval = 200 * 8 / 64e3
    long_gaps = [g for g in gaps if g > packet_interval * 3]
    assert long_gaps, "on/off source never went silent"
    assert len(log) > 100


def test_vbr_video_fragments_frames():
    sim = Simulator()
    send, log = collect(sim)
    rng = np.random.default_rng(3)
    source = VBRVideoSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        rng, mean_rate_bps=400e3, frame_rate=25.0, mtu=500, duration=4.0,
    ).start()
    sim.run()
    assert source.frames_sent == 100
    assert all(packet.size <= 500 for _t, packet in log)
    # Mean rate within 40% of nominal despite burstiness.
    total_bits = sum(packet.size for _t, packet in log) * 8
    assert 0.6 * 400e3 * 4 < total_bits < 1.4 * 400e3 * 4


def test_vbr_frame_sizes_follow_the_ar1_formula_with_a_float_state():
    """The innovation weight sqrt(1 - rho^2) is computed once, as a
    float: the AR(1) state stays a ``float``, and 200 frame sizes equal
    ``rho * s + np.sqrt(1 - rho * rho) * z`` drawn on a twin generator."""
    sim = Simulator()
    send, _ = collect(sim)
    for correlation, burstiness in ((0.8, 0.5), (0.3, 1.2), (0.0, 0.5)):
        source = VBRVideoSource(
            sim, send, ip("10.0.0.1"), ip("10.0.0.2"), np.random.default_rng(21),
            burstiness=burstiness, correlation=correlation,
        )
        twin = np.random.default_rng(21)
        state = 0.0
        for _ in range(200):
            size = source._next_frame_bytes()
            assert type(source._state) is float
            state = correlation * state + np.sqrt(
                1 - correlation * correlation
            ) * twin.normal(0.0, 1.0)
            factor = max(0.1, 1.0 + burstiness * state)
            assert size == max(64, int(source.mean_frame_bytes * factor))


def test_vbr_validation():
    sim = Simulator()
    send, _ = collect(sim)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        VBRVideoSource(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), rng, correlation=1.5)


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name in ("mean_rate_bps", "frame_rate", "mtu")
        for value in (0, -1, math.nan)
    ],
)
def test_vbr_rejects_a_rate_frame_rate_or_mtu_that_is_not_positive(name, value):
    """``frame_rate=0`` raised a bare ``ZeroDivisionError``; a nan rate,
    a nan frame rate or ``mtu=0`` was accepted and the run failed (or
    never ended) later.  Each is refused up front, by name."""
    sim = Simulator()
    send, _ = collect(sim)
    with pytest.raises(ValueError, match=f"^{name} must be positive, got"):
        VBRVideoSource(
            sim, send, ip("10.0.0.1"), ip("10.0.0.2"), np.random.default_rng(0),
            **{name: value},
        )


def test_elastic_source_grows_when_acked():
    sim = Simulator()
    source_ref = {}

    def send(packet):
        # Instant perfect network: ack everything immediately.
        sim.call_later(0.001, source_ref["src"].acknowledge, packet.seq)
        return True

    source = ElasticSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        initial_window=2, duration=5.0,
    )
    source_ref["src"] = source
    source.start()
    sim.run()
    assert source.windows_clean > 0
    assert source.windows_lossy == 0
    assert source.window > 2


def test_elastic_source_backs_off_on_loss():
    sim = Simulator()
    source_ref = {}
    counter = {"n": 0}

    def send(packet):
        counter["n"] += 1
        if counter["n"] % 3 == 0:
            return True  # swallowed: never acked
        sim.call_later(0.001, source_ref["src"].acknowledge, packet.seq)
        return True

    source = ElasticSource(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        initial_window=8, feedback_timeout=0.05, duration=3.0,
    )
    source_ref["src"] = source
    source.start()
    sim.run()
    assert source.windows_lossy > 0


@pytest.mark.parametrize(
    "source, bad",
    [
        (source, {name: value})
        for source, names in (
            (ElasticSource,
             ("packet_size", "initial_window", "max_window", "feedback_timeout")),
            (OnOffSource, ("rate_bps", "packet_size")),
            (CBRSource, ("rate_bps", "packet_size")),
            (PoissonSource, ("mean_rate_pps",)),
            (VBRVideoSource, ("burstiness",)),
        )
        for name in names
        for value in (0, -1, math.nan)
        # frames of exactly the mean size
        if (name, value) != ("burstiness", 0)
    ],
)
def test_mis_built_sources_fail_at_construction(source, bad):
    """A value that would make every window lossy (``feedback_timeout=0``)
    or only raise from inside the process at the first emit
    (``packet_size=0``, a nan rate's "negative delay nan") is refused up
    front, nan included."""
    sim = Simulator()
    send, _ = collect(sim)
    seeded = (OnOffSource, PoissonSource, VBRVideoSource)
    extra = {"rng": np.random.default_rng(0)} if source in seeded else {}
    with pytest.raises(ValueError, match=next(iter(bad))):
        source(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), **extra, **bad)
    source(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), **extra)  # defaults pass


# ----------------------------------------------------------------------
# Sink
# ----------------------------------------------------------------------
def make_packet(seq, created_at=0.0, size=500, flow="f1"):
    return Packet(
        src=ip("10.0.0.1"), dst=ip("10.0.0.2"), size=size,
        flow_id=flow, seq=seq, created_at=created_at,
    )


def test_sink_counts_and_loss():
    sink = FlowSink("f1")
    for seq in (0, 1, 3):
        sink.on_packet(make_packet(seq), now=1.0)
    assert sink.received == 3
    assert sink.lost(5) == 2
    assert sink.loss_rate(5) == pytest.approx(0.4)


def test_sink_ignores_other_flows():
    sink = FlowSink("f1")
    sink.on_packet(make_packet(0, flow="other"), now=1.0)
    assert sink.received == 0


def test_sink_detects_duplicates_and_reordering():
    sink = FlowSink("f1")
    sink.on_packet(make_packet(0), now=1.0)
    sink.on_packet(make_packet(2), now=1.1)
    sink.on_packet(make_packet(1), now=1.2)  # late
    sink.on_packet(make_packet(2), now=1.3)  # duplicate
    assert sink.duplicates == 1
    assert sink.received == 3  # the late packet is a delivery


def test_sink_delay_and_gap():
    sink = FlowSink("f1")
    sink.on_packet(make_packet(0, created_at=0.0), now=0.1)
    sink.on_packet(make_packet(1, created_at=1.0), now=1.1)
    sink.on_packet(make_packet(2, created_at=5.0), now=5.1)
    assert sink.mean_delay() == pytest.approx(0.1)
    assert sink.max_gap() == pytest.approx(4.0)


def test_sink_jitter_zero_for_constant_transit():
    sink = FlowSink("f1")
    for seq in range(10):
        sink.on_packet(make_packet(seq, created_at=seq * 0.1), now=seq * 0.1 + 0.05)
    assert sink.jitter() == pytest.approx(0.0)


def test_sink_jitter_positive_for_variable_transit():
    sink = FlowSink("f1")
    for seq in range(10):
        transit = 0.05 if seq % 2 == 0 else 0.15
        sink.on_packet(make_packet(seq, created_at=seq * 0.1), now=seq * 0.1 + transit)
    assert sink.jitter() > 0.0


class ReferenceSink:
    """FlowSink's formulas over a plain list of delays and of arrival
    times and a set of seen seqs: the oracle for the packed sink."""

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.received = self.bytes_received = self.duplicates = 0
        self.delays, self.arrival_times, self.seen = [], [], set()
        self.jitter, self.last_transit = 0.0, None

    def on_packet(self, packet, now):
        if packet.flow_id != self.flow_id:
            return
        if packet.seq in self.seen:
            self.duplicates += 1
            return
        self.seen.add(packet.seq)
        self.received += 1
        self.bytes_received += packet.size
        transit = now - packet.created_at
        self.delays.append(transit)
        self.arrival_times.append(now)
        if self.last_transit is not None:
            self.jitter += (abs(transit - self.last_transit) - self.jitter) / 16.0
        self.last_transit = transit

    def metrics(self, sent):
        arrivals = self.arrival_times
        return {
            "received": self.received,
            "bytes_received": self.bytes_received,
            "duplicates": self.duplicates,
            "mean_delay": float(np.mean(self.delays)) if self.delays else math.nan,
            "jitter": self.jitter,
            "max_gap": (
                float(np.max(np.diff(np.asarray(arrivals))))
                if len(arrivals) >= 2 else 0.0
            ),
            "lost": max(0, sent - self.received),
            "loss_rate": max(0.0, 1.0 - self.received / sent) if sent > 0 else 0.0,
        }


def _sink_metrics(sink, sent):
    """The FlowSink readings the program takes, in ReferenceSink.metrics' keys."""
    return {
        "received": sink.received,
        "bytes_received": sink.bytes_received,
        "duplicates": sink.duplicates,
        "mean_delay": sink.mean_delay(),
        "jitter": sink.jitter(),
        "max_gap": sink.max_gap(),
        "lost": sink.lost(sent),
        "loss_rate": sink.loss_rate(sent),
    }


# One delivery: (seq, transit, wait since the previous delivery, own flow?).
# Small seqs make duplicates, reordering and gaps common; zero waits make
# same-instant deliveries.
_deliveries = st.lists(
    st.tuples(
        st.integers(0, 4) | st.integers(0, 60),
        st.floats(0.0, 2.0),
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        st.booleans(),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(_deliveries, st.integers(0, 50), st.integers(40, 1500))
def test_sink_matches_the_list_and_set_reference(deliveries, sent, size):
    sink, reference = FlowSink("f1"), ReferenceSink("f1")
    now = 0.0
    for seq, transit, wait, own in deliveries:
        now += wait
        packet = make_packet(
            seq, created_at=now - transit, size=size, flow="f1" if own else "f2"
        )
        sink.on_packet(packet, now)
        reference.on_packet(packet, now)
    got, want = _sink_metrics(sink, sent), reference.metrics(sent)
    # repr: equal float-for-float, nan included.
    assert {key: repr(value) for key, value in got.items()} == {
        key: repr(value) for key, value in want.items()
    }
    assert list(sink.delays) == reference.delays


def test_sink_rejects_a_negative_seq():
    sink = FlowSink("f1")
    with pytest.raises(ValueError, match=r"^seq must be non-negative, got -1$"):
        sink.on_packet(make_packet(-1), now=0.1)
    assert sink.received == 0


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_mean_confidence_basics():
    estimate = mean_confidence([1.0, 2.0, 3.0, 4.0, 5.0])
    assert estimate.mean == pytest.approx(3.0)
    assert estimate.n == 5
    assert estimate.low < 3.0 < estimate.high


def test_mean_confidence_single_sample():
    estimate = mean_confidence([7.0])
    assert estimate.mean == 7.0
    assert estimate.half_width == 0.0


def test_mean_confidence_empty():
    estimate = mean_confidence([])
    assert math.isnan(estimate.mean)


def test_mean_confidence_constant_samples():
    estimate = mean_confidence([2.0, 2.0, 2.0])
    assert estimate.half_width == 0.0


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0])
def test_mean_confidence_rejects_confidence_outside_the_open_unit_interval(confidence):
    # 1.5 used to give a NaN half-width (printed as a bare mean), 1.0 "±inf".
    for samples in ([1.0, 2.0, 3.0], [7.0], []):
        with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\)"):
            mean_confidence(samples, confidence=confidence)


def test_estimate_str():
    assert "±" in str(Estimate(3.0, 0.5, 5))
    assert str(Estimate(3.0, 0.0, 5)) == "3"


def test_ratio_handles_zero():
    assert ratio(4.0, 2.0) == 2.0
    assert math.isnan(ratio(1.0, 0.0))


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "name" in lines[0] and "---" in lines[1]


def test_format_series_columns():
    text = format_series("x", [1, 2], {"y1": [10, 20], "y2": [30, 40]})
    assert "y1" in text and "y2" in text and "40" in text
