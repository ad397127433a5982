"""Tests for the simulation event trace."""

import pytest

from repro.sim.trace import Event, EventKind, Trace


class TestTrace:
    def test_record_and_count(self):
        trace = Trace()
        trace.record(0.0, EventKind.POWER_ON)
        trace.record(1.0, EventKind.TILE_STARTED, layer="conv", tile=0)
        trace.record(2.0, EventKind.TILE_COMPLETED, layer="conv", tile=0)
        assert len(trace) == 3
        assert trace.count(EventKind.POWER_ON) == 1
        assert trace.count(EventKind.POWER_OFF) == 0

    def test_render_limit(self):
        trace = Trace()
        for i in range(10):
            trace.record(float(i), EventKind.POWER_ON)
        text = trace.render(limit=3)
        assert "7 more events" in text

    def test_event_render(self):
        event = Event(1.5, EventKind.CHECKPOINT_SAVED, layer="fc", tile=2,
                      detail="boundary")
        text = event.render()
        assert "checkpoint_saved" in text
        assert "fc[2]" in text
        assert "boundary" in text


class TestRingBuffer:
    def test_oldest_evicted_at_capacity(self):
        trace = Trace(capacity=4)
        for i in range(10):
            trace.record(float(i), EventKind.POWER_ON, tile=i)
        assert [e.tile for e in trace.events] == [6, 7, 8, 9]
        assert trace.dropped == 6

    def test_counters_exact_despite_eviction(self):
        trace = Trace(capacity=2)
        for i in range(7):
            trace.record(float(i), EventKind.POWER_ON)
        trace.record(7.0, EventKind.POWER_OFF)
        assert len(trace) == 8
        assert trace.count(EventKind.POWER_ON) == 7
        assert trace.count(EventKind.POWER_OFF) == 1
        assert trace.counts() == {EventKind.POWER_ON: 7,
                                  EventKind.POWER_OFF: 1}

    def test_full_retention_opt_in(self):
        trace = Trace(capacity=None)
        for i in range(Trace.DEFAULT_CAPACITY + 100):
            trace.record(float(i), EventKind.POWER_ON)
        assert len(trace.events) == Trace.DEFAULT_CAPACITY + 100
        assert trace.dropped == 0

    def test_default_capacity_bounds_retention(self):
        trace = Trace()
        for i in range(Trace.DEFAULT_CAPACITY + 10):
            trace.record(float(i), EventKind.POWER_ON)
        assert len(trace.events) == Trace.DEFAULT_CAPACITY
        assert len(trace) == Trace.DEFAULT_CAPACITY + 10
        assert trace.dropped == 10

    def test_record_bulk_counts_without_events(self):
        trace = Trace()
        trace.record(0.0, EventKind.TILE_COMPLETED, layer="l", tile=0)
        trace.record_bulk(EventKind.TILE_COMPLETED, 41)
        trace.record_bulk(EventKind.POWER_ON, 42)
        assert trace.count(EventKind.TILE_COMPLETED) == 42
        assert trace.count(EventKind.POWER_ON) == 42
        assert len(trace.events) == 1
        assert len(trace) == 84
        assert trace.dropped == 83

    def test_record_bulk_zero_is_noop(self):
        trace = Trace()
        trace.record_bulk(EventKind.POWER_ON, 0)
        assert len(trace) == 0
        assert trace.counts() == {}

    def test_record_bulk_negative_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record_bulk(EventKind.POWER_ON, -1)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Trace(capacity=0)
        with pytest.raises(ValueError):
            Trace(capacity=-5)

    def test_render_accounts_for_unretained(self):
        trace = Trace(capacity=3)
        for i in range(5):
            trace.record(float(i), EventKind.POWER_ON)
        text = trace.render()
        # 3 retained lines plus the "2 more" rollup for evicted ones.
        assert "2 more events" in text
