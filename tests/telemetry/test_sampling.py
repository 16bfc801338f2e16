"""Thread-sampling wall-clock profiler (collapsed stacks)."""

from __future__ import annotations

import gc
import sys
import time

import pytest

from repro.telemetry import StackSampler, collapse_stacks, sample_stacks
from repro.telemetry.sampling import MAX_SECONDS


def _spin(deadline: float) -> None:
    while time.perf_counter() < deadline:
        sum(range(100))


class TestStackSampler:
    def test_collects_samples_of_running_code(self):
        sampler = StackSampler(interval=0.002)
        with sampler:
            _spin(time.perf_counter() + 0.08)
        assert sampler.samples > 0
        text = sampler.collapsed()
        assert text
        # Collapsed format: "frame;frame;... count" per line.
        for line in text.splitlines():
            path, _, count = line.rpartition(" ")
            assert path
            assert int(count) > 0
        # The busy loop itself must show up in some stack.
        assert "_spin" in text

    def test_sample_stacks_blocks_and_returns(self):
        sampler = sample_stacks(0.03, interval=0.002)
        assert sampler.samples >= 1

    def test_sample_stacks_validates_duration(self):
        with pytest.raises(ValueError):
            sample_stacks(0.0)
        with pytest.raises(ValueError):
            sample_stacks(-1.0)
        with pytest.raises(ValueError):
            sample_stacks(MAX_SECONDS + 1)

    def test_frames_are_read_with_gc_paused(self, monkeypatch):
        # A collection inside sys._current_frames() can deadlock the
        # process on CPython < 3.12 (gh-106883); the sampler pauses it.
        seen = []
        real = sys._current_frames

        def spy():
            seen.append(gc.isenabled())
            return real()

        monkeypatch.setattr(sys, "_current_frames", spy)
        assert gc.isenabled()
        with StackSampler(interval=0.002):
            time.sleep(0.02)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_stop_is_idempotent(self):
        sampler = StackSampler(interval=0.002)
        sampler.start()
        sampler.stop()
        sampler.stop()


class TestCollapseStacks:
    def test_orders_by_count_then_path(self):
        counts = {
            ("mod:a", "mod:b"): 3,
            ("mod:a",): 5,
            ("mod:z",): 3,
        }
        lines = collapse_stacks(counts).splitlines()
        assert lines[0] == "mod:a 5"
        assert lines[1] == "mod:a;mod:b 3"
        assert lines[2] == "mod:z 3"

    def test_empty(self):
        assert collapse_stacks({}) == ""
