"""Golden tests for weighted curve cutting and its correction pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.metrics import load_balance
from repro.partition.sfc import (
    cut_positions_uniform,
    cut_positions_weighted,
    refine_cut_positions,
)


def segment_loads(weights: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    return prefix[bounds[1:]] - prefix[bounds[:-1]]


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive, heavy-tailed weights (the hard case)."""
    return np.exp(rng.normal(0.0, 1.5, size=n)) + 1e-3


class TestRefineCutPositions:
    @pytest.mark.parametrize("seed", range(25))
    def test_never_worse_than_greedy(self, seed):
        """The golden property: the correction pass's LB is never worse
        than the greedy cuts it starts from."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 200))
        nparts = int(rng.integers(2, min(n, 24)))
        w = random_weights(rng, n)
        greedy = cut_positions_weighted(w, nparts, refine=False)
        refined = refine_cut_positions(w, greedy)
        lb_greedy = load_balance(segment_loads(w, greedy))
        lb_refined = load_balance(segment_loads(w, refined))
        assert lb_refined <= lb_greedy + 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_bounds_stay_valid(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 120))
        nparts = int(rng.integers(2, min(n, 16)))
        w = random_weights(rng, n)
        bounds = cut_positions_weighted(w, nparts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert (np.diff(bounds) >= 1).all()  # every segment non-empty

    def test_improves_a_known_bad_greedy_cut(self):
        """A case where the greedy midpoint rule provably misplaces the
        first cut and one boundary shift fixes it."""
        w = np.array([7.0, 8.0, 1.0, 2.0, 7.0, 8.0, 2.0, 3.0, 7.0])
        greedy = cut_positions_weighted(w, 3, refine=False)
        refined = cut_positions_weighted(w, 3)
        assert greedy.tolist() == [0, 2, 6, 9]  # loads [15, 18, 12]
        assert refined.tolist() == [0, 3, 6, 9]  # loads [16, 17, 12]
        lb_g = load_balance(segment_loads(w, greedy))
        lb_r = load_balance(segment_loads(w, refined))
        assert lb_r < lb_g

    def test_input_bounds_not_mutated(self):
        w = np.array([5.0, 1.0, 1.0, 1.0])
        bounds = np.array([0, 2, 4], dtype=np.int64)
        out = refine_cut_positions(w, bounds)
        assert bounds.tolist() == [0, 2, 4]
        assert out is not bounds

    def test_max_sweeps_caps_work(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 200)
        greedy = cut_positions_weighted(w, 16, refine=False)
        capped = refine_cut_positions(w, greedy, max_sweeps=1)
        full = refine_cut_positions(w, greedy)
        lb_capped = load_balance(segment_loads(w, capped))
        lb_full = load_balance(segment_loads(w, full))
        assert lb_full <= lb_capped + 1e-12

    def test_fixpoint_is_stable(self):
        """Running the pass on its own output changes nothing."""
        rng = np.random.default_rng(11)
        w = random_weights(rng, 150)
        once = cut_positions_weighted(w, 12)
        twice = refine_cut_positions(w, once)
        np.testing.assert_array_equal(once, twice)


class TestUniformReduction:
    @pytest.mark.parametrize("n,nparts", [(12, 4), (13, 4), (96, 7), (5, 5)])
    def test_uniform_weights_reduce_exactly(self, n, nparts):
        """The golden reduction: constant weights give bit-identical cuts
        to the unweighted path — any constant, not just 1.0."""
        for value in (1.0, 0.25, 3.7):
            w = np.full(n, value)
            np.testing.assert_array_equal(
                cut_positions_weighted(w, nparts),
                cut_positions_uniform(n, nparts),
            )

    def test_near_uniform_does_not_shortcut(self):
        """An epsilon perturbation must take the weighted path (the
        reduction is exact equality, not a tolerance)."""
        w = np.ones(10)
        w[3] += 1e-9
        bounds = cut_positions_weighted(w, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert (np.diff(bounds) >= 1).all()


class TestRefinedPartitions:
    def test_sfc_partition_benefits_from_refinement(self):
        """End-to-end: the shipped sfc_partition uses the corrected
        cuts, so a hotspot weight field is well balanced."""
        from repro.partition import sfc_partition

        rng = np.random.default_rng(0)
        w = np.exp(rng.normal(0.0, 1.0, size=96)) + 0.1
        p = sfc_partition(4, 8, weights=w)
        loads = np.bincount(p.assignment, weights=w, minlength=8)
        assert load_balance(loads) < 0.15

    def test_storm_cut_terminates(self):
        """Regression: rounding between the candidate test and the
        recomputed loads once made a boundary oscillate forever here."""
        import threading

        from repro.partition import sfc_partition
        from repro.scenarios import scenario_weights

        w = scenario_weights("storm", 3, 62)
        result = {}
        worker = threading.Thread(
            target=lambda: result.update(p=sfc_partition(3, 38, weights=w)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
        assert "p" in result, "weighted cut did not finish within 30 s"
        loads = np.bincount(result["p"].assignment, weights=w, minlength=38)
        assert (loads > 0).all()
