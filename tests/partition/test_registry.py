"""Registry contract tests: resolution, errors, capabilities, goldens."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.registry import (
    MAX_ELEMENTS,
    CapabilityError,
    DuplicatePartitionerError,
    Partitioner,
    PartitionProblem,
    UnknownPartitionerError,
    available,
    get,
    register,
    specs,
    unregister,
    weighted_methods,
)

EXPECTED_METHODS = (
    "sfc", "morton", "rb", "kway", "tv", "rcb", "block", "random", "strided"
)


class TestResolution:
    def test_all_builtins_registered_in_order(self):
        assert available() == EXPECTED_METHODS

    def test_get_returns_spec_with_matching_name(self):
        for name in EXPECTED_METHODS:
            assert get(name).name == name

    def test_unknown_method_lists_choices(self):
        with pytest.raises(UnknownPartitionerError, match="choose from"):
            get("does_not_exist")

    def test_unknown_method_did_you_mean(self):
        with pytest.raises(UnknownPartitionerError, match="did you mean 'sfc'"):
            get("sfk")
        with pytest.raises(UnknownPartitionerError, match="did you mean 'kway'"):
            get("k-way")

    def test_unknown_is_a_value_error(self):
        # Callers that predate the registry catch ValueError.
        with pytest.raises(ValueError):
            get("nope")

    def test_weighted_methods(self):
        assert weighted_methods() == ("sfc", "morton")


class TestRegistration:
    def _dummy(self, name="dummy"):
        return Partitioner(name=name, build=lambda p: None, description="test")

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePartitionerError, match="already registered"):
            register(self._dummy("sfc"))

    def test_replace_allows_override(self):
        original = get("sfc")
        try:
            replacement = register(self._dummy("sfc"), replace=True)
            assert get("sfc") is replacement
        finally:
            register(original, replace=True)
        assert get("sfc") is original

    def test_register_then_unregister(self):
        register(self._dummy())
        try:
            assert "dummy" in available()
            assert get("dummy").description == "test"
        finally:
            unregister("dummy")
        assert "dummy" not in available()
        unregister("dummy")  # no-op when absent

    def test_name_must_be_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            register(self._dummy("not a name"))
        with pytest.raises(ValueError, match="identifier"):
            register(self._dummy(""))


class TestCapabilities:
    def test_sfc_rejects_inadmissible_ne(self):
        with pytest.raises(CapabilityError, match="2\\^n \\* 3\\^m"):
            get("sfc").validate(ne=5, nparts=2)

    def test_sfc_accepts_admissible_ne(self):
        get("sfc").validate(ne=12, nparts=7)

    def test_metis_has_no_ne_constraint(self):
        get("rb").validate(ne=5, nparts=2)

    def test_schedule_only_for_schedule_methods(self):
        get("sfc").validate(ne=4, nparts=8, schedule="HH")
        with pytest.raises(CapabilityError, match="schedule"):
            get("kway").validate(ne=4, nparts=8, schedule="HH")

    def test_morton_is_discontinuous(self):
        # The sfc-family sibling explains *why* it rejects a schedule:
        # Z-order jumps, so faces cannot chain into one refined curve.
        assert get("sfc").continuous
        assert not get("morton").continuous
        with pytest.raises(CapabilityError, match="discontinuous"):
            get("morton").validate(ne=4, nparts=8, schedule="HH")

    def test_morton_needs_power_of_two_ne(self):
        get("morton").validate(ne=8, nparts=6)
        with pytest.raises(CapabilityError, match="2\\^n"):
            get("morton").validate(ne=12, nparts=6)

    def test_weights_only_for_weighted_methods(self):
        get("sfc").validate(ne=4, nparts=8, weighted=True)
        with pytest.raises(CapabilityError, match="weights"):
            get("block").validate(ne=4, nparts=8, weighted=True)

    def test_nparts_bounds(self):
        k = 6 * 4 * 4
        get("block").validate(ne=4, nparts=k)
        with pytest.raises(CapabilityError, match="nparts"):
            get("block").validate(ne=4, nparts=k + 1)
        with pytest.raises(CapabilityError, match="nparts"):
            get("block").validate(ne=4, nparts=0)

    def test_mesh_size_is_bounded(self):
        # ne=1024 (K = 6 * 1024^2) is the largest admissible mesh.
        assert MAX_ELEMENTS == 6 * 1024**2
        get("sfc").validate(ne=1024, nparts=4)
        for method, ne in (("sfc", 131072), ("sfc", 1536), ("block", 1025)):
            with pytest.raises(CapabilityError, match=str(MAX_ELEMENTS)):
                get(method).validate(ne=ne, nparts=4)
        with pytest.raises(CapabilityError, match="limit"):
            get("sfc").validate(ne=np.int64(2**40), nparts=4)

    def test_ne_must_be_positive(self):
        with pytest.raises(CapabilityError, match="ne"):
            get("block").validate(ne=0, nparts=1)

    def test_call_validates_before_building(self):
        calls = []
        spec = Partitioner(
            name="probe", build=lambda p: calls.append(p), weighted=False
        )
        with pytest.raises(CapabilityError):
            spec(PartitionProblem(ne=2, nparts=4, weights=np.ones(24)))
        assert calls == []  # builder never ran

    def test_violation_surfaces_at_request_validation(self):
        # The service layer enforces capabilities when the request is
        # constructed, before any compute is scheduled.
        from repro.service import PartitionRequest

        with pytest.raises(CapabilityError, match="not admissible"):
            PartitionRequest(ne=5, nparts=2, method="sfc")
        with pytest.raises(CapabilityError, match="schedule"):
            PartitionRequest(ne=4, nparts=8, method="rb", schedule="HH")
        with pytest.raises(UnknownPartitionerError, match="did you mean"):
            PartitionRequest(ne=4, nparts=8, method="sffc")


class TestProblem:
    def test_k(self):
        assert PartitionProblem(ne=4, nparts=8).k == 96

    def test_mesh_and_graph_resolve_through_pipeline(self):
        problem = PartitionProblem(ne=2, nparts=4)
        assert problem.mesh().ne == 2
        assert problem.graph().nvertices == 24


def _legacy_make_partition(ne, nproc, method, seed=0, schedule=None):
    """The pre-registry dispatch chain, verbatim, as the golden oracle."""
    from repro.cubesphere.mesh import cubed_sphere_mesh
    from repro.graphs.csr import mesh_graph
    from repro.metis.api import part_graph
    from repro.partition.block import (
        block_partition,
        random_partition,
        strided_partition,
    )
    from repro.partition.geometric import rcb_partition
    from repro.partition.sfc import sfc_partition
    from repro.seam.cost import DEFAULT_COST_MODEL

    graph = mesh_graph(
        cubed_sphere_mesh(ne),
        edge_weight=DEFAULT_COST_MODEL.npts,
        corner_weight=1,
    )
    if method == "sfc":
        return sfc_partition(ne, nproc, schedule=schedule)
    if method == "morton":
        # Materialized oracle: cut the explicit per-face Z-order
        # traversal the way partition_curve cuts the global SFC.
        from repro.partition.base import Partition
        from repro.partition.sfc import cut_positions_uniform
        from repro.sfc.baselines import morton_curve

        mc = morton_curve(ne.bit_length() - 1)
        n2 = ne * ne
        order = np.concatenate(
            [
                face * n2 + mc.coords[:, 1].astype(np.int64) * ne
                + mc.coords[:, 0].astype(np.int64)
                for face in range(6)
            ]
        )
        bounds = cut_positions_uniform(6 * n2, nproc)
        owner = np.empty(6 * n2, dtype=np.int64)
        for p in range(nproc):
            owner[bounds[p] : bounds[p + 1]] = p
        assignment = np.empty(6 * n2, dtype=np.int64)
        assignment[order] = owner
        return Partition(assignment, nparts=nproc, method="morton")
    if method in ("rb", "kway", "tv"):
        return part_graph(graph, nproc, method, seed=seed)
    if method == "rcb":
        return rcb_partition(cubed_sphere_mesh(ne).centers_xyz, nproc)
    if method == "block":
        return block_partition(graph.nvertices, nproc)
    if method == "random":
        return random_partition(graph.nvertices, nproc, seed=seed)
    if method == "strided":
        return strided_partition(graph.nvertices, nproc)
    raise ValueError(method)


class TestGolden:
    """Registry-built partitions are bit-identical to the old dispatch."""

    @pytest.mark.parametrize("method", EXPECTED_METHODS)
    @pytest.mark.parametrize("ne,nparts", [(2, 4), (4, 7)])
    def test_bit_identical_to_legacy(self, method, ne, nparts):
        from repro.partition.pipeline import partition_stage

        for seed in (0, 3):
            new = partition_stage(method, ne, nparts, seed=seed)
            old = _legacy_make_partition(ne, nparts, method, seed=seed)
            np.testing.assert_array_equal(new.assignment, old.assignment)
            assert new.nparts == old.nparts
            assert new.method == old.method

    def test_sfc_schedule_bit_identical(self):
        from repro.partition.pipeline import partition_stage

        new = partition_stage("sfc", 6, 8, schedule="HP")
        old = _legacy_make_partition(6, 8, "sfc", schedule="HP")
        np.testing.assert_array_equal(new.assignment, old.assignment)

    def test_seed_contract(self):
        """Seeded methods vary with seed; seedless methods ignore it."""
        from repro.partition.pipeline import partition_stage

        for spec in specs():
            a = partition_stage(spec.name, 4, 8, seed=0).assignment
            b = partition_stage(spec.name, 4, 8, seed=0).assignment
            np.testing.assert_array_equal(a, b)  # deterministic under a seed
            if not spec.uses_seed:
                c = partition_stage(spec.name, 4, 8, seed=99).assignment
                np.testing.assert_array_equal(a, c)
