"""Calibration tests: the simulated kernels must match the paper's workload shape."""

import numpy as np
import pytest

from repro.chemistry import (
    CCSD_SPEC,
    HF_SPEC,
    CCSDSimulator,
    ContractionDiagram,
    HartreeFockSimulator,
)
from repro.traces.stats import characterise_trace


class TestHartreeFockWorkload:
    def test_task_counts_per_process(self, hf_small_ensemble):
        low, high = HF_SPEC.tasks_per_process_range
        for trace in hf_small_ensemble:
            assert low <= len(trace) <= high

    def test_minimum_capacity_matches_paper(self, hf_small_ensemble):
        for trace in hf_small_ensemble:
            target = HF_SPEC.min_capacity_bytes
            assert abs(trace.min_capacity_bytes - target) <= HF_SPEC.min_capacity_tolerance * target

    def test_workload_is_communication_dominated(self, hf_small_ensemble):
        low, high = HF_SPEC.max_overlap_fraction_range
        for trace in hf_small_ensemble:
            characteristics = characterise_trace(trace)
            assert low <= characteristics.max_overlap_fraction <= high
            assert characteristics.sum_comm_ratio > characteristics.sum_comp_ratio

    def test_tasks_are_nearly_homogeneous(self, hf_small_ensemble):
        trace = hf_small_ensemble[0]
        volumes = np.array([t.volume_bytes for t in trace.tasks])
        assert volumes.std() / volumes.mean() < 0.5

    def test_compute_intensive_tasks_have_small_communications(self, hf_small_ensemble):
        trace = hf_small_ensemble[0]
        compute_intensive = [t for t in trace.tasks if t.comp_seconds >= t.comm_seconds]
        others = [t for t in trace.tasks if t.comp_seconds < t.comm_seconds]
        assert compute_intensive, "HF should contain a few compute-intensive tasks"
        assert np.mean([t.comm_seconds for t in compute_intensive]) < np.mean(
            [t.comm_seconds for t in others]
        )

    def test_generation_is_deterministic(self):
        first = HartreeFockSimulator(processes=150, seed=3).generate()[0]
        second = HartreeFockSimulator(processes=150, seed=3).generate()[0]
        assert [t.name for t in first.tasks] == [t.name for t in second.tasks]
        assert [t.comm_seconds for t in first.tasks] == [t.comm_seconds for t in second.tasks]


class TestCCSDWorkload:
    def test_task_counts_per_process(self, ccsd_small_ensemble):
        low, high = CCSD_SPEC.tasks_per_process_range
        for trace in ccsd_small_ensemble:
            assert low <= len(trace) <= high

    def test_minimum_capacity_matches_paper(self, ccsd_small_ensemble):
        for trace in ccsd_small_ensemble:
            target = CCSD_SPEC.min_capacity_bytes
            assert abs(trace.min_capacity_bytes - target) <= CCSD_SPEC.min_capacity_tolerance * target

    def test_communication_and_computation_are_balanced(self, ccsd_small_ensemble):
        low, high = CCSD_SPEC.max_overlap_fraction_range
        for trace in ccsd_small_ensemble:
            characteristics = characterise_trace(trace)
            assert low <= characteristics.max_overlap_fraction <= high

    def test_tasks_are_heterogeneous(self, ccsd_small_ensemble):
        trace = ccsd_small_ensemble[0]
        volumes = np.array([t.volume_bytes for t in trace.tasks])
        assert volumes.std() / volumes.mean() > 1.0

    def test_mixed_intensity_population(self, ccsd_small_ensemble):
        trace = ccsd_small_ensemble[0]
        characteristics = characterise_trace(trace)
        assert 0.15 <= characteristics.compute_intensive_fraction <= 0.85

    def test_seed_changes_tiling(self):
        a = CCSDSimulator(processes=150, seed=1)
        b = CCSDSimulator(processes=150, seed=2)
        assert a.virt_tiling.sizes != b.virt_tiling.sizes


class TestSimulatorInterfaces:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HartreeFockSimulator(processes=0)
        with pytest.raises(ValueError):
            HartreeFockSimulator(scf_iterations=0)
        with pytest.raises(ValueError):
            CCSDSimulator(transpose_fraction=1.5)
        with pytest.raises(ValueError):
            CCSDSimulator(contracted_blocks_per_task=0)

    def test_too_few_virtual_tiles_raise_instead_of_hanging(self):
        # 659 virtual orbitals cannot be split into the dominant 122-orbital
        # block plus two blocks of at most 122 each.
        with pytest.raises(ValueError, match="3 virtual tiles cannot split 659 orbitals"):
            CCSDSimulator(processes=12, seed=31, virtual_tiles=3)

    def test_diagram_index_spaces_are_occupied_or_virtual(self):
        with pytest.raises(ValueError, match="index spaces are 'o' or 'v'"):
            ContractionDiagram("bad", left="vvxv", right="vvoo", contracted="vv")

    def test_quartet_count_formula(self):
        simulator = HartreeFockSimulator(processes=10)
        pairs = simulator.bra_ket_blocks()
        assert simulator.quartet_count_per_iteration() == len(pairs) ** 2
        assert len(set(pairs)) == len(pairs) and all(i <= j for i, j in pairs)
        # Callers get their own list; the simulator's pair list is unchanged.
        pairs.clear()
        assert len(simulator.bra_ket_blocks()) ** 2 == simulator.quartet_count_per_iteration()

    def test_blueprint_volume_accounting(self, hf_small_ensemble):
        trace = hf_small_ensemble[0]
        assert all(t.volume_bytes > 0 for t in trace.tasks)
        assert all(t.comm_seconds > 0 for t in trace.tasks)
