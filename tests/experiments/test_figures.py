"""Tests for the figure drivers (small scale, structural + qualitative checks)."""

import pytest

from repro.experiments import (
    ALL_FIGURES,
    ExperimentConfig,
    figure04_static_examples,
    figure05_dynamic_examples,
    figure06_corrected_examples,
    figure08_workload_characteristics,
    figure10_hf_best_variants,
    scaled_config,
    table02_proposition1,
    table06_favorable_situations,
)

TINY = ExperimentConfig(
    traces=1,
    processes=150,
    capacity_factors=(1.0, 2.0),
    milp_windows=(3,),
    milp_task_limit=12,
    batch_size=50,
)


class TestConfig:
    def test_named_scales(self):
        assert scaled_config("ci").traces <= scaled_config("default").traces <= scaled_config("paper").traces
        with pytest.raises(ValueError):
            scaled_config("huge")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "default")
        assert scaled_config().traces == scaled_config("default").traces

    def test_with_overrides(self):
        assert scaled_config("ci").with_overrides(traces=9).traces == 9

    def test_registry_contains_every_figure(self):
        assert set(ALL_FIGURES) == {
            "figure04",
            "figure05",
            "figure06",
            "figure07",
            "figure08",
            "figure09",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "table02",
            "table06",
        }


class TestWorkedExampleFigures:
    def test_figure04_reports_paper_makespans(self):
        result = figure04_static_examples()
        assert result.data["makespans"] == {
            "OOSIM": 15.0,
            "IOCMS": 16.0,
            "DOCPS": 14.0,
            "IOCCS": 16.0,
            "DOCCS": 17.0,
        }
        assert result.data["omim"] == pytest.approx(12.0)
        assert "DOCPS" in result.text

    def test_figure05_reports_paper_makespans(self):
        assert figure05_dynamic_examples().data["makespans"] == {
            "LCMR": 23.0,
            "SCMR": 25.0,
            "MAMR": 24.0,
        }

    def test_figure06_reports_paper_makespans(self):
        assert figure06_corrected_examples().data["makespans"] == {
            "OOLCMR": 33.0,
            "OOSCMR": 35.0,
            "OOMAMR": 33.0,
        }

    def test_table02_reproduces_proposition1(self, monkeypatch, proposition1_free_optimum):
        # Reuse the exhaustive 720x720 two-order search of the session-scoped
        # fixture instead of rerunning it; the table is still built from scratch.
        monkeypatch.setattr(
            "repro.experiments.figures.best_schedule_allowing_reordering",
            lambda instance: proposition1_free_optimum,
        )
        result = table02_proposition1()
        assert result.data["free_makespan"] == pytest.approx(22.0)
        assert result.data["free_makespan"] < result.data["permutation_makespan"]

    def test_table06_lists_all_heuristics(self):
        result = table06_favorable_situations()
        for name in ("OOSIM", "SCMR", "OOMAMR"):
            assert name in result.text


class TestEvaluationFigures:
    def test_figure08_matches_paper_characteristics(self):
        result = figure08_workload_characteristics(TINY)
        hf = result.data["HF"]
        ccsd = result.data["CCSD"]
        # HF is communication dominated: ~20-30% possible overlap; CCSD ~35-55%.
        assert hf["overlap"].median < ccsd["overlap"].median
        assert hf["mc"].median < ccsd["mc"].median
        assert hf["groups"]["sum comm"].median > hf["groups"]["sum comp"].median

    def test_figure10_series_has_expected_shape(self):
        result = figure10_hf_best_variants(TINY)
        assert result.records
        assert all(r.ratio_to_optimal >= 1.0 - 1e-9 for r in result.records)
        # Ratios at 2 mc are no worse than at mc for the best static variant.
        by_factor = {}
        for record in result.records:
            by_factor.setdefault(record.capacity_factor, []).append(record.ratio_to_optimal)
        assert min(by_factor[2.0]) <= min(by_factor[1.0]) + 1e-9
        assert "capacity" in result.text
