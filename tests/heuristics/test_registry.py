"""The paper heuristics in the solver registry, and the Table 6 metadata."""

import pytest

from repro.api import (
    UnknownSolverError,
    available_solvers,
    get_solver,
    paper_lineup,
    resolve_solvers,
)
from repro.heuristics import PAPER_FIGURE_ORDER, Category
from repro.heuristics.base import TABLE6_HEURISTICS


class TestRegistry:
    def test_figure_lineup_has_fourteen_heuristics(self):
        lineup = paper_lineup()
        assert len(lineup) == 14
        assert tuple(h.name for h in lineup) == PAPER_FIGURE_ORDER

    def test_names_match_instances(self):
        for name in PAPER_FIGURE_ORDER:
            assert get_solver(name).name == name

    def test_get_heuristic_is_case_insensitive(self):
        assert get_solver("oolcmr").name == "OOLCMR"
        assert get_solver("OS").name == "OS"

    def test_get_unknown_heuristic(self):
        # UnknownSolverError keeps the KeyError contract of a failed lookup.
        with pytest.raises(KeyError, match="unknown solver") as excinfo:
            get_solver("nope")
        assert isinstance(excinfo.value, UnknownSolverError)

    def test_fresh_instances_each_call(self):
        assert get_solver("OOSIM") is not get_solver("OOSIM")
        assert paper_lineup()[1] is not paper_lineup()[1]

    def test_lineup_subset(self):
        subset = paper_lineup(["OS", "SCMR"])
        assert [h.name for h in subset] == ["OS", "SCMR"]

    def test_heuristic_names_helper(self):
        assert [h.name for h in resolve_solvers()] == list(PAPER_FIGURE_ORDER)


class TestCategories:
    def test_every_category_is_populated(self):
        def members(category):
            return {h.name for h in resolve_solvers(f"category:{category.value}")}

        assert members(Category.SUBMISSION) == {"OS"}
        assert members(Category.STATIC) >= {"OOSIM", "IOCMS", "GG", "BP"}
        assert members(Category.DYNAMIC) == {"LCMR", "SCMR", "MAMR"}
        assert members(Category.CORRECTED) == {"OOLCMR", "OOSCMR", "OOMAMR"}

    def test_category_members_accepts_strings(self):
        assert {h.name for h in resolve_solvers("category:dynamic")} == {"LCMR", "SCMR", "MAMR"}


class TestTable6:
    def test_table6_rows_cover_proposed_heuristics(self):
        infos = available_solvers()
        rows = [infos[name] for name in TABLE6_HEURISTICS]
        assert [row.name for row in rows] == [
            "OOSIM",
            "IOCMS",
            "DOCPS",
            "IOCCS",
            "DOCCS",
            "LCMR",
            "SCMR",
            "MAMR",
            "OOLCMR",
            "OOSCMR",
            "OOMAMR",
        ]
        assert all(row.favorable_situation for row in rows)
