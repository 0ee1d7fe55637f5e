"""The engineering report module."""

from dataclasses import replace

import pytest

from repro import TimberWolfConfig, place_and_route, resume_place_and_route
from repro.bench import load_circuit
from repro.flow.report import (
    annealing_trace,
    channel_report,
    chip_planning_report,
    full_report,
    net_report,
    router_report,
)
from repro.resilience import CheckpointPolicy

from ..conftest import make_macro_circuit, make_mixed_circuit


@pytest.fixture(scope="module")
def macro_result():
    return place_and_route(make_macro_circuit(), TimberWolfConfig.smoke(seed=4))


@pytest.fixture(scope="module")
def mixed_result():
    return place_and_route(make_mixed_circuit(), TimberWolfConfig.smoke(seed=4))


class TestAnnealingTrace:
    def test_has_header_and_rows(self, macro_result):
        text = annealing_trace(macro_result)
        lines = text.splitlines()
        assert "accept rate" in lines[0]
        assert len(lines) > 3

    def test_sampling_interval(self, macro_result):
        sparse = annealing_trace(macro_result, every=50)
        dense = annealing_trace(macro_result, every=1)
        assert len(dense.splitlines()) >= len(sparse.splitlines())


class TestNetReport:
    def test_routed_lengths(self, macro_result):
        text = net_report(macro_result)
        assert "routed length" in text

    def test_top_limits_rows(self, macro_result):
        text = net_report(macro_result, top=3)
        assert len(text.splitlines()) <= 5  # header + rule + 3 rows

    def test_without_refinement(self):
        from dataclasses import replace

        cfg = replace(TimberWolfConfig.smoke(seed=1), refinement_passes=0)
        result = place_and_route(make_macro_circuit(), cfg)
        text = net_report(result)
        assert "HPWL" in text


class TestChannelReport:
    def test_channels_listed(self, macro_result):
        text = channel_report(macro_result)
        assert "density" in text
        assert "required w" in text

    def test_without_refinement(self):
        from dataclasses import replace

        cfg = replace(TimberWolfConfig.smoke(seed=1), refinement_passes=0)
        result = place_and_route(make_macro_circuit(), cfg)
        assert "no refinement" in channel_report(result)


class TestRouterReport:
    def test_resumed_run_labels_its_stored_passes(self, tmp_path):
        """A run resumed from the checkpoint before pass 1 runs passes 1
        and 2: the table's rows are those passes, under their own
        indices, with their own numbers."""
        config = replace(TimberWolfConfig.smoke(seed=3), refinement_passes=3)
        place_and_route(
            load_circuit("i3"), config, checkpoint=CheckpointPolicy(tmp_path)
        )
        resumed = resume_place_and_route(tmp_path / "ckpt-stage2-pass01.ckpt")
        passes = resumed.refinement.passes
        assert [p.index for p in passes] == [1, 2]
        rows = [line.split() for line in router_report(resumed).splitlines()[2:]]
        assert rows == [
            [
                str(p.index),
                str(len(p.graph.regions)),
                str(p.graph.num_free_nodes),
                str(len(p.routing.routes)),
                str(len(p.routing.unrouted)),
                f"{p.routing.total_length:.1f}",
                str(p.overflow),
            ]
            for p in passes
        ]


class TestChipPlanningReport:
    def test_macro_only_circuit(self, macro_result):
        assert "no cells with instance" in chip_planning_report(macro_result)

    def test_custom_cells_reported(self, mixed_result):
        text = chip_planning_report(mixed_result)
        assert "cust0" in text
        assert "AR" in text


class TestFullReport:
    def test_all_sections(self, macro_result):
        text = full_report(macro_result)
        for marker in (
            "TEIL",
            "chip planning",
            "busiest channels",
            "longest nets",
            "annealing trace",
        ):
            assert marker in text
