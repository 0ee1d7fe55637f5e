"""Status/watch rendering over a rundir's atomic files."""

import io
import json
import threading
import time

from repro.qor import (
    RunRecorder,
    load_rundir,
    progress_line,
    render_status,
    watch,
)
from repro.qor.monitor import STALE_AFTER

from ..conftest import FakeRun


def write_manifest(rundir, run_id="r1"):
    rundir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "run_id": run_id,
        "circuit": {"name": "fix", "cells": 6, "nets": 8, "sha256": "c" * 64},
        "config": {
            "sha256": "f" * 64,
            "values": {"seed": 3, "parallel": {"chains": 2, "workers": 2}},
        },
    }
    (rundir / RunRecorder.MANIFEST_NAME).write_text(json.dumps(manifest))
    return manifest


class TestLoadRundir:
    def test_empty_rundir_is_all_none(self, tmp_path):
        info = load_rundir(tmp_path)
        assert info["manifest"] is None
        assert info["heartbeat"] is None
        assert info["qor"] is None

    def test_picks_up_each_file(self, tmp_path):
        write_manifest(tmp_path)
        FakeRun(tmp_path).anneal()
        (tmp_path / RunRecorder.QOR_NAME).write_text(json.dumps({"teil": 5.0}))
        info = load_rundir(tmp_path)
        assert info["manifest"]["run_id"] == "r1"
        assert info["heartbeat"]["phase"] == "anneal"
        assert info["qor"]["teil"] == 5.0


class TestProgressLine:
    def test_selected_fields_in_order(self):
        line = progress_line(
            {
                "phase": "anneal",
                "stage": "stage1",
                "step": 12,
                "T": 512.25,
                "acceptance": 0.8123,
                "cost": 1234.5,
                "eta_steps": 40,
                "eta_seconds": 9.5,
                "irrelevant": "dropped",
            }
        )
        assert line.startswith("[anneal] stage=stage1 step=12")
        assert "acc=0.8123" in line
        assert "eta_s=9.5" in line
        assert "irrelevant" not in line

    def test_chain_summary_marks_done_chains(self):
        line = progress_line(
            {
                "phase": "parallel",
                "round": 2,
                "chains": {"0": {"cost": 10.0}, "1": {"cost": 12.0, "done": True}},
            }
        )
        assert "round=2" in line
        assert "chains[0:10 1:12*]" in line


class TestRenderStatus:
    def test_full_block(self, tmp_path):
        write_manifest(tmp_path)
        FakeRun(tmp_path).anneal(step=1)
        (tmp_path / RunRecorder.QOR_NAME).write_text(
            json.dumps({"teil": 5.0, "chip_area": 9.0, "overflow": 0,
                        "wall_seconds": 1.5, "truncated": True})
        )
        text = render_status(load_rundir(tmp_path))
        assert "run      r1" in text
        assert "circuit  fix (6 cells, 8 nets)" in text
        assert "chains 2" in text
        assert "[anneal]" in text
        assert "TRUNCATED" in text

    def test_missing_parts_degrade(self, tmp_path):
        text = render_status(load_rundir(tmp_path))
        assert "(no manifest yet)" in text
        assert "(no heartbeat yet)" in text

    def test_stale_beat_flagged(self, tmp_path):
        run = FakeRun(tmp_path)
        run.anneal()
        info = load_rundir(tmp_path)
        now = time.time() + STALE_AFTER + 5
        assert "[STALE]" in render_status(info, now=now)
        # A final beat is complete, not stale.
        run.end()
        assert "[STALE]" not in render_status(load_rundir(tmp_path), now=now)


class TestWatch:
    def test_stops_on_final_beat(self, tmp_path):
        FakeRun(tmp_path).end("ok")
        out = io.StringIO()
        assert watch(tmp_path, interval=0.01, stream=out) == 0
        text = out.getvalue()
        assert "-- r1 entered phase done" in text
        assert "[done]" in text
        assert "[start]" not in text  # a watch starts at the current beat

    def test_no_beat_ever_is_failure(self, tmp_path):
        assert watch(tmp_path, interval=0.01, max_updates=1) == 1

    def test_max_updates_with_live_run(self, tmp_path):
        FakeRun(tmp_path).anneal(step=1)
        out = io.StringIO()
        assert watch(tmp_path, interval=0.01, max_updates=1, stream=out) == 0
        assert "[anneal] step=1" in out.getvalue()

    def test_prints_every_later_beat(self, tmp_path):
        """From the current beat on, a watch prints every beat the run
        publishes, however fast they come."""
        run = FakeRun(tmp_path)
        run.anneal(step=0)
        out = io.StringIO()
        watcher = threading.Thread(
            target=watch, args=(tmp_path,), kwargs={"interval": 0.01, "stream": out}
        )
        watcher.start()
        deadline = time.monotonic() + 10.0
        while "[anneal]" not in out.getvalue() and time.monotonic() < deadline:
            time.sleep(0.005)  # the watch has printed the current beat
        for step in range(1, 40):
            run.anneal(step=step)
        run.end("ok")
        watcher.join(timeout=10.0)
        assert not watcher.is_alive()
        steps = [
            int(line.split("step=")[1].split()[0])
            for line in out.getvalue().splitlines()
            if line.startswith("[anneal]")
        ]
        assert steps == list(range(40))
        assert out.getvalue().splitlines()[-1].startswith("[done]")
