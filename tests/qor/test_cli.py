"""The observability CLI: status/watch/qor exit codes, end to end.

Two real (tiny) flow runs go through ``python -m repro place`` with
``--rundir``/``--registry``; everything downstream (list, show, compare,
gate, rolling baseline, degraded-run regression) queries what those runs
actually recorded.
"""

import json

import pytest

from repro.__main__ import main
from repro.netlist import dump
from repro.qor import RunRegistry
from repro.qor.cli import EXIT_MISSING, EXIT_OK, EXIT_REGRESSION

from ..conftest import FakeRun, make_macro_circuit


@pytest.fixture(scope="module")
def flow_env(tmp_path_factory):
    """Two identical-seed smoke runs recorded into one registry."""
    root = tmp_path_factory.mktemp("qor-cli")
    circuit_file = root / "c.twmc"
    dump(make_macro_circuit(seed=3), circuit_file)
    registry = root / "reg.sqlite"
    rundirs = []
    for name in ("run-a", "run-b"):
        rundir = root / name
        code = main(
            [
                "place", str(circuit_file), "--preset", "smoke", "--seed", "5",
                "--rundir", str(rundir), "--registry", str(registry),
                "--metrics-textfile", str(rundir / "metrics.prom"),
            ]
        )
        assert code == 0
        rundirs.append(rundir)
    with RunRegistry(registry) as reg:
        runs = reg.runs()
    run_ids = [r["run_id"] for r in reversed(runs)]  # oldest first
    return {
        "root": root,
        "circuit_file": circuit_file,
        "registry": str(registry),
        "rundirs": rundirs,
        "run_ids": run_ids,
    }


class TestStatus:
    def test_empty_rundir_is_missing(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == EXIT_MISSING

    def test_completed_rundir(self, flow_env, capsys):
        assert main(["status", str(flow_env["rundirs"][0])]) == EXIT_OK
        out = capsys.readouterr().out
        assert "qor" in out
        assert "[done]" in out

    def test_json_mode(self, flow_env, capsys):
        assert main(["status", str(flow_env["rundirs"][0]), "--json"]) == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert info["heartbeat"]["final"] is True
        assert info["qor"]["teil"] > 0

    def test_metrics_textfile_written(self, flow_env):
        from repro.qor import parse_prometheus

        text = (flow_env["rundirs"][0] / "metrics.prom").read_text()
        parsed = parse_prometheus(text)  # must be well-formed
        assert any(key.startswith("repro_teil") for key in parsed)


class TestWatch:
    def test_final_heartbeat_exits_zero(self, flow_env, capsys):
        code = main(["watch", str(flow_env["rundirs"][0]), "--interval", "0.01"])
        assert code == EXIT_OK
        assert "entered phase done" in capsys.readouterr().out

    def test_dead_rundir_exits_one(self, tmp_path):
        code = main(
            ["watch", str(tmp_path), "--interval", "0.01", "--max-updates", "1"]
        )
        assert code == 1


class TestQorList:
    def test_lists_both_runs(self, flow_env, capsys):
        assert main(["qor", "list", "--registry", flow_env["registry"]]) == EXIT_OK
        out = capsys.readouterr().out
        for run_id in flow_env["run_ids"]:
            assert run_id in out

    def test_empty_registry_is_missing(self, tmp_path, capsys):
        code = main(
            ["qor", "list", "--registry", str(tmp_path / "empty.sqlite")]
        )
        assert code == EXIT_MISSING


class TestQorShow:
    def test_show_by_prefix(self, flow_env, capsys):
        run_id = flow_env["run_ids"][0]
        # Drop the last character: still unique (the hex suffix differs),
        # no longer an exact id, so the prefix path is exercised.
        assert (
            main(["qor", "show", run_id[:-1], "--registry", flow_env["registry"]])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert run_id in out
        assert "teil" in out

    def test_unknown_run_is_missing(self, flow_env, capsys):
        code = main(
            ["qor", "show", "zzz", "--registry", flow_env["registry"]]
        )
        assert code == EXIT_MISSING


class TestQorCompareAndGate:
    def test_compare_identical_seeds(self, flow_env, capsys):
        a, b = flow_env["run_ids"]
        code = main(
            ["qor", "compare", b, a, "--registry", flow_env["registry"]]
        )
        assert code == EXIT_OK
        assert "teil" in capsys.readouterr().out

    def test_gate_passes_against_identical_run(self, flow_env, capsys):
        a, b = flow_env["run_ids"]
        code = main(
            ["qor", "gate", b, "--against", a,
             "--registry", flow_env["registry"]]
        )
        assert code == EXIT_OK
        assert "GATE PASSED" in capsys.readouterr().out

    def test_gate_rolling_baseline_default_candidate(self, flow_env, capsys):
        # No candidate argument: latest run vs the rolling baseline of
        # matching prior runs (run-a).
        code = main(["qor", "gate", "--registry", flow_env["registry"]])
        assert code == EXIT_OK
        assert "baseline[" in capsys.readouterr().out

    def test_gate_fails_on_degraded_run(self, flow_env, capsys):
        degraded = self._insert_degraded(flow_env)
        a = flow_env["run_ids"][0]
        code = main(
            ["qor", "gate", degraded, "--against", a,
             "--registry", flow_env["registry"]]
        )
        assert code == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "GATE FAILED" in out
        assert "REGRESSED" in out

    def test_gate_json_mode(self, flow_env, capsys):
        degraded = self._insert_degraded(flow_env)
        a = flow_env["run_ids"][0]
        code = main(
            ["qor", "gate", degraded, "--against", a, "--json",
             "--registry", flow_env["registry"]]
        )
        assert code == EXIT_REGRESSION
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(d["regressed"] for d in payload["deltas"])

    def test_gate_without_baseline_is_missing(self, flow_env, tmp_path, capsys):
        registry = tmp_path / "solo.sqlite"
        with RunRegistry(flow_env["registry"]) as src, RunRegistry(registry) as dst:
            run_id = flow_env["run_ids"][0]
            run = src.get_run(run_id)
            qor = src.get_qor(run_id)
            dst.register_run(
                {
                    "run_id": run_id,
                    "circuit": {"name": run["circuit"],
                                "sha256": run["circuit_sha256"]},
                    "config": {"sha256": run["config_sha256"], "values": {}},
                }
            )
            dst.record_qor(run_id, qor)
            dst.finish_run(run_id, "ok")
        code = main(["qor", "gate", run_id, "--registry", str(registry)])
        assert code == EXIT_MISSING

    def test_gate_empty_registry_is_missing(self, tmp_path):
        code = main(
            ["qor", "gate", "--registry", str(tmp_path / "none.sqlite")]
        )
        assert code == EXIT_MISSING

    @staticmethod
    def _insert_degraded(flow_env):
        """Clone run-a's QoR with TEIL inflated 50%: a planted regression."""
        degraded_id = "degraded-run"
        with RunRegistry(flow_env["registry"]) as registry:
            try:
                registry.get_run(degraded_id)
                return degraded_id  # already planted by an earlier test
            except Exception:
                pass
            source = registry.get_qor(flow_env["run_ids"][0])
            run = registry.get_run(flow_env["run_ids"][0])
            registry.register_run(
                {
                    "run_id": degraded_id,
                    "circuit": {"name": run["circuit"],
                                "sha256": run["circuit_sha256"]},
                    "config": {"sha256": run["config_sha256"], "values": {}},
                }
            )
            record = dict(source)
            record["teil"] = source["teil"] * 1.5
            record["failures"] = []
            record["truncated"] = bool(source["truncated"])
            registry.record_qor(degraded_id, record)
            registry.finish_run(degraded_id, "ok")
        return degraded_id


class TestResumeIdentity:
    def test_resumed_run_keeps_registry_identity(self, flow_env, capsys):
        """Truncate a run via a temperature budget + checkpoint, resume it:
        one registry row, final status ok, same run id throughout."""
        root = flow_env["root"]
        registry = str(root / "resume.sqlite")
        ckpt_dir = root / "ckpt"
        rundir = root / "resume-rundir"
        code = main(
            [
                "place", str(flow_env["circuit_file"]), "--preset", "smoke",
                "--seed", "5", "--rundir", str(rundir), "--registry", registry,
                "--budget-temperatures", "2", "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-every", "1",
            ]
        )
        assert code == 0
        capsys.readouterr()
        with RunRegistry(registry) as reg:
            runs = reg.runs()
        assert len(runs) == 1
        original_id = runs[0]["run_id"]
        assert runs[0]["status"] == "truncated"

        checkpoints = sorted(ckpt_dir.glob("*.ckpt"))
        assert checkpoints
        code = main(
            [
                "resume", str(checkpoints[-1]),
                "--rundir", str(root / "resume-rundir-2"), "--registry", registry,
            ]
        )
        assert code == 0
        with RunRegistry(registry) as reg:
            runs = reg.runs()
            record = reg.get_qor(original_id)
        assert len(runs) == 1
        assert runs[0]["run_id"] == original_id
        assert runs[0]["status"] == "ok"
        assert record["truncated"] == 0


class TestStatusExitCodes:
    """Satellite: ``status`` distinguishes healthy, stale, and dead runs."""

    def test_running_fresh_is_ok(self, tmp_path, capsys):
        FakeRun(tmp_path).anneal(step=1)
        assert main(["status", str(tmp_path)]) == EXIT_OK

    def test_stale_heartbeat_exits_4(self, tmp_path, capsys):
        import time

        from repro.qor.cli import EXIT_STALE

        FakeRun(tmp_path).anneal(step=1)
        time.sleep(0.05)
        code = main(["status", str(tmp_path), "--stale-after", "0.01"])
        assert code == EXIT_STALE == 4

    def test_failed_run_exits_5(self, tmp_path, capsys):
        from repro.qor.cli import EXIT_DEAD

        FakeRun(tmp_path).end("failed", error="ValueError")
        assert main(["status", str(tmp_path)]) == EXIT_DEAD == 5

    def test_interrupted_run_exits_5(self, tmp_path, capsys):
        from repro.qor.cli import EXIT_DEAD

        FakeRun(tmp_path).end("interrupted")
        assert main(["status", str(tmp_path)]) == EXIT_DEAD

    def test_done_run_never_goes_stale(self, tmp_path, capsys):
        FakeRun(tmp_path).end("ok")
        code = main(["status", str(tmp_path), "--stale-after", "0.0"])
        assert code == EXIT_OK

    def test_exit_codes_are_distinct(self):
        from repro.__main__ import EXIT_INTERRUPTED
        from repro.qor.cli import EXIT_DEAD, EXIT_STALE

        codes = {EXIT_OK, EXIT_REGRESSION, EXIT_MISSING, EXIT_INTERRUPTED,
                 EXIT_STALE, EXIT_DEAD}
        assert len(codes) == 6
