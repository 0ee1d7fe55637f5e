"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.netlist import dump

from ..conftest import make_macro_circuit


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "c.twmc"
    # The default 6-cell fixture gives every net at least two pins.
    dump(make_macro_circuit(seed=3), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_defaults(self):
        args = build_parser().parse_args(["place", "x.twmc"])
        assert args.preset == "fast"
        assert args.seed == 0
        assert not args.report


class TestSuiteCommand:
    def test_lists_circuits(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for name in ("i1", "l1", "d3"):
            assert name in out


class TestStatsCommand:
    def test_clean_circuit(self, circuit_file, capsys):
        assert main(["stats", circuit_file]) == 0
        out = capsys.readouterr().out
        assert "netlist clean" in out
        assert "macro cells" in out


class TestGenerateCommand:
    def test_writes_suite_circuit(self, tmp_path, capsys):
        out_path = tmp_path / "i3.twmc"
        assert main(["generate", "i3", str(out_path)]) == 0
        from repro.netlist import load

        circuit = load(out_path)
        assert circuit.num_cells == 18

    def test_unknown_name(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "bogus", str(tmp_path / "x.twmc")])


class TestPlaceCommand:
    def test_place_smoke(self, circuit_file, capsys, tmp_path):
        svg_path = tmp_path / "out.svg"
        code = main(
            [
                "place",
                circuit_file,
                "--preset",
                "smoke",
                "--seed",
                "2",
                "--svg",
                str(svg_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TEIL" in out
        assert svg_path.read_text().startswith("<svg")

    def test_place_report(self, circuit_file, capsys):
        assert main(["place", circuit_file, "--preset", "smoke", "--report"]) == 0
        out = capsys.readouterr().out
        assert "annealing trace" in out

    def test_bad_preset(self, circuit_file):
        with pytest.raises(SystemExit):
            main(["place", circuit_file, "--preset", "warp"])

    def test_repro_faults_arms_the_run(self, circuit_file, tmp_path, monkeypatch):
        """``main`` arms ``REPRO_FAULTS`` for the whole process: the first
        routed net fails once, and the run's trace records its retry."""
        import json

        from repro.resilience import install_injector

        monkeypatch.setenv("REPRO_FAULTS", "router.route_net@1")
        trace_path = tmp_path / "run.jsonl"
        try:
            code = main(
                [
                    "place", circuit_file, "--preset", "smoke",
                    "--trace", str(trace_path),
                ]
            )
        finally:
            install_injector(None)
        assert code == 0
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        (retried,) = [e for e in events if e["name"] == "router.net_retried"]
        assert "injected error at router.route_net (visit 1" in retried["error"]

    def test_place_json(self, circuit_file, capsys, tmp_path):
        import json

        json_path = tmp_path / "out.json"
        code = main(
            ["place", circuit_file, "--preset", "smoke", "--json", str(json_path)]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["cells"]
        assert "metrics" in data
