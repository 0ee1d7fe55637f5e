"""Prometheus exposition: one renderer for the textfile and the fleet
page, and the strict parse."""

import pytest

from repro.qor import parse_prometheus, render_prometheus_fleet


def render_beat(doc):
    """One heartbeat as the ``--metrics-textfile`` gets it."""
    return render_prometheus_fleet([doc])


class TestRender:
    def test_numeric_fields_become_gauges(self):
        text = render_beat(
            {"v": 1, "seq": 9, "run_id": "r1", "phase": "anneal",
             "T": 50.5, "cost": 123.5, "updated": 1000.0}
        )
        parsed = parse_prometheus(text)
        label = '{run_id="r1"}'
        assert parsed["repro_T" + label] == 50.5
        assert parsed["repro_cost" + label] == 123.5
        assert parsed["repro_updated" + label] == 1000.0

    def test_bookkeeping_fields_skipped(self):
        text = render_beat({"v": 1, "seq": 9, "T": 1.0})
        assert "repro_v" not in text
        assert "repro_seq" not in text

    def test_string_fields_become_info_labels(self):
        text = render_beat({"run_id": "r1", "phase": "anneal"})
        assert 'run_id="r1"' in text
        assert 'phase="anneal"' in text
        assert "repro_run_info" in text

    def test_gauges_carry_run_id_label(self):
        text = render_beat({"run_id": "r1", "T": 2.0})
        assert 'repro_T{run_id="r1"} 2' in text

    def test_nested_dicts_flatten(self):
        text = render_beat({"router": {"nets": 5.0}})
        assert parse_prometheus(text)["repro_router_nets"] == 5.0

    def test_chains_carry_a_chain_label(self):
        """A ``parallel`` beat's chains are labelled series, as on the
        fleet page, not one metric name per chain id."""
        text = render_beat(
            {"run_id": "r1", "phase": "parallel", "best": 1,
             "chains": {"0": {"cost": 5.0, "done": False},
                        "1": {"cost": 3.0, "done": True}}}
        )
        parsed = parse_prometheus(text)
        assert parsed['repro_chain_cost{chain="0",run_id="r1"}'] == 5.0
        assert parsed['repro_chain_done{chain="1",run_id="r1"}'] == 1.0
        assert parsed['repro_best{run_id="r1"}'] == 1.0
        assert "repro_chains_" not in text

    def test_chain_count_stays_a_gauge(self):
        """The stage-1 ``flow`` beat's ``chains`` is a count, not a
        chains sub-document."""
        parsed = parse_prometheus(render_beat({"run_id": "r1", "chains": 2}))
        assert parsed['repro_chains{run_id="r1"}'] == 2.0

    def test_booleans_are_01_gauges(self):
        parsed = parse_prometheus(render_beat({"final": True}))
        assert parsed["repro_final"] == 1.0

    def test_help_and_type_comments(self):
        text = render_beat({"T": 1.0})
        assert "# TYPE repro_T gauge" in text


class TestParse:
    def test_round_trip(self):
        doc = {"phase": "done", "teil": 42.5, "overflow": 0}
        parsed = parse_prometheus(render_beat(doc))
        assert parsed["repro_teil"] == 42.5
        assert parsed["repro_overflow"] == 0

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_teil not-a-number\n")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_prometheus("# HELP x y\n\nrepro_x 1\n")
        assert parsed == {"repro_x": 1.0}


class TestEscaping:
    """Label escaping and metric-name sanitization (exposition format)."""

    def test_run_id_with_dashes_and_dots_survives_as_label(self):
        rid = "20260808-123456-ab.cd"
        text = render_beat({"run_id": rid, "T": 1.0})
        parsed = parse_prometheus(text)
        assert parsed[f'repro_T{{run_id="{rid}"}}'] == 1.0

    def test_field_names_sanitize_to_metric_charset(self):
        text = render_beat({"run_id": "r", "nets-done": 3, "eta.s": 2.5})
        parsed = parse_prometheus(text)
        assert parsed['repro_nets_done{run_id="r"}'] == 3.0
        assert parsed['repro_eta_s{run_id="r"}'] == 2.5

    def test_quote_in_label_value_escaped(self):
        text = render_beat({"run_id": 'r"1', "T": 1.0})
        assert 'run_id="r\\"1"' in text
        parse_prometheus(text)  # still well-formed

    def test_newline_in_label_value_escaped(self):
        text = render_beat({"run_id": "r\n1", "T": 1.0})
        assert 'run_id="r\\n1"' in text
        assert "\nr" not in text.split("# TYPE repro_T")[0].replace(
            "\nrepro_run_info", ""
        )
        parse_prometheus(text)  # no raw newline broke a sample line

    def test_backslash_in_label_value_escaped(self):
        text = render_beat({"run_id": "r\\1", "T": 1.0})
        assert 'run_id="r\\\\1"' in text
        parse_prometheus(text)

    def test_phase_label_escaped_on_run_info(self):
        text = render_beat({"run_id": "r", "phase": 'we"ird\nphase'})
        assert 'phase="we\\"ird\\nphase"' in text
        parse_prometheus(text)


class TestFleetRender:
    """The multi-run scrape page of the observability server."""

    def test_one_type_line_per_metric_across_runs(self):
        text = render_prometheus_fleet(
            [
                {"run_id": "a", "phase": "anneal", "T": 10.0, "cost": 5.0},
                {"run_id": "b", "phase": "route", "T": 2.0, "cost": 7.0},
            ]
        )
        assert text.count("# TYPE repro_T gauge") == 1
        assert text.count("# TYPE repro_cost gauge") == 1
        assert text.count("# TYPE repro_run_info gauge") == 1
        parsed = parse_prometheus(text)
        assert parsed['repro_T{run_id="a"}'] == 10.0
        assert parsed['repro_T{run_id="b"}'] == 2.0
        assert parsed['repro_run_info{phase="route",run_id="b"}'] == 1.0

    def test_chains_break_out_under_chain_label(self):
        text = render_prometheus_fleet(
            [
                {
                    "run_id": "a",
                    "chains": {
                        "0": {"cost": 5.0, "done": False},
                        "1": {"cost": 4.5, "done": True},
                    },
                }
            ]
        )
        parsed = parse_prometheus(text)
        assert parsed['repro_chain_cost{chain="0",run_id="a"}'] == 5.0
        assert parsed['repro_chain_cost{chain="1",run_id="a"}'] == 4.5
        assert parsed['repro_chain_done{chain="1",run_id="a"}'] == 1.0
        # Chains must NOT also appear as flattened metric names.
        assert "repro_chains_0_cost" not in text

    def test_empty_fleet_is_valid_exposition(self):
        assert parse_prometheus(render_prometheus_fleet([])) == {}

    def test_weird_run_ids_round_trip(self):
        ids = ['run"quoted', "run\\slash", "run\nline", "run-dot.id"]
        text = render_prometheus_fleet(
            [{"run_id": rid, "T": float(i)} for i, rid in enumerate(ids)]
        )
        parsed = parse_prometheus(text)  # every line parses
        assert len([k for k in parsed if k.startswith("repro_T")]) == len(ids)

    def test_skip_fields_stay_out_of_the_page(self):
        text = render_prometheus_fleet([{"run_id": "a", "v": 1, "seq": 9, "T": 1.0}])
        assert "repro_v" not in text
        assert "repro_seq" not in text
