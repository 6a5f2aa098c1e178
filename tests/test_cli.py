"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transfer_defaults(self):
        args = build_parser().parse_args(["transfer"])
        assert args.testbed == "xsede"
        assert args.algorithm == "HTEE"
        assert args.max_channels == 12

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transfer", "-a", "bogus"])


class TestCommands:
    def test_testbeds(self, capsys):
        assert main(["testbeds"]) == 0
        out = capsys.readouterr().out
        assert "XSEDE" in out and "DIDCLAB" in out

    def test_dataset(self, capsys):
        assert main(["dataset", "-t", "didclab"]) == 0
        assert "40.00 GB" in capsys.readouterr().out

    def test_transfer_didclab(self, capsys):
        assert main(["transfer", "-t", "didclab", "-a", "MinE", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "MinE" in out
        assert "Mbps" in out

    def test_transfer_json_and_trace(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "transfer", "-t", "didclab", "-a", "GUC",
                "--json", str(json_path), "--trace", str(trace_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data[0]["algorithm"] == "GUC"
        assert trace_path.read_text().startswith("time_s,")

    def test_transfer_sparkline(self, capsys):
        assert main(["transfer", "-t", "didclab", "-a", "GUC", "--sparkline"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_sweep(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(
            ["sweep", "-t", "didclab", "-a", "GUC", "MinE", "-l", "1", "2",
             "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Throughput vs concurrency" in out
        assert len(json.loads(json_path.read_text())) == 4

    def test_sla(self, capsys):
        assert main(["sla", "-t", "didclab", "--targets", "80"]) == 0
        assert "80%" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig01", "table1"]) == 0
        out = capsys.readouterr().out
        assert "===== fig01 =====" in out
        assert "===== table1 =====" in out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        assert "validate: OK" in capsys.readouterr().out

    def test_advise_default_dataset(self, capsys):
        assert main(["advise", "-t", "didclab", "-c", "4"]) == 0
        out = capsys.readouterr().out
        assert "Transfer plan" in out
        assert "single-spindle" in out

    def test_advise_workload_preset(self, capsys):
        assert main(["advise", "-t", "xsede", "-w", "logs"]) == 0
        assert "predicted:" in capsys.readouterr().out

    def test_advise_unknown_workload(self, capsys):
        assert main(["advise", "-w", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("genomics", "climate", "video", "logs", "vm-images"):
            assert name in out

    def test_fleet(self, capsys):
        assert main(["fleet", "-t", "didclab", "--jobs-per-day", "1"]) == 0
        out = capsys.readouterr().out
        assert "vs ProMC" in out
        assert "slaee" in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--start-hour", "25", "start_hour must be in [0, 24)"),
        ("--jobs-per-day", "-1", "jobs_per_day must be >= 0"),
        ("--sla", "1.5", "sla_level must be in (0, 1]"),
    ])
    def test_fleet_out_of_range_exits_2(self, flag, value, message, capsys):
        assert main(["fleet", "-t", "didclab", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fleet_non_finite_jobs_per_day_exits_2(self, value, capsys):
        # the ``=`` form: argparse reads a separate "-inf" as an option
        assert main(["fleet", "-t", "didclab", f"--jobs-per-day={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"jobs_per_day must be finite, got {float(value)}"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["service", "--max-concurrent", "0"], "max_concurrent_jobs must be >= 1"),
        (["service", "--jobs", "-1"], "n_jobs must be >= 1"),
        (["service", "--day", "0"], "day_s must be > 0"),
        (["fleet-service", "--shards", "0"], "shards must be >= 1"),
        (["fleet-service", "--workers", "0"], "workers must be >= 1"),
        (["fleet-service", "--max-per-tenant", "0"], "max_per_tenant must be >= 1"),
        (["fleet-service", "--routing", "topology-aware"],
         "topology-aware routing requires a fleet topology spec"),
        (["chaos", "-s", "brownout", "-p", "run-now", "--max-concurrent", "0",
          "--jobs", "4", "--day", "600"], "max_concurrent_jobs must be >= 1"),
    ], ids=[
        "service-max-concurrent", "service-jobs", "service-day",
        "fleet-shards", "fleet-workers", "fleet-max-per-tenant",
        "fleet-topology-aware-without-topology", "chaos-max-concurrent",
    ])
    def test_day_out_of_range_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["service", "fleet-service", "chaos"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_day_not_finite_and_positive_exits_2(self, command, value, capsys):
        assert main([command, "--day", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"day_s must be > 0 and finite, got --day {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_steal_threshold_not_finite_and_non_negative_exits_2(self, value, capsys):
        # the ``=`` form: argparse reads a separate "-1" as an option
        assert main(["fleet-service", f"--steal-threshold={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"steal_threshold must be >= 0 and finite, got --steal-threshold {value}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0", "150"])
    def test_sla_targets_out_of_range_exits_2(self, value, capsys):
        assert main(["sla", "-t", "xsede", "--targets", "80", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"targets_pct must be in (0, 100] and finite, got --targets {value}\n"
        )
        assert captured.out == ""

    def test_sla_targets_accepts_100(self, capsys):
        assert main(["sla", "-t", "didclab", "--targets", "100"]) == 0
        assert "100%" in capsys.readouterr().out

    @pytest.mark.parametrize("value,expected", [("0", None), ("2.5", 2.5)])
    def test_steal_threshold_zero_disables_stealing(self, value, expected, monkeypatch):
        import repro.service

        seen = []

        class Recording(repro.service.FleetSimulator):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs["steal_threshold"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.service, "FleetSimulator", Recording)
        argv = ["fleet-service", "--steal-threshold", value, "--jobs", "2",
                "--day", "60", "--workers", "1"]
        assert main(argv) == 0
        assert seen == [expected]

    TESTBED_COMMANDS = [
        "dataset", "transfer", "sweep", "sla", "advise", "fleet", "service",
        "fleet-service", "chaos", "topo", "pareto", "report",
    ]

    @pytest.mark.parametrize("command", TESTBED_COMMANDS)
    def test_unknown_testbed_exits_2(self, command, capsys):
        assert main([command, "-t", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("unknown testbed 'nope'; known: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", TESTBED_COMMANDS)
    def test_missing_testbed_file_exits_2(self, command, tmp_path, capsys):
        missing = tmp_path / "nonexistent" / "tb.json"
        assert main([command, "-t", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"cannot load testbed {str(missing)!r}: No such file or directory\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", TESTBED_COMMANDS)
    def test_malformed_testbed_file_exits_2(self, command, tmp_path, capsys):
        broken = tmp_path / "tb.json"
        broken.write_text('{"name": "half", "path": {')
        assert main([command, "-t", str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"cannot load testbed {str(broken)!r}: not valid JSON ("
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("section", ["server", "disk"])
    @pytest.mark.parametrize("command", TESTBED_COMMANDS)
    def test_wrongly_typed_testbed_section_exits_2(self, command, section, tmp_path, capsys):
        """Valid JSON whose server (or the server's disk) is a list, not
        an object."""
        from repro.testbeds import XSEDE
        from repro.testbeds.io import testbed_to_dict

        data = testbed_to_dict(XSEDE)
        if section == "server":
            data["server"] = []
        else:
            data["server"]["disk"] = []
        broken = tmp_path / "tb.json"
        broken.write_text(json.dumps(data))
        assert main([command, "-t", str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"cannot load testbed {str(broken)!r}: invalid definition ("
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_pareto(self, capsys):
        assert main(["pareto", "-t", "didclab", "-l", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out
        assert "MinE@" in out

    def test_history_summary_and_best(self, tmp_path, capsys):
        json_path = tmp_path / "runs.jsonl"
        from repro.harness.store import ResultStore
        from repro.core.scheduler import TransferOutcome

        store = ResultStore(json_path)
        store.append(TransferOutcome("HTEE", "XSEDE", 4, 10.0, 1e9, 100.0))
        assert main(["history", str(json_path)]) == 0
        assert "1 runs" in capsys.readouterr().out
        assert main(["history", str(json_path), "--best", "efficiency"]) == 0
        assert "HTEE" in capsys.readouterr().out

    def test_history_empty_best(self, tmp_path, capsys):
        assert main(["history", str(tmp_path / "none.jsonl"), "--best", "efficiency"]) == 1


class TestReportObservability:
    def test_events_and_metrics_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--events", "--metrics"])

    def test_report_events(self, capsys):
        assert main(["report", "--events", "-t", "didclab", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "probe_window" in out
        assert "kind" in out

    def test_report_events_kind_filter_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "events.json"
        code = main(["report", "--events", "-t", "didclab", "-c", "2",
                     "--kind", "probe_window", "--json", str(json_path)])
        assert code == 0
        events = json.loads(json_path.read_text())
        assert events and all("kind" in e for e in events)

    def test_report_metrics(self, capsys):
        assert main(["report", "--metrics", "-t", "didclab", "-a", "MinE",
                     "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "events_total:" in out

    def test_report_metrics_from_store(self, tmp_path, capsys):
        from repro.core.scheduler import engine_options
        from repro.harness.campaign import Campaign
        from repro.testbeds import testbed_by_name

        store = tmp_path / "cells.jsonl"
        campaign = Campaign("cli", store, [testbed_by_name("didclab")],
                            algorithms=("GUC",))
        with engine_options(observe=True):
            campaign.run()
        assert main(["report", "--metrics", "--store", str(store),
                     "--campaign", "cli"]) == 0
        out = capsys.readouterr().out
        assert "archived cell summaries" in out
        assert "counters:" in out

    def test_report_metrics_from_empty_store(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        assert main(["report", "--metrics",
                     "--store", str(tmp_path / "empty.jsonl")]) == 1

    def test_report_events_from_store_rejected(self, tmp_path, capsys):
        assert main(["report", "--events",
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "process-local" in capsys.readouterr().err
