"""CLI tests: every subcommand end to end via ``main(argv)``."""

import pytest

from repro.cli import main
from repro.traffic.trace_io import write_npz

from tests.conftest import synthetic_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    write_npz(synthetic_trace(n_packets=1500, n_flows=20), path)
    return str(path)


class TestRun:
    def test_inline_query(self, trace_file, capsys):
        code = main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                     "--trace", trace_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "COUNT" in out and "cache:" in out

    def test_check_flag_verifies(self, trace_file, capsys):
        code = main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                     "--trace", trace_file, "--check",
                     "--cache-pairs", "8", "--ways", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vs never-evicting run" in out

    def test_catalog_query_with_defaults(self, trace_file, capsys):
        code = main(["run", "--catalog", "per_flow_loss_rate",
                     "--trace", trace_file])
        assert code == 0
        assert "loss_rate" in capsys.readouterr().out

    def test_param_binding(self, trace_file, capsys):
        code = main(["run", "--query",
                     "SELECT srcip FROM T WHERE pkt_len > L",
                     "--param", "L=1000", "--trace", trace_file])
        assert code == 0

    def test_query_file(self, trace_file, tmp_path, capsys):
        qfile = tmp_path / "q.pql"
        qfile.write_text("SELECT COUNT GROUPBY qid")
        code = main(["run", "--query-file", str(qfile), "--trace", trace_file])
        assert code == 0
        assert "qid" in capsys.readouterr().out

    def test_bad_query_reports_error(self, trace_file, capsys):
        code = main(["run", "--query", "SELECT FROM WHERE",
                     "--trace", trace_file])
        assert code == 2
        assert "query error" in capsys.readouterr().err

    def test_unknown_catalog_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main(["run", "--catalog", "nope", "--trace", trace_file])

    def test_windowed_run(self, trace_file, capsys):
        code = main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                     "--trace", trace_file, "--window", "100"])
        assert code == 0
        assert "COUNT" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag, value, unit", [
        pytest.param("run", "--window", "0", "accesses", id="0"),
        pytest.param("run", "--window", "-1", "accesses", id="-1"),
        pytest.param("run", "--window", "-128", "accesses", id="-128"),
        pytest.param("run", "--checkpoint-every", "0", "packets",
                     id="checkpoint-every"),
        pytest.param("serve", "--checkpoint-every-batches", "0", "batches",
                     id="checkpoint-every-batches"),
    ])
    def test_nonpositive_window_rejected(self, trace_file, command, flag,
                                         value, unit, capsys):
        """Regression: --window 0/-N used to be accepted at parse time
        and fail deep in the store (or be silently ignored on the row
        engine); argparse now rejects it, and every positive-count flag,
        with a message naming the flag's own unit."""
        argv = [command, "--query", "SELECT COUNT GROUPBY srcip"]
        if command == "run":
            argv += ["--trace", trace_file]
        with pytest.raises(SystemExit):
            main(argv + [flag, value])
        assert f"positive number of {unit}" in capsys.readouterr().err

    def test_non_integer_window_rejected(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                  "--trace", trace_file, "--window", "many"])
        assert "integer number of accesses" in capsys.readouterr().err


class TestPlan:
    def test_plan_prints_stages(self, capsys):
        code = main(["plan", "--query", "SELECT COUNT GROUPBY 5tuple"])
        out = capsys.readouterr().out
        assert code == 0
        assert "switch groupby" in out
        assert "linear in state" in out

    def test_plan_catalog_nonlinear(self, capsys):
        code = main(["plan", "--catalog", "tcp_non_monotonic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT linear in state" in out


class TestGenerate:
    def test_datacenter_npz(self, tmp_path, capsys):
        out_file = tmp_path / "dc.npz"
        code = main(["generate", "datacenter", "--out", str(out_file),
                     "--flows", "50", "--duration-ms", "10"])
        assert code == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out

    def test_incast_csv_with_ground_truth(self, tmp_path, capsys):
        out_file = tmp_path / "incast.csv"
        code = main(["generate", "incast", "--out", str(out_file),
                     "--senders", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hotspot qid" in out

    def test_caida_with_anomalies(self, tmp_path, capsys):
        out_file = tmp_path / "caida.npz"
        code = main(["generate", "caida", "--out", str(out_file),
                     "--scale", "0.0001", "--anomalies"])
        assert code == 0
        assert "planted anomalies" in capsys.readouterr().out

    def test_generated_trace_runs(self, tmp_path, capsys):
        out_file = tmp_path / "dc2.npz"
        main(["generate", "datacenter", "--out", str(out_file),
              "--flows", "40", "--duration-ms", "10"])
        capsys.readouterr()
        code = main(["run", "--query", "SELECT COUNT GROUPBY srcip, dstip",
                     "--trace", str(out_file), "--check"])
        assert code == 0


class TestCatalog:
    def test_list(self, capsys):
        code = main(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("per_flow_counters", "latency_ewma", "tcp_non_monotonic"):
            assert name in out

    def test_show(self, capsys):
        code = main(["catalog", "--show", "latency_ewma"])
        out = capsys.readouterr().out
        assert code == 0
        assert "def ewma" in out


class TestSweep:
    def test_fig5_sweep_prints_table(self, capsys):
        code = main(["sweep", "fig5", "--scale", "0.0001", "--engine",
                     "vector"])
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "8-way" in out
        assert code in (0, 1)  # shape checks may wobble at toy scale

    def test_fig6_sweep_with_workers(self, capsys):
        code = main(["sweep", "fig6", "--scale", "0.0001",
                     "--sweep-workers", "2"])
        out = capsys.readouterr().out
        assert "Fig. 6" in out and "Mbit" in out
        assert code in (0, 1)

    def test_sweep_engines_print_identical_tables(self, capsys):
        main(["sweep", "fig5", "--scale", "0.0001", "--engine", "vector"])
        vec = capsys.readouterr().out
        main(["sweep", "fig5", "--scale", "0.0001", "--engine", "row"])
        row = capsys.readouterr().out
        assert vec == row


class TestLint:
    def test_catalog_is_error_clean(self, capsys):
        code = main(["lint", "--catalog"])
        out = capsys.readouterr().out
        assert code == 0
        assert "catalog deployability" in out
        assert "NOT DEPLOYABLE" not in out
        # the paper's one non-linear row shows up as non-mergeable
        assert "tcp_non_monotonic" in out

    def test_catalog_json_is_machine_readable(self, capsys):
        import json

        code = main(["lint", "--catalog", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["errors"] == 0
        assert "tcp_non_monotonic" in payload["queries"]
        report = payload["queries"]["per_flow_counters"]["report"]
        assert report["errors"] == 0

    def test_single_query_deployable(self, capsys):
        code = main(["lint", "SELECT COUNT GROUPBY srcip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DEPLOYABLE as configured" in out

    def test_error_config_exits_nonzero(self, capsys):
        code = main(["lint", "SELECT COUNT GROUPBY srcip",
                     "--refresh", "100", "--shards", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR-E002" in out and "NOT DEPLOYABLE" in out

    @pytest.mark.parametrize("command", [
        ["run", "--trace", "t.csv"], ["plan"], ["serve"],
        ["lint", "SELECT COUNT GROUPBY srcip"]],
        ids=["run", "plan", "serve", "lint"])
    def test_engine_flag_only_on_sweep(self, command, capsys):
        """Sessions run the vector engine, so only ``sweep`` (the cache
        simulator) takes ``--engine``."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "--engine", "row"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_abbreviated_option_rejected(self, capsys):
        """Long options match in full only: the retired ``--exact`` flag
        is not read as a prefix of ``--exact-history``."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--catalog", "--exact"])
        assert exc.value.code == 2
        assert "--exact" in capsys.readouterr().err

    def test_invalid_window_is_a_diagnostic_not_a_crash(self, capsys):
        code = main(["lint", "SELECT COUNT GROUPBY srcip",
                     "--window", "-5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR-E004" in out

    def test_sram_error_from_oversized_geometry(self, capsys):
        code = main(["lint", "SELECT COUNT GROUPBY 5tuple",
                     "--cache-pairs", "8388608", "--ways", "8"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR-E301" in out

    def test_trace_bounds_drive_overflow_verdict(self, trace_file, capsys):
        code = main(["lint", "SELECT SUM(pkt_len) GROUPBY srcip",
                     "--trace", trace_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "RPR-W201" not in out
        code = main(["lint", "SELECT SUM(pkt_len) GROUPBY srcip",
                     "--records", str(2 ** 40), "--max-field",
                     str(2 ** 40)])
        out = capsys.readouterr().out
        assert code == 0  # overflow risk is a warning, not an error
        assert "RPR-W201" in out
