"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output
        assert "table1" in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "compress" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_exec_program(self, capsys):
        status = main(["exec", "cc", "--input", "1"])
        assert status == 0
        assert "=" in capsys.readouterr().out

    def test_exec_bad_input_index(self, capsys):
        assert main(["exec", "cc", "--input", "99"]) == 2

    def test_cfg_listing(self, capsys):
        assert main(["cfg", "compress", "hash_slot"]) == 0
        assert "B0" in capsys.readouterr().out

    def test_cfg_dot(self, capsys):
        assert main(["cfg", "compress", "hash_slot", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_cfg_unknown_function(self, capsys):
        assert main(["cfg", "compress", "nope"]) == 2

    def test_predict(self, capsys):
        assert main(["predict", "compress"]) == 0
        output = capsys.readouterr().out
        assert "loop" in output
        assert "p=" in output

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_layout_command(self, capsys):
        assert main(["layout", "compress", "table_lookup"]) == 0
        output = capsys.readouterr().out
        assert "estimate-driven layout" in output
        assert "entry" in output

    def test_layout_unknown_function(self, capsys):
        assert main(["layout", "compress", "nope"]) == 2


class TestObservabilityCli:
    @pytest.fixture
    def trace_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
        return path

    def test_run_without_trace_writes_no_file(self, trace_file, capsys):
        assert main(["run", "table2"]) == 0
        capsys.readouterr()
        assert not trace_file.exists()

    def test_run_trace_writes_jsonl(self, trace_file, capsys):
        assert main(["run", "table2", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        records = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
            if line
        ]
        assert records, "trace file should contain spans"
        assert {"id", "parent", "name", "start", "seconds"} <= set(
            records[0]
        )

    def test_trace_command_renders_tree(self, trace_file, capsys):
        assert main(["run", "table2", "--trace", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["trace"]) == 0
        assert "ms" in capsys.readouterr().out
        assert main(["trace", str(trace_file), "--full"]) == 0
        assert "ms" in capsys.readouterr().out

    def test_trace_command_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_quiet_suppresses_diag_not_stdout(self, trace_file, capsys):
        assert main(["run", "table2", "--trace", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "strchr" in captured.out
        assert trace_file.exists()  # quiet silences chatter, not output

    def test_stats_round_trip(self, tmp_path, monkeypatch, capsys):
        stats_file = tmp_path / "stats.json"
        monkeypatch.setenv("REPRO_STATS_FILE", str(stats_file))
        assert main(["run", "table2"]) == 0
        capsys.readouterr()
        assert stats_file.exists()
        assert main(["stats"]) == 0
        table = capsys.readouterr().out
        assert "metric" in table
        assert "counter" in table
        assert main(["stats", "--format", "prom"]) == 0
        assert "repro_" in capsys.readouterr().out

    def test_stats_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["stats", "--file", missing]) == 2
        assert "no recorded stats" in capsys.readouterr().err

    def test_cache_info_reports_mtimes(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        os.makedirs(cache_dir)
        (cache_dir / "entry.json").write_text("{}")
        assert main(["cache", "info"]) == 0
        output = capsys.readouterr().out
        assert "profile cache:" in output
        assert "analysis cache:" in output
        assert "codegen cache:" in output
        assert "attribution cache:" in output
        assert "fuzz corpus:" in output
        assert "run ledger:" in output
        assert "oldest:" in output and "newest:" in output
        # The profile cache has one entry; the analysis, codegen and
        # attribution caches, the fuzz corpus, and the run ledger are
        # empty.
        assert output.count("oldest:    -") == 5

    def test_cache_clear_reports_per_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        os.makedirs(cache_dir / "analysis")
        os.makedirs(cache_dir / "attribution")
        os.makedirs(cache_dir / "fuzz")
        (cache_dir / "entry.json").write_text("{}")
        (cache_dir / "analysis" / "entry.json").write_text("{}")
        (cache_dir / "attribution" / ("b" * 64 + ".json")).write_text("{}")
        (cache_dir / "fuzz" / ("a" * 64 + ".c")).write_text("int x;\n")
        assert main(["cache", "clear"]) == 0
        output = capsys.readouterr().out
        assert "profile cache: removed 1 files" in output
        assert "analysis cache: removed 1 files" in output
        assert "attribution cache: removed 1 files" in output
        assert "fuzz corpus: removed 1 files" in output
        assert str(cache_dir) in output
        assert not (cache_dir / "entry.json").exists()
        assert not (
            cache_dir / "attribution" / ("b" * 64 + ".json")
        ).exists()
        assert not (cache_dir / "fuzz" / ("a" * 64 + ".c")).exists()


class TestFuzzCli:
    @pytest.fixture
    def fuzz_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path / "fuzz"

    def test_fuzz_run_is_deterministic_across_jobs(self, fuzz_dir, capsys):
        assert main(["fuzz", "run", "--seed", "0", "--count", "4",
                     "--jobs", "1", "--quiet"]) == 0
        serial = capsys.readouterr().out
        assert main(["fuzz", "run", "--seed", "0", "--count", "4",
                     "--jobs", "2", "--quiet"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "0 failing" in serial
        assert "digest=" in serial

    def test_fuzz_run_diag_goes_to_stderr(self, fuzz_dir, capsys):
        assert main(["fuzz", "run", "--count", "1", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "jobs" not in captured.out
        assert "corpus" in captured.err

    def test_fuzz_run_rejects_bad_count(self, fuzz_dir, capsys):
        assert main(["fuzz", "run", "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err

    def test_fuzz_replay_passing_case(self, fuzz_dir, capsys):
        from repro.fuzz import generate_source, save_case

        key = save_case(generate_source(74), {"seed": 74})
        assert main(["fuzz", "replay", key[:12]]) == 0
        output = capsys.readouterr().out
        assert "flow_conservation" in output
        assert "0 failing oracles" in output

    def test_fuzz_replay_unknown_case(self, fuzz_dir, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "replay", "feedface"])

    def test_fuzz_replay_invalid_source_prints_diagnostic(
        self, fuzz_dir, tmp_path, capsys
    ):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void) {\n    return 0 +;\n}\n")
        assert main(["fuzz", "replay", str(bad)]) == 1
        captured = capsys.readouterr()
        # Satellite: one file:line:col diagnostic line, no traceback.
        assert captured.err.strip() == (
            f"{bad}:2:15: unexpected token ';' in expression"
        )

    def test_fuzz_shrink_passing_case_refuses(self, fuzz_dir, capsys):
        from repro.fuzz import generate_source, save_case

        key = save_case(generate_source(74), {"seed": 74})
        assert main(["fuzz", "shrink", key]) == 2
        assert "nothing to shrink" in capsys.readouterr().err

    def test_fuzz_shrink_reduces_failing_case(
        self, fuzz_dir, monkeypatch, capsys
    ):
        import repro.analysis.session as session_mod
        from repro.fuzz import generate_source, save_case

        real_solve = session_mod.solve_flow_system

        def bad_solve(cfg, transitions, method="auto"):
            flows = real_solve(cfg, transitions, method)
            return {k: v * 1.35 + 2.0 for k, v in flows.items()}

        monkeypatch.setattr(
            session_mod, "solve_flow_system", bad_solve
        )
        key = save_case(generate_source(74), {"seed": 74})
        assert main(
            ["fuzz", "shrink", key, "--max-checks", "600", "--quiet"]
        ) == 0
        output = capsys.readouterr().out
        assert f"shrunk {key[:16]}" in output
        assert (fuzz_dir / f"{key}.min.c").exists()
