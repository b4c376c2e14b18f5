import json
import subprocess
import sys

import pytest

from cbree.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_config, main, parse_kv_file


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# small smoke configuration\n"
        "n_particles = 400\n"
        "delta_target = 1.0\n"
        "eps_target = 1.0\n"
        "n_obs = 2\n"
    )
    return path


class TestConfigParsing:
    def test_parse_kv(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha = 1\n# comment\nbeta = two  # trailing\n")
        assert parse_kv_file(path) == {"alpha": "1", "beta": "two"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("x = 1\nx = 2\n")
        with pytest.raises(Exception, match="duplicate"):
            parse_kv_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("just some words\n")
        with pytest.raises(Exception, match="key = value"):
            parse_kv_file(path)

    def test_build_config_types(self):
        cfg = build_config(
            "cbree",
            {"n_particles": "123", "delta_target": "2.5", "max_iter": "7"},
            seed=9,
        )
        assert cfg.n_particles == 123
        assert cfg.delta_target == 2.5
        assert cfg.max_iter == 7
        assert isinstance(cfg.delta_target, float) and isinstance(cfg.max_iter, int)
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key"):
            build_config("cbree", {"particles": "10"})

    def test_bad_value_rejected(self):
        with pytest.raises(Exception, match="cannot parse"):
            build_config("cbree", {"n_particles": "many"})

    def test_invalid_combination_rejected(self):
        with pytest.raises(Exception, match="n_obs"):
            build_config("cbree", {"n_obs": "1"})


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("linear", "convex", "oscillator", "flowrate", "cbree", "enkf", "mc"):
            assert name in out

    def test_run_writes_json_and_trace(self, tmp_path, run_config):
        out = tmp_path / "result"
        code = main(
            [
                "run",
                "--problem",
                "linear",
                "--method",
                "cbree",
                "--config",
                str(run_config),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(out.with_suffix(".json").read_text())
        assert data["termination"] in ("converged", "diverged", "max_iter")
        trace = out.with_suffix(".trace.csv").read_text().splitlines()
        assert trace[0].startswith("iter,s,beta")
        assert len(trace) == data["iterations"] + 2

    def test_run_stdout_json(self, capsys, run_config):
        code = main(
            ["run", "--problem", "linear", "--method", "cbree", "--config", str(run_config)]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "estimate" in payload

    def test_run_unknown_problem_is_config_error(self, capsys):
        assert main(["run", "--problem", "nope", "--method", "mc"]) == EXIT_CONFIG

    def test_run_unknown_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wrong_key = 3\n")
        code = main(["run", "--problem", "linear", "--method", "cbree", "--config", str(bad)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "stale",
        ["proposal_kind = vmfn", "clamp_steps = false"],
        ids=["proposal_kind", "clamp_steps"],
    )
    def test_run_proposal_kind_key_is_config_error(self, tmp_path, capsys, stale):
        # keys of removed settings (the method name alone picks the proposal;
        # the stepsize clamps are fixed) must fail, not be silently ignored
        cfg = tmp_path / "stale.cfg"
        cfg.write_text(f"n_particles = 300\n{stale}\n")
        code = main(["run", "--problem", "linear-4", "--method", "cbree", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert stale.split()[0] in capsys.readouterr().err

    def test_run_runtime_failure_exit_code(self, capsys):
        # vMFN resampling cannot work in one dimension -> runtime failure
        code = main(["run", "--problem", "linear-1", "--method", "cbree-vmfn"])
        assert code == EXIT_RUNTIME

    def test_bench_outputs_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "method = cbree\nproblem = linear\nreps = 3\nseed = 21\n"
            "n_particles = 400\ndelta_target = 1.0\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_a)]) == EXIT_OK
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_b)]) == EXIT_OK
        for name in ("cbree_linear_runs.csv", "cbree_linear_aggregate.json", "cbree_linear_aggregate.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bench_reps_override_and_jobs(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("method = mc\nproblem = linear\nn_particles = 20000\n")
        out = tmp_path / "out"
        code = main(["bench", "--config", str(cfg), "--reps", "2", "--jobs", "2", "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = (out / "mc_linear_runs.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_bench_requires_method_and_problem(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_particles = 100\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_CONFIG

    def test_export_ensemble(self, tmp_path, capsys):
        out = tmp_path / "final.csv"
        code = main(
            [
                "export-ensemble",
                "--problem",
                "convex",
                "--method",
                "enkf",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,g"
        assert len(lines) == 2001  # default ensemble size + header

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cbree.cli", "list"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK
        assert "oscillator" in proc.stdout
