import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from cbree.bench import METHODS, audited_run, run_benchmark
from cbree.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_config, main, parse_kv_file
from cbree.driver import CbreeConfig, run_cbree
from cbree.problems import get_problem


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
        assert trace[0] == "iter,s,beta,beta_capped,h,err,cv,pf_estimate,ess,cost_cum"
        assert len(trace) == data["iterations"] + 2

    def test_run_dotted_base_name_keeps_its_suffix(self, tmp_path, capsys):
        # the outputs append to the base name: seed.1 and seed.2 must not
        # both collapse to seed.json
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_particles = 300\nmax_iter = 2\n")
        for seed in (1, 2):
            out = tmp_path / "runs" / f"seed.{seed}"
            argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg)]
            assert main(argv + ["--seed", str(seed), "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert names == ["seed.1.json", "seed.1.trace.csv", "seed.2.json", "seed.2.trace.csv"]
        assert json.loads((tmp_path / "runs" / "seed.2.json").read_text())["seed"] == 2

    def test_run_stdout_json(self, capsys, run_config):
        code = main(
            ["run", "--problem", "linear", "--method", "cbree", "--config", str(run_config)]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "estimate" in payload

    def test_run_unknown_problem_is_config_error(self, capsys):
        assert main(["run", "--problem", "nope", "--method", "mc"]) == EXIT_CONFIG

    def test_run_zero_dimensional_linear_is_config_error(self, capsys):
        assert main(["run", "--problem", "linear-0", "--method", "mc"]) == EXIT_CONFIG
        assert "unknown problem" in capsys.readouterr().err

    def test_run_two_particle_cbree_is_config_error(self, tmp_path, capsys):
        # the ESS target J/2 = 1 is unreachable, so J = 2 is a config error
        cfg = tmp_path / "two.cfg"
        cfg.write_text("n_particles = 2\n")
        code = main(["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "n_particles" in capsys.readouterr().err

    def test_run_unknown_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wrong_key = 3\n")
        code = main(["run", "--problem", "linear", "--method", "cbree", "--config", str(bad)])
        assert code == EXIT_CONFIG

    def test_run_config_with_utf8_byte_order_mark(self, tmp_path, capsys):
        # editors that save UTF-8 with a BOM must not turn the first key
        # into '\ufeffn_particles'
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn_particles = 300\nmax_iter = 2\n")
        argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg)]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["cost"] <= 300 * 3

    def test_run_non_utf8_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n_particles = 300\xff\n")
        code = main(["run", "--problem", "linear", "--method", "cbree", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert f"cannot read config file {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, stale",
        [
            ("cbree", "proposal_kind = vmfn"),
            ("cbree", "clamp_steps = false"),
            ("cbree", "beta_cap = 1e6"),
            ("cbree", "lip_s = 0.9"),
            ("enkf", "proposal_kind = vmfn"),
        ],
        ids=["proposal_kind", "clamp_steps", "beta_cap", "lip_s", "enkf-proposal_kind"],
    )
    def test_run_proposal_kind_key_is_config_error(self, tmp_path, capsys, method, stale):
        # keys of removed settings (the method name alone picks the proposal;
        # the stepsize clamps, the beta cap and the smoothing slope are
        # fixed) must fail, not be silently ignored
        cfg = tmp_path / "stale.cfg"
        cfg.write_text(f"n_particles = 300\n{stale}\n")
        code = main(["run", "--problem", "linear-4", "--method", method, "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert stale.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, key",
        [("cbree", "delta_target"), ("cbree", "eps_target"), ("enkf", "delta_target"), ("enkf", "h")],
    )
    def test_nan_tolerance_is_config_error(self, tmp_path, capsys, method, key):
        # NaN compares false with everything, so it must not pass as
        # positive; an infinite delta_target (1e400 parses to inf) would end
        # a run as converged at iteration 0 with estimate 0, and an infinite
        # eps_target would let h only grow
        for value in ("nan", "inf", "1e400"):
            with pytest.raises(ValueError, match=f"{key}.* must be positive and finite"):
                METHODS[method][0](**{key: float(value)})
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"n_particles = 200\nmax_iter = 5\n{key} = {value}\n")
            code = main(["run", "--problem", "linear", "--method", method, "--config", str(cfg)])
            assert code == EXIT_CONFIG, value
            assert key in capsys.readouterr().err

    def test_run_uses_the_config_file_seed(self, tmp_path, capsys):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("n_particles = 300\nmax_iter = 2\nseed = 5\n")
        argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg)]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 5
        direct = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, max_iter=2, seed=5))
        assert payload == json.loads(json.dumps(direct.to_json_dict()))

    def test_run_seed_flag_overrides_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("n_particles = 300\nmax_iter = 2\nseed = 5\n")
        argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg), "--seed", "7"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_run_negative_seed_is_config_error(self, capsys):
        assert main(["run", "--problem", "linear", "--method", "mc", "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_run_runtime_failure_exit_code(self, capsys):
        # vMFN resampling cannot work in one dimension -> runtime failure
        code = main(["run", "--problem", "linear-1", "--method", "cbree-vmfn"])
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("command", ["run", "export-ensemble", "bench"])
    def test_failed_cost_audit_is_runtime_failure(self, tmp_path, capsys, monkeypatch, command):
        def under_reporting(problem, config):
            record = run_cbree(problem, config)
            record.cost -= 1
            return record

        monkeypatch.setitem(METHODS, "cbree", (CbreeConfig, under_reporting))
        cfg = tmp_path / "small.cfg"
        settings = "n_particles = 300\nmax_iter = 2\n"
        if command == "bench":
            cfg.write_text("method = cbree\nproblem = linear-4\nreps = 1\n" + settings)
            argv = ["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        else:
            cfg.write_text(settings)
            argv = [command, "--problem", "linear-4", "--method", "cbree", "--config", str(cfg),
                    "--out", str(tmp_path / "result")]
        assert main(argv) == EXIT_RUNTIME
        found = re.search(r"cost audit failed: recorded (\d+), counted (\d+)", capsys.readouterr().err)
        assert found is not None
        assert int(found[1]) + 1 == int(found[2])

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

    @pytest.mark.parametrize(
        "lines, argv",
        [
            ("reps = two\n", []),
            ("seed = x\n", []),
            ("seed = -1\n", []),
            ("reps = 0\n", []),
            ("reps = -3\n", []),
            ("", ["--reps", "0"]),
            ("", ["--jobs", "0"]),
            ("", ["--jobs", "-5"]),
        ],
        ids=["reps-not-int", "seed-not-int", "seed-negative", "reps-zero", "reps-negative",
             "cli-reps-zero", "jobs-zero", "jobs-negative"],
    )
    def test_bench_bad_reps_or_seed_is_config_error(self, tmp_path, capsys, lines, argv):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("method = mc\nproblem = linear\nn_particles = 1000\n" + lines)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out), *argv]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

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

    def test_enkf_vmfn_run_and_export(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_particles = 300\nmax_iter = 3\n")
        common = ["--problem", "linear-4", "--method", "enkf-vmfn", "--config", str(cfg)]
        out = tmp_path / "result"
        assert main(["run", *common, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.with_suffix(".json").read_text())["proposal"]["type"] == "vmfn"
        csv_path = tmp_path / "final.csv"
        assert main(["export-ensemble", *common, "--out", str(csv_path)]) == EXIT_OK
        assert len(csv_path.read_text().strip().splitlines()) == 301

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cbree.cli", "list"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK
        assert "oscillator" in proc.stdout


class TestOutputs:
    """The files each command writes, checked against the library's own
    results for the same seeds."""

    def test_run_json_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_particles = 300\n")
        out = tmp_path / "record"
        argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg), "--seed", "12"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=12))
        data = json.loads((tmp_path / "record.json").read_text())
        assert data["termination"] == record.termination
        assert data["estimate"] == record.estimate
        assert len(data["trace"]) == len(record.trace)
        assert data["proposal"]["type"] == "gaussian"
        assert data == json.loads(json.dumps(record.to_json_dict()))

    def test_run_trace_csv(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_particles = 300\n")
        out = tmp_path / "record"
        argv = ["run", "--problem", "linear", "--method", "cbree", "--config", str(cfg), "--seed", "13"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=13))
        lines = (tmp_path / "record.trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,s,beta,beta_capped,h,err,cv,pf_estimate,ess,cost_cum"
        assert len(lines) == len(record.trace) + 1
        for line, row in zip(lines[1:], record.trace):
            assert float(line.split(",")[7]) == row.pf_estimate

    def test_bench_runs_csv(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("method = cbree\nproblem = linear\nreps = 3\nseed = 13\nn_particles = 300\n")
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        result = run_benchmark("cbree", "linear", CbreeConfig(n_particles=300), reps=3, master_seed=13)
        lines = (tmp_path / "cbree_linear_runs.csv").read_text().strip().splitlines()
        assert lines[0] == "rep,seed,estimate,cost,iterations,termination"
        assert len(lines) == 4
        # estimates round-trip exactly through the float's repr
        for rep, (line, record) in enumerate(zip(lines[1:], result.records)):
            fields = line.split(",")
            assert fields[:2] == [str(rep), str(record.seed)]
            assert float(fields[2]) == record.estimate
            assert fields[3:] == [str(record.cost), str(record.iterations), record.termination]

    def test_bench_aggregate_json_and_csv(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("method = cbree\nproblem = linear\nreps = 3\nseed = 14\nn_particles = 300\n")
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        data = json.loads((tmp_path / "cbree_linear_aggregate.json").read_text())
        assert data["method"] == "cbree"
        assert data["problem"] == "linear"
        assert data["reps"] == 3
        with open(tmp_path / "cbree_linear_aggregate.csv", newline="") as fh:
            header, row, *rest = csv.reader(fh)
        assert rest == []
        assert ",".join(header).startswith("method,problem,n_particles,delta_target")
        # the CSV is the JSON's first twelve fields; csv writes None as ""
        assert header == list(data)[:12]
        assert row == ["" if v is None else str(v) for v in list(data.values())[:12]]
        assert list(data)[12:] == ["pf_ref", "estimates", "config"]

    def test_export_ensemble_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_particles = 200\nmax_iter = 3\nseed = 11\n")
        for method in ("cbree", "cbree-vmfn", "enkf", "enkf-vmfn"):
            out = tmp_path / f"{method}.csv"
            argv = ["export-ensemble", "--problem", "linear-3", "--method", method]
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
            rows = out.read_text().strip().splitlines()
            assert rows[0] == "x1,x2,x3,g"
            assert len(rows) == 201
            data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
            config = build_config(method, parse_kv_file(cfg))
            final = audited_run(method, "linear-3", config).final_ensemble
            assert np.array_equal(data[:, :3], final.points), method
            assert np.array_equal(data[:, 3], final.g_values), method


# run in a fresh interpreter, so that no other test has imported scipy yet
NUMPY_ONLY_SCRIPT = """
import json, sys
import cbree
from cbree import CbreeConfig, EnkfConfig, McConfig, get_problem
from cbree.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

linear = get_problem("linear")
cbree.run_cbree(linear, CbreeConfig(n_particles=200, max_iter=3, seed=1))
cbree.run_enkf(linear, EnkfConfig(n_particles=200, max_iter=3, seed=1))
cbree.run_mc(linear, McConfig(n_particles=1000, seed=1))
assert main(["list"]) == 0
gaussian = scipy_modules()
cbree.run_cbree_vmfn(get_problem("linear-4"), CbreeConfig(n_particles=200, max_iter=3, seed=1))
print(json.dumps([gaussian, scipy_modules()]))
"""


def test_gaussian_path_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT], capture_output=True, text=True, check=True
    )
    gaussian, after_vmfn = json.loads(proc.stdout.strip().splitlines()[-1])
    assert gaussian == []
    # the vMFN sampler imports scipy's BLAS on first use
    assert "scipy.linalg" in after_vmfn
