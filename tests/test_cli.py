"""Tests for the command-line front end: config handling, subcommands,
rendering, and exit codes."""

import json
import os

import numpy as np
import pytest

from fracctrl.analysis import _spec_digest, cache_path, reference_solve
from fracctrl.cli import (
    CSV_COLUMNS,
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    RunConfig,
    build_solver_config,
    build_spec,
    load_config,
    main,
    render_report,
)
from fracctrl.solver import SolverConfig


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACCTRL_CACHE_DIR", str(tmp_path / "cache"))
    yield


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


class TestConfig:
    def test_load_valid(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"alpha": 1.4, "theta": 0.7},
            "solver": {"N": 32, "mode": "direct"},
            "output": {"format": "csv"},
        })
        cfg = load_config(path)
        assert cfg.problem["alpha"] == 1.4
        assert cfg.solver["mode"] == "direct"

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": {"alpha": 1.4,}}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_unknown_key_reports_location(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"alpha": 1.4, "alpha_star": 2}})
        with pytest.raises(ConfigError, match=r"problem\.alpha_star.*line \d+, column \d+"):
            load_config(path)
        path = write_config(tmp_path, {"output": {"format": "csv", "verbosity": 2}})
        with pytest.raises(ConfigError, match=r"output\.verbosity at line 4, column 3"):
            load_config(path)
        for key, value in (("inner_tol", 1e-14), ("bootstrap_N", 8)):
            path = write_config(tmp_path, {"solver": {"N": 32, key: value}})
            with pytest.raises(ConfigError, match=rf"solver\.{key} at line 4, column 3"):
                load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"problems": {}})
        with pytest.raises(ConfigError, match="unknown top-level key"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/cfg.json")

    def test_build_spec_defaults(self):
        spec = build_spec(RunConfig())
        assert spec.alpha == 1.5 and spec.theta == 0.5
        assert spec.f is not None and spec.u_d is not None
        assert spec.data_regularity is None  # analytic data

    def test_build_spec_weighted_data(self):
        cfg = RunConfig(problem={"alpha": 1.8, "theta": 0.5, "beta": -0.4})
        spec = build_spec(cfg)
        assert spec.f.weight_exponents == (-0.4, -0.4)
        pair = spec.exponent_pair()
        expected_r = 2 * (-0.4) + min(pair.sigma, pair.sigma_star) + 1
        assert spec.data_regularity == pytest.approx(expected_r)

    def test_build_spec_bad_theta(self):
        with pytest.raises(ConfigError):
            build_spec(RunConfig(problem={"alpha": 1.5, "theta": 3.0}))

    def test_build_spec_unknown_factor(self):
        with pytest.raises(ConfigError):
            build_spec(RunConfig(problem={"f": "tan"}))

    def test_build_spec_chebyshev_file(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text("[1.0, 0.5, 0.25]")
        cfg = RunConfig(problem={"f": {"chebyshev_file": str(path)}})
        spec = build_spec(cfg)
        assert len(spec.f.coeffs) == 3
        # 1 + 0.5 T_1(2x-1) + 0.25 T_2(2x-1) at x = 0, 0.5, 1
        assert np.allclose(spec.f.values(np.array([0.0, 0.5, 1.0])), [0.75, 0.75, 1.75],
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("text", [
        "3.0", "[[1, 2], [3, 4]]", "[]", "[1, NaN]", '[1, "2"]', "[true]", "[1, 1e400]",
        "[1" + "0" * 400 + "]",
    ], ids=["scalar", "nested", "empty", "nan", "string", "bool", "inf", "huge-int"])
    def test_bad_chebyshev_file_exits_2(self, tmp_path, capsys, text):
        data = tmp_path / "coeffs.json"
        data.write_text(text)
        cfg = write_config(tmp_path, {"problem": {"f": {"chebyshev_file": str(data)}},
                                      "solver": {"N": 8, "mode": "direct"}})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG
        assert "problem.f" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [
        {"gamma": "abc"}, {"gamma": 0}, {"gamma": -1.0}, {"lambda1": "abc"},
        {"lambda2": [1]}, {"data_regularity": "abc"},
    ], ids=["gamma-string", "gamma-zero", "gamma-negative", "lambda1-string",
            "lambda2-list", "regularity-string"])
    def test_bad_problem_value_exits_2(self, tmp_path, capsys, problem):
        cfg = write_config(tmp_path, {"problem": problem,
                                      "solver": {"N": 8, "mode": "direct"}})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG
        assert "problem block" in capsys.readouterr().err

    def test_build_solver_config(self):
        cfg = build_solver_config(RunConfig(solver={"N": 128, "mode": "direct"}))
        assert cfg.N == 128 and cfg.mode == "direct"
        for bad in ({"N": "many"}, {"N": 0}, {"outer_max": 0}, {"N": 8.7}, {"N": True},
                    {"inner_max": 2.9}, {"outer_max": 3.5}, {"inner_max": -1},
                    {"inner_max": 0}):
            with pytest.raises(ConfigError, match="solver block"):
                build_solver_config(RunConfig(solver=bad))

    @pytest.mark.parametrize("solver", [
        {"N": 8.7}, {"N": True}, {"inner_max": 2.9}, {"outer_max": 3.5}, {"inner_max": -1},
    ], ids=["n-float", "n-bool", "inner-max-float", "outer-max-float", "inner-max-negative"])
    def test_bad_solver_value_exits_2(self, tmp_path, capsys, solver):
        # counts are JSON integers: a float or a bool is rejected, not truncated
        cfg = write_config(tmp_path, {"solver": {"N": 8, "mode": "fast", **solver}})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG
        assert "solver block" in capsys.readouterr().err


class TestSigmaTable:
    def test_published_values(self, capsys):
        assert main(["sigma-table"]) == EXIT_OK
        out = capsys.readouterr().out
        # spot-check entries of the published exponent table
        for token in ("(0.6000, 0.6000)", "(0.8829, 0.3171)", "(0.9411, 0.8589)",
                      "(1.0000, 0.2000)", "(1.0000, 0.8000)"):
            assert token in out

    def test_custom_grid_and_outfile(self, tmp_path):
        out = tmp_path / "table.txt"
        assert main(["sigma-table", "--alphas", "1.5", "--thetas", "0.5",
                     "--out", str(out)]) == EXIT_OK
        assert "(0.7500, 0.7500)" in out.read_text()

    @pytest.mark.parametrize("alphas", ["2.5", "abc"])
    def test_bad_alpha_exits_2(self, capsys, alphas):
        # outside (1, 2) or not a number: a configuration error, not a traceback
        assert main(["sigma-table", "--alphas", alphas]) == EXIT_CONFIG
        assert "config error: sigma-table" in capsys.readouterr().err


class TestSolveCommand:
    @pytest.mark.parametrize("flag", [["--no-cache"], ["--format", "md"]])
    def test_study_only_flags_rejected(self, capsys, flag):
        # --no-cache and --format act on a study only; solve does not accept them
        with pytest.raises(SystemExit) as exc:
            main(["solve", *flag])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_writes_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"alpha": 1.8, "theta": 0.7},
            "solver": {"N": 24, "mode": "direct"},
        })
        out = tmp_path / "sol.npz"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = np.load(str(out))
        assert data["U"].shape == (25,)
        assert data["Z"].shape == (25,)
        assert int(data["outer_iterations"]) >= 3
        assert "outer_iterations=" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope}")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_solve_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"alpha": 1.6, "theta": 0.7},
            "solver": {"N": 16, "mode": "direct"},
        })
        outs = []
        for name in ("a.npz", "b.npz"):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
            outs.append(np.load(str(out))["U"])
        assert np.array_equal(outs[0], outs[1])


class TestStudyCommand:
    def test_csv_contract(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"alpha": 1.8, "theta": 0.7},
            "solver": {"Ns": [8, 16], "N_ref": 64, "mode": "direct"},
        })
        out = tmp_path / "study.csv"
        assert main(["study", "--config", cfg, "--out", str(out),
                     "--no-cache"]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 3  # header + one row per N

    def test_requires_ns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"solver": {"N": 16, "mode": "direct"}})
        assert main(["study", "--config", cfg]) == EXIT_CONFIG
        assert "Ns" in capsys.readouterr().err

    @pytest.mark.parametrize("solver,key", [
        ({"Ns": "abc"}, "Ns"), ({"Ns": [0, 0]}, "Ns"), ({"Ns": [8, True]}, "Ns"),
        ({"Ns": [8, 24]}, "Ns"), ({"Ns": [8, 16], "N_ref": 0}, "N_ref"),
        ({"Ns": [8, 16], "N_ref": "x"}, "N_ref"), ({"Ns": [8, 16], "N_ref": 63}, "N_ref"),
    ], ids=["ns-string", "ns-zero", "ns-bool", "ns-not-doubling", "nref-zero",
            "nref-string", "nref-small"])
    def test_bad_study_value_exits_2(self, tmp_path, capsys, solver, key):
        cfg = write_config(tmp_path, {"solver": {"mode": "direct", **solver}})
        assert main(["study", "--config", cfg, "--no-cache"]) == EXIT_CONFIG
        assert f"solver block: {key} " in capsys.readouterr().err

    def test_bad_format_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the output format was checked")

        monkeypatch.setattr("fracctrl.analysis.optimize", no_solve)
        cfg = write_config(tmp_path, {"solver": {"Ns": [8, 16], "N_ref": 64, "mode": "direct"},
                                      "output": {"format": "xlsx"}})
        assert main(["study", "--config", cfg, "--no-cache"]) == EXIT_CONFIG
        assert "output block: unknown format 'xlsx'" in capsys.readouterr().err

    def test_json_and_md_render(self, tmp_path):
        from fracctrl.analysis import convergence_study
        cfg = RunConfig(problem={"alpha": 1.8, "theta": 0.7})
        spec = build_spec(cfg)
        report = convergence_study(spec, [8, 16], 64,
                                   SolverConfig(N=8, mode="direct"), use_cache=False)
        payload = json.loads(render_report(report, "json"))
        assert payload["Ns"] == [8, 16]
        assert "u_weighted" in payload["errors"]
        md = render_report(report, "md")
        assert md.startswith("| " + " | ".join(CSV_COLUMNS))
        with pytest.raises(ConfigError):
            render_report(report, "xml")


class TestCacheCommand:
    def test_list_empty(self, capsys):
        assert main(["cache", "list"]) == EXIT_OK
        assert "0 entries" in capsys.readouterr().out

    def test_clear_requires_force(self, capsys):
        assert main(["cache", "clear"]) == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err

    def test_populate_verify_clear(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"alpha": 1.8, "theta": 0.7},
            "solver": {"Ns": [8], "N_ref": 32, "mode": "direct"},
        })
        assert main(["study", "--config", cfg, "--out",
                     str(tmp_path / "s.csv")]) == EXIT_OK
        capsys.readouterr()
        assert main(["cache", "list"]) == EXIT_OK
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "verify"]) == EXIT_OK
        assert "ok" in capsys.readouterr().out
        assert main(["cache", "clear", "--force"]) == EXIT_OK
        assert "removed 1" in capsys.readouterr().out
        cache_dir = os.environ["FRACCTRL_CACHE_DIR"]
        assert not [f for f in os.listdir(cache_dir) if f.endswith(".npz")]

    def test_verify_reports_corrupt(self, capsys):
        spec = build_spec(RunConfig(problem={"alpha": 1.8, "theta": 0.7}))
        cfg = SolverConfig(N=16, mode="direct")
        path = cache_path(_spec_digest(spec, 16, cfg))
        reference_solve(spec, 16, cfg)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 16)
            fh.write(b"\xde\xad\xbe\xef" * 4)
        assert main(["cache", "verify"]) == EXIT_SOLVER
        assert "CORRUPT" in capsys.readouterr().out

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_verify_sample_below_one_exits_2(self, capsys, sample):
        # with an entry to sample: -1 used to reach random.sample, and 0
        # verified nothing and exited 0
        spec = build_spec(RunConfig(problem={"alpha": 1.8, "theta": 0.7}))
        reference_solve(spec, 16, SolverConfig(N=16, mode="direct"))
        assert main(["cache", "verify", "--sample", sample]) == EXIT_CONFIG
        assert "--sample must be at least 1" in capsys.readouterr().err
