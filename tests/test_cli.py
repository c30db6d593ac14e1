"""CLI subcommands, config handling, CSV schemas, and output determinism."""

import csv

import pytest

from newton_landweber import cli
from newton_landweber.checks import ALL_CHECKS

# the CSV headers, written out as the README shows them
ITERATION_HEADER = ["n", "k", "t", "t_tilde", "omega", "alpha", "r_n", "F_residual", "d2", "gamma"]
SUMMARY_HEADER = [
    "preset", "p", "r", "delta", "seed", "n_star", "N_p", "err_L2", "err_Lp", "reason", "wall_ms"
]

SMALL = ["--override", "n=60", "--override", "max_total_inner=150"]
LABEL = "example1_p1.1_r2_delta0.0001_tau1.02_seed2"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_run_writes_csvs(tmp_path, capsys):
    code = cli.main(["run", "--preset", "example1", "--out", str(tmp_path)] + SMALL)
    assert code == 0
    out = capsys.readouterr().out
    assert "example1:" in out and "wrote" in out
    rundir = tmp_path / LABEL
    assert rundir.is_dir()
    assert read_rows(rundir / "iterations.csv")[0] == ITERATION_HEADER
    assert read_rows(rundir / "summary.csv")[0] == SUMMARY_HEADER
    assert read_rows(rundir / "solution.csv")[0] == ["x", "c_true", "c_rec"]
    summary = read_rows(rundir / "summary.csv")
    assert len(summary) == 2
    row = dict(zip(SUMMARY_HEADER, summary[1]))
    assert row["preset"] == "example1"
    assert row["seed"] == "2"
    # one iteration row per recorded inner step
    assert len(read_rows(rundir / "iterations.csv")) == 1 + int(row["N_p"])


def test_run_2d_solution_columns(tmp_path):
    code = cli.main([
        "run", "--preset", "example2d", "--out", str(tmp_path),
        "--override", "n=8", "--override", "m=8",
        "--override", "max_total_inner=40",
    ])
    assert code == 0
    (rundir,) = [d for d in tmp_path.iterdir() if d.is_dir()]
    assert read_rows(rundir / "solution.csv")[0] == ["x", "y", "c_true", "c_rec"]


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "from_env"))
    assert cli.main(["run", "--preset", "example1"] + SMALL) == 0
    assert (tmp_path / "from_env" / LABEL).is_dir()
    # --out wins over the environment
    assert cli.main(["run", "--preset", "example1", "--out",
                     str(tmp_path / "flag")] + SMALL) == 0
    assert (tmp_path / "flag" / LABEL).is_dir()
    capsys.readouterr()


def test_config_file_with_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small smoke configuration\n"
        "preset = example1\n"
        "\n"
        "n = 60        # coarse grid\n"
        "max_total_inner = 150\n"
    )
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / LABEL).is_dir()


def test_cli_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = example1\nseed = 3\nn = 60\nmax_total_inner = 150\n")
    assert cli.main(["run", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / LABEL.replace("seed2", "seed5")).is_dir()
    # --override outranks both the config and the --seed flag
    assert cli.main(["run", "--config", str(cfg), "--seed", "5",
                     "--override", "seed=7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / LABEL.replace("seed2", "seed7")).is_dir()


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = example1\nthis line has no equals\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err


def test_unknown_override_key(tmp_path, capsys):
    code = cli.main(["run", "--preset", "example1", "--out", str(tmp_path),
                     "--override", "bogus=1"])
    assert code == 2
    assert "unknown override" in capsys.readouterr().err


# rate mode at p = r = 2 and delta = 1e-2 with a short inner cap: at
# c_alpha = 0.012 refinement cannot reach the alpha bound inside the cap
RATE_OVERRIDES = [
    "n=60", "p=2", "delta=1e-2", "rate_mode=true", "nu=0.5", "tau=1.1",
    "tau_tilde=0.01", "alpha00=0.1", "q=0.5", "max_inner=60",
]


@pytest.mark.parametrize(
    "overrides, named",
    [
        pytest.param(["tau=nan"], "tau must", id="tau=nan"),
        pytest.param(["tau=inf"], "tau must", id="tau=inf"),
        pytest.param(RATE_OVERRIDES + ["c_alpha=inf"], "c_alpha must", id="c_alpha=inf"),
        pytest.param(["tau_tilde=inf"], "tau_tilde must", id="tau_tilde=inf"),
        pytest.param(["m=10"], "override 'm'", id="m=10"),
        pytest.param(["noise_norm=nan"], "norm exponent must", id="noise_norm=nan"),
        pytest.param(["tau=abc"], "override 'tau': ", id="tau=abc"),
        pytest.param(["outlier_count=1.5"], "override 'outlier_count': ", id="outlier_count=1.5"),
        *(
            pytest.param(
                ["outlier_count=3", f"outlier_magnitude={value}"],
                "outlier_magnitude must",
                id=f"outlier_magnitude={value}",
            )
            for value in ("nan", "inf")
        ),
    ],
)
def test_invalid_override_value_exit_code(tmp_path, capsys, overrides, named):
    # a value that does not parse, a NaN or infinite setting and a 1D preset
    # given m are configuration errors, not failed runs (a NaN noise norm
    # would redraw the noise forever, tau = inf would pass every check and
    # c_alpha = inf would skip the refinement tail and tau_tilde = inf pin
    # alpha at 1), and the message names the setting
    args = ["run", "--preset", "example1", "--out", str(tmp_path)]
    for override in overrides:
        args += ["--override", override]
    assert cli.main(args) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [[], ["--override", "delta=0"]], ids=["noisy", "noiseless"])
def test_negative_seed_exit_code(tmp_path, capsys, overrides):
    args = ["run", "--preset", "example1", "--seed", "-1", "--out", str(tmp_path), *overrides]
    assert cli.main(args) == 2
    assert "seed must be a non-negative int" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_missing_preset(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path)]) == 2
    assert "no preset" in capsys.readouterr().err


def test_unknown_preset_in_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = example9\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "example1, example2, example2d, example3" in capsys.readouterr().err


def test_failed_run_exit_code(tmp_path, capsys):
    # refinement cannot reach the alpha bound inside the inner cap
    args = ["run", "--preset", "example1", "--out", str(tmp_path)]
    for override in RATE_OVERRIDES + ["c_alpha=0.012"]:
        args += ["--override", override]
    assert cli.main(args) == 1
    assert "run failed" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    for sub in ("a", "b"):
        assert cli.main(["run", "--preset", "example1",
                         "--out", str(tmp_path / sub)] + SMALL) == 0
    dir_a = tmp_path / "a" / LABEL
    dir_b = tmp_path / "b" / LABEL
    for name in ("iterations.csv", "solution.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # the summary differs only in wall-clock time
    rows_a = read_rows(dir_a / "summary.csv")
    rows_b = read_rows(dir_b / "summary.csv")
    wall = SUMMARY_HEADER.index("wall_ms")
    for ra, rb in zip(rows_a, rows_b):
        masked_a = ra[:wall] + ra[wall + 1:]
        masked_b = rb[:wall] + rb[wall + 1:]
        assert masked_a == masked_b


def test_sweep_merges_summaries(tmp_path, capsys):
    code = cli.main([
        "sweep", "--preset", "example1", "--out", str(tmp_path),
        "--override", "n=60", "--override", "max_total_inner=120",
        "--vary", "seed=2,3", "--vary", "max_inner=40,50",
    ])
    assert code == 0
    merged = read_rows(tmp_path / "sweep_summary.csv")
    assert merged[0] == SUMMARY_HEADER
    assert len(merged) == 5  # header + 2x2 combinations
    # unlabeled swept keys are tagged onto the directory name
    dirs = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
    assert f"{LABEL}_max_inner40" in dirs
    assert LABEL.replace("seed2", "seed3") + "_max_inner50" in dirs
    assert capsys.readouterr().out.count("example1:") == 4


def test_sweep_labels_keep_every_digit(tmp_path):
    # settings that differ past the 6th significant digit get two directories
    code = cli.main([
        "sweep", "--preset", "example1", "--out", str(tmp_path),
        "--override", "n=60", "--override", "max_total_inner=150",
        "--vary", "tau=1.000001,1.000002",
    ])
    assert code == 0
    dirs = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
    assert dirs == [LABEL.replace("tau1.02", f"tau{tau}") for tau in ("1.000001", "1.000002")]


def test_sweep_counts_its_failed_runs(tmp_path, capsys):
    # one run fails and one passes: the sweep writes both rows and exits 1
    args = ["sweep", "--preset", "example1", "--out", str(tmp_path)]
    for override in RATE_OVERRIDES:
        args += ["--override", override]
    assert cli.main(args + ["--vary", "c_alpha=0.012,1"]) == 1
    assert "1 of 2 runs failed" in capsys.readouterr().err
    merged = read_rows(tmp_path / "sweep_summary.csv")
    assert merged[0] == SUMMARY_HEADER
    assert len(merged) == 3


@pytest.mark.parametrize("value, named", [("0.5", "tau must"), ("abc", "override 'tau': ")])
def test_sweep_checks_every_combination_before_its_first_run(tmp_path, capsys, value, named):
    # the second value is bad: the sweep exits 2 naming it and runs nothing
    args = ["sweep", "--preset", "example1", "--out", str(tmp_path),
            "--override", "n=60", "--override", "max_total_inner=150",
            "--vary", f"tau=1.02,{value}"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_sweep_rejects_empty_axis(tmp_path, capsys):
    code = cli.main(["sweep", "--preset", "example1", "--out", str(tmp_path),
                     "--vary", "seed="])
    assert code == 2
    assert "no values" in capsys.readouterr().err


def test_verify_prints_one_line_per_check(capsys):
    assert cli.main(["verify"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith("PASS") for line in lines)


def test_default_outdir_is_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    assert cli.main(["run", "--preset", "example1"] + SMALL) == 0
    assert (tmp_path / "runs" / LABEL).is_dir()
