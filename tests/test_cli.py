"""CLI subcommands, config handling, CSV schemas, and output determinism."""

import csv

import pytest

from newton_landweber import cli, experiments
from newton_landweber.checks import ALL_CHECKS
from newton_landweber.experiments import _OVERRIDES, build_spec, read_override
from test_forward import run_fresh

# the CSV headers, written out as the README shows them
ITERATION_HEADER = ["n", "k", "t", "t_tilde", "omega", "alpha", "r_n", "F_residual", "d2", "gamma"]
SUMMARY_HEADER = [
    "preset", "p", "r", "delta", "seed", "n_star", "N_p", "err_L2", "err_Lp", "reason", "wall_ms"
]

SMALL = ["--override", "n=60", "--override", "max_total_inner=150"]
# the preset, then each setting that differs from it
LABEL = "example1_n60_max_total_inner150"


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
    assert (tmp_path / "example1_n60_seed5_max_total_inner150").is_dir()
    # --override outranks both the config and the --seed flag
    assert cli.main(["run", "--config", str(cfg), "--seed", "5",
                     "--override", "seed=7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "example1_n60_seed7_max_total_inner150").is_dir()


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
    # a swept value enters the directory name where it differs from the preset's
    dirs = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
    assert "example1_n60_max_inner40_max_total_inner120" in dirs
    assert "example1_n60_seed3_max_inner50_max_total_inner120" in dirs
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
    assert dirs == [f"example1_n60_tau{tau}_max_total_inner150" for tau in ("1.000001", "1.000002")]


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


@pytest.mark.parametrize(
    "value, named",
    [
        ("0.5", "tau must"),
        ("abc", "override 'tau': "),
        pytest.param(
            "1.020", "combinations tau=1.02 and tau=1.020 both name the directory",
            id="1.020-same-directory",
        ),
    ],
)
def test_sweep_checks_every_combination_before_its_first_run(tmp_path, capsys, value, named):
    # the second value is bad, or spells the first, whose directory it would
    # write over: the sweep exits 2 naming it and runs nothing
    args = ["sweep", "--preset", "example1", "--out", str(tmp_path),
            "--override", "n=60", "--override", "max_total_inner=150",
            "--vary", f"tau=1.02,{value}"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "vary, named",
    [
        # one value in two spellings, on p and on the seed
        (["p=2,2.0", "tau=1.02,1.05"], "p=2, tau=1.02 and p=2.0, tau=1.02 both name"),
        (["seed=2,02"], "seed=2 and seed=02 both name"),
        # the second axis would override the first in every run, under both tags
        (["eta=0.1,0.2", "eta=0.3"], "--vary 'eta' given twice"),
        # one value in two spellings on a solver setting
        (["eta=0.1,0.10"], "eta=0.1 and eta=0.10 both name"),
        (["max_inner=40,040"], "max_inner=40 and max_inner=040 both name"),
        (["max_total_inner=30,030"], "max_total_inner=30 and max_total_inner=030 both name"),
        (
            ["inner_budget=(50+n)^-2,(50.0+n)^-2"],
            "inner_budget=(50+n)^-2 and inner_budget=(50.0+n)^-2 both name",
        ),
    ],
    ids=[
        "p-spellings", "seed-spellings", "eta-twice", "eta-spellings", "max_inner-spellings",
        "max_total_inner-spellings", "inner_budget-spellings",
    ],
)
def test_sweep_gives_each_run_a_directory_of_its_own(tmp_path, capsys, vary, named):
    args = ["sweep", "--preset", "example1", "--out", str(tmp_path),
            "--override", "n=40", "--override", "max_total_inner=30"]
    for axis in vary:
        args += ["--vary", axis]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


# each value, and whether it differs from the preset's
@pytest.mark.parametrize(
    "key, value, tagged",
    [
        pytest.param(key, value, tagged, id=f"{key}-{value}")
        for key, value, tagged in (
            ("eta", "0.10", False),
            ("eta", "0.20", True),
            ("omega_bar", "1e+30", True),
            ("max_inner", "040", True),
            ("seed", "02", False),
            ("seed", "07", True),
            ("rate_mode", "on", True),
            ("max_total_inner", "auto", False),
            ("max_total_inner", "030", True),
            ("noise_norm", "AUTO", False),
            ("noise_norm", "1.5", True),
            ("inner_budget", "(50+n)^(-2)", False),
            ("inner_budget", "(0.00001+n)^-2", True),
            ("inner_budget", "const:40", True),
        )
    ],
)
def test_a_run_is_named_by_texts_that_read_back_as_its_values(key, value, tagged):
    # the text of each value parses back through the key's own parser as the
    # value the run uses, so a directory name has one text for each value;
    # a value that is the preset's own adds nothing to the name
    spec = build_spec("example1", {key: value})
    held = read_override(spec, key)
    text = experiments._setting_text(held)
    assert _OVERRIDES[key][2](text) == held
    # the name carries the text, less the "+" no directory name holds
    tag = f"_{key}{text}".replace("+", "") if tagged else ""
    assert experiments.run_label(spec) == f"example1{tag}"


@pytest.mark.parametrize(
    "first, second",
    [([], ["eta=0.2"]), (["n=61"], ["n=60"])],
    ids=["eta", "n"],
)
def test_runs_that_differ_in_one_setting_write_two_directories(tmp_path, capsys, first, second):
    for extra in (first, second):
        args = ["run", "--preset", "example1", "--out", str(tmp_path)] + SMALL
        for override in extra:
            args += ["--override", override]
        assert cli.main(args) == 0
    capsys.readouterr()
    assert len([d for d in tmp_path.iterdir() if d.is_dir()]) == 2


@pytest.mark.parametrize(
    "overrides, name",
    [
        (["eta=0.1"], LABEL),
        (["eta=0.2", "q=0.5"], "example1_n60_eta0.2_q0.5_max_total_inner150"),
        (["q=0.5", "eta=0.2"], "example1_n60_eta0.2_q0.5_max_total_inner150"),
    ],
    ids=["preset-eta", "eta-then-q", "q-then-eta"],
)
def test_a_run_is_named_by_its_settings_alone(tmp_path, capsys, overrides, name):
    # a setting at the preset's own value, and the order of the overrides,
    # leave the name as it is
    args = ["run", "--preset", "example1", "--out", str(tmp_path)] + SMALL
    for override in overrides:
        args += ["--override", override]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert [d.name for d in tmp_path.iterdir() if d.is_dir()] == [name]


@pytest.mark.parametrize(
    "preset, vary, named",
    [
        ("example1", "n=40,1", "a 1D problem needs at least 3 cells, got 2"),
        ("example3", "outlier_count=5,1000", "count 1000 exceeds node count 41"),
    ],
    ids=["too-few-cells", "too-many-outliers"],
)
def test_sweep_sets_up_every_run_before_its_first(tmp_path, capsys, preset, vary, named):
    # the second run cannot set up its problem or its data: the sweep exits
    # 2 naming why and writes nothing
    args = ["sweep", "--preset", preset, "--out", str(tmp_path),
            "--override", "n=40", "--override", "max_total_inner=20", "--vary", vary]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_run_and_a_sweep_of_one_value_write_the_same_run(tmp_path, capsys):
    assert cli.main(["run", "--preset", "example1", "--out", str(tmp_path / "run")] + SMALL) == 0
    assert cli.main(["sweep", "--preset", "example1", "--out", str(tmp_path / "sweep")]
                    + SMALL + ["--vary", "seed=2"]) == 0
    out = capsys.readouterr().out
    for sub in ("run", "sweep"):
        assert [d.name for d in (tmp_path / sub).iterdir() if d.is_dir()] == [LABEL]
        assert f"wrote {tmp_path / sub / LABEL}\n" in out
    for name in ("iterations.csv", "solution.csv"):
        run_bytes = (tmp_path / "run" / LABEL / name).read_bytes()
        assert run_bytes == (tmp_path / "sweep" / LABEL / name).read_bytes()


def test_a_module_run_prints_each_configuration_warning_once(tmp_path):
    # python -m names the CLI module __main__, but its frames are still the
    # package's, so the check before the run and the run itself warn at one
    # line outside the package, which the default filter prints once
    done = run_fresh(
        "-m", "newton_landweber.cli", "run", "--preset", "example1",
        "--override", "n=40", "--override", "max_total_inner=30",
        "--override", "rate_mode=true", "--out", str(tmp_path),
        PYTHONWARNINGS="default",
    )
    warned = [line for line in done.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 1, done.stderr


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
