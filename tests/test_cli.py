import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from kfplab import analysis, cli, solvers
from kfplab.cli import main, parse_config, read_config_file
from kfplab.mesh import RectDomain, build_structured_mesh
from kfplab.solvers import RunConfig, run


class Args:
    """Bare attribute bag standing in for parsed argparse output."""

    def __init__(self, **kw):
        defaults = dict(form=None, n=None, dt=None, t_end=None, domain=None,
                        theta=None, sigma1=None, tol=None, snapshot_stride=None,
                        out=None, config=None, seed=None)
        defaults.update(kw)
        self.__dict__.update(defaults)


def test_every_run_config_field_has_a_key():
    # a field no key sets is a setting only the Python API can reach
    set_by_keys = {field for _, field, _, _ in cli.KEYS.values() if field}
    assert set_by_keys == {f.name for f in dataclasses.fields(RunConfig)}


def test_defaults_are_reference_settings():
    config, seed = parse_config(Args(form="selfsimilar"))
    assert config.form == "selfsimilar"
    assert config.n == 128
    assert config.dt == 0.01
    assert config.horizon == 10.0
    assert config.theta == 0.5
    assert config.sigma1 == 1.0
    assert config.domain == RectDomain.square(10.0)
    assert seed == 0


def test_sigma1_above_one_is_config_error():
    rc = main(["run", "--form", "selfsimilar", "--sigma1", "1.5"])
    assert rc == 2


def test_theta_out_of_range_is_config_error():
    rc = main(["run", "--theta", "1.2"])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--dt", "nan"), ("--t-end", "inf"), ("--sigma1", "nan"), ("--tol", "nan"),
    ("--domain", "-10,inf,-10,10")])
def test_nonfinite_input_is_config_error(tmp_path, capsys, flag, value):
    # flag=value, because a value may start with "-"
    rc = main(["run", "--form", "lagrangian", "--n", "4", "--out", str(tmp_path), f"{flag}={value}"])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "convergence --levels 4,2,1 --s-end nan",
    "convergence --levels 4,2,1 --s-end -1",
    "convergence --levels 4,2,1 --s-end 1000",
    "convergence --levels 4,2,abc --s-end 0.2",
    "convergence --levels 4,2 --s-end 0.2",
    "convergence --levels 4,2,0 --s-end 0.2",
    "convergence --levels 100,50,25 --s-end 0.2",  # every level rounds to n = 1
    "convergence --levels 1,1,1 --s-end 0.2",
    "poincare-check --n 4 --trials 0",
    "poincare-check --n 4 --trials x",
    "poincare-check --n 4 --trials 5 --t-grid 0,-1",
    "poincare-check --n 1 --trials 5",  # no interior node: every trial is the zero field
    "nested-domains --n 8 --scales 4,x",
    "nested-domains --n 8 --scales 4,nan",
    "nested-domains --n 8 --scales 0,4",
    "nested-domains --n 8 --scales 4",  # one scale gives no pair to compare
    "nested-domains --n 16 --scales 4,4 --dt 0.1 --t-end 1",  # a scale compared with itself
    "run --n 4 --config {tmp}/missing.cfg",
    "run --n 4 --config {tmp}/no_equals.cfg",  # a line without =
    "run --n 4 --domain 0,1,0",  # three numbers for four
    "run --n 4 --t-end 0",
    "run --n 4 --t-end=-1",
    "run --form lagrangian --n 4 --dt 1e-320 --t-end 10",
    "run --form selfsimilar --n 4 --sigma1=-1e6",
    "run --form selfsimilar --n 4 --dt 1e300 --t-end 1",
    "run --form original --n 4 --dt 1e-300 --t-end 10",
    "run --domain=-1e308,1e308,-1,1 --n 4 --t-end 0.1",
    "poincare-check --n 4 --trials 3 --seed -1",
    "compare --n 4 --seed -5",
    "run --n 100000000000000000000",  # the mesh's arrays exceed numpy's size limit
    "convergence --levels 1e-300,1,2",  # the finest level's mesh does too
    "convergence --levels 5e-324,1,2",  # its n overflows
    "nested-domains --scales 1e308 --n 4",  # the scale's domain has infinite sides
    # flags the command does not read: the ladder sets n and the form and
    # writes no snapshots, kernel-check reads no run setting, and compare
    # runs every form
    "convergence --levels 4,2,1 --s-end 0.2 --n 64 --form lagrangian --snapshot-stride 1",
    "kernel-check --theta 0.2 --n 7",
    "compare --form lagrangian",
    "norms --form original --n 4 --snapshot-stride 2",
    "run --n 4 --seed 3",
])
def test_invalid_command_flag_exits_2_before_running(tmp_path, capsys, argv):
    (tmp_path / "no_equals.cfg").write_text("n 4\n")
    rc = main(argv.format(tmp=tmp_path).split() + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    "run --n 4 --domain 0,1e-300,0,1e-300",  # the cell area underflows
    "run --form original --n 4 --domain 0,1e200,0,1e200",  # the cell area overflows
])
def test_a_mesh_the_stencils_cannot_represent_exits_2(tmp_path, capsys, argv):
    # rejected up front, not after 1000 iterations on NaN and warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv.split() + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: the mesh's h_v h_z / 2 = ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    ("convergence --levels 4,2,1 --n=64 --form lagrangian", "--n=64 --form lagrangian"),
    ("kernel-check --theta 0.2 --n 7", "--theta 0.2 --n 7"),
    ("compare --form lagrangian --n 4", "--form lagrangian"),
])
def test_a_flag_the_command_does_not_read_is_named(tmp_path, capsys, argv, named):
    rc = main(argv.split() + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {argv.split()[0]} does not read {named}\n"


def test_a_config_key_the_command_does_not_read_is_named(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("dt = 0.02\nn = 16\n")
    assert main(["kernel-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: kernel-check does not read the config keys dt, n\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_unusable_out_exits_2_before_running(tmp_path, capsys, monkeypatch, out):
    # an existing file, and a path under one, cannot be the output directory
    (tmp_path / "file").write_text("")

    def no_solve(config, f0=None):
        raise AssertionError("the solve ran")
    monkeypatch.setattr(solvers, "run", no_solve)
    rc = main(["run", "--n", "8", "--t-end", "0.1", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


def test_every_key_names_commands_that_exist():
    for key, (_, _, commands, _) in cli.KEYS.items():
        assert commands and set(commands) <= set(cli.COMMANDS), key
    assert set(cli.KEYS["out"][2]) == set(cli.COMMANDS)


@pytest.mark.parametrize("levels, level", [("5e-324,1,2", "5e-324"), ("1e-300,1,2", "1e-300")])
def test_ladder_level_error_names_the_flag_and_the_level(tmp_path, capsys, levels, level):
    # 20 / 5e-324 overflows to inf, and 20 / 1e-300 passes the largest n
    rc = main(["convergence", "--levels", levels, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: --levels: level {level}: ")
    assert "cannot convert" not in err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # the allocation itself is never made: the mesh builder raises in its place
    def no_memory(domain, n):
        raise MemoryError
    monkeypatch.setattr(solvers, "build_structured_mesh", no_memory)
    rc = main(["run", "--n", str(10 ** 8), "--t-end", "0.1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: MemoryError"]


def test_malformed_number_is_config_error(capsys):
    rc = main(["run", "--dt", "abc"])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_invalid_s_end_names_the_flag(value, capsys):
    rc = main(["convergence", "--levels", "4,2,1", f"--s-end={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "s-end" in err and "horizon" not in err


def test_unknown_config_key_named(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 3\n")
    rc = main(["run", "--config", str(path)])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_s_end_overrides_t_end():
    config, _ = parse_config(Args(t_end="3", s_end="1.5"))
    assert config.horizon == math.expm1(1.5)


@pytest.mark.parametrize("lines, flags", [
    ("s-end = 0.2\nt-end = 5\n", {}),
    ("t-end = 5\ns-end = 0.2\n", {}),
    ("s-end = 0.2\n", {"t_end": "5"}),
    ("t-end = 5\n", {"s_end": "0.2"}),
])
def test_s_end_wins_whatever_the_file_order_or_source(tmp_path, lines, flags):
    path = tmp_path / "horizon.cfg"
    path.write_text(lines)
    config, _ = parse_config(Args(command="convergence", config=str(path), **flags))
    assert config.horizon == math.expm1(0.2)


def test_a_convergence_run_ends_at_the_file_s_end(tmp_path):
    # s-end before t-end in the file once let t-end win: the run ended at 1.8
    path = tmp_path / "horizon.cfg"
    path.write_text("s-end = 0.2\nt-end = 5\n")
    out = tmp_path / "conv"
    rc = main(["convergence", "--levels", "4,2,1", "--dt", "0.05", "--config", str(path),
               "--out", str(out)])
    assert rc == 0
    times = [float(line.split(",")[2]) for line in (out / "errors.csv").read_text().splitlines()[1:]]
    assert times == pytest.approx([0.2] * 3)


def test_flag_overrides_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dt = 0.02\nn = 16\n")
    config, _ = parse_config(Args(config=str(path), dt="0.005"))
    assert config.dt == 0.005
    assert config.n == 16


def test_config_file_comments_and_layout(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nform = lagrangian  # trailing\n\ntheta = 1\n")
    vals = read_config_file(str(path))
    assert vals == {"form": "lagrangian", "theta": "1"}


def test_config_round_trip(tmp_path):
    config = RunConfig(form="original", domain=RectDomain(-3.0, 4.0, -1.0, 2.0),
                       n=24, dt=0.004, horizon=2.5, theta=0.75, sigma1=0.5,
                       tol=1e-9, snapshot_stride=7, out_dir="some/dir")
    path = tmp_path / "round.cfg"
    path.write_text("form = original\ndomain = -3,4,-1,2\nn = 24\ndt = 0.004\nt-end = 2.5\n"
                    "theta = 0.75\nsigma1 = 0.5\ntol = 1e-9\nsnapshot-stride = 7\n"
                    "out = some/dir\nseed = 42\n")
    parsed, seed = parse_config(Args(config=str(path)))
    assert parsed == config
    assert seed == 42


def test_run_command_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--form", "selfsimilar", "--n", "12", "--dt", "0.05",
               "--t-end", "0.5", "--out", str(out), "--snapshot-stride", "4"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "norms.csv" in names and "errors.csv" in names
    assert any(n.startswith("field_") and n.endswith(".grid") for n in names)
    header = (out / "norms.csv").read_text().splitlines()[0]
    assert header == "time,l2,linf"
    header = (out / "errors.csv").read_text().splitlines()[0]
    assert header == "h,dt,time,l2_error,linf_error,order"


def test_run_outputs_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--form", "lagrangian", "--n", "10", "--dt", "0.05",
                   "--t-end", "0.3", "--out", str(out)])
        assert rc == 0
        outs.append((out / "norms.csv").read_bytes())
    assert outs[0] == outs[1]


def test_snapshot_stride_zero_suppresses_grids(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--form", "original", "--n", "8", "--dt", "0.1",
               "--t-end", "0.3", "--out", str(out)])
    assert rc == 0
    assert not any(n.endswith(".grid") for n in os.listdir(out))


def test_grid_snapshot_format(tmp_path):
    out = tmp_path / "out"
    main(["run", "--form", "selfsimilar", "--n", "4", "--dt", "0.1",
          "--t-end", "0.2", "--out", str(out), "--snapshot-stride", "1"])
    lines = (out / "field_000000.grid").read_text().splitlines()
    head = lines[0].split()
    assert head[0] == "#" and head[1] == "5" and head[2] == "5"
    assert len(lines) == 1 + 5
    assert all(len(row.split()) == 5 for row in lines[1:])


def test_zero_trajectory_norms_all_zero(tmp_path):
    cfg = RunConfig(form="original", n=6, dt=0.1, horizon=0.2)
    traj = run(cfg, lambda v, x: np.zeros(np.broadcast(np.asarray(v), np.asarray(x)).shape))
    path = tmp_path / "norms.csv"
    cli.write_norms_csv(traj, str(path))
    rows = path.read_text().splitlines()[1:]
    for row in rows:
        _, l2, linf = row.split(",")
        assert float(l2) == 0.0 and float(linf) == 0.0


def test_compare_command(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--n", "8", "--dt", "0.1", "--t-end", "0.3", "--out", str(out)])
    assert rc == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "form,h,dt,time,l2_error,linf_error"
    assert [l.split(",")[0] for l in lines[1:]] == ["original", "lagrangian", "selfsimilar"]


def test_norms_command(tmp_path):
    out = tmp_path / "norms"
    rc = main(["norms", "--form", "selfsimilar", "--n", "8", "--dt", "0.1",
               "--t-end", "0.3", "--out", str(out)])
    assert rc == 0
    assert os.listdir(out) == ["norms.csv"]


def test_kernel_check_command(tmp_path):
    out = tmp_path / "kc"
    rc = main(["kernel-check", "--out", str(out)])
    assert rc == 0
    text = (out / "report.txt").read_text()
    assert "PASS" in text and "FAIL" not in text


def test_poincare_check_command(tmp_path):
    out = tmp_path / "pc"
    rc = main(["poincare-check", "--n", "8", "--trials", "20",
               "--t-grid", "0,1", "--out", str(out), "--seed", "7"])
    assert rc == 0
    assert "PASS" in (out / "report.txt").read_text()


def test_poincare_check_mesh_is_checked_up_front_by_the_rule_of_the_check(tmp_path, capsys):
    # one home for n >= 2: the command's up-front check prints the error
    # that analysis.poincare_check itself raises, named by its flag
    with pytest.raises(ValueError) as raised:
        analysis.poincare_check(build_structured_mesh(RectDomain.square(1.0), 1), 0.0, 5)
    rc = main(["poincare-check", "--n", "1", "--trials", "5", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --n: {raised.value}\n"
    assert not (tmp_path / "out").exists()


def test_poincare_check_fails_when_the_form_overflows(tmp_path, capsys):
    # t^2 overflows at t = 1e308: a ratio of nothing must not pass, and the
    # expected overflow raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["poincare-check", "--n", "4", "--trials", "2", "--t-grid", "0,1e308",
                   "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().out.splitlines()[-1] == "t=1e+308: worst ratio nan FAIL"


def test_nested_domains_command(tmp_path):
    out = tmp_path / "nd"
    rc = main(["nested-domains", "--scales", "4,6", "--n", "24", "--dt", "0.05",
               "--t-end", "1.0", "--out", str(out)])
    assert rc == 0
    assert "discrepancy" in (out / "report.txt").read_text()


def test_nested_domains_fails_when_every_scale_violates(tmp_path, capsys):
    # every pair is excluded, so nothing was compared: that is no PASS
    rc = main(["nested-domains", "--scales", "0.5,0.6,0.7", "--n", "8", "--dt", "0.1",
               "--t-end", "1", "--out", str(tmp_path / "nd")])
    assert rc == 3
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "no pair of admissible scales was compared", "discrepancies decreasing: FAIL"]


def test_nested_domains_reports_each_violating_scale(tmp_path, capsys):
    # the study's flags name each scale excluded from the contract
    rc = main(["nested-domains", "--scales", "0.5,4,6", "--n", "16", "--dt", "0.05",
               "--t-end", "1", "--out", str(tmp_path / "nd")])
    assert rc == 0
    lines = (tmp_path / "nd" / "report.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("warning:")] == [
        "warning: scale 0.5 violates the domain size condition; excluded from the monotonicity contract"]
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("argv", [
    "run --form lagrangian --n 4 --domain=0,1.6e308,0,8 --t-end 10",
    "compare --n 4 --domain=0,1.6e308,0,8 --t-end 10",
    "convergence --levels 4e307,2e307,1e307 --domain=0,1.6e308,0,8 --s-end 0.5 --dt 0.1",
])
def test_a_non_finite_error_against_the_closed_form_exits_3(tmp_path, capsys, argv):
    # the closed form overflows on this domain, so its errors would read nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main([*argv.split(), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "RectDomain(v_min=0.0, v_max=1.6e+308" in err
    assert not (tmp_path / "errors.csv").exists()


def test_a_run_whose_solve_stalls_near_rounding_exits_3_before_max_iter(tmp_path, capsys):
    # at tol 3e-15 the first step's true residual stops falling above its
    # target: that solve ends at the first pass that does not lower it, not
    # after the 1000 iterations of max_iter, and the run exits 3
    rc = main("run --form lagrangian --n 128 --dt 0.1 --t-end 10 --tol 3e-15".split() + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert rc == 3 and "Traceback" not in err and len(errors) == 1
    assert errors[0].startswith("error: linear solve failed: ")
    assert int(errors[0].split()[4]) < 1000  # its iterations


def test_an_unstable_run_past_the_largest_float_exits_3_or_writes_inf(tmp_path, capsys):
    # the explicit scheme at dt = 1 grows without bound: at t = 424 the L2
    # norm passes the largest float while L-inf does not, so norms writes
    # inf and run's errors against the closed form are not finite; by
    # t = 430 the state overflows and the next solve ends at once
    flags = ["--form", "original", "--theta", "0", "--dt", "1", "--n", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        codes = [main([command, *flags, "--t-end", t_end, "--out", str(tmp_path / f"{command}-{t_end}")])
                 for command, t_end in (("norms", "424"), ("run", "424"), ("run", "430"))]
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert codes == [0, 3, 3]
    assert (tmp_path / "norms-424" / "norms.csv").read_text().splitlines()[-1].split(",")[1] == "inf"
    assert len(errors) == 2 and "not both finite" in errors[0]
    assert errors[1].startswith("error: linear solve failed: 0 iterations")


def test_convergence_command(tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--levels", "2.5,1.25,0.625", "--dt", "0.05",
               "--t-end", "1.0", "--out", str(out)])
    assert rc == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].endswith(",")  # first level has no pairwise order
    assert "power-law fit" in (out / "report.txt").read_text()


def test_convergence_reports_the_mesh_it_ran_on(tmp_path):
    # h = 0.7, 0.3, 0.13 on a side of 20 run on n = 29, 67 and 154, whose h
    # the table, the orders and the fit use; n = 67 and 154 at dt = 0.1 also
    # need the solver's relative breakdown test
    out = tmp_path / "conv"
    rc = main(["convergence", "--levels", "0.7,0.3,0.13", "--s-end", "0.2", "--dt", "0.1",
               "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in (out / "errors.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [20 / 29, 20 / 67, 20 / 154]
