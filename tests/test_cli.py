import dataclasses
import math
import os

import numpy as np
import pytest

from kfplab import cli, solvers
from kfplab.cli import main, parse_config, read_config_file
from kfplab.mesh import RectDomain
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
    "nested-domains --n 8 --scales 4,x",
    "nested-domains --n 8 --scales 4,nan",
    "nested-domains --n 8 --scales 0,4",
    "run --n 4 --config {tmp}/missing.cfg",
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
])
def test_invalid_command_flag_exits_2_before_running(tmp_path, capsys, argv):
    rc = main(argv.format(tmp=tmp_path).split() + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not (tmp_path / "out").exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_poincare_check_fails_when_the_form_overflows(tmp_path, capsys):
    # t^2 overflows at t = 1e308: a ratio of nothing must not pass
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
