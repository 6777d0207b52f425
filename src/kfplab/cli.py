"""Command-line entry point.

Commands: run, convergence, compare, norms, kernel-check, poincare-check,
nested-domains. Configuration comes from flags, optionally layered over a
flat `key = value` file (flags win). Outputs are deterministic CSV/text
files written atomically; exit codes: 0 success, 2 configuration error,
3 runtime or solver failure (including a failed check).
"""

import argparse
import math
import os
import sys
import warnings

from . import analytic, analysis, solvers
from .mesh import RectDomain, build_structured_mesh
from .solvers import RunConfig

CONFIG_KEYS = ("form", "n", "dt", "t-end", "domain", "theta", "sigma1", "tol",
               "snapshot-stride", "out", "seed")


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _parse_domain(text: str) -> RectDomain:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("domain: expected vmin,vmax,zmin,zmax")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("domain: malformed number")
    return RectDomain(*vals)


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines, # comments; keys match flag names without dashes."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


def write_config_file(config: RunConfig, path: str, seed: int | None = None) -> None:
    d = config.domain
    lines = [
        f"form = {config.form}",
        f"n = {config.n}",
        f"dt = {_fmt(config.dt)}",
        f"t-end = {_fmt(config.horizon)}",
        f"domain = {_fmt(d.v_min)},{_fmt(d.v_max)},{_fmt(d.z_min)},{_fmt(d.z_max)}",
        f"theta = {_fmt(config.theta)}",
        f"sigma1 = {_fmt(config.sigma1)}",
        f"tol = {_fmt(config.tol)}",
        f"snapshot-stride = {config.snapshot_stride}",
        f"out = {config.out_dir}",
    ]
    if seed is not None:
        lines.append(f"seed = {seed}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kfplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--form", choices=("original", "lagrangian", "selfsimilar"))
        p.add_argument("--n", type=str)
        p.add_argument("--dt", type=str)
        p.add_argument("--t-end", dest="t_end", type=str)
        p.add_argument("--domain", type=str)
        p.add_argument("--theta", type=str)
        p.add_argument("--sigma1", type=str)
        p.add_argument("--tol", type=str)
        p.add_argument("--snapshot-stride", dest="snapshot_stride", type=str)
        p.add_argument("--out", type=str)
        p.add_argument("--config", type=str)
        p.add_argument("--seed", type=str)

    add_common(sub.add_parser("run", help="integrate one formulation, emit norms/errors/snapshots"))
    p = sub.add_parser("convergence", help="mesh-refinement ladder for the self-similar solver")
    add_common(p)
    p.add_argument("--levels", type=str, required=True, help="comma-separated h values")
    p.add_argument("--s-end", dest="s_end", type=str, help="rescaled horizon (overrides --t-end)")
    add_common(sub.add_parser("compare", help="run all three formulations, emit a table of final errors"))
    add_common(sub.add_parser("norms", help="integrate and emit the norm time series only"))
    add_common(sub.add_parser("kernel-check", help="kernel norm identities, quadrature vs closed form"))
    p = sub.add_parser("poincare-check", help="directional Poincare inequality on random fields")
    add_common(p)
    p.add_argument("--trials", type=str, default="1000")
    p.add_argument("--t-grid", dest="t_grid", type=str, default="0,0.25,0.5,0.75,1,2,3,4,5")
    p = sub.add_parser("nested-domains", help="domain-growth study at fixed inner region")
    add_common(p)
    p.add_argument("--scales", type=str, default="4,6,8,10")
    return parser


def _coerce(key: str, text: str):
    try:
        if key in ("n", "snapshot-stride", "seed"):
            return int(text)
        if key in ("dt", "t-end", "theta", "sigma1", "tol"):
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: malformed number {text!r}")
    if key == "domain":
        return _parse_domain(text)
    if key == "form":
        if text not in ("original", "lagrangian", "selfsimilar"):
            raise ConfigError(f"form: unknown formulation {text!r}")
    return text


def parse_config(args) -> tuple[RunConfig, int]:
    """Merge config file and flags (flags win) into a RunConfig, which
    validates the values.

    Defaults are the reference settings: n=128, dt=0.01, domain [-10,10]^2,
    theta=0.5, sigma1=1.0, horizon t=10. Returns (config, seed).
    """
    merged = {
        "form": "selfsimilar", "n": 128, "dt": 0.01, "t-end": 10.0,
        "domain": RectDomain.square(10.0), "theta": 0.5, "sigma1": 1.0,
        "tol": 1e-10, "snapshot-stride": 0, "out": "out", "seed": 0,
    }
    if getattr(args, "config", None):
        for key, text in read_config_file(args.config).items():
            merged[key] = _coerce(key, text)
    flag_names = {"form": "form", "n": "n", "dt": "dt", "t-end": "t_end",
                  "domain": "domain", "theta": "theta", "sigma1": "sigma1",
                  "tol": "tol", "snapshot-stride": "snapshot_stride",
                  "out": "out", "seed": "seed"}
    for key, attr in flag_names.items():
        val = getattr(args, attr, None)
        if val is not None:
            merged[key] = _coerce(key, val) if isinstance(val, str) else val
    if isinstance(merged["domain"], str):
        merged["domain"] = _parse_domain(merged["domain"])

    config = RunConfig(
        form=merged["form"], domain=merged["domain"], n=merged["n"],
        dt=merged["dt"], horizon=merged["t-end"], theta=merged["theta"],
        sigma1=merged["sigma1"], tol=merged["tol"],
        snapshot_stride=merged["snapshot-stride"], out_dir=merged["out"],
    )
    return config, int(merged["seed"])


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def write_norms_csv(trajectory, path: str) -> None:
    lines = ["time,l2,linf"]
    for t, a, b in zip(trajectory.times, trajectory.l2, trajectory.linf):
        lines.append(f"{_fmt(t)},{_fmt(a)},{_fmt(b)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_errors_csv(rows, path: str) -> None:
    """rows: iterable of (h, dt, time, l2_error, linf_error, order-or-None)."""
    lines = ["h,dt,time,l2_error,linf_error,order"]
    for h, dt, t, e2, einf, order in rows:
        tail = "" if order is None else _fmt(order)
        lines.append(f"{_fmt(h)},{_fmt(dt)},{_fmt(t)},{_fmt(e2)},{_fmt(einf)},{tail}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_grid_snapshot(field, path: str) -> None:
    mesh = field.mesh
    d = mesh.domain
    nv = mesh.n + 1
    header = f"# {nv} {nv} {_fmt(d.v_min)} {_fmt(d.v_max)} {_fmt(d.z_min)} {_fmt(d.z_max)} {_fmt(field.time)}"
    grid = field.values.reshape(nv, nv)  # row iz, column iv
    lines = [header]
    for row in grid:
        lines.append(" ".join(_fmt(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_run_outputs(trajectory, config: RunConfig, directory: str) -> list:
    """norms.csv, errors.csv vs the closed-form solution, optional snapshots."""
    os.makedirs(directory, exist_ok=True)
    written = []
    path = os.path.join(directory, "norms.csv")
    write_norms_csv(trajectory, path)
    written.append(path)

    final = trajectory.final
    ref = lambda a, b: analytic.exact_solution(trajectory.form, final.time, (a, b))
    h = final.mesh.h
    e2 = analysis.l2_error(final, ref)
    einf = analysis.linf_error(final, ref)
    path = os.path.join(directory, "errors.csv")
    write_errors_csv([(h, config.dt, final.time, e2, einf, None)], path)
    written.append(path)

    if config.snapshot_stride > 0:
        for k, (_, field) in enumerate(trajectory.snapshots):
            path = os.path.join(directory, f"field_{k:06d}.grid")
            write_grid_snapshot(field, path)
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_run(config, seed, args) -> int:
    traj = solvers.run(config)
    emit_run_outputs(traj, config, config.out_dir)
    print(f"{config.form}: {len(traj.times) - 1} steps to time {_fmt(traj.final.time)}, "
          f"outputs in {config.out_dir}")
    return 0


def _cmd_norms(config, seed, args) -> int:
    traj = solvers.run(config)
    os.makedirs(config.out_dir, exist_ok=True)
    write_norms_csv(traj, os.path.join(config.out_dir, "norms.csv"))
    print(f"{config.form}: wrote norm series ({len(traj.times)} rows)")
    return 0


def _cmd_compare(config, seed, args) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    lines = ["form,h,dt,time,l2_error,linf_error"]
    for form in ("original", "lagrangian", "selfsimilar"):
        cfg = RunConfig(form=form, domain=config.domain, n=config.n, dt=config.dt,
                        horizon=config.horizon, theta=config.theta, sigma1=config.sigma1,
                        tol=config.tol, snapshot_stride=0, out_dir=config.out_dir)
        traj = solvers.run(cfg)
        final = traj.final
        ref = lambda a, b: analytic.exact_solution(form, final.time, (a, b))
        e2 = analysis.l2_error(final, ref)
        einf = analysis.linf_error(final, ref)
        lines.append(f"{form},{_fmt(final.mesh.h)},{_fmt(cfg.dt)},{_fmt(final.time)},{_fmt(e2)},{_fmt(einf)}")
        print(lines[-1])
    _atomic_write(os.path.join(config.out_dir, "errors.csv"), "\n".join(lines) + "\n")
    return 0


def _cmd_convergence(config, seed, args) -> int:
    levels = [float(x) for x in args.levels.split(",")]
    s_end = float(args.s_end) if args.s_end else None
    report, fit = analysis.convergence_study(config, levels, s_end=s_end)
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    for i, h in enumerate(report.h):
        order = None if i == 0 else report.order[i - 1]
        rows.append((h, report.dt, report.time, report.l2_error[i], report.linf_error[i], order))
    write_errors_csv(rows, os.path.join(config.out_dir, "errors.csv"))
    report_text = (f"power-law fit: E(h) = {_fmt(fit.coefficient)} * h^{_fmt(fit.exponent)}\n"
                   f"log-log residual: {_fmt(fit.residual)}\n")
    _atomic_write(os.path.join(config.out_dir, "report.txt"), report_text)
    print(report_text.strip())
    return 0


def _cmd_kernel_check(config, seed, args) -> int:
    lines = []
    ok = True
    for t in (0.5, 1.0, 2.0):
        for q in (1, 2, 3, math.inf):
            closed = analytic.kernel_Lq_norm(t, q)
            quad = analytic.kernel_Lq_quadrature(t, q)
            rel = abs(quad - closed) / closed
            passed = rel <= 1e-6
            ok &= passed
            qname = "inf" if q == math.inf else str(q)
            lines.append(f"t={t} q={qname}: closed={_fmt(closed)} quadrature={_fmt(quad)} "
                         f"rel={rel:.3e} {'PASS' if passed else 'FAIL'}")
    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write(os.path.join(config.out_dir, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 3


def _cmd_poincare_check(config, seed, args) -> int:
    trials = int(args.trials)
    t_grid = [float(x) for x in args.t_grid.split(",")]
    mesh = build_structured_mesh(config.domain, config.n)
    lines = []
    ok = True
    for t in t_grid:
        worst = analysis.poincare_check(mesh, t, trials, seed=seed)
        passed = worst <= 1.0
        ok &= passed
        lines.append(f"t={_fmt(t)}: worst ratio {_fmt(worst)} {'PASS' if passed else 'FAIL'}")
    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write(os.path.join(config.out_dir, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 3


def _cmd_nested_domains(config, seed, args) -> int:
    scales = [float(x) for x in args.scales.split(",")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        used, diffs, flags = analysis.nested_domain_study(config, scales)
    lines = []
    for w in caught:
        lines.append(f"warning: {w.message}")
    for (a, b), d in zip(zip(used[:-1], used[1:]), diffs):
        lines.append(f"scales {_fmt(a)} vs {_fmt(b)}: L2 discrepancy {_fmt(d)}")
    valid = [d for d, fa, fb in zip(diffs, flags[:-1], flags[1:]) if not (fa or fb)]
    monotone = all(x > y for x, y in zip(valid[:-1], valid[1:]))
    lines.append(f"discrepancies decreasing: {'PASS' if monotone else 'FAIL'}")
    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write(os.path.join(config.out_dir, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if monotone else 3


COMMANDS = {
    "run": _cmd_run,
    "norms": _cmd_norms,
    "compare": _cmd_compare,
    "convergence": _cmd_convergence,
    "kernel-check": _cmd_kernel_check,
    "poincare-check": _cmd_poincare_check,
    "nested-domains": _cmd_nested_domains,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config, seed = parse_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](config, seed, args)
    except solvers.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
