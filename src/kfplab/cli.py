"""Command-line entry point.

Commands: run, convergence, compare, norms, kernel-check, poincare-check,
nested-domains. Configuration comes from flags, optionally layered over a
flat `key = value` file (flags win). Outputs are deterministic CSV/text
files written atomically; exit codes: 0 success, 2 configuration error,
3 runtime or solver failure (including a failed check).
"""

import argparse
import dataclasses
import math
import os
import sys
import warnings

from . import analytic, analysis, solvers
from .mesh import RectDomain, build_structured_mesh
from .solvers import FORMS, RunConfig


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file, creating the directory if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _domain(text: str) -> RectDomain:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected vmin,vmax,zmin,zmax")
    return RectDomain(*map(float, parts))


def _numbers(positive: bool, least: int = 1):
    """Converter for a comma-separated list of at least `least` finite numbers,
    each > 0 (positive) or >= 0."""
    def convert(text: str) -> list:
        vals = [float(x) for x in text.split(",")]
        if len(vals) < least or not all(
                math.isfinite(v) and (v > 0 or (v == 0 and not positive)) for v in vals):
            raise ValueError(f"need finite {'positive' if positive else 'nonnegative'} numbers, "
                             f"at least {least}, got {text!r}")
        return vals
    return convert


def _s_end(text: str) -> float:
    """A rescaled horizon s, converted to the t-horizon expm1(s)."""
    s = float(text)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"need a finite s > 0, got {text!r}")
    return math.expm1(s)


def _integer(least: int):
    """Converter for an integer >= least."""
    def convert(text: str) -> int:
        if int(text) < least:
            raise ValueError(f"need an integer >= {least}, got {text!r}")
        return int(text)
    return convert


# Every key, declared once: (converter, RunConfig field it sets or None,
# command taking the flag, extra argparse settings). A key without a command
# is a flag of every command and a config-file key. Later keys override
# earlier ones that set the same field, so --s-end wins over --t-end;
# RunConfig supplies the defaults and validates the fields.
KEYS = {
    "form": (str, "form", None, {"choices": FORMS}),
    "n": (int, "n", None, {}),
    "dt": (float, "dt", None, {}),
    "t-end": (float, "horizon", None, {}),
    "domain": (_domain, "domain", None, {}),
    "theta": (float, "theta", None, {}),
    "sigma1": (float, "sigma1", None, {}),
    "tol": (float, "tol", None, {}),
    "snapshot-stride": (int, "snapshot_stride", None, {}),
    "out": (str, "out_dir", None, {}),
    "seed": (_integer(0), None, None, {}),
    "levels": (_numbers(True, least=3), None, "convergence",
               {"required": True, "help": "comma-separated h values"}),
    "s-end": (_s_end, "horizon", "convergence",
              {"help": "rescaled horizon (overrides --t-end)"}),
    "trials": (_integer(1), None, "poincare-check", {"default": "1000"}),
    "t-grid": (_numbers(False), None, "poincare-check", {"default": "0,0.25,0.5,0.75,1,2,3,4,5"}),
    "scales": (_numbers(True), None, "nested-domains", {"default": "4,6,8,10"}),
}


def _dest(key: str) -> str:
    """The argparse destination of a key's flag."""
    return key.replace("-", "_")


def _convert(key: str, text: str):
    try:
        return KEYS[key][0](text)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines, # comments; keys match flag names without dashes."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in KEYS or KEYS[key][2] is not None:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kfplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config")
        for key, (_, _, command, settings) in KEYS.items():
            if command in (None, name):
                p.add_argument("--" + key, dest=_dest(key), **settings)
    return parser


def parse_config(args) -> tuple[RunConfig, int]:
    """Merge config file and flags (flags win) into a RunConfig, which
    supplies the defaults (the reference settings) and validates the values.
    Reads every key that sets a field, plus the seed. Returns (config, seed).
    """
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (_, field, command, _) in KEYS.items():
        flag = getattr(args, _dest(key), None)
        if flag is not None and (field or command is None):
            given[key] = flag
    values = {key: _convert(key, text) for key, text in given.items()}
    seed = values.pop("seed", 0)
    return RunConfig(**{KEYS[key][1]: value for key, value in values.items()}), seed


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _csv_row(cells) -> str:
    """Strings as they are, None as an empty cell, numbers through _fmt."""
    return ",".join(c if isinstance(c, str) else "" if c is None else _fmt(c) for c in cells)


def _write_csv(path: str, header: str, rows) -> None:
    _atomic_write(path, "\n".join([header, *map(_csv_row, rows)]) + "\n")


def write_norms_csv(trajectory, path: str) -> None:
    _write_csv(path, "time,l2,linf", zip(trajectory.times, trajectory.l2, trajectory.linf))


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


ERRORS_HEADER = "h,dt,time,l2_error,linf_error,order"


def emit_run_outputs(trajectory) -> None:
    """norms.csv, errors.csv vs the closed-form solution and, with a snapshot
    stride, the snapshots, all in the run's out_dir."""
    config, final = trajectory.config, trajectory.final
    write_norms_csv(trajectory, os.path.join(config.out_dir, "norms.csv"))
    _write_csv(os.path.join(config.out_dir, "errors.csv"), ERRORS_HEADER,
               [(final.mesh.h, config.dt, final.time, *analysis.final_errors(trajectory), None)])
    if config.snapshot_stride > 0:
        for k, field in enumerate(trajectory.snapshots):
            write_grid_snapshot(field, os.path.join(config.out_dir, f"field_{k:06d}.grid"))


def _write_report(config: RunConfig, lines: list, ok: bool) -> int:
    """Write and print report.txt; the exit code of a check command."""
    _atomic_write(os.path.join(config.out_dir, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# commands: each takes the config, the seed and its own typed flags
# ---------------------------------------------------------------------------

def _cmd_run(config, seed) -> int:
    traj = solvers.run(config)
    emit_run_outputs(traj)
    print(f"{config.form}: {len(traj.times) - 1} steps to time {_fmt(traj.final.time)}, "
          f"outputs in {config.out_dir}")
    return 0


def _cmd_norms(config, seed) -> int:
    traj = solvers.run(config)
    write_norms_csv(traj, os.path.join(config.out_dir, "norms.csv"))
    print(f"{config.form}: wrote norm series ({len(traj.times)} rows)")
    return 0


def _cmd_compare(config, seed) -> int:
    rows = []
    for form in FORMS:
        traj = solvers.run(dataclasses.replace(config, form=form, snapshot_stride=0))
        rows.append((form, traj.final.mesh.h, config.dt, traj.final.time, *analysis.final_errors(traj)))
        print(_csv_row(rows[-1]))
    _write_csv(os.path.join(config.out_dir, "errors.csv"), "form,h,dt,time,l2_error,linf_error", rows)
    return 0


def _cmd_convergence(config, seed, levels) -> int:
    report, fit = analysis.convergence_study(config, levels)
    rows = [(h, report.dt, report.time, e2, einf, order) for h, e2, einf, order
            in zip(report.h, report.l2_error, report.linf_error, [None, *report.order])]
    _write_csv(os.path.join(config.out_dir, "errors.csv"), ERRORS_HEADER, rows)
    return _write_report(config, [
        f"power-law fit: E(h) = {_fmt(fit.coefficient)} * h^{_fmt(fit.exponent)}",
        f"log-log residual: {_fmt(fit.residual)}"], True)


def _cmd_kernel_check(config, seed) -> int:
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
    return _write_report(config, lines, ok)


def _cmd_poincare_check(config, seed, trials, t_grid) -> int:
    mesh = build_structured_mesh(config.domain, config.n)
    lines = []
    ok = True
    for t in t_grid:
        worst = analysis.poincare_check(mesh, t, trials, seed=seed)
        passed = worst <= 1.0
        ok &= passed
        lines.append(f"t={_fmt(t)}: worst ratio {_fmt(worst)} {'PASS' if passed else 'FAIL'}")
    return _write_report(config, lines, ok)


def _cmd_nested_domains(config, seed, scales) -> int:
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
    return _write_report(config, lines, monotone)


COMMANDS = {
    "run": (_cmd_run, "integrate one formulation, emit norms/errors/snapshots"),
    "convergence": (_cmd_convergence, "mesh-refinement ladder for the self-similar solver"),
    "compare": (_cmd_compare, "run all three formulations, emit a table of final errors"),
    "norms": (_cmd_norms, "integrate and emit the norm time series only"),
    "kernel-check": (_cmd_kernel_check, "kernel norm identities, quadrature vs closed form"),
    "poincare-check": (_cmd_poincare_check, "directional Poincare inequality on random fields"),
    "nested-domains": (_cmd_nested_domains, "domain-growth study at fixed inner region"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, seed = parse_config(args)
        flags = {_dest(key): _convert(key, getattr(args, _dest(key)))
                 for key, (_, field, command, _) in KEYS.items()
                 if command == args.command and field is None}
        # every run of a study is checked before the first one starts
        if args.command == "convergence":
            analysis.ladder_configs(config, flags["levels"])
        if args.command == "nested-domains":
            analysis.nested_configs(config, flags["scales"])
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](config, seed, **flags)
    except (solvers.SolverError, OSError, MemoryError) as exc:
        print("error:", str(exc) or type(exc).__name__, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
