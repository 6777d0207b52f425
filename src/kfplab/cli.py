"""Command-line entry point.

Commands: run, convergence, compare, norms, kernel-check, poincare-check,
nested-domains. Configuration comes from flags, optionally layered over a
flat `key = value` file (a flag wins over its key in the file, and s-end
over t-end wherever each is given). Outputs are deterministic CSV/text
files written atomically; exit codes: 0 success, 2 configuration error or
an unusable --out, 3 runtime or solver failure (including a failed check).
"""

import argparse
import dataclasses
import math
import os
import sys

from . import analytic, analysis, solvers
from .mesh import RectDomain, build_structured_mesh
from .solvers import FORMS, RunConfig


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _domain(text: str) -> RectDomain:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected vmin,vmax,zmin,zmax")
    return RectDomain(*map(float, parts))


def _numbers(positive: bool):
    """Converter for a comma-separated list of finite numbers, each > 0
    (positive) or >= 0; a study's config builder checks how many."""
    def convert(text: str) -> list:
        vals = [float(x) for x in text.split(",")]
        if not all(math.isfinite(v) and (v > 0 or (v == 0 and not positive)) for v in vals):
            raise ValueError(f"need finite {'positive' if positive else 'nonnegative'} numbers, "
                             f"got {text!r}")
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


# Every key, declared once: (converter, RunConfig field it sets or None, the
# commands that read it, extra argparse settings); another command given it
# fails. Later keys override earlier ones that set the same field, whether
# given in the file or as flags, so s-end wins over t-end; RunConfig supplies
# the defaults and validates the fields.
_SOLVE = ("run", "norms", "compare", "convergence", "nested-domains")  # commands that run the solver
KEYS = {
    "form": (str, "form", ("run", "norms"), {"choices": FORMS}),
    "n": (int, "n", ("run", "norms", "compare", "poincare-check", "nested-domains"), {}),
    "dt": (float, "dt", _SOLVE, {}),
    "t-end": (float, "horizon", _SOLVE, {}),
    "domain": (_domain, "domain", ("run", "norms", "compare", "convergence", "poincare-check"), {}),
    "theta": (float, "theta", _SOLVE, {}),
    "sigma1": (float, "sigma1", _SOLVE, {}),
    "tol": (float, "tol", _SOLVE, {}),
    "snapshot-stride": (int, "snapshot_stride", ("run",), {}),
    "out": (str, "out_dir", (*_SOLVE, "kernel-check", "poincare-check"), {}),
    "seed": (_integer(0), None, ("poincare-check",), {}),
    "levels": (_numbers(True), None, ("convergence",),
               {"required": True, "help": "comma-separated h values"}),
    "s-end": (_s_end, "horizon", ("convergence",),
              {"help": "rescaled horizon (overrides --t-end)"}),
    "trials": (_integer(1), None, ("poincare-check",), {"default": "1000"}),
    "t-grid": (_numbers(False), None, ("poincare-check",), {"default": "0,0.25,0.5,0.75,1,2,3,4,5"}),
    "scales": (_numbers(True), None, ("nested-domains",), {"default": "4,6,8,10"}),
}
# the keys parse_config reads and a config file may hold, in KEYS order
SETTINGS = tuple(key for key, (_, field, _, _) in KEYS.items() if field or key == "seed")


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
            if key not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kfplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config")
        for key, (_, _, commands, settings) in KEYS.items():
            if name in commands:
                p.add_argument("--" + key, dest=_dest(key), **settings)
    return parser


def parse_config(args) -> tuple[RunConfig, int]:
    """Merge config file and flags (a flag wins over its key in the file,
    then later SETTINGS keys over earlier ones) into a RunConfig, which
    supplies the defaults (the reference settings) and validates the values.
    Reads the SETTINGS keys; a config file key that args.command does not
    read is an error. Returns (config, seed).
    """
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    command = getattr(args, "command", None)
    ignored = [key for key in given if command and command not in KEYS[key][2]]
    if ignored:
        raise ValueError(f"{command} does not read the config keys {', '.join(ignored)}")
    given.update({key: getattr(args, _dest(key)) for key in SETTINGS
                  if getattr(args, _dest(key), None) is not None})
    values = {key: _convert(key, given[key]) for key in SETTINGS if key in given}
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
    _atomic_write(path, "\n".join([header, *(" ".join(_fmt(x) for x in row) for row in grid)]) + "\n")


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
    used, diffs, flags = analysis.nested_domain_study(config, scales)
    lines = [f"warning: scale {scale} violates the domain size condition; "
             "excluded from the monotonicity contract" for scale, violates in zip(used, flags) if violates]
    for (a, b), d in zip(zip(used[:-1], used[1:]), diffs):
        lines.append(f"scales {_fmt(a)} vs {_fmt(b)}: L2 discrepancy {_fmt(d)}")
    valid = [d for d, fa, fb in zip(diffs, flags[:-1], flags[1:]) if not (fa or fb)]
    if not valid:
        lines.append("no pair of admissible scales was compared")
    monotone = bool(valid) and all(x > y for x, y in zip(valid[:-1], valid[1:]))
    lines.append(f"discrepancies decreasing: {'PASS' if monotone else 'FAIL'}")
    return _write_report(config, lines, monotone)


# each command, its help and its up-front check: the key it names and the
# rule the command itself applies, called on the config and the command's flags
COMMANDS = {
    "run": (_cmd_run, "integrate one formulation, emit norms/errors/snapshots", None),
    "convergence": (_cmd_convergence, "mesh-refinement ladder for the self-similar solver",
                    ("levels", lambda config, levels: analysis.ladder_configs(config, levels))),
    "compare": (_cmd_compare, "run all three formulations, emit a table of final errors", None),
    "norms": (_cmd_norms, "integrate and emit the norm time series only", None),
    "kernel-check": (_cmd_kernel_check, "kernel norm identities, quadrature vs closed form", None),
    "poincare-check": (_cmd_poincare_check, "directional Poincare inequality on random fields",
                       ("n", lambda config, **flags: analysis.poincare_mesh_check(config.n))),
    "nested-domains": (_cmd_nested_domains, "domain-growth study at fixed inner region",
                       ("scales", lambda config, scales: analysis.nested_configs(config, scales))),
}


def main(argv=None) -> int:
    args, ignored = _build_parser().parse_known_args(argv)
    try:
        if ignored:
            raise ValueError(f"{args.command} does not read {' '.join(ignored)}")
        config, seed = parse_config(args)
        flags = {_dest(key): _convert(key, getattr(args, _dest(key)))
                 for key in KEYS if key not in SETTINGS and args.command in KEYS[key][2]}
        check = COMMANDS[args.command][2]
        if check:  # every run of a study, and the poincare-check mesh, before anything runs
            key, rule = check
            try:
                rule(config, **flags)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"--{key}: {exc}") from None
        os.makedirs(config.out_dir, exist_ok=True)  # last: a configuration error leaves no directory
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](config, seed, **flags)
    except (solvers.SolverError, FloatingPointError, OSError, MemoryError) as exc:
        print("error:", str(exc) or type(exc).__name__, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
