"""Run a fixed set of kfplab commands and the five demos against one checkout
and store everything they write and print, so that two checkouts can be
compared with `diff -r`.

    python tools/same_output.py <checkout> <out_dir>

Example, for a change against its parent:

    mkdir /tmp/parent && git archive <parent> | tar -x -C /tmp/parent
    python tools/same_output.py /tmp/parent /tmp/out-parent
    python tools/same_output.py . /tmp/out-change
    diff -r /tmp/out-parent /tmp/out-change    # empty: byte-identical

Each case gets <out_dir>/<name>/ with the files the command wrote (under
files/), stdout.txt, stderr.txt and exit_code.txt. Every command runs in its
own subprocess with only the checkout's src/ on PYTHONPATH, and with files/
as its working directory. In stdout and stderr, the files/ path and the
checkout path are replaced by the placeholders <out> and <checkout>, so the
text does not depend on where either lives, and wall times printed as
"(1.2 s)" (demo 02 does) become "(<wall> s)". Takes about half a minute on
two cores.
"""

import os
import pathlib
import re
import subprocess
import sys
import time

COMMANDS = {
    "run-lagrangian": "run --form lagrangian --n 128 --dt 0.1 --t-end 10",
    "run-original": "run --form original --n 128 --dt 0.01 --t-end 5",
    "run-original-snapshots": "run --form original --n 24 --dt 0.05 --t-end 1 --snapshot-stride 7",
    "run-lagrangian-snapshots": "run --form lagrangian --n 24 --dt 0.05 --t-end 1 --snapshot-stride 7",
    "run-selfsimilar": "run --form selfsimilar --n 128 --dt 0.01 --t-end 10 --snapshot-stride 60",
    "run-original-theta": "run --form original --n 24 --theta 0.75",
    "run-selfsimilar-sigma1": "run --form selfsimilar --n 24 --theta 1 --sigma1 0.5",
    "convergence": "convergence --levels 1,0.5,0.25,0.125 --s-end 1 --dt 0.01",
    "compare": "compare --n 48 --dt 0.02 --t-end 10",
    "norms": "norms --form original --n 64 --t-end 5",
    "kernel-check": "kernel-check",
    "poincare-check": "poincare-check --n 24 --trials 200",
    "nested-domains": "nested-domains --scales 4,6,8,10 --n 40 --dt 0.05 --t-end 3",
}

WALL_TIME = re.compile(r"\(\d+\.\d+ s\)")


def cases(checkout: pathlib.Path) -> dict:
    """Case name -> argv; each CLI command writes into its working directory."""
    argvs = {name: [sys.executable, "-m", "kfplab", *args.split(), "--out", "."]
             for name, args in COMMANDS.items()}
    for demo in sorted((checkout / "demos").glob("*.py")):
        argvs["demo-" + demo.stem] = [sys.executable, str(demo)]
    return argvs


def run_case(checkout: pathlib.Path, argv: list, case_dir: pathlib.Path) -> int:
    files = case_dir / "files"
    files.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=files, env=env, capture_output=True, text=True)
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        text = text.replace(str(files), "<out>").replace(str(checkout), "<checkout>")
        text = WALL_TIME.sub("(<wall> s)", text)
        (case_dir / f"{stream}.txt").write_text(text)
    (case_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_output.py <checkout> <out_dir>", file=sys.stderr)
        return 2
    checkout, out_dir = (pathlib.Path(a).resolve() for a in args)
    if not (checkout / "src" / "kfplab").is_dir():
        print(f"error: {checkout} has no src/kfplab", file=sys.stderr)
        return 2
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 2
    for name, case_argv in cases(checkout).items():
        start = time.perf_counter()
        rc = run_case(checkout, case_argv, out_dir / name)
        print(f"{name}: exit {rc}, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
