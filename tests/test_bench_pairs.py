import importlib.util
import json
import os
import subprocess

import pytest

BENCH_PAIRS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "throughput_per_s", "unit": "1/s", "better": "higher"}]
LAYERS = [{"name": "sparse.matvec.calls", "unit": "count", "better": "lower"},
          {"name": "sparse.solve.iters_total", "unit": "count", "better": "lower"},
          {"name": "analytic.kernel_G.evals", "unit": "count", "better": "lower"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_wins_by_each_metrics_direction(bench_pairs):
    # ten pairs: the change is faster in nine and ties in one; the base's
    # wall quartiles are 1.225 and 1.675, 0.45 apart, and the medians 1.45
    # and 1.025 lie 0.425 apart: nine wins of ten, but no gain
    walls = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    pairs = [({"wall_s": w, "throughput_per_s": 1 / w}, {"wall_s": w - 0.45 if i else w, "throughput_per_s": 2 / w})
             for i, w in enumerate(walls)]
    wall, throughput = bench_pairs.summarize(pairs, METRICS)
    name, unit, base, change, won, count, gain = wall
    assert (name, unit, won, count, gain) == ("wall_s", "s", 9, 10, False)
    assert base == pytest.approx((1.225, 1.45, 1.675))
    assert change[1] == pytest.approx(1.025)
    # throughput doubles in every pair, far beyond the base's spread
    assert throughput[0] == "throughput_per_s" and throughput[4:] == (10, 10, True)


def test_summary_skips_failed_runs_and_absent_metrics(bench_pairs):
    # a failed run leaves an empty dict, and its pair counts for no metric
    pairs = [({"wall_s": 2.0}, {"wall_s": 1.0}), ({}, {"wall_s": 1.0}), ({"wall_s": 2.0}, {"wall_s": 3.0})]
    (row,) = bench_pairs.summarize(pairs, METRICS)
    assert row[0] == "wall_s" and row[4:] == (1, 2, False)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def commit_spec(path, workloads):
    """A git repository of one commit in path whose BENCHMARK.json declares workloads."""
    with open(path / "BENCHMARK.json", "w") as fh:
        json.dump({"run_seconds": 1, "workloads": [{"name": w} for w in workloads], "end_to_end": METRICS,
                   "per_layer": LAYERS}, fh)
    for cmd in (["init", "-q"], ["add", "BENCHMARK.json"],
                ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "spec"]):
        subprocess.run(["git", *cmd], cwd=path, check=True, capture_output=True)


@pytest.fixture
def one_commit_repo(tmp_path, bench_pairs, monkeypatch):
    """A git repository of one commit whose BENCHMARK.json declares the
    workload "oracle", as the tool's root; exporting from it fails the test."""
    commit_spec(tmp_path, ["oracle"])

    def no_export(*args):
        raise AssertionError("exported before the inputs were checked")

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "export", no_export)


@pytest.mark.parametrize("argv, message", [
    (["no-such-rev", "HEAD", "--workload", "oracle"], "unknown revision 'no-such-rev'"),
    (["HEAD", "no-such-rev", "--workload", "oracle"], "unknown revision 'no-such-rev'"),
    (["HEAD", "HEAD", "--workload", "oracl"], "workload 'oracl' is not in the base's BENCHMARK.json: oracle")])
def test_bad_revision_or_workload_exits_2_before_any_export(bench_pairs, one_commit_repo, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message)


MANIFEST = {"commit": "abc", "nproc": 2, "affinity": 2, "python": "3.11.14", "numpy": "2.4.6",
            "blas": {"name": "scipy-openblas", "lib directory": "/a/b", "version": "0.3"},
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


@pytest.mark.parametrize("workloads, run", [([], ["oracle", "original"]),
                                            (["original"], ["original"]),
                                            (["original", "oracle"], ["original", "oracle"])])
def test_json_records_revisions_host_and_every_workload_in_order(bench_pairs, tmp_path, monkeypatch, capsys,
                                                                 workloads, run):
    # canned runs: the change halves the wall time of every run and the
    # base's third run of "oracle" fails; by default every workload runs;
    # after each workload's pairs, one traced run of each side, whose
    # per-layer metrics the file records
    commit_spec(tmp_path, ["oracle", "original"])
    calls, traced_calls = [], []

    def canned_bench(copy, workload, seconds, trace=0):
        if trace:
            traced_calls.append((os.path.basename(copy), workload))
            layers = ({"analytic.kernel_G.evals": 19000.0} if workload == "oracle" else
                      {"sparse.matvec.calls": 1428.0 if copy.endswith("a") else 300.0,
                       "sparse.solve.iters_total": 564.0})
            return {"correct": True, "failed": 0, "metrics": {k: {"value": v} for k, v in layers.items()}}, MANIFEST
        calls.append((os.path.basename(copy), workload))
        wall = (1.0 if copy.endswith("a") else 0.5) * (1 + 0.1 * len(calls))
        if (os.path.basename(copy), workload) == ("a", "oracle") and calls.count(calls[-1]) == 3:
            return None, MANIFEST
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": wall},
                                                          "throughput_per_s": {"value": 1 / wall}}}, MANIFEST

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "export", lambda rev, root, name: os.path.join(root, name))
    monkeypatch.setattr(bench_pairs, "bench", canned_bench)
    path = tmp_path / "bench.json"
    argv = ["HEAD", "HEAD~0", "--pairs", "3", "--json", str(path)]
    rc = bench_pairs.main(argv + [arg for w in workloads for arg in ("--workload", w)])
    assert rc == (1 if "oracle" in run else 0)
    assert [w for _, w in calls] == [w for w in run for _ in range(6)]
    assert [c for c, _ in calls[:6]] == ["a", "b", "b", "a", "a", "b"]  # alternating order
    assert traced_calls == [(side, w) for w in run for side in ("a", "b")]
    with open(path) as fh:
        doc = json.load(fh)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()
    assert list(doc) == ["base", "change", "host", "pairs", "run_seconds", "workloads"]
    assert doc["base"] == {"rev": "HEAD", "id": head} and doc["change"] == {"rev": "HEAD~0", "id": head}
    assert doc["host"] == {"cores": 2, "affinity": 2, "python": "3.11.14", "numpy": "2.4.6",
                           "blas": {"name": "scipy-openblas", "version": "0.3"},  # without the build's paths
                           "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}
    assert (doc["pairs"], doc["run_seconds"]) == (3, 1)
    assert list(doc["workloads"]) == run
    for workload, entry in doc["workloads"].items():
        assert list(entry) == ["failed_runs", "metrics", "layers"]
        assert entry["failed_runs"] == (workload == "oracle")
        assert list(entry["metrics"]) == ["wall_s", "throughput_per_s"]
        wall = entry["metrics"]["wall_s"]
        assert list(wall) == ["unit", "better", "base", "change", "won", "counted", "gain"]
        assert list(wall["base"]) == list(wall["change"]) == ["q1", "median", "q3"]
        assert (wall["unit"], wall["better"]) == ("s", "lower")
        assert wall["counted"] == (2 if workload == "oracle" else 3) == wall["won"]
        assert wall["base"]["q1"] <= wall["base"]["median"] <= wall["base"]["q3"]
        layers = entry["layers"]
        if workload == "oracle":
            assert layers == {"analytic.kernel_G.evals": {"unit": "count", "better": "lower",
                                                          "base": 19000.0, "change": 19000.0}}
        else:
            assert list(layers) == ["sparse.matvec.calls", "sparse.solve.iters_total"]  # the spec's order
            assert list(layers["sparse.matvec.calls"]) == ["unit", "better", "base", "change"]
            assert (layers["sparse.matvec.calls"]["base"], layers["sparse.matvec.calls"]["change"]) == (1428.0, 300.0)
            assert layers["sparse.solve.iters_total"]["base"] == layers["sparse.solve.iters_total"]["change"] == 564.0
    assert "wall_s [s]: " in capsys.readouterr().out


def test_layer_rows_take_each_sides_median_and_mark_a_missing_side(bench_pairs):
    # a side whose traced run failed has no runs and records None; a metric
    # that no run reports is left out
    traced = {"base": [{"sparse.matvec.calls": 3.0}, {"sparse.matvec.calls": 1.0}, {"sparse.matvec.calls": 2.0}],
              "change": []}
    assert bench_pairs.layer_rows(traced, LAYERS) == {
        "sparse.matvec.calls": {"unit": "count", "better": "lower", "base": 2.0, "change": None}}
