"""The `langirl` command line: exit codes, failure records, reruns and compare."""

import csv
import filecmp
import functools
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import langirl.cli
from langirl.analysis import build_density
from langirl.cli import _Experiment, load_config, main, resolve_config
from langirl.core import NonFiniteError, RngStream
from langirl.forward import AgentPoolConfig, InitDensity, run_agent_pool
from langirl.irl import (
    ACTIVE,
    CLASSICAL,
    MULTIKERNEL,
    ORACLE,
    PASSIVE_GENERALIZED,
    POOL,
    VARIANTS,
    SamplerConfig,
    Trajectory,
    load_trajectory,
    run_sampler,
    save_trajectory,
)
from langirl.kernels import Kernel
from langirl.problems import cmdp, mixture, synthetic
from reference import make_angle_pool_source
from test_bench_artifacts import assert_digest_table

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def quadratic_config(output, **sampler):
    sampler_section = {
        "variant": "passive_generalized",
        "step": 0.2,
        "beta": 1.0,
        "kernel": {"bandwidth": 0.5},
        "init": [0.0, 0.0],
    }
    sampler_section.update(sampler)
    # The default kernel and forward section go only to a variant that reads them: any other rejects them.
    row = VARIANTS.get(sampler_section["variant"])
    if "kernel" not in sampler and "kernel" not in getattr(row, "needs", ()):
        del sampler_section["kernel"]
    dim = len(sampler_section["init"])
    config = {
        "schema": 1,
        "experiment": "cli-test",
        "seed": 3,
        "output": str(output),
        "problem": {"kind": "quadratic", "dim": dim, "curvature": 1.0},
        "forward": {"step": 0.05, "num_agents": 200, "run_length": 1, "shuffle": True},
        "sampler": sampler_section,
        "baseline": {"step": 0.1, "num_steps": 150},
    }
    if getattr(row, "source", None) == ORACLE:
        del config["forward"]
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_tiny_quadratic_run_succeeds(tmp_path):
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, quadratic_config(out))]) == 0
    for name in ("manifest.json", "metrics.json", "trajectory.csv", "trajectory.json",
                 "baseline.csv", "baseline.json"):
        assert (out / name).is_file(), name
    assert not (out / "failure.json").exists()
    metrics = read_json(out / "metrics.json")
    # 200 corpus rows give 200 steps and 201 estimates; a tenth is burn-in.
    assert metrics["post_samples"] == 201 - 200 // 10
    assert metrics["variant"] == "passive_generalized"


def test_unknown_variant_is_a_config_error(tmp_path, capsys):
    config = quadratic_config(tmp_path / "run", variant="smoothed")
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert "smoothed" in capsys.readouterr().err


def test_density_floor_failure_is_recorded(tmp_path):
    # At 40 standard deviations the initialization density underflows, so the
    # classical form divides by it at the very first step.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="passive_classical", init=[40.0])
    assert main(["run", write_config(tmp_path, config)]) == 1
    failure = read_json(out / "failure.json")
    assert failure["phase"] == "sampler"
    assert failure["error"] == "DensityFloorError"
    assert not (out / "metrics.json").exists()


def bundled_logistic_config(output):
    # 4-D: the bias column and the 3 busiest feature columns.
    config = quadratic_config(output, init=[0.0] * 4)
    config["problem"] = {"kind": "logistic", "data": "bundled", "num_rows": 200, "num_features": 3}
    config["forward"].update(num_agents=100, run_length=3)
    del config["baseline"]
    return config


def assert_manifest_rerun_is_byte_identical(tmp_path, make_config, *flags):
    # `flags` go to the first run only: the rerun takes everything from the manifest.
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", write_config(tmp_path, make_config(first)), "--chains", "2", *flags]) == 0
    assert main(["run", str(first / "manifest.json"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.glob("trajectory*.csv"))
    assert names == ["trajectory_c0.csv", "trajectory_c1.csv"]
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
    want, got = (read_json(run / "manifest.json")["config"] for run in (first, second))
    assert (want.pop("output"), got.pop("output")) == (str(first), str(second))
    assert got == want
    return want


def test_manifest_rerun_is_byte_identical(tmp_path):
    assert_manifest_rerun_is_byte_identical(tmp_path, quadratic_config)


def paper_scale_config(output):
    config = quadratic_config(output)
    # A null overlay is no overlay.
    config["scales"] = {"paper": {"sampler": {"num_steps": 150}, "baseline": {"num_steps": 100}}, "desk": None}
    return config


def test_a_paper_scale_run_reruns_at_paper_scale(tmp_path, capsys):
    resolved = assert_manifest_rerun_is_byte_identical(tmp_path, paper_scale_config, "--scale", "paper")
    assert resolved["scale"] == "paper"
    assert load_trajectory(tmp_path / "second", stem="trajectory_c0")[1]["num_steps"] == 150
    manifest = str(tmp_path / "first" / "manifest.json")
    assert main(["run", manifest, "--out", str(tmp_path / "again"), "--scale", "paper"]) == 0
    # A manifest's config is resolved: another scale cannot be laid over it.
    assert main(["run", manifest, "--out", str(tmp_path / "desk"), "--scale", "desk"]) == 2
    assert "scale: this config names scale 'paper', not 'desk'" in capsys.readouterr().err
    assert not (tmp_path / "desk").exists()


def test_a_bundled_logistic_run_reruns_byte_identical(tmp_path):
    # The only CLI run of problem.kind "logistic": the bundled data, its row
    # and column subset and the logistic oracle.
    assert_manifest_rerun_is_byte_identical(tmp_path, bundled_logistic_config)


def test_compare_counts_match_post_samples(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["run", write_config(tmp_path, quadratic_config(run_a), "a.json")]) == 0
    config_b = quadratic_config(run_b)
    config_b["seed"] = 4
    assert main(["run", write_config(tmp_path, config_b, "b.json"), "--chains", "2"]) == 0
    capsys.readouterr()

    out = tmp_path / "cmp"
    assert main(["compare", str(run_a), str(run_b), "--out", str(out)]) == 0
    report = read_json(out / "compare.json")
    assert report == json.loads(capsys.readouterr().out)
    assert report["samples_a"] == read_json(run_a / "metrics.json")["post_samples"]
    assert report["samples_b"] == read_json(run_b / "metrics.json")["post_samples"]
    assert report["marginals"] == 2
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "marginal,w1,variational_distance"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(report["w1"][0])


def test_compare_of_constant_marginals_reports_zero_distances(tmp_path, capsys):
    # Zero-step chains stay at their start, so every marginal is one value in both runs. Past 2**53, as at 1e17
    # and 1e300, that value plus 1 is the value itself; above the largest float there is no float at all.
    for start in (0.0, 1e17, 1e300, sys.float_info.max):
        runs = [tmp_path / f"a{start}", tmp_path / f"b{start}"]
        for run in runs:
            config = quadratic_config(run, num_steps=0, init=[start, start])
            assert main(["run", write_config(tmp_path, config)]) == 0
        capsys.readouterr()
        assert main(["compare", *map(str, runs)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["w1"] == report["variational_distance"] == [0.0, 0.0], start


def test_compare_reads_only_the_chains_of_the_latest_run(tmp_path, capsys):
    # A one-chain rerun into a directory that holds three chains of an earlier
    # run removes their trajectory_c* files, and compare pools only its chain.
    config = str(BENCH_CONFIGS / "mixture_multikernel.json")
    out = str(tmp_path / "run")
    assert main(["run", config, "--chains", "3", "--out", out]) == 0
    assert main(["run", config, "--out", out]) == 0
    assert not list(Path(out).glob("trajectory_c*"))
    capsys.readouterr()
    assert main(["compare", out, out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples_a"] == report["samples_b"] == read_json(Path(out) / "metrics.json")["post_samples"]


def test_status_files_describe_the_latest_run(tmp_path, capsys):
    out = tmp_path / "run"
    good = write_config(tmp_path, quadratic_config(out), "good.json")
    failing = write_config(tmp_path, quadratic_config(out, variant="passive_classical", init=[40.0]), "bad.json")
    assert main(["run", good]) == 0
    assert main(["run", failing]) == 1
    assert (out / "failure.json").is_file() and not (out / "metrics.json").exists()
    # A failed run is not a finished one, whatever trajectories it holds.
    assert main(["compare", str(out), str(out)]) == 2
    assert "not a finished run" in capsys.readouterr().err
    assert main(["run", good]) == 0
    assert (out / "metrics.json").is_file() and not (out / "failure.json").exists()


def truncate(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def put_abc(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "2,abc,0.5\n"
    path.write_text("".join(lines))


def put_nan(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "2,nan,0.5\n"
    path.write_text("".join(lines))


def drop_variant(path):
    meta = read_json(path)
    del meta["variant"]
    path.write_text(json.dumps(meta))


def drop_the_last_axis(run):
    for path in run.glob("trajectory*.csv"):
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()))


def set_chains(run, value):
    metrics = read_json(run / "metrics.json")
    metrics["chains"] = value
    (run / "metrics.json").write_text(json.dumps(metrics))


def widen_a_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace("\n", ",1.0\n")
    path.write_text("".join(lines))


# Each damage to a finished run's trajectory files, and the file compare must name.
BAD_TRAJECTORIES = {
    "missing csv": (lambda run: (run / "trajectory_c1.csv").unlink(), "trajectory_c1.csv"),
    "missing json": (lambda run: (run / "trajectory_c0.json").unlink(), "trajectory_c0.json"),
    "abc in a row": (lambda run: put_abc(run / "trajectory_c1.csv"), "trajectory_c1.csv"),
    "a row short": (lambda run: truncate(run / "trajectory_c0.csv"), "trajectory_c0.csv"),
    "json not json": (lambda run: (run / "trajectory_c1.json").write_text("{"), "trajectory_c1.json"),
    "json without num_steps": (
        lambda run: (run / "trajectory_c0.json").write_text('{"burn_in": 2}'), "trajectory_c0.json"),
    "a field too many": (lambda run: widen_a_row(run / "trajectory_c0.csv"), "trajectory_c0.csv"),
    "nan in a row": (lambda run: put_nan(run / "trajectory_c1.csv"), "trajectory_c1.csv"),
    "json without variant": (lambda run: drop_variant(run / "trajectory_c0.json"), "trajectory_c0.json"),
    # The error names the run, not one of its files.
    "one axis fewer": (drop_the_last_axis, ""),
    **{
        f"chains {value}": (lambda run, value=value: set_chains(run, value), "metrics.json")
        for value in ("x", 2.5, None, 0, -1, True)
    },
    # Compare stops at the first missing chain, before making the stems of the rest.
    "chains 10**6": (lambda run: set_chains(run, 10**6), "trajectory_c2.json"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAJECTORIES))
def test_compare_of_a_damaged_run_is_a_config_error(tmp_path, capsys, case):
    damage, name = BAD_TRAJECTORIES[case]
    good, bad = tmp_path / "good", tmp_path / "bad"
    config = quadratic_config(good)
    del config["baseline"]
    assert main(["run", write_config(tmp_path, config, "a.json")]) == 0
    config["output"] = str(bad)
    assert main(["run", write_config(tmp_path, config, "b.json"), "--chains", "2"]) == 0
    damage(bad)
    capsys.readouterr()
    out = tmp_path / "cmp"
    tracemalloc.start()
    try:
        assert main(["compare", str(good), str(bad), "--out", str(out)]) == 2
        assert tracemalloc.get_traced_memory()[1] < 10 * 2**20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad / name) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
def test_an_out_no_directory_can_take_is_a_config_error(tmp_path, capsys, command, under):
    # Exit 2, nothing written and the file left as it was, not an OSError traceback.
    config = quadratic_config(tmp_path / "run")
    del config["baseline"]
    path = write_config(tmp_path, config)
    if command == "compare":
        assert main(["run", path]) == 0
    before = sorted(tmp_path.rglob("*"))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    argv = ["run", path] if command == "run" else ["compare", str(tmp_path / "run"), str(tmp_path / "run")]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: output directory: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert blocker.read_text() == "kept"
    assert sorted(tmp_path.rglob("*")) == sorted([*before, blocker])


def test_a_rerun_removes_the_files_of_an_earlier_run(tmp_path):
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["baseline"]["chains"] = 2
    config["analysis"] = {"grid": [[-3.0, 3.0, 10], [-3.0, 3.0, 10]]}
    assert main(["run", write_config(tmp_path, config), "--chains", "2"]) == 0
    assert {"baseline_c1.csv", "density.csv", "baseline_density.csv"} <= {p.name for p in out.iterdir()}
    (out / "notes.txt").write_text("not written by a run")
    config = quadratic_config(out)
    del config["baseline"]
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "metrics.json", "notes.txt", "trajectory.csv", "trajectory.json"]


# sha256 of every chain file of the run below, computed when the baseline ran
# after the sampler in one process and csv.writer wrote every row: how the
# chain sets are scheduled and how their files are written must keep each byte.
# They hold for this numpy release and CPU, as the byte table's digests do.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_MACHINE = "x86_64"
GOLDEN_FILES = {
    "baseline_c0.csv": "1924bf67175dad19492ec9bd04c0af9a53ad1eabc7f55adc992888f845280b7c",
    "baseline_c0.json": "8d3bf888104d26f2fad2ada9e557f8cc7702069b1b7cb0974baa67df35b8d80e",
    "baseline_c1.csv": "84dce0f9882c4d6a94e2e17afbb18c3c6d7976adbf5e379da77b54743a03107b",
    "baseline_c1.json": "884ff9d9f9a9966e2fd2631b4b32af6ab53982b8dc212fc9fb53fe31eded660b",
    "trajectory_c0.csv": "53838e3dbdf0f87d0cf74caed7d6fbcdcd710ddbf68fa7c70b1b8b28c80f4897",
    "trajectory_c0.json": "257c5e650533190a2db47997d1f71528b14a957e403ff5a86d894afa4de8df69",
    "trajectory_c1.csv": "c96d0188b1ce755c34bb30a9267109e749a1d89a7c7aa5da89648b26d5660483",
    "trajectory_c1.json": "257c5e650533190a2db47997d1f71528b14a957e403ff5a86d894afa4de8df69",
}


def test_chain_files_match_golden_digests(tmp_path):
    # Two sampler chains and two baseline chains; 2101 baseline rows span
    # three of the CSV writer's blocks.
    out = tmp_path / "run"
    config = with_noisy_baseline(out)
    config["baseline"]["num_steps"] = 2100
    assert main(["run", write_config(tmp_path, config), "--chains", "2"]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir() if p.name.startswith(("trajectory", "baseline"))
    }
    assert_digest_table(digests, GOLDEN_FILES, GOLDEN_NUMPY, GOLDEN_MACHINE)


@pytest.mark.parametrize("rows", [1, 1024, 2053])
def test_save_trajectory_writes_the_csv_module_bytes(tmp_path, rows):
    special = [1e-05, 1e16, -0.0, 5e-324, 0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308, 123456789.0]
    # Where repr switches to exponent form, and the floats next to those bounds.
    bounds = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16]
    special += bounds + [-value for value in bounds]
    samples = np.random.default_rng(0).standard_normal((rows, 3)) * 10.0 ** np.arange(-8, 10, 6)
    samples.flat[: len(special)] = special[: samples.size]
    traj = Trajectory(samples=samples, burn_in=0, variant=CLASSICAL, fingerprint="0")
    csv_path, _ = save_trajectory(traj, SamplerConfig(step=0.1, beta=1.0, init=np.zeros(3)), tmp_path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["step", "est_1", "est_2", "est_3"])
    writer.writerows([i, *row] for i, row in enumerate(samples.tolist()))
    assert Path(csv_path).read_bytes() == want.getvalue().encode()


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child process `os.fork` starts during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(pids, count=1):
    assert len(pids) == count
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert_no_children()


def assert_no_children():
    # The benchmark refuses a run that leaves a process behind.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the run sees to `n`."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_count


def failing_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def test_sampler_failure_kills_the_baseline_worker(tmp_path, monkeypatch, capfd, forks, deadline):
    # The sampler chain fails at its first step (see test_density_floor_failure_is_recorded),
    # here only once the worker has written its baseline files.
    out = tmp_path / "run"
    run_chains = langirl.cli.run_chains

    def after_the_baseline_files(variant, *args, **kwargs):
        while variant != CLASSICAL and not (out / "baseline.json").exists():
            time.sleep(0.001)
        return run_chains(variant, *args, **kwargs)

    monkeypatch.setattr(langirl.cli, "run_chains", after_the_baseline_files)
    config = quadratic_config(out, variant="passive_classical", init=[40.0])
    assert main(["run", write_config(tmp_path, config)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["failure.json", "manifest.json"]
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("sampler", "DensityFloorError")
    assert "Traceback" not in capfd.readouterr().err
    assert_reaped(forks)


def test_baseline_divergence_is_recorded(tmp_path, forks, deadline):
    # Classical Langevin at step 100 on curvature 1 multiplies the estimate
    # by about -49 per step, so it overflows within 200 steps.
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["baseline"].update(step=100.0, num_steps=500)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", write_config(tmp_path, config)]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("baseline", "NonFiniteError")
    assert sorted(p.name for p in out.iterdir()) == [
        "failure.json", "manifest.json", "trajectory.csv", "trajectory.json"]
    assert_reaped(forks)


@pytest.mark.parametrize("phase", ["sampler", "baseline"])
def test_a_trajectory_too_large_to_allocate_is_a_failure(tmp_path, capfd, forks, deadline, phase):
    # No corpus bounds an oracle run's step count. 10**15 steps of a 2-D chain
    # are 14 PiB of samples, beyond any address space, so the allocation fails
    # at once; the baseline worker sends its MemoryError back to the run.
    out = tmp_path / "run"
    config = mixture_config(out)
    if phase == "sampler":
        config["sampler"]["num_steps"] = 10**15
    else:
        config["baseline"] = {"step": 0.1, "num_steps": 10**15}
    assert main(["run", write_config(tmp_path, config)]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == (phase, "MemoryError")
    assert failure["message"].startswith("Unable to allocate")
    assert "Traceback" not in capfd.readouterr().err
    written = ["trajectory.csv", "trajectory.json"] if phase == "baseline" else []
    assert sorted(p.name for p in out.iterdir()) == ["failure.json", "manifest.json", *written]
    assert_reaped(forks, count=phase == "baseline")


def test_a_worker_ending_without_a_result_is_a_failure(tmp_path, monkeypatch, forks, deadline):
    out = tmp_path / "run"
    monkeypatch.setattr(langirl.cli, "_baseline_chains", lambda exp, outdir: os._exit(3))
    assert main(["run", write_config(tmp_path, quadratic_config(out))]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("baseline", "ChildProcessError")
    assert "exit status 3" in failure["message"]
    assert not (out / "metrics.json").exists()
    assert_reaped(forks)


def test_a_run_ended_by_a_signal_takes_its_worker_with_it(tmp_path):
    # A run ended by SIGTERM gets no chance to kill its worker; the worker
    # must not outlive it and write its baseline files. It holds the stderr
    # pipe too, so `communicate` returns only once the worker has exited.
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["forward"]["num_agents"] = 200_000  # a sampler phase of about a second
    config["baseline"]["num_steps"] = 100_000  # a baseline of a few tenths of a second
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "langirl.cli", "run", write_config(tmp_path, config)]
    proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": str(root / "src")},
                            stderr=subprocess.PIPE, text=True)
    while not (out / "manifest.json").exists() and proc.poll() is None:
        time.sleep(0.001)
    time.sleep(0.05)  # the worker is forked right after the manifest is written
    proc.terminate()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGTERM
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert "Traceback" not in err


def cmdp_config(output):
    # At step 1e-6 the chain leaves the angle box (most samples off it), which is a failure.
    return {
        "schema": 1,
        "experiment": "cli-cmdp",
        "seed": 0,
        "output": str(output),
        "problem": {"kind": "cmdp", "horizon": 20, "perturbation": 0.05},
        "sampler": {"variant": "multikernel", "step": 1e-7, "beta": 1.0, "pool_size": 2,
                    "conditional_std": 0.3, "init": [0.8, 0.8], "num_steps": 401},
    }


def quadratic_corpus(root):
    # The corpus as the runner builds it: oracle stream 0, agents 5, shuffle 1.
    density = InitDensity.standard(2)
    oracle = synthetic.quadratic_oracle(1.0, 0.0, 0.0, root.child(0))
    corpus = run_agent_pool(oracle, density, AgentPoolConfig(0.05, 200, 1), root.child(5))
    return corpus.shuffled(root.child(1)), density


def corpus_chains(root):
    corpus, density = quadratic_corpus(root)
    cfg = SamplerConfig(step=0.2, beta=1.0, init=np.zeros(2), kernel=Kernel(0.5, 2),
                        init_density=density)
    return {
        f"trajectory_c{chain}": run_sampler(PASSIVE_GENERALIZED, corpus, cfg, len(corpus), root.child(10 + chain))
        for chain in range(3)
    }


def oracle_config(output, problem, **sampler):
    return {
        "schema": 1,
        "experiment": "cli-oracle",
        "seed": 3,
        "output": str(output),
        "problem": problem,
        "sampler": {"step": 0.05, "beta": 1.0, "init": [0.5, -0.5], "num_steps": 300, **sampler},
    }


def classical_chains(root):
    # Each chain queries its own noisy oracle, on stream 40 + chain.
    cfg = SamplerConfig(step=0.05, beta=1.0, init=np.array([0.5, -0.5]))
    return {
        f"trajectory_c{chain}": run_sampler(
            CLASSICAL, synthetic.quadratic_oracle(1.0, 0.0, 0.5, root.child(40 + chain)), cfg, 300,
            root.child(10 + chain))
        for chain in range(3)
    }


def active_chains(root):
    model = mixture.MixtureModel(np.array([-1.0, 2.0]))
    cfg = SamplerConfig(step=0.05, beta=1.0, init=np.array([0.5, -0.5]), kernel=Kernel(0.5, 2),
                        conditional_std=0.5)
    return {
        f"trajectory_c{chain}": run_sampler(
            ACTIVE, mixture.make_stream_oracle(model, root.child(40 + chain)), cfg, 300, root.child(10 + chain))
        for chain in range(3)
    }


def cmdp_chains(root):
    # Each chain reads its own SPSA pools, drawn on stream 40 + chain, in three
    # chunks of 200, 200 and 1 pools, however the run splits them among workers.
    cfg = SamplerConfig(step=1e-7, beta=1.0, init=np.array([0.8, 0.8]), pool_size=2, conditional_std=0.3)
    model = cmdp.CmdpModel.two_state_example()
    return {
        f"trajectory_c{chain}": run_sampler(
            MULTIKERNEL, make_angle_pool_source(model, 2, 401, 20, 0.05, root.child(40 + chain)), cfg, 401,
            root.child(10 + chain))
        for chain in range(3)
    }


def baseline_chains(root):
    # Baseline chain c starts at a draw from its noise stream 3/c and queries
    # its oracle on stream 2/c.
    want = {}
    for chain in range(2):
        noise = root.child(3).child(chain)
        cfg = SamplerConfig(step=0.1, beta=1.0, init=InitDensity.standard(2).sample(noise))
        oracle = synthetic.quadratic_oracle(1.0, 0.0, 0.5, root.child(2).child(chain))
        want[f"baseline_c{chain}"] = run_sampler(CLASSICAL, oracle, cfg, 150, noise)
    return want


def sampled_classical_chains(root):
    # With no forward section, `init: "sample"` draws chain c's start from N(0, I) on its noise stream 10 + c.
    want = {}
    for chain in range(2):
        noise = root.child(10 + chain)
        cfg = SamplerConfig(step=0.05, beta=1.0, init=InitDensity.standard(2).sample(noise))
        oracle = synthetic.quadratic_oracle(1.0, 0.0, 0.5, root.child(40 + chain))
        want[f"trajectory_c{chain}"] = run_sampler(CLASSICAL, oracle, cfg, 300, noise)
    return want


def with_noisy_baseline(output):
    config = quadratic_config(output)
    config["problem"]["noise_std"] = 0.5
    config["baseline"].update(chains=2, init="sample")
    return config


CHAIN_CASES = {
    "passive_generalized": (quadratic_config, 3, corpus_chains),
    "classical": (
        lambda out: oracle_config(out, {"kind": "quadratic", "dim": 2, "noise_std": 0.5}, variant="classical"),
        3, classical_chains),
    "active": (
        lambda out: oracle_config(out, {"kind": "mixture", "true_param": [-1.0, 2.0]}, variant="active",
                                  kernel={"bandwidth": 0.5}, conditional_std=0.5),
        3, active_chains),
    "classical-sampled-start": (
        lambda out: oracle_config(out, {"kind": "quadratic", "dim": 2, "noise_std": 0.5}, variant="classical",
                                  init="sample"),
        2, sampled_classical_chains),
    "cmdp": (cmdp_config, 3, cmdp_chains),
    "baseline": (with_noisy_baseline, 1, baseline_chains),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_batched_chains_match_one_chain_runs(tmp_path, case):
    make_config, chains, expected = CHAIN_CASES[case]
    out = tmp_path / "run"
    config = make_config(out)
    assert main(["run", write_config(tmp_path, config), "--chains", str(chains)]) == 0
    for stem, want in expected(RngStream(config["seed"])).items():
        got, _ = load_trajectory(out, stem=stem)
        np.testing.assert_array_equal(got.samples, want.samples)
        assert got.fingerprint == want.fingerprint
        assert got.underflow_resets == want.underflow_resets


@pytest.mark.parametrize("chains", [1, 3])
def test_cmdp_pools_do_not_depend_on_the_cpu_count(tmp_path, cpus, forks, deadline, chains):
    # 401 steps are three pool chunks: no worker on one CPU, one on two, two on three.
    # The run writes every chain's files itself.
    files = {}
    for count in (1, 2, 3):
        cpus(count)
        out = tmp_path / f"cpus{count}"
        assert main(["run", write_config(tmp_path, cmdp_config(out)), "--chains", str(chains)]) == 0
        files[count] = {p.name: p.read_bytes() for p in out.iterdir() if p.name.startswith("trajectory")}
    assert len(files[1]) == 2 * chains
    assert files[1] == files[2] == files[3]
    assert_reaped(forks, count=0 + 1 + 2)


@pytest.mark.parametrize("make_config", [with_noisy_baseline, cmdp_config], ids=["baseline", "cmdp"])
def test_a_failed_fork_runs_the_call_in_the_run(tmp_path, monkeypatch, cpus, forks, deadline, make_config):
    # When os.fork fails (EAGAIN, ENOMEM), the run makes the worker's call
    # itself: the same bytes, exit 0, and no pipe left open.
    cpus(2)
    forked, unforked = tmp_path / "forked", tmp_path / "unforked"
    assert main(["run", write_config(tmp_path, make_config(forked)), "--chains", "2"]) == 0
    # The baseline or pool worker; the run writes both sampler chains' files itself.
    assert_reaped(forks, count=1)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = open_fds()
    assert main(["run", write_config(tmp_path, make_config(unforked)), "--chains", "2"]) == 0
    assert open_fds() == fds
    names = sorted(p.name for p in forked.iterdir())
    assert names == sorted(p.name for p in unforked.iterdir())
    for name in names:
        if name == "metrics.json":
            want, got = read_json(forked / name), read_json(unforked / name)
            assert want.pop("timings_seconds").keys() == got.pop("timings_seconds").keys()
            assert got == want
        elif name != "manifest.json":  # it names the output directory
            assert (unforked / name).read_bytes() == (forked / name).read_bytes(), name


def in_a_worker(action):
    """A `_pool_chunks` that ends in `action()` in a forked worker, and computes the run's own share."""
    parent, pool_chunks = os.getpid(), langirl.cli._pool_chunks
    return lambda *args: pool_chunks(*args) if os.getpid() == parent else action()


def test_a_pool_worker_ending_without_a_result_is_a_failure(tmp_path, monkeypatch, cpus, forks, deadline):
    cpus(2)
    out = tmp_path / "run"
    monkeypatch.setattr(langirl.cli, "_pool_chunks", in_a_worker(lambda: os._exit(3)))
    assert main(["run", write_config(tmp_path, cmdp_config(out))]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("sampler", "ChildProcessError")
    assert "exit status 3" in failure["message"]
    assert sorted(p.name for p in out.iterdir()) == ["failure.json", "manifest.json"]
    assert_reaped(forks)


def test_sampler_failure_kills_the_pool_worker(tmp_path, monkeypatch, cpus, forks, deadline):
    # The worker would run for ten minutes; the failed run must end it.
    cpus(2)
    out = tmp_path / "run"
    monkeypatch.setattr(langirl.cli, "_pool_chunks", in_a_worker(lambda: time.sleep(600)))

    def fails_at_the_first_step(variant, source, *args, **kwargs):
        next(iter(source))
        raise NonFiniteError("sampler step 1: non-finite estimate")

    monkeypatch.setattr(langirl.cli, "run_chains", fails_at_the_first_step)
    assert main(["run", write_config(tmp_path, cmdp_config(out))]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("sampler", "NonFiniteError")
    assert_reaped(forks)


def chain_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name.startswith(("trajectory_c", "baseline_c"))}


def mixture_with_baseline_chains(output):
    config = load_config(BENCH_CONFIGS / "mixture_gated.json")
    config["output"] = str(output)
    config["forward"]["num_agents"] = 2000
    config["baseline"].update(num_steps=2500, chains=2)
    return config


@pytest.mark.parametrize("failure", ["none", "fork"])
def test_chain_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, cpus, forks, deadline, failure):
    # Three sampler chains and two baseline chains: the run writes the sampler
    # chains' files, and the baseline worker both baseline chains' files.
    files = {}
    for count in (2, 1):
        cpus(count)
        out = tmp_path / f"cpus{count}"
        assert main(["run", write_config(tmp_path, mixture_with_baseline_chains(out))]) == 0
        files[count] = chain_files(out)
    # The baseline worker on two CPUs, and on one.
    assert_reaped(forks, count=1 + 1)
    if failure == "fork":
        cpus(2)
        monkeypatch.setattr(os, "fork", failing_fork)
        out = tmp_path / "unforked"
        fds = open_fds()
        assert main(["run", write_config(tmp_path, mixture_with_baseline_chains(out))]) == 0
        assert open_fds() == fds
        files["fork failed"] = chain_files(out)
    assert len(files[1]) == 2 * (3 + 2)
    assert all(got == files[1] for got in files.values())


@pytest.mark.parametrize("where", ["run", "baseline"])
def test_a_failed_chain_writer_ends_the_run(tmp_path, monkeypatch, cpus, forks, deadline, capfd, where):
    # Three chains on two CPUs: the run writes every sampler chain's files, and
    # the baseline worker, forked before the sampler phase, the baseline's.
    cpus(2)
    out = tmp_path / "run"
    parent = os.getpid()
    save = langirl.cli.save_trajectory

    def failing_save(traj, cfg, outdir, stem):
        if (os.getpid() == parent) == (where == "run"):
            raise OSError(28, "No space left on device")
        return save(traj, cfg, outdir, stem=stem)

    monkeypatch.setattr(langirl.cli, "save_trajectory", failing_save)
    config = quadratic_config(out)
    if where == "run":
        del config["baseline"]
    assert main(["run", write_config(tmp_path, config), "--chains", "3"]) == 1
    failure = read_json(out / "failure.json")
    want = ("sampler", "OSError") if where == "run" else ("baseline", "ChildProcessError")
    assert (failure["phase"], failure["error"]) == want
    assert "No space left" in capfd.readouterr().err
    assert not (out / "metrics.json").exists()
    assert_reaped(forks, count=0 if where == "run" else 1)


def test_the_baseline_worker_writes_its_files_itself(tmp_path, cpus, forks):
    # Stopping the baseline worker must stop every baseline write, so the
    # worker forks no writer of its own, even for several chains on several CPUs.
    cpus(2)
    exp = _Experiment(resolve_config(mixture_with_baseline_chains(tmp_path / "run")))
    density, timings = langirl.cli._baseline_chains(exp, str(tmp_path))
    assert forks == []
    assert sorted(p.name for p in tmp_path.glob("baseline_c*")) == [
        f"baseline_c{chain}.{ext}" for chain in range(2) for ext in ("csv", "json")
    ]
    # It sends back the density of the samples it wrote, bit for bit, not the samples.
    posts = [load_trajectory(tmp_path, stem=f"baseline_c{chain}")[0].post for chain in range(2)]
    assert density.mass.tobytes() == build_density(np.vstack(posts), exp.grid).mass.tobytes()
    assert timings.keys() == {"baseline", "write", "analysis"}


def test_a_baseline_without_a_grid_returns_no_density(tmp_path):
    exp = _Experiment(resolve_config(quadratic_config(tmp_path / "run")))
    density, timings = langirl.cli._baseline_chains(exp, str(tmp_path))
    assert density is None
    assert timings.keys() == {"baseline", "write"}
    assert (tmp_path / "baseline.csv").is_file()


def test_a_run_drops_each_phase_data_once_it_is_read(tmp_path, monkeypatch, forks, deadline):
    # The forward corpus must be gone before the trajectory writes, and the
    # sampler chains' samples, once pooled, before the analysis: the run's
    # peak memory would hold them otherwise.
    config = load_config(BENCH_CONFIGS / "quad_chains.json")
    config["output"] = str(tmp_path / "run")
    config["forward"]["num_agents"] = 2000
    config["baseline"]["num_steps"] = 2000
    alive, held = {}, {}
    chain_source, chains = langirl.cli._chain_source, langirl.cli.run_chains
    save_chains, analyze = langirl.cli._save_chains, langirl.cli._analyze

    def keep_corpus(exp, kind, corpus, rngs):
        if corpus is not None:
            alive["corpus"], alive["corpus rows"] = weakref.ref(corpus), weakref.ref(corpus.points)
        return chain_source(exp, kind, corpus, rngs)

    def keep_samples(*args, **kwargs):
        trajs = chains(*args, **kwargs)
        alive["samples"] = weakref.ref(trajs[0].samples.base)
        return trajs

    def holding(phase, names):
        held[phase] = [name for name in names if alive[name]() is not None]

    def saving(trajs, cfg, outdir, name):
        if name == "trajectory":  # the baseline worker's own writes run in its process
            holding("write", ["corpus", "corpus rows"])
        return save_chains(trajs, cfg, outdir, name)

    def analyzing(*args):
        holding("analysis", ["corpus", "corpus rows", "samples"])
        return analyze(*args)

    monkeypatch.setattr(langirl.cli, "_chain_source", keep_corpus)
    monkeypatch.setattr(langirl.cli, "run_chains", keep_samples)
    monkeypatch.setattr(langirl.cli, "_save_chains", saving)
    monkeypatch.setattr(langirl.cli, "_analyze", analyzing)
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert held == {"write": [], "analysis": []}
    assert_reaped(forks)


def test_a_runaway_cmdp_chain_is_a_failure(tmp_path, capsys):
    # A huge step throws the angles far off the box at the first step:
    # finite estimates whose pooled variance would overflow. The box check
    # ends the run before the analysis pools them.
    config = load_config(BENCH_CONFIGS / "cmdp_spsa.json")
    config["output"] = str(tmp_path / "run")
    config["problem"]["horizon"] = 20
    config["sampler"].update(step=1e300, pool_size=2, num_steps=401)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", write_config(tmp_path, config)]) == 1
    out = tmp_path / "run"
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("analysis", "DomainError")
    assert " at sampler step 1 are off " in failure["message"]
    assert not (out / "metrics.json").exists()
    assert "run complete" not in capsys.readouterr().out


def test_a_pooled_variance_overflow_is_a_failure(tmp_path, capsys):
    # Finite estimates near 1e200 that shrink by a twentieth a step: their
    # pooled variance overflows. The run must not report it as a result.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="classical", init=[1e200, 1e200], num_steps=10, burn_in=0, step=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", write_config(tmp_path, config)]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("analysis", "NonFiniteError")
    assert failure["message"].startswith("pooled mean ")
    assert not (out / "metrics.json").exists()
    assert "run complete" not in capsys.readouterr().out


def test_a_chain_that_never_moved_has_variance_zero(tmp_path):
    # Sixteen rows of 1e300: their mean is an ulp off, and the squared
    # residual about it overflows although the true variance is 0.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="classical", init=[1e300, 1e300], num_steps=15, burn_in=0, step=1e-30)
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert (load_trajectory(out)[0].samples == 1e300).all()
    assert read_json(out / "metrics.json")["variance"] == [0.0, 0.0]


@pytest.mark.parametrize("init", [[-1e300, -1e300], [1e300, 0.0]], ids=["negative", "one-coordinate"])
def test_only_a_coordinate_whose_variance_overflows_is_recomputed(tmp_path, init):
    # A coordinate that starts at 0 moves by noise of size 1e-15; its variance is today's, to the bit.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="classical", init=init, num_steps=15, burn_in=0, step=1e-30)
    assert main(["run", write_config(tmp_path, config)]) == 0
    samples = load_trajectory(out)[0].samples
    variance = read_json(out / "metrics.json")["variance"]
    with np.errstate(over="ignore"):
        today = samples.var(axis=0)
    for axis, start in enumerate(init):
        if start:
            assert (samples[:, axis] == start).all() and variance[axis] == 0.0
        else:
            assert variance[axis] == today[axis] > 0.0


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_the_baseline_runs_at_the_sampler_beta(tmp_path, beta):
    # The baseline is the reference chain for the sampler's law, which beta sets.
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, quadratic_config(out, beta=beta))]) == 0
    assert read_json(out / "baseline.json")["config"]["beta"] == beta
    assert read_json(out / "trajectory.json")["config"]["beta"] == beta


def test_a_multikernel_conditional_std_whose_square_is_normal_runs(tmp_path):
    # 1e-150 squares to 1e-300: no division by 0, although every step's weights underflow and reset.
    out = tmp_path / "run"
    config = quadratic_config(out, variant=MULTIKERNEL, pool_size=4, num_steps=10, conditional_std=1e-150)
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert read_json(out / "trajectory.json")["underflow_resets"] == 10


def test_a_cmdp_chain_off_the_angle_box_is_a_failure(tmp_path, capsys):
    # Step 100 throws the angles far off the box while they stay finite; the
    # periodic policy map would still turn them into plausible policies.
    config = load_config(BENCH_CONFIGS / "cmdp_spsa.json")
    config["output"] = str(tmp_path / "run")
    config["problem"]["horizon"] = 20
    config["sampler"].update(step=100, pool_size=2, num_steps=401)
    assert main(["run", write_config(tmp_path, config)]) == 1
    out = tmp_path / "run"
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("analysis", "DomainError")
    samples = load_trajectory(out)[0].samples
    off = ((samples < 0.0) | (samples > math.pi / 2)).any(axis=1)
    first = int(np.argmax(off))
    assert failure["message"].startswith(f"chain 0: angles {samples[first].tolist()} at sampler step {first} ")
    assert not (out / "metrics.json").exists()


def test_a_cmdp_chain_off_the_box_only_in_burn_in_is_a_failure(tmp_path, monkeypatch, capsys):
    # Chain 1 leaves the box at step 5 of its 40 burn-in steps and comes
    # back; the post-burn-in rows alone would pass.
    out = tmp_path / "run"
    run_chains = langirl.cli.run_chains

    def off_in_burn_in(*args, **kwargs):
        trajs = run_chains(*args, **kwargs)
        trajs[1].samples[5] = [2.0, 0.8]
        return trajs

    monkeypatch.setattr(langirl.cli, "run_chains", off_in_burn_in)
    assert main(["run", write_config(tmp_path, cmdp_config(out)), "--chains", "2"]) == 1
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("analysis", "DomainError")
    assert failure["message"] == "chain 1: angles [2.0, 0.8] at sampler step 5 are off [0.0, 1.5707963267948966]"
    # The set's files were written before the check.
    traj = load_trajectory(out, stem="trajectory_c1")[0]
    assert traj.burn_in == 40 and traj.samples[5].tolist() == [2.0, 0.8]
    assert not (out / "metrics.json").exists()
    assert "run complete" not in capsys.readouterr().out
    assert "run complete" not in capsys.readouterr().out


def test_cmdp_bench_config_samples_near_the_constraint_bound(tmp_path):
    # The CMDP law, read from the trajectory rather than from metrics.json: the
    # chain stays on the angle box, and most samples are policies whose exact
    # stationary constraint cost (the balance equations) is near the bound.
    path = BENCH_CONFIGS / "cmdp_spsa.json"
    config = load_config(path)
    assert config["problem"]["model"] == "two-state"
    out = tmp_path / "run"
    assert main(["run", str(path), "--seed", "0", "--out", str(out)]) == 0
    post = load_trajectory(out)[0].post
    assert len(post) == 721  # 800 steps, the first 80 dropped
    assert np.all((post >= 0.0) & (post <= math.pi / 2))
    model = cmdp.CmdpModel.two_state_example()
    _, _, costs = cmdp.stationary_joint_batch(model, cmdp.spherical_to_policy(post.reshape(-1, 2, 1)))
    near = np.abs(costs - model.constraint_bound) < config["analysis"]["constraint_tolerance"]
    assert near.mean() >= 0.9


def three_state_model(P):
    """A CMDP model file's content with the same transition matrix `P` under both actions."""
    return {"states": 3, "actions": 2, "P": [P, P], "rho": [[1.0, 2.0]] * 3,
            "constraint_cost": [[0.5, 1.5], [0.5, 1.5], [5.0, 5.0]], "gamma": 1.0, "lambda": 10.0}


@pytest.mark.parametrize("P, code", [
    # States 0 and 1 swap, state 2 moves to 0: a unichain of period 2.
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 0),
    # Every state absorbing: no policy has one stationary law.
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1),
], ids=["periodic", "all-absorbing"])
def test_a_periodic_cmdp_model_runs_and_an_absorbing_one_fails(tmp_path, capsys, P, code):
    out = tmp_path / "run"
    config = cmdp_config(out)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(three_state_model(P)))
    config["problem"]["model"] = str(model)
    config["sampler"]["init"] = [0.8, 0.8, 0.8]
    assert main(["run", write_config(tmp_path, config)]) == code
    assert load_trajectory(out)[0].samples.shape == (402, 3)
    if code == 0:
        # P does not depend on the action, so every policy's state law is (1/2, 1/2, 0).
        metrics = read_json(out / "metrics.json")
        phi = cmdp.spherical_to_policy(load_trajectory(out)[0].post.reshape(-1, 3, 1))
        cost = 0.5 * (phi[:, :2] @ [0.5, 1.5]).sum(axis=1)
        near = np.abs(cost - 1.0) < metrics["constraint_tolerance"]
        assert metrics["constraint_near_fraction"] == near.mean()
        assert not (out / "failure.json").exists()
    else:
        failure = read_json(out / "failure.json")
        assert (failure["phase"], failure["error"]) == ("analysis", "DomainError")
        assert "more than one recurrent class" in failure["message"]
        assert not (out / "metrics.json").exists()
        assert "run complete" not in capsys.readouterr().out


def test_zero_num_steps_runs_zero_steps(tmp_path):
    # An explicit 0 is not the whole corpus: the chain stays at its start.
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, quadratic_config(out, num_steps=0))]) == 0
    traj, meta = load_trajectory(out)
    assert meta["num_steps"] == 0
    np.testing.assert_array_equal(traj.samples, [[0.0, 0.0]])
    assert read_json(out / "metrics.json")["post_samples"] == 1


def test_paper_scale_merges_its_overlay(tmp_path):
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["scales"] = {"paper": {"sampler": {"num_steps": 50}, "baseline": {"num_steps": 20}}}
    assert main(["run", write_config(tmp_path, config), "--scale", "paper"]) == 0
    resolved = read_json(out / "manifest.json")["config"]
    assert resolved["scale"] == "paper" and "scales" not in resolved
    # The overlay replaces only the fields it names.
    assert resolved["sampler"] == {**config["sampler"], "num_steps": 50}
    assert resolved["baseline"] == {"step": 0.1, "num_steps": 20}
    assert load_trajectory(out)[1]["num_steps"] == 50
    assert load_trajectory(out, stem="baseline")[1]["num_steps"] == 20


@pytest.mark.parametrize("flags", [[], ["--scale", "paper"]], ids=["desk", "paper"])
def test_a_scale_overlay_not_an_object_is_a_config_error(tmp_path, capsys, flags):
    # Every overlay is checked, whether the run selects it or not.
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["scales"] = {"paper": [1]}
    assert main(["run", write_config(tmp_path, config), *flags]) == 2
    assert "scales.paper: must be an object" in capsys.readouterr().err
    assert not out.exists()


def test_a_scale_the_config_defines_runs_under_its_name(tmp_path):
    # --scale takes any scale the config defines, not only desk and paper.
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["scales"] = {"tiny": {"sampler": {"num_steps": 20}}}
    assert main(["run", write_config(tmp_path, config), "--scale", "tiny"]) == 0
    assert read_json(out / "manifest.json")["config"]["scale"] == "tiny"
    assert load_trajectory(out)[1]["num_steps"] == 20


def test_a_config_s_own_scale_selects_its_overlay(tmp_path, capsys):
    # `--scale` may repeat the config's own scale, not replace it.
    config = quadratic_config(None)
    config["scales"] = {"paper": {"sampler": {"num_steps": 50}}}
    config["scale"] = "paper"
    for flags in ([], ["--scale", "paper"]):
        out = tmp_path / f"run{len(flags)}"
        assert main(["run", write_config(tmp_path, config), "--out", str(out), *flags]) == 0
        assert read_json(out / "manifest.json")["config"]["scale"] == "paper"
        assert load_trajectory(out)[1]["num_steps"] == 50
    assert main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "desk"), "--scale", "desk"]) == 2
    assert "scale: this config names scale 'paper', not 'desk'" in capsys.readouterr().err
    config["scale"] = "tiny"
    assert main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "tiny")]) == 2
    assert "scales.tiny: not defined" in capsys.readouterr().err
    assert not (tmp_path / "desk").exists() and not (tmp_path / "tiny").exists()


def test_undefined_scale_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, quadratic_config(out)), "--scale", "paper"]) == 2
    assert "scales.paper: not defined" in capsys.readouterr().err
    assert not out.exists()


def test_divergence_failure_is_recorded(tmp_path):
    # Classical Langevin with step * curvature / 2 = 25 multiplies the
    # estimate by about -24 per step until it overflows. Both chains overflow
    # at the same step, and a tie names the lowest chain.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="classical", step=50.0, num_steps=500)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", write_config(tmp_path, config), "--chains", "2"]) == 1
    failure = read_json(out / "failure.json")
    assert failure["phase"] == "sampler"
    assert failure["error"] == "NonFiniteError"
    assert re.fullmatch(r"chain 0: estimate became non-finite at sampler step \d+", failure["message"])
    assert not (out / "metrics.json").exists()


def test_failure_in_a_later_chain_names_it(tmp_path):
    # At this step size the classical form's noise carries some chain into
    # the density floor within a few steps; with seed 3 chain 0 is not first.
    out = tmp_path / "run"
    config = quadratic_config(out, variant="passive_classical", step=50.0)
    assert main(["run", write_config(tmp_path, config), "--chains", "3"]) == 1
    failure = read_json(out / "failure.json")
    assert failure["phase"] == "sampler"
    assert failure["error"] == "DensityFloorError"
    assert re.fullmatch(r"chain [12]: initialization density .* at sampler step \d+", failure["message"])
    # Chains run together, so no chain's trajectory is written.
    assert not list(out.glob("trajectory*"))


@pytest.mark.parametrize(
    "change",
    [
        {"sampler": {"variant": "classical"}},
        {"sampler": {"variant": "active", "kernel": {"bandwidth": 0.5}}},
        {"baseline": {"step": 0.1, "num_steps": 10}},
        {"forward": {"step": 0.1, "num_agents": 10, "run_length": 1}},
    ],
)
def test_cmdp_needing_a_gradient_oracle_is_a_config_error(tmp_path, capsys, change):
    out = tmp_path / "run"
    config = cmdp_config(out)
    for section, fields in change.items():
        config[section] = {**config.get(section, {}), **fields}
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert "has no gradient oracle" in capsys.readouterr().err
    assert not (out / "failure.json").exists()


@pytest.mark.parametrize("field, value", [("horizon", 0), ("perturbation", 0.0), ("perturbation", -0.05)])
def test_cmdp_bad_horizon_or_perturbation_fails_before_any_output(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    config = cmdp_config(out)
    config["problem"][field] = value
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert f"problem.{field}" in capsys.readouterr().err
    assert not out.exists()


MISSING = object()


def mixture_config(output):
    return oracle_config(output, {"kind": "mixture", "true_param": [-1.0, 2.0]}, variant="classical")


def corpus_pools_config(output):
    return quadratic_config(output, variant=MULTIKERNEL, pool_size=4, conditional_std=0.5)


def nonreversible_config(output):
    return quadratic_config(output, variant="nonreversible", skew=[[0.0, 0.4], [-0.4, 0.0]])


# A value of each sampler field some variant does not read.
OPTIONAL_SAMPLER_FIELDS = {"kernel": {"bandwidth": 0.5}, "conditional_std": 0.5, "skew": [[0.0, 0.4], [-0.4, 0.0]],
                           "pool_size": 4}


def sampler_fields_read(variant):
    """The optional sampler fields `variant` reads: its row's `needs`, and `pool_size` for a pool variant."""
    row = VARIANTS[variant]
    return {*row.needs, *(("pool_size",) if row.source == POOL else ())} & OPTIONAL_SAMPLER_FIELDS.keys()


# Every (variant, field it does not read) pair, so that a new variant is covered.
UNREAD_SAMPLER_FIELD_ROWS = [
    pytest.param(functools.partial(quadratic_config, variant=variant, num_steps=10), f"sampler.{field}", value,
                 f"sampler.{field}: not read by sampler.variant {variant!r}", id=f"{variant}-reads-no-{field}")
    for variant in sorted(VARIANTS)
    for field, value in OPTIONAL_SAMPLER_FIELDS.items()
    if field not in sampler_fields_read(variant)
]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_sampler_field_a_variant_reads_is_accepted(variant):
    # The converse of the rows above: a field the variant reads passes the check.
    fields = {field: OPTIONAL_SAMPLER_FIELDS[field] for field in sampler_fields_read(variant)}
    _Experiment(resolve_config(quadratic_config("unused", variant=variant, num_steps=10, **fields)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("forward", [True, False], ids=["with-forward", "without-forward"])
def test_a_forward_section_goes_with_exactly_the_variants_that_read_the_corpus(tmp_path, capsys, variant, forward):
    # Stream and pool chains read the forward corpus; oracle chains build none, so a section for them is an error.
    out = tmp_path / "run"
    fields = {field: OPTIONAL_SAMPLER_FIELDS[field] for field in sampler_fields_read(variant)}
    # Step 0.02 keeps the gated variant's gain ratio, 0.02 / 0.5**2, clear of its warning.
    config = quadratic_config(out, variant=variant, num_steps=10, step=0.02, **fields)
    config["forward"] = quadratic_config(out)["forward"]
    if not forward:
        del config["forward"]
    reads = VARIANTS[variant].source != ORACLE
    if forward == reads:
        assert main(["run", write_config(tmp_path, config)]) == 0
        return
    assert main(["run", write_config(tmp_path, config)]) == 2
    verb = "required" if reads else "not read"
    assert f"forward: {verb} by sampler.variant {variant!r} for problem.kind 'quadratic'" in capsys.readouterr().err
    assert not out.exists()


def logistic_config(output):
    config = quadratic_config(output, init=[0.0] * 21)
    config["problem"] = {"kind": "logistic", "data": "bundled"}
    return config


def with_31_baseline_chains(output):
    config = quadratic_config(output)
    config["baseline"]["chains"] = 31
    return config


@pytest.mark.parametrize("make_config, chains", [(mixture_config, 30), (cmdp_config, 30), (with_31_baseline_chains, 31)],
                         ids=["oracle-30", "cmdp-30", "corpus-and-baseline-31"])
def test_chain_counts_whose_streams_stay_apart_run(tmp_path, make_config, chains):
    # Chain c's noise is stream 10 + c and its oracle or SPSA pools stream
    # 40 + c, so up to 30 such chains keep them apart (31 is a config error).
    # Corpus chains read no stream 40 + c, and baseline chains nest theirs
    # under streams 2 and 3.
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, make_config(out)), "--chains", str(chains)]) == 0
    assert len(list(out.glob("trajectory_c*.csv"))) == chains


def file_holding(content):
    """A config value made at run time: the path of a file in the test's tmp_path holding `content`."""
    def make(tmp_path):
        path = tmp_path / "problem-file.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)
    return make


TWO_STATE_MODEL = {"states": 2, "actions": 2, "P": [[[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]],
                   "rho": [[1.0, 100.0], [30.0, 2.0]], "constraint_cost": [[0.0, 1.0], [1.0, 0.0]],
                   "gamma": 0.5, "lambda": 10.0}
NOT_FINITE = "malformed content (transitions, rewards, costs, constraint_bound and penalty_weight must be finite)"


def two_state_model_with(**fields):
    return file_holding(json.dumps({**TWO_STATE_MODEL, **fields}))


@pytest.mark.parametrize(
    "make_config, path, value, message",
    [
        pytest.param(quadratic_config, "baseline.init", [0.0, 0.0, 0.0], "baseline.init: length 3",
                     id="baseline-init-3d"),
        pytest.param(quadratic_config, "baseline.init", "foo", "baseline.init: expected",
                     id="baseline-init-string"),
        pytest.param(quadratic_config, "baseline.chains", 0, "baseline.chains", id="baseline-chains-0"),
        pytest.param(quadratic_config, "seed", -1, "config.seed: must be non-negative", id="seed-negative"),
        # Misspelled fields that would otherwise be dropped without a word.
        pytest.param(quadratic_config, "sampler.num_step", 100, "sampler.num_step: unknown field",
                     id="sampler-num-step-misspelled"),
        pytest.param(quadratic_config, "baseline.burn_in", 5, "baseline.burn_in: unknown field",
                     id="baseline-burn-in-unknown"),
        # The baseline samples the sampler's law, at the sampler's beta.
        pytest.param(quadratic_config, "baseline.beta", 2.0, "baseline.beta: unknown field", id="baseline-beta-unknown"),
        pytest.param(quadratic_config, "baseline.beta", 1.0, "baseline.beta: unknown field",
                     id="baseline-beta-at-the-sampler-beta-unknown"),
        pytest.param(quadratic_config, "analysis.grid", [1, 2], "analysis.grid", id="grid-not-triples"),
        pytest.param(quadratic_config, "forward.step", MISSING, "forward.step: missing",
                     id="forward-step-missing"),
        pytest.param(quadratic_config, "forward.num_agents", True, "forward.num_agents: expected",
                     id="bool-for-int"),
        pytest.param(quadratic_config, "sampler.step", -1, "sampler: sampler step must be positive",
                     id="sampler-step-negative"),
        pytest.param(quadratic_config, "sampler.num_steps", 201, "sampler.num_steps: 201 exceeds",
                     id="num-steps-over-budget"),
        pytest.param(quadratic_config, "sampler.kernel", MISSING, "needs kernel", id="sampler-kernel-missing"),
        # Values that np.asarray or float() would reject only with a traceback.
        pytest.param(quadratic_config, "forward.init.mean", "foo", "forward.init.mean: expected",
                     id="forward-init-mean-string"),
        pytest.param(quadratic_config, "sampler.init", ["a", 0],
                     "sampler.init: expected a list of finite numbers", id="sampler-init-string-entry"),
        pytest.param(quadratic_config, "sampler.init", [float("nan"), 0.0],
                     "sampler.init: expected a list of finite numbers", id="sampler-init-nan"),
        pytest.param(nonreversible_config, "sampler.skew", [[0.0, "a"], [0.0, 0.0]],
                     "sampler.skew: expected a list of finite numbers", id="sampler-skew-string-entry"),
        pytest.param(corpus_pools_config, "sampler.conditional_std", "x", "sampler.conditional_std: expected",
                     id="conditional-std-string"),
        pytest.param(mixture_config, "problem.true_param", ["a", 1], "problem.true_param: expected a list",
                     id="mixture-true-param-string-entry"),
        pytest.param(mixture_config, "problem.likelihood_weight", "x", "problem.likelihood_weight: expected",
                     id="mixture-likelihood-weight-string"),
        pytest.param(mixture_config, "problem.prior_variances", 5, "problem.prior_variances: expected",
                     id="mixture-prior-variances-number"),
        pytest.param(quadratic_config, "analysis.grid", [["a", 3.0, 10], [-3.0, 3.0, 10]],
                     "analysis.grid: expected a list of finite numbers", id="grid-bound-string"),
        pytest.param(quadratic_config, "analysis.grid", [[-3.0, 3.0, 10.7], [-3.0, 3.0, 10]],
                     "analysis.grid: grid axis needs a whole number of bins", id="grid-fractional-bins"),
        # Checked at config time, though only the analysis after sampling reads it.
        pytest.param(cmdp_config, "analysis.constraint_tolerance", "x", "analysis.constraint_tolerance: expected",
                     id="cmdp-constraint-tolerance-string"),
        pytest.param(quadratic_config, "analysis.constraint_tolerance", -1,
                     "analysis.constraint_tolerance: must be positive", id="constraint-tolerance-negative"),
        pytest.param(cmdp_config, "analysis.constraint_tolerance", 0,
                     "analysis.constraint_tolerance: must be positive", id="cmdp-constraint-tolerance-zero"),
        # Problem files that cannot be read or parsed.
        pytest.param(cmdp_config, "problem.model", "no-such-model.json",
                     "problem.model: cannot read CMDP model file no-such-model.json", id="cmdp-model-missing"),
        pytest.param(cmdp_config, "problem.model", file_holding("{not json"),
                     "invalid JSON", id="cmdp-model-invalid-json"),
        pytest.param(cmdp_config, "problem.model",
                     file_holding(json.dumps({**TWO_STATE_MODEL, "P": [[["a", 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]]})),
                     "malformed content", id="cmdp-model-non-numeric-P"),
        pytest.param(cmdp_config, "problem.model", file_holding(b"\xcd\xff{}"), "invalid JSON",
                     id="cmdp-model-not-utf8"),
        # Non-finite model entries pass the sign and row-sum checks and would fail only after sampling began.
        pytest.param(cmdp_config, "problem.model",
                     two_state_model_with(P=[[[math.nan, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]]),
                     NOT_FINITE, id="cmdp-model-nan-P"),
        pytest.param(cmdp_config, "problem.model", two_state_model_with(rho=[[1.0, math.nan], [30.0, 2.0]]),
                     NOT_FINITE, id="cmdp-model-nan-rho"),
        pytest.param(cmdp_config, "problem.model",
                     two_state_model_with(constraint_cost=[[0.0, math.inf], [1.0, 0.0]]), NOT_FINITE,
                     id="cmdp-model-infinite-cost"),
        pytest.param(cmdp_config, "problem.model", two_state_model_with(gamma=math.nan), NOT_FINITE,
                     id="cmdp-model-nan-gamma"),
        pytest.param(cmdp_config, "problem.model", two_state_model_with(**{"lambda": -math.inf}), NOT_FINITE,
                     id="cmdp-model-infinite-lambda"),
        pytest.param(cmdp_config, "problem.model", two_state_model_with(gamma=10**401), "malformed content",
                     id="cmdp-model-gamma-401-digits"),
        # A CMDP chain starts on the angle box; one that leaves it later fails the analysis.
        pytest.param(cmdp_config, "sampler.init", [2.0, 0.8],
                     "sampler.init: [2.0, 0.8] is off the box [0.0, 1.5707963267948966]", id="cmdp-init-off-the-box"),
        pytest.param(logistic_config, "problem.data", "no-such-data.libsvm",
                     "problem.data: cannot read no-such-data.libsvm", id="logistic-data-missing"),
        pytest.param(logistic_config, "problem.data", file_holding(b"+1 1:\xcd\xff\n"),
                     "problem.data: cannot read", id="logistic-data-not-utf8"),
        pytest.param(quadratic_config, "schema", 2, "schema: expected 1, got 2", id="schema-mismatch"),
        pytest.param(quadratic_config, "scales", [], "scales: must be an object", id="scales-not-an-object"),
        pytest.param(quadratic_config, "scales.desk", 5, "scales.desk: must be an object",
                     id="scales-entry-not-an-object"),
        # Without `scales` a config is a resolved one, whose `scale` names the overlay it took.
        pytest.param(quadratic_config, "scale", 5, "scale: expected a scale name, got 5", id="scale-not-a-name"),
        pytest.param(quadratic_config, "chains", 0, "chains: must be at least 1", id="chains-0"),
        pytest.param(quadratic_config, "forward", MISSING, "forward: required by sampler.variant",
                     id="forward-missing"),
        pytest.param(quadratic_config, "analysis.grid", [[-3.0, 3.0, 10]],
                     "analysis.grid: 1 axes do not match problem dimension 2", id="grid-axes-mismatch"),
        pytest.param(mixture_config, "analysis.compare_marginals", True,
                     "analysis.compare_marginals: requires a baseline section", id="compare-without-baseline"),
        # Flags no run would act on: the modes and the marginal distances need a density grid.
        pytest.param(mixture_config, "analysis.find_modes", True, "analysis.find_modes: requires analysis.grid",
                     id="find-modes-without-grid"),
        pytest.param(quadratic_config, "analysis.compare_marginals", True,
                     "analysis.compare_marginals: requires analysis.grid", id="compare-without-grid"),
        pytest.param(quadratic_config, "analysis.constraint_tolerance", 0.3,
                     "analysis.constraint_tolerance: read only for problem.kind 'cmdp', not 'quadratic'",
                     id="constraint-tolerance-off-cmdp"),
        pytest.param(quadratic_config, "sampler.variant", "naive", "sampler.variant: unknown variant 'naive'",
                     id="variant-naive"),
        pytest.param(quadratic_config, "problem.kind", "cubic", "problem.kind: unknown kind 'cubic'",
                     id="problem-kind-unknown"),
        # Re-reading the corpus is gone: a longer run needs a larger corpus.
        pytest.param(quadratic_config, "forward.sweeps", 2, "forward.sweeps: unknown field",
                     id="forward-sweeps-unknown"),
        # The kernel is the Gaussian; a config names no family, not even that one.
        pytest.param(quadratic_config, "sampler.kernel.family", "box", "sampler.kernel.family: unknown field",
                     id="kernel-family-unknown"),
        pytest.param(quadratic_config, "sampler.kernel.family", "gaussian", "sampler.kernel.family: unknown field",
                     id="kernel-family-gaussian-unknown"),
        pytest.param(quadratic_config, "sampler.kernel.family", "truncated-gaussian",
                     "sampler.kernel.family: unknown field", id="kernel-family-truncated-unknown"),
        pytest.param(quadratic_config, "forward.init.mean", [0.0],
                     "forward.init: dimension does not match problem dimension 2", id="forward-init-1d"),
        pytest.param(cmdp_config, "sampler.init", "sample",
                     "sampler.init: 'sample' has no density to draw from for problem.kind 'cmdp'",
                     id="cmdp-sample-init"),
        pytest.param(mixture_config, "sampler.num_steps", MISSING,
                     "sampler.num_steps: required for variant 'classical'", id="oracle-num-steps-missing"),
        # Errors of the library constructors name the section whose fields they were given.
        pytest.param(quadratic_config, "forward.init.variances", [0, 1],
                     "forward.init: variances must be strictly positive", id="forward-init-variance-0"),
        pytest.param(quadratic_config, "forward.run_length", 0, "forward: run_length must be at least 1",
                     id="forward-run-length-0"),
        pytest.param(mixture_config, "problem.true_param", [-1.0, 2.0, 0.5],
                     "problem: true_param must be a length-2 vector", id="mixture-true-param-3"),
        pytest.param(logistic_config, "problem.num_rows", 2001, "problem: asked for 2001 rows but only 2000",
                     id="logistic-num-rows-over-data"),
        pytest.param(logistic_config, "problem.num_rows", 0, "problem.num_rows: must be at least 1, got 0",
                     id="logistic-num-rows-0"),
        pytest.param(logistic_config, "problem.num_features", -1, "problem.num_features: must be non-negative",
                     id="logistic-num-features-negative"),
        pytest.param(quadratic_config, "problem.dim", 0, "problem.dim: must be at least 1, got 0", id="dim-0"),
        pytest.param(logistic_config, "problem.data", file_holding("2 1:1.0\n"),
                     "problem.data: line 1: label must be +1 or -1", id="logistic-data-malformed"),
        # A curvature of 0 would divide by zero in the analysis; a negative one has no stationary law.
        pytest.param(quadratic_config, "problem.curvature", 0, "problem.curvature: must be positive",
                     id="curvature-0"),
        pytest.param(quadratic_config, "problem.curvature", -0.5, "problem.curvature: must be positive",
                     id="curvature-negative"),
        # The oracle would reject it only once the run had written its manifest.
        pytest.param(quadratic_config, "problem.noise_std", -1, "problem.noise_std: must be non-negative",
                     id="noise-std-negative"),
        # step / bandwidth**dim out of float range would fail after the run had written its chains.
        pytest.param(quadratic_config, "sampler.kernel.bandwidth", 1e308, "sampler: gain ratio step / bandwidth**dim",
                     id="gain-ratio-bandwidth-huge"),
        pytest.param(quadratic_config, "sampler.step", 1e308, "sampler: gain ratio step / bandwidth**dim",
                     id="gain-ratio-step-huge"),
        # JSON's NaN and Infinity tokens would fail the manifest write after the output directory was cleared.
        pytest.param(quadratic_config, "problem.center", float("nan"), "problem.center: must be a finite number",
                     id="center-nan"),
        pytest.param(quadratic_config, "problem.curvature", float("nan"),
                     "problem.curvature: must be a finite number", id="curvature-nan"),
        pytest.param(quadratic_config, "problem.curvature", float("inf"),
                     "problem.curvature: must be a finite number", id="curvature-infinity"),
        pytest.param(quadratic_config, "problem.noise_std", float("inf"),
                     "problem.noise_std: must be a finite number", id="noise-std-infinity"),
        pytest.param(mixture_config, "problem.likelihood_weight", float("nan"),
                     "problem.likelihood_weight: must be a finite number", id="mixture-likelihood-weight-nan"),
        pytest.param(mixture_config, "problem.component_var", float("inf"),
                     "problem.component_var: must be a finite number", id="mixture-component-var-infinity"),
        pytest.param(corpus_pools_config, "sampler.conditional_std", float("nan"),
                     "sampler.conditional_std: must be a finite number", id="conditional-std-nan"),
        pytest.param(cmdp_config, "problem.perturbation", float("inf"),
                     "problem.perturbation: must be a finite number", id="cmdp-perturbation-infinity"),
        pytest.param(quadratic_config, "analysis.constraint_tolerance", float("-inf"),
                     "analysis.constraint_tolerance: must be a finite number", id="constraint-tolerance-infinity"),
        # 1/(curvature*beta) overflows: metrics.json could not hold the variance target.
        pytest.param(quadratic_config, "problem.curvature", 1e-320,
                     "problem.curvature: stationary variance 1/(curvature*beta) is not finite", id="curvature-tiny"),
        # An integer too large for a float would end in an OverflowError traceback.
        pytest.param(quadratic_config, "problem.curvature", 10**401, "problem.curvature: must be a finite number",
                     id="curvature-401-digits"),
        pytest.param(quadratic_config, "sampler.init", [10**401, 0.0],
                     "sampler.init: expected a list of finite numbers", id="sampler-init-401-digit-entry"),
        # Arrays past sys.maxsize bytes: numpy raises ValueError for them, not MemoryError.
        pytest.param(mixture_config, "sampler.num_steps", 10**19, "sampler.num_steps: the trajectory, "
                     "10000000000000000001 x 1 x 2 floats, is past what numpy can address", id="num-steps-10e19"),
        pytest.param(quadratic_config, "baseline.num_steps", 10**19, "baseline.num_steps: the trajectory, "
                     "10000000000000000001 x 1 x 2 floats, is past", id="baseline-num-steps-10e19"),
        pytest.param(quadratic_config, "forward.num_agents", 10**19, "forward.num_agents x forward.run_length: "
                     "the corpus, 10000000000000000000 x 1 x 2 floats, is past", id="num-agents-10e19"),
        pytest.param(quadratic_config, "forward.run_length", 10**19, "forward.num_agents x forward.run_length: "
                     "the corpus, 200 x 10000000000000000000 x 2 floats, is past", id="run-length-10e19"),
        pytest.param(quadratic_config, "analysis.grid", [[-3.0, 3.0, 10**19], [-3.0, 3.0, 10]],
                     "analysis.grid: the histogram, 10000000000000000002 x 12 floats, is past",
                     id="grid-bins-10e19"),
        pytest.param(cmdp_config, "sampler.pool_size", 10**19, "sampler.pool_size: the probes, "
                     "2 x 200 x 10000000000000000000 x 2 floats, is past", id="cmdp-pool-size-10e19"),
        pytest.param(corpus_pools_config, "sampler.pool_size", 0, "sampler.pool_size: must be at least 1, got 0",
                     id="corpus-pool-size-0"),
        # A pool larger than the corpus would leave no pool: a run of zero steps.
        pytest.param(corpus_pools_config, "sampler.pool_size", 201,
                     "sampler.pool_size: 201 exceeds the forward corpus's 200 rows", id="corpus-pool-size-past-rows"),
        # Chain 30's noise stream would be chain 0's oracle or SPSA pool stream.
        pytest.param(mixture_config, "chains", 31, "config.chains: at most 30 chains may read oracle or SPSA streams",
                     id="oracle-chains-31"),
        pytest.param(cmdp_config, "chains", 31, "config.chains: at most 30 chains may read oracle or SPSA streams",
                     id="cmdp-chains-31"),
        pytest.param(logistic_config, "problem.likelihood_weight", -10,
                     "problem: likelihood_weight must be positive and finite",
                     id="logistic-likelihood-weight-negative"),
        pytest.param(logistic_config, "problem.likelihood_weight", 0,
                     "problem: likelihood_weight must be positive and finite", id="logistic-likelihood-weight-0"),
        # `step_active` divides by conditional_std**dim, a float power that would raise OverflowError.
        pytest.param(functools.partial(quadratic_config, variant=ACTIVE, num_steps=10),
                     "sampler.conditional_std", 1e-200, "sampler: conditional_std 1e-200 is too small for variant "
                     "'active' in 2 dimensions: conditional_std**-dim overflows", id="active-conditional-std-1e-200"),
        pytest.param(functools.partial(quadratic_config, variant=ACTIVE, num_steps=10, init=[0.0] * 155),
                     "sampler.conditional_std", 0.01,
                     "sampler: conditional_std 0.01 is too small for variant 'active' in 155 dimensions",
                     id="active-conditional-std-0.01-dim-155"),
        # `normalized_weights` divides by conditional_std squared, which would be 0: every step a reset.
        pytest.param(functools.partial(quadratic_config, variant=MULTIKERNEL, pool_size=4, num_steps=10),
                     "sampler.conditional_std", 1e-200, "sampler: conditional_std 1e-200 is too small for variant "
                     "'multikernel': its square underflows to 0", id="multikernel-conditional-std-1e-200"),
        *UNREAD_SAMPLER_FIELD_ROWS,
    ],
)
def test_config_error_fails_before_any_output(tmp_path, capsys, make_config, path, value, message):
    # The 200-row corpus is the quadratic sampler's whole budget.
    out = tmp_path / "run"
    config = make_config(out)
    *sections, field = path.split(".")
    section = config
    for name in sections:
        section = section.setdefault(name, {})
    if value is MISSING:
        del section[field]
    else:
        section[field] = value(tmp_path) if callable(value) else value
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(BENCH_CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_bench_configs_pass_every_config_check(path):
    # A check that rejects a shipped benchmark config fails here, not as
    # failed benchmark operations.
    _Experiment(resolve_config(load_config(path)))


@pytest.mark.parametrize("content", [None, b"{not json", b"\xcd\xff{}", b"[1]"],
                         ids=["missing", "invalid-json", "not-utf8", "not-an-object"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    assert "config file" in capsys.readouterr().err


def test_integral_grid_bin_counts_run(tmp_path):
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["analysis"] = {"grid": [[-3, 3, 30], [-3.0, 3.0, 30.0]]}
    assert main(["run", write_config(tmp_path, config)]) == 0
    with open(out / "density.csv") as fh:
        # A header, the off-grid row, then one row per cell.
        assert sum(1 for _ in fh) == 2 + 30 * 30


def test_samples_all_off_the_grid_report_no_modes(tmp_path):
    out = tmp_path / "run"
    config = quadratic_config(out)
    config["analysis"] = {"grid": [[50.0, 51.0, 30], [50.0, 51.0, 30]], "find_modes": True}
    with pytest.warns(RuntimeWarning, match="all samples fell outside the density grid"):
        assert main(["run", write_config(tmp_path, config)]) == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["modes"] == []
    assert metrics["out_of_range_fraction"] == 1.0


def modules_loaded_by(script, *args):
    """Run `script` in a fresh interpreter; it prints a JSON list of the modules it found loaded."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# scipy is a test-only dependency, and every run pays for what `import langirl.cli` loads before its setup ends.
SCIPY_LOADED = """
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_importing_the_cli_loads_no_scipy_orjson_or_numpy_ma():
    script = """
import json, sys
import langirl.cli
print(json.dumps(sorted(m for m in ("scipy", "orjson", "numpy.ma") if m in sys.modules)))
"""
    assert modules_loaded_by(script) == []


def test_no_module_under_src_imports_scipy():
    script = """
import importlib, json, pkgutil, sys
import langirl
for info in pkgutil.walk_packages(langirl.__path__, "langirl."):
    importlib.import_module(info.name)
"""
    assert modules_loaded_by(script + SCIPY_LOADED) == []


def test_a_logistic_run_loads_no_scipy(tmp_path):
    config = write_config(tmp_path, bundled_logistic_config(tmp_path / "run"))
    script = """
import json, sys
import langirl.cli
assert langirl.cli.main(["run", sys.argv[1]]) == 0
"""
    assert modules_loaded_by(script + SCIPY_LOADED, config) == []
    assert (tmp_path / "run" / "metrics.json").is_file()


@pytest.mark.parametrize("make_config", [quadratic_config, cmdp_config], ids=["quadratic", "cmdp"])
def test_traced_bench_child_runs(tmp_path, make_config):
    # The benchmark's tracer rebinds names on `langirl.cli`; a refactor that
    # drops one fails here rather than in a traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    trace = tmp_path / "run.trace"
    argv = [sys.executable, str(root / "bench" / "child.py"), str(tmp_path / "mark"), str(trace),
            "run", write_config(tmp_path, make_config(tmp_path / "run")), "--chains", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "cli.run" in read_json(trace)["names"]
