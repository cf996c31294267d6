"""The `langirl` command line: exit codes, failure records, reruns and compare."""

import csv
import filecmp
import hashlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import langirl.cli
from langirl.cli import _Experiment, load_config, main, resolve_config
from langirl.core import NonFiniteError, RngStream
from langirl.forward import AgentPoolConfig, InitDensity, run_agent_pool
from langirl.irl import (
    ACTIVE,
    CLASSICAL,
    MULTIKERNEL,
    PASSIVE_GENERALIZED,
    SamplerConfig,
    Trajectory,
    load_trajectory,
    run_sampler,
    save_trajectory,
)
from langirl.kernels import GAUSSIAN, Kernel
from langirl.problems import cmdp, mixture, synthetic

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
    dim = len(sampler_section["init"])
    return {
        "schema": 1,
        "experiment": "cli-test",
        "seed": 3,
        "output": str(output),
        "problem": {"kind": "quadratic", "dim": dim, "curvature": 1.0},
        "forward": {"step": 0.05, "num_agents": 200, "run_length": 1, "shuffle": True},
        "sampler": sampler_section,
        "baseline": {"step": 0.1, "num_steps": 150},
    }


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


def assert_manifest_rerun_is_byte_identical(tmp_path, make_config):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", write_config(tmp_path, make_config(first)), "--chains", "2"]) == 0
    assert main(["run", str(first / "manifest.json"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.glob("trajectory*.csv"))
    assert names == ["trajectory_c0.csv", "trajectory_c1.csv"]
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_manifest_rerun_is_byte_identical(tmp_path):
    assert_manifest_rerun_is_byte_identical(tmp_path, quadratic_config)


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
    assert main(["compare", str(good), str(bad), "--out", str(out)]) == 2
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
    assert digests == GOLDEN_FILES


@pytest.mark.parametrize("rows", [1, 1024, 2053])
def test_save_trajectory_writes_the_csv_module_bytes(tmp_path, rows):
    special = [1e-05, 1e16, -0.0, 5e-324, 0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308, 123456789.0]
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
    cfg = SamplerConfig(step=0.2, beta=1.0, init=np.zeros(2), kernel=Kernel(GAUSSIAN, 0.5, 2),
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
    cfg = SamplerConfig(step=0.05, beta=1.0, init=np.array([0.5, -0.5]), kernel=Kernel(GAUSSIAN, 0.5, 2),
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
            MULTIKERNEL, cmdp.make_angle_pool_source(model, 2, 401, 20, 0.05, root.child(40 + chain)), cfg, 401,
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
    # Three chains' files are written the same way; one chain's files by the run alone.
    files = {}
    for count in (1, 2, 3):
        cpus(count)
        out = tmp_path / f"cpus{count}"
        assert main(["run", write_config(tmp_path, cmdp_config(out)), "--chains", str(chains)]) == 0
        files[count] = {p.name: p.read_bytes() for p in out.iterdir() if p.name.startswith("trajectory")}
    assert len(files[1]) == 2 * chains
    assert files[1] == files[2] == files[3]
    writers = 0 + 1 + 2 if chains == 3 else 0
    assert_reaped(forks, count=0 + 1 + 2 + writers)


@pytest.mark.parametrize("make_config", [with_noisy_baseline, cmdp_config], ids=["baseline", "cmdp"])
def test_a_failed_fork_runs_the_call_in_the_run(tmp_path, monkeypatch, cpus, forks, deadline, make_config):
    # When os.fork fails (EAGAIN, ENOMEM), the run makes the worker's call
    # itself: the same bytes, exit 0, and no pipe left open.
    cpus(2)
    forked, unforked = tmp_path / "forked", tmp_path / "unforked"
    assert main(["run", write_config(tmp_path, make_config(forked)), "--chains", "2"]) == 0
    # The baseline or pool worker and the writer of the second sampler chain's files;
    # the baseline worker's own writer is its child, not the run's.
    assert_reaped(forks, count=2)
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
    # Three sampler chains and two baseline chains; on two CPUs the run writes
    # one sampler chain's files and a writer the other two, while the baseline
    # worker writes both baseline chains' files itself.
    files = {}
    for count in (2, 1):
        cpus(count)
        out = tmp_path / f"cpus{count}"
        assert main(["run", write_config(tmp_path, mixture_with_baseline_chains(out))]) == 0
        files[count] = chain_files(out)
    # The baseline worker and the sampler set's writer on two CPUs, the baseline worker on one.
    assert_reaped(forks, count=2 + 1)
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


@pytest.mark.parametrize("where", ["run", "writer"])
def test_a_failed_chain_writer_ends_the_run(tmp_path, monkeypatch, cpus, forks, deadline, capfd, where):
    # Three chains on two CPUs: the run writes chain 0's files, a writer chains 1 and 2.
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
    del config["baseline"]
    assert main(["run", write_config(tmp_path, config), "--chains", "3"]) == 1
    failure = read_json(out / "failure.json")
    error = "OSError" if where == "run" else "ChildProcessError"
    assert (failure["phase"], failure["error"]) == ("sampler", error)
    assert "No space left" in capfd.readouterr().err
    assert not (out / "metrics.json").exists()
    assert_reaped(forks)


def test_the_baseline_worker_writes_its_files_itself(tmp_path, cpus, forks):
    # Stopping the baseline worker must stop every baseline write, so the
    # worker forks no writer of its own, even for several chains on several CPUs.
    cpus(2)
    exp = _Experiment(resolve_config(mixture_with_baseline_chains(tmp_path / "run")))
    langirl.cli._baseline_chains(exp, str(tmp_path))
    assert forks == []
    assert sorted(p.name for p in tmp_path.glob("baseline_c*")) == [
        f"baseline_c{chain}.{ext}" for chain in range(2) for ext in ("csv", "json")
    ]


def test_a_runaway_cmdp_chain_is_a_failure(tmp_path, capsys):
    # A huge step throws the angles far off the box: finite estimates whose
    # pooled variance overflows. The run must not report it as a result.
    config = load_config(BENCH_CONFIGS / "cmdp_spsa.json")
    config["output"] = str(tmp_path / "run")
    config["problem"]["horizon"] = 20
    config["sampler"].update(step=1e300, pool_size=2, num_steps=401)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", write_config(tmp_path, config)]) == 1
    out = tmp_path / "run"
    failure = read_json(out / "failure.json")
    assert (failure["phase"], failure["error"]) == ("analysis", "NonFiniteError")
    assert not (out / "metrics.json").exists()
    assert "run complete" not in capsys.readouterr().out


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
    post = load_trajectory(out)[0].post
    off = ((post < 0.0) | (post > math.pi / 2)).any(axis=1)
    first = int(np.argmax(off))
    assert failure["message"].startswith(f"chain 0: angles {post[first].tolist()} at sampler step {40 + first} ")
    assert not (out / "metrics.json").exists()
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
    costs = np.array([cmdp.stationary_joint(model, policy)[2]
                      for policy in cmdp.spherical_to_policy(post.reshape(-1, 2, 1))])
    near = np.abs(costs - model.constraint_bound) < config["analysis"]["constraint_tolerance"]
    assert near.mean() >= 0.9


SWEEP_CASES = {
    # case: (variant, fields set in both the config and the SamplerConfig, one pass over the corpus)
    "stream": (PASSIVE_GENERALIZED, {}, lambda corpus: corpus),
    "pools": (MULTIKERNEL, {"pool_size": 4, "conditional_std": 0.5}, lambda corpus: corpus.as_pools(4)),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_forward_sweeps_reread_the_corpus(tmp_path, case):
    # Two sweeps are one run over the corpus read twice, end to end.
    variant, fields, one_pass = SWEEP_CASES[case]
    out = tmp_path / "run"
    config = quadratic_config(out, variant=variant, **fields)
    config["forward"]["sweeps"] = 2
    assert main(["run", write_config(tmp_path, config)]) == 0
    root = RngStream(config["seed"])
    corpus, density = quadratic_corpus(root)
    cfg = SamplerConfig(step=0.2, beta=1.0, init=np.zeros(2), kernel=Kernel(GAUSSIAN, 0.5, 2),
                        init_density=density, **fields)
    source = itertools.chain(one_pass(corpus), one_pass(corpus))
    steps = 2 * len(list(one_pass(corpus)))
    want = run_sampler(variant, source, cfg, steps, root.child(10))
    got, meta = load_trajectory(out)
    assert meta["num_steps"] == steps
    np.testing.assert_array_equal(got.samples, want.samples)
    assert got.fingerprint == want.fingerprint


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


def logistic_config(output):
    config = quadratic_config(output, init=[0.0] * 21)
    config["problem"] = {"kind": "logistic", "data": "bundled"}
    return config


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
        pytest.param(quadratic_config, "baseline.beta", "x", "baseline.beta", id="baseline-beta-string"),
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
        pytest.param(quadratic_config, "sampler.skew", [[0.0, "a"], [0.0, 0.0]],
                     "sampler.skew: expected a list of finite numbers", id="sampler-skew-string-entry"),
        pytest.param(quadratic_config, "sampler.conditional_std", "x", "sampler.conditional_std: expected",
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
        pytest.param(logistic_config, "problem.data", "no-such-data.libsvm",
                     "problem.data: cannot read no-such-data.libsvm", id="logistic-data-missing"),
        pytest.param(logistic_config, "problem.data", file_holding(b"+1 1:\xcd\xff\n"),
                     "problem.data: cannot read", id="logistic-data-not-utf8"),
        pytest.param(quadratic_config, "schema", 2, "schema: expected 1, got 2", id="schema-mismatch"),
        pytest.param(quadratic_config, "scales", [], "scales: must be an object", id="scales-not-an-object"),
        pytest.param(quadratic_config, "chains", 0, "chains: must be at least 1", id="chains-0"),
        pytest.param(quadratic_config, "forward", MISSING, "forward: required by sampler.variant",
                     id="forward-missing"),
        pytest.param(quadratic_config, "analysis.grid", [[-3.0, 3.0, 10]],
                     "analysis.grid: 1 axes do not match problem dimension 2", id="grid-axes-mismatch"),
        pytest.param(mixture_config, "analysis.compare_marginals", True,
                     "analysis.compare_marginals: requires a baseline section", id="compare-without-baseline"),
        pytest.param(quadratic_config, "problem.kind", "cubic", "problem.kind: unknown kind 'cubic'",
                     id="problem-kind-unknown"),
        pytest.param(quadratic_config, "forward.sweeps", 0, "forward.sweeps: must be at least 1", id="sweeps-0"),
        pytest.param(quadratic_config, "forward.init.mean", [0.0],
                     "forward.init: dimension does not match problem dimension 2", id="forward-init-1d"),
        pytest.param(mixture_config, "sampler.init", "sample",
                     "sampler.init: 'sample' requires a forward section", id="sample-init-without-forward"),
        pytest.param(mixture_config, "sampler.num_steps", MISSING,
                     "sampler.num_steps: required for variant 'classical'", id="oracle-num-steps-missing"),
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
