"""The `langirl` command line: exit codes, failure records, reruns and compare."""

import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from langirl.cli import main
from langirl.core import RngStream
from langirl.forward import AgentPoolConfig, InitDensity, run_agent_pool
from langirl.irl import (
    ACTIVE,
    CLASSICAL,
    MULTIKERNEL,
    PASSIVE_GENERALIZED,
    SamplerConfig,
    load_trajectory,
    run_sampler,
)
from langirl.kernels import GAUSSIAN, Kernel
from langirl.problems import cmdp, mixture, synthetic


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


def test_manifest_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", write_config(tmp_path, quadratic_config(first)), "--chains", "2"]) == 0
    assert main(["run", str(first / "manifest.json"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.glob("trajectory*.csv"))
    assert names == ["trajectory_c0.csv", "trajectory_c1.csv"]
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


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


def cmdp_config(output):
    return {
        "schema": 1,
        "experiment": "cli-cmdp",
        "seed": 0,
        "output": str(output),
        "problem": {"kind": "cmdp", "horizon": 20, "perturbation": 0.05},
        "sampler": {"variant": "multikernel", "step": 1e-6, "beta": 1.0, "pool_size": 2,
                    "conditional_std": 0.3, "init": [0.8, 0.8], "num_steps": 5},
    }


def corpus_chains(root):
    # The corpus as the runner builds it: oracle stream 0, agents 5, shuffle 1.
    density = InitDensity.standard(2)
    oracle = synthetic.quadratic_oracle(1.0, 0.0, 0.0, root.child(0))
    corpus = run_agent_pool(oracle, density, AgentPoolConfig(0.05, 200, 1), root.child(5))
    corpus = corpus.shuffled(root.child(1))
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
    # Each chain reads its own SPSA pools, drawn on stream 40 + chain.
    cfg = SamplerConfig(step=1e-6, beta=1.0, init=np.array([0.8, 0.8]), pool_size=2, conditional_std=0.3)
    model = cmdp.CmdpModel.two_state_example()
    return {
        f"trajectory_c{chain}": run_sampler(
            MULTIKERNEL, cmdp.make_angle_pool_source(model, 2, 5, 20, 0.05, root.child(40 + chain)), cfg, 5,
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


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        pytest.param("baseline", "init", [0.0, 0.0, 0.0], "baseline.init: length 3", id="baseline-init-3d"),
        pytest.param("baseline", "init", "foo", "baseline.init: expected", id="baseline-init-string"),
        pytest.param("baseline", "chains", 0, "baseline.chains", id="baseline-chains-0"),
        pytest.param("baseline", "beta", "x", "baseline.beta", id="baseline-beta-string"),
        pytest.param("analysis", "grid", [1, 2], "analysis.grid", id="grid-not-triples"),
        pytest.param("forward", "step", MISSING, "forward.step: missing", id="forward-step-missing"),
        pytest.param("forward", "num_agents", True, "forward.num_agents: expected", id="bool-for-int"),
        pytest.param("sampler", "step", -1, "sampler: sampler step must be positive", id="sampler-step-negative"),
        pytest.param("sampler", "num_steps", 201, "sampler.num_steps: 201 exceeds", id="num-steps-over-budget"),
        pytest.param("sampler", "kernel", MISSING, "needs kernel", id="sampler-kernel-missing"),
    ],
)
def test_config_error_fails_before_any_output(tmp_path, capsys, section, field, value, message):
    # The 200-row corpus is the sampler's whole budget.
    out = tmp_path / "run"
    config = quadratic_config(out)
    config.setdefault(section, {})
    if value is MISSING:
        del config[section][field]
    else:
        config[section][field] = value
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
