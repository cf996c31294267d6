"""The `langirl` command line: exit codes, failure records, reruns and compare."""

import filecmp
import json
import re

import numpy as np
import pytest

from langirl.cli import main
from langirl.core import RngStream
from langirl.forward import AgentPoolConfig, InitDensity, run_agent_pool
from langirl.irl import PASSIVE_GENERALIZED, SamplerConfig, load_trajectory, run_sampler
from langirl.kernels import GAUSSIAN, Kernel
from langirl.problems import synthetic


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


def test_batched_chains_match_one_chain_runs(tmp_path):
    out = tmp_path / "run"
    assert main(["run", write_config(tmp_path, quadratic_config(out)), "--chains", "3"]) == 0
    # The corpus as the runner builds it: oracle stream 0, agents 5, shuffle 1.
    root = RngStream(3)
    density = InitDensity.standard(2)
    oracle = synthetic.quadratic_oracle(1.0, 0.0, 0.0, root.child(0))
    corpus = run_agent_pool(oracle, density, AgentPoolConfig(0.05, 200, 1), root.child(5))
    corpus = corpus.shuffled(root.child(1))
    cfg = SamplerConfig(step=0.2, beta=1.0, init=np.zeros(2), kernel=Kernel(GAUSSIAN, 0.5, 2),
                        init_density=density)
    for chain in range(3):
        want = run_sampler(PASSIVE_GENERALIZED, corpus, cfg, len(corpus), root.child(10 + chain))
        got, _ = load_trajectory(out, stem=f"trajectory_c{chain}")
        np.testing.assert_array_equal(got.samples, want.samples)
        assert got.fingerprint == want.fingerprint


def test_divergence_failure_is_recorded(tmp_path):
    # Classical Langevin with step * curvature / 2 = 25 multiplies the
    # estimate by about -24 per step until it overflows. Oracle chains run one
    # at a time, so the first chain fails first.
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
