"""The `langirl` command line: exit codes, failure records, reruns and compare."""

import filecmp
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from langirl.cli import _Experiment, load_config, main, resolve_config
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


def test_compare_reads_only_the_chains_of_the_latest_run(tmp_path, capsys):
    # A one-chain rerun into a directory that holds three chains of an earlier
    # run leaves their trajectory_c* files behind; compare must not pool them.
    config = str(BENCH_CONFIGS / "mixture_multikernel.json")
    out = str(tmp_path / "run")
    assert main(["run", config, "--chains", "3", "--out", out]) == 0
    assert main(["run", config, "--out", out]) == 0
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


@pytest.mark.parametrize("content", [None, b"{not json", b"\xcd\xff{}"], ids=["missing", "invalid-json", "not-utf8"])
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
