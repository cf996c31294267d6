"""Config-driven experiment runner.

`langirl run config.json` wires a problem, an optional forward agent pool,
a sampler variant, and the analysis stage together, then writes every
artifact (trajectories, density grids, metrics, manifest) under one output
directory. `langirl compare dirA dirB` computes per-marginal distances
between two finished runs. Exit codes: 0 success, 1 runtime failure,
2 config error.

`--chains N` pools N sampler chains. Chains that read the forward corpus
advance together in one batched sampler call, and every one of them reads
the corpus in the same order; they differ only in their noise (and their
start, with `init: "sample"`). Their spread therefore understates the error
of the pooled estimate, and a between-chain diagnostic such as R-hat would
overstate how independent they are. Trajectory files are written only
once every chain has finished.

Regime tracking is library-only: call `tracking.run_tracking`; a config has
no tracking section.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .analysis import (
    GridSpec,
    build_density,
    density_to_csv,
    find_modes,
    marginal,
    variational_distance,
    wasserstein1,
)
from .core import (
    RNG_ALGORITHM,
    ConfigError,
    DensityFloorError,
    NonFiniteError,
    RngStream,
    SourceExhausted,
    write_csv,
)
from .forward import AgentPoolConfig, InitDensity, run_agent_pool
from .irl import (
    CLASSICAL,
    ORACLE,
    POOL,
    STREAM,
    VARIANTS,
    SamplerConfig,
    load_trajectory,
    run_chains,
    run_sampler,
    save_trajectory,
)
from .kernels import GAUSSIAN, Kernel
from .problems import cmdp, logistic, mixture, synthetic

SCHEMA_VERSION = 1

# Fixed child-stream indices so a manifest rerun consumes randomness in the
# same order no matter which optional phases are enabled.
_RNG_CORPUS_ORACLE = 0
_RNG_SHUFFLE = 1
_RNG_BASE_ORACLE = 2
_RNG_BASE_NOISE = 3
_RNG_DATA_SUBSET = 4
_RNG_AGENTS = 5
_RNG_CHAIN_NOISE = 10
_RNG_CHAIN_ORACLE = 40

_RUNTIME_ERRORS = (NonFiniteError, DensityFloorError, SourceExhausted)


def _merge(base, overlay):
    if isinstance(base, dict) and isinstance(overlay, dict):
        out = dict(base)
        for key, val in overlay.items():
            out[key] = _merge(base.get(key), val) if key in base else val
        return out
    return overlay


def _expect(section, field, kinds, path, required=True, default=None):
    if field not in section:
        if required:
            raise ConfigError(f"{path}.{field}: missing required field")
        return default
    value = section[field]
    if kinds is not None and not isinstance(value, kinds):
        raise ConfigError(f"{path}.{field}: expected {kinds}, got {type(value).__name__}")
    return value


def load_config(path):
    """Parse a config or manifest file and return the raw config dict."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file: top level must be a JSON object")
    if "schema" not in doc and isinstance(doc.get("config"), dict):
        doc = doc["config"]
    return doc


def resolve_config(doc, scale="desk", seed=None, out=None, chains=None):
    """Apply the scale overlay and CLI overrides, returning the final config."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    scales = doc.get("scales", {})
    if not isinstance(scales, dict):
        raise ConfigError("scales: must be an object keyed by scale name")
    overlay = scales.get(scale)
    if overlay is None and scale != "desk":
        raise ConfigError(f"scales.{scale}: not defined in this config")
    merged = _merge({k: v for k, v in doc.items() if k != "scales"}, overlay or {})
    merged["scale"] = scale
    if seed is not None:
        merged["seed"] = seed
    if out is not None:
        merged["output"] = out
    if chains is not None:
        merged["chains"] = chains
    return merged


class _Experiment:
    """Everything `run` needs, derived from one validated config."""

    def __init__(self, config):
        self.config = config
        self.name = _expect(config, "experiment", str, "config")
        self.seed = _expect(config, "seed", int, "config")
        self.output = _expect(config, "output", str, "config")
        self.chains = _expect(config, "chains", int, "config", required=False, default=1)
        if self.chains < 1:
            raise ConfigError("chains: must be at least 1")
        self.root = RngStream(self.seed)

        problem = _expect(config, "problem", dict, "config")
        self.kind = _expect(problem, "kind", str, "problem")
        self._build_problem(problem)

        sampler = _expect(config, "sampler", dict, "config")
        self.variant = _expect(sampler, "variant", str, "sampler")
        if self.variant not in VARIANTS:
            raise ConfigError(f"sampler.variant: unknown variant {self.variant!r}")
        # Stream and pool variants read the forward corpus; CMDP pools come
        # from SPSA instead.
        self.source_kind = VARIANTS[self.variant].source
        self.forward_cfg = _expect(config, "forward", dict, "config", required=False)
        if self.oracle is None and (self.source_kind != POOL or "forward" in config or "baseline" in config):
            raise ConfigError(
                f"problem.kind {self.kind!r} has no gradient oracle: it runs only the multikernel "
                "variant on its SPSA pools, with no forward or baseline section"
            )
        needs_corpus = self.source_kind == STREAM or (self.source_kind == POOL and self.kind != "cmdp")
        if needs_corpus and self.forward_cfg is None:
            raise ConfigError(
                f"forward: required by sampler.variant {self.variant!r} for problem.kind {self.kind!r}"
            )
        self._build_sampler(sampler)

        self.baseline = _expect(config, "baseline", dict, "config", required=False)
        if self.baseline is not None:
            _expect(self.baseline, "step", (int, float), "baseline")
            _expect(self.baseline, "num_steps", int, "baseline")

        self.analysis = _expect(config, "analysis", dict, "config", required=False, default={})
        grid = self.analysis.get("grid")
        self.grid = None
        if grid is not None:
            axes = tuple((float(a[0]), float(a[1]), int(a[2])) for a in grid)
            if len(axes) != self.dim:
                raise ConfigError(
                    f"analysis.grid: {len(axes)} axes do not match problem dimension "
                    f"{self.dim} (problem.kind {self.kind!r})"
                )
            self.grid = GridSpec(axes)
        if self.analysis.get("compare_marginals") and self.baseline is None:
            raise ConfigError("analysis.compare_marginals: requires a baseline section")

    # -- problem ---------------------------------------------------------

    def _build_problem(self, problem):
        if self.kind == "quadratic":
            dim = _expect(problem, "dim", int, "problem", required=False, default=1)
            curvature = float(_expect(problem, "curvature", (int, float), "problem", required=False, default=1.0))
            center = float(_expect(problem, "center", (int, float), "problem", required=False, default=0.0))
            noise = float(_expect(problem, "noise_std", (int, float), "problem", required=False, default=0.0))
            self.dim = dim
            self.curvature = curvature
            self.oracle = lambda rng: synthetic.quadratic_oracle(curvature, center, noise, rng)
        elif self.kind == "mixture":
            true_param = _expect(problem, "true_param", list, "problem")
            model = mixture.MixtureModel(
                np.asarray(true_param, dtype=np.float64),
                likelihood_weight=float(problem.get("likelihood_weight", 20.0)),
                prior_variances=tuple(problem.get("prior_variances", (10.0, 2.0))),
                component_var=float(problem.get("component_var", 2.0)),
            )
            self.model = model
            self.dim = 2
            self.oracle = lambda rng: mixture.make_stream_oracle(model, rng)
        elif self.kind == "logistic":
            data = _expect(problem, "data", str, "problem")
            if data == "bundled":
                source = resources.files("langirl").joinpath("data/synthetic_sparse.libsvm")
                with resources.as_file(source) as real:
                    features, labels = logistic.parse_libsvm(str(real))
            else:
                features, labels = logistic.parse_libsvm(data)
            rows = _expect(problem, "num_rows", int, "problem", required=False)
            cols = _expect(problem, "num_features", int, "problem", required=False)
            if rows is not None or cols is not None:
                features, labels = logistic.top_frequency_subset(
                    features,
                    labels,
                    rows if rows is not None else features.shape[0],
                    cols if cols is not None else features.shape[1] - 1,
                    self.root.child(_RNG_DATA_SUBSET),
                )
            model = logistic.LogisticModel(
                features, labels, likelihood_weight=float(problem.get("likelihood_weight", 10.0))
            )
            self.model = model
            self.dim = features.shape[1]
            self.oracle = lambda rng: logistic.make_stream_oracle(model)
        elif self.kind == "cmdp":
            spec = _expect(problem, "model", str, "problem", required=False, default="two-state")
            model = cmdp.CmdpModel.two_state_example() if spec == "two-state" else cmdp.CmdpModel.from_json(spec)
            self.model = model
            self.dim = model.num_angles
            self.horizon = _expect(problem, "horizon", int, "problem")
            self.perturbation = float(_expect(problem, "perturbation", (int, float), "problem"))
            if self.horizon < 1:
                raise ConfigError(f"problem.horizon: must be at least 1, got {self.horizon}")
            if not self.perturbation > 0:
                raise ConfigError(f"problem.perturbation: must be positive, got {self.perturbation}")
            self.oracle = None
        else:
            raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")

    # -- sampler ---------------------------------------------------------

    def _build_sampler(self, sampler):
        self.sampler_step = float(_expect(sampler, "step", (int, float), "sampler"))
        self.beta = float(_expect(sampler, "beta", (int, float), "sampler"))
        self.pool_size = _expect(sampler, "pool_size", int, "sampler", required=False, default=1)
        self.conditional_std = sampler.get("conditional_std")
        if self.conditional_std is not None:
            self.conditional_std = float(self.conditional_std)
        self.burn_in = _expect(sampler, "burn_in", int, "sampler", required=False)

        kernel = sampler.get("kernel")
        self.kernel = None
        if kernel is not None:
            family = _expect(kernel, "family", str, "sampler.kernel", required=False, default=GAUSSIAN)
            bandwidth = float(_expect(kernel, "bandwidth", (int, float), "sampler.kernel"))
            self.kernel = Kernel(family, bandwidth, self.dim)

        skew = sampler.get("skew")
        self.skew = np.asarray(skew, dtype=np.float64) if skew is not None else None

        init = _expect(sampler, "init", (list, str), "sampler")
        if isinstance(init, str):
            if init != "sample":
                raise ConfigError(f"sampler.init: expected a vector or 'sample', got {init!r}")
            if self.forward_cfg is None:
                raise ConfigError("sampler.init: 'sample' requires a forward section")
            self.init = "sample"
        else:
            vec = np.asarray(init, dtype=np.float64)
            if vec.size != self.dim:
                raise ConfigError(
                    f"sampler.init: length {vec.size} does not match problem dimension "
                    f"{self.dim} (problem.kind {self.kind!r})"
                )
            self.init = vec
        self.num_steps = _expect(sampler, "num_steps", int, "sampler", required=False)

    def forward_density(self):
        fwd = self.forward_cfg or {}
        init = fwd.get("init")
        if init is None:
            return InitDensity.standard(self.dim)
        mean = np.asarray(init.get("mean", np.zeros(self.dim)), dtype=np.float64)
        variances = np.asarray(init.get("variances", np.ones(self.dim)), dtype=np.float64)
        if mean.size != self.dim or variances.size != self.dim:
            raise ConfigError(
                f"forward.init: dimension does not match problem dimension {self.dim}"
            )
        return InitDensity(mean, variances)

    def sampler_config(self, init_vec, density):
        return SamplerConfig(
            step=self.sampler_step,
            beta=self.beta,
            init=init_vec,
            kernel=self.kernel,
            init_density=density,
            pool_size=self.pool_size,
            conditional_std=self.conditional_std,
            skew=self.skew,
        )


@contextlib.contextmanager
def _timed(timings, phase):
    """Add the perf_counter seconds the block takes to timings[phase]."""
    t0 = time.perf_counter()
    yield
    timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config):
    """Execute one resolved config. Returns (exit_code, output_dir)."""
    exp = _Experiment(config)
    outdir = exp.output
    os.makedirs(outdir, exist_ok=True)
    timings = {}
    with _timed(timings, "write"):
        _write_json(
            os.path.join(outdir, "manifest.json"),
            {
                "config": config,
                "seed": exp.seed,
                "rng_algorithm": RNG_ALGORITHM,
                "version": __version__,
            },
        )

    metrics = {"experiment": exp.name, "variant": exp.variant, "chains": exp.chains}
    phase = "setup"
    try:
        # Forward corpus, when the variant consumes recorded agent data.
        corpus = None
        sweeps = 1
        density = None
        if exp.forward_cfg is not None:
            phase = "forward"
            with _timed(timings, "forward"):
                fwd = exp.forward_cfg
                density = exp.forward_density()
                pool_cfg = AgentPoolConfig(
                    step=float(_expect(fwd, "step", (int, float), "forward")),
                    num_agents=_expect(fwd, "num_agents", int, "forward"),
                    run_length=_expect(fwd, "run_length", int, "forward"),
                )
                sweeps = _expect(fwd, "sweeps", int, "forward", required=False, default=1)
                oracle = exp.oracle(exp.root.child(_RNG_CORPUS_ORACLE))
                corpus = run_agent_pool(oracle, density, pool_cfg, exp.root.child(_RNG_AGENTS))
                if fwd.get("shuffle", False):
                    corpus = corpus.shuffled(exp.root.child(_RNG_SHUFFLE))
            metrics["forward_samples"] = len(corpus)

        num_steps = exp.num_steps
        if exp.source_kind != ORACLE and corpus is not None:
            per_sweep = len(corpus) if exp.source_kind == STREAM else len(corpus) // exp.pool_size
            available = sweeps * per_sweep
            num_steps = num_steps or available
            if num_steps > available:
                raise ConfigError(
                    f"sampler.num_steps: {num_steps} exceeds the forward corpus's "
                    f"{exp.source_kind} items x sweeps ({available})"
                )
        elif num_steps is None:
            raise ConfigError(f"sampler.num_steps: required for variant {exp.variant!r}")

        # Sampler chains, pooled after burn-in.
        phase = "sampler"
        with _timed(timings, "sampler"):
            rngs = [exp.root.child(_RNG_CHAIN_NOISE + chain) for chain in range(exp.chains)]
            cfgs = [
                exp.sampler_config(density.sample(rng) if isinstance(exp.init, str) else exp.init, density)
                for rng in rngs
            ]
            trajs = _run_chains(exp, corpus, sweeps, num_steps, cfgs, rngs)
        with _timed(timings, "write"):
            for chain, (traj, cfg) in enumerate(zip(trajs, cfgs)):
                stem = "trajectory" if exp.chains == 1 else f"trajectory_c{chain}"
                save_trajectory(traj, cfg, outdir, stem=stem)
        pooled = np.vstack([traj.post for traj in trajs])
        metrics["post_samples"] = int(pooled.shape[0])
        metrics["underflow_resets"] = sum(traj.underflow_resets for traj in trajs)

        # Optional classical-Langevin reference run on the same problem.
        base_post = None
        if exp.baseline is not None:
            phase = "baseline"
            base_chains = int(exp.baseline.get("chains", 1))
            base_init = exp.baseline.get("init", [0.0] * exp.dim)
            base_density = density if density is not None else InitDensity.standard(exp.dim)
            base_posts = []
            for chain in range(base_chains):
                with _timed(timings, "baseline"):
                    noise_rng = exp.root.child(_RNG_BASE_NOISE).child(chain)
                    if base_init == "sample":
                        init_vec = base_density.sample(noise_rng)
                    else:
                        init_vec = np.asarray(base_init, dtype=np.float64)
                    base_cfg = SamplerConfig(
                        step=float(exp.baseline["step"]),
                        beta=float(exp.baseline.get("beta", exp.beta)),
                        init=init_vec,
                    )
                    oracle = exp.oracle(exp.root.child(_RNG_BASE_ORACLE).child(chain))
                    base = run_sampler(
                        CLASSICAL,
                        oracle,
                        base_cfg,
                        int(exp.baseline["num_steps"]),
                        noise_rng,
                    )
                stem = "baseline" if base_chains == 1 else f"baseline_c{chain}"
                with _timed(timings, "write"):
                    save_trajectory(base, base_cfg, outdir, stem=stem)
                base_posts.append(base.post)
            base_post = np.vstack(base_posts)

        phase = "analysis"
        with _timed(timings, "analysis"):
            densities = _analyze(exp, pooled, base_post, metrics)
        with _timed(timings, "write"):
            for name, dens in densities.items():
                density_to_csv(dens, os.path.join(outdir, name))
        metrics["timings_seconds"] = {key: round(sec, 3) for key, sec in timings.items()}
        _write_json(os.path.join(outdir, "metrics.json"), metrics)
    except _RUNTIME_ERRORS as exc:
        _write_json(
            os.path.join(outdir, "failure.json"),
            {"phase": phase, "error": type(exc).__name__, "message": str(exc)},
        )
        print(f"runtime failure during {phase}: {exc}", file=sys.stderr)
        return 1, outdir
    return 0, outdir


def _run_chains(exp, corpus, sweeps, num_steps, cfgs, rngs):
    """Run every sampler chain; a failure message names the chain and the step.

    Chains that share the forward corpus advance together in one batched
    call. Oracle variants and CMDP SPSA pools have a source per chain, so
    those chains run one at a time.
    """
    if exp.source_kind != ORACLE and exp.kind != "cmdp":
        source = _chain_source(exp, corpus, sweeps, num_steps, 0)
        return run_chains(exp.variant, source, cfgs, num_steps, rngs, burn_in=exp.burn_in)
    trajs = []
    for chain, (cfg, rng) in enumerate(zip(cfgs, rngs)):
        source = _chain_source(exp, corpus, sweeps, num_steps, chain)
        try:
            trajs.append(run_sampler(exp.variant, source, cfg, num_steps, rng, burn_in=exp.burn_in))
        except _RUNTIME_ERRORS as exc:
            if exp.chains == 1:
                raise
            raise type(exc)(f"chain {chain}: {exc}") from exc
    return trajs


def _chain_source(exp, corpus, sweeps, num_steps, chain):
    oracle_rng = exp.root.child(_RNG_CHAIN_ORACLE + chain)
    if exp.source_kind == ORACLE:
        return exp.oracle(oracle_rng)
    if exp.source_kind == STREAM:
        return corpus.iter_sweeps(sweeps)
    if exp.kind == "cmdp":
        return cmdp.make_angle_pool_source(
            exp.model,
            exp.pool_size,
            num_steps,
            exp.horizon,
            exp.perturbation,
            oracle_rng,
        )
    return itertools.chain.from_iterable(corpus.as_pools(exp.pool_size) for _ in range(sweeps))


def _analyze(exp, pooled, base_post, metrics):
    """Fill `metrics` from the pooled samples; return the densities to write by file name."""
    analysis = exp.analysis
    densities = {}
    if analysis.get("report_variance", True):
        metrics["variance"] = [float(v) for v in pooled.var(axis=0)]
        metrics["mean"] = [float(v) for v in pooled.mean(axis=0)]
    if exp.kind == "quadratic":
        metrics["analytic_variance_target"] = 1.0 / (exp.curvature * exp.beta)
    if exp.kind == "cmdp":
        tol = float(analysis.get("constraint_tolerance", 0.15))
        policies = cmdp.spherical_to_policy(
            pooled.reshape(-1, exp.model.num_states, exp.model.num_actions - 1)
        )
        _, _, avg_cost = cmdp.stationary_joint_batch(exp.model, policies)
        near = np.abs(avg_cost - exp.model.constraint_bound) < tol
        metrics["constraint_tolerance"] = tol
        metrics["constraint_near_fraction"] = float(near.mean())

    if exp.grid is not None:
        dens = build_density(pooled, exp.grid)
        densities["density.csv"] = dens
        metrics["out_of_range_fraction"] = dens.out_of_range_fraction
        if analysis.get("find_modes"):
            modes = find_modes(dens)
            metrics["modes"] = [
                {"center": [float(c) for c in center], "mass": float(mass)}
                for _, center, mass in modes
            ]
        if base_post is not None:
            bdens = build_density(base_post, exp.grid)
            densities["baseline_density.csv"] = bdens
            if analysis.get("compare_marginals"):
                metrics["variational_distance"] = [
                    variational_distance(marginal(dens, axis), marginal(bdens, axis))
                    for axis in range(exp.dim)
                ]
    return densities


def _pooled_posts(rundir):
    stems = []
    for name in sorted(os.listdir(rundir)):
        if name.startswith("trajectory") and name.endswith(".json"):
            stems.append(name[: -len(".json")])
    if not stems:
        raise ConfigError(f"{rundir}: contains no trajectory artifacts")
    posts = [load_trajectory(rundir, stem=stem)[0].post for stem in stems]
    return np.vstack(posts)


def compare_runs(dir_a, dir_b):
    """Per-marginal W1 and variational distance between two run directories."""
    a = _pooled_posts(dir_a)
    b = _pooled_posts(dir_b)
    if a.shape[1] != b.shape[1]:
        raise ConfigError(
            f"dimension mismatch: {dir_a} has {a.shape[1]}, {dir_b} has {b.shape[1]}"
        )
    w1 = []
    tv = []
    for axis in range(a.shape[1]):
        w1.append(wasserstein1(a[:, axis], b[:, axis]))
        lo = float(min(a[:, axis].min(), b[:, axis].min()))
        hi = float(max(a[:, axis].max(), b[:, axis].max()))
        if hi <= lo:
            hi = lo + 1.0
        grid = GridSpec(((lo, hi, 60),))
        tv.append(
            variational_distance(build_density(a[:, axis], grid), build_density(b[:, axis], grid))
        )
    return {
        "marginals": a.shape[1],
        "samples_a": int(a.shape[0]),
        "samples_b": int(b.shape[0]),
        "w1": w1,
        "w1_median": float(np.median(w1)),
        "w1_mean": float(np.mean(w1)),
        "w1_max": float(np.max(w1)),
        "variational_distance": tv,
    }


def _write_compare_csv(report, path):
    write_csv(
        path,
        ["marginal", "w1", "variational_distance"],
        ([i, w, t] for i, (w, t) in enumerate(zip(report["w1"], report["variational_distance"]))),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="langirl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a config or manifest JSON file")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    runp.add_argument("--scale", choices=("desk", "paper"), default="desk")
    runp.add_argument("--chains", type=int, default=None, help="independent chains to pool")

    cmpp = sub.add_parser("compare", help="compare two finished run directories")
    cmpp.add_argument("dir_a")
    cmpp.add_argument("dir_b")
    cmpp.add_argument("--out", default=None, help="directory for compare.json/compare.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            doc = load_config(args.config)
            config = resolve_config(
                doc, scale=args.scale, seed=args.seed, out=args.out, chains=args.chains
            )
            code, outdir = run_experiment(config)
            if code == 0:
                print(f"run complete: {outdir}")
            return code
        report = compare_runs(args.dir_a, args.dir_b)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, "compare.json"), report)
            _write_compare_csv(report, os.path.join(args.out, "compare.csv"))
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
