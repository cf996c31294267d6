"""Config-driven experiment runner.

`langirl run config.json` wires a problem, an optional forward agent pool,
a sampler variant, and the analysis stage together, then writes every
artifact (trajectories, density grids, metrics, manifest) under one output
directory. `langirl compare dirA dirB` computes per-marginal distances
between two finished runs, pooling the chains each run's metrics.json names.
Exit codes: 0 success, 1 runtime failure, 2 config error.

`--chains N` pools N sampler chains, and `baseline.chains` sets the number of
baseline chains. Each set of chains advances together in one batched
`run_chains` call, whatever its source. Oracle chains (the baseline's too)
and CMDP chains each read a source of their own. Chains that read the forward
corpus all read it in the same order; they differ only in their noise (and
their start, with `init: "sample"`). Their spread therefore understates the
error of the pooled estimate, and a between-chain diagnostic such as R-hat
would overstate how independent they are. A failure reports the earliest
failing step of any chain of the set (the lowest chain on a tie), naming the
chain when there are several. A set's trajectory files are written only once
every chain of the set has finished. A run first removes from its output
directory every file an earlier run may have written there but the manifest.

A config's baseline chain set runs in a forked worker process, started
before the forward phase, while the run goes on with the forward, sampler and
trajectory-write phases; the run then joins it and analyses both sets. The
worker writes its set's files itself, so stopping it stops every baseline
write. Two jobs split their items with `_shares` into contiguous shares, one
per CPU the process may use but never more shares than items: the run does
the first share and one forked worker per later share does that share
meanwhile. They are a CMDP run's SPSA pool chunks, whose first share the run
computes as its chains read it, and the sampler chain set's files, all
written before the analysis. A pool chunk depends only on its chain's stream
and its index, and a chain's files only on that chain, so every byte a run
writes is the same whatever the CPU count. When `os.fork` fails, the run
makes a worker's call itself when it needs the result, with the same bytes.
The earliest failing phase wins, in the order forward, sampler, baseline,
analysis: a forward or sampler failure kills the workers and removes what the
baseline worker wrote. A pooled mean or variance that overflows is an
analysis failure. A failed write ends the run with exit 1 and
`failure.json`: an `OSError` in the run, or a `ChildProcessError` from a
writer or the baseline worker. On Linux a run ended by a signal takes its
workers with it.

Each entry of `timings_seconds` adds up the time its phase took in the
process that ran it, so the phases overlap and their sum can exceed the
wall time. The `write` entry counts the run's and the baseline worker's own
writes and the run's waits for its writers; a writer's or a pool worker's
own time is in no entry. `os.fork` makes a run with a baseline, with more than
one chain on more than one CPU, or with more than one CMDP pool chunk
POSIX-only.

Regime tracking is library-only: call `tracking.run_tracking`; a config has
no tracking section.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import signal
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
    DomainError,
    GradientPool,
    NonFiniteError,
    RngStream,
    SourceExhausted,
    write_csv,
)
from .core import write_json as _write_json
from .forward import AgentPoolConfig, InitDensity, run_agent_pool
from .irl import (
    CLASSICAL,
    ORACLE,
    POOL,
    STREAM,
    VARIANTS,
    SamplerConfig,
    check_run,
    load_trajectory,
    run_chains,
    run_sampler,  # not called here, but bench/tracer.py wraps cli.run_sampler
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

_RUNTIME_ERRORS = (NonFiniteError, DensityFloorError, SourceExhausted, DomainError)


def _merge(base, overlay):
    if isinstance(base, dict) and isinstance(overlay, dict):
        out = dict(base)
        for key, val in overlay.items():
            out[key] = _merge(base.get(key), val) if key in base else val
        return out
    return overlay


class _Fields(dict):
    """A config object, its nested objects wrapped too, that records the fields `_expect` read."""

    def __init__(self, fields):
        super().__init__({key: _Fields(val) if isinstance(val, dict) else val for key, val in fields.items()})
        self.read = set()


def _unread(section, path):
    """`<path>.<field>` of each field of `section` that was never read, in nested objects too."""
    for field, value in section.items():
        if field not in section.read:
            yield f"{path}.{field}"
        elif isinstance(value, _Fields):
            yield from _unread(value, f"{path}.{field}".removeprefix("config."))


def _expect(section, field, kinds, path, required=True, default=None):
    if field not in section:
        if required:
            raise ConfigError(f"{path}.{field}: missing required field")
        return default
    section.read.add(field)
    value = section[field]
    # JSON true and false load as bools, which Python also counts as ints.
    if isinstance(value, bool) and kinds is not bool or not isinstance(value, kinds):
        raise ConfigError(f"{path}.{field}: expected {kinds}, got {type(value).__name__}")
    return value


def _number(section, field, path, required=True, default=None):
    """A number field as a float, or `default` when it is absent."""
    value = _expect(section, field, (int, float), path, required, default)
    return None if value is None else float(value)


def _vector(section, field, path, required=True, default=None):
    """A list of finite numbers (or a list of such lists) as a float64 array, or `default` when absent.

    Every entry's type is checked: `np.asarray(x, dtype=float)` would also
    take strings such as "1" and JSON true. JSON NaN and Infinity are
    rejected here too, not later as a runtime failure.
    """
    value = _expect(section, field, list, path, required, default)
    if value is None:
        return None
    entries = np.asarray(value, dtype=object).flat
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in entries):
        raise ConfigError(f"{path}.{field}: expected a list of finite numbers, got {value!r}")
    return np.asarray(value, dtype=np.float64)


def load_config(path):
    """Parse a config or manifest file and return the raw config dict."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
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
    """Everything `run` needs, derived from one validated config.

    Every config error is raised here, before anything is written; a field
    that nothing reads is one. The sampler chains share `sampler_cfg` and the
    baseline chains share `baseline_cfg`, each chain differing only in its
    start: the config's own init, or a draw from `sample_init` (the density to
    draw from) when the config asks for `init: "sample"`.
    """

    def __init__(self, config):
        config = _Fields(config)
        config.read.update(("schema", "scale"))  # read by resolve_config
        self.name = _expect(config, "experiment", str, "config")
        self.seed = _expect(config, "seed", int, "config")
        if self.seed < 0:
            raise ConfigError(f"config.seed: must be non-negative, got {self.seed}")
        self.output = _expect(config, "output", str, "config")
        self.chains = _expect(config, "chains", int, "config", required=False, default=1)
        if self.chains < 1:
            raise ConfigError("chains: must be at least 1")
        self.root = RngStream(self.seed)
        # The forked workers that compute pools for this run; the run stops them.
        self.workers = []

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
        forward = _expect(config, "forward", dict, "config", required=False)
        baseline = _expect(config, "baseline", dict, "config", required=False)
        if self.oracle is None and (self.source_kind != POOL or forward is not None or baseline is not None):
            raise ConfigError(
                f"problem.kind {self.kind!r} has no gradient oracle: it runs only the multikernel "
                "variant on its SPSA pools, with no forward or baseline section"
            )
        needs_corpus = self.source_kind == STREAM or (self.source_kind == POOL and self.kind != "cmdp")
        if needs_corpus and forward is None:
            raise ConfigError(
                f"forward: required by sampler.variant {self.variant!r} for problem.kind {self.kind!r}"
            )
        self._build_forward(forward)
        self._build_sampler(sampler)
        self._build_baseline(baseline)

        analysis = _expect(config, "analysis", dict, "config", required=False, default={})
        grid = _vector(analysis, "grid", "analysis", required=False)
        self.grid = None
        if grid is not None:
            if grid.ndim != 2 or grid.shape[1] != 3:
                raise ConfigError(f"analysis.grid: expected one [low, high, bins] per axis, got {grid.tolist()!r}")
            try:
                self.grid = GridSpec(tuple(map(tuple, grid.tolist())))
            except ConfigError as exc:
                raise ConfigError(f"analysis.grid: {exc}") from None
            if self.grid.dim != self.dim:
                raise ConfigError(
                    f"analysis.grid: {self.grid.dim} axes do not match problem dimension "
                    f"{self.dim} (problem.kind {self.kind!r})"
                )
        self.find_modes, self.compare_marginals = (
            _expect(analysis, field, bool, "analysis", required=False, default=False)
            for field in ("find_modes", "compare_marginals")
        )
        if self.compare_marginals and baseline is None:
            raise ConfigError("analysis.compare_marginals: requires a baseline section")
        self.constraint_tolerance = _number(
            analysis, "constraint_tolerance", "analysis", required=False, default=0.15
        )
        if not self.constraint_tolerance > 0:
            raise ConfigError(f"analysis.constraint_tolerance: must be positive, got {self.constraint_tolerance}")
        for path in _unread(config, "config"):
            raise ConfigError(f"{path}: unknown field")

    # -- problem ---------------------------------------------------------

    def _build_problem(self, problem):
        if self.kind == "quadratic":
            self.dim = _expect(problem, "dim", int, "problem", required=False, default=1)
            curvature = self.curvature = _number(problem, "curvature", "problem", required=False, default=1.0)
            center = _number(problem, "center", "problem", required=False, default=0.0)
            noise = _number(problem, "noise_std", "problem", required=False, default=0.0)
            self.oracle = lambda rng: synthetic.quadratic_oracle(curvature, center, noise, rng)
        elif self.kind == "mixture":
            variances = _vector(problem, "prior_variances", "problem", required=False, default=[10.0, 2.0])
            model = mixture.MixtureModel(
                _vector(problem, "true_param", "problem"),
                likelihood_weight=_number(problem, "likelihood_weight", "problem", required=False, default=20.0),
                prior_variances=tuple(variances.tolist()),
                component_var=_number(problem, "component_var", "problem", required=False, default=2.0),
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
                try:
                    features, labels = logistic.parse_libsvm(data)
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"problem.data: cannot read {data}: {exc}") from None
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
            weight = _number(problem, "likelihood_weight", "problem", required=False, default=10.0)
            model = logistic.LogisticModel(features, labels, likelihood_weight=weight)
            self.model = model
            self.dim = features.shape[1]
            self.oracle = lambda rng: logistic.make_stream_oracle(model)
        elif self.kind == "cmdp":
            spec = _expect(problem, "model", str, "problem", required=False, default="two-state")
            try:
                model = cmdp.CmdpModel.two_state_example() if spec == "two-state" else cmdp.CmdpModel.from_json(spec)
            except ConfigError as exc:
                raise ConfigError(f"problem.model: {exc}") from None
            self.model = model
            self.dim = model.num_angles
            self.horizon = _expect(problem, "horizon", int, "problem")
            self.perturbation = _number(problem, "perturbation", "problem")
            if self.horizon < 1:
                raise ConfigError(f"problem.horizon: must be at least 1, got {self.horizon}")
            if not self.perturbation > 0:
                raise ConfigError(f"problem.perturbation: must be positive, got {self.perturbation}")
            self.oracle = None
        else:
            raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")

    # -- forward, sampler and baseline -----------------------------------

    def _build_forward(self, fwd):
        """The agent pool and its initialization density; None without a forward section."""
        self.agents = self.density = None
        self.sweeps = 1
        self.shuffle = False
        if fwd is None:
            return
        self.agents = AgentPoolConfig(
            step=_number(fwd, "step", "forward"),
            num_agents=_expect(fwd, "num_agents", int, "forward"),
            run_length=_expect(fwd, "run_length", int, "forward"),
        )
        self.sweeps = _expect(fwd, "sweeps", int, "forward", required=False, default=1)
        if self.sweeps < 1:
            raise ConfigError(f"forward.sweeps: must be at least 1, got {self.sweeps}")
        self.shuffle = _expect(fwd, "shuffle", bool, "forward", required=False, default=False)
        init = _expect(fwd, "init", dict, "forward", required=False, default={})
        mean = _vector(init, "mean", "forward.init", required=False, default=[0.0] * self.dim)
        variances = _vector(init, "variances", "forward.init", required=False, default=[1.0] * self.dim)
        if mean.size != self.dim or variances.size != self.dim:
            raise ConfigError(
                f"forward.init: dimension does not match problem dimension {self.dim}"
            )
        self.density = InitDensity(mean, variances)

    def _start(self, section, path, density, default=None):
        """(init vector, density to draw each chain's start from or None) of a section."""
        init = _expect(section, "init", (list, str), path, required=default is None, default=default)
        if isinstance(init, str):
            if init != "sample":
                raise ConfigError(f"{path}.init: expected a vector or 'sample', got {init!r}")
            if density is None:
                raise ConfigError(f"{path}.init: 'sample' requires a forward section")
            return np.zeros(self.dim), density
        vec = _vector(section, "init", path, required=False, default=default)
        if vec.size != self.dim:
            raise ConfigError(
                f"{path}.init: length {vec.size} does not match problem dimension "
                f"{self.dim} (problem.kind {self.kind!r})"
            )
        return vec, None

    def _build_sampler(self, sampler):
        kernel = _expect(sampler, "kernel", dict, "sampler", required=False)
        if kernel is not None:
            family = _expect(kernel, "family", str, "sampler.kernel", required=False, default=GAUSSIAN)
            kernel = Kernel(family, _number(kernel, "bandwidth", "sampler.kernel"), self.dim)
        init, self.sample_init = self._start(sampler, "sampler", self.density)
        pool_size = _expect(sampler, "pool_size", int, "sampler", required=False, default=1)

        # Corpus readers take at most what the corpus holds over its sweeps.
        num_steps = _expect(sampler, "num_steps", int, "sampler", required=False)
        if self.source_kind != ORACLE and self.agents is not None:
            rows = self.agents.num_agents * self.agents.run_length
            # A pool_size below 1 is the SamplerConfig error raised below.
            available = self.sweeps * (rows if self.source_kind == STREAM else rows // max(pool_size, 1))
            if num_steps is None:
                num_steps = available
            if num_steps > available:
                raise ConfigError(
                    f"sampler.num_steps: {num_steps} exceeds the forward corpus's "
                    f"{self.source_kind} items x sweeps ({available})"
                )
        elif num_steps is None:
            raise ConfigError(f"sampler.num_steps: required for variant {self.variant!r}")
        self.num_steps = num_steps
        self.burn_in = _expect(sampler, "burn_in", int, "sampler", required=False)
        self.sampler_cfg = _sampler_config(
            "sampler",
            self.variant,
            num_steps,
            self.burn_in,
            step=_number(sampler, "step", "sampler"),
            beta=_number(sampler, "beta", "sampler"),
            init=init,
            kernel=kernel,
            init_density=self.density,
            pool_size=pool_size,
            conditional_std=_number(sampler, "conditional_std", "sampler", required=False),
            skew=_vector(sampler, "skew", "sampler", required=False),
        )

    def _build_baseline(self, baseline):
        self.baseline_cfg = None
        if baseline is None:
            return
        self.baseline_chains = _expect(baseline, "chains", int, "baseline", required=False, default=1)
        if self.baseline_chains < 1:
            raise ConfigError("baseline.chains: must be at least 1")
        self.baseline_steps = _expect(baseline, "num_steps", int, "baseline")
        density = self.density if self.density is not None else InitDensity.standard(self.dim)
        init, self.baseline_sample_init = self._start(baseline, "baseline", density, default=[0.0] * self.dim)
        self.baseline_cfg = _sampler_config(
            "baseline",
            CLASSICAL,
            self.baseline_steps,
            step=_number(baseline, "step", "baseline"),
            beta=_number(baseline, "beta", "baseline", required=False, default=self.sampler_cfg.beta),
            init=init,
        )


def _sampler_config(path, variant, num_steps, burn_in=None, **fields):
    """A SamplerConfig that `check_run` passes for a run of `variant`; errors name the config section."""
    try:
        cfg = SamplerConfig(**fields)
        check_run(variant, cfg, num_steps, burn_in)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _make_dirs(path):
    """Create the output directory `path` unless it exists; a path it cannot take is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory: {exc}") from None


@contextlib.contextmanager
def _timed(timings, phase):
    """Add the perf_counter seconds the block takes to timings[phase]."""
    t0 = time.perf_counter()
    yield
    timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0


def run_experiment(config):
    """Execute one resolved config. Returns (exit_code, output_dir)."""
    exp = _Experiment(config)
    outdir = exp.output
    _make_dirs(outdir)
    # The files of an earlier run into this directory would describe it, not this run.
    _remove_artifacts(outdir)
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
    baseline = None
    try:
        # Optional classical-Langevin reference chains on the same problem,
        # run beside the phases below; they share nothing with them.
        if exp.baseline_cfg is not None:
            baseline = _Worker(_baseline_chains, exp, outdir)

        # Forward corpus, when the variant consumes recorded agent data.
        corpus = None
        if exp.agents is not None:
            phase = "forward"
            with _timed(timings, "forward"):
                oracle = exp.oracle(exp.root.child(_RNG_CORPUS_ORACLE))
                corpus = run_agent_pool(oracle, exp.density, exp.agents, exp.root.child(_RNG_AGENTS))
                if exp.shuffle:
                    corpus = corpus.shuffled(exp.root.child(_RNG_SHUFFLE))
            metrics["forward_samples"] = len(corpus)

        # Sampler chains, pooled after burn-in.
        phase = "sampler"
        with _timed(timings, "sampler"):
            rngs = [exp.root.child(_RNG_CHAIN_NOISE + chain) for chain in range(exp.chains)]
            cfgs = _chain_configs(exp.sampler_cfg, exp.sample_init, rngs)
            oracle_rngs = [exp.root.child(_RNG_CHAIN_ORACLE + chain) for chain in range(exp.chains)]
            source = _chain_source(exp, exp.source_kind, corpus, oracle_rngs)
            trajs = run_chains(exp.variant, source, cfgs, exp.num_steps, rngs, burn_in=exp.burn_in)
        with _timed(timings, "write"):
            _save_chains(trajs, cfgs, outdir, "trajectory")
        pooled = np.vstack([traj.post for traj in trajs])
        metrics["post_samples"] = int(pooled.shape[0])
        metrics["underflow_resets"] = sum(traj.underflow_resets for traj in trajs)

        base_post = None
        if baseline is not None:
            phase = "baseline"
            base_post, worker_timings = baseline.join()
            for name, sec in worker_timings.items():
                timings[name] = timings.get(name, 0.0) + sec

        phase = "analysis"
        with _timed(timings, "analysis"):
            densities = _analyze(exp, pooled, base_post, metrics)
        with _timed(timings, "write"):
            for name, dens in densities.items():
                density_to_csv(dens, os.path.join(outdir, name))
        metrics["timings_seconds"] = {key: round(sec, 3) for key, sec in timings.items()}
        _write_json(os.path.join(outdir, "metrics.json"), metrics)
    except (*_RUNTIME_ERRORS, OSError) as exc:  # OSError: a failed write, ChildProcessError included
        if baseline is not None and baseline.stop():
            # The run failed before joining the worker: like any run that
            # never reached its baseline, it keeps none of the worker's files.
            _remove_artifacts(outdir)
        _write_json(
            os.path.join(outdir, "failure.json"),
            {"phase": phase, "error": type(exc).__name__, "message": str(exc)},
        )
        print(f"runtime failure during {phase}: {exc}", file=sys.stderr)
        return 1, outdir
    finally:
        for worker in [baseline, *exp.workers]:
            if worker is not None:
                worker.stop()
    return 0, outdir


_ARTIFACT_NAME = re.compile(r"(trajectory|baseline)(_c\d+)?\.(csv|json)|(baseline_)?density\.csv|(metrics|failure)\.json")


def _remove_artifacts(outdir):
    """Remove from `outdir` every file a run writes there but its manifest."""
    for name in os.listdir(outdir):
        if _ARTIFACT_NAME.fullmatch(name):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(outdir, name))


def _baseline_chains(exp, outdir):
    """Run and write the baseline chain set: (pooled post-burn-in samples, phase timings).

    The files are written in this process, never by a writer of its own, so
    stopping the worker that runs this stops every baseline write.
    """
    timings = {}
    with _timed(timings, "baseline"):
        chains = range(exp.baseline_chains)
        rngs = [exp.root.child(_RNG_BASE_NOISE).child(chain) for chain in chains]
        cfgs = _chain_configs(exp.baseline_cfg, exp.baseline_sample_init, rngs)
        oracle_rngs = [exp.root.child(_RNG_BASE_ORACLE).child(chain) for chain in chains]
        source = _chain_source(exp, ORACLE, None, oracle_rngs)
        bases = run_chains(CLASSICAL, source, cfgs, exp.baseline_steps, rngs)
    with _timed(timings, "write"):
        _write_chains(list(zip(_chain_stems("baseline", len(bases)), bases, cfgs)), outdir)
    return np.vstack([base.post for base in bases]), timings


class _Worker:
    """`fn(*args)` run in a forked child process while the parent goes on.

    The child sends its result, or the runtime error that ended it, back
    through a pipe and leaves only through `os._exit`: it never returns into
    the caller's stack, flushes no inherited buffers and runs no exit handler
    of the parent's. Fork, not spawn: a spawned child would import numpy and
    `langirl` again, which costs about as long as a bench baseline runs.

    The result depends only on `fn` and `args`. So when `os.fork` fails
    (EAGAIN or ENOMEM), `join` makes the call in the parent instead, with
    the same result.
    """

    def __init__(self, fn, *args):
        self._call = fn, args
        self.pid = None
        # Output still buffered at the fork would otherwise be written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if self.pid == 0:
            os.close(read_fd)
            self._serve(write_fd, parent)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")

    def _serve(self, write_fd, parent):
        status = 1
        try:
            # A parent ended by a signal runs no `finally` to kill its worker,
            # which would otherwise run on and write into a dead run's
            # directory: on Linux the kernel kills the worker with it.
            if sys.platform == "linux":
                import ctypes

                ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
            if os.getppid() != parent:  # the parent died before the prctl
                return
            fn, args = self._call
            try:
                result = fn(*args)
            except _RUNTIME_ERRORS as exc:
                result = exc
            with open(write_fd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)

    def join(self):
        """Wait for the worker and return the call's result.

        Raises the runtime error that ended the call, or ChildProcessError
        when the worker ended without a result.
        """
        fn, args = self._call
        if self.pid is None:  # the fork failed
            return fn(*args)
        with self._pipe:
            data = self._pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0 or not data:
            raise ChildProcessError(f"forked worker ended with exit status {code} and no result")
        # Only this worker wrote these bytes.
        result = pickle.loads(data)
        if isinstance(result, Exception):
            raise result
        return result

    def stop(self):
        """Kill and reap the worker unless it was joined; True when it had to be killed."""
        if self.pid is None:
            return False
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self._pipe.close()
        self.pid = None
        return True


def _chain_configs(template, sample_init, rngs):
    """One config per chain: `template`, or a copy started at a draw from `sample_init`."""
    if sample_init is None:
        return [template] * len(rngs)
    return [dataclasses.replace(template, init=sample_init.sample(rng)) for rng in rngs]


def _chain_source(exp, kind, corpus, rngs):
    """The one source `run_chains` reads for a set of chains reading a `kind` source.

    Chains that read the forward corpus share one reader of it. Otherwise
    chain c has a source of its own, made from `rngs[c]`: a gradient oracle
    or a stream of CMDP SPSA pools (`_spsa_pools`). Several chains' oracles
    become one block oracle that answers row c from chain c's oracle, and
    their pools are stacked to (chains, pool, dim) with chain c's pool in
    row c. One chain's source is passed unchanged.
    """
    if kind != ORACLE and exp.kind != "cmdp":
        pool_size = exp.sampler_cfg.pool_size
        passes = (corpus if kind == STREAM else corpus.as_pools(pool_size) for _ in range(exp.sweeps))
        return itertools.chain.from_iterable(passes)
    if kind != ORACLE:
        return _spsa_pools(exp, rngs)
    oracles = [exp.oracle(rng) for rng in rngs]
    if len(oracles) == 1:
        return oracles[0]
    return lambda points: np.stack([oracle(point) for oracle, point in zip(oracles, points)])


def _shares(fn, items, *args):
    """`items` split into contiguous shares, one per CPU this process may use but never more than there are items.

    Returns the first share, for the caller, and a started `_Worker` running
    `fn(share, *args)` for each later share.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    shares = max(1, min(cpus, len(items)))
    cuts = [len(items) * share // shares for share in range(shares + 1)]
    return items[:cuts[1]], [_Worker(fn, items[lo:hi], *args) for lo, hi in zip(cuts[1:], cuts[2:])]


def _pool_chunks(chunks, exp, rngs):
    """Chunks `chunks` of every chain's SPSA pools, as (points, gradients) arrays.

    Each is (pools, pool, dim) for one chain, (pools, chains, pool, dim) with chain c's pools in row c.
    """
    args = exp.model, exp.sampler_cfg.pool_size, exp.num_steps, exp.horizon, exp.perturbation
    per_chain = [
        [np.concatenate(arrays) for arrays in zip(*(cmdp.angle_pool_chunk(*args, rng, c) for c in chunks))]
        for rng in rngs
    ]
    return [arrays[0] if len(rngs) == 1 else np.stack(arrays, axis=1) for arrays in zip(*per_chain)]


def _spsa_pools(exp, rngs):
    """Each chain's CMDP SPSA pools, as `cmdp.make_angle_pool_source` makes them from `rngs[c]`.

    The chunks split into `_shares`, every chain's chunk k in the same share.
    The run computes the first share a chunk at a time, as the chains read
    it; a later share's worker, added to `exp.workers`, is joined when the
    chains reach its chunks.
    """
    own, workers = _shares(_pool_chunks, range(-(-exp.num_steps // cmdp.POOL_CHUNK)), exp, rngs)
    exp.workers.extend(workers)
    parts = itertools.chain((_pool_chunks([c], exp, rngs) for c in own), map(_Worker.join, workers))
    return (GradientPool(*pool) for points, gradients in parts for pool in zip(points, gradients))


def _chain_stems(name, chains):
    """The file stem of each chain: `name` for one chain, `name_c<c>` for chain c of several."""
    return [name] if chains == 1 else [f"{name}_c{chain}" for chain in range(chains)]


def _save_chains(trajs, cfgs, outdir, name):
    """Write a chain set's files: the caller its chains' first share of `_shares`, a worker each later share."""
    own, workers = _shares(_write_chains, list(zip(_chain_stems(name, len(trajs)), trajs, cfgs)), outdir)
    try:
        _write_chains(own, outdir)
        for worker in workers:
            worker.join()
    finally:
        for worker in workers:
            worker.stop()


def _write_chains(chains, outdir):
    for stem, traj, cfg in chains:
        save_trajectory(traj, cfg, outdir, stem=stem)


def _analyze(exp, pooled, base_post, metrics):
    """Fill `metrics` from the pooled samples; return the densities to write by file name."""
    densities = {}
    variance, mean = pooled.var(axis=0), pooled.mean(axis=0)
    if not (np.isfinite(variance).all() and np.isfinite(mean).all()):
        raise NonFiniteError(f"pooled mean {mean.tolist()} or variance {variance.tolist()} is not finite")
    metrics["variance"] = variance.tolist()
    metrics["mean"] = mean.tolist()
    if exp.kind == "quadratic":
        metrics["analytic_variance_target"] = 1.0 / (exp.curvature * exp.sampler_cfg.beta)
    if exp.kind == "cmdp":
        # Policies are periodic in the angles, so a chain off the box would still give plausible ones.
        off = ((pooled < cmdp.ANGLE_LOW) | (pooled > cmdp.ANGLE_HIGH)).any(axis=1)
        if off.any():
            first, per_chain = int(np.argmax(off)), len(pooled) // exp.chains
            raise DomainError(
                f"chain {first // per_chain}: angles {pooled[first].tolist()} at sampler step "
                f"{exp.num_steps + 1 - per_chain + first % per_chain} are off [{cmdp.ANGLE_LOW}, {cmdp.ANGLE_HIGH}]"
            )
        policies = cmdp.spherical_to_policy(
            pooled.reshape(-1, exp.model.num_states, exp.model.num_actions - 1)
        )
        _, _, avg_cost = cmdp.stationary_joint_batch(exp.model, policies)
        near = np.abs(avg_cost - exp.model.constraint_bound) < exp.constraint_tolerance
        metrics["constraint_tolerance"] = exp.constraint_tolerance
        metrics["constraint_near_fraction"] = float(near.mean())

    if exp.grid is not None:
        dens = build_density(pooled, exp.grid)
        densities["density.csv"] = dens
        metrics["out_of_range_fraction"] = dens.out_of_range_fraction
        if exp.find_modes:
            modes = find_modes(dens)
            metrics["modes"] = [
                {"center": [float(c) for c in center], "mass": float(mass)}
                for _, center, mass in modes
            ]
        if base_post is not None:
            bdens = build_density(base_post, exp.grid)
            densities["baseline_density.csv"] = bdens
            if exp.compare_marginals:
                metrics["variational_distance"] = [
                    variational_distance(marginal(dens, axis), marginal(bdens, axis))
                    for axis in range(exp.dim)
                ]
    return densities


def _pooled_posts(rundir):
    """The pooled post-burn-in samples of the chains named by a finished run's metrics.json."""
    path = os.path.join(rundir, "metrics.json")
    try:
        with open(path) as fh:
            chains = json.load(fh)["chains"]
        if isinstance(chains, bool) or not isinstance(chains, int) or chains < 1:
            raise ValueError(f"chains must be a whole number of at least 1, got {chains!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a finished run ({type(exc).__name__}: {exc})") from None
    posts = [load_trajectory(rundir, stem=stem)[0].post for stem in _chain_stems("trajectory", chains)]
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
            _make_dirs(args.out)
            _write_json(os.path.join(args.out, "compare.json"), report)
            _write_compare_csv(report, os.path.join(args.out, "compare.csv"))
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
