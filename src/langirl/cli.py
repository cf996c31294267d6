"""Config-driven experiment runner.

`langirl run config.json` wires a problem, an optional forward agent pool,
a sampler variant, and the analysis stage together, then writes every
artifact (trajectories, density grids, metrics, manifest) under one output
directory. `langirl compare dirA dirB` computes per-marginal distances
between two finished runs, pooling the chains each run's metrics.json names.
Exit codes: 0 success, 1 runtime failure, 2 config error.

`--chains N` pools N sampler chains, and `baseline.chains` sets the number
of baseline chains. Each set of chains runs in one `run_chains` call,
whatever its source, which advances the chains one by one at every step.
Only sampler chains of a stream or pool variant off the CMDP read the forward
corpus, which a run builds for them alone; any other run refuses a `forward`
section. They read it once, in the same order: they differ only in their
noise and start, so their spread understates the error of the pooled
estimate, and a between-chain diagnostic such as R-hat would overstate how
independent they are. Oracle chains (the baseline's too) each call an oracle
of their own, passed as a list of one per chain, and CMDP chains each read
SPSA pools of their own, one list of a pool per chain each step. At most 30
sampler chains may read oracle or SPSA streams: chain 30's noise stream would
be chain 0's. `init: "sample"` draws a chain's start from `forward.init`, or
from N(0, I) without a forward section (never on the CMDP). A failure reports
the earliest failing step of any chain of the set (the lowest chain on a
tie), naming the chain when there are several. A set's trajectory files are
written only once every chain of the set has finished. A run first removes
from its output directory every file an earlier run may have written there
but the manifest.

A config's baseline chain set runs in a forked worker process, started
before the forward phase, while the run goes on with the forward, sampler and
trajectory-write phases; the run then joins it and analyses both sets. Each
chain set's files are written by the process that ran the set: the worker
writes the baseline's, so stopping it stops every baseline write, and the run
writes the sampler set's before the analysis. The worker sends back the
baseline's density on `analysis.grid` (none without a grid), not its samples.
A run keeps each phase's data only while a later phase reads it: the forward
corpus until the sampler chains have read it, and their trajectories until
they are written and pooled, before the join. A CMDP run splits its SPSA pool
chunks with `_shares` into contiguous shares, one per CPU the process may use
but never more shares than chunks: the run computes the first share as its
chains read it, and one forked worker per later share computes that share
meanwhile. A pool chunk depends only on its chain's stream and its index, so
every byte a run writes is the same whatever the CPU count. When `os.fork`
fails, the run makes a worker's call itself when it needs the result, with
the same bytes. The earliest failing phase wins, in the order forward,
sampler, baseline, analysis: a forward or sampler failure kills the workers
and removes what the baseline worker wrote. A pooled mean or variance that
overflows is an analysis failure. A failed write ends the run with exit 1
and `failure.json`: an `OSError` in the run, or a `ChildProcessError` from
the baseline worker. On Linux a run ended by a signal takes its workers with
it.

Each entry of `timings_seconds` adds up the time its phase took in the
process that ran it, so the phases overlap and their sum can exceed the
wall time. The `write` and `analysis` entries count the work of the run and
of the baseline worker; a pool worker's own time is in no entry. `os.fork`
makes a run with a baseline or with more than one CMDP pool chunk POSIX-only.

Regime tracking is library-only: call `tracking.run_tracking`; a config has
no tracking section.
"""

import argparse
import contextlib
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
from .kernels import Kernel
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

# MemoryError: a trajectory array too large to allocate; no corpus bounds an oracle or CMDP run's step count.
_RUNTIME_ERRORS = (NonFiniteError, DensityFloorError, SourceExhausted, DomainError, MemoryError)


def _merge(base, overlay):
    if isinstance(base, dict) and isinstance(overlay, dict):
        out = dict(base)
        for key, val in overlay.items():
            out[key] = _merge(base.get(key), val) if key in base else val
        return out
    return overlay


class _Section(dict):
    """A config object at dotted `path`, its nested objects wrapped too, that records the fields the readers read.

    The top level's path is `config`; the paths of its sections leave it out (`problem`, `sampler.kernel`).
    """

    def __init__(self, fields, path):
        super().__init__(fields)
        self.path, self.read = path, set()
        for key, val in self.items():
            if isinstance(val, dict):
                self[key] = _Section(val, key if path == "config" else f"{path}.{key}")

    def unread(self):
        """`<path>.<field>` of each field that was never read, in nested objects too."""
        for field, value in self.items():
            if field not in self.read:
                yield f"{self.path}.{field}"
            elif isinstance(value, _Section):
                yield from value.unread()


def _expect(section, field, kinds, required=True, default=None, least=None):
    """Field `field` of `section`, one of `kinds` and at least `least` when given; `default` when it is absent."""
    if field not in section:
        if required:
            raise ConfigError(f"{section.path}.{field}: missing required field")
        return default
    section.read.add(field)
    value = section[field]
    # JSON true and false load as bools, which Python also counts as ints.
    if isinstance(value, bool) and kinds is not bool or not isinstance(value, kinds):
        raise ConfigError(f"{section.path}.{field}: expected {kinds}, got {type(value).__name__}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ConfigError(f"{section.path}.{field}: must be {bound}, got {value}")
    return value


def _finite(value):
    """Whether a JSON number lies in the float range: NaN, ±Infinity and an integer beyond it do not."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _addressable(path, array, *shape):
    """Reject a float64 `array` of `shape` past `sys.maxsize` bytes: numpy raises ValueError for it, not MemoryError."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise ConfigError(f"{path}: the {array}, {' x '.join(map(str, shape))} floats, is past what numpy can address")


def _number(section, field, required=True, default=None, least=None, positive=False):
    """A finite number field as a float, or `default` when it is absent; `positive` rejects one that is not above 0.

    JSON's NaN and Infinity tokens load as floats; they and an integer too large for a float are rejected here.
    """
    value = _expect(section, field, (int, float), required, default, least)
    if value is None:
        return None
    if not _finite(value):
        raise ConfigError(f"{section.path}.{field}: must be a finite number, got {value}")
    if positive and not value > 0:
        raise ConfigError(f"{section.path}.{field}: must be positive, got {float(value)}")
    return float(value)


def _vector(section, field, required=True, default=None):
    """A list of finite numbers (or a list of such lists) as a float64 array, or `default` when absent.

    Every entry's type is checked: `np.asarray(x, dtype=float)` would also
    take strings such as "1" and JSON true. JSON NaN and Infinity, and an
    integer too large for a float, are rejected here too, not later as a
    runtime failure or a traceback.
    """
    value = _expect(section, field, list, required, default)
    if value is None:
        return None
    entries = np.asarray(value, dtype=object).flat
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and _finite(x) for x in entries):
        raise ConfigError(f"{section.path}.{field}: expected a list of finite numbers, got {value!r}")
    return np.asarray(value, dtype=np.float64)


@contextlib.contextmanager
def _prefixed(path):
    """Name the config section `path` in a ConfigError raised inside the block."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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


def resolve_config(doc, scale=None, seed=None, out=None, chains=None):
    """Apply the overlay of the config's own `scale`, else of `scale`, else desk, and the CLI overrides.

    A `scale` may only repeat the config's own. A resolved config, a manifest's (a `scale` and no `scales`), keeps it.
    """
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    scales = doc.get("scales", {})
    if not isinstance(scales, dict):
        raise ConfigError("scales: must be an object keyed by scale name")
    for name, overlay in scales.items():
        if not isinstance(overlay, (dict, type(None))):
            raise ConfigError(f"scales.{name}: must be an object")
    recorded = doc.get("scale")
    if not isinstance(recorded, (str, type(None))):
        raise ConfigError(f"scale: expected a scale name, got {recorded!r}")
    if recorded is not None and scale not in (None, recorded):
        raise ConfigError(f"scale: this config names scale {recorded!r}, not {scale!r}")
    scale = recorded or scale or "desk"
    overlay = scales.get(scale)
    # A manifest (a `scale` and no `scales`) has its overlay merged already.
    if overlay is None and scale != "desk" and ("scales" in doc or recorded is None):
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
    that nothing reads is one, a sampler field its variant does not read too.
    The sampler chains run under `sampler_cfg` and the baseline chains under
    `baseline_cfg`, chain c from `sampler_start(rng)` or `baseline_start(rng)`
    of its noise stream: the config's init, or a draw with `init: "sample"`.
    """

    def __init__(self, config):
        config = _Section(config, "config")
        config.read.update(("schema", "scale"))  # read by resolve_config
        self.name = _expect(config, "experiment", str)
        self.seed = _expect(config, "seed", int, least=0)
        self.output = _expect(config, "output", str)
        self.chains = _expect(config, "chains", int, required=False, default=1, least=1)
        self.root = RngStream(self.seed)
        # The forked workers that compute pools for this run; the run stops them.
        self.workers = []

        problem = _expect(config, "problem", dict)
        self.kind = _expect(problem, "kind", str)
        self._build_problem(problem)

        sampler = _expect(config, "sampler", dict)
        self.variant = _expect(sampler, "variant", str)
        if self.variant not in VARIANTS:
            raise ConfigError(f"sampler.variant: unknown variant {self.variant!r}")
        self.source_kind = VARIANTS[self.variant].source
        # Stream and pool chains read the forward corpus; CMDP pools come from SPSA instead.
        self.reads_corpus = self.source_kind != ORACLE and self.kind != "cmdp"
        # Chain c's noise stream is child 10 + c and its oracle or SPSA pool stream child 40 + c.
        most = _RNG_CHAIN_ORACLE - _RNG_CHAIN_NOISE
        if self.chains > most and not self.reads_corpus:
            raise ConfigError(f"config.chains: at most {most} chains may read oracle or SPSA streams, got "
                              f"{self.chains}: chain {most}'s noise stream would be chain 0's oracle or pool stream")
        forward = _expect(config, "forward", dict, required=False)
        baseline = _expect(config, "baseline", dict, required=False)
        if self.oracle is None and (self.source_kind != POOL or forward is not None or baseline is not None):
            raise ConfigError(
                f"problem.kind {self.kind!r} has no gradient oracle: it runs only the multikernel "
                "variant on its SPSA pools, with no forward or baseline section"
            )
        if self.reads_corpus != (forward is not None):
            raise ConfigError(f"forward: {'required' if self.reads_corpus else 'not read'} by sampler.variant "
                              f"{self.variant!r} for problem.kind {self.kind!r}")
        self._build_forward(forward)
        self._build_sampler(sampler)
        self._build_baseline(baseline)
        if self.kind == "quadratic":
            # The stationary variance the analysis reports; metrics.json cannot hold an overflow.
            product = self.curvature * self.sampler_cfg.beta
            if not (product > 0 and math.isfinite(1.0 / product)):
                raise ConfigError(
                    f"problem.curvature: stationary variance 1/(curvature*beta) is not finite "
                    f"for curvature {self.curvature} and sampler.beta {self.sampler_cfg.beta}"
                )
            self.variance_target = 1.0 / product

        analysis = _expect(config, "analysis", dict, required=False, default={})
        grid = _vector(analysis, "grid", required=False)
        self.grid = None
        if grid is not None:
            with _prefixed("analysis.grid"):
                if grid.ndim != 2 or grid.shape[1] != 3:
                    raise ConfigError(f"expected one [low, high, bins] per axis, got {grid.tolist()!r}")
                self.grid = GridSpec(tuple(map(tuple, grid.tolist())))
                if self.grid.dim != self.dim:
                    raise ConfigError(
                        f"{self.grid.dim} axes do not match problem dimension {self.dim} (problem.kind {self.kind!r})"
                    )
            # np.histogramdd counts into bins + 2 cells per axis, the outliers' included.
            _addressable("analysis.grid", "histogram", *(bins + 2 for _, _, bins in self.grid.axes))
        self.find_modes, self.compare_marginals = (
            _expect(analysis, field, bool, required=False, default=False)
            for field in ("find_modes", "compare_marginals")
        )
        if self.compare_marginals and baseline is None:
            raise ConfigError("analysis.compare_marginals: requires a baseline section")
        for field in ("find_modes", "compare_marginals"):
            if getattr(self, field) and self.grid is None:
                raise ConfigError(f"analysis.{field}: requires analysis.grid")
        self.constraint_tolerance = _number(
            analysis, "constraint_tolerance", required=False, default=0.15, positive=True
        )
        if "constraint_tolerance" in analysis and self.kind != "cmdp":
            raise ConfigError(f"analysis.constraint_tolerance: read only for problem.kind 'cmdp', not {self.kind!r}")
        for path in config.unread():
            raise ConfigError(f"{path}: unknown field")

    # -- problem ---------------------------------------------------------

    def _build_problem(self, problem):
        if self.kind == "quadratic":
            self.dim = _expect(problem, "dim", int, required=False, default=1, least=1)
            curvature = self.curvature = _number(problem, "curvature", required=False, default=1.0, positive=True)
            center = _number(problem, "center", required=False, default=0.0)
            noise = _number(problem, "noise_std", required=False, default=0.0, least=0)
            self.oracle = lambda rng: synthetic.quadratic_oracle(curvature, center, noise, rng)
        elif self.kind == "mixture":
            true_param = _vector(problem, "true_param")
            weight = _number(problem, "likelihood_weight", required=False, default=20.0)
            variances = _vector(problem, "prior_variances", required=False, default=[10.0, 2.0])
            component_var = _number(problem, "component_var", required=False, default=2.0)
            with _prefixed("problem"):
                model = mixture.MixtureModel(true_param, weight, tuple(variances.tolist()), component_var)
            self.dim = 2
            self.oracle = lambda rng: mixture.make_stream_oracle(model, rng)
        elif self.kind == "logistic":
            data = _expect(problem, "data", str)
            rows = _expect(problem, "num_rows", int, required=False, least=1)
            cols = _expect(problem, "num_features", int, required=False, least=0)
            weight = _number(problem, "likelihood_weight", required=False, default=10.0)
            with _prefixed("problem.data"):
                if data == "bundled":
                    source = resources.files("langirl").joinpath("data/synthetic_sparse.libsvm")
                    with resources.as_file(source) as real:
                        features, labels = logistic.parse_libsvm(str(real))
                else:
                    try:
                        features, labels = logistic.parse_libsvm(data)
                    except (OSError, UnicodeDecodeError) as exc:
                        raise ConfigError(f"cannot read {data}: {exc}") from None
            with _prefixed("problem"):
                if rows is not None or cols is not None:
                    features, labels = logistic.top_frequency_subset(
                        features,
                        labels,
                        rows if rows is not None else features.shape[0],
                        cols if cols is not None else features.shape[1] - 1,
                        self.root.child(_RNG_DATA_SUBSET),
                    )
                model = logistic.LogisticModel(features, labels, likelihood_weight=weight)
            self.dim = features.shape[1]
            self.oracle = lambda rng: logistic.make_stream_oracle(model)
        elif self.kind == "cmdp":
            spec = _expect(problem, "model", str, required=False, default="two-state")
            self.horizon = _expect(problem, "horizon", int, least=1)
            self.perturbation = _number(problem, "perturbation", positive=True)
            with _prefixed("problem.model"):
                model = cmdp.CmdpModel.two_state_example() if spec == "two-state" else cmdp.CmdpModel.from_json(spec)
            self.model = model
            self.dim = model.num_angles
            self.oracle = None
        else:
            raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")

    # -- forward, sampler and baseline -----------------------------------

    def _build_forward(self, fwd):
        """The agent pool and its initialization density; None without a forward section."""
        self.agents = self.density = None
        self.shuffle = False
        if fwd is None:
            return
        fields = _number(fwd, "step"), _expect(fwd, "num_agents", int), _expect(fwd, "run_length", int)
        with _prefixed("forward"):
            self.agents = AgentPoolConfig(*fields)
        _addressable("forward.num_agents x forward.run_length", "corpus", *fields[1:], self.dim)
        self.shuffle = _expect(fwd, "shuffle", bool, required=False, default=False)
        init = _expect(fwd, "init", dict, required=False, default={})
        mean = _vector(init, "mean", required=False, default=[0.0] * self.dim)
        variances = _vector(init, "variances", required=False, default=[1.0] * self.dim)
        with _prefixed("forward.init"):
            if mean.size != self.dim or variances.size != self.dim:
                raise ConfigError(f"dimension does not match problem dimension {self.dim}")
            self.density = InitDensity(mean, variances)

    def _start(self, section, default=None):
        """(init vector, function of a chain's noise stream giving its start row) of a section."""
        init = _expect(section, "init", (list, str), required=default is None, default=default)
        path = f"{section.path}.init"
        if isinstance(init, str):
            if init != "sample":
                raise ConfigError(f"{path}: expected a vector or 'sample', got {init!r}")
            if self.kind == "cmdp":
                raise ConfigError(f"{path}: 'sample' has no density to draw from for problem.kind 'cmdp'")
            return np.zeros(self.dim), (self.density or InitDensity.standard(self.dim)).sample
        vec = _vector(section, "init", required=False, default=default)
        if vec.size != self.dim:
            raise ConfigError(
                f"{path}: length {vec.size} does not match problem dimension {self.dim} (problem.kind {self.kind!r})"
            )
        return vec, lambda rng: vec

    def _build_sampler(self, sampler):
        # A field the variant does not read would change nothing, yet trajectory.json would record it.
        reads = {*VARIANTS[self.variant].needs, *(("pool_size",) if self.source_kind == POOL else ())}
        for field in ("kernel", "conditional_std", "skew", "pool_size"):
            if field in sampler and field not in reads:
                raise ConfigError(f"sampler.{field}: not read by sampler.variant {self.variant!r}")
        kernel = _expect(sampler, "kernel", dict, required=False)
        if kernel is not None:
            bandwidth = _number(kernel, "bandwidth")
            with _prefixed("sampler.kernel"):
                kernel = Kernel(bandwidth, self.dim)
        init, self.sampler_start = self._start(sampler)
        # A chain that leaves the box later fails the analysis.
        if self.kind == "cmdp" and not np.all((cmdp.ANGLE_LOW <= init) & (init <= cmdp.ANGLE_HIGH)):
            raise ConfigError(f"sampler.init: {init.tolist()} is off the box [{cmdp.ANGLE_LOW}, {cmdp.ANGLE_HIGH}]")
        pool_size = _expect(sampler, "pool_size", int, required=False, default=1, least=1)

        # Corpus readers take at most what the corpus holds.
        num_steps = _expect(sampler, "num_steps", int, required=False)
        if self.reads_corpus:
            rows = self.agents.num_agents * self.agents.run_length
            if self.source_kind == POOL and pool_size > rows:
                raise ConfigError(f"sampler.pool_size: {pool_size} exceeds the forward corpus's {rows} rows")
            available = rows if self.source_kind == STREAM else rows // pool_size
            if num_steps is None:
                num_steps = available
            if num_steps > available:
                raise ConfigError(
                    f"sampler.num_steps: {num_steps} exceeds the forward corpus's {available} {self.source_kind} items"
                )
        elif num_steps is None:
            raise ConfigError(f"sampler.num_steps: required for variant {self.variant!r}")
        self.num_steps = num_steps
        self.burn_in = _expect(sampler, "burn_in", int, required=False)
        step, beta = _number(sampler, "step"), _number(sampler, "beta")
        conditional_std = _number(sampler, "conditional_std", required=False)
        skew = _vector(sampler, "skew", required=False)
        with _prefixed("sampler"):
            self.sampler_cfg = SamplerConfig(step, beta, init, kernel, self.density, pool_size, conditional_std, skew)
            check_run(self.variant, self.sampler_cfg, num_steps, self.burn_in)
        _addressable("sampler.num_steps", "trajectory", num_steps + 1, self.chains, self.dim)
        if self.kind == "cmdp":
            # A chunk's probes, each with dim angles and a 16-byte complex sum in `cmdp.simulate_batch`.
            _addressable("sampler.pool_size", "probes", 2, min(cmdp.POOL_CHUNK, num_steps), pool_size, max(self.dim, 2))

    def _build_baseline(self, baseline):
        self.baseline_cfg = None
        if baseline is None:
            return
        self.baseline_chains = _expect(baseline, "chains", int, required=False, default=1, least=1)
        self.baseline_steps = _expect(baseline, "num_steps", int)
        init, self.baseline_start = self._start(baseline, default=[0.0] * self.dim)
        step = _number(baseline, "step")
        with _prefixed("baseline"):
            # The reference chain samples the sampler's law, so it runs at the sampler's beta.
            self.baseline_cfg = SamplerConfig(step, self.sampler_cfg.beta, init)
            check_run(CLASSICAL, self.baseline_cfg, self.baseline_steps)
        _addressable("baseline.num_steps", "trajectory", self.baseline_steps + 1, self.baseline_chains, self.dim)


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
    manifest = {"config": config, "seed": exp.seed, "rng_algorithm": RNG_ALGORITHM, "version": __version__}
    with _timed(timings, "write"):
        _write_json(os.path.join(outdir, "manifest.json"), manifest)

    metrics = {"experiment": exp.name, "variant": exp.variant, "chains": exp.chains}
    phase = "setup"
    baseline = None
    try:
        # Optional classical-Langevin reference chains on the same problem,
        # run beside the phases below; they share nothing with them.
        if exp.baseline_cfg is not None:
            baseline = _Worker(_baseline_chains, exp, outdir)

        corpus = None
        if exp.reads_corpus:
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
            starts = [exp.sampler_start(rng) for rng in rngs]
            oracle_rngs = [exp.root.child(_RNG_CHAIN_ORACLE + chain) for chain in range(exp.chains)]
            source = _chain_source(exp, exp.source_kind, corpus, oracle_rngs)
            trajs = run_chains(exp.variant, source, exp.sampler_cfg, starts, exp.num_steps, rngs, burn_in=exp.burn_in)
        del corpus, source  # only the chains read them: free them before the writes
        with _timed(timings, "write"):
            _save_chains(trajs, exp.sampler_cfg, outdir, "trajectory")
        if exp.kind == "cmdp":
            # Policies are periodic in the angles, so a chain off the box, if only in burn-in, would still give
            # plausible ones. A CMDP run has no baseline: analysis is the earliest phase that can still fail.
            phase = "analysis"
            off = np.array([((t.samples < cmdp.ANGLE_LOW) | (t.samples > cmdp.ANGLE_HIGH)).any(axis=1) for t in trajs])
            if off.any():
                step, chain = np.argwhere(off.T)[0]  # the earliest row, the lowest chain on a tie
                raise DomainError(f"chain {chain}: angles {trajs[chain].samples[step].tolist()} at sampler step "
                                  f"{step} are off [{cmdp.ANGLE_LOW}, {cmdp.ANGLE_HIGH}]")
        pooled = np.vstack([traj.post for traj in trajs])
        metrics["post_samples"] = int(pooled.shape[0])
        metrics["underflow_resets"] = sum(traj.underflow_resets for traj in trajs)
        del trajs  # written and pooled: free them before the join

        base_density = None
        if baseline is not None:
            phase = "baseline"
            base_density, worker_timings = baseline.join()
            for name, sec in worker_timings.items():
                timings[name] = timings.get(name, 0.0) + sec

        phase = "analysis"
        with _timed(timings, "analysis"):
            densities = _analyze(exp, pooled, base_density, metrics)
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
    """Run and write the baseline chain set: (its density on `exp.grid`, or None without a grid; phase timings).

    The files are written in this process, so stopping the worker that runs
    this stops every baseline write. The density of the pooled post-burn-in
    samples, all the analysis reads of the set, is built after the writes and
    timed under `analysis`; the samples themselves are not sent back.
    """
    timings, density = {}, None
    with _timed(timings, "baseline"):
        chains = range(exp.baseline_chains)
        rngs = [exp.root.child(_RNG_BASE_NOISE).child(chain) for chain in chains]
        starts = [exp.baseline_start(rng) for rng in rngs]
        oracle_rngs = [exp.root.child(_RNG_BASE_ORACLE).child(chain) for chain in chains]
        source = _chain_source(exp, ORACLE, None, oracle_rngs)
        bases = run_chains(CLASSICAL, source, exp.baseline_cfg, starts, exp.baseline_steps, rngs)
    with _timed(timings, "write"):
        _save_chains(bases, exp.baseline_cfg, outdir, "baseline")
    if exp.grid is not None:
        with _timed(timings, "analysis"):
            density = build_density(np.vstack([base.post for base in bases]), exp.grid)
    return density, timings


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


def _chain_source(exp, kind, corpus, rngs):
    """The one source `run_chains` reads for a set of chains reading a `kind` source.

    Only the sampler chains of a stream or pool variant off the CMDP get a
    `corpus` (`exp.reads_corpus`): they share one reader of it, which reads it
    once, row by row or `pool_size` rows a pool. Otherwise chain c has a
    source of its own, made from `rngs[c]`: a gradient oracle, the oracles
    passed as a list of one per chain (one chain's bare), or the CMDP SPSA
    pools of `_spsa_pools`, one list of a pool per chain each step.
    """
    if corpus is not None:
        return corpus if kind == STREAM else corpus.as_pools(exp.sampler_cfg.pool_size)
    if kind != ORACLE:
        return _spsa_pools(exp, rngs)
    oracles = [exp.oracle(rng) for rng in rngs]
    return oracles[0] if len(oracles) == 1 else oracles


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
    """Chunks `chunks` of each chain's SPSA pools: chain c's (points, gradients), each (pools, pool, dim)."""
    args = exp.model, exp.sampler_cfg.pool_size, exp.num_steps, exp.horizon, exp.perturbation
    return [
        [np.concatenate(arrays) for arrays in zip(*(cmdp.angle_pool_chunk(*args, rng, c) for c in chunks))]
        for rng in rngs
    ]


def _spsa_pools(exp, rngs):
    """One list per step of one CMDP SPSA pool per chain, at every chain count.

    Chain c's pools are the CMDP pool stream of `cmdp.angle_pool_chunk` from
    `rngs[c]`, as `make_angle_pool_source` in tests/reference.py reads it
    chunk after chunk. The chunks split into `_shares`, every chain's chunk k
    in the same share. The run computes the first share a chunk at a time, as
    the chains read it; a later share's worker, added to `exp.workers`, is
    joined when the chains reach its chunks.
    """
    own, workers = _shares(_pool_chunks, range(-(-exp.num_steps // cmdp.POOL_CHUNK)), exp, rngs)
    exp.workers.extend(workers)
    parts = itertools.chain((_pool_chunks([c], exp, rngs) for c in own), map(_Worker.join, workers))
    return (list(pools) for part in parts for pools in zip(*(map(GradientPool, *arrays) for arrays in part)))


def _chain_stems(name, chains):
    """The file stem of each chain, made as they are read: `name` for one chain, `name_c<c>` for chain c of several."""
    return (name,) if chains == 1 else (f"{name}_c{chain}" for chain in range(chains))


def _save_chains(trajs, cfg, outdir, name):
    """Write the files of a chain set run under `cfg`, in this process."""
    for stem, traj in zip(_chain_stems(name, len(trajs)), trajs):
        save_trajectory(traj, cfg, outdir, stem=stem)


def _analyze(exp, pooled, base_density, metrics):
    """Fill `metrics` from the pooled samples; return the densities to write by file name.

    `base_density` is the baseline's density from `_baseline_chains`, None
    without a baseline or a grid; no baseline sample reaches the analysis.
    """
    densities = {}
    mean = pooled.mean(axis=0)
    # About a mean an ulp off, a chain that never moved from 1e300 squares its residual past the float range;
    # about the first row it does not. A variance that overflows both ways is the error below.
    with np.errstate(over="ignore"):
        variance = pooled.var(axis=0)
        redo = ~np.isfinite(variance)
        variance[redo] = (pooled[:, redo] - pooled[0, redo]).var(axis=0)
    if not (np.isfinite(variance).all() and np.isfinite(mean).all()):
        raise NonFiniteError(f"pooled mean {mean.tolist()} or variance {variance.tolist()} is not finite")
    metrics["variance"] = variance.tolist()
    metrics["mean"] = mean.tolist()
    if exp.kind == "quadratic":
        metrics["analytic_variance_target"] = exp.variance_target
    if exp.kind == "cmdp":
        policies = cmdp.spherical_to_policy(pooled.reshape(-1, exp.model.num_states, exp.model.num_actions - 1))
        _, _, avg_cost = cmdp.stationary_joint_batch(exp.model, policies)
        near = np.abs(avg_cost - exp.model.constraint_bound) < exp.constraint_tolerance
        metrics["constraint_tolerance"] = exp.constraint_tolerance
        metrics["constraint_near_fraction"] = float(near.mean())

    if exp.grid is not None:
        dens = build_density(pooled, exp.grid)
        densities["density.csv"] = dens
        metrics["out_of_range_fraction"] = dens.out_of_range_fraction
        if exp.find_modes:
            metrics["modes"] = [
                {"center": [float(c) for c in center], "mass": float(mass)} for _, center, mass in find_modes(dens)
            ]
        if base_density is not None:
            densities["baseline_density.csv"] = base_density
            if exp.compare_marginals:
                metrics["variational_distance"] = [
                    variational_distance(marginal(dens, axis), marginal(base_density, axis))
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
    a, b = _pooled_posts(dir_a), _pooled_posts(dir_b)
    if a.shape[1] != b.shape[1]:
        raise ConfigError(f"dimension mismatch: {dir_a} has {a.shape[1]}, {dir_b} has {b.shape[1]}")
    w1, tv = [], []
    for axis in range(a.shape[1]):
        w1.append(wasserstein1(a[:, axis], b[:, axis]))
        lo = float(min(a[:, axis].min(), b[:, axis].min()))
        hi = float(max(a[:, axis].max(), b[:, axis].max()))
        if hi <= lo:  # one value on both sides, the same point mass; past 2**53 [lo, lo + 1] is no grid
            tv.append(0.0)
            continue
        grid = GridSpec(((lo, hi, 60),))
        tv.append(variational_distance(build_density(a[:, axis], grid), build_density(b[:, axis], grid)))
    # np.median's arithmetic, the mean of the middle one or two values, without its import of numpy.ma.
    ordered = np.sort(w1)
    middle = ordered[(len(ordered) - 1) // 2:len(ordered) // 2 + 1]
    return {
        "marginals": a.shape[1],
        "samples_a": int(a.shape[0]),
        "samples_b": int(b.shape[0]),
        "w1": w1,
        "w1_median": float(np.mean(middle)),
        "w1_mean": float(np.mean(w1)),
        "w1_max": float(np.max(w1)),
        "variational_distance": tv,
    }


def _write_compare_csv(report, path):
    rows = ([i, w, t] for i, (w, t) in enumerate(zip(report["w1"], report["variational_distance"])))
    write_csv(path, ["marginal", "w1", "variational_distance"], rows)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="langirl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a config or manifest JSON file")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    runp.add_argument("--scale", default=None, help="scale overlay the config defines (default desk)")
    runp.add_argument("--chains", type=int, default=None, help="independent chains to pool")

    cmpp = sub.add_parser("compare", help="compare two finished run directories")
    cmpp.add_argument("dir_a")
    cmpp.add_argument("dir_b")
    cmpp.add_argument("--out", default=None, help="directory for compare.json/compare.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            doc = load_config(args.config)
            config = resolve_config(doc, scale=args.scale, seed=args.seed, out=args.out, chains=args.chains)
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
