"""In-memory span recorder and the wrappers that put `langirl` layers under it.

Only the benchmark's child process imports this module, and only for a traced
run. `install` rebinds public functions of the `langirl` modules at runtime;
nothing under `src/` is edited. Each call into a wrapped function records one
span (name, start, end, parent). Spans stay in memory and `Recorder.dump`
writes them out once, when the child ends. Counters record the amount of work
at the same boundaries (rows, steps, bytes, kernel hits).

Spans nest strictly because the child is single threaded, so a span's self
time is its duration minus the time its direct children took.

The tracer's own work must not be charged to a layer. Each span therefore
also records when its wrapper was entered and when it was about to return.
The wrapper's bookkeeping (the appends and the stack pop around the span) and
the counting of an `after` callback fall between those readings and the
span's own start and end; the analysis charges them to `trace.bookkeeping`
and takes the whole wrapper time out of the parent's self time. What no
reading can see, the call into the wrapper and the return from it, is
measured once per child by `calibrate` and charged the same way.
"""

import json
import os
import statistics
import time
from array import array

# A kernel weight at or above this share of the kernel's peak counts as a hit.
HIT_SHARE = 1e-3


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.entries = array("d")
        self.exits = array("d")
        self.stack = [-1]
        self.counts = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """Return `fn` recording one span per call.

        `after(result, args, kwargs)` runs once the span has closed but
        before the wrapper's exit reading, so its counting is charged to
        `trace.bookkeeping`, not to the layer or to its caller.
        """
        nid = self._id(name)
        name_ids, parents, starts, ends, entries, exits, stack = (
            self.name_ids, self.parents, self.starts, self.ends,
            self.entries, self.exits, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entry = clock()
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            exits.append(0.0)
            entries.append(entry)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            exits[i] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def iterate(self, name, iterable):
        """An iterator over `iterable` that records one span per item produced.

        `__next__` is the wrapper itself, so taking an item costs its
        consumer no more than a call to any other wrapped function.
        """
        step = self.wrap(name, iter(iterable).__next__)
        return type("SpanIterator", (), {"__iter__": lambda it: it,
                                         "__next__": staticmethod(step)})()

    def calibrate(self, calls=2000, repeats=5):
        """Store the per-span cost that falls outside the wrapper's own readings.

        Times `calls` calls of a no-op, bare and wrapped, and subtracts the
        wrapper's recorded entry-to-exit time; the median of `repeats`
        rounds is kept. The time this takes is counted as bookkeeping.
        """
        began = time.perf_counter()
        probe = Recorder()
        wrapped = probe.wrap("probe", _noop)
        clock = time.perf_counter
        residuals = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                _noop()
            t1 = clock()
            first = len(probe.starts)
            for _ in range(calls):
                wrapped()
            t2 = clock()
            recorded = sum(probe.exits[first:]) - sum(probe.entries[first:])
            residuals.append(((t2 - t1) - (t1 - t0) - recorded) / calls)
        self.counts["trace.residual_s"] = max(statistics.median(residuals), 0.0)
        self.counts["trace.calibrate_s"] = time.perf_counter() - began

    def dump(self, path):
        """Write the spans to `path` + '.bin' and names and counters to `path`."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends,
                        self.entries, self.exits):
                arr.tofile(fh)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": len(self.starts), "counts": self.counts}, fh)


def _noop():
    return None


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def install(rec, cli):
    """Wrap the public functions each layer exposes to the CLI."""
    from langirl import core, forward, irl
    from langirl.problems import cmdp, mixture, synthetic

    wrap = rec.wrap
    add = rec.add

    # cli: config resolution, the run/compare roots and artifact I/O.
    cli.load_config = wrap("cli.config", cli.load_config)
    cli.resolve_config = wrap("cli.config", cli.resolve_config)
    cli.run_experiment = wrap("cli.run", cli.run_experiment)
    cli.compare_runs = wrap("cli.compare", cli.compare_runs)

    def wrote(nbytes_of):
        return lambda result, args, kwargs: add("cli.write_bytes", nbytes_of(result, args))

    cli.save_trajectory = wrap("cli.write", cli.save_trajectory, wrote(lambda r, a: _file_bytes(*r)))
    cli.density_to_csv = wrap("cli.write", cli.density_to_csv, wrote(lambda r, a: _file_bytes(a[1])))
    cli._write_json = wrap("cli.write", cli._write_json, wrote(lambda r, a: _file_bytes(a[0])))
    cli._write_compare_csv = wrap(
        "cli.write", cli._write_compare_csv, wrote(lambda r, a: _file_bytes(a[1])))

    def read(result, args, kwargs):
        stem = kwargs.get("stem", args[1] if len(args) > 1 else "trajectory")
        base = os.path.join(args[0], stem)
        add("cli.read_bytes", _file_bytes(base + ".csv", base + ".json"))

    cli.load_trajectory = wrap("cli.read", cli.load_trajectory, read)

    # forward: the agent pool, the corpus stream and the init density.
    cli.run_agent_pool = wrap(
        "forward.run_agent_pool", cli.run_agent_pool,
        lambda result, args, kwargs: add("forward.rows", len(result)))
    forward.GradientStream.shuffled = wrap("forward.shuffle", forward.GradientStream.shuffled)
    forward.InitDensity.density = wrap("forward.density", forward.InitDensity.density)
    forward.InitDensity.density_and_grad = wrap(
        "forward.density", forward.InitDensity.density_and_grad)

    chain_source = cli._chain_source

    def traced_chain_source(exp, *args):
        source = chain_source(exp, *args)
        if callable(source):
            return source  # an oracle, traced by its factory below
        if exp.kind == "cmdp":
            return rec.iterate("problems.cmdp.spsa", source)
        if exp.variant == irl.MULTIKERNEL:
            return rec.iterate("forward.pools", source)
        return rec.iterate("forward.stream", source)

    cli._chain_source = traced_chain_source

    # irl: one span name per variant so µs/step can be split by variant.
    run_sampler = cli.run_sampler
    by_variant = {}

    def sampled(result, args, kwargs):
        steps = len(result.samples) - 1
        add(f"irl.steps.{result.variant}", steps)
        add(f"irl.underflow_resets.{result.variant}", result.underflow_resets)

    def traced_run_sampler(variant, *args, **kwargs):
        if variant not in by_variant:
            by_variant[variant] = wrap(f"irl.run_sampler.{variant}", run_sampler, sampled)
        return by_variant[variant](variant, *args, **kwargs)

    cli.run_sampler = traced_run_sampler

    # kernels: only the calls made from irl.
    peaks = {}

    def kernel_hits(original):
        def after(result, args, kwargs):
            kernel = args[0]
            if kernel not in peaks:
                peaks[kernel] = float(original(kernel, [0.0] * kernel.dim))
            threshold = HIT_SHARE * peaks[kernel]
            if isinstance(result, float):
                hits, total = int(result >= threshold), 1
            else:
                hits, total = int((result >= threshold).sum()), result.size
            add("kernels.hits", hits)
            add("kernels.weights", total)
        return after

    irl.scaled_eval = wrap("kernels.scaled_eval", irl.scaled_eval, kernel_hits(irl.scaled_eval))
    irl.raw_eval = wrap("kernels.raw_eval", irl.raw_eval, kernel_hits(irl.raw_eval))

    # core: every draw from an RngStream.
    for method in ("standard_normal", "uniform", "integers", "permutation"):
        setattr(core.RngStream, method, wrap("core.rng", getattr(core.RngStream, method)))

    # problems: the gradient oracles and the CMDP simulator.
    def traced_factory(name, factory):
        return lambda *args, **kwargs: wrap(name, factory(*args, **kwargs))

    synthetic.quadratic_oracle = traced_factory("problems.synthetic.oracle", synthetic.quadratic_oracle)
    mixture.make_stream_oracle = traced_factory("problems.mixture.oracle", mixture.make_stream_oracle)
    mixture.make_pool_oracle = traced_factory("problems.mixture.oracle", mixture.make_pool_oracle)
    cmdp.simulate_batch = wrap(
        "problems.cmdp.simulate", cmdp.simulate_batch,
        lambda result, args, kwargs: add("problems.cmdp.transitions", len(args[1]) * args[2]))
    cmdp.stationary_joint_batch = wrap("problems.cmdp.stationary", cmdp.stationary_joint_batch)

    # analysis: the public functions the CLI calls.
    for attr, name in (("build_density", "analysis.build_density"),
                       ("find_modes", "analysis.find_modes"),
                       ("marginal", "analysis.marginal"),
                       ("wasserstein1", "analysis.w1"),
                       ("variational_distance", "analysis.tv")):
        setattr(cli, attr, wrap(name, getattr(cli, attr)))
