"""Correctness checks, trajectory hashes and per-layer trace metrics.

Usage: python3 bench/analyse.py REQUEST.json   (written by bench/run.py)

Prints a JSON list with one entry per operation: `errors` (empty when every
check passed), `hash` (SHA-256 over every trajectory file), `steps` (chain
steps completed), `quality` (passive estimation error, recorded and never
gated) and, for traced operations, `layers`.

Each check compares the program's output with a law worked out here on its
own terms, never with numbers the program reports about itself:

* quad-chains: the classical baseline's post-burn-in variance per coordinate
  is 1 / (curvature * beta), within a relative tolerance of
  QUAD_VARIANCE_TOL. The tolerance covers the sampling error of the variance
  estimate (about 0.05 relative at 36k autocorrelated samples) plus the
  O(step) bias of unadjusted Langevin (1 / (1 - step * c * beta / 4) - 1,
  2.6% at step 0.1).
* cmdp-spsa: every post-burn-in sample lies in the angle box [0, pi/2]^d,
  and the share of samples whose exact stationary constraint cost (balance
  equations solved here) is within the config's tolerance of the bound is at
  least CMDP_NEAR_FLOOR.
* mixture-compare: the heaviest cell of the baseline density lies within
  MIXTURE_MODE_TOL of one of the two maxima of the expected reward, found
  here by grid search with Gauss-Hermite quadrature; and compare.json's
  sample counts equal the two runs' post_samples. The check needs two
  distinct maxima: with true_param (-1, 2) they sit at +-(0.92, -1.84),
  about 4 nats above the path between them. With true_param (0, 1) the
  saddle is only 0.17 nats lower, the stochastic-gradient baseline spreads
  along the whole ridge, and its heaviest cell lands anywhere on it.
"""

import csv
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

QUAD_VARIANCE_TOL = 0.25
CMDP_NEAR_FLOOR = 0.9
MIXTURE_MODE_TOL = 0.8
MIXTURE_GRID_STEP = 0.02
TRAJECTORY_CSV = re.compile(r"(trajectory|baseline)(_c\d+)?\.csv")
SAMPLER_VARIANTS = ("passive_generalized", "passive_gated", "multikernel", "classical")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def trajectory_stems(rundir):
    """Stems of the sampler and baseline trajectories save_trajectory wrote."""
    return sorted(f[:-4] for f in os.listdir(rundir) if TRAJECTORY_CSV.fullmatch(f))


@functools.lru_cache(maxsize=None)
def load_samples(rundir, stem):
    """(samples, burn_in, num_steps) of one trajectory artifact, parsed here."""
    samples = np.loadtxt(os.path.join(rundir, stem + ".csv"), delimiter=",", skiprows=1, ndmin=2)
    meta = load_json(os.path.join(rundir, stem + ".json"))
    return samples[:, 1:], int(meta["burn_in"]), int(meta["num_steps"])


def pooled_post(rundir, prefix):
    posts = []
    for stem in trajectory_stems(rundir):
        if stem.startswith(prefix):
            samples, burn_in, _ = load_samples(rundir, stem)
            posts.append(samples[burn_in:])
    return np.vstack(posts)


def file_hash(rundirs):
    digest = hashlib.sha256()
    for rundir in rundirs:
        for stem in trajectory_stems(rundir):
            for ext in (".csv", ".json"):
                path = os.path.join(rundir, stem + ext)
                with open(path, "rb") as fh:
                    digest.update(f"{os.path.basename(rundir)}/{stem}{ext}\0".encode())
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def check_runs(rundirs, errors):
    """Every run finished, and every trajectory is finite. Returns chain steps."""
    steps = 0
    for rundir in rundirs:
        name = os.path.basename(rundir)
        if os.path.exists(os.path.join(rundir, "failure.json")):
            errors.append(f"{name}: failure.json written")
        if not os.path.exists(os.path.join(rundir, "metrics.json")):
            errors.append(f"{name}: no metrics.json")
            continue
        stems = trajectory_stems(rundir)
        if not stems:
            errors.append(f"{name}: no trajectories")
        for stem in stems:
            samples, _, num_steps = load_samples(rundir, stem)
            steps += num_steps
            if samples.shape[0] != num_steps + 1 or not np.isfinite(samples).all():
                errors.append(f"{name}/{stem}: trajectory truncated or not finite")
    return steps


# -- quad-chains -------------------------------------------------------------

def check_quad(opdir, configs, errors):
    config = load_json(os.path.join(configs, "quad_chains.json"))
    rundir = os.path.join(opdir, "run")
    beta = config["baseline"].get("beta", config["sampler"]["beta"])
    target = 1.0 / (config["problem"]["curvature"] * beta)
    base_err = pooled_post(rundir, "baseline").var(axis=0) / target - 1.0
    if np.max(np.abs(base_err)) > QUAD_VARIANCE_TOL:
        errors.append(f"baseline variance relative error {base_err.round(3).tolist()} "
                      f"exceeds {QUAD_VARIANCE_TOL} against 1/(c*beta) = {target}")
    passive = pooled_post(rundir, "trajectory").var(axis=0) / target - 1.0
    return {"baseline_variance_rel_err": base_err.tolist(),
            "passive_variance_rel_err": passive.tolist()}


# -- cmdp-spsa ---------------------------------------------------------------

def stationary_cost(model, angles):
    """Exact long-run constraint cost per angle sample, from the balance equations."""
    s, a = model.num_states, model.num_actions
    angles = angles.reshape(len(angles), s, a - 1)
    c2 = np.cos(angles) ** 2
    tail = np.cumprod(1.0 - c2, axis=-1)
    lead = np.concatenate([np.ones_like(tail[..., :1]), tail[..., :-1]], axis=-1)
    policy = np.concatenate([c2 * lead, tail[..., -1:]], axis=-1)
    chain = np.einsum("bxu,uxy->bxy", policy, model.transitions)
    system = np.transpose(chain, (0, 2, 1)) - np.eye(s)
    system[:, -1, :] = 1.0
    rhs = np.zeros((len(angles), s))
    rhs[:, -1] = 1.0
    nu = np.linalg.solve(system, rhs[..., None])[..., 0]
    return np.einsum("bx,bxu,xu->b", nu, policy, model.constraint_cost)


def check_cmdp(opdir, configs, errors):
    from langirl.problems.cmdp import CmdpModel

    config = load_json(os.path.join(configs, "cmdp_spsa.json"))
    model = CmdpModel.two_state_example()
    rundir = os.path.join(opdir, "run")
    post = pooled_post(rundir, "trajectory")
    outside = int(np.sum((post < 0.0) | (post > math.pi / 2)))
    if outside:
        errors.append(f"{outside} post-burn-in angles outside [0, pi/2]")
    tol = config["analysis"]["constraint_tolerance"]
    cost = stationary_cost(model, post)
    near = float(np.mean(np.abs(cost - model.constraint_bound) < tol))
    if near < CMDP_NEAR_FLOOR:
        errors.append(f"constraint-near fraction {near:.3f} below {CMDP_NEAR_FLOOR}")
    metrics = load_json(os.path.join(rundir, "metrics.json"))
    return {"constraint_near_fraction": near, "underflow_resets": metrics["underflow_resets"]}


# -- mixture-compare ---------------------------------------------------------

def expected_reward_grid(problem, axis):
    """Expected reward on the grid axis x axis, by Gauss-Hermite quadrature."""
    a0, a1 = np.meshgrid(axis, axis, indexing="ij")
    t0, t1 = problem["true_param"]
    v = problem["component_var"]
    z, w = np.polynomial.hermite_e.hermegauss(60)
    w = w / w.sum()
    y = np.concatenate([t0 + math.sqrt(v) * z, t0 + t1 + math.sqrt(v) * z])
    wy = np.concatenate([0.5 * w, 0.5 * w])
    avg_loglike = np.zeros(a0.shape)
    for yk, wk in zip(y, wy):
        l1 = -0.5 * (yk - a0) ** 2 / v
        l2 = -0.5 * (yk - a0 - a1) ** 2 / v
        m = np.maximum(l1, l2)
        like = m + np.log(0.5 * np.exp(l1 - m) + 0.5 * np.exp(l2 - m)) - 0.5 * math.log(2 * math.pi * v)
        avg_loglike += wk * like
    pv = problem["prior_variances"]
    log_prior = -0.5 * (a0**2 / pv[0] + a1**2 / pv[1]) - 0.5 * math.log(4 * math.pi**2 * pv[0] * pv[1])
    return log_prior + problem["likelihood_weight"] * avg_loglike


def two_maxima(problem, axis, separation=0.5):
    """The two highest local maxima of the expected reward on the grid.

    A grid point is a local maximum when no 8-neighbour is higher; a point
    within `separation` of a higher kept maximum belongs to the same peak.
    """
    reward = expected_reward_grid(problem, axis)
    inner = reward[1:-1, 1:-1]
    is_max = np.ones(inner.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_max &= inner >= reward[1 + di:reward.shape[0] - 1 + di, 1 + dj:reward.shape[1] - 1 + dj]
    candidates = sorted(((float(inner[i, j]), (float(axis[i + 1]), float(axis[j + 1])))
                         for i, j in np.argwhere(is_max)), reverse=True)
    kept = []
    for _, point in candidates:
        if all(math.dist(point, k) > separation for k in kept):
            kept.append(point)
    return kept[:2]


def heaviest_cell(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    cells = [r for r in rows if r[0] != "out_of_range"]
    dim = (len(cells[0]) - 2) // 2
    best = max(cells, key=lambda r: float(r[2 * dim]))
    return tuple(float(c) for c in best[dim:2 * dim])


def wasserstein1(a, b):
    """Order-1 transport distance between two 1-D samples, via their quantiles."""
    grid = np.linspace(0.0, 1.0, 4097)[1:-1]
    return float(np.mean(np.abs(np.quantile(a, grid) - np.quantile(b, grid))))


def check_mixture(opdir, configs, errors, maxima):
    run_a, run_b = os.path.join(opdir, "a"), os.path.join(opdir, "b")
    cell = heaviest_cell(os.path.join(run_a, "baseline_density.csv"))
    dist = min(math.dist(cell, m) for m in maxima)
    if dist > MIXTURE_MODE_TOL:
        errors.append(f"baseline heaviest cell {cell} is {dist:.3f} from the nearest "
                      f"expected-reward maximum {maxima}, above {MIXTURE_MODE_TOL}")
    report = load_json(os.path.join(opdir, "compare", "compare.json"))
    for key, rundir in (("samples_a", run_a), ("samples_b", run_b)):
        expected = load_json(os.path.join(rundir, "metrics.json"))["post_samples"]
        if report[key] != expected:
            errors.append(f"compare.json {key} = {report[key]}, run has {expected} post samples")
    passive, baseline = pooled_post(run_a, "trajectory"), pooled_post(run_a, "baseline")
    return {
        "baseline_mode_distance": dist,
        "passive_w1_vs_baseline": [wasserstein1(passive[:, k], baseline[:, k])
                                   for k in range(passive.shape[1])],
    }


# -- traces ------------------------------------------------------------------

def layer_of(name):
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "problems" else parts[0]


def read_trace(path):
    meta = load_json(path)
    n = meta["spans"]
    with open(path + ".bin", "rb") as fh:
        ids = np.fromfile(fh, dtype=np.int32, count=n)
        parents = np.fromfile(fh, dtype=np.int32, count=n)
        starts, ends, entries, exits = (np.fromfile(fh, dtype=np.float64, count=n) for _ in range(4))
    return meta["names"], meta["counts"], ids, parents, starts, ends, entries, exits


def trace_totals(paths):
    """Summed inclusive time, self time and call count per span name.

    A span's self time is its duration minus, for each direct child, the
    child's whole wrapper time plus the calibrated per-call residual. That
    wrapper overhead is returned as `bookkeeping`, outside every layer.
    """
    dur, self_time, calls, counts, bookkeeping = {}, {}, {}, {}, 0.0
    for path in paths:
        names, cnt, ids, parents, starts, ends, entries, exits = read_trace(path)
        for key, val in cnt.items():
            counts[key] = counts.get(key, 0) + val
        d = ends - starts
        outer = exits - entries
        if len(d) and (outer - d).min() < -1e-9:
            raise RuntimeError(f"{path}: a span lies outside its wrapper")
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=outer[has_parent], minlength=len(d))
        own = d - child
        if len(own) and own.min() < -1e-9:
            raise RuntimeError(f"{path}: a span ends after its parent")
        residual = cnt["trace.residual_s"]
        own -= residual * np.bincount(parents[has_parent], minlength=len(d))
        bookkeeping += (float(np.sum(outer - d)) + residual * int(has_parent.sum())
                        + cnt["trace.calibrate_s"])
        # Mark spans made while a sampler ran, to count RNG draws per step.
        is_sampler = np.isin(ids, [i for i, nm in enumerate(names) if nm.startswith("irl.run_sampler.")])
        in_sampler = is_sampler.copy()
        up = parents.copy()
        while (up >= 0).any():
            live = up >= 0
            in_sampler[live] |= is_sampler[up[live]]
            up[live] = parents[up[live]]
        rng = names.index("core.rng") if "core.rng" in names else -1
        counts["core.rng_in_sampler"] = counts.get("core.rng_in_sampler", 0) + int(
            np.sum((ids == rng) & in_sampler))
        k = len(names)
        for nm, t, o, c in zip(names, np.bincount(ids, d, k), np.bincount(ids, own, k),
                               np.bincount(ids, minlength=k)):
            dur[nm] = dur.get(nm, 0.0) + float(t)
            self_time[nm] = self_time.get(nm, 0.0) + float(o)
            calls[nm] = calls.get(nm, 0) + int(c)
    return dur, self_time, calls, counts, bookkeeping


LAYERS = ("cli", "forward", "irl", "kernels", "core", "analysis",
          "problems.synthetic", "problems.mixture", "problems.cmdp")


def layer_metrics(op):
    paths = [inv["trace"] for inv in op["invocations"]]
    dur, self_time, calls, counts, bookkeeping = trace_totals(paths)

    def d(name):
        return dur.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    busy = {layer: 0.0 for layer in LAYERS}
    for nm, t in self_time.items():
        busy[layer_of(nm)] += t
    steps = {v: counts.get(f"irl.steps.{v}", 0) for v in SAMPLER_VARIANTS}
    total_steps = sum(v for k, v in counts.items() if k.startswith("irl.steps."))
    kernel_calls = n("kernels.scaled_eval") + n("kernels.raw_eval")
    out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    out.update({
        "cli.import_s": d("cli.import"),
        "cli.config_s": d("cli.config"),
        "cli.write_s": d("cli.write"),
        "cli.write_mb": counts.get("cli.write_bytes", 0) / 2**20,
        "cli.read_s": d("cli.read"),
        "cli.read_mb": counts.get("cli.read_bytes", 0) / 2**20,
        "forward.rows_per_s": per(counts.get("forward.rows", 0), d("forward.run_agent_pool")),
        "forward.density_us": per(d("forward.density"), n("forward.density"), 1e6),
        "forward.density_calls": n("forward.density"),
        "irl.us_per_step": per(busy["irl"], total_steps, 1e6),
        "irl.underflow_resets_per_step": per(
            counts.get("irl.underflow_resets.multikernel", 0), steps["multikernel"]),
        "kernels.calls": kernel_calls,
        "kernels.us_per_call": per(d("kernels.scaled_eval") + d("kernels.raw_eval"), kernel_calls, 1e6),
        "kernels.hit_rate": per(counts.get("kernels.hits", 0), counts.get("kernels.weights", 0)),
        "core.rng_calls_per_step": per(counts.get("core.rng_in_sampler", 0), total_steps),
        "problems.cmdp.spsa_s": d("problems.cmdp.spsa"),
        "problems.cmdp.path_steps_per_s": per(
            counts.get("problems.cmdp.transitions", 0), d("problems.cmdp.spsa")),
        "problems.cmdp.stationary_s": d("problems.cmdp.stationary"),
        "analysis.build_density_s": d("analysis.build_density"),
        "analysis.find_modes_s": d("analysis.find_modes"),
        "analysis.w1_s": d("analysis.w1"),
        "analysis.tv_s": d("analysis.tv"),
    })
    for v in SAMPLER_VARIANTS:
        out[f"irl.us_per_step.{v}"] = per(self_time.get(f"irl.run_sampler.{v}", 0.0), steps[v], 1e6)
    for problem in ("synthetic", "mixture"):
        name = f"problems.{problem}.oracle"
        out[f"{name}_us"] = per(d(name), n(name), 1e6)
        out[f"{name}_calls"] = n(name)
    out["trace.wall_s"] = op["wall_s"]
    out["trace.bookkeeping_s"] = bookkeeping
    out["trace.unattributed_s"] = op["wall_s"] - sum(busy.values()) - bookkeeping
    return out


def main(request_path):
    request = load_json(request_path)
    workload, configs = request["workload"], request["configs"]
    maxima = None
    if workload == "mixture-compare":
        problem = load_json(os.path.join(configs, "mixture_gated.json"))["problem"]
        maxima = two_maxima(problem, np.arange(-3.0, 3.0 + 1e-9, MIXTURE_GRID_STEP))
    results = []
    for op in request["ops"]:
        errors = []
        rundirs = [inv["out"] for inv in op["invocations"] if inv["argv"][0] == "run"]
        entry = {"errors": errors, "hash": "", "steps": 0, "quality": {}}
        results.append(entry)
        if op["traced"] and all(os.path.exists(inv["trace"]) for inv in op["invocations"]):
            entry["layers"] = layer_metrics(op)
        if op["errors"]:
            continue
        entry["steps"] = check_runs(rundirs, errors)
        entry["hash"] = file_hash(rundirs)
        if errors:
            continue
        if workload == "quad-chains":
            entry["quality"] = check_quad(op["dir"], configs, errors)
        elif workload == "cmdp-spsa":
            entry["quality"] = check_cmdp(op["dir"], configs, errors)
        elif len(maxima) < 2:
            errors.append(f"expected reward has {len(maxima)} maxima on the grid, not two")
        else:
            entry["quality"] = check_mixture(op["dir"], configs, errors, maxima)
    json.dump(results, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
