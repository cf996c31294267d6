"""Benchmark for the `langirl` CLI: end-to-end metrics and traced per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload quad-chains --seed 1 --seconds 35 --trace 0

Omit `--workload` to run every workload in turn. Each workload is one
*operation*: a fixed sequence of CLI invocations (`python -m langirl.cli` with
`PYTHONPATH=src`, launched through `bench/child.py`), one child process at a
time, with BLAS/OpenMP pinned to one thread. The operation is repeated with
the same seed until `--seconds` is used up (at least three times), and every
repetition is checked for correctness and for bit-identical trajectories.

`--trace 0` prints the end-to-end metrics (medians over the operations).
`--trace 1` alternates untraced and traced operations and prints the
per-layer metrics of the traced operation with the median wall time, plus
`trace.overhead_s`, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Metric names and units come from
`BENCHMARK.json`. The full record of the run (environment, per-operation
numbers, checks, trajectory hashes, passive-estimation error) is written to
`.bench_work/<workload>/result.json`.

This process imports nothing but the standard library. Child peak memory is
read from `wait4`, which on Linux also counts the parent's resident set at
spawn time, so the parent must stay far smaller than any child.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CONFIGS = os.path.join(BENCH_DIR, "configs")
WORK = os.path.join(ROOT, ".bench_work")

# Each workload: the CLI invocations of one operation. A `run` names its
# config and output directory; a `compare` names the two run directories.
WORKLOADS = {
    "quad-chains": [("run", "quad_chains.json", "run")],
    "cmdp-spsa": [("run", "cmdp_spsa.json", "run")],
    "mixture-compare": [
        ("run", "mixture_gated.json", "a"),
        ("run", "mixture_multikernel.json", "b"),
        ("compare", "a", "b", "compare"),
    ],
}

MIN_OPS = 3
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIB = 2.0**20


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The same import work on every run whatever the caller's environment, and
    # no bytecode files written into the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(argv, env, out_path, err_path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB, start)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, start


def invocation_argv(step, opdir, seed):
    if step[0] == "run":
        _, config, out = step
        return ["run", os.path.join(CONFIGS, config), "--seed", str(seed),
                "--out", os.path.join(opdir, out)]
    _, a, b, out = step
    return ["compare", os.path.join(opdir, a), os.path.join(opdir, b),
            "--out", os.path.join(opdir, out)]


def run_operation(workload, opdir, seed, traced, env):
    """Run every invocation of one operation, timed from spawn to exit."""
    logs = os.path.join(opdir, "logs")
    os.makedirs(logs)
    invocations = []
    for i, step in enumerate(WORKLOADS[workload]):
        mark = os.path.join(logs, f"{i}.mark")
        trace = os.path.join(logs, f"{i}.trace") if traced else "-"
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mark, trace]
        argv += invocation_argv(step, opdir, seed)
        code, wall, rss_kib, start = spawn(
            argv, env, os.path.join(logs, f"{i}.out"), os.path.join(logs, f"{i}.err"))
        setup = None
        if os.path.exists(mark):
            with open(mark) as fh:
                setup = float(fh.read()) - start
        invocations.append({
            "argv": argv[4:], "exit": code, "wall_s": wall, "setup_s": setup,
            "peak_rss_kib": rss_kib, "trace": None if trace == "-" else trace,
            "out": os.path.join(opdir, step[-1]),
        })
    return {
        "dir": opdir,
        "traced": traced,
        "invocations": invocations,
        "wall_s": sum(inv["wall_s"] for inv in invocations),
        "setup_s": sum(inv["setup_s"] or 0.0 for inv in invocations),
        "peak_rss_mb": max(inv["peak_rss_kib"] for inv in invocations) / 1024.0,
        "artifact_mb": sum(tree_bytes(inv["out"]) for inv in invocations) / MIB,
        "errors": [f"{inv['argv'][0]} invocation {i}: exit {inv['exit']}"
                   for i, inv in enumerate(invocations) if inv["exit"] != 0]
        + [f"invocation {i}: set-up mark missing"
           for i, inv in enumerate(invocations) if inv["setup_s"] is None],
    }


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def analyse(workload, ops, workdir):
    """Check outputs and read traces in a separate process (it imports numpy)."""
    request = os.path.join(workdir, "analyse_request.json")
    with open(request, "w") as fh:
        json.dump({"workload": workload, "configs": CONFIGS, "ops": ops}, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "analyse.py"), request],
        env=child_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"analyse.py failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def source_identity():
    """Line count and content hash of every `.py` file under src/."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, files in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            lines += blob.count(b"\n")
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + blob)
    return lines, digest.hexdigest()


def config_identity():
    """Content hash of the config files each workload runs, by workload."""
    hashes = {}
    for workload, steps in WORKLOADS.items():
        digest = hashlib.sha256()
        for step in steps:
            if step[0] == "run":
                with open(os.path.join(CONFIGS, step[1]), "rb") as fh:
                    digest.update(step[1].encode() + b"\0" + fh.read())
        hashes[workload] = digest.hexdigest()
    return hashes


def environment(seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    lines, src_sha = source_identity()
    return {
        "git_commit": commit,
        "src_sha256": src_sha,
        "config_sha256": config_identity(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_env": PINNED_THREADS,
        "machine": platform.machine(),
    }


def check_determinism(workload, seed, env_record, ops, analysed):
    """Every operation's trajectory hash must match the others and the ledger."""
    hashes = [a["hash"] for a in analysed]
    reference = hashes[0]
    ledger_path = os.path.join(WORK, "hashes.json")
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path) as fh:
            ledger = json.load(fh)
    key = (f"{workload} seed={seed} src={env_record['src_sha256'][:16]} "
           f"configs={env_record['config_sha256'][workload][:16]} python={env_record['python']} "
           f"numpy={env_record['numpy']} scipy={env_record['scipy']}")
    recorded = ledger.get(key)
    if recorded is None and all(not op["errors"] for op in ops):
        ledger[key] = reference
        with open(ledger_path, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
    for op, h in zip(ops, hashes):
        if h != reference:
            op["errors"].append(f"trajectory hash {h[:16]} differs from the first operation's")
        if recorded is not None and h != recorded:
            op["errors"].append(
                f"trajectory hash {h[:16]} differs from an earlier run of this code and seed")
    return reference, recorded


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(ops, analysed):
    per_op = {"wall_s": [], "setup_s": [], "steps_per_s": [], "peak_rss_mb": [], "artifact_mb": []}
    for op, a in zip(ops, analysed):
        per_op["wall_s"].append(op["wall_s"])
        per_op["setup_s"].append(op["setup_s"])
        per_op["steps_per_s"].append(a["steps"] / (op["wall_s"] - op["setup_s"]))
        per_op["peak_rss_mb"].append(op["peak_rss_mb"])
        per_op["artifact_mb"].append(op["artifact_mb"])
    return per_op


def run_workload(workload, seed, seconds, trace, spec):
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    env_record = environment(seed)

    # Warm the page cache and write the bytecode caches before timing.
    spawn([sys.executable, "-c", "import langirl.cli"], env,
          os.path.join(workdir, "warmup.out"), os.path.join(workdir, "warmup.err"))

    ops = []
    began = time.perf_counter()
    while True:
        traced = bool(trace) and len(ops) % 2 == 1
        ops.append(run_operation(workload, os.path.join(workdir, f"op{len(ops)}"), seed, traced, env))
        elapsed = time.perf_counter() - began
        next_wall = max(op["wall_s"] for op in ops[-2:])
        if len(ops) >= MIN_OPS and elapsed + next_wall > seconds:
            break

    analysed = analyse(workload, ops, workdir)
    for op, a in zip(ops, analysed):
        op["errors"] += a["errors"]
    digest, recorded = check_determinism(workload, seed, env_record, ops, analysed)
    failed = sum(1 for op in ops if op["errors"])

    untraced = [i for i, op in enumerate(ops) if not op["traced"]]
    per_op = end_to_end([ops[i] for i in untraced], [analysed[i] for i in untraced])
    if trace:
        declared = spec["per_layer"]
        traced = sorted((i for i, op in enumerate(ops) if "layers" in analysed[i]),
                        key=lambda i: ops[i]["wall_s"])
        if traced:
            values = dict(analysed[traced[(len(traced) - 1) // 2]]["layers"])
            values["trace.overhead_s"] = (statistics.median(ops[i]["wall_s"] for i in traced)
                                          - statistics.median(per_op["wall_s"]))
        else:  # no traced operation finished; the failures are reported
            values = {m["name"]: 0.0 for m in declared}
    else:
        values = {name: statistics.median(vals) for name, vals in per_op.items()}
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")

    record = {
        "workload": workload, "seconds": seconds, "trace": trace, "environment": env_record,
        "trajectory_sha256": digest, "ledger_sha256": recorded,
        "operations": [{**op, **{k: a[k] for k in ("steps", "quality", "hash")}}
                       for op, a in zip(ops, analysed)],
        "end_to_end": per_op,
        "metrics": values,
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    report(workload, env_record, ops, analysed, per_op, values, declared, digest, trace)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def report(workload, env_record, ops, analysed, per_op, values, declared, digest, trace):
    env_line = " ".join(f"{k}={v}" for k, v in env_record.items() if not isinstance(v, dict))
    env_line += f" configs={env_record['config_sha256'][workload][:16]}"
    print(f"== {workload}: {len(ops)} operations ({sum(op['traced'] for op in ops)} traced)")
    print(f"   env {env_line} threads=1")
    for op in ops:
        for err in op["errors"]:
            print(f"   FAILED {os.path.basename(op['dir'])}: {err}")
    print(f"   trajectory sha256 {digest}")
    print(f"   passive estimation error (recorded, not gated): {json.dumps(analysed[0]['quality'])}")
    if trace:
        busy = {k[:-len(".busy_s")]: v for k, v in values.items() if k.endswith(".busy_s")}
        wall = values["trace.wall_s"]
        print(f"   layer self times {sum(busy.values()):.4f} s + tracer bookkeeping "
              f"{values['trace.bookkeeping_s']:.4f} s + unattributed "
              f"{values['trace.unattributed_s']:.4f} s = traced wall {wall:.4f} s")
        print("   share of traced wall: " + ", ".join(
            f"{layer} {t / wall:.1%}" for layer, t in sorted(busy.items(), key=lambda kv: -kv[1]) if t))
    for m in declared:
        line = f"   {m['name']:40s} {values[m['name']]:14.6g} {m['unit']}"
        if not trace:
            q1, q3 = quartiles(per_op[m["name"]])
            line += f"   (median of {len(per_op[m['name']])}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="workload to run (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "langirl", "cli.py")):
        print(f"error: {ROOT} has no src/langirl/cli.py; run from a langirl checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
