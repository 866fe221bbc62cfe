"""Benchmark of polkit's decision route, one workload per run.

    python3 perfbench/run.py --workload sat-2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every pass runs in a fresh interpreter
(``worker.py``), because polkit interns expressions in process-wide
caches and a second pass in the same process would mostly measure cache
hits. Passes repeat until ``--seconds`` would be exceeded, with at least
two; consecutive passes use different ``PYTHONHASHSEED`` values, and
their outcomes must agree down to the witnesses.

The first pass also checks every outcome against an independent oracle,
outside its timed loop. An operation fails when it raises or when the
oracle refutes its verdict; failures are counted in ``failed`` and
``ok_share``. ``correct`` is false when the benchmark's own checks fail:
the inputs differ between passes or do not change with the seed, the
outcomes differ between passes or hash seeds, the traced replay reaches
another verdict than the plain call, or the oracle did not run.

Every time is reported in reference seconds, scaled by how fast a fixed
calibration loop ran at the moment of measurement (``calibration.py``);
the descriptor line keeps the measured values.

With ``--trace 0`` the last line reports the end-to-end metrics of the
plain passes; with ``--trace 1`` plain and traced passes alternate and
the last line reports the per-layer metrics of the traced passes. The
line before it describes the run: passes, hash seeds, inputs, and every
failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check", "sat-2", "sat-full", "dpdl")
HASH_SEEDS = ("0", "1")
MIN_PASSES = 2
MAX_PASSES = 12
SETUP_SAMPLES = 7
SETUP_CALIBRATION_CHUNKS = 3
PROCESS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("definite_share", "share"),
    ("ok_share", "share"), ("peak_rss_mb", "MB"),
)
SPAN_METRICS = (
    "syntax.parse_s", "syntax.fl_closure_s", "dpdl.translate.build_s",
    "dpdl.core.closure_s", "dpdl.core.check_s", "dpdl.polsat.decode_s",
    "bts.is_bts_s", "bts.extract_s", "models.build_s", "models.check_s",
    "models.update_s",
)
COUNT_METRICS = (
    "syntax.fl_members", "dpdl.translate.labels",
    "dpdl.translate.dpdl_nodes", "dpdl.core.closure_members",
    "dpdl.core.frontier_members", "dpdl.solver.sat", "dpdl.solver.unsat",
    "dpdl.solver.unknown", "dpdl.solver.errors",
    "dpdl.solver.witness_states", "dpdl.polsat.bubbles", "bts.exp_nodes",
    "bts.model_states", "models.contexts",
)


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, index: int,
          oracle: bool = False) -> dict:
    """Run one worker; return its result with ``setup_s``, the time from
    starting the interpreter to the worker's ``ready`` line, in reference
    seconds by calibration chunks run just before."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if oracle:
        cmd.append("--oracle")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[index % 2])
    speed = calibration.speed([calibration.chunk()
                               for _ in range(SETUP_CALIBRATION_CHUNKS)])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"{mode} worker for {workload} exited with "
                           f"{proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else {}
    result["measured_setup_s"] = setup_s
    result["setup_s"] = setup_s * speed
    return result


def tail_percentile(n: int) -> int:
    """The highest whole percentile of n samples, by nearest rank, with
    at least ten samples above it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def tail(samples):
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[max(0, math.ceil(tail_percentile(n) * n / 100) - 1)]


def run_passes(args):
    """The passes of a run and its set-up samples. A set-up-only worker
    precedes every pass, so the samples spread over the whole run like
    the passes do, instead of all falling into one phase of the
    machine's throughput."""
    deadline = time.perf_counter() + args.seconds
    passes, setup = [], []
    while len(passes) < MAX_PASSES:
        k = len(passes)
        mode = "traced" if args.trace and k % 2 else "plain"
        t = time.perf_counter()
        setup.append(spawn(args.workload, args.seed, "setup", k)["setup_s"])
        result = spawn(args.workload, args.seed, mode, k, oracle=(k == 0))
        result["mode"] = mode
        result["hash_seed"] = HASH_SEEDS[k % 2]
        passes.append(result)
        setup.append(result["setup_s"])
        took = time.perf_counter() - t
        if len(passes) >= MIN_PASSES and time.perf_counter() + took > deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(spawn(args.workload, args.seed, "setup",
                           len(setup))["setup_s"])
    return passes, setup


def self_checks(passes) -> dict:
    first = passes[0]
    plain_kinds = first["kinds"]
    return {
        "same_inputs_every_pass": len({p["input_digest"] for p in passes}) == 1,
        "other_seed_other_inputs":
            first["other_seed_input_digest"] != first["input_digest"],
        "same_outcomes_every_pass_and_hash_seed":
            len({p["outcome_digest"] for p in passes}) == 1,
        "traced_replay_same_verdict_kinds": all(
            p["kinds"] == plain_kinds for p in passes),
        "oracle_ran": "oracle" in first,
    }


def end_to_end(passes, setup) -> dict:
    plain = [p for p in passes if p["mode"] == "plain"]
    first = passes[0]
    ops = len(first["kinds"])
    failed = len(first["oracle"]["failures"])
    # One latency per operation, its median over the passes: a pass
    # repeats the same inputs, so pooling passes would count the slowest
    # inputs once per pass in the tail.
    latencies_ms = [statistics.median(p["latency_s"][k] for p in plain) * 1000
                    for k in range(ops)]
    definite = sum(k in ("sat", "unsat", "done") for k in first["kinds"])
    # The oracle pass keeps payloads for its checks; leave its memory out.
    rss = [p["rss_mb"] for p in plain[1:]] or [first["rss_mb"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail(latencies_ms),
        "definite_share": definite / ops,
        "ok_share": 1 - failed / ops,
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"]

    def median_of(fn):
        return statistics.median(fn(p) for p in traced)

    out = {name: median_of(lambda p, n=name: p["seconds"].get(n, 0.0))
           for name in SPAN_METRICS}
    # dpdl_sat recomputes the closure and re-checks its witness inside;
    # both are timed by separate calls, so subtract them for its own share.
    out["dpdl.solver.self_s"] = median_of(
        lambda p: p["seconds"].get("dpdl.solver.call_s", 0.0)
        - p["seconds"].get("dpdl.core.closure_s", 0.0)
        - p["seconds"].get("dpdl.core.check_s", 0.0))
    out.update({name: traced[0]["counts"].get(name, 0)
                for name in COUNT_METRICS})
    out["oracle.check_s"] = passes[0]["oracle"]["check_s"]
    out["trace.overhead_s"] = (
        median_of(lambda p: p["wall_s"])
        - statistics.median(p["wall_s"] for p in plain))
    out["trace.unaccounted_s"] = median_of(
        lambda p: p["wall_s"] - sum(p["seconds"].values()))
    return out


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polkit" / "__init__.py").is_file():
        print(f"perfbench: no polkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        passes, setup = run_passes(args)
    except WorkerFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    first = passes[0]
    checks = self_checks(passes)
    ops = len(first["kinds"])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": [{k: p[k] for k in ("mode", "hash_seed", "wall_s",
                                      "measured_wall_s", "speed", "setup_s",
                                      "measured_setup_s", "rss_mb")}
                   for p in passes],
        "setup_samples_s": setup,
        "ops_per_pass": ops,
        "op_tail_percentile": tail_percentile(ops),
        "verdicts": {k: first["kinds"].count(k)
                     for k in sorted(set(first["kinds"]))},
        "self_checks": checks,
        "failures": first["oracle"]["failures"],
        "descriptors": first["describe"],
    }))
    if args.trace:
        metrics = {n: {"value": v, "unit": unit(n)}
                   for n, v in per_layer(passes).items()}
    else:
        units = dict(END_TO_END)
        metrics = {n: {"value": v, "unit": units[n]}
                   for n, v in end_to_end(passes, setup).items()}
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": ops,
        "failed": len(first["oracle"]["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
