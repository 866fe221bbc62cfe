"""One pass of one workload, in a fresh interpreter.

Prints ``ready`` once polkit is imported and the inputs are generated,
so the parent can time set-up from interpreter start. Then it runs every
operation once, plain or traced, and prints one JSON line with the
timings, the outcome of every operation, and the peak resident memory.
Timings are in reference seconds (see ``calibration.py``): calibration
chunks run before the first operation, after the last, and whenever
CALIBRATE_EVERY_S of operation time has passed since the previous chunk.
With ``--oracle`` it afterwards checks each outcome and the workload's
seeding, outside the timed pass, and reports the workload descriptors.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import workloads as wl  # noqa: E402  (needs the src path above)

CALIBRATE_EVERY_S = 0.25


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def run_pass(w, inputs, traced: bool, keep: bool):
    """Run every operation once. The pass time is the sum of the
    operation times; turning results into outcomes is not timed.
    Returns the measured times with the calibration chunk durations."""
    tracer = wl.Tracer() if traced else None
    outcomes, latencies, errors = [], [], {}
    chunks = [calibration.chunk()]
    since_chunk = 0.0
    for k, inp in enumerate(inputs):
        if since_chunk >= CALIBRATE_EVERY_S:
            chunks.append(calibration.chunk())
            since_chunk = 0.0
        start = time.perf_counter()
        try:
            result = w.op_traced(inp, tracer) if traced else w.op(inp)
        except Exception as err:  # a failed operation, counted and reported
            latencies.append(time.perf_counter() - start)
            name = type(err).__name__
            outcomes.append(wl.Outcome("error:" + name, "error " + name))
            errors[k] = f"{name}: {err}"[:200]
        else:
            latencies.append(time.perf_counter() - start)
            o = w.outcome(result)
            if not keep:
                o.payload = None
            outcomes.append(o)
        since_chunk += latencies[-1]
    chunks.append(calibration.chunk())
    return latencies, outcomes, errors, tracer, chunks


def check_outcomes(w, inputs, outcomes, errors) -> dict:
    start = time.perf_counter()
    failures = dict(errors)
    for k, (inp, o) in enumerate(zip(inputs, outcomes)):
        if k in failures:
            continue
        try:
            reason = w.verify(inp, o)
        except Exception as err:  # the check itself failed on this input
            reason = f"check raised {type(err).__name__}: {err}"[:200]
        if reason:
            failures[k] = reason
    return {"check_s": time.perf_counter() - start,
            "failures": {str(k): r for k, r in sorted(failures.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "traced"))
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args(argv)

    w = wl.WORKLOADS[args.workload]()
    inputs = w.inputs(seeded(args.workload, args.seed))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    latencies, outcomes, errors, tracer, chunks = run_pass(
        w, inputs, args.mode == "traced", args.oracle)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = calibration.speed(chunks)
    result = {
        "measured_wall_s": sum(latencies),
        "speed": speed,
        "wall_s": sum(latencies) * speed,
        "latency_s": [t * speed for t in latencies],
        "kinds": [o.kind for o in outcomes],
        "outcome_digest": wl.digest(o.text for o in outcomes),
        "input_digest": wl.digest(w.input_text(i) for i in inputs),
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        result["seconds"] = {k: t * speed for k, t in tracer.seconds.items()}
        result["counts"] = dict(tracer.counts)
    if args.oracle:
        result["oracle"] = check_outcomes(w, inputs, outcomes, errors)
        result["oracle"]["check_s"] *= speed
        result["describe"] = w.describe(inputs)
        other = w.inputs(seeded(args.workload, args.seed + 1))
        result["other_seed_input_digest"] = wl.digest(
            w.input_text(i) for i in other)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
