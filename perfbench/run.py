"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table
    python3 perfbench/run.py --record-goldens        # rewrite goldens.json

The program under test is the pnsheaf source tree next to this directory
(``src/pnsheaf``), imported once; see README.md for what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

from perfbench import checks, harness, inputs  # noqa: E402

SETUP_PROBES = 11
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import pnsheaf.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Wall time of ``import pnsheaf.cli`` in a fresh interpreter."""
    probe = [sys.executable, "-I", "-c", IMPORT_PROBE.format(src=SRC)]
    done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rnd = inputs.make_round(workload, seed)
    goldens = checks.load_goldens()[workload] if seed == checks.DEFAULT_SEED else None
    client = harness.Client(os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}"))
    # set-up is probed between requests across the run, so that a slow phase
    # of the host hits few probes; the first import writes the bytecode
    # caches, a cost paid once per install, and is not counted
    probe = None if trace else import_seconds
    if probe is not None:
        probe()
    try:
        tally, stats, overhead, setup = harness.measure(
            client, rnd, seconds, goldens, trace, probe, SETUP_PROBES)
    finally:
        client.cleanup()
    if trace:
        metrics = stats.metrics()
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = tally.end_to_end()
        metrics["setup_s"] = (statistics.median(setup), "s")
    for line in tally.failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record_goldens() -> None:
    """Digest every default-seed response after the generic checks pass."""
    client = harness.Client(os.path.join(ROOT, ".perfbench_work", f"goldens-{os.getpid()}"))
    recorded: dict = {"seed": checks.DEFAULT_SEED}
    try:
        for workload in inputs.WORKLOADS:
            rnd = inputs.make_round(workload, checks.DEFAULT_SEED)
            responses = client.run_round(rnd, client.write_forms(rnd))
            bad = [v for v in checks.check_round(rnd, responses, None) if v is not None]
            if bad:
                raise SystemExit(f"{workload}: {len(bad)} responses fail their checks: {bad[0]}")
            recorded[workload] = {req.key(rnd.forms): checks.digest(resp)
                                  for req, resp in zip(rnd.requests, responses)}
    finally:
        client.cleanup()
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    try:
        import pnsheaf.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import pnsheaf from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pnsheaf.cli.__file__).startswith(SRC + os.sep):
        print(f"error: pnsheaf imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens:
        record_goldens()
        return 0
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    for workload in inputs.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {result['failed'] / result['attempted']:.4f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
