"""dhym-lab benchmark: time to a certified result on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_n1 --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; why each
workload was chosen is written beside it in workloads.py, and NOTES.md
holds the measurements and known defects.

Measured runs set DHYM_THREADS=1, the single-threaded baseline: with the
default (one FFT worker per core) the wall time follows the CPU time the
host steals from the second core, which moved it by a third between runs
on a 2-core machine (NOTES.md).  The default is traced beside it.

--trace 0 prints the end-to-end metrics.  Fresh processes, before and
after the measured one, import dhym_lab and write the configuration files;
the median of their times and the measured process's own is setup_s.
The measured process runs the workload's operation back to back for
--seconds; wall_s is the median operation time, corrected for the host's
speed at the time (pace.py), and peak_rss_mb that process's peak resident
memory.  The uncorrected times are in the line before the result.

--trace 1 prints the per-layer metrics.  It runs one untraced operation,
one traced operation, and one traced operation with DHYM_THREADS unset
(reported under ``default_threads.``), each in its own process, and fails
the run unless all three wrote byte-identical outputs.

Every operation's outputs are checked; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 whenever
that line is printed, and nonzero without it when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
THREADS = "1"  # DHYM_THREADS of every measured run
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker(mode: str, args, work: Path, threads: str | None = THREADS,
            seconds: float = 0.0) -> dict:
    """Run worker.py in a fresh process and return its result document."""
    timeout = args.deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    work.mkdir(parents=True, exist_ok=True)
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("DHYM_THREADS", None)  # unset: the user default, one FFT worker per core
    if threads is not None:
        env["DHYM_THREADS"] = threads
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--workdir", str(work),
           "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    with open(work / "stdout.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, spec, work: Path):
    # Set-up samples before and after the measured process, so that they
    # cover the run's whole span of host speeds.
    def set_up(ks):
        return [_worker("setup", args, work / f"setup{k}")["setup_s"] for k in ks]

    half = SETUP_SAMPLES // 2
    setups = set_up(range(half))
    res = _worker("measure", args, work / "measure", seconds=args.seconds)
    setups += [res["setup_s"]] + set_up(range(half, SETUP_SAMPLES))
    values = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {"walls_s": res["walls"], "raw_walls_s": res["raw_walls"],
               "setup_samples_s": setups, "info": res["info"],
               "environment": res["environment"], "failures": res["failures"]}
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return len(res["walls"]), res["failed"], metrics, details


def _per_layer(args, spec, work: Path):
    plain = _worker("measure", args, work / "untraced")
    traced = _worker("trace", args, work / "traced")
    default = _worker("trace", args, work / "default_threads", threads=None)
    for role in ("traced", "default_threads"):
        (work / role / "spans.jsonl").replace(WORK / f"{args.workload}.{role}.spans.jsonl")
    failures = plain["failures"] + traced["failures"] + default["failures"]
    for label, other in (("traced", traced), ("default-threads traced", default)):
        if other["hashes"] != plain["hashes"]:
            failures.append(f"{label} outputs differ from the untraced outputs")
            other["failed"] = 1
    failed = plain["failed"] + traced["failed"] + default["failed"]
    values = dict(traced["metrics"])
    values["trace.overhead_s"] = traced["walls"][0] - plain["raw_walls"][0]
    values["default_threads.wall_s"] = default["walls"][0]
    for name, value in default["metrics"].items():
        values["default_threads." + name] = value
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    details = {"walls_s": {"untraced": plain["raw_walls"][0], "traced": traced["walls"][0],
                           "default_threads_traced": default["walls"][0]},
               "info": traced["info"], "shares": traced["shares"],
               "default_threads_shares": default["shares"],
               "environment": {"measured": traced["environment"],
                               "default_threads": default["environment"]},
               "failures": failures}
    return 3, failed, metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the smoke test only")
    args = parser.parse_args()
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # Inputs take the seed modulo 2^31 so that any integer is a valid noise seed.
    args.seed %= 2 ** 31

    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "dhym_lab" / "__init__.py").is_file():
        print(f"error: no dhym_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = _per_layer if args.trace else _end_to_end
        attempted, failed, metrics, details = run(args, spec, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in details["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
