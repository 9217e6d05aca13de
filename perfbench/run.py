"""Spikestage benchmark: one command prints every metric by name and unit.

    python3 perfbench/run.py --workload replay-sparse --seed 7 --seconds 4 --trace 0

Run it from the root of a checkout; the program is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer ones
and the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  --out FILE appends the
full result (provenance, simulated statistics, every repetition) to FILE as
one JSON line.  See perfbench/README.md for the workloads and how to quote
before/after numbers.

This process imports only the standard library: the work happens in a worker
process and in fresh children, so this parent stays small and does not raise
the inherited peak-memory figure of the children it starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKER_TIMEOUT_S = 170
CHILD_TIMEOUT_S = 60


def child_json(argv: list[str], timeout: float) -> dict:
    """Run a Python child with the program on its path; parse its last line.

    The child gets a session of its own so that, on a timeout, the search's
    pool workers are stopped with it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return json.loads(out.decode().strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies the code
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spikestage").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="spikestage benchmark")
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the main path repeats")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="a few seconds of audio, one-candidate two-fold search")
    p.add_argument("--out", type=Path, default=None, help="append the full result as a JSON line")
    args = p.parse_args(argv)

    if not (SRC / "spikestage" / "__init__.py").is_file():
        print(f"error: {SRC}/spikestage not found; run from the root of a spikestage checkout", file=sys.stderr)
        return 2

    workload = spec.WORKLOADS[args.workload]
    if args.quick:
        workload = spec.quick(workload)
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    failed: list[str] = []
    attempted = 0
    rss = None
    try:
        worker_argv = [
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(workdir),
        ] + (["--quick"] if args.quick else [])
        result = child_json(worker_argv, WORKER_TIMEOUT_S)
        attempted += result["attempted"]
        failed += result["failed"]

        # Peak memory of the chain alone, in a fresh child that reads the
        # inputs the worker left behind: the recording with the median
        # detection count.
        if not trace:
            chosen = result["representative"]
            rss = child_json(
                [
                    str(HERE / "child.py"), "rss",
                    chosen["recording"], chosen["annotations"],
                    str(HERE / spec.MODEL_FILE), str(workdir / "rss.spkevt"),
                ],
                CHILD_TIMEOUT_S,
            )
            attempted += 1
            if rss["event_words_sha256"] != chosen["event_words_sha256"]:
                failed.append("replay in a fresh child wrote different event words")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = dict(result["layers"])
        table = spec.PER_LAYER
    else:
        values = dict(result["metrics"])
        values["replay_peak_rss_b_per_sample"] = (rss["peak_b"] - rss["base_b"]) / rss["samples"]
        values["success_rate"] = (attempted - len(failed)) / attempted
        table = spec.END_TO_END
    missing = sorted(set(table) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": workload.held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "params": dataclasses.asdict(workload),
        "machine": dict(machine(), **result["versions"]),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "model_sha256": spec.MODEL_SHA256,
        "memory": "replay_peak_rss_b_per_sample is ru_maxrss of the benchmark's own replay child "
        "(after the chain minus after import, per input sample), not a machine-wide measurement",
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"simulated": result["simulated"]}))
    for name, m in metrics.items():
        print(f"{name:36} {m['value']:>16.6g} {m['unit']}")
    if args.out is not None:
        record = {
            "provenance": provenance,
            "simulated": result["simulated"],
            "metrics": metrics,
            "times_s": result["times_s"],
            "replay_timed_recordings": result["replay_timed_recordings"],
            "rss": dict(rss, recording_index=result["representative"]["index"]) if rss else None,
            "attempted": attempted,
            "failed": failed,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
