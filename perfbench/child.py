"""Fresh-process measurements: start-up (started by worker.py) and peak memory
(started by run.py).

    python3 perfbench/child.py startup
        imports spikestage.cli and runs the `report` command, as a user's
        first call would; prints the import and command times.
    python3 perfbench/child.py rss RECORDING ANNOTATIONS MODEL EVENT_LOG
        runs the replay chain once and prints ru_maxrss after import and
        after the chain.  This is the peak resident set of this child process
        alone, not a machine-wide measurement.

Only the standard library is imported at module level, so `startup` pays for
nothing but the program's own imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def startup() -> dict:
    t0 = time.perf_counter()
    from spikestage import cli

    t1 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report"])
    t2 = time.perf_counter()
    report = json.loads(out.getvalue())
    ok = code == 0 and report["battery_life_days"] > 0 and report["power_w"]["total_w"] > 0
    return {"ok": ok, "import_s": t1 - t0, "report_s": t2 - t1}


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux reports KiB


def rss(rec: str, ann: str, model: str, log: str) -> dict:
    from worker import EVENT_LOG_HEADER_BYTES, Files, replay_chain, sha256_file

    base = maxrss_bytes()
    r = replay_chain(Files(Path(rec), Path(ann)), Path(model), Path(log))
    peak = maxrss_bytes()
    words_sha = sha256_file(Path(log), skip=EVENT_LOG_HEADER_BYTES)
    return {"base_b": base, "peak_b": peak, "samples": r.samples, "event_words_sha256": words_sha}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    print(json.dumps(startup() if mode == "startup" else rss(*rest)))
