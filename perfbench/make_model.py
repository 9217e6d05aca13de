"""Rebuild the replay workloads' fixed model with the README recipe.

    PYTHONPATH=src python3 perfbench/make_model.py [OUT]

Runs generate (seed 7, 600 s), build-dataset, train (40-16-7-5-4-3, seed 1)
and quantize through the CLI, and prints the sha256 of the result.  Exits 1
when it differs from spec.MODEL_SHA256, the hash of the committed
data/model_q.json.  The committed file is never touched: replay numbers come
from it, so a change to the train layer does not move them.  With OUT, the
rebuilt model is also copied there.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from spikestage import cli

import spec

HERE = Path(__file__).resolve().parent


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="model-", dir=HERE / ".work"))
    try:
        rec, ann, ds = str(tmp / "rec.spkr"), str(tmp / "ann.csv"), str(tmp / "ds.jsonl")
        model, quant = str(tmp / "model.json"), str(tmp / "model_q.json")
        for argv in (
            ["generate", "--out", rec, "--annotations", ann, "--seed", "7", "--duration-s", "600"],
            ["build-dataset", "--in", rec, "--annotations", ann, "--out", ds],
            ["train", "--dataset", ds, "--topology", "40,16,7,5,4,3", "--seed", "1", "--out", model],
            ["quantize", "--model", model, "--calib", ds, "--out", quant],
        ):
            if cli.main(argv) != 0:
                return 1
        digest = hashlib.sha256(Path(quant).read_bytes()).hexdigest()
        if len(sys.argv) > 1:
            shutil.copyfile(quant, sys.argv[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"rebuilt {digest}\ncommitted {spec.MODEL_SHA256}", file=sys.stderr)
    return 0 if digest == spec.MODEL_SHA256 else 1


if __name__ == "__main__":
    sys.exit(main())
