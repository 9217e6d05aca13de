#!/usr/bin/env bash
# Score every candidate of the built-in "table3" grid by cross-validation
# (--exhaustive: no early exit) and write the ranked table plus the selected
# architecture to disk.
#
# Usage: [JOBS=n] scripts/reproduce_table3.sh [output-dir]
set -euo pipefail

out="${1:-out/dse}"
jobs="${JOBS:-4}"
mkdir -p "$out"

spike-pipeline generate --out "$out/rec.spkr" --annotations "$out/ann.csv" \
    --seed 7 --duration-s 600

spike-pipeline build-dataset --in "$out/rec.spkr" --annotations "$out/ann.csv" \
    --out "$out/dataset.jsonl"

spike-pipeline dse --dataset "$out/dataset.jsonl" --grid table3 --exhaustive \
    --jobs "$jobs" --out "$out/dse_results.json" | tee "$out/dse_table.txt"
