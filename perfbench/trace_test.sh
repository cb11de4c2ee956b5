#!/bin/sh
# The benchmark's own test: a short traced run whose Chrome trace must pass
# tools/trace_check with one span per layer (compile, materialize, launch,
# checkpoint, restore, serial interpreter, cluster model, plan service)
# plus the three root spans the per-layer metrics are grouped by.
#
# Usage: trace_test.sh <perfbench> <trace_check> <scratch-dir>
set -eu
bench=$1
check=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
"$bench" --workload compile --seed 1 --seconds 1 --trace 1 \
  --work-dir "$work" --trace-out "$work/trace.json" > "$work/result.txt"
tail -n 1 "$work/result.txt"
"$check" "$work/trace.json" suite step extras \
  parallelize.compile dpl.materialize runtime.launch runtime.checkpoint \
  runtime.restore ir.serial sim.model service.request
