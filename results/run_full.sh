#!/bin/sh
# Full-scale reproduction runs; results recorded in EXPERIMENTS.md.
# full_report covers Figs. 5/7/8/9/10 on all four systems with shared
# training. The figure, ablation and chaos harnesses retrain per
# variant, so their committed records are the quick runs, one
# results/<harness>_quick.txt each.
set -e
cd "$(dirname "$0")/.."
echo "=== full_report ==="
./build/tools/full_report > results/full_report.txt 2>results/full_report.log
for b in build/bench/fig* build/bench/ablation_* build/bench/chaos_report; do
  name=$(basename "$b")
  echo "=== $name (quick systems) ==="
  "$b" > "results/${name}_quick.txt" 2>/dev/null
done
