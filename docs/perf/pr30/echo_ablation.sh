#!/bin/bash
# Ten alternating pairs of the static-cc-resident workload, seed 2019, between
# the change and a copy of it with echo.patch applied (the block's final
# owner-scoped round is echoed back to its slot as at the parent).
#
#   docs/perf/pr30/echo_ablation.sh CHANGE_TREE ECHO_TREE OUT_FILE
#
# Odd pairs run the echo tree first, even pairs the change first; each line
# of OUT_FILE is "pair <i> <side> <correct> <ops_per_s> <call_ms_p50>".
set -eu
change=$1 echo_tree=$2 out=$3
for i in $(seq 1 10); do
  if [ $((i % 2)) -eq 1 ]; then order="echo change"; else order="change echo"; fi
  for side in $order; do
    if [ "$side" = change ]; then tree=$change; else tree=$echo_tree; fi
    v=$(cd "$tree" && python3 bench/run.py --workload static-cc-resident --seed 2019 --seconds 16 --trace 0 2>/dev/null \
        | python3 -c "import json,sys; d=json.loads(sys.stdin.read()); print(d['correct'], d['metrics']['ops_per_s']['value'], d['metrics']['call_ms_p50']['value'])")
    echo "pair $i $side $v" >> "$out"
  done
done
