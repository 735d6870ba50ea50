#!/usr/bin/env bash
# Interleaved A/B comparison of the repository benchmark between two trees.
#
#   bench/ab.sh PARENT_TREE CHANGE_TREE WORKLOAD [ROUNDS] [SECONDS] [SEED]
#
# Runs each tree's already-built .bench_build/perfbench/perfbench in ROUNDS
# (default 10) interleaved pairs, `--workload WORKLOAD --seed SEED --seconds
# SECONDS --trace 0` (defaults: 4 s, seed 1), each in its own tree.  Even
# rounds run the parent first, odd rounds the change first, so drift in host
# load falls on both sides alike.  Prints one JSON line: per end-to-end metric,
# the median, quartiles and IQR of each side, the relative change of the
# medians and the number of rounds the change won (by BENCHMARK.json's
# "better" direction).  Exit 1 if any run fails its output checks.
#
# Both trees must be fresh `git clone`s, not `cp -r` copies:
# perfbench/run.py configures .bench_build/perfbench inside the checkout,
# and a copied checkout keeps the original's CMake cache path, so it
# rebuilds into the original's .bench_build/ and both sides run one binary.
# Build each first with `python3 perfbench/run.py --workload p2p --seconds 1`
# from its root.  Keep the two tree paths the same length: heap-layout-
# sensitive virtual figures can move with the length of a path string.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 6 ]]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD [ROUNDS] [SECONDS] [SEED]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
rounds=${4:-10}
seconds=${5:-4}
seed=${6:-1}
for tree in "$parent" "$change"; do
  if [[ ! -x "$tree/.bench_build/perfbench/perfbench" ]]; then
    echo "$0: no built $tree/.bench_build/perfbench/perfbench" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run_side() {  # run_side SIDE TREE ROUND
  local line
  if ! line=$(cd "$2" && ./.bench_build/perfbench/perfbench \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
      tail -n 1); then
    echo "$0: $1 run $3 failed" >&2
    exit 1
  fi
  echo "$line" >> "$out/$1.jsonl"
}

for ((i = 0; i < rounds; ++i)); do
  if ((i % 2 == 0)); then
    run_side parent "$parent" "$i"
    run_side change "$change" "$i"
  else
    run_side change "$change" "$i"
    run_side parent "$parent" "$i"
  fi
done

python3 - "$out" "$change/BENCHMARK.json" "$workload" "$rounds" \
    "$seconds" "$seed" <<'EOF'
import json
import statistics
import sys

out, spec, workload, rounds, seconds, seed = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
runs = {}
for side in ("parent", "change"):
    runs[side] = [json.loads(ln) for ln in open(f"{out}/{side}.jsonl")]
    if not all(r["correct"] and r["failed"] == 0 for r in runs[side]):
        sys.exit(f"ab.sh: a {side} run failed its output checks")


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


metrics = {}
for name, direction in better.items():
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    sign = 1 if direction == "lower" else -1
    ps, cs = summary(p), summary(c)
    metrics[name] = {
        "unit": runs["parent"][0]["metrics"][name]["unit"],
        "better": direction,
        "parent": ps,
        "change": cs,
        "delta": (cs["median"] - ps["median"]) / ps["median"]
        if ps["median"] else 0.0,
        "wins": sum(sign * (a - b) > 0 for a, b in zip(p, c)),
    }
print(json.dumps({"workload": workload, "seed": int(seed),
                  "rounds": int(rounds), "seconds": int(seconds),
                  "metrics": metrics}))
EOF
