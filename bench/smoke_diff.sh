#!/usr/bin/env bash
# Byte-compares the `perf`-labelled bench smokes of two build trees:
#
#   bench/smoke_diff.sh PARENT_BUILD CHANGE_BUILD
#
# The smoke list and each smoke's command come from the build's ctest
# registration (`ctest -L perf --show-only=json-v1`), so they live only in
# bench/benches.cmake.  Every smoke runs in a fresh temporary directory; its
# stdout, stderr, exit status and every file it writes there (the BENCH_*.json
# tables) are compared with `diff -r`.  Prints "identical" or "differs" per
# smoke, followed by the head of the diff, and exits 1 on any difference.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# One shell-quoted "name command args..." line per perf smoke of build $1.
list_smokes() {
  ctest --test-dir "$1" -L perf --show-only=json-v1 |
    python3 -c 'import json, shlex, sys
for t in json.load(sys.stdin)["tests"]:
    print(shlex.join([t["name"]] + t["command"]))'
}

# Runs every smoke of build $1, each in its own directory under $2.
run_smokes() {
  local line dir status
  local -a cmd
  while IFS= read -r line; do
    eval "cmd=($line)"
    dir="$2/${cmd[0]}"
    mkdir -p "$dir"
    status=0
    (cd "$dir" && "${cmd[@]:1}" >stdout 2>stderr) || status=$?
    echo "$status" >"$dir/exit"
  done < <(list_smokes "$1")
}

run_smokes "$1" "$work/parent"
run_smokes "$2" "$work/change"

rc=0
for name in $( (ls "$work/parent"; ls "$work/change") | sort -u); do
  if diff -r "$work/parent/$name" "$work/change/$name" >"$work/diff" 2>&1; then
    printf '%-36s identical\n' "$name"
  else
    printf '%-36s differs\n' "$name"
    head -n 40 "$work/diff" | sed 's/^/    /'
    rc=1
  fi
done
exit "$rc"
