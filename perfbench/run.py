#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload p2p --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seed N] [--seconds S]  # all three, 12 figures
  python3 perfbench/run.py --self-test   # reduced runs: metric names, units, checks
  python3 perfbench/run.py --anchors     # virtual figures vs the figure benches
  python3 perfbench/run.py --drift       # virtual figures under heap perturbation

The benchmark binary is built from source into .bench_build/perfbench on
first use (cmake; about a minute on 4 cores).  Build output goes to stderr,
so the last stdout line of a single-workload run is the binary's JSON result.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ["p2p", "nas-a4", "rma-64"]
# Whole-run limit for one benchmark process: a run must end within 180 s.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, env=None, timeout=RUN_LIMIT_S):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        p = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                           text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 124, out.splitlines()
    return p.returncode, p.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last stdout line, or None."""
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def workload_args(w, seed, seconds, trace):
    args = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(TRACES / f"{w}-seed{seed}.json")]
    return args


def figure_rows(lines):
    """(name, value, unit) rows of the binary's end-to-end table."""
    rows, on = [], False
    for ln in lines:
        if ln.startswith("-- "):
            on = ln.startswith("-- end-to-end")
            continue
        parts = ln.split()
        if on and ln.startswith("  ") and len(parts) == 3:
            rows.append((parts[0], parts[1], parts[2]))
    return rows


def single(a):
    start = time.monotonic()
    build()
    # A first run also builds; the measurement itself always gets its
    # budget plus room for the last pass.
    left = RUN_LIMIT_S - (time.monotonic() - start)
    code, lines = run_binary(workload_args(a.workload, a.seed, a.seconds,
                                           a.trace),
                             timeout=max(left, a.seconds + 60))
    for ln in lines:
        print(ln)
    if result_of(lines) is None:
        print("perfbench: no result line from the benchmark", file=sys.stderr)
        return code or 1
    return code


def run_all(a):
    """One command, three workloads, all twelve end-to-end figures."""
    build()
    table, units, ok = {}, {}, True
    for w in WORKLOADS:
        code, lines = run_binary(workload_args(w, a.seed, a.seconds, 0))
        res = result_of(lines)
        ok = ok and code == 0 and res is not None and res["correct"]
        for name, value, unit in figure_rows(lines):
            table.setdefault(name, {})[w] = value
            units[name] = unit
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{w}: {status}")
    print(f"\nend-to-end figures, seed {a.seed}, {a.seconds} s per workload "
          "('-': not measured by that workload)")
    print(f"{'metric':<16} {'unit':<11}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, vals in table.items():
        print(f"{name:<16} {units[name]:<11}" +
              "".join(f"{vals.get(w, '?'):>14}" for w in WORKLOADS))
    return 0 if ok else 1


def anchors(_a):
    build()
    ok = True
    for w in WORKLOADS:
        code, lines = run_binary(["--workload", w, "--seed", "1", "--anchors"])
        print("\n".join(lines))
        ok = ok and code == 0
    return 0 if ok else 1


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def self_test(_a):
    """Reduced runs: every declared metric present with its unit, finite,
    outputs checked, fail_ratio 0; anchors hold; an injected job failure is
    counted and makes the run exit nonzero."""
    build()
    e2e, layers = declared_metrics()
    problems = []
    for w in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            code, lines = run_binary(workload_args(w, 7, 1, trace))
            res = result_of(lines)
            tag = f"{w} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, result {res is not None}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}/{res['attempted']}")
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, m in got.items():
                if name in want and m["unit"] != want[name]:
                    problems.append(f"{tag}: {name} unit {m['unit']}")
                if not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} = {m['value']}")
                if trace == 0 and m["value"] <= 0:
                    problems.append(f"{tag}: end-to-end {name} is not > 0")
            print(f"self-test {tag}: {len(got)} metrics checked")
    code, lines = run_binary(["--workload", "p2p", "--seed", "7", "--seconds",
                              "1", "--trace", "0", "--inject-failure"])
    res = result_of(lines)
    if code == 0 or res is None or res["correct"] or res["failed"] == 0:
        problems.append("injected failure was not reported as a failed run")
    else:
        print(f"self-test injected failure: exit {code}, "
              f"failed {res['failed']}/{res['attempted']}")
    if anchors(None) != 0:
        problems.append("anchor cross-check failed")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def virtual_metrics(w, env):
    """Virtual figures of one reduced run per trace mode (units ending in
    _virt), and the binary's report of how far later passes in the same
    process drifted from the warm-up pass."""
    out, inproc = {}, ""
    for trace in (0, 1):
        code, lines = run_binary(workload_args(w, 1, 3, trace), env=env)
        res = result_of(lines)
        if code != 0 or res is None:
            raise RuntimeError(f"{w} --trace {trace} failed under {env}")
        for name, m in res["metrics"].items():
            if m["unit"].endswith("_virt") and m["value"] != 0:
                out[name] = m["value"]
        for ln in lines:
            if ln.startswith("virtual drift across passes:"):
                inproc = ln.split(":", 1)[1].strip()
    return out, inproc


def drift(_a):
    """Heap-layout drift probe: how far each virtual figure moves when only
    the allocator's behaviour changes (same binary, seed and inputs)."""
    build()
    probes = {"MALLOC_PERTURB_=165": {"MALLOC_PERTURB_": "165"},
              "MALLOC_TOP_PAD_=1048576": {"MALLOC_TOP_PAD_": "1048576"},
              "tcache_count=0": {"GLIBC_TUNABLES":
                                 "glibc.malloc.tcache_count=0"}}
    for w in WORKLOADS:
        base, inproc = virtual_metrics(w, None)
        print(f"\n{w}: later passes vs warm-up, same process: {inproc}")
        moved = {}
        for label, extra in probes.items():
            env = dict(os.environ, **extra)
            got, _ = virtual_metrics(w, env)
            for name, v in got.items():
                d = v / base[name] - 1.0 if base.get(name) else float("nan")
                moved.setdefault(name, {})[label] = d
        worst = max((abs(d) for r in moved.values() for d in r.values()),
                    default=0.0)
        print(f"{w}: worst virtual drift under allocator probes "
              f"{worst * 100:.3f} %")
        for name, r in moved.items():
            if any(d != 0 for d in r.values()):
                cells = "  ".join(f"{k} {d * 100:+.3f} %" for k, d in r.items())
                print(f"  {name:<24} {cells}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--anchors", action="store_true")
    mode.add_argument("--drift", action="store_true")
    a = ap.parse_args()
    if a.all:
        return run_all(a)
    if a.self_test:
        return self_test(a)
    if a.anchors:
        return anchors(a)
    if a.drift:
        return drift(a)
    if a.workload is None:
        ap.error("--workload is required (or one of --all/--self-test/"
                 "--anchors/--drift)")
    return single(a)


if __name__ == "__main__":
    sys.exit(main())
