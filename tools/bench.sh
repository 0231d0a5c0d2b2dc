#!/usr/bin/env bash
# tools/bench.sh — micro-kernel benchmark runner.
#
# Runs the gemm and nn micro benchmarks and distills the batched-kernel
# numbers into a compact JSON report (default: BENCH_4.json at the repo
# root) with one record per (op, batch): ns/op and flops/s. The report
# also carries the headline number this file exists to track: the batch-64
# forward+backward speedup of the batched kernels over 64 per-sample calls
# (the pre-batching execution pattern). The committed BENCH_4.json is the
# baseline snapshot; re-run this script after touching linalg/ or nn/ and
# compare.
#
# The serving sweep (bench_serve: closed-loop clients x batching window)
# is distilled the same way into a second report (default: BENCH_5.json):
# req/s and p50/p99 latency per (clients, max_batch) cell, plus the
# headline batched-vs-batch-1 throughput speedup at the saturating client
# count.
#
# The telemetry sweep (bench_obs) is distilled into a third report
# (default: BENCH_6.json): ns/op per instrument operation keyed by thread
# count, plus two headline numbers: the sharded counter's contended
# advantage over the single shared atomic it replaced (the PR-1 design),
# and the one-relaxed-load cost of a disabled DARL_COUNTER_ADD gate.
#
# The open-loop fleet sweep (bench_serve: offered rate x max_batch through
# serve::Router) is distilled into a fourth report (default: BENCH_7.json):
# achieved rate and open-loop p50/p99/p99.9 per (rate, max_batch, arrival)
# cell, the saturation knee per configuration (highest offered rate still
# achieving >= 95%), and the batched-vs-batch-1 comparison at the first
# swept rate beyond the batch-1 knee (achieved-rate ratio and p99.9
# ratio — beyond its knee, batch-1's open-loop tail grows with the
# backlog while the batched fleet keeps it bounded).
#
# The kernel-performance sweep (blocked vs naive NT gemm, the
# DARL_LINALG_THREADS pool-width ladder, and the DARL_FAST_MATH tier) is
# distilled into a fifth report (default: BENCH_9.json): per-cell real/CPU
# ns and GFLOP/s keyed by op x threads, plus headlines for the
# blocked-vs-naive single-thread lift, pool scaling efficiency, and the
# 4-thread batch-64 fwd+bwd speedup over the per-sample baseline. Wall-clock
# thread scaling is only meaningful on a multi-core runner; the report
# records both real and CPU time so a single-core CI box stays honest.
#
# Usage: tools/bench.sh [output.json] [serve_output.json] [obs_output.json] \
#                       [openloop_output.json] [kernel_output.json]
#   BUILD_DIR=build-foo tools/bench.sh     # use a different build tree
#   BENCH_SMOKE=1 tools/bench.sh out.json serve.json
#                                          # near-instant smoke run (CI gate:
#                                          # the benches still build and run;
#                                          # numbers are meaningless)
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_4.json}"
SERVE_OUT="${2:-BENCH_5.json}"
OBS_OUT="${3:-BENCH_6.json}"
OPENLOOP_OUT="${4:-BENCH_7.json}"
KERNEL_OUT="${5:-BENCH_9.json}"
BUILD="${BUILD_DIR:-build}"
JOBS="$(nproc)"

cmake --build "$BUILD" -j "$JOBS" \
    --target bench_micro_gemm bench_micro_nn bench_serve bench_obs

SMOKE_ARGS=()
if [[ "${BENCH_SMOKE:-0}" != "0" ]]; then
  # Near-zero min time: each bench runs a handful of iterations, just
  # enough to prove it builds, runs, and emits distillable JSON. (The
  # "=1x" fixed-iteration syntax needs google-benchmark >= 1.8, which the
  # toolchain image does not guarantee.)
  SMOKE_ARGS=(--benchmark_min_time=0.001)
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"./$BUILD/bench/bench_micro_gemm" --benchmark_format=json \
    "${SMOKE_ARGS[@]+"${SMOKE_ARGS[@]}"}" > "$TMP/gemm.json"
"./$BUILD/bench/bench_micro_nn" --benchmark_format=json \
    --benchmark_filter='Batch|PerSampleLoop|WrapperLoop' \
    "${SMOKE_ARGS[@]+"${SMOKE_ARGS[@]}"}" > "$TMP/nn.json"
"./$BUILD/bench/bench_serve" --benchmark_format=json \
    "${SMOKE_ARGS[@]+"${SMOKE_ARGS[@]}"}" > "$TMP/serve.json"
"./$BUILD/bench/bench_obs" --benchmark_format=json \
    "${SMOKE_ARGS[@]+"${SMOKE_ARGS[@]}"}" > "$TMP/obs.json"

python3 - "$TMP/gemm.json" "$TMP/nn.json" "$OUT" <<'PY'
import json, sys

gemm_path, nn_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

def load(path):
    with open(path) as f:
        return json.load(f)["benchmarks"]

def to_ns(b):
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return b["real_time"] * scale

# Kernel-sweep benches (threads ladder, fast-math tier, naive strawman)
# are distilled into BENCH_9, not this baseline.
KERNEL_OPS = {
    "BM_GemmNTNaive",
    "BM_GemmNTThreads",
    "BM_GemmNTFastMath",
    "BM_MlpForwardBackwardBatchThreads",
}

results = []
times = {}
for b in load(gemm_path) + load(nn_path):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]  # e.g. BM_MlpForwardBackwardBatch/64/64
    parts = name.split("/")
    op = parts[0]
    if op in KERNEL_OPS:
        continue
    args = [int(p) for p in parts[1:] if p.isdigit()]
    # Single-arg benches (gemm square size, MlpLayer batch) report the arg
    # as the batch column; two-arg nn benches report {hidden, batch} — both
    # columns, so e.g. hidden-64 and hidden-128 rows at the same batch stay
    # distinguishable.
    ns = to_ns(b)
    times[name] = ns
    record = {
        "op": op,
        "batch": args[-1] if args else 1,
        "ns_per_op": ns,
        "flops_per_s": b.get("flops/s"),
    }
    if len(args) == 2:
        record["hidden"] = args[0]
    results.append(record)

report = {"results": results}
batched = times.get("BM_MlpForwardBackwardBatch/64/64")
per_sample = times.get("BM_MlpForwardBackwardPerSampleLoop/64/64")
if batched and per_sample:
    report["fwd_bwd_batch64_speedup_vs_per_sample"] = per_sample / batched

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

speedup = report.get("fwd_bwd_batch64_speedup_vs_per_sample")
if speedup is not None:
    print(f"batch-64 fwd+bwd speedup over per-sample: {speedup:.2f}x")
print(f"wrote {out_path} ({len(results)} records)")
PY

python3 - "$TMP/serve.json" "$SERVE_OUT" <<'PY'
import json, sys

serve_path, out_path = sys.argv[1], sys.argv[2]

with open(serve_path) as f:
    benchmarks = json.load(f)["benchmarks"]

results = []
rps = {}
for b in benchmarks:
    if b.get("run_type") == "aggregate":
        continue
    # e.g. BM_ServeClosedLoop/16/64/200/process_time/real_time — the
    # numeric path segments are {clients, max_batch, max_delay_us}.
    # (bench_serve also hosts BM_ServeOpenLoop, distilled separately.)
    if not b["name"].startswith("BM_ServeClosedLoop/"):
        continue
    args = [int(p) for p in b["name"].split("/") if p.isdigit()]
    if len(args) != 3 or "items_per_second" not in b:
        continue
    clients, max_batch, delay_us = args
    record = {
        "clients": clients,
        "max_batch": max_batch,
        "max_delay_us": delay_us,
        "req_per_s": b["items_per_second"],
        "p50_us": b.get("p50_us"),
        "p99_us": b.get("p99_us"),
    }
    results.append(record)
    rps[(clients, max_batch, delay_us)] = b["items_per_second"]

report = {"results": results}
# Headline: throughput win of micro-batching over the batch-1 baseline at
# the saturating client count (the largest swept).
if rps:
    saturating = max(c for c, _, _ in rps)
    batched_cells = {(m, d): v for (c, m, d), v in rps.items()
                     if c == saturating and m > 1}
    base = rps.get((saturating, 1, 0))
    if base and batched_cells:
        best = max(batched_cells, key=batched_cells.get)
        report["saturating_clients"] = saturating
        report["serve_batched_speedup_vs_batch1"] = (
            batched_cells[best] / base)
        print(f"serve: {saturating} clients, max_batch={best[0]} "
              f"delay={best[1]}us vs batch-1: "
              f"{report['serve_batched_speedup_vs_batch1']:.2f}x throughput")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(results)} records)")
PY

python3 - "$TMP/obs.json" "$OBS_OUT" <<'PY'
import json, sys

obs_path, out_path = sys.argv[1], sys.argv[2]

with open(obs_path) as f:
    benchmarks = json.load(f)["benchmarks"]

def to_ns(b):
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return b["real_time"] * scale

results = []
times = {}
for b in benchmarks:
    if b.get("run_type") == "aggregate":
        continue
    # e.g. BM_CounterSharded/threads:8; unsuffixed benches are 1 thread.
    name = b["name"]
    op = name.split("/")[0]
    threads = 1
    if "/threads:" in name:
        threads = int(name.rsplit("/threads:", 1)[1])
    ns = to_ns(b)
    times[(op, threads)] = ns
    results.append({"op": op, "threads": threads, "ns_per_op": ns})

report = {"results": results}
# Headline 1: sharded counter vs the single shared atomic it replaced,
# solo and under contention. (On a single-core runner the contended cell
# never exercises real cache-line ping-pong; the solo ratio is the one
# the acceptance gate reads.)
atomic1 = times.get(("BM_CounterSingleAtomic", 1))
sharded1 = times.get(("BM_CounterSharded", 1))
atomic8 = times.get(("BM_CounterSingleAtomic", 8))
sharded8 = times.get(("BM_CounterSharded", 8))
if atomic1 and sharded1:
    report["sharded_solo_ns_vs_atomic_ns"] = [sharded1, atomic1]
if atomic8 and sharded8:
    report["sharded_contended_speedup_vs_atomic"] = atomic8 / sharded8
# Headline 2: what an instrumented hot path pays when telemetry is off.
gate = times.get(("BM_CounterMacroDisabled", 1))
if gate is not None:
    report["disabled_gate_ns"] = gate

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

if atomic1 and sharded1:
    print(f"obs: sharded counter solo {sharded1:.1f}ns vs atomic "
          f"{atomic1:.1f}ns; contended x8 "
          f"{report.get('sharded_contended_speedup_vs_atomic', 0):.2f}x")
print(f"wrote {out_path} ({len(results)} records)")
PY

python3 - "$TMP/serve.json" "$OPENLOOP_OUT" <<'PY'
import json, sys

serve_path, out_path = sys.argv[1], sys.argv[2]

with open(serve_path) as f:
    benchmarks = json.load(f)["benchmarks"]

ARRIVALS = {0: "poisson", 1: "bursty", 2: "heavytail"}
KNEE_FRACTION = 0.95  # achieved >= 95% of offered counts as keeping up

results = []
for b in benchmarks:
    if b.get("run_type") == "aggregate":
        continue
    # e.g. BM_ServeOpenLoop/16000/64/0/real_time — the numeric segments
    # are {offered rate per second, max_batch, arrival kind}.
    if not b["name"].startswith("BM_ServeOpenLoop/"):
        continue
    args = [int(p) for p in b["name"].split("/") if p.isdigit()]
    if len(args) != 3 or "items_per_second" not in b:
        continue
    rate, max_batch, arrival = args
    results.append({
        "offered_per_s": rate,
        "max_batch": max_batch,
        "arrival": ARRIVALS.get(arrival, str(arrival)),
        "achieved_per_s": b["items_per_second"],
        "p50_us": b.get("p50_us"),
        "p99_us": b.get("p99_us"),
        "p999_us": b.get("p999_us"),
    })

report = {"results": results}

# Saturation knee per configuration: the highest swept offered rate the
# poisson sweep still keeps up with (achieved >= KNEE_FRACTION x offered).
knees = {}
for r in results:
    if r["arrival"] != "poisson":
        continue
    if r["achieved_per_s"] >= KNEE_FRACTION * r["offered_per_s"]:
        key = r["max_batch"]
        knees[key] = max(knees.get(key, 0), r["offered_per_s"])
report["knee_per_s"] = {f"max_batch_{k}": v for k, v in sorted(knees.items())}

# Headline: batch-1 vs the batched fleet at the first swept rate beyond
# the batch-1 knee — the regime micro-batching exists for. Beyond its
# knee batch-1's open-loop backlog grows for the whole run, so its p99.9
# explodes; the batched cells at the same offered rate stay bounded.
batch1_knee = knees.get(1)
batched = sorted(k for k in knees if k > 1)
if batch1_knee is not None and batched:
    cells = {}
    for r in results:
        if r["arrival"] == "poisson":
            cells[(r["offered_per_s"], r["max_batch"])] = r
    beyond = sorted(rate for rate, mb in cells
                    if mb == 1 and rate > batch1_knee)
    if beyond:
        rate = beyond[0]
        base = cells.get((rate, 1))
        best = cells.get((rate, batched[-1]))
        if base and best:
            report["batch1_knee_per_s"] = batch1_knee
            report["beyond_knee_rate_per_s"] = rate
            report["beyond_knee_achieved_ratio"] = (
                best["achieved_per_s"] / base["achieved_per_s"])
            if base.get("p999_us") and best.get("p999_us"):
                report["beyond_knee_p999_ratio"] = (
                    base["p999_us"] / best["p999_us"])
            print(f"open-loop: batch-1 knee {batch1_knee} req/s; at "
                  f"{rate} req/s batched achieves "
                  f"{report['beyond_knee_achieved_ratio']:.2f}x the "
                  f"batch-1 rate, p99.9 "
                  f"{report.get('beyond_knee_p999_ratio', 0):.1f}x lower")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(results)} records)")
PY

python3 - "$TMP/gemm.json" "$TMP/nn.json" "$KERNEL_OUT" <<'PY'
import json, sys

gemm_path, nn_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

def load(path):
    with open(path) as f:
        return json.load(f)["benchmarks"]

def ns(b, field):
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return b[field] * scale

# The kernel-performance report: blocked vs naive NT gemm, the pool-width
# ladder, and the DARL_FAST_MATH tier. Each record carries BOTH real and
# CPU ns: on a single-core runner the pool's worker time is CPU-attributed
# but wall time cannot drop, so only the CPU column shows the schedule's
# work distribution there; real-time speedups are meaningful only on a
# multi-core box.
KERNEL_OPS = {
    "BM_GemmNT",            # blocked NT at the ambient pool width (1)
    "BM_GemmNTNaive",       # pre-blocking dot-product strawman
    "BM_GemmNTThreads",     # blocked NT across pool widths 1/2/4/8
    "BM_GemmNTFastMath",    # DARL_FAST_MATH FMA tier
    "BM_MlpForwardBatch",   # exact batched forward
    "BM_MlpForwardBackwardBatch",
    "BM_MlpForwardBackwardBatchThreads",
    "BM_MlpForwardBackwardPerSampleLoop",
}

results = []
cells = {}
for b in load(gemm_path) + load(nn_path):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]
    parts = name.split("/")
    op = parts[0]
    if op not in KERNEL_OPS:
        continue
    args = [int(p) for p in parts[1:] if p.isdigit()]
    record = {"op": op,
              "real_ns": ns(b, "real_time"),
              "cpu_ns": ns(b, "cpu_time"),
              "flops_per_s": b.get("flops/s")}
    if op.startswith("BM_Gemm"):
        record["n"] = args[0]
        record["threads"] = args[1] if len(args) > 1 else 1
    else:
        record["hidden"], record["batch"] = args[0], args[1]
        record["threads"] = args[2] if len(args) > 2 else 1
    cells[name] = record
    results.append(record)

report = {"results": results}

def real(name):
    r = cells.get(name)
    return r["real_ns"] if r else None

def gflops(name):
    r = cells.get(name)
    f = r.get("flops_per_s") if r else None
    return f / 1e9 if f else None

# Headline 1: single-threaded blocked NT vs the pre-blocking dot-product
# kernel (the tentpole's cache-blocking win, no threading involved).
for n in (64, 128):
    blocked, naive = gflops(f"BM_GemmNT/{n}"), gflops(f"BM_GemmNTNaive/{n}")
    if blocked and naive:
        report[f"nt_blocked_gflops_{n}"] = blocked
        report[f"nt_naive_gflops_{n}"] = naive
        report[f"nt_blocked_vs_naive_{n}"] = blocked / naive

# Headline 2: the pool-width ladder at 128^3, real-time speedup vs the
# same blocked kernel at width 1 plus the CPU-attributed flop rate.
base_r = real("BM_GemmNTThreads/128/1")
if base_r:
    ladder = {}
    for w in (1, 2, 4, 8):
        cell = cells.get(f"BM_GemmNTThreads/128/{w}")
        if cell:
            ladder[f"threads_{w}"] = {
                "real_speedup": base_r / cell["real_ns"],
                "cpu_gflops": (cell["flops_per_s"] or 0) / 1e9,
            }
    report["nt_threads_ladder_128"] = ladder

# Headline 3: DARL_FAST_MATH tier over the default blocked kernel.
for n in (64, 128):
    exact, fast = gflops(f"BM_GemmNT/{n}"), gflops(f"BM_GemmNTFastMath/{n}")
    if exact and fast:
        report[f"fast_math_speedup_{n}"] = fast / exact

# Headline 4: batch-64 fwd+bwd at 4 pool threads vs the per-sample loop —
# the acceptance gate's end-to-end training-path number.
per_sample = real("BM_MlpForwardBackwardPerSampleLoop/64/64")
t4 = real("BM_MlpForwardBackwardBatchThreads/64/64/4")
t1 = real("BM_MlpForwardBackwardBatchThreads/64/64/1")
if per_sample and t4:
    report["fwd_bwd_batch64_4t_speedup_vs_per_sample"] = per_sample / t4
if per_sample and t1:
    report["fwd_bwd_batch64_1t_speedup_vs_per_sample"] = per_sample / t1

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

r = report
if "nt_blocked_vs_naive_128" in r:
    print(f"kernel: blocked NT {r['nt_blocked_gflops_128']:.1f} GFLOP/s vs "
          f"naive {r['nt_naive_gflops_128']:.1f} at 128^3 "
          f"({r['nt_blocked_vs_naive_128']:.2f}x)")
if "fwd_bwd_batch64_4t_speedup_vs_per_sample" in r:
    print(f"kernel: fwd+bwd batch-64 at 4 threads "
          f"{r['fwd_bwd_batch64_4t_speedup_vs_per_sample']:.2f}x per-sample")
print(f"wrote {out_path} ({len(results)} records)")
PY
