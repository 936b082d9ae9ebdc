#!/usr/bin/env bash
# Validates BENCH_*.json files against the kwsc-bench schema
# (obs::JsonExporter, schema_version 1; field reference in EXPERIMENTS.md).
# Usage: tools/check_bench_json.sh BENCH_foo.json [BENCH_bar.json ...]
# Exits nonzero on the first file that fails validation. Requires python3
# (stdlib only); warns and skips when python3 is absent, mirroring
# run_tidy.sh / check_format.sh.
set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 BENCH_<name>.json [...]" >&2
  exit 2
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_bench_json: python3 not found; skipping schema validation" >&2
  exit 0
fi

status=0
for file in "$@"; do
  if ! python3 - "$file" <<'PYEOF'
import json
import sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"{path}: not readable as JSON: {e}")

def fail(msg):
    sys.exit(f"{path}: {msg}")

# Envelope.
if doc.get("schema") != "kwsc-bench":
    fail(f'schema must be "kwsc-bench", got {doc.get("schema")!r}')
if doc.get("schema_version") != 1:
    fail(f"schema_version must be 1, got {doc.get('schema_version')!r}")
if not isinstance(doc.get("name"), str) or not doc["name"]:
    fail("name must be a non-empty string")
for key, kind in (("points", list), ("exponents", list),
                  ("counters", dict), ("gauges", dict),
                  ("histograms", list)):
    if not isinstance(doc.get(key), kind):
        fail(f"{key} must be a {kind.__name__}")

# Points: flat string->number|null rows.
for i, point in enumerate(doc["points"]):
    if not isinstance(point, dict):
        fail(f"points[{i}] must be an object")
    for k, v in point.items():
        if v is not None and not isinstance(v, (int, float)):
            fail(f"points[{i}].{k} must be a number or null")

# Exponents.
for i, exp in enumerate(doc["exponents"]):
    for field in ("label", "measured", "expected"):
        if field not in exp:
            fail(f"exponents[{i}] missing {field}")

# Counters are non-negative integers.
for k, v in doc["counters"].items():
    if not isinstance(v, int) or v < 0:
        fail(f"counter {k} must be a non-negative integer, got {v!r}")

# Histograms: summary stats + quantiles + consistent buckets.
for i, h in enumerate(doc["histograms"]):
    where = f"histograms[{i}]"
    for field in ("name", "unit", "count", "sum", "min", "max", "mean",
                  "p50", "p90", "p99", "buckets"):
        if field not in h:
            fail(f"{where} missing {field}")
    if h["count"] < 0:
        fail(f"{where}.count negative")
    if sum(b["n"] for b in h["buckets"]) != h["count"]:
        fail(f"{where}: bucket counts do not sum to count")
    if h["count"] > 0:
        if not h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
            fail(f"{where}: quantiles not monotone "
                 f"(min={h['min']} p50={h['p50']} p90={h['p90']} "
                 f"p99={h['p99']} max={h['max']})")
    for j, b in enumerate(h["buckets"]):
        if not (isinstance(b.get("n"), int) and b["n"] > 0):
            fail(f"{where}.buckets[{j}]: empty or malformed bucket emitted")
        if not b["lo"] <= b["hi"]:
            fail(f"{where}.buckets[{j}]: lo > hi")

# bench_load reports (name == "load") carry the flat load path; enforce the
# fields the space<->latency curve reads (built vs flat-loaded query time).
if doc["name"] == "load":
    required = ("N", "mmap_load_ms", "mmap_rss_bytes", "flat_file_bytes",
                "built_query_us", "flat_query_us")
    if not doc["points"]:
        fail("load report has no sweep points")
    for i, point in enumerate(doc["points"]):
        for field in required:
            if field not in point:
                fail(f"points[{i}] missing {field}")
        if point["N"] is None or point["N"] <= 0:
            fail(f"points[{i}].N must be positive")
        if point["flat_file_bytes"] is None or point["flat_file_bytes"] <= 0:
            fail(f"points[{i}].flat_file_bytes must be positive")
    for gauge in ("flat.bytes_mapped", "flat.load_micros", "flat.used_mmap"):
        if gauge not in doc["gauges"]:
            fail(f"load report missing gauge {gauge}")

# bench_shard reports (name == "shard") carry the shared-nothing scaling
# sweep; enforce the determinism flag, the scaling fields, and the
# selection-vs-naive byte comparison the merge protocol claims.
if doc["name"] == "shard":
    scaling = [p for p in doc["points"] if "qps_model" in p]
    if not scaling:
        fail("shard report has no S-scaling points")
    required = ("N", "S", "model_us", "qps_model", "speedup_model",
                "top_t", "bytes_naive", "bytes_selection", "identical")
    for i, point in enumerate(scaling):
        for field in required:
            if field not in point:
                fail(f"scaling point {i} missing {field}")
        if point["S"] is None or point["S"] < 1:
            fail(f"scaling point {i}.S must be >= 1")
        if point["identical"] != 1:
            fail(f"scaling point {i} (S={point['S']}): sharded rows "
                 "diverged from the unsharded engine")
        if point["speedup_model"] is None or point["speedup_model"] <= 0:
            fail(f"scaling point {i}.speedup_model must be positive")
        if not point["bytes_selection"] < point["bytes_naive"]:
            fail(f"scaling point {i} (S={point['S']}): selection merge "
                 f"shipped {point['bytes_selection']} bytes, not strictly "
                 f"fewer than naive {point['bytes_naive']}")
    for counter in ("serve.bytes_shipped", "serve.bytes_naive",
                    "serve.shard_fanout", "serve.queries"):
        if counter not in doc["counters"]:
            fail(f"shard report missing counter {counter}")
    if "speedup_s4" not in doc["gauges"]:
        fail("shard report missing gauge speedup_s4")

# bench_update reports (name == "update") carry the batch-dynamic update
# path; enforce the rebuild-baseline comparison, the exactness flag, and the
# during-merge latency fields the p99-inflation claim reads.
if doc["name"] == "update":
    throughput = [p for p in doc["points"] if "speedup_vs_rebuild" in p]
    if not throughput:
        fail("update report has no throughput point")
    required = ("N", "batch", "inserts", "deletes", "queries", "dynamic_us",
                "rebuild_us", "dynamic_ops_per_s", "rebuild_ops_per_s",
                "speedup_vs_rebuild", "identical")
    for i, point in enumerate(throughput):
        for field in required:
            if field not in point:
                fail(f"throughput point {i} missing {field}")
        if point["identical"] != 1:
            fail(f"throughput point {i}: dynamic rows diverged from the "
                 "rebuild-from-scratch baseline")
        if point["speedup_vs_rebuild"] is None or \
                point["speedup_vs_rebuild"] <= 1:
            fail(f"throughput point {i}: mixed throughput did not beat the "
                 f"rebuild baseline "
                 f"(speedup={point['speedup_vs_rebuild']!r})")
    latency = [p for p in doc["points"] if "p99_ratio" in p]
    if not latency:
        fail("update report has no merge-latency point")
    for i, point in enumerate(latency):
        for field in ("merge_samples", "p99_quiescent_us", "p99_merge_us",
                      "p99_ratio"):
            if field not in point:
                fail(f"merge-latency point {i} missing {field}")
        if point["merge_samples"] is None or point["merge_samples"] < 1:
            fail(f"merge-latency point {i}: no query completed during a "
                 "background merge")
        if point["p99_ratio"] is None or not 0 < point["p99_ratio"] <= 64:
            fail(f"merge-latency point {i}: during-merge p99 inflation "
                 f"unbounded (ratio={point['p99_ratio']!r})")
    hist_names = {h["name"] for h in doc["histograms"]}
    for hist in ("update.query.quiescent", "update.query.during_merge"):
        if hist not in hist_names:
            fail(f"update report missing histogram {hist}")
    for counter in ("update.inserts", "update.deletes", "update.queries"):
        if counter not in doc["counters"]:
            fail(f"update report missing counter {counter}")
    for gauge in ("speedup_vs_rebuild", "p99_merge_ratio"):
        if gauge not in doc["gauges"]:
            fail(f"update report missing gauge {gauge}")

# The keyword-signature prefilter passes every matching document, so its
# pass rate bounds the exact one (bench_throughput).
gauges = doc["gauges"]
if "verify.signature_pass" in gauges or "verify.exact_pass" in gauges:
    sig = gauges.get("verify.signature_pass")
    exact = gauges.get("verify.exact_pass")
    if not (isinstance(sig, (int, float)) and isinstance(exact, (int, float))
            and 0 <= exact <= sig <= 1):
        fail(f"signature pass rates must satisfy 0 <= exact <= signature "
             f"<= 1 (signature={sig!r}, exact={exact!r})")

print(f"{path}: OK "
      f"({len(doc['points'])} points, {len(doc['histograms'])} histograms, "
      f"{len(doc['counters'])} counters)")
PYEOF
  then
    status=1
  fi
done
exit "$status"
