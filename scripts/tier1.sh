#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite — all offline.
# Run from anywhere; works with no network and no crates registry.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings (all targets)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (no intra-doc link left pointing at a deleted item)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test -q (workspace)"
cargo test -q --workspace --offline

echo "== durability gate (fault-injection + truncation fuzz, fast mode)"
cargo test -q -p jackpine --test durability --offline

echo "== observability gate (golden traces + metrics invariants)"
cargo test -q -p jackpine --test observability --offline
grep -q '#!\[forbid(unsafe_code)\]' crates/obs/src/lib.rs \
  || { echo "crates/obs must forbid unsafe_code"; exit 1; }

echo "== system catalog gate (golden jp_* selects through the planner)"
cargo test -q -p jackpine --test syscat --offline

echo "== flight recorder gate (ring concurrency + fingerprint properties)"
cargo test -q -p jackpine --test flight_recorder --offline
cargo test -q -p jackpine --test proptest_fingerprint --offline

echo "== prepared-geometry gate (prepared == naive DE-9IM equivalence corpus)"
cargo test -q -p jackpine --test prepared_equivalence --offline

echo "== vectorized-executor gate (batch filter == generic evaluator, across batch and morsel boundaries)"
cargo test -q -p jackpine --test vectorized_equivalence --offline

echo "== interleaving gate (MVCC snapshot isolation + group-commit accounting)"
cargo test -q -p jackpine --test interleaving --offline
cargo test -q -p jackpine --test concurrency --offline

echo "== out-of-core gate (paged heap == unbounded, all pool sizes and worker counts; a bounded pool bounds pages and decoded rows)"
cargo test -q -p jackpine --test pool_equivalence --offline
cargo test -q -p jackpine --test pool_memory --offline

echo "== benchmark package (unit tests + smoke run of all four workloads against the engine)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== repro --trace smoke (every micro query emits a trace)"
cargo run --release --offline -p jackpine-bench --bin repro -- \
  --scale 0.01 --quick --trace --metrics-json /tmp/jackpine_metrics.json \
  --trace-export /tmp/jackpine_chrome_trace.json \
  --prom /tmp/jackpine_metrics.prom --slow-ms 0 t1 \
  > /tmp/jackpine_trace.txt
grep -q 'stage plan' /tmp/jackpine_trace.txt \
  || { echo "repro --trace emitted no stage lines"; exit 1; }
python3 - <<'EOF' || { echo "--metrics-json wrote invalid JSON"; exit 1; }
import json
m = json.load(open('/tmp/jackpine_metrics.json'))
assert m["schema_version"] == 2, f"metrics schema_version {m.get('schema_version')} != 2"
assert m["engines"], "metrics-json has no engines"
EOF

echo "== prometheus export gate (repro --prom output passes the in-tree lint)"
cargo run --release --offline -p jackpine-bench --bin prom-lint -- \
  /tmp/jackpine_metrics.prom \
  || { echo "--prom output failed prometheus lint"; exit 1; }

echo "== trace export gate (Chrome trace JSON, >=1 span per query)"
python3 - <<'EOF' || { echo "--trace-export wrote an invalid Chrome trace"; exit 1; }
import json
t = json.load(open('/tmp/jackpine_chrome_trace.json'))
events = t["traceEvents"]
queries = [e for e in events if e.get("cat") == "query" and e.get("ph") == "X"]
stages = [e for e in events if e.get("cat") == "stage" and e.get("ph") == "X"]
assert queries, "no query spans exported"
assert len(stages) >= len(queries), f"{len(stages)} stage spans < {len(queries)} query spans"
assert all(e["dur"] >= 1 for e in queries + stages), "zero-duration span"
EOF

echo "== bench-diff gate (self-comparison is clean, checked-in runs compare)"
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_1.json BENCH_1.json > /tmp/jackpine_bench_diff.txt
grep -q ' 0 regressions' /tmp/jackpine_bench_diff.txt \
  || { echo "bench-diff self-comparison reported regressions"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_1.json BENCH_4.json > /dev/null \
  || { echo "bench-diff BENCH_1 vs BENCH_4 failed"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_4.json BENCH_5.json > /dev/null \
  || { echo "bench-diff BENCH_4 vs BENCH_5 failed"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_5.json BENCH_6.json > /dev/null \
  || { echo "bench-diff BENCH_5 vs BENCH_6 failed"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_6.json BENCH_7.json > /dev/null \
  || { echo "bench-diff BENCH_6 vs BENCH_7 failed"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_7R.json BENCH_8.json > /dev/null \
  || { echo "bench-diff BENCH_7R vs BENCH_8 failed"; exit 1; }
cargo run --release --offline -p jackpine-bench --bin bench-diff -- \
  BENCH_8.json BENCH_9.json > /dev/null \
  || { echo "bench-diff BENCH_8 vs BENCH_9 failed"; exit 1; }

echo "tier-1 green"
