#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, docs, release build, every test binary
# once, the suites that race writers again under contention, the repro
# smokes, the benchmark package's tests — all offline.
# Run from anywhere; works with no network and no crates registry.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
out=target/tier1
mkdir -p "$out"

echo "== non-test lines per workspace source file (lines before the first #[cfg(test)])"
# One ratchet: no source file under crates/*/src grows past FILE_MAX but
# the named exceptions, each held at exactly its count. A named file
# that shrinks must lower its entry in the same change, and an entry
# naming a file that no longer exists fails; the facade (db.rs) is held
# below FILE_MAX so that nothing moves back into it.
FILE_MAX=700
declare -A ratchet=(
  [crates/engine/src/db.rs]=196
)
non_test_lines() { awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$1"; }
shopt -s globstar
over=0
for f in "${!ratchet[@]}"; do
  [ -f "$f" ] || { echo "ratchet names $f, which does not exist"; over=1; continue; }
  n=$(non_test_lines "$f")
  [ "$n" -ge "${ratchet[$f]}" ] \
    || { echo "$f has $n non-test lines, below its ratchet of ${ratchet[$f]}: lower the entry"; over=1; }
done
for f in crates/*/src/**/*.rs; do
  n=$(non_test_lines "$f")
  printf "%6d %s\n" "$n" "$f"
  max=${ratchet[$f]:-$FILE_MAX}
  [ "$n" -le "$max" ] || { echo "$f has $n non-test lines, above its ratchet of $max"; over=1; }
done
[ "$over" -eq 0 ] || exit 1

echo "== the loader lends its records' fields: no .clone() in dataset.rs outside its tests"
if awk '/#\[cfg\(test\)\]/{exit} /\.clone\(\)/{print FILENAME ":" FNR ": " $0; found=1} END{exit !found}' \
  crates/core/src/dataset.rs; then
  echo "crates/core/src/dataset.rs clones in its non-test code"
  exit 1
fi

echo "== the predicates' SQL names are spelled once: \"ST_CROSSES\" on one non-test line, in topo"
crosses=$(for f in crates/*/src/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /"ST_CROSSES"/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ "$(echo "$crosses" | grep -c .)" -ne 1 ] || [[ "$crosses" != crates/topo/src/predicates.rs:* ]]; then
  echo "\"ST_CROSSES\" must appear once outside tests, in crates/topo/src/predicates.rs; found:"
  echo "$crosses"
  exit 1
fi

echo "== the envelope rule is written once: \"== PredicateKind::Disjoint\" on one non-test line, in topo"
# PredicateKind::on_disjoint_envelopes (crates/topo/src/predicates.rs)
# spells it: topo::holds, topo::evaluate, the SQL layer's envelope
# predicates, its spatial filter and Func::is_index_filter all ask it,
# so a scan and an index probe cannot drift apart again.
rule=$(for f in crates/*/src/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /== PredicateKind::Disjoint/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ "$(echo "$rule" | grep -c .)" -ne 1 ] || [[ "$rule" != crates/topo/src/* ]]; then
  echo "the envelope rule must be spelled once outside tests, in crates/topo/src; found:"
  echo "$rule"
  exit 1
fi

echo "== SQL functions are resolved once, at bind: no function name on a non-test line of sqlmini outside functions.rs"
# Func::from_name (crates/sqlmini/src/functions.rs) is the one place a
# function name is case-folded; the binder stores the Func it returns,
# and the planner and the executor ask that Func, never the name.
names=$(for f in crates/sqlmini/src/**/*.rs; do
  [ "$f" = crates/sqlmini/src/functions.rs ] && continue
  awk '/#\[cfg\(test\)\]/{exit} /"ST_|"MBR|eq_ignore_ascii_case\("ST_/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$names" ]; then
  echo "resolve a function name with Func::from_name and ask the Func; found:"
  echo "$names"
  exit 1
fi

echo "== one schema-change path: no .checkpoint() call or WalRecord::Create* outside durable.rs's non-test lines"
# A schema change is cut into the snapshot by SpatialDb::change_schema;
# the log holds row changes only, so nothing else re-cuts or logs one.
ddl=$(for f in crates/*/src/**/*.rs; do
  [ "$f" = crates/engine/src/durable.rs ] && continue
  awk '/#\[cfg\(test\)\]/{exit} /\.checkpoint\(\)|WalRecord::Create/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$ddl" ]; then
  echo "a schema change goes through SpatialDb::change_schema (durable.rs); found:"
  echo "$ddl"
  exit 1
fi

echo "== one stored row encoding: no transcoder, and no canonical bytes stored by the heap, the pool or the engine"
# Pages, spill files, WAL insert records and snapshot page entries all
# hold the stored codec's bytes (storage::compact), so nothing converts
# between two stored forms; Value::encode_row is the canonical output
# form (result digests, the benchmark's byte counts) and is never stored.
transcoder=$(for f in crates/*/src/**/*.rs src/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /compact_tuple|expand_tuple|map_tuples/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$transcoder" ]; then
  echo "a row has one stored encoding, so no transcoder is left; found:"
  echo "$transcoder"
  exit 1
fi
canonical=$(for f in crates/storage/src/heap*.rs crates/storage/src/heap/**/*.rs \
  crates/storage/src/pool.rs crates/engine/src/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /Value::encode_row/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$canonical" ]; then
  echo "the heap, the pool and the engine store Value::store_row's bytes, never the canonical form; found:"
  echo "$canonical"
  exit 1
fi

echo "== a frame keeps a decoded row only when a read decoded it: no keep_row or decode_row in the heap's non-test lines"
# The pool's frame (pool.rs) is the one place a row is decoded: behind
# HeapFile::get and get_many, PageWrite::decode keeps what it decodes
# and PageRead::decode (get_many without keep) hands it over kept by
# nothing. An insert, WAL replay
# (place_tuple) and snapshot restore (restore_page, which checks each
# tuple in place with Schema::check_tuple) store bytes and keep no row.
kept=$(for f in crates/storage/src/heap*.rs crates/storage/src/heap/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /keep_row|decode_row/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$kept" ]; then
  echo "the heap keeps no row a read did not decode; found:"
  echo "$kept"
  exit 1
fi

echo "== a stored tuple is read one way on the way in: no store_row( in durable.rs, no take_row( in engine, envelope_key in seeds.rs alone"
# WAL replay hands the log's bytes to HeapFile::place_tuple, which checks
# them in place with Schema::check_tuple as snapshot restore does, so
# nothing decodes a logged row or encodes it again; and every index entry
# comes off IndexSeeds::add's one walk of a tuple, so the key a spatial
# index holds a geometry under is spelled in seeds.rs alone.
twice=$(
  awk '/#\[cfg\(test\)\]/{exit} /store_row\(/{print FILENAME ":" FNR ": " $0}' crates/engine/src/durable.rs
  for f in crates/engine/src/**/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} /take_row\(/{print FILENAME ":" FNR ": " $0}' "$f"
  done
  for f in crates/*/src/**/*.rs; do
    [ "$f" = crates/engine/src/seeds.rs ] && continue
    awk '/#\[cfg\(test\)\]/{exit} /(^|[^A-Za-z0-9_])envelope_key([^A-Za-z0-9_]|$)/{print FILENAME ":" FNR ": " $0}' "$f"
  done
)
if [ -n "$twice" ]; then
  echo "replay places the log's bytes as they are, and index entries come off IndexSeeds::add; found:"
  echo "$twice"
  exit 1
fi

echo "== a heap read's error is passed on: no .ok() after a heap. call on a non-test line of engine or sqlmini"
# COUNT(*) over a filter the stored rows decide reads nothing but what
# the filter reads, so a storage error turned into None there would be
# a wrong count, not a fallback.
swallowed=$(for f in crates/engine/src/**/*.rs crates/sqlmini/src/**/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /heap\..*\.ok\(\)/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$swallowed" ]; then
  echo "return the heap's error instead of discarding it; found:"
  echo "$swallowed"
  exit 1
fi

echo "== one victim path: no row_ids_visible( or .heap.get( on a non-test line of statement.rs"
# An UPDATE or DELETE finds its rows as the SELECT under its WHERE does
# (exec::matching_rows: the access path, the filters the stored rows
# decide, the rest over rows read without being kept), never by
# decoding every visible row of its table.
victims=$(awk '/#\[cfg\(test\)\]/{exit} /row_ids_visible\(|\.heap\.get\(/{print FILENAME ":" FNR ": " $0}' \
  crates/engine/src/statement.rs)
if [ -n "$victims" ]; then
  echo "a write finds its rows through exec::matching_rows; found:"
  echo "$victims"
  exit 1
fi

echo "== one way out of the indexes: no remove_index_entries or [(id, on a non-test line of txn.rs or durable.rs"
# A statement's deaths leave the indexes as one run through
# Table::index_tuples, as its rows went in: vacuum takes a queued
# statement's ids whole (Table::unindex), replay a frame's run of
# records, rollback the transaction's inserts. Nothing hands the indexes
# one row at a time.
one_row=$(for f in crates/engine/src/txn.rs crates/engine/src/durable.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /remove_index_entries|\[\(id,/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$one_row" ]; then
  echo "index entries leave as a run, through Table::unindex or Table::index_tuples; found:"
  echo "$one_row"
  exit 1
fi

echo "== the docs name what they mean, not a roadmap item (its numbers change at every re-anchor)"
if grep -nE 'ROADMAP (item|[0-9])' DESIGN.md README.md; then
  echo "DESIGN.md or README.md points at a roadmap item: name the thing instead"
  exit 1
fi

echo "== randomized tests draw from tests/common::test_rng: no file under tests/ declares a PRNG"
if grep -rnE 'struct (Rng|Lcg)\(' tests/; then
  echo "a file under tests/ declares its own PRNG: draw from common::test_rng instead"
  exit 1
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings (all targets)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (no intra-doc link left pointing at a deleted item)"
# Private items too: a module's own docs link mostly to private items,
# and a link that rustdoc never renders is a link nothing checks.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --document-private-items

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test -q (workspace: every test binary, once)"
cargo test -q --workspace --offline
grep -q '#!\[forbid(unsafe_code)\]' crates/obs/src/lib.rs \
  || { echo "crates/obs must forbid unsafe_code"; exit 1; }

echo "== snapshot fault sweeps over every byte and every bit (--features slow-tests)"
# The default run sweeps every 7th offset of the sample image; this one
# truncates it at every offset and flips each of its bits.
sweep_start=$SECONDS
cargo test -q --offline --features slow-tests --test durability -- \
  every_strict_prefix_of_a_snapshot_is_rejected every_bit_flip_in_a_snapshot_is_rejected
echo "snapshot fault sweeps: $((SECONDS - sweep_start)) s"

echo "== suites that race writers, under contention (nproc + 1 busy loops, 0 failures)"
# A race that needs a busy host never shows on a quiet one. interleaving
# and concurrency run whole, 50 times each. Of durability only the four
# tests that race sessions against a snapshot cut (the durability ->
# writer lock order) run, 20 times: beside the busy loops one run of the
# pair that races DML takes 4-6 s on the 2-vCPU host, so 50 would add
# about four minutes and 20 add under two; the attach-beside-DROP-TABLE
# test and the insert_rows-beside-checkpoints test add about a second a
# run each.
racing="concurrent_inserts_never_produce_an_unloadable_snapshot \
a_snapshot_beside_insert_delete_churn_is_a_whole_statement_image \
set_durability_beside_create_drop_table_churn \
insert_rows_beside_checkpoints_reopens_to_whole_batches"
suites=$(cargo test --no-run --offline --test interleaving --test concurrency --test durability 2>&1 \
  | sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
[ "$(echo "$suites" | wc -l)" -eq 3 ] || { echo "expected three test binaries, got: $suites"; exit 1; }
spinners=()
trap 'kill "${spinners[@]}" 2>/dev/null || true' EXIT
for _ in $(seq $(($(nproc) + 1))); do
  (while :; do :; done) &
  spinners+=($!)
done
for suite in $suites; do
  case "$(basename "$suite")" in
    durability-*) filter=$racing; expect="ok. 4 passed"; runs=20 ;;
    *) filter=""; expect="ok. "; runs=50 ;;
  esac
  failures=0
  for run in $(seq "$runs"); do
    # $filter unquoted: one test name per word.
    { "$suite" -q $filter > "$out/contention.txt" 2>&1 && grep -q "$expect" "$out/contention.txt"; } \
      || { failures=$((failures + 1)); cp "$out/contention.txt" "$out/contention_failed_$run.txt"; }
  done
  echo "$(basename "$suite"): $failures failures in $runs runs"
  [ "$failures" -eq 0 ] || { echo "see $out/contention_failed_*.txt"; exit 1; }
done
kill "${spinners[@]}"
wait "${spinners[@]}" 2>/dev/null || true
trap - EXIT

echo "== repro --trace smoke (every micro query emits a trace with its unaccounted remainder)"
cargo run --release --offline -p jackpine-bench --bin repro -- \
  --scale 0.01 --quick --trace t1 > "$out/trace.txt"
grep -q 'stage plan' "$out/trace.txt" \
  || { echo "repro --trace emitted no stage lines"; exit 1; }
grep -q 'unaccounted' "$out/trace.txt" \
  || { echo "repro --trace emitted no unaccounted line"; exit 1; }

echo "== benchmark package (unit tests + smoke run of all four workloads against the engine)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "tier-1 green"
