#!/usr/bin/env bash
# Offline CI gate: build, full test suite, lint wall, and a smoke-run of
# the reproduction binary. No network access required at any step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> kernel reference-equivalence, guard-index, lean-sweep + allocation-free suites"
cargo test -q --offline -p ntc-netlist --lib truth_table_agrees_with_eval
cargo test -q --offline -p ntc-netlist --lib a_mask_grows_to_three_selects_and_no_further
cargo test -q --offline -p ntc-netlist --lib three_select_lines_guard_the_adder_and_the_right_shifter
cargo test -q --offline -p ntc-timing reference:: --lib
cargo test -q --offline -p ntc-timing --lib lean_sweep_
cargo test -q --offline -p ntc-timing --test alloc_free
cargo test -q --offline -p ntc-timing --test proptest_timing \
  lean_minmax_matches_full_path_on_gated_netlists
cargo test -q --offline -p ntc-timing --test proptest_timing \
  a_cut_wave_past_the_caps_exact_prefix_reruns_the_pair

echo "==> cargo check --offline -p ntc-bench --features bench --benches"
cargo check --offline -p ntc-bench --features bench --benches

echo "==> examples: each runs to exit 0; choke_buffers prints its golden"
# `cargo test` compiles the examples but runs none of them.
cargo build --release --offline --examples
for example in chip_lottery choke_buffers quickstart scheme_shootout; do
  "./target/release/examples/$example" > "target/example-$example.txt"
done
cmp target/example-choke_buffers.txt tests/golden/examples/choke_buffers.txt

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> benchmark binaries (grid-op, layer-trace) build against the current crates"
# The benchmark's binaries live in a workspace of their own and reach into
# internal APIs (layer-trace); an API change that breaks them must fail
# here, not on the next benchmark run.
CARGO_TARGET_DIR=target/perfbench-driver cargo build --release --offline --locked \
  --manifest-path perfbench/driver/Cargo.toml --bins

echo "==> benchmark harness unit tests (perfbench/test_*.py)"
if command -v python3 >/dev/null 2>&1; then
  PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'
else
  echo "note: python3 not found; skipping the benchmark harness unit tests"
fi

echo "==> repro --list covers all three registries (experiments + schemes + vdd)"
./target/release/repro --list > target/repro-ci-list.txt
# Spot-gate the registries: the newest experiment id, the scheme roster,
# and the operating-point roster must appear verbatim (the exhaustive
# equality check lives in the repro_cli integration test; this catches a
# stale release binary).
grep -qx 'fig4.12' target/repro-ci-list.txt
grep -qx 'abl.adder' target/repro-ci-list.txt
grep -qx 'scheme dcs-icslt (DCS-ICSLT)' target/repro-ci-list.txt
grep -qx 'scheme trident (Trident)' target/repro-ci-list.txt
grep -qx 'scheme ocst (OCST)' target/repro-ci-list.txt
grep -qx 'scheme dvs (DVS)' target/repro-ci-list.txt
grep -qx 'scheme harden-choke (Harden-choke)' target/repro-ci-list.txt
grep -qx 'vdd v0.45 (0.45 V)' target/repro-ci-list.txt
grep -qx 'vdd v0.80 (0.80 V)' target/repro-ci-list.txt

echo "==> cargo doc --offline --no-deps (rustdoc and cargo warnings are errors)"
# Cargo's own warnings (an output filename collision, say) do not fail the
# build, so the step fails on any warning line it prints.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace 2> target/ci-doc.log \
  || { cat target/ci-doc.log; exit 1; }
if grep -q '^warning' target/ci-doc.log; then
  cat target/ci-doc.log
  echo "FAIL: cargo doc printed a warning"; exit 1
fi

echo "==> repro --fast fig3.4"
./target/release/repro --fast fig3.4

echo "==> repro --fast --format json fig3.4 (manifest + JSON output)"
rm -rf target/repro-ci
./target/release/repro --fast --format json --out target/repro-ci fig3.4 \
  > target/repro-ci-tables.jsonl
test -s target/repro-ci/manifest.json
test -s target/repro-ci/fig3_4.csv
# The manifest and every stdout table document must parse as JSON.
if command -v jq >/dev/null 2>&1; then
  jq -e '.schema == "ntc-repro-manifest/9" and .failed == 0 and (.records | length) == 1' \
    target/repro-ci/manifest.json >/dev/null
  jq -e . target/repro-ci-tables.jsonl >/dev/null
elif command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
m = json.load(open("target/repro-ci/manifest.json"))
assert m["schema"] == "ntc-repro-manifest/9" and m["failed"] == 0 and len(m["records"]) == 1, m
for line in open("target/repro-ci-tables.jsonl"):
    if line.strip():
        json.loads(line)
EOF
else
  echo "note: neither jq nor python3 found; relying on repro's built-in manifest self-validation"
fi

echo "==> full-scale fig3.10 and fig3.3: byte-identical to their goldens, same oracle counts"
# The paper-scale grid exercises the exact kernel on all 32,800 first
# pairs; its CSV and oracle counters must not move with kernel changes.
# The paper-scale choke study's delay levels (fig3.3) come from the lean
# sweep's max arrival on 10,560 pairs (11 ops x 40 vectors x 24 chips),
# which no kernel change may move.
rm -rf target/repro-ci-full
./target/release/repro --full --jobs 2 --no-cache --out target/repro-ci-full \
  fig3.10 fig3.3 >/dev/null
cmp target/repro-ci-full/fig3_10.csv tests/golden/full/fig3_10.csv
cmp target/repro-ci-full/fig3_3.csv tests/golden/full/fig3_3.csv
grep -q '"gate_sims":32800,"local_hits":29967170' target/repro-ci-full/manifest.json

echo "==> shared delay table: --jobs 2 reports the --jobs 1 oracle counters"
# Each distinct key of a chip's shared table is simulated once however
# many sweep workers miss it together, so every record's oracle object
# is the same at any thread count. These four experiments share chips
# across grid cells, so parallel workers do meet on the same keys.
rm -rf target/repro-ci-j1 target/repro-ci-j2
for j in 1 2; do
  ./target/release/repro --fast --no-cache --jobs "$j" --out "target/repro-ci-j$j" \
    fig4.8 abl.tags abl.replacement abl.window >/dev/null
done
if command -v jq >/dev/null 2>&1; then
  oracles() { jq -c '[.records[] | {id, oracle}]' "$1"; }
  test "$(oracles target/repro-ci-j1/manifest.json)" = \
    "$(oracles target/repro-ci-j2/manifest.json)"
elif command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
def oracles(j):
    m = json.load(open(f"target/repro-ci-j{j}/manifest.json"))
    return [(r["id"], r["oracle"]) for r in m["records"]]
assert oracles(1) == oracles(2), (oracles(1), oracles(2))
EOF
else
  echo "note: neither jq nor python3 found; skipping the oracle counter comparison"
fi

echo "==> grid cache: two runs, one cache dir, byte-identical CSVs + disk hits"
rm -rf target/repro-ci-cache target/repro-ci-cold target/repro-ci-warm
./target/release/repro --fast --cache-dir target/repro-ci-cache \
  --out target/repro-ci-cold fig3.8 >/dev/null
./target/release/repro --fast --cache-dir target/repro-ci-cache \
  --out target/repro-ci-warm fig3.8 >/dev/null
cmp target/repro-ci-cold/fig3_8.csv target/repro-ci-warm/fig3_8.csv
# The cold manifest must record only misses; the warm one at least one
# disk hit and zero misses (the grep is shape-stable: counters are
# emitted in a fixed key order by CacheStats::fields()).
grep -q '"disk_hits":0,' target/repro-ci-cold/manifest.json
grep -Eq '"disk_hits":[1-9][0-9]*,"disk_misses":0,' target/repro-ci-warm/manifest.json

echo "==> grid cache: corrupt artifact is quarantined, run still green"
artifact=$(ls target/repro-ci-cache/*.grid | head -n1)
# Truncate the artifact to half its size: the trailing checksum is gone,
# so the load must quarantine and recompute.
size=$(wc -c < "$artifact")
head -c "$((size / 2))" "$artifact" > "$artifact.tmp"
mv "$artifact.tmp" "$artifact"
rm -rf target/repro-ci-evict
./target/release/repro --fast --cache-dir target/repro-ci-cache \
  --out target/repro-ci-evict fig3.8 2>/dev/null >/dev/null
cmp target/repro-ci-cold/fig3_8.csv target/repro-ci-evict/fig3_8.csv
grep -Eq '"corrupt_evictions":[1-9][0-9]*,' target/repro-ci-evict/manifest.json
ls target/repro-ci-cache/*.grid.corrupt >/dev/null

echo "==> voltage axis: 4-point grid, cached byte-identically, old schema ignored"
# A four-point --vdd sweep through a fresh cache dir, twice: the cold and
# the warm CSV must both equal the pinned 4-point golden (every row
# labelled `bench @ vX.XX`, every value), the warm one from the disk tier,
# and the manifest must count cells per point.
rm -rf target/repro-ci-vdd-cache target/repro-ci-vdd-cold target/repro-ci-vdd-warm
./target/release/repro --fast --vdd ntc,v0.55,v0.65,stc \
  --cache-dir target/repro-ci-vdd-cache --out target/repro-ci-vdd-cold \
  fig3.10 >/dev/null
cmp target/repro-ci-vdd-cold/fig3_10.csv tests/golden/vdd/fig3_10.csv
grep -q '@ v0.55' target/repro-ci-vdd-cold/fig3_10.csv
grep -q '@ v0.80' target/repro-ci-vdd-cold/fig3_10.csv
grep -q '"voltages":{"v0.45":' target/repro-ci-vdd-cold/manifest.json
# An artifact written under any older cache schema lives at a filename the
# current code never computes: it must be *ignored* — no quarantine, no
# eviction, bytes untouched — while the real artifacts hit.
stale=target/repro-ci-vdd-cache/00000000000000000000000000000000.grid
printf 'NTCGRID1 written by an older schema' > "$stale"
./target/release/repro --fast --vdd ntc,v0.55,v0.65,stc \
  --cache-dir target/repro-ci-vdd-cache --out target/repro-ci-vdd-warm \
  fig3.10 >/dev/null
cmp target/repro-ci-vdd-cold/fig3_10.csv target/repro-ci-vdd-warm/fig3_10.csv
cmp target/repro-ci-vdd-warm/fig3_10.csv tests/golden/vdd/fig3_10.csv
grep -Eq '"disk_hits":[1-9][0-9]*,"disk_misses":0,' target/repro-ci-vdd-warm/manifest.json
grep -q '"corrupt_evictions":0,' target/repro-ci-vdd-warm/manifest.json
test "$(cat "$stale")" = 'NTCGRID1 written by an older schema'
if ls target/repro-ci-vdd-cache/*.corrupt >/dev/null 2>&1; then
  echo "FAIL: old-schema artifact must be ignored, not quarantined"; exit 1
fi

echo "==> repro --resume finishes a suite a failed experiment cut short"
# fig3.8 replays from an empty trace directory and fails, naming its
# first missing trace (one worker, so the first cell's: bzip's); fig3.4
# reads no trace and passes. Once the traces are recorded, --resume
# carries fig3.4 forward and computes fig3.8.
rm -rf target/repro-ci-resume target/repro-ci-resume-traces
mkdir -p target/repro-ci-resume-traces
if ./target/release/repro --fast --jobs 1 --trace-dir target/repro-ci-resume-traces \
  --out target/repro-ci-resume fig3.4 fig3.8 >/dev/null 2>&1; then
  echo "FAIL: a replay from an empty trace directory must exit nonzero"; exit 1
fi
grep -q 'repro-ci-resume-traces/bzip-s7-c60000.ntt' target/repro-ci-resume/manifest.json
./target/release/ntc-workload record --dir target/repro-ci-resume-traces >/dev/null
./target/release/repro --fast --resume --trace-dir target/repro-ci-resume-traces \
  --out target/repro-ci-resume fig3.4 fig3.8 >/dev/null
grep -q '"resumed":true,' target/repro-ci-resume/manifest.json
grep -q '"failed":0,' target/repro-ci-resume/manifest.json

echo "==> trace record/replay: full replay reproduces the generator CSV byte-for-byte"
# `ntc-workload record` is the one writer of .ntt files; its defaults
# (trace seed 7, 60,000 cycles) are fast fig3.8's cells. Two cold
# processes, no --cache-dir: plain generator, then replay of the
# recorded files. The CSVs must be byte-identical — the replay gate is
# the acceptance criterion for the binary trace format.
rm -rf target/repro-ci-traces target/repro-ci-trace-gen target/repro-ci-trace-rep
./target/release/ntc-workload record --dir target/repro-ci-traces >/dev/null
./target/release/repro --fast --out target/repro-ci-trace-gen fig3.8 >/dev/null
./target/release/repro --fast --trace-dir target/repro-ci-traces \
  --out target/repro-ci-trace-rep fig3.8 >/dev/null
cmp target/repro-ci-trace-gen/fig3_8.csv target/repro-ci-trace-rep/fig3_8.csv
# The manifest tags each run's workload source and counts the traffic
# (WorkloadStats::fields emits a fixed key order).
grep -q '"source":"generator"' target/repro-ci-trace-gen/manifest.json
grep -q '"source":"replay:' target/repro-ci-trace-rep/manifest.json
grep -Eq '"workload":\{"trace_replays":[1-9][0-9]*,' target/repro-ci-trace-rep/manifest.json
# repro writes no traces: the retired --record is an unknown flag.
record_code=0
./target/release/repro --fast --trace-dir target/repro-ci-traces --record \
  fig3.8 >/dev/null 2>&1 || record_code=$?
test "$record_code" = 2

echo "==> ntc-serve: concurrent clients, batch-identical CSVs, disk hit, bad-request, memo stats, clean SIGTERM"
# Daemon on a temp unix socket, sharing a fresh cache dir. Two concurrent
# scripted clients request the same experiment the grid-cache gate ran
# above; both CSVs must be byte-identical to the batch golden. --hold-ms
# keeps the one compute slot busy, so the second request overlaps the
# first: it queues for the slot, then answers from the experiment memo —
# never a second compute, and its receipt counts no work.
rm -rf target/serve-ci
mkdir -p target/serve-ci
serve_sock=target/serve-ci/daemon.sock
# The daemon is up once it answers a ping: the socket file exists from
# bind(), before listen(), so a request sent on its mere presence can
# be refused.
wait_for_ping() {
  for _ in $(seq 1 100); do
    if ./target/release/ntc-serve request --socket "$serve_sock" \
      --line '{"op":"ping"}' >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: the daemon never answered a ping"; exit 1
}
./target/release/ntc-serve serve --socket "$serve_sock" \
  --cache-dir target/serve-ci/cache --jobs 2 --hold-ms 300 \
  2> target/serve-ci/daemon.log &
serve_pid=$!
wait_for_ping
./target/release/ntc-serve request --socket "$serve_sock" \
  --experiment fig3.8 --out target/serve-ci/c1.csv \
  > target/serve-ci/r1.json &
c1_pid=$!
./target/release/ntc-serve request --socket "$serve_sock" \
  --experiment fig3.8 --out target/serve-ci/c2.csv \
  > target/serve-ci/r2.json
wait "$c1_pid"
cmp target/repro-ci-cold/fig3_8.csv target/serve-ci/c1.csv
cmp target/repro-ci-cold/fig3_8.csv target/serve-ci/c2.csv
# Exactly one compute across the pair; the other receipt shows a cache
# hit (receipts are schema-tagged, fixed key order) and counts no work,
# so the two receipts sum to the one compute.
grep -q '"schema":"ntc-serve-receipt/3"' target/serve-ci/r1.json
grep -q '"schema":"ntc-serve-receipt/3"' target/serve-ci/r2.json
test "$(cat target/serve-ci/r1.json target/serve-ci/r2.json \
  | grep -c '"tier":"computed"')" = 1
cat target/serve-ci/r1.json target/serve-ci/r2.json \
  | grep -Eq '"tier":"(memo|disk)"'
for r in r1 r2; do
  if ! grep -q '"tier":"computed"' "target/serve-ci/$r.json"; then
    grep -q '"sweep_busy_us":0,' "target/serve-ci/$r.json"
    grep -q '"gate_sims":0,' "target/serve-ci/$r.json"
  fi
done
# Restart on the same cache dir: a fresh process must answer the same
# request from the disk tier.
kill -TERM "$serve_pid"
wait "$serve_pid"
test ! -e "$serve_sock"
./target/release/ntc-serve serve --socket "$serve_sock" \
  --cache-dir target/serve-ci/cache --jobs 2 \
  2>> target/serve-ci/daemon.log &
serve_pid=$!
wait_for_ping
# A spec past the wire's bounds (a one-cycle trace has no pair) is a
# bad-request naming the field, and the daemon keeps serving.
if ./target/release/ntc-serve request --socket "$serve_sock" \
  --grid '{"benchmarks":["mcf"],"chips":1,"schemes":["razor"],"regime":"ch3","chip_seed_base":0,"trace_seed":0,"cycles":1}' \
  > /dev/null 2> target/serve-ci/bad.txt; then
  echo "FAIL: a one-cycle grid must be refused"; exit 1
fi
grep -q '"code":"bad-request"' target/serve-ci/bad.txt
grep -q 'cycles' target/serve-ci/bad.txt
# So is a spec that repeats a benchmark: its rows would fold twice into
# one, and the artifact would fail its own row count on the next load.
if ./target/release/ntc-serve request --socket "$serve_sock" \
  --grid '{"benchmarks":["mcf","mcf"],"chips":1,"schemes":["razor"],"regime":"ch3","chip_seed_base":0,"trace_seed":0,"cycles":50}' \
  > /dev/null 2> target/serve-ci/bad-repeat.txt; then
  echo "FAIL: a grid that repeats a benchmark must be refused"; exit 1
fi
grep -q '"code":"bad-request"' target/serve-ci/bad-repeat.txt
grep -q 'benchmarks' target/serve-ci/bad-repeat.txt
./target/release/ntc-serve request --socket "$serve_sock" \
  --experiment fig3.8 --out target/serve-ci/c3.csv \
  > target/serve-ci/r3.json
cmp target/repro-ci-cold/fig3_8.csv target/serve-ci/c3.csv
grep -q '"tier":"disk"' target/serve-ci/r3.json
# Each printed receipt is one JSON document with the receipt schema and
# a string tier, so a receipt printed wrong fails here, not in a client.
if command -v jq >/dev/null 2>&1; then
  for r in r1 r2 r3; do
    jq -e '.schema == "ntc-serve-receipt/3" and (.tier | type) == "string"' \
      "target/serve-ci/$r.json" >/dev/null
  done
elif command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
for r in ("r1", "r2", "r3"):
    v = json.load(open(f"target/serve-ci/{r}.json"))
    assert v["schema"] == "ntc-serve-receipt/3" and isinstance(v["tier"], str), (r, v)
EOF
else
  echo "note: neither jq nor python3 found; relying on the receipt greps above"
fi
# Every process memo reports its entry count.
./target/release/ntc-serve request --socket "$serve_sock" \
  --line '{"op":"stats"}' > target/serve-ci/stats.json
for memo in chip_blanks topologies nominal_anchors grids traces tables; do
  grep -Eq "\"memo_$memo\":[0-9]+" target/serve-ci/stats.json
done
# Clean SIGTERM shutdown: exit 0, socket unlinked, no quarantine files.
kill -TERM "$serve_pid"
wait "$serve_pid"
test ! -e "$serve_sock"
if ls target/serve-ci/cache/*.corrupt >/dev/null 2>&1; then
  echo "FAIL: shutdown left quarantine files behind"; exit 1
fi

echo "==> repro exit-code semantics (unknown id => 2, CSV failure => 1)"
if ./target/release/repro --fast fig3.4 fgi3.10 >/dev/null 2>&1; then
  echo "FAIL: misspelled experiment id must exit nonzero"; exit 1
fi
touch target/repro-ci-blocker
if ./target/release/repro --fast --out target/repro-ci-blocker fig3.4 >/dev/null 2>&1; then
  echo "FAIL: unwritable --out must exit nonzero"; exit 1
fi
rm -f target/repro-ci-blocker

echo "==> ntc-serve exit-code semantics (bad argument => 2 before binding)"
# `timeout` turns a daemon that starts anyway into exit 124, not a hang.
# `--tcp` is not a flag: the daemon listens on a Unix socket only.
for bad in "--jobs x" "--tcp 127.0.0.1:0"; do
  rm -f target/serve-ci/bad-arg.sock
  bad_code=0
  # Unquoted on purpose: $bad is a flag and its value.
  timeout 20 ./target/release/ntc-serve serve \
    --socket target/serve-ci/bad-arg.sock $bad 2>/dev/null || bad_code=$?
  if [ "$bad_code" != 2 ]; then
    echo "FAIL: ntc-serve serve $bad must exit 2, got $bad_code"; exit 1
  fi
  test ! -e target/serve-ci/bad-arg.sock
done

echo "==> CI OK"
