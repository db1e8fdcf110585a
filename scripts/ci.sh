#!/usr/bin/env bash
# Tier-1 verification: format, lint, build, test. Run from anywhere;
# operates on the repository containing this script. Prints a per-stage
# wall-time summary on exit (also after a failure, for the stages that
# completed).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_NAMES=()
STAGE_TIMES=()
current_stage=""
stage_start=0

stage_end() {
    if [[ -n "$current_stage" ]]; then
        STAGE_NAMES+=("$current_stage")
        STAGE_TIMES+=($((SECONDS - stage_start)))
        current_stage=""
    fi
}

stage() {
    stage_end
    current_stage="$1"
    stage_start=$SECONDS
    echo "==> $1"
}

finish() {
    stage_end
    if [[ -n "${bench_lock:-}" ]]; then
        cp "$bench_lock" benchmark/Cargo.lock
    fi
    rm -rf "${obs_dir:-}" "${store_dir:-}" "${tel_dir:-}" "${bench_dir:-}" "${bench_lock:-}"
    if [[ ${#STAGE_NAMES[@]} -gt 0 ]]; then
        echo
        echo "stage wall times:"
        local i
        for i in "${!STAGE_NAMES[@]}"; do
            printf '  %4ds  %s\n' "${STAGE_TIMES[$i]}" "${STAGE_NAMES[$i]}"
        done
        printf '  %4ds  total\n' "$SECONDS"
    fi
}
trap 'finish' EXIT

# A CI run leaves the tree as it found it. Record every path `git status`
# reports (tracked changes and untracked files) with a hash of its
# contents; the last stage fails naming each path whose entry changed.
tree_state() {
    git status --porcelain --untracked-files=all | while IFS= read -r line; do
        printf '%s %s\n' "$(git hash-object -- "${line:3}" 2>/dev/null || echo gone)" "$line"
    done
}
tree_before="$(tree_state)"

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --workspace --release

stage "the model stays off the data path (no sciml-platform under a loader crate; the trainer is a model library)"
# `sciml-platform` is the performance model and the §VI GPU simulator;
# neither has a place on a sample's path. The output is captured before
# it is searched, so an early-exiting grep cannot hide a match.
for crate in sciml-pipeline sciml-store sciml-serve; do
    deps="$(cargo tree --offline -e normal -p "$crate" --prefix none)"
    if grep -q '^sciml-platform ' <<<"$deps"; then
        echo "ERROR: $crate depends on sciml-platform (cargo tree -e normal -p $crate)" >&2
        exit 1
    fi
done
# `sciml-minidnn` takes `Tensor`s and knows no loader, codec or store:
# the convergence harness in `sciml-bench` feeds it. Its own line is the
# tree's first; any other `sciml-` line is a dependency.
deps="$(cargo tree --offline -e normal -p sciml-minidnn --prefix none | tail -n +2)"
if grep -q '^sciml-' <<<"$deps"; then
    echo "ERROR: sciml-minidnn depends on a sciml- crate (cargo tree -e normal -p sciml-minidnn)" >&2
    exit 1
fi

stage "every normal dependency is named in its crate's code"
# A `[dependencies]` line nothing uses still builds, links and stays in
# every lock file. Each key (`-` read as `_`) must occur as a word in
# the crate's `src/` or `build.rs`; a test-only one is a dev-dependency.
unused=0
for manifest in crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    code=("$dir/src")
    [[ -f "$dir/build.rs" ]] && code+=("$dir/build.rs")
    for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]"); next }
                      on && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        if ! grep -rqw -- "${dep//-/_}" "${code[@]}"; then
            echo "ERROR: $(basename "$dir") ($manifest) declares dependency $dep, which its src/ and build.rs never name" >&2
            unused=1
        fi
    done
done
[[ $unused -eq 0 ]]

stage "benchmark builds against the tree (cargo check, its lock put back)"
# Nothing else here compiles `benchmark/`, so a library change that
# breaks it would surface only when the benchmark is run. The benchmark
# is its own workspace, and building it rewrites `benchmark/Cargo.lock`
# (stale since `sciml-store` took the rayon shim; only a change to the
# benchmark itself may commit that file), so the lock is saved first and
# put back afterwards — by the exit trap too, should the check fail.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark-check
cp "$bench_lock" benchmark/Cargo.lock

stage "sciml-lint (token rules + call-graph effects + unsafe inventory)"
# Scans crates/ AND shims/ (the shim layer carries its own waivers).
# Every violation of every rule fails, including any unsafe site missing
# from — or edited since — the generated inventory, lint.unsafe.toml.
cargo run --release -q -p sciml-analyze --bin sciml-lint -- --path .
# One definition of the logarithm: `sciml_codec::ops::log1p`. A libm
# `ln_1p` in product code would be a second one that differs from it by
# an ulp on some hosts — test code (a `tests/` or `benches/` path, or a
# file's `#[cfg(test)] mod` onward: sciml-lint's rule) may call it as
# the reference.
libm_log1p="$(find crates/*/src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0; cfg_test = 0 }
        cfg_test && /^[[:space:]]*mod [a-z_]+ \{/ { in_tests = 1 }
        { cfg_test = /^[[:space:]]*#\[cfg\(test\)\]/ }
        !in_tests && !/^[[:space:]]*\/\// && /ln_1p\(/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$libm_log1p" ]]; then
    echo "$libm_log1p" >&2
    echo "ERROR: libm ln_1p( in non-test code; use sciml_codec::ops::log1p" >&2
    exit 1
fi

stage "lint self-test (planted fixture must FAIL the gate, for the planted reasons)"
# The fixture plants a 3-deep transitive panic chain and an unsafe
# block that its (empty) inventory does not record. Exit status 1 naming
# both rules is a gate that gates; 0 means it has stopped gating, and 2
# (a config or usage error) would fail for the wrong reason.
planted_status=0
planted_out="$(cargo run --release -q -p sciml-analyze --bin sciml-lint -- \
    --path crates/analyze/tests/fixtures/planted \
    --config crates/analyze/tests/fixtures/planted/lint.toml 2>&1)" || planted_status=$?
if [[ $planted_status -ne 1 ]]; then
    echo "$planted_out" >&2
    echo "ERROR: planted lint fixture exited $planted_status, not 1" >&2
    exit 1
fi
for rule in no_panics_transitive unsafe_inventory; do
    if ! grep -q "\[$rule\]" <<<"$planted_out"; then
        echo "$planted_out" >&2
        echo "ERROR: planted lint fixture did not fail on $rule" >&2
        exit 1
    fi
done

stage "cargo test"
cargo test --workspace -q

stage "release differentials (full matrices, all 2^32 arguments of the bulk log1p)"
# The differential suites thin their inputs in debug builds; here they
# run in full, in the build that ships, at every tier this host has.
# Deflate / inflate against the frozen reference: byte identity of both
# benchmark payloads at all four levels, every overlapping copy at every
# distance from the end of the output; and the window sink against the
# whole one (24 seeds of random matches across the slides, every
# truncation of a member that slides twice).
cargo test --release -q -p sciml-compress --lib -- differential::
# DeepCAM against its frozen references: the lockstep encoder against
# the line-at-a-time one, the lockstep decoder and the per-line loop
# against the two-pass one (generated samples, every lane of a group,
# every code at every base exponent, hostile lines among valid ones).
cargo test --release -q -p sciml-codec --lib -- deepcam::differential:: deepcam::decode_differential::
# CosmoFlow: the flat-table encoder against the HashMap one, the view
# decoder against the frozen owned parse (forced multi-chunk samples,
# both LUT branches, every truncation, 20 000 random headers).
cargo test --release -q -p sciml-codec --lib -- cosmoflow::encode_differential:: cosmoflow::decode_differential::
# Every f32 bit pattern through the bulk log1p under every supported
# tier against `F16::from_f32(ops::log1p(x))`, on both cores (~55 s).
cargo test --release -q -p sciml-codec --test op_kernel -- \
    --ignored --exact all_f32_bit_patterns_at_every_tier

stage "speed floors (every crate's table, after the host's control row)"
# Each crate with a speed claim keeps it in one `#[ignore]` test named
# `speed_floors`: a table of (what, floor, applies, fast, slow) rows, each
# floor and its reason stated once, there. `sciml_simd::speed` times
# every row one way (fast and slow side by side in rounds filling half a
# second, the median of slow / fast, a kernel on both vCPUs at once as
# the decode pool runs it), prints one line a row and fails naming every
# row under its floor. The control row
# comes first, as in scripts/ab.sh, so a failing row can be read against
# the host's state: under 1.7 the second vCPU was away. The placement
# row (unpack_placement) times the control in each of its own rounds and
# counts only those that read 1.7 or more, so it asserts on every run.
cargo run --release -q --example inflate_control
floors_failed=0
cargo test --release -q -p sciml-compress --lib -- \
    --ignored --exact differential::speed_floors --nocapture || floors_failed=1
cargo test --release -q -p sciml-codec --lib -- \
    --ignored --exact speed::speed_floors --nocapture || floors_failed=1
cargo test --release -q --test unpack_placement -- \
    --ignored --exact speed_floors --nocapture || floors_failed=1
[[ $floors_failed -eq 0 ]]

stage "lockcheck-test (lock-order inversion detector enabled)"
# Rebuilds the parking_lot shim with the dynamic ABBA detector compiled
# in (panic-on-inversion under test) and re-runs the lock-heavy crates.
# A separate target dir keeps the instrumented artifacts from evicting
# the normal build cache.
RUSTFLAGS="--cfg lockcheck" CARGO_TARGET_DIR=target/lockcheck \
    cargo test -q -p parking_lot -p sciml-obs -p sciml-serve -p sciml-pipeline -p sciml-store

stage "cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

stage "observability smoke"
obs_dir="$(mktemp -d)"
# The example checks its own exposition with the line parser: the
# pipeline_decode_ns `_bucket` / `_sum` / `_count` series and the
# derived obs / codec.simd families.
cargo run --release --example observability -- \
    --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.prom"
# The emitted trace must parse as JSON.
cargo run --release -p sciml-bench --bin sciml -- validate-json "$obs_dir/trace.json"

stage "pooled-pipeline smoke (zero-copy vs per-sample-alloc checksums)"
# Pooling on vs off must produce byte-identical batches for both
# workloads, in release mode as well as in the debug unit run.
cargo test --release -q -p sciml-pipeline --test zero_copy

stage "store pack -> stage -> fetch smoke"
store_dir="$(mktemp -d)"
sciml() { cargo run --release -q -p sciml-bench --bin sciml -- "$@"; }
# `verify-store DIR` passes and prints the encoding census CENSUS.
verify_census() {
    local out
    out="$(sciml verify-store "$1")"
    echo "$out"
    if [[ "$out" != *"payload encodings: $2"* ]]; then
        echo "ERROR: $1: expected \`payload encodings: $2\`" >&2
        exit 1
    fi
}
# Pack a tiny synthetic dataset, verify it, serve it over loopback,
# stage it through the server, and check the staged copy is itself a
# complete CRC-clean store whose decoded samples round-trip.
sciml gen cosmo --out "$store_dir/data" --n 8 --grid 16
sciml pack --dir "$store_dir/data" --n 8 --out "$store_dir/packed" --shard-mb 1 --encoding gzip
# The retired encoding is refused by name, with the list of what is left.
if pack_err="$(sciml pack --dir "$store_dir/data" --n 8 --out "$store_dir/refused" --encoding pack 2>&1)" ||
    [[ "$pack_err" != *"raw|gzip|auto"* ]]; then
    echo "ERROR: \`sciml pack --encoding pack\` did not fail naming raw|gzip|auto: $pack_err" >&2
    exit 1
fi
sciml verify-store "$store_dir/packed"
# `Auto` keeps a gzip member where it saves an eighth of the entry: every
# CosmoFlow payload does.
sciml pack --dir "$store_dir/data" --n 8 --out "$store_dir/auto" --shard-mb 1 --encoding auto
verify_census "$store_dir/auto" "raw=0 gzip=8"
sciml serve --store "$store_dir/packed" --addr 127.0.0.1:7979 --metrics-addr 127.0.0.1:9093 &
serve_pid=$!
for _ in $(seq 50); do
    if sciml fetch --addr 127.0.0.1:7979 --indices 0 >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# The first seed is dead: staging falls back to the next one.
sciml stage --addr 127.0.0.1:1,127.0.0.1:7979 --out "$store_dir/staged" --workers 2
# A server without cluster config names no node; the client places
# every shard on the address it dialled.
sciml cluster-plan --addr 127.0.0.1:7979
sciml verify-store "$store_dir/staged"
# Server numbers are read from its scrape endpoint, not the wire.
sciml fetch --addr 127.0.0.1:7979 --all
sciml scrape --addr 127.0.0.1:9093 --require serve_requests,serve_samples_served,serve_bytes_sent
sciml fetch --addr 127.0.0.1:7979 --shutdown
wait "$serve_pid" || true
# Serve the staged copy and pull every sample back out: the bytes must
# match the original per-file dataset exactly, and still decode.
sciml serve --store "$store_dir/staged" --addr 127.0.0.1:7980 &
serve_pid=$!
for _ in $(seq 50); do
    if sciml fetch --addr 127.0.0.1:7980 --indices 0 >/dev/null 2>&1; then break; fi
    sleep 0.2
done
sciml fetch --addr 127.0.0.1:7980 --all --out "$store_dir/fetched"
sciml fetch --addr 127.0.0.1:7980 --shutdown
wait "$serve_pid" || true
for f in "$store_dir"/data/sample_*.bin; do
    cmp "$f" "$store_dir/fetched/$(basename "$f")"
done
sciml verify "$store_dir/fetched/sample_000000.bin"

stage "ingest smoke (gen -> pack auto -> stage the packed store -> verify, shard files identical)"
# The write side end to end through the CLI: a packed store staged by
# its own manifest is mirrored, so every staged shard file must be the
# origin's file byte for byte (the stager copies stored entries as they
# are) and the copy must verify as a store of its own.
sciml gen deepcam --out "$store_dir/dc" --n 8 --width 288 --height 192 --channels 4
sciml pack --dir "$store_dir/dc" --n 8 --out "$store_dir/dc_packed" --shard-mb 1 --encoding auto
# `Auto` stores every DeepCAM entry raw: its differential payload does not
# compress, so no gzip member saves an eighth and no read inflates.
verify_census "$store_dir/dc_packed" "raw=8 gzip=0"
sciml stage --dir "$store_dir/dc_packed" --out "$store_dir/dc_staged" --workers 2
sciml verify-store "$store_dir/dc_staged"
for f in "$store_dir"/dc_packed/shard_*.sshard "$store_dir/dc_packed/store.manifest"; do
    cmp "$f" "$store_dir/dc_staged/$(basename "$f")"
done

stage "telemetry plane smoke (traced fetch, scrape, merged trace, attribution)"
tel_dir="$(mktemp -d)"
# `require_families FILE f1,f2,...`: FILE is an exposition declaring
# every named family.
require_families() {
    local fam
    for fam in ${2//,/ }; do
        if ! grep -q "^# TYPE $fam " "$1"; then
            echo "ERROR: $1: metric family \`$fam\` missing" >&2
            exit 1
        fi
    done
    echo "$1: OK ($2)"
}
# Serve the packed store with server-side tracing, a Prometheus scrape
# endpoint alongside the wire port, and the same exposition written on
# exit.
sciml serve --store "$store_dir/packed" --addr 127.0.0.1:7981 \
    --metrics-addr 127.0.0.1:9091 --trace-out "$tel_dir/server_trace.json" \
    --metrics-out "$tel_dir/server_metrics.prom" &
serve_pid=$!
for _ in $(seq 50); do
    if sciml fetch --addr 127.0.0.1:7981 --indices 0 >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# Traced decode run: the client's trace context rides in
# every request, so the server's spans join the client's trace; the
# sampler writes the final bottleneck-attribution report.
sciml fetch --addr 127.0.0.1:7981 --all --decode cosmo \
    --trace-out "$tel_dir/client_trace.json" \
    --metrics-out "$tel_dir/client_metrics.prom" \
    --attribution-out "$tel_dir/attribution.json"
# The live scrape must parse and expose the serve / store / obs
# families with the traffic we just generated.
sciml scrape --addr 127.0.0.1:9091 \
    --require serve_requests,serve_request_ns,store_decode_gzip,obs_trace_dropped_spans
sciml fetch --addr 127.0.0.1:7981 --shutdown
wait "$serve_pid" || true
# Both processes' --metrics-out files are the one read-out: the derived
# families ride along with each side's own.
require_families "$tel_dir/client_metrics.prom" \
    client_fetch_ns,pipeline_decode_ns,obs_trace_dropped_spans,codec_simd_dispatch_total
require_families "$tel_dir/server_metrics.prom" \
    serve_requests,store_decode_gzip,obs_trace_dropped_spans,codec_simd_dispatch_total
# Both per-process traces merge into one timeline, and everything the
# plane emitted is well-formed JSON.
sciml trace-merge --out "$tel_dir/merged_trace.json" \
    "$tel_dir/client_trace.json" "$tel_dir/server_trace.json"
sciml validate-json "$tel_dir/merged_trace.json" "$tel_dir/attribution.json" \
    "$tel_dir/client_trace.json" "$tel_dir/server_trace.json"

stage "serve soak (512 concurrent connections + connection-lifecycle scrape)"
# Raise the fd ceiling where permitted: 512 client sockets + 512 server
# sockets + headroom live in this stage.
ulimit -n 8192 2>/dev/null || true
sciml serve --store "$store_dir/packed" --addr 127.0.0.1:7982 \
    --max-conns 600 --metrics-addr 127.0.0.1:9092 &
serve_pid=$!
for _ in $(seq 50); do
    if sciml fetch --addr 127.0.0.1:7982 --indices 0 >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# Hold 512 negotiated connections open simultaneously against the
# serve engine (a thread each), fetch on every one, and require a clean
# close.
sciml soak --addr 127.0.0.1:7982 --conns 512 --fetches 2
# The connection-lifecycle families must be present and well-formed in
# the Prometheus exposition after the soak.
sciml scrape --addr 127.0.0.1:9092 \
    --require serve_conn_active,serve_conn_accepted,serve_conn_rejected_busy,serve_conn_drained,serve_requests
sciml fetch --addr 127.0.0.1:7982 --shutdown
wait "$serve_pid" || true
# Offline placement preview: the consistent-hash planner must produce a
# valid plan for a 3-node layout without any server running.
sciml cluster-plan --nodes 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
    --n 256 --per-shard 32 --replication 2

stage "simd-matrix (codec + half suites at every supported tier)"
# The dispatcher honors SCIML_SIMD, so the same test binaries prove
# bit-exactness of the scalar, SSE4.2 and (where present) AVX2 kernels;
# a host without the x86-64 tiers runs only the scalar one.
# `cpu-features --list` names only the tiers this host can execute, so
# the matrix is exact on any machine.
for tier in $(sciml cpu-features --list); do
    echo "    -- SCIML_SIMD=$tier"
    SCIML_SIMD="$tier" cargo test -q -p sciml-codec -p sciml-half -p sciml-pipeline
done
sciml cpu-features

stage "sanitizers (ASan + LSan over every crate holding unsafe; half + codec at every tier)"
# The differential suites hold the kernels to their scalar forms, but in
# an ordinary build an out-of-bounds load silently reads the
# neighbouring heap. This runs the suites of every crate with a site in
# the unsafe inventory (lint.unsafe.toml) under AddressSanitizer
# (LeakSanitizer is part of it on x86-64 Linux). `sciml-serve` holds no
# unsafe site, but LeakSanitizer guards its drain: its lib tests hold
# the engine's loopback suite, and `tests/serve_engine.rs` drains a real
# server. `--target` keeps the sanitizer flag off
# build scripts and proc macros, and target/asan keeps the instrumented
# artifacts apart. opt-level 2 (debug assertions stay on) runs the
# codec suite in ~11 s against ~115 s unoptimised.
asan_target=x86_64-unknown-linux-gnu
if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "ERROR: the sanitizer stage needs a nightly toolchain (cargo +nightly); none is installed" >&2
    exit 1
fi
asan_rt="$(rustc +nightly --print sysroot)/lib/rustlib/$asan_target/lib"
if ! compgen -G "$asan_rt/*rt.asan*" >/dev/null; then
    echo "ERROR: the nightly toolchain has no AddressSanitizer runtime in $asan_rt" >&2
    exit 1
fi
asan_test() {
    RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=1" CARGO_PROFILE_DEV_OPT_LEVEL=2 \
        cargo +nightly test --offline -q --target "$asan_target" --target-dir target/asan "$@"
}
for tier in $(sciml cpu-features --list); do
    echo "    -- SCIML_SIMD=$tier"
    SCIML_SIMD="$tier" asan_test -p sciml-half -p sciml-codec --tests
done
asan_test -p sciml-compress -p sciml-pipeline -p sciml-store --tests
asan_test -p sciml-serve --lib
asan_test -p sciml-repro --test serve_engine

stage "decode thread-scaling bench (per kernel x ISA)"
# Per-thread decode throughput, scaling efficiency, and each vector
# tier's speedup over scalar. The snapshot goes to a temp dir: the
# tracked results/BENCH_decode_scaling.json is a recorded run, and a CI
# run leaves `git status` clean.
bench_dir="$(mktemp -d)"
SCIML_BENCH_OUT_DIR="$bench_dir" cargo bench -q -p sciml-bench --bench bench_decode_scaling

stage "figures (every results/figures/ file rewritten from the binary)"
# Each file under results/figures/ is one target's committed output:
# `results/figures/<target>.txt` is `figures <target>`, and
# `results/figures/<target>_full.txt` is `figures <target> --full`, so
# the files are the list. Every target prints the
# same bytes on every run; the clean-tree stage below names any file a
# code change moved.
for f in results/figures/*.txt; do
    t="$(basename "$f" .txt)"
    if [[ "$t" == *_full ]]; then
        cargo run --release -q -p sciml-bench --bin figures -- "${t%_full}" --full > "$f"
    else
        cargo run --release -q -p sciml-bench --bin figures -- "$t" > "$f"
    fi
done

stage "clean tree (the run rewrote no file git sees)"
tree_after="$(tree_state)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "ERROR: this CI run changed what git sees (< before, > after):" >&2
    diff <(printf '%s' "$tree_before") <(printf '%s' "$tree_after") | grep '^[<>]' >&2
    exit 1
fi

stage_end
echo "==> CI OK"
