#!/bin/sh
# The full CI gate: build, test, lint, format. Run before every push.
# Each stage runs through gate() so the log shows per-stage wall time —
# when CI slows down, the offending stage is visible at a glance.
set -eu

gate() {
    gate_name="$1"
    shift
    gate_start=$(date +%s)
    echo ">>> gate: ${gate_name}: $*"
    "$@"
    echo "<<< gate: ${gate_name}: $(( $(date +%s) - gate_start ))s"
}

gate build cargo build --release
gate test cargo test -q
gate test-workspace cargo test --workspace -q
# The machine's reference models at depth: the TLB slot index against a
# linear scan, both engines against the instruction semantics, the
# superblock engine against the interpreter in lockstep, its
# data-translation cache against the interpreter's uncached translation,
# the page-run guest-memory copy against the word-by-word accessors, and
# both engines' exception entry and return against sem::exception_entry.
gate mips-models env PROPTEST_CASES=4096 cargo test --release -q -p efex-mips --test tlb_lookup --test conformance --test superblock --test data_translation --test word_copy --test exception_entry
# Every system call under hostile arguments, in a debug build so that
# integer overflow panics: the kernel answers with a result or a typed
# error, never unwinds, and never maps a KSEG0 page.
gate simos-syscalls env PROPTEST_CASES=256 cargo test -q -p efex-simos --test syscall_args
gate lint cargo run --release -p efex-bench --bin lint -- --baseline BENCH_baseline.json
gate inject cargo run --release -p efex-bench --bin inject -- --all
gate fleet-determinism cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --check-determinism
gate fleet-health cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --health --metrics-out target/ci-fleet-health.prom
gate baseline cargo run --release -p efex-bench --bin report -- --check BENCH_baseline.json
# The superblock engine is the machine default, so every gate but
# `baseline` (report's interpreter oracle) runs it. Here it must reproduce
# the interpreter-recorded baseline bit-exactly (report --record refuses to
# run under it, so no re-record can satisfy this gate).
gate baseline-superblock cargo run --release -p efex-bench --bin report -- --check BENCH_baseline.json --engine superblock
gate snap cargo run --release -p efex-bench --bin snap
gate fleet-migrate cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --migrate
gate fleet-kill-shard cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --kill-shard 1
# The host-time benchmark builds the simulator from source against its own
# committed lock file: an API or dependency change that would break it fails
# here. Host time itself is recorded by the benchmark, never gated in CI.
gate hostbench-selftest cargo test --release --offline --locked --manifest-path hostbench/Cargo.toml
gate clippy cargo clippy --workspace --all-targets -- -D warnings
gate doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
gate doctest cargo test --doc --workspace -q
gate fmt cargo fmt --check

echo "ci: all gates passed"
