#!/usr/bin/env bash
# sp-bench perf in one command: build the harness (release) and run it.
#
#   perfbench/run.sh [--seed N] [--trace] [--aa] [--smoke] [--seconds S]
#       the whole set: every metric as `workload metric value unit (...)`,
#       results in perfbench/out/BENCH_perf.json (+ trace.json with --trace)
#   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is the result JSON
#
# Run it from the root of the repository (paths in BENCHMARK.json are
# relative to it). See perfbench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The harness refuses to measure a debug build; this is the only build
# the script makes. A relative CARGO_TARGET_DIR is relative to the
# current directory for cargo and for the path below alike.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin perf
bin="${CARGO_TARGET_DIR:-$here/target}/release/perf"

# Every repetition starts a fresh server, so by default glibc hands the
# freed heap of one repetition back to the kernel and the next one pays
# ~100 MB of page faults again, or not, depending on which thread's arena
# the memory came from: repetitions of one run then differ by ±10%. One
# arena that is never trimmed keeps the heap warm, as it is in a server
# that has been up for a while, and repetitions agree to ~2%.
export MALLOC_ARENA_MAX=1
export MALLOC_TRIM_THRESHOLD_=8589934592
export MALLOC_MMAP_THRESHOLD_=33554432

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$bin" --out "$here/out" --rustc "$(rustc --version)" --commit "$commit" "$@"
