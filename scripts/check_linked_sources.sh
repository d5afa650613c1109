#!/usr/bin/env bash
# Dead-code gate, per symbol: builds the library and every non-test binary
# (the benches, the examples, the CLI and perfbench_runner) with one section
# per function and lets the linker drop every section no binary reaches
# (-ffunction-sections -fdata-sections -Wl,--gc-sections). Everything is
# unoptimised (-O0) except perfbench_runner: it refuses an unoptimised build,
# and at -O0 the compiler drops every call after that refusal, so it is built
# at -O1 with inlining off (-fno-inline), which keeps every call a symbol. A
# mmtag:: function defined in libmmtag.a (`nm`) that no binary keeps is
# library code nothing runs. An archive member no binary pulls in is the case
# where all of its functions are dead.
#
#   scripts/check_linked_sources.sh [build-dir]    (default: build-linkcheck)
#
# Run from anywhere; the build directory is relative to the repository root.
# Functions that only tests call but that stay on purpose (a test's reference
# implementation, or a read-out a test uses to observe a live object) are
# listed in scripts/linked_symbols_keep.txt, one per line with that test.
# A listed function that a binary keeps after all, or that libmmtag.a no
# longer defines, is a stale entry. Prints each dead function's and each
# stale entry's demangled signature and exits 1, or prints nothing and exits
# 0 when every function is kept or listed and every entry is needed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${1:-build-linkcheck}
case $build in /*) ;; *) build=$root/$build ;; esac
jobs=$(nproc 2> /dev/null || echo 2)
keep=$root/scripts/linked_symbols_keep.txt

# Build output (compiler diagnostics included) goes to the log file and is
# shown only when a step fails.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
run() {
  if ! "$@" >> "$log" 2>&1; then
    cat "$log" >&2
    echo "check_linked_sources: build failed: $*" >&2
    exit 2
  fi
}

common=(-DCMAKE_BUILD_TYPE=None -G "Unix Makefiles" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
sections="-ffunction-sections -fdata-sections"
run cmake -S "$root" -B "$build" "${common[@]}" "-DCMAKE_CXX_FLAGS=-O0 $sections"
run cmake --build "$build" --target mmtag -j "$jobs"
# The test binary is left out on purpose: code only tests reach is dead.
for dir in bench examples tools; do
  run make -C "$build/$dir" -j "$jobs" --no-print-directory
done
# perfbench is a separate CMake project over the same sources.
run cmake -S "$root/perfbench" -B "$build/perfbench" "${common[@]}" \
  "-DCMAKE_CXX_FLAGS=-O1 -fno-inline $sections"
run cmake --build "$build/perfbench" --target perfbench_runner -j "$jobs"

# Demangled signatures of the functions (text symbols, global, local or weak)
# a file defines in the mmtag namespace, lambdas inside them included. The
# filter runs on mangled names so that library templates instantiated for an
# mmtag type (std::copy<mmtag::...>) are not counted.
functions() {
  nm --defined-only "$@" | sed -n 's/^[0-9a-f]* [TtWw] \(_ZZ\{0,1\}N[KVRO]*5mmtag.*\)$/\1/p' |
    c++filt | sort -u
}

binaries=$(find "$build/bench" "$build/examples" "$build/tools" -maxdepth 1 -type f -perm -u+x)
binaries="$binaries $build/perfbench/perfbench_runner"
if [ "$(echo "$binaries" | wc -w)" -ne 31 ]; then
  echo "check_linked_sources: expected 31 non-test binaries, found:" $binaries >&2
  exit 2
fi

library=$(functions "$build/src/libmmtag.a")
if [ -z "$library" ]; then
  echo "check_linked_sources: no mmtag:: functions in libmmtag.a" >&2
  exit 2
fi
# A kept-list line is "<test name> <demangled signature>"; '#' starts a comment.
kept=$(sed -e '/^#/d' -e '/^$/d' -e 's/^[^ ]* //' "$keep" | sort -u)
# shellcheck disable=SC2086
linked=$(functions $binaries)
# An unoptimised runner keeps nothing past its refusal; catch a regression.
if [ -z "$(functions "$build/perfbench/perfbench_runner")" ]; then
  echo "check_linked_sources: perfbench_runner keeps no mmtag:: functions" >&2
  exit 2
fi
dead=$(comm -23 <(echo "$library") <(echo "$linked") | comm -23 - <(echo "$kept"))
used=$(comm -12 <(echo "$kept") <(echo "$linked"))
gone=$(comm -23 <(echo "$kept") <(echo "$library"))
[ -z "$dead$used$gone" ] && exit 0
[ -n "$dead" ] && echo "$dead" | sed 's/^/dead: /'
[ -n "$used" ] && echo "$used" | sed 's/^/stale keep (a binary keeps it): /'
[ -n "$gone" ] && echo "$gone" | sed 's/^/stale keep (not in libmmtag.a): /'
exit 1
