#!/usr/bin/env bash
# Dead-module gate: builds every non-test target (benches, examples, the CLI)
# with the GNU linker's archive-member trace (-Wl,-t,-t) and compares the
# libmmtag.a members the linker pulled in against the archive's contents
# (`ar t`). A member no binary pulls in is library code nothing runs.
#
#   scripts/check_linked_sources.sh [build-dir]    (default: build-linkcheck)
#
# Run from anywhere; the build directory is relative to the repository root.
# Prints each never-linked member with its source file and exits 1, or prints
# nothing and exits 0 when every member is linked by at least one binary.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${1:-build-linkcheck}
case $build in /*) ;; *) build=$root/$build ;; esac
jobs=$(nproc 2> /dev/null || echo 2)

# Build output (compiler diagnostics included) goes to the trace file and is
# shown only when a step fails.
trace=$(mktemp)
trap 'rm -f "$trace"' EXIT
run() {
  if ! "$@" >> "$trace" 2>&1; then
    cat "$trace" >&2
    echo "check_linked_sources: build failed: $*" >&2
    exit 2
  fi
}

run cmake -S "$root" -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,-t,-t
run cmake --build "$build" --target mmtag -j "$jobs"

# Relink the non-test targets so the trace covers each of them even when the
# directory was built before; the test binary is left out on purpose.
for dir in bench examples tools; do
  find "$build/$dir" -maxdepth 1 -type f -perm -u+x -delete
  run make -C "$build/$dir" -j "$jobs" --no-print-directory
done

# GNU ld prints a pulled member as "(path/libmmtag.a)member.o"; newer
# releases print "path/libmmtag.a(member.o)". Accept both.
pulled=$(sed -n -e 's|^(.*libmmtag\.a)\(.*\.o\)$|\1|p' \
                -e 's|^.*libmmtag\.a(\(.*\.o\))$|\1|p' "$trace" | sort -u)
if [ -z "$pulled" ]; then
  echo "check_linked_sources: no libmmtag.a members in the linker trace" >&2
  exit 2
fi

unlinked=$(comm -23 <(ar t "$build/src/libmmtag.a" | sort -u) <(echo "$pulled"))
[ -z "$unlinked" ] && exit 0
for member in $unlinked; do
  source=$(cd "$root" && find src -name "${member%.o}" | head -n 1)
  echo "never linked: $member (${source:-source not found})"
done
exit 1
