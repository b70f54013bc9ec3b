#!/usr/bin/env bash
# Regenerate the golden-stats digests under tests/golden/.
#
# Run after a deliberate change to any simulated observable, or to
# the snapshot/journal byte layout (snapshot.digest, which must come
# with a bumped section tag), then commit the diff — it shows exactly
# which metric or layout moved. The digests
# are hexfloat-exact, so "close enough" does not exist: any diff is a
# real behavioural change.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
builddir="${1:-build}"
bin="$builddir/tests/test_golden_stats"
repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $builddir)" >&2
    exit 1
fi

# Golden digests regenerated from a build that does not match the
# sources would silently bless behaviour nobody wrote. Refuse both
# hazard cases loudly: uncommitted source edits, and a build tree
# older than the sources it claims to reflect.
if dirty="$(cd "$repo" && git status --porcelain -- src tests/golden 2>/dev/null)" \
   && [ -n "$dirty" ]; then
    echo "error: refusing to regenerate golden digests with uncommitted" >&2
    echo "changes under src/ or tests/golden/ — commit or stash first:" >&2
    printf '%s\n' "$dirty" >&2
    exit 1
fi

stale="$(find "$repo/src" "$repo/tests" -name '*.cc' -o -name '*.hh' \
         | xargs -r ls -t 2>/dev/null | head -n 1)"
if [ -n "$stale" ] && [ "$stale" -nt "$bin" ]; then
    echo "error: $bin is older than $stale" >&2
    echo "rebuild first: cmake --build $builddir" >&2
    exit 1
fi

MEMSEC_REGEN_GOLDEN=1 "$bin"
echo "regenerated: tests/golden/*.digest — review with git diff"
