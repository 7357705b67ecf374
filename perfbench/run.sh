#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_noise --seed 1 --seconds 15 --trace 0
#
# Every build product and run file stays under .bench_build/ in the
# repository root (Go build cache included); nothing is written elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # keeps the toolchain's config writes here too
export GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/perfbench" .) >&2

commit=unknown
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1; then
	commit="$(git rev-parse HEAD)"
fi

exec "$build/perfbench" --work "$build" --commit "$commit" "$@"
