#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload contended --seed 1 --seconds 45 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and the traced run's span files go under .bench_build/ in the
# current directory. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/perfbench" .) >&2

# Stamp results with the commit when there is one, else with a digest of
# the Go sources the binary was built from.
commit=
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" describe --always --dirty 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
		LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

exec "$out/perfbench" --commit "$commit" "$@"
