#!/usr/bin/env bash
# Builds spaa-serve and the benchmark from this checkout's source, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output, the Go build cache and run
# scratch stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/spaa-serve || ! -f perfbench/go.mod ]]; then
  echo "run.sh: run from the root of a dagsched checkout (go.mod, cmd/spaa-serve, perfbench/)" >&2
  exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# The go command's caches, module cache, settings and telemetry stay in $out.
# Telemetry is off: otherwise the go command starts a detached upload process
# that outlives the run. GOPROXY=off: the build needs no module downloads.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/spaa-serve" ./cmd/spaa-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve-bin "$out/bin/spaa-serve" -work-dir "$out/run" "$@"
