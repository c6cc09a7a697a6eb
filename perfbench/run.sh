#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload table2-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact and output stays under
# .bench_build/ in the current directory (the Go build cache included), and
# the go command is kept offline.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C perfbench build -buildvcs=false -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
