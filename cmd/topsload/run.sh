#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds topsload from source inside
# the checkout (.bench_build/) and runs it. Everything the go tool would
# otherwise put under $HOME or /tmp is redirected into .bench_build/, so a
# run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bin/topsload" .)
cd "$root"
exec "$out/bin/topsload" -root "$root" "$@"
