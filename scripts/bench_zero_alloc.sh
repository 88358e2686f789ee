#!/usr/bin/env bash
# Zero-allocation benchmark gate, shared by `make bench-alloc` and
# `make bench-refine`.
#
# Usage: scripts/bench_zero_alloc.sh <label> <pattern> <out.json> <package>...
#
# Runs the benchmarks whose names match <pattern> (an anchored prefix such
# as '^BenchmarkAlloc') in the given packages with -benchmem, writes the
# measurements to <out.json>, and fails if any benchmark reports a nonzero
# allocs/op or if no results were parsed. <label> prefixes the log lines.
# ns/op is recorded as context only; it is not gated.
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 <label> <pattern> <out.json> <package>..." >&2
    exit 2
fi
label=$1 pattern=$2 out=$3
shift 3

cd "$(dirname "$0")/.."
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime 1000x "$@" | tee "$tmp"

# Parse `go test -bench` output lines of the form
#   BenchmarkAllocCost-8   1000   1458 ns/op   0 B/op   0 allocs/op
# into a JSON array, and collect violators.
awk -v out="$out" -v pat="$pattern" -v label="$label" '
BEGIN { n = 0; bad = "" }
$1 ~ pat && $NF == "allocs/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[n] = $3; bytes[n] = $5; allocs[n] = $7; names[n] = name
    if ($7 + 0 != 0) bad = bad " " name
    n++
}
END {
    printf "[\n" > out
    for (i = 0; i < n; i++) {
        printf "  {\"benchmark\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            names[i], ns[i], bytes[i], allocs[i], (i < n - 1 ? "," : "") > out
    }
    printf "]\n" > out
    if (n == 0) { print label ": no " pat " results parsed" > "/dev/stderr"; exit 1 }
    if (bad != "") { print label ": nonzero allocs/op in:" bad > "/dev/stderr"; exit 1 }
}
' "$tmp"

echo "$label: $(grep -c benchmark "$out") benchmarks, all 0 allocs/op -> $out"
