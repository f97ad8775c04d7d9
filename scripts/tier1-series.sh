#!/usr/bin/env bash
# tier1-series.sh runs the tier-1 tests N times in a row, each run
# uncached (`go test -count=1 -json ./...`), and reports every run, e.g.
#
#   scripts/tier1-series.sh 20
#   scripts/tier1-series.sh 5 -timeout 3m
#   make tier1-series N=20
#
# Arguments after N go to `go test` as they are. For each run it prints
# whether the run was green and its wall time, each failing test with
# its first failure line (a file:line message, a panic, a timeout), and
# each package's time; for a package that took over 15 s it also names
# the package's slowest top-level test. A package that fails with no
# failing test (a build error, a test binary that timed out) is printed
# with its first telling output line. It ends with the count of green
# runs and exits 1 unless every run was green.
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 N [go test flags...]" >&2; exit 2; }
runs=$1
shift

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$(mktemp -t tier1-series.XXXXXX)
trap 'rm -f "$out"' EXIT

green=0
for ((i = 1; i <= runs; i++)); do
	start=$(date +%s.%N)
	status=0
	go test -count=1 -json "$@" ./... >"$out" 2>&1 || status=$?
	wall=$(awk -v s="$start" -v e="$(date +%s.%N)" 'BEGIN { printf "%.1f", e - s }')
	if [ "$status" -eq 0 ]; then
		green=$((green + 1))
		echo "run $i/$runs: ok (${wall} s)"
	else
		echo "run $i/$runs: FAIL (${wall} s)"
	fi
	awk '
	# str returns the JSON string value of key in the line, unescaped
	# as far as a one-line report needs; "" when the key is absent.
	function str(key,    i, c, v) {
		i = index($0, "\"" key "\":\"")
		if (i == 0) return ""
		i += length(key) + 4
		v = ""
		for (; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "\"") break
			if (c == "\\") {
				i++
				c = substr($0, i, 1)
				if (c == "n" || c == "r") continue
				if (c == "t") c = " "
				if (c == "u") { i += 4; c = "?" }
			}
			v = v c
		}
		return v
	}
	function num(key,    i, v) {
		i = index($0, "\"" key "\":")
		if (i == 0) return 0
		v = substr($0, i + length(key) + 3)
		sub(/[^0-9.].*/, "", v)
		return v + 0
	}
	!/^\{/ { print "  " $0; next } # go test output outside the JSON stream
	{
		action = str("Action"); pkg = str("Package"); test = str("Test")
		if (action == "output") {
			line = str("Output")
			sub(/^[ \t]+/, "", line)
			telling = line ~ /^[A-Za-z0-9_.]+\.go:[0-9]+:/ || line ~ /^panic:/ || line ~ /timed out/ || line ~ /build failed|setup failed|cannot find|undefined:/
			if (telling && test != "" && !((pkg, test) in why)) why[pkg, test] = line
			if (telling && test == "" && !(pkg in pkgWhy)) pkgWhy[pkg] = line
			next
		}
		if (test != "") {
			if (action == "fail") {
				failed[pkg]++
				print "  FAIL " pkg " " test ": " (((pkg, test) in why) ? why[pkg, test] : "(no failure line)")
			}
			if ((action == "pass" || action == "fail") && test !~ /\// && num("Elapsed") >= slowest[pkg]) {
				slowest[pkg] = num("Elapsed"); slowName[pkg] = test
			}
			next
		}
		if (action == "pass" || action == "fail") {
			el = num("Elapsed")
			note = ""
			if (el > 15 && (pkg in slowName)) note = sprintf(" (slowest %s %.1f s)", slowName[pkg], slowest[pkg])
			if (action == "fail" && !(pkg in failed)) note = note " FAIL: " ((pkg in pkgWhy) ? pkgWhy[pkg] : "(no failure line)")
			printf "  %-44s %6.1f s%s\n", pkg, el, note
		}
	}' "$out"
done
echo "$green of $runs runs green"
[ "$green" -eq "$runs" ]
