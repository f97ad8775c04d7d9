#!/usr/bin/env bash
# bench-pairs.sh measures one benchmark workload as alternating pairs of
# runs: the repo at BASE (the parent) and this checkout's working tree
# (the change), each run by its own benchmark/run.sh, e.g.
#
#   scripts/bench-pairs.sh HEAD~1 cluster_trace 10 "1 2 3 4 5 6 7 8 7001 7002"
#   make bench-pairs BASE=HEAD~1 WORKLOAD=cluster_trace PAIRS=10 SEEDS="1 2 3"
#
# Pair i runs seed i of SEEDS (cycled when there are fewer seeds than
# pairs; the default is 1..PAIRS) with
# `run.sh --workload W --seed S --seconds 10 --trace 0` on each side,
# base first in even pairs and change first in odd ones, so slow drift
# of the machine does not favour one side. It then prints, for every
# end-to-end metric the runs report, the per-seed values of both sides,
# each side's median and quartiles, the gap between the medians against
# the base's interquartile range, in how many pairs the change was
# better (the direction is BENCHMARK.json's "better"), and a verdict:
#
#   gain     the change is better in at least 9 of 10 pairs and its
#            median is better than the base's by more than the base's
#            interquartile range: a gain that can be claimed;
#   worse    the change's median is worse than the base's by more than
#            the metric's "bound" in BENCHMARK.json (relative);
#   neither  anything else: no claimable gain, no breach.
#
# Runs that are not correct or that failed operations are listed at the
# end, and make the script exit 1.
#
# BASE is any revision the local repository already holds. It is checked
# out, detached, into a git worktree under a temporary directory (under
# $TMPDIR) that is removed on exit; nothing is fetched, and both sides
# build offline (GOPROXY=off) into their own .bench_build/. Run nothing
# else on the machine while it measures: one pair of 10-second runs
# takes about half a minute.
set -euo pipefail

usage() {
	echo "usage: $0 BASE WORKLOAD [PAIRS] [SEEDS]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base_rev=$1
workload=$2
pairs=${3:-10}
seeds=${4:-$(seq -s ' ' 1 "$pairs")}
read -r -a seed_list <<<"$seeds"
[ "${#seed_list[@]}" -gt 0 ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
export GOPROXY=off

tmp=$(mktemp -d -t bench-pairs.XXXXXX)
base_dir="$tmp/base"
cleanup() {
	git -C "$root" worktree remove --force "$base_dir" >/dev/null 2>&1 || true
	git -C "$root" worktree prune >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$base_dir" "$base_rev"

# run SIDE DIR SEED appends "SIDE SEED <result line>" to $tmp/runs.
run() {
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds 10 --trace 0 2>"$tmp/stderr" | tail -n 1) || {
		echo "bench-pairs: $1 run (seed $3) failed:" >&2
		cat "$tmp/stderr" >&2
		exit 1
	}
	echo "$1 $3 $line" >>"$tmp/runs"
	echo "  $1 seed $3: $line" >&2
}

echo "bench-pairs: $workload, $pairs pairs, base $(git rev-parse --short "$base_rev") vs working tree" >&2
for ((i = 0; i < pairs; i++)); do
	seed=${seed_list[i % ${#seed_list[@]}]}
	if ((i % 2 == 0)); then
		run base "$base_dir" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$base_dir" "$seed"
	fi
done

# Which way is better, and the bound, per end-to-end metric, from
# BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
	on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json >"$tmp/better"

awk -v pairs="$pairs" '
function quantile(a, n, q,   pos, lo, frac, i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	pos = q * (n - 1); lo = int(pos); frac = pos - lo
	if (lo + 1 >= n) return a[n]
	return a[lo + 1] * (1 - frac) + a[lo + 2] * frac
}
function stats(side, m,   a, i) {
	for (i = 1; i <= pairs; i++) a[i] = val[side, i, m]
	q1[side] = quantile(a, pairs, 0.25)
	med[side] = quantile(a, pairs, 0.5)
	q3[side] = quantile(a, pairs, 0.75)
}
FILENAME ~ /better$/ { better[$1] = $2; bound[$1] = $3; next }
{
	side = $1; seed = $2
	n[side]++
	seedOf[n[side]] = seed
	line = $0
	if (line !~ /"correct":true/ || line !~ /"failed":0,/) bad = bad sprintf("  %s seed %s: %s\n", side, seed, substr(line, index(line, "{")))
	while (match(line, /"[a-z_.]+":\{"value":[-0-9.e+]+/)) {
		kv = substr(line, RSTART + 1, RLENGTH - 1)
		split(kv, parts, /":\{"value":/)
		val[side, n[side], parts[1]] = parts[2] + 0
		if (!(parts[1] in seen)) { seen[parts[1]] = 1; metrics[++nm] = parts[1] }
		line = substr(line, RSTART + RLENGTH)
	}
}
END {
	for (k = 1; k <= nm; k++) {
		m = metrics[k]
		printf "\n%s (%s is better)\n", m, better[m] == "" ? "?" : better[m]
		printf "  %-6s %16s %16s\n", "seed", "base", "change"
		wins = 0
		for (i = 1; i <= pairs; i++) {
			b = val["base", i, m]; c = val["change", i, m]
			if ((better[m] == "higher" && c > b) || (better[m] == "lower" && c < b)) wins++
			printf "  %-6s %16.6g %16.6g\n", seedOf[i], b, c
		}
		stats("base", m); stats("change", m)
		printf "  %-6s %16.6g %16.6g\n", "q1", q1["base"], q1["change"]
		printf "  %-6s %16.6g %16.6g\n", "median", med["base"], med["change"]
		printf "  %-6s %16.6g %16.6g\n", "q3", q3["base"], q3["change"]
		gap = med["change"] - med["base"]
		iqr = q3["base"] - q1["base"]
		printf "  change better in %d of %d pairs; median gap %+.6g (%+.2f%%), base IQR %.6g\n",
			wins, pairs, gap, med["base"] == 0 ? 0 : 100 * gap / med["base"], iqr
		# gap signed so that positive is better, and the relative worsening
		gain = better[m] == "lower" ? -gap : gap
		worse = med["base"] == 0 ? 0 : -gain / (med["base"] < 0 ? -med["base"] : med["base"])
		verdict = "neither"
		if (better[m] != "" && 10 * wins >= 9 * pairs && gain > iqr) verdict = "gain"
		else if (bound[m] != "" && worse > bound[m]) verdict = "worse"
		printf "  verdict: %s\n", verdict
	}
	if (bad != "") { printf "\nruns not correct or with failed operations:\n%s", bad; exit 1 }
}' "$tmp/better" "$tmp/runs"
