#!/usr/bin/env bash
# Flake census for the live backend: run the sg-live test suite N times
# and print, for every test that failed at least once, how many runs it
# failed in, then the overall pass rates.
#
# Usage: tests/flake_census.sh N
#
# The suite is built once up front, so a build error stops the census
# instead of counting as N failed runs.
set -euo pipefail

n=${1:-}
case $n in
'' | *[!0-9]* | 0)
    echo "usage: tests/flake_census.sh N   (N = number of runs, >= 1)" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."
cargo test -q -p sg-live --no-run

declare -A failures=()
clean_runs=0
passed=0
failed=0
for ((run = 1; run <= n; run++)); do
    if out=$(cargo test -q -p sg-live --no-fail-fast 2>&1); then
        clean_runs=$((clean_runs + 1))
    fi
    # libtest prints one "---- <name> stdout ----" block per failed test.
    while read -r name; do
        failures[$name]=$((${failures[$name]:-0} + 1))
    done < <(sed -n 's/^---- \(.*\) stdout ----$/\1/p' <<<"$out")
    while read -r p f; do
        passed=$((passed + p))
        failed=$((failed + f))
    done < <(sed -n 's/^test result: [a-zA-Z]*\. \([0-9]*\) passed; \([0-9]*\) failed.*/\1 \2/p' <<<"$out")
    echo "run $run/$n: ${#failures[@]} distinct failing test(s) so far" >&2
done

echo "flake census: cargo test -q -p sg-live --no-fail-fast, $n run(s)"
echo "failed_runs  test"
for name in "${!failures[@]}"; do
    printf '%11d  %s\n' "${failures[$name]}" "$name"
done | sort -k1,1nr -k2
if ((${#failures[@]} == 0)); then
    echo "          0  (no test failed)"
fi
awk -v c="$clean_runs" -v n="$n" -v p="$passed" -v f="$failed" 'BEGIN {
    printf "runs passing: %d/%d (%.1f%%)\n", c, n, 100 * c / n
    if (p + f > 0) printf "test executions passing: %d/%d (%.2f%%)\n", p, p + f, 100 * p / (p + f)
}'
