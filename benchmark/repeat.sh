#!/usr/bin/env bash
# benchmark/repeat.sh N: run every workload N times, each time with another
# seed (1..N), and print per workload and end-to-end metric the median, the
# quartiles and whether the spread (Q3 - Q1) / median stays within the
# metric's bound. setup_s is printed but never fails: the driver exempts it.
# Quartiles are Python's statistics.quantiles(values, n=4), as the driver's.
set -euo pipefail
runs="${1:?usage: benchmark/repeat.sh N}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
results="$(mktemp)"
trap 'rm -f "$results"' EXIT
for workload in http_query http_mixed engine_batch paper_pipeline; do
    for seed in $(seq 1 "$runs"); do
        echo "$workload seed $seed" >&2
        line="$("$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"result\": $line}" >> "$results"
    done
done
python3 - "$results" "$here/../BENCHMARK.json" <<'PY'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
declared = json.load(open(sys.argv[2]))
ok = True
print(f"{'workload':<15} {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
for workload in [w["name"] for w in declared["workloads"]]:
    mine = [r["result"] for r in runs if r["workload"] == workload]
    failed = sum(r["failed"] for r in mine)
    for metric in declared["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in mine]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median
        verdict = "pass" if spread <= metric["bound"] else "FAIL"
        if metric["name"] == "setup_s":
            verdict = "exempt"
        ok &= verdict != "FAIL"
        print(f"{workload:<15} {metric['name']:<20} {median:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spread:>8.4f} {metric['bound']:>6} {verdict}")
    print(f"{workload:<15} ops_failed {failed}")
    ok &= failed == 0
sys.exit(0 if ok else 1)
PY
