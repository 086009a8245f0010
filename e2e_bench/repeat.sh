#!/usr/bin/env bash
# Run the full set twice on one build and hold the benchmark to its own
# bounds: per workload × end-to-end metric, print both medians, their
# relative difference and each set's run-to-run spread (interquartile
# range ÷ median over the set's seeds), and fail when a second median is
# worse than the first by more than the metric's bound, when a spread
# (other than set-up's) exceeds it, or when any operation failed.
#
#   e2e_bench/repeat.sh [runs-per-set (default 10)] [workload ...]
#
# Reads the command, workloads, metrics and bounds from BENCHMARK.json,
# so it measures exactly what the driver measures.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path e2e_bench/Cargo.toml
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]

def one(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {m: v["value"] for m, v in result["metrics"].items()}

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = []
print(f"{'workload':<15} {'metric':<18} {'median 1':>14} {'median 2':>14} {'worse by':>9} "
      f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}")
for workload in names:
    # Set 1 uses seeds 1..runs, set 2 the next `runs`: no run repeats a seed.
    sets = [[one(workload, 1 + s * runs + i) for i in range(runs)] for s in range(2)]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first, second = ([r[name] for r in s] for s in sets)
        m1, m2 = statistics.median(first), statistics.median(second)
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        s1, s2 = spread(first), spread(second)
        flag = ""
        if worse > bound:
            flag = "  <-- medians disagree"
        elif name != "setup_s" and max(s1, s2) > bound:
            flag = "  <-- spread over bound"
        if flag:
            bad.append(f"{workload} {name}")
        print(f"{workload:<15} {name:<18} {m1:>14.4f} {m2:>14.4f} {worse:>+9.1%} "
              f"{s1:>9.1%} {s2:>9.1%} {bound:>6.0%}{flag}", flush=True)
        for label, values in (("set 1", first), ("set 2", second)):
            print(f"{'':<15} {label:>18}  " + " ".join(f"{v:.4g}" for v in values), flush=True)
if bad:
    sys.exit("outside the benchmark's own bounds: " + ", ".join(bad))
print("every workload x metric repeats within its bound; ops_failed 0 in both sets")
PY
