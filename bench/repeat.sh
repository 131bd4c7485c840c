#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs two sets of 3 untraced runs of
# every workload on the current tree, same seed, and prints per workload and
# end-to-end metric both set values (a set's value is the median of its 3
# runs), their relative difference and the bound from BENCHMARK.json. A
# metric that reads the same on all three runs of the first set is simulated
# and must repeat exactly. Exits non-zero on any excess.
#
#   bench/repeat.sh [--seed N] [--seconds S]      (about 12 minutes)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here" "$@" <<'PY'
import json, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
if "--seconds" not in args:
    args += ["--seconds", str(spec["run_seconds"])]

def run(workload):
    out = subprocess.run(["bash", f"{here}/run.sh", "--workload", workload, "--trace", "0", *args],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: incorrect result: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}

excess = 0
print(f"{'workload':<14} {'metric':<26} {'set A':>14} {'set B':>14} {'rel diff':>9} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    sets = [[run(w) for _ in range(3)] for _ in range(2)]
    for m in spec["end_to_end"]:
        name = m["name"]
        a, b = (statistics.median(r[name] for r in s) for s in sets)
        simulated = len({r[name] for r in sets[0]}) == 1
        bound = 0.0 if simulated else m["bound"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        # Either set may be the slow one: the code is the same.
        over = abs(worse) > bound
        excess += over
        print(f"{w:<14} {name:<26} {a:>14.6f} {b:>14.6f} {worse:>+9.4f} {bound:>6.2f}"
              + ("  EXCESS" if over else ""), flush=True)
sys.exit(1 if excess else 0)
PY
