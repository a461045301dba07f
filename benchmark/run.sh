#!/usr/bin/env bash
# Build the benchmark offline and drive it over all four workloads.
#
#   benchmark/run.sh                  both modes on every workload (seed 42), metric table
#   benchmark/run.sh --seed 7         the same on another seed
#   benchmark/run.sh --check-repeat   two full end-to-end sets on the same seeds; fails if a
#                                     median worsens by more than its bound between the sets
#   benchmark/run.sh --spread         ten seeds per workload; prints each end-to-end metric's
#                                     quartile spread (IQR / median) beside its bound and fails
#                                     if one exceeds it
#
# Workloads, command, run length and bounds are read from BENCHMARK.json, so
# this script and the driver always run the same thing. Raw result lines go
# to benchmark/target/results/ (ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec python3 - "$@" <<'PY'
import json, pathlib, statistics, subprocess, sys, time

spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
e2e = spec["end_to_end"]
out_dir = pathlib.Path("benchmark/target/results")
out_dir.mkdir(parents=True, exist_ok=True)
log = open(out_dir / time.strftime("run-%Y%m%d-%H%M%S.jsonl"), "w")


def run(workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                          "process_s": round(took, 2), **result}) + "\n")
    log.flush()
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: {result['failed']} failed operations")
    print(f"  {workload:<15} seed {seed:<4} trace {trace}  {took:6.1f} s", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def table(columns, names):
    print(f"{'metric':<36}" + "".join(f"{w:>18}" for w in workloads))
    for name in names:
        cells = "".join(f"{columns[w].get(name, float('nan')):>18.6g}" for w in workloads)
        print(f"{name:<36}{cells}")


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative = better)."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def collect(workload, seeds):
    """Per end-to-end metric, its values over one run per seed."""
    runs = [run(workload, s, 0) for s in seeds]
    return {m["name"]: [r[m["name"]] for r in runs] for m in e2e}


def e2e_set(seeds):
    return {w: collect(w, seeds) for w in workloads}


args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 42
failed = False

if "--check-repeat" in args:
    seeds = [seed, seed + 1, seed + 2]
    first, second = e2e_set(seeds), e2e_set(seeds)
    print(f"two sets over seeds {seeds}: medians, and how much worse the second is")
    for w in workloads:
        for m in e2e:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = worse_by(m, a, b)
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            failed |= worse > m["bound"]
            print(f"{w:<15} {m['name']:<26} {a:>16.6g} {b:>16.6g} {worse:>+9.2%}"
                  f"  bound {m['bound']:.0%}  {verdict}")
            print(f"{'':<15} {'  raw':<26} {first[w][m['name']]} {second[w][m['name']]}")
elif "--spread" in args:
    seeds = list(range(seed, seed + 10))
    print(f"quartile spread over seeds {seeds[0]}..{seeds[-1]} (IQR / median; aim for a third "
          f"of the bound)")
    for w in workloads:
        values = collect(w, seeds)
        for m in e2e:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(statistics.median(v))
            over = spread > m["bound"] and m["name"] != "setup_s"
            failed |= over
            print(f"{w:<15} {m['name']:<26} median {statistics.median(v):>14.6g}  spread "
                  f"{spread:>7.2%}  bound {m['bound']:.0%}  {'OVER BOUND' if over else 'ok'}")
else:
    end_to_end = {w: run(w, seed, 0) for w in workloads}
    layers = {w: run(w, seed, 1) for w in workloads}
    print(f"end-to-end metrics (--trace 0), seed {seed}")
    table(end_to_end, [m["name"] for m in e2e])
    print(f"\nper-layer metrics (--trace 1), seed {seed}")
    table(layers, [m["name"] for m in spec["per_layer"]])

sys.exit(1 if failed else 0)
PY
