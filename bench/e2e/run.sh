#!/usr/bin/env bash
# End-to-end benchmark runner. Builds ppm_bench from this checkout into
# .bench_build/ at the checkout root, then:
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       runs one workload; the last line of output is its JSON result.
#   run.sh [--seed <n>] [--seconds <s>] [--trace] [--out <file>]
#       runs every workload of BENCHMARK.json, each in its own process,
#       printing each metric as "<workload> <metric> <value> <unit>".
#       --out also writes the results, stamped with host and commit.
#   run.sh --self-check [--seed <n>]
#       flips one byte of each workload's reference and confirms that
#       every run reports the mismatch and exits non-zero.
#
# Exits non-zero when the build fails or any output mismatches.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"

mkdir -p "$build"
# Configure once; `cmake --build` re-configures by itself when a CMake file
# changes, so later runs pay only the up-to-date check.
if ! { { [[ -f "$build/CMakeCache.txt" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" --target ppm_bench -j "$(nproc)"; } \
     > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
bench="$build/ppm_bench"

if [[ " $* " == *" --workload "* ]]; then
  exec "$bench" "$@"
fi

seed=1
seconds=""
trace=0
out=""
self_check=0
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --self-check) self_check=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

read -r default_seconds workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' "$root/BENCHMARK.json")

if ((self_check)); then
  status=0
  for w in $workloads; do
    if "$bench" --workload "$w" --seed "$seed" --seconds 1 --trace 0 \
        --self-check > "$build/self-check.out" 2> /dev/null; then
      echo "$w: self-check FAILED: corrupted reference went unnoticed"
      status=1
    elif tail -n 1 "$build/self-check.out" | grep -q '"correct": false'; then
      echo "$w: mismatch reported, exit non-zero (ok)"
    else
      echo "$w: self-check FAILED: run did not report the mismatch"
      status=1
    fi
  done
  exit "$status"
fi

status=0
for w in $workloads; do
  "$bench" --workload "$w" --seed "$seed" --seconds "${seconds:-$default_seconds}" \
    --trace "$trace" > "$build/$w.out" || status=1
  grep -v '^{' "$build/$w.out" || true
done

if [[ -n "$out" ]]; then
  python3 - "$out" "$seed" "${seconds:-$default_seconds}" "$trace" \
    "$build" $workloads <<'EOF'
import json, os, platform, subprocess, sys
out, seed, seconds, trace, build, *workloads = sys.argv[1:]
def run(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""
lscpu = dict(line.split(":", 1) for line in run("lscpu").splitlines() if ":" in line)
flags = lscpu.get("Flags", "").split()
result = {
    # "-dirty" marks results measured from uncommitted changes on that commit.
    "git_sha": run("git", "describe", "--always", "--dirty", "--abbrev=40")
               or "unknown",
    "host": {
        "nproc": os.cpu_count(),
        "cpu": lscpu.get("Model name", platform.processor()).strip(),
        "isa": [f for f in ("ssse3", "avx2", "avx512bw") if f in flags],
        "l2": lscpu.get("L2 cache", "").strip(),
        "l3": lscpu.get("L3 cache", "").strip(),
    },
    "seed": int(seed),
    "seconds": float(seconds),
    "trace": int(trace),
    "results": {},
}
for w in workloads:
    with open(os.path.join(build, w + ".out")) as f:
        result["results"][w] = json.loads(f.read().splitlines()[-1])
with open(out, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
EOF
fi
exit "$status"
