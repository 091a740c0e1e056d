#!/usr/bin/env python3
"""Check BENCHMARK.json and benchmark outputs against the declared schema.

    python3 bench/e2e/check_schema.py [OUTPUT ...]

Always validates BENCHMARK.json itself (keys, name and unit syntax, bounds,
list sizes). Each OUTPUT is a result set written by `run.sh --out FILE`
or the captured stdout of one ppm_bench run; every result in it must hold
exactly the keys correct/attempted/failed/metrics, and its metrics must be
exactly the declared end-to-end metrics (untraced) or per-layer metrics
(traced), each with its declared unit and a finite value.

Exits 1 on the first violation, printing it.
"""
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(msg):
    print(f"check_schema: {msg}")
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_entries(entries, keys, what, lo, hi):
    require(isinstance(entries, list) and lo <= len(entries) <= hi,
            f"{what}: expected {lo}..{hi} entries")
    for e in entries:
        require(isinstance(e, dict) and set(e) == keys,
                f"{what}: entry {e} must have exactly {sorted(keys)}")
        require(NAME.match(e["name"]), f"{what}: bad name {e['name']!r}")
        if "unit" in keys:
            require(UNIT.match(e["unit"]), f"{what}: bad unit {e['unit']!r}")
            require(e["better"] in ("lower", "higher"),
                    f"{what}: {e['name']}: better must be lower or higher")


def check_benchmark():
    require(os.path.getsize(BENCHMARK) <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    with open(BENCHMARK) as f:
        bench = json.load(f)
    require(set(bench) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"},
            "BENCHMARK.json: wrong top-level keys")
    cmd = bench["command"]
    require(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in cmd),
            "command: 1..32 strings of at most 200 characters")
    require(not any(a.startswith("/") or ".." in a.split("/") for a in cmd),
            "command: no absolute paths or '..'")
    paths = bench["paths"]
    require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1..16")
    for p in paths:
        require(PATH.match(p) and not p.startswith("/") and
                ".." not in p.split("/"), f"paths: bad path {p!r}")
    rs = bench["run_seconds"]
    require(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds: integer 1..60")
    check_entries(bench["workloads"], {"name", "why"}, "workloads", 2, 8)
    for w in bench["workloads"]:
        require(len(w["why"]) <= 200 and "\n" not in w["why"],
                f"workloads: {w['name']}: why must be one line of <= 200 chars")
    check_entries(bench["end_to_end"], {"name", "unit", "better", "bound"},
                  "end_to_end", 1, 16)
    check_entries(bench["per_layer"], {"name", "unit", "better"},
                  "per_layer", 1, 128)
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [e["name"] for e in bench[group]]
        require(len(names) == len(set(names)), f"{group}: duplicate name")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    require(all(isinstance(b, (int, float)) and 0 < b <= 0.25
                for b in bounds.values()), "end_to_end: bound must be in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
            "end_to_end: setup_s (unit s, lower) is required")
    require(bounds["setup_s"] == max(bounds.values()),
            "end_to_end: setup_s must carry the largest bound")
    return bench


def check_result(where, result, declared):
    require(isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: keys must be exactly correct/attempted/failed/metrics")
    require(isinstance(result["correct"], bool), f"{where}: correct not a bool")
    for key in ("attempted", "failed"):
        require(isinstance(result[key], int) and not isinstance(result[key], bool)
                and result[key] >= 0, f"{where}: {key} not a whole number")
    require(result["attempted"] >= 1, f"{where}: attempted must be >= 1")
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    require(not missing, f"{where}: missing metrics {missing}")
    require(not extra, f"{where}: undeclared metrics {extra}")
    for name, m in got.items():
        require(isinstance(m, dict) and set(m) == {"value", "unit"},
                f"{where}: {name} must be {{value, unit}}")
        v = m["value"]
        require(isinstance(v, (int, float)) and not isinstance(v, bool) and
                math.isfinite(v), f"{where}: {name} value not a finite number")
        require(m["unit"] == declared[name],
                f"{where}: {name} unit {m['unit']!r}, declared {declared[name]!r}")


def main(argv):
    bench = check_benchmark()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for path in argv[1:]:
        with open(path) as f:
            text = f.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict) and "results" in data:
            names = [w["name"] for w in bench["workloads"]]
            require(sorted(data["results"]) == sorted(names),
                    f"{path}: results must cover exactly {names}")
            for w, result in data["results"].items():
                check_result(f"{path}: {w}", result,
                             layer if data.get("trace") else e2e)
        else:
            lines = text.strip().splitlines()
            require(lines, f"{path}: empty output")
            result = json.loads(lines[-1])
            traced = "setup_s" not in result.get("metrics", {})
            check_result(path, result, layer if traced else e2e)
    print(f"check_schema: ok ({len(argv) - 1} output(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
