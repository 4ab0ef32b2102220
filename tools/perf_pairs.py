#!/usr/bin/env python3
"""Before/after pairs of the repository benchmark in two checkouts.

    tools/perf_pairs.py --parent DIR --change DIR --workload NAME \\
        --seeds 11-20 [--metric host_s] [--log FILE]
    tools/perf_pairs.py --replay FILE [--metric host_s]

Runs `python3 perfbench/run.py --workload NAME --seed S --seconds N
--trace 0` once in each checkout per seed, N being BENCHMARK.json's
run_seconds, alternating which side goes first (the parent in the first
pair), and prints:

  - each pair's value of the named metric and which side won it;
  - every end-to-end metric's median and interquartile range per side;
  - how many pairs the change won on the named metric, and whether its
    median beats the parent's by more than the parent's IQR;
  - the median raw CPU seconds per side, read from perfbench's stderr
    ("measured X s host" of the untraced Laplace runs): the scaled
    metrics move with perfbench's speed probe, the raw seconds do not.
    The KV workload prints its serving time only at reference speed, so
    it has no raw counterpart of host_s and reads n/a;
  - the failed share of operations per side.

--log writes one JSON record per invocation (side, seed, result line and
stderr lines); --replay summarises such a file without running anything.
Metric names, directions and the run length come from BENCHMARK.json
next to this tool.
Exits 1 when an invocation fails, 2 on a usage error.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")
RAW_PATTERN = re.compile(r"untraced run: .* measured ([0-9.]+) s host")


def end_to_end_spec(path=BENCHMARK):
    """[(name, better)] of the benchmark's end-to-end metrics."""
    spec = json.loads(Path(path).read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def command(workload, seed, path=BENCHMARK):
    """One untraced benchmark invocation, run for BENCHMARK.json's
    run_seconds."""
    seconds = json.loads(Path(path).read_text())["run_seconds"]
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def parse_seeds(text):
    """'11-20' or '3,5,8' -> list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first = int(lo)
        last = int(hi) if hi else first
        if first < 0 or last < first:
            raise ValueError(f"bad seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def raw_cpu_s(stderr_lines):
    """Median raw CPU seconds of one invocation's untraced Laplace runs,
    or None."""
    values = [float(m.group(1)) for line in stderr_lines
              if (m := RAW_PATTERN.search(line))]
    return statistics.median(values) if values else None


def run_one(checkout, workload, seed):
    """One invocation of the benchmark; returns its record."""
    proc = subprocess.run(command(workload, seed), cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"seed": seed, "result": result,
            "stderr": proc.stderr.splitlines()}


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def metric(record, name):
    return record["result"]["metrics"][name]["value"]


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def summarize(records, named, spec, out=sys.stdout):
    """Prints the summary of `records` (dicts with a `side`); returns the
    change's win count on `named`."""
    by_side = {s: [r for r in records if r["side"] == s] for s in SIDES}
    failed = [r for r in records if r["result"] is None]
    if failed:
        for r in failed:
            print(f"{r['side']} seed {r['seed']}: invocation failed",
                  file=out)
        return None
    directions = dict(spec)
    if named not in directions:
        raise ValueError(f"{named} is not an end-to-end metric")

    seeds = [r["seed"] for r in by_side["parent"]]
    print(f"{len(seeds)} pairs; {named} per pair (parent -> change):",
          file=out)
    wins = 0
    for p, c in zip(by_side["parent"], by_side["change"]):
        a, b = metric(p, named), metric(c, named)
        won = better(b, a, directions[named])
        wins += won
        print(f"  seed {p['seed']:>4}: {a:.6g} -> {b:.6g}"
              f"{'  change wins' if won else ''}", file=out)

    print(f"{'metric':<16}{'parent median [IQR]':>28}"
          f"{'change median [IQR]':>28}", file=out)
    for name, _ in spec:
        cols = []
        for side in SIDES:
            q1, med, q3 = quartiles([metric(r, name) for r in by_side[side]])
            cols.append(f"{med:.6g} [{q3 - q1:.3g}]")
        print(f"{name:<16}{cols[0]:>28}{cols[1]:>28}", file=out)

    q1, parent_med, q3 = quartiles(
        [metric(r, named) for r in by_side["parent"]])
    change_med = quartiles([metric(r, named) for r in by_side["change"]])[1]
    gain = (parent_med - change_med if directions[named] == "lower"
            else change_med - parent_med)
    print(f"{named}: change won {wins} of {len(seeds)} pairs; median "
          f"{parent_med:.6g} -> {change_med:.6g}, gain {gain:.4g} vs "
          f"parent IQR {q3 - q1:.4g}: "
          f"{'beyond' if gain > q3 - q1 else 'within'} the IQR", file=out)

    for side in SIDES:
        raw = [v for r in by_side[side]
               if (v := raw_cpu_s(r["stderr"])) is not None]
        raw_text = f"{statistics.median(raw):.4g} s" if raw else "n/a"
        attempted = sum(r["result"]["attempted"] for r in by_side[side])
        fails = sum(r["result"]["failed"] for r in by_side[side])
        print(f"{side}: median raw CPU {raw_text}; failed {fails} of "
              f"{attempted} operations", file=out)
    return wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seeds")
    ap.add_argument("--metric", default="host_s")
    ap.add_argument("--log", type=Path)
    ap.add_argument("--replay", type=Path)
    args = ap.parse_args()
    spec = end_to_end_spec()

    if args.replay is not None:
        records = [json.loads(line)
                   for line in args.replay.read_text().splitlines() if line]
    else:
        if None in (args.parent, args.change, args.workload, args.seeds):
            ap.error("--parent, --change, --workload and --seeds are "
                     "required without --replay")
        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as e:
            ap.error(str(e))
        records = []
        log = open(args.log, "w") if args.log else None
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                rec = dict(side=side, **run_one(checkout, args.workload,
                                                seed))
                records.append(rec)
                if log:
                    log.write(json.dumps(rec) + "\n")
                    log.flush()
        if log:
            log.close()
    try:
        wins = summarize(records, args.metric, spec)
    except ValueError as e:
        ap.error(str(e))
    return 1 if wins is None else 0


if __name__ == "__main__":
    sys.exit(main())
