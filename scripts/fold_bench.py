"""Fold paired benchmark runs into one ``BENCH_<pr>.json``.

Each run of ``python3 perfbench/run.py --workload W --seed S --trace 0``
writes ``.perfbench_out/result-W-seedS-trace0.json`` in its checkout.  Copy
that file after every run into a runs directory laid out as

    RUNS/pair-01/1-parent/result-trace-seed0-trace0.json
    RUNS/pair-01/2-change/result-trace-seed0-trace0.json
    RUNS/pair-02/1-change/result-trace-seed2-trace0.json
    RUNS/pair-02/2-parent/result-trace-seed2-trace0.json
    ...

where the digit before each side says which ran first in the pair.  A pair
directory may hold one result per workload.  Then

    python3 scripts/fold_bench.py RUNS --out BENCH_10.json \\
        --parent-commit SHA --change "what the change does" \\
        --procedure "how the pairs ran"

writes the layout of the earlier ``BENCH_*.json`` files: every pair's
end-to-end metrics, and per workload and metric each side's median and
quartiles, the pairs the change won and the relative change of the medians.
Which direction is better comes from ``BENCHMARK.json``.

With ``--traced DIR``, where ``DIR/parent`` and ``DIR/change`` each hold
the ``result-W-seedS-trace1.json`` and ``spans-W-seedS.csv`` of one
``--trace 1`` run, the output also gets a ``traced`` record: per side, the
run's per-layer metrics and the call count of every span name.
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values):
    """Median and quartiles, interpolated between order statistics."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def read_pairs(runs, metric_names, workloads):
    """One record per pair and workload, in pair order, then in the order of
    ``workloads``."""
    pairs = []
    env = None
    for index, pair_dir in enumerate(sorted(runs.glob("pair-*")), start=1):
        sides = {}
        for side_dir in sorted(p for p in pair_dir.iterdir() if p.is_dir()):
            order, _, side = side_dir.name.partition("-")
            if side not in SIDES or not order.isdigit():
                raise SystemExit(f"fold_bench: unexpected directory {side_dir}")
            for path in sorted(side_dir.glob("result-*-trace0.json")):
                result = json.loads(path.read_text())
                if result["problems"]:
                    raise SystemExit(f"fold_bench: {path} reports failed invocations")
                run_env = result["env"]
                key = (run_env["workload"], run_env["seed"])
                metrics = {m: result["metrics"][m]["value"] for m in metric_names}
                sides.setdefault(key, {})[side] = (int(order), metrics)
                env = env or run_env
        for (workload, seed), by_side in sorted(sides.items(), key=lambda kv: workloads.index(kv[0][0])):
            if set(by_side) != set(SIDES):
                raise SystemExit(f"fold_bench: {pair_dir} lacks a side for {workload}")
            first = min(SIDES, key=lambda s: by_side[s][0])
            record = {"pair": index, "workload": workload, "seed": seed, "first": first}
            record.update({side: by_side[side][1] for side in SIDES})
            pairs.append(record)
    if not pairs:
        raise SystemExit(f"fold_bench: no pair-* directories with results under {runs}")
    return pairs, env


def summarize(pairs, metrics):
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        for name, better in metrics.items():
            sign = -1.0 if better == "lower" else 1.0
            parent = [p["parent"][name] for p in rows]
            change = [p["change"][name] for p in rows]
            won = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
            base, new = statistics.median(parent), statistics.median(change)
            summary[workload][name] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_better_in": f"{won}/{len(rows)}",
                "median_change_rel": (new - base) / base if base else 0.0,
            }
    return summary


def read_traced(traced):
    """Per side, the metrics of one ``--trace 1`` run and the number of spans
    of each name in its spans file."""
    record = {}
    for side in SIDES:
        paths = sorted((traced / side).glob("result-*-trace1.json"))
        if len(paths) != 1:
            raise SystemExit(f"fold_bench: {traced / side} needs exactly one traced result")
        result = json.loads(paths[0].read_text())
        spans = traced / side / Path(result["diagnostics"]["spans_file"]).name
        with open(spans, newline="") as fh:
            calls = collections.Counter(row["name"] for row in csv.DictReader(fh))
        record[side] = {
            "workload": result["env"]["workload"],
            "seed": result["env"]["seed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "span_calls": dict(sorted(calls.items())),
        }
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("runs", type=Path, help="directory of pair-*/<order>-<side>/ results")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--change", required=True, help="one line on what the change does")
    p.add_argument("--procedure", default="", help="how the pairs ran")
    p.add_argument("--host", default="", help="the machine the pairs ran on")
    p.add_argument("--traced", type=Path, help="directory of parent/ and change/ --trace 1 runs")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    pairs, env = read_pairs(args.runs, metrics, [w["name"] for w in bench["workloads"]])
    summary = summarize(pairs, metrics)
    payload = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload {{{','.join(summary)}}} --seed S "
                   f"--seconds {env['seconds']:g} --trace 0, from each checkout root",
        "procedure": args.procedure,
        "env": {k: env[k] for k in ("python", "numpy", "nproc", "machine")},
        "host": args.host,
        "summary": summary,
        "pairs": pairs,
    }
    if args.traced:
        payload["traced"] = read_traced(args.traced)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    for workload, table in payload["summary"].items():
        wall = table["wall_s.p50"]
        print(f"{workload}: wall_s.p50 {wall['parent']['median']:.4g} -> "
              f"{wall['change']['median']:.4g} s, change better in {wall['change_better_in']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
