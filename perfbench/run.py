#!/usr/bin/env python3
"""Seeded benchmark of the confcurves command-line interface.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run fails (exit 1, no result) when
that source is missing.  One closed-loop client calls ``cli.main(argv)``
in this process, one invocation after another, on argv lists generated
from the seed (see ``workloads.py``).  Every output is checked
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times whole decks for about ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the first deck once untraced and
once under the layer tracer (``tracer.py``), checks that both give the same
bytes, and reports the per-layer metrics.  Diagnostics, the environment and
the spans go to ``.perfbench_out/`` in the checkout.

``--write-reference`` regenerates ``reference/<workload>.json.gz`` from the
first deck of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracer import JET_ELEMENTARY, JET_MUL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0

# Fresh interpreters started to time import + parser construction.  One
# untimed start first writes the bytecode caches; the timed ones are spread
# evenly over the run, so their median sees the same machine as the
# invocations do and not just its state at one moment.
SETUP_RUNS = 11
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import confcurves.cli
confcurves.cli.build_parser()
elapsed = time.perf_counter() - start
if not confcurves.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported confcurves from " + confcurves.cli.__file__)
print(repr(elapsed))
"""

PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass
class Outcome:
    wall: float
    code: object
    stdout: str
    stderr: str
    data: bytes
    error: str | None

    def same_bytes(self, other):
        return (self.code, self.stdout, self.data) == (other.code, other.stdout, other.data)


class Runner:
    """Calls ``cli.main`` in-process and counts what it attempted."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, inv):
        out = self.workdir / f"out{inv.out_suffix}"
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([*inv.argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            error = traceback.format_exc()
        wall = perf_counter() - start
        data = out.read_bytes() if out.exists() else b""
        return Outcome(wall, code, stdout.getvalue(), stderr.getvalue(), data, error)

    def run(self, inv, same_as=None):
        """Call, check and count one invocation; ``same_as`` is an earlier
        outcome of the same argv whose bytes it must reproduce.  Returns
        (outcome, ok)."""
        outcome = self.call(inv)
        found = checks.problems(inv, outcome)
        if same_as is not None and not outcome.same_bytes(same_as):
            found.append("rerun is not byte-identical")
        self.attempted += 1
        self.fail(inv, found)
        return outcome, not found

    def fail(self, inv, found):
        """Count ``inv`` as failed for the reasons ``found``, if any."""
        if found:
            self.failed += 1
            self.problems.append(f"{' '.join(inv.argv)}: {'; '.join(found)}")


def import_cli():
    if not (SRC / "confcurves" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("confcurves.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported confcurves from {cli.__file__}")
    return cli


def measure_setup():
    """Seconds for a fresh interpreter to import the CLI and build its
    parser."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def tail_percentile(samples):
    """Highest of PERCENTILES with at least ten samples above it."""
    best = None
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(samples, p)))
    return best


def environment(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_reference(runner, args, first_deck):
    """On the default seed, compare the first deck's outputs with the stored
    ones; ``first_deck`` holds (invocation, outcome, ok) triples."""
    if args.seed != DEFAULT_SEED or args.size != "full":
        return
    reference = checks.load_reference(args.workload)
    if len(reference) != len(first_deck):
        reference = [None] * len(first_deck)
    for item, (inv, outcome, ok) in zip(reference, first_deck):
        if ok:
            runner.fail(inv, checks.reference_problems(item, inv.argv, outcome.data.decode()))


def run_end_to_end(runner, args):
    measure_setup()  # writes the bytecode caches
    setups = []
    first = workloads.deck(args.workload, args.seed, 0, args.size)
    warm, _ = runner.run(first[0])  # fills caches; the timed rerun must match its bytes
    walls, units = [], 0
    first_deck = []
    index = 0
    start = perf_counter()
    while True:
        for k, inv in enumerate(workloads.deck(args.workload, args.seed, index, args.size)):
            outcome, ok = runner.run(inv, warm if index == k == 0 else None)
            walls.append(outcome.wall)
            units += inv.units if ok else 0
            if index == 0:
                first_deck.append((inv, outcome, ok))
            if len(setups) < SETUP_RUNS * (perf_counter() - start) / args.seconds:
                setups.append(measure_setup())
        index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / index > args.seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(measure_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_reference(runner, args, first_deck)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s.p50": (statistics.median(walls), "s"),
        "throughput": (units / sum(walls), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    tail = tail_percentile(walls)
    diagnostics = {
        "invocations": len(walls),
        "decks": index,
        "measured_s": elapsed,
        "fail_rate": runner.failed / runner.attempted,
        "throughput_unit": workloads.WORK_UNITS[args.workload],
        "wall_s.tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "walls_s": walls,  # in the result file only
    }
    return metrics, diagnostics


def run_traced(runner, args):
    first = workloads.deck(args.workload, args.seed, 0, args.size)
    runner.run(first[0])  # warm-up, untimed
    plain = [runner.run(inv) for inv in first]
    tracer = Tracer(importlib.import_module("confcurves"))
    with tracer:
        traced = []
        for k, (inv, (untraced, _)) in enumerate(zip(first, plain)):
            tracer.invocation = k
            traced.append(runner.run(inv, same_as=untraced)[0])
    check_reference(runner, args, [(inv, out, ok) for inv, (out, ok) in zip(first, plain)])
    untraced_wall = sum(out.wall for out, _ in plain)
    traced_wall = sum(out.wall for out in traced)

    samples = sum(inv.samples for inv in first)
    rk4_steps = sum(inv.rk4_steps for inv in first)
    built = tracer.calls["jets.JetScalar.__init__"]
    gram_calls = tracer.calls["tractors.gram_invariants"]
    integrate_s = tracer.self_s["mercator.integrate"]
    sx = tracer.self_s
    metrics = {
        "jets.scalar.built": (built, "count"),
        "jets.mul.calls": (tracer.sum_calls(*(f"jets.JetScalar.{m}" for m in JET_MUL)), "count"),
        "jets.elementary.calls": (
            tracer.sum_calls(*(f"jets.JetScalar.{m}" for m in JET_ELEMENTARY)), "count"),
        "jets.self_s": (tracer.layer_self_s("jets"), "s"),
        "jets.scalar.built_per_sample": (built / samples, "count"),
        "tractors.self_s": (tracer.layer_self_s("tractors"), "s"),
        "tractors.gram_invariants.calls": (gram_calls, "count"),
        "tractors.gram_invariants.self_s": (sx["tractors.gram_invariants"], "s"),
        "tractors.canonical_tractor_jets.self_s": (sx["tractors.canonical_tractor_jets"], "s"),
        "tractors.kappa1.self_s": (sx["tractors.kappa1"], "s"),
        "tractors.q_quantities.self_s": (sx["tractors.q_quantities"], "s"),
        "tractors.parallel_defect.self_s": (sx["tractors.parallel_defect"], "s"),
        "tractors.enforce_alpha1_stationary.self_s": (
            sx["tractors.enforce_alpha1_stationary"], "s"),
        "tractors.gram_per_row": (gram_calls / samples, "ratio"),
        "mercator.self_s": (tracer.layer_self_s("mercator"), "s"),
        "mercator.integrate.self_s": (integrate_s, "s"),
        "mercator.rk4_steps": (rk4_steps, "count"),
        "mercator.rk4_step_us": (1e6 * integrate_s / rk4_steps if rk4_steps else 0.0, "us"),
        "mercator.solution_jet.calls": (tracer.calls["mercator.solution_jet"], "count"),
        "mercator.solution_jet.self_s": (sx["mercator.solution_jet"], "s"),
        "mercator.pointwise.self_s": (tracer.sum_self_s(
            "mercator.mercator_C", "mercator.phase_from_jet", "mercator.hamiltonian"), "s"),
        "multilinear.self_s": (tracer.layer_self_s("multilinear"), "s"),
        "multilinear.epsilon.calls": (tracer.calls["multilinear.epsilon"], "count"),
        "multilinear.epsilon.self_s": (sx["multilinear.epsilon"], "s"),
        "multilinear.wedge.self_s": (tracer.sum_self_s(
            "multilinear.wedge", "multilinear.rho_wedge", "multilinear.wedge_pair"), "s"),
        "multilinear.antisymmetrize.self_s": (sx["multilinear.antisymmetrize"], "s"),
        "symmetries.self_s": (tracer.layer_self_s("symmetries"), "s"),
        "symmetries.quantity_identities.self_s": (sx["symmetries.quantity_identities"], "s"),
        "symmetries.q_phase.self_s": (sx["symmetries.q_phase"], "s"),
        "symmetries.e_quantities.self_s": (sx["symmetries.e_quantities"], "s"),
        "symmetries.f_closed.self_s": (sx["symmetries.f_closed"], "s"),
        "symmetries.f_generic.self_s": (sx["symmetries.f_generic"], "s"),
        "families.jet.calls": (tracer.calls["families.jet"], "count"),
        "families.jet.self_s": (sx["families.jet"], "s"),
        "curves.self_s": (tracer.layer_self_s("curves"), "s"),
        "curves.curvejet.built": (tracer.calls["curves.CurveJet.__init__"], "count"),
        "cli.self_s": (sx["cli.main"], "s"),
        "cli.bytes_written": (sum(len(o.stdout.encode()) + len(o.data) for o in traced), "bytes"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
        "trace.spans": (tracer.span_count, "count"),
    }
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    diagnostics = {
        "invocations": len(first),
        "samples": samples,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, diagnostics


def write_reference(runner, args):
    first = workloads.deck(args.workload, DEFAULT_SEED, 0, "full")
    items = []
    for inv in first:
        outcome, ok = runner.run(inv)
        if not ok:
            raise SystemExit(f"perfbench: reference run failed: {runner.problems[-1]}")
        items.append((inv.argv, outcome.data.decode()))
    checks.write_reference(args.workload, DEFAULT_SEED, items)
    print(f"wrote {checks.reference_path(args.workload)} ({len(items)} invocations)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny shrinks every invocation, for smoke tests")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(cli, workdir)
    try:
        if args.write_reference:
            write_reference(runner, args)
            return 0
        if args.trace:
            metrics, diagnostics = run_traced(runner, args)
        else:
            metrics, diagnostics = run_end_to_end(runner, args)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    for line in runner.problems:
        print(f"FAILED {line}", file=sys.stderr)
    env = environment(args)
    detail = {"env": env, "diagnostics": diagnostics,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "problems": runner.problems}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:.6g} {unit}")
    brief = {k: v for k, v in diagnostics.items() if k != "walls_s"}
    print("diagnostics " + json.dumps(brief, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
