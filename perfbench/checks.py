"""Correctness checks applied to every benchmark invocation.

A run counts an invocation as failed when it raised, exited with another
code than 0, printed a FAIL line, or wrote output that fails the checks
below.  On the default seed the first deck's outputs are also compared
with reference outputs stored in ``reference/``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Agreement asked of numeric outputs against the stored references:
# |a - b| <= REL_TOL * max(1, |a|, |b|).  The unit floor keeps round-off
# residuals (measured values near 1e-16) from demanding bit equality.
REL_TOL = 1e-13

# Physical checks on integrated spiral traces.  Spirals solve the flow, so
# the stored positions follow the closed form, and delta_3 = -1 holds on
# every curve; the tolerances sit orders above RK4 error at the step sizes
# used and orders below any wrong answer.
POSITION_TOL = 1e-6
DELTA3_TOL = 1e-8


def trace_columns(n):
    """Column count of a quantity trace in dimension ``n``."""
    c2, c3, c4 = math.comb(n, 2), math.comb(n, 3), math.comb(n, 4)
    # t, x, H, E_D, E_T, E_R, E_S, F_T, F_R, F_D, F_S, Q families, 6 invariants
    return 1 + n + 2 + n + c2 + n + n + c2 + 1 + n + (c2 + 2 * c3 + c4) + 6


def problems(inv, outcome):
    """Reasons the outcome of ``inv`` is wrong; empty when it is correct."""
    if outcome.error:
        return [f"raised {outcome.error.strip().splitlines()[-1]}"]
    if outcome.code != 0:
        return [f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}"]
    if any(line.startswith("FAIL") for line in outcome.stdout.splitlines()):
        return ["printed a FAIL line"]
    if not outcome.data:
        return ["wrote no output file"]
    try:
        text = outcome.data.decode()
        if inv.kind == "integrate":
            return _trace_problems(inv, text)
        return _report_problems(inv, outcome.stdout, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _trace_problems(inv, text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    n = inv.n
    width = trace_columns(n)
    out = []
    if header[: n + 1] != ["t"] + [f"x{i}" for i in range(1, n + 1)]:
        out.append(f"header starts {header[: n + 1]}")
    if len(header) != width:
        out.append(f"{len(header)} columns, expected {width}")
    if len(body) != inv.rows:
        out.append(f"{len(body)} rows, expected {inv.rows}")
    if out:
        return out
    d3 = header.index("delta3")
    for k, row in enumerate(body):
        if len(row) != width:
            return [f"row {k} has {len(row)} cells"]
        vals = [float(v) for v in row]
        if not all(math.isfinite(v) for v in vals):
            return [f"row {k} has a non-finite entry"]
        if abs(vals[d3] + 1.0) > DELTA3_TOL:
            return [f"row {k}: delta3 = {vals[d3]!r}"]
        exact = inv.spiral.position(vals[0])
        scale = 1.0 + max(abs(float(v)) for v in exact)
        err = max(abs(a - float(b)) for a, b in zip(vals[1 : n + 1], exact))
        if err > POSITION_TOL * scale:
            return [f"row {k}: position off the spiral by {err:.3e}"]
    return []


def _report_problems(inv, stdout, text):
    report = json.loads(text)
    out = []
    if report["command"] != inv.kind:
        out.append(f"report of command {report['command']!r}")
    if not report["checks"]:
        out.append("report checked nothing")
    failed = [r["name"] for r in report["checks"] if r["pass"] is not True]
    if failed:
        out.append(f"checks failed: {failed}")
    if report["pass"] is not True or not stdout.rstrip().endswith(f"{inv.kind}: PASS"):
        out.append("report does not pass")
    return out


# ---------------------------------------------------------------- reference


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def write_reference(workload, seed, items):
    """Store ``[(argv, output_text), ...]`` of the first deck."""
    payload = {
        "workload": workload,
        "seed": seed,
        "items": [{"argv": list(argv), "output": text} for argv, text in items],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    raw = json.dumps(payload, indent=0, sort_keys=True).encode()
    # mtime=0 keeps the archive byte-identical when the outputs are
    with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as fh:
        fh.write(raw)


def load_reference(workload):
    """The stored first-deck items: dicts with ``argv`` and ``output``."""
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)["items"]


def reference_problems(item, argv, text):
    """Disagreements of one output with its stored reference ``item``."""
    if item is None:
        return ["the stored reference holds another deck"]
    if item["argv"] != list(argv):
        return ["generated argv differs from the reference"]
    diff = compare_outputs(item["output"], text)
    return [f"differs from the reference at {diff}"] if diff else []


def compare_outputs(expected, got):
    """First disagreement between two CSV traces or two JSON reports, or
    None when every number agrees to REL_TOL and everything else is equal."""
    if expected.lstrip().startswith("{"):
        return _compare_json(json.loads(expected), json.loads(got), "$")
    exp_rows = list(csv.reader(io.StringIO(expected)))
    got_rows = list(csv.reader(io.StringIO(got)))
    if exp_rows[0] != got_rows[0]:
        return "header differs"
    if len(exp_rows) != len(got_rows):
        return f"{len(got_rows)} rows, reference has {len(exp_rows)}"
    for r, (a_row, b_row) in enumerate(zip(exp_rows[1:], got_rows[1:]), start=1):
        if len(a_row) != len(b_row):
            return f"row {r} length differs"
        for col, a, b in zip(exp_rows[0], a_row, b_row):
            if not _close(float(a), float(b)):
                return f"row {r} column {col}: {b} vs reference {a}"
    return None


def _compare_json(a, b, where):
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return None if a == b else f"{where}: {b!r} vs reference {a!r}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return None if _close(float(a), float(b)) else f"{where}: {b!r} vs reference {a!r}"
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            diff = _compare_json(x, y, f"{where}[{k}]")
            if diff:
                return diff
        return None
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            diff = _compare_json(a[key], b[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    return None if a == b else f"{where}: {b!r} vs reference {a!r}"


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
