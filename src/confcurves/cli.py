"""Command-line front end.

Subcommands:

* ``verify``     -- run the invariant suite of a closed-form family
* ``integrate``  -- RK4 trajectory of the Hamiltonian flow with a
  conserved-quantity trace
* ``relations``  -- check the algebraic identities at seeded random points
* ``quantities`` -- tabulate all quantities along a closed-form family

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 runtime velocity degeneracy.  Output is byte-identical for identical
configuration and seed.  The environment variable ``CONFCURVES_OUTDIR``
supplies the default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import families, mercator, symmetries, tractors
from .multilinear import epsilon, tractor_metric_pair
from .curves import CurveJet, DegenerateVelocityError
from .mercator import FlowDegeneracyError, PhasePoint
from .tractors import UndefinedInvariantError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

OUTDIR_ENV = "CONFCURVES_OUTDIR"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors, reported in one
    line, instead of a usage message and ``SystemExit``."""

    def error(self, message):
        raise ConfigError(message)


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def _parse_vector(text, name):
    try:
        values = np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{name}: expected comma-separated reals, got {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name}: expected finite reals, got {text!r}")
    return values


def _resolve_out(path):
    if path is None:
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


class CheckList:
    """Accumulates (name, measured, tolerance) records and prints one
    PASS/FAIL line per check."""

    def __init__(self, tolerances=None):
        self.records = []
        self.overrides = tolerances or {}

    def add(self, name, measured, tolerance):
        tolerance = float(self.overrides.get(name, tolerance))
        measured = float(measured)
        ok = bool(measured <= tolerance)
        self.records.append(
            {"name": name, "measured": measured, "tolerance": tolerance, "pass": ok}
        )
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: measured {measured:.3e} vs tolerance {tolerance:.3e}")

    def add_range(self, name, measured, lo, hi):
        if name in self.overrides:
            raise ConfigError(f"tol: {name} is a range check and takes no override")
        measured = float(measured)
        ok = bool(lo <= measured <= hi)
        self.records.append(
            {"name": name, "measured": measured, "tolerance": [lo, hi], "pass": ok}
        )
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: measured {measured:.6g} vs range [{lo}, {hi}]")

    @property
    def ok(self):
        return all(r["pass"] for r in self.records)

    def require_checked(self):
        """Reject a run that recorded no check, and a tolerance override
        that names no recorded check."""
        if not self.records:
            raise ConfigError("nothing checked: every check is vacuous for this configuration")
        unknown = sorted(set(self.overrides) - {r["name"] for r in self.records})
        if unknown:
            raise ConfigError(f"tol: no recorded check named {', '.join(unknown)}")


def _build_family(args):
    kind = args.family
    if kind is None:
        raise ConfigError("family: required")
    n = args.n
    try:
        if kind == "spiral" or kind == "tspiral":
            for field in ("p0", "q0", "r0"):
                if getattr(args, field) is None:
                    raise ConfigError(f"{field}: required for family {kind}")
            p0 = _parse_vector(args.p0, "p0")
            q0 = _parse_vector(args.q0, "q0")
            r0 = _parse_vector(args.r0, "r0")
            if n is not None and p0.size != n:
                raise ConfigError(f"p0: dimension {p0.size} != n = {n}")
            if args.c is None:
                raise ConfigError("c: required for spiral families")
            spiral = families.LogSpiral(args.c, p0, q0, r0)
            if kind == "spiral":
                return spiral
            if args.b is None:
                raise ConfigError("b: required for family tspiral")
            return families.TransformedSpiral(spiral, _parse_vector(args.b, "b"))
        if kind == "circle":
            for field in ("x0", "u0", "a0"):
                if getattr(args, field) is None:
                    raise ConfigError(f"{field}: required for family circle")
            x0 = _parse_vector(args.x0, "x0")
            u0 = _parse_vector(args.u0, "u0")
            a0 = _parse_vector(args.a0, "a0")
            if n is not None and x0.size != n:
                raise ConfigError(f"x0: dimension {x0.size} != n = {n}")
            return families.Circle(x0, u0, a0)
    except families.FamilyError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"family: unknown kind {kind!r}")


def _sample_times(args):
    t0 = args.t0 if args.t0 is not None else -1.0
    t1 = args.t1 if args.t1 is not None else 1.0
    if not t1 > t0:
        raise ConfigError(f"window: need t1 > t0, got [{t0}, {t1}]")
    return np.linspace(t0, t1, args.samples)


def _family_jets(family, times):
    """Jets at ``times``; a time the family cannot be evaluated at (float
    overflow under ``main``'s error state, a vanishing transform
    denominator) is a config error."""
    jets = []
    for t in map(float, times):
        try:
            jets.append(family.jet(t))
        except DegenerateVelocityError:
            raise
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"window: cannot evaluate the family at t = {t:g}: {exc}") from exc
    return jets


def _spread(values):
    values = np.asarray(values, dtype=float)
    scale = 1.0 + float(np.max(np.abs(values)))
    return float(values.max() - values.min()) / scale


def _random_fields(n, seed):
    rng = np.random.default_rng(seed)
    rot = np.zeros((n, n))
    rot[0, 1] = 1.0
    rot[1, 0] = -1.0
    return [
        symmetries.KillingField(n, T=rng.uniform(-1, 1, n)),
        symmetries.KillingField(n, R=rot),
        symmetries.KillingField(n, a=float(rng.uniform(0.5, 1.5))),
        symmetries.KillingField(n, S=rng.uniform(-1, 1, n)),
    ]


# ---------------------------------------------------------------- verify


def _verify_spiral(spiral, times, checks, seed):
    c = spiral.c
    p2 = float(spiral.p0 @ spiral.p0)
    jets = _family_jets(spiral, times)
    _, delta4_probe = tractors.closed_form_alpha1_delta4(jets[0])
    if tractors.is_conformal_circle(delta4_probe, c**2 - 1.0):
        raise ConfigError(
            "c: the fourth invariant vanishes for this pitch, outside the spiral class"
        )
    grams = [tractors.gram_invariants(j, 5) for j in jets]
    checks.add("delta3_is_minus_one", max(abs(g.delta3 + 1.0) for g in grams), 1e-9)
    checks.add("delta4_matches_pitch", max(abs(g.delta4 + c**2) for g in grams), 1e-8)
    checks.add(
        "delta5_vanishes_rel",
        max(abs(g.delta5) / max(1.0, g.gram_scale(5)) ** 5 for g in grams),
        1e-6,
    )
    checks.add("alpha1_matches", max(abs(g.alpha1 - (c**2 - 1.0)) for g in grams), 1e-9)
    checks.add(
        "alpha2_matches", max(abs(g.alpha2 - (c**4 - c**2 + 1.0)) for g in grams), 1e-9
    )
    checks.add(
        "flow_vector_vanishes",
        max(float(np.max(np.abs(mercator.mercator_C(j)))) for j in jets),
        1e-10,
    )
    qs = [tractors.q_quantities(j) for j in jets]
    spread = max(_spread([q[k] for q in qs]) for k in qs[0])
    checks.add("q_constant_along_curve", spread, 1e-8)
    n = spiral.dim
    worst = 0.0
    for i, j in itertools.combinations(range(1, n + 1), 2):
        expected = c / p2 * epsilon((i, j), spiral.p0, spiral.q0)
        worst = max(worst, abs(qs[0][(0, i, j, n + 1)] - expected))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        expected = c / p2 * epsilon((i, j, k), spiral.p0, spiral.q0, spiral.r0)
        worst = max(worst, abs(qs[0][(0, i, j, k)] - expected))
        worst = max(worst, abs(qs[0][(i, j, k, n + 1)]))
    checks.add("q_matches_spiral_values", worst, 1e-9)
    worst_square = worst_match = 0.0
    for t, j in zip(times, jets):
        closed = spiral.acceleration_tractor(float(t))
        piped = tractors.canonical_tractors(j, 3)[2]
        worst_square = max(worst_square, abs(tractor_metric_pair(closed, closed) - (c**2 - 1.0)))
        worst_match = max(worst_match, float(np.max(np.abs(closed - piped))))
    checks.add("acceleration_tractor_square", worst_square, 1e-10)
    checks.add("acceleration_tractor_matches_pipeline", worst_match, 1e-10)
    kappas = [g.kappa1() for g in grams]
    checks.add(
        "kappa1_matches", max(abs(k + (c**2 - 1.0) / (2 * c)) for k in kappas), 1e-8
    )
    checks.add("kappa1_constant", _spread(kappas), 1e-8)
    _verify_noether(jets, checks, seed)
    hs = [mercator.hamiltonian(mercator.phase_from_jet(j)) for j in jets]
    checks.add("hamiltonian_constant", _spread(hs), 1e-9)
    worst = 0.0
    for t, j in zip(times, jets):
        U, A, Ap = spiral.closed_derivatives(float(t))
        scale = 1.0 + max(np.max(np.abs(U)), np.max(np.abs(A)), np.max(np.abs(Ap)))
        worst = max(
            worst,
            max(
                float(np.max(np.abs(j.U - U))),
                float(np.max(np.abs(j.A - A))),
                float(np.max(np.abs(j.Ap - Ap))),
            )
            / scale,
        )
    checks.add("jet_matches_closed_derivatives", worst, 1e-12)


def _verify_noether(jets, checks, seed):
    n = jets[0].dim
    worst_agree = 0.0
    worst_spread = 0.0
    bases = [symmetries.noether_basis(j) for j in jets]
    for field in _random_fields(n, seed):
        closed = [field.pair(basis) for basis in bases]
        generic = [symmetries.f_generic(field, j) for j in jets]
        worst_agree = max(
            worst_agree,
            max(abs(a - b) for a, b in zip(closed, generic))
            / (1.0 + max(abs(v) for v in closed)),
        )
        worst_spread = max(worst_spread, _spread(closed))
    checks.add("noether_generic_matches_closed", worst_agree, 1e-9)
    checks.add("noether_constant_along_curve", worst_spread, 1e-8)


def _verify_circle(circle, times, checks, seed):
    jets = _family_jets(circle, times)
    checks.add(
        "circle_residual",
        max(float(np.max(np.abs(mercator.circle_residual(j)))) for j in jets),
        1e-10,
    )
    grams = [tractors.gram_invariants(j, 4) for j in jets]
    checks.add("delta3_is_minus_one", max(abs(g.delta3 + 1.0) for g in grams), 1e-9)
    checks.add("delta4_vanishes", max(abs(g.delta4) for g in grams), 1e-9)
    mid = float(times[len(times) // 2])
    defects = [
        tractors.parallel_defect(lambda s: circle.jet(s, 4), mid, h, count=3)
        for h in (0.02, 0.01)
    ]
    order = math.log2(defects[0] / defects[1]) if defects[1] > 0 else 2.0
    checks.add_range("t3_parallel_decay_order", order, 1.6, 2.4)
    qs = [tractors.q_circle_quantities(j) for j in jets]
    spread = max(_spread([q[k] for q in qs]) for k in qs[0])
    checks.add("circle_q_constant", spread, 1e-9)
    _verify_noether(jets, checks, seed)


def _verify_tspiral(tspiral, times, checks, seed):
    c = tspiral.base.c
    jets = _family_jets(tspiral, times)
    _, delta4_probe = tractors.closed_form_alpha1_delta4(jets[0])
    if tractors.is_conformal_circle(delta4_probe, c**2 - 1.0):
        raise ConfigError("c: the fourth invariant vanishes, outside the spiral class")
    report = tspiral.conserved_report()
    Cs = [mercator.mercator_C(j) for j in jets]
    checks.add(
        "flow_vector_constant",
        max(float(np.max(np.abs(C - Cs[0]))) for C in Cs) / (1.0 + float(np.max(np.abs(Cs[0])))),
        1e-9,
    )
    checks.add(
        "flow_vector_matches_report",
        float(np.max(np.abs(Cs[0] + report.E_T))) / (1.0 + float(np.max(np.abs(report.E_T)))),
        1e-9,
    )
    grams = [tractors.gram_invariants(j, 5) for j in jets]
    checks.add("delta4_matches_pitch", max(abs(g.delta4 + c**2) for g in grams), 1e-8)
    checks.add(
        "delta5_vanishes_rel",
        max(abs(g.delta5) / max(1.0, g.gram_scale(5)) ** 5 for g in grams),
        1e-6,
    )
    qs = [tractors.q_quantities(j) for j in jets]
    spread = max(_spread([q[k] for q in qs]) for k in qs[0])
    checks.add("q_constant_along_curve", spread, 1e-8)
    basis = symmetries.noether_basis(jets[0])
    worst = 0.0
    for field in _random_fields(tspiral.dim, seed):
        reported = field.pair(report)
        worst = max(worst, abs(field.pair(basis) - reported) / (1.0 + abs(reported)))
    checks.add("noether_matches_report", worst, 1e-9)
    _verify_noether(jets, checks, seed)
    hs = [mercator.hamiltonian(mercator.phase_from_jet(j)) for j in jets]
    checks.add("hamiltonian_constant", _spread(hs), 1e-9)


def cmd_verify(args):
    family = _build_family(args)
    times = _sample_times(args)
    checks = CheckList(args.tolerances)
    if isinstance(family, families.LogSpiral):
        _verify_spiral(family, times, checks, args.seed)
    elif isinstance(family, families.Circle):
        _verify_circle(family, times, checks, args.seed)
    else:
        _verify_tspiral(family, times, checks, args.seed)
    _write_report(args, "verify", checks)
    print("verify:", "PASS" if checks.ok else "FAIL")
    return EXIT_PASS if checks.ok else EXIT_FAIL


def _write_report(args, command, checks, extra=None):
    checks.require_checked()
    out = _resolve_out(args.out)
    payload = {
        "command": command,
        "config": _config_echo(args),
        "checks": checks.records,
        "pass": checks.ok,
    }
    if extra:
        payload.update(extra)
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")


def _config_echo(args):
    # out/config paths do not affect results and would break byte-identical
    # reruns redirected to different files
    skip = {"func", "tolerances", "out", "config"}
    echo = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        echo[key] = val
    echo["tolerance_overrides"] = {k: v for k, v in (args.tolerances or {}).items()}
    return echo


# ------------------------------------------------------------- quantities


def _quantity_columns(n):
    cols = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    cols += ["H", "E_D"]
    cols += [f"E_T_{i}" for i in range(1, n + 1)]
    cols += [f"E_R_{i}{j}" for i, j in itertools.combinations(range(1, n + 1), 2)]
    cols += [f"E_S_{i}" for i in range(1, n + 1)]
    cols += [f"F_T_{i}" for i in range(1, n + 1)]
    cols += [f"F_R_{i}{j}" for i, j in itertools.combinations(range(1, n + 1), 2)]
    cols += ["F_D"]
    cols += [f"F_S_{i}" for i in range(1, n + 1)]
    cols += [_q_column(key, n) for key in tractors.q_keys(n)]
    cols += ["delta3", "delta4", "delta5", "alpha1", "alpha2", "kappa1"]
    return cols


def _q_column(key, n):
    fam = tractors.quantity_family(key, n)
    digits = "".join(str(a) for a in key if 0 < a <= n)
    return f"Q_{fam}_{digits}"


def _quantity_row(t, jet):
    n = jet.dim
    p = mercator.phase_from_jet(jet)
    e = symmetries.e_quantities(p)
    row = [t] + list(jet.X)
    row += [mercator.hamiltonian(p), e.E_D]
    row += list(e.E_T)
    row += list(e.rotation_pairs().values())
    row += list(e.E_S)
    f = symmetries.noether_basis(jet)
    row += list(f.E_T)
    row += list(f.rotation_pairs().values())
    row.append(f.E_D)
    row += list(f.E_S)
    q = tractors.q_quantities(jet)
    row += [q[key] for key in tractors.q_keys(n)]
    if jet.order >= 5:
        g = tractors.gram_invariants(jet, 5)
        delta5 = g.delta5
    else:
        g = tractors.gram_invariants(jet, 4)
        delta5 = float("nan")
    row += [g.delta3, g.delta4, delta5, g.alpha1, g.alpha2]
    try:
        row.append(g.kappa1())
    except (UndefinedInvariantError, ValueError):
        row.append(float("nan"))
    return row


def _write_table(path, columns, rows, fmt):
    if fmt == "json":
        payload = {
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_quantities(args):
    family = _build_family(args)
    times = _sample_times(args)
    if args.out is None:
        raise ConfigError("out: required for quantities")
    rows = [_quantity_row(float(t), j) for t, j in zip(times, _family_jets(family, times))]
    columns = _quantity_columns(family.dim)
    out = _resolve_out(args.out)
    _write_table(out, columns, rows, args.format)
    print(f"quantity trace with {len(rows)} samples written to {out}")
    return EXIT_PASS


# -------------------------------------------------------------- integrate


def _initial_phase(args):
    if args.family is not None:
        family = _build_family(args)
        t0 = args.t0 if args.t0 is not None else 0.0
        return mercator.phase_from_jet(_family_jets(family, [t0])[0])
    if any(getattr(args, k) is None for k in ("x", "u", "p", "r")):
        raise ConfigError("initial point: give either --family or all of --x --u --p --r")
    try:
        return PhasePoint(
            _parse_vector(args.x, "x"),
            _parse_vector(args.u, "u"),
            _parse_vector(args.p, "p"),
            _parse_vector(args.r, "r"),
        )
    except DegenerateVelocityError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_integrate(args):
    p0 = _initial_phase(args)
    if args.out is None:
        raise ConfigError("out: required for integrate")
    degenerate = None
    try:
        traj = mercator.integrate(p0, args.t_end, args.h, args.store_every)
    except FlowDegeneracyError as exc:
        degenerate = exc
        traj = exc.trajectory
    rows = []
    for k in range(len(traj)):
        point = traj.phase_point(k)
        jet = mercator.solution_jet(point, order=6)
        rows.append([traj.ts[k]] + _quantity_row(0.0, jet)[1:])
    columns = _quantity_columns(traj.dim)
    out = _resolve_out(args.out)
    _write_table(out, columns, rows, args.format)
    data = np.array(rows, dtype=float)
    print(f"trace with {len(rows)} samples written to {out}")
    print("max relative drift per conserved column:")
    for idx, name in enumerate(columns):
        if name == "t" or name.startswith("x") or name.startswith("delta") or name in (
            "alpha1",
            "alpha2",
            "kappa1",
        ):
            continue
        col = data[:, idx]
        if np.any(np.isnan(col)):
            continue
        drift = float(np.max(np.abs(col - col[0]))) / (1.0 + abs(float(col[0])))
        print(f"  {name}: {drift:.3e}")
    if degenerate is not None:
        print(f"velocity degenerated at t = {degenerate.t:.6g}; trace is partial")
        return EXIT_DEGENERATE
    return EXIT_PASS


# -------------------------------------------------------------- relations


def _random_phase_points(rng, n, count):
    points = []
    while len(points) < count:
        y = rng.uniform(-1.0, 1.0, 4 * n)
        if float(y[n : 2 * n] @ y[n : 2 * n]) >= 0.1:
            points.append(PhasePoint.from_flat(y, n))
    return points


def cmd_relations(args):
    if args.n is None:
        raise ConfigError("n: required for relations")
    n = args.n
    rng = np.random.default_rng(args.seed)
    checks = CheckList(args.tolerances)
    if args.jet_identity:
        worst = 0.0
        for _ in range(args.samples):
            derivs = [rng.uniform(-1, 1, n) for _ in range(5)]
            while float(derivs[1] @ derivs[1]) < 0.1:
                derivs[1] = rng.uniform(-1, 1, n)
            jet = tractors.enforce_alpha1_stationary(
                CurveJet.from_derivatives(0.0, derivs)
            )
            res = tractors.mercator_tractor_residuals(jet)
            scale = 1.0 + max(
                float(np.max(np.abs(res.tractor_slot))),
                float(np.max(np.abs(res.mercator_expansion))),
            )
            worst = max(worst, res.identity_defect / scale)
        checks.add("reduction_identity_defect", worst, 1e-9)
    else:
        worst = {"0ijN": 0.0, "0ijk": 0.0, "ijkN": 0.0, "ijkl": 0.0}
        for p in _random_phase_points(rng, n, args.samples):
            rep = symmetries.quantity_identities(p)
            for fam, rec in rep.items():
                worst[fam] = max(worst[fam], rec["residual"] / (1.0 + rec["scale"]))
        for fam, val in worst.items():
            count = math.comb(n, 2) if fam == "0ijN" else (
                math.comb(n, 3) if fam in ("0ijk", "ijkN") else math.comb(n, 4)
            )
            if count == 0:
                print(f"note  identity_{fam}: vacuous in dimension {n}")
                continue
            checks.add(f"identity_{fam}", val, 1e-10)
    _write_report(args, "relations", checks)
    print("relations:", "PASS" if checks.ok else "FAIL")
    return EXIT_PASS if checks.ok else EXIT_FAIL


# ------------------------------------------------------------------ main


def _add_common(p):
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", help="output path (JSON report or trace file)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="JSON config file; values override flags")


def _add_tol(p):
    p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="tolerance override of a recorded check, repeatable",
    )


def _add_family(p):
    p.add_argument("--family", choices=("spiral", "circle", "tspiral"))
    p.add_argument("--c", type=float, help="spiral pitch")
    p.add_argument("--p0", help="spiral plane vector (comma-separated)")
    p.add_argument("--q0", help="spiral plane vector (comma-separated)")
    p.add_argument("--r0", help="spiral offset vector")
    p.add_argument("--b", help="special conformal parameter (tspiral)")
    p.add_argument("--x0", help="circle base point")
    p.add_argument("--u0", help="circle initial velocity (unit)")
    p.add_argument("--a0", help="circle curvature vector (orthogonal to u0)")
    p.add_argument("--t0", type=float, help="window start (default -1)")
    p.add_argument("--t1", type=float, help="window end (default 1)")
    p.add_argument("--samples", type=int, default=21)


def build_parser():
    parser = _Parser(
        prog="confcurves",
        description="Verification suites and integration for distinguished-curve conserved quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a family invariant suite")
    _add_family(p)
    _add_common(p)
    _add_tol(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integrate", help="integrate the Hamiltonian flow")
    _add_family(p)
    _add_common(p)
    p.add_argument("--x", help="initial position")
    p.add_argument("--u", help="initial velocity")
    p.add_argument("--p", help="initial position momentum")
    p.add_argument("--r", help="initial velocity momentum")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--store-every", type=int, default=10)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("relations", help="check the algebraic identities at random points")
    _add_common(p)
    _add_tol(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument(
        "--jet-identity",
        "--appendix-c",
        dest="jet_identity",
        action="store_true",
        help="check the constrained-jet reduction identity instead",
    )
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("quantities", help="tabulate quantities along a family")
    _add_family(p)
    _add_common(p)
    p.set_defaults(func=cmd_quantities)

    return parser


def _command_flags(parser, command):
    """The flags of one subcommand, keyed by destination."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.default is not argparse.SUPPRESS}


def _config_value(key, flag, val):
    """A config value as its flag would set it; its JSON type must be the
    flag's, and ``true`` is not a number."""
    if flag.nargs == 0 or isinstance(val, bool):
        ok = flag.nargs == 0 and isinstance(val, bool)
    elif flag.type in (int, float):
        ok = isinstance(val, (flag.type, int))
    elif isinstance(flag.default, list):
        ok = isinstance(val, list) and all(isinstance(v, str) for v in val)
    else:
        ok = isinstance(val, str) and val in (flag.choices or [val])
    if not ok:
        raise ConfigError(f"config: {key}: {json.dumps(val)} does not fit flag {flag.option_strings[0]}")
    return float(val) if flag.type is float else val


def _apply_config(args, flags):
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"config: malformed JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: expected a JSON object of flag values")
        for key, val in data.items():
            flag = flags.get(key.replace("-", "_"))
            if flag is None:
                raise ConfigError(f"config: unknown key {key!r}")
            setattr(args, flag.dest, _config_value(key, flag, val))
    overrides = {}
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise ConfigError(f"tol: expected NAME=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        try:
            overrides[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"tol: bad value in {item!r}") from exc
    args.tolerances = overrides
    for names, valid, need in (
        (("n", "samples", "store_every"), lambda v: v >= 1, "at least 1"),
        (("c", "t0", "t1"), math.isfinite, "finite"),
        (("h", "t_end"), lambda v: 0 < v < math.inf, "positive and finite"),
    ):
        for name in names:
            value = getattr(args, name, None)
            if value is not None and not valid(value):
                raise ConfigError(f"{name.replace('_', '-')}: must be {need}, got {value}")
    if getattr(args, "h", None) is not None:
        # RK4 takes round(t_end / h) fixed steps; a remainder would be dropped
        steps = round(args.t_end / args.h)
        if abs(steps * args.h - args.t_end) > 1e-9 * args.t_end:
            raise ConfigError(f"t-end: {args.t_end} is not a whole number of steps of h = {args.h}")


def main(argv=None):
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            raise ConfigError(f"{args.command}: unrecognized arguments: {' '.join(unknown)}")
        _apply_config(args, _command_flags(parser, args.command))
        # an inf or nan from the inputs stops the run; underflow to 0 is a result
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OverflowError, FloatingPointError) as exc:
        print(f"config error: inputs: the run leaves the float range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FlowDegeneracyError, DegenerateVelocityError) as exc:
        print(f"runtime degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
