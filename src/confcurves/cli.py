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
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import families, mercator, symmetries, tractors
from .multilinear import minors, tractor_metric_pair, wedge
from .curves import VELOCITY_FLOOR, DegenerateVelocityError, coefficients, derivatives
from .jets import _dot
from .mercator import FlowDegeneracyError
from .tractors import _parallel_minors

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

OUTDIR_ENV = "CONFCURVES_OUTDIR"
_TRACE_BUDGET = 1 << 20  # integrate's RK4 steps, and its stored rows times table columns
_RELATIONS_CELLS = 1 << 21  # relations' samples times max(n, C(n, 4)), refused before any draw
# float64 elements (8 MiB) of one plain relations chunk, 16 C(n+2, 4) per sample
_RELATIONS_BUDGET = 1 << 20
_RELATIONS_ROWS = 16  # the fewest samples of a chunk, while they fit in 8 budgets

# A circle's parallel defect at step h within PARALLEL_ROUNDOFF eps S / h of
# zero (S the largest wedge entry) is round-off.  Over 9,000 random circles
# pure round-off reached 2.5 eps S / h and orders it spoiled 7.5.  Past a
# turn h |u| kappa of PARALLEL_TURN over the larger step the defect leaves
# the h^2 law: over 6,000 random circles the order stayed in [1.93, 2.28] up
# to a turn of 0.5 and first left [1.6, 2.4] at 0.98.
PARALLEL_ROUNDOFF = 8.0
PARALLEL_TURN = 0.5


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors, reported in one
    line, instead of a usage message and ``SystemExit``."""

    def error(self, message):
        raise ConfigError(message)


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

    def _record(self, name, measured, tolerance, ok, versus):
        self.records.append({"name": name, "measured": measured, "tolerance": tolerance, "pass": ok})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: measured {versus}")

    def add(self, name, measured, tolerance):
        tolerance = float(self.overrides.get(name, tolerance))
        measured = float(measured)
        versus = f"{measured:.3e} vs tolerance {tolerance:.3e}"
        self._record(name, measured, tolerance, measured <= tolerance, versus)

    def add_range(self, name, measured, lo, hi):
        if name in self.overrides:
            raise ConfigError(f"tol: {name} is a range check and takes no override")
        measured = float(measured)
        versus = f"{measured:.6g} vs range [{lo}, {hi}]"
        self._record(name, measured, [lo, hi], lo <= measured <= hi, versus)

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


def _family_vectors(args, kind, fields):
    """The family's required vectors, parsed; the first must have ``--n``
    entries."""
    for field in fields:
        if getattr(args, field) is None:
            raise ConfigError(f"{field}: required for family {kind}")
    vectors = [_parse_vector(getattr(args, field), field) for field in fields]
    if args.n is not None and vectors[0].size != args.n:
        raise ConfigError(f"{fields[0]}: dimension {vectors[0].size} != n = {args.n}")
    return vectors


def _build_family(args, window):
    """The family of the command line; a transformed spiral scans the times
    ``window = (lo, hi)`` that the command evaluates for a pole."""
    kind = args.family
    if kind is None:
        raise ConfigError("family: required")
    try:
        if kind == "circle":
            return families.Circle(*_family_vectors(args, kind, ("x0", "u0", "a0")))
        p0, q0, r0 = _family_vectors(args, kind, ("p0", "q0", "r0"))
        if args.c is None:
            raise ConfigError("c: required for spiral families")
        spiral = families.LogSpiral(args.c, p0, q0, r0)
        if kind == "spiral":
            return spiral
        if args.b is None:
            raise ConfigError("b: required for family tspiral")
        return families.TransformedSpiral(spiral, _parse_vector(args.b, "b"), window)
    except families.FamilyError as exc:
        raise ConfigError(str(exc)) from exc


def _window(args):
    """The sample window ``(t0, t1)``, by default ``(-1, 1)``."""
    return (args.t0 if args.t0 is not None else -1.0, args.t1 if args.t1 is not None else 1.0)


def _sample_times(args, n):
    """The sample window, once a quantity table of its samples in dimension
    ``n`` fits the cell budget that bounds ``integrate``'s stored rows."""
    t0, t1 = _window(args)
    if not t1 > t0:
        raise ConfigError(f"window: need t1 > t0, got [{t0}, {t1}]")
    columns = _column_count(n)
    if args.samples * columns > _TRACE_BUDGET:
        raise ConfigError(f"samples: {args.samples} rows of {columns} columns exceed {_TRACE_BUDGET} cells")
    return np.linspace(t0, t1, args.samples)


def _family_jets(family, times):
    """The ``(times, n, order+1)`` position coefficients at ``times``.  On a
    failure the first time whose own ``jet`` fails names it: a float overflow
    under ``main``'s error state or a vanishing transform denominator is a
    config error, a speed at or below the floor a degeneracy."""
    try:
        return family.jet(times)
    except (ValueError, ArithmeticError):
        for t in map(float, times):
            try:
                family.jet(t)
            except DegenerateVelocityError:
                raise
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"window: cannot evaluate the family at t = {t:g}: {exc}") from exc
        raise


def _spread(values):
    """Largest ``(max - min) / (1 + max |v|)`` of a column; 1-d is one column."""
    values = np.asarray(values, dtype=float)
    scale = 1.0 + np.max(np.abs(values), axis=0)
    return float(np.max((values.max(axis=0) - values.min(axis=0)) / scale))


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


def _verify_spiral(spiral, times, checks, fields):
    c = spiral.c
    p2 = float(spiral.p0 @ spiral.p0)
    coeffs = _family_jets(spiral, times)
    # delta_4 = -c^2 and alpha_1 = c^2 - 1 on every spiral
    if tractors.is_conformal_circle(-(c**2), c**2 - 1.0):
        raise ConfigError(
            "c: the fourth invariant vanishes for this pitch, outside the spiral class"
        )
    derivs = derivatives(coeffs, 4)
    g = tractors.gram_stack(coeffs)
    checks.add("delta3_is_minus_one", np.max(np.abs(g.delta3 + 1.0)), 1e-9)
    checks.add("delta4_matches_pitch", np.max(np.abs(g.delta4 + c**2)), 1e-8)
    _check_delta5(checks, g)
    checks.add("alpha1_matches", np.max(np.abs(g.alpha1 - (c**2 - 1.0))), 1e-9)
    checks.add("alpha2_matches", np.max(np.abs(g.alpha2 - (c**4 - c**2 + 1.0))), 1e-9)
    checks.add("flow_vector_vanishes", np.max(np.abs(mercator.flow_vector_stack(*derivs[1:]))), 1e-10)
    qs = _parallel_minors(g.columns[..., :4], derivs[0])
    checks.add("q_constant_along_curve", _spread(qs), 1e-8)
    # the first three q_keys families: c/p^2 eps(ij; p0, q0), c/p^2 eps(ijk; p0, q0, r0), zeros
    pq = minors(np.column_stack([spiral.p0, spiral.q0]))
    pqr = minors(np.column_stack([spiral.p0, spiral.q0, spiral.r0]))
    expected = c / p2 * np.concatenate([pq, pqr, np.zeros_like(pqr)])
    checks.add("q_matches_spiral_values", np.max(np.abs(qs[0, : expected.size] - expected), initial=0.0), 1e-9)
    closed = spiral.acceleration_tractor(times)
    square = tractor_metric_pair(closed.T, closed.T)
    checks.add("acceleration_tractor_square", np.max(np.abs(square - (c**2 - 1.0))), 1e-10)
    checks.add("acceleration_tractor_matches_pipeline", np.max(np.abs(closed - g.columns[..., 2])), 1e-10)
    # kappa_1 is even in c, as delta_4 and alpha_1 are; an undefined kappa_1
    # is NaN, and a NaN measurement fails its check
    checks.add("kappa1_matches", np.max(np.abs(g.kappa1 + (c**2 - 1.0) / (2 * abs(c)))), 1e-8)
    checks.add("kappa1_constant", _spread(g.kappa1), 1e-8)
    _verify_noether(coeffs, symmetries.noether_stack(*derivs), checks, fields)
    hs = mercator.hamiltonian_stack(derivs[1], *mercator.momenta_stack(*derivs[1:]))
    checks.add("hamiltonian_constant", _spread(hs), 1e-9)
    closed = np.stack(spiral.closed_derivatives(times), axis=1)
    worst = np.max(np.abs(np.stack(derivs[1:], axis=1) - closed), axis=(1, 2))
    scale = 1.0 + np.max(np.abs(closed), axis=(1, 2))
    checks.add("jet_matches_closed_derivatives", np.max(worst / scale), 1e-12)


def _check_delta5(checks, g):
    """delta_5 against the fifth power of its row's Gram scale."""
    scale = np.maximum(1.0, g.gram_scale())
    checks.add("delta5_vanishes_rel", np.max(np.abs(g.delta5) / scale**5), 1e-6)


def _verify_noether(coeffs, bases, checks, fields):
    """Closed-form Noether values of random fields (paired with the rows'
    ``noether_stack`` basis ``bases``) against one ``f_generic_stack`` call."""
    worst_agree = worst_spread = 0.0
    for field, generic in zip(fields, symmetries.f_generic_stack(fields, coeffs)):
        closed = field.pair(bases)
        worst_agree = max(worst_agree, np.max(np.abs(closed - generic)) / (1.0 + np.max(np.abs(closed))))
        worst_spread = max(worst_spread, _spread(closed))
    checks.add("noether_generic_matches_closed", worst_agree, 1e-9)
    checks.add("noether_constant_along_curve", worst_spread, 1e-8)


def _verify_circle(circle, times, checks, fields):
    coeffs = _family_jets(circle, times)
    derivs = derivatives(coeffs, 4)
    checks.add("circle_residual", np.max(np.abs(mercator.circle_residual_stack(*derivs[1:]))), 1e-10)
    g = tractors.gram_stack(coeffs)
    checks.add("delta3_is_minus_one", np.max(np.abs(g.delta3 + 1.0)), 1e-9)
    checks.add("delta4_vanishes", np.max(np.abs(g.delta4)), 1e-9)
    centre = len(times) // 2
    mid = float(times[centre])
    steps = (0.02, 0.01)
    defects = tractors.parallel_defect(lambda s: circle.jet(s, 4), mid, steps, count=3)
    scale = float(np.max(np.abs(wedge(g.columns[centre, :, :3].T))))
    floor = PARALLEL_ROUNDOFF * np.finfo(float).eps * scale / steps[1]
    # the turn at the mid time: a circle's curvature is 2 |a0|
    turn = 2.0 * steps[0] * float(np.linalg.norm(circle.a0) * np.linalg.norm(derivs[1][centre]))
    if turn > PARALLEL_TURN:
        print(f"note  t3_parallel_decay_order: vacuous, step turn {turn:.3g} > {PARALLEL_TURN:.3g}")
    elif defects[1] <= floor:
        # the true defect, about 2 kappa^3 h^2 at curvature kappa, is lost
        print(f"note  t3_parallel_decay_order: vacuous, defect {defects[1]:.3g} <= {floor:.3g}")
    else:
        checks.add_range("t3_parallel_decay_order", math.log2(defects[0] / defects[1]), 1.6, 2.4)
    checks.add("circle_q_constant", _spread(_parallel_minors(g.columns[..., :3], derivs[0])), 1e-9)
    _verify_noether(coeffs, symmetries.noether_stack(*derivs), checks, fields)


def _verify_tspiral(tspiral, times, checks, fields):
    c = tspiral.base.c
    coeffs = _family_jets(tspiral, times)
    # delta_4 = -c^2 on the base spiral and on its conformal images
    if tractors.is_conformal_circle(-(c**2), c**2 - 1.0):
        raise ConfigError("c: the fourth invariant vanishes, outside the spiral class")
    report = tspiral.conserved_report()
    derivs = derivatives(coeffs, 4)
    Cs = mercator.flow_vector_stack(*derivs[1:])
    checks.add(
        "flow_vector_constant",
        float(np.max(np.abs(Cs - Cs[0]))) / (1.0 + float(np.max(np.abs(Cs[0])))),
        1e-9,
    )
    checks.add(
        "flow_vector_matches_report",
        float(np.max(np.abs(Cs[0] + report.E_T))) / (1.0 + float(np.max(np.abs(report.E_T)))),
        1e-9,
    )
    g = tractors.gram_stack(coeffs)
    checks.add("delta4_matches_pitch", np.max(np.abs(g.delta4 + c**2)), 1e-8)
    _check_delta5(checks, g)
    checks.add("q_constant_along_curve", _spread(_parallel_minors(g.columns[..., :4], derivs[0])), 1e-8)
    bases = symmetries.noether_stack(*derivs)
    worst = 0.0
    for field in fields:
        reported = field.pair(report)
        worst = max(worst, abs(field.pair(bases)[0] - reported) / (1.0 + abs(reported)))
    checks.add("noether_matches_report", worst, 1e-9)
    _verify_noether(coeffs, bases, checks, fields)
    hs = mercator.hamiltonian_stack(derivs[1], *mercator.momenta_stack(*derivs[1:]))
    checks.add("hamiltonian_constant", _spread(hs), 1e-9)


def cmd_verify(args):
    family = _build_family(args, _window(args))
    if family.dim < 2:
        raise ConfigError(f"n: verify needs dimension at least 2, got {family.dim}")
    if args.samples < 2:
        # a spread over one sample is 0 by construction
        raise ConfigError(f"samples: verify needs at least 2 sample times, got {args.samples}")
    times = _sample_times(args, family.dim)
    checks = CheckList(args.tolerances)
    fields = _random_fields(family.dim, args.seed)
    if isinstance(family, families.LogSpiral):
        _verify_spiral(family, times, checks, fields)
    elif isinstance(family, families.Circle):
        _verify_circle(family, times, checks, fields)
    else:
        _verify_tspiral(family, times, checks, fields)
    _write_report(args, "verify", checks)
    print("verify:", "PASS" if checks.ok else "FAIL")
    return EXIT_PASS if checks.ok else EXIT_FAIL


def _write_report(args, command, checks):
    checks.require_checked()
    out = _resolve_out(args.out)
    payload = {
        "command": command,
        "config": _config_echo(args),
        "checks": checks.records,
        "pass": checks.ok,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")


def _config_echo(args):
    # out/config paths do not affect results and would break byte-identical
    # reruns redirected to different files
    skip = {"func", "tolerances", "out", "config"}
    echo = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    echo["tolerance_overrides"] = dict(args.tolerances or {})
    return echo


# ------------------------------------------------------------- quantities


def _column_count(n):
    """``len(_quantity_columns(n))``, without building the names."""
    return 10 + 5 * n + 3 * math.comb(n, 2) + 2 * math.comb(n, 3) + math.comb(n, 4)


def _quantity_columns(n):
    ones = [str(i) for i in range(1, n + 1)]
    pairs = [i + j for i, j in itertools.combinations(ones, 2)]
    cols = ["t", *(f"x{i}" for i in ones), "H", "E_D"]
    blocks = (("E_T", ones), ("E_R", pairs), ("E_S", ones), ("F_T", ones), ("F_R", pairs))
    cols += [f"{name}_{k}" for name, ks in blocks for k in ks]
    cols += ["F_D", *(f"F_S_{i}" for i in ones), *(_q_column(key, n) for key in tractors.q_keys(n))]
    return cols + ["delta3", "delta4", "delta5", "alpha1", "alpha2", "kappa1"]


def _q_column(key, n):
    fam = tractors.quantity_family(key, n)
    digits = "".join(str(a) for a in key if 0 < a <= n)
    return f"Q_{fam}_{digits}"


def _quantity_table(ts, coeffs):
    """The quantity trace of a position coefficient stack ``(rows, n,
    order+1)``, order at least 6, one row per time in ``ts``, every column
    in one pass over the stack."""
    if coeffs.shape[-1] < 7:
        raise ValueError(f"the quantity table needs jets of order 6 or more, got {coeffs.shape[-1] - 1}")
    g = tractors.gram_stack(coeffs)
    X, U, A, Ap = derivatives(coeffs, 4)
    P, R = mercator.momenta_stack(U, A, Ap)
    e = symmetries.e_stack(X, U, P, R)
    f = symmetries.noether_stack(X, U, A, Ap)
    # the rotation pairs (i, j), i < j, in the order of the column names
    i, j = np.triu_indices(X.shape[-1], 1)
    return np.column_stack([
        ts, X, mercator.hamiltonian_stack(U, P, R), e.E_D, e.E_T, e.E_R[:, i, j], e.E_S,
        f.E_T, f.E_R[:, i, j], f.E_D, f.E_S, _parallel_minors(g.columns[..., :4], X),
        g.delta3, g.delta4, g.delta5, g.alpha1, g.alpha2, g.kappa1,
    ])


def _write_table(path, columns, rows, fmt):
    # one "%.17g" (the bytes of format(x, ".17g")) per distinct float64 bit
    # pattern, as conserved columns repeat theirs; the int64 view keeps
    # -0.0 apart from 0.0
    bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
    bits, inverse = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    cells = text[inverse.reshape(rows.shape)].tolist()
    if fmt == "json":
        payload = {"columns": columns, "rows": cells}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(row) + "\n" for row in cells)


def cmd_quantities(args):
    family = _build_family(args, _window(args))
    times = _sample_times(args, family.dim)
    if args.out is None:
        raise ConfigError("out: required for quantities")
    rows = _quantity_table(times, _family_jets(family, times))
    columns = _quantity_columns(family.dim)
    out = _resolve_out(args.out)
    _write_table(out, columns, rows, args.format)
    print(f"quantity trace with {len(rows)} samples written to {out}")
    return EXIT_PASS


# -------------------------------------------------------------- integrate


def _initial_phase(args, t0):
    """The phase row ``[X, U, P, R]`` the run starts from: a family's, or
    an explicit ``--x --u --p --r`` point that no family flag comes with."""
    if any(getattr(args, k) is not None for k in "xupr"):
        for k in ("family", "c", "p0", "q0", "r0", "b", "x0", "u0", "a0"):
            if getattr(args, k) is not None:
                raise ConfigError(f"initial point: --{k} does not apply to an explicit --x --u --p --r point")
    elif args.family is not None:
        family = _build_family(args, (t0, t0))
        return mercator.phase_from_jet(_family_jets(family, [t0])[0])
    if any(getattr(args, k) is None for k in ("x", "u", "p", "r")):
        raise ConfigError("initial point: give either --family or all of --x --u --p --r")
    x = _parse_vector(args.x, "x")
    if args.n is not None and x.size != args.n:
        raise ConfigError(f"x: dimension {x.size} != n = {args.n}")
    try:
        u, p, r = (_parse_vector(getattr(args, k), k) for k in "upr")
    except ConfigError as exc:
        raise ConfigError(f"initial point: {exc}") from exc
    if not x.size == u.size == p.size == r.size:
        raise ConfigError("initial point: phase components must share one (..., n) shape")
    if (u2 := u @ u) <= VELOCITY_FLOOR:
        raise ConfigError(f"initial point: squared speed {u2:.3e} below floor")
    return np.concatenate([x, u, p, r])


def cmd_integrate(args):
    t0 = args.t0 if args.t0 is not None else 0.0
    p0 = _initial_phase(args, t0)
    n = p0.size // 4
    if args.out is None:
        raise ConfigError("out: required for integrate")
    rows = 1 + math.ceil(round(args.t_end / args.h) / args.store_every)
    width = _column_count(n)
    if rows * width > _TRACE_BUDGET:
        raise ConfigError(
            f"store-every: {rows} rows of {width} columns exceed {_TRACE_BUDGET} cells"
        )
    degenerate = None
    try:
        traj = mercator.integrate(p0, args.t_end, args.h, args.store_every)
    except FlowDegeneracyError as exc:
        degenerate = exc
        traj = exc.trajectory
    # one lift and one table for all stored states; the table rejects a
    # speed below the floor
    data = _quantity_table(t0 + traj.ts, mercator.taylor_lift(traj.states, order=6))
    columns = _quantity_columns(n)
    out = _resolve_out(args.out)
    _write_table(out, columns, data, args.format)
    print(f"trace with {len(data)} samples written to {out}")
    print("max relative drift per conserved column:")
    drift = np.max(np.abs(data - data[0]), axis=0) / (1.0 + np.abs(data[0]))
    for name, value, nan in zip(columns, drift, np.isnan(data).any(axis=0)):
        if not (nan or name in ("t", "kappa1") or name.startswith(("x", "delta", "alpha"))):
            print(f"  {name}: {value:.3e}")
    if degenerate is not None:
        print(f"velocity degenerated at t = {degenerate.t:.6g}; trace is partial")
        return EXIT_DEGENERATE
    return EXIT_PASS


# -------------------------------------------------------------- relations


def _random_phase_points(rng, n, count):
    """``count`` uniform draws from ``[-1, 1]^{4n}`` with squared speed at
    least 0.1, drawn as many rows at a time as are missing, as components
    ``(X, U, P, R)`` over chunks of ``_RELATIONS_BUDGET / (16 C(n+2, 4))``
    rows, one entry per ``q_keys(n)`` key, and at least ``_RELATIONS_ROWS``,
    since a call's cost per row falls with its rows."""
    rows = np.empty((0, 4 * n))
    while len(rows) < count:
        y = rng.uniform(-1.0, 1.0, (count - len(rows), 4 * n))
        y = y[_dot(y[:, n : 2 * n], y[:, n : 2 * n]) >= 0.1]
        rows = np.concatenate([rows, y]) if len(rows) else y  # no third copy of the first draw
    width = 16 * max(1, math.comb(n + 2, 4))
    floor = _RELATIONS_ROWS if _RELATIONS_ROWS * width <= 8 * _RELATIONS_BUDGET else 1
    step = max(floor, _RELATIONS_BUDGET // width)
    return [np.split(rows[s : s + step], 4, axis=-1) for s in range(0, count, step)]


def cmd_relations(args):
    if args.n is None:
        raise ConfigError("n: required for relations")
    n, width = args.n, max(args.n, math.comb(args.n, 4))
    if args.samples * width > _RELATIONS_CELLS:
        raise ConfigError(f"samples: {args.samples} rows of {width} columns exceed {_RELATIONS_CELLS} cells")
    rng = np.random.default_rng(args.seed)
    checks = CheckList(args.tolerances)
    if args.jet_identity:
        draws = np.empty((args.samples, 5, n))
        for derivs in draws:
            derivs[:] = rng.uniform(-1, 1, (5, n))
            while float(derivs[1] @ derivs[1]) < 0.1:
                derivs[1] = rng.uniform(-1, 1, n)
        coeffs = coefficients(np.swapaxes(draws, 0, 1))
        res = tractors.identity_residual_stack(tractors.alpha1_stationary_stack(coeffs))
        sizes = [np.max(np.abs(v), axis=-1) for v in (res.tractor_slot, res.mercator_expansion)]
        scale = 1.0 + np.maximum(*sizes)
        checks.add("reduction_identity_defect", np.max(res.identity_defect / scale), 1e-9)
    else:
        # below dimension 2 every family is vacuous: refused before any draw
        chunks = _random_phase_points(rng, n, args.samples) if n > 1 else []
        reps = [symmetries.quantity_identities(*p) for p in chunks]
        # q_keys lays out C(n, 2), C(n, 3), C(n, 3) and C(n, 4) keys, family by family
        for fam, rank in zip(("0ijN", "0ijk", "ijkN", "ijkl"), (2, 3, 3, 4)):
            if math.comb(n, rank) == 0:
                print(f"note  identity_{fam}: vacuous in dimension {n}")
                continue
            worst = max(np.max(rep[fam]["residual"] / (1.0 + rep[fam]["scale"])) for rep in reps)
            checks.add(f"identity_{fam}", worst, 1e-10)
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
    p.add_argument("--t0", type=float, help="window start (default -1); integrate: start time (default 0)")


def _add_window(p):
    """The family flags and the sample window of ``verify`` and ``quantities``."""
    _add_family(p)
    p.add_argument("--t1", type=float, help="window end (default 1)")
    p.add_argument("--samples", type=int, default=21)


@functools.cache
def build_parser():
    parser = _Parser(
        prog="confcurves",
        description="Verification suites and integration for distinguished-curve conserved quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a family invariant suite")
    _add_window(p)
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
    _add_window(p)
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
        if not 0 <= overrides[name] < math.inf:
            raise ConfigError(f"tol: {name} must be finite and at least 0, got {val}")
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
        if steps > _TRACE_BUDGET:
            raise ConfigError(f"t-end: {steps:.3g} steps of h = {args.h} exceed {_TRACE_BUDGET} RK4 steps")


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
