"""Seeded inputs for the benchmark's two workloads.

Every argv is built from the workload seed alone; the program under test
sees only these argument lists (plus the ``--out`` path the runner adds).
A workload is a sequence of *decks*.  A deck is a fixed mix of invocation
shapes (subcommand, family, dimension, step size) with fresh seeded curve
parameters, and a run always completes whole decks, so the mix behind the
medians and rates is the same whatever the machine's speed.

The curve families are rebuilt here the way ``tests/conftest.py`` draws
them, without importing the package, so the generator cannot drift with it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("trace", "checks")

# What one unit of ``throughput`` is on each workload.
WORK_UNITS = {
    "trace": "stored trace rows",
    "checks": "sampled points checked",
}

# Sizes of one invocation.  "tiny" keeps every invocation shape and only
# shrinks the per-invocation work; the smoke tests use it.
SIZES = {
    "full": {
        "trace_t_end": 1.0,
        "verify_samples": 21,
        "jet_samples": 100,
        "relation_samples": 50,
    },
    "tiny": {
        "trace_t_end": 0.05,
        "verify_samples": 5,
        "jet_samples": 5,
        "relation_samples": 5,
    },
}

TRACE_H = 1e-3
TRACE_STORE_EVERY = 10
# Spans of the trace runs, in units of ``trace_t_end``.  A row costs about
# 1.5 times as much at n = 6 as at n = 3, so n = 3 runs 1.5 times as long:
# both shapes then take about the same time, and the median invocation time
# falls inside one cluster, not on the edge between two.
TRACE_SPAN = {3: 1.5, 6: 1.0}


@dataclass(frozen=True)
class Spiral:
    """Logarithmic spiral ``e^t (cos(ct) p0 + sin(ct) q0) + r0``."""

    c: float
    p0: np.ndarray
    q0: np.ndarray
    r0: np.ndarray

    def position(self, t):
        return (
            math.exp(t) * (math.cos(self.c * t) * self.p0 + math.sin(self.c * t) * self.q0)
            + self.r0
        )

    def flags(self):
        return [
            "--c", _num(self.c),
            _vec("--p0", self.p0), _vec("--q0", self.q0), _vec("--r0", self.r0),
        ]


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what a correct run of it produces."""

    argv: tuple
    kind: str  # "integrate", "verify" or "relations"
    n: int
    units: int  # throughput units credited when the output verifies
    samples: int  # denominator of the per-sample layer ratios
    out_suffix: str
    rk4_steps: int = 0
    rows: int = 0  # stored trace rows (integrate)
    spiral: Spiral | None = None  # closed form the integrated path must follow


def _num(x):
    return format(float(x), ".17g")


def _vec(flag, values):
    # "--p0=-0.3,..." : a separate "-0.3,..." argument would parse as an option
    return f"{flag}=" + ",".join(_num(v) for v in values)


def _rng(workload, seed, deck):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, deck])


def _unit(rng, n):
    v = rng.uniform(-1.0, 1.0, n)
    return v / np.linalg.norm(v)


def random_spiral(rng, n):
    """Spiral with an exactly orthogonal equal-length plane frame."""
    c = float(rng.uniform(0.6, 2.4))
    p0 = _unit(rng, n)
    q0 = rng.uniform(-1.0, 1.0, n)
    q0 -= (q0 @ p0) * p0
    q0 /= np.linalg.norm(q0)
    scale = float(rng.uniform(0.5, 1.5))
    r0 = rng.uniform(-0.5, 0.5, n)
    return Spiral(c, scale * p0, scale * q0, r0)


def random_circle_flags(rng, n):
    u0 = _unit(rng, n)
    a0 = rng.uniform(-1.0, 1.0, n)
    a0 -= (a0 @ u0) * u0
    x0 = rng.uniform(-0.5, 0.5, n)
    return [_vec("--x0", x0), _vec("--u0", u0), _vec("--a0", a0)]


# The special conformal image divides by |b|^2 |x - b/|b|^2|^2, which
# vanishes where the spiral passes through b/|b|^2.  Draws that come this
# close to that point on the sample window are redrawn: the program rejects
# them as configuration errors, and the workload is meant to run checks.
TSPIRAL_MIN_DENOMINATOR = 0.1


def random_tspiral_flags(rng, n, max_b=0.3):
    window = np.linspace(-1.0, 1.0, 201)
    while True:
        spiral = random_spiral(rng, n)
        b = rng.uniform(-1.0, 1.0, n)
        b *= max_b * rng.uniform(0.3, 1.0) / np.linalg.norm(b)
        bb = float(b @ b)
        den = [
            1.0 - 2.0 * float(x @ b) + bb * float(x @ x)
            for x in (spiral.position(t) for t in window)
        ]
        if min(den) >= TSPIRAL_MIN_DENOMINATOR:
            return spiral.flags() + [_vec("--b", b)]


def stored_rows(steps, store_every):
    """Rows an RK4 run stores: t = 0, every ``store_every``-th step, the end."""
    return 1 + steps // store_every + (1 if steps % store_every else 0)


def _integrate(spiral, n, t_end, h, store_every):
    steps = int(round(t_end / h))
    rows = stored_rows(steps, store_every)
    argv = (
        "integrate", "--family", "spiral", "--n", str(n), *spiral.flags(),
        "--t0", "0", "--t-end", _num(t_end), "--h", _num(h),
        "--store-every", str(store_every), "--format", "csv",
    )
    return rows, steps, argv


def _trace_deck(rng, size):
    out = []
    for n in rng.permutation([3, 6]):
        n = int(n)
        spiral = random_spiral(rng, n)
        t_end = size["trace_t_end"] * TRACE_SPAN[n]
        rows, steps, argv = _integrate(spiral, n, t_end, TRACE_H, TRACE_STORE_EVERY)
        out.append(Invocation(argv, "integrate", n, rows, rows, ".csv", steps, rows, spiral))
    return out


# verify over the three families and relations --jet-identity at n = 3, 4, 6,
# plus plain relations (epsilon via q_phase, no jets) at n = 4, 6, 8.
CHECK_SHAPES = tuple(
    [(kind, n) for kind in ("spiral", "circle", "tspiral", "jet") for n in (3, 4, 6)]
    + [("relations", n) for n in (4, 6, 8)]
)


def _checks_deck(rng, size):
    out = []
    for k in rng.permutation(len(CHECK_SHAPES)):
        kind, n = CHECK_SHAPES[int(k)]
        seed = str(int(rng.integers(0, 2**31)))
        if kind in ("jet", "relations"):
            m = size["jet_samples" if kind == "jet" else "relation_samples"]
            argv = ("relations", "--n", str(n), "--samples", str(m), "--seed", seed)
            if kind == "jet":
                argv += ("--jet-identity",)
            out.append(Invocation(argv, "relations", n, m, m, ".json"))
            continue
        if kind == "spiral":
            flags = random_spiral(rng, n).flags()
        elif kind == "circle":
            flags = random_circle_flags(rng, n)
        else:
            flags = random_tspiral_flags(rng, n)
        m = size["verify_samples"]
        argv = ("verify", "--family", kind, "--n", str(n), *flags, "--samples", str(m), "--seed", seed)
        out.append(Invocation(argv, "verify", n, m, m, ".json"))
    return out


_DECKS = {
    "trace": _trace_deck,
    "checks": _checks_deck,
}


def deck(workload, seed, index, size="full"):
    """The ``index``-th deck of ``workload`` for ``seed``."""
    return _DECKS[workload](_rng(workload, seed, index), SIZES[size])
