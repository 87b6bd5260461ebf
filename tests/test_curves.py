"""Curve data as position coefficient rows: the derivative scaling, the
entry checks every stack runs, and the one-row contract of the stacks."""

import math

import numpy as np
import pytest

from confcurves import (
    KillingField,
    alpha1_stationary_stack,
    circle_residual_stack,
    coefficients,
    derivatives,
    e_stack,
    f_generic_stack,
    flow_vector_stack,
    gram_stack,
    identity_residual_stack,
    momenta_stack,
    phase_from_jet,
    q_circle_stack,
    q_stack,
)
from confcurves.curves import DegenerateVelocityError
from confcurves.tractors import canonical_tractor_stack

from conftest import (
    random_circle,
    random_curve_jet,
    random_spiral,
    random_transformed_spiral,
    tractor_basis,
)
from jet_oracle import JetScalar
from oracles import closed_form_alpha1_delta4, parallel_section_oracle


def general_field(rng, n):
    R = rng.uniform(-1.0, 1.0, (n, n))
    return KillingField(n, T=rng.uniform(-1, 1, n), R=R - R.T, a=0.7, S=rng.uniform(-1, 1, n))


def phase_basis(c):
    """:func:`e_stack` of the phase rows of coefficient rows."""
    return e_stack(*np.split(phase_from_jet(c), 4, axis=-1))


# Every stack over position coefficients or derivative vectors, as a
# function of one coefficient array and the dimension's Killing field.
STACKS = {
    "canonical_tractor_stack": lambda c, f: canonical_tractor_stack(c, 5),
    # four tractors from the row cut to order 4, five from the whole row
    "gram_stack_4": lambda c, f: gram_stack(c[..., :5]),
    "gram_stack_5": lambda c, f: gram_stack(c),
    "q_stack": lambda c, f: q_stack(c),
    "q_circle_stack": lambda c, f: q_circle_stack(c),
    "alpha1_stationary_stack": lambda c, f: alpha1_stationary_stack(c),
    "identity_residual_stack": lambda c, f: identity_residual_stack(c),
    "f_generic_stack": lambda c, f: f_generic_stack([f], c)[0],
    "phase_from_jet": lambda c, f: phase_from_jet(c),
    "flow_vector_stack": lambda c, f: flow_vector_stack(*derivatives(c, 4)[1:]),
    "circle_residual_stack": lambda c, f: circle_residual_stack(*derivatives(c, 4)[1:]),
    "momenta_stack": lambda c, f: momenta_stack(*derivatives(c, 4)[1:]),
    "tractor_bivector": lambda c, f: tractor_basis(c),
    "e_stack": lambda c, f: phase_basis(c),
}


def leaves(value):
    """The arrays of a stack's result, in a fixed order; None stays None."""
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in leaves(v)]
    return [value]


def contract_rows(rng, n):
    """Random order-6 rows, points along a spiral, a circle and a
    transformed spiral."""
    rows = [random_curve_jet(rng, n, levels=7) for _ in range(12)]
    for family in (random_spiral(rng, n), random_circle(rng, n), random_transformed_spiral(rng, n)):
        rows += [family.jet(float(t)) for t in np.linspace(-1.0, 1.0, 7)]
    return rows


class TestOneRowContract:
    """A stack called on one unbatched ``(n, order+1)`` row gives row 0 of
    its call on ``row[None]``, bit for bit."""

    @pytest.mark.parametrize("name", STACKS)
    def test_one_row_is_row_zero(self, rng, name):
        stack = STACKS[name]
        undefined = 0
        for n in range(2, 7):
            field = general_field(rng, n)
            for row in contract_rows(rng, n):
                one = leaves(stack(row, field))
                batched = leaves(stack(row[None], field))
                assert len(one) == len(batched)
                for got, want in zip(one, batched):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.shape == want.shape[1:]
                        assert np.array_equal(got, want[0], equal_nan=True)
                        undefined += bool(np.isnan(got).any())
        if name == "gram_stack_4":
            # order 4 gives the 4 x 4 Gram matrix, no delta_5 and no kappa_1
            assert stack(row, field).gram.shape == (4, 4)
            assert undefined == 0
        if name == "gram_stack_5":
            # the circle rows have an undefined kappa_1
            assert undefined >= 5 * 7


class TestDerivativeScaling:
    def test_derivatives_scale_by_factorials(self, rng):
        c = rng.uniform(-1.0, 1.0, (4, 3, 7))
        derivs = derivatives(c, 7)
        assert len(derivs) == 7
        for k, d in enumerate(derivs):
            assert d.shape == (4, 3)
            assert np.array_equal(d, c[..., k] * math.factorial(k))
            for row, jet_row in zip(d, c):
                assert np.array_equal(row, JetScalar(jet_row).derivative(k))

    def test_coefficients_invert_derivatives(self, rng):
        derivs = [rng.uniform(-1.0, 1.0, 3) for _ in range(5)]
        c = coefficients(derivs)
        assert c.shape == (3, 5)
        for k, d in enumerate(derivs):
            assert np.array_equal(c[:, k], d / math.factorial(k))
        back = derivatives(c, 5)
        for got, want in zip(back, derivs):
            assert np.max(np.abs(got - want)) <= 1e-15
        # stacked vectors give stacked rows
        rows = coefficients([rng.uniform(-1.0, 1.0, (6, 3)) for _ in range(5)])
        assert rows.shape == (6, 3, 5)


# The stacks that read position coefficients, each with enough order.
COEFFICIENT_CALLS = {
    "canonical_tractor_stack": lambda c: canonical_tractor_stack(c, 5),
    "gram_stack": gram_stack,
    "q_stack": q_stack,
    "q_circle_stack": q_circle_stack,
    "alpha1_stationary_stack": alpha1_stationary_stack,
    "identity_residual_stack": identity_residual_stack,
    "f_generic_stack": lambda c: f_generic_stack([KillingField(3, a=1.0)], c),
    "phase_from_jet": phase_from_jet,
    "closed_form_alpha1_delta4": closed_form_alpha1_delta4,
    "parallel_section_oracle": parallel_section_oracle,
}


class TestEntryChecks:
    """Every stack rejects a row it cannot read with one ``ValueError``."""

    @pytest.mark.parametrize("name", COEFFICIENT_CALLS)
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_coefficients(self, rng, name, bad):
        for c in (random_curve_jet(rng, 3, levels=7), np.stack([random_curve_jet(rng, 3, levels=7)] * 2)):
            c[..., 2] = bad
            with np.errstate(all="raise"), pytest.raises(ValueError, match="needs finite coefficients$"):
                COEFFICIENT_CALLS[name](c)

    @pytest.mark.parametrize("name", COEFFICIENT_CALLS)
    def test_no_component_axis(self, rng, name):
        for c in (random_curve_jet(rng, 1, levels=7)[0], np.float64(1.0)):
            with pytest.raises(ValueError, match=r"needs coefficients of shape \(\.\.\., n, order\+1\)"):
                COEFFICIENT_CALLS[name](c)

    def test_checks_come_before_the_speed_floor(self, rng):
        c = random_curve_jet(rng, 3, levels=7)
        c[:, 1] = 0.0
        with pytest.raises(DegenerateVelocityError):
            q_stack(c)
        c[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite") as info:
            q_stack(c)
        assert not isinstance(info.value, DegenerateVelocityError)
