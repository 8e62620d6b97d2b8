"""Closed-form basic reproduction number for the mosquito-bird cycle.

The value is the geometric mean of a bird-based and a mosquito-based
component, each the product of a transmission rate, a susceptible count,
a probability of surviving the exposed phase, and a mean infectious
duration.  Humans are dead-end hosts and contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroDenominator

# both components raise this when their positive denominator factors
# multiply to 0.0
DENOMINATOR_UNDERFLOW = "R0 denominator underflowed to zero"


def _divide(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        raise ZeroDenominator(DENOMINATOR_UNDERFLOW)
    return numerator / denominator


@dataclass(frozen=True)
class R0Inputs:
    """Per-day rates (1/day) and susceptible counts feeding the formula."""

    beta_b_to_m: float
    delta_b: float
    mu_b: float
    lambda_b: float
    mu_wnd_b: float
    beta_m_to_b: float
    pdr: float
    mu_m: float
    m_s: float
    b_s: float


def exposed_survival(progress_rate: float, death_rate: float) -> float:
    """Probability that progression beats death in the exposed phase.

    Both waiting times are exponential, so the race is won with
    probability progress / (progress + death).
    """
    total = progress_rate + death_rate
    if total <= 0.0:
        raise ZeroDenominator("progress_rate + death_rate must be > 0")
    return progress_rate / total


def r0_bird(inputs: R0Inputs) -> float:
    """Bird-based component: transmission to mosquitoes x susceptible
    mosquitoes x survival of the bird exposed phase x mean bird
    infectious duration."""
    d1 = inputs.delta_b + inputs.mu_b
    d2 = inputs.lambda_b + inputs.mu_wnd_b + inputs.mu_b
    numerator = inputs.beta_b_to_m * inputs.m_s * inputs.delta_b
    if d1 <= 0.0 or d2 <= 0.0:
        if numerator == 0.0:
            return 0.0
        raise ZeroDenominator("bird component denominator is zero")
    return _divide(numerator, d1 * d2)


def r0_mosquito(inputs: R0Inputs) -> float:
    """Mosquito-based component: transmission to birds x susceptible birds
    x survival of the mosquito exposed phase x mean mosquito infectious
    duration."""
    numerator = inputs.beta_m_to_b * inputs.b_s * inputs.pdr
    if inputs.mu_m <= 0.0:
        if numerator == 0.0:
            return 0.0
        raise ZeroDenominator("mosquito mortality must be > 0")
    return _divide(numerator, inputs.mu_m * (inputs.pdr + inputs.mu_m))


def r0(inputs: R0Inputs) -> float:
    """Geometric mean of the two components.

    Disease-free days (both components zero) return 0 rather than
    raising; this is routine out of season.
    """
    bird = r0_bird(inputs)
    mosquito = r0_mosquito(inputs)
    return math.sqrt(bird * mosquito)
