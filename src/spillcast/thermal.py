"""Temperature response curves for model rates.

Three shapes cover the laboratory-data conventions for mosquito traits:
Briere (asymmetric hump, zero outside its thermal limits), quadratic
(symmetric hump, zero outside its roots) and constant.  Evaluation is a
total function: raw negatives clamp to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

KINDS = ("briere", "quadratic", "constant")


@dataclass(frozen=True)
class ThermalCurve:
    """A nonnegative rate as a function of temperature (degC).

    kind "briere":    c * T * (T - t0) * sqrt(tm - T)  on [t0, tm], else 0
    kind "quadratic": max(-c * (T - t0) * (T - tm), 0)
    kind "constant":  value (t0/tm unused)
    """

    kind: str
    c: float
    t0: float = 0.0
    tm: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvariantViolation("kind", f"unknown curve kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.c, self.t0, self.tm)):
            raise InvariantViolation("coefficients", "non-finite coefficient")
        if self.kind == "constant" and self.c < 0:
            raise InvariantViolation("constant", f"negative rate {self.c}")

    def __call__(self, temp: float) -> float:
        return eval_thermal(self, temp)

    @classmethod
    def constant(cls, value: float) -> "ThermalCurve":
        return cls("constant", value)

    @classmethod
    def parse(cls, text: str) -> "ThermalCurve":
        """Parse ``kind,args`` config syntax, e.g. ``briere,3.8e-5,1.7,38.5``
        or ``constant,0.07``."""
        parts = [p.strip() for p in text.split(",")]
        kind = parts[0]
        try:
            args = [float(p) for p in parts[1:]]
        except ValueError:
            raise InvariantViolation("thermal", f"bad curve spec {text!r}") from None
        if kind == "constant":
            if len(args) != 1:
                raise InvariantViolation("thermal", f"constant takes 1 value: {text!r}")
            return cls("constant", args[0])
        if kind in ("briere", "quadratic"):
            if len(args) != 3:
                raise InvariantViolation("thermal", f"{kind} takes c,t0,tm: {text!r}")
            return cls(kind, *args)
        raise InvariantViolation("thermal", f"unknown curve kind {kind!r}")

    def spec(self) -> str:
        """Inverse of parse()."""
        if self.kind == "constant":
            return f"constant,{self.c!r}"
        return f"{self.kind},{self.c!r},{self.t0!r},{self.tm!r}"


def eval_thermal(curve: ThermalCurve, temp: float) -> float:
    """Evaluate a thermal curve at the given temperature; always >= 0."""
    if curve.kind == "constant":
        return max(curve.c, 0.0)
    if curve.kind == "briere":
        if temp <= curve.t0 or temp >= curve.tm:
            return 0.0
        return max(curve.c * temp * (temp - curve.t0) * math.sqrt(curve.tm - temp), 0.0)
    # quadratic
    return max(-curve.c * (temp - curve.t0) * (temp - curve.tm), 0.0)


def eval_thermal_array(curve: ThermalCurve, temps) -> np.ndarray:
    """``eval_thermal`` at every element of ``temps``, float for float: the
    same operations in the same order, and ``max(x, 0.0)`` kept as
    "0.0 if 0.0 > x else x" (so -0.0 and NaN pass through as they do).
    A constant curve gives its one value broadcast, as a read-only view."""
    t = np.asarray(temps, dtype=float)
    if curve.kind == "constant":
        return np.broadcast_to(float(max(curve.c, 0.0)), t.shape)
    if curve.kind == "briere":
        inside = ~((t <= curve.t0) | (t >= curve.tm))
        # tm - t > 0 inside, so the floor changes no value that is kept
        raw = curve.c * t * (t - curve.t0) * np.sqrt(np.maximum(curve.tm - t, 0.0))
        raw = np.where(inside, raw, 0.0)
    else:
        raw = -curve.c * (t - curve.t0) * (t - curve.tm)
    return np.where(0.0 > raw, 0.0, raw)
