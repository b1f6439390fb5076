"""Simulation parameters and coupling-modulation profiles."""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Constant:
    """Time-independent coupling profile, zeta(t) = 1."""


@dataclass(frozen=True)
class Sech:
    """Smooth switch-on/off profile zeta(t) = sech(t / (2 tau)).

    The profile peaks at t = 0; runs start at the peak.
    """

    tau: float

    def __post_init__(self):
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ValueError(f"tau must be real, got {self.tau!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0 for sech modulation, got {self.tau}")


Modulation = Constant | Sech


@dataclass(frozen=True)
class SimParams:
    """All physical and numerical inputs of the two-ion simulation, with
    their defaults.  This is the one place the defaults are written: the
    configuration grammar and the JSON sidecar are derived from these fields.

    Times are measured in units of 1/|lambda1| (scaled time); the
    conventional choice is |lambda1| = 1.  The interaction picture at exact
    resonance is assumed, so the trap and electronic frequencies drop out.
    A rejected value raises an error whose message starts with its field name.

    Parameters
    ----------
    lambda1, lambda2 : finite complex
        Laser coupling strengths of the two sideband transitions
        (lower level to first / second upper level).
    eta : finite float >= 0
        Lamb-Dicke parameter.
    epsilon : finite float
        Laser amplitude scale entering the vibrational mode function.
    gamma : finite float >= 0
        Intrinsic-decoherence rate of the double-commutator channel.
    nbar : finite float >= 0
        Mean phonon number of the initial coherent field.
    theta : float in [0, 2 pi]
        Superposition angle of the two-ion initial state.
    phi : float in [0, pi]
        Relative phase of the two-ion initial state.
    modulation : Constant or Sech
        Shared scalar time profile zeta(t) multiplying all couplings.
    fock_cutoff : int >= 1
        Hard truncation N_max of the vibrational Fock space
        (dimension N_max + 1).
    """

    fock_cutoff: int
    lambda1: complex = 1.0 + 0.0j
    lambda2: complex = 0.01 + 0.0j
    eta: float = 0.202
    epsilon: float = 0.01
    gamma: float = 0.0
    nbar: float = 5.0
    theta: float = math.pi / 4
    phi: float = 0.0
    modulation: Modulation = field(default_factory=Constant)

    def __post_init__(self):
        for kind, exact, names in (  # the exact built-in types skip the slower ABC check
            (numbers.Integral, (int,), ("fock_cutoff",)),
            (numbers.Complex, (int, float, complex), ("lambda1", "lambda2")),
            (numbers.Real, (int, float), ("eta", "epsilon", "gamma", "nbar", "theta", "phi")),
        ):
            for name in names:
                value = getattr(self, name)
                if type(value) in exact:
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
        object.__setattr__(self, "lambda1", complex(self.lambda1))
        object.__setattr__(self, "lambda2", complex(self.lambda2))
        if self.fock_cutoff < 1:
            raise ValueError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        for name in ("lambda1", "lambda2", "epsilon"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("eta", "gamma", "nbar"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.theta <= 2 * math.pi:
            raise ValueError(f"theta must lie in [0, 2 pi], got {self.theta}")
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi}")
        if not isinstance(self.modulation, (Constant, Sech)):
            raise TypeError(f"modulation must be Constant or Sech, got {self.modulation!r}")
