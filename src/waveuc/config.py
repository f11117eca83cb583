"""Run configuration, validation and the built-in experiment presets."""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .basis import MAX_SPATIAL_DEGREE, MAX_TEMPORAL_DEGREE
from .mesh import build_interval_mesh, mark_data_domain

__all__ = [
    "DiscretizationConfig",
    "ExperimentPreset",
    "PRESETS",
    "PRECONDITIONERS",
    "default_lambda",
]

PRECONDITIONERS = ("none", "block", "mf", "ml", "dfb")

# slab-length to mesh-width ratio outside of which the fixed interior
# least-squares weight h^2 is no longer appropriate
MIN_DT_OVER_H = 0.1
MAX_DT_OVER_H = 10.0


def default_lambda(k):
    """Default lateral boundary penalty weight, growing with the square of
    the spatial degree as usual for Nitsche-type penalties."""
    return 10.0 * k * k


@dataclass
class DiscretizationConfig:
    """Full description of one unique-continuation solve."""

    k: int = 1
    q: int = 1
    kstar: int = 1
    qstar: int = 1
    n_elems: int = 16
    n_slabs: int = 8
    T: float = 0.5
    a: float = 0.0
    b: float = 1.0
    omega: tuple = ((0.0, 0.25), (0.75, 1.0))
    precond: str = "mf"
    lam: Optional[float] = None
    tol: float = 1e-7
    maxiter: int = 3000

    @property
    def dt(self):
        return self.T / self.n_slabs

    @property
    def h(self):
        return (self.b - self.a) / self.n_elems

    def resolved_lambda(self):
        return default_lambda(self.k) if self.lam is None else self.lam

    def validate(self):
        # nan fails every comparison below and inf passes most of them
        reals = [("T", self.T), ("a", self.a), ("b", self.b),
                 ("tol", self.tol)]
        if self.lam is not None:
            reals.append(("lam", self.lam))
        reals += [(f"omega[{i}]", v)
                  for i, interval in enumerate(self.omega) for v in interval]
        for name, value in reals:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k < 1 or self.q < 1 or self.kstar < 1:
            raise ValueError("degrees k, q and kstar must all be at least 1")
        if self.qstar < 0:
            raise ValueError("dual temporal degree must be nonnegative")
        if max(self.k, self.kstar) > MAX_SPATIAL_DEGREE:
            raise ValueError(
                f"degrees above {MAX_SPATIAL_DEGREE} are not supported")
        if max(self.q, self.qstar) > MAX_TEMPORAL_DEGREE:
            raise ValueError(
                f"degrees above {MAX_TEMPORAL_DEGREE} are not supported")
        if self.n_elems < 1 or self.n_slabs < 1:
            raise ValueError("need at least one element and one slab")
        if self.T <= 0:
            raise ValueError("final time must be positive")
        if self.b <= self.a:
            raise ValueError("empty spatial domain")
        ratio = self.dt / self.h
        if not MIN_DT_OVER_H <= ratio <= MAX_DT_OVER_H:
            raise ValueError(
                f"slab length / mesh width ratio {ratio:.3g} outside "
                f"[{MIN_DT_OVER_H}, {MAX_DT_OVER_H}]"
            )
        if self.precond not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner: {self.precond!r}")
        if self.precond == "dfb" and (self.kstar, self.qstar) != (self.k, self.q):
            raise ValueError(
                "the forward-backward split preconditioner requires equal "
                "primal and dual orders"
            )
        if self.lam is not None and self.lam <= 0:
            raise ValueError("boundary penalty weight must be positive")
        if self.tol <= 0 or self.maxiter < 1:
            raise ValueError("invalid solver tolerance or iteration cap")
        # the measurement region must be a union of elements of this mesh
        mark_data_domain(build_interval_mesh(self.a, self.b, self.n_elems),
                         self.omega)
        return self


@dataclass(frozen=True)
class ExperimentPreset:
    """A named experiment: geometry, measurement region and exact solution.

    u and dt_u take an array of times and an array of points that broadcast
    together (the RHS and the error norms pass times of shape (times, 1, 1)
    beside points of shape (..., points)) and return their values there.
    restricted_region takes an array of times and returns the two ends of
    the subinterval at each, as arrays or scalars.
    """

    name: str
    a: float
    b: float
    T: float
    omega: tuple
    u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dt_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # times -> spatial subintervals on which continuation is theoretically
    # reliable; None when the whole domain is covered
    restricted_region: Optional[Callable[[np.ndarray], tuple]] = None

    def make_config(self, **overrides):
        cfg = DiscretizationConfig(a=self.a, b=self.b, T=self.T,
                                   omega=self.omega)
        return replace(cfg, **overrides)


def _standing_wave(t, x):
    return np.cos(np.pi * t) * np.sin(np.pi * np.asarray(x))


def _standing_wave_dt(t, x):
    return -np.pi * np.sin(np.pi * t) * np.sin(np.pi * np.asarray(x))


def _cone_region(t):
    # grows from the left data block until t = 1/4, then shrinks again
    return (0.0, np.minimum(0.25 + t, 0.75 - t))


PRESETS = {
    # measurement region touches both lateral boundaries: continuation is
    # reliable everywhere
    "gcc1d": ExperimentPreset(
        name="gcc1d",
        a=0.0,
        b=1.0,
        T=0.5,
        omega=((0.0, 0.25), (0.75, 1.0)),
        u=_standing_wave,
        dt_u=_standing_wave_dt,
        restricted_region=None,
    ),
    # one-sided measurement region: continuation is reliable only inside the
    # domain of dependence of the data
    "nogcc1d": ExperimentPreset(
        name="nogcc1d",
        a=0.0,
        b=1.0,
        T=0.5,
        omega=((0.0, 0.25),),
        u=_standing_wave,
        dt_u=_standing_wave_dt,
        restricted_region=_cone_region,
    ),
}
