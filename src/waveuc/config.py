"""Run configuration, validation and the built-in experiment presets."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import MAX_SPATIAL_DEGREE, MAX_TEMPORAL_DEGREE
from .mesh import build_interval_mesh, mark_data_domain
from .precond import KINDS

__all__ = [
    "DiscretizationConfig",
    "ExperimentPreset",
    "PRESETS",
    "default_lambda",
]

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
        return 1.0 / self.n_elems

    def mesh(self):
        """The spatial mesh: n_elems elements on the domain [0, 1]."""
        return build_interval_mesh(self.n_elems)

    def resolved_lambda(self):
        return default_lambda(self.k) if self.lam is None else self.lam

    def validate(self):
        # nan fails every comparison below and inf passes most of them
        reals = [("T", self.T), ("tol", self.tol)]
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
        ratio = self.dt / self.h
        if not MIN_DT_OVER_H <= ratio <= MAX_DT_OVER_H:
            raise ValueError(
                f"slab length / mesh width ratio {ratio:.3g} outside "
                f"[{MIN_DT_OVER_H}, {MAX_DT_OVER_H}]"
            )
        if self.precond not in KINDS:
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
        mark_data_domain(self.mesh(), self.omega)
        return self


@dataclass(frozen=True)
class ExperimentPreset:
    """A named experiment: measurement region, exact solution, restricted
    region.  Every experiment is posed on the interval [0, 1] over (0, T)
    (DiscretizationConfig.mesh and .T).

    u and dt_u take an array of times and an array of points that broadcast
    together (the RHS and the error norms pass times of shape (times, 1, 1)
    beside points of shape (..., points)) and return their values there.
    restricted_region takes an array of times and the final time T and
    returns the two ends of the subinterval at each time, as arrays or
    scalars.
    """

    name: str
    omega: tuple
    u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dt_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (times, T) -> spatial subintervals on which continuation is
    # theoretically reliable; None when the whole domain is covered
    restricted_region: Optional[Callable[[np.ndarray, float], tuple]] = None

    def make_config(self, **overrides):
        """The preset's configuration with the given fields overridden.  A
        restricted region is taken about the preset's omega, so a preset
        with one refuses any other omega."""
        omega = overrides.setdefault("omega", self.omega)
        if self.restricted_region is not None and omega != self.omega:
            raise ValueError(f"preset {self.name} measures on omega = "
                             f"{self.omega} only, which its restricted "
                             f"region follows; got omega = {omega}")
        return DiscretizationConfig(**overrides)


def _standing_wave(t, x):
    return np.cos(np.pi * t) * np.sin(np.pi * np.asarray(x))


def _standing_wave_dt(t, x):
    return -np.pi * np.sin(np.pi * t) * np.sin(np.pi * np.asarray(x))


def _one_sided(e):
    """The preset with data on (0, e) only.  Continuation over (0, T) is
    reliable in the data's domain of dependence: the points (x, t) of [0, 1]
    whose left-going characteristics, backwards and forwards in time, both
    reach the data within (0, T), that is x < min(e + t, e + T - t)
    (reflections at x = 1 ignored)."""
    def cone(t, T):
        return (0.0, np.minimum(np.minimum(e + t, (e + T) - t), 1.0))
    return ExperimentPreset(name="nogcc1d", omega=((0.0, e),),
                            u=_standing_wave, dt_u=_standing_wave_dt,
                            restricted_region=cone)


PRESETS = {
    # measurement region touches both lateral boundaries: continuation is
    # reliable everywhere
    "gcc1d": ExperimentPreset(
        name="gcc1d",
        omega=DiscretizationConfig.omega,
        u=_standing_wave,
        dt_u=_standing_wave_dt,
        restricted_region=None,
    ),
    # one-sided measurement region: continuation is reliable only inside the
    # domain of dependence of the data
    "nogcc1d": _one_sided(0.25),
}
