"""Uniform meshes of the interval [0, 1] and measurement-domain marking.

Every experiment is posed on [0, 1], so the mesh has no other domain.  The
measurement domain is resolved element-wise: mark_data_domain returns a
boolean mask over the mesh's elements, the form every reader of the domain
takes.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["IntervalMesh", "build_interval_mesh", "mark_data_domain"]


@dataclass(frozen=True)
class IntervalMesh:
    """Uniform partition of [0, 1] into n_elems elements of width h."""

    n_elems: int
    h: float
    vertices: np.ndarray


def build_interval_mesh(n_elems):
    if n_elems < 1:
        raise ValueError(f"need at least one element, got {n_elems}")
    return IntervalMesh(n_elems=int(n_elems), h=1.0 / n_elems,
                        vertices=np.linspace(0.0, 1.0, n_elems + 1))


def mark_data_domain(mesh, intervals):
    """The elements covered by a union of subintervals of [0, 1], as a
    boolean mask: mask[e] is True iff element e lies inside one of them.

    Every interval endpoint must coincide with a mesh vertex (up to
    1e-12 * h), so that the marked region is exactly a union of elements.
    Marking is idempotent and independent of interval order.
    """
    tol = 1e-12 * mesh.h
    mask = np.zeros(mesh.n_elems, dtype=bool)
    midpoints = 0.5 * (mesh.vertices[:-1] + mesh.vertices[1:])
    for lo, hi in intervals:
        if not hi > lo:
            raise ValueError(f"empty data interval: [{lo}, {hi}]")
        if lo < -tol or hi > 1.0 + tol:
            raise ValueError(f"data interval [{lo}, {hi}] leaves the domain")
        for p in (lo, hi):
            if np.min(np.abs(mesh.vertices - p)) > tol:
                raise ValueError(
                    f"data interval endpoint {p} does not lie on a mesh vertex"
                )
        mask |= (midpoints > lo) & (midpoints < hi)
    if not mask.any():
        raise ValueError("data domain does not cover any element")
    return mask
