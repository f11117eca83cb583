"""Uniform 1D interval meshes and measurement-domain marking."""

from dataclasses import dataclass

import numpy as np

__all__ = ["IntervalMesh", "DataDomain", "build_interval_mesh", "mark_data_domain"]


@dataclass(frozen=True)
class IntervalMesh:
    """Uniform partition of [a, b] into n_elems elements of width h."""

    a: float
    b: float
    n_elems: int
    h: float
    vertices: np.ndarray
    # interior_facets[i] is the vertex index shared by elements i and i+1
    interior_facets: np.ndarray


def build_interval_mesh(a, b, n_elems):
    if not b > a:
        raise ValueError(f"empty domain: [{a}, {b}]")
    if n_elems < 1:
        raise ValueError(f"need at least one element, got {n_elems}")
    vertices = np.linspace(a, b, n_elems + 1)
    return IntervalMesh(
        a=float(a),
        b=float(b),
        n_elems=int(n_elems),
        h=(b - a) / n_elems,
        vertices=vertices,
        interior_facets=np.arange(1, n_elems),
    )


@dataclass(frozen=True)
class DataDomain:
    """Union of closed subintervals of the mesh, resolved element-wise.

    element_mask[e] is True iff element e lies inside one of the intervals.
    """

    intervals: tuple
    element_mask: np.ndarray

    @property
    def n_marked(self):
        return int(self.element_mask.sum())


def mark_data_domain(mesh, intervals):
    """Mark the elements covered by a union of subintervals of [a, b].

    Every interval endpoint must coincide with a mesh vertex (up to
    1e-12 * h), so that the marked region is exactly a union of elements.
    Marking is idempotent and independent of interval order.
    """
    tol = 1e-12 * mesh.h
    cleaned = []
    for lo, hi in intervals:
        if not hi > lo:
            raise ValueError(f"empty data interval: [{lo}, {hi}]")
        if lo < mesh.a - tol or hi > mesh.b + tol:
            raise ValueError(f"data interval [{lo}, {hi}] leaves the domain")
        for p in (lo, hi):
            if np.min(np.abs(mesh.vertices - p)) > tol:
                raise ValueError(
                    f"data interval endpoint {p} does not lie on a mesh vertex"
                )
        cleaned.append((float(lo), float(hi)))
    mask = np.zeros(mesh.n_elems, dtype=bool)
    midpoints = 0.5 * (mesh.vertices[:-1] + mesh.vertices[1:])
    for lo, hi in cleaned:
        mask |= (midpoints > lo) & (midpoints < hi)
    if not mask.any():
        raise ValueError("data domain does not cover any element")
    return DataDomain(intervals=tuple(sorted(cleaned)), element_mask=mask)
