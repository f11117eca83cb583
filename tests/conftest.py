import numpy as np
import pytest
from hypothesis import settings

from waveuc.config import PRESETS
from waveuc.spacetime_system import SpaceTimeSystem

# reproducible property tests: the same examples on every run, no example
# database, and a generous per-example deadline for the slower solves
settings.register_profile("waveuc", derandomize=True, database=None,
                          deadline=2000)
settings.load_profile("waveuc")


def make_system(preset="gcc1d", **overrides):
    defaults = dict(k=1, q=1, kstar=1, qstar=1, n_elems=4, n_slabs=2)
    defaults.update(overrides)
    cfg = PRESETS[preset].make_config(**defaults)
    return SpaceTimeSystem(cfg)


class ApplyOnly:
    """A preconditioner seen through apply alone, as a tracing wrapper sees
    it: gmres must take the full path with it."""

    def __init__(self, precond):
        self.apply = precond.apply


class SlabFunction:
    """Pointwise evaluator of one slab's field pair, independent of the
    kron-based assembly path (used as a quadrature oracle in tests)."""

    def __init__(self, space, coeffs):
        # coeffs shape (2, n_modes, n_x)
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        assert self.coeffs.shape == (2, space.n_modes, space.n_x)

    def __call__(self, field, tau_ref, x, dx=0, dtime=0):
        """Value of the field at reference time tau_ref and physical x."""
        sp = self.space
        mesh = sp.mesh
        psi = sp.tbasis.eval(np.array(float(tau_ref)), deriv=dtime)
        psi = psi / sp.dt**dtime
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        k, h = sp.degree_x, mesh.h
        for i, xi in enumerate(x):
            e = min(int((xi - mesh.a) / h), mesh.n_elems - 1)
            ref = (xi - mesh.vertices[e]) / h
            phi = sp.xbasis.eval(np.array(ref), deriv=dx) / h**dx
            local = self.coeffs[field][:, e * k : e * k + k + 1]
            out[i] = psi @ local @ phi
        return out


def same_csr(a, b):
    """Whether two CSR matrices hold the same data, indices and indptr
    bytes."""
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("data", "indices", "indptr"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pair_coeffs(space, rng):
    return rng.standard_normal((2, space.n_modes, space.n_x))
