import numpy as np
import pytest

from waveuc.mesh import build_interval_mesh, mark_data_domain


def test_unit_interval_four_elements():
    mesh = build_interval_mesh(4)
    assert mesh.vertices == pytest.approx([0, 0.25, 0.5, 0.75, 1])
    assert mesh.h == pytest.approx(0.25)
    assert mesh.n_elems == 4


def test_element_lengths_sum_to_domain():
    for n in (7, 13, 5):
        mesh = build_interval_mesh(n)
        lengths = np.diff(mesh.vertices)
        assert abs(lengths.sum() - 1.0) <= 1e-13
        assert np.allclose(lengths, mesh.h)
        assert (mesh.vertices[0], mesh.vertices[-1]) == (0.0, 1.0)


def test_invalid_mesh_inputs():
    with pytest.raises(ValueError):
        build_interval_mesh(0)


def test_two_sided_data_domain():
    mesh = build_interval_mesh(4)
    mask = mark_data_domain(mesh, [[0, 0.25], [0.75, 1]])
    assert list(mask) == [True, False, False, True]


def test_one_sided_data_domain():
    mesh = build_interval_mesh(4)
    mask = mark_data_domain(mesh, [[0, 0.25]])
    assert list(mask) == [True, False, False, False]


def test_marking_order_independent():
    mesh = build_interval_mesh(8)
    a = mark_data_domain(mesh, [[0, 0.25], [0.75, 1]])
    b = mark_data_domain(mesh, [[0.75, 1], [0, 0.25]])
    assert np.array_equal(a, b)


def test_marking_idempotent_under_duplicates():
    mesh = build_interval_mesh(8)
    a = mark_data_domain(mesh, [[0, 0.25]])
    b = mark_data_domain(mesh, [[0, 0.25], [0, 0.25]])
    assert np.array_equal(a, b)


def test_misaligned_endpoint_rejected():
    mesh = build_interval_mesh(4)
    with pytest.raises(ValueError, match="vertex"):
        mark_data_domain(mesh, [[0, 0.3]])


def test_interval_outside_domain_rejected():
    mesh = build_interval_mesh(4)
    with pytest.raises(ValueError):
        mark_data_domain(mesh, [[-0.25, 0.25]])


def test_empty_interval_rejected():
    mesh = build_interval_mesh(4)
    with pytest.raises(ValueError):
        mark_data_domain(mesh, [[0.5, 0.25]])
