import numpy as np
import pytest

from waveuc.mesh import build_interval_mesh, mark_data_domain


def test_unit_interval_four_elements():
    mesh = build_interval_mesh(0, 1, 4)
    assert mesh.vertices == pytest.approx([0, 0.25, 0.5, 0.75, 1])
    assert mesh.h == pytest.approx(0.25)
    assert list(mesh.interior_facets) == [1, 2, 3]


def test_symmetric_interval():
    mesh = build_interval_mesh(-1, 1, 8)
    assert mesh.h == pytest.approx(0.25)
    assert mesh.vertices == pytest.approx(-mesh.vertices[::-1])


def test_element_lengths_sum_to_domain():
    for (a, b, n) in ((0, 1, 7), (-2.5, 3.5, 13), (0.1, 0.9, 5)):
        mesh = build_interval_mesh(a, b, n)
        lengths = np.diff(mesh.vertices)
        assert abs(lengths.sum() - (b - a)) <= 1e-13 * abs(b - a)
        assert np.allclose(lengths, mesh.h)


def test_invalid_mesh_inputs():
    with pytest.raises(ValueError):
        build_interval_mesh(1, 1, 4)
    with pytest.raises(ValueError):
        build_interval_mesh(0, 1, 0)


def test_two_sided_data_domain():
    mesh = build_interval_mesh(0, 1, 4)
    mask = mark_data_domain(mesh, [[0, 0.25], [0.75, 1]])
    assert list(mask) == [True, False, False, True]


def test_one_sided_data_domain():
    mesh = build_interval_mesh(0, 1, 4)
    mask = mark_data_domain(mesh, [[0, 0.25]])
    assert list(mask) == [True, False, False, False]


def test_marking_order_independent():
    mesh = build_interval_mesh(0, 1, 8)
    a = mark_data_domain(mesh, [[0, 0.25], [0.75, 1]])
    b = mark_data_domain(mesh, [[0.75, 1], [0, 0.25]])
    assert np.array_equal(a, b)


def test_marking_idempotent_under_duplicates():
    mesh = build_interval_mesh(0, 1, 8)
    a = mark_data_domain(mesh, [[0, 0.25]])
    b = mark_data_domain(mesh, [[0, 0.25], [0, 0.25]])
    assert np.array_equal(a, b)


def test_misaligned_endpoint_rejected():
    mesh = build_interval_mesh(0, 1, 4)
    with pytest.raises(ValueError, match="vertex"):
        mark_data_domain(mesh, [[0, 0.3]])


def test_interval_outside_domain_rejected():
    mesh = build_interval_mesh(0, 1, 4)
    with pytest.raises(ValueError):
        mark_data_domain(mesh, [[-0.25, 0.25]])


def test_empty_interval_rejected():
    mesh = build_interval_mesh(0, 1, 4)
    with pytest.raises(ValueError):
        mark_data_domain(mesh, [[0.5, 0.25]])
