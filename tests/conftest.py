"""Shared fixtures: cached root systems, flat bases, and structural-check
reports, so the expensive exact solves run once per session; and
`bareiss_det`, the determinant oracle of the tests."""

import pytest

from saitostrata import (build_root_system, flat_coordinates,
                         identity_field_checks)

_ROOT_CACHE = {}
_FLAT_CACHE = {}
_REPORT_CACHE = {}


@pytest.fixture(scope="session")
def root_system():
    def get(label, rank=None):
        key = (label, rank)
        if key not in _ROOT_CACHE:
            _ROOT_CACHE[key] = build_root_system(label, rank)
        return _ROOT_CACHE[key]
    return get


@pytest.fixture(scope="session")
def flat_basis(root_system):
    def get(label, rank):
        key = (label, rank)
        if key not in _FLAT_CACHE:
            _FLAT_CACHE[key] = flat_coordinates(root_system(label, rank))
        return _FLAT_CACHE[key]
    return get


@pytest.fixture(scope="session")
def identity_report(flat_basis):
    def get(label, rank):
        key = (label, rank)
        if key not in _REPORT_CACHE:
            _REPORT_CACHE[key] = identity_field_checks(flat_basis(label, rank))
        return _REPORT_CACHE[key]
    return get


def bareiss_det(matrix):
    """Exact determinant of a square matrix by fraction-free Bareiss
    elimination.  The entries are MultiPolys, or ints (`exactla.det_fraction`
    scales a rational matrix to them); every division is exact."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix not square")
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in matrix]
    sign, prev = 1, 1       # the first step would divide by 1 and skips it
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num // prev if k else num
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d
