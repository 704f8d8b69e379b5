import sys

import numpy as np
import pytest

from hullkit import GeometryError, hull


@pytest.fixture
def square():
    return hull([[1, 1], [-1, 1], [-1, -1], [1, -1]])


@pytest.fixture
def cube():
    return hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


@pytest.fixture
def tetrahedron():
    return hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


@pytest.fixture
def unit_triangle():
    return hull([[0, 0], [1, 0], [0, 1]])


def unit_vector(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def outcome(fn, *args):
    """fn's result as bytes (a tuple of them for a tuple result), or its
    exception's type and message: what byte-for-byte reference tests
    compare."""
    try:
        result = fn(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return tuple(np.asarray(r, dtype=float).tobytes() for r in result)
    return np.asarray(result).tobytes()


def calls_in(fn, *args):
    """Python-level function calls (``call`` and ``c_call`` profile events)
    that fn(*args) makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count
