import time

import numpy as np
import pytest

from hullkit import GeometryError, SamplingExhausted, sampling
from hullkit.acceptance import _perturbed_polygon
from hullkit.sampling import random_polygon, random_polytope3, regular_polygon


class TestBoundedRetries:
    def test_random_polygon_without_valid_gaps_raises_quickly(self):
        # 126 gaps of more than 0.05 need more than 2 pi
        start = time.perf_counter()
        with pytest.raises(SamplingExhausted):
            random_polygon(np.random.default_rng(0), 126)
        assert time.perf_counter() - start < 5.0
        assert issubclass(SamplingExhausted, GeometryError)

    def test_random_polytope3_stops_at_the_cap(self, monkeypatch):
        # seed 0's first tetrahedron is rejected, a later one is accepted
        assert len(random_polytope3(np.random.default_rng(0), 4)) == 4
        monkeypatch.setattr(sampling, "MAX_TRIES", 1)
        with pytest.raises(SamplingExhausted):
            random_polytope3(np.random.default_rng(0), 4)

    def test_perturbed_polygon_without_convex_draw_raises(self):
        with pytest.raises(SamplingExhausted):
            _perturbed_polygon(np.random.default_rng(0), regular_polygon(20), 100.0)
