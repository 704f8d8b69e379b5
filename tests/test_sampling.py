import time

import numpy as np
import pytest

from hullkit import GeometryError, SamplingExhausted, homothety_fit, illumination_body, sampling, tcvp_check
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


class TestDirectionSets:
    @pytest.mark.parametrize("dim, n, fresh", [(2, 360, sampling.circle_directions), (2, 720, sampling.circle_directions),
                                               (3, 1024, sampling.fibonacci_sphere), (3, 100, sampling.fibonacci_sphere)])
    def test_cached_read_only_and_equal_to_a_fresh_set(self, dim, n, fresh):
        dirs = sampling.direction_set(dim, n)
        assert sampling.direction_set(dim, n) is dirs
        assert dirs.tobytes() == fresh(n).tobytes()
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        with pytest.raises(ValueError):
            dirs *= 2.0
        assert fresh(n).flags.writeable

    def test_callers_leave_the_cached_sets_unchanged(self, square, cube):
        # homothety_fit (720 and 1024 directions) and tcvp_check (360) run
        # on the shared sets; a write into one would raise ValueError
        for body in (square, cube):
            homothety_fit(body, illumination_body(body, body.volume).body)
            tcvp_check(body)
        for dim, n, fresh in ((2, 720, sampling.circle_directions), (3, 1024, sampling.fibonacci_sphere),
                              (2, 360, sampling.circle_directions), (3, 360, sampling.fibonacci_sphere)):
            assert sampling.direction_set(dim, n).tobytes() == fresh(n).tobytes()
