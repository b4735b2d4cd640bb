import numpy as np
import pytest

from infillbench.testbed import (
    SUPPORTED_DIMENSIONS,
    OutOfBounds,
    UnknownFunction,
    evaluate,
    list_suite,
    make_instance,
    suite_manifest,
)

ALL_IDS = [entry.function_id for entry in list_suite()]
BASE = {entry.function_id: entry.base for entry in list_suite()}


class TestBaseLandscapes:
    def test_sphere_origin(self):
        assert BASE[1](np.zeros(3)) == 0.0

    def test_rastrigin_origin(self):
        assert BASE[3](np.zeros(2)) == 0.0

    def test_rastrigin_known_point(self):
        # 10*2 + (0.25 - 10*cos(pi)) + (0 - 10*cos(0)) = 20.25
        assert abs(BASE[3](np.array([0.5, 0.0])) - 20.25) <= 1e-12

    def test_rosenbrock_minimum(self):
        # base form shifted so the optimum sits at the origin
        assert BASE[8](np.zeros(5)) == 0.0

    def test_separable_cores_sum_per_coordinate(self):
        # f(z) equals the sum of f evaluated one coordinate at a time
        rng = np.random.default_rng(0)
        for fid in (1, 3):
            g = BASE[fid]
            for _ in range(20):
                z = rng.uniform(-4.0, 4.0, 4)
                total = 0.0
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = z[i]
                    total += g(e)
                np.testing.assert_allclose(g(z), total, rtol=1e-12, atol=1e-12)


class TestInstances:
    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            make_instance(4, 2, 1)

    def test_deterministic(self):
        a = make_instance(1, 2, 1)
        b = make_instance(1, 2, 1)
        np.testing.assert_array_equal(a.x_opt, b.x_opt)
        assert a.f_opt == b.f_opt

    def test_instances_differ(self):
        shifts = {tuple(np.round(make_instance(3, 2, i).x_opt, 12)) for i in range(1, 16)}
        assert len(shifts) == 15

    def test_optimum_inside_inner_box(self):
        for fid in ALL_IDS:
            for inst in (1, 7, 15):
                f = make_instance(fid, 3, inst)
                assert np.all(np.abs(f.x_opt) <= 4.0)

    def test_optimum_value_attained(self):
        for fid in ALL_IDS:
            for d in SUPPORTED_DIMENSIONS:
                f = make_instance(fid, d, 2)
                assert abs(evaluate(f, f.x_opt) - f.f_opt) <= 1e-9

    def test_rotation_orthonormal(self):
        for fid in (9, 11, 13, 17):
            f = make_instance(fid, 10, 3)
            assert f.rotation is not None
            err = np.abs(f.rotation.T @ f.rotation - np.eye(10)).max()
            assert err <= 1e-10

    def test_separable_classes_not_rotated(self):
        for fid in (1, 2, 3, 5, 8, 20):
            assert make_instance(fid, 3, 1).rotation is None

    def test_values_never_below_optimum(self):
        rng = np.random.default_rng(5)
        for fid in ALL_IDS:
            for d in SUPPORTED_DIMENSIONS:
                f = make_instance(fid, d, 1)
                pts = rng.uniform(-5.0, 5.0, (1000, d))
                values = np.array([evaluate(f, p) for p in pts])
                assert values.min() >= f.f_opt - 1e-9, (fid, d)
                assert np.all(np.isfinite(values))

    def test_out_of_bounds(self):
        f = make_instance(1, 2, 1)
        with pytest.raises(OutOfBounds):
            evaluate(f, np.array([5.1, 0.0]))


class TestSuiteListing:
    def test_required_members(self):
        byid = {e.function_id: e for e in list_suite()}
        assert set(byid) == {1, 2, 3, 5, 8, 9, 11, 12, 13, 14, 17, 20}
        assert byid[3].name == "Rastrigin"
        assert "multimodal" in byid[3].tags
        assert byid[13].name == "Sharp Ridge"
        assert "unimodal" in byid[13].tags and "high conditioning" in byid[13].tags

    def test_all_entries_cover_standard_dimensions(self):
        for entry in list_suite():
            assert set(SUPPORTED_DIMENSIONS) <= set(entry.dimensions)

    def test_manifest_round_trip(self):
        manifest = suite_manifest()
        assert len(manifest) == len(list_suite())
        assert all({"function_id", "name", "tags", "dimensions"} <= set(m) for m in manifest)
