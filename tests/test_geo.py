"""Tests for the geospatial substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.geo import (
    BoundingBox,
    GeoPoint,
    MarkerCluster,
    WebMercator,
    cluster_markers,
    haversine_km,
)

LAUSANNE = GeoPoint(46.5197, 6.6323)
ZURICH = GeoPoint(47.3769, 8.5417)
DAVOS = GeoPoint(46.8027, 9.8360)

lat_strategy = st.floats(min_value=-85, max_value=85, allow_nan=False)
lon_strategy = st.floats(min_value=-180, max_value=180, allow_nan=False)


class TestGeoPoint:
    def test_valid_point(self):
        point = GeoPoint(46.5, 6.6)
        assert point.lat == 46.5

    def test_invalid_latitude(self):
        with pytest.raises(ReproError):
            GeoPoint(91.0, 0.0)

    def test_invalid_longitude(self):
        with pytest.raises(ReproError):
            GeoPoint(0.0, -181.0)

    def test_haversine_known_distance(self):
        # Lausanne-Zurich is about 173 km great-circle
        # (0.86 deg lat ~ 95 km; 1.91 deg lon * cos 47 ~ 145 km).
        assert haversine_km(LAUSANNE, ZURICH) == pytest.approx(173, abs=3)

    def test_haversine_zero(self):
        assert haversine_km(DAVOS, DAVOS) == 0.0

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=100, deadline=None)
    def test_haversine_symmetric_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert haversine_km(a, b) >= 0
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


class TestBoundingBox:
    def test_around_points(self):
        box = BoundingBox.around([LAUSANNE, ZURICH, DAVOS])
        for point in (LAUSANNE, ZURICH, DAVOS):
            assert box.contains(point)

    def test_around_empty_rejected(self):
        with pytest.raises(ReproError):
            BoundingBox.around([])

    def test_invalid_orientation(self):
        with pytest.raises(ReproError):
            BoundingBox(47.0, 6.0, 46.0, 8.0)
        with pytest.raises(ReproError):
            BoundingBox(46.0, 8.0, 47.0, 6.0)

    def test_center(self):
        box = BoundingBox(46.0, 6.0, 48.0, 10.0)
        center = box.center()
        assert center.lat == 47.0 and center.lon == 8.0

    def test_contains_boundary(self):
        box = BoundingBox(46.0, 6.0, 48.0, 10.0)
        assert box.contains(GeoPoint(46.0, 6.0))
        assert not box.contains(GeoPoint(45.999, 6.0))

    def test_intersects(self):
        a = BoundingBox(46.0, 6.0, 47.0, 8.0)
        b = BoundingBox(46.5, 7.0, 48.0, 9.0)
        c = BoundingBox(10.0, 10.0, 20.0, 20.0)
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c)

    def test_padding_clamped(self):
        box = BoundingBox.around([GeoPoint(89.9, 179.9)], padding_deg=1.0)
        assert box.north == 90.0 and box.east == 180.0


class TestWebMercator:
    def test_projection_inside_canvas(self):
        box = BoundingBox.around([LAUSANNE, ZURICH, DAVOS], padding_deg=0.1)
        projection = WebMercator(box, 800, 600, margin=20)
        for point in (LAUSANNE, ZURICH, DAVOS):
            x, y = projection.project(point)
            assert 0 <= x <= 800 and 0 <= y <= 600

    def test_north_maps_above_south(self):
        box = BoundingBox(46.0, 6.0, 48.0, 10.0)
        projection = WebMercator(box, 100, 100)
        _, y_north = projection.project(GeoPoint(47.9, 8.0))
        _, y_south = projection.project(GeoPoint(46.1, 8.0))
        assert y_north < y_south  # screen y grows downward

    def test_east_maps_right_of_west(self):
        box = BoundingBox(46.0, 6.0, 48.0, 10.0)
        projection = WebMercator(box, 100, 100)
        x_west, _ = projection.project(GeoPoint(47.0, 6.5))
        x_east, _ = projection.project(GeoPoint(47.0, 9.5))
        assert x_west < x_east

    def test_degenerate_box(self):
        box = BoundingBox(46.0, 6.0, 46.0, 6.0)
        projection = WebMercator(box, 100, 80)
        assert projection.project(GeoPoint(46.0, 6.0)) == (50.0, 40.0)

    def test_invalid_canvas(self):
        box = BoundingBox(46.0, 6.0, 48.0, 10.0)
        with pytest.raises(ReproError):
            WebMercator(box, 0, 100)
        with pytest.raises(ReproError):
            WebMercator(box, 100, 100, margin=60)


class TestClustering:
    def test_empty(self):
        assert cluster_markers([]) == []

    def test_all_in_one_cell(self):
        markers = [(GeoPoint(46.80 + i * 1e-4, 9.83), f"s{i}") for i in range(5)]
        clusters = cluster_markers(markers, grid=1)
        assert len(clusters) == 1
        assert clusters[0].size == 5
        assert not clusters[0].is_singleton

    def test_distant_points_split(self):
        markers = [(LAUSANNE, "l"), (DAVOS, "d")]
        clusters = cluster_markers(markers, grid=8)
        assert len(clusters) == 2
        assert all(c.is_singleton for c in clusters)

    def test_centroid_is_mean(self):
        markers = [(GeoPoint(46.0, 6.0), "a"), (GeoPoint(46.2, 6.2), "b")]
        clusters = cluster_markers(markers, grid=1)
        assert clusters[0].centroid.lat == pytest.approx(46.1)
        assert clusters[0].centroid.lon == pytest.approx(6.1)

    def test_out_of_bbox_markers_dropped(self):
        box = BoundingBox(46.0, 6.0, 47.0, 7.0)
        markers = [(GeoPoint(46.5, 6.5), "in"), (GeoPoint(10.0, 10.0), "out")]
        clusters = cluster_markers(markers, bbox=box)
        assert sum(c.size for c in clusters) == 1

    def test_sorted_by_size(self):
        markers = [(GeoPoint(46.001 + i * 1e-4, 6.0), i) for i in range(3)]
        markers.append((GeoPoint(46.9, 6.9), "lonely"))
        clusters = cluster_markers(markers, grid=2)
        assert clusters[0].size >= clusters[-1].size

    def test_invalid_grid(self):
        with pytest.raises(ReproError):
            cluster_markers([(LAUSANNE, "x")], grid=0)

    @given(st.lists(st.tuples(st.floats(46, 47), st.floats(6, 7)), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_membership_preserved(self, coords):
        markers = [(GeoPoint(lat, lon), i) for i, (lat, lon) in enumerate(coords)]
        clusters = cluster_markers(markers, grid=4)
        recovered = sorted(payload for c in clusters for _, payload in c.members)
        assert recovered == list(range(len(coords)))
