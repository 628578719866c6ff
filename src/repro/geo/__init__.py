"""Geospatial substrate for map-based browsing and map visualizations.

The demo presents search results "over maps ... using different colors for
describing the degree of matching" and supports map-based browsing of
metadata pages. This package provides the primitives those features need:

- :mod:`repro.geo.point` — WGS-84 points and haversine distance;
- :mod:`repro.geo.bbox` — bounding boxes (containment, expansion);
- :mod:`repro.geo.projection` — Web-Mercator pixel projection;
- :mod:`repro.geo.cluster` — grid-based marker clustering, the same
  strategy map APIs use to collapse dense marker sets.
"""

from repro.geo.point import GeoPoint, haversine_km
from repro.geo.bbox import BoundingBox
from repro.geo.projection import WebMercator
from repro.geo.cluster import MarkerCluster, cluster_markers

__all__ = [
    "GeoPoint",
    "haversine_km",
    "BoundingBox",
    "WebMercator",
    "MarkerCluster",
    "cluster_markers",
]
