"""Spatial substrate for the LTC reproduction.

This package provides the small amount of computational geometry the paper
relies on: 2-D points with Euclidean distance, axis-aligned bounding boxes,
convex hulls (used to constrain task locations to the region covered by
worker check-ins, as in the paper's real-data setup).  The uniform grid
spatial index (:mod:`repro.geo.grid_index`) serves only the pre-engine
candidate oracle and is not re-exported here; import it explicitly.
"""

from repro.geo.point import Point
from repro.geo.bbox import BoundingBox
from repro.geo.hull import convex_hull, point_in_convex_polygon

__all__ = [
    "Point",
    "BoundingBox",
    "convex_hull",
    "point_in_convex_polygon",
]
