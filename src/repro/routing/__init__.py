"""The global router of §4.2: M-shortest routes plus random interchange."""

from .interchange import InterchangeResult, RouteSelector
from .mpaths import SearchGraph, dijkstra, k_shortest_paths, path_edges
from .router import GlobalRouter, RoutingResult
from .steiner import (
    RouteAlternative,
    m_shortest_routes,
    prim_order,
)

__all__ = [
    "InterchangeResult",
    "RouteSelector",
    "SearchGraph",
    "dijkstra",
    "k_shortest_paths",
    "path_edges",
    "GlobalRouter",
    "RoutingResult",
    "RouteAlternative",
    "m_shortest_routes",
    "prim_order",
]
