"""Planar road network: graph storage, CSV loading, synthetic grid generation,
nearest-edge lookup, and shortest-path routing.

Coordinates are planar meters. Edges are directed; an undirected street is two
directed edges. Hourly congestion is a multiplicative speed factor in (0, 1]
applied uniformly to all edges.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

LENGTH_TOLERANCE = 1e-6  # relative slack for length >= endpoint distance


class NetworkError(ValueError):
    pass


class NoRouteError(NetworkError):
    pass


@dataclass(frozen=True)
class Coord:
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    edge_id: str
    from_node: str
    to_node: str
    length_m: float
    speed_limit_mps: float
    gradient: float  # signed rise/run


def airline_distance(a: Coord, b: Coord) -> float:
    """Straight-line (Euclidean) distance in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


@dataclass
class Route:
    """An ordered list of edge ids; consecutive edges share a node.

    :func:`shortest_path` memoises its routes on the network and hands the
    same object to every caller that asks for the same route, so a route
    must not be mutated.
    """

    edges: list[str]
    total_length_m: float
    origin: str
    destination: str

    def __len__(self) -> int:
        return len(self.edges)


class RoadNetwork:
    """Immutable after construction; safe to share read-only.

    The only state that grows is the memo of :func:`shortest_path` results,
    keyed by ``(from_edge, to_edge, weight, hour)``. It is valid because the
    graph and its speed factors never change.
    """

    def __init__(
        self,
        nodes: dict[str, Coord],
        edges: dict[str, Edge],
        hourly_speed_factors: list[float] | None = None,
    ):
        self.nodes = nodes
        self.edges = edges
        if hourly_speed_factors is None:
            hourly_speed_factors = [1.0] * 24
        if len(hourly_speed_factors) != 24 or any(
            not (0.0 < f <= 1.0) for f in hourly_speed_factors
        ):
            raise NetworkError("hourly speed factors must be 24 values in (0, 1]")
        self.hourly_speed_factors = tuple(hourly_speed_factors)
        # adjacency sorted by edge id for deterministic traversal
        self.adjacency: dict[str, list[str]] = {n: [] for n in nodes}
        for eid in sorted(edges):
            self.adjacency[edges[eid].from_node].append(eid)
        self._geom: tuple | None = None
        self._routes: dict[tuple[str, str, str, int], Route] = {}
        self._validate()

    def _validate(self) -> None:
        for nid, c in self.nodes.items():
            if not (math.isfinite(c.x) and math.isfinite(c.y)):
                raise NetworkError(f"node {nid}: non-finite coordinates")
        for eid, e in self.edges.items():
            for n in (e.from_node, e.to_node):
                if n not in self.nodes:
                    raise NetworkError(f"edge {eid}: unknown node {n}")
            if e.length_m <= 0:
                raise NetworkError(f"edge {eid}: non-positive length")
            if e.speed_limit_mps <= 0:
                raise NetworkError(f"edge {eid}: non-positive speed limit")
            if abs(e.gradient) >= 1.0:
                raise NetworkError(f"edge {eid}: |gradient| must be < 1")
            straight = airline_distance(self.nodes[e.from_node], self.nodes[e.to_node])
            if e.length_m < straight * (1.0 - LENGTH_TOLERANCE):
                raise NetworkError(
                    f"edge {eid}: length shorter than endpoint distance "
                    f"({e.length_m} < {straight})"
                )

    def speed_factor(self, hour: int) -> float:
        return self.hourly_speed_factors[hour % 24]

    def effective_speed(self, edge_id: str, hour: int) -> float:
        e = self.edges[edge_id]
        return e.speed_limit_mps * self.speed_factor(hour)

    def edge_midpoint(self, edge_id: str) -> Coord:
        e = self.edges[edge_id]
        a, b = self.nodes[e.from_node], self.nodes[e.to_node]
        return Coord((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)

    def _geometry(self):
        # cached per-edge endpoint arrays, sorted by edge id so that argmin
        # tie-breaks resolve to the smallest id
        if self._geom is None:
            ids = sorted(self.edges)
            ax = np.empty(len(ids))
            ay = np.empty(len(ids))
            bx = np.empty(len(ids))
            by = np.empty(len(ids))
            for i, eid in enumerate(ids):
                e = self.edges[eid]
                a, b = self.nodes[e.from_node], self.nodes[e.to_node]
                ax[i], ay[i], bx[i], by[i] = a.x, a.y, b.x, b.y
            dx = bx - ax
            dy = by - ay
            seg_sq = dx * dx + dy * dy
            self._geom = (ids, ax, ay, dx, dy, np.maximum(seg_sq, 1e-300))
        return self._geom


def _parse_row(row: dict, key: str, kind, row_no: int, file_label: str):
    raw = (row.get(key) or "").strip()
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise NetworkError(
            f"{file_label} row {row_no}: bad value {raw!r} for column {key}"
        ) from None


def load_network(
    nodes_path,
    edges_path,
    hourly_speed_factors: list[float] | None = None,
) -> RoadNetwork:
    """Load a network from ``nodes.csv`` / ``edges.csv``.

    Schemas: ``node_id,x_m,y_m`` and
    ``edge_id,from_node,to_node,length_m,speed_limit_mps,gradient``.
    Any structural problem raises :class:`NetworkError` naming the row.
    """
    nodes: dict[str, Coord] = {}
    with open(nodes_path, newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=2):
            nid = (row.get("node_id") or "").strip()
            if not nid:
                raise NetworkError(f"nodes row {row_no}: missing node_id")
            if nid in nodes:
                raise NetworkError(f"nodes row {row_no}: duplicate node id {nid}")
            x = _parse_row(row, "x_m", float, row_no, "nodes")
            y = _parse_row(row, "y_m", float, row_no, "nodes")
            nodes[nid] = Coord(x, y)

    edges: dict[str, Edge] = {}
    with open(edges_path, newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=2):
            eid = (row.get("edge_id") or "").strip()
            if not eid:
                raise NetworkError(f"edges row {row_no}: missing edge_id")
            if eid in edges:
                raise NetworkError(f"edges row {row_no}: duplicate edge id {eid}")
            frm = (row.get("from_node") or "").strip()
            to = (row.get("to_node") or "").strip()
            for n in (frm, to):
                if n not in nodes:
                    raise NetworkError(f"edges row {row_no}: unknown node {n}")
            length = _parse_row(row, "length_m", float, row_no, "edges")
            speed = _parse_row(row, "speed_limit_mps", float, row_no, "edges")
            gradient = _parse_row(row, "gradient", float, row_no, "edges")
            if length <= 0:
                raise NetworkError(f"edges row {row_no}: non-positive length")
            if speed <= 0:
                raise NetworkError(f"edges row {row_no}: non-positive speed limit")
            straight = airline_distance(nodes[frm], nodes[to])
            if length < straight * (1.0 - LENGTH_TOLERANCE):
                raise NetworkError(
                    f"edges row {row_no}: length shorter than endpoint distance"
                )
            edges[eid] = Edge(eid, frm, to, length, speed, gradient)

    return RoadNetwork(nodes, edges, hourly_speed_factors)


def generate_grid(
    rows: int,
    cols: int,
    edge_length_m: float,
    speed_limit_mps: float,
    hourly_speed_factors: list[float] | None = None,
) -> RoadNetwork:
    """Manhattan grid with two directed edges per segment and zero gradient.

    Node ids are ``n{row}_{col}``; edge ids are ``e`` plus a zero-padded
    counter so lexicographic order matches creation order.
    """
    if rows < 2 or cols < 2:
        raise NetworkError("grid needs rows >= 2 and cols >= 2")
    if edge_length_m <= 0 or speed_limit_mps <= 0:
        raise NetworkError("edge length and speed limit must be positive")

    nodes: dict[str, Coord] = {}
    for r in range(rows):
        for c in range(cols):
            nodes[f"n{r}_{c}"] = Coord(c * edge_length_m, r * edge_length_m)

    edges: dict[str, Edge] = {}
    counter = 0

    def add_pair(a: str, b: str):
        nonlocal counter
        for frm, to in ((a, b), (b, a)):
            eid = f"e{counter:05d}"
            edges[eid] = Edge(eid, frm, to, edge_length_m, speed_limit_mps, 0.0)
            counter += 1

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add_pair(f"n{r}_{c}", f"n{r}_{c + 1}")
            if r + 1 < rows:
                add_pair(f"n{r}_{c}", f"n{r + 1}_{c}")

    return RoadNetwork(nodes, edges, hourly_speed_factors)


NEAREST_TIE_REL = 1e-9  # distances this close count as tied


def nearest_edge(net: RoadNetwork, p: Coord) -> str:
    """Edge minimizing point-to-segment distance; ties go to the smallest id.

    Two mathematically equal distances (e.g. the two directions of the same
    street) can differ by rounding, so anything within ``NEAREST_TIE_REL``
    of the minimum counts as tied.
    """
    if not net.edges:
        raise NetworkError("nearest_edge on empty network")
    ids, ax, ay, dx, dy, seg_sq = net._geometry()
    px = p.x - ax
    py = p.y - ay
    t = np.clip((px * dx + py * dy) / seg_sq, 0.0, 1.0)
    ex = px - t * dx
    ey = py - t * dy
    dist_sq = ex * ex + ey * ey
    d_min = float(dist_sq.min())
    threshold = d_min * (1.0 + 2.0 * NEAREST_TIE_REL) + 1e-300
    candidates = np.flatnonzero(dist_sq <= threshold)
    return min(ids[int(i)] for i in candidates)


def snap_distance(net: RoadNetwork, p: Coord, edge_id: str) -> float:
    """Distance from ``p`` to the closest point on ``edge_id``."""
    e = net.edges[edge_id]
    a, b = net.nodes[e.from_node], net.nodes[e.to_node]
    dx, dy = b.x - a.x, b.y - a.y
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return airline_distance(p, a)
    t = max(0.0, min(1.0, ((p.x - a.x) * dx + (p.y - a.y) * dy) / seg_sq))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def _edge_weight(net: RoadNetwork, edge: Edge, weight: str, hour: int) -> float:
    if weight == "distance":
        return edge.length_m
    if weight == "travel_time":
        return edge.length_m / (edge.speed_limit_mps * net.speed_factor(hour))
    raise NetworkError(f"unknown routing weight {weight!r}")


def shortest_path(
    net: RoadNetwork,
    from_edge: str,
    to_edge: str,
    weight: str = "travel_time",
    hour: int = 0,
) -> Route:
    """Minimal-weight route from the end of ``from_edge`` to the start of
    ``to_edge``, inclusive of both edges (Dijkstra; weights are nonnegative).

    Routes are memoised on ``net``: a repeated query returns the same
    :class:`Route` object. Failed queries are not memoised.
    """
    key = (from_edge, to_edge, weight, hour)
    route = net._routes.get(key)
    if route is None:
        route = net._routes[key] = _dijkstra(net, from_edge, to_edge, weight, hour)
    return route


def _dijkstra(net: RoadNetwork, from_edge: str, to_edge: str, weight: str,
              hour: int) -> Route:
    for eid in (from_edge, to_edge):
        if eid not in net.edges:
            raise NetworkError(f"unknown edge {eid}")
    if from_edge == to_edge:
        e = net.edges[from_edge]
        return Route([from_edge], e.length_m, from_edge, to_edge)

    source = net.edges[from_edge].to_node
    target = net.edges[to_edge].from_node

    dist: dict[str, float] = {source: 0.0}
    prev_edge: dict[str, str] = {}
    visited: set[str] = set()
    frontier: list[tuple[float, str]] = [(0.0, source)]
    while frontier:
        d, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for eid in net.adjacency[node]:
            e = net.edges[eid]
            nd = d + _edge_weight(net, e, weight, hour)
            if nd < dist.get(e.to_node, math.inf):
                dist[e.to_node] = nd
                prev_edge[e.to_node] = eid
                heapq.heappush(frontier, (nd, e.to_node))

    if target not in visited and target != source:
        raise NoRouteError(f"no route from {from_edge} to {to_edge}")

    middle: list[str] = []
    node = target
    while node != source:
        eid = prev_edge[node]
        middle.append(eid)
        node = net.edges[eid].from_node
    middle.reverse()

    edge_list = [from_edge] + middle + [to_edge]
    total = sum(net.edges[eid].length_m for eid in edge_list)
    return Route(edge_list, total, from_edge, to_edge)


def route_travel_time(net: RoadNetwork, route: Route, hour: int = 0) -> float:
    """Free-flow travel time of a route in seconds at the given hour."""
    return sum(
        net.edges[eid].length_m / net.effective_speed(eid, hour)
        for eid in route.edges
    )
