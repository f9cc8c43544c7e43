"""Planar road network: graph storage, CSV loading, synthetic grid generation,
nearest-edge lookup, and shortest-path routing.

Coordinates are planar meters. Edges are directed; an undirected street is two
directed edges. Hourly congestion is a multiplicative speed factor in (0, 1]
applied uniformly to all edges: it scales travel times, not routes.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .engine import left_sum

LENGTH_TOLERANCE = 1e-6  # relative slack for length >= endpoint distance
# the longest edge a network may have, longer than any road between two
# junctions; the driven-distance histogram grows by one bin per last-bin
# width of the longest trip, so a 2**63 m edge asks for about 4e16 bins
# of 250 m
MAX_EDGE_LENGTH_M = 100_000.0
# the most nodes a generated grid may have: 500 x 500 (about a million
# edges) builds in 13 s and 430 MB on a 2-vCPU x86-64 VM with Python 3.11
MAX_GRID_NODES = 250_000


class NetworkError(ValueError):
    pass


class NoRouteError(NetworkError):
    pass


@dataclass(frozen=True)
class Coord:
    """A point in the plane, in metres."""

    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    """A directed road segment between two nodes: its length, speed
    limit and signed gradient."""

    edge_id: str
    from_node: str
    to_node: str
    length_m: float
    speed_limit_mps: float
    gradient: float  # signed rise/run


def airline_distance(a: Coord, b: Coord) -> float:
    """Straight-line (Euclidean) distance in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


@dataclass(frozen=True)
class Route:
    """An ordered tuple of edge ids, consecutive edges sharing a node, and
    its ``legs``: each :class:`Edge` with the speed limit of the edge after
    it (``None`` for the last edge). Everything that drives, estimates or
    times a route reads its legs, so none of it looks an edge up again.

    :meth:`through` builds every route of a network from its edge ids, so
    that step has one place. :func:`shortest_path` memoises its routes on
    the network and hands the same object to every caller that asks for the
    same route; the edges are a tuple, so no caller can change them, and
    they serve as a memo key.
    """

    edges: tuple[str, ...]
    total_length_m: float
    legs: tuple[tuple[Edge, float | None], ...]

    @classmethod
    def through(cls, net: RoadNetwork, edge_ids: tuple[str, ...]) -> Route:
        """The route along ``edge_ids`` of ``net``; its length is the sum
        of the edge lengths in route order."""
        edges = [net.edges[eid] for eid in edge_ids]
        limits = [e.speed_limit_mps for e in edges[1:]] + [None]
        return cls(edge_ids, left_sum(e.length_m for e in edges),
                   tuple(zip(edges, limits)))


class RoadNetwork:
    """Immutable after construction; safe to share read-only.

    The route search numbers the nodes in sorted id order (``_node_number``)
    and keeps some state, all valid because the graph never changes. Two
    memos grow with the queries of :func:`shortest_path`: the routes, keyed
    by ``(from_edge, to_edge, weight)``, and the middle edges of each path,
    keyed by ``(source node, target node, weight)``, so that routes between
    edges that share their end nodes share one path. One search is kept:
    the most recent (``_search``, at most one entry). A later query from
    its source node by its weight reads it when it settled the target or
    ran dry; any other query runs a new search, which replaces it. Per
    routing weight, the arc table of the search is built once, on first
    use.
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
        # node id -> its number in the route search, in sorted id order
        self._node_number = {n: i for i, n in enumerate(sorted(nodes))}
        # weight -> node number -> (to_node, weight, edge_id, ...), see _arcs
        self._arc_tables: dict[str, list[tuple]] = {}
        self._routes: dict[tuple[str, str, str], Route] = {}
        self._paths: dict[tuple[int, int, str], tuple[str, ...]] = {}
        # (source, weight) -> the kept search's result, see _dijkstra
        self._search: dict[tuple[int, str], tuple] = {}
        self._validate()

    def _validate(self) -> None:
        for nid, c in self.nodes.items():
            if not (math.isfinite(c.x) and math.isfinite(c.y)):
                raise NetworkError(f"node {nid}: non-finite coordinates")
        if not self.within_reach(0.0):
            raise NetworkError("node coordinates span too far: the "
                               "square of their extent is not finite")
        for eid, e in self.edges.items():
            for n in (e.from_node, e.to_node):
                if n not in self.nodes:
                    raise NetworkError(f"edge {eid}: unknown node {n}")
            if not all(map(math.isfinite,
                           (e.length_m, e.speed_limit_mps, e.gradient))):
                raise NetworkError(
                    f"edge {eid}: non-finite length, speed limit or gradient")
            if not 0 < e.length_m <= MAX_EDGE_LENGTH_M:
                raise NetworkError(f"edge {eid}: length must be positive and "
                                   f"at most {MAX_EDGE_LENGTH_M:g} m")
            if e.speed_limit_mps <= 0:
                raise NetworkError(f"edge {eid}: non-positive speed limit")
            # a tiny limit overflows the time, and no route could be found
            if not math.isfinite(_edge_weight(e, "travel_time")):
                raise NetworkError(f"edge {eid}: the travel time of its "
                                   f"length at its speed limit is not finite")
            if abs(e.gradient) >= 1.0:
                raise NetworkError(f"edge {eid}: |gradient| must be < 1")
            straight = airline_distance(self.nodes[e.from_node], self.nodes[e.to_node])
            if e.length_m < straight * (1.0 - LENGTH_TOLERANCE):
                raise NetworkError(
                    f"edge {eid}: length shorter than endpoint distance "
                    f"({e.length_m} < {straight})"
                )

    def edge_midpoint(self, edge_id: str) -> Coord:
        e = self.edges[edge_id]
        a, b = self.nodes[e.from_node], self.nodes[e.to_node]
        return Coord((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)

    def within_reach(self, reach: float) -> bool:
        """Whether :func:`nearest_edge` can square the offset from any node
        of a point at most ``reach`` (m) outside the nodes' bounding box."""
        return not self.nodes or math.isfinite(self._extent_sq(reach))

    def _extent_sq(self, reach: float = 0.0) -> float:
        """The squared diagonal of the nodes' bounding box, its width and
        height each lengthened by ``reach``."""
        xs = [c.x for c in self.nodes.values()]
        ys = [c.y for c in self.nodes.values()]
        width, height = (reach + (max(v) - min(v)) for v in (xs, ys))
        return width * width + height * height


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
    A bad value, a missing or duplicate id or an unknown node raises
    :class:`NetworkError` naming the row; the edge values are checked by
    :class:`RoadNetwork`, whose errors name the edge.
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
    if rows * cols > MAX_GRID_NODES:
        raise NetworkError(f"grid needs rows * cols <= {MAX_GRID_NODES}")

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


# distances this close count as tied: relative to the nearest, or relative
# to the network's extent (the diagonal of its nodes' bounding box)
NEAREST_TIE_REL = 1e-9
# point-to-edge distances that nearest_edge computes in one array pass: 11
# points at a time on the bundled 360-edge grid, in arrays of 32 KiB; larger
# chunks were faster but raised the peak resident memory of a run (see
# CHANGES.md). A larger network takes fewer points per pass, so the arrays
# of a pass stay this size
SNAP_CHUNK_CELLS = 4096


def nearest_edge(net: RoadNetwork, points: Sequence[Coord]) -> list[str]:
    """The edge minimizing point-to-segment distance for each of ``points``,
    in order; ties go to the smallest id.

    Two mathematically equal distances (e.g. the two directions of the same
    street) can differ by rounding, so a squared distance counts as tied
    when it is within ``2 * NEAREST_TIE_REL`` of the point's minimum plus
    the square of ``NEAREST_TIE_REL`` times the network's extent. The
    absolute part ties a point on a street to both its directions, where
    one distance rounds to zero and the other does not.

    The points are snapped in chunks of ``SNAP_CHUNK_CELLS // len(net.edges)``
    (at least one), one array pass per chunk. Every distance takes the same
    elementwise float operations whatever the chunk, so a point snaps to the
    same edge alone or in any batch. An empty network raises
    :class:`NetworkError`, even for no points.
    """
    if not net.edges:
        raise NetworkError("nearest_edge on empty network")
    # per-edge endpoint arrays, sorted by edge id so that the first of tied
    # candidates is the smallest id
    ids = sorted(net.edges)
    n_edges = len(ids)
    ax, ay, bx, by = (np.empty(n_edges) for _ in range(4))
    for i, eid in enumerate(ids):
        e = net.edges[eid]
        a, b = net.nodes[e.from_node], net.nodes[e.to_node]
        ax[i], ay[i], bx[i], by[i] = a.x, a.y, b.x, b.y
    dx = bx - ax
    dy = by - ay
    seg_sq = np.maximum(dx * dx + dy * dy, 1e-300)
    # the squared absolute tie slack
    tie_sq = NEAREST_TIE_REL ** 2 * net._extent_sq()
    step = max(1, SNAP_CHUNK_CELLS // n_edges)
    snapped: list[str] = []
    for lo in range(0, len(points), step):
        chunk = points[lo:lo + step]
        # one row per point, one column per edge; in place where the value
        # is the same, so that a pass holds four arrays of its size:
        # t = clip((px * dx + py * dy) / seg_sq, 0, 1), ex = px - t * dx,
        # ey = py - t * dy and dist_sq = ex * ex + ey * ey
        px = np.array([p.x for p in chunk])[:, None] - ax
        py = np.array([p.y for p in chunk])[:, None] - ay
        t = px * dx
        t += py * dy
        t /= seg_sq
        np.clip(t, 0.0, 1.0, out=t)
        px -= t * dx
        py -= t * dy
        del t
        px *= px
        py *= py
        px += py
        dist_sq = px
        threshold = (dist_sq.min(axis=1) * (1.0 + 2.0 * NEAREST_TIE_REL)
                     + tie_sq)
        # at least one candidate per row, its minimum: the first of each row
        # is the point's smallest candidate id, as the ids are sorted
        first = (dist_sq <= threshold[:, None]).argmax(axis=1)
        snapped.extend(ids[k] for k in first.tolist())
    return snapped


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


ROUTING_WEIGHTS = ("distance", "travel_time")


def _edge_weight(edge: Edge, weight: str) -> float:
    """The weight of ``edge`` by one of ``ROUTING_WEIGHTS``."""
    if weight == "distance":
        return edge.length_m
    return edge.length_m / edge.speed_limit_mps


def shortest_path(net: RoadNetwork, from_edge: str, to_edge: str,
                  weight: str) -> Route:
    """Minimal-weight route from the end of ``from_edge`` to the start of
    ``to_edge``, inclusive of both edges (Dijkstra; weights are positive).
    A weight not in ``ROUTING_WEIGHTS`` raises :class:`NetworkError` on
    every query.

    Ties between equal routes are broken by the search order: nodes pop
    by distance, then by node id, and each node relaxes its outgoing edges
    in edge-id order, so the first of equal arcs wins. No route depends on
    the order of queries: a search that serves several targets is the
    search that would stop at each of them.

    Routes take no hour: congestion slows every edge alike, so it changes
    when a vehicle arrives but not which way it drives.

    Routes are memoised on ``net``: a repeated query returns the same
    :class:`Route` object. Failed queries are not memoised.
    """
    if weight not in ROUTING_WEIGHTS:
        raise NetworkError(f"unknown routing weight {weight!r}")
    key = (from_edge, to_edge, weight)
    route = net._routes.get(key)
    if route is None:
        route = net._routes[key] = _route_between(net, from_edge, to_edge,
                                                  weight)
    return route


def _route_between(net: RoadNetwork, from_edge: str, to_edge: str,
                   weight: str) -> Route:
    """The route of :func:`shortest_path`, its middle edges from the path
    memo or the search from ``from_edge``'s end node."""
    for eid in (from_edge, to_edge):
        if eid not in net.edges:
            raise NetworkError(f"unknown edge {eid}")
    if from_edge == to_edge:
        return Route.through(net, (from_edge,))
    number = net._node_number
    source = number[net.edges[from_edge].to_node]
    target = number[net.edges[to_edge].from_node]
    key = (source, target, weight)
    middle = net._paths.get(key)
    if middle is None:
        try:
            middle = net._paths[key] = _path(net, source, target, weight)
        except NoRouteError:
            raise NoRouteError(
                f"no route from {from_edge} to {to_edge}") from None
    return Route.through(net, (from_edge, *middle, to_edge))


def _path(net: RoadNetwork, source: int, target: int,
          weight: str) -> tuple[str, ...]:
    """The edges of the shortest path from node number ``source`` to
    ``target``, read from the network's kept search when it is from
    ``source`` by ``weight`` and settled ``target`` or ran dry, else from a
    new search from ``source``, which replaces it."""
    key = (source, weight)
    kept = net._search.get(key)
    if kept is None or not (target in kept[1] or kept[2]):
        net._search.clear()
        kept = net._search[key] = _dijkstra(_arcs(net, weight), source,
                                            target)
    prev, settled, _ = kept
    if target not in settled:
        raise NoRouteError(f"node number {target} is not reachable")
    edges, number = net.edges, net._node_number
    middle: list[str] = []
    node = target
    while node != source:
        eid = prev[node]
        middle.append(eid)
        node = number[edges[eid].from_node]
    middle.reverse()
    return tuple(middle)


def _arcs(net: RoadNetwork, weight: str) -> list[tuple]:
    """The arc table of ``weight``: for each node number, the node's
    outgoing edges in edge-id order as one flat tuple of ``to_node, weight,
    edge_id`` triples, ``to_node`` a node number (one tuple per node, not
    per arc, to keep the table small). Built on the first search with
    ``weight`` and kept on ``net``."""
    table = net._arc_tables.get(weight)
    if table is None:
        edges, number = net.edges, net._node_number
        arcs: list[list] = [[] for _ in number]
        for eid in sorted(edges):
            e = edges[eid]
            arcs[number[e.from_node]] += (number[e.to_node],
                                          _edge_weight(e, weight), eid)
        table = net._arc_tables[weight] = [tuple(a) for a in arcs]
    return table


def _dijkstra(arcs: list[tuple], source: int,
              target: int) -> tuple[dict[int, str], set[int], bool]:
    """Dijkstra from node ``source`` over ``arcs`` until ``target`` is
    settled or no node is left: the edge each reached node is reached by,
    the settled nodes, and whether the search ran dry.

    A settled node's edge is final: weights are positive, and only a
    strictly shorter distance replaces an edge. Nodes pop by distance,
    then by number, so a search stopped at any target has done the first
    steps of the search that runs dry.
    """
    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, str] = {}
    settled: set[int] = set()
    frontier = [(0.0, source)]
    pop, push, reached, inf = heapq.heappop, heapq.heappush, dist.get, math.inf
    while frontier:
        d, node = pop(frontier)
        # a node is pushed only when its distance strictly falls, and no
        # weight is negative: the entry at its distance pops first and
        # once; any entry above it pops after it, and is stale
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return prev, settled, False
        fields = iter(arcs[node])
        for to_node, w, eid in zip(fields, fields, fields):
            nd = d + w
            if nd < reached(to_node, inf):
                dist[to_node] = nd
                prev[to_node] = eid
                push(frontier, (nd, to_node))
    return prev, settled, True


def route_travel_time(route: Route, speed_factor: float) -> float:
    """Travel time of a route in seconds with every speed limit scaled by
    ``speed_factor`` (see ``RoadNetwork.hourly_speed_factors``)."""
    return left_sum(e.length_m / (e.speed_limit_mps * speed_factor)
                    for e, _ in route.legs)
