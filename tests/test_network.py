import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sum_in_order
from test_config_cli import write_scenario

from evfleetsim import network
from evfleetsim.config import ConfigError, load_config
from evfleetsim.network import (Coord, Edge, NetworkError, NoRouteError,
                                RoadNetwork, Route, _edge_weight,
                                airline_distance, generate_grid, load_network,
                                nearest_edge, route_travel_time, shortest_path,
                                snap_distance)


def write_net(tmp_path, nodes_rows, edges_rows):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("node_id,x_m,y_m\n" + "\n".join(nodes_rows) + "\n")
    edges.write_text(
        "edge_id,from_node,to_node,length_m,speed_limit_mps,gradient\n"
        + "\n".join(edges_rows) + "\n"
    )
    return nodes, edges


# --- airline distance --------------------------------------------------------

def test_airline_distance_zero_and_pythagorean():
    assert airline_distance(Coord(0, 0), Coord(0, 0)) == 0.0
    assert airline_distance(Coord(0, 0), Coord(3, 4)) == 5.0


def test_airline_distance_matches_calculator():
    # oracle: sqrt(3.5^2 + 16.3^2) evaluated independently
    d = airline_distance(Coord(1.2, -7.0), Coord(4.7, 9.3))
    assert d == pytest.approx(16.6715326230074, rel=1e-12)


# --- loading -----------------------------------------------------------------

def test_load_simple_network(tmp_path):
    nodes, edges = write_net(
        tmp_path,
        ["a,0,0", "b,100,0"],
        ["e1,a,b,100,13.9,0.0"],
    )
    net = load_network(nodes, edges)
    assert len(net.edges) == 1
    assert net.edges["e1"].length_m == 100.0


def test_load_rejects_unknown_node(tmp_path):
    nodes, edges = write_net(
        tmp_path, ["a,0,0", "b,100,0"], ["e1,a,Z,100,13.9,0.0"]
    )
    with pytest.raises(NetworkError, match=r"row 2.*unknown node Z"):
        load_network(nodes, edges)


def test_load_rejects_too_short_edge(tmp_path):
    nodes, edges = write_net(
        tmp_path, ["a,0,0", "b,100,0"], ["e1,a,b,90,13.9,0.0"]
    )
    with pytest.raises(NetworkError, match="length shorter than endpoint distance"):
        load_network(nodes, edges)


def test_load_rejects_duplicates_and_bad_values(tmp_path):
    nodes, edges = write_net(
        tmp_path, ["a,0,0", "b,100,0"],
        ["e1,a,b,100,13.9,0.0", "e1,b,a,100,13.9,0.0"],
    )
    with pytest.raises(NetworkError, match="duplicate edge id"):
        load_network(nodes, edges)
    nodes, edges = write_net(
        tmp_path, ["a,0,0", "b,100,0"], ["e1,a,b,100,-5,0.0"]
    )
    with pytest.raises(NetworkError, match="non-positive speed"):
        load_network(nodes, edges)


# one edge row per column, the column's value left to fill in
EDGE_ROWS = {"length_m": "e1,a,b,{},13.9,0.0",
             "speed_limit_mps": "e1,a,b,100,{},0.0",
             "gradient": "e1,a,b,100,13.9,{}"}


@pytest.mark.parametrize("text", ["nan", "inf"])
@pytest.mark.parametrize("column", sorted(EDGE_ROWS))
def test_load_rejects_non_finite_edge_values(tmp_path, column, text):
    nodes, edges = write_net(tmp_path, ["a,0,0", "b,100,0"],
                             [EDGE_ROWS[column].format(text)])
    with pytest.raises(NetworkError, match="edge e1: non-finite"):
        load_network(nodes, edges)
    path = write_scenario(
        tmp_path,
        network={"files": {"nodes": "nodes.csv", "edges": "edges.csv"},
                 "grid": None},
        depot_edge="e1", stations=[])
    with pytest.raises(ConfigError, match="network: edge e1: non-finite"):
        load_config(path)


@pytest.mark.parametrize("limit", ["5e-324", "1e-310"])
def test_load_rejects_an_edge_whose_travel_time_overflows(tmp_path, limit):
    # 100 m at a subnormal limit takes inf seconds: no travel-time route
    # could use the edge
    nodes, edges = write_net(tmp_path, ["a,0,0", "b,100,0"],
                             [EDGE_ROWS["speed_limit_mps"].format(limit)])
    with pytest.raises(NetworkError, match="edge e1: the travel time of its "
                       "length at its speed limit is not finite"):
        load_network(nodes, edges)


def test_curvy_edge_longer_than_airline_is_accepted(tmp_path):
    nodes, edges = write_net(
        tmp_path, ["a,0,0", "b,100,0"], ["e1,a,b,140,13.9,0.0"]
    )
    net = load_network(nodes, edges)
    assert net.edges["e1"].length_m == 140.0


# --- grid generator ----------------------------------------------------------

def test_generate_grid_2x2_counts():
    net = generate_grid(2, 2, 100.0, 13.9)
    assert len(net.nodes) == 4
    assert len(net.edges) == 8


def test_generate_grid_3x3_counts():
    # oracle: 12 undirected segments enumerated by hand, times 2 directions
    net = generate_grid(3, 3, 100.0, 13.9)
    assert len(net.nodes) == 9
    assert len(net.edges) == 24


def test_generate_grid_rejects_degenerate():
    with pytest.raises(NetworkError):
        generate_grid(1, 5, 100.0, 13.9)
    with pytest.raises(NetworkError):
        generate_grid(3, 3, -1.0, 13.9)


def test_grid_passes_load_time_validation():
    # RoadNetwork validates in its constructor; rebuilding from the grid's own
    # parts must not raise
    net = generate_grid(4, 5, 75.0, 10.0)
    RoadNetwork(dict(net.nodes), dict(net.edges))


# --- nearest edge -------------------------------------------------------------

def test_nearest_edge_point_on_edge():
    net = generate_grid(2, 2, 100.0, 13.9)
    [eid] = nearest_edge(net, [Coord(50.0, 0.0)])
    e = net.edges[eid]
    assert {e.from_node, e.to_node} == {"n0_0", "n0_1"}


def test_nearest_edge_tie_broken_by_smallest_id():
    nodes = {"a": Coord(0, 0), "b": Coord(100, 0),
             "c": Coord(0, 10), "d": Coord(100, 10)}
    edges = {
        "E3": Edge("E3", "a", "b", 100.0, 10.0, 0.0),
        "E7": Edge("E7", "c", "d", 100.0, 10.0, 0.0),
    }
    net = RoadNetwork(nodes, edges)
    assert nearest_edge(net, [Coord(50.0, 5.0)]) == ["E3"]


def brute_nearest(net, p):
    # scalar exhaustive scan with the documented tie tolerance: relative to
    # the nearest distance and to the diagonal of the nodes' bounding box
    xs = [c.x for c in net.nodes.values()]
    ys = [c.y for c in net.nodes.values()]
    extent = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    dists = {eid: snap_distance(net, p, eid) for eid in net.edges}
    d_min = min(dists.values())
    ties = [eid for eid, d in dists.items()
            if d <= d_min * (1.0 + 1e-9) + 1e-9 * extent]
    return min(ties)


def test_nearest_edge_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    net = generate_grid(5, 5, 100.0, 13.9)
    points = [Coord(rng.uniform(-50, 450), rng.uniform(-50, 450))
              for _ in range(300)]
    assert nearest_edge(net, points) == [brute_nearest(net, p) for p in points]


@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0),
                                           (1, 1), (0, 1000)],
                         ids=["0", "1", "chunk-1", "chunk", "chunk+1", "1000"])
def test_nearest_edge_batches_match_exhaustive_scan(chunks, extra):
    net = generate_grid(5, 5, 100.0, 13.9)
    chunk = network.SNAP_CHUNK_CELLS // len(net.edges)  # points per pass
    assert chunk > 2  # so that the sizes around it differ
    n = chunks * chunk + extra
    rng = np.random.default_rng(n)
    # inside the grid, on its north-south streets and nodes, and beyond it
    # on every side
    points = [Coord(float(x), float(y))
              for x, y in rng.uniform(-600.0, 1000.0, (n, 2))]
    points[::3] = [Coord(float(rng.integers(0, 5)) * 100.0,
                         float(rng.uniform(0.0, 400.0)))
                   for _ in points[::3]]
    assert nearest_edge(net, points) == [brute_nearest(net, p) for p in points]


def test_nearest_edge_leaves_the_network_unchanged():
    # a run snaps once, so the network keeps no snapping state
    net = generate_grid(3, 3, 100.0, 10.0)
    before = dict(vars(net))
    nearest_edge(net, [Coord(50.0, 5.0), Coord(120.0, 180.0)])
    assert vars(net) == before


def test_nearest_edge_breaks_ties_between_directions_and_streets():
    net = generate_grid(4, 4, 100.0, 13.9)
    # block centres (four streets tie), nodes (up to eight edges), midpoints
    # and off-centre points beside a street (its two directions tie), and
    # points beyond each corner
    points = [Coord(x + 50.0, y + 50.0) for x in (0.0, 100.0, 200.0)
              for y in (0.0, 100.0, 200.0)]
    points += [Coord(x, y) for x in (0.0, 100.0, 300.0)
               for y in (0.0, 200.0, 300.0)]
    points += [Coord(0.1 * k + 0.3, 100.0 + 1.0 / 3.0 * k) for k in range(40)]
    points += [Coord(-250.0, -250.0), Coord(550.0, -3.0), Coord(550.0, 550.0),
               Coord(-0.1, 700.0)]
    got = nearest_edge(net, points)
    assert got == [brute_nearest(net, p) for p in points]
    assert got == [nearest_edge(net, [p])[0] for p in points]
    # every pick is the smaller id of its street's two directions
    for eid in got:
        e = net.edges[eid]
        twin = next(o for o in net.edges.values()
                    if (o.from_node, o.to_node) == (e.to_node, e.from_node))
        assert eid < twin.edge_id


def test_nearest_edge_rejects_empty_network():
    net = RoadNetwork({"a": Coord(0, 0)}, {})
    with pytest.raises(NetworkError):
        nearest_edge(net, [Coord(0, 0)])
    with pytest.raises(NetworkError):
        nearest_edge(net, [])


# --- shortest path -------------------------------------------------------------

def triangle_net(w_ab=1.0, w_bc=1.0, w_ac=3.0):
    # weights realized as lengths; speed 1 m/s so distance == travel time
    nodes = {"a": Coord(0, 0), "b": Coord(0.5, 0.5), "c": Coord(1, 0),
             "s": Coord(-1, 0), "t": Coord(2, 0)}
    edges = {}
    edges["start"] = Edge("start", "s", "a", 1.0, 1.0, 0.0)
    edges["ab"] = Edge("ab", "a", "b", w_ab, 1.0, 0.0)
    edges["bc"] = Edge("bc", "b", "c", w_bc, 1.0, 0.0)
    edges["ac"] = Edge("ac", "a", "c", w_ac, 1.0, 0.0)
    edges["end"] = Edge("end", "c", "t", 1.0, 1.0, 0.0)
    return RoadNetwork(nodes, edges)


def test_shortest_path_from_equals_to():
    net = generate_grid(2, 2, 100.0, 13.9)
    eid = sorted(net.edges)[0]
    route = shortest_path(net, eid, eid, "distance")
    assert route.edges == (eid,)
    assert route.total_length_m == net.edges[eid].length_m


def test_shortest_path_avoids_heavy_edge():
    net = triangle_net()
    route = shortest_path(net, "start", "end", "distance")
    assert "ac" not in route.edges
    assert route.edges == ("start", "ab", "bc", "end")


def test_shortest_path_raises_when_unreachable():
    nodes = {"a": Coord(0, 0), "b": Coord(10, 0), "c": Coord(20, 0), "d": Coord(30, 0)}
    edges = {
        "e1": Edge("e1", "a", "b", 10.0, 1.0, 0.0),
        "e2": Edge("e2", "c", "d", 10.0, 1.0, 0.0),
    }
    net = RoadNetwork(nodes, edges)
    with pytest.raises(NoRouteError):
        shortest_path(net, "e1", "e2", "distance")


def bellman_ford(net, source, target, cost):
    # independent oracle: |V|-1 rounds of full edge relaxation over the
    # weights cost(edge), which the caller computes from the edge itself
    dist = {n: math.inf for n in net.nodes}
    dist[source] = 0.0
    for _ in range(len(net.nodes) - 1):
        changed = False
        for eid in sorted(net.edges):
            e = net.edges[eid]
            w = cost(e)
            if dist[e.from_node] + w < dist[e.to_node]:
                dist[e.to_node] = dist[e.from_node] + w
                changed = True
        if not changed:
            break
    return dist[target]


def random_network(rng, max_nodes=50):
    rows = int(rng.integers(2, 6))
    cols = int(rng.integers(2, 6))
    net = generate_grid(rows, cols, 100.0, 13.9)
    # randomize lengths (>= node distance) and speeds to decorrelate weights,
    # and give each hour its own congestion factor in (0.2, 1]
    edges = {}
    for eid, e in net.edges.items():
        stretch = 1.0 + float(rng.uniform(0.0, 2.0))
        speed = float(rng.uniform(5.0, 30.0))
        edges[eid] = Edge(eid, e.from_node, e.to_node,
                          e.length_m * stretch, speed, 0.0)
    factors = [1.0 - float(f) for f in rng.uniform(0.0, 0.8, 24)]
    return RoadNetwork(dict(net.nodes), edges, factors)


@pytest.mark.parametrize("weight", ["distance", "travel_time"])
def test_shortest_path_weight_matches_bellman_ford(weight):
    # one route per query serves every hour: its travel time at each hour's
    # congestion factor is the least over the hour-scaled edge weights
    rng = np.random.default_rng(123)
    for _ in range(40):
        net = random_network(rng)
        ids = sorted(net.edges)
        frm = ids[int(rng.integers(0, len(ids)))]
        to = ids[int(rng.integers(0, len(ids)))]
        if frm == to:
            continue
        route = shortest_path(net, frm, to, weight)
        if weight == "distance":
            costs = [lambda e: e.length_m]
        else:
            costs = [lambda e, f=f: e.length_m / (e.speed_limit_mps * f)
                     for f in net.hourly_speed_factors]
        for cost in costs:
            got = sum(cost(net.edges[e]) for e in route.edges)
            middle = bellman_ford(net, net.edges[frm].to_node,
                                  net.edges[to].from_node, cost)
            expected = middle + cost(net.edges[frm]) + cost(net.edges[to])
            assert got == pytest.approx(expected, rel=1e-9)


def reference_route(net, from_edge, to_edge, weight):
    """The route search relaxing edge by edge: early-stopping Dijkstra that
    looks each edge up and asks ``_edge_weight`` for its weight, over the
    outgoing edges of each node in edge-id order, which it finds from
    ``net.edges`` itself."""
    for eid in (from_edge, to_edge):
        if eid not in net.edges:
            raise NetworkError(f"unknown edge {eid}")
    if from_edge == to_edge:
        return reference_route_of(net, (from_edge,))
    leaving = {node: [] for node in net.nodes}
    for eid in sorted(net.edges):
        leaving[net.edges[eid].from_node].append(eid)
    source = net.edges[from_edge].to_node
    target = net.edges[to_edge].from_node
    dist, prev_edge, visited = {source: 0.0}, {}, set()
    frontier = [(0.0, source)]
    while frontier:
        d, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for eid in leaving[node]:
            e = net.edges[eid]
            nd = d + _edge_weight(e, weight)
            if nd < dist.get(e.to_node, math.inf):
                dist[e.to_node] = nd
                prev_edge[e.to_node] = eid
                heapq.heappush(frontier, (nd, e.to_node))
    if target not in visited and target != source:
        raise NoRouteError(f"no route from {from_edge} to {to_edge}")
    middle, node = [], target
    while node != source:
        middle.append(prev_edge[node])
        node = net.edges[prev_edge[node]].from_node
    return reference_route_of(net, (from_edge, *reversed(middle), to_edge))


def reference_route_of(net, edge_list):
    """The route along ``edge_list``: its length summed in route order, and
    each edge paired with the next edge's speed limit (``None`` last)."""
    after = (*edge_list[1:], None)
    legs = tuple((net.edges[a], None if b is None
                  else net.edges[b].speed_limit_mps)
                 for a, b in zip(edge_list, after))
    return Route(edge_list,
                 sum_in_order(net.edges[e].length_m for e in edge_list), legs)


def assert_routes_match_reference(net, rng):
    """``shortest_path`` gives the reference's route edges and length, or
    ``NoRouteError`` with it, for every ordered edge pair and both weights:
    on ``net`` in edge-id order, then on a fresh copy of ``net`` in the
    order ``rng`` shuffles them into, so that sources interleave and the
    kept search is read and replaced, past failed queries too."""
    queries = [(frm, to, weight) for weight in ("distance", "travel_time")
               for frm in net.edges for to in net.edges]
    expected = {}
    for query in queries:
        try:
            expected[query] = reference_route(net, *query)
        except NoRouteError:
            expected[query] = None
    fresh = RoadNetwork(net.nodes, net.edges, net.hourly_speed_factors)
    shuffled = list(queries)
    rng.shuffle(shuffled)
    for on, order in ((net, queries), (fresh, shuffled)):
        for query in order:
            if expected[query] is None:
                with pytest.raises(NoRouteError):
                    shortest_path(on, *query)
                continue
            route = shortest_path(on, *query)
            assert route.edges == expected[query].edges, query
            assert route.total_length_m == expected[query].total_length_m
            assert route.legs == expected[query].legs
        assert len(on._search) == 1


# the shuffles draw a seed: thousands of queries are too many for Hypothesis
# to draw one by one, and the seed still replays a failing order
@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=True))
def test_routes_match_reference_on_a_grid_of_ties(rng):
    # equal lengths and speeds: most pairs have many shortest routes, and
    # the pop order alone decides which one is found
    assert_routes_match_reference(generate_grid(4, 4, 100.0, 13.9), rng)


@st.composite
def networks_with_an_island(draw):
    """A grid of 2-3 x 2-4 nodes 100 m apart whose streets each have one or
    both directions, with lengths and speeds from short lists (so that
    routes tie), plus a two-way street no grid node reaches."""
    rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    nodes = {f"n{r}_{c}": Coord(100.0 * c, 100.0 * r)
             for r in range(rows) for c in range(cols)}
    streets = [(f"n{r}_{c}", f"n{r}_{c + 1}") for r in range(rows)
               for c in range(cols - 1)]
    streets += [(f"n{r}_{c}", f"n{r + 1}_{c}") for r in range(rows - 1)
                for c in range(cols)]
    nodes["i0"], nodes["i1"] = Coord(5000.0, 0.0), Coord(5100.0, 0.0)
    streets.append(("i0", "i1"))
    edges = {}
    for a, b in streets:
        way = "both" if a == "i0" else draw(st.sampled_from(["ab", "ba",
                                                               "both"]))
        pairs = {"ab": [(a, b)], "ba": [(b, a)], "both": [(a, b), (b, a)]}
        for frm, to in pairs[way]:
            # a drawn prefix shuffles the id order, and so the search order
            eid = f"e{draw(st.integers(0, 999)):03d}_{len(edges)}"
            edges[eid] = Edge(eid, frm, to,
                              100.0 * draw(st.sampled_from([1.0, 1.5, 2.0])),
                              draw(st.sampled_from([10.0, 13.9, 20.0])), 0.0)
    return RoadNetwork(nodes, edges)


@settings(max_examples=60, deadline=None)
@given(networks_with_an_island(), st.randoms(use_true_random=True))
def test_routes_match_reference_on_drawn_networks(net, rng):
    assert_routes_match_reference(net, rng)


def count_searches(monkeypatch):
    """The ``(source, target)`` node numbers of each search run from now."""
    searches = []
    dijkstra = network._dijkstra

    def counting(arcs, source, target):
        searches.append((source, target))
        return dijkstra(arcs, source, target)

    monkeypatch.setattr(network, "_dijkstra", counting)
    return searches


def kept_settled(net):
    """The node ids that the network's one kept search settled."""
    ((_, settled, _),) = net._search.values()
    return {node for node, number in net._node_number.items()
            if number in settled}


def test_a_kept_search_serves_the_targets_it_settled(monkeypatch):
    searches = count_searches(monkeypatch)
    net = generate_grid(4, 4, 100.0, 13.9)
    # the largest edge id leaving each node; e00000 leaves n0_0 for n0_1
    leaving = {e.from_node: eid for eid, e in sorted(net.edges.items())}

    def route(target, frm="e00000", weight="distance"):
        shortest_path(net, frm, leaving[target], weight)
        return len(searches), len(net._paths)

    assert route("n0_2") == (1, 1)
    # n0_0 ties with n0_2 and has the smaller number: it was settled first
    assert "n0_0" in kept_settled(net)
    assert route("n0_0") == (1, 2)
    # a target beyond the kept search starts a new one
    assert "n3_3" not in kept_settled(net)
    assert route("n3_3") == (2, 3)
    assert "n2_2" in kept_settled(net)
    assert route("n2_2") == (2, 4)
    # another source or another weight starts a new one, though the kept
    # search settled the target
    assert route("n2_2", frm="e00001") == (3, 5)
    assert "n2_2" in kept_settled(net)
    assert route("n2_2", frm="e00001", weight="travel_time") == (4, 6)
    assert len(net._search) == 1


def test_a_search_that_ran_dry_serves_every_query_from_its_source(
        monkeypatch):
    searches = count_searches(monkeypatch)
    net = generate_grid(3, 3, 100.0, 13.9)
    nodes = dict(net.nodes, i0=Coord(5000.0, 0.0), i1=Coord(5100.0, 0.0))
    edges = dict(net.edges, i01=Edge("i01", "i0", "i1", 100.0, 13.9, 0.0),
                 i10=Edge("i10", "i1", "i0", 100.0, 13.9, 0.0))
    net = RoadNetwork(nodes, edges, net.hourly_speed_factors)
    with pytest.raises(NoRouteError, match="no route from e00000 to i01"):
        shortest_path(net, "e00000", "i01", "distance")
    assert len(searches) == 1
    ((_, settled, ran_dry),) = net._search.values()
    assert ran_dry and len(settled) == 9
    # another island target, then a grid target: the dry search has
    # settled every node that the source reaches
    with pytest.raises(NoRouteError, match="no route from e00000 to i10"):
        shortest_path(net, "e00000", "i10", "distance")
    shortest_path(net, "e00000", "e00020", "distance")
    assert len(searches) == 1
    assert net._routes.keys() == {("e00000", "e00020", "distance")}


def test_edges_sharing_end_nodes_share_one_path():
    net = generate_grid(3, 3, 100.0, 13.9)
    # e00000 and e00005 both end at n0_1; e00020 leaves n2_0
    first = shortest_path(net, "e00000", "e00020", "distance")
    second = shortest_path(net, "e00005", "e00020", "distance")
    assert len(net._paths) == 1
    assert first.edges[1:] == second.edges[1:]
    assert shortest_path(net, "e00000", "e00020", "distance") is first


@pytest.mark.parametrize("frm, to", [("e00000", "e00000"),
                                     ("e00000", "e00005")])
def test_shortest_path_rejects_an_unknown_weight_on_every_query(frm, to):
    net = generate_grid(2, 3, 100.0, 13.9)
    shortest_path(net, frm, to, "distance")
    routes = dict(net._routes)
    with pytest.raises(NetworkError, match="unknown routing weight 'bogus'"):
        shortest_path(net, frm, to, "bogus")
    assert net._routes == routes


def test_route_edges_are_connected_and_length_consistent():
    rng = np.random.default_rng(5)
    net = random_network(rng)
    ids = sorted(net.edges)
    for _ in range(50):
        frm = ids[int(rng.integers(0, len(ids)))]
        to = ids[int(rng.integers(0, len(ids)))]
        route = shortest_path(net, frm, to, "distance")
        for a, b in zip(route.edges, route.edges[1:]):
            assert net.edges[a].to_node == net.edges[b].from_node
        assert route.total_length_m == pytest.approx(
            sum(net.edges[e].length_m for e in route.edges)
        )
        start = net.nodes[net.edges[route.edges[0]].from_node]
        end = net.nodes[net.edges[route.edges[-1]].to_node]
        assert route.total_length_m >= airline_distance(start, end) - 1e-9


def test_travel_time_uses_congestion_factor():
    factors = [1.0] * 24
    factors[8] = 0.5
    net = generate_grid(2, 2, 100.0, 10.0, factors)
    eid = sorted(net.edges)[0]
    route = shortest_path(net, eid, eid, "travel_time")
    assert (route_travel_time(route, net.hourly_speed_factors[0])
            == pytest.approx(10.0))
    assert (route_travel_time(route, net.hourly_speed_factors[8])
            == pytest.approx(20.0))
