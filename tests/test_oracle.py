import gc
import random
import re
import sys
import weakref
from collections import deque
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st

from gpcover.graphs import (
    Graph, _from_pairs, adjacency, adjacency_masks, bipartition, connected_components,
    degrees, graph, is_connected,
)
from gpcover.families import GpParams, gp, h_graph
from gpcover.covers import is_kronecker_involution, kronecker_cover, quotient
from gpcover.perms import (
    WordTriple, compose, from_triple, identity, inverse, is_automorphism, reflection,
    rim_swap, rotation,
)
from gpcover.classify import classify, involution_family
from gpcover import families, oracle
from gpcover.oracle import (
    SearchBoundExceeded,
    _equitable,
    _refine,
    automorphisms,
    canonical_form,
    is_isomorphic,
    kronecker_involutions,
    quotients_up_to_iso,
)


def nx_automorphisms(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from(g.edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return {
        tuple(m[i] for i in range(g.vertex_count))
        for m in matcher.isomorphisms_iter()
    }


def to_part(cells):
    """The partition arrays [order, pos, start_of, size] of a cell list."""
    order = [v for cell in cells for v in cell]
    pos, start_of, size = [0] * len(order), [0] * len(order), [0] * len(order)
    s = 0
    for cell in cells:
        size[s] = len(cell)
        for p, v in enumerate(cell, s):
            pos[v], start_of[v] = p, s
        s += len(cell)
    return [order, pos, start_of, size]


def to_cells(part):
    """The cell tuples of partition arrays, in order."""
    order, _, _, size = part
    return [tuple(order[s:s + size[s]]) for s in range(len(order)) if size[s]]


def refine_part(g, cells, splitter=None):
    """The arrays of the coarsest equitable refinement of cells, as the
    searches compute it: every cell is queued, or with splitter only the cell
    starting at that position."""
    part = to_part(cells)
    starts = [s for s, z in enumerate(part[3]) if z]
    _refine(adjacency(g), part, starts if splitter is None else [splitter])
    return part


def refine(g, cells, splitter=None):
    """The cells of refine_part(g, cells, splitter)."""
    return tuple(to_cells(refine_part(g, cells, splitter)))


def assert_consistent(part):
    """size is non-zero exactly at the cell starts and sums to n, pos
    inverts order, and start_of names each vertex's cell start."""
    order, pos, start_of, size = part
    n = len(order)
    assert sorted(order) == list(range(n))
    assert sum(size) == n
    starts, s = [], 0
    while s < n:
        starts.append(s)
        assert size[s] > 0
        s += size[s]
    assert [s for s, z in enumerate(size) if z] == starts
    assert all(order[pos[v]] == v for v in range(n))
    for s in starts:
        assert all(start_of[v] == s for v in order[s:s + size[s]])


def reference_refine(g, cells):
    """The second route: split every cell by its members' neighbor counts
    into every cell, round after round, until no cell splits."""
    adj = adjacency(g)
    cells = list(cells)
    while True:
        cell_of = {v: ci for ci, cell in enumerate(cells) for v in cell}
        new_cells = []
        for cell in cells:
            groups = {}
            for v in cell:
                sig = sorted(cell_of[w] for w in adj[v])
                groups.setdefault(tuple(sig), []).append(v)
            new_cells += [tuple(groups[sig]) for sig in sorted(groups)]
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


def reference_automorphisms(g):
    """The second route: backtracking over a BFS vertex order in which each
    image keeps the vertex's cell of the coarsest equitable partition and
    has, among the images used so far, exactly the images of the vertex's
    mapped neighbors.  The partition is refined at the root only, and every
    leaf is kept."""
    n = g.vertex_count
    if n == 0:
        return [()]
    adj = adjacency(g)
    masks = adjacency_masks(g)
    cells = reference_refine(g, [tuple(range(n))])
    color = [0] * n
    for ci, cell in enumerate(cells):
        for v in cell:
            color[v] = ci
    bit = [1 << v for v in range(n)] + [0]  # bit[-1] == 0: unmapped
    pos = [-1] * n
    bfs_order = []
    for root in range(n):
        if pos[root] != -1:
            continue
        pos[root] = len(bfs_order)
        bfs_order.append(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if pos[w] == -1:
                    pos[w] = len(bfs_order)
                    bfs_order.append(w)
                    queue.append(w)
    earlier = [[w for w in adj[u] if pos[w] < t] for t, u in enumerate(bfs_order)]
    results = []
    mapping = [-1] * n
    used = 0
    untried = [[] for _ in range(n + 1)]  # images left to try at each depth
    t = 0
    while True:
        images = untried[t]
        if t == n:
            results.append(tuple(mapping))
        else:
            u = bfs_order[t]
            req = 0
            for w in earlier[t]:
                req |= bit[mapping[w]]
            for x in adj[mapping[earlier[t][0]]] if earlier[t] else cells[color[u]]:
                if not used & bit[x] and color[x] == color[u] and masks[x] & used == req:
                    images.append(x)
        while not images:
            t -= 1
            if t < 0:
                return sorted(results)
            u = bfs_order[t]
            used ^= bit[mapping[u]]
            mapping[u] = -1
            images = untried[t]
        x = images.pop()
        mapping[u] = x
        used |= bit[x]
        t += 1


def is_equitable(g, cells):
    adj = adjacency(g)
    cell_of = {v: ci for ci, cell in enumerate(cells) for v in cell}
    return all(
        len({tuple(sorted(cell_of[w] for w in adj[v])) for v in cell}) == 1
        for cell in cells
    )


def from_nx(nxg):
    nxg = nx.convert_node_labels_to_integers(nxg)
    return graph(nxg.number_of_nodes(), nxg.edges())


def refinement_cases():
    """Random graphs and GP(n,k): the unit partition, and the partitions
    after individualizing 1-3 vertices, each seeded with the singleton only
    as the canonical-form search does.  Random regular graphs on up to 60
    vertices keep large cells, so splits swap many members to a cell's
    tail."""
    rng = random.Random(23)
    graphs = [gp(GpParams(n, k)) for n in (5, 8, 10, 12, 13, 24, 30, 60)
              for k in range(1, (n - 1) // 2 + 1)]
    for _ in range(60):
        n = rng.randint(1, 16)
        p = rng.random()
        graphs.append(graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    for d, n in [(3, 40), (3, 60), (4, 45), (5, 50), (6, 60), (8, 36)]:
        graphs.append(from_nx(nx.random_regular_graph(d, n, seed=n + d)))
    for g in graphs:
        cells = [tuple(range(g.vertex_count))]
        yield g, cells, None
        cells = list(refine(g, cells))
        for _ in range(rng.randint(1, 3)):
            open_cells = [ci for ci, cell in enumerate(cells) if len(cell) > 1]
            if not open_cells:
                break
            ci = rng.choice(open_cells)
            v = rng.choice(cells[ci])
            # v leaves cell ci as a singleton just before it, at position start.
            start = sum(len(cell) for cell in cells[:ci])
            rest = tuple(x for x in cells[ci] if x != v)
            child = cells[:ci] + [(v,), rest] + cells[ci + 1:]
            yield g, child, start
            cells = list(refine(g, child, start))


def relabeled(g, perm):
    return graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def disjoint_union(g, copies):
    """copies disjoint copies of g, the i-th on vertices offset by i * n."""
    n = g.vertex_count
    return graph(n * copies, [(u + i * n, v + i * n) for i in range(copies)
                              for u, v in g.edges])


def side_swapping_involutions(g, colors, autos):
    """The clauses of the pruned search, spelled out: involutions that move
    every vertex to the other side and to a non-neighbor."""
    adj = adjacency(g)
    return sorted(
        p
        for p in autos
        if all(
            p[p[x]] == x and colors[p[x]] != colors[x] and p[x] not in adj[x]
            for x in range(g.vertex_count)
        )
    )


@st.composite
def relabeled_small_graphs(draw):
    """A graph on at most 6 vertices, at most one of them isolated so that
    its cover's group stays small, and a relabeling of its vertices."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph(n, edges)
    assume(list(degrees(g)).count(0) <= 1)
    return g, draw(st.permutations(range(n)))


class TestRefine:
    def test_regular_graph_unchanged(self):
        g = gp(GpParams(7, 2))
        assert refine(g, [tuple(range(14))]) == (tuple(range(14)),)

    def test_star_splits(self):
        g = graph(4, [(0, 1), (0, 2), (0, 3)])
        assert set(refine(g, [tuple(range(4))])) == {(0,), (1, 2, 3)}

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = graph(n, edges)
            once = refine(g, [tuple(range(n))])
            assert refine(g, once) == once

    def test_matches_reference_refine(self):
        for g, cells, start in refinement_cases():
            result = refine(g, cells, start)
            assert set(map(frozenset, result)) == set(
                map(frozenset, reference_refine(g, cells))
            ), (g, cells, start)
            assert is_equitable(g, result)

    def test_commutes_with_relabeling(self):
        # Cell order must follow the input order, not vertex names, or the
        # canonical form would depend on the labeling.
        rng = random.Random(29)
        for g, cells, start in refinement_cases():
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            moved = [tuple(perm[v] for v in cell) for cell in cells]
            assert [set(cell) for cell in refine(relabeled(g, perm), moved, start)] == [
                {perm[v] for v in cell} for cell in refine(g, cells, start)
            ], (g, cells, start)

    def test_partition_arrays_stay_consistent(self):
        for g, cells, start in refinement_cases():
            assert_consistent(refine_part(g, cells, start))

    def test_never_merges(self):
        g = gp(GpParams(5, 2))
        refined = refine(g, [(0,), tuple(range(1, 10))])
        for cell in refined:
            assert (
                len({0} & set(cell)) == 0 or cell == (0,)
            )


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "nk,expected",
        [
            ((7, 2), 14),     # generic: dihedral only
            ((11, 3), 22),
            ((13, 5), 52),    # k^2 = -1 (mod n)
            ((12, 5), 144),   # exceptional (Nauru graph)
            ((5, 2), 120),    # Petersen
            ((4, 1), 48),     # cube
            ((8, 3), 96),     # Moebius-Kantor
            ((10, 3), 240),   # Desargues
        ],
    )
    def test_known_orders(self, nk, expected):
        assert len(automorphisms(gp(GpParams(*nk)))) == expected

    def test_matches_networkx(self):
        for nk in [(7, 2), (4, 1), (6, 2), (9, 2)]:
            g = gp(GpParams(*nk))
            assert set(automorphisms(g)) == nx_automorphisms(g)

    def test_group_axioms(self):
        g = gp(GpParams(6, 2))
        auts = set(automorphisms(g))
        assert identity(12) in auts
        sample = sorted(auts)[:6]
        for p in sample:
            assert inverse(p) in auts
            for q in sample:
                assert compose(p, q) in auts

    def test_word_group_is_subgroup(self):
        for nk in [(12, 5), (8, 3)]:
            p = GpParams(*nk)
            auts = set(automorphisms(gp(p)))
            for a in range(p.n):
                for b in (0, 1):
                    for c in (0, 1):
                        assert from_triple(p.n, p.k, WordTriple(a, b, c)) in auts

    def test_sorted_output(self):
        auts = automorphisms(gp(GpParams(6, 1)))
        assert auts == sorted(auts)

    def test_disconnected(self):
        g = graph(4, [(0, 1), (2, 3)])
        assert len(automorphisms(g)) == 8  # swap within edges, swap edges

    def test_tiny_graphs(self):
        # A root cell of one vertex (the 1-vertex graph, the star's center)
        # is not individualized; in graph(3, [(0, 1)]) the isolated vertex
        # is a later component root whose image cell is a singleton.
        assert automorphisms(graph(0, [])) == [()]
        assert automorphisms(graph(1, [])) == [(0,)]
        assert automorphisms(graph(2, [])) == [(0, 1), (1, 0)]
        assert automorphisms(graph(3, [(0, 1)])) == [(0, 1, 2), (1, 0, 2)]
        assert len(automorphisms(graph(4, [(0, 1), (0, 2), (0, 3)]))) == 6

    def test_matches_the_whole_group_backtracking(self):
        graphs = [gp(GpParams(n, k)) for n in range(3, 17) for k in range(1, (n - 1) // 2 + 1)]
        graphs += [kronecker_cover(gp(GpParams(n, k)))
                   for n in range(3, 9) for k in range(1, (n - 1) // 2 + 1)]
        for g in graphs:
            auts = automorphisms(g)
            assert auts == reference_automorphisms(g), g
            assert all(is_automorphism(g, p) for p in auts), g

    @given(relabeled_small_graphs())
    def test_matches_the_whole_group_backtracking_on_small_graphs(self, case):
        # Disconnected graphs, isolated vertices and the 1-vertex graph.
        g, perm = case
        for h in (g, relabeled(g, perm)):
            for x in (h, kronecker_cover(h)):
                auts = automorphisms(x)
                assert auts == reference_automorphisms(x)
                assert all(is_automorphism(x, p) for p in auts)

    @pytest.mark.parametrize("nk,order,refinements,searches", [
        ((40, 7), 80, 4, 2),   # outer images found, inner rejected by shape
        ((24, 7), 96, 4, 3),   # k^2 = 1 (mod n): one outer, one inner image
        ((12, 5), 144, 3, 2),  # arc-transitive: the first image reaches all
        ((10, 3), 240, 3, 2),
    ])
    def test_search_effort_stays_under_the_coset_enumeration(self, monkeypatch, nk, order,
                                                             refinements, searches):
        # One refinement for the coarsest partition, one for r and one per
        # root image not yet decided by the group found so far; one search
        # for Stab(r) and one per image whose cell sizes match r's.  Keeping
        # every leaf of the whole group, GP(40,7) took 2.8 M search nodes.
        calls = []
        refine_in_place, backtrack = oracle._refine, oracle._backtrack
        monkeypatch.setattr(oracle, "_refine",
                            lambda *args: calls.append("refine") or refine_in_place(*args))
        monkeypatch.setattr(oracle, "_backtrack",
                            lambda *args: calls.append("search") or backtrack(*args))
        assert len(automorphisms(gp(GpParams(*nk)))) == order
        assert calls.count("refine") <= refinements and calls.count("search") <= searches

    @pytest.mark.parametrize("g,order,refinements,searches,never", [
        # The star: the target cell is the leaves, so the centre stays put.
        (graph(4, [(0, 1), (0, 2), (0, 3)]), 6, 3, 2, {0}),
        (graph(3, [(0, 1)]), 2, 3, 2, {2}),
        # The spider's coarsest equitable partition is already discrete.
        (graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]), 1, 1, 1, set(range(7))),
    ], ids=["star", "edge_and_isolated_vertex", "spider"])
    def test_search_effort_on_irregular_graphs(self, monkeypatch, g, order, refinements,
                                               searches, never):
        # The root is the canonical search's node on the first smallest
        # non-singleton cell of the coarsest equitable partition; a discrete
        # partition leaves one search and no individualization.
        calls, individualized = [], []
        refine_in_place, backtrack = oracle._refine, oracle._backtrack
        individualize = oracle._individualized
        monkeypatch.setattr(oracle, "_refine",
                            lambda *args: calls.append("refine") or refine_in_place(*args))
        monkeypatch.setattr(oracle, "_backtrack",
                            lambda *args: calls.append("search") or backtrack(*args))
        monkeypatch.setattr(oracle, "_individualized",
                            lambda adj, part, v: individualized.append(v)
                            or individualize(adj, part, v))
        auts = automorphisms(g)
        assert len(auts) == order and auts == reference_automorphisms(g)
        assert calls.count("refine") <= refinements and calls.count("search") <= searches
        assert never.isdisjoint(individualized)

    @pytest.mark.parametrize("n", [40, 59, 60])
    def test_group_orders_at_the_full_oracle_bound(self, n):
        # Frucht, Graver & Watkins (1971): 4n when k^2 = +-1 (mod n), else
        # 2n; all seven exceptions have n <= 24.
        for k in range(1, (n - 1) // 2 + 1):
            expected = 4 * n if k * k % n in (1, n - 1) else 2 * n
            assert len(automorphisms(gp(GpParams(n, k)))) == expected, (n, k)

    def test_bound_enforced(self, monkeypatch):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "10")
        g = gp(GpParams(10, 3))
        with pytest.raises(SearchBoundExceeded):
            automorphisms(g)

    def test_deep_search_runs_past_the_recursion_limit(self, monkeypatch):
        # One search level per vertex: a recursive search would overflow.
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "1200")
        p = GpParams(600, 1)
        g = gp(p)
        assert g.vertex_count > sys.getrecursionlimit()
        assert len(automorphisms(g)) == 2400
        family = {from_triple(600, 1, t) for t in involution_family(p)}
        assert set(kronecker_involutions(g)) == family


class TestKroneckerInvolutions:
    def test_12_5_exactly_three(self, ):
        g = gp(GpParams(12, 5))
        invs = kronecker_involutions(g)
        family = {
            from_triple(12, 5, t) for t in involution_family(GpParams(12, 5))
        }
        assert len(invs) == 3
        assert set(invs) == family

    def test_petersen_none(self):
        assert kronecker_involutions(gp(GpParams(5, 2))) == []

    def test_moebius_kantor_none(self):
        # All 18 of its fixed-point-free color-reversing involutions pin an
        # edge, so GP(8,3) is not a cover of any simple graph.
        assert kronecker_involutions(gp(GpParams(8, 3))) == []

    def test_all_results_verify(self):
        g = gp(GpParams(10, 3))
        invs = kronecker_involutions(g)
        assert invs
        assert all(is_kronecker_involution(g, p) for p in invs)

    @pytest.mark.parametrize("g", [
        graph(0, []),
        graph(1, []),
        graph(2, [(0, 1)]),
        graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        graph(4, [(0, 1), (2, 3)]),
    ], ids=["null", "K1", "K2", "C4", "2K2"])
    def test_tiny_graphs_match_the_clause_checker(self, g):
        # The search gives up on a graph exactly when the clause checker
        # would refuse every map: the null graph is connected, and its
        # empty map is a covering involution.
        candidates = automorphisms(g, involutions=True)
        expected = [p for p in candidates if is_kronecker_involution(g, p)]
        assert kronecker_involutions(g) == expected

    def test_pruned_search_matches_filtered_group(self):
        # Up to the full oracle bound, on each GP(n,k) and, where the search
        # runs, on a relabelled copy, whose BFS root and root images differ
        # from the plain ones.  A covering involution swaps vertex 0 with
        # another vertex, which skips most of the group before the checker.
        rng = random.Random(21)
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                perm = list(range(2 * n))
                rng.shuffle(perm)
                bipartite = n % 2 == 0 and k % 2 == 1
                for x in (g, relabeled(g, perm)) if bipartite else (g,):
                    expected = [p for p in automorphisms(x)
                                if p[0] and not p[p[0]] and is_kronecker_involution(x, p)]
                    assert kronecker_involutions(x) == expected, (n, k)

    @pytest.mark.parametrize("nk", [(4, 1), (6, 1), (8, 1), (8, 3), (10, 1), (14, 1)])
    def test_involution_mode_on_disconnected_covers(self, nk):
        # The cover of a bipartite GP(n,k) is two copies of it, so every
        # vertex of the other copy is at distance -1 from the root and its
        # images.  The candidates still equal the filtered whole group.
        g = kronecker_cover(gp(GpParams(*nk)))
        perm = list(range(g.vertex_count))
        random.Random(nk[0]).shuffle(perm)
        for x in (g, relabeled(g, perm)):
            assert len(connected_components(x)) == 2
            expected = side_swapping_involutions(x, bipartition(x), automorphisms(x))
            assert automorphisms(x, involutions=True) == expected, nk

    @staticmethod
    def count_neighbourhood_tests(monkeypatch):
        """Count the involution search's neighbourhood bitmask lookups: one
        per node entered and one per candidate image that passed the cell,
        side and distance keys."""
        calls = [0]

        class Counted(tuple):
            def __getitem__(self, i):
                calls[0] += 1
                return tuple.__getitem__(self, i)

        masks = oracle.adjacency_masks
        monkeypatch.setattr(oracle, "adjacency_masks", lambda g: Counted(masks(g)))
        return calls

    @pytest.mark.parametrize("nk, ceiling", [
        ((60, 21), 5_300),    # 720,054 without the distance invariant
        ((60, 19), 8_500),    # 717,742
        ((54, 21), 49_000),   # 88,502
        ((58, 17), 13_500),   # 104,751
        ((60, 11), 6_600),    # 50,324
        ((24, 5), 400),       # 1,371
    ])
    def test_distance_invariant_prunes_the_involution_search(self, monkeypatch, nk,
                                                             ceiling):
        calls = self.count_neighbourhood_tests(monkeypatch)
        automorphisms(gp(GpParams(*nk)), involutions=True)
        assert calls[0] <= ceiling, calls[0]

    def test_distance_invariant_prunes_the_full_bound_sweep(self, monkeypatch):
        # Every GP(n,k) with n <= 60: 13.8 M lookups without the invariant.
        calls = self.count_neighbourhood_tests(monkeypatch)
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                automorphisms(gp(GpParams(n, k)), involutions=True)
        assert calls[0] <= 770_000, calls[0]

    @given(relabeled_small_graphs())
    def test_pruned_search_matches_filter_on_small_graphs(self, case):
        g, perm = case
        for h in (g, relabeled(g, perm)):
            for x in (h, kronecker_cover(h)):
                expected = [p for p in automorphisms(x) if is_kronecker_involution(x, p)]
                assert kronecker_involutions(x) == expected

    @given(relabeled_small_graphs())
    def test_involution_mode_filters_the_group(self, case):
        # Graphs that may be disconnected and not bipartite, and their
        # (often disconnected) covers; the sides are each graph's own.
        g, perm = case
        for h in (g, relabeled(g, perm)):
            for x in (h, kronecker_cover(h)):
                colors = bipartition(x)
                expected = [] if colors is None else (
                    side_swapping_involutions(x, colors, automorphisms(x))
                )
                assert automorphisms(x, involutions=True) == expected

    @pytest.mark.parametrize(
        "g",
        [
            gp(GpParams(10, 3)),
            gp(GpParams(12, 5)),
            gp(GpParams(14, 3)),
            graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
            gp(GpParams(5, 2)),
        ],
        ids=["GP(10,3)", "GP(12,5)", "GP(14,3)", "2C4", "GP(5,2)"],
    )
    def test_involution_mode_matches_vf2_filter(self, g):
        colors = bipartition(g)
        expected = [] if colors is None else (
            side_swapping_involutions(g, colors, nx_automorphisms(g))
        )
        assert automorphisms(g, involutions=True) == expected

    def test_involution_mode_takes_the_sides_from_the_graph(self, monkeypatch):
        # A graph without a 2-coloring is answered before any search; the
        # empty graph's empty map is vacuously a candidate.
        assert automorphisms(graph(0, []), involutions=True) == [()]
        monkeypatch.setattr(oracle, "_backtrack", None)
        for g in (graph(3, [(0, 1), (1, 2), (0, 2)]), gp(GpParams(5, 2)), gp(GpParams(9, 2))):
            assert automorphisms(g, involutions=True) == []

    def test_search_is_kept_on_the_graph(self, monkeypatch):
        # One search per Graph instance, as _compare asks twice for each
        # (n,k); an equal graph built apart searches again; each answer is
        # a fresh list; the result is freed with the graph.
        calls = []
        enumerate_group = oracle.automorphisms
        monkeypatch.setattr(oracle, "automorphisms",
                            lambda *a, **kw: calls.append(1) or enumerate_group(*a, **kw))
        g = gp(GpParams(12, 5))
        first = kronecker_involutions(g)
        first.clear()
        assert kronecker_involutions(g) is not kronecker_involutions(g)
        assert len(kronecker_involutions(g)) == 3 and len(calls) == 1
        assert len(kronecker_involutions(gp(GpParams(12, 5)))) == 3 and len(calls) == 2
        ref = weakref.ref(g)
        del g
        assert ref() is None


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        g = gp(GpParams(9, 2))
        base = canonical_form(g)
        for _ in range(25):
            perm = list(range(18))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base

    def test_distinguishes(self):
        assert canonical_form(gp(GpParams(5, 1))) != canonical_form(gp(GpParams(5, 2)))
        assert canonical_form(h_graph()) != canonical_form(gp(GpParams(5, 2)))

    def test_is_isomorphic_spec_pairs(self):
        assert is_isomorphic(gp(GpParams(10, 3)), kronecker_cover(h_graph()))
        assert not is_isomorphic(gp(GpParams(5, 2)), gp(GpParams(5, 1)))

    def test_watkins_equivalence(self):
        # GP(n,k) and GP(n,k') are isomorphic when k k' = +-1 (mod n).
        assert is_isomorphic(gp(GpParams(14, 5)), gp(GpParams(14, 3)))
        assert is_isomorphic(gp(GpParams(22, 9)), gp(GpParams(22, 5)))
        assert not is_isomorphic(gp(GpParams(14, 5)), gp(GpParams(14, 1)))

    @pytest.mark.parametrize("n", [24, 36, 48, 60])
    def test_gp_classes_at_workload_sizes(self, n):
        # Steimle-Staton: GP(n,k) and GP(n,l) are isomorphic iff
        # l = +-k or kl = +-1 (mod n).
        rng = random.Random(n)
        ks = range(1, (n - 1) // 2 + 1)
        forms = {k: canonical_form(gp(GpParams(n, k))) for k in ks}
        for k in ks:
            for l in ks:
                same = (l - k) % n == 0 or (l + k) % n == 0 or (k * l) % n in (1, n - 1)
                assert (forms[k] == forms[l]) == same, (n, k, l)
            perm = list(range(2 * n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(gp(GpParams(n, k)), perm)) == forms[k], (n, k)

    def test_agrees_with_networkx(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = graph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            h = graph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            nxg, nxh = nx.empty_graph(n), nx.empty_graph(n)
            nxg.add_edges_from(g.edges)
            nxh.add_edges_from(h.edges)
            assert is_isomorphic(g, h) == nx.is_isomorphic(nxg, nxh)

    def test_empty_and_tiny(self):
        assert canonical_form(graph(0, [])) == b"?"
        assert canonical_form(graph(1, [])) == b"@"

    def test_refinement_resistant_graphs(self):
        # Complete, empty, complete-bipartite and clique-union graphs keep a
        # single refinement cell; the search must still finish fast and stay
        # relabeling-invariant.
        rng = random.Random(6)
        k30 = graph(30, [(u, v) for u in range(30) for v in range(u + 1, 30)])
        kbb = graph(24, [(u, v) for u in range(12) for v in range(12, 24)])
        cliques = graph(
            30,
            [
                (a + o, b + o)
                for o in (0, 10, 20)
                for a in range(10)
                for b in range(a + 1, 10)
            ],
        )
        for g in (k30, kbb, cliques, graph(40, [])):
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == base
        two = graph(
            30,
            [
                (a + o, b + o)
                for o in (0, 15)
                for a in range(15)
                for b in range(a + 1, 15)
            ],
        )
        assert not is_isomorphic(cliques, two)

    def test_disconnected_multiset(self):
        # Same component multiset in different vertex order.
        a = graph(5, [(0, 1), (1, 2), (0, 2)])          # triangle + 2 isolated
        b = graph(5, [(2, 3), (3, 4), (2, 4)])
        c = graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])  # triangle + edge
        assert is_isomorphic(a, b)
        assert not is_isomorphic(a, c)


def soundness_pool():
    """Graphs on which the canonical-form search prunes by automorphisms and
    node invariants: named graphs with large groups, circulants C_n(1,j),
    random 3- and 4-regular graphs and disjoint unions."""
    named = [
        nx.petersen_graph(), nx.dodecahedral_graph(), nx.desargues_graph(),
        nx.heawood_graph(), nx.moebius_kantor_graph(), nx.pappus_graph(),
        nx.hypercube_graph(4), nx.paley_graph(13).to_undirected(),
        nx.paley_graph(17).to_undirected(), nx.complete_bipartite_graph(4, 4),
        nx.icosahedral_graph(), nx.tutte_graph(), nx.frucht_graph(),
    ]
    circulants = [nx.circulant_graph(n, [1, j])
                  for n in range(8, 25) for j in range(2, n // 2 + 1)]
    regular = [nx.random_regular_graph(d, n, seed=10 * n + d)
               for d in (3, 4) for n in range(8, 31, 2)]
    unions = [
        nx.disjoint_union(nx.petersen_graph(), nx.petersen_graph()),
        nx.disjoint_union(nx.heawood_graph(), nx.cycle_graph(14)),
    ]
    return [from_nx(h) for h in named + circulants + regular + unions]


def latin_square_graph(n, seed):
    """The Latin square graph of a random order-n Latin square: cells are
    adjacent when they share a row, a column or a symbol.  It is strongly
    regular, so refinement splits nothing at the root, and it has few
    automorphisms, so the search tree is deep and its pruning matters."""
    rng = random.Random(seed)
    square = [[(i + j) % n for j in range(n)] for i in range(n)]
    for _ in range(200):
        # Swap two rows on the cycle of columns where they trade symbols.
        r1, r2 = rng.sample(range(n), 2)
        cols = [rng.randrange(n)]
        while (c := square[r1].index(square[r2][cols[-1]])) != cols[0]:
            cols.append(c)
        for c in cols:
            square[r1][c], square[r2][c] = square[r2][c], square[r1][c]
    cells = [(i, j) for i in range(n) for j in range(n)]
    return graph(n * n, [
        (a, b)
        for a, (i, j) in enumerate(cells)
        for b, (k, l) in enumerate(cells)
        if a < b and (i == k or j == l or square[i][j] == square[k][l])
    ])


def cfi_graph(base, twisted):
    """The Cai-Fuerer-Immerman graph of a connected networkx graph: per base
    vertex v, one vertex for each even-sized set S of the edges at v and a
    pair (v, e, 0), (v, e, 1) for each edge e at v, with S joined to
    (v, e, 1) for e in S and to (v, e, 0) otherwise.  Each base edge uv
    joins (u, e, i) to (v, e, i), crossed to (v, e, 1 - i) on the first
    edge when twisted.  The two versions are not isomorphic, yet colour
    refinement cannot tell them apart (Cai, Fuerer & Immerman 1992)."""
    base = nx.convert_node_labels_to_integers(base)
    base_edges = sorted(tuple(sorted(e)) for e in base.edges)
    index = {}

    def vid(key):
        return index.setdefault(key, len(index))

    edges = []
    for v in base.nodes:
        at_v = [e for e in base_edges if v in e]
        for size in range(0, len(at_v) + 1, 2):
            for subset in combinations(at_v, size):
                m = vid(("m", v, subset))
                edges += [(m, vid(("a", v, e, int(e in subset)))) for e in at_v]
    for t, (u, v) in enumerate(base_edges):
        for i in (0, 1):
            j = 1 - i if twisted and t == 0 else i
            edges.append((vid(("a", u, (u, v), i)), vid(("a", v, (u, v), j))))
    return graph(len(index), edges)


def leaf_certificates(g):
    """Every leaf certificate (shapes along the path, relabeled sorted edges)
    of the whole individualization-refinement tree, with nothing pruned."""
    adj = adjacency(g)
    stack = [[to_cells(_equitable(adj))]]
    while stack:
        path = stack.pop()
        cells = path[-1]
        open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not open_cells or oracle._homogeneous(adj, to_part(cells)):
            label = {v: p for p, v in enumerate(v for cell in cells for v in cell)}
            edges = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in g.edges))
            yield tuple(tuple(map(len, c)) for c in path), edges
            continue
        t = min(open_cells, key=lambda i: len(cells[i]))
        start = sum(len(cell) for cell in cells[:t])
        for v in cells[t]:
            child = cells[:t] + [(v,), tuple(x for x in cells[t] if x != v)] + cells[t + 1:]
            stack.append(path + [to_cells(refine_part(g, child, start))])


def least_certificate_edges(g):
    """The second route for the pruned search: the edges of the least leaf
    certificate over the whole tree."""
    return min(leaf_certificates(g))[1]


def orbit_ids(n, perms):
    """For each vertex, the least vertex of its orbit under perms."""
    uf = list(range(n))
    for p in perms:
        for x, y in enumerate(p):
            rx, ry = oracle._find(uf, x), oracle._find(uf, y)
            if rx != ry:
                uf[max(rx, ry)] = min(rx, ry)
    return [oracle._find(uf, x) for x in range(n)]


def track_nodes(monkeypatch):
    """Make every node of the next searches keep its path; returns the
    nodes in creation order and, per leaf, how many nodes existed then."""
    paths = {}  # id of a child's partition -> that child's path
    parts = []  # keeps those partitions, and so their ids, alive
    created = []

    class Recorded(oracle._Node):
        __slots__ = ("path",)

        def __init__(self, part, *args):
            super().__init__(part, *args)
            self.path = paths.get(id(part), [])
            created.append(self)

    next_child, relabel = oracle._next_child, oracle._relabeled_edges
    leaves = []

    def tracked(adj, node):
        found = next_child(adj, node)
        if found is not None:
            parts.append(found[1])
            paths[id(found[1])] = node.path + [found[0]]
        return found

    monkeypatch.setattr(oracle, "_Node", Recorded)
    monkeypatch.setattr(oracle, "_next_child", tracked)
    monkeypatch.setattr(oracle, "_relabeled_edges",
                        lambda g, pos: leaves.append(len(created)) or relabel(g, pos))
    return created, leaves


def path_orbit_pool():
    """The relabelled connected soundness pool up to 20 vertices and CFI(K4),
    then every GP(n,k) with n <= 20 with its recorded maps."""
    rng = random.Random(53)
    pool = [g for g in soundness_pool()
            if g.vertex_count <= 20 and len(connected_components(g)) == 1]
    pool.append(cfi_graph(nx.complete_graph(4), False))
    for i, g in enumerate(pool):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        pool[i] = relabeled(g, perm)
    return pool + [gp(GpParams(n, k)) for n, k in gp_to(20)]


def check_path_stabilizer_orbits(g, nodes):
    """Orbit pruning at a node is sound only for automorphisms that fix the
    path above it: assert that each node's orbits lie in the orbits of the
    pointwise stabilizer of its path in automorphisms(g), and return how
    many vertices the nodes joined to another."""
    group = automorphisms(g)
    joined = 0
    for node in nodes:
        fixing = [a for a in group if all(a[v] == v for v in node.path)]
        allowed = orbit_ids(g.vertex_count, fixing)
        built = [oracle._find(node.orbits, x) for x in range(g.vertex_count)]
        assert all(allowed[x] == allowed[r] for x, r in enumerate(built)), (g, node.path)
        joined += sum(r != x for x, r in enumerate(built))
    return joined


class TestCanonicalFormSoundness:
    @pytest.mark.parametrize("n,seed", [(5, 1), (6, 0), (6, 1), (6, 2)])
    def test_latin_square_graphs_match_the_unpruned_tree(self, n, seed):
        g = latin_square_graph(n, seed)
        base = oracle._canonical_edges(g)
        assert base == least_certificate_edges(g)
        rng = random.Random(seed)
        for _ in range(5):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert oracle._canonical_edges(relabeled(g, perm)) == base

    def test_small_symmetric_graphs_match_the_unpruned_tree(self):
        for g in soundness_pool():
            if g.vertex_count <= 20 and len(connected_components(g)) == 1:
                assert oracle._canonical_edges(g) == least_certificate_edges(g), g

    def test_relabelings_give_identical_bytes(self):
        rng = random.Random(37)
        for g in soundness_pool():
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == base, g

    def test_equal_forms_iff_networkx_isomorphic(self):
        pool = soundness_pool()
        for i, g in enumerate(pool):
            for h in pool[i + 1:]:
                if g.vertex_count != h.vertex_count:
                    continue
                nxg, nxh = nx.empty_graph(g.vertex_count), nx.empty_graph(h.vertex_count)
                nxg.add_edges_from(g.edges)
                nxh.add_edges_from(h.edges)
                same = canonical_form(g) == canonical_form(h)
                assert same == nx.is_isomorphic(nxg, nxh), (g, h)

    @pytest.mark.parametrize("base", [
        nx.complete_graph(4), nx.complete_bipartite_graph(3, 3),
        nx.circular_ladder_graph(3), nx.hypercube_graph(3), nx.petersen_graph(),
    ], ids=["K4", "K33", "prism", "cube", "petersen"])
    def test_cfi_pairs_get_different_forms(self, base):
        plain, twisted = cfi_graph(base, False), cfi_graph(base, True)
        # Both are cubic, so refinement of the unit partition splits nothing.
        for g in (plain, twisted):
            assert len(to_cells(_equitable(adjacency(g)))) == 1
        assert canonical_form(plain) != canonical_form(twisted)
        rng = random.Random(plain.vertex_count)
        for g in (plain, twisted):
            form = canonical_form(g)
            for _ in range(3):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == form

    @pytest.mark.parametrize("case", ["latin5", "latin6", "small-symmetric"])
    def test_leaves_with_equal_edges_have_equal_shapes(self, case):
        # Why a backjump may test the whole certificate or its edges alone:
        # equal relabeled edges give an automorphism, the individualized
        # vertices keep their positions, so the two paths are images of each
        # other and pass through the same shapes.
        if case == "small-symmetric":
            pool = [g for g in soundness_pool()
                    if g.vertex_count <= 16 and len(connected_components(g)) == 1]
        else:
            n = int(case[-1])
            pool = [latin_square_graph(n, seed) for seed in range(2)]
        for g in pool:
            shapes_of = {}
            for shapes, edges in leaf_certificates(g):
                assert shapes_of.setdefault(edges, shapes) == shapes, g

    def test_first_path_orbits_lie_in_path_stabilizer_orbits(self, monkeypatch):
        # The nodes made before the first leaf are the first path; they take
        # the recorded maps and every leaf automorphism that fixes their
        # prefix, wherever in the tree it was found.
        created, leaves = track_nodes(monkeypatch)
        joined = 0
        for g in path_orbit_pool():
            created.clear()
            leaves.clear()
            oracle._canonical_search(g)
            joined += check_path_stabilizer_orbits(g, created[:leaves[0]])
        assert joined > 0

    def test_search_leaves_every_node_partition_unchanged(self, monkeypatch):
        # A child copies its parent's arrays before refining them, so each
        # node keeps its partition and the search reads the same one at
        # every visit.  Checked after every child, so a shared partition
        # fails at once instead of sending the search astray.
        class Recorded(oracle._Node):
            __slots__ = ("snapshot",)

            def __init__(self, *args):
                super().__init__(*args)
                assert_consistent(self.part)
                self.snapshot = [a[:] for a in self.part]

        next_child = oracle._next_child
        children = []

        def checked(adj, node):
            found = next_child(adj, node)
            assert node.part == node.snapshot
            children.append(found)
            return found

        monkeypatch.setattr(oracle, "_Node", Recorded)
        monkeypatch.setattr(oracle, "_next_child", checked)
        for g in (gp(GpParams(10, 3)), gp(GpParams(24, 5)), latin_square_graph(5, 1),
                  cfi_graph(nx.complete_graph(4), True)):
            children.clear()
            oracle._canonical_search(g)
            assert sum(found is not None for found in children) > 1, g

    def test_refine_calls_stay_under_the_root_pruned_search(self, monkeypatch):
        # A search that prunes by automorphisms at the root only takes 10
        # refinement calls on every GP(n,k) with n <= 60 but these.
        root_pruned = {(4, 1): 21, (5, 2): 45, (8, 3): 19, (10, 2): 21,
                       (10, 3): 45, (12, 5): 19, (24, 5): 19}
        ceiling = {**root_pruned, (5, 2): 15, (10, 3): 15}
        calls = []
        refine_in_place = oracle._refine

        def counted(*args):
            calls.append(args)
            return refine_in_place(*args)

        monkeypatch.setattr(oracle, "_refine", counted)
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                calls.clear()
                oracle._canonical_search(gp(GpParams(n, k)))
                assert len(calls) <= ceiling.get((n, k), 10), (n, k, len(calls))

    @pytest.mark.parametrize("seed,ceiling", [(0, 141), (1, 119), (2, 59)])
    def test_node_invariant_prunes_latin_square_searches(self, monkeypatch, seed, ceiling):
        # Orbits and backjumps alone take 371/377/288 refinement calls here;
        # skipping children whose shapes pass the best leaf's cuts that.
        calls = []
        refine_in_place = oracle._refine
        monkeypatch.setattr(oracle, "_refine",
                            lambda *args: calls.append(1) or refine_in_place(*args))
        oracle._canonical_search(latin_square_graph(6, seed))
        assert len(calls) <= ceiling, len(calls)

    def test_search_leaves_no_cyclic_garbage(self):
        # Cyclic garbage lives until the cyclic collector runs, so it raises
        # peak memory; the search must free everything by reference count.
        rng = random.Random(307)
        fresh = []
        for g in (gp(GpParams(30, 7)), gp(GpParams(10, 3)), soundness_pool()[-1]):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            fresh.append(relabeled(g, perm))
        gc.disable()
        try:
            for g in fresh:
                gc.collect()
                canonical_form(g)
                assert gc.collect() == 0, g
        finally:
            gc.enable()


def second_route_pairs():
    """Every same-size pair among soundness_pool(), every GP(n,k) with
    n <= 20, and one relabeling of each of them."""
    rng = random.Random(71)
    base = soundness_pool() + [gp(GpParams(n, k)) for n in range(3, 21)
                               for k in range(1, (n - 1) // 2 + 1)]
    pool = list(base)
    for g in base:
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        pool.append(relabeled(g, perm))
    return [(g, h) for i, g in enumerate(pool) for h in pool[i + 1:]
            if g.vertex_count == h.vertex_count]


class TestTargetedIsomorphism:
    def test_agrees_with_canonical_forms_both_ways(self):
        # The targeted search against two full searches, and against itself
        # with the graphs swapped.
        pairs = second_route_pairs()
        assert len(pairs) == 5208
        same = 0
        for g, h in pairs:
            verdict = is_isomorphic(g, h)
            assert verdict == (canonical_form(g) == canonical_form(h)), (g, h)
            assert verdict == is_isomorphic(h, g), (g, h)
            same += verdict
        assert 0 < same < len(pairs)

    @staticmethod
    def record_leaves(monkeypatch):
        """The relabeled edges of every leaf the search reaches, in order."""
        leaves = []
        relabel = oracle._relabeled_edges

        def recorded(g, pos):
            leaves.append(relabel(g, pos))
            return leaves[-1]

        monkeypatch.setattr(oracle, "_relabeled_edges", recorded)
        return leaves

    def test_targeted_search_is_the_full_search_cut_short(self, monkeypatch):
        # Up to its answer the targeted search walks the full search's
        # leaves in the same order; it answers True at the first leaf that
        # meets the target, which the full search reaches exactly when the
        # graphs are isomorphic.
        leaves = self.record_leaves(monkeypatch)
        stopped_early = {True: 0, False: 0}
        for g, h in second_route_pairs():
            searched = is_connected(g) and is_connected(h)
            if not searched or sorted(degrees(g)) != sorted(degrees(h)):
                continue
            target = oracle._least_certificate(h)
            leaves.clear()
            oracle._canonical_search(g)
            full = leaves[:]
            leaves.clear()
            verdict = oracle._canonical_search(g, target)
            assert leaves == full[:len(leaves)], (g, h)
            assert verdict == (target[1] in full), (g, h)
            if verdict:
                assert len(leaves) == full.index(target[1]) + 1, (g, h)
            stopped_early[verdict] += len(leaves) < len(full)
        assert stopped_early[True] and stopped_early[False], stopped_early

    def test_meets_the_target_at_the_first_leaf(self, monkeypatch):
        h = gp(GpParams(40, 7))
        target = oracle._least_certificate(h)
        perm = list(range(80))
        random.Random(1).shuffle(perm)
        g = relabeled(h, perm)
        leaves = self.record_leaves(monkeypatch)
        assert is_isomorphic(g, h)
        assert leaves == [target[1]]
        leaves.clear()
        oracle._canonical_search(g)
        assert len(leaves) > 1

    @pytest.mark.parametrize("n,k,l,leaves_seen", [(40, 2, 4, 0), (20, 6, 1, 1)],
                             ids=["at-a-node", "at-a-leaf"])
    def test_falls_below_the_target_before_the_search_ends(self, monkeypatch, n, k, l,
                                                           leaves_seen):
        # Not isomorphic, and g's least certificate is the smaller one: the
        # first child of GP(40,2)'s root already has a smaller shape than the
        # target's, and GP(20,6)'s first leaf is already below the target,
        # while its full search goes on to a second leaf.  (GP(24,1)'s full
        # search, pruned by its recorded automorphisms, ends at its first.)
        g, h = gp(GpParams(n, k)), gp(GpParams(n, l))
        target = oracle._least_certificate(h)
        assert oracle._least_certificate(g) < target
        leaves = self.record_leaves(monkeypatch)
        calls = []
        refine_in_place = oracle._refine

        def counted(*args):
            calls.append(args)
            return refine_in_place(*args)

        monkeypatch.setattr(oracle, "_refine", counted)
        assert oracle._canonical_search(g, target) is False
        assert len(leaves) == leaves_seen
        targeted = len(calls)
        calls.clear()
        oracle._canonical_search(g)
        assert targeted < len(calls), (targeted, len(calls))

    def test_connected_against_disconnected_answers_without_a_search(self, monkeypatch):
        # GP(6,1) and three disjoint K4 are both cubic on 12 vertices.
        def no_search(*args):
            raise AssertionError("searched a connected and a disconnected graph")

        monkeypatch.setattr(oracle, "_canonical_search", no_search)
        prism = gp(GpParams(6, 1))
        k4s = disjoint_union(graph(4, combinations(range(4), 2)), 3)
        assert len(prism.edges) == len(k4s.edges) == 18
        assert not is_isomorphic(prism, k4s) and not is_isomorphic(k4s, prism)

    def test_equal_graphs_answer_without_a_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched equal graphs")

        monkeypatch.setattr(oracle, "_canonical_search", no_search)
        assert is_isomorphic(gp(GpParams(40, 7)), gp(GpParams(40, 7)))


def gp_to(max_n):
    return [(n, k) for n in range(3, max_n + 1) for k in range(1, (n - 1) // 2 + 1)]


class TestRecordedAutomorphisms:
    """gp records alpha, beta and, when k^2 = +-1 (mod n), gamma; the
    canonical-form search stores them with the automorphisms it finds at
    leaves and prunes by both, and the unrecorded twin
    Graph(g.vertex_count, g.edges), which the search explores without them,
    is the second route."""

    def test_gp_records_its_generators(self):
        for n, k in gp_to(60):
            words = [rotation(n), reflection(n)]
            if k * k % n in (1, n - 1):
                words.append(rim_swap(n, k))
            g = gp(GpParams(n, k))
            assert oracle._known_automorphisms(g) == tuple(words), (n, k)
            assert oracle._known_automorphisms(Graph(2 * n, g.edges)) == ()

    def test_every_gp_to_60_matches_its_unrecorded_twin(self):
        rng = random.Random(29)
        for n, k in gp_to(60):
            g = gp(GpParams(n, k))
            twin = Graph(g.vertex_count, g.edges)
            assert oracle._least_certificate(g) == oracle._least_certificate(twin), (n, k)
            assert canonical_form(g) == canonical_form(twin), (n, k)
            perm = list(range(2 * n))
            rng.shuffle(perm)
            copy = relabeled(g, perm)
            assert is_isomorphic(g, copy) and is_isomorphic(copy, g), (n, k)

    @staticmethod
    def count_individualizations(monkeypatch):
        calls = []
        individualize = oracle._individualized
        monkeypatch.setattr(oracle, "_individualized",
                            lambda *args: calls.append(1) or individualize(*args))
        return calls

    @pytest.mark.parametrize("n,k,ceiling", [(40, 7, 4), (40, 9, 2), (26, 5, 2), (60, 11, 2)])
    def test_recorded_orbits_prune_the_search(self, monkeypatch, n, k, ceiling):
        # GP(40,9), GP(26,5) and GP(60,11) are vertex-transitive: alpha and
        # gamma join the root's one cell, so one child of the root is
        # searched.  The unrecorded twin finds those automorphisms again at
        # leaves, with 8, 7, 7 and 7 individualizations.
        calls = self.count_individualizations(monkeypatch)
        g = gp(GpParams(n, k))
        oracle._canonical_search(g)
        assert len(calls) <= ceiling, len(calls)
        calls.clear()
        oracle._canonical_search(Graph(g.vertex_count, g.edges))
        assert len(calls) > ceiling, len(calls)

    def test_node_orbits_lie_in_path_stabilizer_orbits(self, monkeypatch):
        # A node off the first path takes the stored maps that fix its path
        # when it is made and the leaf automorphisms that do afterwards; its
        # orbits, too, lie in those of its path's stabilizer, and some are
        # not trivial.
        created, leaves = track_nodes(monkeypatch)
        joined = 0
        for g in path_orbit_pool():
            created.clear()
            leaves.clear()
            oracle._canonical_search(g)
            joined += check_path_stabilizer_orbits(g, created[leaves[0]:])
        assert joined > 0

    def test_a_leaf_automorphism_prunes_a_node_off_the_first_path(self, monkeypatch):
        # A Latin square graph records no maps, so every orbit comes from an
        # automorphism found at a leaf.  Such automorphisms are kept and
        # joined at every node whose path they fix, so a node made after the
        # first leaf skips a child that one of them maps onto an explored
        # sibling.  _next_child skips only by orbits, so a node that ran out
        # of children with fewer explored than its target cell holds did so.
        created, leaves = track_nodes(monkeypatch)
        g = latin_square_graph(6, 2)
        assert oracle._known_automorphisms(g) == ()
        oracle._canonical_search(g)
        skipping = [node for node in created[leaves[0]:]
                    if next(node.untried, None) is None
                    and len(node.done) < node.part[3][node.start]]
        assert skipping
        assert oracle._canonical_edges(g) == least_certificate_edges(g)

    def test_relabelings_of_a_small_cubic_graph_agree(self):
        # This cubic graph's search meets a leaf equal to the best one below
        # a child of the root off the first path, and the automorphism
        # between the two joins that child's orbits; with some relabelings a
        # node off the first path then skips a child.
        g = graph(8, [(0, 2), (0, 5), (0, 6), (1, 4), (1, 6), (1, 7), (2, 4), (2, 5),
                      (3, 4), (3, 6), (3, 7), (5, 7)])
        form = canonical_form(g)
        rng = random.Random(31)
        for _ in range(20):
            perm = list(range(8))
            rng.shuffle(perm)
            copy = relabeled(g, perm)
            assert canonical_form(copy) == form
            assert is_isomorphic(copy, g) and is_isomorphic(g, copy)

    def test_a_forged_map_is_named_and_never_used(self):
        g = gp(GpParams(10, 3))
        good = rotation(10)
        swapped = list(good)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        forgeries = {"ε": swapped, "short": good[:-1], "repeat": good[:-1] + good[:1]}
        for name, p in forgeries.items():
            named = [("α", good), (name, p)]
            forged = _from_pairs(20, g.edges, automorphisms=lambda named=named: named)
            with pytest.raises(ValueError, match=f"recorded map {name} is not an automorphism"):
                canonical_form(forged)
            with pytest.raises(ValueError, match=name):
                is_isomorphic(gp(GpParams(10, 2)), forged)  # forged is the target
            with pytest.raises(ValueError, match=name):
                canonical_form(forged)  # a failed check keeps nothing on the graph
            # The group enumeration and the involution search read no record.
            assert automorphisms(forged) == automorphisms(g)
            assert kronecker_involutions(forged) == kronecker_involutions(g)

    def test_a_graph_never_searched_never_materializes_its_record(self, monkeypatch):
        made = []
        generators = families._gp_generators
        monkeypatch.setattr(families, "_gp_generators",
                            lambda *args: made.append(args) or generators(*args))
        g = gp(GpParams(26, 5))
        quotient(g, from_triple(26, 5, classify(GpParams(26, 5)).canonical_involution))
        assert len(automorphisms(g)) == 104
        assert len(kronecker_involutions(g)) == 1
        assert made == []
        form = canonical_form(g)
        assert made == [(26, 5)]
        assert canonical_form(g) == form and made == [(26, 5)]


class TestQuotientClasses:
    def test_desargues_two_classes(self):
        classes = quotients_up_to_iso(gp(GpParams(10, 3)))
        assert len(classes) == 2
        hits = {
            "petersen": any(is_isomorphic(q, gp(GpParams(5, 2))) for q in classes),
            "h": any(is_isomorphic(q, h_graph()) for q in classes),
        }
        assert hits == {"petersen": True, "h": True}

    def test_14_3_single_class(self):
        classes = quotients_up_to_iso(gp(GpParams(14, 3)))
        assert len(classes) == 1
        assert is_isomorphic(classes[0], gp(GpParams(7, 3)))

    def test_lone_quotient_is_not_searched(self, monkeypatch):
        calls = []
        search = oracle._canonical_search
        monkeypatch.setattr(oracle, "_canonical_search",
                            lambda *a: calls.append(1) or search(*a))
        assert len(quotients_up_to_iso(gp(GpParams(14, 3)))) == 1
        assert calls == []

    def test_classes_are_first_seen_and_in_canonical_order(self):
        g = gp(GpParams(10, 3))
        classes = quotients_up_to_iso(g)
        assert len(classes) == 2
        forms = [canonical_form(q) for q in classes]
        assert forms == sorted(forms)
        quotients = [quotient(g, w) for w in kronecker_involutions(g)]
        for q in classes:
            form = canonical_form(q)
            assert q == next(p for p in quotients if canonical_form(p) == form)

    def test_classes_match_grouping_by_canonical_form(self, oracle_sweep):
        # A second route to the classes: the first quotient per canonical
        # form, in covering-involution order, sorted by form.
        for (n, k), (invs, classes) in oracle_sweep.items():
            g = gp(GpParams(n, k))
            by_form = {}
            for w in invs:
                q = quotient(g, w)
                by_form.setdefault(canonical_form(q), q)
            assert classes == [by_form[form] for form in sorted(by_form)], (n, k)

    def test_16_7_empty(self):
        assert quotients_up_to_iso(gp(GpParams(16, 7))) == []

    def test_round_trip_all_involutions(self):
        g = gp(GpParams(12, 5))
        for w in kronecker_involutions(g):
            assert is_isomorphic(kronecker_cover(quotient(g, w)), g)

    def test_full_pipeline_at_vertex_bound(self):
        # GP(60,11) has 120 vertices, exactly the default oracle bound, and
        # is a reflected-family instance: 169 - 1 = 120 = 2*60.
        from gpcover.classify import QuotientDesc, involution_family

        p = GpParams(60, 11)
        g = gp(p)
        invs = kronecker_involutions(g)
        family = {from_triple(60, 11, t) for t in involution_family(p)}
        assert set(invs) == family
        assert len(invs) == 5  # gcd(60, 60-11+1)/2
        q = quotient(g, sorted(invs)[0])
        assert is_isomorphic(q, QuotientDesc("cminus", 60, 11).materialize())
        assert is_isomorphic(kronecker_cover(q), g)


class TestOracleMemos:
    def test_verify_sweep_stays_under_its_search_counts(self, monkeypatch):
        # Every search result is kept on the graph searched.  On this sweep
        # that runs 4 full and 20 targeted canonical-form searches (on
        # verify(40) 8/44, on verify(60) 15/101).  Quotients are grouped by
        # walks toward each class's first quotient, which take its least
        # certificate, so a graph with one covering involution runs none;
        # two or more classes take canonical forms to be ordered.  A
        # symbolic quotient equal to its class as a labelled graph needs no
        # search.  The round trip is a checked map and runs none.  The covering involutions are kept on each GP graph: one
        # search for each of the 30 bipartite (n,k).
        from gpcover.census import verify

        calls = {"full": 0, "targeted": 0, "automorphisms": 0}
        search, enumerate_group = oracle._canonical_search, oracle.automorphisms

        def counted_search(g, target=None):
            calls["full" if target is None else "targeted"] += 1
            return search(g, target)

        def counted_automorphisms(*args, **kwargs):
            calls["automorphisms"] += 1
            return enumerate_group(*args, **kwargs)

        monkeypatch.setattr(oracle, "_canonical_search", counted_search)
        monkeypatch.setattr(oracle, "automorphisms", counted_automorphisms)
        assert verify(22).all_passed
        assert calls["full"] <= 4, calls
        assert calls["targeted"] <= 20, calls
        assert calls["full"] + calls["targeted"] <= 24, calls
        assert calls["automorphisms"] <= 30, calls

    def test_searched_graphs_die_with_their_last_reference(self):
        # No module-level memo holds a searched graph; its results live on
        # it and hold no reference cycle, so reference counting frees it.
        g = gp(GpParams(12, 5))
        perm = list(range(24))
        random.Random(5).shuffle(perm)
        h = relabeled(g, perm)
        gc.disable()
        try:
            canonical_form(g)
            assert is_isomorphic(g, h)
            assert len(quotients_up_to_iso(g)) == 1
            refs = [weakref.ref(g), weakref.ref(h)]
            del g, h
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_equal_components_are_searched_once(self, monkeypatch):
        calls = []
        search = oracle._canonical_search
        monkeypatch.setattr(oracle, "_canonical_search",
                            lambda *a: calls.append(1) or search(*a))
        g = disjoint_union(gp(GpParams(15, 4)), 4)
        form = canonical_form(g)
        assert len(calls) == 1
        assert canonical_form(g) == form and len(calls) == 1


class TestVertexBound:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "8")
        with pytest.raises(SearchBoundExceeded, match="bound is 8"):
            automorphisms(gp(GpParams(6, 1)))

    def test_message_names_count_bound_and_setting(self):
        with pytest.raises(SearchBoundExceeded) as exc:
            canonical_form(gp(GpParams(61, 1)))
        message = str(exc.value)
        assert "122 vertices" in message and "bound is 120" in message
        assert "GPCOVER_ORACLE_BOUND" in message

    def test_equal_graphs_past_the_bound_are_refused(self):
        with pytest.raises(SearchBoundExceeded, match="122 vertices"):
            is_isomorphic(gp(GpParams(61, 1)), gp(GpParams(61, 1)))

    def test_env_raises_the_bound_for_every_search(self, monkeypatch):
        # The quotient search reaches canonical_form and automorphisms
        # through kronecker_involutions; all of them read the one bound.
        g = gp(GpParams(122, 1))
        with pytest.raises(SearchBoundExceeded, match="244 vertices"):
            quotients_up_to_iso(g)
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "244")
        classes = quotients_up_to_iso(g)
        assert len(classes) == 1
        assert is_isomorphic(classes[0], gp(GpParams(61, 1)))

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
    def test_bad_env_value_is_named(self, monkeypatch, value):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", value)
        with pytest.raises(ValueError, match=f"GPCOVER_ORACLE_BOUND.*'{re.escape(value)}'"):
            automorphisms(gp(GpParams(6, 1)))
