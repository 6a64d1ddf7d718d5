"""Enumeration of marked tropical plane curves through point constraints.

The normative route: enumerate trivalent combinatorial types (trees for
genus zero) with bounded-edge data forced leaf-inward by balancing, then
assign constraint points to edges and solve exactly for positions.  Every
edge of a type carries one transverse degree of freedom (the value of a
fixed integral linear form on its supporting line); vertex balancing makes
the three transverse values at a vertex sum to zero with unit signs, and a
point pins the value of its edge.  The assignment search interleaves exact
value propagation with interval boxes on vertex coordinates (a point bounds
its edge's endpoints, bounded edges transfer bounds along their direction,
pinned lines couple the x and y ranges), which prunes wrong assignments
almost immediately for spread-out configurations.  Survivors get their
values from the pins and the vertex equations, leaf inward
(``_cascade_values``), then positions and acceptance, in one pass.

Acceptance: ``_solve`` runs on the points scaled to integers and keeps a
unique solution with positive lengths and each point strictly inside its
edge, then reads a certificate off the same numbers: no point or vertex
lies on the line of an edge not its own.  Only a curve it flags goes
through the ``Fraction`` rematch and crossing scan of
``_genericity_checks``, which a cleared one would pass, so verdicts and
messages are those of checking every curve.  Positions become
``Fraction``s only for the output curve.

Types come from one depth-first walk that inserts leaf k on each edge of
a tree on leaves 0..k-1 in turn, and skips everything below a tree whose
``_tree_key`` (its AHU form, one character per leaf direction) it has seen.
This is exact: restricting a tree to leaves 0..k commutes with relabelling
same-direction leaves, and a tree's place in the walk extends its
restriction's, so the first tree of a class is first at every level and is
never skipped.  Each tree the walk meets is rooted once (``_rooted``), and
the key, the last-leaf test and the build all read that rooting.  A tree
on all leaves but the last gets the last leaf only on the edges where it
makes no flat vertex or zero bounded edge (``_last_leaf_fits``: one pass
up the tree and one down), and is skipped unkeyed when there are none, as
validity does not change within a class.  Each whole tree of a new class
is built into a type once.

Propagation runs the rules ``_TypeSystem`` keeps as data, a value cascade
per vertex (``_vertex_sweep``, which ``_cascade_values`` also runs), then
bound steps, each moving one bound by one formula: the line steps of each
edge, kept as one group per edge (both endpoints) and skipped whole until
the edge has a value, and then the bound transfers of the bounded edges.
It runs them in plain sweeps, the cascades only until a pass sets no
value, until a sweep changes nothing or for at most 12 sweeps.  A child
node starts from a copy of its parent's values and boxes.  The box test
of a point on an edge is the ray test: no endpoint bound lies beyond the
point's coordinates, the tail behind it and the head ahead.

A search node keeps two ints that pack an edge bitmask per unplaced
point: its admissible edges, which branching counts, and its row, those
of them it could still take.  A node, each type's root included, is
dropped when its unplaced points cannot take distinct row edges with one
point fewer than ends on each part of the type cut at the placed points
(``_search_assignments`` says why).  The tree path between two points
runs along known directions, so their difference lies in the cone of
those directions (``_TypeSystem.cones``, read off the walk from each edge
that also gives its ``cuts``, and tested on the packed reach relations of
``_reach_masks``, which ``_partners`` reads for all points at once).  A
row holds only edges that pass this cone test with every placed point
and, after ``_cone_consistency``, with some edge of every other unplaced
point's row.  The rows cost bit operations, so a node tests each child's
rows before it touches any state: the children of a node are the edges of
the placed point's row, and one whose rows, with that placement, empty or
meet no quotas is skipped with no propagation.  That test is the one
prune gate, which each type's root also runs on every point's first
placements (``_singleton_consistency``).  A child that passes is
propagated, then keeps as admissible only the edges that still match
their pins and pass the box test, and its rows shrink to match.  No test
but the box test filters the admissible edges the branching reads, so the
yielded sequence is the same, with fewer nodes.

Types and their systems depend on the degree alone, so
``enumerate_curves`` builds them on a degree's first call and keeps them
for the process (``_degree_systems``): a later problem of that degree pays
only for its points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .exact_lattice import vector_gcd
from .incidence import (
    AffineConstraint,
    AmbiguousConstraint,
    ConstraintMissed,
    ConstraintOnVertex,
    match_marked_edges,
)
from .tropical import (
    Degree,
    NonGenericCrossing,
    Point,
    TropicalCurve,
    TropicalGraph,
    Vec,
    as_point,
    check_balancing,
    plane_crossings,
    point_str,
)

__all__ = [
    "CombinatorialType",
    "GenericityFailure",
    "PointConfiguration",
    "UnsupportedGenus",
    "enumerate_curves",
    "enumerate_types",
    "solve_positions",
]


class UnsupportedGenus(ValueError):
    """Only the genus-zero enumeration path is implemented."""


class GenericityFailure(RuntimeError):
    """A solution violates the generality assumptions.

    The message names what collided: vertices and their position, a point
    and its coordinates, or edges.  The cure is other points.
    """


@dataclass(frozen=True)
class TypeEdge:
    tail: int
    head: Optional[int]  # None for unbounded edges
    vec: Vec  # weighted direction, tail -> head resp. outward
    weight: int
    prim: Vec


@dataclass(frozen=True)
class CombinatorialType:
    num_vertices: int
    edges: Tuple[TypeEdge, ...]
    has_flat_vertex: bool

    def bounded_indices(self) -> List[int]:
        return [i for i, e in enumerate(self.edges) if e.head is not None]

    def unbounded_indices(self) -> List[int]:
        return [i for i, e in enumerate(self.edges) if e.head is None]


@dataclass(frozen=True)
class PointConfiguration:
    """Constraint points in the plane, explicit or generated Mikhalkin-style."""

    points: Tuple[Point, ...]
    mode: str = "explicit"
    seed: Optional[int] = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("constraint points must be pairwise distinct")

    @staticmethod
    def explicit(points: Sequence[Sequence]) -> "PointConfiguration":
        return PointConfiguration(points=tuple(as_point(p) for p in points), mode="explicit")

    @staticmethod
    def mikhalkin(ell: int, seed: int) -> "PointConfiguration":
        """Points on a line of slope F/G (large coprime F, G) with spacings
        growing fast enough that each new point dwarfs all previous ones."""
        rng = random.Random(seed)
        while True:
            f = 2 * rng.randrange(500, 1500) + 1
            g = 2 * rng.randrange(400, 1200) + 1
            if gcd(f, g) == 1 and f > g:
                break
        c = rng.randrange(1, 1000)
        ratio = 16 + rng.randrange(0, 16)
        points = []
        x = 1
        for i in range(ell):
            x *= ratio ** (i + 1)
            points.append(as_point((g * x, f * x + c)))
        return PointConfiguration(points=tuple(points), mode="mikhalkin", seed=seed)

    def constraints(self) -> List[AffineConstraint]:
        return [AffineConstraint.point(p) for p in self.points]


def _rooted(
    tree_edges: Tuple[Tuple[int, int], ...], num_leaves: int
) -> Tuple[List[List[int]], List[int], List[int]]:
    """A labelled tree rooted at its first internal node, ``num_leaves``:
    the adjacency and parent (-1 at the root) of every node, and the
    internal nodes in breadth-first order, so each after its parent and
    the last one farthest from the root."""
    adjacency: List[List[int]] = [[] for _ in range(2 * num_leaves - 2)]
    for a, b in tree_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = [-1] * len(adjacency)
    order = [num_leaves]
    for node in order:
        for child in adjacency[node]:
            if child != parent[node]:
                parent[child] = node
                if child >= num_leaves:
                    order.append(child)
    return adjacency, parent, order


def _last_leaf_fits(
    tree_edges: Tuple[Tuple[int, int], ...], rooted: Tuple, leaf_vecs: Sequence[Vec]
) -> List[int]:
    """The indices of the edges of a tree on all leaves but the last,
    ``_rooted`` as ``rooted``, on which inserting the last leaf, of vector
    v, gives a tree that ``_type_from_tree`` builds.

    Inserted above node c, the leaf adds a vertex with child sums c's and
    v; each vertex on the path up to the root gains v on its child toward
    it, and the others keep theirs.  So a pass up marks the subtrees with
    no failing vertex (``clean``), and a pass down the nodes c with none
    outside c's subtree once v is above c (``good``: none below two
    unclean siblings).  At the root any two child sums will do, as the
    three add up to zero once the leaf is in.
    """
    adjacency, parent, order = rooted
    vx, vy = leaf_vecs[-1]
    below: List[Vec] = list(leaf_vecs[:-1]) + [(0, 0)] * (len(leaf_vecs) - 1)
    clean = [True] * len(adjacency)
    kids: List = [()] * len(adjacency)
    for node in reversed(order[1:]):
        a, b, c = adjacency[node]
        kids[node] = a, b = (b, c) if a == parent[node] else (a, c) if b == parent[node] else (a, b)
        if not (clean[a] or clean[b]):
            return []
        (ax, ay), (bx, by) = below[a], below[b]
        below[node] = (ax + bx, ay + by)
        clean[node] = clean[a] and clean[b] and ax * by != ay * bx
    a, b, c = adjacency[order[0]]
    fits = [False] * len(adjacency)
    # the children c of good nodes, with siblings o and p (p = o below the root)
    todo = [(a, b, c), (b, a, c), (c, a, b)]
    for c, o, p in todo:
        (cx, cy), (ox, oy) = below[c], below[o]
        if clean[o] and clean[p] and (cx + vx) * oy != (cy + vy) * ox:
            fits[c] = clean[c] and cx * vy != cy * vx
            todo += [(a, b, b) for a, b in itertools.permutations(kids[c], 2)]
    return [i for i, (a, b) in enumerate(tree_edges) if fits[a if parent[a] == b else b]]


def _tree_key(rooted: Tuple, leaf_chars: str) -> str:
    """Canonical string of a labelled tree on leaves 0..k, ``_rooted`` as
    ``rooted``, the same for trees that differ by a relabelling of
    same-direction leaves.

    Leaf i is written ``leaf_chars[i]``, and nodes from ``len(leaf_chars)``
    on are internal.  Rooted at the (at most two) centres of the internal
    tree, so isomorphic trees get equal strings without trying every root.
    """
    adjacency, _, order = rooted
    num_leaves = len(leaf_chars)
    # The centres are the middle of a longest path.  Its first end is the
    # last internal node in the rooting's order, its other end the last
    # internal node of a walk from there.
    back = {order[-1]: -1}
    walk = [order[-1]]
    for node in walk:
        for w in adjacency[node]:
            if w >= num_leaves and w not in back:
                back[w] = node
                walk.append(w)
    path = [walk[-1]]
    while back[path[-1]] >= 0:
        path.append(back[path[-1]])
    centres = {path[(len(path) - 1) // 2], path[len(path) // 2]}
    return min(_ahu(adjacency, leaf_chars, c, -1) for c in centres)


def _ahu(adjacency: Sequence[List[int]], leaf_chars: str, node: int, prev: int) -> str:
    """AHU string of the subtree at internal ``node`` away from ``prev``:
    its neighbours' strings, sorted, in parentheses."""
    parts = []
    for w in adjacency[node]:
        if w != prev:
            parts.append(
                leaf_chars[w] if w < len(leaf_chars) else _ahu(adjacency, leaf_chars, w, node)
            )
    parts.sort()
    return "(" + "".join(parts) + ")"


def _type_from_tree(
    tree_edges: Tuple[Tuple[int, int], ...], rooted: Tuple, leaf_vecs: Sequence[Vec]
) -> Optional[CombinatorialType]:
    """The type of a tree on every leaf, ``_rooted`` as ``rooted``:
    internal node ``num_leaves + i`` is vertex i, and every edge points
    away from the root, with the leaf-vector sum below its far end as its
    vector.  None when some vertex is flat (all its directions parallel)
    or some bounded direction is zero."""
    adjacency, parent, order = rooted
    num_leaves = len(leaf_vecs)
    # A vertex's directions sum to zero, so two of its child sums are
    # parallel exactly when the vertex is flat or its parent edge is zero.
    below: List[Vec] = list(leaf_vecs) + [(0, 0)] * (num_leaves - 2)
    for node in reversed(order):
        up = parent[node]
        (ax, ay), (bx, by) = [below[c] for c in adjacency[node] if c != up][:2]
        if ax * by - ay * bx == 0:
            return None
        below[node] = (ax + bx, ay + by)
    edges: List[TypeEdge] = []
    for a, b in tree_edges:
        far, tail = (a, b) if parent[a] == b else (b, a)
        head = None if far < num_leaves else far - num_leaves
        vec = below[far]
        w = vector_gcd(vec)
        edges.append(TypeEdge(tail - num_leaves, head, vec, w, tuple(x // w for x in vec)))
    return CombinatorialType(
        num_vertices=num_leaves - 2, edges=tuple(edges), has_flat_vertex=False
    )


def enumerate_types(genus: int, degree: Degree) -> List[CombinatorialType]:
    """All trivalent genus-zero types with the given degree, deduplicated
    under direction-respecting isomorphism.  Each is built once, from the
    first labelled tree of its class in the walk's order."""
    if genus != 0:
        raise UnsupportedGenus("genus >= 1 enumeration is gated off")
    if not degree.is_balanced():
        raise ValueError("degree directions must sum to zero")
    leaf_vecs: List[Vec] = []
    leaf_chars = ""
    for i, (v, count) in enumerate(degree.items()):
        leaf_vecs.extend([tuple(v)] * count)
        leaf_chars += chr(ord("a") + i) * count
    n = len(leaf_vecs)
    if n < 3:
        return []
    # trees with different numbers of leaves never share a key
    seen: Set[str] = set()
    out: List[CombinatorialType] = []
    # Depth first on a stack (a closure calling itself is a reference
    # cycle); children are pushed last edge first, so they pop in edge order.
    stack = [(((0, n), (1, n), (2, n)), 3)]
    while stack:
        tree_edges, leaves = stack.pop()
        rooted = _rooted(tree_edges, n)
        where = range(len(tree_edges))
        if leaves == n - 1:
            where = _last_leaf_fits(tree_edges, rooted, leaf_vecs)
            # validity is the same for the whole class, so no key is needed
            if not where:
                continue
        key = _tree_key(rooted, leaf_chars)
        if key in seen:
            continue
        seen.add(key)
        if leaves == n:
            # None only for the first tree, at n == 3; later ones got the last leaf where it fits
            ctype = _type_from_tree(tree_edges, rooted, leaf_vecs)
            if ctype is not None:
                out.append(ctype)
            continue
        internal = n + leaves - 2
        for i in reversed(where):
            a, b = tree_edges[i]
            child = tree_edges[:i] + ((a, internal), (internal, b), (internal, leaves))
            stack.append((child + tree_edges[i + 1 :], leaves + 1))
    return out


# --- exact transverse-coordinate solver -----------------------------------
#
# All data is integer: pins are integer values of integer normal forms at
# integer points, vertex equations have +-1 coefficients, and inequality
# forms are cleared of denominators.  Fractions appear only in the positions
# of a solved curve.

# the most sweeps one propagate call runs; the next call goes on from there
_SWEEPS = 12


class _TypeSystem:
    """Per-type linear data for the transverse-coordinate search.

    Boxes live in one flat list, four slots per vertex v: ``4v`` and
    ``4v + 1`` bound x from below and above, ``4v + 2`` and ``4v + 3`` bound
    y; an even slot is a lower bound.

    The propagation rules come in three tables, in sweep order: the value
    cascade of each vertex (``vertex_eqs``), the line steps of each edge
    (``lines``) and the bound ``transfers``.  ``lines[i]`` holds edge i's
    ``_line_steps`` at its tail and then at its head; a step
    (read, write, a, m) bounds the write slot by (c - a * box[read]) / m,
    rounded outward, with c the edge's value, so an edge's steps run only
    once it has one.  A transfer (read, write) copies box[read] to the
    write slot: a bounded edge's direction orders its endpoints
    coordinatewise.

    ``rays[i]`` lists, per endpoint of edge i (tail first) and coordinate
    k, the (k, slot to set) entries of a point on the edge: the tail lies
    behind the point along the edge and the head ahead of it, so the
    point's coordinate k bounds the endpoint's slot to set, and contradicts
    a bound at the other end of that range, the check slot ``slot ^ 1``.

    Every table is a tuple, so a system kept for the process
    (``_degree_systems``) stays as built.  Systems built with one
    ``shared`` dict hold one object for each group of equal entries, type
    edges included: ``ctype`` is an equal copy of the type given.
    """

    def __init__(self, ctype: CombinatorialType, shared: Optional[Dict] = None):
        shared = {} if shared is None else shared
        share = shared.setdefault
        # what an edge alone decides, built once per shared dict under the
        # key (edge,): the edge, its normal, line steps (tail, then head),
        # rays, transfers, and direction bits ahead along it and behind
        per_edge = []
        for e in ctype.edges:
            data = shared.get((e,))
            if data is None:
                e, prim, normal = share(e, e), e.prim, (-e.vec[1], e.vec[0])
                normal = share(normal, normal)
                steps, rays, moves = [], [], []
                for vertex, sign in ((e.tail, 1), (e.head, -1)):
                    if vertex is None:
                        continue
                    steps += _line_steps(normal, 4 * vertex)
                    for k in (0, 1):
                        uk = prim[k] * sign
                        lo = 4 * vertex + 2 * k
                        # set the upper slot ahead along coordinate k, the lower behind
                        rays += [(k, slot) for slot in ((lo + (uk > 0),) if uk else (lo, lo + 1))]
                # a bounded edge's direction orders its ends coordinatewise,
                # so a transfer copies a lower bound in coordinate k to the
                # end ahead, an upper one back, and both ways where level
                ta, he = e.tail, e.head
                for k, uk in enumerate(prim if he is not None else ()):
                    pairs = ((ta, he, 2 * k, uk >= 0), (he, ta, 2 * k, uk <= 0))
                    pairs += ((ta, he, 2 * k + 1, uk <= 0), (he, ta, 2 * k + 1, uk >= 0))
                    moves += [(4 * s + slot, 4 * t + slot) for s, t, slot, ok in pairs if ok]
                steps, rays, moves = [tuple(map(share, x, x)) for x in (steps, rays, moves)]
                data = (e, normal, share(steps, steps), share(rays, rays), moves)
                bits = _direction_bit(prim), _direction_bit((-prim[0], -prim[1]))
                data = shared[(e,)] = data + bits
            per_edge.append(data)
        edges, normals, lines, rays, moves, ahead, behind = zip(*per_edge)
        self.ctype = ctype = CombinatorialType(ctype.num_vertices, edges, ctype.has_flat_vertex)
        self.num_edges = num_edges = len(edges)
        self.normals = normals

        # vertex equations: sum of +-c over incident edges (+ out, - in);
        # out[v]: each edge at v, its far end, its direction bit away from v
        eqs: List[List[Tuple[int, int]]] = [[] for _ in range(ctype.num_vertices)]
        out: List[List[Tuple[int, Optional[int], int]]] = [[] for _ in eqs]
        for i, e in enumerate(edges):
            eqs[e.tail].append((i, 1))
            out[e.tail].append((i, e.head, ahead[i]))
            if e.head is not None:
                eqs[e.head].append((i, -1))
                out[e.head].append((i, e.tail, behind[i]))
        eqs = [tuple(eq) for eq in eqs]
        self.vertex_eqs = tuple(map(share, eqs, eqs))

        # per-vertex solving pair: the first two incident edges with
        # independent normals, and their determinant
        solve_pairs: List[Optional[Tuple[int, int, int]]] = []
        for eq in eqs:
            pairs = [
                (i, j, normals[i][0] * normals[j][1] - normals[i][1] * normals[j][0])
                for (i, _), (j, _) in itertools.combinations(eq, 2)
            ]
            pair = next((pair for pair in pairs if pair[2]), None)
            solve_pairs.append(pair and share(pair, pair))
        self.solve_pairs = tuple(solve_pairs)
        self.lines, self.rays = lines, rays
        self.transfers = tuple(itertools.chain.from_iterable(moves))
        self.ends = sum(1 << i for i in ctype.unbounded_indices())

        # cones[e][f] holds the directions the tree path from a point on
        # edge e to one on edge f runs along, as ``_direction_bit``s: the
        # rest of e, every bounded edge between, and f up to its point;
        # cuts[e] the edge bitmasks of the parts a point on e leaves of the
        # type, the edges reached from e's tail and those from its head
        cones: List[Tuple[int, ...]] = []
        cuts: List[Tuple[int, ...]] = []
        for i, e in enumerate(edges):
            row = [0] * num_edges
            sides = []
            for start, dirs in ((e.tail, behind[i]), (e.head, ahead[i])):
                if start is None:
                    continue
                sides.append(0)
                walk = [(start, i, dirs)]
                for v, came, dirs in walk:
                    for k, far, bit in out[v]:
                        if k != came:
                            sides[-1] |= 1 << k
                            row[k] = bit | dirs
                            if far is not None:
                                walk.append((far, k, row[k]))
            cones.append(tuple(map(share, row, row)))
            cuts.append(share(tuple(sides), tuple(sides)))
        self.cones = tuple(cones)
        self.cuts = tuple(cuts)


def _direction_bit(v: Vec) -> int:
    """A bit of its own for each nonzero vector: bit n for the n-th pair
    (x, y) of zigzagged coordinates (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)
    in Cantor's order, which ``_dual_cone`` reads back."""
    x, y = (2 * a if a >= 0 else -2 * a - 1 for a in v)
    return 1 << (x + y) * (x + y + 1) // 2 + y


@functools.lru_cache(maxsize=None)
def _dual_cone(dirs: int) -> Tuple[Vec, ...]:
    """The vectors among +-rot90(w) and w, for the directions w whose
    ``_direction_bit`` is in ``dirs``, that are >= 0 on every such w,
    sorted.  They generate the dual cone, so a vector lies in the cone
    spanned by the directions exactly when each of them is >= 0 on it; none
    are left when that cone is the whole plane."""
    ws = []
    while dirs:
        n = dirs.bit_length() - 1
        dirs ^= 1 << n
        diagonal = (math.isqrt(8 * n + 1) - 1) // 2
        y = n - diagonal * (diagonal + 1) // 2
        ws.append(tuple(z // 2 if z % 2 == 0 else -(z + 1) // 2 for z in (diagonal - y, y)))
    generators = []
    for a, b in {c for x, y in ws for c in ((-y, x), (y, -x), (x, y))}:
        for x, y in ws:
            if a * x + b * y < 0:
                break
        else:
            generators.append((a, b))
    return tuple(sorted(generators))


def _reach_masks(dirs: int, points: Sequence[Tuple[int, int]], width: int, known: Dict) -> int:
    """The points' reach relation along the directions in ``dirs``, packed:
    bit a * stride + b * width, with stride = len(points) * width, is set
    when phi . p_b >= phi . p_a for every generator phi of the dual cone.

    ``known`` keeps the packs of these points at this width, by ``dirs``
    and by generator: a generator's is read off the points, and that of
    ``dirs`` is the AND of its generators' (spreading bits commutes with
    AND).  With no generators, the zero form stands in: every point
    reaches every point.
    """
    pack = known.get(dirs)
    if pack is None:
        stride = len(points) * width
        pack = -1
        for a, b in _dual_cone(dirs) or ((0, 0),):
            above = known.get((a, b))
            if above is None:
                pairs = itertools.product(enumerate(a * x + b * y for x, y in points), repeat=2)
                above = sum(1 << j * stride + k * width for (j, low), (k, v) in pairs if v >= low)
                known[(a, b)] = above
            pack &= above
        known[dirs] = pack
    return pack


def _line_steps(normal: Vec, base: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """The (read slot, write slot, a, m) steps of m1*x + m2*y == c at the
    vertex whose box starts at ``base``: each bounds the write slot by
    (c - a * box[read]) / m, rounded outward; read slot -1 reads 0."""
    m1, m2 = normal
    if m1 == 0:
        return ((-1, base + 2, 0, m2), (-1, base + 3, 0, m2))
    if m2 == 0:
        return ((-1, base, 0, m1), (-1, base + 1, 0, m1))
    # y = (c - m1*x)/m2 falls as x grows iff m1, m2 share sign, which
    # decides the y slot a lower x bound tightens (3 or 2) and the x slot a
    # lower y bound tightens (1 or 0)
    x_slot, y_slot = (3, 1) if (m1 > 0) == (m2 > 0) else (2, 0)
    return (
        (base, base + x_slot, m1, m2),
        (base + 1, base + 5 - x_slot, m1, m2),
        (base + 2, base + y_slot, m2, m1),
        (base + 3, base + 1 - y_slot, m2, m1),
    )


def _tighten(box: List[Optional[int]], slot: int, bound: int) -> Optional[bool]:
    """Move the bound in ``slot`` (an upper one when odd) in to ``bound``:
    whether that changed it, None when it empties the range."""
    cur = box[slot]
    if slot & 1:
        if cur is not None and cur <= bound:
            return False
        other = box[slot - 1]
        if other is not None and bound < other:
            return None
    else:
        if cur is not None and cur >= bound:
            return False
        other = box[slot + 1]
        if other is not None and bound > other:
            return None
    box[slot] = bound
    return True


def _vertex_sweep(vertex_eqs: Sequence[Tuple[Tuple[int, int], ...]], val: List) -> Optional[bool]:
    """One pass of the vertex equations, in order: an equation with one
    unknown value sets it.  Whether that set a value; None when an equation
    with every value known does not hold."""
    changed = False
    for terms in vertex_eqs:
        unknowns = 0
        total = 0
        for i, s in terms:
            v = val[i]
            if v is None:
                unknowns += 1
                unknown, sign = i, s
            else:
                total += v if s > 0 else -v
        if unknowns == 1:
            val[unknown] = -total if sign > 0 else total
            changed = True
        elif unknowns == 0 and total != 0:
            return None
    return changed


def _apply_point(system: _TypeSystem, box: List[Optional[int]], edge: int, point: Vec) -> bool:
    """Box consequences of a point lying on the (relative interior of an)
    edge: the tail sits on the backward ray, the head on the forward one.
    False when that empties a range, which ``_point_feasible`` rules out
    on these boxes first."""
    for k, slot in system.rays[edge]:
        if _tighten(box, slot, point[k]) is None:
            return False
    return True


def _propagate(system: _TypeSystem, val: List[Optional[int]], box: List[Optional[int]]) -> bool:
    """Run every rule on the transverse values ``val`` and the boxes
    ``box``, in sweeps, to a fixpoint; False on a contradiction.

    A sweep runs the vertex cascades, unless their last pass set no value,
    then the line steps edge by edge, skipping an edge with no value, then
    the transfers.  It stops when a sweep changes nothing, or after
    ``_SWEEPS`` sweeps; the next call, at a child, goes on from there.
    Every bound moves through ``_tighten`` and is an integer, rounded
    outward where a division occurs: a sound relaxation of the strict geometry.
    """
    lines = system.lines
    cascade = True
    for _ in range(_SWEEPS):
        changed = cascade = cascade and _vertex_sweep(system.vertex_eqs, val)
        if changed is None:
            return False
        for c, steps in zip(val, lines):
            if c is None:
                continue
            for read, slot, a, m in steps:
                num = c
                if read >= 0:
                    other = box[read]
                    if other is None:
                        continue
                    num -= a * other
                moved = _tighten(box, slot, -(-num // m) if slot & 1 else num // m)
                if moved is None:
                    return False
                changed = changed or moved
        for read, slot in system.transfers:
            bound = box[read]
            if bound is not None:
                moved = _tighten(box, slot, bound)
                if moved is None:
                    return False
                changed = changed or moved
        if not changed:
            break
    return True


def _point_feasible(system: _TypeSystem, box: List[Optional[int]], edge: int, point: Vec) -> bool:
    """Whether a point can sit on the edge given the boxes: no ray entry's
    slot to set has a bound beyond the point on the other side of its
    range (its check slot, the set slot ^ 1)."""
    for k, slot in system.rays[edge]:
        bound = box[slot ^ 1]
        if bound is not None and (bound > point[k] if slot & 1 else bound < point[k]):
            return False
    return True


def _has_quota_matching(rows: List[int], parts: Sequence[int], ends: int, num_edges: int) -> bool:
    """Whether every row (an edge bitmask) can take a distinct one of its
    edges such that each part (an edge bitmask; the parts hold every edge
    of every row) has an end and takes at most one row fewer than it has
    ends (bits of ``ends``): exactly that many when these quotas add up to
    the rows, as in the search.  A flow by augmenting paths
    (``_reroute``)."""
    spare = [(part & ends).bit_count() - 1 for part in parts]
    if min(spare) < 0:
        return False
    owner = [-1] * num_edges
    for r in range(len(rows)):
        if not _reroute(rows, parts, spare, owner, r, [0, 0]):
            return False
    return True


def _reroute(rows, parts, spare, owner, r, seen) -> bool:
    """Kuhn's step for row r: take an unseen edge, lowest first, that is
    free in a part with room to spare, or an owned one whose row moves on,
    or a free one in a full part one of whose rows moves on.  ``seen``
    holds the bitmasks of the edges and the parts this path has visited."""
    left = rows[r]
    while left:
        bit = left & -left
        left ^= bit
        if seen[0] & bit:
            continue
        seen[0] |= bit
        edge = bit.bit_length() - 1
        other = owner[edge]
        if other < 0:
            k = 0
            while not parts[k] & bit:
                k += 1
            if spare[k]:
                spare[k] -= 1
                owner[edge] = r
                return True
            if seen[1] >> k & 1:
                continue
            seen[1] |= 1 << k
            for moved in range(len(owner)):
                if parts[k] >> moved & 1 and owner[moved] >= 0 and not seen[0] >> moved & 1:
                    seen[0] |= 1 << moved
                    if _reroute(rows, parts, spare, owner, owner[moved], seen):
                        owner[moved] = -1
                        owner[edge] = r
                        return True
        elif _reroute(rows, parts, spare, owner, other, seen):
            owner[edge] = r
            return True
    return False


def _partners(
    cones: Sequence[Sequence[int]], points: Sequence[Tuple[int, int]], width: int, known: Dict
) -> List[List[int]]:
    """Per point a and edge e, the bitmask with bit b * width + f when
    point b on edge f != e passes the cone test with point a on edge e.
    Edge e's table is the OR of the relations of ``cones[e]``
    (``_reach_masks``) shifted onto their edge bits, for all points at
    once; point a's is its slice at a * stride."""
    stride = len(points) * width
    tables = []
    for e, row in enumerate(cones):
        table = 0
        for f, dirs in enumerate(row):
            if f != e:
                table |= (known.get(dirs) or _reach_masks(dirs, points, width, known)) << f
        tables.append(table)
    mask = (1 << stride) - 1
    return [[table >> a * stride & mask for table in tables] for a in range(len(points))]


def _cone_consistency(
    rows: int, unplaced: List[int], partners: Sequence[Sequence[int]], num_edges: int, guards: int
) -> Optional[int]:
    """Drop edge e from point a's row while some other point b of
    ``unplaced`` has no edge f in its row such that e is among point a's
    edges in ``partners[b][f]``, to a fixpoint; None once a row is empty.

    ``rows`` holds point b's edge bitmask at bit b * (num_edges + 1) and
    up, as ``partners`` (``_partners``) do, with a guard bit above it that
    they never set, so adding num_edges ones to each row sets the guards
    of the nonempty ones.  ``guards`` holds the guard bits of the points
    of ``unplaced``, which the caller finds once for all its calls on
    them.  The union of ``partners[b][f]`` over the edges f of b's row
    holds each other point's edges that pass the cone test with some edge
    of b's row, so a pass intersects the rows with that union for each b
    in turn, skipping a b whose row has not changed since its union was
    last applied: rows only shrink, so that union would change nothing.
    The test reads the same from either point (``_search_assignments``),
    so this is also the test read from a.
    """
    width = num_edges + 1
    full = (1 << num_edges) - 1
    ones = guards - (guards >> num_edges)
    applied = [-1] * len(partners)
    while (rows + ones) & guards == guards:
        before = rows
        for b in unplaced:
            shift = b * width
            row = rows >> shift & full
            if row == applied[b]:
                continue
            applied[b] = row
            table = partners[b]
            # b's own row is not tested against itself
            support = full << shift
            while row:
                low = row & -row
                row ^= low
                support |= table[low.bit_length() - 1]
            rows &= support
        if rows == before:
            return rows
    return None


def _singleton_consistency(rows: int, closed: Callable, partners, cuts, width) -> Optional[int]:
    """The root's ``rows`` less each edge e of point b's row whose child,
    b placed first on e, fails ``closed``, for every point b but point 0,
    which the root branches on anyway, smallest row first.  A row that
    shrinks reruns ``closed`` on all rows; None once a row empties."""
    full = (1 << width - 1) - 1
    everyone = list(range(len(partners)))
    guards = sum([1 << b * width + width - 1 for b in everyone])
    for _, b in sorted([((rows >> j * width & full).bit_count(), j) for j in everyone[1:]]):
        others = everyone[:b] + everyone[b + 1 :]
        others_guards = guards ^ 1 << b * width + width - 1
        others_rows = rows & ~(full << b * width)
        row = left = rows >> b * width & full
        table = partners[b]
        while left:
            bit = left & -left
            left ^= bit
            edge = bit.bit_length() - 1
            if closed(others_rows & table[edge], others, others_guards, cuts[edge]) is None:
                row ^= bit
        if row != rows >> b * width & full:
            rows = closed(others_rows | row << b * width, everyone, guards, (full,))
            if rows is None:
                return None
    return rows


def _search_assignments(
    system: _TypeSystem, points: List[Tuple[int, int]], cone_masks: Optional[Dict] = None
) -> Iterator[Tuple[int, ...]]:
    """DFS over injective point-to-edge assignments with box propagation.

    Point j on edge e pins e's transverse value to ``pins[j][e]``, the
    edge's normal form at the point.  A node keeps two edge bitmasks per
    unplaced point, packed as the rows of ``_cone_consistency`` (point j's
    at bit j * (num_edges + 1) and up): its admissible edges (``cands``),
    and its row, those of them the point could still take.  The next point
    to place is always one with the fewest admissible edges, the first
    such point on a tie.  A child's admissible edges for a point are its
    parent's, filtered: boxes only shrink and values are only set deeper
    in the tree, so an edge ruled out stays ruled out.  The point placed
    passed the box test (``_point_feasible``) on the boxes it is applied to.

    Each child starts from a copy of its parent's state: a node copies its
    values and boxes once, before the first child it propagates when more
    edges follow, and puts them back before each later one.  The state a
    node leaves behind is its last child's, which its own parent
    overwrites.  What depends only on the node (the point placed, the
    others and their guard bits, the unused edges) is found once, before
    its first child.

    A node's ``parts`` are the edge bitmasks of the type cut at its placed
    points.  A part with n ends and h cut half-edges has 2n + h - 3 unknown
    values and n + h - 2 independent vertex equations, so n - 1 free ones:
    ``_solve`` finds a unique solution only when every part takes n - 1 of
    the unplaced points, since a part with fewer is singular, and one with
    more leaves another with fewer (the quotas add up to the points).

    The cone test: with point a on edge e and point b on edge f, on a curve
    of the type p_b - p_a is a sum of non-negative multiples of the
    directions ``system.cones[e][f]`` the tree path runs along, so
    phi . p_b >= phi . p_a for each generator phi of their dual cone: bit
    b * width + f of ``partners[a][e]`` (``_partners``).  The test is
    closed, so a degenerate solution still passes it, and it reads the
    same from b, since the cone of the path back is the negated cone.

    A row holds the admissible edges that are unused and pass the cone
    test with every placed point.  The children of a node are the edges of
    the placed point's row, lowest first.  Before a child touches the
    state, its rows are the node's without the placed point's, less the
    edges that fail the cone test with the new placement or are its edge;
    ``_cone_consistency`` then drops the edges that some other unplaced
    point cannot pass the test with, and the child is skipped, with no
    restore and no ``_propagate`` call, on an empty row or rows that meet
    no quotas (``closed``, the one prune gate).  A child that passes is
    propagated and redoes the box test on its parent's admissible edges
    that are unused and unset or at their pin; its rows keep only those
    (``narrowed``, which stops at the first row it empties).  When that
    empties a row or breaks the quotas, every child of the child fails
    ``closed``: its rows are a subset of those, and its quota matching
    plus its placed point is one of those.  The box test is the ray test;
    a pinned line that misses an endpoint's box is found by the edge's
    line steps in the child's propagation.  The root runs ``closed`` on
    full rows, then ``_singleton_consistency``: each point but the first
    keeps only the edges whose child, that point placed first there,
    passes ``closed``.  Every assignment the search yields passes the cone
    test on every pair and meets the quotas of every cut, so a dropped
    (point, edge) pair is in no completion; ``cands``, and so the
    branching, stay as they are, and the yielded sequence is that of the
    box and quota tests alone.

    ``cone_masks`` keeps the ``_reach_masks`` over ``points``; pass one
    dict for every type of a problem, all of one width, to build each once.
    """
    if cone_masks is None:
        cone_masks = {}
    pins = [[m1 * x + m2 * y for m1, m2 in system.normals] for x, y in points]
    num_points = len(points)
    num_edges = system.num_edges
    width = num_edges + 1
    full = (1 << num_edges) - 1
    partners = _partners(system.cones, points, width, cone_masks)

    assignment: List[int] = [-1] * num_points
    val: List[Optional[int]] = [None] * num_edges
    # per vertex [xlo, xhi, ylo, yhi], None = unbounded
    box: List[Optional[int]] = [None] * (4 * system.ctype.num_vertices)
    cuts = system.cuts
    ends = system.ends

    def closed(
        rows: int, unplaced: List[int], guards: int, parts: Tuple[int, ...]
    ) -> Optional[int]:
        """The rows after ``_cone_consistency``; None when a row empties or
        no matching of the rows meets the quotas of ``parts``."""
        rows = _cone_consistency(rows, unplaced, partners, num_edges, guards)
        if rows is None or not _has_quota_matching(
            [rows >> j * width & full for j in unplaced], parts, ends, num_edges
        ):
            return None
        return rows

    def narrowed(unplaced: List[int], cands: int, unused: int, rows: int) -> Tuple[int, int]:
        """The admissible edges of ``unplaced`` among ``cands``: in
        ``unused``, unset or at their pin, and passing the box test; and
        ``rows`` with those edges only.  It stops at the first row that
        comes out empty, where every child fails ``closed``."""
        boxed = 0
        for j in unplaced:
            pinned = pins[j]
            point = points[j]
            shift = j * width
            fits = 0
            left = cands >> shift & unused
            while left:
                bit = left & -left
                left ^= bit
                edge = bit.bit_length() - 1
                cur = val[edge]
                if cur is None or cur == pinned[edge]:
                    if _point_feasible(system, box, edge, point):
                        fits |= bit
            boxed |= fits << shift
            if not rows >> shift & fits:
                break
        return boxed, rows & boxed

    def place(
        unplaced: List[int], cands: int, rows: int, parts: Tuple[int, ...]
    ) -> Iterator[Tuple[int, ...]]:
        if not unplaced:
            yield tuple(assignment)
            return
        best_point = unplaced[0]
        fewest = width
        for j in unplaced:
            count = (cands >> j * width & full).bit_count()
            if count < fewest:
                best_point, fewest = j, count
        row = pins[best_point]
        point = points[best_point]
        others = []
        guards = 0
        for j in unplaced:
            if j != best_point:
                others.append(j)
                guards |= 1 << j * width + num_edges
        unused = sum(parts)
        # the other points' rows, which each child narrows by its own edge
        others_rows = rows & ~(full << best_point * width)
        table = partners[best_point]
        left = rows >> best_point * width & full
        saved = None
        while left:
            bit = left & -left
            left ^= bit
            edge = bit.bit_length() - 1
            k = 0
            while not parts[k] & bit:
                k += 1
            split = parts[:k] + tuple([parts[k] & side for side in cuts[edge]]) + parts[k + 1 :]
            child_rows = closed(others_rows & table[edge], others, guards, split)
            if child_rows is None:
                continue
            if saved is not None:
                val[:], box[:] = saved
            elif left:
                saved = (val[:], box[:])
            # a candidate's value is unset or already its pin
            val[edge] = row[edge]
            if not (_apply_point(system, box, edge, point) and _propagate(system, val, box)):
                continue
            assignment[best_point] = edge
            yield from place(others, *narrowed(others, cands, unused ^ bit, child_rows), split)
            assignment[best_point] = -1

    whole = (full,)
    everyone = list(range(num_points))
    cands = sum([full << j * width for j in everyone])
    rows = closed(cands, everyone, sum([1 << j * width + num_edges for j in everyone]), whole)
    if rows is not None:
        rows = _singleton_consistency(rows, closed, partners, cuts, width)
    if rows is not None:
        yield from place(everyone, cands, rows, whole)
    del place  # place reaches itself through this cell; break that cycle


def solve_positions(
    ctype: CombinatorialType,
    config: PointConfiguration,
    mark_plan: Mapping[int, int],
) -> Optional[Tuple[TropicalCurve, Tuple[str, ...]]]:
    """Exact positions of a type through the points with the given plan.

    Accepts iff the transverse system has a unique solution, every bounded
    edge has positive length, and every point lies in the relative interior
    of its assigned edge.  Returns None otherwise, a type with a flat
    vertex included: that vertex has no solving pair.
    """
    solved = _solve(_TypeSystem(ctype), *_scaled(config.points), mark_plan)
    return None if solved is None else solved[:2]


def _scaled(points: Sequence[Point]) -> Tuple[List[Tuple[int, int]], int]:
    """The points times the lcm of their coordinates' denominators, as
    integers, and that lcm."""
    denom = lcm(*(x.denominator for p in points for x in p))
    return [(int(x * denom), int(y * denom)) for x, y in points], denom


def _cascade_values(
    system: _TypeSystem, pins: Sequence[Sequence], mark_plan: Mapping[int, int]
) -> Optional[List]:
    """The unique transverse values with point j pinning edge
    ``mark_plan[j]`` to ``pins[j][edge]``, or None when there are none or
    more than one.

    The vertex equations give the rest leaf inward: one with a single
    unknown value fixes it.  Cut at its pinned edges the type is a forest,
    and a tree of k vertices has k equations in its k - 1 inner edges and
    its unpinned ends, which the cascade solves exactly when it has at most
    one such end.  So the solution is unique exactly when the cascade
    reaches every edge, and it exists when every equation then holds.
    """
    values: List = [None] * system.num_edges
    for j, edge in mark_plan.items():
        if values[edge] is None:
            values[edge] = pins[j][edge]
        elif values[edge] != pins[j][edge]:
            return None
    changed = True
    while changed:
        changed = _vertex_sweep(system.vertex_eqs, values)
        if changed is None:
            return None
    return None if None in values else values


def _ahead(p: Tuple[int, int, int], q: Tuple[int, int, int], u: Vec) -> bool:
    """Whether q lies strictly ahead of p along u; each is (X, Y, w), w > 0, for (X, Y) / w."""
    return (q[0] * p[2] - p[0] * q[2]) * u[0] + (q[1] * p[2] - p[1] * q[2]) * u[1] > 0


def _solve(
    system: _TypeSystem,
    points: Sequence[Tuple[int, int]],
    denom: int,
    mark_plan: Mapping[int, int],
) -> Optional[Tuple[TropicalCurve, Tuple[str, ...], bool]]:
    """``solve_positions`` on the integer ``points`` (the problem's times
    ``denom``), in integers up to the output: the curve, its marks, and
    whether the certificate clears it of ``_genericity_checks``.

    Vertex v sits at (X, Y) / w over its solving pair, w = +-det > 0.  Every
    vertex equation holds, so each vertex lies on the lines of all its
    edges and each point on its edge's line, and a length or a point's
    parameter along an edge has the sign of a dot product with the edge's
    direction.  A length <= 0, or a point not strictly between its edge's
    ends, is rejected.

    The certificate: each point and each vertex lies on the lines of its
    own edges only.  That is sound, as zero lengths and points at an end of
    their edge are rejected and no two edges at a vertex are parallel: each
    failure of the checks puts a point or a vertex on a foreign edge's
    line.  A point on a vertex is not at an end of its own edge; two
    vertices at one place share at most one edge; and an edge through a
    vertex is such a line.
    """
    normals = system.normals
    pins = [[m1 * x + m2 * y for m1, m2 in normals] for x, y in points]
    values = _cascade_values(system, pins, mark_plan)
    if values is None or None in system.solve_pairs:
        return None
    vertices = []
    for i, k, det in system.solve_pairs:
        (a, b), (c, d) = normals[i], normals[k]
        x, y = d * values[i] - b * values[k], a * values[k] - c * values[i]
        vertices.append((x, y, det) if det > 0 else (-x, -y, -det))
    ctype = system.ctype
    for e in ctype.edges:
        if e.head is not None and not _ahead(vertices[e.tail], vertices[e.head], e.prim):
            return None
    for j, edge in mark_plan.items():
        e, p = ctype.edges[edge], points[j] + (1,)
        if not _ahead(vertices[e.tail], p, e.prim):
            return None
        if e.head is not None and not _ahead(p, vertices[e.head], e.prim):
            return None
    cleared = all(sum(map(operator.eq, pins[j], values)) == 1 for j in mark_plan) and all(
        sum(m1 * x + m2 * y == c * w for (m1, m2), c in zip(normals, values)) == len(eq)
        for (x, y, w), eq in zip(vertices, system.vertex_eqs)
    )

    names = tuple("v%d" % v for v in range(ctype.num_vertices))
    bounded, unbounded = ctype.bounded_indices(), ctype.unbounded_indices()
    edge_ids = {i: "b%d" % n for n, i in enumerate(bounded)}
    edge_ids.update((i, "u%d" % n) for n, i in enumerate(unbounded))
    marks = tuple(edge_ids[mark_plan[j]] for j in sorted(mark_plan))
    edges = ctype.edges
    graph = TropicalGraph(
        vertices=names,
        bounded_edges=tuple((names[edges[i].tail], names[edges[i].head]) for i in bounded),
        unbounded_edges=tuple((names[edges[i].tail], edges[i].prim) for i in unbounded),
        weights={eid: edges[i].weight for i, eid in edge_ids.items()},
        marked=marks,
    )
    positions = [(Fraction(x, w * denom), Fraction(y, w * denom)) for x, y, w in vertices]
    return TropicalCurve(graph=graph, positions=dict(zip(names, positions)), n=2), marks, cleared


def _genericity_checks(curve: TropicalCurve, config: PointConfiguration):
    """Raise GenericityFailure when the curve breaks a generality clause.

    Two clauses need no test of their own.  ``_solve`` puts each point
    strictly inside its own edge, so a rematch that does not raise gives
    the curve's marks.  No two adjacent edges are parallel, so where two
    parallel edges overlap, a vertex of one lies on the other: it shares its
    place with a vertex, or its other two edges cross that edge at an end.
    """
    try:
        match_marked_edges(curve, config.constraints())
    except (ConstraintOnVertex, AmbiguousConstraint) as exc:
        raise GenericityFailure(str(exc))
    except ConstraintMissed as exc:
        raise AssertionError("solver accepted a curve missing its point: %s" % exc)
    vertex_at: Dict[Point, str] = {}
    for v, p in curve.positions.items():
        if p in vertex_at:
            raise GenericityFailure(
                "vertices %s and %s share the position %s" % (vertex_at[p], v, point_str(p))
            )
        vertex_at[p] = v
    try:
        for _ in plane_crossings(curve):
            pass
    except NonGenericCrossing as exc:
        raise GenericityFailure(str(exc))


# degree items -> the systems of the degree's types, in type order
_SYSTEMS: Dict[Tuple, Tuple[_TypeSystem, ...]] = {}


def _degree_systems(degree: Degree) -> Tuple[_TypeSystem, ...]:
    """The ``_TypeSystem`` of each type of the degree, in the order of
    ``enumerate_types``: built on the first call for the degree, with one
    ``shared`` dict for them all, and kept for the process, since types do
    not depend on the points.  An entry is written once and holds only
    immutable data.
    """
    key = tuple(degree.items())
    systems = _SYSTEMS.get(key)
    if systems is None:
        shared: Dict = {}
        built = tuple(_TypeSystem(ctype, shared) for ctype in enumerate_types(0, degree))
        systems = _SYSTEMS.setdefault(key, built)
    return systems


def enumerate_curves(
    genus: int, degree: Degree, config: PointConfiguration
) -> List[Tuple[TropicalCurve, Tuple[str, ...]]]:
    """All marked curves of the degree through the configuration.

    Results are deterministic: types in enumeration order, assignments in
    search order.  Raises GenericityFailure when a solution violates the
    generality clauses; the caller should retry with a fresh seed.  Each
    curve is checked as it is solved, in that order, the first failure
    raising; one that ``_solve``'s certificate clears skips the checks.
    """
    if genus != 0:
        raise UnsupportedGenus("genus >= 1 enumeration is gated off")
    ell = degree.total() + genus - 1
    if len(config.points) != ell:
        raise ValueError(
            "degree %d needs %d points, got %d" % (degree.total(), ell, len(config.points))
        )
    # the box search and the solve run on integers
    int_points, denom = _scaled(config.points)
    cone_masks: Dict = {}
    seen_signatures = set()
    accepted = []
    for system in _degree_systems(degree):
        for assignment in _search_assignments(system, int_points, cone_masks):
            solved = _solve(system, int_points, denom, dict(enumerate(assignment)))
            if solved is None:
                continue
            curve, marks, cleared = solved
            if check_balancing(curve):
                raise AssertionError("enumerated curve is not balanced")
            if not cleared:
                _genericity_checks(curve, config)
            pos = curve.positions
            bounded, unbounded = [], []
            for eid in curve.graph.edge_ids():
                t, h, d = curve.graph.edge(eid)
                if h is None:
                    unbounded.append((pos[t], d, curve.weight(eid)))
                else:
                    bounded.append((min(pos[t], pos[h]), max(pos[t], pos[h]), curve.weight(eid)))
            signature = (
                tuple(sorted(pos.values())), tuple(sorted(bounded)), tuple(sorted(unbounded)), marks
            )
            # Isomorphic types are deduped in enumerate_types, and a non-flat
            # type has no automorphism (swapping two subtrees would need two
            # parallel edge vectors), so no curve can come out twice.
            if signature in seen_signatures:
                raise AssertionError("enumeration produced the same curve twice")
            seen_signatures.add(signature)
            accepted.append((curve, marks))
    return accepted
