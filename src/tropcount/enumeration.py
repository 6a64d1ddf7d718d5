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
almost immediately for spread-out configurations.  Survivors get a full
rational solve plus geometric acceptance checks.

Propagation is a worklist over rules kept as data by ``_TypeSystem``: a
value cascade per vertex, a line constraint per (edge, endpoint) and a
bound transfer per bounded edge, each with the values and boxes it reads.
A rule reruns only when one of those changed, in at most 12 sweeps in a
fixed rule order.  Every rule writes only what it reads, as a function of
what it reads, so a rule skipped this way would have changed nothing: the
boxes, the contradictions and hence the search tree are those of rerunning
every rule in every sweep.  A child node starts from its parent's state,
with the rules its parent left pending, and keeps the parent's candidate
edges, filtered.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .exact_lattice import solve_unique_rational, vector_gcd
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
    point_str,
    segment_param,
    segments_overlap,
)
from .welschinger import crossing_count

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
    genus: int
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


def _trees(num_leaves: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """All trivalent trees on leaves 0..n-1; internal nodes are n, n+1, ...

    Iterative leaf insertion: each tree on k leaves arises from a unique
    (tree on k-1 leaves, edge) pair, so every tree is produced exactly once.
    """
    if num_leaves < 3:
        raise ValueError("a trivalent tree needs at least three leaves")

    def insert(edges: Tuple[Tuple[int, int], ...], leaf: int, internal: int) -> Iterator:
        if leaf == num_leaves:
            yield edges
            return
        for i, (a, b) in enumerate(edges):
            new_edges = (
                edges[:i]
                + ((a, internal), (internal, b), (internal, leaf))
                + edges[i + 1 :]
            )
            yield from insert(new_edges, leaf + 1, internal + 1)

    first_internal = num_leaves
    base = ((0, first_internal), (1, first_internal), (2, first_internal))
    yield from insert(base, 3, first_internal + 1)


def _rot90(v: Vec) -> Vec:
    return (-v[1], v[0])


def _type_from_tree(
    tree_edges: Tuple[Tuple[int, int], ...], leaf_vecs: Sequence[Vec], num_leaves: int
) -> Optional[CombinatorialType]:
    """Forced bounded-edge data from the leaf directions, or None when some
    vertex is flat (all its directions parallel) or some bounded direction
    is zero."""
    nodes = {a for e in tree_edges for a in e}
    internal = sorted(n for n in nodes if n >= num_leaves)
    vertex_index = {n: i for i, n in enumerate(internal)}

    adjacency: Dict[int, List[Tuple[int, int]]] = {n: [] for n in nodes}
    for i, (a, b) in enumerate(tree_edges):
        adjacency[a].append((b, i))
        adjacency[b].append((a, i))

    # leaf-vector sum below every node, one iterative post-order pass
    root = internal[0]
    order = []
    parent_of = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child, _ in adjacency[node]:
            if child != parent_of.get(node):
                parent_of[child] = node
                stack.append(child)
    # A vertex's directions sum to zero, so its first two child sums are
    # parallel exactly when the vertex is flat or its parent edge is zero.
    below: Dict[int, Vec] = {}
    for node in reversed(order):
        if node < num_leaves:
            below[node] = leaf_vecs[node]
            continue
        sums = [below[child] for child, _ in adjacency[node] if child != parent_of[node]]
        (ax, ay), (bx, by) = sums[0], sums[1]
        if ax * by - ay * bx == 0:
            return None
        below[node] = (sum(v[0] for v in sums), sum(v[1] for v in sums))

    edges: List[TypeEdge] = []
    for a, b in tree_edges:
        if a < num_leaves or b < num_leaves:
            leaf, vert = (a, b) if a < num_leaves else (b, a)
            vec = leaf_vecs[leaf]
            w = vector_gcd(vec)
            edges.append(
                TypeEdge(
                    tail=vertex_index[vert],
                    head=None,
                    vec=vec,
                    weight=w,
                    prim=tuple(x // w for x in vec),
                )
            )
        else:
            # orient away from the root: vec = sum over the child side
            child = b if parent_of[b] == a else a
            tail, head = (a, b) if child == b else (b, a)
            vec = below[child]
            w = vector_gcd(vec)
            edges.append(
                TypeEdge(
                    tail=vertex_index[tail],
                    head=vertex_index[head],
                    vec=vec,
                    weight=w,
                    prim=tuple(x // w for x in vec),
                )
            )

    return CombinatorialType(
        genus=0, num_vertices=len(internal), edges=tuple(edges), has_flat_vertex=False
    )


def _canonical_key(ctype: CombinatorialType):
    """AHU canonical form of the direction-labeled tree.

    Rooted at the (at most two) centers of the internal tree, so
    isomorphic types get equal keys without minimizing over all roots.
    """
    adjacency: Dict[int, List[Tuple[Vec, int, int]]] = {
        v: [] for v in range(ctype.num_vertices)
    }
    internal_neighbors: Dict[int, List[int]] = {v: [] for v in range(ctype.num_vertices)}
    for i, e in enumerate(ctype.edges):
        if e.head is None:
            adjacency[e.tail].append((e.vec, -1, i))
        else:
            adjacency[e.tail].append((e.vec, e.head, i))
            adjacency[e.head].append((tuple(-x for x in e.vec), e.tail, i))
            internal_neighbors[e.tail].append(e.head)
            internal_neighbors[e.head].append(e.tail)

    # centers of the internal tree by repeated leaf stripping
    remaining = set(range(ctype.num_vertices))
    degree = {v: len(internal_neighbors[v]) for v in remaining}
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for w in internal_neighbors[v]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = sorted(remaining)

    def canon(node: int, parent: int):
        parts = []
        for vec, other, _ in adjacency[node]:
            if other == parent:
                continue
            if other == -1:
                parts.append((vec, ()))
            else:
                parts.append((vec, canon(other, node)))
        return tuple(sorted(parts))

    return min(canon(root, -2) for root in centers)


def enumerate_types(genus: int, degree: Degree) -> List[CombinatorialType]:
    """All trivalent genus-zero types with the given degree, deduplicated
    under direction-respecting isomorphism."""
    if genus != 0:
        raise UnsupportedGenus("genus >= 1 enumeration is gated off")
    if not degree.is_balanced():
        raise ValueError("degree directions must sum to zero")
    leaf_vecs: List[Vec] = []
    for v, count in degree.items():
        leaf_vecs.extend([tuple(v)] * count)
    if len(leaf_vecs) < 3:
        return []
    seen: Set = set()
    out: List[CombinatorialType] = []
    for tree_edges in _trees(len(leaf_vecs)):
        ctype = _type_from_tree(tree_edges, leaf_vecs, len(leaf_vecs))
        if ctype is None:
            continue
        key = _canonical_key(ctype)
        if key in seen:
            continue
        seen.add(key)
        out.append(ctype)
    return out


# --- exact transverse-coordinate solver -----------------------------------
#
# All data is integer: pins are integer values of integer normal forms at
# integer points, vertex equations have +-1 coefficients, and inequality
# forms are cleared of denominators.  Fractions appear only when a bound is
# produced by division inside the interval propagation.

# the most sweeps one propagate call runs; a capped call leaves rules pending
_SWEEPS = 12


class _TypeSystem:
    """Per-type linear data for the transverse-coordinate search.

    ``rules`` lists the propagation rules in sweep order: one value cascade
    per vertex, one line constraint per (edge, endpoint), tail before head,
    in edge order, and one bound transfer per bounded edge.  Bit r of
    ``val_readers[i]`` (``box_readers[v]``) is set when rule r reads the
    transverse value of edge i (the box of vertex v); ``vertex_edges[v]`` is
    the bitmask of the edges at vertex v.
    """

    def __init__(self, ctype: CombinatorialType):
        self.ctype = ctype
        edges = ctype.edges
        self.num_edges = len(edges)
        self.normals = [_rot90(e.vec) for e in edges]

        # vertex equations: sum of +-c over incident edges (+ out, - in)
        eqs: List[List[Tuple[int, int]]] = [[] for _ in range(ctype.num_vertices)]
        for i, e in enumerate(edges):
            eqs[e.tail].append((i, 1))
            if e.head is not None:
                eqs[e.head].append((i, -1))
        self.vertex_eqs = [tuple(eq) for eq in eqs]

        # per-vertex solving pair (two incident edges with independent normals)
        self.solve_pairs: List[Optional[Tuple[int, int, int]]] = []
        for v in range(ctype.num_vertices):
            pair = None
            inc = [i for i, _ in eqs[v]]
            for i, j in itertools.combinations(inc, 2):
                det = (
                    self.normals[i][0] * self.normals[j][1]
                    - self.normals[i][1] * self.normals[j][0]
                )
                if det != 0:
                    pair = (i, j, det)
                    break
            self.solve_pairs.append(pair)

        # rule kinds: 0 value cascade, 1 line constraint, 2 transfer
        self.rules: List[Tuple] = []
        self.val_readers = [0] * self.num_edges
        self.box_readers = [0] * ctype.num_vertices
        self.vertex_edges = [0] * ctype.num_vertices
        for terms in self.vertex_eqs:
            for i, _ in terms:
                self.val_readers[i] |= 1 << len(self.rules)
            self.rules.append((0, terms))
        for i, e in enumerate(edges):
            m1, m2 = self.normals[i]
            # y = (c - m1*x)/m2 falls as x grows iff m1, m2 share sign, which
            # decides the y slot a lower x bound tightens (3 or 2) and the x
            # slot a lower y bound tightens (1 or 0)
            decreasing = (m1 > 0) == (m2 > 0)
            for vertex in (e.tail, e.head):
                if vertex is None:
                    continue
                self.val_readers[i] |= 1 << len(self.rules)
                self.box_readers[vertex] |= 1 << len(self.rules)
                self.vertex_edges[vertex] |= 1 << i
                self.rules.append((1, i, vertex, m1, m2, 3 if decreasing else 2, int(decreasing)))
        # a bounded edge's direction orders its endpoints coordinatewise:
        # (source, target, slot) copies source's bound in slot to target
        for i in ctype.bounded_indices():
            ta, he = edges[i].tail, edges[i].head
            table: List[Tuple[int, int, int]] = []
            for k, uk in enumerate(edges[i].prim):
                lo, hi = 2 * k, 2 * k + 1
                if uk > 0:
                    table += [(ta, he, lo), (he, ta, hi)]
                elif uk < 0:
                    table += [(he, ta, lo), (ta, he, hi)]
                else:
                    table += [(ta, he, lo), (he, ta, lo), (ta, he, hi), (he, ta, hi)]
            self.box_readers[ta] |= 1 << len(self.rules)
            self.box_readers[he] |= 1 << len(self.rules)
            self.rules.append((2, tuple(table)))
        self.all_rules = (1 << len(self.rules)) - 1


class _Solver:
    """Search state: exact transverse values plus vertex coordinate boxes.

    Boxes are the workhorse: a point pinned on an edge bounds the endpoint
    vertices coordinatewise, bounded edges transfer bounds along their
    direction, and a known transverse value couples the x and y ranges of
    its endpoint vertices.  All bounds are integers, rounded outward where
    a division occurs, which is a sound relaxation of the strict geometry.
    """

    def __init__(self, system: _TypeSystem):
        self.system = system
        n = system.num_edges
        self.val: List[Optional[int]] = [None] * n
        # vertex boxes: per vertex [xlo, xhi, ylo, yhi], None = unbounded
        self.box: List[List] = [[None, None, None, None] for _ in range(system.ctype.num_vertices)]
        self.trail: List[Tuple] = []

    def snapshot(self):
        return len(self.trail)

    def rollback(self, mark):
        trail = self.trail
        val = self.val
        box = self.box
        while len(trail) > mark:
            kind, idx, slot, old = trail.pop()
            if kind == 0:
                val[idx] = old
            else:
                box[idx][slot] = old

    def readers_since(self, mark) -> int:
        """The rules that read a value or box changed since the mark."""
        system = self.system
        readers = 0
        for kind, idx, _, _ in self.trail[mark:]:
            readers |= system.box_readers[idx] if kind else system.val_readers[idx]
        return readers

    def edges_moved_since(self, mark) -> int:
        """The edges with an endpoint box changed since the mark."""
        vertex_edges = self.system.vertex_edges
        edges = 0
        for kind, idx, _, _ in self.trail[mark:]:
            if kind:
                edges |= vertex_edges[idx]
        return edges

    def set_val(self, idx, value) -> bool:
        cur = self.val[idx]
        if cur is not None:
            return cur == value
        self.trail.append((0, idx, 0, None))
        self.val[idx] = value
        return True

    def tighten(self, vertex: int, slot: int, bound) -> Optional[bool]:
        """slot 0/2: lower bound on x/y; slot 1/3: upper bound."""
        b = self.box[vertex]
        cur = b[slot]
        if slot % 2 == 0:
            if cur is not None and cur >= bound:
                return None
            other = b[slot + 1]
            if other is not None and bound > other:
                return False
        else:
            if cur is not None and cur <= bound:
                return None
            other = b[slot - 1]
            if other is not None and bound < other:
                return False
        self.trail.append((1, vertex, slot, cur))
        b[slot] = bound
        return True

    def apply_point_on_edge(self, edge: int, point: Tuple[int, int]) -> bool:
        """Box consequences of a point lying on the (relative interior of an)
        edge: the tail sits on the backward ray, the head on the forward one."""
        e = self.system.ctype.edges[edge]
        u = e.prim
        for vertex, sign in ((e.tail, 1), (e.head, -1)):
            if vertex is None:
                continue
            for k in (0, 1):
                uk = u[k] * sign
                if uk > 0:
                    res = self.tighten(vertex, 2 * k + 1, point[k])
                elif uk < 0:
                    res = self.tighten(vertex, 2 * k, point[k])
                else:
                    res = self.tighten(vertex, 2 * k, point[k])
                    if res is False:
                        return False
                    res = self.tighten(vertex, 2 * k + 1, point[k])
                if res is False:
                    return False
        return True

    def propagate(self, pending: int) -> Optional[int]:
        """Run the rules in the ``pending`` bitmask, in sweeps, to a fixpoint.

        A sweep runs the pending rules in rule order.  A rule that changes a
        value or a box schedules the rules that read it: those after it in
        this sweep, those at or before it (itself included) in the next.
        After at most ``_SWEEPS`` sweeps this returns the rules still
        pending, 0 at a fixpoint, or None on a contradiction.

        The result is the one of running every rule in every sweep.  A rule
        writes only what it reads, and its writes are a function of what it
        reads, so a rule whose inputs are unchanged since a run that changed
        nothing would change nothing again.  A caller that changes values or
        boxes passes the rules left pending plus the readers of the changes.
        """
        val = self.val
        box = self.box
        tighten = self.tighten
        system = self.system
        rules = system.rules
        val_readers = system.val_readers
        box_readers = system.box_readers
        for _ in range(_SWEEPS):
            if not pending:
                return 0
            now, pending = pending, 0
            while now:
                low = now & -now
                now ^= low
                rule = rules[low.bit_length() - 1]
                touched = 0
                if rule[0] == 0:
                    # transverse-value cascade through a trivalent equation
                    unknown = None
                    many = False
                    total = 0
                    for i, s in rule[1]:
                        v = val[i]
                        if v is None:
                            if unknown is None:
                                unknown = (i, s)
                            else:
                                many = True
                        else:
                            total += v if s > 0 else -v
                    if unknown is None:
                        if total != 0:
                            return None
                        continue
                    if many:
                        continue
                    i, s = unknown
                    self.set_val(i, -total if s > 0 else total)
                    touched = val_readers[i]
                elif rule[0] == 1:
                    # m1*x + m2*y == c at an endpoint of an edge of known value
                    _, i, vertex, m1, m2, x_slot, y_slot = rule
                    c = val[i]
                    if c is None:
                        continue
                    b = box[vertex]
                    if m1 == 0 or m2 == 0:
                        m, lo = (m2, 2) if m1 == 0 else (m1, 0)
                        for slot, bound in ((lo, _floor_div(c, m)), (lo + 1, _ceil_div(c, m))):
                            res = tighten(vertex, slot, bound)
                            if res is False:
                                return None
                            if res:
                                touched = box_readers[vertex]
                    else:
                        for xb, slot in ((b[0], x_slot), (b[1], 5 - x_slot)):
                            if xb is None:
                                continue
                            num = c - m1 * xb
                            bound = _floor_div(num, m2) if slot == 2 else _ceil_div(num, m2)
                            res = tighten(vertex, slot, bound)
                            if res is False:
                                return None
                            if res:
                                touched = box_readers[vertex]
                        for yb, slot in ((b[2], y_slot), (b[3], 1 - y_slot)):
                            if yb is None:
                                continue
                            num = c - m2 * yb
                            bound = _floor_div(num, m1) if slot == 0 else _ceil_div(num, m1)
                            res = tighten(vertex, slot, bound)
                            if res is False:
                                return None
                            if res:
                                touched = box_readers[vertex]
                else:
                    # monotone transfer along a bounded edge
                    for source, target, slot in rule[1]:
                        bound = box[source][slot]
                        if bound is None:
                            continue
                        # a bound that would not tighten, skipped without a call
                        cur = box[target][slot]
                        if cur is not None and (cur <= bound if slot & 1 else cur >= bound):
                            continue
                        res = tighten(target, slot, bound)
                        if res is False:
                            return None
                        if res:
                            touched |= box_readers[target]
                if touched:
                    later = touched & -(low << 1)
                    now |= later
                    pending |= touched ^ later
        return pending

    def point_feasible(self, edge: int, point: Tuple[int, int], pin: int) -> bool:
        """Quick test that a point can sit on the edge given current boxes."""
        system = self.system
        e = system.ctype.edges[edge]
        u = e.prim
        for vertex, sign in ((e.tail, 1), (e.head, -1)):
            if vertex is None:
                continue
            b = self.box[vertex]
            for k in (0, 1):
                uk = u[k] * sign
                if uk > 0:
                    if b[2 * k] is not None and b[2 * k] > point[k]:
                        return False
                elif uk < 0:
                    if b[2 * k + 1] is not None and b[2 * k + 1] < point[k]:
                        return False
                else:
                    if b[2 * k] is not None and b[2 * k] > point[k]:
                        return False
                    if b[2 * k + 1] is not None and b[2 * k + 1] < point[k]:
                        return False
            # the pinned line must cross the box
            m1, m2 = system.normals[edge]
            smin = 0
            smax = 0
            unbounded_min = unbounded_max = False
            for coef, lo_slot in ((m1, 0), (m2, 2)):
                if coef == 0:
                    continue
                blo, bhi = b[lo_slot], b[lo_slot + 1]
                if coef > 0:
                    if blo is None:
                        unbounded_min = True
                    else:
                        smin += coef * blo
                    if bhi is None:
                        unbounded_max = True
                    else:
                        smax += coef * bhi
                else:
                    if bhi is None:
                        unbounded_min = True
                    else:
                        smin += coef * bhi
                    if blo is None:
                        unbounded_max = True
                    else:
                        smax += coef * blo
            if not unbounded_min and pin < smin:
                return False
            if not unbounded_max and pin > smax:
                return False
        return True


def _floor_div(a: int, b: int) -> int:
    return a // b if b > 0 else (-a) // (-b)


def _ceil_div(a: int, b: int) -> int:
    if b < 0:
        a, b = -a, -b
    return -((-a) // b)


def _search_assignments(
    system: _TypeSystem, pins: List[List[int]], points: List[Tuple[int, int]]
) -> Iterator[Tuple[int, ...]]:
    """DFS over injective point-to-edge assignments with box propagation.

    ``pins[j][e]`` is the transverse value pinned when point j sits on edge
    e.  The next point to place is always one with the fewest admissible
    edges, the first such point on a tie.  A child's admissible edges for a
    point are its parent's, filtered: boxes only shrink and values are only
    set deeper in the tree, so an edge ruled out stays ruled out, and the
    box test is redone only for edges whose endpoint boxes moved.
    """
    num_points = len(pins)
    assignment: List[int] = [-1] * num_points
    used: Set[int] = set()
    solver = _Solver(system)
    val = solver.val

    def narrowed(cands: List[List[int]], moved: int) -> Optional[List[List[int]]]:
        """Each unplaced point's admissible edges among ``cands``, with the
        box test redone for the edges in the bitmask ``moved``; None as soon
        as a point has none."""
        out: List[List[int]] = [[] for _ in range(num_points)]
        for j in range(num_points):
            if assignment[j] != -1:
                continue
            row = pins[j]
            point = points[j]
            keep = out[j]
            for edge in cands[j]:
                if edge in used:
                    continue
                pin = row[edge]
                cur = val[edge]
                if cur is not None and cur != pin:
                    continue
                if moved >> edge & 1 and not solver.point_feasible(edge, point, pin):
                    continue
                keep.append(edge)
            if not keep:
                return None
        return out

    def place(placed: int, cands: List[List[int]], pending: int) -> Iterator[Tuple[int, ...]]:
        if placed == num_points:
            yield tuple(assignment)
            return
        best_point = -1
        for j in range(num_points):
            if assignment[j] == -1 and (
                best_point == -1 or len(cands[j]) < len(cands[best_point])
            ):
                best_point = j
        for edge in cands[best_point]:
            pin = pins[best_point][edge]
            mark = solver.snapshot()
            ok = solver.set_val(edge, pin)
            if ok:
                ok = solver.apply_point_on_edge(edge, points[best_point])
            if ok:
                rest = solver.propagate(pending | solver.readers_since(mark))
                ok = rest is not None
            if ok:
                used.add(edge)
                assignment[best_point] = edge
                child = narrowed(cands, solver.edges_moved_since(mark))
                if child is not None:
                    yield from place(placed + 1, child, rest)
                assignment[best_point] = -1
                used.discard(edge)
            solver.rollback(mark)

    every_edge = list(range(system.num_edges))
    root = narrowed([every_edge] * num_points, (1 << system.num_edges) - 1)
    if root is not None:
        yield from place(0, root, system.all_rules)


def solve_positions(
    ctype: CombinatorialType,
    config: PointConfiguration,
    mark_plan: Mapping[int, int],
) -> Optional[Tuple[TropicalCurve, Tuple[str, ...]]]:
    """Exact positions of a type through the points with the given plan.

    Accepts iff the transverse system has a unique solution, every bounded
    edge has positive length, and every point lies in the relative interior
    of its assigned edge.  Returns None otherwise.
    """
    if ctype.has_flat_vertex:
        return None
    return _solve(_TypeSystem(ctype), config, mark_plan)


def _solve(
    system: _TypeSystem, config: PointConfiguration, mark_plan: Mapping[int, int]
) -> Optional[Tuple[TropicalCurve, Tuple[str, ...]]]:
    """``solve_positions`` with the type's system already built."""
    rows: List[List[int]] = []
    rhs: List[Fraction] = []
    for v, terms in enumerate(system.vertex_eqs):
        row = [0] * system.num_edges
        for i, s in terms:
            row[i] = s
        rows.append(row)
        rhs.append(Fraction(0))
    for j in sorted(mark_plan):
        edge = mark_plan[j]
        row = [0] * system.num_edges
        row[edge] = 1
        rows.append(row)
        m = system.normals[edge]
        p = config.points[j]
        rhs.append(m[0] * p[0] + m[1] * p[1])
    solution = solve_unique_rational(rows, rhs)
    if solution is None:
        return None
    return _reconstruct(system, config, mark_plan, solution)


def _reconstruct(system, config, mark_plan, cvals):
    ctype = system.ctype
    positions: List[Optional[Tuple[Fraction, Fraction]]] = [None] * ctype.num_vertices
    for v in range(ctype.num_vertices):
        pair = system.solve_pairs[v]
        if pair is None:
            return None
        i, j, det = pair
        mi, mj = system.normals[i], system.normals[j]
        ci, cj = cvals[i], cvals[j]
        x = Fraction(mj[1] * ci - mi[1] * cj, det)
        y = Fraction(-mj[0] * ci + mi[0] * cj, det)
        positions[v] = (x, y)

    # positive lengths, strictly
    lengths: Dict[int, Fraction] = {}
    for i in ctype.bounded_indices():
        e = ctype.edges[i]
        t = segment_param((positions[e.tail], e.prim, False), positions[e.head])
        if t is None or t <= 0:
            return None
        lengths[i] = t

    # marked points strictly inside their edges
    for j, edge in mark_plan.items():
        e = ctype.edges[edge]
        t = segment_param((positions[e.tail], e.prim, False), config.points[j])
        if t is None or t <= 0:
            return None
        if e.head is not None and t >= lengths[edge]:
            return None

    # assemble the tropical curve
    vertex_ids = tuple("v%d" % v for v in range(ctype.num_vertices))
    bounded = []
    unbounded = []
    weights = {}
    edge_id_of: Dict[int, str] = {}
    for i in ctype.bounded_indices():
        e = ctype.edges[i]
        eid = "b%d" % len(bounded)
        bounded.append((vertex_ids[e.tail], vertex_ids[e.head]))
        weights[eid] = e.weight
        edge_id_of[i] = eid
    for i in ctype.unbounded_indices():
        e = ctype.edges[i]
        eid = "u%d" % len(unbounded)
        unbounded.append((vertex_ids[e.tail], e.prim))
        weights[eid] = e.weight
        edge_id_of[i] = eid
    marks = tuple(edge_id_of[mark_plan[j]] for j in sorted(mark_plan))
    graph = TropicalGraph(
        vertices=vertex_ids,
        bounded_edges=tuple(bounded),
        unbounded_edges=tuple(unbounded),
        weights=weights,
        marked=marks,
    )
    curve = TropicalCurve(
        graph=graph,
        positions={vertex_ids[v]: positions[v] for v in range(ctype.num_vertices)},
        n=2,
    )
    return curve, marks


def _genericity_checks(curve: TropicalCurve, config: PointConfiguration):
    vertex_at: Dict[Point, str] = {}
    for v, p in curve.positions.items():
        if p in vertex_at:
            raise GenericityFailure(
                "vertices %s and %s share the position %s" % (vertex_at[p], v, point_str(p))
            )
        vertex_at[p] = v
    for j, p in enumerate(config.points):
        if p in vertex_at:
            raise GenericityFailure(
                "point %d %s is vertex %s" % (j, point_str(p), vertex_at[p])
            )
    try:
        crossing_count(curve)
    except NonGenericCrossing as exc:
        raise GenericityFailure(str(exc))
    # overlapping parallel edges would break the finite-fiber clause
    for e1, e2 in itertools.combinations(curve.graph.edge_ids(), 2):
        if segments_overlap(curve.edge_segment(e1), curve.edge_segment(e2)):
            raise GenericityFailure("edges %s and %s overlap" % (e1, e2))


def enumerate_curves(
    genus: int, degree: Degree, config: PointConfiguration
) -> List[Tuple[TropicalCurve, Tuple[str, ...]]]:
    """All marked curves of the degree through the configuration.

    Results are deterministic: types in enumeration order, assignments in
    search order.  Raises GenericityFailure when a solution violates the
    generality clauses; the caller should retry with a fresh seed.
    """
    if genus != 0:
        raise UnsupportedGenus("genus >= 1 enumeration is gated off")
    ell = degree.total() + genus - 1
    if len(config.points) != ell:
        raise ValueError(
            "degree %d needs %d points, got %d" % (degree.total(), ell, len(config.points))
        )
    # the box search needs integers; solving and acceptance use the points
    denom = lcm(*(x.denominator for p in config.points for x in p))
    int_points = [(int(p[0] * denom), int(p[1] * denom)) for p in config.points]
    results: List[Tuple[TropicalCurve, Tuple[str, ...]]] = []
    for ctype in enumerate_types(genus, degree):
        system = _TypeSystem(ctype)
        pins = [
            [
                system.normals[e][0] * p[0] + system.normals[e][1] * p[1]
                for e in range(system.num_edges)
            ]
            for p in int_points
        ]
        for assignment in _search_assignments(system, pins, int_points):
            plan = {j: assignment[j] for j in range(len(assignment))}
            solved = _solve(system, config, plan)
            if solved is not None:
                results.append(solved)

    constraints = config.constraints()
    seen_signatures = set()
    accepted = []
    for curve, marks in results:
        if check_balancing(curve):
            raise AssertionError("enumerated curve is not balanced")
        try:
            rematched = match_marked_edges(curve, constraints)
        except (ConstraintOnVertex, AmbiguousConstraint) as exc:
            raise GenericityFailure(str(exc))
        except ConstraintMissed as exc:
            raise AssertionError("solver accepted a curve missing its point: %s" % exc)
        for j, (mark, edge) in enumerate(zip(marks, rematched)):
            if mark != edge:
                raise GenericityFailure(
                    "point %d %s is marked on edge %s but meets edge %s"
                    % (j, point_str(config.points[j]), mark, edge)
                )
        _genericity_checks(curve, config)
        signature = (
            tuple(sorted(curve.positions.values())),
            tuple(
                sorted(
                    (min(curve.positions[t], curve.positions[h]),
                     max(curve.positions[t], curve.positions[h]),
                     curve.weight("b%d" % i))
                    for i, (t, h) in enumerate(curve.graph.bounded_edges)
                )
            ),
            tuple(
                sorted(
                    (curve.positions[v], d, curve.weight("u%d" % i))
                    for i, (v, d) in enumerate(curve.graph.unbounded_edges)
                )
            ),
            marks,
        )
        # Isomorphic types are deduped in enumerate_types, and a non-flat
        # type has no automorphism (swapping two subtrees would need two
        # parallel edge vectors), so no curve can come out twice.
        if signature in seen_signatures:
            raise AssertionError("enumeration produced the same curve twice")
        seen_signatures.add(signature)
        accepted.append((curve, marks))
    return accepted
