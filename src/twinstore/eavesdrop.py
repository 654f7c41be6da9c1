"""Eavesdropper model and exact information-leakage oracles.

An eavesdropper reads the storage of some nodes (e1) and the repair
downloads of other nodes (e2).  Every observed symbol is a fixed linear
functional of the source vector f = (random symbols, payload), so the
whole observation is a matrix M with e = M @ f.  Leakage is then a rank
statement: with uniform independent randomness and payload,

    I(payload; e) = (rank(M) - rank(M restricted to random columns)) * log q.

`leakage` and `independent_symbol_count` evaluate rank(M) and that rank
gap in closed form from the ranks of the observed nodes' generator
columns (two eliminations of at most k-1 rows of length k, done once per
Observation and shared by both).  Type 1 nodes with column rank u1
expose F^k (x) U1, Type 2 nodes with column rank u2 expose U2 (x) F^k,
and the two meet in U2 (x) U1, so

    rank(M) = k(u1 + u2) - u1*u2.

Both closed forms hold whenever every observed repair's helpers span
F^k; otherwise they fall back to eliminating M itself: `obs.matrix.rank()`
and `leakage_by_elimination`, the reference oracle that counts pivots
left of / right of the random block.  For tiny instances both are
cross-checked against brute-force mutual information computed by
enumerating every source vector.

`revealed_symbols`, the source coordinates the eavesdropper learns
outright, comes from one reduced row echelon form of M and holds for any
M: coordinate i is revealed iff some RREF row is the unit vector e_i.

Observation rows are assembled symbolically from generator columns, so
the result is a property of the scheme rather than of one random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InstanceTooLarge,
    MissingRepairPlan,
)
from .field import FieldMatrix, _pivot_columns
from .framework import TwinSystem, default_helpers, opposite_type
from .secure import SecureLayout, source_label


@dataclass(frozen=True)
class EavesdropperSpec:
    """Nodes whose storage (e1) or repair downloads (e2) are observed."""

    e1: tuple
    e2: tuple

    @classmethod
    def of(cls, e1=(), e2=()) -> "EavesdropperSpec":
        e1 = tuple(sorted((int(t), int(j)) for t, j in e1))
        e2 = tuple(sorted((int(t), int(j)) for t, j in e2))
        for t, j in e1 + e2:
            if t not in (1, 2):
                raise ValueError(f"node type must be 1 or 2, got ({t}, {j})")
        if set(e1) & set(e2):
            raise ValueError(f"e1 and e2 must be disjoint: {set(e1) & set(e2)}")
        if len(set(e1)) != len(e1) or len(set(e2)) != len(e2):
            raise ValueError("duplicate node references in eavesdropper spec")
        return cls(e1=e1, e2=e2)

    @property
    def budget(self) -> int:
        return len(self.e1) + len(self.e2)

    def to_json_dict(self) -> dict:
        return {"e1": [list(x) for x in self.e1],
                "e2": [list(x) for x in self.e2]}


@dataclass(frozen=True)
class Observation:
    """Eavesdropper view: functionals over the source vector plus values.

    observe() also records the structure the closed forms for rank and
    leakage need: the type and generator column of every observed node
    (storage reads, then repaired nodes) and whether every observed
    repair's helpers span F^k.  An Observation built without that
    structure is measured by elimination.
    """

    matrix: FieldMatrix       # one row per observed symbol, k*k columns
    values: np.ndarray        # matrix @ source vector
    random_cols: tuple        # source coordinates holding random symbols
    payload_cols: tuple
    k: int
    protected_type: int = 1   # node type the layout's random band shields
    node_types: tuple = ()    # 1 or 2 per observed node
    node_vectors: np.ndarray | None = None  # one generator column per row
    helpers_span: bool = False  # every observed repair's helpers span F^k

    def label(self, coord: int) -> str:
        return source_label(coord, self.random_cols)

    @cached_property
    def _column_ranks(self):
        """(u, u', v) of the closed forms, or None where they do not apply.

        u = rank of the observed protected-type columns, u' = pivots of that
        same elimination among the first l coordinates (the rank of those
        columns' first l rows), v = rank of the other-type columns.
        """
        if self.node_vectors is None or not self.helpers_span:
            return None
        l = len(self.random_cols) // self.k
        p = self.matrix.field.p
        own = np.array([t == self.protected_type for t in self.node_types],
                       dtype=bool)
        own_cols, other_cols = self.node_vectors[own], self.node_vectors[~own]
        # an empty group has rank 0: no elimination
        pivots = _pivot_columns(own_cols, p) if len(own_cols) else ()
        u_low = sum(1 for c in pivots if c < l)
        v = len(_pivot_columns(other_cols, p)) if len(other_cols) else 0
        return len(pivots), u_low, v


def _storage_rows(k: int, node_type: int, g: np.ndarray, p: int) -> np.ndarray:
    """k functional rows for the stored symbols of one node.

    Source coordinate c*k + t holds message-matrix entry (t, c).  A Type 1
    node's symbol t combines row t (weight g[c] at c*k + t); a Type 2
    node's symbol t combines column t (weight g[c] at t*k + c).
    """
    rows = np.zeros((k, k * k), dtype=np.int64)
    t = np.arange(k)
    if node_type == 1:
        rows[t[:, None], t[None, :] * k + t[:, None]] = g[None, :] % p
    else:
        rows[t[:, None], t[:, None] * k + t[None, :]] = g[None, :] % p
    return rows


def _repair_rows(k: int, failed_type: int, g_failed: np.ndarray,
                 helper_vectors: np.ndarray, p: int) -> np.ndarray:
    """One functional row per helper for an observed repair.

    The helper serving a failed Type 1 node g ships sum_{t,c} g[t] A[c,t] h[c],
    i.e. weight g[t]*h[c] on coordinate t*k + c; for a failed Type 2 node the
    roles transpose to weight h[c]*g[t] on coordinate c*k + t.
    """
    if failed_type == 1:
        outer = g_failed[None, :, None] * helper_vectors[:, None, :]
    else:
        outer = helper_vectors[:, :, None] * g_failed[None, None, :]
    return outer.reshape(helper_vectors.shape[0], k * k) % p


def observe(system: TwinSystem, layout: SecureLayout, spec: EavesdropperSpec,
            repair_plans=None) -> Observation:
    """Assemble the eavesdropper's observation matrix and observed values.

    repair_plans maps each e2 node (type, index) to the k helper indices
    used for its observed repair; the functionals do not depend on when
    the repair happened, only on which helpers served it.
    """
    config = system.config
    k = config.k
    p = config.field.p
    if layout.k != k or layout.field != config.field:
        raise DimensionMismatch("layout does not match the system configuration")
    if spec.budget >= k:
        raise BudgetExceeded(f"need |e1| + |e2| < k = {k}, got {spec.budget}")
    repair_plans = dict(repair_plans or {})

    blocks = []
    node_types = []
    vectors = []
    helpers_span = True
    for node_type, j in spec.e1:
        g = config.code_for(node_type).encoding_vector(j)
        blocks.append(_storage_rows(k, node_type, g, p))
        # code_for and _storage_rows treat every type other than 1 as Type 2
        node_types.append(1 if node_type == 1 else 2)
        vectors.append(g)
    for node_type, j in spec.e2:
        plan = repair_plans.get((node_type, j))
        if plan is None:
            raise MissingRepairPlan(
                f"no repair plan recorded for type {node_type} node {j}"
            )
        helpers = [int(h) for h in plan]
        helper_type = opposite_type(node_type)
        helper_code = config.code_for(helper_type)
        if len(helpers) != k or len(set(helpers)) != k or any(
                not 1 <= h <= helper_code.n for h in helpers):
            raise DimensionMismatch(
                f"repair plan for type {node_type} node {j} must name k={k} "
                f"distinct type {helper_type} helpers, got {plan}"
            )
        g_failed = config.code_for(node_type).encoding_vector(j)
        helper_vectors = helper_code.generator.array[:, [h - 1 for h in helpers]].T
        blocks.append(_repair_rows(k, node_type, g_failed, helper_vectors, p))
        node_types.append(node_type)
        vectors.append(g_failed)
        helpers_span = helpers_span and helper_code.spans(helpers)

    if blocks:
        m = np.vstack(blocks)
    else:
        m = np.zeros((0, k * k), dtype=np.int64)
    matrix = FieldMatrix(m, config.field)
    values = matrix @ layout.source_vector() if m.shape[0] else np.zeros(0, np.int64)
    return Observation(matrix=matrix, values=values,
                       random_cols=layout.random_cols,
                       payload_cols=layout.payload_cols, k=k,
                       protected_type=layout.protected_type,
                       node_types=tuple(node_types),
                       node_vectors=np.array(vectors, dtype=np.int64).reshape(-1, k),
                       helpers_span=helpers_span)


def default_repair_plans(system: TwinSystem, spec: EavesdropperSpec) -> dict:
    """The default repair helpers (framework.default_helpers) per e2 node."""
    return {(t, j): default_helpers(system, t) for t, j in spec.e2}


def independent_symbol_count(obs: Observation) -> int:
    """Number of linearly independent observed symbols: rank(M), in closed form.

    With u1 and u2 the ranks of the observed Type 1 and Type 2 generator
    columns, the observed space is F^k (x) U1 + U2 (x) F^k, whose two
    terms meet in U2 (x) U1:

        rank(M) = k(u1 + u2) - u1*u2.

    Same precondition and fallback as `leakage`: where an observed
    repair's helpers do not span F^k, or the Observation lacks the
    recorded node structure, this returns obs.matrix.rank().
    """
    ranks = obs._column_ranks
    if ranks is None:
        return obs.matrix.rank()
    u, _, v = ranks
    return obs.k * (u + v) - u * v


def leakage(obs: Observation) -> int:
    """Exact q-ary leakage rank(M) - rank(M|random), in closed form.

    Storing a Type 1 node with generator column g exposes the functionals
    x^T A g for every x, i.e. F^k (x) g; a Type 2 node exposes g (x) F^k.
    An observed repair of a node through k helpers whose columns span F^k
    exposes exactly the repaired node's own space.  For a layout with
    budget l protecting type P, let u = rank of the observed type-P
    columns, u' = rank of their first l rows and v = rank of the observed
    other-type columns; counting dimensions of the observed space and of
    its projection onto the random band gives

        leakage = (k - v)(u - u') + v(k - l).

    One elimination of the stacked type-P columns yields u, and its pivots
    among the first l coordinates count u'; a second yields v when
    other-type nodes are observed.  Both are computed once per Observation
    and shared with `independent_symbol_count`.

    Precondition: every observed repair's helper columns span F^k (the MDS
    property).  observe() checks that for each helper set; where it fails,
    or for an Observation that lacks the recorded node structure, this
    returns leakage_by_elimination(obs), so the two never disagree.
    """
    ranks = obs._column_ranks
    if ranks is None:
        return leakage_by_elimination(obs)
    u, u_low, v = ranks
    k = obs.k
    l = len(obs.random_cols) // k
    return (k - v) * (u - u_low) + v * (k - l)


def leakage_by_elimination(obs: Observation) -> int:
    """Reference leakage: rank(M) minus rank of M's random-column block.

    One elimination suffices: with columns ordered random-first, pivots
    falling in the payload region are exactly the rank gap.
    """
    if obs.matrix.rows == 0:
        return 0
    n_random = len(obs.random_cols)
    perm = list(obs.random_cols) + list(obs.payload_cols)
    arr = obs.matrix.array[:, perm]
    pivots = _pivot_columns(arr, obs.matrix.field.p)
    return sum(1 for c in pivots if c >= n_random)


def revealed_symbols(obs: Observation) -> set:
    """Labels of source coordinates fully determined by the observation.

    Coordinate i is revealed iff the unit functional e_i lies in the row
    space of M.  A row-space vector is fixed by its entries at the RREF
    pivot columns, so that holds iff some row of the RREF of M has exactly
    one nonzero entry, in column i.  One elimination decides every
    coordinate, with no precondition on M; an observation with no rows
    reveals nothing.
    """
    rref = obs.matrix.rref().array
    unit_rows = rref[np.count_nonzero(rref, axis=1) == 1]
    return {obs.label(int(c)) for c in np.nonzero(unit_rows)[1]}


def brute_force_mi(obs: Observation, max_states: int = 10**6) -> float:
    """Exact mutual information I(payload; observation) in bits, by enumeration.

    Enumerates every source vector (q^(k*k) of them), so it is only
    feasible for tiny fields and k; the rank oracle `leakage` must agree
    with this on every enumerable instance.
    """
    q = obs.matrix.field.p
    ncols = obs.matrix.cols
    n_states = q**ncols
    if n_states > max_states:
        raise InstanceTooLarge(
            f"{q}^{ncols} = {n_states} source vectors exceed the "
            f"limit of {max_states}"
        )
    payload_cols = np.asarray(obs.payload_cols, dtype=np.intp)
    n_pay = payload_cols.size
    rows = obs.matrix.rows

    joint_keys = np.empty(n_states, dtype=np.int64)
    y_keys = np.empty(n_states, dtype=np.int64)
    x_radix = q ** np.arange(n_pay, dtype=np.int64)
    y_radix = q ** np.arange(rows, dtype=np.int64)
    mt = obs.matrix.array.T
    chunk = 1 << 16
    for start in range(0, n_states, chunk):
        stop = min(start + chunk, n_states)
        f = np.array(np.unravel_index(np.arange(start, stop), (q,) * ncols),
                     dtype=np.int64).T
        e = (f @ mt) % q if rows else np.zeros((stop - start, 0), dtype=np.int64)
        yk = e @ y_radix if rows else np.zeros(stop - start, dtype=np.int64)
        xk = f[:, payload_cols] @ x_radix if n_pay else np.zeros(stop - start,
                                                                 dtype=np.int64)
        y_keys[start:stop] = yk
        joint_keys[start:stop] = xk * (q**rows if rows else 1) + yk

    _, jinv, jcounts = np.unique(joint_keys, return_inverse=True,
                                 return_counts=True)
    _, yinv, ycounts = np.unique(y_keys, return_inverse=True, return_counts=True)
    # uniform sources: p(x) = q^-n_pay exactly, so
    # log2(p(xy)/(p(x)p(y))) = log2 c_xy - log2 c_y + n_pay*log2 q
    per_sample = np.log2(jcounts[jinv]) - np.log2(ycounts[yinv])
    mi = float(per_sample.mean()) + n_pay * math.log2(q)
    return max(mi, 0.0)


def eavesdrop_report(obs: Observation, spec: EavesdropperSpec) -> dict:
    """JSON-ready leakage report for one eavesdropper spec."""
    revealed = revealed_symbols(obs)
    return {
        "spec": spec.to_json_dict(),
        "rank": independent_symbol_count(obs),
        "leakage": leakage(obs),
        "revealed": sorted(revealed, key=lambda s: (s[0], int(s[1:]))),
    }
