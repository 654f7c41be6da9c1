"""Eavesdropper model and exact information-leakage oracles.

An eavesdropper reads the storage of some nodes (e1) and the repair
downloads of other nodes (e2).  Every observed symbol is a fixed linear
functional of the source vector f = (random symbols, payload), so the
whole observation is a matrix M with e = M @ f.  Leakage is then a rank
statement: with uniform independent randomness and payload,

    I(payload; e) = (rank(M) - rank(M restricted to random columns)) * log q.

`secure.node_set_verdict` is the one home of the closed forms of rank(M)
and that rank gap, and of the guarantee predicate, every node protected
and u' = |nodes|: all three depend only on the number of observed nodes
and the ranks of their generator columns.  Type 1 nodes whose generator
columns span U1 expose F^k (x) U1, Type 2 nodes whose columns span U2
expose U2 (x) F^k, and the two meet in U2 (x) U1.  A report reads the
verdict `observe` records; a sweep row reads it once per distinct node
set (`sim.sweep_eavesdroppers` says why that is exact).  The verdict
and observe's helper-span check read each code's `MdsCode.column_ranks`,
arithmetic on counts for the two built-in styles, so a sweep of a
built-in config eliminates nothing.  An explicit code's ranks, and the
revealed set of every code, come from one memoized row space per code
and observed position set, `MdsCode.row_space`, so a report eliminates
at most once per distinct set of generator columns and a sweep once per
distinct set, not once per spec; this module eliminates no generator
columns itself.

Both closed forms hold for every observation `observe` accepts, MDS
code or not, since it refuses a repair whose helpers do not span F^k, as
`framework.repair` does.  The references they are tested against are
`obs.matrix.rank()` and `leakage_by_elimination`, which counts pivots
left of / right of the random block, and for tiny instances brute-force
mutual information computed by enumerating every source vector.

`revealed_symbols`, the source coordinates the eavesdropper learns
outright, has a closed form too.  The quotient of all functionals by the
observed space is (F^k/U2) (x) (F^k/U1), so entry (a, b) of A is revealed
iff e_b lies in U1 or e_a in U2: the memoized row space of the observed
generator columns of each node type decides every coordinate, with no
RREF of M.

`observe`, the only constructor of `Observation`, validates a spec and
records the config and layout, the observed nodes (type, index, and the
helpers of an observed repair) and their verdict.  The rows of M are
assembled symbolically from generator columns, so the result is a
property of the scheme rather than of one random draw, and only when
something reads `obs.matrix` or `obs.values`: the elimination references
and `brute_force_mi`.  Rank, leakage and the revealed set
never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
    InstanceTooLarge,
    MissingRepairPlan,
    SingularSubmatrix,
)
from .field import FieldMatrix, _pivot_columns
from .framework import TwinConfig, TwinSystem, default_helpers, opposite_type
from .secure import SecureLayout, node_set_verdict


@dataclass(frozen=True)
class EavesdropperSpec:
    """Nodes whose storage (e1) or repair downloads (e2) are observed, each
    a sorted tuple of (type, index) pairs of ints.  Every construction
    (`dataclasses.replace` too) normalizes them and checks that every type
    is 1 or 2, that e1 and e2 are disjoint and that no node repeats."""

    e1: tuple
    e2: tuple

    def __post_init__(self):
        e1 = tuple(sorted((int(t), int(j)) for t, j in self.e1))
        e2 = tuple(sorted((int(t), int(j)) for t, j in self.e2))
        for t, j in e1 + e2:
            if t not in (1, 2):
                raise ValueError(f"node type must be 1 or 2, got ({t}, {j})")
        if set(e1) & set(e2):
            raise ValueError(f"e1 and e2 must be disjoint: {set(e1) & set(e2)}")
        if len(set(e1)) != len(e1) or len(set(e2)) != len(e2):
            raise ValueError("duplicate node references in eavesdropper spec")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @classmethod
    def of(cls, e1=(), e2=()) -> "EavesdropperSpec":
        return cls(e1=e1, e2=e2)

    @property
    def budget(self) -> int:
        return len(self.e1) + len(self.e2)

    def to_json_dict(self) -> dict:
        return {"e1": [list(x) for x in self.e1],
                "e2": [list(x) for x in self.e2]}


@dataclass(frozen=True, eq=False)
class Observation:
    """What observe() recorded of one eavesdropper spec.

    `nodes` holds one (type, index, helpers or None) entry per observed
    node: None for a storage read, the k helper indices for an observed
    repair.  `verdict` is the nodes' `secure.node_set_verdict`: rank(M),
    the leakage and the zero-leakage guarantee.  The matrix M and its
    observed values are assembled from `nodes` on first read.
    """

    config: TwinConfig
    layout: SecureLayout
    nodes: tuple
    verdict: dict

    @cached_property
    def matrix(self) -> FieldMatrix:
        """One row per observed symbol, k*k columns."""
        config = self.config
        k, p = config.k, config.field.p
        blocks = [np.zeros((0, k * k), dtype=np.int64)]
        for t, j, helpers in self.nodes:
            if helpers is None:
                through = np.eye(k, dtype=np.int64)
            else:
                generator = config.code_for(opposite_type(t)).generator.array
                through = generator[:, [h - 1 for h in helpers]].T
            blocks.append(_functional_rows(
                t, config.code_for(t).encoding_vector(j), through, p))
        return FieldMatrix(np.vstack(blocks), config.field)

    @cached_property
    def values(self) -> np.ndarray:
        """matrix @ source vector."""
        return self.matrix @ self.layout.source_vector()


def _functional_rows(node_type: int, g: np.ndarray, through: np.ndarray,
                     p: int) -> np.ndarray:
    """One functional row per row h of `through`: what a node shows through h.

    Source coordinate c*k + t holds message-matrix entry (t, c).  A Type 1
    node g shows h^T A g, weight g[t]*h[c] on coordinate t*k + c; a Type 2
    node shows g^T A h, weight h[c]*g[t] on c*k + t.  Through the identity
    these are its stored symbols, through k helpers' generator columns the
    symbols they ship to repair it.
    """
    k = g.shape[0]
    if node_type == 1:
        outer = g[None, :, None] * through[:, None, :]
    else:
        outer = through[:, :, None] * g[None, None, :]
    return outer.reshape(through.shape[0], k * k) % p


def observe(system: TwinSystem, layout: SecureLayout, spec: EavesdropperSpec,
            repair_plans=None) -> Observation:
    """The eavesdropper's observation: the only constructor of Observation.

    repair_plans maps each e2 node (type, index) to the k helper indices
    used for its observed repair; the functionals do not depend on when
    the repair happened, only on which helpers served it.  Every node and
    plan is validated here, before anything is assembled; a node outside
    its code fails in `MdsCode.column_ranks`; helpers that do not span F^k
    raise SingularSubmatrix, as in repair().  The verdict
    (`secure.node_set_verdict`) and the span check read each code's
    `MdsCode.column_ranks`: counts for the built-in styles, the memoized
    `MdsCode.row_space` for explicit codes, so a sweep eliminates at most
    once per distinct position set rather than once per spec.
    """
    config = system.config
    k = config.k
    if layout.field != config.field:
        raise FieldMismatch(f"layout over F_{layout.field.p}, "
                            f"system over F_{config.field.p}")
    if layout.k != k:
        raise DimensionMismatch("layout does not match the system configuration")
    if spec.budget >= k:
        raise BudgetExceeded(f"need |e1| + |e2| < k = {k}, got {spec.budget}")
    repair_plans = dict(repair_plans or {})

    nodes = [(node_type, j, None) for node_type, j in spec.e1]
    for node_type, j in spec.e2:
        plan = repair_plans.get((node_type, j))
        if plan is None:
            raise MissingRepairPlan(
                f"no repair plan recorded for type {node_type} node {j}"
            )
        helpers = tuple(int(h) for h in plan)
        helper_type = opposite_type(node_type)
        helper_code = config.code_for(helper_type)
        if len(helpers) != k or len(set(helpers)) != k or any(
                not 1 <= h <= helper_code.n for h in helpers):
            raise DimensionMismatch(
                f"repair plan for type {node_type} node {j} must name k={k} "
                f"distinct type {helper_type} helpers, got {plan}"
            )
        if not helper_code.spans(helpers):
            raise SingularSubmatrix(
                f"type {helper_type} helpers {helpers} do not span F^{k}; "
                f"no repair of type {node_type} node {j} can use them"
            )
        nodes.append((node_type, j, helpers))

    verdict = node_set_verdict(config, layout, [(t, j) for t, j, _ in nodes])
    return Observation(config=config, layout=layout, nodes=tuple(nodes),
                       verdict=verdict)


def default_repair_plans(system: TwinSystem, spec: EavesdropperSpec) -> dict:
    """The default repair helpers (framework.default_helpers) per e2 node."""
    return {(t, j): default_helpers(system, t) for t, j in spec.e2}


def independent_symbol_count(obs: Observation) -> int:
    """Number of linearly independent observed symbols: rank(M), in closed
    form (`secure.node_set_verdict`)."""
    return obs.verdict["rank"]


def leakage(obs: Observation) -> int:
    """Exact q-ary leakage rank(M) - rank(M|random), in closed form
    (`secure.node_set_verdict`)."""
    return obs.verdict["leakage"]


def leakage_by_elimination(obs: Observation) -> int:
    """Reference leakage: rank(M) minus rank of M's random-column block.

    One elimination suffices: with columns ordered random-first, pivots
    falling in the payload region are exactly the rank gap.
    """
    if obs.matrix.rows == 0:
        return 0
    layout = obs.layout
    n_random = len(layout.random_cols)
    perm = list(layout.random_cols) + list(layout.payload_cols)
    arr = obs.matrix.array[:, perm]
    pivots = _pivot_columns(arr, obs.matrix.field.p)
    return sum(1 for c in pivots if c >= n_random)


def revealed_symbols(obs: Observation) -> set:
    """Labels of source coordinates fully determined by the observation.

    With U1 and U2 the column spaces of the observed Type 1 and Type 2
    generator columns, the observed space is F^k (x) U1 + U2 (x) F^k, and
    the quotient of all k*k functionals by it is (F^k/U2) (x) (F^k/U1).
    Entry (a, b) of A, source coordinate b*k + a, maps there to
    [e_a] (x) [e_b], which vanishes iff e_b lies in U1 or e_a in U2.  A
    unit vector lies in a row space iff some row of its RREF is that unit
    vector, so the memoized RREF of the observed columns of each node type
    (`MdsCode.row_space`, which an explicit code's verdict shares) decides
    every coordinate.  Exact for every observation `observe` accepts, since
    it refuses helpers that do not span F^k; an observation of no nodes
    reveals nothing.
    """
    config, k = obs.config, obs.config.k
    units = []
    for node_type in (1, 2):
        rows, _ = config.code_for(node_type).row_space(
            [j for t, j, _ in obs.nodes if t == node_type])
        units.append(set(np.nonzero(
            rows[np.count_nonzero(rows, axis=1) == 1])[1].tolist()))
    in_u1, in_u2 = units
    return {obs.layout.label(b * k + a) for b in range(k) for a in range(k)
            if b in in_u1 or a in in_u2}


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
    payload_cols = np.asarray(obs.layout.payload_cols, dtype=np.intp)
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


def _verdict(obs: Observation) -> dict:
    """Rank, leakage and the zero-leakage guarantee of one observation,
    read through `independent_symbol_count` and `leakage`, the oracle's
    entry points that perfbench/tracer.py times."""
    return {"rank": independent_symbol_count(obs), "leakage": leakage(obs),
            "guaranteed": obs.verdict["guaranteed"]}


def eavesdrop_report(system: TwinSystem, layout: SecureLayout,
                     spec: EavesdropperSpec, repair_plans=None) -> dict:
    """JSON-ready report for one eavesdropper spec: what it observes
    (`observe`), what leaks, and whether zero leakage is guaranteed."""
    obs = observe(system, layout, spec, repair_plans)
    return {"spec": spec.to_json_dict(), **_verdict(obs),
            "revealed": sorted(revealed_symbols(obs),
                               key=lambda s: (s[0], int(s[1:])))}
