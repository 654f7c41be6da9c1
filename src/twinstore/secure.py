"""Secrecy layer: random-padded message layouts and the leakage verdict.

Against an eavesdropper that reads l1 nodes' storage and observes l2
nodes' repair downloads (l = l1 + l2 < k), the message matrix devotes
k*l of its cells to uniform random symbols and the remaining k*(k - l)
to the protected payload.

The randomization can only shield one node type at a time, and the two
orientations are transposes of each other.  Type 1 nodes store mixtures
of message-matrix *columns*, so leading random columns shield them;
Type 2 nodes store mixtures of *rows*, so shielding them needs leading
random rows instead.  A layout therefore commits to a protected type
(default: Type 1, giving the leading-random-columns matrix); observed
sets of the other type generally leak, which the leakage oracle reports
honestly.

One function, `node_set_verdict`, maps an observed node set to its
verdict: rank(M) and the leakage in closed form, and the zero-leakage
guarantee.  Reports, sweep rows and `guaranteed_secure_set` all read it,
and it reads the ranks of the observed generator columns from each
code's `MdsCode.column_ranks`: arithmetic on counts for the two built-in
styles, the memoized `MdsCode.row_space` for explicit codes.  The
guarantee is deliberately conservative: every node protected and
u' = |nodes|, i.e. every eavesdropped node is of the protected type and
the first l rows of that type's generator at the eavesdropped columns
have full column rank.
Full-Vandermonde generators satisfy that for every set of at most l
protected nodes, so they are the default style for secure systems; the
leakage oracle measures the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadPayloadLength, BudgetExceeded, DimensionMismatch, FieldMismatch
from .field import FieldMatrix, PrimeField
from .framework import MessageMatrix, TwinConfig, opposite_type


def secure_capacity_twin(k: int, l1: int, l2: int) -> int:
    """Payload symbols storable with zero leakage: k * (k - l1 - l2)."""
    if l1 < 0 or l2 < 0:
        raise ValueError(f"eavesdropper counts must be nonnegative: ({l1}, {l2})")
    if l1 + l2 >= k:
        raise BudgetExceeded(f"need l1 + l2 < k, got {l1} + {l2} >= {k}")
    return k * (k - l1 - l2)


@dataclass(frozen=True, eq=False)
class SecureLayout:
    """Message matrix with a random band oriented toward one node type:
    its sizes, seed, protected type and payload.  Every construction
    (`dataclasses.replace` too) checks them, draws `random_symbols` from
    the seed and places them and the payload into `matrix` by `_slots`."""

    k: int
    l1: int
    l2: int
    field: PrimeField
    seed: int
    protected_type: int
    payload: np.ndarray  # length k * (k - l1 - l2)

    def __post_init__(self):
        k, l1, l2, field = self.k, self.l1, self.l2, self.field
        capacity = secure_capacity_twin(k, l1, l2)
        if self.protected_type not in (1, 2):
            raise ValueError(f"protected_type must be 1 or 2, got {self.protected_type}")
        vals = field.reduce(self.payload).ravel()
        if vals.size != capacity:
            raise BadPayloadLength(
                f"payload must hold exactly k*(k-l1-l2) = {capacity} symbols, "
                f"got {vals.size}"
            )
        rand = field.uniform(np.random.default_rng(self.seed), k * (l1 + l2))
        flat = np.empty(k * k, dtype=np.int64)
        flat[self._slots] = np.concatenate([rand, vals])
        matrix = MessageMatrix(a1=FieldMatrix(flat.reshape((k, k), order="F"), field))
        for name, value in (("seed", int(self.seed)), ("payload", vals),
                            ("random_symbols", rand), ("matrix", matrix)):
            object.__setattr__(self, name, value)

    @property
    def budget(self) -> int:
        return self.l1 + self.l2

    @cached_property
    def _slots(self) -> np.ndarray:
        """Source coordinate (column-major over the matrix) of each symbol
        of (random_symbols, payload): the identity for protected type 1,
        which fills the matrix by columns, its transpose for type 2."""
        slots = np.arange(self.k * self.k)
        return slots if self.protected_type == 1 else slots.reshape(
            (self.k, self.k)).T.ravel()

    @cached_property
    def random_cols(self) -> tuple:
        """Source coordinates holding randomness, ascending."""
        return tuple(sorted(self._slots[:self.k * self.budget].tolist()))

    @cached_property
    def payload_cols(self) -> tuple:
        """Source coordinates holding the payload, ascending."""
        return tuple(sorted(self._slots[self.k * self.budget:].tolist()))

    def source_vector(self) -> np.ndarray:
        """Column-major flattening of the message matrix."""
        return self.matrix.flatten()

    def label(self, coord: int) -> str:
        """Label for source coordinate `coord` (0-based): r/a plus 1-based index."""
        if not 0 <= coord < self.k * self.k:
            raise ValueError(f"coordinate {coord} outside [0, {self.k * self.k})")
        return f"r{coord + 1}" if coord in self.random_cols else f"a{coord + 1}"


def make_secure_layout(payload, l1: int, l2: int, k: int, field: PrimeField,
                       seed: int = 0, protected_type: int = 1) -> SecureLayout:
    """Pad a payload with k*(l1+l2) seeded uniform random symbols.

    With protected_type=1 the random symbols fill the leading l1+l2
    matrix columns column-major and the payload fills the remaining
    columns, i.e. the source vector is (r, payload).  protected_type=2
    transposes that arrangement.  With l1 = l2 = 0 both orientations
    coincide with the plain layout.
    """
    return SecureLayout(k=k, l1=l1, l2=l2, field=field, seed=seed,
                        protected_type=protected_type, payload=payload)


def recover_payload(layout: SecureLayout, msg: MessageMatrix) -> np.ndarray:
    """Strip the random band from a reconstructed message matrix."""
    if msg.k != layout.k:
        raise DimensionMismatch(f"message is {msg.k}x{msg.k}, layout wants k={layout.k}")
    if msg.a1.field != layout.field:
        raise FieldMismatch(f"message over F_{msg.a1.field.p}, "
                            f"layout over F_{layout.field.p}")
    return msg.flatten()[layout._slots[layout.k * layout.budget:]]


class GuaranteeReason(enum.Enum):
    ALL_SAME_TYPE_WITHIN_BUDGET = "AllSameTypeWithinBudget"
    SUBMATRIX_FULL_RANK = "SubmatrixFullRank"
    NOT_GUARANTEED = "NotGuaranteed"


@dataclass(frozen=True)
class SecrecyGuarantee:
    guaranteed: bool
    reason: GuaranteeReason


def node_set_verdict(config: TwinConfig, layout: SecureLayout, nodes) -> dict:
    """Rank, leakage and the zero-leakage guarantee of the observed
    (type, index) nodes: the one home of the leakage oracle's closed forms.

    Storing a Type 1 node with generator column g exposes the functionals
    x^T A g for every x, i.e. F^k (x) g; a Type 2 node exposes g (x) F^k.
    An observed repair of a node through k helpers whose columns span F^k
    exposes exactly the repaired node's own space, so storage reads and
    observed repairs count alike.  With u the rank of the observed
    protected-type generator columns, u' the rank of their first l rows and
    v the rank of the observed other-type columns, the observed space is
    F^k (x) U + V (x) F^k up to orientation, whose two terms meet in a
    u*v-dimensional space; counting dimensions of it and of its
    projection onto the random band gives

        rank(M) = k(u + v) - u*v,
        leakage = (k - v)(u - u') + v(k - l).

    Zero leakage is guaranteed when every node is protected and u' =
    |nodes|.  u' is a rank of protected-type columns alone, so
    u' = |nodes| alone says that every node is protected (hence v = 0),
    that no node repeats and that |nodes| <= l; the empty set passes with
    u' = 0.  The ranks are read from each code's `MdsCode.column_ranks`,
    which counts a repeated index once and raises DimensionMismatch for an
    index outside its code.
    """
    own = layout.protected_type
    mine, theirs = [], []
    for t, j in nodes:
        (mine if t == own else theirs).append(j)
    k, l = config.k, layout.budget
    u, u_low = config.code_for(own).column_ranks(mine, l)
    v, _ = config.code_for(opposite_type(own)).column_ranks(theirs, l)
    return {"rank": k * (u + v) - u * v,
            "leakage": (k - v) * (u - u_low) + v * (k - l),
            "guaranteed": u_low == len(nodes)}


def guaranteed_secure_set(config: TwinConfig, layout: SecureLayout,
                          e1_nodes, e2_nodes) -> SecrecyGuarantee:
    """Decide whether zero leakage is guaranteed for the eavesdropped sets.

    e1_nodes / e2_nodes are iterables of (type, index) pairs: storage reads
    and observed repairs.  An observed repair exposes exactly the row space
    of the repaired node's content, so both sets reduce to generator columns.
    Sufficient, not necessary: `node_set_verdict`.  Returns NotGuaranteed
    (never raises) for a node outside the protected type or its code, or a
    set the verdict rejects, a repeated node among them.
    """
    nodes = [(int(t), int(j)) for t, j in (*e1_nodes, *e2_nodes)]
    own = layout.protected_type
    code = config.code_for(own)
    if (any(t != own or not 1 <= j <= code.n for t, j in nodes)
            or not node_set_verdict(config, layout, nodes)["guaranteed"]):
        return SecrecyGuarantee(False, GuaranteeReason.NOT_GUARANTEED)
    reason = (GuaranteeReason.SUBMATRIX_FULL_RANK
              if nodes and code.style != "vandermonde"
              else GuaranteeReason.ALL_SAME_TYPE_WITHIN_BUDGET)
    return SecrecyGuarantee(True, reason)
