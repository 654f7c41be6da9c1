"""Two-type MDS storage framework: encode, reconstruct, repair, deploy.

A k x k message matrix A (with its transpose B = A^T) is spread over two
node families: Type 1 node j stores column j of A @ G1, Type 2 node j
stores column j of A^T @ G2.  Any k same-type nodes reconstruct the
message; a failed node of one type is regenerated from any k nodes of
the *other* type, each contributing a single symbol (the dot product of
its stored column with the failed node's encoding vector).

A config is its two codes, and a node is live exactly when it holds
symbols: failing a node erases them.  Systems are immutable values:
mutating operations return a new TwinSystem.
Node indices are 1-based on this module's surface.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import mds
from .errors import (
    DeadNode,
    DimensionMismatch,
    EmptyHelper,
    FieldMismatch,
    InsufficientSeeds,
    NotEnoughHelpers,
    NotEnoughLiveNodes,
    PayloadTooLarge,
    SameTypeHelper,
)
from .field import FieldMatrix, PrimeField
from .mds import MdsCode


MAKERS = {"vandermonde": mds.make_vandermonde, "systematic": mds.make_systematic}


def opposite_type(node_type: int) -> int:
    if node_type not in (1, 2):
        raise ValueError(f"node type must be 1 or 2, got {node_type}")
    return 3 - node_type


@dataclass(frozen=True, eq=False)
class EncodingVector:
    """Column of a generator matrix, owned by one storage node.  Its
    coefficients are kept reduced, as a read-only int64 array."""

    node_type: int
    node_index: int
    coefficients: np.ndarray
    field: PrimeField

    def __post_init__(self):
        coefficients = self.field.reduce(self.coefficients)
        coefficients.flags.writeable = False
        object.__setattr__(self, "coefficients", coefficients)

    def __eq__(self, other):
        return (
            isinstance(other, EncodingVector)
            and (self.node_type, self.node_index) == (other.node_type, other.node_index)
            and self.field == other.field
            and np.array_equal(self.coefficients, other.coefficients)
        )


@dataclass(frozen=True)
class TwinConfig:
    """The two constituent MDS codes; field, node counts and k are theirs."""

    code1: MdsCode
    code2: MdsCode

    def __post_init__(self):
        if self.code1.field != self.code2.field:
            raise FieldMismatch(f"code1 is over F_{self.code1.field.p}, "
                                f"code2 over F_{self.code2.field.p}")
        if self.code1.k != self.code2.k:
            raise DimensionMismatch(f"code1 has k={self.code1.k}, "
                                    f"code2 has k={self.code2.k}")
        if self.n1 < self.k or self.n2 < self.k:
            raise DimensionMismatch(
                f"need n1, n2 >= k for repair/reconstruction, got "
                f"n1={self.n1}, n2={self.n2}, k={self.k}"
            )
        if not self.meets_recommended_connectivity:
            # name the caller: past the generated __init__ and, when built
            # by build, past its frame in this module
            level = 3 + (sys._getframe(2).f_code.co_filename == __file__)
            warnings.warn(
                f"n1={self.n1}, n2={self.n2} below the recommended "
                f"2k-1={2 * self.k - 1} connectivity; repair stays correct "
                f"but availability margins shrink",
                UserWarning, stacklevel=level)

    @classmethod
    def build(cls, field: PrimeField, n1: int, n2: int, k: int,
              style: str = "vandermonde") -> "TwinConfig":
        maker = MAKERS.get(style)
        if maker is None:
            raise ValueError(f"unknown style {style!r}")
        return cls(maker(n1, k, field), maker(n2, k, field))

    @property
    def field(self) -> PrimeField:
        return self.code1.field

    @property
    def n1(self) -> int:
        return self.code1.n

    @property
    def n2(self) -> int:
        return self.code2.n

    @property
    def k(self) -> int:
        return self.code1.k

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def meets_recommended_connectivity(self) -> bool:
        """Advisory flag: both families at the 2k-1 availability regime."""
        return self.n1 >= 2 * self.k - 1 and self.n2 >= 2 * self.k - 1

    def code_for(self, node_type: int) -> MdsCode:
        opposite_type(node_type)  # validates node_type
        return self.code1 if node_type == 1 else self.code2

    def node_count(self, node_type: int) -> int:
        return self.code_for(node_type).n

    def encoding_vector(self, node_type: int, node_index: int) -> EncodingVector:
        code = self.code_for(node_type)
        return EncodingVector(node_type=node_type, node_index=node_index,
                              coefficients=code.encoding_vector(node_index),
                              field=self.field)


@dataclass(frozen=True)
class MessageMatrix:
    """k x k message matrix; the transposed view feeds the Type 2 family."""

    a1: FieldMatrix

    def __post_init__(self):
        if self.a1.rows != self.a1.cols:
            raise DimensionMismatch(f"message matrix must be square, "
                                    f"got {self.a1.rows}x{self.a1.cols}")

    @property
    def k(self) -> int:
        return self.a1.rows

    @property
    def a2(self) -> FieldMatrix:
        return self.a1.T

    def flatten(self) -> np.ndarray:
        """Column-major source vector: coordinate c*k + t holds entry (t, c)."""
        return self.a1.array.flatten(order="F")


def build_message_matrix(payload, k: int, field: PrimeField) -> MessageMatrix:
    """Arrange up to k*k symbols column-major into a message matrix.

    Shorter payloads are zero-padded.  Longer payloads must be
    fragmented into k*k pieces by the caller.
    """
    vals = field.reduce(payload).ravel()
    if vals.size > k * k:
        raise PayloadTooLarge(
            f"payload of {vals.size} symbols exceeds k^2 = {k * k}; fragment it"
        )
    full = np.concatenate([vals, np.zeros(k * k - vals.size, dtype=np.int64)])
    return MessageMatrix(a1=FieldMatrix(full.reshape((k, k), order="F"), field))


@dataclass(frozen=True, eq=False)
class NodeContent:
    """Stored symbols of one node; symbols is None exactly while the node
    is failed (not live)."""

    node_type: int
    node_index: int
    symbols: np.ndarray | None

    @property
    def is_empty(self) -> bool:
        return self.symbols is None

    def __eq__(self, other):
        if not isinstance(other, NodeContent):
            return NotImplemented
        if (self.node_type, self.node_index) != (other.node_type, other.node_index):
            return False
        if self.symbols is None or other.symbols is None:
            return self.symbols is None and other.symbols is None
        return bool(np.array_equal(self.symbols, other.symbols))


@dataclass(frozen=True)
class TwinSystem:
    """Immutable snapshot of every node's contents.  A node is live
    exactly when it holds symbols; live1/live2 are derived from that."""

    config: TwinConfig
    nodes1: tuple
    nodes2: tuple

    @property
    def live1(self) -> tuple:
        return tuple(nc.symbols is not None for nc in self.nodes1)

    @property
    def live2(self) -> tuple:
        return tuple(nc.symbols is not None for nc in self.nodes2)

    def node(self, node_type: int, index: int) -> NodeContent:
        count = self.config.node_count(node_type)  # validates node_type
        if not 1 <= index <= count:
            raise DimensionMismatch(
                f"type {node_type} has nodes 1..{count}, got {index}"
            )
        return (self.nodes1 if node_type == 1 else self.nodes2)[index - 1]

    def is_live(self, node_type: int, index: int) -> bool:
        return not self.node(node_type, index).is_empty

    def with_node(self, node_type: int, index: int, symbols) -> "TwinSystem":
        """The system with one node's symbols replaced; None fails it."""
        self.node(node_type, index)  # type and range check
        if symbols is not None:
            symbols = self.config.field.reduce(symbols)
            if symbols.shape != (self.config.k,):
                raise DimensionMismatch(f"a node stores k={self.config.k} "
                                        f"symbols, got shape {symbols.shape}")
        content = NodeContent(node_type, index, symbols)
        nodes = self.nodes1 if node_type == 1 else self.nodes2
        nodes = nodes[:index - 1] + (content,) + nodes[index:]
        if node_type == 1:
            return TwinSystem(self.config, nodes, self.nodes2)
        return TwinSystem(self.config, self.nodes1, nodes)

    # -------------------------------------------------------------- JSON

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TwinSystem":
        from .loader import snapshot  # the loader builds on this module
        return snapshot(doc)


# ----------------------------------------------------------------------
# Core operations.

def encode_system(config: TwinConfig, msg: MessageMatrix) -> TwinSystem:
    """Fill every node: Type 1 stores A @ G1 columns, Type 2 stores A^T @ G2."""
    if msg.k != config.k:
        raise DimensionMismatch(f"message is {msg.k}x{msg.k}, config wants k={config.k}")
    if msg.a1.field != config.field:
        raise FieldMismatch(f"message over F_{msg.a1.field.p}, "
                            f"config over F_{config.field.p}")
    spread1 = (msg.a1 @ config.code1.generator).array
    spread2 = (msg.a2 @ config.code2.generator).array
    nodes1 = tuple(NodeContent(1, j + 1, spread1[:, j].copy())
                   for j in range(config.n1))
    nodes2 = tuple(NodeContent(2, j + 1, spread2[:, j].copy())
                   for j in range(config.n2))
    return TwinSystem(config=config, nodes1=nodes1, nodes2=nodes2)


def fail_node(system: TwinSystem, node_type: int, index: int) -> TwinSystem:
    """Crash-only failure: the stored content is erased, so the node is not live."""
    return system.with_node(node_type, index, None)


def reconstruct(system: TwinSystem, node_type: int, indices) -> MessageMatrix:
    """Recover the message matrix from k live same-type nodes.

    Downloads k symbols from each of the k nodes (k^2 total).  Row t of
    the type's spread matrix is a codeword observed at the k positions,
    so the whole matrix is one k x k solve with k right-hand sides.
    """
    code = system.config.code_for(node_type)  # validates node_type
    idx = [int(j) for j in indices]
    if len(set(idx)) != len(idx) or len(idx) < code.k:
        raise NotEnoughLiveNodes(f"need k={code.k} distinct nodes, got {idx}")
    if len(idx) > code.k:
        raise DimensionMismatch(f"expected exactly k={code.k} nodes")
    nodes = system.nodes1 if node_type == 1 else system.nodes2
    for j in idx:
        if not 1 <= j <= code.n:
            raise DimensionMismatch(f"type {node_type} has nodes 1..{code.n}, got {j}")
        if nodes[j - 1].is_empty:
            raise DeadNode(f"type {node_type} node {j} holds no data")
    # row i: coordinate idx[i] of the k codewords spread from the rows of
    # A (type 1) or A^T (type 2); decoded column t is row t of that matrix
    stored = np.stack([nodes[j - 1].symbols for j in idx])
    decoded = mds.erasure_decode(code, idx, stored)
    return MessageMatrix(a1=FieldMatrix(decoded.T if node_type == 1 else decoded,
                                        code.field))


def helper_share(helper: NodeContent, target: EncodingVector) -> int:
    """Single repair symbol: target encoding vector dotted with helper storage.

    Depends only on the helper's own column and the failed node's vector,
    so helpers never coordinate.
    """
    if helper.node_type == target.node_type:
        raise SameTypeHelper(
            f"helper type {helper.node_type} must differ from target type"
        )
    if helper.is_empty:
        raise EmptyHelper(f"type {helper.node_type} node {helper.node_index} is empty")
    p = target.field.p
    coeff = target.coefficients
    if coeff.shape != helper.symbols.shape:
        raise DimensionMismatch(
            f"vector length {coeff.shape} vs stored {helper.symbols.shape}"
        )
    return int((coeff * helper.symbols % p).sum() % p)


def usable_nodes(system: TwinSystem, node_type: int) -> list:
    """Ascending indices of the nodes of one type that hold symbols."""
    opposite_type(node_type)  # validates node_type
    nodes = system.nodes1 if node_type == 1 else system.nodes2
    return [nc.node_index for nc in nodes if not nc.is_empty]


def default_helpers(system: TwinSystem, failed_type: int) -> tuple:
    """Lowest-index usable opposite-type nodes (the default repair policy).

    Shorter than k when fewer than k opposite-type nodes are usable.
    """
    usable = usable_nodes(system, opposite_type(failed_type))
    return tuple(usable[: system.config.k])


def repair(system: TwinSystem, failed_type: int, failed_index: int,
           helper_indices=None):
    """Regenerate one node from k opposite-type helpers.

    Each helper ships exactly one symbol; the k symbols are k coordinates
    of the codeword (under the opposite code) of exactly the failed node's
    content, so one erasure decode restores it.  Returns the updated
    system and the regenerated content.
    """
    system.node(failed_type, failed_index)  # type and range check
    helper_type = opposite_type(failed_type)
    code = system.config.code_for(helper_type)
    if helper_indices is None:
        helper_indices = default_helpers(system, failed_type)
    idx = [int(j) for j in helper_indices]
    if len(idx) != code.k or len(set(idx)) != code.k:
        raise NotEnoughHelpers(f"need exactly k={code.k} distinct helpers, got {idx}")
    nodes = system.nodes1 if helper_type == 1 else system.nodes2
    for j in idx:
        if not 1 <= j <= code.n:
            raise NotEnoughHelpers(f"helper index {j} out of range")
        if nodes[j - 1].is_empty:
            raise NotEnoughHelpers(f"helper type {helper_type} node {j} holds no data")
    target = system.config.encoding_vector(failed_type, failed_index)
    shares = [helper_share(nodes[j - 1], target) for j in idx]
    content = mds.erasure_decode(code, idx, shares)
    repaired = system.with_node(failed_type, failed_index, content)
    return repaired, repaired.node(failed_type, failed_index)


def deploy(config: TwinConfig, msg: MessageMatrix, seed_type1, seed_type2) -> TwinSystem:
    """Populate a network from k seeded nodes per type.

    Seeds keep their encoded columns; every other node starts erased and
    is filled by the ordinary repair protocol against already-filled
    opposite-type nodes, alternating types in ascending node order.
    The result is identical to encoding every node at the source.
    """
    pending = {}
    for node_type, raw in ((1, seed_type1), (2, seed_type2)):
        idx = [int(j) for j in raw]
        count = config.node_count(node_type)
        if len(idx) != config.k or len(set(idx)) != config.k or any(
                not 1 <= j <= count for j in idx):
            raise InsufficientSeeds(
                f"type {node_type} needs k={config.k} distinct valid seeds, got {raw}"
            )
        pending[node_type] = [j for j in range(1, count + 1) if j not in idx]
    system = encode_system(config, msg)
    for node_type, idx in pending.items():
        for j in idx:
            system = fail_node(system, node_type, j)
    while pending[1] or pending[2]:
        for node_type in (1, 2):
            if pending[node_type]:
                j = pending[node_type].pop(0)
                system, _ = repair(system, node_type, j)
    return system
