"""Two-type MDS storage framework: encode, reconstruct, repair, deploy.

A k x k message matrix A (with its transpose B = A^T) is spread over two
node families: Type 1 node j stores column j of A @ G1, Type 2 node j
stores column j of A^T @ G2.  Any k same-type nodes reconstruct the
message; a failed node of one type is regenerated from any k nodes of
the *other* type, each contributing a single symbol (the dot product of
its stored column with the failed node's encoding vector).

Systems are immutable values: mutating operations return a new TwinSystem.
Node indices are 1-based on this module's surface.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace

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
    """Column of a generator matrix, owned by one storage node."""

    node_type: int
    node_index: int
    coefficients: np.ndarray
    field: PrimeField

    def __eq__(self, other):
        return (
            isinstance(other, EncodingVector)
            and (self.node_type, self.node_index) == (other.node_type, other.node_index)
            and self.field == other.field
            and np.array_equal(self.coefficients, other.coefficients)
        )


@dataclass(frozen=True, eq=False)
class TwinConfig:
    """Field, node counts, dimension and the two constituent MDS codes."""

    field: PrimeField
    n1: int
    n2: int
    k: int
    code1: MdsCode
    code2: MdsCode

    def __post_init__(self):
        for i, code, n in ((1, self.code1, self.n1), (2, self.code2, self.n2)):
            if code.field != self.field:
                raise FieldMismatch(f"code{i} is over F_{code.field.p}, "
                                    f"config over F_{self.field.p}")
            if (code.n, code.k) != (n, self.k):
                raise DimensionMismatch(
                    f"code{i} is ({code.n},{code.k}), expected ({n},{self.k})"
                )
        if self.n1 < self.k or self.n2 < self.k:
            raise DimensionMismatch(
                f"need n1, n2 >= k for repair/reconstruction, got "
                f"n1={self.n1}, n2={self.n2}, k={self.k}"
            )
        if not self.meets_recommended_connectivity:
            # name the caller: past the generated __init__ and, when built
            # by build or from_codes, past their frame in this module
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
        return cls(field=field, n1=n1, n2=n2, k=k,
                   code1=maker(n1, k, field), code2=maker(n2, k, field))

    @classmethod
    def from_codes(cls, code1: MdsCode, code2: MdsCode) -> "TwinConfig":
        return cls(field=code1.field, n1=code1.n, n2=code2.n, k=code1.k,
                   code1=code1, code2=code2)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def meets_recommended_connectivity(self) -> bool:
        """Advisory flag: both families at the 2k-1 availability regime."""
        return self.n1 >= 2 * self.k - 1 and self.n2 >= 2 * self.k - 1

    def node_count(self, node_type: int) -> int:
        return self.n1 if node_type == 1 else self.n2

    def code_for(self, node_type: int) -> MdsCode:
        return self.code1 if node_type == 1 else self.code2

    def encoding_vector(self, node_type: int, node_index: int) -> EncodingVector:
        code = self.code_for(node_type)
        return EncodingVector(node_type=node_type, node_index=node_index,
                              coefficients=code.encoding_vector(node_index),
                              field=self.field)

    def __eq__(self, other):
        return (
            isinstance(other, TwinConfig)
            and (self.n1, self.n2, self.k) == (other.n1, other.n2, other.k)
            and self.field == other.field
            and self.code1 == other.code1
            and self.code2 == other.code2
        )


@dataclass(frozen=True)
class MessageMatrix:
    """k x k message matrix; the transposed view feeds the Type 2 family."""

    a1: FieldMatrix
    pad: int = 0  # trailing zero symbols appended to a short payload

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

    def __eq__(self, other):
        return NotImplemented  # compare .a1 explicitly; pad is out-of-band


def build_message_matrix(payload, k: int, field: PrimeField) -> MessageMatrix:
    """Arrange up to k*k symbols column-major into a message matrix.

    Shorter payloads are zero-padded; the pad length is recorded so the
    caller can strip it after reconstruction.  Longer payloads must be
    fragmented into k*k pieces by the caller.
    """
    vals = field.reduce(payload).ravel()
    if vals.size > k * k:
        raise PayloadTooLarge(
            f"payload of {vals.size} symbols exceeds k^2 = {k * k}; fragment it"
        )
    pad = k * k - vals.size
    full = np.concatenate([vals, np.zeros(pad, dtype=np.int64)])
    return MessageMatrix(a1=FieldMatrix(full.reshape((k, k), order="F"), field),
                         pad=pad)


@dataclass(frozen=True, eq=False)
class NodeContent:
    """Stored symbols of one node; symbols is None while the node is empty."""

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


@dataclass(frozen=True, eq=False)
class TwinSystem:
    """Immutable snapshot of every node's contents and liveness."""

    config: TwinConfig
    nodes1: tuple
    nodes2: tuple
    live1: tuple
    live2: tuple

    def _family(self, node_type: int):
        opposite_type(node_type)  # validates node_type
        return (self.nodes1, self.live1) if node_type == 1 else (self.nodes2, self.live2)

    def node(self, node_type: int, index: int) -> NodeContent:
        nodes, _ = self._family(node_type)
        if not 1 <= index <= len(nodes):
            raise DimensionMismatch(
                f"type {node_type} has nodes 1..{len(nodes)}, got {index}"
            )
        return nodes[index - 1]

    def is_live(self, node_type: int, index: int) -> bool:
        _, live = self._family(node_type)
        if not 1 <= index <= len(live):
            raise DimensionMismatch(
                f"type {node_type} has nodes 1..{len(live)}, got {index}"
            )
        return live[index - 1]

    def live_indices(self, node_type: int) -> tuple:
        _, live = self._family(node_type)
        return tuple(j + 1 for j, ok in enumerate(live) if ok)

    def with_node(self, node_type: int, index: int, symbols, live: bool) -> "TwinSystem":
        self.node(node_type, index)  # type and range check
        if symbols is not None:
            symbols = self.config.field.reduce(symbols)
            if symbols.shape != (self.config.k,):
                raise DimensionMismatch(f"a node stores k={self.config.k} "
                                        f"symbols, got shape {symbols.shape}")
        content = NodeContent(node_type, index, symbols)
        nodes, lives = self._family(node_type)
        nodes = nodes[:index - 1] + (content,) + nodes[index:]
        lives = lives[:index - 1] + (live,) + lives[index:]
        if node_type == 1:
            return replace(self, nodes1=nodes, live1=lives)
        return replace(self, nodes2=nodes, live2=lives)

    def __eq__(self, other):
        return (
            isinstance(other, TwinSystem)
            and self.config == other.config
            and self.live1 == other.live1
            and self.live2 == other.live2
            and self.nodes1 == other.nodes1
            and self.nodes2 == other.nodes2
        )

    # -------------------------------------------------------------- JSON

    def to_json_dict(self) -> dict:
        def family(nodes, live):
            return [
                {"index": nc.node_index,
                 "symbols": None if nc.symbols is None else nc.symbols.tolist(),
                 "live": bool(alive)}
                for nc, alive in zip(nodes, live)
            ]
        cfg = self.config
        return {
            "config": {
                "q": cfg.field.p, "n1": cfg.n1, "n2": cfg.n2, "k": cfg.k,
                "codes": [_code_doc(cfg.code1), _code_doc(cfg.code2)],
            },
            "nodes": {"type1": family(self.nodes1, self.live1),
                      "type2": family(self.nodes2, self.live2)},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TwinSystem":
        from .loader import snapshot  # the loader builds on this module
        return snapshot(doc)


def _code_doc(code: MdsCode) -> dict:
    return {"style": code.style,
            "points": None if code.eval_points is None else list(code.eval_points),
            "generator": code.generator.tolist()}


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
    return TwinSystem(config=config, nodes1=nodes1, nodes2=nodes2,
                      live1=(True,) * config.n1, live2=(True,) * config.n2)


def empty_system(config: TwinConfig) -> TwinSystem:
    nodes1 = tuple(NodeContent(1, j + 1, None) for j in range(config.n1))
    nodes2 = tuple(NodeContent(2, j + 1, None) for j in range(config.n2))
    return TwinSystem(config=config, nodes1=nodes1, nodes2=nodes2,
                      live1=(False,) * config.n1, live2=(False,) * config.n2)


def fail_node(system: TwinSystem, node_type: int, index: int) -> TwinSystem:
    """Crash-only failure: liveness drops and the stored content is erased."""
    return system.with_node(node_type, index, None, live=False)


def reconstruct(system: TwinSystem, node_type: int, indices) -> MessageMatrix:
    """Recover the message matrix from k live same-type nodes.

    Downloads k symbols from each of the k nodes (k^2 total).  Row t of
    the type's spread matrix is a codeword observed at the k positions,
    so the whole matrix is one k x k solve with k right-hand sides.
    """
    opposite_type(node_type)  # validates node_type
    idx = [int(j) for j in indices]
    if len(set(idx)) != len(idx) or len(idx) < system.config.k:
        raise NotEnoughLiveNodes(
            f"need k={system.config.k} distinct nodes, got {idx}"
        )
    if len(idx) > system.config.k:
        raise DimensionMismatch(f"expected exactly k={system.config.k} nodes")
    for j in idx:
        if not system.is_live(node_type, j) or system.node(node_type, j).is_empty:
            raise DeadNode(f"type {node_type} node {j} holds no data")
    code = system.config.code_for(node_type)
    # row i: coordinate idx[i] of the k codewords spread from the rows of
    # A (type 1) or A^T (type 2); decoded column t is row t of that matrix
    stored = np.stack([system.node(node_type, j).symbols for j in idx])
    decoded = FieldMatrix(mds.erasure_decode(code, idx, stored),
                          system.config.field)
    return MessageMatrix(a1=decoded.T if node_type == 1 else decoded)


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
    coeff = np.asarray(target.coefficients, dtype=np.int64) % p
    if coeff.shape != helper.symbols.shape:
        raise DimensionMismatch(
            f"vector length {coeff.shape} vs stored {helper.symbols.shape}"
        )
    return int((coeff * helper.symbols % p).sum() % p)


def usable_nodes(system: TwinSystem, node_type: int) -> list:
    """Ascending indices of the live nodes of one type that hold data."""
    return [j for j in system.live_indices(node_type)
            if not system.node(node_type, j).is_empty]


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
    system.node(failed_type, failed_index)  # range check
    helper_type = opposite_type(failed_type)
    k = system.config.k
    if helper_indices is None:
        helper_indices = default_helpers(system, failed_type)
    idx = [int(j) for j in helper_indices]
    if len(idx) != k or len(set(idx)) != k:
        raise NotEnoughHelpers(f"need exactly k={k} distinct helpers, got {idx}")
    for j in idx:
        if not 1 <= j <= system.config.node_count(helper_type):
            raise NotEnoughHelpers(f"helper index {j} out of range")
        if not system.is_live(helper_type, j) or system.node(helper_type, j).is_empty:
            raise NotEnoughHelpers(f"helper type {helper_type} node {j} holds no data")
    target = system.config.encoding_vector(failed_type, failed_index)
    shares = [helper_share(system.node(helper_type, j), target) for j in idx]
    content = mds.erasure_decode(system.config.code_for(helper_type), idx, shares)
    repaired = system.with_node(failed_type, failed_index, content, live=True)
    return repaired, repaired.node(failed_type, failed_index)


def deploy(config: TwinConfig, msg: MessageMatrix, seed_type1, seed_type2) -> TwinSystem:
    """Populate a network from k seeded nodes per type.

    Seeds receive their encoded columns directly; every other node is
    filled by the ordinary repair protocol against already-filled
    opposite-type nodes, alternating types in ascending node order.
    The result is identical to encoding every node at the source.
    """
    seeds = {}
    for node_type, raw in ((1, seed_type1), (2, seed_type2)):
        idx = sorted(int(j) for j in raw)
        if len(idx) != config.k or len(set(idx)) != config.k or any(
                not 1 <= j <= config.node_count(node_type) for j in idx):
            raise InsufficientSeeds(
                f"type {node_type} needs k={config.k} distinct valid seeds, got {raw}"
            )
        seeds[node_type] = idx
    full = encode_system(config, msg)
    system = empty_system(config)
    for node_type, idx in seeds.items():
        for j in idx:
            system = system.with_node(node_type, j,
                                      full.node(node_type, j).symbols, live=True)
    pending = {
        node_type: [j for j in range(1, config.node_count(node_type) + 1)
                    if j not in seeds[node_type]]
        for node_type in (1, 2)
    }
    while pending[1] or pending[2]:
        for node_type in (1, 2):
            if pending[node_type]:
                j = pending[node_type].pop(0)
                system, _ = repair(system, node_type, j)
    return system
