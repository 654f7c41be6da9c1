"""Model-based test of the framework operations.

A hypothesis state machine runs random sequences of node failures
(`crash`), repair (default or explicit helpers), reconstruct and deploy
on small twin systems: q in {11, 101}, k <= 4, n <= 7, both code styles.
The model is only the message and the set of failed nodes; after every
step the system must agree with it:

- every live node holds its column of a fresh `encode_system`, and every
  failed node holds nothing;
- `live1`/`live2` and `usable_nodes` say exactly which nodes hold symbols;
- any k usable same-type nodes reconstruct the message matrix;
- the snapshot survives a `loader.snapshot_doc` -> `from_json_dict` round trip.
"""

import json
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from twinstore import (
    PrimeField,
    TwinSystem,
    build_message_matrix,
    deploy,
    encode_system,
    fail_node,
    reconstruct,
    repair,
)
from twinstore import loader
from twinstore.errors import DeadNode, NotEnoughHelpers
from twinstore.framework import usable_nodes

from shared_configs import build_config

NODE_TYPES = st.sampled_from([1, 2])


class TwinSystemMachine(RuleBasedStateMachine):
    @initialize(q=st.sampled_from([11, 101]),
                style=st.sampled_from(["vandermonde", "systematic"]),
                data=st.data())
    def build(self, q, style, data):
        field = PrimeField(q)
        k = data.draw(st.integers(1, 4), label="k")
        n1 = data.draw(st.integers(k, 7), label="n1")
        n2 = data.draw(st.integers(k, 7), label="n2")
        self.config = build_config(field, n1, n2, k, style=style)
        payload = data.draw(st.lists(st.integers(0, q - 1), min_size=k * k,
                                     max_size=k * k), label="payload")
        self.msg = build_message_matrix(payload, k, field)
        self.system = encode_system(self.config, self.msg)
        self.failed = set()

    def indices(self, node_type):
        return range(1, self.config.node_count(node_type) + 1)

    def live(self, node_type):
        return [j for j in self.indices(node_type)
                if (node_type, j) not in self.failed]

    def some_nodes(self, data, node_type, label):
        """k distinct nodes of one type, live or not."""
        order = data.draw(st.permutations(list(self.indices(node_type))),
                          label=label)
        return order[:self.config.k]

    @rule(t=NODE_TYPES, data=st.data())
    def crash(self, t, data):
        j = data.draw(st.sampled_from(list(self.indices(t))), label="node")
        self.system = fail_node(self.system, t, j)
        self.failed.add((t, j))

    @precondition(lambda self: self.failed)
    @rule(data=st.data(), explicit=st.booleans())
    def repair(self, data, explicit):
        t, j = data.draw(st.sampled_from(sorted(self.failed)), label="failed")
        if explicit:
            helpers = self.some_nodes(data, 3 - t, "helpers")
            servable = all((3 - t, h) not in self.failed for h in helpers)
        else:
            helpers = None
            servable = len(self.live(3 - t)) >= self.config.k
        if not servable:
            with pytest.raises(NotEnoughHelpers):
                repair(self.system, t, j, helpers)
            return
        self.system, content = repair(self.system, t, j, helpers)
        assert content == encode_system(self.config, self.msg).node(t, j)
        self.failed.discard((t, j))

    @rule(t=NODE_TYPES, data=st.data())
    def reconstruct(self, t, data):
        nodes = self.some_nodes(data, t, "nodes")
        if any((t, j) in self.failed for j in nodes):
            with pytest.raises(DeadNode):
                reconstruct(self.system, t, nodes)
        else:
            assert reconstruct(self.system, t, nodes).a1 == self.msg.a1

    @precondition(lambda self: len(self.failed) > 1)  # a rebuild, not a no-op
    @rule(data=st.data())
    def deploy(self, data):
        seeds = [self.some_nodes(data, t, f"seeds{t}") for t in (1, 2)]
        self.system = deploy(self.config, self.msg, *seeds)
        self.failed.clear()

    @invariant()
    def live_nodes_hold_their_columns(self):
        fresh = encode_system(self.config, self.msg)
        for t in (1, 2):
            for j in self.indices(t):
                node = self.system.node(t, j)
                if (t, j) in self.failed:
                    assert node.is_empty, (t, j)
                else:
                    assert node == fresh.node(t, j), (t, j)

    @invariant()
    def live_is_holding_symbols(self):
        for t, live, nodes in ((1, self.system.live1, self.system.nodes1),
                               (2, self.system.live2, self.system.nodes2)):
            assert live == tuple(nc.symbols is not None for nc in nodes)
            assert live == tuple((t, j) not in self.failed
                                 for j in self.indices(t))
            assert usable_nodes(self.system, t) == self.live(t)

    @invariant()
    def any_k_usable_nodes_reconstruct(self):
        for t in (1, 2):
            for nodes in combinations(usable_nodes(self.system, t), self.config.k):
                assert reconstruct(self.system, t, nodes).a1 == self.msg.a1, (
                    t, nodes)

    @invariant()
    def snapshot_round_trips(self):
        doc = json.loads(json.dumps(loader.snapshot_doc(self.system)))
        assert TwinSystem.from_json_dict(doc) == self.system


TwinSystemMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, deadline=None,
    derandomize=True, database=None)
TestTwinSystemMachine = TwinSystemMachine.TestCase
