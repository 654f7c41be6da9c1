"""Every document kind round-trips through `twinstore.loader`, which writes
each kind beside its reader: reading what was written gives back the same
value.  In every written document, deleting a required key or giving any
key a value of another JSON type is refused with MalformedInput, and with
exit 2 where a subcommand reads that kind.  README's "File formats" section
is read too: each key it names is mistyped in a valid input document of
its kind, and the loader must refuse every one.

The properties are derandomized and run on small systems (q <= 13, n <= 5).
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinstore import (
    EavesdropperSpec,
    FieldMatrix,
    MdsCode,
    PrimeField,
    SecureLayout,
    TwinConfig,
    encode_system,
    fail_node,
    loader,
    sim,
)
from twinstore.cli import main
from twinstore.demo import DEMO_G1, DEMO_G2
from twinstore.errors import MalformedInput
from twinstore.framework import MAKERS
from twinstore.mds import load_explicit

from test_sim import demo_scenario_doc

ROUND_TRIP = settings(max_examples=50, deadline=None, derandomize=True,
                      database=None)
README = Path(__file__).resolve().parent.parent / "README.md"
# one value of each JSON type but null, which an optional key may hold
WRONG = ("x", 7, 1.5, True, [], {})
DROP = object()


def json_type(value):
    # a fraction where an integer belongs counts as mistyped
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


def key_paths(doc, path=()):
    """The path of every object key in doc, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*path, key)
            yield from key_paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, (*path, i))


def edited(doc, path, new):
    """A copy of doc with the value at path replaced by `new`, or dropped."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mistyped(doc, path):
    """doc with the value at path swapped for each value of another type."""
    valid = json_type(value_at(doc, path))
    return [edited(doc, path, wrong) for wrong in WRONG
            if json_type(wrong) != valid]


def broken(doc, optional=lambda path: False):
    """(path, document) for every required key deleted and every key
    mistyped."""
    for path in key_paths(doc):
        if not optional(path):
            yield path, edited(doc, path, DROP)
        for bad in mistyped(doc, path):
            yield path, bad


def assert_refuses(read, doc, optional=lambda path: False):
    for path, bad in broken(doc, optional):
        with pytest.raises(MalformedInput):
            read(bad)
            pytest.fail(f"accepted {path}: {json.dumps(bad)}")


def written(doc):
    """The document as a file holds it."""
    return json.loads(json.dumps(doc))


# ----------------------------------------------------------------------
# Values to write.

SIZES = st.sampled_from([5, 7, 11, 13]).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(1, 3)))  # (q, k)


@st.composite
def codes(draw, q, k, styles=("vandermonde", "systematic", "explicit")):
    n = draw(st.integers(k, min(q, 5)))
    points = draw(st.none() | st.permutations(range(q)).map(lambda xs: xs[:n]))
    style = draw(st.sampled_from(styles))
    code = MAKERS["vandermonde" if style == "explicit" else style](
        n, k, PrimeField(q), points)
    return MdsCode(code.generator, "explicit") if style == "explicit" else code


@st.composite
def configs(draw, styles=("vandermonde", "systematic", "explicit")):
    q, k = draw(SIZES)
    return TwinConfig(draw(codes(q, k, styles)), draw(codes(q, k, styles)))


@st.composite
def layouts(draw, config):
    k, q = config.k, config.field.p
    l1 = draw(st.integers(0, k - 1))
    l2 = draw(st.integers(0, k - 1 - l1))
    size = k * (k - l1 - l2)
    return SecureLayout(k=k, l1=l1, l2=l2, field=config.field,
                        seed=draw(st.integers(0, 2**40)),
                        protected_type=draw(st.sampled_from([1, 2])),
                        payload=draw(st.lists(st.integers(0, q - 1), min_size=size,
                                              max_size=size)))


def same_layout(a, b):
    return ((a.k, a.l1, a.l2, a.field, a.seed, a.protected_type)
            == (b.k, b.l1, b.l2, b.field, b.seed, b.protected_type)
            and np.array_equal(a.payload, b.payload) and a.matrix.a1 == b.matrix.a1)


def nodes_of(config):
    return [(t, j) for t in (1, 2) for j in range(1, config.node_count(t) + 1)]


def every_key_optional(path):
    return True


# ----------------------------------------------------------------------
# Round trips: read(write(x)) == x, and every broken document is refused.

class TestRoundTrip:
    @ROUND_TRIP
    @given(data=st.data())
    def test_generator(self, data):
        code = load_explicit(data.draw(SIZES.flatmap(lambda s: codes(*s))).generator)
        doc = written(loader.code_doc(code))
        again = loader.code(doc)
        assert again == code and again.field == code.field
        assert loader.code_doc(again) == doc
        assert_refuses(loader.code, doc)

    @ROUND_TRIP
    @given(size=SIZES, style=st.sampled_from(sorted(MAKERS)), data=st.data())
    def test_plain_config(self, size, style, data):
        (q, k), (n1, n2) = size, data.draw(st.tuples(*[st.integers(size[1], 5)] * 2))
        doc = {"q": q, "n1": n1, "n2": n2, "k": k, "style": style}
        config = loader.config(written(doc))
        assert config == TwinConfig.build(PrimeField(q), n1, n2, k, style=style)
        assert_refuses(loader.config, doc, lambda path: path == ("style",))

    @ROUND_TRIP
    @given(config=configs())
    def test_stored_config(self, config):
        doc = written(loader.config_doc(config))
        assert loader.config(doc, style="stored") == config
        assert loader.config_doc(loader.config(doc, style="stored")) == doc
        assert_refuses(lambda d: loader.config(d, style="stored"), doc,
                       lambda path: path[-1] == "points")

    @ROUND_TRIP
    @given(data=st.data())
    def test_layout(self, data):
        config = data.draw(configs(styles=("vandermonde",)))
        layout = data.draw(layouts(config))
        doc = written(loader.layout_doc(layout))
        assert same_layout(loader.layout(doc, config), layout)
        assert_refuses(lambda d: loader.layout(d, config), doc, every_key_optional)

    @ROUND_TRIP
    @given(data=st.data())
    def test_spec(self, data):
        config = data.draw(configs(styles=("vandermonde",)))
        spied = data.draw(st.lists(st.sampled_from(nodes_of(config)),
                                   max_size=config.k, unique=True))
        cut = data.draw(st.integers(0, len(spied)))
        spec = EavesdropperSpec(e1=spied[:cut], e2=spied[cut:])
        doc = written(spec.to_json_dict())
        assert loader.spec(doc, config) == spec
        assert_refuses(lambda d: loader.spec(d, config), doc, every_key_optional)

    @ROUND_TRIP
    @given(data=st.data(), with_layout=st.booleans())
    def test_snapshot(self, data, with_layout):
        config = data.draw(configs())
        layout = data.draw(layouts(config))
        system = encode_system(config, layout.matrix)
        for t, j in data.draw(st.lists(st.sampled_from(nodes_of(config)),
                                       max_size=2, unique=True)):
            system = fail_node(system, t, j)
        doc = written(loader.snapshot_doc(system, layout if with_layout else None))
        assert loader.snapshot(doc) == system
        assert ("layout" in doc) is with_layout
        if with_layout:
            assert same_layout(loader.layout(doc["layout"], config), layout)
        # the layout and its keys are optional, and so are a code's points
        assert_refuses(loader.snapshot, doc,
                       lambda path: path[0] == "layout" or path[-1] == "points")


# ----------------------------------------------------------------------
# The same refusals through the subcommands that read each kind.

F11 = PrimeField(11)
GENERATORS = {"generator1": loader.code_doc(load_explicit(FieldMatrix(DEMO_G1, F11))),
              "generator2": loader.code_doc(load_explicit(FieldMatrix(DEMO_G2, F11)))}
PLAIN = {"q": 11, "n1": 5, "n2": 6, "k": 4, "style": "systematic"}
LAYOUT = loader.layout_doc(SecureLayout(k=4, l1=1, l2=1, field=F11, seed=3,
                                        protected_type=2, payload=list(range(8))))

# kind -> (argv, valid document read by that kind, its place in the
# --in document, optional keys)
CLI_KINDS = {
    "generator": (["encode", "--style", "explicit"], GENERATORS["generator1"],
                  lambda doc: {**GENERATORS, "generator1": doc,
                               "payload": list(range(16))}, ()),
    "plain config": (["scenario"], PLAIN, lambda doc: {"config": doc}, ("style",)),
    "layout": (["scenario"], LAYOUT,
               lambda doc: {"config": PLAIN, "layout": doc}, tuple(LAYOUT)),
    "spec": (["eavesdrop"], {"e1": [[1, 1]], "e2": [[2, 3]]},
             lambda doc: doc, ("e1", "e2")),
    "payload": (["encode"], {"payload": [1, 2, 3]}, lambda doc: doc, ()),
}


def exit_code(argv, doc, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--in", str(path), "--out", str(tmp_path / "out")])
    assert "Traceback" not in err.getvalue()
    return code


@pytest.mark.parametrize("kind", sorted(CLI_KINDS))
def test_cli_exits_2_on_broken_documents(kind, tmp_path):
    argv, valid, place, optional = CLI_KINDS[kind]
    assert exit_code(argv, place(valid), tmp_path) == 0
    for path, bad in broken(valid, lambda path: path[-1] in optional):
        assert exit_code(argv, place(bad), tmp_path) == 2, (path, bad)


# ----------------------------------------------------------------------
# README's "File formats": each key it names for an input document.

def readme_names() -> dict:
    """{bullet title: every name in the bullet's code spans}."""
    section = README.read_text(encoding="utf-8").split("### File formats")[1]
    section = section.split("\n## ")[0]
    names = {}
    for bullet in re.split(r"\n- \*\*", section)[1:]:
        title, body = bullet.split("**", 1)
        names[title] = {name for span in re.findall(r"`([^`]*)`", body)
                        for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}
    return names


def _snapshot_doc():
    config = TwinConfig(load_explicit(FieldMatrix(DEMO_G1, F11)),
                        MAKERS["systematic"](6, 4, F11, [3, 1, 4, 5, 9, 2]))
    layout = loader.layout(LAYOUT, config)
    return loader.snapshot_doc(fail_node(encode_system(config, layout.matrix), 2, 2),
                               layout)


EXPLICIT_CONFIG = {**PLAIN, "style": "explicit", **GENERATORS}
SCENARIO = demo_scenario_doc([
    {"op": "fail", "type": 2, "index": 2},
    {"op": "repair", "type": 2, "index": 2, "helpers": [1, 2, 3, 4]},
    {"op": "reconstruct", "type": 1, "nodes": [1, 2, 3, 4]},
    {"op": "eavesdrop", "e1": [[1, 1]], "e2": [[2, 2]]},
    {"op": "deploy", "seeds1": [1, 2, 3, 4], "seeds2": [1, 2, 3, 4]},
])

# README bullet -> (its reader, valid documents of that kind)
INPUTS = {
    "Generator document": (loader.code, [GENERATORS["generator1"]]),
    "Config": (loader.config, [PLAIN, EXPLICIT_CONFIG]),
    "Layout": (lambda doc: loader.layout(doc, loader.config(PLAIN)), [LAYOUT]),
    "Payload": (loader.payload, [{"payload": [1, 2, 3]}]),
    "Eavesdropper spec": (lambda doc: loader.spec(doc, loader.config(PLAIN)),
                          [{"e1": [[1, 1]], "e2": [[2, 3]]}]),
    "Demo generator": (loader.generator_matrix, [{"generator": DEMO_G1}]),
    "System snapshot": (loader.snapshot, [_snapshot_doc()]),
    "Scenario": (sim.scenario_from_json, [SCENARIO]),
}


def test_readme_names_every_key_the_documents_hold():
    names = readme_names()
    assert set(INPUTS) <= set(names)
    named = set().union(*names.values())
    for title, (read, docs) in INPUTS.items():
        for doc in docs:
            read(written(doc))  # valid
            assert {path[-1] for path in key_paths(doc)} <= named, title


@pytest.mark.parametrize("title", sorted(INPUTS))
def test_readme_keys_mistyped_are_refused(title):
    named = readme_names()[title]
    read, docs = INPUTS[title]
    tested, accepted = set(), []
    for doc in map(written, docs):
        for path in key_paths(doc):
            if path[-1] in named:
                tested.add(path[-1])
                for bad in mistyped(doc, path):
                    try:
                        read(bad)
                        accepted.append((path, value_at(bad, path)))
                    except MalformedInput:
                        pass
    assert tested
    assert not accepted, f"{title} accepts mistyped keys"
