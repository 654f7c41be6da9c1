"""Every document kind round-trips through `twinstore.loader`, which writes
each kind beside its reader: reading what was written gives back the same
value, and each writer emits its key table's keys in table order.  In
every written document, deleting a required key, giving any key a value
of another JSON type, or adding a key the table does not name is refused
with MalformedInput, and with exit 2 where a subcommand reads that kind.
README's "File formats" section states each kind's table: every bullet is
checked against `loader.TABLES` or `loader.EVENTS` in both directions.

The properties are derandomized and run on small systems (q <= 13, n <= 5).
"""

import contextlib
import copy
import io
import json
import re
import reprlib
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
UNKNOWN = "no_such_key"  # a key no table names


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


def object_paths(doc, path=()):
    """The path of every object in doc, doc itself included."""
    if isinstance(doc, dict):
        yield path
    for step, value in (doc.items() if isinstance(doc, dict)
                        else enumerate(doc) if isinstance(doc, list) else ()):
        yield from object_paths(value, (*path, step))


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
    """(path, document) for every required key deleted, every key
    mistyped, and an unknown key added to every object."""
    for path in key_paths(doc):
        if not optional(path):
            yield path, edited(doc, path, DROP)
        for bad in mistyped(doc, path):
            yield path, bad
    for path in object_paths(doc):
        yield (*path, UNKNOWN), edited(doc, (*path, UNKNOWN), 0)


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
        assert list(doc) == list(loader.TABLES["generator"])
        assert_refuses(loader.code, doc)

    @ROUND_TRIP
    @given(size=SIZES, style=st.sampled_from(sorted(MAKERS)), data=st.data())
    def test_plain_config(self, size, style, data):
        (q, k), (n1, n2) = size, data.draw(st.tuples(*[st.integers(size[1], 5)] * 2))
        doc = {"q": q, "n1": n1, "n2": n2, "k": k, "style": style}
        config = loader.config(written(doc))
        assert config == TwinConfig.build(PrimeField(q), n1, n2, k, style=style)
        assert_refuses(loader.config, doc, lambda path: path == ("style",))
        # "stored" is for snapshots: its table has no "style" key
        with pytest.raises(MalformedInput, match="'style'"):
            loader.config({**doc, "style": "stored"})

    @ROUND_TRIP
    @given(config=configs())
    def test_stored_config(self, config):
        doc = written(loader.config_doc(config))
        assert loader.config(doc, style="stored") == config
        assert loader.config_doc(loader.config(doc, style="stored")) == doc
        assert list(doc) == list(loader.TABLES["stored config"])
        assert all(list(c) == list(loader.TABLES["stored code"]) for c in doc["codes"])
        assert_refuses(lambda d: loader.config(d, style="stored"), doc,
                       lambda path: path[-1] == "points")

    @ROUND_TRIP
    @given(data=st.data())
    def test_layout(self, data):
        config = data.draw(configs(styles=("vandermonde",)))
        layout = data.draw(layouts(config))
        doc = written(loader.layout_doc(layout))
        assert same_layout(loader.layout(doc, config), layout)
        assert list(doc) == list(loader.TABLES["layout"])
        assert_refuses(lambda d: loader.layout(d, config), doc, every_key_optional)

    @ROUND_TRIP
    @given(data=st.data())
    def test_spec(self, data):
        config = data.draw(configs(styles=("vandermonde",)))
        spied = data.draw(st.lists(st.sampled_from(nodes_of(config)),
                                   max_size=config.k, unique=True))
        cut = data.draw(st.integers(0, len(spied)))
        spec = EavesdropperSpec(e1=spied[:cut], e2=spied[cut:])
        doc = written(loader.spec_doc(spec))
        assert loader.spec(doc, config) == spec
        assert list(doc) == list(loader.TABLES["spec"])
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
        assert list(doc) == list(loader.TABLES["snapshot"])[:2 + with_layout]
        assert list(doc["nodes"]) == list(loader.TABLES["snapshot nodes"])
        assert all(list(entry) == list(loader.TABLES["node"])
                   for entries in doc["nodes"].values() for entry in entries)
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
    """The exit code of `argv` reading doc from a file: as --in, or as the
    generator document of `demo --gen1`; no traceback reaches stderr."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    if argv[0] == "demo":
        argv = [*argv, str(path)]
    else:
        argv = [*argv, "--in", str(path), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.mark.parametrize("kind", sorted(CLI_KINDS))
def test_cli_exits_2_on_broken_documents(kind, tmp_path):
    argv, valid, place, optional = CLI_KINDS[kind]
    assert exit_code(argv, place(valid), tmp_path) == 0
    for path, bad in broken(valid, lambda path: path[-1] in optional):
        assert exit_code(argv, place(bad), tmp_path) == 2, (path, bad)


# ----------------------------------------------------------------------
# README's "File formats": one bullet per key table.

def readme_bullets() -> dict:
    """{kind: (title, key set, required keys)} for every bullet of the
    section that names a kind, as `- **Title** (`kind`...): `{"key", ...}`
    ... Required: `key`, ... (or none)."""
    section = README.read_text(encoding="utf-8").split("### File formats")[1]
    section = section.split("\n## ")[0]
    bullets = {}
    for bullet in re.split(r"\n- (?=\*\*)", section)[1:]:
        head = re.match(r"\*\*(.+?)\*\* \(`([^`]+)`", bullet)
        if head is None:  # an output format, which no table reads
            continue
        keys = re.search(r"`(\{[^`]*\})`", bullet).group(1)
        required = re.search(r"Required:\s+((?:`\w+`(?:,\s*)?)+|none)", bullet).group(1)
        bullets[head.group(2)] = (head.group(1), set(re.findall(r'"(\w+)"', keys)),
                                  set(re.findall(r"`(\w+)`", required)))
    return bullets


def tables() -> dict:
    """Every key table: one per document kind, and one per event op."""
    assert not loader.TABLES.keys() & loader.EVENTS.keys()
    return {**loader.TABLES, **loader.EVENTS}


def required(table) -> set:
    return {key for key, (_, default) in table.items() if default is loader.REQUIRED}


def test_readme_bullets_match_the_tables():
    bullets = readme_bullets()
    assert set(bullets) == set(tables())
    for kind, table in tables().items():
        title, keys, needed = bullets[kind]
        assert keys == set(table), title
        assert needed == required(table), title


def test_readme_states_the_rules():
    section = README.read_text(encoding="utf-8").split("### File formats")[1]
    section = " ".join(section.split("\n## ")[0].split())
    for rule in ("A key its table does not name is refused",
                 "checked once against the union of the two tables",
                 "an integer `seed` is accepted and ignored",
                 "Loading re-encodes that layout and refuses the snapshot"):
        assert rule in section.replace("**", ""), rule


SPEC = {"e1": [[1, 1]], "e2": [[2, 3]]}
EXPLICIT_CONFIG = {**PLAIN, "style": "explicit", **GENERATORS}
SCENARIO = {**demo_scenario_doc([
    {"op": "fail", "type": 2, "index": 2},
    {"op": "repair", "type": 2, "index": 2, "helpers": [1, 2, 3, 4]},
    {"op": "reconstruct", "type": 1, "nodes": [1, 2, 3, 4]},
    {"op": "eavesdrop", "e1": [[1, 1]], "e2": [[2, 2]]},
    {"op": "deploy", "seeds1": [1, 2, 3, 4], "seeds2": [1, 2, 3, 4]},
]), "seed": 7}


def _snapshot_doc():
    config = TwinConfig(load_explicit(FieldMatrix(DEMO_G1, F11)),
                        MAKERS["systematic"](6, 4, F11, [3, 1, 4, 5, 9, 2]))
    layout = loader.layout(LAYOUT, config)
    return loader.snapshot_doc(fail_node(encode_system(config, layout.matrix), 2, 2),
                               layout)


SNAPSHOT = _snapshot_doc()


def plain_config_reader(read):
    return lambda doc: read(doc, loader.config(PLAIN))


# kind -> (its reader, a valid document, the path of one object of that
# kind in the document)
SAMPLES = {
    "generator": (loader.code, GENERATORS["generator1"], ()),
    "config": (loader.config, PLAIN, ()),
    "explicit config": (loader.config, EXPLICIT_CONFIG, ()),
    "stored config": (loader.snapshot, SNAPSHOT, ("config",)),
    "stored code": (loader.snapshot, SNAPSHOT, ("config", "codes", 1)),
    "layout": (plain_config_reader(loader.layout), LAYOUT, ()),
    "payload": (loader.payload, {"payload": [1, 2, 3]}, ()),
    "spec": (plain_config_reader(loader.spec), SPEC, ()),
    "demo generator": (loader.generator_matrix, {"generator": DEMO_G1}, ()),
    "snapshot": (loader.snapshot, SNAPSHOT, ()),
    "snapshot nodes": (loader.snapshot, SNAPSHOT, ("nodes",)),
    "node": (loader.snapshot, SNAPSHOT, ("nodes", "type2", 1)),
    "scenario": (sim.scenario_from_json, SCENARIO, ()),
    **{event["op"]: (sim.scenario_from_json, SCENARIO, ("events", i))
       for i, event in enumerate(SCENARIO["events"])},
}


def test_samples_cover_every_table():
    assert set(SAMPLES) == set(tables())
    for kind, (read, doc, path) in SAMPLES.items():
        read(written(doc))  # valid
        assert set(value_at(doc, path)) <= set(tables()[kind]), kind


# The README bullets of the documents a user writes by hand, each with its
# reader and valid documents.
INPUTS = {
    "Generator document": (loader.code, [GENERATORS["generator1"]]),
    "Config": (loader.config, [PLAIN, EXPLICIT_CONFIG]),
    "Layout": (plain_config_reader(loader.layout), [LAYOUT]),
    "Payload": (loader.payload, [{"payload": [1, 2, 3]}]),
    "Eavesdropper spec": (plain_config_reader(loader.spec), [SPEC]),
    "Demo generator": (loader.generator_matrix, [{"generator": DEMO_G1}]),
    "System snapshot": (loader.snapshot, [SNAPSHOT]),
    "Scenario": (sim.scenario_from_json, [SCENARIO]),
}


def test_readme_names_every_key_the_documents_hold():
    titles = {title for title, _, _ in readme_bullets().values()}
    assert set(INPUTS) <= titles
    named = set().union(*(keys for _, keys, _ in readme_bullets().values()))
    for title, (read, docs) in INPUTS.items():
        for doc in docs:
            read(written(doc))  # valid
            assert {path[-1] for path in key_paths(doc)} <= named, title


@pytest.mark.parametrize("title", sorted(INPUTS))
def test_readme_keys_mistyped_are_refused(title):
    # every key of every kind the documents hold, by the tables rather than
    # by a parsed copy of README
    read, docs = INPUTS[title]
    named = set().union(*tables().values())
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


# ----------------------------------------------------------------------
# Unknown keys: every kind and every event op refuses a key its table
# does not name, through the loader and through the CLI.

UNKNOWN_KEYS = settings(max_examples=25, deadline=None, derandomize=True,
                        database=None)


def unknown_keys(kind):
    return st.text(min_size=1, max_size=12).filter(lambda key: key not in tables()[kind])


@pytest.mark.parametrize("kind", sorted(SAMPLES))
@UNKNOWN_KEYS
@given(data=st.data())
def test_unknown_key_is_refused_and_named(kind, data):
    read, doc, path = SAMPLES[kind]
    key = data.draw(unknown_keys(kind))
    with pytest.raises(MalformedInput) as refused:
        read(edited(written(doc), (*path, key), 1))
    assert reprlib.repr(key) in str(refused.value)


def test_explicit_config_style_must_be_explicit(tmp_path):
    # with --style explicit, a "style" in --in may only agree with the flag
    loader.config({**GENERATORS, "style": "explicit"}, style="explicit")
    with pytest.raises(MalformedInput, match="style"):
        loader.config({**GENERATORS, "style": "vandermonde"}, style="explicit")
    argv, place = CLI_PLACES["encode --style explicit"]
    assert exit_code(argv, place({"style": "explicit"}), tmp_path) == 0
    assert exit_code(argv, place({"style": "vandermonde"}), tmp_path) == 2


@pytest.mark.parametrize("misspelt, key", [
    (lambda doc: doc.update(leyout=doc.pop("layout")), "leyout"),
    (lambda doc: doc.update(config={"q": 11, "n1": 5, "n2": 6, "k": 4,
                                    "stlye": "systematic"}), "stlye"),
    (lambda doc: doc["events"][1].update(helper=doc["events"][1].pop("helpers")), "helper"),
    (lambda doc: doc["layout"].update({"protected-type": 2}), "protected-type"),
    (lambda doc: doc["events"][3].update(e_1=doc["events"][3].pop("e1")), "e_1"),
])
def test_misspelt_keys_are_refused_not_defaulted(misspelt, key):
    doc = copy.deepcopy(SCENARIO)
    misspelt(doc)
    with pytest.raises(MalformedInput, match=re.escape(repr(key))):
        sim.scenario_from_json(doc)


# kind -> (argv, the --in document holding `doc` as that kind)
CLI_PLACES = {
    "generator": (["encode", "--style", "explicit"],
                  lambda doc: {**GENERATORS, "generator1": doc, "payload": list(range(16))}),
    "config": (["scenario"], lambda doc: {"config": doc}),
    "explicit config": (["scenario"], lambda doc: {"config": doc}),
    "layout": (["scenario"], lambda doc: {"config": PLAIN, "layout": doc}),
    "payload": (["encode"], lambda doc: doc),
    "spec": (["eavesdrop"], lambda doc: doc),
    "demo generator": (["demo", "--gen1"], lambda doc: doc),
    "scenario": (["scenario"], lambda doc: doc),
    **{op: (["scenario"], lambda doc, i=i: {**SCENARIO, "events": [
        *SCENARIO["events"][:i], doc, *SCENARIO["events"][i + 1:]]})
       for i, op in enumerate(event["op"] for event in SCENARIO["events"])},
    # the two-kind documents: the unknown key sits beside both kinds
    "encode --style explicit": (["encode", "--style", "explicit"],
                                lambda doc: {**GENERATORS, "payload": list(range(16)), **doc}),
    "eavesdrop --style explicit": (["eavesdrop", "--style", "explicit"],
                                   lambda doc: {**GENERATORS, **SPEC, **doc}),
}


@pytest.mark.parametrize("kind", sorted(CLI_PLACES))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_2_on_an_unknown_key(kind, data, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("unknown")
    argv, place = CLI_PLACES[kind]
    doc = value_at(SAMPLES[kind][1], SAMPLES[kind][2]) if kind in SAMPLES else {}
    assert exit_code(argv, place(written(doc)), tmp_path) == 0
    if kind in SAMPLES:
        key = data.draw(unknown_keys(kind))
    else:  # beside both kinds of the --in document
        union = {**loader.TABLES["explicit config"], **loader.TABLES["payload"],
                 **loader.TABLES["spec"]}
        key = data.draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in union))
    assert exit_code(argv, place({**written(doc), key: 1}), tmp_path) == 2


# ----------------------------------------------------------------------
# A snapshot's layout is checked against its live nodes.

def encoded_snapshot(tmp_path):
    """An `encode` snapshot: q = 11, k = 4, l1 = 1, layout seed 3."""
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(list(range(1, 13))))
    out = tmp_path / "snap.json"
    assert main(["encode", "--q", "11", "--n1", "5", "--n2", "6", "--k", "4",
                 "--l1", "1", "--seed", "3", "--in", str(payload),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["layout"].update(seed=4),
    lambda doc: doc["layout"]["payload"].__setitem__(0, 5),
    lambda doc: (doc["layout"].update(seed=4), doc["layout"]["payload"].__setitem__(0, 5)),
], ids=["seed", "payload", "seed-and-payload"])
def test_snapshot_whose_layout_was_changed_is_refused(tamper, tmp_path):
    doc = encoded_snapshot(tmp_path)
    loader.snapshot(written(doc))
    tamper(doc)
    loader.layout(doc["layout"], loader.config(doc["config"], style="stored"))  # valid
    with pytest.raises(MalformedInput, match="layout's encoding"):
        loader.snapshot(doc)


def test_snapshot_whose_node_was_changed_is_refused_only_with_its_layout(tmp_path):
    doc = encoded_snapshot(tmp_path)
    symbols = doc["nodes"]["type1"][2]["symbols"]
    symbols[0] = (symbols[0] + 1) % 11
    with pytest.raises(MalformedInput, match="layout's encoding"):
        loader.snapshot(doc)
    del doc["layout"]
    loader.snapshot(doc)  # without its layout, nothing says the node is wrong


def test_snapshot_with_failed_nodes_still_loads(tmp_path):
    doc = encoded_snapshot(tmp_path)
    system = loader.snapshot(doc)
    layout = loader.layout(doc["layout"], system.config)
    for t, j in ((1, 2), (2, 1), (2, 6)):
        system = fail_node(system, t, j)
        entry = doc["nodes"][f"type{t}"][j - 1]
        entry.update(symbols=None, live=False)
        assert loader.snapshot(written(doc)) == system
    assert written(loader.snapshot_doc(system, layout)) == written(doc)
