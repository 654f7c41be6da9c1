"""The one module that knows each document format (README "File
formats").  Every document kind has one key table in `TABLES`, and every
scenario event op one in `EVENTS`: each entry maps a key to its reader and
either its default or REQUIRED.  `read` walks a document against its
table, and every reader of a JSON object below goes through it, so a key
the table does not name is refused, named in the message.  The writers
`code_doc`, `config_doc`, `layout_doc`, `spec_doc` and `snapshot_doc`
emit their tables' keys in table order; `eavesdrop_report` writes its
spec with `spec_doc`.

Input that cannot be parsed into the object it names raises
MalformedInput: an unknown key, a wrong JSON type, a missing key, a
non-integer (or one beyond 64 bits), an unknown node type or style, a
non-prime modulus, a node outside the config, duplicate or overlapping
nodes, a declared size that disagrees with what the document holds or
belongs to, or a snapshot whose live nodes are not its layout's encoding.
Valid input the math refuses keeps its domain error.
"""

from __future__ import annotations

import json
import reprlib

from . import mds
from .demo import DEMO_Q
from .eavesdrop import EavesdropperSpec
from .errors import MalformedInput, UnverifiedCode
from .field import FieldMatrix, PrimeField
from .framework import MAKERS, NodeContent, TwinConfig, TwinSystem, encode_system
from .secure import SecureLayout

REQUIRED = object()  # a table default: the document must hold the key


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None


def _check(ok, what, value, want):
    if not ok:
        raise MalformedInput(f"{what} must be {want}, got {reprlib.repr(value)}")
    return value


# ----------------------------------------------------------------------
# Readers: each takes (value, what) and returns the value it reads.

def as_object(doc, what) -> dict:
    return _check(isinstance(doc, dict), what, doc, "a JSON object")


def as_list(value, what) -> list:
    return list(_check(isinstance(value, (list, tuple)), what, value, "a list"))


def integer(value, what, low=-2**63) -> int:
    # this and node_index run for every number read, so their messages are
    # built only on refusal
    if isinstance(value, int) and not isinstance(value, bool) and low <= value < 2**63:
        return value
    return _check(False, what, value, "an integer" if low < 0 else f"an integer >= {low}")


def natural(value, what) -> int:
    return integer(value, what, low=0)


def integers(value, what) -> list:
    return [integer(x, f"{what} entry") for x in as_list(value, what)]


def _field(value, what) -> PrimeField:
    try:
        return PrimeField(integer(value, what))
    except ValueError as exc:
        raise MalformedInput(f"{what}: {exc}") from None


def _matrix(value, what) -> list:
    rows = as_list(value, what)
    _check(rows and all(isinstance(r, (list, tuple)) and len(r) == len(rows[0]) > 0
                        for r in rows), what, value, "a non-empty rectangular matrix")
    return [[integer(x, f"{what} entry") for x in row] for row in rows]


def _one_of(*choices):
    """A reader that accepts only one of `choices`."""
    want = "one of " + ", ".join(choices)
    return lambda value, what: _check(value in choices, what, value, want)


def _typed(kind, want):
    """A reader that accepts only instances of `kind`."""
    return lambda value, what: _check(isinstance(value, kind), what, value, want)


def _nullable(reader):
    """`reader`, which also accepts null and reads it as None."""
    return lambda value, what: None if value is None else reader(value, what)


def node_type(value, what="node type") -> int:
    return _check(integer(value, what) in (1, 2), what, value, "1 or 2")


def node_index(config: TwinConfig, t: int, value, what="node index") -> int:
    count = config.node_count(t)
    if 1 <= integer(value, what) <= count:
        return value
    return _check(False, what, value, f"a type {t} index in 1..{count}")


def nodes(value, config: TwinConfig, what) -> list:
    """[[type, index], ...] node references, each inside the config."""
    out = []
    for item in as_list(value, what):
        t, j = _check(isinstance(item, (list, tuple)) and len(item) == 2,
                      f"{what} entries", item, "[type, index] pairs")
        t = node_type(t, f"{what} node type")
        out.append((t, node_index(config, t, j, what)))
    return out


# ----------------------------------------------------------------------
# The walker, and the key tables it walks: TABLES, one per document kind,
# and EVENTS, one per scenario event op.  An entry maps a key to (reader,
# default), where REQUIRED as the default makes the key required.

def split(doc, what, *tables) -> list:
    """doc as one document per table, each holding the keys its table
    names; a key no table names is refused.  A document that holds two
    kinds is checked once this way, against the union of their tables."""
    keys = [key for table in tables for key in table]
    for key in as_object(doc, what):
        _check(key in keys, f"{what} key", key, "one of " + ", ".join(keys))
    return [{key: doc[key] for key in table if key in doc} for table in tables]


def read(doc, table, what) -> dict:
    """doc's value for every key of `table`, in table order: read by the
    key's reader, or the key's default where doc lacks it.  A key the table
    does not name, or a missing one whose default is REQUIRED, is refused."""
    if not as_object(doc, what).keys() <= table.keys():
        split(doc, what, table)  # refuses, naming the key
    values = {}
    for key, (reader, default) in table.items():
        values[key] = reader(doc[key], f"{what} {key}") if key in doc else default
        if values[key] is REQUIRED:
            raise MalformedInput(f"{what} is missing {key!r}")
    return values


def _keys(default, **readers) -> dict:
    """Table entries: each key with its reader and one default (or REQUIRED)."""
    return {key: (reader, default) for key, reader in readers.items()}


def _doc(kind, *values) -> dict:
    """A document of `kind`: its table's keys in order, with these values."""
    return dict(zip(TABLES[kind], values))


# The generator kind comes before the tables: an explicit config's table
# reads its generators with `code`.

def code_doc(code: mds.MdsCode) -> dict:
    """Generator document: {"p", "n", "k", "generator"} (row-major, k rows)."""
    return _doc("generator", code.field.p, code.n, code.k, code.generator.tolist())


def code(doc, what="generator") -> mds.MdsCode:
    """Generator document {"p", "n", "k", "generator"}: an MDS-verified code."""
    p, n, k, rows = read(doc, TABLES["generator"], what).values()
    if (k, n) != (len(rows), len(rows[0])):
        raise MalformedInput(f"declared (n={n}, k={k}) does not match "
                             f"generator shape {len(rows)}x{len(rows[0])}")
    return mds.load_explicit(FieldMatrix(rows, p))


_SIZES = {"q": _field, "n1": integer, "n2": integer, "k": integer}
TABLES = {
    "generator": _keys(REQUIRED, p=_field, n=integer, k=integer, generator=_matrix),
    "config": {**_keys(REQUIRED, **_SIZES), "style": (_one_of(*MAKERS), "vandermonde")},
    # an explicit config's sizes are optional, and checked when given
    "explicit config": {**_keys(None, **_SIZES, style=_one_of("explicit")),
                        **_keys(REQUIRED, generator1=code, generator2=code)},
    "stored config": _keys(REQUIRED, **_SIZES, codes=lambda value, what: _check(
        len(as_list(value, what)) == 2, what, value, "two code documents")),
    "stored code": {**_keys(REQUIRED, style=_typed(str, "a string"), generator=_matrix),
                    "points": (_nullable(integers), None)},
    "layout": {**_keys(None, q=_field, k=integer), **_keys(0, l1=natural, l2=natural, seed=natural),
               "protected_type": (node_type, 1), "payload": (integers, None)},
    "payload": _keys(REQUIRED, payload=integers),
    "spec": _keys((), e1=as_list, e2=as_list),
    # a generator document qualifies; a declared p, n or k is checked
    "demo generator": {**_keys(None, p=integer, n=integer, k=integer),
                       "generator": (_matrix, REQUIRED)},
    "snapshot": {**_keys(REQUIRED, config=as_object, nodes=as_object), "layout": (as_object, None)},
    "snapshot nodes": _keys(REQUIRED, type1=as_list, type2=as_list),
    "node": _keys(REQUIRED, index=integer, symbols=_nullable(integers),
                  live=_typed(bool, "a boolean")),
    # nothing reads "seed": it is accepted for documents that carry one
    "scenario": {"config": (as_object, REQUIRED), "layout": (as_object, {}),
                 "events": (as_list, ()), "seed": (integer, None)},
}
# each event op's table: "op", whose value picks the table, and the op's own keys
EVENTS = {op: {"op": (_one_of(op), REQUIRED), **table} for op, table in {
    "fail": _keys(REQUIRED, type=node_type, index=integer),
    "repair": {**_keys(REQUIRED, type=node_type, index=integer),
               "helpers": (_nullable(as_list), None)},
    "reconstruct": {**_keys(REQUIRED, type=node_type), "nodes": (_nullable(as_list), None)},
    "eavesdrop": TABLES["spec"],
    "deploy": _keys(REQUIRED, seeds1=as_list, seeds2=as_list),
}.items()}


# ----------------------------------------------------------------------
# Each kind's reader, beside its writer.

def _sizes(values, actual: dict, what):
    """Refuse a declared size (a key of `actual`, None where undeclared)
    that is not in its set of actual values."""
    if any(values[key] is not None and {values[key]} != actual[key] for key in actual):
        raise MalformedInput(f"declared sizes do not match the {what}")


def generator_matrix(doc) -> list:
    """`demo --gen1/--gen2` document: the k x n rows under "generator".  A
    declared p must be the demo's field, and a declared n or k the matrix's."""
    v = read(doc, TABLES["demo generator"], "generator document")
    rows = v["generator"]
    _sizes(v, {"p": {DEMO_Q}, "n": {len(rows[0])}, "k": {len(rows)}}, f"F_{DEMO_Q} generator")
    return rows


def _stored_code(doc, field: PrimeField) -> mds.MdsCode:
    """A snapshot's {"style", "generator", "points"}: explicit generators,
    whose points are null, get the minor check; the others are rebuilt from
    their points and must match."""
    v = read(doc, TABLES["stored code"], "code")
    gen, style, points = FieldMatrix(v["generator"], field), v["style"], v["points"]
    _check(points is None or style != "explicit", "explicit code points", points, "null")
    if style == "explicit":
        return mds.load_explicit(gen)
    if style not in MAKERS:
        raise UnverifiedCode(f"unknown code style {style!r}")
    built = MAKERS[style](gen.cols, gen.rows, field, points)
    if built.generator != gen:
        raise UnverifiedCode(f"stored {style} generator differs from the one its points define")
    return built


def config_doc(config: TwinConfig) -> dict:
    """A snapshot's stored config: its sizes and both codes, each with its
    style, points (null for explicit codes) and generator."""
    codes = [_doc("stored code", c.style, c.generator.tolist(),
                  None if c.eval_points is None else list(c.eval_points))
             for c in (config.code1, config.code2)]
    return _doc("stored config", config.field.p, config.n1, config.n2, config.k, codes)


def config(doc, style=None) -> TwinConfig:
    """Config document -> TwinConfig; `style` overrides the document's.

    A style of MAKERS builds both codes from the "config" table's sizes.
    Style "explicit" reads the "generator1"/"generator2" generator
    documents, and style "stored" a snapshot's config, whose "codes" carry
    their own (see _stored_code) beside all four sizes.  Either way, every
    size the document declares must match the codes.
    """
    doc = as_object(doc, "config")
    # every style but these two reads the plain table, whose reader refuses
    # an unknown one; "stored config" has no "style" key, so no document
    # can ask for it
    style = style or doc.get("style", "vandermonde")
    v = read(doc, TABLES.get(f"{style} config", TABLES["config"]), "config")
    if style not in ("explicit", "stored"):
        return TwinConfig.build(v["q"], v["n1"], v["n2"], v["k"], style=style)
    code1, code2 = ((v["generator1"], v["generator2"]) if style == "explicit"
                    else [_stored_code(c, v["q"]) for c in v["codes"]])
    # checked before TwinConfig, so codes that disagree with a declared
    # size are malformed input rather than a domain error
    _sizes(v, {"q": {code1.field, code2.field}, "n1": {code1.n},
               "n2": {code2.n}, "k": {code1.k, code2.k}}, "codes")
    return TwinConfig(code1, code2)


def payload(doc) -> list:
    """A list of integers, or an object holding one under "payload"."""
    return (read(doc, TABLES["payload"], "payload document")["payload"]
            if isinstance(doc, dict) else integers(doc, "payload"))


def layout_doc(layout) -> dict:
    """{"q", "k", "l1", "l2", "seed", "protected_type", "payload"}."""
    return _doc("layout", layout.field.p, layout.k, layout.l1, layout.l2, layout.seed,
                layout.protected_type, layout.payload.tolist())


def layout(doc, config: TwinConfig) -> SecureLayout:
    """{"q", "k", "l1", "l2", "seed", "protected_type", "payload"} ->
    SecureLayout for `config`.

    A declared q or k must be the config's.  Defaults 0, 0, 0, 1.  A plain
    layout (l1 = l2 = 0) zero-pads a short payload, and a layout with no
    payload holds zeros; a secure one needs exactly k*(k-l1-l2) symbols.
    """
    v = read(doc, TABLES["layout"], "layout")
    _sizes(v, {"q": {config.field}, "k": {config.k}}, "config")
    k, l1, l2, values = config.k, v["l1"], v["l2"], v["payload"] or []
    if l1 == l2 == 0 or v["payload"] is None:
        values += [0] * (k * (k - l1 - l2) - len(values))
    return SecureLayout(k=k, l1=l1, l2=l2, field=config.field, seed=v["seed"],
                        protected_type=v["protected_type"], payload=values)


def spec_doc(spec: EavesdropperSpec) -> dict:
    """{"e1", "e2"}: each a list of [type, index] pairs, as a report's "spec"."""
    return _doc("spec", [list(x) for x in spec.e1], [list(x) for x in spec.e2])


def spec(doc, config: TwinConfig) -> EavesdropperSpec:
    """{"e1": [[type, index], ...], "e2": [...]}: storage reads, observed repairs."""
    return spec_nodes(*read(doc, TABLES["spec"], "spec").values(), config)


def spec_nodes(e1, e2, config: TwinConfig) -> EavesdropperSpec:
    """The spec of two lists of [type, index] pairs, each inside the config."""
    try:
        return EavesdropperSpec(e1=nodes(e1, config, "e1"), e2=nodes(e2, config, "e2"))
    except ValueError as exc:  # duplicate or overlapping nodes
        raise MalformedInput(str(exc)) from None


def snapshot_doc(system: TwinSystem, layout=None) -> dict:
    """The snapshot document `snapshot` reads, with the layout the system
    was encoded from under "layout" when one is given."""
    families = [[_doc("node", node.node_index, None if node.is_empty else node.symbols.tolist(),
                      not node.is_empty) for node in family]
                for family in (system.nodes1, system.nodes2)]
    given = () if layout is None else (layout_doc(layout),)
    return _doc("snapshot", config_doc(system.config), _doc("snapshot nodes", *families), *given)


def snapshot(doc) -> TwinSystem:
    """{"config", "nodes": {"type1": [...], "type2": [...]}, "layout"}, one
    entry {"index", "symbols", "live"} per node in index order; "live" is
    true exactly when "symbols" is not null.  The optional "layout" must be
    a layout of the snapshot's own config whose encoding every live node
    holds; it is checked, not returned."""
    v = read(doc, TABLES["snapshot"], "snapshot")
    cfg = config(v["config"], style="stored")
    families = read(v["nodes"], TABLES["snapshot nodes"], "snapshot nodes")
    parts = []
    for t, entries, count in zip((1, 2), families.values(), (cfg.n1, cfg.n2)):
        _check(len(entries) == count, f"type{t} entries", len(entries), count)
        for slot, entry in enumerate(entries, start=1):
            what = f"type {t} node {slot}"
            index, syms, live = read(entry, TABLES["node"], what).values()
            _check(index == slot, f"{what} index", index, slot)
            _check(live is (syms is not None), f"{what} live", live,
                   "true exactly when symbols are given")
            _check(syms is None or len(syms) == cfg.k, what, syms, f"{cfg.k} symbols")
            parts.append(NodeContent(t, slot, None if syms is None else cfg.field.reduce(syms)))
    if v["layout"] is not None:  # failed nodes hold nothing to compare
        encoded = encode_system(cfg, layout(v["layout"], cfg).matrix)
        if any(not a.is_empty and a.symbols.tolist() != b.symbols.tolist()
               for a, b in zip(parts, encoded.nodes1 + encoded.nodes2)):
            raise MalformedInput("snapshot live nodes differ from its layout's encoding")
    return TwinSystem(cfg, tuple(parts[:cfg.n1]), tuple(parts[cfg.n1:]))
