"""The one module that knows each document format (README "File
formats"): it reads every document the CLI, scenarios and snapshots read,
and writes the ones they write, each writer beside its reader:
`code_doc` (generator documents), `config_doc` (a snapshot's stored
config), `layout_doc` and `snapshot_doc`.  The eavesdropper spec's writer
is `EavesdropperSpec.to_json_dict`: `eavesdrop_report` writes it, and
`eavesdrop` sits below this module in the import order.

Input that cannot be parsed into the object it names raises
MalformedInput: a wrong JSON type, a missing key, a non-integer (or one
beyond 64 bits), an unknown node type or style, a non-prime modulus, a
node outside the config, duplicate or overlapping nodes, or a declared
size that disagrees with what the document holds or belongs to.  Valid
input the math refuses keeps its domain error.
"""

from __future__ import annotations

import json
import reprlib

from . import mds
from .eavesdrop import EavesdropperSpec
from .errors import MalformedInput, UnverifiedCode
from .field import FieldMatrix, PrimeField
from .framework import MAKERS, NodeContent, TwinConfig, TwinSystem
from .secure import make_secure_layout


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


def _get(doc, key, what):
    if key not in doc:
        raise MalformedInput(f"{what} is missing {key!r}")
    return doc[key]


def as_object(doc, what) -> dict:
    return _check(isinstance(doc, dict), what, doc, "a JSON object")


def as_list(value, what) -> list:
    return list(_check(isinstance(value, (list, tuple)), what, value, "a list"))


def integer(value, what, low=-2**63) -> int:
    ok = isinstance(value, int) and not isinstance(value, bool) and low <= value < 2**63
    return _check(ok, what, value, "an integer" if low < 0 else f"an integer >= {low}")


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


def _sizes(doc, actual: dict, what):
    """Refuse a declared size (a key of `actual`) that is not in its set
    of actual values."""
    if any({integer(doc[key], key)} != actual[key] for key in actual if key in doc):
        raise MalformedInput(f"declared sizes do not match the {what}")


def node_type(value, what="node type") -> int:
    return _check(integer(value, what) in (1, 2), what, value, "1 or 2")


def node_index(config: TwinConfig, t: int, value, what="node index") -> int:
    count = config.node_count(t)
    return _check(1 <= integer(value, what) <= count, what, value,
                  f"a type {t} index in 1..{count}")


def nodes(value, config: TwinConfig, what) -> list:
    """[[type, index], ...] node references, each inside the config."""
    out = []
    for item in as_list(value, what):
        t, j = _check(isinstance(item, (list, tuple)) and len(item) == 2,
                      f"{what} entries", item, "[type, index] pairs")
        t = node_type(t, f"{what} node type")
        out.append((t, node_index(config, t, j, what)))
    return out


def code_doc(code: mds.MdsCode) -> dict:
    """Generator document: {"p", "n", "k", "generator"} (row-major, k rows)."""
    return {"p": code.field.p, "n": code.n, "k": code.k,
            "generator": code.generator.tolist()}


def code(doc, what="generator") -> mds.MdsCode:
    """Generator document {"p", "n", "k", "generator"}: an MDS-verified code."""
    doc = as_object(doc, what)
    field = _field(_get(doc, "p", what), f"{what} p")
    n, k = (integer(_get(doc, key, what), f"{what} {key}") for key in ("n", "k"))
    rows = _matrix(_get(doc, "generator", what), f"{what} generator")
    if (k, n) != (len(rows), len(rows[0])):
        raise MalformedInput(f"declared (n={n}, k={k}) does not match "
                             f"generator shape {len(rows)}x{len(rows[0])}")
    return mds.load_explicit(FieldMatrix(rows, field))


def generator_matrix(doc) -> list:
    """`demo --gen1/--gen2` document: the k x n rows under "generator"."""
    what = "generator document"
    return _matrix(_get(as_object(doc, what), "generator", what), "generator")


def _stored_code(doc, field: PrimeField) -> mds.MdsCode:
    """A snapshot's {"style", "points", "generator"}: explicit generators,
    whose points are null, get the minor check; the others are rebuilt from
    their points and must match."""
    doc = as_object(doc, "code")
    gen = FieldMatrix(_matrix(_get(doc, "generator", "code"), "code generator"), field)
    style = _check(isinstance(_get(doc, "style", "code"), str), "code style",
                   doc["style"], "a string")
    points = doc.get("points")
    if points is not None:  # an explicit code has none
        _check(style != "explicit", "explicit code points", points, "null")
        points = [integer(x, "code point") for x in as_list(points, "code points")]
    if style == "explicit":
        return mds.load_explicit(gen)
    if style not in MAKERS:
        raise UnverifiedCode(f"unknown code style {style!r}")
    built = MAKERS[style](gen.cols, gen.rows, field, points)
    if built.generator != gen:
        raise UnverifiedCode(
            f"stored {style} generator differs from the one its points define")
    return built


def config_doc(config: TwinConfig) -> dict:
    """A snapshot's stored config: its sizes and both codes, each with its
    style, points (null for explicit codes) and generator."""
    return {"q": config.field.p, "n1": config.n1, "n2": config.n2, "k": config.k,
            "codes": [{"style": c.style, "points": None if c.eval_points is None
                       else list(c.eval_points), "generator": c.generator.tolist()}
                      for c in (config.code1, config.code2)]}


def config(doc, style=None) -> TwinConfig:
    """Config document -> TwinConfig; `style` overrides the document's.

    {"q", "n1", "n2", "k", "style"} builds both codes from the style.
    Style "explicit" reads "generator1"/"generator2" generator documents,
    and style "stored" a snapshot's config, whose "codes" carry their own
    (see _stored_code) beside all four sizes.  Either way, every size the
    document declares must match the codes.
    """
    doc = as_object(doc, "config")
    if style is None:  # "stored" is for snapshots only
        style = doc.get("style", "vandermonde")
        _check(style in (*MAKERS, "explicit"), "style", style, "one of "
               + ", ".join((*MAKERS, "explicit")))
    if style == "explicit":
        codes = [code(_get(doc, key, "explicit config"), key)
                 for key in ("generator1", "generator2")]
    else:
        field = _field(_get(doc, "q", "config"), "q")
        n1, n2, k = (integer(_get(doc, key, "config"), key) for key in ("n1", "n2", "k"))
        if style != "stored":
            return TwinConfig.build(field, n1, n2, k, style=style)
        codes = as_list(_get(doc, "codes", "config"), "codes")
        _check(len(codes) == 2, "codes", codes, "two code documents")
        codes = [_stored_code(c, field) for c in codes]
    # checked before TwinConfig, so codes that disagree with a declared
    # size are malformed input rather than a domain error
    code1, code2 = codes
    _sizes(doc, {"q": {code1.field.p, code2.field.p}, "n1": {code1.n},
                 "n2": {code2.n}, "k": {code1.k, code2.k}}, "codes")
    return TwinConfig(code1, code2)


def payload(doc) -> list:
    """A list of integers, or an object holding one under "payload"."""
    if isinstance(doc, dict):
        doc = _get(doc, "payload", "payload document")
    return [integer(x, "payload symbol") for x in as_list(doc, "payload")]


def layout_doc(layout) -> dict:
    """{"q", "k", "l1", "l2", "seed", "protected_type", "payload"}."""
    return {"q": layout.field.p, "k": layout.k, "l1": layout.l1, "l2": layout.l2,
            "seed": layout.seed, "protected_type": layout.protected_type,
            "payload": layout.payload.tolist()}


def layout(doc, config: TwinConfig):
    """{"q", "k", "l1", "l2", "seed", "protected_type", "payload"} ->
    SecureLayout for `config`.

    A declared q or k must be the config's.  Defaults 0, 0, 0, 1; the
    payload goes through `payload`.  A plain layout (l1 = l2 = 0)
    zero-pads a short payload, and a layout with no payload holds zeros;
    a secure one needs exactly k*(k-l1-l2) symbols.
    """
    doc = as_object(doc, "layout")
    _sizes(doc, {"q": {config.field.p}, "k": {config.k}}, "config")
    l1, l2, seed = (integer(doc.get(key, 0), key, low=0) for key in ("l1", "l2", "seed"))
    protected = node_type(doc.get("protected_type", 1), "protected_type")
    values = payload(doc["payload"]) if "payload" in doc else []
    if l1 == l2 == 0 or "payload" not in doc:
        values += [0] * (config.k * (config.k - l1 - l2) - len(values))
    return make_secure_layout(values, l1=l1, l2=l2, k=config.k, field=config.field,
                              seed=seed, protected_type=protected)


def spec(doc, config: TwinConfig) -> EavesdropperSpec:
    """{"e1": [[type, index], ...], "e2": [...]}: storage reads, observed repairs."""
    doc = as_object(doc, "spec")
    e1, e2 = (nodes(doc.get(key, []), config, key) for key in ("e1", "e2"))
    try:
        return EavesdropperSpec.of(e1, e2)
    except ValueError as exc:  # duplicate or overlapping nodes
        raise MalformedInput(str(exc)) from None


def snapshot_doc(system: TwinSystem, layout=None) -> dict:
    """The snapshot document `snapshot` reads, with the layout the system
    was encoded from under "layout" when one is given."""
    doc = {"config": config_doc(system.config), "nodes": {
        f"type{t}": [{"index": node.node_index, "live": node.symbols is not None,
                      "symbols": None if node.symbols is None else node.symbols.tolist()}
                     for node in nodes]
        for t, nodes in ((1, system.nodes1), (2, system.nodes2))}}
    if layout is not None:
        doc["layout"] = layout_doc(layout)
    return doc


def snapshot(doc) -> TwinSystem:
    """{"config", "nodes": {"type1": [...], "type2": [...]}, "layout"}, one
    entry {"index", "symbols", "live"} per node in index order; "live" is
    true exactly when "symbols" is not null.  The optional "layout" must be
    a layout of the snapshot's own config; it is checked, not returned."""
    doc = as_object(doc, "snapshot")
    cfg = config(_get(doc, "config", "snapshot"), style="stored")
    if "layout" in doc:
        layout(doc["layout"], cfg)
    families = as_object(_get(doc, "nodes", "snapshot"), "snapshot nodes")
    parts = {1: [], 2: []}
    for t in (1, 2):
        entries = as_list(_get(families, f"type{t}", "snapshot nodes"), f"type{t}")
        _check(len(entries) == cfg.node_count(t), f"type{t}", entries,
               f"{cfg.node_count(t)} node entries")
        for slot, entry in enumerate(entries, start=1):
            what = f"type {t} node {slot}"
            entry = as_object(entry, what)
            _check(integer(_get(entry, "index", what), what) == slot, f"{what} index",
                   entry["index"], slot)
            syms = _get(entry, "symbols", what)
            live = _get(entry, "live", what)
            _check(live is (syms is not None), f"{what} live", live,
                   "true exactly when symbols are given")
            if syms is not None:
                syms = [integer(x, f"{what} symbol") for x in as_list(syms, what)]
                _check(len(syms) == cfg.k, what, syms, f"{cfg.k} symbols")
                syms = cfg.field.reduce(syms)
            parts[t].append(NodeContent(t, slot, syms))
    return TwinSystem(cfg, tuple(parts[1]), tuple(parts[2]))
