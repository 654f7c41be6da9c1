"""Fuzz the CLI's documents and flags: whatever the input, `twinstore`
exits 0, 1 or 2, writes at most one `error:` line to stderr and never a
traceback.  Snapshots, which only the library reads, load or raise a
TwinstoreError.

Each example is a valid document for a small system (q <= 13, n <= 7)
that, more often than not, has one value swapped for arbitrary JSON or
dropped, so the checks deep inside a document are reached too.  Flags
are drawn the same way; the `bounds` series flags take any integer in
-5..60.  The examples are derandomized, so the suite is deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinstore import (
    PrimeField,
    TwinSystem,
    build_message_matrix,
    encode_system,
    fail_node,
)
from twinstore import loader
from twinstore.cli import main
from twinstore.demo import DEMO_G1, DEMO_G2, build_demo_config, build_demo_layout
from twinstore.errors import TwinstoreError

from shared_configs import build_config

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# (q, n1, n2, k) of valid systems; the demo's generators fit the first
SIZES = [(11, 5, 6, 4), (7, 4, 5, 3), (13, 7, 7, 4), (5, 3, 4, 2), (2, 2, 2, 1)]
GENERATORS = {"generator1": {"p": 11, "n": 5, "k": 4, "generator": DEMO_G1},
              "generator2": {"p": 11, "n": 6, "k": 4, "generator": DEMO_G2}}
DROP = object()

scalars = (st.none() | st.booleans() | st.integers(-3, 15) | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False, width=16))
junk = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=6)


def swap(doc, pick, new):
    """doc with its pick-th value (depth first, the root is 0) replaced by
    `new` or dropped; unchanged when pick runs past the end."""
    left = [pick]

    def walk(value):
        left[0] -= 1
        if left[0] == -1:
            return new
        if isinstance(value, dict):
            pairs = ((key, walk(v)) for key, v in value.items())
            return {key: v for key, v in pairs if v is not DROP}
        if isinstance(value, list):
            return [v for v in map(walk, value) if v is not DROP]
        return value

    out = walk(doc)
    return doc if out is DROP else out


def mutated(valid, values=60):
    """A valid document, or one with a single value swapped or dropped."""
    return st.builds(swap, valid, st.integers(0, values),
                     st.just(DROP) | st.integers(-2, 15) | junk)


def distinct(count, size):
    return st.lists(st.integers(1, count), min_size=size, max_size=size,
                    unique=True)


@st.composite
def system(draw, explicit=True):
    """(config document, k, node counts, layout document)."""
    q, n1, n2, k = size = draw(st.sampled_from(SIZES))
    styles = ["vandermonde", "systematic"] + ["explicit"] * (size == SIZES[0])
    config = {"q": q, "n1": n1, "n2": n2, "k": k,
              "style": draw(st.sampled_from(styles))}
    if config["style"] == "explicit" and explicit:
        config.update(GENERATORS)
    l1 = draw(st.integers(0, k - 1))
    l2 = draw(st.integers(0, k - 1 - l1))
    symbols = k * (k - l1 - l2)
    layout = {"l1": l1, "l2": l2, "seed": draw(st.integers(0, 5)),
              "protected_type": draw(st.integers(1, 2)),
              "payload": draw(st.lists(st.integers(0, q - 1), max_size=symbols,
                                       min_size=symbols if l1 + l2 else 0))}
    return config, k, {1: n1, 2: n2}, layout


@st.composite
def scenarios(draw):
    config, k, count, layout = draw(system())
    events, repaired = [], []
    for op in draw(st.lists(st.sampled_from(
            ["repair", "reconstruct", "eavesdrop", "deploy"]), max_size=6)):
        t = draw(st.integers(1, 2))
        if op == "repair":
            j = draw(st.integers(1, count[t]))
            repair = {"op": "repair", "type": t, "index": j}
            if draw(st.booleans()):
                repair["helpers"] = draw(distinct(count[3 - t], k))
            events += [{"op": "fail", "type": t, "index": j}, repair]
            repaired.append([t, j])
        elif op == "reconstruct":
            events.append({"op": "reconstruct", "type": t,
                           "nodes": draw(distinct(count[t], k))})
        elif op == "eavesdrop":
            e2 = draw(st.lists(st.sampled_from(repaired), max_size=k - 1,
                               unique_by=tuple)) if repaired else []
            others = [[s, j] for s in (1, 2) for j in range(1, count[s] + 1)
                      if [s, j] not in e2]
            e1 = draw(st.lists(st.sampled_from(others), max_size=k - 1 - len(e2),
                               unique_by=tuple))
            events.append({"op": "eavesdrop", "e1": e1, "e2": e2})
        else:
            events.append({"op": "deploy", "seeds1": draw(distinct(count[1], k)),
                           "seeds2": draw(distinct(count[2], k))})
    return {"config": config, "layout": layout, "seed": 0, "events": events}


@st.composite
def cli_inputs(draw, command):
    """(flags, --in document) for `encode` or a single-spec `eavesdrop`."""
    config, k, count, layout = draw(system(explicit=False))
    flags = {f"--{key}": config[key] for key in ("q", "n1", "n2", "k", "style")}
    flags.update({f"--{key}": layout[key] for key in ("l1", "l2", "seed")})
    flag, value = draw(st.sampled_from(sorted(flags))), draw(st.integers(-1, 10))
    if draw(st.booleans()) and flag != "--style":
        flags[flag] = value
    doc = dict(GENERATORS) if config["style"] == "explicit" else {}
    if command == "encode":
        doc["payload"] = layout["payload"]
    else:
        nodes = [[t, j] for t in (1, 2) for j in range(1, count[t] + 1)]
        spied = draw(st.lists(st.sampled_from(nodes), max_size=k - 1,
                              unique_by=tuple))
        cut = draw(st.integers(0, len(spied)))
        doc.update(e1=spied[:cut], e2=spied[cut:])
    return [str(x) for pair in flags.items() for x in pair], draw(mutated(st.just(doc)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(workdir, argv, doc):
    path = workdir / "in.json"
    path.write_text(json.dumps(doc))
    argv = ([*argv, str(path)] if argv[0] == "demo"
            else [*argv, "--in", str(path), "--out", str(workdir / "out")])
    return run_main(argv)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
    return code


@FUZZ
@given(doc=mutated(scenarios()))
def test_scenario(workdir, doc):
    run_cli(workdir, ["scenario"], doc)


@FUZZ
@given(inputs=cli_inputs("encode"), bare_list=st.booleans())
def test_encode(workdir, inputs, bare_list):
    flags, doc = inputs
    if bare_list and isinstance(doc, dict) and "generator1" not in doc:
        doc = doc.get("payload", doc)  # the bare-list form of the payload
    run_cli(workdir, ["encode", *flags], doc)


@FUZZ
@given(inputs=cli_inputs("eavesdrop"))
def test_eavesdrop_spec(workdir, inputs):
    flags, doc = inputs
    run_cli(workdir, ["eavesdrop", *flags], doc)


@FUZZ
@given(inputs=cli_inputs("eavesdrop"))
def test_eavesdrop_sweep(workdir, inputs):
    flags, _ = inputs  # no --in: a sweep over every spec within the budget
    run_main(["eavesdrop", *flags, "--out", str(workdir / "out")])


@FUZZ
@given(kind=st.sampled_from(["fig5", "fig8", "fig9"]),
       flags=st.dictionaries(st.sampled_from(["--k", "--k-max", "--l1"]),
                             st.integers(-5, 60)))
def test_bounds(workdir, kind, flags):
    # --k-max stays small: the fig5 series does work in proportion to it
    run_main(["bounds", "--kind", kind, "--out", str(workdir / "out.csv"),
              *(str(x) for pair in flags.items() for x in pair)])


@FUZZ
@given(doc=mutated(st.fixed_dictionaries({"generator": st.sampled_from(
    [DEMO_G1, DEMO_G2, [row[:4] for row in DEMO_G2]])})))
def test_demo_generator(workdir, doc):
    run_cli(workdir, ["demo", "--gen1"], doc)


def snapshot_docs():
    demo = encode_system(build_demo_config(), build_demo_layout().matrix)
    small = build_config(PrimeField(7), 4, 5, 3, style="systematic")
    failed = fail_node(encode_system(small, build_message_matrix([1, 2], 3,
                                                                 small.field)), 2, 3)
    return [json.loads(json.dumps(loader.snapshot_doc(s))) for s in (demo, failed)]


@FUZZ
@given(doc=mutated(st.sampled_from(snapshot_docs()), values=150))
def test_snapshot(doc):
    try:
        TwinSystem.from_json_dict(doc)
    except TwinstoreError:
        pass
