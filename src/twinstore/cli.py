"""Command-line interface.

Subcommands
-----------
bounds     write one comparison series (fig5 | fig8 | fig9) as CSV
demo       run the bundled worked example against its golden values
scenario   execute a scenario JSON file, emitting a JSON-lines log
encode     encode a payload into a full system snapshot (JSON)
eavesdrop  leakage report for one eavesdropper spec, or a budget sweep
           (whose report `sweep_report_text` writes from its columns)

Exit codes: 0 success, 1 domain failure, 2 usage/malformed input.
Each warning, such as the connectivity advisory, is one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import bounds as bounds_mod
from . import loader, sim
from .demo import run_demo
from .eavesdrop import default_repair_plans, eavesdrop_report
from .errors import MalformedInput, TwinstoreError
from .framework import encode_system


def _write_text(path, text):
    # a slice at a time: a text file encodes each write whole, and a
    # sweep report is megabytes, so one write would hold it twice
    pieces = (text[i:i + 65536] for i in range(0, len(text), 65536))
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise MalformedInput(f"cannot write {path}: {exc}") from None


def cmd_bounds(args) -> int:
    rows = bounds_mod.comparison_series(args.kind, k_max=args.k_max, k=args.k,
                                        l1=args.l1)
    _write_text(args.out, bounds_mod.series_to_csv(rows))
    return 0


def cmd_demo(args) -> int:
    g1, g2 = (loader.generator_matrix(loader.read_json(path)) if path else None
              for path in (args.gen1, args.gen2))
    checks = run_demo(g1=g1, g2=g2, seed=args.seed)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'}")
    return 0 if all_ok else 1


def cmd_scenario(args) -> int:
    scenario = sim.load_scenario(args.infile)
    log = sim.run(scenario)
    _write_text(args.out, log.to_jsonl())
    return 1 if log.has_errors else 0


def _inputs(args, kind):
    """The config and layout the flags give, and the `kind` part of --in.

    The flags are a config and a layout document with the tables' keys;
    --q and --k belong to the config, whose explicit generators may have
    other sizes.  With --style explicit, --in holds those generators as
    well, and its keys are checked once against both kinds' tables.  The
    layout holds the payload of `encode` and zeros otherwise."""
    doc = loader.read_json(args.infile) if args.infile else None
    config = {key: vars(args)[key] for key in loader.TABLES["config"]}
    if args.style == "explicit":
        config, doc = loader.split(doc, "--in", loader.TABLES["explicit config"],
                                   loader.TABLES[kind])
    config = loader.config(config, style=args.style)
    flags = vars(args).keys() & (loader.TABLES["layout"].keys() - loader.TABLES["config"].keys())
    layout = {key: vars(args)[key] for key in flags}
    if kind == "payload":
        layout["payload"] = loader.payload(doc)
    return config, loader.layout(layout, config), doc


def cmd_encode(args) -> int:
    config, layout, _ = _inputs(args, "payload")
    snapshot = loader.snapshot_doc(encode_system(config, layout.matrix), layout)
    _write_text(args.out, json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    return 0


def sweep_report_text(sweep: sim.SweepResult) -> str:
    """A sweep's report text, byte for byte json.dumps(report,
    sort_keys=True, indent=2) + "\\n" of the report {"exhaustive",
    "worst_leakage": [{"l1", "l2", "leakage"}] by split, "specs":
    sweep.rows}.

    With an indent, json.dumps runs json's pure-Python encoder, which
    costs more than the sweep itself on thousands of rows.  So json.dumps
    writes only the report head and `worst_leakage`, and the rows are
    written from the sweep's columns (`sim.SweepSplit`), never as dicts:
    each row is e1 and e2 as lists of [type, index] pairs, then
    guaranteed, l1, l2, leakage and rank.  A node list's text is built
    once per distinct node tuple, which a split finds by its colex rank,
    and a row's closing text once per distinct verdict in a split.  Each
    split's rows are gathered from those texts, three pieces a row, and
    all pieces are joined once.
    """
    head, tail = json.dumps({
        "exhaustive": sweep.exhaustive, "specs": None,
        "worst_leakage": [{"l1": l1, "l2": l2, "leakage": leak}
                          for (l1, l2), leak
                          in sorted(sweep.worst_leakage.items())],
    }, sort_keys=True, indent=2).split('"specs": null')
    n = len(sweep.nodes)
    pair_text = np.array([f"        [\n          {t},\n          {j}\n        ]"
                          for t, j in sweep.nodes], dtype=object)
    list_text = {}  # (size, colex rank) of a node tuple -> its list's text

    def list_texts(column, before, after):
        # each row's node list text between `before` and `after`; the
        # list text is built once per distinct node tuple of the sweep
        size = column.shape[1]
        distinct, first, inverse = np.unique(sim._colex_ranks(column, n),
                                             return_index=True,
                                             return_inverse=True)
        keys = [(size, rank) for rank in distinct.tolist()]
        new = [i for i, key in enumerate(keys) if key not in list_text]
        if new:
            nodes = column[first[new]]
            texts = np.full(len(new), "[\n" if size else "[]", dtype=object)
            for i in range(size):
                texts += pair_text[nodes[:, i]] + (
                    ",\n" if i < size - 1 else "\n      ]")
            list_text.update(zip([keys[i] for i in new], texts.tolist()))
        texts = np.array([list_text[key] for key in keys], dtype=object)
        return (before + texts + after)[inverse]

    # three pieces per row, between the report's head and tail
    count = sum(len(split.verdict) for split in sweep.splits)
    parts = np.empty(3 * count + 4, dtype=object)
    parts[0] = head
    parts[1] = '"specs": [\n' if count else '"specs": []'
    parts[-2] = tail
    parts[-1] = "\n"
    rows = parts[2:-2].reshape(count, 3)
    start = 0
    for split in sweep.splits:
        block = rows[start:start + len(split.verdict)]
        start += len(split.verdict)
        block[:, 0] = list_texts(split.e1, '    {\n      "e1": ',
                                 ',\n      "e2": ')
        block[:, 1] = list_texts(split.e2, "", "")
        closing = np.empty(len(sweep.verdicts), dtype=object)
        present = np.bincount(split.verdict, minlength=len(sweep.verdicts))
        for v in np.flatnonzero(present).tolist():
            verdict = sweep.verdicts[v]
            closing[v] = (
                f',\n      "guaranteed": '
                f'{"true" if verdict["guaranteed"] else "false"},\n'
                f'      "l1": {split.l1},\n      "l2": {split.l2},\n'
                f'      "leakage": {verdict["leakage"]},\n'
                f'      "rank": {verdict["rank"]}\n    }},\n')
        block[:, 2] = closing[split.verdict]
    if count:  # the last row closes the list
        parts[-3] = parts[-3][:-2] + "\n  ]"
    return "".join(parts.tolist())


def cmd_eavesdrop(args) -> int:
    """A single-spec report (--in) is written by json.dumps; a sweep
    report by `sweep_report_text`, which writes the same bytes faster.
    An explicit config's generators come from --in, so it gets only
    one-spec reports; explicit sweeps go through the library."""
    if args.style == "explicit" and not args.infile:
        raise MalformedInput(
            "--style explicit needs --in: explicit generators come from --in "
            "and get one-spec reports; sweep explicit codes through "
            "twinstore.sim.sweep_eavesdroppers")
    config, layout, doc = _inputs(args, "spec")
    if doc is not None:
        spec = loader.spec(doc, config)
        system = encode_system(config, layout.matrix)
        report = eavesdrop_report(system, layout, spec,
                                  default_repair_plans(system, spec))
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        sweep = sim.sweep_eavesdroppers(config, layout,
                                        max_budget=args.l1 + args.l2,
                                        seed=args.seed)
        text = sweep_report_text(sweep)
    _write_text(args.out, text)
    return 0


@functools.cache  # parse_args fills a fresh namespace and leaves the parser as is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinstore",
        description="Twin-type MDS storage: encoding, repair, secrecy analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p):
        p.add_argument("--q", type=int, default=11, help="prime field modulus")
        p.add_argument("--n1", type=int, default=5, help="Type 1 node count")
        p.add_argument("--n2", type=int, default=6, help="Type 2 node count")
        p.add_argument("--k", type=int, default=4, help="code dimension")
        p.add_argument("--style", default="vandermonde",
                       choices=["systematic", "vandermonde", "explicit"])
        p.add_argument("--seed", type=int, default=0, help="layout RNG seed")
        p.add_argument("--l1", type=int, default=0,
                       help="storage-eavesdropped node budget")
        p.add_argument("--l2", type=int, default=0,
                       help="repair-observed node budget")

    p = sub.add_parser("bounds", help="emit a comparison series as CSV")
    p.add_argument("--kind", required=True, choices=["fig5", "fig8", "fig9"])
    p.add_argument("--k-max", type=int, default=50, dest="k_max",
                   help="upper k for the fig5 series")
    p.add_argument("--k", type=int, default=50, help="fixed k for fig8/fig9")
    p.add_argument("--l1", type=int, default=2, help="fixed l1 for fig9")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("demo", help="golden checks on the bundled worked example")
    p.add_argument("--gen1", default=None,
                   help="override generator 1 (JSON document path)")
    p.add_argument("--gen2", default=None,
                   help="override generator 2 (JSON document path)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("scenario", help="run a scenario file")
    p.add_argument("--in", required=True, dest="infile",
                   help="scenario JSON path")
    p.add_argument("--out", default=None, help="JSON-lines log path")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("encode", help="encode a payload into a system snapshot")
    add_system_flags(p)
    p.add_argument("--in", required=True, dest="infile",
                   help="payload JSON (list, or object with payload/generators)")
    p.add_argument("--out", default=None, help="snapshot JSON path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eavesdrop", help="leakage report or budget sweep")
    add_system_flags(p)
    p.add_argument("--in", default=None, dest="infile",
                   help="spec JSON {e1: [[t,j]..], e2: [[t,j]..]}, plus the "
                        "generator documents for --style explicit, which "
                        "only gets one-spec reports; omit to sweep a "
                        "built-in style (explicit sweeps go through "
                        "twinstore.sim.sweep_eavesdroppers)")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_eavesdrop)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a CLI user has no source line of their own for a warning to name
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except MalformedInput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TwinstoreError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
