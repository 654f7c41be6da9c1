"""Command-line interface.

Subcommands
-----------
bounds     write one comparison series (fig5 | fig8 | fig9) as CSV
demo       run the bundled worked example against its golden values
scenario   execute a scenario JSON file, emitting a JSON-lines log
encode     encode a payload into a full system snapshot (JSON)
eavesdrop  leakage report for one eavesdropper spec, or a budget sweep
           (whose rows `sweep_report_text` writes)

Exit codes: 0 success, 1 domain failure, 2 usage/malformed input.
Each warning, such as the connectivity advisory, is one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from . import bounds as bounds_mod
from . import loader, sim
from .demo import run_demo
from .eavesdrop import default_repair_plans, eavesdrop_report
from .errors import MalformedInput, TwinstoreError
from .framework import encode_system


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
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


def _config(args, doc):
    # the flags are a config document; explicit generators come from --in
    return loader.config((doc or {}) if args.style == "explicit" else vars(args),
                         style=args.style)


def cmd_encode(args) -> int:
    doc = loader.read_json(args.infile)
    config = _config(args, doc)
    layout = loader.layout({**vars(args), "payload": doc}, config)
    system = encode_system(config, layout.matrix)
    snapshot = system.to_json_dict()
    snapshot["layout"] = layout.to_json_dict()
    _write_text(args.out, json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    return 0


def sweep_report_text(report: dict) -> str:
    """A sweep report's text, byte for byte json.dumps(report,
    sort_keys=True, indent=2) + "\\n".

    With an indent, json.dumps runs json's pure-Python encoder, which
    costs more than the sweep itself on thousands of rows.  So json.dumps
    writes only the report head and `worst_leakage`, and the `specs` rows
    (`sim.SweepResult.rows`) go through a writer of their fixed schema:
    e1 and e2 as lists of [type, index] pairs, then guaranteed, l1, l2,
    leakage and rank.  Each node list's text is cached under its tuple of
    (type, index) tuples, so an e1 that repeats across rows is written
    once; rows holding lists, as json.loads gives them, are keyed by their
    tuple form.  Each row's closing text is cached the same way, under its
    five values, of which a sweep holds a few hundred distinct tuples.
    The pieces are joined once, so no row's text is copied twice.
    """
    head, tail = json.dumps({**report, "specs": None}, sort_keys=True,
                            indent=2).split('"specs": null')
    list_text = {}

    def node_list(pairs):
        if type(pairs) is not tuple:
            pairs = tuple(map(tuple, pairs))
        text = list_text.get(pairs)
        if text is None:
            text = list_text[pairs] = "[\n" + ",\n".join(
                f"        [\n          {t},\n          {j}\n        ]"
                for t, j in pairs) + "\n      ]" if pairs else "[]"
        return text

    closing_text = {}

    def closing(r):
        key = r["guaranteed"], r["l1"], r["l2"], r["leakage"], r["rank"]
        text = closing_text.get(key)
        if text is None:
            guaranteed, l1, l2, leak, rank = key
            text = closing_text[key] = (
                f'      "guaranteed": {"true" if guaranteed else "false"},\n'
                f'      "l1": {l1},\n      "l2": {l2},\n'
                f'      "leakage": {leak},\n      "rank": {rank}\n    }}')
        return text

    parts = [head, '"specs": [\n']
    for r in report["specs"]:
        parts += ('    {\n      "e1": ', node_list(r["e1"]), ',\n      "e2": ',
                  node_list(r["e2"]), ",\n", closing(r), ",\n")
    # the last row's separator closes the list; no row leaves it empty
    parts[-1] = "\n  ]" if len(parts) > 2 else '"specs": []'
    parts += (tail, "\n")
    return "".join(parts)


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
    doc = loader.read_json(args.infile) if args.infile else None
    config = _config(args, doc)
    layout = loader.layout(vars(args), config)  # flags l1, l2, seed; zero payload
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
        text = sweep_report_text({
            "exhaustive": sweep.exhaustive,
            "worst_leakage": [
                {"l1": l1, "l2": l2, "leakage": leak}
                for (l1, l2), leak in sorted(sweep.worst_leakage.items())
            ],
            "specs": sweep.rows,
        })
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
