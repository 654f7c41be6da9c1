"""sha256 of every pinned output of one source tree.

    python3 tools/digests.py --root TREE

imports twinstore from TREE/src and prints one "<sha256>  <output>" line
per output, in a fixed order:
- `twinstore demo` and the stdout of each script in TREE/demos;
- the fig5, fig8 and fig9 CSVs of `twinstore bounds`;
- both sweep reports of the benchmark's sweep workload;
- for each of the 16 documents of the benchmark's audit workload at seed
  1 (`perfbench/workloads.Audit`, imported from TREE and only read): the
  scenario log, the single-spec report and the `encode` snapshot, each
  with its exit code.

Two trees with the same pinned outputs print the same lines, so
`diff <(tools/digests.py --root A) <(tools/digests.py --root B)` is
empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path, workdir: Path):
    """(output name, sha256) pairs of every pinned output of `root`."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from twinstore import cli
    import workloads

    def twinstore(argv) -> int:
        return cli.main([str(x) for x in argv])

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = twinstore(["demo"])
    yield f"twinstore demo (exit {code})", sha256(stdout.getvalue().encode())
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for script in sorted((root / "demos").glob("0*.py")):
        proc = subprocess.run([sys.executable, "-W", "ignore", str(script)],
                              capture_output=True, env=env, check=False)
        yield f"demos/{script.name} (exit {proc.returncode})", sha256(proc.stdout)

    for kind in ("fig5", "fig8", "fig9"):
        out = workdir / f"{kind}.csv"
        code = twinstore(["bounds", "--kind", kind, "--out", out])
        yield f"bounds {kind} (exit {code})", sha256(out.read_bytes())

    sweep = workloads.Sweep(1, workdir)
    for style, argv in sweep.argv.items():
        code = twinstore(argv)
        yield f"sweep {style} (exit {code})", sha256(sweep.paths[style].read_bytes())

    audit = workloads.Audit(1, workdir)
    for d, doc in enumerate(audit.docs):
        for command, output in (("scenario", "log"), ("report", "report"),
                                ("encode", "snapshot")):
            code = twinstore(doc[f"{command}_argv"])
            data = doc["paths"][output].read_bytes()
            yield f"audit {d} {output} (exit {code})", sha256(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="source tree whose outputs are digested")
    root = parser.parse_args(argv).root.resolve()
    warnings.simplefilter("ignore")  # connectivity advisories
    with tempfile.TemporaryDirectory() as workdir:
        for name, digest in digests(root, Path(workdir)):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
