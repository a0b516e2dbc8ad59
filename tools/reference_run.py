"""Run the 14-item reference pipeline and print one `sha256  path` line per file.

    python tools/reference_run.py SRC OUT

imports `phxai` from the source directory SRC (the one holding the `phxai`
package) and writes every artifact under OUT, which should not exist yet.
Every command is deterministic, so two source trees that should write the
same bytes are compared by diffing their outputs:

    python tools/reference_run.py old/src /tmp/ref_old > old.txt
    python tools/reference_run.py new/src /tmp/ref_new > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

TARGETS = ("item_0002", "item_0007")


def reference_run(out: Path) -> None:
    from phxai import cli

    def run(*argv) -> None:
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"phxai {' '.join(map(str, argv))} exited {code}")

    manifest = out / "manifest.json"
    run("gen-data", "--count", 14, "--seed", 5, "--out", out)
    run("pipeline", manifest, "--trees", 20, "--holdout", 3, "--importance", "impurity")
    for target in TARGETS:
        for mode in ("pixels", "params", "higher"):
            run("explain", manifest, "--mode", mode, "--target", target)
        run("explain", manifest, "--mode", "grid", "--target", target, "--cohort-size", 5)
    renders = out / "renders"
    renders.mkdir()
    attributions = out / "attributions"
    run("render", attributions / "pixels_item_0002_h1.csv", renders / "pixels_item_0002_h1.pgm")
    run("render", attributions / "pixels_item_0002_h2.csv", renders / "pixels_item_0002_h2.ppm",
        "--color")
    run("render", out / "landscapes" / "item_0003_h1.csv", renders / "item_0003_h1.pgm",
        "--palette", "sequential")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", type=Path, help="directory that holds the phxai package")
    parser.add_argument("out", type=Path, help="output directory, created by the run")
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists; give a new directory")
    sys.path.insert(0, str(args.src.resolve()))
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries the digests alone
        reference_run(args.out)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out).as_posix()}")


if __name__ == "__main__":
    main()
