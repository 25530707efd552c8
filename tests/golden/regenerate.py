"""Recompute the golden corpus, print how it differs, and write on request.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.regenerate [--accept] [NAME ...]

For each entry it prints ``byte-equal`` (the canonical JSON is
unchanged), ``within tolerance`` (only float last bits moved), or the
differing fields.  Nothing is written unless ``--accept`` is given; an
accepted change must be justified in CHANGES.md.  Exits 1 when an entry
differs and ``--accept`` was not given.
"""

from __future__ import annotations

import argparse
import sys

from tests.golden import corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--accept", action="store_true", help="write the recomputed payloads"
    )
    parser.add_argument(
        "names", nargs="*", help=f"entries to check (default: all {len(corpus.NAMES)})"
    )
    args = parser.parse_args(argv)
    names = args.names or list(corpus.NAMES)
    unknown = sorted(set(names) - set(corpus.NAMES))
    if unknown:
        parser.error(f"unknown corpus entries: {unknown}")

    differing = 0
    for name in names:
        fresh = corpus.compute(name)
        path = corpus.payload_path(name)
        if not path.is_file():
            print(f"{name}: new")
            lines = []
        else:
            stored = corpus.load(name)
            if corpus.canonical(stored) == corpus.canonical(fresh):
                print(f"{name}: byte-equal")
                continue
            lines = corpus.diff(stored, fresh)
            print(f"{name}: {'differs' if lines else 'within tolerance'}")
            for line in lines:
                print(f"  {line}")
        if args.accept:
            corpus.write(name, fresh)
            print(f"  wrote {path}")
        elif lines or not path.is_file():
            differing += 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
