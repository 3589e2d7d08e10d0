"""The checkout runner the comparison tools share.

A tool's ``main`` calls :func:`compare`.  It runs the tool once per
``--checkout`` in a fresh interpreter, with that checkout as the working
directory and its ``src/`` as ``PYTHONPATH``, prints each worker's line
followed by the checkout, and exits 1 when two lines' keys differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent


def compare(argv, tool: str, description: str, work: Callable[[], str], key: Callable[[str], object]) -> int:
    """Run ``tool`` per checkout and compare ``key`` of each printed line.

    Under ``--worker`` this process is the worker: it checks that ``gkms``
    was imported from the working directory's ``src/`` and prints ``work()``.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--checkout", action="append", type=Path,
        help="a checkout to run (repeatable; default: this repository)",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        import gkms

        src = (Path.cwd() / "src").resolve()
        if not Path(gkms.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"imported {gkms.__file__}, not the checkout's {src}")
        print(work())
        return 0
    keys = set()
    for checkout in (c.resolve() for c in (args.checkout or [REPO])):
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        cmd = [sys.executable, str(Path(tool).resolve()), "--worker"]
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{checkout}: worker failed\n{done.stderr}")
        line = done.stdout.strip()
        print(f"{line}  {checkout}", flush=True)
        keys.add(key(line))
    return 0 if len(keys) == 1 else 1

