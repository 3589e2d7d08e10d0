"""Command-line front end: scenario runs, measurement sweeps, secrecy audits,
and golden-vector checks.

Every subcommand is deterministic given its seed; when no seed is supplied
one is drawn and printed so the invocation can be reproduced.  The crypto
golden vectors are re-verified before any run/sweep/audit work, so a broken
primitive can never produce a green result.

Exit codes are distinct per failure class:

====  =========================================================
0     success
2     usage error (standard argument parsing)
3     golden-vector mismatch (also pre-empts run/sweep/audit)
4     scenario run failure: bad script, membership error, or probe failure;
      also an audit trace that cannot run (ckcs out of fresh root codes)
5     sweep failure: bad grid, or an output file that cannot be written
6     audit found secrecy breaches
====  =========================================================
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from random import Random

from gkms import analyzer, harness
from gkms.core import EventError, rows_to_csv
from gkms.crypto import verify_golden_vectors
from gkms.tree import CodeSpaceError, TreeError

EXIT_OK = 0
EXIT_VECTORS = 3
EXIT_RUN = 4
EXIT_SWEEP = 5
EXIT_AUDIT = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkms",
        description="Group rekeying benchmarks: scenario runs, cost sweeps, secrecy audits.",
    )
    parser.add_argument(
        "--output-dir",
        default=os.environ.get("GKMS_OUTPUT_DIR", "."),
        help="directory for emitted files (env: GKMS_OUTPUT_DIR, default: .)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file and print its trace")
    p_run.add_argument("scenario", help="path to a scenario file")

    p_sweep = sub.add_parser("sweep", help="measure a protocols x n x m x op grid to CSV")
    p_sweep.add_argument("--protocols", default="ckcs,lkh,oft,okd", help="comma-separated protocol ids")
    p_sweep.add_argument("--n", default="256,1024,4096,8192", help="comma-separated group sizes at event start")
    p_sweep.add_argument("--m", default="16,64,256,1024", help="comma-separated batch sizes")
    p_sweep.add_argument("--ops", default="join,leave", help="comma-separated ops")
    p_sweep.add_argument("--layout", default="random", choices=harness.LAYOUTS, help="leaver placement")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default="sweep.csv", help="CSV filename (within --output-dir)")

    p_audit = sub.add_parser("audit", help="secrecy closure checks over random traces")
    p_audit.add_argument("--trials", type=_int_at_least(1), default=1000)
    p_audit.add_argument("--max-n", type=_int_at_least(2), default=64)
    p_audit.add_argument("--max-events", type=_int_at_least(1), default=8)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument(
        "--sample",
        default="endpoints",
        choices=("endpoints", "all"),
        help="adversaries per trace: churn endpoints (default) or every leaver/joiner",
    )
    p_audit.add_argument(
        "--codes-public",
        action="store_true",
        help="leak every node code to the adversary (breaches are the expected finding)",
    )

    p_vec = sub.add_parser("vectors", help="verify the crypto golden vectors")
    p_vec.add_argument("--file", default=None, help="alternative vector file")
    return parser


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse names the type after the function
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _pick_seed(explicit: int | None) -> int:
    return explicit if explicit is not None else Random().randrange(10**9)


def _check_vectors(text: str | None, quiet: bool) -> bool:
    """Verify ``text`` (the shipped vectors when None); False on a mismatch."""
    results = verify_golden_vectors(text)
    bad = [r for r in results if not r.ok]
    if bad:
        for r in bad:
            print(
                f"vector line {r.line_no} ({r.function}): expected {r.expected}, got {r.actual}",
                file=sys.stderr,
            )
        print(f"golden vectors: {len(bad)} of {len(results)} FAILED", file=sys.stderr)
        return False
    if not quiet:
        print(f"golden vectors: {len(results)} ok")
    return True


def _cover_line(trace: harness.TraceRecord, record: harness.EventRecord) -> str | None:
    """The leave's cover, each node labelled with the members under it when
    the event ran: a recipient sits under a cover node exactly when it holds
    the key that wrapped that node's payload."""
    message = next(iter(record.output.messages), None)
    if message is None or "cover" not in message.aux:
        return None
    keks = [trace.wrap_log.get(payload.ciphertext) for payload in message.payloads]
    under: dict[bytes, list[str]] = {kek: [] for kek in keks if kek}
    for member in message.recipients:
        view = trace.members.get(member) or trace.departed.get(member)
        if view is not None:
            held = view.knowledge.key_bytes
            for kek, holders in under.items():
                if kek in held:
                    holders.append(member)
    parts = []
    for node_id, kek in zip(message.aux["cover"], keks):
        members = under.get(kek)
        label = "K{" + ",".join(members) + "}" if members else f"K(node {node_id})"
        fp = kek[:4].hex() if kek else "????????"
        parts.append(f"{label}={fp}")
    return "  cover: " + " ".join(parts)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            scenario = harness.parse_scenario(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_RUN
    except harness.ScenarioError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_RUN
    print(f"scenario: {args.scenario}")
    print(f"protocol: {scenario.protocol}  initial n: {scenario.n}  seed: {scenario.seed}")
    try:
        trace = harness.run(scenario)
    except (harness.ScenarioError, harness.ProbeError, EventError, TreeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    for record in trace.events:
        ids = ",".join(record.member_ids)
        cost = record.cost
        print(
            f"event {record.seq}: {record.op} m={len(record.member_ids)} ({ids}) "
            f"n={record.n_at_event} -> keygen={cost.keygen} encrypt={cost.encrypt} "
            f"unicast={cost.unicast} multicast={cost.multicast} size={cost.payload_keys}"
        )
        cover = _cover_line(trace, record)
        if cover:
            print(cover)
    print(f"final members: {trace.server.member_count}")
    print(f"probes: all passed")
    print(f"trace digest: {trace.digest}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.seed)
    print(f"seed: {seed}")
    try:
        protocols = [p for p in args.protocols.split(",") if p]
        n_values = [int(v) for v in args.n.split(",") if v]
        m_values = [int(v) for v in args.m.split(",") if v]
        ops = [o for o in args.ops.split(",") if o]
        harness.check_sweep_grid(protocols, n_values, m_values, ops, args.layout)
    except (ValueError, harness.ScenarioError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_SWEEP
    out_path = os.path.join(args.output_dir, args.out)
    notes_path = os.path.splitext(out_path)[0] + ".notes.txt"
    # the outputs are opened before the first cell runs, so an unwritable
    # destination fails at once instead of after the whole grid.  They are
    # opened for appending and emptied only once every cell has run, so a
    # failing grid leaves earlier results as they were; a file it created
    # is removed again
    new_files = [p for p in (out_path, notes_path) if not os.path.exists(p)]
    try:
        os.makedirs(args.output_dir, exist_ok=True)
        with (
            open(out_path, "a", encoding="utf-8") as out_file,
            open(notes_path, "a", encoding="utf-8") as notes_file,
        ):
            rows, notes = harness.sweep(
                protocols, n_values, m_values, ops, seed=seed, layout=args.layout
            )
            out_file.truncate(0)
            out_file.write(rows_to_csv(rows, harness.SWEEP_EXTRA_COLUMNS))
            notes_file.truncate(0)
            notes_file.writelines(note + "\n" for note in notes)
    except (OSError, harness.ScenarioError, EventError, TreeError) as exc:
        for path in new_files:
            with contextlib.suppress(OSError):
                os.remove(path)
        what = "cannot write output: " if isinstance(exc, OSError) else ""
        print(f"sweep failed: {what}{exc}", file=sys.stderr)
        return EXIT_SWEEP
    print(f"wrote {len(rows)} rows to {out_path}")
    print(f"wrote {len(notes)} notes to {notes_path}")
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.seed)
    print(f"seed: {seed}")
    try:
        report = analyzer.audit(
            trials=args.trials,
            max_n=args.max_n,
            seed=seed,
            max_events=args.max_events,
            codes_public=args.codes_public,
            sample=args.sample,
        )
    except CodeSpaceError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    print(report.summary())
    for scenario_seed, verdict in report.breaches:
        print(f"--- breach in scenario seed {scenario_seed} ---")
        print(str(verdict))
    return EXIT_OK if report.ok else EXIT_AUDIT


def _cmd_vectors(args: argparse.Namespace) -> int:
    text = None
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read vectors: {exc}", file=sys.stderr)
            return EXIT_VECTORS
    try:
        ok = _check_vectors(text, quiet=False)
    except ValueError as exc:
        print(f"bad vector file: {exc}", file=sys.stderr)
        return EXIT_VECTORS
    return EXIT_OK if ok else EXIT_VECTORS


def main(argv: list[str] | None = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # so a reader that left early shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early (``gkms ... | head``): point stdout
        # at nothing, so the flush at interpreter exit cannot fail again, and
        # exit 1 as the uncaught error did
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "vectors" and not _check_vectors(None, quiet=True):
        return EXIT_VECTORS
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "audit":
        return _cmd_audit(args)
    return _cmd_vectors(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
