"""Command-line interface: subcommands, exit codes, emitted files."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gkms import harness
from gkms.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_RUN,
    EXIT_SWEEP,
    EXIT_VECTORS,
    main,
)
from gkms.core import CSV_COLUMNS
from gkms.crypto import default_vector_text
from gkms.harness import MAX_GROUP_SIZE, SWEEP_EXTRA_COLUMNS

SPREAD = "init n=8 protocol=ckcs seed=1 root_code=27\nleave ids=u1,u4,u8\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["audit", "--sample", "some"])
    assert info.value.code == 2


def test_vectors_ok(capsys):
    assert main(["vectors"]) == EXIT_OK
    assert "golden vectors: 15 ok" in capsys.readouterr().out


def test_vectors_corrupted_file(tmp_path, capsys):
    good = default_vector_text()
    line = next(l for l in good.splitlines() if l.startswith("derive"))
    tail = "1" if line[-1] != "1" else "0"
    corrupted = good.replace(line, line[:-1] + tail)
    bad_file = tmp_path / "vectors.txt"
    bad_file.write_text(corrupted)
    assert main(["vectors", "--file", str(bad_file)]) == EXIT_VECTORS
    err = capsys.readouterr().err
    assert "vector line" in err and "expected" in err


def test_vectors_alternate_file_ok(tmp_path, capsys):
    copy = tmp_path / "vectors.txt"
    copy.write_text(default_vector_text())
    assert main(["vectors", "--file", str(copy)]) == EXIT_OK
    assert "golden vectors: 15 ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "record,fragment",
    [
        ("derive, zz, 00", "must be hex"),
        ("derive, 00", "expected 3 comma-separated fields"),
        ("derive, 00, 00, 00", "expected 3 comma-separated fields"),
    ],
)
def test_vectors_malformed_record(tmp_path, capsys, record, fragment):
    bad_file = tmp_path / "vectors.txt"
    bad_file.write_text(record + "\n")
    assert main(["vectors", "--file", str(bad_file)]) == EXIT_VECTORS
    err = capsys.readouterr().err
    assert "bad vector file: vector line 1" in err and fragment in err


def test_vectors_missing_file(tmp_path, capsys):
    assert main(["vectors", "--file", str(tmp_path / "nope.txt")]) == EXIT_VECTORS
    assert "cannot read vectors" in capsys.readouterr().err


def test_run_prints_trace(tmp_path, capsys):
    path = tmp_path / "spread.txt"
    path.write_text(SPREAD)
    assert main(["run", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"scenario: {path}" in out
    assert "protocol: ckcs  initial n: 8  seed: 1" in out
    assert "event 1: leave m=3 (u1,u4,u8) n=8 -> keygen=1 encrypt=4" in out
    assert "unicast=0 multicast=1 size=4" in out
    assert "  cover: K{u2}=" in out and "K{u5,u6}=" in out and "K{u7}=" in out
    assert "final members: 5" in out
    assert "probes: all passed" in out
    digest = [l for l in out.splitlines() if l.startswith("trace digest: ")]
    assert len(digest) == 1 and len(digest[0].split(": ")[1]) == 64



@pytest.mark.parametrize(
    "script,covers",
    [
        (
            SPREAD + "leave ids=u2\n",
            ["K{u2} K{u3} K{u5,u6} K{u7}", "K{u3} K{u5,u6,u7}"],
        ),
        (
            "init n=16 protocol=ckcs seed=1 root_code=27\nleave ids=u1\nleave ids=u9\n",
            [
                "K{u2} K{u3,u4} K{u5,u6,u7,u8} K{u9,u10,u11,u12,u13,u14,u15,u16}",
                "K{u2,u3,u4,u5,u6,u7,u8} K{u10} K{u11,u12} K{u13,u14,u15,u16}",
            ],
        ),
    ],
    ids=["cover-node-deleted-later", "cover-node-shrinks-later"],
)
def test_run_labels_each_cover_with_its_members_at_the_event(tmp_path, capsys, script, covers):
    # a cover node may lose members or vanish from the tree at a later event;
    # its label names the members under it when its own event ran
    path = tmp_path / "leaves.txt"
    path.write_text(script)
    assert main(["run", str(path)]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  cover: ")]
    labels = [" ".join(part.split("=")[0] for part in l.split()[1:]) for l in lines]
    assert labels == covers

@pytest.mark.parametrize(
    "argv,code,message",
    [(["run"], EXIT_RUN, "cannot read scenario"), (["vectors", "--file"], EXIT_VECTORS, "cannot read vectors")],
    ids=["run", "vectors"],
)
def test_non_utf8_input_file_exits_without_traceback(tmp_path, capsys, argv, code, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfeinit n=4 protocol=lkh seed=1\n")
    assert main(argv + [str(path)]) == code
    err = capsys.readouterr().err
    assert message in err and "can't decode byte 0xff" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_run_non_ascii_root_code_exits_4(tmp_path, capsys):
    path = tmp_path / "arabic.txt"
    path.write_text("init n=8 protocol=ckcs seed=1 root_code=\u0661\u0662\u0663\u0664\nleave 2\n", encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert "bad scenario: root_code must be 1 to 32 ASCII digits" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "header, message",
    [
        ("init n=1 protocol=ckcs seed=1 root_code=abc", "root_code must be 1 to 32 ASCII digits"),
        ("init n=4 protocol=ckcs seed=1 root_code=", "root_code must be 1 to 32 ASCII digits"),
        ("init n=4 protocol=lkh seed=1 root_code=27", "protocol 'lkh' does not use position codes"),
    ],
)
def test_run_bad_root_code_is_a_bad_scenario(tmp_path, capsys, header, message):
    path = tmp_path / "code.txt"
    path.write_text(header + "\n")
    assert main(["run", str(path)]) == EXIT_RUN
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"bad scenario: {message}")


def test_run_root_code_on_a_one_member_ckcs_group_fails(tmp_path, capsys):
    # the lone member's leaf is the root and carries no code, so the given
    # code would be silently dropped
    path = tmp_path / "solo.txt"
    path.write_text("init n=1 protocol=ckcs seed=1 root_code=12\njoin 2\n")
    assert main(["run", str(path)]) == EXIT_RUN
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("run failed: a one-member tree has no node to take root code '12'")
    assert "trace digest" not in captured.out


def test_run_missing_scenario(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.txt")]) == EXIT_RUN
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("init n=4 protocol=warp seed=1\n")
    assert main(["run", str(path)]) == EXIT_RUN
    assert "bad scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "init n=abc protocol=lkh seed=1\n",
        "init n=4 protocol=lkh seed=x\n",
        "init n=4 protocol=lkh seed=1 bogus=1\n",
        "init n=4 protocol=lkh seed=1\njoin 2 3\n",
        "init n=4 protocol=lkh seed=1\nleave 1 layout=random layout=best-half\n",
    ],
)
def test_run_strict_grammar_exits_4_without_traceback(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert "bad scenario: line 1" in err or "bad scenario: line 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "init n=100000000000000000000 protocol=lkh seed=1\n",
        f"init n={MAX_GROUP_SIZE} protocol=oft seed=1\njoin 1\n",
        "init n=" + "9" * 5000 + " protocol=lkh seed=1\n",
    ],
)
def test_run_oversized_group_fails_fast(tmp_path, capsys, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["run", str(path)]) == EXIT_RUN
    assert time.perf_counter() - start < 5
    assert "bad scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header", ["init n=4 protocol=ckcs seed=1 root_code=" + "1" * 32, "init n=2 protocol=ckcs seed=1 root_code=" + "1" * 33]
)
def test_run_overlong_root_code_exits_4(tmp_path, capsys, header):
    path = tmp_path / "long.txt"
    path.write_text(header + "\njoin 1\n")
    assert main(["run", str(path)]) == EXIT_RUN
    # 32 digits parse but leave no room for a child's digit; 33 do not parse
    expected = "run failed" if header.endswith("=" + "1" * 32) else "bad scenario"
    assert expected in capsys.readouterr().err


def test_run_failing_event(tmp_path, capsys):
    path = tmp_path / "ghostleave.txt"
    path.write_text("init n=4 protocol=lkh seed=1\nleave ids=ghost\n")
    assert main(["run", str(path)]) == EXIT_RUN
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ids, message",
    [
        ("u1,u1", "duplicate member ids in one event"),
        ("u2,ghost", "cannot remove unknown members"),
        # the trace digest writes recipient ids unescaped, which is exact
        # only because an id that JSON would escape never reaches a delivery
        ('u1,"x', "cannot remove unknown members"),
        ("u1,\\x", "cannot remove unknown members"),
        ("u1,\u00fc", "cannot remove unknown members"),
        ("\u0661", "cannot remove unknown members"),
    ],
)
def test_run_bad_leave_ids_exit_4(tmp_path, capsys, ids, message):
    path = tmp_path / "badleave.txt"
    path.write_text(f"init n=4 protocol=okd seed=1\nleave ids={ids}\n", encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _gkms_subprocess(argv, timeout):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "gkms.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_ckcs_out_of_root_codes_exits_4_without_hanging(tmp_path):
    # each lineage of 1-digit codes runs out after a few joins; by the 80th
    # join all ten 1-digit codes are used and no fresh root code is left
    path = tmp_path / "joins.txt"
    path.write_text("init n=64 protocol=ckcs seed=1\n" + "join 1\n" * 80)
    proc = _gkms_subprocess(["run", str(path)], timeout=5)
    assert proc.returncode == EXIT_RUN
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "run failed: event 80: no 8-digit root code is left that is prefix-disjoint "
        "from every code used so far"
    ]


def test_audit_trace_that_cannot_run_exits_4(tmp_path):
    proc = _gkms_subprocess(["audit", "--max-events", "400", "--trials", "1", "--seed", "7"], timeout=60)
    assert proc.returncode == EXIT_RUN
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("audit failed: scenario seed 7000000: event ")


def test_shipped_scenarios_run_clean(capsys):
    from pathlib import Path

    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(str(p) for p in scenario_dir.glob("*.txt"))
    assert len(paths) >= 4
    for path in paths:
        assert main(["run", path]) == EXIT_OK, path
        assert "probes: all passed" in capsys.readouterr().out


def test_sweep_writes_csv_and_notes(tmp_path, capsys):
    rc = main(
        [
            "--output-dir",
            str(tmp_path),
            "sweep",
            "--protocols",
            "ckcs",
            "--n",
            "8,16",
            "--m",
            "2,4",
            "--ops",
            "join,leave",
            "--seed",
            "5",
            "--out",
            "grid.csv",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "seed: 5" in out
    assert f"wrote 8 rows to {tmp_path / 'grid.csv'}" in out
    csv_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS + SWEEP_EXTRA_COLUMNS)
    assert len(csv_lines) == 9
    notes = (tmp_path / "grid.notes.txt").read_text()
    assert "ckcs leave n=8 m=2" in notes


def test_sweep_output_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GKMS_OUTPUT_DIR", str(tmp_path / "sub"))
    rc = main(["sweep", "--protocols", "lkh", "--n", "8", "--m", "2", "--ops", "join", "--seed", "1"])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "sub" / "sweep.csv").exists()
    assert (tmp_path / "sub" / "sweep.notes.txt").exists()


def test_sweep_rejects_bad_grid(capsys):
    assert main(["sweep", "--n", "8", "--m", "two", "--seed", "1"]) == EXIT_SWEEP
    assert "sweep failed" in capsys.readouterr().err
    assert main(["sweep", "--protocols", "warp", "--n", "8", "--m", "2", "--seed", "1"]) == EXIT_SWEEP
    assert "sweep failed" in capsys.readouterr().err



@pytest.mark.parametrize("dest", ["file-as-output-dir", "missing-subdir"])
def test_sweep_unwritable_destination_exits_5_without_traceback(tmp_path, capsys, monkeypatch, dest):
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran before the destination was checked")

    monkeypatch.setattr(harness, "_sweep_cell", no_cell)
    (tmp_path / "taken").write_text("")
    where = (
        ["--output-dir", str(tmp_path / "taken"), "sweep"]
        if dest == "file-as-output-dir"
        else ["--output-dir", str(tmp_path), "sweep", "--out", "nodir/x.csv"]
    )
    grid = ["--protocols", "lkh", "--n", "8", "--m", "2", "--ops", "join", "--seed", "1"]
    assert main([*where, *grid]) == EXIT_SWEEP
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("sweep failed: cannot write output: ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("earlier", [True, False])
def test_failing_sweep_keeps_earlier_output(tmp_path, capsys, earlier):
    # the m=2 cell runs, then best-half cannot take 200 of 256 members
    earlier_files = {"sweep.csv": b"earlier rows\n", "sweep.notes.txt": b"earlier notes\n"}
    if earlier:
        for name, data in earlier_files.items():
            (tmp_path / name).write_bytes(data)
    grid = ["--protocols", "lkh", "--n", "256", "--m", "2,200", "--ops", "leave",
            "--layout", "best-half", "--seed", "1"]
    assert main(["--output-dir", str(tmp_path), "sweep", *grid]) == EXIT_SWEEP
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("sweep failed: best-half infeasible")
    left = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert left == (earlier_files if earlier else {})


@pytest.mark.parametrize(
    "grid",
    [
        ["--protocols", ","],
        ["--protocols", ""],
        ["--ops", ","],
        ["--n", ","],
        ["--m", ""],
        ["--n", str(MAX_GROUP_SIZE), "--m", "1"],
        ["--n", "100000000000000000000", "--m", "16"],
        ["--protocols", "lkh,warp"],
        ["--ops", "join,frob"],
        ["--n", "256,0"],
        ["--m", "0"],
        ["--m", "16,-1"],
    ],
)
def test_sweep_rejects_empty_or_oversized_grid(tmp_path, capsys, grid):
    start = time.perf_counter()
    assert main(["--output-dir", str(tmp_path), "sweep", "--seed", "1", *grid]) == EXIT_SWEEP
    assert time.perf_counter() - start < 5
    assert "sweep failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_worst_spread_sweep_at_scale_is_fast(tmp_path):
    # one worst-spread leave of 512 out of 4096 members; the O(m·n·depth)
    # greedy that re-scores every leaf per pick took about 15 s on 2 vCPUs
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "gkms.cli", "--output-dir", str(tmp_path), "sweep",
         "--protocols", "ckcs", "--ops", "leave", "--layout", "worst-spread",
         "--n", "4096", "--m", "512", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("ckcs,4096,512,leave,")


def test_audit_clean_corpus(capsys):
    rc = main(["audit", "--trials", "6", "--max-n", "16", "--seed", "11"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "seed: 11" in out
    assert "audit: 6 traces" in out
    assert "all secure" in out


def test_audit_codes_public_reports_breaches(capsys):
    rc = main(["audit", "--trials", "4", "--max-n", "16", "--seed", "17", "--codes-public"])
    assert rc == EXIT_AUDIT
    out = capsys.readouterr().out
    assert "BREACH" in out
    assert "--- breach in scenario seed" in out


@pytest.mark.parametrize(
    "argv",
    [["--max-n", "1"], ["--max-events", "0"], ["--trials", "-3"], ["--trials", "0"]],
)
def test_audit_rejects_out_of_range_arguments(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(["audit", *argv, "--seed", "1"])
    assert info.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_audit_output_is_identical_across_hash_seeds():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "gkms.cli", "audit", "--codes-public",
             "--trials", "10", "--seed", "7", "--max-n", "32"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == EXIT_AUDIT, proc.stderr
        outputs.append(re.sub(r", [0-9.]+s$", ", <elapsed>", proc.stdout, flags=re.M))
    assert "BREACH" in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(Path(__file__).resolve().parent.parent / "scenarios" / "mixed_churn.txt")],
        ["audit", "--codes-public", "--trials", "3", "--seed", "7", "--max-n", "32"],
    ],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader is gone before the first write, as under ``| head`` once it
    # has its lines
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkms.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gkms.cli", "vectors"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "golden vectors: 15 ok" in proc.stdout
