"""End-to-end runs of the command-line entry point.

Everything goes through main(argv) so the tests exercise argument wiring,
exit codes, and the exact bytes written to stdout.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import stat
import sys
import tempfile
import threading
import time
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_signals import (DiagonalLetters, OverflowHorizon, analysis,
                        builtin_log2, cli, engine, follower_for_xy, run,
                        run_probes, serialize_rules, verify_bounds)
from ca_signals.automaton import RuleTable
from ca_signals.engine import diagonal_start
from ca_signals.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_OK, EXIT_OVERFLOW,
                            _join_option_values, main, parse_ca_spec)
from ca_signals.lattice import Neighborhood, format_offset, offsets
from ca_signals.verification import CLAIMS

from tables import random_impulse_ca
from test_acceptance import FULL_SEARCH_DIGEST

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

pytestmark = pytest.mark.usefixtures("no_env_budget")


@pytest.fixture
def no_env_budget(monkeypatch):
    monkeypatch.delenv("CA_SIGNALS_MEM_BUDGET", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _exit_code(argv) -> int:
    """main's exit code, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# --- simulate -----------------------------------------------------------------


def test_simulate_emits_all_slices(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "3")
    assert code == EXIT_OK
    slices = json.loads(out)
    assert [s["t"] for s in slices] == [0, 1, 2, 3]
    assert slices[0]["cells"] == [{"u": [0, 0], "s": "1"}]
    t1 = {tuple(c["u"]): c["s"] for c in slices[1]["cells"]}
    assert t1 == {(1, -1): "1", (1, 1): "0"}


def test_simulate_is_byte_deterministic(capsys):
    a = run_cli(capsys, "simulate", "--ca", "xy:2,3", "--steps", "6")
    b = run_cli(capsys, "simulate", "--ca", "xy:2,3", "--steps", "6")
    assert a == b
    assert a[0] == EXIT_OK


def test_simulate_dense_engine_gives_same_bytes(capsys):
    _, sparse, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "8")
    _, dense, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "8",
                          "--dense")
    assert sparse == dense


def test_simulate_check_mode(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "40",
                           "--check")
    assert code == EXIT_OK and json.loads(out)[-1]["t"] == 40
    assert (code, out) == run_cli(capsys, "simulate", "--ca", "log2",
                                  "--steps", "40")[:2]


def _bad_step(ca, sl, *_args):
    # one live cell off the trellis parity class
    return (engine.pack_cells(np.array([[0, 0]]), 2), np.array([1], np.uint8))


def test_simulate_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(engine, "_step", _bad_step)
    code, _, err = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "2",
                           "--check")
    assert code == EXIT_FAIL
    assert err == "error: cell (0, 0) parity-invalid at t=1\n"


def test_simulate_check_rejects_a_cell_off_the_light_cone(capsys, tmp_path,
                                                          monkeypatch):
    # a Moore CA has no parity class, so only the light cone can be broken
    path = tmp_path / "moore.rules"
    path.write_text("states: λ a\nseed: a\nneighborhood: moore 2\n"
                    f"rule: {' '.join(['λ'] * 9)} -> λ\n"
                    f"rule: {' '.join(['*'] * 9)} -> a\n", encoding="utf-8")
    argv = ("simulate", "--ca", f"file:{path}", "--steps", "3", "--check")
    assert run_cli(capsys, *argv)[0] == EXIT_OK

    def bad_step(ca, sl, *_args):
        # the cone at t=1 is [-1, 1]^2; (1, 0) is inside, (1, 2) is not
        return (engine.pack_cells(np.array([[1, 0], [1, 2]]), 2),
                np.array([1, 1], np.uint8))

    monkeypatch.setattr(engine, "_step", bad_step)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_FAIL and out == ""
    assert err == "error: cell (1, 2) outside light cone at t=1\n"


def test_simulate_out_file(capsys, tmp_path):
    target = tmp_path / "diag.json"
    code, out, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "4",
                           "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())[-1]["t"] == 4


def test_simulate_writes_the_same_text_to_any_stdout(capsys, tmp_path):
    """The spooled bytes reach stdout's binary buffer, a stand-in stdout
    with no buffer (``io.StringIO``) and ``--out`` as the same text, with
    its two-byte symbols, for a whole dump of more than one 64 KiB read and
    a truncated one."""
    for budget, rc in ((), EXIT_OK), (("--budget", "2500"), EXIT_OVERFLOW):
        argv = ("simulate", "--ca", "xy:2,3", "--steps", "600", *budget)
        code, want, _ = run_cli(capsys, *argv)
        assert code == rc and len(want.encode()) > 1 << 16 and "π" in want
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == rc
        assert text.getvalue() == want
        target = tmp_path / "dump.json"
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (rc, "")
        assert target.read_bytes() == want.encode()


def test_simulate_budget_overflow_keeps_prefix(capsys):
    code, out, err = run_cli(capsys, "simulate", "--ca", "log2",
                             "--steps", "64", "--budget", "50")
    assert code == EXIT_OVERFLOW
    assert "error:" in err
    obj = json.loads(out)
    assert obj["truncated"] is True
    assert obj["budget"] == 50
    times = [s["t"] for s in obj["slices"]]
    assert times == list(range(len(times))) and times


def test_env_budget_is_honored_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("CA_SIGNALS_MEM_BUDGET", "50")
    code, _, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "64")
    assert code == EXIT_OVERFLOW
    code, _, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "64",
                         "--budget", "1000000")
    assert code == EXIT_OK


def test_bad_ca_spec_is_config_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--ca", "bogus", "--steps", "4")
    assert code == EXIT_CONFIG and "error:" in err


def test_timestamps_only_touch_object_reports(capsys):
    _, plain, _ = run_cli(capsys, "search")
    _, stamped, _ = run_cli(capsys, "search", "--timestamps")
    a, b = json.loads(plain), json.loads(stamped)
    assert "generated_at" not in a and "generated_at" in b
    b.pop("generated_at")
    assert a == b


def test_bad_site_budgets_are_config_errors(capsys, monkeypatch):
    argv = ("simulate", "--ca", "log2", "--steps", "8")
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert code == EXIT_CONFIG and out == ""
    assert "error: --budget must be >= 0, got -1" in err
    monkeypatch.setenv("CA_SIGNALS_MEM_BUDGET", "-5")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert "error: CA_SIGNALS_MEM_BUDGET must be >= 0, got -5" in err


def test_non_integer_env_budget_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setenv("CA_SIGNALS_MEM_BUDGET", "abc")
    code, out, err = run_cli(capsys, "simulate", "--ca", "log2",
                             "--steps", "8")
    assert code == EXIT_CONFIG and out == ""
    assert "error: CA_SIGNALS_MEM_BUDGET must be an integer, got 'abc'" in err


def test_zero_budget_keeps_only_the_seed(capsys):
    code, out, err = run_cli(capsys, "simulate", "--ca", "log2",
                             "--steps", "8", "--budget", "0")
    assert code == EXIT_OVERFLOW and "site budget 0 exhausted" in err
    assert json.loads(out) == {"truncated": True, "budget": 0, "slices": [
        {"t": 0, "cells": [{"u": [0, 0], "s": "1"}]}]}


# --- simulate output bytes against a JSON-object oracle ----------------------


def _oracle_obj(diag) -> list:
    """The dump's structure built as Python objects, one dict per cell."""
    return [{"t": t, "cells": [{"u": list(u), "s": s}
                               for u, s in diag.view(t).cells()]}
            for t in range(diag.horizon + 1)]


def _encode(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _random_specs(tmp_path, kind, dim):
    """Rule-file specs of twelve random tables of one neighborhood (a
    two-argument trellis-1 table first shows two live states at the ninth)."""
    rng = random.Random(20240817)
    specs = []
    for j in range(12):
        path = tmp_path / f"{kind}-{dim}-{j}.rules"
        ca = random_impulse_ca(rng, neigh=Neighborhood(kind, dim))
        path.write_text(serialize_rules(ca), encoding="utf-8")
        specs.append(f"file:{path}")
    return specs


def _assert_dump_matches_oracle(capsys, tmp_path, spec, steps):
    diag = run(parse_ca_spec(spec), steps)
    want = _encode(_oracle_obj(diag))
    assert diag.dumps() == want, spec
    argv = ("simulate", "--ca", spec, "--steps", str(steps))
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out == want + "\n", spec
    target = tmp_path / "dump.json"
    assert run_cli(capsys, *argv, "--out", str(target))[:2] == (EXIT_OK, "")
    assert target.read_bytes() == out.encode("utf-8")
    return diag


@pytest.mark.parametrize("spec,steps", [
    ("log2", 20), ("xy:2,3", 12), ("quiescent", 6)])
def test_dump_bytes_match_the_oracle(capsys, tmp_path, spec, steps):
    diag = _assert_dump_matches_oracle(capsys, tmp_path, spec, steps)
    if spec == "xy:2,3":        # its symbols are written unescaped
        assert any(not s.isascii() for t in range(steps + 1)
                   for _, s in diag.view(t).cells())
    if spec == "quiescent":
        assert diag.total_sites == 0


@pytest.mark.parametrize("kind,dim,steps", [
    (kind, dim, (16, 8, 6)[dim - 1])
    for kind in ("moore", "von_neumann", "trellis") for dim in (1, 2, 3)])
def test_dump_bytes_match_the_oracle_on_random_tables(capsys, tmp_path, kind,
                                                      dim, steps):
    varied = []
    for spec in _random_specs(tmp_path, kind, dim):
        diag = _assert_dump_matches_oracle(capsys, tmp_path, spec, steps)
        varied.append(len({s for t in range(steps + 1)
                           for _, s in diag.view(t).cells()}) >= 2)
    assert any(varied), "no table shows two distinct live states"


def test_dump_escapes_quotes_and_backslashes(capsys, tmp_path):
    # rule-file symbols may hold '"' and '\\', which JSON must escape
    path = tmp_path / "escapes.rules"
    path.write_text('states: λ a" b\\ "\\\nseed: a"\nneighborhood: moore 1\n'
                    'rule: λ λ λ -> λ\nrule: * a" * -> b\\\n'
                    'rule: * b\\ * -> "\\\nrule: * * * -> a"\n',
                    encoding="utf-8")
    diag = _assert_dump_matches_oracle(capsys, tmp_path, f"file:{path}", 6)
    assert {s for t in range(7) for _, s in diag.view(t).cells()} == {
        'a"', "b\\", '"\\'}


def test_dump_tables_are_sized_by_the_live_extent(tmp_path, monkeypatch):
    # the coordinate tables cover the largest live |u_a|, whatever the horizon
    sizes = []

    def record(m):
        sizes.append(m)
        return coord_tables(m)

    coord_tables = engine._coord_tables
    monkeypatch.setattr(engine, "_coord_tables", record)
    still = tmp_path / "still.rules"
    still.write_text("states: λ a\nseed: a\nneighborhood: moore 1\n"
                     "rule: λ a λ -> a\nrule: * * * -> λ\n", encoding="utf-8")
    for spec, steps, extent in (("quiescent", 3000, 0),
                                (f"file:{still}", 3000, 0), ("log2", 40, 40)):
        sizes.clear()
        diag = run(parse_ca_spec(spec), steps)
        text = diag.dumps()
        assert extent == max((max(map(abs, u)) for t in range(steps + 1)
                              for u, _ in diag.view(t).cells()), default=0)
        assert sizes[0] == 0 and max(sizes) <= 2 * extent, spec
        assert sum(2 * m + 1 for m in sizes) < len(text)


@pytest.mark.parametrize("spec,steps,budget", [
    ("log2", 3, 2), ("log2", 64, 50), ("xy:2,3", 20, 30), ("log2", 8, 0)])
def test_dense_truncated_dump_matches_the_sparse_one(capsys, tmp_path, spec,
                                                     steps, budget):
    argv = ["simulate", "--ca", spec, "--steps", str(steps),
            "--budget", str(budget)]
    sparse = run_cli(capsys, *argv)
    assert sparse[0] == EXIT_OVERFLOW and json.loads(sparse[1])["truncated"]
    assert run_cli(capsys, *argv, "--dense") == sparse
    target = tmp_path / "dense.json"
    assert run_cli(capsys, *argv, "--dense", "--out", str(target))[0] == \
        EXIT_OVERFLOW
    assert target.read_bytes() == sparse[1].encode("utf-8")


def test_simulate_dense_check_checks_the_dense_run(capsys, monkeypatch):
    argv = ("simulate", "--ca", "log2", "--steps", "12", "--dense")
    plain = run_cli(capsys, *argv)
    assert plain[0] == EXIT_OK and run_cli(capsys, *argv, "--check") == plain
    apply = RuleTable.apply

    def waking(self, neighbors):
        # a fault only the dense engine meets: an all-quiescent neighborhood
        # wakes, so every parity-invalid cell of the cone goes live
        return apply(self, neighbors) if set(neighbors) != {"λ"} else "1"

    # the CA is built, and its table checked, before the fault
    ca = parse_ca_spec("log2")
    monkeypatch.setattr(cli, "parse_ca_spec", lambda _spec: ca)
    monkeypatch.setattr(RuleTable, "apply", waking)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    code, out, err = run_cli(capsys, *argv, "--check")
    assert code == EXIT_FAIL and out == ""
    assert err == "error: cell (-1, 0) parity-invalid at t=1\n"


@pytest.mark.parametrize("stamp", [False, True], ids=["plain", "timestamps"])
def test_truncated_dump_matches_the_oracle(capsys, tmp_path, stamp):
    with pytest.raises(OverflowHorizon) as info:
        run(builtin_log2(), 64, budget=50)
    obj = {"truncated": True, "budget": 50,
           "slices": _oracle_obj(info.value.partial)}
    want = _encode(obj) + "\n"
    argv = ["simulate", "--ca", "log2", "--steps", "64", "--budget", "50"]
    if stamp:
        argv.append("--timestamps")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OVERFLOW
    target = tmp_path / "dump.json"
    assert run_cli(capsys, *argv, "--out", str(target))[0] == EXIT_OVERFLOW
    got = json.loads(out)
    if stamp:
        assert list(got) == ["truncated", "budget", "slices", "generated_at"]
        datetime.fromisoformat(got["generated_at"])
        cut = out.index(',"generated_at"')
        assert out[:cut] + "}\n" == want
        assert out.endswith('"}\n')
        assert target.read_bytes()[:cut] == out[:cut].encode("utf-8")
    else:
        assert list(got) == ["truncated", "budget", "slices"]
        assert out == want
        assert target.read_bytes() == out.encode("utf-8")


def test_full_size_dump_matches_the_benchmark_digest(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    dump = mod.WORKLOADS["dump"]
    target = tmp_path / "dump.json"
    argv = ["simulate", "--ca", "log2", "--steps", str(dump.size["steps"]),
            "--out", str(target)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == dump.digest


def test_dump_retains_no_slice(tmp_path):
    # retaining the whole diagram, as a dump once did, peaks at about 5 MB
    target = tmp_path / "dump.json"
    tracemalloc.start()
    try:
        code = main(["simulate", "--ca", "log2", "--steps", "384",
                     "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak <= 2 * 10**6


@pytest.mark.parametrize("fault", ["check", "raise", "overflow"])
def test_a_failed_dump_leaves_out_as_it_was(capsys, tmp_path, monkeypatch,
                                            fault):
    target = tmp_path / "dump.json"
    target.write_bytes(b"kept\n")
    argv = ["simulate", "--ca", "log2", "--steps", "64", "--out", str(target)]
    if fault == "check":
        monkeypatch.setattr(engine, "_step", _bad_step)
        code, out, err = run_cli(capsys, *argv, "--check")
        assert (code, out) == (EXIT_FAIL, "") and "parity-invalid" in err
    elif fault == "raise":
        step, seen = engine._step, []

        def fail(*args):
            seen.append(1)
            if len(seen) == 5:
                raise RuntimeError("step failed")
            return step(*args)
        monkeypatch.setattr(engine, "_step", fail)
        with pytest.raises(RuntimeError, match="step failed"):
            main(argv)
    else:
        wrapper = run_cli(capsys, *argv[:-2], "--budget", "50")[1]
        assert run_cli(capsys, *argv, "--budget", "50")[0] == EXIT_OVERFLOW
        assert target.read_text(encoding="utf-8") == wrapper
    if fault != "overflow":
        assert target.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["dump.json"]


def test_a_bad_out_fails_before_the_first_step(
        capsys, tmp_path, monkeypatch):
    # a step of either engine would raise
    monkeypatch.setattr(engine, "_step", None)
    monkeypatch.setattr(engine, "dense_run", None)
    for target in (tmp_path / "missing" / "dump.json", tmp_path):
        for dense in ((), ("--dense",)):
            code, out, err = run_cli(
                capsys, "simulate", "--ca", "log2", "--steps", "8", *dense,
                "--out", str(target))
            assert (code, out) == (EXIT_CONFIG, "") and "error:" in err
    assert not any(tmp_path.iterdir())


def test_dump_out_keeps_what_opening_it_for_writing_keeps(capsys, tmp_path):
    argv = ("simulate", "--ca", "log2", "--steps", "6")
    want = run_cli(capsys, *argv)[1].encode("utf-8")
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    kept.chmod(0o640)
    inode = kept.stat().st_ino
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(kept)
    os.link(kept, hard)
    new = tmp_path / "new.json"
    mask = os.umask(0o027)
    try:
        for out in (link, new):
            assert run_cli(capsys, *argv, "--out", str(out))[:2] == (
                EXIT_OK, "")
    finally:
        os.umask(mask)
    # written in place: the inode, and with it every hard link, is kept
    assert link.is_symlink() and kept.stat().st_ino == inode
    assert kept.read_bytes() == hard.read_bytes() == want
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert new.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "hard.json", "kept.json", "link.json", "new.json"]


@pytest.mark.parametrize("budget", [[], ["--budget", "20"]],
                         ids=["whole", "truncated"])
def test_dump_out_copies_into_a_fifo_or_stdout(capfd, tmp_path, budget):
    argv = ("simulate", "--ca", "log2", "--steps", "6", *budget)
    code, want, _ = run_cli(capfd, *argv)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        assert run_cli(capfd, *argv, "--out", str(fifo))[0] == code
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive() and got == [want.encode("utf-8")]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
    # under capfd, fd 1 is an unlinked file: /dev/stdout writes into it
    assert main([*argv, "--out", "/dev/stdout"]) == code
    assert capfd.readouterr().out == want


# --- render -------------------------------------------------------------------


def test_render_slice_texts(capsys):
    code, out, _ = run_cli(capsys, "render", "--ca", "log2",
                           "--mode", "slice", "--t", "0")
    assert code == EXIT_OK and out == "1\n"
    _, out, _ = run_cli(capsys, "render", "--ca", "log2",
                        "--mode", "slice", "--t", "3")
    rows = out.splitlines()
    assert rows[4] == "..0.1.."
    assert rows[6] == "1.0.1.0"
    assert all(len(r) == 7 for r in rows) and len(rows) == 7
    _, out, _ = run_cli(capsys, "render", "--ca", "quiescent",
                        "--mode", "slice", "--t", "2")
    assert out == ("....." + "\n") * 5


def test_render_slice_pads_wide_state_names(capsys):
    code, out, _ = run_cli(capsys, "render", "--ca", "xy:2,3",
                           "--mode", "slice", "--t", "1")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert len(rows) == 3
    assert rows[2].split() == ["κ_1", ".", "π_2"]


def test_render_wplane(capsys):
    code, out, _ = run_cli(capsys, "render", "--ca", "log2",
                           "--mode", "wplane", "--k", "5")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "011.....", "000.....", "000.....", "000....."]


def test_render_wplane_stops_at_its_last_read(capsys):
    # rows l=0..3 of width 8 at k=5 end at t = 5 + 7 + 3 = 15, whose slice
    # holds 47 cells; slice 16 holds 51, so stepping on would overflow
    wplane = ("render", "--ca", "log2", "--mode", "wplane", "--k", "5")
    _, want, _ = run_cli(capsys, *wplane)
    assert run_cli(capsys, *wplane, "--steps", "3000", "--budget", "47") == (
        EXIT_OK, want, "")
    code, out, _ = run_cli(capsys, *wplane, "--steps", "3000",
                           "--budget", "46")
    assert code == EXIT_OVERFLOW and out == ""


@pytest.mark.parametrize("flag,value,low", [
    ("--k", "-1", 0), ("--rows", "0", 1), ("--width", "0", 1)])
def test_render_wplane_names_the_bad_flag(capsys, flag, value, low):
    argv = ["render", "--ca", "log2", "--mode", "wplane", "--k", "5"]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: {flag} must be >= {low}, got {value}\n"


def test_render_ppm_frames(capsys, tmp_path):
    d = tmp_path / "frames"
    code, out, _ = run_cli(capsys, "render", "--ca", "log2", "--mode", "ppm",
                           "--steps", "2", "--out-dir", str(d))
    assert code == EXIT_OK
    manifest = json.loads(out)
    assert manifest == {"frames": 3, "size": [5, 5],
                        "palette": "palette.json"}
    names = sorted(p.name for p in d.iterdir())
    assert names == ["palette.json", "slice_0000.ppm", "slice_0001.ppm",
                     "slice_0002.ppm"]
    head = b"P6\n5 5\n255\n"
    blob = (d / "slice_0000.ppm").read_bytes()
    assert blob.startswith(head) and len(blob) == len(head) + 3 * 25
    palette = json.loads((d / "palette.json").read_text())
    assert palette["λ"] == [255, 255, 255]


@pytest.mark.parametrize("flag", ["no", 0.0, 1, None, [True]])
def test_render_in_takes_truncated_only_as_a_bool(capsys, tmp_path, flag):
    saved = tmp_path / "diag.json"
    run_cli(capsys, "simulate", "--ca", "log2", "--steps", "3",
            "--out", str(saved))
    slices = json.loads(saved.read_text())
    render = ("render", "--ca", "log2", "--mode", "slice", "--t", "3",
              "--in", str(saved))
    _, want, _ = run_cli(capsys, *render)
    for ok in (True, False):
        saved.write_text(json.dumps({"truncated": ok, "slices": slices}))
        assert run_cli(capsys, *render) == (EXIT_OK, want, "")
    saved.write_text(json.dumps({"truncated": flag, "slices": slices}))
    code, out, err = run_cli(capsys, *render)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith('error: a dump wrapper must be {"truncated": bool}')


def test_render_from_saved_diagram(capsys, tmp_path):
    saved = tmp_path / "diag.json"
    run_cli(capsys, "simulate", "--ca", "log2", "--steps", "3",
            "--out", str(saved))
    _, direct, _ = run_cli(capsys, "render", "--ca", "log2",
                           "--mode", "slice", "--t", "3")
    _, loaded, _ = run_cli(capsys, "render", "--ca", "log2",
                           "--mode", "slice", "--t", "3", "--in", str(saved))
    assert direct == loaded


def test_render_rejects_a_wrapped_coordinate(capsys, tmp_path):
    saved = tmp_path / "diag.json"
    saved.write_text(json.dumps(
        [{"t": 0, "cells": [{"u": [2**31, 0], "s": "1"}]}]))
    code, out, err = run_cli(capsys, "render", "--ca", "log2",
                             "--mode", "slice", "--t", "0", "--in", str(saved))
    assert code == EXIT_CONFIG and out == ""
    assert "light cone" in err


@pytest.mark.parametrize("flags,steps", [
    (("--mode", "slice", "--t", "5"), 7),
    (("--mode", "ppm"), 5),
    (("--mode", "wplane", "--k", "6", "--rows", "3"), 15),
], ids=["slice", "ppm", "wplane"])
def test_fresh_renders_stream_what_a_saved_dump_renders(capsys, tmp_path,
                                                        monkeypatch, flags,
                                                        steps):
    saved = tmp_path / "diag.json"
    run_cli(capsys, "simulate", "--ca", "log2", "--steps", str(steps),
            "--out", str(saved))
    base = ("render", "--ca", "log2", *flags)
    loaded = run_cli(capsys, *base, "--in", str(saved),
                     "--out-dir", str(tmp_path / "loaded"))

    def refuse(*_args, **_kwargs):
        raise AssertionError("render retained a SpaceTimeDiagram")

    monkeypatch.setattr(engine.SpaceTimeDiagram, "__init__", refuse)
    # wplane steps as far as its rows need when --steps is not given
    fresh_steps = () if flags[1] == "wplane" else ("--steps", str(steps))
    fresh = run_cli(capsys, *base, *fresh_steps,
                    "--out-dir", str(tmp_path / "fresh"))
    assert fresh == loaded and fresh[0] == EXIT_OK
    frames = [{p.name: p.read_bytes() for p in (tmp_path / d).glob("*")}
              for d in ("loaded", "fresh")]
    assert frames[0] == frames[1]
    assert len(frames[0]) == (steps + 2 if flags[1] == "ppm" else 0)


# --- malformed JSON inputs ---------------------------------------------------

RENDER_IN = ("render", "--ca", "log2", "--mode", "slice", "--t", "0", "--in")
GAP_SIGNAL = ("analyze", "gap", "--signal")
FOLLOWER = ("follow", "--ca", "log2", "--steps", "4", "--follower")


def _follower_with(**fields):
    row = {"q": "a", "s": "λ", "q2": "a", "move": [-1, -1]}
    obj = {"states": ["a"], "initial": "a", "delta": [row]}
    if "move" in fields:
        row["move"] = fields.pop("move")
    obj.update(fields)
    return obj


@pytest.mark.parametrize("argv,obj,why", [
    (RENDER_IN, [1], "a slice must be"),
    (RENDER_IN, {"slices": 5}, "diagram slices must be a list, got 5"),
    (RENDER_IN, [{"t": 0, "cells": [{"u": 5, "s": "1"}]}],
     "a cell of slice t=0 must be"),
    (RENDER_IN, [{"t": 0, "cells": [{"u": [0, 0], "s": ["1"]}]}],
     "a cell of slice t=0 must be"),
    (RENDER_IN, [{"t": 0, "cells": 5}], "a slice must be"),
    (GAP_SIGNAL, [1], "a signal site must be"),
    (GAP_SIGNAL, [{"t": 0, "u": 5}], "a signal site must be"),
    (GAP_SIGNAL, {"a": 1}, "a signal must be a list"),
    (FOLLOWER, [1], "a follower must be"),
    (FOLLOWER, _follower_with(move=5), "a follower transition must be"),
    (FOLLOWER, _follower_with(delta=5), "a follower must be"),
], ids=["render-list-of-int", "render-slices-int", "render-u-int",
        "render-s-list", "render-cells-int", "gap-list-of-int", "gap-u-int",
        "gap-object", "follower-list", "follower-move-int",
        "follower-delta-int"])
def test_malformed_json_inputs_exit_2(capsys, tmp_path, argv, obj, why):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and why in err


# --- detect / follow ----------------------------------------------------------


def test_detect_default_partition(capsys):
    code, out, _ = run_cli(capsys, "detect", "--ca", "log2", "--steps", "4")
    assert code == EXIT_OK
    sites = [tuple(r["u"]) for r in json.loads(out)]
    assert sites == [(0, 0), (1, 1), (0, 0), (1, 1), (2, 2)]


def test_detect_requires_partition_for_other_cas(capsys):
    code, _, err = run_cli(capsys, "detect", "--ca", "quiescent",
                           "--steps", "4")
    assert code == EXIT_CONFIG and "--partition" in err


def test_detect_explicit_partition_and_convention(capsys):
    _, neg, _ = run_cli(capsys, "detect", "--ca", "quiescent", "--steps", "3",
                        "--partition", "lambda:(-1,-1)")
    assert [tuple(r["u"]) for r in json.loads(neg)] == [
        (0, 0), (1, 1), (2, 2), (3, 3)]
    # the one step is u - x; an as-written walk negates the partition
    _, asw, _ = run_cli(capsys, "detect", "--ca", "quiescent", "--steps", "3",
                        "--partition", "lambda:(1,1)")
    assert [tuple(r["u"]) for r in json.loads(asw)] == [
        (0, 0), (-1, -1), (-2, -2), (-3, -3)]


@pytest.mark.parametrize("argv", [
    ("detect", "--ca", "log2", "--steps", "4"),
    ("follow", "--ca", "xy:2,3", "--steps", "4"),
    ("analyze", "gap", "--ca", "log2", "--steps", "64"),
], ids=["detect", "follow", "gap"])
def test_convention_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--convention", "aswritten"])
    assert exc.value.code == EXIT_CONFIG
    assert "--convention" in capsys.readouterr().err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_as_written_detect_bytes_equal_the_negated_partition(capsys):
    # the digest of `detect --ca log2 --steps 64 --partition
    # "0:(-1,-1);1:(1,1);lambda:(-1,-1)" --convention aswritten` before that
    # flag was removed
    code, out, _ = run_cli(capsys, "detect", "--ca", "log2", "--steps", "64",
                           "--partition", "0:(1,1);1:(-1,-1);lambda:(1,1)")
    assert code == EXIT_OK
    assert _sha256(out) == (
        "798a13937f063c1a448553574b2a10e21862e2828f2c0b160e3805fde31ecf37")


def test_as_written_follow_bytes_equal_the_negated_follower(capsys, tmp_path):
    # the digest of `follow --ca xy:2,3 --steps 64 --convention aswritten`
    # with the xy:2,3 follower's moves negated, before that flag was removed
    fol = tmp_path / "follower.json"
    fol.write_text(follower_for_xy(2, 3).dumps(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "follow", "--ca", "xy:2,3", "--steps",
                           "64", "--follower", str(fol))
    assert code == EXIT_OK
    assert _sha256(out) == (
        "cd0f251e238852f8fe678cef5278391256335555d5bb7114c433f52cd1260320")


@pytest.mark.parametrize("move", [[5, 5], [-1, -1, 7]],
                         ids=["off-the-cone", "three-coordinates"])
def test_follow_rejects_moves_off_the_neighborhood(capsys, tmp_path, move):
    path = tmp_path / "follower.json"
    path.write_text(json.dumps({"states": ["a"], "initial": "a", "delta": [
        {"q": "a", "s": s, "q2": "a", "move": move}
        for s in ("λ", "0", "1")]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "follow", "--ca", "log2", "--steps", "3",
                             "--follower", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert f"move {move}" in err and "not a neighborhood offset" in err


def test_follow_default_follower_and_merged_equivalence(capsys):
    code, a, _ = run_cli(capsys, "follow", "--ca", "xy:2,3", "--steps", "8")
    assert code == EXIT_OK
    _, b, _ = run_cli(capsys, "follow", "--ca", "merged:2,3", "--steps", "8")
    assert a == b
    assert [tuple(r["u"]) for r in json.loads(a)][:2] == [(0, 0), (1, 1)]


def test_follow_trace_object(capsys):
    code, out, _ = run_cli(capsys, "follow", "--ca", "xy:2,3", "--steps", "6",
                           "--trace")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert set(obj) == {"signal", "states", "defaulted_hits"}
    assert obj["defaulted_hits"] == []
    assert len(obj["states"]) == len(obj["signal"])
    assert obj["states"][0] == "a_1"


def test_follow_explicit_follower_file(capsys, tmp_path):
    fol = tmp_path / "follower.json"
    fol.write_text(follower_for_xy(2, 3).dumps(), encoding="utf-8")
    _, default, _ = run_cli(capsys, "follow", "--ca", "xy:2,3", "--steps", "8")
    _, explicit, _ = run_cli(capsys, "follow", "--ca", "xy:2,3",
                             "--steps", "8", "--follower", str(fol))
    assert default == explicit


def test_follow_needs_follower_for_plain_cas(capsys):
    code, _, err = run_cli(capsys, "follow", "--ca", "log2", "--steps", "4")
    assert code == EXIT_CONFIG and "--follower" in err


# --- analyze ------------------------------------------------------------------


def test_join_option_values_protects_negative_points():
    argv = ["analyze", "diagonal", "--i", "-1,0"]
    assert _join_option_values(argv) == ["analyze", "diagonal", "--i=-1,0"]
    assert _join_option_values(["--i", "0,0"]) == ["--i", "0,0"]


def test_analyze_diagonal_negative_point_is_quiescent(capsys, monkeypatch):
    def stepped(*_args, **_kwargs):
        raise AssertionError("run_probes was called")

    monkeypatch.setattr(analysis, "run_probes", stepped)
    code, out, _ = run_cli(capsys, "analyze", "diagonal", "--i", "-1,0",
                           "--length", "6")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj == {"i": [-1, 0], "start": 0, "letters": ["λ"] * 6}


def test_analyze_diagonal_start_matches_library(capsys):
    diag = run(builtin_log2(), 8)
    for i, start in (((-1, 4), 2), ((-1, 0), 0)):
        _, out, _ = run_cli(capsys, "analyze", "diagonal",
                            "--i", ",".join(map(str, i)), "--length", "4")
        assert json.loads(out)["start"] == start == diagonal_start(i)
        letters = diag.replay(DiagonalLetters([i]), 8)
        [word] = letters.spell([[(i, t) for t in range(start, start + 4)]])
        assert json.loads(out)["letters"] == word


@pytest.mark.parametrize("i", ["0,0", "-1,0"])
def test_analyze_diagonal_refuses_a_length_below_one(capsys, i):
    code, out, err = run_cli(capsys, "analyze", "diagonal", "--i", i,
                             "--length", "0")
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: length must be >= 1, got 0\n"


def test_streamed_budget_overflow_exits_3(capsys):
    code, out, err = run_cli(capsys, "detect", "--ca", "log2", "--steps",
                             "64", "--budget", "50")
    assert code == EXIT_OVERFLOW and out == ""
    assert "last complete slice is t=15" in err


@pytest.mark.parametrize("argv", [
    ("--i", "0,0", "--length", "64", "--budget", "50"),
    ("--ca", "quiescent", "--i", "100000000,0", "--length", "4"),
])
def test_analyze_diagonal_checks_the_box_against_the_budget(capsys, argv):
    # the box {j : 0 <= j <= i} holds start + length rows of its points
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "diagonal", *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_OVERFLOW and out == ""
    assert "no slice was computed" in err


def test_analyze_diagonal_reads_past_the_first_repeat(capsys, monkeypatch):
    # the box of diagonals 0 <= j <= (4, 4) first repeats at t = 109, so it
    # is stepped no further; later letters are read periodically, as a
    # plain run spells them
    seen = []

    class Times:
        def observe(self, view):
            seen.append(view.t)

    def counted(ca, steps, probes, **kwargs):
        return run_probes(ca, steps, [Times(), *probes], **kwargs)

    monkeypatch.setattr(analysis, "run_probes", counted)
    word = _letters(capsys, "xy:2,3", "4,4", 400)
    assert seen == list(range(110))
    letters = run(parse_ca_spec("xy:2,3"), 401).replay(
        DiagonalLetters([(4, 4)]), 402)
    assert [word] == letters.spell([[((4, 4), t) for t in range(2, 402)]])


def test_analyze_diagonal_main_word(capsys):
    _, out, _ = run_cli(capsys, "analyze", "diagonal", "--i", "0,0",
                        "--length", "12")
    obj = json.loads(out)
    assert obj["start"] == 0
    assert "".join(obj["letters"]) == "101010101010"


def test_analyze_period(capsys):
    code, out, _ = run_cli(capsys, "analyze", "period", "--i", "0,0",
                           "--horizon", "64")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["decomposed"] is True
    assert (obj["alpha"], obj["beta"]) == ("", "10")
    assert (obj["preperiod"], obj["period"]) == (0, 2)


def _period(capsys, *argv):
    code, out, err = run_cli(capsys, "analyze", "period", *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


@pytest.mark.parametrize("spec,r_max", [("log2", 10), ("xy:2,3", 8)])
def test_analyze_period_equals_the_bounds_lens(capsys, spec, r_max):
    # every diagonal of the simplex sum(i) <= r_max, decided on its own box
    lens = verify_bounds(r_max, 4096, parse_ca_spec(spec)).params["lens"]
    assert len(lens) == (r_max + 1) * (r_max + 2) // 2
    for i, want in lens.items():
        obj = _period(capsys, "--ca", spec, "--i", i)
        assert (obj["preperiod"], obj["period"]) == want, i


def _letters(capsys, spec, i, length):
    _, out, _ = run_cli(capsys, "analyze", "diagonal", "--ca", spec,
                        "--i", i, "--length", str(length))
    return json.loads(out)["letters"]


def test_analyze_period_decides_xy_diagonal_4_4(capsys):
    # the box of diagonals 0 <= j <= (4, 4) first repeats at t = 109, so a
    # cap of 32 or 64 steps decides nothing (a window of 32 or 64 letters
    # reads the false periods (0, 1) and (35, 1) here)
    for horizon in ("32", "64"):
        obj = _period(capsys, "--ca", "xy:2,3", "--i", "4,4",
                      "--horizon", horizon)
        assert obj == {"i": [4, 4], "start": 2, "horizon": int(horizon),
                       "decomposed": False}
    obj = _period(capsys, "--ca", "xy:2,3", "--i", "4,4")
    assert (obj["horizon"], obj["preperiod"], obj["period"]) == (4096, 35, 72)
    word = _letters(capsys, "xy:2,3", "4,4", 35 + 2 * 72)
    assert obj["alpha"] == "".join(word[:35])
    assert obj["beta"] == "".join(word[35:107]) == "".join(word[107:])


def test_analyze_period_decides_long_log2_periods(capsys):
    obj = _period(capsys, "--i", "20,20")
    assert (obj["preperiod"], obj["period"]) == (1023, 2048)
    assert obj["alpha"] == "".join(_letters(capsys, "log2", "20,20", 1023))
    # (30, 0) starts at t = 15, past the 2 rows its box holds
    obj = _period(capsys, "--i", "30,0")
    assert obj == {"i": [30, 0], "start": 15, "horizon": 4096,
                   "decomposed": True, "alpha": "", "beta": "λ",
                   "preperiod": 0, "period": 1}


def test_analyze_period_of_a_negative_point_steps_nothing(capsys,
                                                          monkeypatch):
    def stepped(*_args, **_kwargs):
        raise AssertionError("run_probes was called")

    monkeypatch.setattr(analysis, "run_probes", stepped)
    obj = _period(capsys, "--i", "-1,3")
    assert obj == {"i": [-1, 3], "start": 2, "horizon": 4096,
                   "decomposed": True, "alpha": "", "beta": "λ",
                   "preperiod": 0, "period": 1}


def test_analyze_period_checks_the_box_against_the_budget(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "period", "--ca",
                             "quiescent", "--i", "100000000,0",
                             "--horizon", "8")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_OVERFLOW and out == ""
    assert "no slice was computed" in err


def test_analyze_gap_from_ca(capsys):
    code, out, _ = run_cli(capsys, "analyze", "gap", "--ca", "log2",
                           "--steps", "256")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["classification"] == "LogarithmicOrAbove"
    assert obj["fitted_C"] == "2"
    assert isinstance(obj["c_observed"], str)


def test_analyze_gap_from_signal_file(capsys, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(
        [{"t": t, "u": [t, t]} for t in range(129)]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "gap", "--signal", str(sig))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["classification"] == "Constant"
    assert obj["constant_value"] == 0


def test_analyze_gap_wants_exactly_one_source(capsys, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text("[]", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "gap", "--signal", str(sig),
                           "--ca", "log2")
    assert code == EXIT_CONFIG and "exactly one" in err
    code, _, _ = run_cli(capsys, "analyze", "gap")
    assert code == EXIT_CONFIG


# --- verify / search ----------------------------------------------------------


def test_verify_log2_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "log2", "--steps", "16")
    assert code == EXIT_OK
    assert "[PASS] log2/anchor-walk" in err
    obj = json.loads(out)
    assert obj["ok"] is True and obj["target"] == "log2"


def test_verify_rejects_non_coprime_moduli(capsys):
    code, _, err = run_cli(capsys, "verify", "xy", "--x", "2", "--y", "4",
                           "--steps", "8")
    assert code == EXIT_CONFIG and "gcd" in err


def test_verify_xy_needs_moduli(capsys):
    code, _, err = run_cli(capsys, "verify", "xy", "--steps", "8")
    assert code == EXIT_CONFIG and "--x" in err


def test_verify_honours_the_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("CA_SIGNALS_MEM_BUDGET", "50")
    code, out, err = run_cli(capsys, "verify", "log2", "--steps", "16")
    assert code == EXIT_OVERFLOW and out == ""
    assert "site budget 50 exhausted" in err


def test_verify_xy_budget_bounds_the_merged_window(capsys):
    # every run steps a box of strided diagonals, not the thousands of live
    # cells of the merged slices: the merged walk's box of the diagonals
    # [0, 6]^2 the two-track walk reads holds 16 entries, and the boxes of
    # the two-track and product runs over the whole light cone at most 30
    # and 20
    code, out, err = run_cli(capsys, "verify", "xy", "--x", "2", "--y", "3",
                             "--steps", "750", "--budget", "100")
    assert code == EXIT_OK, err
    assert "[PASS] xy/merged-variant" in err
    assert json.loads(out)["ok"] is True


def test_verify_log2_budget_bounds_the_largest_box(capsys):
    # verify log2 --steps 64 steps to t = 73 on the window with the whole
    # light cone as its reach; its largest box is 8 x 74 = 592 strided
    # diagonals, the last one
    code, out, err = run_cli(capsys, "verify", "log2", "--steps", "64",
                             "--budget", "592")
    assert code == EXIT_OK, err
    assert json.loads(out)["ok"] is True
    code, out, err = run_cli(capsys, "verify", "log2", "--steps", "64",
                             "--budget", "591")
    assert code == EXIT_OVERFLOW and out == ""
    assert "site budget 591 exhausted; last complete slice is t=72" in err


def test_verify_bounds_checks_the_window_against_the_budget(capsys):
    # the 64 rows of the 66 diagonals with sum(i) <= 10 are refused before
    # anything is stepped (log2's strided box at rmax 10 is at most 6x6)
    code, out, err = run_cli(capsys, "verify", "bounds", "--rmax", "10",
                             "--window", "64", "--budget", "50")
    assert code == EXIT_OVERFLOW and out == ""
    assert "site budget 50 exhausted; no slice was computed" in err


def test_verify_bounds_checks_the_letters_against_the_budget(capsys,
                                                            monkeypatch):
    # 28 probes of 10^9 letters each are refused before anything is stepped
    def stepped(*_args, **_kwargs):
        raise AssertionError("run_probes was called")

    monkeypatch.setattr(analysis, "run_probes", stepped)
    code, out, err = run_cli(capsys, "verify", "bounds", "--rmax", "6",
                             "--window", "1000000000")
    assert code == EXIT_OVERFLOW and out == ""
    assert "no slice was computed" in err


@pytest.mark.parametrize("flag,value,name", [
    ("--rmax", "-1", "r_max"), ("--window", "0", "window")])
def test_verify_bounds_rejects_bad_sizes(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "verify", "bounds", flag, value)
    assert code == EXIT_CONFIG and out == ""
    assert f"error: {name} must be" in err


def test_analyze_period_rejects_a_horizon_below_one(capsys):
    code, out, err = run_cli(capsys, "analyze", "period", "--i", "0,0",
                             "--horizon", "0")
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: horizon must be >= 1, got 0\n"


def test_a_window_below_the_first_repeat_reports_undecomposed_rows(capsys):
    # an exact repeat can show from a window of 1 on; log2's diagonals with
    # sum(i) <= 6 first repeat at t = 7
    code, out, _ = run_cli(capsys, "verify", "bounds", "--window", "1")
    assert code == EXIT_FAIL
    [dec] = [c for c in json.loads(out)["checks"]
             if c["name"] == "diagonal-decomposition"]
    assert dec["ok"] is False and len(dec["mismatches"]) == 28


@pytest.mark.parametrize("argv,name", [
    (("simulate", "--ca", "log2", "--steps", "-1"), "steps"),
    (("detect", "--ca", "log2", "--steps", "-3"), "steps"),
    (("follow", "--ca", "xy:2,3", "--steps", "-2"), "steps"),
    (("render", "--ca", "log2", "--mode", "ppm", "--steps", "-2",
      "--out-dir", "unwritten"), "steps"),
    (("analyze", "diagonal", "--i", "0,0", "--length", "-3"), "length"),
    (("verify", "basic", "--count", "-1"), "count"),
], ids=["simulate", "detect", "follow", "render", "analyze-diagonal",
        "verify-basic"])
def test_negative_sizes_are_config_errors(capsys, tmp_path, monkeypatch,
                                          argv, name):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert f"error: {name} must be >=" in err
    assert not any(tmp_path.iterdir())


def test_search_limited(capsys):
    code, out, _ = run_cli(capsys, "search")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["total"] == 32768 and obj["passing"] == 0
    assert obj["witnesses"] == []
    assert obj["digest"] == FULL_SEARCH_DIGEST


def test_verify_all_runs_every_claim_at_its_shipped_size(capsys):
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == EXIT_OK, err
    assert "FAILED" not in err and "-- search: ok" in err
    assert run_cli(capsys, "verify", "all")[1] == out
    obj = json.loads(out)
    assert list(obj) == [name for name, _, _ in CLAIMS] + ["search", "ok"]
    for name, check, kwargs in CLAIMS:   # through JSON: tuples are lists
        want = json.dumps(check(**kwargs).to_json_obj(), ensure_ascii=False)
        assert obj[name] == json.loads(want), name
    assert obj["search"] == json.loads(run_cli(capsys, "search")[1])
    assert obj["ok"] is True


def test_verify_all_exits_1_when_a_claim_fails(capsys, monkeypatch, tmp_path):
    # a window below the first repeat leaves every diagonal undecomposed;
    # the search still runs, and the report goes to --out
    monkeypatch.setattr(cli, "CLAIMS", (
        ("bounds", verify_bounds, {"r_max": 6, "window": 1}),))
    out_file = tmp_path / "all.json"
    code, out, err = run_cli(capsys, "verify", "all", "--out", str(out_file),
                             "--timestamps")
    assert code == EXIT_FAIL and out == ""
    assert "-- bounds: FAILED (" in err and "-- search: ok (" in err
    obj = json.loads(out_file.read_text(encoding="utf-8"))
    assert list(obj) == ["bounds", "search", "ok", "generated_at"]
    assert obj["ok"] is False and obj["bounds"]["ok"] is False


def test_verify_all_honours_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("CA_SIGNALS_MEM_BUDGET", "50")
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == EXIT_OVERFLOW and out == ""
    assert "site budget 50 exhausted" in err
    code, out, err = run_cli(capsys, "verify", "all", "--budget", "-1")
    assert code == EXIT_CONFIG and out == ""


@pytest.mark.parametrize("flag", ["--steps", "--x", "--y", "--rmax",
                                  "--window", "--count"])
def test_verify_all_refuses_the_single_run_sizes(capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "_verify_all", None)   # never reached
    code, out, err = run_cli(capsys, "verify", "all", flag, "5")
    assert code == EXIT_CONFIG and out == ""
    assert err == ("error: verify all runs every claim at its shipped size "
                   f"and takes no {flag}\n")


def test_single_run_sizes_default_to_the_parser_values(capsys, monkeypatch):
    calls = []
    for name in ("verify_log2", "verify_xy", "verify_bounds", "verify_basic"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **_k:
                            calls.append((_n, a)) or verify_bounds(1, 8))
    for target in ("log2", "bounds", "basic"):
        assert run_cli(capsys, "verify", target)[0] == EXIT_OK
    assert run_cli(capsys, "verify", "xy", "--x", "2", "--y", "3")[0] == 0
    assert calls == [("verify_log2", (2048,)), ("verify_bounds", (6, 4096)),
                     ("verify_basic", (50,)), ("verify_xy", (2, 3, 2048))]


# --- integer sizes, fuzzed ----------------------------------------------------

# Each command takes small integers for its {} slots; those flagged True
# may also get --budget.
SIZED_COMMANDS = [
    ("simulate --ca log2 --steps {}", True),
    ("detect --ca log2 --steps {}", True),
    ("follow --ca xy:2,3 --steps {}", True),
    ("render --ca log2 --mode slice --t {}", True),
    ("render --ca log2 --mode slice --steps {} --t {}", True),
    ("render --ca log2 --mode wplane --k {} --rows {} --width {}", True),
    ("analyze diagonal --i 0,0 --length {}", True),
    ("analyze period --i 1,0 --horizon {}", True),
    ("verify basic --count {}", True),
    ("verify bounds --rmax {} --window {}", True),
    ("verify xy --x {} --y {} --steps {}", True),
]


@settings(max_examples=60)
@given(st.sampled_from(SIZED_COMMANDS),
       st.lists(st.integers(-3, 8), min_size=3, max_size=3),
       st.one_of(st.none(), st.integers(-3, 8)))
def test_small_integer_sizes_exit_with_a_code(command, values, budget):
    template, has_budget = command
    argv = template.format(*values).split()
    if has_budget and budget is not None:
        argv += ["--budget", str(budget)]
    assert _exit_code(argv) in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG,
                                EXIT_OVERFLOW)


# --- string arguments, fuzzed -------------------------------------------------

MODULI = st.integers(-2, 10**9)
CA_SPECS = st.one_of(
    st.sampled_from(["log2", "quiescent", "xy:2,3", "merged:2,3", "xy:2",
                     "file:", "file:no-such.rules", ""]),
    st.builds("{}:{},{}".format, st.sampled_from(["xy", "merged"]),
              MODULI, MODULI),
    st.text(max_size=12))
POINTS = st.one_of(
    st.builds(lambda xs, fmt: fmt.format(",".join(map(str, xs))),
              st.lists(st.integers(-12, 12), max_size=4),
              st.sampled_from(["{}", "({})", " {} "])),
    st.text(max_size=8))
PARTITIONS = st.one_of(
    st.builds(";".join, st.lists(st.builds(
        "{}:({},{})".format,
        st.sampled_from(["0", "1", "lambda", "λ", "π_1", "κ_1", "x", ""]),
        st.integers(-2, 2), st.integers(-2, 2)), max_size=4)),
    st.text(max_size=16))
STRING_COMMANDS = [
    ("rules", "print", "--ca={ca}"),
    ("simulate", "--ca={ca}", "--steps", "3"),
    ("follow", "--ca={ca}", "--steps", "4"),
    ("render", "--ca={ca}", "--mode", "slice", "--t", "2"),
    ("analyze", "diagonal", "--ca={ca}", "--i={i}", "--length", "4"),
    ("analyze", "period", "--ca={ca}", "--i={i}", "--horizon", "8"),
    ("detect", "--ca={ca}", "--steps", "4", "--partition={p}"),
]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(STRING_COMMANDS), CA_SPECS, POINTS, PARTITIONS)
def test_string_arguments_exit_with_a_code(command, ca, point, partition):
    argv = [tok.format(ca=ca, i=point, p=partition) for tok in command]
    assert _exit_code(argv) in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG,
                                EXIT_OVERFLOW)


@pytest.mark.parametrize("argv", [
    ("simulate", "--ca", "xy:200000,1", "--steps", "2"),
    ("simulate", "--ca", "merged:2,1000000001", "--steps", "2"),
    ("rules", "print", "--ca", "xy:300,1"),
])
def test_oversized_two_track_alphabets_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_CONFIG and out == ""
    assert "states; at most 255 fit the uint8 state codes" in err


def test_verify_xy_with_base_one_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "xy", "--x", "1", "--y", "1",
                             "--steps", "60")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: need base >= 2 and n >= 1\n"


# --- rule files and signal JSON, fuzzed ---------------------------------------

LOG2_RULES = serialize_rules(builtin_log2()).splitlines()
SYMBOLS = st.sampled_from(["λ", "lambda", "0", "1", "2", "π_1", "*", "{0,1}",
                           "{0,", "{}", "a#b", "a:b", "->", ""])
RULE_LINES = st.one_of(
    st.sampled_from(LOG2_RULES),
    st.builds("states: {}".format,
              st.lists(SYMBOLS, max_size=4).map(" ".join)),
    st.builds("seed: {}".format, SYMBOLS),
    st.builds("neighborhood: {} {}".format,
              st.sampled_from(["trellis", "moore", "von_neumann",
                               "von-neumann", "vonneumann", "hex", ""]),
              st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "x", ""])),
    st.builds("order: {}".format, st.lists(st.sampled_from(
        ["(-1,-1)", "(-1,1)", "(1,1)", "(1,-1)", "(0)", "(-1)", "(1)",
         "(1,)", "()", "(a,b)", "-1,1", "(99999999999999999999,1)"]),
        max_size=5).map(" ".join)),
    st.builds("rule: {} -> {}".format,
              st.lists(SYMBOLS, max_size=5).map(" ".join), SYMBOLS),
    st.text(max_size=20))


@st.composite
def rule_text(draw):
    """A rule file built directive by directive, each usually well formed,
    with fuzzed lines replacing or joining some of them."""
    neigh = Neighborhood(draw(st.sampled_from(["trellis", "moore",
                                               "von_neumann"])),
                         draw(st.integers(1, 3)))
    order = draw(st.permutations(offsets(neigh)))
    states = draw(st.lists(st.sampled_from(["λ", "0", "1", "2", "a"]),
                           min_size=1, max_size=4, unique=True))
    token = st.sampled_from([*states, "*", "{" + ",".join(states) + "}"])
    lines = [f"states: {' '.join(states)}",
             f"seed: {draw(st.sampled_from(states))}",
             f"neighborhood: {neigh.kind} {neigh.dim}",
             "order: " + " ".join(map(format_offset, order))]
    for _ in range(draw(st.integers(0, 4))):
        args = draw(st.lists(token, min_size=len(order), max_size=len(order)))
        lines.append(f"rule: {' '.join(args)} -> "
                     f"{draw(st.sampled_from(states))}")
    if draw(st.booleans()):
        lines.append(f"rule: {' '.join('*' * len(order))} -> {states[0]}")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        j = draw(st.integers(0, len(lines)))
        lines[j:j + draw(st.integers(0, 1))] = [draw(RULE_LINES)]
    return "\n".join(lines)


RULE_TEXTS = st.one_of(rule_text(),
                       st.lists(RULE_LINES, max_size=8).map("\n".join))


@settings(max_examples=60, deadline=None)
@given(RULE_TEXTS)
def test_rule_files_exit_with_a_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.rules"
        path.write_text(text, encoding="utf-8")
        for argv in (["rules", "check", str(path)],
                     ["simulate", f"--ca=file:{path}", "--steps", "3"]):
            assert _exit_code(argv) in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG,
                                        EXIT_OVERFLOW), argv


ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["t", "u", "x"]),
                                            inner, max_size=3)),
    max_leaves=12)


@st.composite
def signal_json(draw):
    """A walk of 0..130 moves from the origin, often long enough to
    classify, then up to three of its fields overwritten with any JSON
    value."""
    dim = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(0, 130), st.integers(63, 130)))
    moves = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim,
                                   max_size=dim), min_size=n, max_size=n))
    u, rows = [0] * dim, [{"t": 0, "u": [0] * dim}]
    for t, x in enumerate(moves, start=1):
        u = [a + b for a, b in zip(u, x)]
        rows.append({"t": t, "u": u})
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        j = draw(st.integers(0, len(rows) - 1))
        key = draw(st.sampled_from(["t", "u"]))
        rows[j][key] = draw(st.one_of(
            ANY_JSON, st.integers(-10**5, 10**5),
            st.lists(st.integers(-10**5, 10**5), max_size=3)))
    return rows


@settings(max_examples=60, deadline=None)
@given(st.one_of(signal_json(), ANY_JSON))
def test_signal_files_exit_with_a_code(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert _exit_code(["analyze", "gap", "--signal", str(path)]) in (
            EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_OVERFLOW)


def test_analyze_gap_rejects_sites_off_the_light_cone(capsys, tmp_path):
    # 80 sites 10^4 off the origin: the exact fit of C raised rationals to
    # the powers m(t) ~ 10^4 for seconds before such a signal was refused
    sig = tmp_path / "far.json"
    sig.write_text(json.dumps([{"t": 0, "u": [0, 0]}] + [
        {"t": t, "u": [-10**4, -10**4]} for t in range(1, 80)]),
        encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "gap", "--signal", str(sig))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: site [-10000, -10000] outside light cone at t=1\n"


def test_analyze_gap_rejects_sites_without_coordinates(capsys, tmp_path):
    # the gap profile took max() over no coordinates and raised for it
    sig = tmp_path / "empty.json"
    sig.write_text(json.dumps([{"t": t, "u": []} for t in range(70)]),
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "gap", "--signal", str(sig))
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: signal sites need coordinates, got u=[]\n"


# --- rules --------------------------------------------------------------------


def test_rules_print_check_roundtrip(capsys, tmp_path):
    code, text, _ = run_cli(capsys, "rules", "print", "--ca", "log2")
    assert code == EXIT_OK and text
    path = tmp_path / "log2.rules"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "rules", "check", str(path))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["states"] == 3 and obj["rules"] == 15 and obj["dim"] == 2
    _, again, _ = run_cli(capsys, "rules", "print", "--ca", f"file:{path}")
    assert again == text


@pytest.mark.parametrize("n_states,dim", [(6, 3), (2, 4)])
def test_too_many_neighbor_codes_is_a_config_error(capsys, tmp_path,
                                                   n_states, dim):
    # n**v > 2**63: the flat neighbor codes would overflow int64
    states = ["λ"] + [f"s{k}" for k in range(1, n_states)]
    path = tmp_path / "wide.rules"
    path.write_text(
        f"states: {' '.join(states)}\nseed: s1\n"
        f"neighborhood: moore {dim}\n"
        f"rule: {' '.join(['*'] * 3**dim)} -> λ\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "rules", "check", str(path))
    assert code == EXIT_OK
    code, out, err = run_cli(capsys, "simulate", "--ca", f"file:{path}",
                             "--steps", "2")
    assert code == EXIT_CONFIG and out == ""
    assert "neighbor codes" in err


def test_rules_check_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.rules"
    path.write_text("this is not a rule file\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "rules", "check", str(path))
    assert code == EXIT_CONFIG and "error:" in err
