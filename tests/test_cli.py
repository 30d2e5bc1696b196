"""End-to-end runs of the command-line entry point.

Everything goes through main(argv) so the tests exercise argument wiring,
exit codes, and the exact bytes written to stdout.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_signals import (DiagonalProbe, OverflowHorizon, analysis,
                        builtin_log2, engine, follower_for_xy, run,
                        serialize_rules)
from ca_signals.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_OK, EXIT_OVERFLOW,
                            _join_option_values, main, parse_ca_spec)
from ca_signals.lattice import Neighborhood
from ca_signals.verification import random_impulse_ca

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

pytestmark = pytest.mark.usefixtures("no_env_budget")


@pytest.fixture
def no_env_budget(monkeypatch):
    monkeypatch.delenv("CA_SIGNALS_MEM_BUDGET", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, out, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "6",
                           "--check")
    assert code == EXIT_OK and json.loads(out)[-1]["t"] == 6


def test_simulate_check_failure_exits_1(capsys, monkeypatch):
    def bad_step(ca, sl, *_args):
        # one live cell off the trellis parity class
        return (engine.pack_cells(np.array([[0, 0]]), 2),
                np.array([1], np.uint8))

    monkeypatch.setattr(engine, "_step", bad_step)
    code, _, err = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "2",
                           "--check")
    assert code == EXIT_FAIL
    assert err.startswith("error:") and "parity" in err


def test_simulate_out_file(capsys, tmp_path):
    target = tmp_path / "diag.json"
    code, out, _ = run_cli(capsys, "simulate", "--ca", "log2", "--steps", "4",
                           "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())[-1]["t"] == 4


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
    _, plain, _ = run_cli(capsys, "search", "--limit", "8")
    _, stamped, _ = run_cli(capsys, "search", "--limit", "8", "--timestamps")
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
    """Rule-file specs of eight random tables of one neighborhood."""
    rng = random.Random(20240817)
    specs = []
    for j in range(8):
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
    ("moore", 1, 16), ("von_neumann", 3, 6)])
def test_dump_bytes_match_the_oracle_on_random_tables(capsys, tmp_path, kind,
                                                      dim, steps):
    varied = []
    for spec in _random_specs(tmp_path, kind, dim):
        diag = _assert_dump_matches_oracle(capsys, tmp_path, spec, steps)
        varied.append(len({s for t in range(steps + 1)
                           for _, s in diag.view(t).cells()}) >= 2)
    assert any(varied), "no table shows two distinct live states"


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
    _, asw, _ = run_cli(capsys, "detect", "--ca", "quiescent", "--steps", "3",
                        "--partition", "lambda:(1,1)",
                        "--convention", "aswritten")
    assert neg == asw


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


def test_analyze_diagonal_negative_point_is_quiescent(capsys):
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
        assert json.loads(out)["start"] == start
        probe = diag.replay(DiagonalProbe(i, 4), 8)
        assert probe.start == start and len(probe.word("λ")) == 4


def test_streamed_budget_overflow_exits_3(capsys):
    for argv in (("detect", "--ca", "log2", "--steps", "64"),
                 ("analyze", "diagonal", "--i", "0,0", "--length", "64")):
        code, out, err = run_cli(capsys, *argv, "--budget", "50")
        assert code == EXIT_OVERFLOW and out == ""
        assert "last complete slice is t=15" in err


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


def test_verify_bounds_checks_the_window_against_the_budget(capsys):
    # the (10+1)^2-site window is refused before anything is stepped
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
    ("--rmax", "-1", "r_max"), ("--window", "2", "window")])
def test_verify_bounds_rejects_bad_sizes(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "verify", "bounds", flag, value)
    assert code == EXIT_CONFIG and out == ""
    assert f"error: {name} must be" in err


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
    code, out, _ = run_cli(capsys, "search", "--limit", "16")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["total"] == 16 and obj["passing"] == 0
    assert obj["witnesses"] == []
    assert obj["digest"] == ("f48e8a4f3308c23a365995d859adbf05"
                             "fc51459db77db7a100ce923a9cfebc85")


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_search_rejects_a_limit_below_one(capsys, limit):
    code, out, err = run_cli(capsys, "search", "--limit", limit)
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: limit must be >= 1, got {limit}\n"


# --- integer sizes, fuzzed ----------------------------------------------------

# Each command takes small integers for its {} slots; those flagged True
# may also get --budget.  verify basic always gets one: its counter walk to
# t=2000 takes over a second whatever --count is.
SIZED_COMMANDS = [
    ("simulate --ca log2 --steps {}", True),
    ("detect --ca log2 --steps {}", True),
    ("follow --ca xy:2,3 --steps {}", True),
    ("render --ca log2 --mode slice --t {}", True),
    ("render --ca log2 --mode slice --steps {} --t {}", True),
    ("render --ca log2 --mode wplane --k {} --rows {} --width {}", True),
    ("analyze diagonal --i 0,0 --length {}", True),
    ("analyze period --i 1,0 --horizon {}", True),
    ("verify basic --count {} --budget {}", False),
    ("verify bounds --rmax {} --window {}", True),
    ("search --limit {}", False),
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
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_OVERFLOW)


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
