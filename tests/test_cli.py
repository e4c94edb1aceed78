"""End-to-end command-line checks: exit codes, report text, file round trips."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkforge
from walkforge import (
    EncodingSpec,
    circuit_from_text,
    circuit_to_text,
    encode_binary,
    gate_conventions,
    graph_from_json,
    graph_to_json,
    gray_labels,
    hamiltonian_to_text,
    unitary,
    walk_matrix,
)
from walkforge.cli import main


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(argv):
    """Run ``python -m walkforge`` in a new process with only ``src`` on the path."""
    env = os.environ | {"PYTHONPATH": str(Path(walkforge.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "walkforge", *argv], capture_output=True, text=True, env=env, check=False
    )
    return done.returncode, done.stdout, done.stderr


def _write_graph(tmp_path, argv_tail, name="g.json"):
    path = tmp_path / name
    code = main(["graph", "build", *argv_tail, "--out", str(path)])
    assert code == 0
    return path


def test_graph_build_round_trips(tmp_path, capsys):
    """Emitted graph JSON reparses to the same text bit-exactly."""
    path = _write_graph(tmp_path, ["--kind", "line", "--n", "5", "--delta", "0.75"])
    text = path.read_text()
    g = graph_from_json(text)
    assert g.n_nodes == 5
    assert graph_to_json(g) + "\n" == text


def test_graph_build_prints_to_stdout(tmp_path, capsys):
    """Without --out the JSON goes to stdout."""
    code, out, _ = _run(["graph", "build", "--kind", "hypercube", "--m", "2"], capsys)
    assert code == 0
    assert graph_from_json(out).n_nodes == 4


def test_encode_gray_matches_library(tmp_path, capsys):
    """The gray labeling option reproduces the library encoding verbatim."""
    path = _write_graph(tmp_path, ["--kind", "hypercube", "--m", "3"])
    code, out, _ = _run(
        ["encode", str(path), "--scheme", "binary", "--labeling", "gray"], capsys
    )
    assert code == 0
    g = graph_from_json(path.read_text())
    want = encode_binary(g, EncodingSpec("binary", gray_labels(3)))
    assert out == hamiltonian_to_text(want)


def test_encode_gray_needs_power_of_two(tmp_path, capsys):
    """Gray labels only exist for power-of-two node counts."""
    path = _write_graph(tmp_path, ["--kind", "line", "--n", "3"])
    code, _, err = _run(
        ["encode", str(path), "--scheme", "binary", "--labeling", "gray"], capsys
    )
    assert code == 2
    assert "power-of-two" in err


def test_encode_decode_round_trip(tmp_path, capsys):
    """graph -> binary encode -> decode recovers the walk matrix."""
    gpath = _write_graph(tmp_path, ["--kind", "line", "--n", "4"])
    hpath = tmp_path / "h.txt"
    assert main(["encode", str(gpath), "--scheme", "binary", "--out", str(hpath)]) == 0
    g2path = tmp_path / "g2.json"
    assert main(["decode", str(hpath), "--out", str(g2path)]) == 0
    g = graph_from_json(gpath.read_text())
    g2 = graph_from_json(g2path.read_text())
    np.testing.assert_allclose(walk_matrix(g2), walk_matrix(g), atol=1e-12)


def test_chain_xy_collapse_report(capsys):
    """The 6-site sector-3 collapse report carries the published numbers."""
    code, out, _ = _run(
        ["chain", "xy", "--n", "6", "--j", "1", "--sector", "3", "--collapse"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert "sector nodes = 20" in lines
    assert "layer sizes = 1 1 2 3 3 3 3 2 1 1" in lines
    couplings = {}
    defect = None
    for line in lines:
        if line.startswith("coupling "):
            _, k, _, val = line.split()
            couplings[int(k)] = float(val)
        elif line.startswith("collapse defect = "):
            defect = float(line.rsplit(" ", 1)[1])
    want = (1.0, math.sqrt(2), 4 / math.sqrt(6), 5 / 3, 2.0)
    for k, val in enumerate(want, start=1):
        np.testing.assert_allclose(couplings[k], val, atol=1e-10)
    assert defect is not None and 0.76 < defect < 0.78


def test_chain_xy_jordan_wigner(tmp_path, capsys):
    """JW with a field emits the path graph and reports the identity offset."""
    path = tmp_path / "jw.json"
    code, out, _ = _run(
        ["chain", "xy", "--n", "4", "--j", "1", "--h", "0.7", "--out", str(path)], capsys
    )
    assert code == 0
    assert "offset = 1.3999999999999999" in out
    g = graph_from_json(path.read_text())
    assert g.n_nodes == 4
    np.testing.assert_allclose(g.onsite, [-0.7] * 4, atol=1e-15)


def test_synth_qft_and_verify_pass(tmp_path, capsys):
    """A synthesized QFT file verifies against the dense oracle."""
    cpath = tmp_path / "qft3.txt"
    ppath = tmp_path / "qft3.csv"
    code = main(
        ["synth", "qft", "--n", "3", "--level", "fundamental",
         "--out", str(cpath), "--pulses", str(ppath)]
    )
    assert code == 0
    capsys.readouterr()
    text = cpath.read_text()
    assert circuit_to_text(circuit_from_text(text)) == text
    assert ppath.read_text().startswith("term,qubits,strength,duration")
    code, out, _ = _run(
        ["verify", str(cpath), "--against", "oracle", "--kind", "qft", "--n", "3"], capsys
    )
    assert code == 0
    assert "PASS" in out


def test_synth_trotter_verify_exact(tmp_path, capsys):
    """Trotter output passes a loose exact-propagator check and fails a tight one."""
    gpath = _write_graph(tmp_path, ["--kind", "line", "--n", "4"])
    cpath = tmp_path / "trot.txt"
    code = main(
        ["synth", "trotter", "--graph", str(gpath), "--t", "0.4", "--steps", "64",
         "--out", str(cpath)]
    )
    assert code == 0
    capsys.readouterr()
    loose = ["verify", str(cpath), "--against", "exact", "--graph", str(gpath),
             "--t", "0.4", "--tol", "0.05"]
    code, out, _ = _run(loose, capsys)
    assert code == 0 and "PASS" in out
    tight = loose[:-1] + ["1e-9"]
    code, out, _ = _run(tight, capsys)
    assert code == 1 and "FAIL" in out


def test_verify_builtin_cnot(capsys):
    """The freshly built CNOT decomposition passes at the default tolerance."""
    code, out, _ = _run(["verify", "--kind", "cnot"], capsys)
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "argv",
    [["cnot"], ["toffoli"], ["swap"], ["crk"], ["crx"], ["mcx", "--controls", "3"], ["qft", "--n", "3"]],
)
def test_verify_every_builtin_kind_passes(argv, capsys):
    """Each named oracle kind builds its circuit and passes against its own oracle."""
    code, out, _ = _run(["verify", "--kind", *argv], capsys)
    assert code == 0
    assert out.splitlines()[0] == f"kind = {argv[0]}"
    assert out.splitlines()[-1] == "PASS"


def test_verify_kind_choices(capsys):
    """verify --help lists the named kinds in their documented order."""
    code, out, _ = _run(["verify", "--help"], capsys)
    assert code == 0
    assert "{cnot,toffoli,swap,crk,crx,mcx,qft,encode}" in out


def test_verify_reports_phase_and_worst_entry(tmp_path, capsys):
    """After the deviation line, verify prints the global phase it used and the
    entry where the deviation occurs, as row and column bit labels."""
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 2 ANCILLAS 0\nCNOT q1 q2\nGPHASE 0.5\n")
    code, out, _ = _run(["verify", str(cpath), "--against", "oracle", "--kind", "cnot"], capsys)
    lines = out.splitlines()
    assert code == 0
    assert [ln.split(" = ")[0] for ln in lines[1:4]] == ["max deviation", "phase", "worst entry"]
    assert float(lines[2].split(" = ")[1]) == pytest.approx(0.5, abs=1e-15)

    text = "QUBITS 2 ANCILLAS 0\nCNOT q1 q2\nRX q2 0.3\n"
    cpath.write_text(text)
    code, out, _ = _run(["verify", str(cpath), "--against", "oracle", "--kind", "cnot"], capsys)
    report = dict(ln.split(" = ") for ln in out.splitlines() if " = " in ln)
    assert code == 1
    _, row, _, col = report["worst entry"].split()
    got = unitary(circuit_from_text(text))
    want = gate_conventions()["CNOT"]
    gap = abs(got[int(row, 2), int(col, 2)] - np.exp(1j * float(report["phase"])) * want[int(row, 2), int(col, 2)])
    assert gap == pytest.approx(float(report["max deviation"]), abs=1e-15)


def test_verify_random_encodings(capsys):
    """A batch of random graphs verifies both encodings entrywise."""
    for scheme in ("single", "binary"):
        code, out, _ = _run(
            ["verify", "--kind", "encode", "--scheme", scheme, "--random", "25",
             "--seed", "3", "--tol", "1e-12"],
            capsys,
        )
        assert code == 0
        assert "PASS" in out


def test_verify_usage_errors(tmp_path, capsys):
    """Missing inputs exit with code 2 and an error line."""
    code, _, err = _run(["verify"], capsys)
    assert code == 2 and "circuit file or --kind" in err
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 1 ANCILLAS 0\nH q1\n")
    code, _, err = _run(["verify", str(cpath), "--against", "oracle"], capsys)
    assert code == 2 and "needs --kind" in err
    code, _, err = _run(["verify", str(cpath), "--against", "exact"], capsys)
    assert code == 2 and "needs --graph" in err


def test_verify_checks_its_inputs_before_building_the_unitary(tmp_path, capsys, monkeypatch):
    """Missing or unreadable inputs exit 2 without evaluating the circuit."""

    def refuse(c):
        raise AssertionError(f"unitary of {c.n_wires} wires built before the inputs were checked")

    monkeypatch.setattr(walkforge.cli, "unitary", refuse)
    code, _, err = _run(["verify", "--kind", "mcx", "--controls", "5", "--against", "exact"], capsys)
    assert code == 2 and "needs --graph" in err
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 1 ANCILLAS 0\nH q1\n")
    code, _, err = _run(["verify", str(cpath), "--against", "oracle"], capsys)
    assert code == 2 and "needs --kind" in err
    missing = str(tmp_path / "missing.json")
    code, _, err = _run(["verify", str(cpath), "--against", "exact", "--graph", missing], capsys)
    assert code == 2 and err


def test_unknown_subcommand_exits_two(capsys):
    """argparse usage failures propagate exit code 2."""
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_simulate_walk_amplitudes(tmp_path, capsys):
    """The 2-node walk at t=1 gives (cos 1, i sin 1)."""
    gpath = _write_graph(tmp_path, ["--kind", "line", "--n", "2"])
    code, out, _ = _run(["simulate", "--graph", str(gpath), "--t", "1.0"], capsys)
    assert code == 0
    amps = json.loads(out)["amps"]
    np.testing.assert_allclose(amps[0], [math.cos(1.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(amps[1], [0.0, math.sin(1.0)], atol=1e-12)


def test_simulate_circuit_file(tmp_path, capsys):
    """A circuit file drives the state-vector simulator."""
    cpath = tmp_path / "h.txt"
    cpath.write_text("QUBITS 1 ANCILLAS 0\nH q1\n")
    code, out, _ = _run(["simulate", "--circuit", str(cpath)], capsys)
    assert code == 0
    amps = json.loads(out)["amps"]
    np.testing.assert_allclose(amps, [[1 / math.sqrt(2), 0.0]] * 2, atol=1e-12)


def test_simulate_refuses_a_circuit_too_wide_to_hold(tmp_path, capsys):
    """A 40-wire circuit is refused with exit 2 before its 2^40 amplitudes are allocated."""
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 40 ANCILLAS 0\nX q1\n")
    code, out, err = _run(["simulate", "--circuit", str(cpath)], capsys)
    assert code == 2 and out == ""
    assert "state dimension 1099511627776 above the dense cap" in err


def test_simulate_circuit_width_bound_is_twice_the_cap(tmp_path, capsys, monkeypatch):
    """With a cap of 2 qubits, 4 wires still simulate and 5 are refused."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 4 ANCILLAS 0\nX q4\n")
    code, out, _ = _run(["simulate", "--circuit", str(cpath)], capsys)
    assert code == 0 and json.loads(out)["amps"][1] == [1.0, 0.0]
    cpath.write_text("QUBITS 5 ANCILLAS 0\nX q5\n")
    code, _, err = _run(["simulate", "--circuit", str(cpath)], capsys)
    assert code == 2 and "above the dense cap 16" in err


def test_encode_refuses_labels_too_wide_to_decompose(tmp_path, capsys):
    """40-bit labels are refused with exit 2, not a 2^40 allocation."""
    gpath = tmp_path / "g.json"
    labels = ["0" * 40, "1" * 40]
    gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]], "onsite": [0, 0], "labels": labels}))
    code, out, err = _run(["encode", str(gpath), "--scheme", "binary"], capsys)
    assert code == 2 and out == "" and "pauli decomposition on 40 qubits" in err


def test_simulate_needs_one_source(tmp_path, capsys):
    """Both or neither of --graph/--circuit is a usage error."""
    gpath = _write_graph(tmp_path, ["--kind", "line", "--n", "2"])
    code, _, err = _run(["simulate"], capsys)
    assert code == 2 and "exactly one" in err
    code, _, err = _run(
        ["simulate", "--graph", str(gpath), "--circuit", str(gpath)], capsys
    )
    assert code == 2 and "exactly one" in err


def test_decode_static_template(tmp_path, capsys):
    """A static coupling template decodes to the expected hop weights."""
    params = {
        "n": 3,
        "eps": [0.0, 0.0, 0.0],
        "delta": [0.5, 0.0, 0.0],
        "chi": [[0.0, 0.2, 0.1], [0.2, 0.0, 0.0], [0.1, 0.0, 0.0]],
        "vperp": [[0.0] * 3] * 3,
        "vpar": [[0.0] * 3] * 3,
    }
    spath = tmp_path / "params.json"
    spath.write_text(json.dumps(params))
    code, out, _ = _run(["decode", "--static", str(spath)], capsys)
    assert code == 0
    g = graph_from_json(out)
    assert g.n_nodes == 8
    weights = {(i, j): d for i, j, d in g.edges}
    np.testing.assert_allclose(weights[(0, 4)], 0.8, atol=1e-14)


def test_decode_static_rejects_wrong_fields(tmp_path, capsys):
    """Missing template fields exit with code 2."""
    spath = tmp_path / "params.json"
    spath.write_text(json.dumps({"n": 1, "eps": [0.0]}))
    code, _, err = _run(["decode", "--static", str(spath)], capsys)
    assert code == 2 and "exactly the fields" in err


def test_decode_needs_one_source(capsys):
    """decode requires exactly one of the pauli file or --static."""
    code, _, err = _run(["decode"], capsys)
    assert code == 2 and "either --static" in err


def test_synth_line_step_round_trips(tmp_path, capsys):
    """Emitted circuit text reparses to the same text bit-exactly."""
    cpath = tmp_path / "step.txt"
    code = main(["synth", "line-step", "--n", "3", "--eps", "0.1", "--out", str(cpath)])
    assert code == 0
    capsys.readouterr()
    text = cpath.read_text()
    assert circuit_to_text(circuit_from_text(text)) == text


def test_synth_trotter_pulses_with_angles_beyond_two_pi(tmp_path, capsys):
    """A long single Trotter step has gate angles past 2 pi; its pulses still compile."""
    gpath = _write_graph(tmp_path, ["--kind", "cycle", "--n", "4", "--delta", "-1"])
    ppath = tmp_path / "p.csv"
    code, _, err = _run(
        ["synth", "trotter", "--graph", str(gpath), "--t", "20", "--steps", "1",
         "--out", str(tmp_path / "c.txt"), "--pulses", str(ppath)],
        capsys,
    )
    assert code == 0, err
    assert all(float(row.split(",")[3]) >= 0.0 for row in ppath.read_text().splitlines()[1:])


def test_synth_trotter_needs_graph(capsys):
    """Trotter synthesis without a graph is a usage error."""
    code, _, err = _run(["synth", "trotter"], capsys)
    assert code == 2 and "needs --graph" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "onsite": [0, 0], "edges": [5]}',
        '{"n": 2, "onsite": [0, 0], "edges": [[0, 1]]}',
        '{"n": 2, "onsite": 5, "edges": []}',
        '{"n": null, "onsite": [0, 0], "edges": []}',
        '{"n": 2, "onsite": [0, 0], "edges": [], "labels": 5}',
        '{"n": 2, "onsite": [0, 0], "edges": [[0, 1e400, 1]]}',
        '{"n": 2, "onsite": [0, Infinity], "edges": []}',
        '{"n": 2.7, "onsite": "12", "edges": [[0.9, 1, 1]]}',
        '{"n": true, "onsite": [0], "edges": []}',
        '{"n": 2, "onsite": [0, false], "edges": []}',
        '{"n": 2, "onsite": [0, 0], "edges": [[0, 1, "1"]]}',
        '{"n": 2, "onsite": [0, 0], "edges": [], "labels": ["a", 1]}',
    ],
)
def test_encode_rejects_malformed_graph_json(tmp_path, capsys, doc):
    """Badly shaped or non-finite graph files are parse errors (exit 2), not tracebacks."""
    gpath = tmp_path / "g.json"
    gpath.write_text(doc)
    code, out, err = _run(["encode", str(gpath), "--scheme", "binary"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["simulate", "--graph"], "g.json", '{"n": 2, "onsite": [0, 0], "edges": [[0, 1, NaN]]}'),
        (["decode"], "h.txt", "QUBITS 2\nnan * X1\n"),
        (["decode"], "h.txt", "QUBITS 2\n1 * X1 X1\n"),
        (
            ["decode", "--static"],
            "s.json",
            '{"n": 1, "eps": [NaN], "delta": [0], "chi": [[0]], "vperp": [[0]], "vpar": [[0]]}',
        ),
    ],
)
def test_non_finite_and_ambiguous_inputs_exit_two(tmp_path, capsys, argv, name, text):
    """NaN hops, coefficients and template fields, and repeated qubits, are refused."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run([*argv, str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


_DEEP = "[" * 100_000 + "]" * 100_000
_STATIC_OK = {"n": 1, "eps": [0], "delta": [0], "chi": [[0]], "vperp": [[0]], "vpar": [[0]]}


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["encode", "--scheme", "binary"], "g.json", _DEEP),
        (["decode", "--static"], "s.json", _DEEP),
        (["decode", "--static"], "s.json", json.dumps(_STATIC_OK | {"n": 1.7, "eps": ["3"]})),
        (
            ["decode", "--static"],
            "s.json",
            json.dumps(_STATIC_OK | {"n": True, "eps": [True], "delta": [False]}),
        ),
        (["decode", "--static"], "s.json", json.dumps(_STATIC_OK | {"eps": ["3"]})),
        (["decode", "--static"], "s.json", json.dumps(_STATIC_OK | {"delta": [False]})),
        (["decode", "--static"], "s.json", json.dumps(_STATIC_OK | {"chi": [0]})),
        (["decode", "--static"], "s.json", json.dumps(_STATIC_OK | {"vpar": [["0"]]})),
        (["simulate", "--circuit"], "c.txt", "QUBITS 2 ANCILLAS 0\nMCX q1 +q2\n"),
        (["simulate", "--circuit"], "c.txt", "QUBITS 2 ANCILLAS 0\nMCX +q1 +q2\n"),
        (
            ["verify", "--against", "exact", "--graph", "unread.json"],
            "c.txt",
            "QUBITS 2 ANCILLAS 0\nMCX q1 +q2\n",
        ),
    ],
    ids=[
        "deep-graph",
        "deep-static",
        "float-n-string-eps",
        "bool-n-eps-delta",
        "string-eps",
        "bool-delta",
        "flat-chi",
        "string-vpar",
        "simulate-polarity-on-target",
        "simulate-signed-target",
        "verify-polarity-on-target",
    ],
)
def test_nested_coerced_and_misplaced_inputs_exit_two(tmp_path, capsys, argv, name, text):
    """Deep nesting, mistyped static fields and misplaced polarities are parse errors."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run([*argv, str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_decode_static_accepts_integers(tmp_path, capsys):
    """Integer entries are JSON numbers and decode as before."""
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(_STATIC_OK | {"eps": [1], "delta": [2]}))
    code, out, _ = _run(["decode", "--static", str(spath)], capsys)
    assert code == 0 and graph_from_json(out).n_nodes == 2


def test_simulate_crk_huge_order_is_the_identity(tmp_path, capsys):
    """CRK with k = 1e300 is a zero phase, not an OverflowError traceback."""
    cpath = tmp_path / "c.txt"
    cpath.write_text("QUBITS 2 ANCILLAS 0\nCRK q1 q2 1e300\n")
    code, out, _ = _run(["simulate", "--circuit", str(cpath), "--state", "3"], capsys)
    assert code == 0 and json.loads(out)["amps"] == [[0.0, 0.0]] * 3 + [[1.0, 0.0]]


def test_decode_refuses_a_huge_qubits_header(tmp_path, capsys):
    """A QUBITS header far above the cap exits 2 before any term is read."""
    path = tmp_path / "h.txt"
    path.write_text("QUBITS 10000000000\n1 * X1\n")
    code, out, err = _run(["decode", str(path)], capsys)
    assert code == 2 and out == "" and "pauli text on 10000000000 qubits" in err


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    """The parser is built once per process; no default or error state leaks
    from one call into the next."""
    bad = tmp_path / "bad.txt"
    bad.write_text("QUBITS 2\n1 + X1\n")
    good = tmp_path / "good.txt"
    good.write_text(hamiltonian_to_text(encode_binary(walkforge.build_cycle(3))))
    calls = [
        ["chain", "xy", "--n", "3", "--j", "0.5", "0.7"],
        ["chain", "xy", "--n", "3"],
        ["decode", str(bad)],
        ["decode", str(good)],
    ]
    in_process = [_run(argv, capsys) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0]
    assert in_process == [_fresh(argv) for argv in calls]


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m walkforge`` is the same command line as the console script."""
    argv = ["graph", "build", "--kind", "cycle", "--n", "4"]
    code, out, err = _fresh(argv)
    assert (code, err) == (0, "")
    assert out == _run(argv, capsys)[1]
    assert graph_from_json(out) == walkforge.build_cycle(4)
