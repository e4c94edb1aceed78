"""End-to-end command-line checks: exit codes, report text, file round trips."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

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
