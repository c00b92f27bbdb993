import contextlib
import io
import json
import math
import os
import reprlib
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import cli
from qmlkit.errors import DomainError
from qmlkit.fourier import qft_gate
from qmlkit.gates import apply, standard_gate
from qmlkit.state import StateVector


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def blob_csv(tmp_path):
    gen = np.random.default_rng(0)
    rows = np.vstack(
        [gen.normal(size=(8, 2)) * 0.2, gen.normal(size=(8, 2)) * 0.2 + 5.0]
    )
    return write(tmp_path / "blobs.csv", "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rows))


def run_ok(argv):
    code, report = cli.run(argv)
    assert code == 0, report
    return report


def canonical(report):
    stripped = {k: v for k, v in report.items() if k != "timings_ms"}
    return json.dumps(stripped, sort_keys=True)


class TestIngestCsv:
    def test_vectors(self, tmp_path):
        path = write(tmp_path / "v.csv", "1.0,2.0\n3.0,4.0\n")
        assert cli.ingest_csv(path, "vectors").shape == (2, 2)

    def test_ragged_row_line_number(self, tmp_path):
        path = write(tmp_path / "v.csv", "1.0,2.0\n3.0\n")
        with pytest.raises(DomainError, match=":2"):
            cli.ingest_csv(path, "vectors")

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path / "v.csv", "1.0,nan\n")
        with pytest.raises(DomainError, match=":1"):
            cli.ingest_csv(path, "vectors")

    def test_labeled_rejects_bad_label(self, tmp_path):
        path = write(tmp_path / "l.csv", "1.0,1\n2.0,0\n")
        with pytest.raises(DomainError, match=":2"):
            cli.ingest_csv(path, "labeled")

    def test_objective_duplicate_bitstring(self, tmp_path):
        path = write(tmp_path / "o.csv", "0,1.0\n1,2.0\n0,3.0\n")
        with pytest.raises(DomainError, match="duplicate"):
            cli.ingest_csv(path, "objective")

    def test_objective_invalid_bitstring(self, tmp_path):
        path = write(tmp_path / "o.csv", "00,1.0\n0a1,2.0\n")
        with pytest.raises(DomainError, match="o.csv:2: invalid bitstring '0a1'"):
            cli.ingest_csv(path, "objective")

    def test_objective_bitstring_width_differs(self, tmp_path):
        path = write(tmp_path / "o.csv", "00,1.0\n01,2.0\n100,3.0\n")
        with pytest.raises(DomainError, match="o.csv:3: bitstring width differs from 2"):
            cli.ingest_csv(path, "objective")

    def test_objective_requires_full_coverage(self, tmp_path):
        path = write(tmp_path / "o.csv", "00,1.0\n01,2.0\n")
        with pytest.raises(DomainError, match="covers 2 of 4"):
            cli.ingest_csv(path, "objective")

    def test_objective_round_trip(self, tmp_path):
        path = write(tmp_path / "o.csv", "10,5.0\n00,1.0\n01,2.0\n11,0.5\n")
        table = cli.ingest_csv(path, "objective")
        assert table.tolist() == [1.0, 2.0, 5.0, 0.5]

    def test_missing_file(self):
        with pytest.raises(DomainError, match="nope.csv"):
            cli.ingest_csv("nope.csv", "vectors")


class TestExitCodes:
    def test_worked_search_example(self):
        report = run_ok(["grover", "--bits", "2", "--marked", "2", "--seed", "7"])
        assert report["results"]["measured"] == 2
        assert report["results"]["success_probability"] == 1.0
        assert report["config"]["seed"] == 7

    def test_missing_input_file_is_domain_error(self, capsys):
        code, report = cli.run(["dist", "--a", "absent.csv", "--b", "absent.csv"])
        assert code == 1 and report is None
        assert "absent.csv" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        code, _ = cli.run(["grover", "--bits", "2", "--marked", "2", "--frobnicate"])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        code, _ = cli.run(["teleport"])
        assert code == 2

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
        report = run_ok(["grover", "--bits", "2", "--marked", "1"])
        assert report["config"]["seed"] == 99


    def test_negative_grover_iterations(self, capsys):
        code, report = cli.run(["grover", "--bits", "4", "--marked", "3", "--iterations", "-3"])
        assert code == 1 and report is None
        assert "error: Grover round count must be >= 0, got -3" in capsys.readouterr().err

    def test_negative_minimize_budget(self, capsys):
        code, report = cli.run(["minimize", "--objective", "builtin:demo3", "--budget", "-1"])
        assert code == 1 and report is None
        assert "error: main-iteration budget must be >= 0, got -1" in capsys.readouterr().err

    def test_zero_minimize_budget(self):
        report = run_ok(["minimize", "--objective", "builtin:demo3", "--budget", "0"])
        assert report["results"]["main_iterations"] == 0
        assert report["results"]["trace"] == []

    @pytest.mark.parametrize("command", ["dist", "median", "kmeans", "kmedians"])
    def test_zero_shots(self, command, tmp_path, blob_csv, capsys):
        vec = write(tmp_path / "vec.csv", "3.0,4.0\n")
        inputs = {
            "dist": ["--a", vec, "--b", vec],
            "median": ["--points", blob_csv],
            "kmeans": ["--data", blob_csv, "--k", "2"],
            "kmedians": ["--data", blob_csv, "--k", "2"],
        }[command]
        code, report = cli.run([command, *inputs, "--mode", "shots", "--shots", "0"])
        assert code == 1 and report is None
        assert "error: shots must be >= 1, got 0" in capsys.readouterr().err

    def test_zero_cluster_iterations(self, blob_csv, capsys):
        code, report = cli.run(["kmeans", "--data", blob_csv, "--k", "2", "--max-iterations", "0"])
        assert code == 1 and report is None
        assert "error: iteration budget must be >= 1, got 0" in capsys.readouterr().err

    def test_negative_dft_top(self, tmp_path, capsys):
        signal = write(tmp_path / "sig.csv", "1.0\n0.0\n-1.0\n0.0\n")
        code, report = cli.run(["dft", "--signal", signal, "--top", "-2"])
        assert code == 1 and report is None
        assert "error: --top must be >= 0, got -2" in capsys.readouterr().err

    def test_negative_qnn_epochs(self, tmp_path, capsys):
        data = write(tmp_path / "nn.csv", "0,0,1\n1,0,-1\n")
        code, report = cli.run(
            ["qnn", "--data", data, "--k-bits", "1", "--m-bits", "1", "--epochs", "-1",
             "--params-out", str(tmp_path / "p.csv")]
        )
        assert code == 1 and report is None
        assert "error: epoch count must be >= 0, got -1" in capsys.readouterr().err

    def test_non_integer_qnn_features(self, tmp_path, capsys):
        # The blank line counts: the bad row is data row 2 but file line 3.
        data = write(tmp_path / "nn.csv", "0,0,1\n\n1.5,0,-1\n")
        code, report = cli.run(
            ["qnn", "--data", data, "--k-bits", "1", "--m-bits", "1", "--epochs", "1",
             "--params-out", str(tmp_path / "p.csv")]
        )
        assert code == 1 and report is None
        assert f"{data}:3: features [1.5, 0.0] are not integers" in capsys.readouterr().err

    def test_non_utf8_csv(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1.0,2.0\n# caf\u00e9\n".encode("latin-1"))
        code, report = cli.run(["median", "--points", str(path)])
        assert code == 1 and report is None
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_unitary(self, tmp_path, capsys):
        unitary = tmp_path / "u.json"
        unitary.write_bytes(b'{"matrix": [[[1, 0]]]}\xff')
        eigvec = write(tmp_path / "v.csv", "1.0\n")
        code, report = cli.run(
            ["phase-est", "--unitary", str(unitary), "--eigvec", eigvec, "--controls", "2"]
        )
        assert code == 1 and report is None
        assert f"error: {unitary}: not UTF-8 text" in capsys.readouterr().err

    def test_non_integer_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        code, report = cli.run(["grover", "--bits", "2", "--marked", "2"])
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "$QMLKIT_SEED" in err and "'abc'" in err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_invalid_seed_flag(self, seed, capsys):
        code, report = cli.run(["grover", "--bits", "2", "--marked", "2", "--seed", seed])
        assert code == 2 and report is None
        assert f"seed must be a non-negative integer, got '{seed}'" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.json"
        code, report = cli.run(
            ["grover", "--bits", "2", "--marked", "2", "--output", str(target)]
        )
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing-dir" in err

    def test_swaptest_over_qubit_cap(self, tmp_path, capsys):
        # Two 12-qubit states fit the cap; their 25-qubit swap-test register
        # does not, and is refused before it is built.
        a = write(tmp_path / "a.csv", "1.0\n" + "0.0\n" * 4095)
        code, report = cli.run(["swaptest", "--a", a, "--b", a])
        assert code == 1 and report is None
        assert "error: 25 qubits exceeds the cap of 24" in capsys.readouterr().err

    def test_dist_over_qubit_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qmlkit.state.MAX_QUBITS", 5)
        a = write(tmp_path / "a.csv", ",".join(["1.0"] * 8) + "\n")
        code, report = cli.run(["dist", "--a", a, "--b", a])
        assert code == 1 and report is None
        assert "error: 6 qubits exceeds the cap of 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dist", "kmeans"])
    def test_shot_draws_over_memory_budget(self, command, tmp_path, blob_csv, capsys):
        # 10^12 shots per pair would need TiBs of draws; the request is
        # refused with the estimate before anything is drawn.
        vec = write(tmp_path / "vec.csv", "3.0,4.0\n")
        inputs = {
            "dist": (["--a", vec, "--b", vec], "1 x"),
            "kmeans": (["--data", blob_csv, "--k", "2"], "2 x"),
        }
        argv, batch = inputs[command]
        code, report = cli.run([command, *argv, "--mode", "shots", "--shots", str(10**12)])
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert f"error: {batch} 1000000000000 shot draws need" in err
        assert "over the 256 MiB budget" in err

    def test_kmeans_pass_draws_over_budget_only_in_total(self, blob_csv, monkeypatch):
        # One row's draws (2 centroids x 64 shots) fit the budget; a pass
        # over all 16 rows does not, and still runs, with the same results.
        argv = ["kmeans", "--data", blob_csv, "--k", "2", "--mode", "shots",
                "--shots", "64", "--seed", "5"]
        want = run_ok(argv)
        monkeypatch.setattr("qmlkit.subroutines._DRAW_BYTES_CAP", 8 * 2 * 64)
        assert canonical(run_ok(argv)) == canonical(want)

    def test_phase_est_dimension_mismatch(self, tmp_path, capsys):
        unitary = write(
            tmp_path / "u.json", json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        )
        eigvec = write(tmp_path / "v.csv", "1.0\n0.0\n0.0\n0.0\n")
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert "error: gate of dim 2 cannot act on a 2-qubit eigenvector" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
            {"n_qubits": 1, "steps": [{"gate": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]],
                                       "targets": [0]}]},
        ],
        ids=["matrix", "circuit"],
    )
    def test_phase_est_non_unitary_document(self, doc, tmp_path, capsys):
        unitary = write(tmp_path / "u.json", json.dumps(doc))
        eigvec = write(tmp_path / "v.csv", "1.0\n0.0\n")
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert f"error: {unitary}: " in err and "matrix is not unitary" in err

    def test_phase_est_circuit_over_matrix_cap(self, tmp_path, capsys):
        # A one-step 13-qubit circuit document would need a 1 GiB matrix.
        unitary = write(
            tmp_path / "u.json", '{"n_qubits": 13, "steps": [{"gate": "H", "targets": [0]}]}'
        )
        eigvec = write(tmp_path / "v.csv", "1.0\n0.0\n")
        started = time.perf_counter()
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert time.perf_counter() - started < 5.0
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert f"error: {unitary}: circuit matrix on 13 qubits needs 1,073,741,824 bytes" in err
        assert "the dense-matrix cap is 12 qubits" in err

    def test_qft_at_matrix_cap(self, tmp_path, capsys):
        # The transform builds no matrix, so the dense-matrix cap of 12
        # qubits does not bound it; the report cap does, before any read.
        gen = np.random.default_rng(12)
        for n in (12, 13):
            amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            path = write(
                tmp_path / f"amps{n}.csv",
                "\n".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in amps),
            )
            report = run_ok(["qft", "--qubits", str(n), "--amps", path])
            got = np.array(report["results"]["amplitudes"]) @ np.array([1.0, 1j])
            assert np.max(np.abs(got - np.fft.ifft(amps, norm="ortho"))) <= 1e-12
        over = str(cli.QFT_REPORT_CAP + 1)
        code, report = cli.run(["qft", "--qubits", over, "--amps", str(tmp_path / "absent.csv")])
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            f"error: qft on {over} qubits needs about 225 MiB to read and report its "
            f"amplitudes; the report cap is {cli.QFT_REPORT_CAP} qubits\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag, field",
        [
            ("kmeans", "--eta", "eta"),
            ("kmedians", "--eta", "eta"),
            ("qsvm", "--gamma", "gamma"),
            ("qsvm", "--alpha-max", "alpha_max"),
            ("qsvm", "--penalty", "penalty_coeff"),
            ("qnn", "--eta", "eta"),
        ],
    )
    def test_non_finite_float_flag(self, command, flag, field, value, tmp_path, blob_csv, capsys):
        inputs = {
            "kmeans": ["--data", blob_csv, "--k", "2"],
            "kmedians": ["--data", blob_csv, "--k", "2"],
            "qsvm": ["--data", write(tmp_path / "l.csv", "-1.0,-1\n1.0,1\n"),
                     "--kernel", "gaussian", "--gamma", "1.0"],
            "qnn": ["--data", write(tmp_path / "nn.csv", "0,0,1\n1,0,-1\n"), "--k-bits", "1",
                    "--m-bits", "1", "--epochs", "1", "--params-out", str(tmp_path / "p.csv")],
        }
        code, report = cli.run([command, *inputs[command], f"{flag}={value}"])
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")

    def test_negative_penalty(self, tmp_path, capsys):
        data = write(tmp_path / "l.csv", "-1.0,-1\n1.0,1\n")
        code, report = cli.run(["qsvm", "--data", data, "--penalty", "-5"])
        assert code == 1 and report is None
        assert "error: penalty_coeff must be finite and >= 0, got -5.0" in capsys.readouterr().err

    def test_qpca_samples_over_draw_budget(self, blob_csv, capsys):
        started = time.perf_counter()
        code, report = cli.run(
            ["qpca", "--data", blob_csv, "--components", "1", "--samples", str(10**12)]
        )
        assert time.perf_counter() - started < 5.0
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            "error: 1,000,000,000,000 eigen-sample draws need 22,888,184 MiB, "
            "over the 256 MiB budget\n"
        )

    def test_threads_flag_removed(self):
        code, _ = cli.run(["grover", "--bits", "2", "--marked", "2", "--threads", "4"])
        assert code == 2
        assert "threads" not in run_ok(["grover", "--bits", "2", "--marked", "2"])["config"]

    def test_gamma_on_linear_kernel(self, tmp_path, capsys):
        data = write(tmp_path / "l.csv", "-1.0,-1\n1.0,1\n")
        code, report = cli.run(["qsvm", "--data", data, "--kernel", "linear", "--gamma", "5"])
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            "error: gamma is read only by the gaussian kernel, got gamma=5.0 "
            "with the linear kernel\n"
        )
        assert "gamma" not in run_ok(["qsvm", "--data", data, "--kernel", "linear"])["config"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_qubits": 1, "steps": [{"targets": [0]}]}', "step 0: missing key 'gate'"),
            ('{"unitary": []}', "missing key 'matrix' (or 'steps' for a circuit document)"),
            ('{"steps": []}', "missing key 'n_qubits'"),
            ('{"n_qubits": 1, "steps": [{"gate": 3, "targets": [0]}]}',
             "step 0: 'gate' must be a gate name or a matrix, got 3"),
            ('{"n_qubits": 1, "steps": [{"gate": "H", "targets": 0}]}',
             "step 0: 'targets' must be a list, got 0"),
            ('{"n_qubits": 1, "steps": [{"gate": "H", "targets": [0.5]}]}',
             "step 0: 'targets' entry must be an integer, got 0.5"),
            ('{"n_qubits": 2, "steps": [{"gate": "H", "targets": [0]}, '
             '{"gate": "R", "targets": [1]}]}', "step 1: gate R requires a phase"),
            ('{"n_qubits": 1, "steps": [{"gate": "R", "phase": Infinity, "targets": [0]}]}',
             "step 0: 'phase' must be a finite number, got inf"),
            ('{"n_qubits": 2, "steps": [{"gate": "H", "targets": [2]}]}',
             "step 0: qubit position 2 out of range for 2 qubits"),
            ('{"n_qubits": 2, "steps": [{"gate": "SWAP", "targets": [1]}]}',
             "step 0: gate dim 4 does not match 1 targets"),
            ('{"n_qubits": "2", "steps": []}', "'n_qubits' must be an integer, got '2'"),
            ('{"n_qubits": 1, "steps": {}}', "'steps' must be a list, got {}"),
            ('{"n_qubits": 1, "steps": ["H"]}', "step 0: a step must be a JSON object, got 'H'"),
            ('{"n_qubits": 1, "steps": [{"gate": [[[1, 0]], 5], "targets": [0]}]}',
             "step 0: 'gate' row 1 must be a list of [re, im] pairs, got 5"),
            ('{"matrix": 7}', "matrix must be a list of rows, got 7"),
            ('{"matrix": [[[1, 0], [0, 0]], [[0, 0], "x"]]}',
             "matrix entry [1][1] must be a pair [re, im] of numbers, got 'x'"),
            ('[[[1, 0], [0, 0]], [[0, 0]]]', "matrix rows differ in length: [1, 2]"),
            ('{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1e400, 0]]]}',
             "matrix has NaN or infinite entries"),
            ('{"matrix": [[[1, 0], [0, 0]], [[0, 0], [%d, 0]]]}' % 10**400,
             "matrix entry [1][1] is out of the float range, got %s" % reprlib.repr([10**400, 0])),
        ],
        ids=["no-gate", "no-matrix", "no-n-qubits", "gate-int", "targets-int", "target-float",
             "no-phase", "phase-inf", "target-range", "target-count", "n-qubits-str",
             "steps-dict", "step-str", "gate-row", "matrix-int", "matrix-entry", "ragged",
             "entry-inf", "entry-overflow"],
    )
    def test_unitary_document_error_names_field(self, text, message, tmp_path, capsys):
        unitary = write(tmp_path / "u.json", text)
        eigvec = write(tmp_path / "v.csv", "1.0\n0.0\n")
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {unitary}: {message}\n"

    def test_unitary_document_not_json(self, tmp_path, capsys):
        unitary = write(tmp_path / "u.json", '{"matrix": [')
        eigvec = write(tmp_path / "v.csv", "1.0\n0.0\n")
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith(f"error: {unitary}: not valid JSON (")

    @settings(max_examples=150)
    @given(data=st.data())
    def test_malformed_unitary_documents_fuzz(self, tmp_path_factory, data):
        # A valid matrix or circuit document with one field corrupted, or cut
        # short, ends in exit 1 with an error that names the file; it never
        # raises out of ``run``.
        doc = data.draw(st.sampled_from([_MATRIX_DOC, _CIRCUIT_DOC]), label="doc")
        if data.draw(st.booleans(), label="truncate"):
            full = json.dumps(doc)
            text = full[: data.draw(st.integers(0, len(full) - 1), label="cut")]
        else:
            path = data.draw(st.sampled_from(list(_doc_paths(doc))), label="path")
            delete = bool(path) and data.draw(st.booleans(), label="delete")
            if delete and _in_steps_list(path):
                delete = False  # dropping a whole step leaves a valid circuit
            junk = None if delete else data.draw(_JUNK, label="junk")
            text = json.dumps(_corrupt(doc, path, delete, junk))
        directory = tmp_path_factory.mktemp("unitary")
        unitary = write(directory / "u.json", text)
        eigvec = write(directory / "v.csv", "1.0\n" + "0.0\n" * 3)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code, report = cli.run(
                ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
            )
        assert code in (1, 2) and report is None, text
        assert err.getvalue().startswith(f"error: {unitary}: "), (text, err.getvalue())


_IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_MATRIX_DOC = {"matrix": _IDENTITY}
_CIRCUIT_DOC = {
    "n_qubits": 2,
    "steps": [
        {"gate": "H", "targets": [0]},
        {"gate": "R", "phase": 0.5, "targets": [1]},
        {"gate": _IDENTITY, "targets": [1]},
        {"gate": "SWAP", "targets": [0, 1]},
    ],
}


def _is_gate_name(text: str) -> bool:
    try:
        standard_gate(text, phase=0.5)
    except DomainError:
        return False
    return True


# Values that are wrong in every field of a matrix or circuit document.
_JUNK = st.one_of(
    st.none(),
    st.text(max_size=4).filter(lambda text: not _is_gate_name(text)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
)


def _doc_paths(value, path=()):
    """Every position in a JSON value, as the keys and indices leading to it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _doc_paths(item, (*path, key))


def _in_steps_list(path) -> bool:
    return len(path) == 2 and path[0] == "steps"


def _corrupt(doc, path, delete: bool, junk):
    """A deep copy of ``doc`` with the value at ``path`` replaced or removed."""
    if not path:
        return junk
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return copy


def _fresh_config(argv) -> dict:
    """The ``config`` echo of ``argv`` as a newly built parser reads it."""
    args = cli.build_parser().parse_args(argv)
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("output", "verbose") and value is not None
    }


class TestParserReuse:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for seed in range(4):
            run_ok(["grover", "--bits", "2", "--marked", "2", "--seed", str(seed)])
        assert cli.run(["grover", "--frobnicate"]) == (2, None)
        run_ok(["minimize", "--objective", "builtin:demo3"])
        assert len(built) == 1

    def test_not_built_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c",
             "import qmlkit.cli as c; print(c._parser.cache_info().currsize)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out == "0\n"

    def test_flags_do_not_leak_between_runs(self, tmp_path, blob_csv):
        labeled = write(tmp_path / "l.csv", "-1.0,-1\n1.0,1\n")
        plain = ["kmeans", "--data", blob_csv, "--k", "2", "--seed", "3"]
        argvs = [
            plain,
            plain + ["--grover-argmin"],
            plain,
            ["qsvm", "--data", labeled, "--penalty", "2", "--seed", "1"],
            ["qsvm", "--data", labeled, "--seed", "1"],
        ]
        reports = [run_ok(argv) for argv in argvs]
        for argv, report in zip(argvs, reports):
            assert report["config"] == _fresh_config(argv), argv
        assert reports[1]["config"]["grover_argmin"] is True
        assert reports[2]["config"]["grover_argmin"] is False
        assert canonical(reports[2]) == canonical(reports[0])
        assert reports[3]["config"]["penalty"] == 2.0
        assert "penalty" not in reports[4]["config"]

    def test_usage_error_then_valid_run(self, capsys):
        assert cli.run(["grover", "--bits", "2"]) == (2, None)
        assert "--marked" in capsys.readouterr().err
        report = run_ok(["grover", "--bits", "2", "--marked", "2", "--seed", "7"])
        assert report["results"]["measured"] == 2
        assert report["config"] == {
            "bits": 2, "command": "grover", "format": "json", "marked": "2", "seed": 7
        }

    def test_seed_env_read_per_call(self, monkeypatch):
        argv = ["grover", "--bits", "2", "--marked", "1"]
        for seed in ("5", "6"):
            monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
            assert run_ok(argv)["config"]["seed"] == int(seed)
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert run_ok(argv)["config"]["seed"] == 0

    def test_help_twice(self, capsys):
        for _ in range(2):
            assert cli.run(["--help"]) == (0, None)
            assert capsys.readouterr().out.startswith("usage: qmlkit")
            assert cli.run(["kmeans", "--help"]) == (0, None)
            assert "--grover-argmin" in capsys.readouterr().out


class TestSubcommands:
    def test_grover_twenty_bits(self):
        report = run_ok(["grover", "--bits", "20", "--marked", "777", "--seed", "3"])
        results = report["results"]
        rounds = results["iterations"]
        assert rounds == 804
        angle = math.asin(math.sqrt(1 / 2**20))
        expected = math.sin((2 * rounds + 1) * angle) ** 2
        assert abs(results["success_probability"] - expected) <= 1e-9
        assert "amplitudes" not in results

    def test_grover_vectorized_oracle_matches_predicate(self, monkeypatch):
        seen = []
        search = cli.grover.grover_search

        def capture(oracle, rng, iterations=None):
            seen.append(oracle)
            return search(oracle, rng, iterations=iterations)

        monkeypatch.setattr(cli.grover, "grover_search", capture)
        run_ok(["grover", "--bits", "6", "--marked", "63,0,17,17,40"])
        (oracle,) = seen
        inputs = np.arange(2**6)
        vectorized = np.asarray(oracle.predicate_vectorized(inputs), dtype=bool)
        assert vectorized.tolist() == [oracle.predicate(int(x)) for x in inputs]
        assert set(np.flatnonzero(vectorized)) == {0, 17, 40, 63}

    def test_minimize_builtin(self):
        report = run_ok(["minimize", "--objective", "builtin:demo3", "--seed", "5"])
        assert report["results"]["argmin_bits"] == "100"
        assert report["results"]["min_value"] == 0.0

    def test_minimize_from_csv(self, tmp_path):
        rows = "\n".join(f"{x:02b},{v}" for x, v in enumerate([3.0, 1.0, 0.5, 2.0]))
        path = write(tmp_path / "obj.csv", rows)
        report = run_ok(["minimize", "--objective", path, "--seed", "1"])
        assert report["results"]["argmin_bits"] == "10"

    def test_qft_roundtrip_amplitudes(self, tmp_path):
        path = write(tmp_path / "amps.csv", "1.0\n0.0\n0.0\n0.0\n")
        report = run_ok(["qft", "--qubits", "2", "--amps", path])
        assert np.allclose(report["results"]["probabilities"], 0.25)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_qft_matches_gate(self, tmp_path_factory, n, seed):
        gen = np.random.default_rng(seed)
        amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        psi = StateVector(n, amps / np.linalg.norm(amps))
        path = write(
            tmp_path_factory.mktemp("qft") / "amps.csv",
            "\n".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in psi.amps),
        )
        report = run_ok(["qft", "--qubits", str(n), "--amps", path])
        got = np.array(report["results"]["amplitudes"]) @ np.array([1.0, 1j])
        want = apply(qft_gate(n), list(range(n)), psi).amps
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_dft_two_sine_bins(self, tmp_path):
        j = np.arange(1000)
        signal = 2 * np.sin(2 * np.pi * 10 * j / 1000) + 0.3 * np.sin(
            2 * np.pi * 50 * j / 1000
        )
        path = write(tmp_path / "sig.csv", "\n".join(repr(float(v)) for v in signal))
        report = run_ok(["dft", "--signal", path])
        assert report["results"]["top_bins"] == [10, 50, 950, 990]

    def test_dft_denoise_recovers_clean_signal(self, tmp_path):
        j = np.arange(200)
        clean = 2 * np.sin(2 * np.pi * 10 * j / 200)
        noisy = clean + 0.3 * np.sin(2 * np.pi * 50 * j / 200)
        path = write(tmp_path / "sig.csv", "\n".join(repr(float(v)) for v in noisy))
        report = run_ok(["dft", "--signal", path, "--zero-bins", "50,150"])
        assert np.max(np.abs(np.array(report["results"]["denoised"]) - clean)) < 1e-9

    def test_phase_est(self, tmp_path):
        unitary = write(
            tmp_path / "u.json",
            json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}),
        )
        eigvec = write(tmp_path / "v.csv", "0.0\n1.0\n")
        report = run_ok(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "2"]
        )
        assert report["results"]["theta_estimate"] == 0.25
        assert report["results"]["success_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_phase_est_accepts_circuit_json(self, tmp_path):
        from qmlkit.gates import Circuit, standard_gate

        circuit = Circuit(1, [(standard_gate("R", phase=math.pi / 4), (0,))])
        unitary = write(tmp_path / "circ.json", circuit.to_json())
        eigvec = write(tmp_path / "v.csv", "0.0\n1.0\n")
        report = run_ok(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "3"]
        )
        assert report["results"]["theta_estimate"] == 0.125

    def test_swaptest_orthogonal(self, tmp_path):
        a = write(tmp_path / "a.csv", "1.0\n0.0\n")
        b = write(tmp_path / "b.csv", "0.0\n1.0\n")
        report = run_ok(["swaptest", "--a", a, "--b", b, "--shots", "2048"])
        assert report["results"]["exact_p0"] == pytest.approx(0.5, abs=1e-12)

    def test_dist(self, tmp_path):
        a = write(tmp_path / "a.csv", "3.0,4.0\n")
        b = write(tmp_path / "b.csv", "6.0,8.0\n")
        report = run_ok(["dist", "--a", a, "--b", b])
        assert report["results"]["dist_sq"] == pytest.approx(25.0, abs=1e-9)
        assert report["results"]["inner_prod"] == pytest.approx(50.0, abs=1e-9)

    def test_median(self, tmp_path):
        path = write(tmp_path / "pts.csv", "1.0,0.0\n2.0,0.0\n3.0,0.0\n")
        report = run_ok(["median", "--points", path, "--seed", "3"])
        assert report["results"]["index"] == 1

    def test_kmeans(self, blob_csv):
        report = run_ok(["kmeans", "--data", blob_csv, "--k", "2", "--seed", "4"])
        results = report["results"]
        assert results["converged"]
        assert len(set(results["assignments"][:8])) == 1
        assert len(set(results["assignments"])) == 2

    @pytest.mark.parametrize("command", ["kmeans", "kmedians"])
    def test_cluster_handler_calls_module_attribute(self, command, blob_csv, monkeypatch):
        calls = []
        fit = getattr(cli.clustering, command)

        def wrapped(*args, **kwargs):
            calls.append(command)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli.clustering, command, wrapped)
        run_ok([command, "--data", blob_csv, "--k", "2", "--max-iterations", "1"])
        assert calls == [command]

    def test_kmedians_centroids_are_rows(self, blob_csv):
        report = run_ok(["kmedians", "--data", blob_csv, "--k", "2", "--seed", "4"])
        rows = {
            tuple(map(float, line.split(",")))
            for line in open(blob_csv, encoding="utf-8").read().splitlines()
        }
        assert all(tuple(c) in rows for c in report["results"]["centroids"])

    def test_qsvm(self, tmp_path):
        path = write(tmp_path / "svm.csv", "-1.0,-1\n1.0,1\n")
        report = run_ok(["qsvm", "--data", path, "--kernel", "linear", "--seed", "2"])
        assert report["results"]["training_accuracy"] == 1.0
        assert report["results"]["theta"][0] > 0

    def test_qpca(self, tmp_path):
        gen = np.random.default_rng(3)
        data = gen.normal(size=(6, 2)) @ np.array([[2.0, 0.3], [0.3, 0.4]])
        path = write(tmp_path / "pca.csv", "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in data))
        report = run_ok(
            ["qpca", "--data", path, "--components", "2", "--samples", "256", "--seed", "6"]
        )
        results = report["results"]
        assert sum(results["eigenvalues"]) == pytest.approx(1.0, abs=1e-9)
        assert sum(results["sampled_counts"]) == 256
        assert len(results["scores"]) == 6

    def test_qnn(self, tmp_path):
        data = write(tmp_path / "nn.csv", "0,0,1\n1,0,-1\n")
        params_out = str(tmp_path / "params.csv")
        report = run_ok(
            [
                "qnn", "--data", data, "--k-bits", "1", "--m-bits", "1",
                "--epochs", "5", "--seed", "1", "--params-out", params_out,
            ]
        )
        assert os.path.exists(params_out)
        assert len(report["results"]["trace"]) == 6

    def test_qnn_params_file_reads_back(self, tmp_path):
        # One plain float repr per line, which the CSV reader accepts (a
        # numpy scalar's repr, "np.float64(...)", it rejects).
        data = write(tmp_path / "nn.csv", "0,0,1\n1,0,-1\n")
        params_out = str(tmp_path / "params.csv")
        run_ok(["qnn", "--data", data, "--k-bits", "1", "--m-bits", "1", "--epochs", "1",
                "--params-out", params_out])
        assert cli.ingest_csv(params_out, "vectors").shape == (64, 1)

    def test_paper_check_all_pass(self):
        report = run_ok(["paper-check"])
        assert report["results"]["passed"] is True
        assert report["results"]["failures"] == 0
        assert report["results"]["total"] >= 10


class TestReportContract:
    COMMANDS = None  # populated below

    def test_deterministic_payloads(self, tmp_path, blob_csv, capsys):
        for argv in _all_command_invocations(tmp_path, blob_csv):
            first = run_ok(argv + ["--seed", "11"])
            second = run_ok(argv + ["--seed", "11"])
            assert canonical(first) == canonical(second), argv

    def test_reports_validate_against_published_schemas(self, tmp_path, blob_csv):
        for argv in _all_command_invocations(tmp_path, blob_csv):
            report = run_ok(argv)
            name = argv[0]
            schema_text = (
                resources.files("qmlkit") / "schemas" / f"{name}.json"
            ).read_text(encoding="utf-8")
            jsonschema.validate(report, json.loads(schema_text))

    def test_output_file_and_csv_format(self, tmp_path):
        out = tmp_path / "report.json"
        run_ok(["grover", "--bits", "2", "--marked", "2", "--output", str(out)])
        assert json.loads(out.read_text())["results"]["measured"] == 2
        csv_out = tmp_path / "report.csv"
        run_ok(
            ["grover", "--bits", "2", "--marked", "2", "--format", "csv",
             "--output", str(csv_out)]
        )
        assert "success_probability,1.0" in csv_out.read_text()


def _all_command_invocations(tmp_path, blob_csv):
    amps = write(tmp_path / "amps.csv", "1.0\n0.0\n")
    signal = write(tmp_path / "signal.csv", "\n".join(
        repr(math.sin(2 * math.pi * 3 * j / 64)) for j in range(64)
    ))
    unitary = write(
        tmp_path / "unit.json",
        json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}),
    )
    vec_a = write(tmp_path / "veca.csv", "3.0,4.0\n")
    vec_b = write(tmp_path / "vecb.csv", "1.0,1.0\n")
    points = write(tmp_path / "points.csv", "1.0,0.0\n2.0,0.0\n3.0,0.5\n")
    labeled = write(tmp_path / "labeled.csv", "-1.0,-1\n1.0,1\n")
    nn_data = write(tmp_path / "nn.csv", "0,0,1\n1,0,-1\n")
    return [
        ["grover", "--bits", "3", "--marked", "5"],
        ["minimize", "--objective", "builtin:demo3"],
        ["qft", "--qubits", "1", "--amps", amps],
        ["dft", "--signal", signal],
        ["phase-est", "--unitary", unitary, "--eigvec", amps, "--controls", "3",
         "--normalize"],
        ["swaptest", "--a", amps, "--b", write(tmp_path / "amps_b.csv", "0.6\n0.8\n"),
         "--shots", "512"],
        ["dist", "--a", vec_a, "--b", vec_b],
        ["median", "--points", points],
        ["kmeans", "--data", blob_csv, "--k", "2"],
        ["kmedians", "--data", blob_csv, "--k", "2"],
        ["qsvm", "--data", labeled, "--kernel", "linear"],
        ["qpca", "--data", blob_csv, "--components", "1", "--samples", "64"],
        ["qnn", "--data", nn_data, "--k-bits", "1", "--m-bits", "1",
         "--epochs", "2", "--params-out", str(tmp_path / "p.csv")],
        ["paper-check"],
    ]
