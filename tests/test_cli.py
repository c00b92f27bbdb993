import contextlib
import io
import json
import math
import os
import re
import reprlib
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_ingest_csv
from qmlkit import cli, state
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


def load_schema(name):
    return json.loads(
        (resources.files("qmlkit") / "schemas" / f"{name}.json").read_text(encoding="utf-8")
    )


def validate_report(report):
    """The two-step contract: the envelope, then the command's results."""
    jsonschema.validate(report, load_schema("report"))
    jsonschema.validate(report["results"], load_schema(report["config"]["command"]))


def canonical(report):
    stripped = {k: v for k, v in report.items() if k != "timings_ms"}
    return json.dumps(stripped, sort_keys=True)


# Four separable rows, +-1 labels last.
_SVM_ROWS = "1.0,0.0,1\n0.0,1.0,-1\n-1.0,0.0,1\n0.0,-1.0,-1\n"


# One subcommand per ingestion schema, reading the file given last.
SCHEMA_READERS = {
    "vectors": ["dft", "--signal"],
    "labeled": ["qsvm", "--data"],
    "labeled-integers": ["qnn", "--k-bits", "1", "--m-bits", "1", "--data"],
    "objective": ["minimize", "--objective"],
}


@st.composite
def csv_like_text(draw) -> bytes:
    """Rows of numbers, bitstrings, labels and junk cells, or an objective
    table over every n-bit input with some rows dropped, repeated or
    spoiled, joined by mixed line endings, as UTF-8 bytes."""
    cell = st.one_of(
        st.floats().map(repr),
        st.integers(-2, 2).map(str),
        st.text("01", min_size=1, max_size=5),
        st.sampled_from(["", " ", "nan", "-inf", "1e400", "1_0", "0x1", "\ufeff1", "1,"]),
        st.text(max_size=4),
    )
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        table = [f"{x:0{width}b},{draw(cell)}" for x in range(2**width)]
        rows = draw(st.lists(st.sampled_from(table), min_size=1, max_size=9)
                    | st.permutations(table))
    else:
        rows = draw(st.lists(st.lists(cell, min_size=1, max_size=4).map(",".join), max_size=6))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(rows).encode("utf-8")


# The ASCII characters that str.strip() and numpy's float reader both strip.
ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


@st.composite
def legal_csv_text(draw, schema) -> bytes:
    """A valid file of ``schema`` in unusual but legal formatting: cells
    padded with ASCII whitespace, blank and whitespace-only lines, "\n",
    "\r\n" or "\r" endings, no final newline, and the values -0.0, 5e-324,
    1e308 and mantissas of 17 digits or more."""
    space = st.text(st.sampled_from(ASCII_SPACE), max_size=2)
    pad = lambda cell: st.tuples(space, cell, space).map("".join)  # noqa: E731
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["-0.0", "5e-324", "1e308", "-1e308", "+1", "1.", ".5"]),
        st.tuples(st.integers(0, 99), st.text("0123456789", min_size=17, max_size=40))
        .map(lambda p: f"{p[0]}.{p[1]}"),
    )
    if schema == "objective":
        width = draw(st.integers(1, 4))
        rows = [f"{draw(pad(st.just(f'{x:0{width}b}')))},{draw(pad(value))}"
                for x in draw(st.permutations(range(2**width)))]
    else:
        feature = st.integers(-10**6, 10**6).map(str) if schema == "labeled-integers" else value
        label = st.sampled_from(["1", "-1", "1.0", "-1.0", "+1", "1e0"])
        width = draw(st.integers(2 if schema.startswith("labeled") else 1, 4))
        rows = [",".join([draw(pad(feature)) for _ in range(width - 1)]
                         + [draw(pad(label if schema.startswith("labeled") else value))])
                for _ in range(draw(st.integers(1, 8)))]
    lines = []
    for row in rows:
        lines += draw(st.lists(space, max_size=2)) + [row]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode()


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

    @pytest.mark.parametrize("cell", ["1_0", "1.5e1_0", "\u0663", "\uff11", "\u0967.5"])
    @pytest.mark.parametrize("schema", sorted(SCHEMA_READERS))
    def test_cell_is_ascii_without_underscores(self, schema, cell, tmp_path, capsys):
        # Python's float reads each of these cells as a number.
        text = {
            "vectors": "1.0\n{}\n",
            "labeled": "1.0,1\n{},-1\n",
            "labeled-integers": "0,0,1\n{},1,-1\n",
            "objective": "0,1.0\n1,{}\n",
        }[schema]
        path = write(tmp_path / "bad.csv", text.format(cell))
        code, report = cli.run(SCHEMA_READERS[schema] + [path])
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {path}:2: non-numeric cell\n"

    @settings(max_examples=200)
    @given(content=st.one_of(st.binary(max_size=96), csv_like_text()), schema=st.sampled_from(
        sorted(SCHEMA_READERS)))
    def test_fuzz_arrays_or_error_naming_file(self, content, schema, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(content)
        path = str(path)
        try:
            parsed = cli.ingest_csv(path, schema)
        except DomainError as exc:
            assert str(exc).startswith(path), str(exc)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code, report = cli.run(SCHEMA_READERS[schema] + [path])
            assert (code, report) == (1, None)
            assert stderr.getvalue().startswith(f"error: {path}"), stderr.getvalue()
            return
        arrays = parsed if isinstance(parsed, tuple) else (parsed,)
        assert all(isinstance(a, np.ndarray) and np.isfinite(a).all() for a in arrays)


def read_outcome(reader, path, schema):
    """The arrays a reader returns (dtype, shape and bytes), or its error text."""
    try:
        parsed = reader(path, schema)
    except DomainError as exc:
        return str(exc)
    arrays = parsed if isinstance(parsed, tuple) else (parsed,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestChunkedReader:
    """``ingest_csv`` reads the file with numpy's C reader, and a file it
    refuses line by line; the line-by-line ``reference_ingest_csv`` is the
    reference for every result and message."""

    def assert_same(self, path, schema):
        expected = read_outcome(reference_ingest_csv, path, schema)
        assert read_outcome(cli.ingest_csv, path, schema) == expected
        return expected

    @settings(max_examples=200)
    @given(content=st.one_of(st.binary(max_size=96), csv_like_text()), schema=st.sampled_from(
        sorted(SCHEMA_READERS)))
    def test_matches_reference(self, content, schema, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "same.csv"
        path.write_bytes(content)
        self.assert_same(str(path), schema)

    @settings(max_examples=200)
    @given(data=st.data(), schema=st.sampled_from(sorted(SCHEMA_READERS)))
    def test_legal_formatting_takes_the_c_reader(self, data, schema, tmp_path_factory):
        # A file of float rows never reaches the line-by-line pass; an
        # objective does only when a bitstring is padded, which numpy keeps.
        content = data.draw(legal_csv_text(schema))
        path = tmp_path_factory.getbasetemp() / "legal.csv"
        path.write_bytes(content)
        line_pass, first_fault = [], cli._raise_first_fault

        def recorded(*args):
            line_pass.append(args)
            return first_fault(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_raise_first_fault", recorded)
            outcome = self.assert_same(str(path), schema)
        assert not isinstance(outcome, str), outcome
        bits = [line.split(",")[0] for line in re.split("[\r\n]", content.decode()) if "," in line]
        padded_bits = schema == "objective" and any(cell != cell.strip() for cell in bits)
        assert bool(line_pass) == padded_bits

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\x0c\n\r", "\x1c\x1f"])
    @pytest.mark.parametrize("schema", sorted(SCHEMA_READERS))
    def test_blank_file_has_no_data_rows(self, schema, text, tmp_path, capsys):
        path = write(tmp_path / "blank.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = cli.run(SCHEMA_READERS[schema] + [path])
        assert (code, report) == (1, None)
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_late_fault_in_a_large_file_holds_no_rows(self, tmp_path):
        # 2^20 rows of two floats, then a bad row: numpy holds the 16 MiB of
        # rows before it, and the line-by-line pass that names the row holds
        # none.  The child reports how far its VmHWM rose over the read.
        path = tmp_path / "late.csv"
        path.write_text("0.5,0.25\n" * 2**20 + "0.5,x\n", encoding="ascii")
        import qmlkit

        src = str(Path(qmlkit.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys\n"
            "from qmlkit import cli\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "cli.run(['dft', '--signal', sys.argv[2]])  # loads what every run loads\n"
            "before = peak()\n"
            "code, report = cli.run(['dft', '--signal', sys.argv[1]])\n"
            "print(code, peak() - before, file=sys.stderr)\n"
        )
        small = write(tmp_path / "small.csv", "1.0\n")
        err = subprocess.run(
            [sys.executable, "-c", script, str(path), small], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stderr.splitlines()
        assert err[-2] == f"error: {path}:1048577: non-numeric cell"
        code, rise_kib = map(int, err[-1].split())
        assert code == 1
        assert rise_kib <= 20 * 1024, f"read raised the peak by {rise_kib / 1024:.1f} MiB"

    @pytest.mark.parametrize("bad_row, message", [
        ("0.5,x", "non-numeric cell"),
        ("0.5,inf", "NaN or infinite value"),
        ("0.5", "expected 2 columns, found 1"),
        ("0.5,7", "label 7.0 is not -1 or 1"),
    ])
    def test_error_in_later_chunk_names_its_line(self, bad_row, message, tmp_path):
        gen = np.random.default_rng(4)
        rows = [f"{float(v)!r},1" for v in gen.normal(size=9000)]
        rows[1000:1000] = ["", "  "]
        rows.insert(8500, bad_row)
        path = write(tmp_path / "late.csv", "\n".join(rows) + "\n")
        assert os.path.getsize(path) > 2 * 2**16
        assert self.assert_same(path, "labeled") == f"{path}:8501: {message}"

    def test_crlf_across_chunk_boundary_is_one_line(self, tmp_path):
        # The first read ends on the "\r" of the first row's "\r\n".
        first = "1." + "0" * (2**16 - 3)
        path = tmp_path / "crlf.csv"
        path.write_bytes(f"{first}\r\n2.0\r\nx\r\n".encode())
        assert self.assert_same(str(path), "vectors") == f"{path}:3: non-numeric cell"
        path.write_bytes(f"{first}\r\n2.0\r\n".encode())
        assert cli.ingest_csv(str(path), "vectors").tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("bits", ["0\0", "0\0\0", "\x000"])
    def test_nul_in_a_bitstring_is_refused(self, bits, tmp_path):
        # numpy reads "0\0" into a bitstring field as "0".
        path = write(tmp_path / "nul.csv", f"{bits},1.0\n1,2.0\n")
        assert self.assert_same(path, "objective") == f"{path}:1: invalid bitstring {bits!r}"

    @pytest.mark.parametrize("text, message", [
        ("0" * 70 + ",1.0\n", "objective covers 1 of 1180591620717411303424 inputs"),
        ("1" * 70 + ",1.0\n" + "1" * 70 + ",2.0\n",
         f"2: duplicate bitstring {'1' * 70!r} (first on line 1)"),
        ("0" * 70 + ",1.0\n" + "1" * 69 + ",2.0\n", "2: bitstring width differs from 70"),
    ])
    def test_wide_objective_rows(self, text, message, tmp_path):
        path = write(tmp_path / "wide.csv", text)
        tracemalloc.start()
        try:
            outcome = self.assert_same(path, "objective")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.endswith(message)
        assert peak < 2**20  # nothing of 2^70 entries, nor of 2^62

    def test_memory_follows_the_output(self, tmp_path):
        # Rows of a normalized re,im state: 2^16 and 2^18 amplitudes.
        peaks = {}
        for n in (16, 18):
            amp = repr(2.0 ** (-n / 2))
            path = write(tmp_path / f"state{n}.csv", f"{amp},-0.0\n" * 2**n)
            tracemalloc.start()
            try:
                psi = cli._read_state(path, n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert psi.amps[0] == complex(2.0 ** (-n / 2), 0.0)
        extra_output = (2**18 - 2**16) * 16
        assert peaks[18] - peaks[16] <= 3 * extra_output, peaks

    @pytest.mark.parametrize("row", ["{amp},-0.0\n", "{amp}\n"])
    def test_normalized_read_peaks_as_the_plain_read(self, row, tmp_path):
        # 2^18 amplitudes (a 4 MiB state): rescaling while reading holds no
        # more than reading an already normalized state does.
        n = 18
        path = write(tmp_path / "state.csv", row.format(amp=repr(2.0 ** (-n / 2))) * 2**n)
        peaks = {}
        for normalize in (False, True):
            tracemalloc.start()
            try:
                cli._read_state(path, n, normalize)
                peaks[normalize] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] <= peaks[False] + 2**16, peaks

    def test_state_keeps_the_bits_of_re_plus_1j_im(self, tmp_path):
        path = write(tmp_path / "zeros.csv", "-0.0,0.0\n-0.0,-0.0\n0.0,-0.0\n-0.0,-1.0\n")
        rows = reference_ingest_csv(path, "vectors")
        expected = state.normalize(rows[:, 0] + 1j * rows[:, 1]).amps
        assert cli._read_state(path, normalize=True).amps.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("power", [300, 400])
    def test_grover_iterations_over_cap(self, power, capsys):
        start = time.perf_counter()
        code, report = cli.run(
            ["grover", "--bits", "4", "--marked", "3", "--iterations", str(10**power)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert "over the cap of 2,097,152 (2^21)" in err and "Traceback" not in err

    def test_grover_iterations_at_cap(self):
        report = run_ok(["grover", "--bits", "4", "--marked", "3", "--iterations", str(2**21)])
        assert report["results"]["iterations"] == 2**21

    def test_negative_minimize_budget(self, capsys):
        code, report = cli.run(["minimize", "--objective", "builtin:demo3", "--budget", "-1"])
        assert code == 1 and report is None
        assert "error: main-iteration budget must be >= 0, got -1" in capsys.readouterr().err

    def test_minimize_budget_over_cap(self, capsys):
        code, report = cli.run(
            ["minimize", "--objective", "builtin:demo3", "--budget", str(2**20 + 1)]
        )
        assert code == 1 and report is None
        assert (
            "error: main-iteration budget 1,048,577 is over the 1,048,576 cap: "
            "its trace would hold 1,048,577 entries, about 72 MiB"
        ) in capsys.readouterr().err

    def test_qsvm_bits_over_cap(self, tmp_path, capsys):
        data = write(tmp_path / "l.csv", "-1.0,-1\n1.0,1\n")
        code, report = cli.run(["qsvm", "--data", data, "--bits", "1000000000000"])
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith(
            f"error: {data}: 2 multipliers at 1000000000000 bits exceed the 20-bit search cap: "
            "the 2000000000000-bit grid's table would hold 8 x 2^2000000000000 bytes"
        )

    def test_zero_minimize_budget(self):
        report = run_ok(["minimize", "--objective", "builtin:demo3", "--budget", "0"])
        assert report["results"]["main_iterations"] == 0
        assert report["results"]["trace"] == []

    @pytest.mark.parametrize("command", ["dist", "median", "kmeans", "kmedians"])
    def test_zero_shots(self, command, tmp_path, blob_csv, capsys):
        vec = write(tmp_path / "vec.csv", "3.0,4.0\n")
        inputs, named = {
            "dist": (["--a", vec, "--b", vec], f"{vec}, {vec}"),
            "median": (["--points", blob_csv], blob_csv),
            "kmeans": (["--data", blob_csv, "--k", "2"], blob_csv),
            "kmedians": (["--data", blob_csv, "--k", "2"], blob_csv),
        }[command]
        code, report = cli.run([command, *inputs, "--mode", "shots", "--shots", "0"])
        assert code == 1 and report is None
        assert f"error: {named}: shots must be >= 1, got 0" in capsys.readouterr().err

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
        assert f"error: {a}, {a}: 25 qubits exceeds the cap of 24" in capsys.readouterr().err

    def test_dist_over_qubit_cap(self, tmp_path, monkeypatch, capsys):
        # A row of 64 entries needs a 6-qubit amplitude encoding.
        monkeypatch.setattr("qmlkit.state.MAX_QUBITS", 5)
        a = write(tmp_path / "a.csv", ",".join(["1.0"] * 64) + "\n")
        code, report = cli.run(["dist", "--a", a, "--b", a])
        assert code == 1 and report is None
        assert f"error: {a}, {a}: 6 qubits exceeds the cap of 5" in capsys.readouterr().err

    def test_dist_at_qubit_cap(self, tmp_path, monkeypatch):
        # A row of 32 entries fills a 5-qubit encoding, at the cap; no
        # larger register is built around the pair.
        monkeypatch.setattr("qmlkit.state.MAX_QUBITS", 5)
        a = write(tmp_path / "a.csv", ",".join(["1.0"] * 32) + "\n")
        b = write(tmp_path / "b.csv", ",".join(["2.0"] * 32) + "\n")
        results = run_ok(["dist", "--a", a, "--b", b])["results"]
        assert results["dist_sq"] == pytest.approx(32.0, rel=1e-12)

    @pytest.mark.parametrize("command", ["dist", "kmeans"])
    def test_shot_draws_over_memory_budget(self, command, tmp_path, blob_csv, capsys):
        # 10^12 shots per pair would need TiBs of draws; the request is
        # refused with the estimate before anything is drawn.
        vec = write(tmp_path / "vec.csv", "3.0,4.0\n")
        inputs = {
            "dist": (["--a", vec, "--b", vec], f"{vec}, {vec}: 1 x"),
            "kmeans": (["--data", blob_csv, "--k", "2"], f"{blob_csv}: 2 x"),
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
        assert f"error: {eigvec}: 4 amplitudes do not fill a 1-qubit register" in err

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["phase-est", "--unitary", "{u}", "--eigvec", "{bad}", "--controls", "2"],
             "1.0\n0.0\n0.0\n", "3 amplitudes do not fill a 1-qubit register"),
            (["qft", "--qubits", "1", "--amps", "{bad}"], "1.0\n1.0\n",
             "state not normalized"),
            (["swaptest", "--a", "{amps}", "--b", "{bad}"], "1.0\n0.0\n0.0\n",
             "length 3 is not a power of two"),
            (["dist", "--a", "{row}", "--b", "{bad}"], "1.0,0.0\n0.0,1.0\n",
             "dist expects one vector row, found 2"),
            (["qnn", "--data", "{bad}", "--k-bits", "1", "--m-bits", "1", "--epochs", "1",
              "--params-out", "{params}"], "0,0,0,1\n1,0,0,-1\n",
             "qnn expects exactly two integer features per row, found 3"),
            (["phase-est", "--unitary", "{bad}", "--eigvec", "{amps}", "--controls", "2"],
             '{"matrix": [[[true, false]]]}', "a 1x1 matrix acts on no qubit"),
        ],
        ids=["phase-est-rows", "qft-unnormalized", "swaptest-rows", "dist-rows", "qnn-columns",
             "unitary-1x1"],
    )
    def test_input_file_error_names_the_file(self, argv, text, message, tmp_path, capsys):
        # A 2-qubit eigenvector against a 1-qubit unitary is
        # test_phase_est_dimension_mismatch above.
        files = {
            "u": write(tmp_path / "u.json", json.dumps({"matrix": [[[1, 0], [0, 0]],
                                                                   [[0, 0], [1, 0]]]})),
            "amps": write(tmp_path / "amps.csv", "1.0\n0.0\n"),
            "row": write(tmp_path / "row.csv", "1.0,0.0\n"),
            "bad": write(tmp_path / "bad.txt", text),
            "params": str(tmp_path / "params.csv"),
        }
        code, report = cli.run([arg.format(**files) for arg in argv])
        assert code == 1 and report is None
        assert f"error: {files['bad']}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, first, second, message",
        [
            ("swaptest", "1.0\n0.0\n", "1.0\n0.0\n0.0\n0.0\n",
             "swap test needs equal registers, got 1 and 2 qubits"),
            ("dist", "1.0,0.0\n", "1.0,0.0,0.0\n", "dimension mismatch: 2 vs 3"),
        ],
        ids=["swaptest-registers", "dist-columns"],
    )
    def test_two_file_error_names_both_files(
        self, command, first, second, message, tmp_path, capsys
    ):
        a = write(tmp_path / "a.csv", first)
        b = write(tmp_path / "b.csv", second)
        code, report = cli.run([command, "--a", a, "--b", b])
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {a}, {b}: {message}\n"

    @pytest.mark.parametrize(
        "argv, texts",
        [
            (["minimize", "--objective", "{first}"], ["00,1.0\n01,2.0\n10,3.0\n"]),
            (["qft", "--qubits", "1", "--amps", "{first}"], ["1.0\n1.0\n"]),
            (["dft", "--signal", "{first}"], ["1e308\n" * 4]),
            (["phase-est", "--unitary", "{first}", "--eigvec", "{second}", "--controls", "2"],
             [json.dumps({"n_qubits": 1, "steps": [{"gate": "H", "targets": [0]}]}),
              "1.0\n0.0\n"]),
            (["swaptest", "--a", "{first}", "--b", "{second}"],
             ["1.0\n" + "0.0\n" * 4095, "0.0\n1.0\n" + "0.0\n" * 4094]),
            (["dist", "--a", "{first}", "--b", "{second}"], ["1.2e154\n", "1.1e154\n"]),
            (["median", "--points", "{first}"], ["1e200,1\n2,3\n"]),
            (["kmeans", "--data", "{first}", "--k", "2"], ["1.2e154,1\n1.1e154,2\n1,3\n"]),
            (["kmedians", "--data", "{first}", "--k", "2"], ["1,2\n0,0\n3,4\n"]),
            (["qsvm", "--data", "{first}"], ["1e200,1\n-1.0,-1\n"]),
            (["qpca", "--data", "{first}", "--components", "1"], ["1.0,2.0\n"]),
            (["qnn", "--data", "{first}", "--k-bits", "1", "--m-bits", "1", "--epochs", "1",
              "--params-out", "{params}"], ["0,5,1\n1,0,-1\n"]),
        ],
        ids=["minimize", "qft", "dft", "phase-est", "swaptest", "dist", "median", "kmeans",
             "kmedians", "qsvm", "qpca", "qnn"],
    )
    def test_data_error_starts_with_its_paths(self, argv, texts, tmp_path, capsys):
        # A fault in a file's content ends in one error line that starts
        # with the input path (both, for a two-file command), each path once.
        paths = [write(tmp_path / name, text) for name, text in zip(["first", "second"], texts)]
        names = dict(zip(["first", "second"], paths), params=str(tmp_path / "params.csv"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            code, report = cli.run([arg.format(**names) for arg in argv])
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert err.startswith(f"error: {', '.join(paths)}:"), err
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, err
        assert all(err.count(path) == 1 for path in paths), err

    def test_qpca_one_row_names_the_file(self, tmp_path, capsys):
        data = write(tmp_path / "one.csv", "1.0,2.0\n")
        code, report = cli.run(["qpca", "--data", data, "--components", "1"])
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {data}: need at least two rows\n"

    def test_qpca_gram_side_under_dense_cap(self, tmp_path, capsys, monkeypatch):
        # Five features pad to 8 dimensions, over a cap lowered to 2 qubits
        # (4 dimensions); three rows keep the Gram side under it, and their
        # demeaned rank is 2.
        monkeypatch.setattr(state, "DENSE_MATRIX_CAP", 2)
        data = write(tmp_path / "wide.csv", "1,2,3,4,5\n2,1,0,1,3\n0,2,2,5,1\n")
        code, report = cli.run(["qpca", "--data", data, "--components", "1"])
        assert code == 0
        assert len(report["results"]["eigenvalues"]) == 2

    def test_qpca_over_dense_cap_names_the_file(self, tmp_path, capsys, monkeypatch):
        # Five rows and five features padded to 8 both pass a cap lowered to
        # 2 qubits (4 dimensions).
        monkeypatch.setattr(state, "DENSE_MATRIX_CAP", 2)
        data = write(
            tmp_path / "square.csv",
            "1,2,3,4,5\n2,1,0,1,3\n0,2,2,5,1\n4,0,1,1,2\n3,3,0,2,0\n",
        )
        code, report = cli.run(["qpca", "--data", data, "--components", "1"])
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            f"error: {data}: 5 rows and 8 padded features both pass the dense-matrix cap "
            "of 4: the eigensystem needs a 5 x 5 matrix\n"
        )

    @pytest.mark.parametrize(
        "controls, message",
        [
            ("0", "need at least one control qubit"),
            ("24", "25 qubits exceeds the cap of 24: the state needs 536,870,912 bytes"),
        ],
    )
    def test_qpca_control_count_refused(self, blob_csv, controls, message, capsys):
        code, report = cli.run(
            ["qpca", "--data", blob_csv, "--components", "1", "--controls", controls]
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {blob_csv}: {message}\n"

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

    def test_phase_est_circuit_register_cap(self, tmp_path, capsys):
        # A 13-qubit circuit document runs, though its matrix would be 1 GiB:
        # Z on qubit 0 and R(0.5) on qubit 12 of |1 0...0 1> give e^(i(pi + 0.5)).
        unitary = write(tmp_path / "u.json", json.dumps({"n_qubits": 13, "steps": [
            {"gate": "Z", "targets": [0]}, {"gate": "R", "phase": 0.5, "targets": [12]},
        ]}))
        amps = np.zeros(2**13)
        amps[2**12 + 1] = 1.0
        eigvec = write(tmp_path / "v.csv", "\n".join(repr(float(a)) for a in amps))
        report = run_ok(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", "11"]
        )
        theta = (math.pi + 0.5) / (2 * math.pi)
        assert report["results"]["delta"] == pytest.approx(
            theta - round(theta * 2**11) / 2**11, abs=1e-12
        )
        # A 13 + 12 = 25-qubit register is refused before the eigenvector
        # file is read: here it does not exist.
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", str(tmp_path / "missing.csv"),
             "--controls", "12"]
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            "error: 25 qubits exceeds the cap of 24: the state needs 536,870,912 bytes\n"
        )

    @pytest.mark.parametrize(
        "eigvec, controls, message",
        [
            ("1.0\n0.0\n", "2", "state is not an eigenvector of the unitary (residual 7.07e-01)"),
            ("0.6\n-0.8\n", "0", "need at least one control qubit"),
        ],
        ids=["not-eigenvector", "no-controls"],
    )
    def test_phase_est_error_names_both_files(self, eigvec, controls, message, tmp_path,
                                              capsys):
        unitary = write(tmp_path / "u.json", json.dumps({"n_qubits": 1, "steps": [
            {"gate": "H", "targets": [0]}]}))
        eigvec = write(tmp_path / "v.csv", eigvec)
        code, report = cli.run(
            ["phase-est", "--unitary", unitary, "--eigvec", eigvec, "--controls", controls]
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {unitary}, {eigvec}: {message}\n"

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
            ("qsvm", "--gamma", "gamma"),
            ("qsvm", "--alpha-max", "alpha_max"),
            ("qsvm", "--penalty", "penalty_coeff"),
            ("qnn", "--eta", "eta"),
        ],
    )
    def test_non_finite_float_flag(self, command, flag, field, value, tmp_path, blob_csv, capsys):
        inputs = {
            "kmeans": ["--data", blob_csv, "--k", "2"],
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
            f"error: {blob_csv}: 1,000,000,000,000 eigen-sample draws need 22,888,184 MiB, "
            "over the 256 MiB budget\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["qft", "--qubits", "20000", "--amps", "{state}"],
         "20000 qubits exceeds the cap of 24: the state needs 16 x 2^20000 bytes"),
        (["phase-est", "--unitary", "{unitary}", "--eigvec", "{state}", "--controls", "20000"],
         "20001 qubits exceeds the cap of 24: the state needs 16 x 2^20001 bytes"),
        (["phase-est", "--unitary", "{circuit}", "--eigvec", "{state}", "--controls", "1"],
         "{circuit}: 20000 qubits exceeds the cap of 24: the state needs 16 x 2^20000 bytes"),
        (["qpca", "--data", "{data}", "--components", "1", "--controls", "20000"],
         "{data}: 20001 qubits exceeds the cap of 24: the state needs 16 x 2^20001 bytes"),
        (["qpca", "--data", "{data}", "--components", "1", "--samples", "{huge}"],
         "{data}: {huge:,} eigen-sample draws need {samples_mib:,} MiB, over the 256 MiB budget"),
        (["dist", "--a", "{vector}", "--b", "{vector}", "--mode", "shots", "--shots", "{huge}"],
         "{vector}, {vector}: 1 x {huge} shot draws need {shots_mib:,} MiB, over the 256 MiB budget"),
        (["swaptest", "--a", "{state}", "--b", "{state}", "--shots", "{huge}"],
         "{state}, {state}: 1 x {huge} shot draws need {shots_mib:,} MiB, over the 256 MiB budget"),
    ], ids=["qft", "phase-est", "phase-est-circuit", "qpca-controls", "qpca-samples",
            "dist-shots", "swaptest-shots"])
    def test_huge_figure_refused(self, argv, message, tmp_path, capsys):
        # Each refusal states a figure past a float's range or Python's
        # 4,300-digit int-to-str limit without building or dividing it.
        huge = 10**400
        names = {
            "state": write(tmp_path / "s.csv", "0.6\n0.8\n"),
            "unitary": write(tmp_path / "u.json", json.dumps(_MATRIX_DOC)),
            "circuit": write(tmp_path / "c.json", json.dumps({"n_qubits": 20000, "steps": []})),
            "data": write(tmp_path / "d.csv", "1,2\n3,4\n5,7\n"),
            "vector": write(tmp_path / "v.csv", "3.0,4.0\n"),
            "huge": huge,
            "samples_mib": (24 * huge + 2**19) // 2**20,
            "shots_mib": (8 * huge + 2**19) // 2**20,
        }
        started = time.perf_counter()
        code, report = cli.run([arg.format(**names) for arg in argv])
        assert time.perf_counter() - started < 1.0
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith("error: " + message.format(**names))

    def test_grover_huge_width_refused_before_its_power(self):
        # 2**(10**12) would take about 125 GB: the child's address space is
        # capped so that building it cannot exhaust memory, and the timeout
        # ends the squarings that lead up to it.
        def cap_address_space():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "qmlkit", "grover", "--bits", "1000000000000", "--marked", "1"],
            env=env, capture_output=True, text=True, timeout=20, preexec_fn=cap_address_space,
        )
        assert out.returncode == 1
        assert out.stderr == "error: oracle bit width 1000000000000 out of range\n"

    def test_grover_wide_index_refused_before_its_cast(self, capsys):
        # 2^80 passes the per-index bit-length check at 100 bits but has no
        # int64 form; the oracle's width check must refuse it first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = cli.run(["grover", "--bits", "100", "--marked", str(2**80)])
        assert code == 1 and report is None
        assert capsys.readouterr().err == "error: oracle bit width 100 out of range\n"

    def test_kmedians_has_no_eta(self, blob_csv):
        code, report = cli.run(["kmedians", "--data", blob_csv, "--k", "2", "--eta", "0.1"])
        assert code == 2 and report is None
        assert "eta" not in run_ok(["kmedians", "--data", blob_csv, "--k", "2"])["config"]

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
        "rows, flags, message",
        [
            (_SVM_ROWS, ["--alpha-max", "1e200"],
             "the penalized dual at grid entry 1 overflows the float range at "
             "alpha_max=1e+200 and penalty=20.0; lower one of them"),
            (_SVM_ROWS, ["--penalty", "1e308"],
             "the penalized dual at grid entry 3 overflows the float range at "
             "alpha_max=4.0 and penalty=1e+308; lower one of them"),
            ("1e200" + _SVM_ROWS[3:], [],
             "the linear kernel overflows the float range; rescale the features"),
        ],
        ids=["alpha-max", "penalty", "feature"],
    )
    def test_qsvm_overflowing_table_refused(self, rows, flags, message, tmp_path, capsys):
        data = write(tmp_path / "l.csv", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            code, report = cli.run(["qsvm", "--data", data, *flags])
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {data}: {message}\n"

    @pytest.mark.parametrize(
        "flags", [["--alpha-max", "1e150"], ["--kernel", "gaussian", "--gamma", "1e308"]],
        ids=["alpha-max", "gamma"],
    )
    def test_qsvm_large_finite_settings_run(self, flags, tmp_path, capsys):
        # A gaussian exponent past -1e308 gives the kernel's limit 0, not an
        # overflow: the kernel is the identity, and the run warns of nothing.
        data = write(tmp_path / "l.csv", _SVM_ROWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_ok(["qsvm", "--data", data, *flags])
        assert capsys.readouterr().err == ""
        assert all(map(math.isfinite, report["results"]["alphas"]))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dist", "--a", "{big}", "--b", "{small}"],
             "{big}, {small}: row 0 has no amplitude encoding: its squared norm overflows the "
             "float range"),
            (["dist", "--a", "{near}", "--b", "{far}"],
             "{near}, {far}: a distance pair overflows the float range: 2(|a|^2 + |b|^2) or "
             "|a-b|^2 is not finite; rescale the data"),
            (["dft", "--signal", "{signal}"], "{signal}: the transform overflows the float range"),
            (["kmeans", "--data", "{rows}", "--k", "2"],
             "{rows}: row 0 has no amplitude encoding: its squared norm overflows the float range"),
            (["kmeans", "--data", "{pairs}", "--k", "2"],
             "{pairs}: a distance pair overflows the float range: 2(|a|^2 + |b|^2) or "
             "|a-b|^2 is not finite; rescale the data"),
            (["kmedians", "--data", "{rows}", "--k", "2"],
             "{rows}: row 0 has no amplitude encoding: its squared norm overflows the float range"),
            (["median", "--points", "{rows}"],
             "{rows}: row 0 has no amplitude encoding: its squared norm overflows the float range"),
            (["qpca", "--data", "{rows}", "--components", "1"],
             "{rows}: row 0's squared norm after demeaning overflows the float range"),
            (["qpca", "--data", "{rows}", "--components", "1", "--standardize"],
             "{rows}: column 0's variance overflows the float range"),
            (["dist", "--a", "{tiny}", "--b", "{unit_row}"],
             "{tiny}, {unit_row}: row 0 has no amplitude encoding: its squared norm underflows "
             "the float range"),
            (["kmeans", "--data", "{tiny_rows}", "--k", "2"],
             "{tiny_rows}: row 0 has no amplitude encoding: its squared norm underflows the "
             "float range"),
            (["swaptest", "--a", "{amps}", "--b", "{unit}"],
             "{amps}: cannot normalize amplitudes whose sum |c_i|^2 overflows the float range"),
            (["qft", "--qubits", "1", "--amps", "{amps}", "--normalize"],
             "{amps}: cannot normalize amplitudes whose sum |c_i|^2 overflows the float range"),
        ],
        ids=["dist", "dist-sum", "dft", "kmeans", "kmeans-sum", "kmedians", "median", "qpca",
             "qpca-standardize", "dist-underflow", "kmeans-underflow", "swaptest", "qft"],
    )
    def test_overflowing_squares_refused(self, argv, message, tmp_path, capsys):
        # Finite cells whose squares or sums pass the float range end in one
        # error line: no traceback, no RuntimeWarning, no zeroed row used.
        # In the "-sum" cases each row's squared norm is finite, but a pair's
        # Z = |a|^2 + |b|^2, the distance test's normalizer, is not.  In the
        # "-underflow" cases a nonzero row's squared norm rounds to 0.
        files = {
            name: write(tmp_path / f"{name}.csv", text)
            for name, text in [
                ("big", "1e200,1e200\n"), ("small", "1.0,2.0\n"), ("signal", "1e308\n" * 4),
                ("rows", "1e200,1\n2,3\n-1e200,4\n"), ("amps", "1e200\n1\n"),
                ("unit", "0.6\n0.8\n"), ("near", "1.2e154\n"), ("far", "1.1e154\n"),
                ("pairs", "1.2e154,1\n1.1e154,2\n1,3\n"), ("tiny", "1e-170,0\n"),
                ("unit_row", "1,0\n"), ("tiny_rows", "1e-170,0\n1,0\n0,1\n"),
            ]
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            code, report = cli.run([arg.format(**files) for arg in argv])
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {message.format(**files)}\n"

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

    def test_grover_stated_marked_set_matches_predicate(self, monkeypatch):
        seen = []
        search = cli.grover.grover_search

        def capture(oracle, rng, iterations=None):
            seen.append(oracle)
            return search(oracle, rng, iterations=iterations)

        monkeypatch.setattr(cli.grover, "grover_search", capture)
        run_ok(["grover", "--bits", "6", "--marked", "63,0,17,17,40"])
        (oracle,) = seen
        plain = cli.grover.SignOracle(6, oracle.predicate).marked_indices()
        assert oracle.marked.tolist() == plain.tolist() == [0, 17, 40, 63]
        assert oracle.marked_count_hint == 4

    def test_grover_makes_no_marking_pass(self, monkeypatch):
        # Every callable the CLI hands its oracle raises, so a pass over the
        # 2^24 inputs, by the predicate or any other callable, fails the run.
        oracle_type = cli.grover.SignOracle

        def refuse(*args):
            raise AssertionError("the oracle's predicate was called")

        def oracle(n_bits, predicate, **options):
            options = {key: refuse if callable(v) else v for key, v in options.items()}
            return oracle_type(n_bits, refuse, **options)

        monkeypatch.setattr(cli.grover, "SignOracle", oracle)
        results = run_ok(["grover", "--bits", "24", "--marked", "1,2,3", "--seed", "1"])["results"]
        assert results["iterations"] == cli.grover.default_iterations(24, 3)

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

    def test_qpca_swaptest_past_pair_register_cap(self, tmp_path):
        # 4,096 features are 12 qubits a row: a (row, component) pair
        # register would need 25, over the cap, but swap-test scores take
        # their p0 in closed form and build none.
        rows = np.random.default_rng(7).normal(size=(10, 4096))
        text = "\n".join(",".join(map(repr, row.tolist())) for row in rows)
        path = write(tmp_path / "wide.csv", text)
        report = run_ok(["qpca", "--data", path, "--components", "2", "--mode", "swaptest",
                         "--shots", "256", "--seed", "3"])
        assert np.shape(report["results"]["scores"]) == (10, 2)

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

    def test_paper_check_failure_exits_one_with_its_report(self, monkeypatch, capsys):
        first = cli.checks_mod.ALL_CHECKS[0]()
        failed = cli.checks_mod.CheckResult("planted", False, "expected 1, got 2")
        monkeypatch.setattr(cli.checks_mod, "run_all", lambda: [first, failed])
        code, report = cli.run(["paper-check"])
        assert code == 1
        assert report["results"]["passed"] is False and report["results"]["failures"] == 1
        printed = json.loads(capsys.readouterr().out)["results"]
        assert [check["name"] for check in printed["checks"]] == [first.name, "planted"]

    def test_verbose_prints_the_total_time_to_stderr(self, capsys):
        report = run_ok(["grover", "--bits", "2", "--marked", "2", "--verbose"])
        assert capsys.readouterr().err == f"done in {report['timings_ms']['total']:.1f} ms\n"


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
            assert report["config"]["command"] == argv[0]
            validate_report(report)

    def test_results_keys_follow_their_schemas(self, tmp_path, blob_csv):
        # Checked whether or not a schema admits extra keys.
        for argv in _all_command_invocations(tmp_path, blob_csv):
            schema = load_schema(argv[0])
            keys = set(run_ok(argv)["results"])
            assert set(schema.get("required", ())) <= keys, argv
            assert keys <= set(schema["properties"]), (argv, keys - set(schema["properties"]))

    def test_results_hold_only_json_types(self, tmp_path, blob_csv):
        # The in-process report, not its JSON text: a tuple, a numpy scalar
        # (np.float64 included) or an array fails.
        plain = (dict, list, str, int, float, bool, type(None))

        def values(value):
            yield value
            if isinstance(value, (dict, list)):
                for item in value.values() if isinstance(value, dict) else value:
                    yield from values(item)

        for argv in _all_command_invocations(tmp_path, blob_csv):
            for value in values(run_ok(argv)["results"]):
                assert type(value) in plain, (argv, type(value))

    def test_schema_files_match_commands(self):
        folder = resources.files("qmlkit") / "schemas"
        names = sorted(entry.name for entry in folder.iterdir())
        assert names == sorted(["report.json"] + [f"{c}.json" for c in cli._HANDLERS])
        for name in names:
            jsonschema.Draft7Validator.check_schema(load_schema(name[: -len(".json")]))
        envelope = load_schema("report")
        assert envelope["properties"]["config"]["properties"]["command"]["enum"] == list(
            cli._HANDLERS
        )
        for command in cli._HANDLERS:
            # Each command file describes only its results, never the envelope.
            assert not {"config", "warnings", "timings_ms"} & set(
                load_schema(command)["properties"]
            )

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda r: r.update(metrics={}),
            lambda r: r["config"].update(command="teleport"),
            lambda r: r["config"].pop("seed"),
            lambda r: r["results"].update(measured="5"),
        ],
        ids=["extra-key", "unknown-command", "missing-seed", "results-type"],
    )
    def test_spoiled_report_rejected(self, spoil):
        report = run_ok(["grover", "--bits", "3", "--marked", "5"])
        validate_report(report)
        spoil(report)
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)

    def test_csv_serialize_timing_runs_no_json(self, monkeypatch, capsys):
        flatten = cli._csv_flatten

        def slow_flatten(results):
            time.sleep(0.05)
            return flatten(results)

        def no_json(*args, **kwargs):
            raise AssertionError("JSON serialized on the CSV path")

        monkeypatch.setattr(cli, "_csv_flatten", slow_flatten)
        monkeypatch.setattr(cli.json, "dumps", no_json)
        report = run_ok(["grover", "--bits", "2", "--marked", "2", "--format", "csv"])
        assert report["timings_ms"]["serialize"] >= 50.0
        assert "success_probability,1.0" in capsys.readouterr().out

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
