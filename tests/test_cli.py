"""End-to-end checks of the command-line interface."""
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpir
from wpir import cli, optimizer
from wpir.cli import build_parser, main, resolve_config
from wpir.leakage import ResourceLimitError, build_query_table, table_to_csv
from wpir.schemes import QueryMatrix, SchemeKind, make_scheme


def run_cli(argv):
    """Invoke main() in process, capturing exit code and stdout text."""
    out = io.StringIO()
    try:
        code = main(argv, stdout=out)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    return code, out.getvalue()


def body_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_enumerate_counts_large_alphabet():
    code, out = run_cli(
        ["enumerate", "--scheme", "olr", "--files", "3", "--servers", "5", "--dim", "3"]
    )
    assert code == 0
    assert "cardinality=1500" in out
    assert "elided" in out


def test_enumerate_lists_small_alphabet():
    code, out = run_cli(
        ["enumerate", "--scheme", "ztsl", "--files", "2", "--servers", "3", "--dim", "2"]
    )
    assert code == 0
    lines = body_lines(out)
    assert lines[0].endswith("cardinality=3")
    assert lines[1:] == ["z1: 0 0", "z2: 1 2", "z3: 2 1"]


# SHA-256 of the whole `wpir enumerate` stdout, header comments included;
# olr (3,5,3) has 1,500 members, so its listing is elided
@pytest.mark.parametrize("argv,digest", [
    (("zyqt", "2", "3", "2"),
     "f91d46cc7201ac5efa436ad518a51b29c3aababd6e8b3783510035e923bf3555"),
    (("olr", "3", "3", "2"),
     "8182c7ba65d8349f27972284e8e36447b6b6ea059f243a158665d0fe8b5564c9"),
    (("ztsl", "3", "4", "2"),
     "6ddcc55dde8576783601e8a3c500b88461c07679a1f17b61de8af6cf3626f807"),
    (("olr", "1", "4", "2"),
     "c475a801b81fe8a84e20fcfd97ba43ecd5354c99204c395d1b2f7b379a01f8c4"),
    (("olr", "3", "5", "3"),
     "06392afd48384269ed46819bf528620e03063607b6c28f155e6e3d420dc5d475"),
], ids=["zyqt-2-3-2", "olr-3-3-2", "ztsl-3-4-2", "olr-1-4-2", "olr-3-5-3-elided"])
def test_enumerate_output_pinned(argv, digest):
    scheme, m_files, n_servers, dim = argv
    code, out = run_cli(["enumerate", "--scheme", scheme, "--files", m_files,
                         "--servers", n_servers, "--dim", dim])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_matches_library_output():
    code, out = run_cli(
        ["table", "--scheme", "olr", "--files", "2", "--servers", "3", "--dim", "2"]
    )
    assert code == 0
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    expected = table_to_csv(build_query_table(inst, 1))
    assert "\n".join(body_lines(out)) + "\n" == expected
    # 18 reachable queries, one row per (query, m)
    assert len(body_lines(out)) == 1 + 18 * 2


def test_tradeoff_endpoints():
    code, out = run_cli(
        ["tradeoff", "--scheme", "ztsl", "--files", "2", "--servers", "3",
         "--dim", "2", "--grid", "5"]
    )
    assert code == 0
    rows = [ln.split(",") for ln in body_lines(out)[1:]]
    assert len(rows) == 5
    first, last = rows[0], rows[-1]
    assert float(first[4]) == pytest.approx(3.0)
    assert float(first[8]) == pytest.approx(2 / 3)
    assert float(last[6]) == pytest.approx(0.0, abs=1e-9)
    assert float(last[8]) == pytest.approx(0.6)


def test_tradeoff_calls_solve_tradeoff_point_once_per_target(monkeypatch):
    """`wpir tradeoff` reaches each point through wpir.cli's
    solve_tradeoff_point, the name the benchmark traces, and partitions
    the table and assembles its LP once per sweep."""
    calls = []
    for module, name in ((cli, "solve_tradeoff_point"), (optimizer, "_partition"),
                         (optimizer, "_assemble")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    code, _ = run_cli(["tradeoff", "--scheme", "zyqt", "--files", "3", "--servers", "3",
                       "--dim", "2", "--grid", "5"])
    assert code == 0
    assert calls.count("solve_tradeoff_point") == 5
    assert calls.count("_partition") == 1
    assert calls.count("_assemble") == 1


# SHA-256 of the whole `wpir tradeoff` stdout, header comments included
@pytest.mark.parametrize("argv,digest", [
    (("olr", "4", "3", "2", "9"),
     "4b19d8f95488e8c25c85c1b3c181f09782cbc4e4f70b9197efb0bbb01c049654"),
    (("zyqt", "3", "3", "2", "9"),
     "bca32fa783cb8e04ac7bb2111c9ea062aedd47178cc30bd2b7259fb2774822ca"),
    (("zyqt", "2", "5", "3", "2"),
     "d8b90d27d8678d1649ab60df33f1a97af0e773622a39941878196f2c7353a3fd"),
], ids=["olr-4-3-2", "zyqt-3-3-2", "zyqt-2-5-3"])
def test_tradeoff_csvs_pinned(argv, digest):
    scheme, m_files, n_servers, dim, grid = argv
    code, out = run_cli(["tradeoff", "--scheme", scheme, "--files", m_files,
                         "--servers", n_servers, "--dim", dim, "--grid", grid])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the whole `wpir simulate` stdout, header comments included; it
# prints the cost form and the conditional probabilities evaluated exactly
@pytest.mark.parametrize("argv,digest", [
    (("ztsl", "2", "3", "2", "3000", "5"),
     "b084617386d962c17a675c5709d01f5c54b96401c74b57fb1f412dc4b43d6ea8"),
    (("zyqt", "3", "3", "2", "2000", "1"),
     "8ff958a4125e6e7581f3ce33108b0d913f7a9ce5a58f886c1162e6c5eb36a56f"),
], ids=["ztsl-2-3-2", "zyqt-3-3-2"])
def test_simulate_output_pinned(argv, digest):
    scheme, m_files, n_servers, dim, samples, seed = argv
    code, out = run_cli(["simulate", "--scheme", scheme, "--files", m_files,
                         "--servers", n_servers, "--dim", dim, "--samples", samples,
                         "--seed", seed])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tradeoff_header_names_columns():
    code, out = run_cli(
        ["tradeoff", "--scheme", "olr", "--files", "2", "--servers", "3",
         "--dim", "2", "--grid", "3"]
    )
    assert code == 0
    assert body_lines(out)[0] == (
        "scheme,M,N,K,D_target,D_achieved,leakage_bits,leakage_normalized,rate"
    )


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["tradeoff", "--scheme", "olr", "--files", "2", "--servers", "3",
            "--dim", "2", "--grid", "7", "--out"]
    assert run_cli(argv + [str(a)])[0] == 0
    assert run_cli(argv + [str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"# scheme=olr\n")


def test_verify_passes_and_corruption_fails():
    argv = ["verify", "--scheme", "ztsl", "--files", "2", "--servers", "3", "--dim", "2"]
    code, out = run_cli(argv)
    assert code == 0
    assert "failures=0" in out and "PASSED" in out
    code, out = run_cli(argv + ["--corrupt-generator"])
    assert code == 1
    assert "K-out-of-N" in out


def test_verify_sampled_mode():
    code, out = run_cli(
        ["verify", "--scheme", "olr", "--files", "2", "--servers", "5",
         "--dim", "3", "--samples", "40", "--seed", "7"]
    )
    assert code == 0
    assert "mode=sampled" in out and "transcripts=40" in out


def test_simulate_reports_empirical_mean(tmp_path):
    out_path = tmp_path / "sim.csv"
    code, _ = run_cli(
        ["simulate", "--scheme", "ztsl", "--files", "2", "--servers", "3",
         "--dim", "2", "--samples", "3000", "--seed", "5", "--out", str(out_path)]
    )
    assert code == 0
    text = out_path.read_text()
    stats_line = next(ln for ln in text.splitlines() if "empirical" in ln)
    empirical = float(stats_line.split("empirical_mean_download=")[1].split()[0])
    analytic = float(stats_line.split("analytic=")[1])
    assert analytic == pytest.approx(10 / 3)
    assert abs(empirical - analytic) < 0.15
    rows = [ln for ln in body_lines(text) if ln and not ln.startswith("server,")]
    assert sum(int(r.split(",")[2]) for r in rows) == 3000 * 3


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=olr\nfiles=2\nservers=3\ndim=2\nseed=3\n")
    code, out = run_cli(["enumerate", "--config", str(cfg), "--files", "3"])
    assert code == 0
    assert "# files=3" in out and "# seed=3" in out
    assert "cardinality=18" in out


def test_usage_errors_exit_two(tmp_path):
    assert run_cli(["table", "--scheme", "ztsl", "--servers", "3"])[0] == 2
    assert run_cli(["enumerate", "--scheme", "bogus", "--servers", "3", "--dim", "2"])[0] == 2
    assert run_cli(["enumerate", "--scheme", "ztsl", "--servers", "3", "--dim", "3"])[0] == 2
    assert run_cli(["enumerate", "--scheme", "ztsl", "--servers", "3", "--dim", "2",
                    "--field", "4"])[0] == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume=11\n")
    assert run_cli(["enumerate", "--config", str(bad), "--scheme", "ztsl",
                    "--servers", "3", "--dim", "2"])[0] == 2
    assert run_cli(["table", "--scheme", "ztsl", "--servers", "3", "--dim", "2",
                    "--server", "9"])[0] == 2


def test_plot_script_requires_out(tmp_path):
    script = tmp_path / "plot.py"
    code, _ = run_cli(
        ["tradeoff", "--scheme", "ztsl", "--files", "2", "--servers", "3",
         "--dim", "2", "--grid", "3", "--plot-script", str(script)]
    )
    assert code == 2
    assert not script.exists()


def test_tradeoff_builds_no_query_matrix(monkeypatch):
    """A sweep reads the table's key rows only: zyqt (2,5,3) has 3,600
    queries, and none becomes a QueryMatrix."""
    built, init = [], QueryMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QueryMatrix, "__init__", counting_init)
    code, _ = run_cli(["tradeoff", "--scheme", "zyqt", "--files", "2", "--servers", "5",
                       "--dim", "3", "--grid", "2"])
    assert (code, built) == (0, [])
    QueryMatrix(((0,),))
    assert len(built) == 1  # the count is live


def _record_calls(monkeypatch, names=("make_scheme", "simulate_downloads")):
    calls = []
    for name in names:
        monkeypatch.setattr(f"wpir.cli.{name}",
                            lambda *a, _name=name, **k: calls.append(_name))
    return calls


@pytest.mark.parametrize("extra", [
    ["--plot-script", "plot.py"],
    ["--out", "missing/curve.csv"],
    ["--out", "curve.csv", "--plot-script", "missing/plot.py"],
    ["--out", "."],
    ["--out", "curve.csv", "--plot-script", "."],
], ids=["plot-without-out", "out-dir-missing", "plot-dir-missing", "out-is-dir",
        "plot-is-dir"])
def test_tradeoff_output_paths_checked_before_work(extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    calls = _record_calls(monkeypatch)
    code, out = run_cli(["tradeoff", "--scheme", "ztsl", "--files", "2", "--servers", "3",
                         "--dim", "2", "--grid", "3", *extra])
    assert (code, out, calls) == (2, "", [])
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["enumerate", "table", "verify", "simulate"])
@pytest.mark.parametrize("bad", ["missing/x.txt", ""])
def test_unwritable_out_rejected_before_work(command, bad, tmp_path, monkeypatch):
    calls = _record_calls(monkeypatch)
    code, out = run_cli([command, "--scheme", "ztsl", "--files", "2", "--servers", "3",
                         "--dim", "2", "--out", str(tmp_path / bad)])
    assert (code, out, calls) == (2, "", [])


def test_simulate_budgets_table_before_sampling(monkeypatch, capsys):
    calls = _record_calls(monkeypatch, ("simulate_downloads",))
    monkeypatch.setattr("wpir.leakage.DEFAULT_TABLE_GUARD", 10)
    code, out = run_cli(["simulate", "--scheme", "ztsl", "--files", "2", "--servers", "3",
                         "--dim", "2", "--samples", "5"])
    assert (code, out, calls) == (2, "", [])
    assert "table enumeration needs 18" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "table", "tradeoff", "verify", "simulate"])
def test_olr_single_file_needs_effective_k_one(command, monkeypatch, capsys):
    calls = _record_calls(monkeypatch)
    code, out = run_cli([command, "--scheme", "olr", "--files", "1", "--servers", "3",
                         "--dim", "2"])
    assert (code, out, calls) == (2, "", [])
    assert "strategy alphabet is empty" in capsys.readouterr().err
    # effective k = 1 (N=4, K=2 reduces to n=2, k=1) keeps a one-member alphabet
    monkeypatch.undo()
    code, out = run_cli(["enumerate", "--scheme", "olr", "--files", "1", "--servers", "4",
                         "--dim", "2"])
    assert code == 0 and "cardinality=1" in out


def test_plot_script_emission(tmp_path):
    csv_path, script = tmp_path / "curve.csv", tmp_path / "plot.py"
    code, _ = run_cli(
        ["tradeoff", "--scheme", "ztsl", "--files", "2", "--servers", "3",
         "--dim", "2", "--grid", "3", "--out", str(csv_path),
         "--plot-script", str(script)]
    )
    assert code == 0
    compile(script.read_text(), str(script), "exec")
    assert str(csv_path) in script.read_text()


def test_console_entry_point_runs():
    # the child imports the same wpir as this process, installed or not
    src = str(Path(wpir.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wpir.cli", "enumerate", "--scheme", "ztsl",
         "--files", "2", "--servers", "3", "--dim", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "cardinality=3" in proc.stdout


@pytest.mark.parametrize("q", ["65537", "4294967311"])
def test_field_above_two_bytes_rejected(q, capsys):
    code, out = run_cli(
        ["verify", "--scheme", "ztsl", "--files", "2", "--servers", "3", "--dim", "2",
         "--field", q, "--samples", "5"]
    )
    assert code == 2
    assert out == ""
    assert "answer symbols are 2 bytes" in capsys.readouterr().err


def test_largest_two_byte_field_verifies():
    code, out = run_cli(
        ["verify", "--scheme", "ztsl", "--files", "2", "--servers", "3", "--dim", "2",
         "--field", "65521", "--samples", "20"]
    )
    assert code == 0
    assert "failures=0" in out and "PASSED" in out


def test_sampled_verify_skips_tables_over_budget(monkeypatch):
    """A sampled run that passes must not fail on the table budget."""
    argv = ["verify", "--scheme", "zyqt", "--files", "2", "--servers", "3",
            "--dim", "2", "--samples", "10"]
    code, out = run_cli(argv)
    assert code == 0 and "per-server tables identical: yes" in out
    monkeypatch.setattr("wpir.leakage.DEFAULT_TABLE_GUARD", 10)
    code, out = run_cli(argv)
    assert code == 0
    assert "per-server tables identical: skipped (table enumeration needs" in out
    assert "budget 10)" in out
    assert out.endswith("verification PASSED\n")
    # an exhaustive run still refuses the instance
    assert run_cli(argv[:-2])[0] == 2


def test_verify_budgets_all_server_tables_before_retrievals(monkeypatch):
    """zyqt (2,3,2): one table fits a budget of 300 steps, all three do not.
    A sampled run skips the table check; an exhaustive one exits 2 before
    any retrieval."""
    monkeypatch.setattr("wpir.leakage.DEFAULT_TABLE_GUARD", 300)
    argv = ["verify", "--scheme", "zyqt", "--files", "2", "--servers", "3",
            "--dim", "2", "--samples", "10"]
    code, out = run_cli(argv)
    assert code == 0
    assert "per-server tables identical: skipped (table enumeration needs 648" in out
    assert out.endswith("verification PASSED\n")
    retrievals = []
    monkeypatch.setattr("wpir.cli.verify_retrievability",
                        lambda *a, **k: retrievals.append(a))
    assert run_cli(argv[:-2]) == (2, "")
    assert retrievals == []


def test_largest_one_byte_server_count_accepted():
    args = build_parser().parse_args(
        ["verify", "--scheme", "ztsl", "--files", "2", "--servers", "255",
         "--dim", "2", "--samples", "2"]
    )
    cfg = resolve_config(args)
    assert cfg.n_servers == 255 and cfg.field_q == 257


@pytest.mark.parametrize("n", ["256", "257"])
def test_server_count_above_one_byte_rejected(n, capsys):
    code, out = run_cli(
        ["verify", "--scheme", "ztsl", "--files", "2", "--servers", n, "--dim", "2",
         "--samples", "2"]
    )
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "server indices travel as one byte" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_nonpositive_samples_rejected_before_work(command, samples, monkeypatch, capsys):
    built = []
    monkeypatch.setattr("wpir.cli.make_scheme", lambda *a: built.append(a))
    code, out = run_cli(
        [command, "--scheme", "ztsl", "--files", "2", "--servers", "3", "--dim", "2",
         "--samples", samples]
    )
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert f"--samples needs at least 1, got {samples}" in err
    assert "Traceback" not in err
    assert built == []


def test_table_server_out_of_range_rejected_before_alphabet(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("make_scheme must not run for a bad --server")

    monkeypatch.setattr("wpir.cli.make_scheme", refuse)
    for server in ("0", "4"):
        code, out = run_cli(["table", "--scheme", "ztsl", "--servers", "3", "--dim", "2",
                             "--server", server])
        assert (code, out) == (2, "")
        assert f"server {server} outside [1:3]" in capsys.readouterr().err


def test_enumerate_refuses_alphabet_over_budget_before_allocating(monkeypatch, capsys):
    """olr (4,7,4) would filter 840^3 selector triples, about 10 GB of rows."""
    built = []
    monkeypatch.setattr("wpir.schemes._digit_rows", lambda *args: built.append(args))
    code, out = run_cli(["enumerate", "--scheme", "olr", "--files", "4", "--servers", "7",
                         "--dim", "4"])
    assert (code, out, built) == (2, "", [])
    assert "olr alphabet enumeration needs 592704000 rows" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, files", [("zyqt", "6000"), ("ztsl", "10000")])
def test_huge_file_count_refused_in_one_short_line(scheme, files, capsys):
    """P(n,k)^M and n^(M-1) run to thousands of digits here: the guard
    stops multiplying once past its budget and never prints them."""
    code, out = run_cli(["enumerate", "--scheme", scheme, "--files", files,
                         "--servers", "3", "--dim", "2"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200
    assert f"alphabet enumeration needs more than 1000000 rows (n=3, k=2, M={files})" in err
    with pytest.raises(ResourceLimitError, match="needs more than 1000000 rows"):
        make_scheme(SchemeKind(scheme), int(files), 3, 2)


def test_public_names_resolve():
    for name in wpir.__all__:
        getattr(wpir, name)  # raises AttributeError for a stale name
