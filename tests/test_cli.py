import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from zetagram import cli, divisor
from zetagram.moments import GramSweep
from zetagram.special import hardy_z, theta
from zetagram.verify import CriterionResult


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = cli.main(args + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------

def test_points_nine_rows(tmp_path):
    code, data = run_cli(["points", "--phi", "0", "--t-max", "50"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "n,phi,t,zeta_re,zeta_im,z,sign"
    assert len(lines) == 10  # header + 9 rows
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[2]) - 17.8455995404) < 1e-8
    assert first[6] in "+-"


def test_points_rerun_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    args = ["points", "--phi", "0.25", "--t-max", "300",
            "--cache-dir", str(cache)]
    _, cold = run_cli(args, tmp_path, "a.csv")
    _, warm = run_cli(args, tmp_path, "b.csv")
    assert cold == warm
    # and identical to the run without any cache
    _, plain = run_cli(args[:5], tmp_path, "c.csv")
    assert plain == cold
    # and from a cache that a lower height wrote and this run extends
    lower = ["points", "--phi", "0.25", "--t-max", "100", "--cache-dir", str(tmp_path / "ext")]
    run_cli(lower, tmp_path, "d.csv")
    _, extended = run_cli(args[:5] + lower[5:], tmp_path, "e.csv")
    assert extended == cold


def test_points_rejects_bad_phi(tmp_path, capsys):
    code = cli.main(["points", "--phi", "3.2", "--t-max", "50"])
    assert code == cli.EXIT_USAGE
    assert "phi must be in [0, pi)" in capsys.readouterr().err


def test_points_json_schema(tmp_path):
    code, data = run_cli(["points", "--phi", "0", "--t-max", "50",
                          "--format", "json"], tmp_path, "p.json")
    assert code == 0
    doc = json.loads(data)
    assert len(doc["points"]) == 9
    row = doc["points"][0]
    assert set(row) == {"n", "phi", "t", "zeta_re", "zeta_im", "z", "sign"}
    assert "config_hash" in doc["metadata"]
    assert "timestamp" not in doc["metadata"]


def test_points_json_values_are_hardy_z(tmp_path):
    code, data = run_cli(["points", "--phi", "0.3", "--t-max", "300",
                          "--format", "json"], tmp_path, "p.json")
    assert code == 0
    rows = json.loads(data)["points"]
    t = np.array([row["t"] for row in rows])
    z = hardy_z(t)
    zeta = np.exp(-1j * theta(t)) * z
    for row, z_i, zeta_i in zip(rows, z, zeta):
        assert row["z"] == z_i
        assert complex(row["zeta_re"], row["zeta_im"]) == zeta_i


#: sha256 of `points --t-max T --phi 0.3`, whose rows are streamed.
POINTS_SHA256 = {
    ("1e4", "csv"): "a610b22a64b6498ed64f4c56959b7d0b8e2847e4832c83de0c99a4cd7a7fe058",
    ("1e4", "json"): "5469c5c72619be1810a2c6bcaa5a6a1843abd358b9762503c53eae8edf35d7db",
    ("1e5", "csv"): "facd8782677416cd9bf297b3529d48badac1854e91e9018bbc756066c8dfde03",
    ("1e5", "json"): "18cc6f383eca5cc52a3d5a3f36bf3d9f84f29bd58269c87e47cfb5d5e6de055b",
}


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_points_bytes_are_pinned(tmp_path, fmt):
    code, data = run_cli(["points", "--t-max", "1e4", "--phi", "0.3", "--format", fmt], tmp_path)
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == POINTS_SHA256[("1e4", fmt)]


def test_points_stamp_adds_timestamp(tmp_path):
    code, data = run_cli(["points", "--phi", "0", "--t-max", "50",
                          "--format", "json", "--stamp"], tmp_path, "p.json")
    assert code == 0
    assert "timestamp" in json.loads(data)["metadata"]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_thm2_small(tmp_path):
    code, data = run_cli(["verify", "thm2", "--phi", "0", "--t-max", "2000",
                          "--format", "json"], tmp_path, "v.json")
    assert code == 0
    doc = json.loads(data)
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["criteria"]]
    assert any(n.startswith("thm2:main") for n in names)
    assert any(n.startswith("thm2:vanishing") for n in names)


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_checks",
        lambda *a, **k: [CriterionResult("synthetic", False, {"why": "forced"})])
    code, data = run_cli(["verify", "thm2", "--t-max", "2000"], tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    assert b"synthetic,0" in data


def test_verify_unknown_choice_rejected():
    with pytest.raises(SystemExit):
        cli.main(["verify", "bogus", "--t-max", "2000"])


def test_verify_exponent_flags(tmp_path):
    code, data = run_cli(["verify", "thm1", "--p", "3", "--q", "2",
                          "--t-max", "2000"], tmp_path)
    assert code == 0
    body = data.decode()
    assert "thm1:k=3/2" in body
    assert "thm1:k=1/1" not in body
    code, data = run_cli(["verify", "thm1", "--k", "2", "--t-max", "2000"],
                         tmp_path, "k.csv")
    assert code == 0
    assert "thm1:k=2/1" in data.decode()
    assert cli.main(["verify", "thm1", "--k", "0.5", "--t-max", "2000"]) \
        == cli.EXIT_USAGE


@pytest.mark.parametrize("args, message", (
    (["--k", "inf"], "error: --k must be a finite rational >= 1"),
    (["--k", "nan"], "error: --k must be a finite rational >= 1"),
    (["--k", "1e300"], "error: k = 1e+300 is too large"),
    (["--p", "18", "--q", "1", "--t-max", "1e4"], "error: k = 18.0 is too large"),
), ids=("k-inf", "k-nan", "k-1e300", "p18"))
def test_out_of_range_exponent_is_a_usage_error(args, message, capsys):
    start = time.perf_counter()
    assert cli.main(["verify", "thm1"] + args) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_exponent_of_one_term_polynomials_is_quick(tmp_path):
    # xi = T^(1/(4p)) < 2, so X = Y = 1 and no power needs folding
    start = time.perf_counter()
    code, data = run_cli(["verify", "thm1", "--p", "100000001", "--q", "100000000"], tmp_path)
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert "thm1:k=100000001/100000000,1," in data.decode()


@pytest.mark.parametrize("phi, directions", (("0.3", 3), ("0", 2)))
def test_verify_all_builds_one_sweep_per_direction(tmp_path, monkeypatch, phi, directions):
    built = []
    init = GramSweep.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GramSweep, "__init__", counting)
    code, _ = run_cli(["verify", "all", "--t-max", "2000", "--phi", phi], tmp_path)
    assert code == 0
    assert len(built) == directions


def test_verify_determinism_two_runs(tmp_path):
    args = ["verify", "cor1", "--phi", "0", "--t-max", "2000", "--format", "json"]
    _, a = run_cli(args, tmp_path, "r1.json")
    _, b = run_cli(args, tmp_path, "r2.json")
    assert a == b


def test_verify_determinism_across_threads(tmp_path):
    base = ["verify", "prop1", "--phi", "0", "--t-max", "2000", "--format", "json"]
    _, a = run_cli(base + ["--threads", "1"], tmp_path, "t1.json")
    _, b = run_cli(base + ["--threads", "8"], tmp_path, "t8.json")
    assert a == b


# ----------------------------------------------------------------------
# maxscan
# ----------------------------------------------------------------------

def test_maxscan_table(tmp_path):
    code, data = run_cli(["maxscan", "--phi", "0", "--t-max", "2000"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["T", "count"]
    assert "logT_5_4" in header and "logT_3_2" in header
    maxima = []
    for line in lines[1:]:
        cells = line.split(",")
        maxima.append(float(cells[2]) if cells[2] else None)
    present = [m for m in maxima if m is not None]
    assert all(a <= b for a, b in zip(present, present[1:]))


def test_maxscan_rows_are_masked_argmax(tmp_path):
    code, data = run_cli(["maxscan", "--phi", "0", "--t-max", "2000",
                          "--format", "json"], tmp_path, "m.json")
    assert code == 0
    sweep = GramSweep(0.0, 2000.0)
    absz = np.abs(sweep.value)
    for row in json.loads(data)["scan"]:
        below = sweep.points.t <= row["T"]
        assert row["count"] == int(below.sum())
        for label, mask in (("plus", sweep.plus_mask), ("minus", sweep.minus_mask)):
            idx = np.nonzero(below & mask)[0]
            if idx.size:
                j = idx[np.argmax(absz[idx])]
                expected = [float(absz[j]), float(sweep.points.t[j])]
            else:
                expected = [None, None]
            assert [row[f"max_{label}"], row[f"argmax_{label}"]] == expected


def test_maxscan_empty_class_cells(tmp_path):
    code, data = run_cli(["maxscan", "--phi", "0", "--t-max", "200"], tmp_path)
    assert code == 0
    body = data.decode().strip().split("\n")[1:]
    # minus class is empty this low: empty cells, not an error
    assert any(",," in line for line in body)


# ----------------------------------------------------------------------
# resonate / divisor
# ----------------------------------------------------------------------

def test_resonate_support_dump(tmp_path):
    code, data = run_cli(["resonate", "--x", "1e4"], tmp_path, "r.csv")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "n,f"
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("# ratio=")


def test_resonate_json_with_certificate(tmp_path):
    code, data = run_cli(["resonate", "--x", "1e3", "--certificate",
                          "--phi", "0", "--t-max", "2000",
                          "--format", "json"], tmp_path, "r.json")
    assert code == 0
    doc = json.loads(data)
    assert doc["support_size"] == 1
    assert doc["certificate"]["scanned_max"] >= doc["certificate"]["certified_bound"]


def test_resonate_certificate_uses_threads_and_cache(tmp_path):
    args = ["resonate", "--x", "1e3", "--certificate", "--t-max", "2000",
            "--format", "json"]
    cache = tmp_path / "cache"
    code, cached = run_cli(args + ["--threads", "2", "--cache-dir", str(cache)],
                           tmp_path, "a.json")
    assert code == 0
    assert len(list(cache.iterdir())) == 1
    _, plain = run_cli(args + ["--threads", "1"], tmp_path, "b.json")
    assert cached == plain


def test_divisor_table_dump(tmp_path):
    code, data = run_cli(["divisor", "--kappa", "2", "--limit", "10"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "n,d_kappa"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]


@pytest.mark.parametrize("limit", (1, divisor.SEG, divisor.SEG + 1), ids=("1", "SEG", "SEG+1"))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_divisor_dump_equals_the_whole_table(tmp_path, fmt, limit):
    code, data = run_cli(["divisor", "--kappa", "0.5", "--limit", str(limit),
                          "--format", fmt], tmp_path)
    assert code == 0
    values = divisor.build_table(0.5, limit).values[1:].tolist()
    if fmt == "json":
        meta = json.loads(data)["metadata"]
        want = json.dumps({"metadata": meta, "kappa": 0.5, "values": values},
                          sort_keys=True, indent=2) + "\n"
    else:
        want = "n,d_kappa\n" + "".join(f"{n},{v!r}\n" for n, v in enumerate(values, 1))
    assert data.decode() == want


def test_divisor_partial_sum_report(tmp_path):
    code, data = run_cli(["divisor", "--kappa", "3", "--partial-sum", "1000",
                          "--format", "json"], tmp_path, "d.json")
    assert code == 0
    doc = json.loads(data)
    assert doc["rel_error"] < 0.02


@pytest.mark.parametrize("kappa", ("nan", "inf", "-inf", "0"))
def test_divisor_rejects_non_finite_kappa(tmp_path, capsys, kappa):
    code, data = run_cli(["divisor", f"--kappa={kappa}", "--limit", "5"], tmp_path)
    assert code == 2
    assert data == b""
    assert "error: kappa must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("x", ("inf", "nan", "1.5"))
def test_divisor_rejects_bad_partial_sum_bound(tmp_path, capsys, x):
    code, _ = run_cli(["divisor", "--kappa", "3", "--partial-sum", x], tmp_path)
    assert code == 2
    assert "error: x must be finite and >= 2" in capsys.readouterr().err


def test_divisor_partial_sum_honours_kappa(tmp_path):
    sums = {}
    for kappa in ("2", "2.5"):
        code, data = run_cli(["divisor", "--kappa", kappa, "--partial-sum", "1000",
                              "--format", "json"], tmp_path, f"{kappa}.json")
        assert code == 0
        doc = json.loads(data)
        assert doc["kappa"] == float(kappa)
        assert doc["predicted"] is None
        sums[kappa] = doc["sum"]
    assert sums["2"] == sum(1000 // d for d in range(1, 1001))
    assert sums["2.5"] > sums["2"]


# ----------------------------------------------------------------------
# config file and hashing
# ----------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("phi = 0.25\nt_max = 300\nformat = json  # comment\n")
    code, data = run_cli(["points", "--config", str(cfgfile)], tmp_path, "a.json")
    assert code == 0
    doc = json.loads(data)
    assert doc["metadata"]["phi"] == 0.25
    # flag overrides file
    code, data = run_cli(["points", "--config", str(cfgfile), "--phi", "0.5"],
                         tmp_path, "b.json")
    assert json.loads(data)["metadata"]["phi"] == 0.5


def test_config_file_bad_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("frobnicate = 1\n")
    code = cli.main(["points", "--config", str(cfgfile)])
    assert code == cli.EXIT_USAGE


def test_rs_correction_order_removed(tmp_path):
    for flag, key in (("--rs-correction-order", "rs_correction_order"),
                      ("--abs-tol", "abs_tol")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["points", "--t-max", "50", flag, "1e-10"])
        assert exc.value.code == cli.EXIT_USAGE
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = 1e-10\n")
        assert cli.main(["points", "--config", str(cfgfile)]) == cli.EXIT_USAGE


COMMANDS = {
    "points": ["points"],
    "verify": ["verify", "thm2"],
    "maxscan": ["maxscan"],
    "resonate": ["resonate", "--x", "1e3", "--certificate"],
    "divisor": ["divisor", "--kappa", "3", "--partial-sum", "1e3"],
}


@pytest.mark.parametrize("value", ("inf", "nan"))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_non_finite_t_max_is_a_usage_error(command, value, capsys):
    assert cli.main(COMMANDS[command] + ["--t-max", value]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: t_max must be finite and positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ("inf", "nan"))
def test_non_finite_resonator_cutoff_is_a_usage_error(value, capsys):
    assert cli.main(["resonate", "--x", value]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: resonator cutoff X must be finite")


@pytest.mark.parametrize("value, message", (
    ("1e8", "error: sieve of size 100000000 exceeds budget"),
    ("1e30", "error: resonator cutoff X = 1e+30 has L^4 <= X"),
), ids=("1e8", "1e30"))
def test_resonator_cutoff_beyond_limits_is_a_usage_error(value, message, capsys):
    assert cli.main(["resonate", "--x", value]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_large_resonator_cutoff_fails_before_allocating():
    # under a 1.5 GiB address-space cap an unbounded sieve to 2e8 ends in a
    # MemoryError traceback; the budget check must reject it first
    script = ("import resource, sys; from zetagram import cli; "
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
              "sys.exit(cli.main(['resonate', '--x', '2e8']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: sieve of size 200000000 exceeds budget")


def run_under_address_space_headroom(argv, headroom_mib):
    """cli.main(argv) in a child whose address space may grow by at most
    headroom_mib past its size after import."""
    script = ("import resource, sys; from zetagram import cli; "
              "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize(); "
              f"cap = size + ({headroom_mib} << 20); "
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
              f"sys.exit(cli.main({argv!r}))")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)


def test_divisor_partial_sum_streams_its_table():
    # x = 1e7 with 48 MiB of headroom: a whole d_3 table up to 1e7 takes
    # 76 MiB, so holding one ends in a MemoryError
    proc = run_under_address_space_headroom(
        ["divisor", "--kappa", "3", "--partial-sum", "1e7"], 48)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("kappa,x,sum,predicted\n3.0,10000000.0,")


@pytest.mark.parametrize("fmt, tail", (("csv", b"\n2000000,"), ("json", b"\n  ]\n}\n")),
                         ids=("csv", "json"))
def test_divisor_dump_streams_its_table(tmp_path, fmt, tail):
    # limit = 2e6 with 64 MiB of headroom: the table as one list of rows
    # or of floats takes over 100 MB, so holding one ends in a MemoryError
    out = tmp_path / f"d.{fmt}"
    proc = run_under_address_space_headroom(
        ["divisor", "--kappa", "0.5", "--limit", "2000000", "--format", fmt,
         "--output", str(out)], 64)
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        fh.seek(-64, 2)
        assert tail in fh.read()


def test_divisor_partial_sum_beyond_budget_fails_before_allocating():
    proc = run_under_address_space_headroom(
        ["divisor", "--kappa", "3", "--partial-sum", "1.5e8"], 48)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: table of size 150000000 exceeds budget")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_points_streams_its_rows(tmp_path, fmt):
    # T = 1e5 (138,068 points) with 64 MiB of headroom: the rows held as
    # Python lists before writing take more than that in either format
    out = tmp_path / f"p.{fmt}"
    proc = run_under_address_space_headroom(
        ["points", "--t-max", "1e5", "--phi", "0.3", "--format", fmt, "--output", str(out)], 64)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POINTS_SHA256[("1e5", fmt)]


def test_point_budget_fails_before_allocating():
    # t_max = 1e9 holds about 2.8e9 points, 23 GB per float64 array
    proc = run_under_address_space_headroom(["maxscan", "--t-max", "1e9"], 64)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: t_max = 1000000000.0 holds about 2.847e+09 ")
    assert "Traceback" not in proc.stderr


def test_semantic_hash_ignores_threads():
    a = cli.RunConfig(phi=0.1, t_max=100.0, threads=1)
    b = cli.RunConfig(phi=0.1, t_max=100.0, threads=8)
    c = cli.RunConfig(phi=0.2, t_max=100.0)
    assert a.semantic_hash() == b.semantic_hash()
    assert a.semantic_hash() != c.semantic_hash()


def test_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "zetagram.cli", "points", "--phi", "0",
         "--t-max", "50"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,phi,t,")
