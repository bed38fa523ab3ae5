import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from zetagram import cli, divisor, grampoints, moments, resonator, special, verify
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
    ("1e4", "csv"): "990f3faa9b32d20dbab83f7d9ef5ccd58efa2f443512412da9d408b4f3814059",
    ("1e4", "json"): "9275ac3791a23c5cd2d4514129d7d94fbe1516fcc4467286b597cf33c7341353",
    ("1e5", "csv"): "c6f169785f7a078fc31e39d044daf6246384502308404d528f36ba3f127c90aa",
    ("1e5", "json"): "c8f6e6fd15d8584eaff2caaeb9b1e4990f0a297e9c60601ccd38aa372f709333",
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


def test_parser_built_once_keeps_each_commands_bytes(tmp_path, capsys):
    # one parser serves every call of a process: a flag of one call must
    # not reach the next, nor must an error or --version between them
    assert cli.build_parser() is cli.build_parser()
    tail = ["--phi", "0", "--t-max", "2000"]
    commands = {
        "certificate": ["resonate", "--x", "1e3", "--certificate"] + tail,
        "resonate": ["resonate", "--x", "1e3"] + tail,
        "thm1-k": ["verify", "thm1", "--k", "1.5"] + tail,
        "thm1": ["verify", "thm1"] + tail,
        "plain": ["points", "--phi", "0", "--t-max", "50", "--format", "json"],
    }
    alone = {}
    for name, args in commands.items():
        cli.build_parser.cache_clear()
        alone[name] = run_cli(args, tmp_path, f"alone-{name}")
    assert alone["certificate"] != alone["resonate"] and alone["thm1-k"] != alone["thm1"]

    def bad_run():
        assert cli.main(["points", "--phi", "3.2", "--t-max", "50"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def version_run():
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == cli.__version__

    sequence = ["certificate", bad_run, "resonate", version_run, "thm1-k", bad_run, "thm1",
                ["points", "--phi", "0", "--t-max", "50", "--format", "json", "--stamp"],
                version_run, "plain"]
    for i, step in enumerate(sequence):
        if callable(step):
            step()
        elif isinstance(step, list):
            code, data = run_cli(step, tmp_path, f"seq-{i}")
            assert code == 0 and "timestamp" in json.loads(data)["metadata"]
        else:
            assert run_cli(commands[step], tmp_path, f"seq-{i}") == alone[step], step
    assert "timestamp" not in json.loads(alone["plain"][1])["metadata"]


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


@pytest.mark.parametrize("phi, directions", (("0.3", 2), ("0", 2)))
def test_verify_all_builds_one_sweep_per_direction(tmp_path, monkeypatch, phi, directions):
    # sweeps at phi and pi/2 only: thm2's reference main term at phi = 0
    # takes that direction's cut height from two Gram solves, not a sweep
    built = []
    init = GramSweep.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GramSweep, "__init__", counting)
    code, _ = run_cli(["verify", "all", "--t-max", "2000", "--phi", phi], tmp_path)
    assert code == 0
    assert len(built) == directions
    assert sorted(args[0] for args in built) == [float(phi), math.pi / 2]


def test_run_checks_rejects_an_unknown_check():
    with pytest.raises(special.DomainError, match="unknown check 'nope'; choose from prop1, thm2, "
                                                  "thm1, cor1, cor2, divisor or 'all'"):
        verify.run_checks("nope", 0.0, 1e3)


@pytest.mark.parametrize("t_max", (1000.0, 1111.0))
def test_cor1_without_headroom_compares_the_run_height_with_itself(t_max):
    # the lower scan height max(1e3, t_max/100) = 1e3 is not below
    # 0.9 t_max up to t_max = 1111, so both maxima are those at t_max
    growth = verify.check_cor1(verify.SweepCache(t_max), 0.0)[1]
    assert growth.name == "cor1:max-growth:phi=0" and growth.passed
    d = growth.details
    assert (d["max_plus_small"], d["max_minus_small"]) == (d["max_plus_big"], d["max_minus_big"])


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


#: Directions in the band around pi/2 where the predicted main terms of
#: thm2 and prop1 nearly cancel.
NEAR_HALF_PI = tuple(math.pi / 2 + sign * d for d in (1e-7, 1e-4, 1e-3, 2e-3) for sign in (-1, 1))


def test_verify_all_passes_near_the_cancelling_direction(tmp_path):
    # one process, one phi after another
    for i, phi in enumerate(NEAR_HALF_PI):
        code, data = run_cli(["verify", "all", "--t-max", "1e4", "--format", "json",
                              "--threads", "1", "--phi", repr(phi)], tmp_path, f"v{i}.json")
        failed = [c["name"] for c in json.loads(data)["criteria"] if not c["passed"]]
        assert (code, failed) == (0, []), phi


@pytest.mark.parametrize("phi", NEAR_HALF_PI[::3])
def test_verdicts_near_the_cancelling_direction_fail_twice_the_floor_off(monkeypatch, phi):
    cache = verify.SweepCache(1e4)
    details = {r.name.split(":")[1]: r.details
               for r in verify.check_thm2(cache, phi) + verify.check_prop1(cache, phi)}
    floors = {"cubed": details["vanishing"]["tolerance_fraction"]
              * details["vanishing"]["reference_main"],
              "S1": details["S1-degenerate"]["tolerance_fraction"]
              * details["S1-degenerate"]["reference_scale"]}

    def moved(fn):
        def call(*args, **kwargs):
            rep = fn(*args, **kwargs)
            if rep.phi != phi:
                return rep
            return dataclasses.replace(rep, computed=rep.predicted + 2 * floors[rep.kind])
        return call

    monkeypatch.setattr(moments, "moment_cubed", moved(moments.moment_cubed))
    monkeypatch.setattr(moments, "compute_S1", moved(moments.compute_S1))
    verdicts = {r.name.split(":")[1]: r.passed
                for r in verify.check_thm2(cache, phi) + verify.check_prop1(cache, phi)}
    assert verdicts == {"main": False, "vanishing": True, "S2[1]": True, "S2[1,1]": True,
                        "S1[1|1]": False, "S1[1,1|1]": False, "S1-degenerate": True}


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


@pytest.mark.parametrize("t_max", ["50", "99"])
def test_maxscan_below_100_is_a_usage_error(t_max, tmp_path, capsys):
    code, data = run_cli(["maxscan", "--t-max", t_max], tmp_path)
    assert code == cli.EXIT_USAGE and data == b""
    assert "error: class_maxima requires t_max >= 100.0" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", [100.0, 150.0, 2000.0])
def test_maxscan_rows_stay_at_or_below_t_max(t_max, tmp_path):
    code, data = run_cli(["maxscan", "--t-max", repr(t_max)], tmp_path)
    heights = [float(line.split(",")[0]) for line in data.decode().strip().split("\n")[1:]]
    assert code == 0 and heights and max(heights) == t_max


def test_maxscan_cache_write_shares_no_temporary_name(tmp_path):
    """The cache is written through a temporary file of its own: a
    directory at the old fixed name <cache file>.tmp, standing in for
    another writer, neither breaks the run nor is written into."""
    cache = tmp_path / "cache"
    name = Path(grampoints._cache_path(str(cache), grampoints._as_angle(0.3))).name
    (cache / (name + ".tmp")).mkdir(parents=True)
    args = ["maxscan", "--t-max", "1000", "--phi", "0.3", "--cache-dir", str(cache)]
    code, cold = run_cli(args, tmp_path, "a.csv")
    assert code == 0
    assert sorted(p.name for p in cache.iterdir()) == [name, name + ".tmp"]
    assert not any((cache / (name + ".tmp")).iterdir())
    written = (cache / name).stat()
    # a second run reads the cache and leaves it as it was
    code, warm = run_cli(args, tmp_path, "b.csv")
    assert code == 0 and warm == cold
    read = (cache / name).stat()
    assert (read.st_ino, read.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
    assert sorted(p.name for p in cache.iterdir()) == [name, name + ".tmp"]


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


def test_resonate_csv_prints_the_certificate(tmp_path):
    args = ["resonate", "--x", "1e4", "--certificate", "--phi", "0.3", "--t-max", "2000"]
    code, data = run_cli(args, tmp_path, "r.csv")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[-2].startswith("# ratio=")
    _, doc = run_cli(args + ["--format", "json"], tmp_path, "r.json")
    cert = json.loads(doc)["certificate"]
    assert lines[-1] == (f"# certified_bound={cert['certified_bound']!r} "
                         f"scanned_max={cert['scanned_max']!r} degenerate_direction=False")


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


@pytest.mark.parametrize("args", (["--limit", "10"], ["--partial-sum", "100"]))
@pytest.mark.parametrize("kappa", ("1e300", "1e200", "100000.00000000001"))
def test_divisor_rejects_kappa_whose_values_overflow(tmp_path, capsys, kappa, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, data = run_cli(["divisor", "--kappa", kappa, *args], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert data == b""
    assert "error: kappa must be finite and positive and at most 100000" in err
    assert "Warning" not in err
    assert not caught


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


def test_config_file_skips_blank_lines_and_comments(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# a run\n\nphi = 0.25\n   \n  # indented comment\nt_max = 300  # height\n"
                       "format = json\n")
    code, data = run_cli(["points", "--config", str(cfgfile)], tmp_path)
    assert code == 0
    meta = json.loads(data)["metadata"]
    assert (meta["phi"], meta["t_max"]) == (0.25, 300.0)


@pytest.mark.parametrize("text, message", (
    ("format = xml\n", "error: format must be csv or json\n"),
    ("phi = 0.25\nt_max 300\n", "error: bad config line: 't_max 300'\n"),
), ids=("format-xml", "no-equals"))
def test_config_file_bad_value_or_line_is_a_usage_error(text, message, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert cli.main(["points", "--config", str(cfgfile)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv, message", (
    (["points", "--threads", "0"], "error: threads must be >= 1\n"),
    (["verify", "thm1", "--p", "3"], "error: --p and --q must be given together\n"),
), ids=("threads-0", "p-without-q"))
def test_flag_outside_its_domain_is_a_usage_error(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == message


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


#: sha256 of resonate --x 9.9e7 --t-max 1e4 at phi = 0, in JSON with the
#: certificate and in CSV without it.
RESONATE_TOP_SHA256 = {
    "json": "6336a709a93946a69f1181f8df4f2049284e5b4146091e7ccf93354032efc53b",
    "csv": "af52da7d5828c7f5d9f2f32f23810971653f7119164cb2df1e998ff7b1312d85",
}


def test_resonator_certificate_at_the_top_of_the_domain_is_bounded():
    # X = 9.9e7, 5,537,943 support terms, with 1,280 MiB of headroom: the
    # certificate's address space grows by about 990 MiB; a dense copy of
    # the coefficients up to X for S1's predicted coefficient alone is
    # 1.58 GB
    proc = run_under_address_space_headroom(
        ["resonate", "--x", "9.9e7", "--certificate", "--t-max", "1e4", "--format", "json"], 1280)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == RESONATE_TOP_SHA256["json"]


def test_resonator_csv_at_the_top_of_the_domain_streams_its_rows(tmp_path):
    # with 400 MiB of headroom: the 5.5M rows joined into one string take
    # more than that beside the resonator's arrays
    out = tmp_path / "r.csv"
    proc = run_under_address_space_headroom(
        ["resonate", "--x", "9.9e7", "--t-max", "1e4", "--output", str(out)], 400)
    assert proc.returncode == 0, proc.stderr
    try:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RESONATE_TOP_SHA256["csv"]
    finally:
        out.unlink()


def test_point_budget_fails_before_allocating():
    # t_max = 1e9 holds about 2.8e9 points, 23 GB per float64 array
    proc = run_under_address_space_headroom(["maxscan", "--t-max", "1e9"], 64)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: t_max = 1000000000.0 holds about 2.847e+09 ")
    assert "Traceback" not in proc.stderr


JSON_COMMANDS = (
    *(["verify", "all", "--phi", phi] for phi in ("0", "0.3", "1.5707963267948966", "2.9")),
    *(["verify", name, "--phi", "0.3"] for name in verify.CHECK_NAMES),
    ["verify", "thm1", "--k", "1.5"],
    ["verify", "thm1", "--p", "2", "--q", "1"],
    ["resonate", "--x", "5e4"],
    ["resonate", "--x", "5e4", "--certificate", "--phi", "0.3"],
    ["maxscan"],
    ["points", "--stamp"],
    ["divisor", "--kappa", "2.7", "--partial-sum", "1e4"],
    ["divisor", "--kappa", "2.7", "--limit", "50"],
)


@pytest.mark.parametrize("args", JSON_COMMANDS, ids=" ".join)
def test_json_reports_are_json(args, tmp_path):
    code, data = run_cli(args + ["--t-max", "2000", "--format", "json"], tmp_path)
    assert code == 0
    assert isinstance(json.loads(data), dict)


def test_semantic_hash_ignores_threads():
    a = cli.RunConfig(phi=0.1, t_max=100.0, threads=1)
    b = cli.RunConfig(phi=0.1, t_max=100.0, threads=8)
    c = cli.RunConfig(phi=0.2, t_max=100.0)
    assert a.semantic_hash() == b.semantic_hash()
    assert a.semantic_hash() != c.semantic_hash()


def test_commands_run_without_scipy():
    # numpy is the only run-time dependency: neither the import nor a
    # certificate op (Gram-point seeds, theta below t = 30) loads scipy
    script = ("import contextlib, io, sys; from zetagram import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = cli.main(['resonate', '--x', '5e4', '--certificate', '--t-max', '1e4'])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["0", "[]"], proc.stderr


def test_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "zetagram.cli", "points", "--phi", "0",
         "--t-max", "50"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,phi,t,")


# ----------------------------------------------------------------------
# broken invariants: one InvariantError, exit 1, one error line, no report
# ----------------------------------------------------------------------

def assert_invariant_error(argv, message, capsys):
    code = cli.main(argv + ["--t-max", "2000"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_CHECK_FAILED, "")
    assert err.splitlines() == [f"error: {message}"]


#: Commands that build a sweep, so each meets a broken Gram-point invariant.
SWEEP_COMMANDS = (["points"], ["maxscan"], ["verify", "all"],
                  ["resonate", "--x", "5e4", "--certificate"])


def test_broken_holder_chain_is_an_invariant_error(monkeypatch, capsys):
    moment_abs_2k = moments.moment_abs_2k
    monkeypatch.setattr(moments, "moment_abs_2k", lambda sweep, k: dataclasses.replace(
        moment_abs_2k(sweep, k), computed=0j))
    for argv in (["verify", "thm1"], ["verify", "all"]):
        assert_invariant_error(argv, "Hoelder inequality violated beyond numerical slack", capsys)


def test_disagreeing_signed_moment_routes_are_an_invariant_error(monkeypatch, capsys):
    classify = moments.classify

    def one_flipped(points, threads=1):
        z, parity, value, plus = classify(points, threads)
        plus[np.argmax(np.abs(value))] ^= True
        return z, parity, value, plus

    monkeypatch.setattr(moments, "classify", one_flipped)
    for argv in (["verify", "cor1"], ["verify", "all"]):
        assert_invariant_error(
            argv, "signed-moment identity route disagrees with direct route", capsys)


def test_broken_certificate_inequality_is_an_invariant_error(monkeypatch, capsys):
    s1_sum = resonator._s1_sum
    monkeypatch.setattr(resonator, "_s1_sum", lambda *a: 1e9 * s1_sum(*a))
    for argv in (["resonate", "--x", "5e4", "--certificate"], ["verify", "cor2"],
                 ["verify", "all"]):
        assert_invariant_error(
            argv, "certificate inequality |S1| <= S2 max|zeta| failed", capsys)


def test_vanishing_certificate_s2_is_an_invariant_error(monkeypatch, capsys):
    monkeypatch.setattr(resonator, "_s2_sum", lambda sweep, poly: 0.0)
    for argv in (["resonate", "--x", "5e4", "--certificate"], ["verify", "cor2"]):
        assert_invariant_error(argv, "certificate sum S2 is not positive", capsys)


def test_non_finite_hardy_z_is_an_invariant_error(monkeypatch, capsys):
    hardy_z = special.hardy_z

    def one_nan(t):
        z = hardy_z(t)
        z[z.size // 2] = np.nan
        return z

    monkeypatch.setattr(special, "hardy_z", one_nan)
    for argv in SWEEP_COMMANDS:
        assert_invariant_error(argv, "Hardy Z is not finite at some Gram point", capsys)


@pytest.mark.parametrize("turn, message", (
    (math.pi, "sign-classification cross-check failed"),
    (1e-4, "e^{-i phi} zeta is not numerically real at sampled points"),
), ids=("sign", "real"))
def test_failed_sign_cross_check_is_an_invariant_error(turn, message, monkeypatch, capsys):
    # theta turned once the points are solved: the direct route
    # e^{-i (phi + theta)} Z is then (-1)^n Z e^{-i turn}, of the opposite
    # sign for a turn of pi and off the real axis for a small one
    enumerate_points = moments.enumerate_points

    def enumerate_then_turn(*args):
        points = enumerate_points(*args)
        monkeypatch.setattr(grampoints, "theta", lambda t: theta(t) + turn)
        return points

    monkeypatch.setattr(moments, "enumerate_points", enumerate_then_turn)
    for argv in SWEEP_COMMANDS:
        monkeypatch.setattr(grampoints, "theta", theta)
        assert_invariant_error(argv, message, capsys)


def test_non_increasing_abscissas_are_an_invariant_error(monkeypatch, capsys):
    monkeypatch.setattr(grampoints, "_solve_targets", lambda targets: np.full(targets.shape, 100.0))
    for argv in SWEEP_COMMANDS:
        assert_invariant_error(argv, "enumerated abscissas are not strictly increasing", capsys)
