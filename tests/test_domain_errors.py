"""Bad input has one failure path: every public entry point raises
special.DomainError itself (no subclass, no other ValueError) with its
message, and the CLI turns it into exit 2 and one "error:" line."""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import cli, verify
from zetagram.divisor import (
    convolve_truncated,
    d_kappa,
    divisor_partial_sum,
    primes_up_to,
)
from zetagram.grampoints import enumerate_points, solve_gram
from zetagram.moments import DirichletPolynomial, RationalExponent
from zetagram.resonator import build_resonator
from zetagram.special import (
    DomainError,
    delta,
    delta_critical,
    hardy_z,
    log_delta,
    log_gamma,
    theta,
    zeta_euler_maclaurin,
)

LIBRARY_ROWS = {
    "d_kappa-n0": (lambda: d_kappa(0, 2), "d_kappa requires n >= 1"),
    "d_kappa-kappa0": (lambda: d_kappa(5, 0),
                       "kappa must be finite and positive and at most 100000, got 0"),
    "log_gamma-pole": (lambda: log_gamma(0), "log_gamma pole at s=0"),
    "zeta-pole": (lambda: zeta_euler_maclaurin(1), "zeta has a pole at s=1"),
    "resonator-budget": (lambda: build_resonator(1e8), "sieve of size 100000000 exceeds budget"),
    "resonator-small": (lambda: build_resonator(10),
                        "resonator cutoff X must be finite and >= 1e3, got 10.0"),
    "solve_gram-branch": (lambda: solve_gram(-5, 0),
                          "target -15.707963267948966 below the increasing-branch cutoff "
                          "theta(2 pi) + 0.25 = -3.2810"),
    "exponent-order": (lambda: RationalExponent(1, 2), "need p >= q >= 1"),
    "partial-sum-x": (lambda: divisor_partial_sum(3, 1), "x must be finite and >= 2, got 1"),
    "convolve-m": (lambda: convolve_truncated(1, -1, 3), "m must be >= 0"),
    "run_checks-name": (lambda: verify.run_checks("nope", 0, 1e3),
                        "unknown check 'nope'; choose from prop1, thm2, thm1, cor1, cor2, "
                        "divisor or 'all'"),
    "polynomial-order": (lambda: DirichletPolynomial([2, 1], [1, 1], 3),
                         "need indices strictly ascending in [1, 3], one per x_n"),
    "primes-budget": (lambda: primes_up_to(10 ** 8), "sieve of size 100000000 exceeds budget"),
    "delta-pole": (lambda: delta(1), "Delta has a pole/zero at s=(1+0j)"),
    "log_delta-pole": (lambda: log_delta(1), "Delta has a pole/zero at s=(1+0j)"),
    "theta-negative": (lambda: theta(-1), "theta requires finite t >= 0"),
    "hardy_z-nan": (lambda: hardy_z(math.nan), "hardy_z requires finite t >= 0"),
    "enumerate-low": (lambda: enumerate_points(0, 10),
                      "enumerate_points requires a finite t_max >= 20"),
    "convolve-xi-nan": (lambda: convolve_truncated(1, 2, math.nan),
                        "xi must be >= 1 and finite, got nan"),
    "convolve-xi-inf": (lambda: convolve_truncated(1, 2, math.inf),
                        "xi must be >= 1 and finite, got inf"),
    "exponent-not-integer": (lambda: RationalExponent(3.5, 2),
                             "p and q must be integers, got 3.5 and 2"),
    "solve_gram-huge-n": (lambda: solve_gram(10 ** 400, 0),
                          "target pi n - phi = inf is not finite"),
    "log_gamma-nan": (lambda: log_gamma(math.nan), "log_gamma requires finite s"),
    "delta-nan": (lambda: delta(math.nan), "Delta requires a finite s, got s=(nan+0j)"),
    "log_delta-nan": (lambda: log_delta(math.nan), "Delta requires a finite s, got s=(nan+0j)"),
    "delta_critical-nan": (lambda: delta_critical([math.nan]), "delta_critical requires finite t"),
}


@pytest.mark.parametrize("call, message", LIBRARY_ROWS.values(), ids=LIBRARY_ROWS)
def test_bad_input_raises_domain_error(call, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is DomainError
    assert str(info.value) == message


CLI_ROWS = {
    "divisor --kappa 0 --partial-sum 10":
        "kappa must be finite and positive and at most 100000, got 0.0",
    "divisor --partial-sum 1": "x must be finite and >= 2, got 1.0",
    "divisor --kappa 2 --limit 0": "limit must be >= 1",
    "resonate --x 1e8": "sieve of size 100000000 exceeds budget",
    "resonate --x 10": "resonator cutoff X must be finite and >= 1e3, got 10.0",
    "verify thm1 --p 1 --q 2 --t-max 1e3": "need p >= q >= 1",
    "points --phi 4": "phi must be in [0, pi)",
    "points --t-max 1e7":
        "t_max = 10000000.0 holds about 2.114e+07 Gram points, above the budget of 10000000",
    "maxscan --t-max 50": "class_maxima requires t_max >= 100.0",
}


@pytest.mark.parametrize("argv, message", CLI_ROWS.items(), ids=CLI_ROWS)
def test_bad_cli_input_exits_2_with_one_error_line(argv, message, capsys):
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def mostly(good, bad):
    """good three times in four, bad (outside the domain) otherwise."""
    return st.sampled_from((good, good, good, bad)).flatmap(lambda strategy: strategy)


PHI = mostly(st.floats(0.0, math.pi, exclude_max=True),
             st.floats(-4.0, 0.0, exclude_max=True) | st.floats(math.pi, 7.0))
T_MAX = mostly(st.floats(100.0, 2e3), st.floats(max_value=100.0))
OPTIONAL_EXPONENT = st.one_of(
    st.just([]), st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(
        lambda pq: ["--p", str(pq[0]), "--q", str(pq[1])]))
COMMAND = st.one_of(
    st.just(["points"]),
    st.just(["maxscan"]),
    st.tuples(st.sampled_from(verify.CHECK_NAMES + ("all",)), OPTIONAL_EXPONENT).map(
        lambda w: ["verify", w[0], *w[1]]),
    st.tuples(mostly(st.floats(1e3, 1e6), st.floats(max_value=1e3) | st.sampled_from(
        (1e8, 1e30, math.inf, math.nan))), st.booleans()).map(
        lambda xc: ["resonate", f"--x={xc[0]!r}", *(["--certificate"] if xc[1] else [])]),
    st.tuples(mostly(st.floats(0.1, 20.0), st.floats(max_value=0.0) | st.sampled_from(
        (math.inf, math.nan, 1e300))),
              st.one_of(st.integers(-5, 1000).map(lambda n: f"--limit={n}"),
                        st.floats(-10.0, 1e6).map(lambda x: f"--partial-sum={x!r}"))).map(
        lambda ka: ["divisor", f"--kappa={ka[0]!r}", ka[1]]),
)


@settings(max_examples=150, deadline=None)
@given(command=COMMAND, phi=PHI, t_max=T_MAX,
       fmt=st.sampled_from(("csv", "json")), threads=st.integers(1, 2))
def test_cli_fails_only_by_exit_code_and_one_error_line(command, phi, t_max, fmt, threads):
    argv = [*command, f"--phi={phi!r}", f"--t-max={t_max!r}", "--format", fmt,
            "--threads", str(threads)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE), argv
    assert "Traceback" not in err, argv
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                         and err.endswith("\n")), (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
