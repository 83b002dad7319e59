"""The numpy normal cdf, quantile and log-sum-exp of ``copulabn._normal``,
against mpmath and scipy as oracles, and the command line without scipy."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from copulabn._normal import logsumexp, ndtr, ndtri
from copulabn.errors import OutOfRangeError
from copulabn.marginals import fit_kde

ROOT = Path(__file__).resolve().parents[1]
EPS = np.finfo(float).eps


def _mp_ndtri(p):
    """ndtri at the float ``p`` to 30 digits: Newton steps on the log cdf
    from the lower tail (``1 - p`` is exact in mpmath)."""
    with mp.workdps(30):
        p = mp.mpf(float(p))
        sign, log_p = (1, mp.log(p)) if p < 0.5 else (-1, mp.log(1 - p))
        x = -mp.sqrt(-2 * log_p) if log_p < -3 else mp.sqrt(2) * mp.erfinv(2 * mp.exp(log_p) - 1)
        for _ in range(100):
            c = mp.ncdf(x)
            step = (mp.log(c) - log_p) * c / mp.npdf(x)
            x -= step
            if abs(step) < mp.mpf(10) ** -27 * (1 + abs(x)):
                return sign * x
    raise AssertionError(f"no mpmath root for p={p}")


def _relative_errors(values, reference):
    return np.array([float(abs((mp.mpf(v) - r) / r)) if r else abs(v) for v, r in zip(values.tolist(), reference)])


def test_ndtr_matches_mpmath_at_least_as_well_as_scipy():
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-9.0, 9.0, 3601), rng.uniform(-9.0, 9.0, 400), rng.uniform(-9.0, -7.0, 200)])
    with mp.workdps(30):
        reference = [mp.ncdf(mp.mpf(v)) for v in x.tolist()]
    ours = _relative_errors(ndtr(x), reference).max()
    theirs = _relative_errors(scipy.special.ndtr(x), reference).max()
    assert ours <= theirs
    assert ours < 1e-15


def test_ndtr_saturates_beyond_nine_with_a_tiny_absolute_error():
    edge = 9.0 + 1.0 / 512.0
    far = np.array([np.nextafter(edge, 10.0), 9.5, 12.0, 40.0, 1e300, np.inf])
    assert np.all(ndtr(-far) == 0.0)
    assert np.all(ndtr(far) == 1.0)
    # Above 8.3 the nearest float to ndtr is 1 itself.
    assert np.all(ndtr(np.linspace(8.3, 12.0, 301)) == 1.0)
    x = -np.linspace(8.9, 12.0, 301)
    with mp.workdps(30):
        reference = [mp.ncdf(mp.mpf(v)) for v in x.tolist()]
    gap = max(float(abs(mp.mpf(v) - r)) for v, r in zip(ndtr(x).tolist(), reference))
    assert gap < 1.2e-19


def test_ndtri_matches_mpmath_from_1e_300_to_one_minus_1e_16():
    rng = np.random.default_rng(1)
    p = np.concatenate([
        10.0 ** -rng.uniform(0.0, 300.0, 150),
        rng.uniform(0.0, 1.0, 150),
        1.0 - 10.0 ** -rng.uniform(0.3, 16.0, 100),
        [1e-300, 1.0 - 1e-16, 0.075, 0.925, np.exp(-25.0), 0.5],
    ])
    reference = [_mp_ndtri(v) for v in p.tolist()]
    assert _relative_errors(ndtri(p), reference).max() <= 1e-15


def test_ndtri_round_trips_through_ndtr():
    # ndtr(ndtri(p)) moves p by ndtri's error times the condition number
    # x phi(x) / ndtr(x), which grows like x**2 in the lower tail.
    rng = np.random.default_rng(2)
    p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20001), 10.0 ** -rng.uniform(0.0, 6.0, 5000)])
    x = ndtri(p)
    assert np.all(np.abs(ndtr(x) - p) <= 4.0 * EPS * p * (1.0 + x * x))


def test_ndtri_ends_and_outside():
    out = ndtri(np.array([0.0, 1.0, 0.5, -0.1, 1.1, -np.inf, np.inf, np.nan, 5e-324]))
    assert out[0] == -np.inf and out[1] == np.inf and out[2] == 0.0
    assert np.all(np.isnan(out[3:8]))
    assert np.isfinite(out[8]) and out[8] < -38.0
    assert ndtri(0.975) == pytest.approx(1.959963984540054, rel=1e-15)


def _logsumexp_cases():
    rng = np.random.default_rng(3)
    rows = [
        rng.normal(0.0, 30.0, 7),
        np.full(7, -np.inf),
        np.array([-np.inf, -np.inf, 3.0, -np.inf, 3.0, 3.0, -1.0]),
        np.array([np.inf, 1.0, -np.inf, 2.0, 0.0, 0.0, 0.0]),
        np.array([np.nan, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        np.array([-1e308, 1e308, 0.0, -5.0, 7.0, 1e300, -1e300]),
        -0.5 * rng.normal(0.0, 40.0, 7) ** 2,
        np.array([-800.0, -801.0, -2000.0, -750.0, -760.0, -np.inf, -790.0]),
    ]
    return np.array(rows)


def test_logsumexp_gives_scipys_bits():
    a = _logsumexp_cases()
    ours = logsumexp(a, axis=1)
    with np.errstate(all="ignore"):  # scipy warns where a - max overflows
        theirs = scipy.special.logsumexp(a, axis=1)
    assert ours.tobytes() == theirs.tobytes()
    assert ours[1] == -np.inf and np.isnan(ours[4])
    assert logsumexp(a.T, axis=0).tobytes() == ours.tobytes()


def test_a_log_density_below_the_float_range_still_raises():
    # Every kernel term of this point underflows: its logsumexp row is all
    # -inf, and log_pdf refuses the point rather than return -inf.
    marginal = fit_kde(np.random.default_rng(4).standard_normal(150))
    with pytest.raises(OutOfRangeError):
        marginal.log_pdf(1e300)


def test_nan_in_nan_out_and_no_warning_at_any_size():
    special = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, quant = ndtr(special), ndtri(special)
        rows = logsumexp(np.array([special, np.full(special.size, np.nan)]), axis=1)
    assert np.isnan(cdf[0]) and np.isnan(quant[0]) and np.all(np.isnan(rows))
    assert cdf[1:5].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert np.all(np.isnan(quant[1:5]))


_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(_floats | st.floats(-10.0, 10.0) | st.floats(0.0, 1.0), min_size=1, max_size=40),
    pick=st.integers(0, 39),
)
def test_a_value_is_bitwise_the_same_alone_and_in_any_batch(values, pick):
    batch = np.array(values)
    i = pick % batch.size
    alone = batch[i : i + 1]
    for f in (ndtr, ndtri):
        whole = f(batch)
        assert whole[i : i + 1].tobytes() == f(alone).tobytes()
        assert np.float64(f(float(batch[i]))).tobytes() == f(alone).tobytes()
        assert f(batch.reshape(1, -1))[0, i : i + 1].tobytes() == f(alone).tobytes()
    rows = np.tile(batch, (3, 1))
    rows[0] = rows[0][::-1]
    assert logsumexp(rows, axis=1)[1:2].tobytes() == logsumexp(batch[None, :], axis=1).tobytes()


def test_the_command_line_runs_without_scipy(tmp_path):
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from copulabn.cli import main

        rng = np.random.default_rng(0)
        z = rng.standard_normal((60, 3))
        z[:, 1] += z[:, 0]
        z[:, 2] = np.exp(z[:, 1] + 0.5 * z[:, 2])
        np.savetxt("t.csv", z, delimiter=",", header="a,b,c", comments="")
        codes = [
            main(["fit", "--data", "t.csv", "--out", "m.json"]),
            main(["eval", "--model-file", "m.json", "--data", "t.csv", "--out", "s.csv"]),
            main(["sample", "--model-file", "m.json", "--count", "25", "--out", "x.csv"]),
            main(["benchmark", "--data", "t.csv", "--splits", "2", "--max-parents", "1",
                  "--missing-fraction", "0,0.2", "--out", "b.csv"]),
        ]
        print(codes)
        print(sorted(name for name, module in sys.modules.items() if module is not None and "scipy" in name))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[0, 0, 0, 0]", "[]"], done.stdout + done.stderr
