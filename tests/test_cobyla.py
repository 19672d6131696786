import itertools

import numpy as np
import pytest

from qtwostage import cobyla, qaoa
from qtwostage.config import QaoaConfig, default_params
from qtwostage.ucp import build_hamiltonian

N = 16
RHOBEG = 0.6
_RNG = np.random.default_rng(0)
_Q, _ = np.linalg.qr(_RNG.normal(size=(N, N)))
HESS = _Q @ np.diag(np.linspace(1.0, 10.0, N)) @ _Q.T
CENTRE = _RNG.normal(size=N)
X0 = _RNG.normal(size=N)


def bowl(x):
    """A 16-dimensional convex quadratic with minimum 0 at CENTRE."""
    r = x - CENTRE
    return 0.5 * r @ HESS @ r


def wavy_bowl(x):
    """A bowl with cosine ripples, so the reduction ratios vary more."""
    return np.sum((x - 0.3) ** 2) + 0.5 * np.sum(np.cos(3 * x))


def recording(objective):
    points = []

    def fun(x):
        points.append(np.array(x, copy=True))
        return objective(x)
    return fun, points


@pytest.mark.parametrize("objective", [bowl, wavy_bowl])
def test_follows_scipy_cobyla(objective):
    # scipy's COBYLA is PRIMA's; the port differs only in how the
    # trust-region step is computed, so the two agree up to the first one
    from scipy.optimize import minimize as scipy_minimize
    fun, ours = recording(objective)
    message = cobyla.minimize(fun, X0, rhobeg=RHOBEG, rhoend=1e-3,
                              maxfun=5000)
    fun, theirs = recording(objective)
    ref = scipy_minimize(fun, X0, method="COBYLA", tol=1e-3,
                         options={"maxiter": 5000, "rhobeg": RHOBEG})
    for a, b in zip(ours[:N + 1], theirs[:N + 1]):
        np.testing.assert_array_equal(a, b)
    # after it the paths differ by rounding alone: every decision is the same
    assert len(ours) == len(theirs) == ref.nfev
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9)
    assert message == ref.message
    assert message.endswith(cobyla.SMALL_TR_RADIUS)
    best = min(objective(p) for p in ours)
    assert best == pytest.approx(ref.fun, rel=1e-3)
    if objective is bowl:
        assert best < 1e-4 and ref.fun < 1e-4


@pytest.mark.parametrize("maxfun", [0, 1, 3, 40])
def test_budget_stops_after_exactly_maxfun_calls(maxfun):
    # 0 calls nothing, 1 and 3 stop inside the 17-point initial simplex, 40
    # after it
    fun, points = recording(bowl)
    message = cobyla.minimize(fun, X0, rhobeg=RHOBEG, rhoend=1e-6,
                              maxfun=maxfun)
    assert len(points) == maxfun
    assert message == "Return from COBYLA because " + cobyla.MAXFUN_REACHED


@pytest.mark.parametrize("rhobeg, rhoend", [
    (-0.5, 1e-3), (0.0, 1e-3), (1e-310, 0.0), (1e-3, 0.6),
    (float("inf"), 1e-3), (float("nan"), 1e-3),
])
def test_radii_outside_prima_range_raise_before_any_call(rhobeg, rhoend):
    # PRIMA needs 0 < rhoend <= rhobeg < inf; outside it a run can end in a
    # singular simplex, a division by zero or a stop after n + 1 calls
    fun, points = recording(wavy_bowl)
    with pytest.raises(ValueError, match="rhobeg.*rhoend"):
        cobyla.minimize(fun, X0[:3], rhobeg=rhobeg, rhoend=rhoend,
                        maxfun=400)
    assert points == []


def holed(x):
    """NaN at the origin, and a bowl around (-1, ..., -1) elsewhere."""
    return float("nan") if not np.any(x) else float(np.sum((x + 1) ** 2))


def test_nan_meets_the_extreme_barrier():
    # a NaN start counts as FUNCMAX, so the first finite vertex becomes the
    # centre of the search; a NaN compared as is would never be left
    fun, points = recording(holed)
    message = cobyla.minimize(fun, np.zeros(2), rhobeg=1.0, rhoend=1e-3,
                              maxfun=200)
    assert message.endswith(cobyla.SMALL_TR_RADIUS)
    best = min(points[1:], key=holed)
    np.testing.assert_allclose(best, [-1.0, -1.0], atol=1e-2)


@pytest.mark.parametrize("objective, x0, rhobeg", [
    (bowl, X0, RHOBEG), (wavy_bowl, X0, RHOBEG), (holed, np.zeros(2), 1.0)],
    ids=["bowl", "wavy_bowl", "holed"])
def test_pole_is_least_whenever_the_loop_reads_it(monkeypatch, objective,
                                                   x0, rhobeg):
    # the loop re-poles only inside _replace: the pole must already hold the
    # least value on entry to each _replace and after each that succeeds,
    # and one more _update_pole must return True and change no bit
    calls, real = [], cobyla._replace

    def pole_settled(sim, simi, fval):
        assert fval[-1] == fval.min()
        before = [a.copy() for a in (sim, simi, fval)]
        assert cobyla._update_pole(sim, simi, fval)
        for a, b in zip(before, (sim, simi, fval)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def replace(jdrop, d, f, sim, simi, fval):
        pole_settled(sim, simi, fval)
        ok = real(jdrop, d, f, sim, simi, fval)
        if ok:
            pole_settled(sim, simi, fval)
        calls.append(ok)
        return ok
    monkeypatch.setattr(cobyla, "_replace", replace)
    cobyla.minimize(objective, x0, rhobeg=rhobeg, rhoend=1e-3, maxfun=400)
    assert len(calls) > 20 and all(calls)


def first_simplex(improved, rhobeg):
    """The displacements of COBYLA's first simplex, vertex j having improved
    on the pole where ``improved[j]``: row j is then -rhobeg in columns
    0..j, and otherwise rhobeg on the diagonal alone."""
    a = np.eye(len(improved)) * rhobeg
    for j, up in enumerate(improved):
        if up:
            a[j, :j + 1] = -rhobeg
    return a


@pytest.mark.parametrize("rhobeg", sorted({qaoa.COBYLA_RHOBEG, RHOBEG, 1.0}))
def test_first_inverse_is_lapacks_bitwise(rhobeg):
    # every improvement pattern up to n = 10, and a sample of them at n = 16,
    # the size of a desk restart; int64 views tell signed zeros apart
    patterns = [p for n in range(1, 11)
                for p in itertools.product((False, True), repeat=n)]
    patterns += list(np.random.default_rng(3).integers(0, 2, (100, N)) > 0)
    for improved in patterns:
        a = first_simplex(improved, rhobeg)
        got, want = cobyla._lower_inverse(a), np.linalg.inv(a)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            improved


def counting_inv(monkeypatch):
    calls, real = [], np.linalg.inv

    def inv(a):
        calls.append(a.shape)
        return real(a)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return calls


@pytest.mark.parametrize("maxfun", [40, 5000])
@pytest.mark.parametrize("objective", [bowl, wavy_bowl])
def test_runs_call_no_lapack(monkeypatch, objective, maxfun):
    # the first inverse is a forward substitution; only a repair after
    # damaging rounding inverts afresh
    calls = counting_inv(monkeypatch)
    cobyla.minimize(objective, X0, rhobeg=RHOBEG, rhoend=1e-3,
                    maxfun=maxfun)
    assert calls == []


def test_desk_restart_calls_no_lapack(monkeypatch):
    # the desk run's shape: 3 scenario qubits, the three-unit fleet, 16
    # angles and a 400-evaluation exact budget
    ham = build_hamiltonian(default_params(), 90.0, 3, 0.0, 2500.0)
    theta = np.random.default_rng(5).uniform(-1, 1, 12)
    evaluator = qaoa.FactorizedEvaluator(theta, ham)
    calls = counting_inv(monkeypatch)
    result = qaoa.optimize(evaluator, QaoaConfig(),
                           np.random.default_rng(11))
    assert len(result.trace) == QaoaConfig().maxiter
    assert calls == []
