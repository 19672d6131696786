"""Powell's COBYLA for problems without constraints, in numpy.

A port of the unconstrained path of Zhang's PRIMA rewrite of COBYLA (Powell
1994, "A direct search optimization method that models the objective and
constraint functions by linear interpolation"), which is what
``scipy.optimize.minimize(method="COBYLA")`` runs.  Without constraints the
merit function is the objective itself, and with no penalty parameter the
pole moves only when `_replace` changes the simplex (PRIMA also re-poles each
iteration and after each rho reduction).  PRIMA's filter, which only picks
the point to return, is left to the caller, who sees every evaluation.  The
control flow is PRIMA's: the initial simplex, `_update_pole`, the choice of
the point to drop (`_drop_for_step`), the geometry step (`_geometry_step`),
the radius update (`_trust_radius`), the reduction of rho (`_reduce_rho`) and
the moderated extreme barrier on objective values.  One thing differs: the
trust-region LP with no constraints is solved in closed form,
d = -delta * g / |g|, where PRIMA runs its Givens-based `trstlp`; the two
agree in exact arithmetic but round differently.

The first simplex's displacements are lower triangular (each vertex that
improves on the pole adds -rhobeg along its row), so their inverse is a
forward substitution, `_lower_inverse`, which gives LAPACK's
``np.linalg.inv`` bit for bit; a run reaches LAPACK only when rounding
forces `_repaired` to invert afresh.

The budget is hard: ``fun`` is called at most ``max(maxfun, 0)`` times, also
when that is fewer than the n + 1 points of the initial simplex.
"""

from __future__ import annotations

import numpy as np

FUNCMAX = 1e30  # objective values are clipped here, and NaN becomes this
REALMAX = np.finfo(float).max
EPS = np.finfo(float).eps
ETA1, ETA2 = 0.1, 0.7  # reduction-ratio thresholds of the radius update
GAMMA1, GAMMA2 = 0.5, 2.0  # radius shrink and growth factors
GAMMA3 = 1.5  # a radius at most GAMMA3 * rho snaps to rho

SMALL_TR_RADIUS = "the trust region radius reaches its lower bound."
MAXFUN_REACHED = "the objective function has been evaluated MAXFUN times."
MAXTR_REACHED = ("the maximal number of trust region iterations has been "
                 "reached.")
NAN_INF_X = "NaN or Inf occurs in x."
DAMAGING_ROUNDING = "rounding errors are becoming damaging."


def minimize(fun, x0, *, rhobeg: float, rhoend: float, maxfun: int) -> str:
    """Minimize ``fun`` from ``x0``, the trust radius going rhobeg -> rhoend.

    Returns PRIMA's stop message.  The caller sees every evaluation through
    ``fun`` and keeps what it needs of them, such as the best point.
    The radii must satisfy PRIMA's 0 < rhoend <= rhobeg < inf.
    """
    if not 0 < rhoend <= rhobeg < np.inf:
        raise ValueError(f"COBYLA needs 0 < rhoend <= rhobeg < inf, got "
                         f"rhobeg={rhobeg!r}, rhoend={rhoend!r}")
    if maxfun <= 0:
        return f"Return from COBYLA because {MAXFUN_REACHED}"
    x0 = np.array(x0, dtype=float)
    n = x0.size
    nf = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal nf
        f = float(fun(x))
        nf += 1
        return FUNCMAX if np.isnan(f) else min(max(f, -REALMAX), FUNCMAX)

    def stop_reason(x: np.ndarray) -> str | None:
        if nf >= maxfun:
            return MAXFUN_REACHED
        return None if np.all(np.isfinite(x)) else NAN_INF_X

    # the initial simplex: x0 and x0 + rhobeg e_j, the best vertex kept in
    # column n and the others as displacements from it
    sim = np.eye(n, n + 1) * rhobeg
    sim[:, n] = x0
    fval = np.full(n + 1, REALMAX)
    for k in range(n + 1):
        x = sim[:, n].copy()
        if k == 0:
            j = n
        else:
            j = k - 1
            x[j] += rhobeg
        fval[j] = evaluate(x)
        reason = stop_reason(x)
        if reason:
            return f"Return from COBYLA because {reason}"
        if j < n and fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, :j + 1] = -rhobeg
    simi = _lower_inverse(sim[:, :n])

    def evaluate_near(x: np.ndarray) -> float:
        """f(x), or the value of a vertex within 1e-4 * rhoend of x."""
        centre = sim[:, n]
        distsq = np.append(np.sum((x[:, None] - (centre[:, None] + sim[:, :n]))
                                  ** 2, axis=0), np.sum((x - centre) ** 2))
        j = int(np.argmin(distsq))
        return fval[j] if distsq[j] <= (1e-4 * rhoend) ** 2 else evaluate(x)

    def insert(jdrop, d: np.ndarray, f: float, x: np.ndarray) -> str | None:
        """Put x = centre + d into the simplex; the reason to stop, if any."""
        if not _replace(jdrop, d, f, sim, simi, fval):
            return DAMAGING_ROUNDING
        return stop_reason(x)

    rho = delta = rhobeg
    for _ in range(10 * maxfun):
        adequate_geo = np.all(np.sum(sim[:, :n] ** 2, axis=0) <= 4 * delta**2)
        g = (fval[:n] - fval[n]) @ simi
        gnorm = np.linalg.norm(g)
        d = -delta * g / gnorm if 0 < gnorm < np.inf else np.zeros(n)
        # delta >= rho: PRIMA's short step (dnorm <= rho / 10) implies trfail
        dnorm = min(delta, np.linalg.norm(d))
        preref = -(d @ g)
        trfail = not preref > 1e-6 * EPS * rho
        if trfail:
            bad_trstep = True
            delta *= 0.1
            if delta <= GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f = evaluate_near(x)
            actrem = fval[n] - f
            ratio = actrem / preref
            delta = _trust_radius(delta, dnorm, ratio)
            if delta <= GAMMA3 * rho:
                delta = rho
            jdrop_tr = _drop_for_step(actrem > 0, d, delta, rho, sim, simi)
            reason = insert(jdrop_tr, d, f, x)
            if reason:
                break
            bad_trstep = ratio <= 0 or jdrop_tr is None

        improve_geo = bad_trstep and not adequate_geo
        # dnorm is the step taken before delta shrank: not delta <= rho alone
        reduce_rho = (bad_trstep and adequate_geo
                      and max(delta, dnorm) <= rho)
        distsq = np.sum(sim[:, :n] ** 2, axis=0)
        if improve_geo and not np.all(distsq <= 4 * delta**2):
            jdrop_geo = int(np.argmax(distsq))
            d = _geometry_step(jdrop_geo, delta / 2, fval, simi)
            x = sim[:, n] + d
            reason = insert(jdrop_geo, d, evaluate_near(x), x)
            if reason:
                break
        if reduce_rho:
            if rho <= rhoend:
                reason = SMALL_TR_RADIUS
                break
            delta = max(0.5 * rho, _reduce_rho(rho, rhoend))
            rho = _reduce_rho(rho, rhoend)
    else:
        reason = MAXTR_REACHED
    return f"Return from COBYLA because {reason}"


def _lower_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of the lower triangular ``a``: row i is (e_i - sum_{k<i}
    a[i, k] * row k) / a[i, i], summed over whole rows in order, which
    rounds as LAPACK does (a BLAS dot product of the row does not)."""
    n = len(a)
    inv = np.eye(n)
    for i in range(n):
        inv[i] = (inv[i] - np.sum(a[i, :i, None] * inv[:i], axis=0)) / a[i, i]
    return inv


def _repaired(sim: np.ndarray, simi: np.ndarray) -> bool:
    """Keep ``simi`` an inverse of the displacements, re-inverting if needed.

    False when neither the updated nor a fresh inverse is within 1 of the
    identity: rounding has become damaging.
    """
    n = len(simi)
    erri = np.max(np.abs(simi @ sim[:, :n] - np.eye(n)))
    if erri > 0.1 or np.isnan(erri):
        fresh = np.linalg.inv(sim[:, :n])
        erri_fresh = np.max(np.abs(fresh @ sim[:, :n] - np.eye(n)))
        if erri_fresh < erri or (np.isnan(erri) and not np.isnan(erri_fresh)):
            simi[:] = fresh
            erri = erri_fresh
    return bool(erri <= 1)


def _update_pole(sim: np.ndarray, simi: np.ndarray,
                 fval: np.ndarray) -> bool:
    """Move the vertex with the least value (the first of ties) to column n."""
    n = len(simi)
    jopt = int(np.argmin(fval)) if fval.min() < fval[n] else n
    if jopt < n:
        sim[:, n] += sim[:, jopt]
        shift = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= shift[:, None]
        simi[jopt, :] = -np.sum(simi, axis=0)
    if not _repaired(sim, simi):
        return False
    fval[[jopt, n]] = fval[[n, jopt]]
    return True


def _replace(jdrop, d, f, sim, simi, fval) -> bool:
    """Replace vertex ``jdrop`` with centre + d, valued f, then re-pole."""
    n = len(simi)
    if jdrop is None:
        return True
    if jdrop < n:
        sim[:, jdrop] = d
        row = simi[jdrop, :] / (simi[jdrop, :] @ d)
        simi -= np.outer(simi @ d, row)
        simi[jdrop, :] = row
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simid = simi @ d
        simi += np.outer(simid, np.sum(simi, axis=0) / (1 - np.sum(simid)))
    if not _repaired(sim, simi):
        return False
    fval[jdrop] = f
    return _update_pole(sim, simi, fval)


def _drop_for_step(ximproved, d, delta, rho, sim, simi):
    """The vertex the trust-region point replaces, or None to discard it."""
    n = len(simi)
    if ximproved:
        distsq = np.append(np.sum((sim[:, :n] - d[:, None]) ** 2, axis=0),
                           np.sum(d * d))
    else:
        distsq = np.append(np.sum(sim[:, :n] ** 2, axis=0), 0.0)
    weight = np.maximum(1, distsq / max(rho, delta / 10) ** 2)
    simid = simi @ d
    score = weight * np.abs(np.append(simid, 1 - np.sum(simid)))
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if np.any(score > 0):
        return int(np.argmax(score))
    return int(np.argmax(distsq)) if ximproved else None


def _geometry_step(jdrop, delbar, fval, simi) -> np.ndarray:
    """A step of length delbar normal to the face opposite vertex jdrop."""
    n = len(simi)
    d = simi[jdrop, :]
    d = delbar * (d / np.linalg.norm(d))
    g = (fval[:n] - fval[n]) @ simi
    return -d if -(d @ g) < d @ g else d


def _trust_radius(delta, dnorm, ratio) -> float:
    if ratio <= ETA1:
        return GAMMA1 * dnorm
    if ratio <= ETA2:
        return max(GAMMA1 * delta, dnorm)
    return max(GAMMA1 * delta, GAMMA2 * dnorm)


def _reduce_rho(rho, rhoend) -> float:
    ratio = rho / rhoend
    if ratio > 250:
        return 0.1 * rho
    if ratio <= 16:
        return rhoend
    return np.sqrt(ratio) * rhoend
