"""Randomized group-law suites behind `jacobiflow --selftest`.

Each law draws one case from the shared generator and returns its residual.
`_suites` is the table of (name, threshold, dimensions, cases per dimension,
law); `_check` runs one row and reports its worst residual and case count.
The table order fixes the random stream: all rows draw from one generator,
so moving a row or changing a law's draws changes every later residual.

`lie_algebra` draws nothing and runs over the basis brackets of each n up
to n_max; `commutators` draws its own n.  The fuzz check passes by
detection, not by a residual bound, so it runs after the table.  No I/O.
"""

from functools import lru_cache

import numpy as np

from .forms import zeta_reduced
from .groups import (
    FactorError,
    HeisenbergElement,
    IglElement,
    JacobiElement,
    PatternViolation,
    VfrView,
    conjugate_by_sp,
    euclidean_element,
    heisenberg_generators,
    igl_factor,
    jacobi_factor,
    random_jacobi,
    vfr_convert,
)
from .verify import noncommutativity_check

# tolerance of the factorizations the suites run; a fuzz perturbation must
# exceed it to be detectable
FACTOR_TOL = 1e-9


def _maxdev(a, b):
    """Largest absolute entry of the array a - b."""
    return float(abs(a - b).max())


@lru_cache(maxsize=None)
def _units(n):
    # the Heisenberg and Jacobi identities and the time reversal Delta(-1);
    # immutable, so one of each serves every case of n
    e = JacobiElement.identity(n)
    return HeisenbergElement.identity(n), e, JacobiElement(sigma=e.sigma, w=e.w, r=0.0, tr=-1)


def _elem_dist(a, b):
    return max(
        _maxdev(a.sigma.sigma, b.sigma.sigma), _maxdev(a.w, b.w), abs(a.r - b.r), abs(a.tr - b.tr)
    )


def _heis_dist(a, b):
    return max(_maxdev(a.w, b.w), abs(a.r - b.r))


def _rand_heis(n, rng):
    return HeisenbergElement(w=rng.uniform(-2.0, 2.0, 2 * n), r=float(rng.uniform(-2.0, 2.0)))


def _heisenberg_axioms(rng, n):
    e = _units(n)[0]
    a, b, c = (_rand_heis(n, rng) for _ in range(3))
    return max(
        _heis_dist((a * b) * c, a * (b * c)),
        _heis_dist(a * e, a),
        _heis_dist(e * a, a),
        _heis_dist(a * a.inv(), e),
        _heis_dist(a.inv() * a, e),
    )


def _jacobi_axioms(rng, n):
    e = _units(n)[1]
    a, b, c = (random_jacobi(n, rng) for _ in range(3))
    return max(
        _elem_dist((a * b) * c, a * (b * c)),
        _elem_dist(a * a.inv(), e),
        _elem_dist(a.inv() * a, e),
    )


def _matrix_homomorphism(rng, n):
    # the matrix realization multiplies like the group when the left
    # factor keeps time direction
    a = random_jacobi(n, rng, tr=1)
    b = random_jacobi(n, rng)
    return _maxdev((a * b).matrix(), a.matrix() @ b.matrix())


def _matrix_inverse(rng, n):
    a = random_jacobi(n, rng, tr=1)
    return _maxdev(a.inv().matrix(), np.linalg.inv(a.matrix()))


def _sp_conjugation(rng, n):
    g = random_jacobi(n, rng, tr=1)
    s = JacobiElement(sigma=g.sigma, w=np.zeros(2 * n), r=0.0)
    a = _rand_heis(n, rng)
    lhs = conjugate_by_sp(g.sigma, a).matrix()
    return _maxdev(lhs, s.matrix() @ a.matrix() @ s.inv().matrix())


def _factor_roundtrip(rng, n):
    g = random_jacobi(n, rng)
    return _elem_dist(jacobi_factor(g.matrix(), tol=FACTOR_TOL), g)


def _igl_roundtrip(rng, n):
    m = 2 * n + 1
    omega = rng.uniform(-1.0, 1.0, (m, m)) + 2.0 * np.eye(m)
    el = IglElement(omega=omega, u=rng.uniform(-2.0, 2.0, m), eps=(-1, 1)[rng.integers(2)])
    back = igl_factor(el.matrix(), tol=FACTOR_TOL)
    return max(_maxdev(back.omega, el.omega), _maxdev(back.u, el.u), abs(back.eps - el.eps))


def _brackets(n_max):
    """(X, Y, expected [X, Y]) over the integer Heisenberg basis for n = 1..n_max."""
    for n in range(1, n_max + 1):
        *W, R = heisenberg_generators(n)
        z0 = zeta_reduced(n).astype(np.int64)
        for a in range(2 * n):
            for b in range(2 * n):
                yield W[a], W[b], z0[a, b] * R
            yield W[a], R, 0 * R


def _bracket(rng, case):
    X, Y, expected = case
    return _maxdev(X @ Y - Y @ X, expected)


def _delta_automorphism(rng, n):
    # conjugating a translation by the time-reversal element flips w,
    # keeps r; exact in the parameter composition
    _, e, d = _units(n)
    h = _rand_heis(n, rng)
    g = JacobiElement(sigma=e.sigma, w=h.w, r=h.r)
    return _elem_dist(d * g * d.inv(), JacobiElement(sigma=e.sigma, w=-h.w, r=h.r))


def _int_vfr(n, rng):
    v, f = rng.integers(-3, 4, n).astype(float), rng.integers(-3, 4, n).astype(float)
    return VfrView(v=v, f=f, r_phys=float(rng.integers(-3, 4)))


def _commutator(rng, _):
    n = int(rng.integers(1, 4))
    a, b = _int_vfr(n, rng), _int_vfr(n, rng)
    comm = noncommutativity_check(a, b)[2]
    inert = (VfrView(v=x.v, f=np.zeros(n), r_phys=0.0) for x in (a, b))
    return max(
        abs(comm - 2.0 * (float(a.v @ b.f) - float(a.f @ b.v))),
        abs(noncommutativity_check(*inert)[2]),
    )


def _random_rotation(m, rng):
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _euclidean(rng, n):
    a = euclidean_element(_random_rotation(n, rng), rng.uniform(-2.0, 2.0, n))
    b = euclidean_element(_random_rotation(n, rng), rng.uniform(-2.0, 2.0, n))
    ga = jacobi_factor(a.matrix(), tol=FACTOR_TOL)
    if np.max(np.abs(a.w)) > 0 and not np.max(np.abs(ga.w)) > 0:
        return np.inf  # a moving frame must not factor as canonical
    c = a * b
    return max(float(np.max(np.abs(vfr_convert(c.heisenberg_part()).f))), abs(c.r))


def _suites(n_max):
    return (
        ("heisenberg_axioms", 1e-12, (1, 2, 3), 200, _heisenberg_axioms),
        ("jacobi_axioms", 1e-10, (1, 2, 3), 200, _jacobi_axioms),
        ("matrix_homomorphism", 1e-10, (1, 2, 3), 200, _matrix_homomorphism),
        ("matrix_inverse", 1e-10, (1, 2, 3), 200, _matrix_inverse),
        ("sp_conjugation", 1e-10, (1, 2, 3), 100, _sp_conjugation),
        ("factor_roundtrip", 1e-10, (1, 2, 3), 200, _factor_roundtrip),
        ("igl_roundtrip", 1e-12, (1, 2, 3), 200, _igl_roundtrip),
        ("lie_algebra", 0, _brackets(n_max), 1, _bracket),
        ("delta_automorphism", 0, (1, 2, 3), 100, _delta_automorphism),
        ("commutators", 0, (None,), 100, _commutator),
        ("euclidean_subgroup", 1e-12, (2, 3), 50, _euclidean),
    )


def _result(name, passed, residual, threshold, count):
    return {
        "name": name,
        "passed": passed,
        "residual": float(residual),
        "threshold": float(threshold),
        "count": count,
    }


def _check(rng, name, threshold, dims, reps, law):
    worst, count = 0.0, 0
    for n in dims:
        for _ in range(reps):
            worst = max(worst, law(rng, n))
            count += 1
    return _result(name, bool(worst <= threshold), worst, threshold, count)


def _fuzz_check(rng, magnitude):
    M = random_jacobi(2, rng, tr=1).matrix()
    M[0, 4] += magnitude  # a structural zero of the normal form
    try:
        jacobi_factor(M, tol=FACTOR_TOL)
        detected = False
    except FactorError as e:
        detected = isinstance(e, PatternViolation)
    return _result("fuzz_pattern_violation", detected, magnitude, FACTOR_TOL, 1)


def run_checks(seed, n_max, fuzz=None):
    """Run every suite from one generator seeded with `seed`; returns the check dicts.

    `n_max` is the largest n of the Lie-algebra suite.  With `fuzz` set,
    a last check perturbs a structural zero by `fuzz` and passes when
    `jacobi_factor` reports the pattern violation.
    """
    rng = np.random.default_rng(seed)
    checks = [_check(rng, *suite) for suite in _suites(n_max)]
    if fuzz is not None:
        checks.append(_fuzz_check(rng, fuzz))
    return checks
