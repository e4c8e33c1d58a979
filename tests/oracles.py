"""Independent brute-force oracles used to freeze expected values.

Nothing in here touches the code paths under test: moments come from
explicit Fock-basis linear algebra (truncated density matrices and ladder
operators), Gaussian moments from an Isserlis pairing enumeration,
resonator correlators from a direct stochastic integration of the damped
mode, dual-path records from the layered hybrid-and-chains route, their
cross-path product means block by block, and qubit dephasing rates from
exact non-Gaussian closed forms.  Tests compare package results against
these.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

THERMAL_CUTOFF = 60
AMPLIFIER_CUTOFF = 80


# ---------------------------------------------------------------------------
# Fock-basis machinery
# ---------------------------------------------------------------------------

def thermal_weights(n_mean: float, cutoff: int = THERMAL_CUTOFF) -> np.ndarray:
    """Bose-Einstein occupation probabilities, truncated (tail < 1e-10 for n <= 1.5)."""
    if n_mean == 0:
        w = np.zeros(cutoff)
        w[0] = 1.0
        return w
    q = n_mean / (n_mean + 1.0)
    j = np.arange(cutoff)
    return (1.0 - q) * q ** j


def lowering_operator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    for j in range(1, dim):
        a[j - 1, j] = math.sqrt(j)
    return a


def fock_normal_moment_thermal(n_mean: float, n: int, m: int, cutoff: int = THERMAL_CUTOFF) -> complex:
    """<(a^dag)^n a^m> of a thermal state by direct Fock summation."""
    if n != m:
        return 0.0 + 0.0j
    weights = thermal_weights(n_mean, cutoff)
    total = 0.0
    for j, w in enumerate(weights):
        if j >= n:
            total += w * math.prod(range(j - n + 1, j + 1))
    return complex(total)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=complex)
    log_norm = -abs(alpha) ** 2 / 2.0
    for j in range(dim):
        amps[j] = np.exp(log_norm) * alpha ** j / math.sqrt(math.factorial(j))
    return amps


def _ordering_average(n: int, m: int, dim: int) -> np.ndarray:
    """Symmetrized (Weyl) product of n raising and m lowering operators.

    Averages the operator product over all distinct interleavings of the
    n + m factors.
    """
    a = lowering_operator(dim)
    ad = a.T.conj()
    factors = [ad] * n + [a] * m
    arrangements = set(itertools.permutations(range(n + m)))
    total = np.zeros((dim, dim), dtype=complex)
    seen = set()
    for arrangement in arrangements:
        signature = tuple(0 if index < n else 1 for index in arrangement)
        if signature in seen:
            continue
        seen.add(signature)
        product = np.eye(dim, dtype=complex)
        for slot in signature:
            product = product @ (ad if slot == 0 else a)
        total += product
    return total / len(seen)


def fock_symmetrized_moment_thermal(n_mean: float, n: int, m: int, cutoff: int = THERMAL_CUTOFF) -> complex:
    dim = cutoff + 5
    weights = thermal_weights(n_mean, cutoff)
    op = _ordering_average(n, m, dim)
    diag = np.diag(op)
    return complex(np.sum(weights * diag[:cutoff]))


def fock_symmetrized_moment_coherent(alpha: complex, n: int, m: int, cutoff: int = THERMAL_CUTOFF) -> complex:
    dim = cutoff + 5
    psi = coherent_vector(alpha, dim)
    op = _ordering_average(n, m, dim)
    return complex(psi.conj() @ op @ psi)


def fock_normal_moment_coherent(alpha: complex, n: int, m: int, cutoff: int = THERMAL_CUTOFF) -> complex:
    dim = cutoff + 5
    psi = coherent_vector(alpha, dim)
    a = lowering_operator(dim).astype(complex)
    ad = a.T.conj()
    op = np.linalg.matrix_power(ad, n) @ np.linalg.matrix_power(a, m)
    return complex(psi.conj() @ op @ psi)


# ---------------------------------------------------------------------------
# Two-mode amplifier brute force
# ---------------------------------------------------------------------------

def amplifier_mean_and_variance(
    gain: float, n_signal: float, n_idler: float, cutoff: int = AMPLIFIER_CUTOFF
):
    """Mean and variance of a^dag a for a = sqrt(G) b + sqrt(G-1) c^dag.

    The photon-number operator acts on |j, k> (signal, idler Fock states) as

        N |j,k> = [G j + (G-1)(k+1)] |j,k>
                  + sqrt(G(G-1)) [ sqrt((j+1)(k+1)) |j+1,k+1> + sqrt(jk) |j-1,k-1> ]

    so <j,k|N^2|j,k> follows in closed form per basis state; expectation
    values are weighted sums over the two thermal distributions.
    """
    g = gain
    wj = thermal_weights(n_signal, cutoff)
    wk = thermal_weights(n_idler, cutoff)
    j = np.arange(cutoff)[:, None]
    k = np.arange(cutoff)[None, :]
    weight = wj[:, None] * wk[None, :]
    diag = g * j + (g - 1.0) * (k + 1.0)
    n_sq = diag ** 2 + g * (g - 1.0) * ((j + 1.0) * (k + 1.0) + j * k)
    mean = float(np.sum(weight * diag))
    second = float(np.sum(weight * n_sq))
    return mean, second - mean * mean


def beamsplitter_mean_and_variance(
    transmissivity: float, n_signal: float, n_background: float, cutoff: int = AMPLIFIER_CUTOFF
):
    """Mean and variance of a^dag a for a = sqrt(eta) b + sqrt(1-eta) c.

    Both inputs thermal; N acts diagonally plus a photon-exchange term, so
    <j,k|N^2|j,k> = [eta j + (1-eta) k]^2 + eta (1-eta) [(j+1) k + j (k+1)].
    """
    eta = transmissivity
    wj = thermal_weights(n_signal, cutoff)
    wk = thermal_weights(n_background, cutoff)
    j = np.arange(cutoff)[:, None]
    k = np.arange(cutoff)[None, :]
    weight = wj[:, None] * wk[None, :]
    diag = eta * j + (1.0 - eta) * k
    n_sq = diag ** 2 + eta * (1.0 - eta) * ((j + 1.0) * k + j * (k + 1.0))
    mean = float(np.sum(weight * diag))
    second = float(np.sum(weight * n_sq))
    return mean, second - mean * mean


def commutator_free_mean_and_variance(gain, n_signal, n_idler, cutoff: int = AMPLIFIER_CUTOFF):
    """Same amplifier with the idler replaced by a classical circular amplitude.

    N = G b^dag b + sqrt(G(G-1)) (b^dag conj(gamma) + b gamma) + (G-1) |gamma|^2,
    with gamma circular Gaussian of mean square n_idler.  Independence and
    circularity reduce E[N] and E[N^2] to products of single-factor moments,
    each taken from the Fock oracle (for b) or the Gaussian moments
    E|gamma|^2 = n, E|gamma|^4 = 2 n^2 (for gamma).
    """
    g = gain
    nb = fock_normal_moment_thermal(n_signal, 1, 1, cutoff).real
    nb2 = fock_normal_moment_thermal(n_signal, 2, 2, cutoff).real  # <b^dag2 b^2>
    bdag_b_sq = nb2 + nb  # <(b^dag b)^2>
    mean = g * nb + (g - 1.0) * n_idler
    # cross term squared: <(b^dag conj(g) + b g)^2> = (2 nb + 1) n_idler
    second = (
        g * g * bdag_b_sq
        + g * (g - 1.0) * (2.0 * nb + 1.0) * n_idler
        + (g - 1.0) ** 2 * 2.0 * n_idler ** 2
        + 2.0 * g * (g - 1.0) * nb * n_idler
    )
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# Gaussian (Isserlis) moment engine
# ---------------------------------------------------------------------------

def gaussian_product_moment(factors, covariance, means=None) -> complex:
    """E[prod over factors] for jointly circular complex Gaussians.

    ``factors`` is a sequence of (index, conjugated) pairs selecting the
    variable and whether it enters conjugated; ``covariance[i][j]`` holds
    E[dz_i conj(dz_j)] of the zero-mean parts (anomalous correlations
    E[dz dz] vanish for circular variables); ``means`` supplies the
    deterministic offsets.  The expansion sums over all ways of replacing a
    subset of factors by their means and Isserlis-pairing the rest.
    """
    factors = list(factors)
    count = len(factors)
    if means is None:
        means = {}

    def mean_of(index, conj):
        value = means.get(index, 0.0)
        return np.conj(value) if conj else value

    total = 0.0 + 0.0j
    for pattern in itertools.product((0, 1), repeat=count):
        prefactor = 1.0 + 0.0j
        plain, conj = [], []
        for bit, (index, conjugated) in zip(pattern, factors):
            if bit == 0:
                prefactor *= mean_of(index, conjugated)
            elif conjugated:
                conj.append(index)
            else:
                plain.append(index)
        if prefactor == 0:
            continue
        if len(plain) != len(conj):
            continue  # unmatched circular fluctuations average to zero
        paired = 0.0 + 0.0j
        for assignment in itertools.permutations(conj):
            term = 1.0 + 0.0j
            for i, j in zip(plain, assignment):
                term *= covariance[i][j]
            paired += term
        total += prefactor * paired
    return total


# ---------------------------------------------------------------------------
# Dual-path inversion through symmetrized moments
# ---------------------------------------------------------------------------

def symmetrized_route_inversion(products, gains, vacuum_port_photons, max_order=4):
    """Normally ordered signal moments from dual-path products, via the Wigner moments.

    ``products[(n, m)]`` is E[z1^m conj(z2)^n].  With A = z1/sqrt(g1),
    B_bar = conj(z2)/sqrt(g2) and s_v = n_v + 1/2 the products obey

        E[A^m B_bar^n] = 2^-(m+n)/2 sum_p C(m,p) C(n,p) p! (-s_v)^p M(n-p, m-p)

    for the symmetrized signal moments M.  The system is solved upward in
    total order, each order conjugate-symmetrized, and M is converted to
    normal order with the (-1/2)^k expansion.  This is the route the package
    took before it inverted with a single Gaussian shift by n_v; it returns
    a plain dict so that no package code checks or converts the result.
    """
    keys = [(n, total - n) for total in range(max_order + 1) for n in range(total + 1)]
    g1, g2 = gains
    s_v = vacuum_port_photons + 0.5
    raw = {
        (n, m): products[(n, m)] / (g1 ** (m / 2.0) * g2 ** (n / 2.0)) * 2.0 ** ((n + m) / 2.0)
        for n, m in keys
    }
    sym = {}
    for order in range(max_order + 1):
        level = [(n, m) for n, m in keys if n + m == order]
        for n, m in level:
            value = raw[(n, m)]
            for p in range(1, min(n, m) + 1):
                value -= (
                    math.comb(m, p) * math.comb(n, p) * math.factorial(p) * (-s_v) ** p
                    * sym[(n - p, m - p)]
                )
            sym[(n, m)] = value
        for n, m in level:
            if n < m:
                avg = 0.5 * (sym[(n, m)] + sym[(m, n)].conjugate())
                sym[(n, m)] = avg
                sym[(m, n)] = avg.conjugate()
            elif n == m:
                sym[(n, m)] = complex(sym[(n, m)].real)
    sym[(0, 0)] = 1.0 + 0j
    normal = {}
    for n, m in keys:
        normal[(n, m)] = sum(
            math.comb(n, k) * math.comb(m, k) * math.factorial(k) * (-0.5) ** k
            * sym[(n - k, m - k)]
            for k in range(min(n, m) + 1)
        )
    return normal


# ---------------------------------------------------------------------------
# Dual-path records, the layered route
# ---------------------------------------------------------------------------

def layered_detection(state, chain_noise_photons, gains, count, seed, vacuum_port_photons):
    """A dual-path record (z1, z2) built layer by layer from one generator.

    The signal and the hybrid's fourth port are drawn from their Wigner
    distributions (per-quadrature variance (2n + 1)/4 for thermal and
    vacuum, 1/4 around the carrier for coherent states and shot noise, the
    shot-noise carrier sqrt(n) exp(i phi) with phi uniform per sample), split
    on the hybrid, given chain noise of per-quadrature variance n_j/2 and
    multiplied by sqrt(g_j).  Eight normals per sample, plus a phase for
    shot noise.
    """
    rng = np.random.default_rng(seed)

    def circular(variance):
        return rng.normal(0.0, math.sqrt(variance), size=(count, 2)) @ np.array([1.0, 1j])

    kind, n = state.kind.value, state.mean_photons
    if kind in ("thermal", "vacuum"):
        signal = circular((2.0 * n + 1.0) / 4.0)
    elif kind == "coherent":
        signal = state.amplitude + circular(0.25)
    else:
        signal = math.sqrt(n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))
        signal = signal + circular(0.25)
    port = circular((2.0 * vacuum_port_photons + 1.0) / 4.0)
    root_half = 1.0 / math.sqrt(2.0)
    paths = ((signal + port) * root_half, (signal - port) * root_half)
    return tuple(
        math.sqrt(gain) * (out + circular(n_chain / 2.0))
        for out, n_chain, gain in zip(paths, chain_noise_photons, gains)
    )


def layered_second_moments(mean_photons, chain_noise_photons, gains, vacuum_port_photons):
    """E|z1|^2, E|z2|^2 and E[z1 conj(z2)] of :func:`layered_detection`, in closed form.

    A Wigner sample has E|s|^2 = n + 1/2 for every state and the port
    E|v|^2 = n_v + 1/2; chain noise adds E|c_j|^2 = n_j.  So
    E|z_j|^2 = g_j [(E|s|^2 + E|v|^2)/2 + n_j] and
    E[z1 conj(z2)] = sqrt(g1 g2) (E|s|^2 - E|v|^2)/2.
    """
    signal, port = mean_photons + 0.5, vacuum_port_photons + 0.5
    (g1, g2), (n1, n2) = gains, chain_noise_photons
    return (
        g1 * ((signal + port) / 2.0 + n1),
        g2 * ((signal + port) / 2.0 + n2),
        math.sqrt(g1 * g2) * (signal - port) / 2.0,
    )


def product_block_means(z1, z2, keys, blocks=20):
    """Means of the cross-path products z1^m conj(z2)^n per error block.

    One row per non-empty ``np.linspace`` block of the record and one
    column per key (n, m); each product is its own power of z1 times its
    own power of conj(z2).  Returns the block sizes and the (blocks, keys)
    means.
    """
    bounds = np.linspace(0, z1.size, blocks + 1).astype(int)
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    means = [[np.mean(z1[lo:hi] ** m * np.conj(z2[lo:hi]) ** n) for n, m in keys] for lo, hi in spans]
    return np.array([hi - lo for lo, hi in spans]), np.array(means)


# ---------------------------------------------------------------------------
# Qubit dephasing beyond the Gaussian phase law
# ---------------------------------------------------------------------------

def thermal_dephasing_exact(kappa, chi, n):
    """Long-time dephasing rate of a qubit behind a thermally occupied resonator.

    Clerk & Utami, PRA 75, 042302 (2007):
    Gamma = (kappa/2) Re[sqrt((1 + i x)^2 + 4 i x n) - 1] with x = 2 chi / kappa,
    exact in x for a resonator of total linewidth ``kappa`` and thermal
    occupation ``n``.  To second order in x it is kappa x^2 (n^2 + n).
    """
    x = 2.0 * chi / kappa
    return kappa / 2.0 * (cmath.sqrt((1.0 + 1j * x) ** 2 + 4j * x * n) - 1.0).real


def coherent_dephasing_exact(kappa, chi, n):
    """Steady-state dephasing rate 2 kappa n sin^2(theta0) of a coherently driven resonator.

    The qubit-state fields alpha_pm = eps / (kappa/2 +- i chi) (Gambetta et
    al., PRA 74, 042318 (2006)) hold n photons each and dephase the qubit at
    kappa |alpha_+ - alpha_-|^2 / 2 = 2 kappa n x^2 / (1 + x^2), with
    x = tan(theta0) = 2 chi / kappa.  To second order in x it is
    2 kappa theta0^2 n.
    """
    theta0 = math.atan(2.0 * chi / kappa)
    return 2.0 * kappa * n * math.sin(theta0) ** 2


def gaussian_dephasing_by_kind(kind, n, kappa_x, theta0):
    """The Gaussian phase law written out once per field kind.

    With s = kappa_x theta0^2: thermal s (n^2 + n), coherent 2 s n, shot
    noise s n and vacuum 0.  ``kind`` is the field kind's value ("thermal",
    "coherent", "shot_noise" or "vacuum").  The products are taken in this
    order, so a rate from one general law can be compared with these bit for
    bit.
    """
    s = kappa_x * theta0 ** 2
    if kind == "thermal":
        return s * (n * n + n)
    if kind == "coherent":
        return 2.0 * s * n
    if kind == "shot_noise":
        return s * n
    return 0.0


# ---------------------------------------------------------------------------
# Ramsey fringe fit, one trace at a time
# ---------------------------------------------------------------------------

RAMSEY_MAX_ITERATIONS = 200
RAMSEY_STEP_TOLERANCE = 1e-10


def damped_gauss_newton(residual, jacobian, x0):
    """Levenberg-damped Gauss-Newton of one unweighted least-squares problem.

    The one-problem engine the package's lockstep solver must reproduce bit
    for bit: the damping parameter starts at 1e-3, shrinks tenfold (down to
    1e-14) on an accepted step and grows tenfold on a rejected or singular
    trial; an iteration gives up after 60 trials or once a rejected trial
    lifts it past 1e14.  The problem converges on an accepted step within
    the relative step tolerance, or on a rejected trial whose cost is no
    more than ``cost * (1 + n * eps)`` for ``n`` residuals: that is the
    rounding bound of the n-term cost sum, so the cost is flat and the
    problem stops at its current x.  Returns (x, covariance, residuals,
    converged, iterations).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    cost = float(np.sum(r * r))
    flat_bound = 1.0 + r.size * np.finfo(float).eps
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, RAMSEY_MAX_ITERATIONS + 1):
        jac = jacobian(x)
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = np.diag(np.clip(np.diag(hess), 1e-300, None))
        accepted = flat = False
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + lam * diag, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + step
            r_try = residual(x_try)
            cost_try = float(np.sum(r_try * r_try))
            if np.isfinite(cost_try) and cost_try <= cost:
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            if cost_try <= cost * flat_bound:
                flat = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if flat:
            converged = True
            break
        if not accepted:
            break
        if np.all(np.abs(step) <= RAMSEY_STEP_TOLERANCE * (np.abs(x) + RAMSEY_STEP_TOLERANCE)):
            converged = True
            break
    jac = jacobian(x)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0] = 1.0
    jn = jac / scale
    dof = max(r.size - x.size, 1)
    cov = np.linalg.pinv(jn.T @ jn) / np.outer(scale, scale) * cost / dof
    return x, cov, r, converged, iterations


def _ramsey_model(tau, offset, amplitude, frequency, gamma2, phase):
    return offset + amplitude * np.cos(2.0 * math.pi * frequency * tau + phase) * np.exp(
        -2.0 * math.pi * gamma2 * tau
    )


def _ramsey_initial_guess(tau, p):
    offset = float(np.mean(p))
    detrended = p - offset
    amplitude = max(float(np.max(np.abs(detrended))), 1e-6)
    uniform_tau = np.linspace(tau[0], tau[-1], 4 * tau.size)
    uniform = np.interp(uniform_tau, tau, detrended)
    spectrum = np.fft.rfft(uniform)
    freqs = np.fft.rfftfreq(uniform_tau.size, uniform_tau[1] - uniform_tau[0])
    peak = 1 + int(np.argmax(np.abs(spectrum[1:])))
    frequency = float(freqs[peak])
    phase = float(np.angle(spectrum[peak]))
    blocks = max(4, tau.size // 8)
    edges = np.linspace(0, tau.size, blocks + 1).astype(int)
    env_t, env_v = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            env_t.append(float(np.mean(tau[lo:hi])))
            env_v.append(float(np.max(np.abs(detrended[lo:hi]))))
    env_t = np.asarray(env_t)
    env_v = np.clip(np.asarray(env_v), 1e-9, None)
    slope = np.polyfit(env_t, np.log(env_v), 1)[0]
    gamma2 = max(-slope / (2.0 * math.pi), 1e-3 / (tau[-1] - tau[0]))
    return offset, amplitude, frequency, gamma2, phase


def fit_ramsey_one(trace):
    """Fit offset + amplitude cos(2 pi f tau + phase) exp(-2 pi gamma2 tau) to one trace.

    The per-trace fit the package ran before its Ramsey fits moved to one
    lockstep solve per stack: FFT and block-envelope starting values, the
    engine above, then a positive amplitude and a phase folded into
    (-pi, pi].  Returns (parameters, covariance, residual norm, converged,
    iterations).
    """
    trace = np.asarray(trace, dtype=float)
    tau = trace[:, 0]
    p = trace[:, 1]
    x0 = _ramsey_initial_guess(tau, p)
    two_pi = 2.0 * math.pi

    def residual(x):
        return p - _ramsey_model(tau, *x)

    def jacobian(x):
        offset, amplitude, frequency, gamma2, phase = x
        arg = two_pi * frequency * tau + phase
        damp = np.exp(-two_pi * gamma2 * tau)
        cos_term = np.cos(arg) * damp
        sin_term = np.sin(arg) * damp
        return -np.column_stack(
            [
                np.ones_like(tau),
                cos_term,
                -amplitude * two_pi * tau * sin_term,
                -amplitude * two_pi * tau * cos_term,
                -amplitude * sin_term,
            ]
        )

    x, cov, _, converged, iterations = damped_gauss_newton(residual, jacobian, x0)
    names = ("offset", "amplitude", "frequency", "gamma2", "phase")
    params = dict(zip(names, (float(v) for v in x)))
    if params["amplitude"] < 0:
        params["amplitude"] = -params["amplitude"]
        params["phase"] += math.pi
    params["phase"] = math.remainder(params["phase"], two_pi)
    result_x = np.array([params[name] for name in names])
    res = p - _ramsey_model(tau, *result_x)
    return params, cov, float(np.linalg.norm(res)), converged, iterations
