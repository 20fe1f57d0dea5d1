"""Regenerate tests/reference_values.py.

Two independent routes feed the frozen constants used by the test suite:

* high-precision evaluation (mpmath at 50 significant digits) of the normal
  CDF and of the closed-form distribution expressions, transcribed here
  separately from the package so transcription slips show up as mismatches;
* a brute-force Monte Carlo oracle: plain sequential-stream GBM sampling with
  Brownian-bridge crossing correction, written against numpy's default
  generator and sharing no code with the package's simulator.

Run from the repository root:

    python tests/make_reference_values.py > tests/reference_values.py

The Monte Carlo section takes a few minutes at N_PATHS = 10**6.
"""

import sys

import mpmath as mp
import numpy as np

mp.mp.dps = 50

# demo market shared by the three regime configurations
MU, SIGMA, S0, SSTAR, U0 = "0.5", "1", "1", "0.5", "1"

MC_SEED = 20260816
N_PATHS = 1_000_000
N_STEPS = 2048
T_END = 1.0
CHUNK = 20_000


def phi(x):
    return mp.ncdf(x)


def big_x(z, t, mu, sigma):
    return (mp.log(z) + (mu - sigma**2 / 2) * t) / (sigma * mp.sqrt(t))


class Closed:
    """Closed-form CDF machinery at mpmath precision."""

    def __init__(self, mu, sigma, s0, s_star, u0, k):
        self.mu, self.sigma = mp.mpf(mu), mp.mpf(sigma)
        self.s0, self.s_star = mp.mpf(s0), mp.mpf(s_star)
        self.u0, self.k = mp.mpf(u0), mp.mpf(k)
        self.z_star = (self.s_star / self.s0) ** (2 * self.mu / self.sigma**2 - 1)

    def pair(self, z, t):
        return phi(big_x(z, t, self.mu, self.sigma))

    def stop_cdf(self, t):
        if t <= 0:
            return mp.mpf(0)
        # phi(-x) is 1 - phi(x) with no subtraction, so tiny probabilities keep their digits
        direct = big_x(self.s0 / self.s_star, t, self.mu, self.sigma)
        return phi(-direct) + self.z_star * self.pair(self.s_star / self.s0, t)

    def omega(self, t):
        return 1 - self.stop_cdf(t)

    def joint_survival(self, x_price, t):
        return self.pair(self.s0 / x_price, t) - self.z_star * self.pair(
            self.s_star**2 / (self.s0 * x_price), t
        )

    def g_floor(self, t):
        # worst-case gain when the stop fires at time t
        return (self.u0 / self.k) * (
            (self.s_star / self.s0) ** self.k * mp.e ** (self.sigma**2 * (self.k - self.k**2) * t / 2) - 1
        )

    def a_fun(self, x):
        arg = (self.s0 / self.s_star) ** self.k * (self.k * x / self.u0 + 1)
        return -2 / (self.sigma**2 * self.k * (self.k - 1)) * mp.log(arg)

    def b_fun(self, x, t):
        inner = (self.k * x / self.u0 + 1) * mp.e ** (-self.sigma**2 * (self.k - self.k**2) * t / 2)
        return inner ** (1 / self.k)

    def theta(self, x, t):
        b = self.b_fun(x, t)
        return self.joint_survival(self.s0 * b, t)

    def cdf(self, x, t):
        k, u0, s0, s_star = self.k, self.u0, self.s0, self.s_star
        if k == 1:
            g_star = u0 * (s_star / s0 - 1)
            if x < g_star:
                return mp.mpf(0)
            z = u0 / (x + u0)
            return 1 - self.pair(z, t) + self.z_star * self.pair((s_star / s0) ** 2 * z, t)
        if k > 1:
            junction = (u0 / k) * ((s_star / s0) ** k - 1)
            if x <= self.g_floor(t):
                return mp.mpf(0)
            if x < junction:
                return self.omega(self.a_fun(x)) - self.theta(x, t)
            return 1 - self.theta(x, t)
        floor = (u0 / k) * ((s_star / s0) ** k - 1)
        if x <= floor:
            return mp.mpf(0)
        if x < self.g_floor(t):
            return self.stop_cdf(self.a_fun(x))
        return 1 - self.theta(x, t)

    def cdf_no_stop(self, x, t):
        if x <= -self.u0 / self.k:
            return mp.mpf(0)
        return 1 - self.pair(1 / self.b_fun(x, t), t)


def mc_oracle():
    """Brute-force estimates of stop-time and gain probabilities.

    Sequential chunked GBM in log space, crossing detected on the grid plus a
    sampled Brownian-bridge crossing between non-crossing grid points.  Stop
    times from bridge hits are recorded at the right endpoint of the interval.
    Terminal gains: stopped paths freeze at the stop time, surviving paths use
    the closed-form gain of the terminal price.
    """
    rng = np.random.default_rng(MC_SEED)
    mu, sigma, s0, s_star, u0 = (float(mp.mpf(v)) for v in (MU, SIGMA, S0, SSTAR, U0))
    dt = T_END / N_STEPS
    nu = mu - sigma**2 / 2
    log_barrier = np.log(s_star / s0)
    times = np.linspace(0.0, T_END, N_STEPS + 1)

    t_star = np.full(N_PATHS, np.nan)
    t_star_grid_only = np.full(N_PATHS, np.nan)
    log_s_end = np.empty(N_PATHS)

    done = 0
    while done < N_PATHS:
        b = min(CHUNK, N_PATHS - done)
        z = rng.standard_normal((b, N_STEPS))
        logs = np.cumsum(nu * dt + sigma * np.sqrt(dt) * z, axis=1)
        log_s_end[done : done + b] = logs[:, -1]

        below = logs <= log_barrier
        hit_grid = below.any(axis=1)
        first_below = np.where(hit_grid, below.argmax(axis=1) + 1, N_STEPS + 1)

        # bridge crossing probability for intervals with both endpoints above
        lhs = np.concatenate([np.zeros((b, 1)), logs[:, :-1]], axis=1) - log_barrier
        rhs = logs - log_barrier
        p_cross = np.exp(-2.0 * lhs * rhs / (sigma**2 * dt))
        candidate = (lhs > 0) & (rhs > 0)
        u = rng.random((b, N_STEPS))
        bridge_hit = candidate & (u < p_cross)
        any_bridge = bridge_hit.any(axis=1)
        first_bridge = np.where(any_bridge, bridge_hit.argmax(axis=1) + 1, N_STEPS + 2)

        stop_idx = np.minimum(first_below, first_bridge)
        stopped = stop_idx <= N_STEPS
        rows = np.flatnonzero(stopped) + done
        t_star[rows] = times[stop_idx[stopped]]
        rows_g = np.flatnonzero(hit_grid) + done
        t_star_grid_only[rows_g] = times[first_below[hit_grid]]
        done += b

    stopped = ~np.isnan(t_star)
    s_end = s0 * np.exp(log_s_end)

    def terminal_gain(k):
        g = np.empty(N_PATHS)
        live = ~stopped
        g[live] = (u0 / k) * (
            (s_end[live] / s0) ** k * np.exp(0.5 * sigma**2 * (k - k**2) * T_END) - 1.0
        )
        g[stopped] = (u0 / k) * (
            (s_star / s0) ** k * np.exp(0.5 * sigma**2 * (k - k**2) * t_star[stopped]) - 1.0
        )
        return g

    n = float(N_PATHS)
    out = {
        "n_paths": N_PATHS,
        "n_steps": N_STEPS,
        "seed": MC_SEED,
        "p_stop": float(stopped.mean()),
        "p_stop_grid_only": float((~np.isnan(t_star_grid_only)).mean()),
        "p_price_ge_1_no_stop": float(np.sum((s_end >= 1.0) & ~stopped) / n),
        "p_price_ge_08_no_stop": float(np.sum((s_end >= 0.8) & ~stopped) / n),
    }
    g1 = terminal_gain(1.0)
    g2 = terminal_gain(2.0)
    g05 = terminal_gain(0.5)
    out["k1_p_g_le_neg05"] = float(np.mean(g1 <= -0.5))
    out["k1_p_g_le_0"] = float(np.mean(g1 <= 0.0))
    out["k2_p_g_le_neg04"] = float(np.mean(g2 <= -0.4))
    out["k2_p_g_le_0"] = float(np.mean(g2 <= 0.0))
    out["k2_p_g_le_0_unstopped"] = float(np.sum((g2 <= 0.0) & ~stopped) / n)
    out["k05_p_g_le_neg05"] = float(np.mean(g05 <= -0.5))
    out["k05_p_g_le_neg045"] = float(np.mean(g05 <= -0.45))
    out["k05_p_g_le_0"] = float(np.mean(g05 <= 0.0))
    # mass strictly between the hard floor and the current stopped-gain level
    # that belongs to surviving paths; the closed form says this is zero
    floor05 = (u0 / 0.5) * ((s_star / s0) ** 0.5 - 1.0)
    lvl05 = (u0 / 0.5) * ((s_star / s0) ** 0.5 * np.exp(0.5 * sigma**2 * 0.25 * T_END) - 1.0)
    out["k05_band_unstopped_count"] = int(np.sum((g05 > floor05) & (g05 < lvl05) & ~stopped))
    out["k1_mean_g"] = float(g1.mean())
    out["k1_se_g"] = float(g1.std(ddof=1) / np.sqrt(n))
    return out


def emit():
    c1 = Closed(MU, SIGMA, S0, SSTAR, U0, "1")
    c2 = Closed(MU, SIGMA, S0, SSTAR, U0, "2")
    c05 = Closed(MU, SIGMA, S0, SSTAR, U0, "0.5")

    def f(v, digits=25):
        return mp.nstr(mp.mpf(v), digits)

    phi_points = [
        "0", "0.1", "-0.1", "0.5", "-0.5", "1", "-1", "1.5", "-1.5", "2", "-2",
        "3", "-3", "4", "-4", "5", "-5", "6", "-6", "7", "-7", "8", "-8",
        "0.6931", "-1.3863", "1.2345",
    ]
    lines = []
    w = lines.append
    w('"""Frozen reference constants; regenerate with make_reference_values.py."""')
    w("")
    w("# normal CDF at mpmath 50-digit precision, rounded to 25 significant digits")
    w("PHI_TABLE = {")
    for p in phi_points:
        w(f'    "{p}": {f(phi(mp.mpf(p)))},')
    w(f'    "log2": {f(phi(mp.log(2)))},')
    w(f'    "neg_log4": {f(phi(-mp.log(4)))},')
    w("}")
    w("")
    w("# closed-form distribution values for the shared demo market")
    w(f"# (mu={MU}, sigma={SIGMA}, s0={S0}, s_star={SSTAR}, u0={U0})")
    w("CLOSED_FORM = {")
    w(f'    "stop_cdf_t1": {f(c1.stop_cdf(1))},')
    w(f'    "stop_cdf_t01": {f(c1.stop_cdf(mp.mpf("0.1")))},')
    w(f'    "stop_cdf_t10": {f(c1.stop_cdf(10))},')
    w(f'    "omega_t1": {f(c1.omega(1))},')
    w(f'    "joint_survival_x1_t1": {f(c1.joint_survival(1, 1))},')
    w(f'    "joint_survival_x08_t1": {f(c1.joint_survival(mp.mpf("0.8"), 1))},')
    w(f'    "k1_g_star": {f(c1.u0 * (c1.s_star / c1.s0 - 1))},')
    w(f'    "k1_cdf_at_g_star_t1": {f(c1.cdf(c1.u0 * (c1.s_star / c1.s0 - 1), 1))},')
    w(f'    "k1_cdf_x0_t1": {f(c1.cdf(0, 1))},')
    w(f'    "k1_cdf_x2_t1": {f(c1.cdf(2, 1))},')
    w(f'    "k1_cdf_no_stop_xneg05_t1": {f(c1.cdf_no_stop(mp.mpf("-0.5"), 1))},')
    w(f'    "k2_g_floor_t1": {f(c2.g_floor(1))},')
    w(f'    "k2_g_floor_t025": {f(c2.g_floor(mp.mpf("0.25")))},')
    w(f'    "k2_g_floor_t4": {f(c2.g_floor(4))},')
    w(f'    "k2_junction": {f((c2.u0 / c2.k) * ((c2.s_star / c2.s0) ** c2.k - 1))},')
    w(f'    "k2_a_x0": {f(c2.a_fun(0))},')
    w(f'    "k2_b_x0_t1": {f(c2.b_fun(0, 1))},')
    w(f'    "k2_theta_x0_t1": {f(c2.theta(0, 1))},')
    w(f'    "k2_cdf_xneg04_t1": {f(c2.cdf(mp.mpf("-0.4"), 1))},')
    w(f'    "k2_cdf_x0_t1": {f(c2.cdf(0, 1))},')
    w(f'    "k05_hard_floor": {f((c05.u0 / c05.k) * ((c05.s_star / c05.s0) ** c05.k - 1))},')
    w(f'    "k05_g_level_t1": {f(c05.g_floor(1))},')
    w(f'    "k05_a_xneg05": {f(c05.a_fun(mp.mpf("-0.5")))},')
    w(f'    "k05_cdf_xneg05_t1": {f(c05.cdf(mp.mpf("-0.5"), 1))},')
    w(f'    "k05_cdf_xneg045_t1": {f(c05.cdf(mp.mpf("-0.45"), 1))},')
    w(f'    "k05_cdf_x0_t1": {f(c05.cdf(0, 1))},')
    w(f'    "k1_lower_bound_c2_v2": {f(2 * (1 - c1.cdf(0, 1)) - 2)},')
    w("}")
    w("")
    sys.stderr.write("running Monte Carlo oracle, this takes a few minutes...\n")
    mc = mc_oracle()
    w("# brute-force Monte Carlo oracle (independent sampler, bridge-corrected)")
    w("MC_ORACLE = {")
    for key, val in mc.items():
        w(f'    "{key}": {val!r},')
    w("}")
    w("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.stdout.write(emit())
