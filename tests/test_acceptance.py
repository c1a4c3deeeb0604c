"""End-to-end acceptance suite.

Each test exercises one headline property of the package at its stated
tolerance, times itself against a budget, and records a one-line PASS/FAIL
verdict that the terminal summary prints as the "acceptance criteria" block.
"""
import time

import numpy as np
from numpy.testing import assert_allclose

from kingflow import (
    CustomLinearMap,
    GaussianMixtureScore,
    GaussianQuadraticMap,
    GaussianScore,
    InformedPairwiseMap,
    KernelSpec,
    NtkSpec,
    ParticleSet,
    RbfFeatureMap,
    SteinFeatureMap,
    TimeKernel,
    default_grid,
    eval_drift,
    feature_mean,
    fisher_estimate,
    median_heuristic,
    mmd,
    ntk_value,
    project_change_limit,
    project_change_quadrature,
    solve_king_drift,
    solve_ntking_drift,
)
from kingflow.harness.config import RunConfig
from kingflow.harness.scenarios import execute_scenario


class Budget:
    """Context timer asserting (after recording) that a budget held."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.elapsed = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        return False


def fd_jacobian(fmap, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((fmap.features(x + step) - fmap.features(x - step)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def network_param_jacobian(spec, x, h=1e-5):
    params = [spec.w1.copy(), spec.b1.copy(), spec.w2.copy(), spec.b2.copy()]

    def forward(w1, b1, w2, b2):
        return w2 @ np.tanh(w1 @ x + b1) + b2

    cols = []
    for idx, arr in enumerate(params):
        flat = arr.ravel()
        for k in range(flat.size):
            bumped = [p.copy() for p in params]
            bumped[idx].ravel()[k] = flat[k] + h
            plus = forward(*bumped)
            bumped[idx].ravel()[k] = flat[k] - h
            minus = forward(*bumped)
            cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=1)


def test_criterion_01_dual_solve_matches_weight_regression(criterion):
    with Budget(1.0) as budget:
        rng = np.random.default_rng(0)
        n, dim, ridge = 20, 2, 1e-2
        particles = ParticleSet(rng.standard_normal((n, dim)))
        targets = ParticleSet(rng.standard_normal((n, dim)) + 0.8)
        fmap = GaussianQuadraticMap(input_dim=dim)
        phi_map = RbfFeatureMap(centers=rng.standard_normal((5, dim)), bandwidth=1.0)

        class FeatureKernel:
            def pair_blocks(self, xs, ys):
                gram = phi_map.features(xs) @ phi_map.features(ys).T
                return gram[:, :, None, None] * np.eye(xs.shape[1])

        solution = solve_king_drift(fmap, FeatureKernel(), particles, targets, ridge=ridge)
        dual = eval_drift(solution, particles)

        jac = fmap.jacobian(particles.points)
        phi = phi_map.features(particles.points)
        fisher = fisher_estimate(fmap, particles)
        flat = (np.einsum("iar,ic->arc", jac, phi) / n).reshape(fmap.feature_dim, -1)
        gap = feature_mean(fmap, targets) - feature_mean(fmap, particles)
        normal = flat.T @ fisher.solve(flat) + ridge * np.eye(flat.shape[1])
        weights = np.linalg.solve(normal, flat.T @ fisher.solve(gap)).reshape(dim, -1)
        primal = phi @ weights.T
        rel = np.linalg.norm(primal - dual) / np.linalg.norm(dual)
    ok = rel <= 1e-8 and budget.elapsed < budget.seconds
    criterion(
        1,
        "kernel drift equals the explicit feature-weight regression",
        ok,
        f"rel err {rel:.2e}, {budget.elapsed:.2f}s",
    )
    assert rel <= 1e-8
    assert budget.elapsed < budget.seconds


def test_criterion_02_window_derivative_moments(criterion):
    with Budget(1.0) as budget:
        worst_mass, worst_first = 0.0, 0.0
        for sigma in (0.05, 0.1, 0.5):
            tk = TimeKernel(center=0.0, sigma=sigma)
            grid = default_grid(tk)
            deriv = tk.deriv(grid)
            mass = np.trapezoid(deriv, x=grid)
            first = np.trapezoid(grid * deriv, x=grid)
            worst_mass = max(worst_mass, abs(mass))
            worst_first = max(worst_first, abs(first + 1.0))
    ok = worst_mass <= 1e-6 and worst_first <= 1e-4 and budget.elapsed < budget.seconds
    criterion(
        2,
        "window-derivative moments integrate to 0 and -1",
        ok,
        f"|mass| {worst_mass:.1e}, |first+1| {worst_first:.1e}, {budget.elapsed:.2f}s",
    )
    assert worst_mass <= 1e-6
    assert worst_first <= 1e-4
    assert budget.elapsed < budget.seconds


def test_criterion_03_quadrature_projection_converges_to_the_limit(criterion):
    with Budget(5.0) as budget:
        rng = np.random.default_rng(0)
        particles = ParticleSet(rng.standard_normal((60, 2)))
        targets = ParticleSet(rng.standard_normal((60, 2)) + 1.0)
        fmap = GaussianQuadraticMap(input_dim=2)
        kernel = KernelSpec("rbf_scalar", bandwidth=median_heuristic(particles, targets))
        solution = solve_king_drift(fmap, kernel, particles, targets, ridge=1e-3)
        velocity = eval_drift(solution, particles)
        limit = project_change_limit(fmap, particles, velocity)

        errs = []
        for sigma in (0.5, 0.2, 0.1):
            tk = TimeKernel(center=0.0, sigma=sigma)
            quad = project_change_quadrature(
                fmap, lambda t: ParticleSet(particles.points + t * velocity, t), tk
            )
            errs.append(np.linalg.norm(quad - limit) / np.linalg.norm(limit))
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 5e-2 and budget.elapsed < budget.seconds
    criterion(
        3,
        "windowed projection converges monotonically to the limit form",
        ok,
        "rel errs " + "/".join(f"{e:.4f}" for e in errs) + f", {budget.elapsed:.2f}s",
    )
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-2
    assert budget.elapsed < budget.seconds


def test_criterion_04_bimodal_flows_beat_the_baselines(criterion):
    with Budget(120.0) as budget:
        stats = {m: {"ratio": [], "final": []} for m in ("king", "ntking", "wgf", "mmd_flow")}
        for seed in range(5):
            summary = execute_scenario(
                RunConfig(scenario="bimodal_compare", seed=seed)
            ).summary["methods"]
            for method, entry in summary.items():
                stats[method]["ratio"].append(entry["ratio"])
                stats[method]["final"].append(entry["final_mmd"])
        med = {
            m: {k: float(np.median(v)) for k, v in kv.items()} for m, kv in stats.items()
        }
    ok = (
        med["king"]["ratio"] < 0.3
        and med["ntking"]["ratio"] < 0.3
        and med["ntking"]["final"] <= med["wgf"]["final"]
        and med["ntking"]["final"] <= med["mmd_flow"]["final"]
        and budget.elapsed < budget.seconds
    )
    criterion(
        4,
        "guided flows close the bimodal gap and lead both baselines",
        ok,
        (
            f"median ratios king {med['king']['ratio']:.3f} ntking {med['ntking']['ratio']:.3f}; "
            f"median finals ntking {med['ntking']['final']:.3f} "
            f"wgf {med['wgf']['final']:.3f} mmd_flow {med['mmd_flow']['final']:.3f}; "
            f"{budget.elapsed:.1f}s"
        ),
    )
    assert med["king"]["ratio"] < 0.3
    assert med["ntking"]["ratio"] < 0.3
    assert med["ntking"]["final"] <= med["wgf"]["final"]
    assert med["ntking"]["final"] <= med["mmd_flow"]["final"]
    assert budget.elapsed < budget.seconds


def test_criterion_05_gaussian_manifold_bridges_the_modes(criterion):
    with Budget(30.0) as budget:
        stds, means = [], []
        for seed in range(5):
            entry = execute_scenario(
                RunConfig(scenario="manifold_guidance", seed=seed)
            ).summary["methods"]["king"]
            stds.append(entry["final_std"])
            means.append(abs(entry["final_mean"]))
        med_std = float(np.median(stds))
        med_mean = float(np.median(means))
    ok = 1.5 <= med_std <= 3.5 and med_mean < 0.5 and budget.elapsed < budget.seconds
    criterion(
        5,
        "quadratic-feature manifold yields one wide mode-bridging Gaussian",
        ok,
        f"median std {med_std:.3f}, median |mean| {med_mean:.3f}, {budget.elapsed:.1f}s",
    )
    assert 1.5 <= med_std <= 3.5
    assert med_mean < 0.5
    assert budget.elapsed < budget.seconds


def test_criterion_06_rbf_manifold_splits_the_particles(criterion):
    with Budget(60.0) as budget:
        summary = execute_scenario(
            RunConfig(
                scenario="manifold_guidance",
                methods=("king", "ntking"),
                manifold={"kind": "rbf_recipe"},
            )
        ).summary["methods"]
        fractions = {m: summary[m]["fraction_positive"] for m in summary}
        pos = {m: summary[m]["mean_positive"] for m in summary}
        neg = {m: summary[m]["mean_negative"] for m in summary}
    ok = (
        all(0.3 <= fractions[m] <= 0.7 for m in summary)
        and all(1.0 <= pos[m] <= 3.0 for m in summary)
        and all(-3.0 <= neg[m] <= -1.0 for m in summary)
        and budget.elapsed < budget.seconds
    )
    criterion(
        6,
        "localized-feature manifold splits particles across both modes",
        ok,
        (
            f"king {fractions['king']:.2f} split {pos['king']:.2f}/{neg['king']:.2f}; "
            f"ntking {fractions['ntking']:.2f} split {pos['ntking']:.2f}/{neg['ntking']:.2f}; "
            f"{budget.elapsed:.1f}s"
        ),
    )
    for method, stats in summary.items():
        assert 0.3 <= stats["fraction_positive"] <= 0.7
        assert 1.0 <= stats["mean_positive"] <= 3.0
        assert -3.0 <= stats["mean_negative"] <= -1.0
    assert budget.elapsed < budget.seconds


def test_criterion_07_particles_track_exact_natural_gradient_descent(criterion):
    with Budget(60.0) as budget:
        summary = execute_scenario(RunConfig(scenario="ngd_tracking")).summary
        n_checkpoints = len(summary["checkpoints"])
        max_gap = summary["max_w2_gap"]
        to_target = summary["final_w2_particles_to_target"]
        exact_to_target = summary["final_w2_exact_to_target"]
    ok = (
        n_checkpoints == 10
        and max_gap < 0.3
        and to_target < 0.3
        and exact_to_target < 0.3
        and budget.elapsed < budget.seconds
    )
    criterion(
        7,
        "particle flow stays on the exact natural-gradient trajectory",
        ok,
        (
            f"max gap {max_gap:.3f}, endpoint gaps {to_target:.3f}/{exact_to_target:.3f} "
            f"over {n_checkpoints} checkpoints, {budget.elapsed:.1f}s"
        ),
    )
    assert n_checkpoints == 10
    assert max_gap < 0.3
    assert to_target < 0.3
    assert exact_to_target < 0.3
    assert budget.elapsed < budget.seconds


def test_criterion_08_score_features_sample_without_targets(criterion):
    with Budget(30.0) as budget:
        rng = np.random.default_rng(0)
        base2 = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (4, 2)), bandwidth=1.5)
        worst = 0.0
        cases = [
            (GaussianScore(mean=[0.5, -0.5], variances=[1.0, 2.0]), "paired"),
            (GaussianScore(mean=[0.5, -0.5], variances=[1.0, 2.0]), "full"),
            (GaussianMixtureScore(means=[[-2.0, 0.0], [2.0, 0.0]], sigma=1.0), "paired"),
        ]
        for k, (score, mode) in enumerate(cases):
            smap = SteinFeatureMap(base=base2, target=score, mode=mode)
            feats = smap.features(score.sample(100_000, seed=31 + k))
            stderr = feats.std(axis=0) / np.sqrt(len(feats))
            worst = max(worst, float(np.max(np.abs(feats.mean(axis=0)) / (4.0 * stderr))))

        summary = execute_scenario(RunConfig(scenario="stein_sampling")).summary
        final_abs_mean = summary["final_abs_mean"]
    ok = worst <= 1.0 and final_abs_mean < 0.5 and budget.elapsed < budget.seconds
    criterion(
        8,
        "score features average to zero and alone pull particles home",
        ok,
        (
            f"worst mean/4stderr {worst:.2f}, scenario |mean| 3 -> {final_abs_mean:.3f}, "
            f"{budget.elapsed:.1f}s"
        ),
    )
    assert worst <= 1.0
    assert final_abs_mean < 0.5
    assert budget.elapsed < budget.seconds


def test_criterion_09_numerical_hygiene(criterion):
    with Budget(30.0) as budget:
        rng = np.random.default_rng(0)
        maps = [
            GaussianQuadraticMap(input_dim=1),
            GaussianQuadraticMap(input_dim=3),
            RbfFeatureMap(centers=rng.standard_normal((5, 2)), bandwidth=0.8),
            InformedPairwiseMap(
                centers=rng.standard_normal((4, 3)), bandwidth=1.2, pairs=((0, 1), (1, 2))
            ),
            CustomLinearMap(weight=rng.standard_normal((4, 2))),
            SteinFeatureMap(
                base=RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.3),
                target=GaussianMixtureScore(means=[[-1.0, 0.5], [1.0, -0.5]], sigma=1.2),
            ),
        ]
        worst_jac = 0.0
        min_fisher_eig = np.inf
        for fmap in maps:
            pts = rng.standard_normal((10, fmap.input_dim))
            for x in pts:
                err = np.linalg.norm(fmap.jacobian(x) - fd_jacobian(fmap, x))
                worst_jac = max(worst_jac, err / max(np.linalg.norm(fd_jacobian(fmap, x)), 1.0))
            fisher = fisher_estimate(fmap, ParticleSet(rng.standard_normal((40, fmap.input_dim))))
            min_fisher_eig = min(min_fisher_eig, float(np.linalg.eigvalsh(fisher.matrix).min()))

        particles = ParticleSet(rng.standard_normal((20, 2)))
        targets = ParticleSet(rng.standard_normal((20, 2)) + 0.8)
        quad_map = GaussianQuadraticMap(input_dim=2)
        min_system_eig = np.inf
        for solution in (
            solve_king_drift(
                quad_map, KernelSpec("rbf_scalar", bandwidth=1.0), particles, targets, ridge=1e-3
            ),
            solve_ntking_drift(
                quad_map,
                KernelSpec("diagonalized_scalar", bandwidth=1.0),
                particles,
                targets,
                ridge=1e-3,
            ),
            solve_ntking_drift(
                quad_map,
                KernelSpec("empirical_ntk", ntk=NtkSpec(input_dim=2, hidden_width=16, seed=2)),
                particles,
                targets,
                ridge=1e-3,
            ),
        ):
            system = solution.gamma_factor @ solution.gamma_factor.T
            min_system_eig = min(min_system_eig, float(np.linalg.eigvalsh(system).min()))

        ntk = NtkSpec(input_dim=2, hidden_width=8, seed=4)
        points = rng.standard_normal((3, 2))
        jacs = [network_param_jacobian(ntk, x) for x in points]
        worst_ntk = 0.0
        for i in range(3):
            for j in range(3):
                expected = jacs[i] @ jacs[j].T
                err = np.linalg.norm(ntk_value(ntk, points[i], points[j]) - expected)
                worst_ntk = max(worst_ntk, err / np.linalg.norm(expected))

        a = rng.standard_normal((20, 2))
        b = rng.standard_normal((25, 2)) + 1.0
        self_mmd = mmd(a, a.copy()).value
        asym = abs(mmd(a, b, bandwidth=1.0).value - mmd(b, a, bandwidth=1.0).value)
    ok = (
        worst_jac < 1e-5
        and min_fisher_eig > 0.0
        and min_system_eig > 0.0
        and worst_ntk < 1e-4
        and self_mmd == 0.0
        and asym <= 1e-12
        and budget.elapsed < budget.seconds
    )
    criterion(
        9,
        "derivatives, conditioning, and metric identities hold everywhere",
        ok,
        (
            f"jac rel {worst_jac:.1e}, fisher eig {min_fisher_eig:.1e}, "
            f"system eig {min_system_eig:.1e}, ntk rel {worst_ntk:.1e}, "
            f"{budget.elapsed:.1f}s"
        ),
    )
    assert worst_jac < 1e-5
    assert min_fisher_eig > 0.0
    assert min_system_eig > 0.0
    assert worst_ntk < 1e-4
    assert self_mmd == 0.0
    assert asym <= 1e-12
    assert budget.elapsed < budget.seconds


def test_criterion_10_rotated_cluster_transport(criterion):
    with Budget(30.0) as budget:
        summary = execute_scenario(RunConfig(scenario="covariate_shift_rotation")).summary
        ratio = summary["ratio"]
    ok = ratio <= 0.5 and budget.elapsed < budget.seconds
    criterion(
        10,
        "flow undoes the rotation of the four-cluster layout",
        ok,
        (
            f"nn distance {summary['initial_nn_distance']:.3f} -> "
            f"{summary['final_nn_distance']:.3f} (ratio {ratio:.3f}), {budget.elapsed:.1f}s"
        ),
    )
    assert ratio <= 0.5
    assert budget.elapsed < budget.seconds


def test_criterion_11_informed_features_recover_the_graph_faster(criterion):
    with Budget(120.0) as budget:
        summary = execute_scenario(RunConfig(scenario="graphical_model")).summary
        informed = summary["variants"]["informed"]
        plain = summary["variants"]["plain"]
    ok = (
        informed["recall"] >= 0.9
        and plain["recovered"] < informed["recovered"]
        and budget.elapsed < budget.seconds
    )
    criterion(
        11,
        "pairwise-informed features recover the graph where plain ones lag",
        ok,
        (
            f"informed {informed['recovered']}/{informed['true_edges']} "
            f"(recall {informed['recall']:.2f}) vs plain {plain['recovered']} "
            f"at {informed['iterations']} iterations, {budget.elapsed:.1f}s"
        ),
    )
    assert informed["recall"] >= 0.9
    assert plain["recovered"] < informed["recovered"]
    assert budget.elapsed < budget.seconds
