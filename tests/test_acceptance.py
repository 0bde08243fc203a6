"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from sdgames.auxiliary import solve_aux, verify_strict_primal_unbounded
from sdgames.blocks import BlockStructure, diag_block, matrix_block
from sdgames.bounds import (
    aux_dimensions,
    ceil_lg,
    eta1,
    eta_bar,
    khachiyan_instance,
    kkt_dimensions,
    practical_bound_M,
    squared_height,
)
from sdgames.direct import solve_both
from sdgames.game import (
    normalized_strategy1,
    normalized_strategy2,
    payoff,
    response_matrix_K,
    response_matrix_L,
    solve_game,
    subgame_payoff,
)
from sdgames.generators import random_diagonal, random_slater, random_unbounded
from sdgames.model import DualPoint, PrimalPoint, frobenius_inner, verify_strongly_optimal
from sdgames.reduction import (
    DUAL_UNBOUNDED_CERT,
    INCONCLUSIVE,
    PRIMAL_UNBOUNDED_CERT,
    STRONGLY_OPTIMAL,
    PipelineConfig,
    aux_value_relation,
    run_pipeline,
)
from sdgames.solver import OPTIMAL, SolverOptions, StandardSdp, solve

from lp_oracle import OPTIMAL as LP_OPTIMAL
from lp_oracle import UNBOUNDED as LP_UNBOUNDED
from lp_oracle import lp_min_inequality


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_bounded_example(bounded_pair):
    out = run_pipeline(bounded_pair, PipelineConfig(bound_mode=3.0))
    ok_value = abs(out.game_value) <= 1e-6
    _report(1, "bounded example: |game value| <= 1e-6", ok_value, f"v={out.game_value:.2e}")
    E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    dist = float(np.linalg.norm(out.X_opt.array - E11))
    _report(1, "bounded example: ||X - E11||_F <= 1e-4", dist <= 1e-4, f"dist={dist:.2e}")
    ok_opt = verify_strongly_optimal(
        bounded_pair.to_float(), PrimalPoint(out.X_opt), DualPoint(tuple(out.y_opt)), 1e-6
    )
    _report(1, "bounded example: strong optimality verifies at 1e-6", ok_opt)
    obj = frobenius_inner(bounded_pair.C.to_float(), out.X_opt)
    _report(1, "bounded example: <C, X> = 1 +/- 1e-5", abs(obj - 1.0) <= 1e-5, f"obj={obj:.8f}")


def test_criterion_2_unbounded_example(unbounded_pair, game_opts):
    g = solve_game(unbounded_pair, 1.0, game_opts)
    _report(
        2, "unbounded example: v = 1/3 +/- 1e-5",
        abs(g.value - 1.0 / 3.0) <= 1e-5, f"v={g.value:.8f}",
    )
    _report(2, "unbounded example: |t'| <= 1e-6", abs(g.s1.t) <= 1e-6, f"t'={g.s1.t:.2e}")
    _report(
        2, "unbounded example: |u - v| <= 1e-6",
        abs(g.s1.u - g.value) <= 1e-6, f"u-v={g.s1.u - g.value:.2e}",
    )
    out = run_pipeline(unbounded_pair, PipelineConfig(bound_mode=1.0))
    ok_kind = out.kind == PRIMAL_UNBOUNDED_CERT
    ok_dir = ok_kind and verify_strict_primal_unbounded(unbounded_pair, out.direction_X, 1e-6)
    _report(2, "unbounded example: strict primal direction verifies at 1e-6", ok_dir)


def test_criterion_3_both_infeasible(both_infeasible_pair, game_opts):
    out = run_pipeline(both_infeasible_pair, PipelineConfig(bound_mode=1.0))
    v = out.game_value
    _report(3, "both-infeasible: v = 1/3 +/- 1e-5", abs(v - 1.0 / 3.0) <= 1e-5, f"v={v:.8f}")
    ok_kind = out.kind == DUAL_UNBOUNDED_CERT
    _report(3, "both-infeasible: dual unbounded-direction certificate", ok_kind, out.kind)
    ok_dir = ok_kind and abs(out.direction_y[0] - 2.0 / 3.0) <= 1e-4
    _report(3, "both-infeasible: direction proportional to y = 2/3", ok_dir)
    implied = aux_value_relation(v, 1.0)
    aux = solve_aux(both_infeasible_pair)
    ok_rel = abs(implied - 1.0) <= 1e-4 and abs(aux.w - 1.0) <= 1e-4
    _report(
        3, "both-infeasible: v(M+1)/(1-v) = 1 matches auxiliary optimum",
        ok_rel, f"implied={implied:.6f} w*={aux.w:.6f}",
    )


def test_criterion_4_duality_gap(duality_gap_pair):
    out = run_pipeline(duality_gap_pair, PipelineConfig(bound_mode=1.0))
    _report(4, "duality gap: game value > 1e-3", out.game_value > 1e-3, f"v={out.game_value:.6f}")
    ok_note = out.kind == INCONCLUSIVE and any(
        "no pair of strongly optimal solutions" in s for s in out.notes
    )
    _report(4, "duality gap: Inconclusive with no-strongly-optimal-pair note", ok_note, out.kind)
    res = solve_both(duality_gap_pair)
    ok_p = abs(res["primal_value"] - 1.0) <= 1e-5
    ok_d = abs(res["dual_value"] - 0.0) <= 1e-5
    _report(
        4, "duality gap: direct solves give primal 1 and dual 0 within 1e-5",
        ok_p and ok_d, f"p={res['primal_value']:.8f} d={res['dual_value']:.8f}",
    )


def test_criterion_5_khachiyan_family():
    for n, tau in [(1, 1), (1, 2), (2, 2)]:
        prob, opt = khachiyan_instance(n, tau)
        r = solve(prob, SolverOptions(tol=1e-12, max_iters=400))
        rel = abs(r.value - float(opt)) / float(opt)
        _report(
            5, f"khachiyan ({n},{tau}): relative error <= 1e-3",
            rel <= 1e-3, f"rel={rel:.2e}",
        )
    prob, opt = khachiyan_instance(3, 2)
    r = solve(prob, SolverOptions(tol=1e-12, max_iters=400))
    ok = r.value <= 2.0 * float(opt) + 1e-9  # below reliable tolerance; bound only
    _report(5, "khachiyan (3,2): value <= 2x closed form + 1e-9", ok, f"val={r.value:.3e}")


def test_criterion_6_formula_suite():
    def sym_dim(k):
        return sum(1 for i in range(k) for j in range(i, k))

    ok = True
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            dims = kkt_dimensions(n, m)
            ok &= dims.N == 2 * sym_dim(n) + m
            ok &= dims.p == m + sym_dim(n) + n * n
            nbar, mbar, Nbar, pbar = aux_dimensions(n, m)
            ok &= nbar == 2 * n + 2 * m + 2
            ok &= mbar == m + sym_dim(n) + 1
            ok &= Nbar == 2 * sym_dim(nbar) + mbar
            ok &= pbar == mbar + sym_dim(nbar) + nbar * nbar
            for tau in (1, 2, 3):
                ok &= squared_height(tau, dims.N, dims.p) == tau + dims.N + ceil_lg(dims.p)
                ok &= eta1(dims.N, tau) == (
                    (dims.N**2 - dims.N) // 2
                    + 2**dims.N
                    + dims.N * (tau + dims.N + 2) * 2 ** (dims.N - 1)
                )
                tb = tau + Nbar + ceil_lg(pbar)
                ok &= eta_bar(n, m, tau) == (
                    (Nbar**2 - Nbar) // 2 + 2 * Nbar + Nbar * (tb + Nbar + 2) * 2 ** (Nbar - 1)
                )
    _report(6, "formula suite exact over (n,m) in {1,2,3}^2", ok)
    exact = eta_bar(1, 1, 1) == 990 + 90 + 45 * 99 * 2**44
    _report(6, "eta_bar(1,1,1) equals 990 + 90 + 45*99*2^44 exactly", exact)


def test_criterion_7_property_suites(bounded_pair, game_opts):
    rng = np.random.default_rng(1234)
    n, m = 2, 1

    def rnd_s1():
        G = rng.normal(size=(n, n))
        return normalized_strategy1(
            G @ G.T, rng.uniform(0, 1, m), float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        )

    def rnd_s2():
        G = rng.normal(size=(n, n))
        return normalized_strategy2(G @ G.T, rng.uniform(0, 1, m), float(rng.uniform(0, 1)))

    worst = 0.0
    for _ in range(200):
        s1, s2 = rnd_s1(), rnd_s2()
        p = payoff(bounded_pair, 3.0, s1, s2)
        k = frobenius_inner(response_matrix_K(bounded_pair, 3.0, s1), s2.as_block_matrix())
        l = frobenius_inner(s1.as_block_matrix(), response_matrix_L(bounded_pair, 3.0, s2))
        worst = max(worst, abs(p - k), abs(p - l))
    _report(7, "operator consistency over 200 strategy pairs at 1e-12", worst <= 1e-12, f"worst={worst:.2e}")

    worst = max(abs(subgame_payoff(bounded_pair, z, z)) for z in (rnd_s2() for _ in range(100)))
    _report(7, "subgame antisymmetry p(z,z) = 0 over 100 strategies at 1e-12", worst <= 1e-12, f"worst={worst:.2e}")

    vmin = np.inf
    for i in range(30):
        if i % 3 == 0:
            pair = random_slater(2 + i % 2, 1 + i % 3, 700 + i)
        elif i % 3 == 1:
            pair = random_unbounded(2 + i % 2, 1 + i % 2, 700 + i)
        else:
            pair = random_diagonal(2 + i % 3, 2, 700 + i, kind="slater" if i % 2 else "unbounded")
        M = practical_bound_M(pair).value
        vmin = min(vmin, solve_game(pair, M, game_opts).value)
    _report(7, "game value nonnegative on 30 random instances", vmin >= -1e-7, f"min v={vmin:.2e}")

    ok = True
    for seed in range(10):
        kind = "slater" if seed % 2 == 0 else "unbounded"
        pair = random_diagonal(3, 2, 600 + seed, kind=kind)
        A_lp = np.array([np.diag(Ai.array) for Ai in pair.A])
        c_lp = np.diag(pair.C.array)
        status, val = lp_min_inequality(c_lp, A_lp, pair.b_array)
        out = run_pipeline(pair)
        if status == LP_OPTIMAL:
            got = frobenius_inner(pair.C.to_float(), out.X_opt) if out.X_opt else np.nan
            ok &= out.kind == STRONGLY_OPTIMAL and abs(got - val) <= 1e-6 * (1 + abs(val))
        elif status == LP_UNBOUNDED:
            ok &= out.kind == PRIMAL_UNBOUNDED_CERT
    _report(7, "LP-diagonal oracle equivalence on 10 instances at 1e-6", ok)

    ok = True
    for seed in range(10):
        pair = random_slater(2 + seed % 3, 1 + seed % 3, 100 + seed)
        out = run_pipeline(pair)
        ok &= out.kind == STRONGLY_OPTIMAL
        ok &= abs(out.game_value) <= 1e-6
        ok &= verify_strongly_optimal(
            pair.to_float(), PrimalPoint(out.X_opt), DualPoint(tuple(out.y_opt)), 1e-6
        )
    _report(7, "bounded-case equivalence on 10 Slater instances at 1e-6", ok)

    ok = True
    worst_rel = 0.0
    for seed in range(10):
        pair = random_unbounded(2 + seed % 3, 1 + seed % 2, 300 + seed)
        M = practical_bound_M(pair).value
        g = solve_game(pair, M, game_opts)
        ok &= abs(g.s1.u - g.value) <= 1e-6 and abs(g.s1.t) <= 1e-6
        out = run_pipeline(pair)
        ok &= out.kind in (PRIMAL_UNBOUNDED_CERT, DUAL_UNBOUNDED_CERT)
        worst_rel = max(worst_rel, abs(g.value - (1.0 - (1.0 + M) * g.s2.t)))
    _report(7, "unbounded-case structure on 10 instances at 1e-6", ok)
    _report(7, "value-trace relation v = 1 - (1+M)t* at 1e-6", worst_rel <= 1e-6, f"worst={worst_rel:.2e}")


def test_criterion_8_solver_baseline():
    rng = np.random.default_rng(4321)
    ok = True
    worst_gap, worst_res = 0.0, 0.0
    for _ in range(20):
        nb, db, mm = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        st = BlockStructure([matrix_block(nb), diag_block(db)])
        G = rng.normal(size=(nb, nb))
        X0 = G @ G.T + 0.5 * np.eye(nb)
        x0d = rng.uniform(0.5, 1.5, size=db)
        rows = []
        for _ in range(mm):
            Ak = rng.normal(size=(nb, nb))
            Ak = 0.5 * (Ak + Ak.T)
            ak = rng.normal(size=db)
            rows.append(([Ak, ak], float(np.tensordot(Ak, X0, 2) + ak @ x0d)))
        y0 = rng.normal(size=mm)
        H = rng.normal(size=(nb, nb))
        S0 = H @ H.T + 0.5 * np.eye(nb)
        s0d = rng.uniform(0.5, 1.5, size=db)
        Cm = sum(y0[k] * rows[k][0][0] for k in range(mm)) + S0
        cd = sum(y0[k] * rows[k][0][1] for k in range(mm)) + s0d
        prob = StandardSdp(st, st.flat([Cm, cd]), [st.flat(a) for a, _ in rows], [r for _, r in rows])
        r = solve(prob, SolverOptions(debug=True))
        denom = 1.0 + abs(r.primal_objective) + abs(r.dual_objective)
        ok &= r.status == OPTIMAL
        worst_gap = max(worst_gap, abs(r.gap) / denom)
        worst_res = max(worst_res, r.primal_infeas, r.dual_infeas)
    ok &= worst_gap <= 1e-8 and worst_res <= 1e-7
    _report(
        8, "solver baseline: 20 strictly feasible block SDPs, gap <= 1e-8, residuals <= 1e-7, "
        "weak duality at every iterate",
        ok, f"worst gap={worst_gap:.2e} worst residual={worst_res:.2e}",
    )
