"""Primal-dual interior-point solver for block-diagonal standard-form SDPs.

Solves  min/max <c, x>  s.t.  <a_j, x> = beta_j,  x in K,
where K is a product of psd matrix blocks, nonnegative diagonal blocks and
free scalars.  Path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step; dense Cholesky/LU on the (augmented) Schur system.
Free scalars are kept in the Newton system natively rather than split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .blocks import (
    FREE,
    MATRIX,
    Block,
    BlockStructure,
    bv_copy,
    bv_inner,
    bv_norm_inf,
)

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasibleDetected"
DUAL_INFEASIBLE = "DualInfeasibleDetected"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"

MIN = "min"
MAX = "max"


class DebugInvariantViolation(AssertionError):
    """Raised in debug mode when an iterate violates corrected weak duality."""


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iters: int = 200
    step_fraction: float = 0.98
    initial_centrality: float = 1.0
    divergence_threshold: float = 1e8
    debug: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class StandardSdp:
    """Standard-form block SDP: objective, equality constraints, variable cone."""

    structure: BlockStructure
    objective: tuple
    constraints: tuple
    sense: str = MIN
    name: str = ""

    def __init__(self, structure, objective, constraints, sense=MIN, name=""):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(
            self, "objective", tuple(np.array(b, dtype=float) for b in objective)
        )
        object.__setattr__(
            self,
            "constraints",
            tuple(
                (tuple(np.array(b, dtype=float) for b in a), float(rhs))
                for a, rhs in constraints
            ),
        )
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "name", name)
        if sense not in (MIN, MAX):
            raise ValueError("sense must be 'min' or 'max'")
        if not structure.conformal(self.objective):
            raise ValueError("objective does not conform to the block structure")
        for a, rhs in self.constraints:
            if not structure.conformal(a):
                raise ValueError("a constraint does not conform to the block structure")
            if not np.isfinite(rhs):
                raise ValueError("constraint right-hand sides must be finite")

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def rhs(self) -> np.ndarray:
        return np.array([r for _, r in self.constraints])

    def data_scale(self) -> float:
        vals = [bv_norm_inf(list(self.objective))]
        for a, rhs in self.constraints:
            vals.append(bv_norm_inf(list(a)))
            vals.append(abs(rhs))
        return max(vals) if vals else 0.0


@dataclass(eq=False)
class SolveResult:
    status: str
    primal: list
    dual: np.ndarray
    dual_slack: list
    gap: float
    iterations: int
    value: float
    primal_objective: float
    dual_objective: float
    primal_infeas: float
    dual_infeas: float
    warnings: List[str] = field(default_factory=list)
    certificate: Optional[object] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _chol(a: np.ndarray) -> np.ndarray:
    sym = 0.5 * (a + a.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        # rounding can push an iterate marginally off the cone; nudge once
        eps = 1e-14 * max(1.0, abs(float(np.trace(sym))))
        return np.linalg.cholesky(sym + eps * np.eye(sym.shape[0]))


def _max_step_matrix(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx psd, for x positive definite."""
    L = _chol(x)
    Z = np.linalg.solve(L, dx)
    E = np.linalg.solve(L, Z.T).T
    emin = float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])
    if emin >= -1e-14:
        return np.inf
    return -1.0 / emin


def _max_step_diag(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


class _ConeScaling:
    """Per-block Nesterov-Todd scaling data for one iteration."""

    def __init__(self, block: Block, x: np.ndarray, s: np.ndarray):
        self.block = block
        if block.kind == MATRIX:
            Lx = _chol(x)
            Ls = _chol(s)
            U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
            if np.any(sig <= 0):
                raise np.linalg.LinAlgError("NT scaling broke down")
            isq = 1.0 / np.sqrt(sig)
            self.lam = sig
            self.R = Lx @ (Vt.T * isq)
            self.Rinv = (isq[:, None] * U.T) @ Ls.T
            self.W = self.R @ self.R.T
        else:
            self.lam = np.sqrt(x * s)
            self.w2 = x / s

    def apply_w(self, u: np.ndarray) -> np.ndarray:
        """W u W for matrix blocks, w^2 * u for diagonal blocks."""
        if self.block.kind == MATRIX:
            return self.W @ u @ self.W
        return self.w2 * u

    def combine_target(self, sigma_mu: float, dxa: np.ndarray, dsa: np.ndarray, s: np.ndarray):
        """g-term of the corrector direction: R T(sigma*mu*I - Hcorr) R'."""
        if self.block.kind == MATRIX:
            dxt = self.Rinv @ dxa @ self.Rinv.T
            dst = self.R.T @ dsa @ self.R
            H = 0.5 * (dxt @ dst + dst @ dxt)
            psi = -H
            np.fill_diagonal(psi, psi.diagonal() + sigma_mu)
            denom = 0.5 * (self.lam[:, None] + self.lam[None, :])
            return self.R @ (psi / denom) @ self.R.T
        psi = sigma_mu - dxa * dsa
        return psi / s


class _Ipm:
    def __init__(self, problem: StandardSdp, opts: SolverOptions):
        self.opts = opts
        self.structure = problem.structure
        self.blocks = list(problem.structure)
        self.sense = problem.sense
        sign = 1.0 if problem.sense == MIN else -1.0
        self.c = [sign * np.array(b, dtype=float) for b in problem.objective]
        # one p x d constraint matrix; row j is the concatenation of the raveled
        # blocks of a_j, so a k x k matrix block owns k*k consecutive columns
        self.shapes = [z.shape for z in self.structure.zeros()]
        self.slices = []
        d = 0
        for shape in self.shapes:
            self.slices.append(slice(d, d + int(np.prod(shape))))
            d = self.slices[-1].stop
        self.A = np.array(
            [np.concatenate([np.ravel(b) for b in a]) for a, _ in problem.constraints]
        ).reshape(problem.num_constraints, d)
        self.beta = problem.rhs.copy()
        self.warnings: List[str] = []
        self.cone_idx = [i for i, b in enumerate(self.blocks) if b.kind != FREE]
        self.free_idx = [i for i, b in enumerate(self.blocks) if b.kind == FREE]
        self.nu = self.structure.cone_dim
        self._presolve()
        self.p = self.A.shape[0]
        self.F = self.A[:, [self.slices[i].start for i in self.free_idx]]
        self.beta_scale = 1.0 + (np.max(np.abs(self.beta)) if self.beta.size else 0.0)
        self.c_scale = 1.0 + bv_norm_inf(self.c)
        self.scale = self.beta_scale + self.c_scale

    def _presolve(self):
        """Drop linearly dependent constraint rows; flag inconsistent duplicates."""
        A = self.A
        p = A.shape[0]
        Q = np.zeros_like(A)  # orthonormal basis of the kept rows, first r rows
        r = 0
        keep: List[int] = []
        dropped: List[int] = []
        for j in range(p):
            v = A[j].copy()
            for _ in range(2):  # reorthogonalize once against rounding
                v -= Q[:r].T @ (Q[:r] @ v)
            nv = np.linalg.norm(v)
            if nv > 1e-10 * (1.0 + np.linalg.norm(A[j])):
                Q[r] = v / nv
                r += 1
                keep.append(j)
            else:
                dropped.append(j)
        self.kept_rows = keep
        self.dropped_rows = dropped
        self.inconsistent = False
        if dropped:
            A_keep = A[keep]
            b_keep = self.beta[keep]
            for j in dropped:
                coeff, *_ = np.linalg.lstsq(A_keep.T, A[j], rcond=None)
                if abs(self.beta[j] - coeff @ b_keep) > 1e-8 * (1.0 + np.abs(self.beta).max()):
                    self.inconsistent = True
            self.warnings.append(
                f"presolve removed {len(dropped)} linearly dependent constraint row(s)"
            )
            self.A = A_keep
            self.beta = b_keep

    def _expand_dual(self, y: np.ndarray) -> np.ndarray:
        if not self.dropped_rows:
            return y
        full = np.zeros(len(self.kept_rows) + len(self.dropped_rows))
        full[self.kept_rows] = y
        return full

    def apply_A(self, x) -> np.ndarray:
        return self.A @ np.concatenate([np.ravel(b) for b in x])

    def apply_AT(self, y: np.ndarray):
        v = self.A.T @ y
        return [v[sl].reshape(shape) for sl, shape in zip(self.slices, self.shapes)]

    def _initial_point(self):
        eta = self.opts.initial_centrality
        x = self.structure.identity(eta * self.beta_scale)
        s = self.structure.identity(eta * self.beta_scale)
        for i in self.free_idx:
            s[i] = np.zeros(1)
        y = np.zeros(self.p)
        return x, y, s

    def _cone_inner(self, x, s) -> float:
        return sum(bv_inner([x[i]], [s[i]]) for i in self.cone_idx)

    def _residuals(self, x, y, s):
        r_p = self.beta - self.apply_A(x)
        aty = self.apply_AT(y)
        r_d = [c - a - sv for c, a, sv in zip(self.c, aty, s)]
        return r_p, r_d

    def _debug_weak_duality(self, pobj, dobj, x, y, s, r_p, r_d):
        corr = abs(float(y @ r_p)) + abs(bv_inner(r_d, x))
        slack = pobj - dobj + corr
        if slack < -1e-9 * (1.0 + abs(pobj) + abs(dobj) + corr):
            raise DebugInvariantViolation(
                f"weak duality violated at an iterate: pobj={pobj!r} dobj={dobj!r} corr={corr!r}"
            )

    def _schur(self, scalings):
        p = self.p
        S = np.zeros((p, p))
        for i in self.cone_idx:
            sc = scalings[i]
            Ai = self.A[:, self.slices[i]]
            if self.blocks[i].kind == MATRIX:
                k = self.blocks[i].size
                waw = (sc.W @ Ai.reshape(p, k, k) @ sc.W).reshape(p, -1)
                S += Ai @ waw.T
            else:
                S += (Ai * sc.w2) @ Ai.T
        return S

    def _solve_augmented(self, Maug, rhs):
        try:
            sol = np.linalg.solve(Maug, rhs)
            r = rhs - Maug @ sol
            sol += np.linalg.solve(Maug, r)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(Maug, rhs, rcond=None)
        return sol

    def _direction(self, scalings, Maug, r_p, r_d, g):
        """Newton direction given the per-cone-block g-terms."""
        nf = len(self.free_idx)
        p = self.p
        rhs_top = r_p.copy()
        work = self.structure.zeros()
        for i in self.cone_idx:
            work[i] = g[i] - scalings[i].apply_w(r_d[i])
        rhs_top -= self.apply_A(work)
        if nf:
            rhs = np.concatenate([rhs_top, np.array([r_d[i][0] for i in self.free_idx])])
        else:
            rhs = rhs_top
        sol = self._solve_augmented(Maug, rhs)
        dy = sol[:p]
        aty = self.apply_AT(dy)
        dx = self.structure.zeros()
        ds = self.structure.zeros()
        for i in self.cone_idx:
            ds[i] = r_d[i] - aty[i]
            dx[i] = g[i] - scalings[i].apply_w(ds[i])
            if self.blocks[i].kind == MATRIX:
                dx[i] = 0.5 * (dx[i] + dx[i].T)
        for k, i in enumerate(self.free_idx):
            dx[i] = np.array([sol[p + k]])
        return dx, dy, ds

    def _step_lengths(self, x, s, dx, ds):
        ap = ad = np.inf
        for i in self.cone_idx:
            if self.blocks[i].kind == MATRIX:
                ap = min(ap, _max_step_matrix(x[i], dx[i]))
                ad = min(ad, _max_step_matrix(s[i], ds[i]))
            else:
                ap = min(ap, _max_step_diag(x[i], dx[i]))
                ad = min(ad, _max_step_diag(s[i], ds[i]))
        return ap, ad

    def _check_infeasibility(self, x, y, s):
        """Best-effort Farkas-ray detection once iterates diverge."""
        xnorm = bv_norm_inf(x)
        if xnorm > 1e6 * self.scale:
            q = [xi / xnorm for xi in x]
            cq = bv_inner(self.c, q)
            feas = np.max(np.abs(self.apply_A(q))) if self.p else 0.0
            if cq < -1e-6 and feas <= 1e-6:
                return DUAL_INFEASIBLE, q
        ynorm = float(np.max(np.abs(y))) if y.size else 0.0
        snorm = bv_norm_inf(s)
        zn = max(ynorm, snorm)
        if zn > 1e6 * self.scale:
            yhat = y / zn
            aty = self.apply_AT(yhat)
            resid = max(
                (float(np.max(np.abs(aty[i] + s[i] / zn))) for i in range(len(self.blocks))),
                default=0.0,
            )
            if float(self.beta @ yhat) > 1e-6 and resid <= 1e-6:
                return PRIMAL_INFEASIBLE, yhat
        if max(xnorm, zn) > self.opts.divergence_threshold * self.scale:
            return MAX_ITERATIONS, None
        return None, None

    def run(self) -> SolveResult:
        opts = self.opts
        if self.inconsistent:
            return self._result(
                PRIMAL_INFEASIBLE, self.structure.zeros(), np.zeros(self.p),
                self.structure.zeros(), 0,
            )
        x, y, s = self._initial_point()
        best = (np.inf, bv_copy(x), y.copy(), bv_copy(s), 0)
        it = 0
        status = MAX_ITERATIONS
        ray = None
        for it in range(1, opts.max_iters + 1):
            r_p, r_d = self._residuals(x, y, s)
            pobj = bv_inner(self.c, x)
            dobj = float(self.beta @ y)
            pinf = (np.max(np.abs(r_p)) if r_p.size else 0.0) / self.beta_scale
            dinf = max(
                (np.max(np.abs(r_d[i])) if r_d[i].size else 0.0) for i in range(len(self.blocks))
            ) / self.c_scale
            compl = self._cone_inner(x, s)
            denom = 1.0 + abs(pobj) + abs(dobj)
            relgap = abs(pobj - dobj) / denom
            if opts.debug:
                self._debug_weak_duality(pobj, dobj, x, y, s, r_p, r_d)
            merit = pinf + dinf + relgap
            if merit < best[0]:
                best = (merit, bv_copy(x), y.copy(), bv_copy(s), it)
            if pinf <= opts.tol and dinf <= opts.tol and (
                relgap <= opts.tol or compl / denom <= opts.tol
            ):
                status = OPTIMAL
                break
            det, det_ray = self._check_infeasibility(x, y, s)
            if det == MAX_ITERATIONS:
                self.warnings.append("iterates diverged without a usable Farkas ray")
                status = MAX_ITERATIONS
                break
            if det is not None:
                status, ray = det, det_ray
                break
            try:
                scalings = {
                    i: _ConeScaling(self.blocks[i], x[i], s[i]) for i in self.cone_idx
                }
                S = self._schur(scalings)
                nf = len(self.free_idx)
                if nf:
                    p = self.p
                    Maug = np.zeros((p + nf, p + nf))
                    Maug[:p, :p] = S
                    Maug[:p, p:] = self.F
                    Maug[p:, :p] = self.F.T
                else:
                    Maug = S
                mu = compl / max(self.nu, 1)
                # predictor
                g_aff = {i: -x[i] for i in self.cone_idx}
                dxa, dya, dsa = self._direction(scalings, Maug, r_p, r_d, g_aff)
                apa, ada = self._step_lengths(x, s, dxa, dsa)
                apa, ada = min(1.0, apa), min(1.0, ada)
                xa = [x[i] + apa * dxa[i] for i in range(len(self.blocks))]
                sa = [s[i] + ada * dsa[i] for i in range(len(self.blocks))]
                mu_aff = max(self._cone_inner(xa, sa), 0.0) / max(self.nu, 1)
                sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3) if mu > 0 else 0.0
                # corrector
                g = {
                    i: -x[i]
                    + scalings[i].combine_target(sigma * mu, dxa[i], dsa[i], s[i])
                    for i in self.cone_idx
                }
                dx, dy, ds = self._direction(scalings, Maug, r_p, r_d, g)
                ap, ad = self._step_lengths(x, s, dx, ds)
            except (np.linalg.LinAlgError, FloatingPointError):
                if best[0] < 1e-6:
                    self.warnings.append("stopped at numerical precision limit")
                    status = MAX_ITERATIONS
                else:
                    status = NUMERICAL_FAILURE
                break
            eta = opts.step_fraction
            ap = min(1.0, eta * ap)
            ad = min(1.0, eta * ad)
            if ap < 1e-14 and ad < 1e-14:
                self.warnings.append("step sizes collapsed; stopping early")
                status = MAX_ITERATIONS
                break
            for i in range(len(self.blocks)):
                x[i] = x[i] + ap * dx[i]
                if self.blocks[i].kind == MATRIX:
                    x[i] = 0.5 * (x[i] + x[i].T)
                    s[i] = s[i] + ad * ds[i]
                    s[i] = 0.5 * (s[i] + s[i].T)
                else:
                    s[i] = s[i] + ad * ds[i]
            for i in self.free_idx:
                s[i] = np.zeros(1)
            y = y + ad * dy
            if not all(np.all(np.isfinite(b)) for b in x) or not np.all(np.isfinite(y)):
                status = NUMERICAL_FAILURE
                break
        if status in (MAX_ITERATIONS, NUMERICAL_FAILURE) and best[0] < np.inf:
            _, x, y, s, _ = best
        res = self._result(status, x, y, s, it, ray)
        if res.status in (MAX_ITERATIONS, NUMERICAL_FAILURE):
            denom = 1.0 + abs(res.primal_objective) + abs(res.dual_objective)
            if (
                res.primal_infeas <= opts.tol
                and res.dual_infeas <= opts.tol
                and (
                    abs(res.gap) / denom <= opts.tol
                    or self._cone_inner(res.primal, res.dual_slack) / denom <= opts.tol
                )
            ):
                res.status = OPTIMAL
        return res

    def _result(self, status, x, y, s, iterations, ray=None) -> SolveResult:
        r_p, r_d = self._residuals(x, y, s)
        pobj = bv_inner(self.c, x)
        dobj = float(self.beta @ y)
        pinf = (np.max(np.abs(r_p)) if r_p.size else 0.0) / self.beta_scale
        dinf = max(
            ((np.max(np.abs(r_d[i])) if r_d[i].size else 0.0) for i in range(len(self.blocks))),
            default=0.0,
        ) / self.c_scale
        sign = 1.0 if self.sense == MIN else -1.0
        return SolveResult(
            status=status,
            primal=x,
            dual=self._expand_dual(y),
            dual_slack=s,
            gap=pobj - dobj,
            iterations=iterations,
            value=sign * pobj,
            primal_objective=pobj,
            dual_objective=dobj,
            primal_infeas=float(pinf),
            dual_infeas=float(dinf),
            warnings=list(self.warnings),
            certificate=ray,
        )


def solve(problem: StandardSdp, opts: Optional[SolverOptions] = None) -> SolveResult:
    """Solve a standard-form block SDP; deterministic for fixed inputs and options."""
    return _Ipm(problem, opts or SolverOptions()).run()


def solve_with_certificate(
    problem: StandardSdp, opts: Optional[SolverOptions] = None
) -> SolveResult:
    """Like :func:`solve`, but an infeasibility outcome carries its improving ray
    in the corresponding primal/dual field."""
    res = solve(problem, opts)
    if res.certificate is not None:
        if res.status == DUAL_INFEASIBLE:
            res.primal = res.certificate
        elif res.status == PRIMAL_INFEASIBLE:
            res.dual = np.asarray(res.certificate)
    return res
