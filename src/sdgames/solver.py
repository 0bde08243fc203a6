"""Primal-dual interior-point solver for block-diagonal standard-form SDPs.

Solves  min/max <c, x>  s.t.  <a_j, x> = beta_j,  x in K,
where K is a product of psd matrix blocks, nonnegative diagonal blocks and
free scalars.  Path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step; dense Cholesky/LU on the (augmented) Schur system.
Free scalars are kept in the Newton system natively rather than split.
Inside a solve the iterate is one flat vector: the matrix blocks, then all
diagonal blocks as one nonnegative orthant, then the free scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .blocks import DIAG, FREE, MATRIX, BlockStructure

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


@dataclass(frozen=True, eq=False)
class StandardSdp:
    """Standard-form block SDP: min/max <objective, x> s.t. A x = b, x in the cone.

    ``objective`` and every row of the p x dim matrix ``A`` are vectors in the
    column layout of ``structure`` (see :class:`BlockStructure`).
    """

    structure: BlockStructure
    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sense: str = MIN
    name: str = ""

    def __post_init__(self):
        for key in ("objective", "A", "b"):
            v = np.array(getattr(self, key), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{key} has a non-finite entry")
            object.__setattr__(self, key, v)
        if self.sense not in (MIN, MAX):
            raise ValueError("sense must be 'min' or 'max'")
        if self.objective.shape != (self.structure.dim,):
            raise ValueError("objective does not conform to the block structure")
        if self.b.ndim != 1 or self.A.shape != (self.b.size, self.structure.dim):
            raise ValueError("A must be a p x dim matrix with p = len(b)")

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]


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


def _min_eig_scaled(t: np.ndarray, lam: np.ndarray) -> float:
    """lambda_min of Lambda^-1/2 T Lambda^-1/2 for a direction T in NT-scaled
    coordinates, where the iterate itself is Lambda = diag(lam)."""
    isq = 1.0 / np.sqrt(lam)
    E = isq[:, None] * t * isq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])


def _step_to_boundary(emin: float) -> float:
    """Largest alpha with I + alpha*E in the cone, given lambda_min(E)."""
    return -1.0 / emin if emin < -1e-14 else np.inf


class _ConeScaling:
    """Nesterov-Todd scaling of one matrix block for one iteration:
    R with R^-1 X R^-T = R' S R = diag(lam), and W = R R'."""

    def __init__(self, x: np.ndarray, s: np.ndarray):
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

    def scaled(self, dx: np.ndarray, ds: np.ndarray):
        """The direction (R^-1 dX R^-T, R' dS R) in scaled coordinates."""
        return self.Rinv @ dx @ self.Rinv.T, self.R.T @ ds @ self.R

    def combine_target(self, sigma_mu: float, dxt: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """g-term of the corrector direction, R T(sigma*mu*I - Hcorr) R', from the
        predictor's scaled direction."""
        H = 0.5 * (dxt @ dst + dst @ dxt)
        psi = -H
        np.fill_diagonal(psi, psi.diagonal() + sigma_mu)
        denom = 0.5 * (self.lam[:, None] + self.lam[None, :])
        return self.R @ (psi / denom) @ self.R.T


class _Ipm:
    """One solve.  The iterate x, s is one float vector over the columns of the
    p x d constraint matrix A, ordered as the matrix blocks (each raveled),
    then every diag block as one nonnegative orthant, then the free scalars."""

    def __init__(self, problem: StandardSdp, opts: SolverOptions):
        self.opts = opts
        self.structure = structure = problem.structure
        self.sense = problem.sense
        sign = 1.0 if problem.sense == MIN else -1.0
        blocks = list(structure)
        d = structure.dim
        self.A = problem.A
        self.beta = problem.b.copy()
        self.warnings: List[str] = []
        self.nu = structure.cone_dim
        self._presolve()
        self.p = self.A.shape[0]
        # permute the columns once into the flat order: matrix blocks, orthant, free
        order = sorted(range(len(blocks)), key=lambda i: (MATRIX, DIAG, FREE).index(blocks[i].kind))
        self.perm = np.concatenate([np.arange(d)[structure.slices[i]] for i in order])
        self.A = self.A[:, self.perm]
        self.mats = []  # (flat slice, order) per matrix block
        self.tr = np.arange(d)  # v[self.tr] transposes every matrix block of v
        pos = 0
        for i in order:
            if blocks[i].kind == MATRIX:
                k = blocks[i].size
                sl = slice(pos, pos + k * k)
                self.mats.append((sl, k))
                self.tr[sl] = pos + np.arange(k * k).reshape(k, k).T.ravel()
            pos += structure.slices[i].stop - structure.slices[i].start
        self.ncone = d - sum(b.kind == FREE for b in blocks)
        self.orth = slice(self.mats[-1][0].stop if self.mats else 0, self.ncone)
        self.free = slice(self.ncone, d)
        # augmented Newton matrix [[S, F], [F', 0]]; F is the free columns of A
        # and the Schur complement S is written into it at every iteration
        F = self.A[:, self.free]
        self.Maug = np.block([[np.zeros((self.p, self.p)), F], [F.T, np.zeros((F.shape[1],) * 2)]])
        self.c = sign * problem.objective[self.perm]
        self.e = self._flat(structure.identity())
        self.beta_scale = 1.0 + (np.max(np.abs(self.beta)) if self.beta.size else 0.0)
        self.c_scale = 1.0 + float(np.max(np.abs(self.c)))
        self.scale = self.beta_scale + self.c_scale

    def _flat(self, v) -> np.ndarray:
        """Block list -> flat vector."""
        return self.structure.flat(v)[self.perm]

    def _blocks(self, v: np.ndarray) -> list:
        """Flat vector -> block list."""
        u = np.empty_like(v)
        u[self.perm] = v
        return self.structure.split(u)

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

    def _residuals(self, x, y, s):
        return self.beta - self.A @ x, self.c - self.A.T @ y - s

    def _infeasibilities(self, r_p, r_d):
        pinf = (np.max(np.abs(r_p)) if r_p.size else 0.0) / self.beta_scale
        return float(pinf), float(np.max(np.abs(r_d))) / self.c_scale

    def _debug_weak_duality(self, pobj, dobj, x, y, r_p, r_d):
        corr = abs(float(y @ r_p)) + abs(float(r_d @ x))
        slack = pobj - dobj + corr
        if slack < -1e-9 * (1.0 + abs(pobj) + abs(dobj) + corr):
            raise DebugInvariantViolation(
                f"weak duality violated at an iterate: pobj={pobj!r} dobj={dobj!r} corr={corr!r}"
            )

    def _scalings(self, x, s):
        """NT scaling of each matrix block, and w2 = x/s on the orthant."""
        nt = [_ConeScaling(x[sl].reshape(k, k), s[sl].reshape(k, k)) for sl, k in self.mats]
        return nt, x[self.orth] / s[self.orth]

    def _apply_w(self, scalings, u):
        """W U W on each matrix block, w2 * u on the orthant, 0 on the free scalars."""
        nt, w2 = scalings
        out = np.zeros_like(u)
        for (sl, k), sc in zip(self.mats, nt):
            out[sl] = (sc.W @ u[sl].reshape(k, k) @ sc.W).ravel()
        out[self.orth] = w2 * u[self.orth]
        return out

    def _schur(self, scalings):
        nt, w2 = scalings
        p = self.p
        A_o = self.A[:, self.orth]
        S = (A_o * w2) @ A_o.T
        for (sl, k), sc in zip(self.mats, nt):
            Ai = self.A[:, sl]
            waw = (sc.W @ Ai.reshape(p, k, k) @ sc.W).reshape(p, -1)
            S += Ai @ waw.T
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
        """Newton direction given the g-term g, which is 0 on the free scalars."""
        p = self.p
        rhs = np.concatenate(
            [r_p - self.A @ (g - self._apply_w(scalings, r_d)), r_d[self.free]]
        )
        sol = self._solve_augmented(Maug, rhs)
        dy = sol[:p]
        ds = r_d - self.A.T @ dy
        ds[self.free] = 0.0
        dx = g - self._apply_w(scalings, ds)
        dx = 0.5 * (dx + dx[self.tr])
        dx[self.free] = sol[p:]
        return dx, dy, ds

    def _step_lengths(self, scalings, x, s, dx, ds):
        """Largest steps that keep x + ap*dx and s + ad*ds in the cone, and the
        direction of each matrix block in NT-scaled coordinates."""
        nt, _ = scalings
        o = self.orth
        ep = float(np.min(dx[o] / x[o], initial=0.0))
        ed = float(np.min(ds[o] / s[o], initial=0.0))
        pairs = []
        for (sl, k), sc in zip(self.mats, nt):
            dxt, dst = sc.scaled(dx[sl].reshape(k, k), ds[sl].reshape(k, k))
            ep = min(ep, _min_eig_scaled(dxt, sc.lam))
            ed = min(ed, _min_eig_scaled(dst, sc.lam))
            pairs.append((dxt, dst))
        return _step_to_boundary(ep), _step_to_boundary(ed), pairs

    def _check_infeasibility(self, x, y, s):
        """Best-effort Farkas-ray detection once iterates diverge."""
        xnorm = float(np.max(np.abs(x)))
        if xnorm > 1e6 * self.scale:
            q = x / xnorm
            feas = np.max(np.abs(self.A @ q)) if self.p else 0.0
            if self.c @ q < -1e-6 and feas <= 1e-6:
                return DUAL_INFEASIBLE, q
        ynorm = float(np.max(np.abs(y))) if y.size else 0.0
        zn = max(ynorm, float(np.max(np.abs(s))))
        if zn > 1e6 * self.scale:
            yhat = y / zn
            resid = float(np.max(np.abs(self.A.T @ yhat + s / zn)))
            if float(self.beta @ yhat) > 1e-6 and resid <= 1e-6:
                return PRIMAL_INFEASIBLE, yhat
        if max(xnorm, zn) > self.opts.divergence_threshold * self.scale:
            return MAX_ITERATIONS, None
        return None, None

    def run(self) -> SolveResult:
        opts = self.opts
        nc = self.ncone
        if self.inconsistent:
            d = self.A.shape[1]
            return self._result(PRIMAL_INFEASIBLE, np.zeros(d), np.zeros(self.p), np.zeros(d), 0)
        x = (opts.initial_centrality * self.beta_scale) * self.e
        s = x.copy()
        y = np.zeros(self.p)
        best = (np.inf, x, y, s, 0)
        it = 0
        status = MAX_ITERATIONS
        ray = None
        for it in range(1, opts.max_iters + 1):
            r_p, r_d = self._residuals(x, y, s)
            pobj = float(self.c @ x)
            dobj = float(self.beta @ y)
            pinf, dinf = self._infeasibilities(r_p, r_d)
            compl = float(x[:nc] @ s[:nc])
            denom = 1.0 + abs(pobj) + abs(dobj)
            relgap = abs(pobj - dobj) / denom
            if opts.debug:
                self._debug_weak_duality(pobj, dobj, x, y, r_p, r_d)
            merit = pinf + dinf + relgap
            if merit < best[0]:
                best = (merit, x, y, s, it)  # iterates are replaced, never updated in place
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
                scalings = self._scalings(x, s)
                Maug = self.Maug
                Maug[: self.p, : self.p] = self._schur(scalings)
                mu = compl / max(self.nu, 1)
                # predictor
                g = -x
                g[self.free] = 0.0
                dxa, dya, dsa = self._direction(scalings, Maug, r_p, r_d, g)
                apa, ada, pairs = self._step_lengths(scalings, x, s, dxa, dsa)
                apa, ada = min(1.0, apa), min(1.0, ada)
                xa = x[:nc] + apa * dxa[:nc]
                sa = s[:nc] + ada * dsa[:nc]
                mu_aff = max(float(xa @ sa), 0.0) / max(self.nu, 1)
                sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3) if mu > 0 else 0.0
                # corrector
                o = self.orth
                g[o] += (sigma * mu - dxa[o] * dsa[o]) / s[o]
                for (sl, _), sc, (dxt, dst) in zip(self.mats, scalings[0], pairs):
                    g[sl] += sc.combine_target(sigma * mu, dxt, dst).ravel()
                dx, dy, ds = self._direction(scalings, Maug, r_p, r_d, g)
                ap, ad, _ = self._step_lengths(scalings, x, s, dx, ds)
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
            x = x + ap * dx
            x = 0.5 * (x + x[self.tr])
            s = s + ad * ds
            s = 0.5 * (s + s[self.tr])
            y = y + ad * dy
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
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
                    or float(x[:nc] @ s[:nc]) / denom <= opts.tol
                )
            ):
                res.status = OPTIMAL
        return res

    def _result(self, status, x, y, s, iterations, ray=None) -> SolveResult:
        r_p, r_d = self._residuals(x, y, s)
        pobj = float(self.c @ x)
        dobj = float(self.beta @ y)
        pinf, dinf = self._infeasibilities(r_p, r_d)
        sign = 1.0 if self.sense == MIN else -1.0
        if status == DUAL_INFEASIBLE:
            ray = self._blocks(ray)
        return SolveResult(
            status=status,
            primal=self._blocks(x),
            dual=self._expand_dual(y),
            dual_slack=self._blocks(s),
            gap=pobj - dobj,
            iterations=iterations,
            value=sign * pobj,
            primal_objective=pobj,
            dual_objective=dobj,
            primal_infeas=pinf,
            dual_infeas=dinf,
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
