"""Primal-dual interior-point solver for block-diagonal standard-form SDPs.

Solves  min/max <c, x>  s.t.  <a_j, x> = beta_j,  x in K,
where K is a product of psd matrix blocks, nonnegative diagonal blocks and
free scalars.  Path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Cholesky factors only x and s, for the scaling;
each Newton direction is one LU solve of the augmented Schur system, plus one
step of iterative refinement once the best merit is below _PRECISION_MERIT.
Free scalars are kept in the Newton system natively rather than split.
Inside a solve the iterate is one flat vector: the matrix blocks, then all
diagonal blocks as one nonnegative orthant, then the free scalars.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .blocks import DIAG, FREE, MATRIX, BlockStructure

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasibleDetected"
DUAL_INFEASIBLE = "DualInfeasibleDetected"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"
STOPPED_EARLY = "StoppedEarly"

MIN = "min"
MAX = "max"

_STEP_FRACTION = 0.98  # least fraction of the step to the cone boundary taken
_DIVERGENCE_THRESHOLD = 1e8  # iterate norm, relative to the data scale, that stops a solve
_PRECISION_MERIT = 1e-6  # best merit below which rounding limits a solve: refine its directions
START_BLEND = 1e-3  # fraction by which a warm start is blended off the cone boundary
MAX_ITERS = 300  # iteration cap of every solve


@dataclass(frozen=True, eq=False)
class StandardSdp:
    """Standard-form block SDP: min/max <objective, x> s.t. A x = b, x in the cone.

    ``objective`` and every row of the p x dim matrix ``A`` are vectors in the
    column layout of ``structure`` (see :class:`BlockStructure`).  Each matrix
    block of the objective and of every row is replaced by its symmetric part
    0.5 (a + a'), which leaves <a, X> unchanged for symmetric X and a symmetric
    block bit for bit; otherwise the dual residual c - A'y - s would keep an
    antisymmetric part that no symmetric s cancels.

    ``A`` is used as given, so it must have full row rank: each builder gives
    every row but at most one, which is nonzero, a column no other row uses.
    """

    structure: BlockStructure
    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sense: str = MIN
    name: str = ""

    def __post_init__(self):
        for key in ("objective", "A", "b"):
            object.__setattr__(self, key, np.array(getattr(self, key), dtype=float))
        if self.sense not in (MIN, MAX):
            raise ValueError("sense must be 'min' or 'max'")
        if self.objective.shape != (self.structure.dim,):
            raise ValueError("objective does not conform to the block structure")
        if self.b.ndim != 1 or self.A.shape != (self.b.size, self.structure.dim):
            raise ValueError("A must be a p x dim matrix with p = len(b)")
        for k, block in enumerate(self.structure):
            if block.kind == MATRIX:
                for v in (self.objective, self.A):
                    a = self.structure.view(v, k)
                    a[...] = 0.5 * (a + a.swapaxes(-1, -2))
        for key in ("objective", "A", "b"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} has a non-finite entry")

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
    certificate: Optional[object] = None  # what the stop test returned, on StoppedEarly


def _chol(a: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (n, k, k) stack of exactly symmetric matrices."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(a)
    for i, m in enumerate(a):
        try:
            out[i] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            # rounding can push an iterate marginally off the cone; nudge once
            eps = 1e-14 * max(1.0, abs(float(np.trace(m))))
            out[i] = np.linalg.cholesky(m + eps * np.eye(m.shape[0]))
    return out


def _step_to_boundary(emin: float) -> float:
    """Largest alpha with I + alpha*E in the cone, given lambda_min(E)."""
    return -1.0 / emin if emin < -1e-14 else np.inf


class _ConeScaling:
    """Nesterov-Todd scaling of a (g, k, k) stack of matrix blocks for one
    iteration: per block, R with R^-1 X R^-T = R' S R = diag(lam), and W = R R'."""

    def __init__(self, x: np.ndarray, s: np.ndarray):
        L = _chol(np.concatenate([x, s]))
        Lx, Ls = L[: len(x)], L[len(x) :]
        U, sig, Vt = np.linalg.svd(Ls.swapaxes(-1, -2) @ Lx)
        if sig.min() <= 0:
            raise np.linalg.LinAlgError("NT scaling broke down")
        isq = 1.0 / np.sqrt(sig)
        self.lam = sig
        self.R = Lx @ (Vt.swapaxes(-1, -2) * isq[:, None, :])
        self.Rinv = (isq[:, :, None] * U.swapaxes(-1, -2)) @ Ls.swapaxes(-1, -2)
        self.W = self.R @ self.R.swapaxes(-1, -2)
        # P = [R^-1; R'] maps the direction [dX; dS] of both sides at once
        self.P = np.concatenate([self.Rinv, self.R.swapaxes(-1, -2)])
        self.isq2 = np.concatenate([isq, isq])  # Lambda^-1/2, once per side
        self.denom = 0.5 * (sig[:, :, None] + sig[:, None, :])

    def scaled_min_eigs(self, d: np.ndarray):
        """The direction d = [dX; dS] of a (2g, k, k) stack in scaled coordinates,
        T = P d P' = [R^-1 dX R^-T; R' dS R], and lambda_min of
        Lambda^-1/2 T Lambda^-1/2 for each of its 2g blocks."""
        t = self.P @ d @ self.P.swapaxes(-1, -2)
        E = self.isq2[:, :, None] * t * self.isq2[:, None, :]
        return t, np.linalg.eigvalsh(0.5 * (E + E.swapaxes(-1, -2)))[:, 0]

    def combine_target(self, sigma_mu: float, t: np.ndarray) -> np.ndarray:
        """g-term of the corrector direction, R T(sigma*mu*I - Hcorr) R', from the
        predictor's scaled direction t = [dX~; dS~]."""
        g, k = self.lam.shape
        dxt, dst = t[:g], t[g:]
        psi = -0.5 * (dxt @ dst + dst @ dxt)
        psi.reshape(g, k * k)[:, :: k + 1] += sigma_mu  # the diagonals
        return self.R @ (psi / self.denom) @ self.R.swapaxes(-1, -2)


class _Layout(NamedTuple):
    """What a solve derives from its block structure alone, in the flat order
    of :class:`_Ipm`.  The arrays are read-only: every solve of the structure
    shares them."""

    perm: np.ndarray  # flat column j is column perm[j] of the structure's layout
    tr: np.ndarray  # v[tr] transposes every matrix block of v
    # (flat slice, g, k) per maximal run of g consecutive matrix blocks of
    # order k: the cone kernels make one batched call per run
    stacks: tuple
    ncone: int
    orth: slice
    free: slice
    nu: int
    e: np.ndarray
    blocks: tuple  # (flat slice, shape) of each block, in the structure's order


@functools.lru_cache(maxsize=64)
def _layout(structure: BlockStructure) -> _Layout:
    """The flat layout of ``structure``, computed once per structure: equal
    structures, such as the SDPs of every pair of one size, share it."""
    blocks = list(structure)
    d = structure.dim
    # permute the columns once into the flat order: matrix blocks, orthant, free
    order = sorted(range(len(blocks)), key=lambda i: (MATRIX, DIAG, FREE).index(blocks[i].kind))
    perm = np.concatenate([np.arange(d)[structure.slices[i]] for i in order])
    stacks = []
    tr = np.arange(d)
    views = [None] * len(blocks)
    pos = 0
    for i in order:
        size = structure.slices[i].stop - structure.slices[i].start
        views[i] = (slice(pos, pos + size), structure.shapes[i])
        if blocks[i].kind == MATRIX:
            k = blocks[i].size
            tr[pos : pos + k * k] = pos + np.arange(k * k).reshape(k, k).T.ravel()
            if stacks and stacks[-1][2] == k:
                sl, g, _ = stacks[-1]
                stacks[-1] = (slice(sl.start, pos + k * k), g + 1, k)
            else:
                stacks.append((slice(pos, pos + k * k), 1, k))
        pos += size
    ncone = d - sum(b.kind == FREE for b in blocks)
    e = structure.flat(structure.identity())[perm]
    for a in (perm, tr, e):
        a.flags.writeable = False
    return _Layout(
        perm, tr, tuple(stacks), ncone, slice(stacks[-1][0].stop if stacks else 0, ncone),
        slice(ncone, d), structure.cone_dim, e, tuple(views),
    )


class _Ipm:
    """One solve.  The iterate x, s is one float vector over the columns of the
    p x d constraint matrix A, ordered as the matrix blocks (each raveled),
    then every diag block as one nonnegative orthant, then the free scalars."""

    def __init__(self, problem: StandardSdp, tol: float):
        if not 0 < tol < np.inf:
            raise ValueError("tol must be finite and positive")
        self.tol = tol
        self.structure = structure = problem.structure
        self.sense = problem.sense
        sign = 1.0 if problem.sense == MIN else -1.0
        self.beta = problem.b.copy()
        self.warnings: List[str] = []
        self.layout = lay = _layout(structure)
        self.perm, self.tr, self.stacks, self.e = lay.perm, lay.tr, lay.stacks, lay.e
        self.ncone, self.orth, self.free, self.nu = lay.ncone, lay.orth, lay.free, lay.nu
        self.p = problem.num_constraints
        self.A = problem.A[:, self.perm]
        # augmented Newton matrix [[S, F], [F', 0]]; F is the free columns of A
        # and the Schur complement S is written into it at every iteration
        F = self.A[:, self.free]
        self.Maug = np.zeros((self.p + F.shape[1],) * 2)
        self.Maug[: self.p, self.p :], self.Maug[self.p :, : self.p] = F, F.T
        # views of A on the orthant and per stack: a contiguous copy would send
        # the Schur GEMMs down another BLAS path and change the results
        self.A_o = self.A[:, self.orth]
        self.A_stacks = [self.A[:, sl].reshape(self.p, g, k, k) for sl, g, k in self.stacks]
        self.c = sign * problem.objective[self.perm]
        self.beta_scale = 1.0 + (np.max(np.abs(self.beta)) if self.beta.size else 0.0)
        self.c_scale = 1.0 + float(np.max(np.abs(self.c)))
        self.scale = self.beta_scale + self.c_scale

    def _flat(self, v) -> np.ndarray:
        """Block list -> flat vector."""
        return self.structure.flat(v)[self.perm]

    def _blocks(self, v: np.ndarray) -> list:
        """Flat vector -> block list of views of v."""
        return [v[sl].reshape(shape) for sl, shape in self.layout.blocks]

    def _residuals(self, x, y, s):
        return self.beta - self.A @ x, self.c - self.A.T @ y - s

    def _infeasibilities(self, r_p, r_d):
        pinf = (abs(r_p).max() if r_p.size else 0.0) / self.beta_scale
        return float(pinf), float(abs(r_d).max()) / self.c_scale

    def _converged(self, pinf, dinf, pobj, dobj, compl) -> bool:
        """Both infeasibilities, and the gap or the complementarity relative to
        1 + |pobj| + |dobj|, are at most tol."""
        tol = self.tol
        denom = 1.0 + abs(pobj) + abs(dobj)
        return pinf <= tol and dinf <= tol and (abs(pobj - dobj) / denom <= tol or compl / denom <= tol)

    def _scalings(self, x, s):
        """NT scaling of each stack of matrix blocks, and w2 = x/s on the orthant."""
        nt = [
            _ConeScaling(x[sl].reshape(g, k, k), s[sl].reshape(g, k, k))
            for sl, g, k in self.stacks
        ]
        return nt, x[self.orth] / s[self.orth]

    def _apply_w(self, scalings, u):
        """W U W on each matrix block, w2 * u on the orthant, 0 on the free scalars."""
        nt, w2 = scalings
        out = np.zeros(u.shape)
        for (sl, g, k), sc in zip(self.stacks, nt):
            out[sl] = (sc.W @ u[sl].reshape(g, k, k) @ sc.W).ravel()
        out[self.orth] = w2 * u[self.orth]
        return out

    def _schur(self, scalings):
        nt, w2 = scalings
        p = self.p
        S = (self.A_o * w2) @ self.A_o.T
        for (_, _, k), Ai, sc in zip(self.stacks, self.A_stacks, nt):
            waw = sc.W @ Ai @ sc.W
            # one GEMM per block keeps the sum over blocks in a fixed order
            for b in range(Ai.shape[1]):
                S += Ai[:, b].reshape(p, k * k) @ waw[:, b].reshape(p, k * k).T
        return S

    def _solve_augmented(self, rhs, refine):
        Maug = self.Maug
        try:
            sol = np.linalg.solve(Maug, rhs)
            if refine:
                sol += np.linalg.solve(Maug, rhs - Maug @ sol)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(Maug, rhs, rcond=None)
        return sol

    def _direction(self, scalings, r_p, r_d, wrd, g, refine):
        """Newton direction given the g-term g, which is 0 on the free scalars,
        and wrd = W r_d W; ``refine`` adds one iterative-refinement solve."""
        p = self.p
        rhs = np.concatenate([r_p - self.A @ (g - wrd), r_d[self.free]])
        sol = self._solve_augmented(rhs, refine)
        dy = sol[:p]
        ds = r_d - self.A.T @ dy
        ds[self.free] = 0.0
        dx = g - self._apply_w(scalings, ds)
        dx = 0.5 * (dx + dx[self.tr])
        dx[self.free] = sol[p:]
        return dx, dy, ds

    def _step_lengths(self, scalings, x, s, dx, ds):
        """Largest steps that keep x + ap*dx and s + ad*ds in the cone, and the
        direction [dX; dS] of each stack of matrix blocks in NT-scaled coordinates."""
        nt, _ = scalings
        o = self.orth
        ep = float((dx[o] / x[o]).min(initial=0.0))
        ed = float((ds[o] / s[o]).min(initial=0.0))
        scaled = []
        for (sl, g, k), sc in zip(self.stacks, nt):
            t, emin = sc.scaled_min_eigs(np.concatenate([dx[sl], ds[sl]]).reshape(2 * g, k, k))
            ep = min(ep, emin[:g].min())
            ed = min(ed, emin[g:].min())
            scaled.append(t)
        return _step_to_boundary(ep), _step_to_boundary(ed), scaled

    def _check_infeasibility(self, x, y, s) -> Optional[str]:
        """Best-effort Farkas-ray detection once iterates diverge: a final status or None."""
        xnorm = float(abs(x).max())
        if xnorm > 1e6 * self.scale:
            q = x / xnorm
            feas = abs(self.A @ q).max() if self.p else 0.0
            if self.c @ q < -1e-6 and feas <= 1e-6:
                return DUAL_INFEASIBLE
        ynorm = float(abs(y).max()) if y.size else 0.0
        zn = max(ynorm, float(abs(s).max()))
        if zn > 1e6 * self.scale:
            yhat = y / zn
            resid = float(abs(self.A.T @ yhat + s / zn).max())
            if float(self.beta @ yhat) > 1e-6 and resid <= 1e-6:
                return PRIMAL_INFEASIBLE
        if max(xnorm, zn) > _DIVERGENCE_THRESHOLD * self.scale:
            self.warnings.append("iterates diverged without a usable Farkas ray")
            return MAX_ITERATIONS
        return None

    def run(self, stop: Optional[Callable[[list], object]] = None, start=None) -> SolveResult:
        nc = self.ncone
        if start is None:
            x = self.beta_scale * self.e
            s = x.copy()
            y = np.zeros(self.p)
        else:
            x, s = (self._flat(v) for v in (start[0], start[2]))
            x, s = 0.5 * (x + x[self.tr]), 0.5 * (s + s[self.tr])
            s[self.free] = 0.0
            y = np.array(start[1], dtype=float)
            if y.shape != (self.p,):
                raise ValueError("the start's y does not conform to the constraints")
        best = (np.inf, x, y, s)
        status = MAX_ITERATIONS
        certificate = None
        for it in range(1, MAX_ITERS + 1):
            r_p, r_d = self._residuals(x, y, s)
            pobj = float(self.c @ x)
            dobj = float(self.beta @ y)
            pinf, dinf = self._infeasibilities(r_p, r_d)
            compl = float(x[:nc] @ s[:nc])
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            merit = pinf + dinf + relgap
            if merit < best[0]:
                best = (merit, x, y, s)  # iterates are replaced, never updated in place
            if self._converged(pinf, dinf, pobj, dobj, compl):
                status = OPTIMAL
                break
            payload = None if stop is None else stop(self._blocks(x))
            if payload:
                self.warnings.append(f"stopped early: the stop test accepted iteration {it}")
                status, certificate = STOPPED_EARLY, payload
                break
            det = self._check_infeasibility(x, y, s)
            if det is not None:
                status = det
                break
            try:
                scalings = self._scalings(x, s)
                self.Maug[: self.p, : self.p] = self._schur(scalings)
                wrd = self._apply_w(scalings, r_d)
                mu = compl / max(self.nu, 1)
                refine = best[0] < _PRECISION_MERIT
                # predictor
                g = -x
                g[self.free] = 0.0
                dxa, dya, dsa = self._direction(scalings, r_p, r_d, wrd, g, refine)
                apa, ada, scaled = self._step_lengths(scalings, x, s, dxa, dsa)
                apa, ada = min(1.0, apa), min(1.0, ada)
                xa = x[:nc] + apa * dxa[:nc]
                sa = s[:nc] + ada * dsa[:nc]
                mu_aff = max(float(xa @ sa), 0.0) / max(self.nu, 1)
                sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3) if mu > 0 else 0.0
                # corrector
                o = self.orth
                g[o] += (sigma * mu - dxa[o] * dsa[o]) / s[o]
                for (sl, _, _), sc, t in zip(self.stacks, scalings[0], scaled):
                    g[sl] += sc.combine_target(sigma * mu, t).ravel()
                dx, dy, ds = self._direction(scalings, r_p, r_d, wrd, g, refine)
                ap, ad, _ = self._step_lengths(scalings, x, s, dx, ds)
            except (np.linalg.LinAlgError, FloatingPointError):
                if best[0] < _PRECISION_MERIT:
                    self.warnings.append("stopped at numerical precision limit")
                    status = MAX_ITERATIONS
                else:
                    status = NUMERICAL_FAILURE
                break
            # a feasible iterate backs off from the boundary only by the
            # predictor's predicted reduction mu_aff / mu, when that is below 0.02
            frac = _STEP_FRACTION
            if pinf <= self.tol and dinf <= self.tol and mu > 0:
                frac = max(frac, 1.0 - mu_aff / mu)
            ap = min(1.0, frac * ap)
            ad = min(1.0, frac * ad)
            if ap < 1e-14 and ad < 1e-14:
                self.warnings.append("step sizes collapsed; stopping early")
                status = MAX_ITERATIONS
                break
            x = x + ap * dx  # exactly symmetric, as dx is
            s = s + ad * ds
            s = 0.5 * (s + s[self.tr])
            y = y + ad * dy
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                status = NUMERICAL_FAILURE
                break
        # the best iterate failed the convergence test at its own iteration,
        # so falling back to it never makes a solve Optimal
        if status in (MAX_ITERATIONS, NUMERICAL_FAILURE) and best[0] < np.inf:
            _, x, y, s = best
        return self._result(status, x, y, s, it, certificate)

    def _result(self, status, x, y, s, iterations, certificate) -> SolveResult:
        r_p, r_d = self._residuals(x, y, s)
        pobj = float(self.c @ x)
        dobj = float(self.beta @ y)
        pinf, dinf = self._infeasibilities(r_p, r_d)
        sign = 1.0 if self.sense == MIN else -1.0
        return SolveResult(
            status=status,
            primal=self._blocks(x),
            dual=y,
            dual_slack=self._blocks(s),
            gap=pobj - dobj,
            iterations=iterations,
            value=sign * pobj,
            primal_objective=pobj,
            dual_objective=dobj,
            primal_infeas=pinf,
            dual_infeas=dinf,
            warnings=list(self.warnings),
            certificate=certificate,
        )


def solve(
    problem: StandardSdp,
    tol: float = 1e-8,
    stop: Optional[Callable[[list], object]] = None,
    start: Optional[tuple] = None,
) -> SolveResult:
    """Solve a standard-form block SDP to tolerance ``tol`` within
    ``MAX_ITERS`` iterations; deterministic for fixed inputs.

    ``stop(primal_blocks)``, when given, sees the primal iterate of every
    iteration that has not converged, as a block list in the layout of
    ``problem.structure``.  The blocks are views of the live iterate, so the
    test must not write into them.  When it returns a true value the solve
    ends with that iterate (not the best one seen) and the status
    ``StoppedEarly``, and the value comes back as
    ``SolveResult.certificate``, else None.  A Farkas status carries no ray:
    the result holds the diverged iterate.

    ``start = (x_blocks, y, s_blocks)``, when given, is the initial iterate in
    place of the scaled identity, laid out as ``primal``, ``dual`` and
    ``dual_slack`` of a :class:`SolveResult`: x and s strictly inside the
    cone and one y per constraint row.  Its matrix blocks are symmetrized and
    s is taken as 0 on the free scalars, as in every iterate.  The
    convergence test is the same from any start, so a start near the
    solution only saves iterations.
    """
    return _Ipm(problem, tol).run(stop, start)
