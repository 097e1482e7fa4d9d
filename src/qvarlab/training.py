"""Joint training of measurement eigenvalues and circuit angles.

The objective is a weighted sum of the least-squares regression error of the
predicted labels and the total readout variance over the training states.
Both the eigenvalues lambda and the circuit angles theta enter one flat
parameter vector optimized by a quasi-Newton descent with backtracking line
search; each restart first pre-optimizes theta alone to spread the training
states' outcome distributions apart, which keeps the joint phase out of
split-sector basins. All derivatives are central finite differences; the
engine below makes them cheap by caching per-gate snapshots so that a
shifted angle only recomputes the circuit suffix that depends on it, and by
building each circuit step's operator (circuits.Circuit.steps) once per theta,
so that a probe rebuilds only the steps reading the shifted slot. Both are
bitwise identical to a full re-evaluation, since the reused prefix and
operators are the same floats either way. A probe of a slot inside a diagonal
run resumes from the state before the run.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, apply_circuit, apply_circuit_trace, step_operator
from .fisher import StateFamily
from .observables import ensemble_outcomes, moments
from .states import Ensemble, LabeledState

ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
CURVATURE_FLOOR = 1e-10
WARMUP_MAX_ITERS = 200
GRAD_STEP = 1e-5
CONV_TOL = 1e-7


@dataclass(frozen=True)
class TrainSet:
    """Ordered labeled states sharing one dimension."""

    items: tuple[LabeledState, ...]

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if len(items) < 2:
            raise ValueError("a training set needs at least 2 items")
        dims = {it.dim for it in items}
        if len(dims) != 1:
            raise ValueError(f"items mix dimensions {sorted(dims)}")

    @property
    def labels(self) -> np.ndarray:
        return np.array([it.label for it in self.items])

    @property
    def dim(self) -> int:
        return self.items[0].dim

    @cached_property
    def ensembles(self) -> tuple[Ensemble, ...]:
        """Every item as weighted pure rows plus white noise, computed once per set.

        Each is the item's LabeledState.ensemble: a pure item's one row, or
        a mixed item's own ensemble (a MixtureModel item's closed form, whose
        rows every item of the set shares).
        """
        return tuple(it.ensemble() for it in self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class TrainConfig:
    """Objective weights and optimizer knobs."""

    w_ls: float = 1.0
    w_var: float = 1e-4
    seed: int = 0
    restarts: int = 5
    max_iters: int = 500

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.w_ls < np.inf:
            raise ValueError("w_ls must be positive and finite")
        if not 0 <= self.w_var < np.inf:
            raise ValueError("w_var must be nonnegative and finite")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class TrainResult:
    """Best restart of a training run."""

    lambdas: np.ndarray
    theta: np.ndarray
    loss_history: tuple[float, ...]
    converged: bool
    restart_losses: tuple[float, ...]

    @property
    def loss(self) -> float:
        return self.loss_history[-1]


def make_trainset(family: StateFamily, count: int, lo: float, hi: float) -> TrainSet:
    """Equidistant labels in [lo, hi] inclusive, evaluated on the family."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if lo >= hi:
        raise ValueError("lo must be below hi")
    labels = np.linspace(lo, hi, count)
    return TrainSet(items=tuple(family.state(a) for a in labels))


class _Engine:
    """Shared-state evaluator for one (circuit, m, trainset) triple.

    Every item is written as weighted pure rows plus a white-noise weight
    (TrainSet.ensembles, computed once per train set): a pure item is one row
    of weight 1, a MixtureModel item two rows, and I/d none. Rows that several
    items share, by their exact bytes, are kept once, so a mixture train set
    of any size is two rows; pure items keep one row each, in order. The
    distinct rows go through the circuit as one batch; item i's outcome
    distribution is mix[i] applied to their marginals plus its noise weight
    spread evenly over the outcomes, since U I U^dag = I. A Naimark-embedded
    mixture (cli._embed_item) shares its noise rows e_j x |0...0> the same
    way. The per-gate snapshot trace and the step operators of the last full
    evaluation are kept, keyed by theta, so that finite-difference probes
    resume from the first gate an angle touches and rebuild only the
    operators of the steps that read it.
    """

    def __init__(self, circuit: Circuit, m: int, trainset: TrainSet):
        if not 1 <= m <= circuit.n:
            raise ValueError(f"m={m} must lie in 1..{circuit.n}")
        if trainset.dim != 2**circuit.n:
            raise ValueError("trainset dimension does not match the circuit")
        self.circuit = circuit
        self.m = m
        self.labels = trainset.labels
        parts = trainset.ensembles
        # each distinct row (by its exact bytes) is evolved once, in order of
        # first occurrence; mix[i, u] is item i's total weight on row u
        unique = {}
        for e in parts:
            for row in e.rows:
                unique.setdefault(row.tobytes(), row)
        index = {key: u for u, key in enumerate(unique)}
        self.batch0 = np.array(list(unique.values()), dtype=complex).reshape(-1, trainset.dim)
        self.mix = np.zeros((len(parts), len(unique)))
        for i, e in enumerate(parts):
            for w, row in zip(e.weights, e.rows):
                self.mix[i, index[row.tobytes()]] += w
        self.noise = np.array([[e.noise] for e in parts])
        readers = [[] for _ in range(circuit.param_count)]
        step_of = [i for i, (lo, hi, *_) in enumerate(circuit.steps) for _ in range(lo, hi)]
        for k, g in enumerate(circuit.gates):
            for s in set(g.slots):
                readers[s].append(k)
        # first gate reading each slot; slots no gate reads keep len(gates) so
        # a probe there skips the circuit entirely
        self.first_gate = [r[0] if r else len(circuit.gates) for r in readers]
        # steps whose operator a probe of each slot rebuilds; a qcnn slot is
        # shared within a level, u3/cu3 read three, a run reads one per gate
        self.slot_steps = [sorted({step_of[k] for k in r}) for r in readers]
        self._theta = None
        self._ops = None
        self._trace = None

    def _probs_from_batch(self, batch: np.ndarray) -> np.ndarray:
        p = ensemble_outcomes(batch, self.mix, self.noise, self.m)
        return np.clip(p, 0.0, None)

    def probs(self, theta: np.ndarray) -> np.ndarray:
        """Full evaluation; refreshes the step operators and the snapshot trace."""
        # drop the old trace first, so that two never coexist
        self._trace = None
        self._ops = [step_operator(self.circuit, i, theta) for i in range(len(self.circuit.steps))]
        self._trace = apply_circuit_trace(self.circuit, theta, self.batch0, ops=self._ops)
        self._theta = np.array(theta, copy=True)
        return self._probs_from_batch(self._trace[-1])

    def probs_shift(self, slot: int, value: float) -> np.ndarray:
        """Probabilities with one angle replaced, resuming from the cache.

        Only the operators of the steps reading the slot are rebuilt; every
        other step reuses the operator of the last full evaluation.
        """
        start = self.first_gate[slot]
        theta = np.array(self._theta, copy=True)
        theta[slot] = value
        ops = list(self._ops)
        for i in self.slot_steps[slot]:
            ops[i] = step_operator(self.circuit, i, theta)
        batch = apply_circuit(self.circuit, theta, self._trace[start], start=start, ops=ops)
        return self._probs_from_batch(batch)


def _loss_terms(
    probs: np.ndarray, labels: np.ndarray, lambdas: np.ndarray, config: TrainConfig
) -> float:
    pred, var = moments(probs, lambdas)
    ls = np.sum((labels - pred) ** 2)
    return float(config.w_ls * ls + config.w_var * np.sum(var))


def _engine_loss(engine, lambdas, theta, config) -> float:
    return _loss_terms(engine.probs(theta), engine.labels, lambdas, config)


def _theta_gradient(engine, theta, objective) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities at theta and the central-FD theta gradient of objective(probs).

    One full evaluation at theta, then two probes per component, each
    resuming from the cached snapshot before the first gate reading that slot.
    """
    h = GRAD_STEP
    p0 = engine.probs(theta)
    grad = np.empty(len(theta))
    for s in range(len(theta)):
        fp = objective(engine.probs_shift(s, theta[s] + h))
        fm = objective(engine.probs_shift(s, theta[s] - h))
        grad[s] = (fp - fm) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite objective encountered during gradient")
    return p0, grad


def _engine_gradient(engine, lambdas, theta, config) -> np.ndarray:
    """Central FD over the concatenated (lambda, theta) vector.

    Probabilities do not depend on lambda, so the lambda block reuses the
    probabilities of the base point.
    """
    h = GRAD_STEP
    p0, grad_theta = _theta_gradient(
        engine, theta, lambda p: _loss_terms(p, engine.labels, lambdas, config)
    )
    grad = np.empty(len(lambdas))
    for i in range(len(lambdas)):
        lp = np.array(lambdas, copy=True)
        lm = np.array(lambdas, copy=True)
        lp[i] += h
        lm[i] -= h
        fp = _loss_terms(p0, engine.labels, lp, config)
        fm = _loss_terms(p0, engine.labels, lm, config)
        grad[i] = (fp - fm) / (2.0 * h)
    return np.concatenate([grad, grad_theta])


def _public_engine(lambdas, theta, trainset, circuit, m):
    """Checked (engine, lambdas, theta) for the one-shot loss and gradient."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (2**m,):
        raise ValueError(f"lambdas must have length {2**m}")
    return _Engine(circuit, m, trainset), lambdas, np.asarray(theta, dtype=float)


def loss(
    lambdas: np.ndarray,
    theta: np.ndarray,
    trainset: TrainSet,
    config: TrainConfig,
    circuit: Circuit,
    m: int,
) -> float:
    """Objective w_ls * sum_j (label_j - <M>_j)^2 + w_var * sum_j Var_j."""
    return _engine_loss(*_public_engine(lambdas, theta, trainset, circuit, m), config)


def gradient(
    lambdas: np.ndarray,
    theta: np.ndarray,
    trainset: TrainSet,
    config: TrainConfig,
    circuit: Circuit,
    m: int,
) -> np.ndarray:
    """Central-FD gradient of loss over the concatenated (lambda, theta)."""
    return _engine_gradient(*_public_engine(lambdas, theta, trainset, circuit, m), config)


def _quasi_newton(f, g, x0, config, max_iters=None):
    """Inverse-Hessian secant descent with Armijo backtracking.

    Returns (x, history, converged). History records the loss at every
    accepted iterate, so it is non-increasing by construction.
    """
    if max_iters is None:
        max_iters = config.max_iters
    x = np.array(x0, dtype=float)
    fx = f(x)
    gx = g(x)
    history = [fx]
    dim = len(x)
    hmat = np.eye(dim)
    first_update = True
    converged = np.max(np.abs(gx)) < CONV_TOL
    for _ in range(max_iters):
        if converged:
            break
        direction = -hmat @ gx
        slope = float(gx @ direction)
        if slope >= 0.0:
            hmat = np.eye(dim)
            first_update = True
            direction = -gx
            slope = float(gx @ direction)
            if slope >= 0.0:
                break
        t = 1.0
        fn = None
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * direction
            fc = f(cand)
            if np.isfinite(fc) and fc <= fx + ARMIJO_C1 * t * slope:
                fn = fc
                break
            t *= BACKTRACK_FACTOR
        if fn is None:
            break
        xn = x + t * direction
        gn = g(xn)
        s = xn - x
        y = gn - gx
        sy = float(s @ y)
        if first_update and sy > 0.0:
            hmat = np.eye(dim) * (sy / float(y @ y))
            first_update = False
        if sy > CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(y):
            # the rank-two form of (I - rho s y^T) H (I - rho y s^T) + rho s s^T;
            # unlike v @ hmat @ v.T, it rounds alike at 1 and 2 BLAS threads
            rho = 1.0 / sy
            hy = hmat @ y
            hmat = (hmat - rho * (np.outer(s, hy) + np.outer(hy, s))
                    + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
        x, fx, gx = xn, fn, gn
        history.append(fx)
        converged = np.max(np.abs(gx)) < CONV_TOL
    return x, history, bool(converged)


def _spread(probs: np.ndarray) -> float:
    """Negative total spread of the outcome distributions around their mean.

    Minimizing this pushes the training states' readout distributions apart,
    which concentrates the label-dependent part of the state onto as few
    measurement sectors as possible.
    """
    centered = probs - probs.mean(axis=0)
    return -float(np.sum(centered * centered))


def _warmup_theta(engine, th0, config) -> np.ndarray:
    """Pre-optimize theta alone for outcome-distribution spread.

    Joint descent from a random start routinely stalls in basins where the
    signal mass stays split across measurement sectors: rearranging sectors
    once the eigenvalues have locked in means climbing over configurations
    with worse fit and higher variance. The spread objective has no such
    barrier, so each restart climbs it first and only then fits.
    """

    def f(th):
        return _spread(engine.probs(th))

    def g(th):
        return _theta_gradient(engine, th, _spread)[1]

    th, _, _ = _quasi_newton(f, g, th0, config, max_iters=min(WARMUP_MAX_ITERS, config.max_iters))
    return th


def train(
    circuit: Circuit, m: int, trainset: TrainSet, config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Best-of-restarts minimization of the training objective.

    Each restart draws its own initialization from a child seed: lambdas at
    the label-range midpoint plus 1% of the span in Gaussian jitter (the
    all-equal-lambdas point is a stationary saddle of the variance term, so
    exact midpoints are avoided), theta uniform over [0, 2pi). The drawn
    theta then goes through a spread warmup (see _warmup_theta) before the
    joint descent; the reported history covers the joint phase only.
    """
    engine = _Engine(circuit, m, trainset)
    labels = trainset.labels
    mid = 0.5 * (labels.min() + labels.max())
    span = float(labels.max() - labels.min()) or 1.0
    n_lam = 2**m

    def f(x):
        return _engine_loss(engine, x[:n_lam], x[n_lam:], config)

    def g(x):
        return _engine_gradient(engine, x[:n_lam], x[n_lam:], config)

    best = None
    finals = []
    for k in range(config.restarts):
        rng = np.random.default_rng([config.seed, k])
        lam0 = mid + 0.01 * span * rng.standard_normal(n_lam)
        th0 = rng.uniform(0.0, 2.0 * np.pi, circuit.param_count)
        if circuit.param_count > 0:
            th0 = _warmup_theta(engine, th0, config)
        x0 = np.concatenate([lam0, th0])
        x, history, converged = _quasi_newton(f, g, x0, config)
        finals.append(history[-1])
        if best is None or history[-1] < best[1][-1]:
            best = (x, history, converged)
    x, history, converged = best
    return TrainResult(
        lambdas=x[:n_lam],
        theta=x[n_lam:],
        loss_history=tuple(history),
        converged=converged,
        restart_losses=tuple(finals),
    )
