"""Finite-difference oracles plus the gradient and invariance verification suites.

These back the ``gradcheck`` and ``invariance`` CLI commands and the acceptance
tests. Analytic gradients are compared entrywise against central differences;
the comparison is relative, with a small floor in the denominator so that
entries whose true value is essentially zero are judged on the absolute scale
of the finite-difference noise instead of blowing up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .align import AlignConfig, Classifier, alignment_loss, class_terms, total_objective
from .bench import ambient_distance_eval, projected_distance_eval
from .distances import DistanceKind, dist_sq, grad_dist_sq
from .errors import NumericalError
from .scatter import FeatureBlock, _feature_grad, mean_and_scatter
from .spd import SymMatrix, regularize, symmetrize

FD_STEP = 1e-5
GRAD_TOLERANCE = 1e-4
# Entries smaller than this are compared on an absolute scale.
_REL_FLOOR = 1e-3


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        plus = f(bumped)
        bumped[idx] = x[idx] - step
        minus = f(bumped)
        grad[idx] = (plus - minus) / (2.0 * step)
        it.iternext()
    return grad


def relative_gap(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entrywise relative deviation, floored for near-zero entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if not np.isfinite(analytic).all():
        raise NumericalError("analytic gradient contains non-finite entries")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_spd(rng: np.random.Generator, side: int, lo: float = 0.1, hi: float = 10.0) -> SymMatrix:
    """Random SPD matrix with eigenvalues uniform in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(side, side)))
    values = rng.uniform(lo, hi, size=side)
    return symmetrize((q * values) @ q.T)


def random_rotation(rng: np.random.Generator, side: int) -> np.ndarray:
    """Haar-ish random rotation: QR orthogonal factor with positive determinant."""
    q, r = np.linalg.qr(rng.normal(size=(side, side)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    component: str
    max_gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_gap < self.tolerance


@dataclass(frozen=True)
class CheckReport:
    components: list[ComponentReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)


def _maybe_corrupt(grad: np.ndarray, component: str, corrupt: str | None) -> np.ndarray:
    if corrupt is not None and component == corrupt:
        return grad + 0.05
    return grad


def check_distance_gradients(
    kind: DistanceKind, trials: int, rng: np.random.Generator, corrupt: str | None = None
) -> ComponentReport:
    """Matrix-level gradients of d^2 against finite differences on both slots."""
    name = f"distance/{kind.value}"
    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 7))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        ga, gb = grad_dist_sq(kind, a, b)

        def f_a(flat, b=b, side=side):
            return dist_sq(kind, symmetrize(flat.reshape(side, side)), b)

        def f_b(flat, a=a, side=side):
            return dist_sq(kind, a, symmetrize(flat.reshape(side, side)))

        # d^2 is evaluated on the symmetrized perturbation, so the A-slot FD
        # gradient of f(sym(M)) equals the symmetric-matrix gradient.
        fd_a = central_difference(f_a, a.entries).reshape(side, side)
        fd_b = central_difference(f_b, b.entries).reshape(side, side)
        ga_arr = _maybe_corrupt(ga.entries, name, corrupt)
        gb_arr = _maybe_corrupt(gb.entries, name, corrupt)
        worst = max(worst, relative_gap(ga_arr, fd_a), relative_gap(gb_arr, fd_b))
    return ComponentReport(component=name, max_gap=worst, tolerance=GRAD_TOLERANCE)


def check_scatter_chain(
    kind: DistanceKind, trials: int, rng: np.random.Generator,
    corrupt: str | None = None,
) -> ComponentReport:
    """Feature-space chain rule (2/N) G (Phi - mu 1^T) in ambient dimension.

    The analytic side runs the alignment kernel's scatter builder and chain
    rule on the ambient columns. The regularizer is drawn per instance from
    [1e-3, 1e-1]: the chain rule does not depend on it, and at 1e-6 the
    roundoff noise of the ill-conditioned value computation swamps a 1e-5
    central difference.
    """
    name = f"scatter/{kind.value}"
    worst = 0.0
    for _ in range(trials):
        eps = float(10.0 ** rng.uniform(-3, -1))
        d = int(rng.integers(2, 6))
        n_s = int(rng.integers(2, 7))
        n_t = int(rng.integers(2, 7))
        phi_s = rng.normal(size=(d, n_s))
        phi_t = rng.normal(size=(d, n_t))
        mean_s, scatter_s = mean_and_scatter(phi_s)
        mean_t, scatter_t = mean_and_scatter(phi_t)
        ga, gb = grad_dist_sq(
            kind, regularize(SymMatrix(scatter_s), eps), regularize(SymMatrix(scatter_t), eps)
        )
        grad_s = _feature_grad(ga.entries, phi_s, mean_s)
        grad_t = _feature_grad(gb.entries, phi_t, mean_t)

        fd_s = central_difference(
            lambda flat: ambient_distance_eval(flat.reshape(d, n_s), phi_t, kind, eps), phi_s
        )
        fd_t = central_difference(
            lambda flat: ambient_distance_eval(phi_s, flat.reshape(d, n_t), kind, eps), phi_t
        )
        grad_s = _maybe_corrupt(grad_s, name, corrupt)
        grad_t = _maybe_corrupt(grad_t, name, corrupt)
        worst = max(worst, relative_gap(grad_s, fd_s), relative_gap(grad_t, fd_t))
    return ComponentReport(component=name, max_gap=worst, tolerance=GRAD_TOLERANCE)


def projected_distance_grads(
    kind: DistanceKind, phi_s: np.ndarray, phi_t: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the reduced-space distance, projector held constant.

    These come from the alignment kernel that training runs, on one class.
    """
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=kind, class_count=1, eps=eps)
    result = alignment_loss([(phi_s, phi_t)], config)
    return result.grads_source[0], result.grads_target[0]


def check_projected_chain(
    kind: DistanceKind, trials: int, rng: np.random.Generator,
    corrupt: str | None = None,
) -> ComponentReport:
    """Reduced-pipeline gradients, with the projection recomputed inside the oracle.

    The finite-difference side reruns the whole pipeline (including the
    projector) at every perturbed point, so passing this check is exactly the
    statement that the projector may be treated as a constant. The regularizer
    is drawn from [1e-3, 1e-1], same reasoning as in the scatter check.
    """
    name = f"projected/{kind.value}"
    worst = 0.0
    for _ in range(trials):
        eps = float(10.0 ** rng.uniform(-3, -1))
        d = int(rng.integers(6, 12))
        n_s = int(rng.integers(2, 5))
        n_t = int(rng.integers(2, 5))
        phi_s = rng.normal(size=(d, n_s))
        phi_t = rng.normal(size=(d, n_t))
        grad_s, grad_t = projected_distance_grads(kind, phi_s, phi_t, eps)
        fd_s = central_difference(
            lambda flat: projected_distance_eval(flat.reshape(d, n_s), phi_t, kind, eps), phi_s
        )
        fd_t = central_difference(
            lambda flat: projected_distance_eval(phi_s, flat.reshape(d, n_t), kind, eps), phi_t
        )
        grad_s = _maybe_corrupt(grad_s, name, corrupt)
        grad_t = _maybe_corrupt(grad_t, name, corrupt)
        worst = max(worst, relative_gap(grad_s, fd_s), relative_gap(grad_t, fd_t))
    return ComponentReport(component=name, max_gap=worst, tolerance=GRAD_TOLERANCE)


def check_mean_alignment(
    trials: int, rng: np.random.Generator, corrupt: str | None = None
) -> ComponentReport:
    """Per-column gradients of the squared mean gap, both streams.

    The analytic side is the alignment kernel's mean term alone (sigma1 = 0,
    sigma2 = 1, C = 1); the oracle differentiates the plain mean-gap loss.
    """
    name = "mean-align"
    config = AlignConfig(
        sigma1=0.0, sigma2=1.0, eta=0.0, kind=DistanceKind.FROBENIUS, class_count=1
    )
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, 8))
        n_s = int(rng.integers(1, 7))
        n_t = int(rng.integers(1, 7))
        phi_s = rng.normal(size=(d, n_s))
        phi_t = rng.normal(size=(d, n_t))
        _, _, grad = class_terms(np.concatenate([phi_s, phi_t], axis=1)[None], n_s, config)
        grad_s, grad_t = grad[0, :, :n_s], grad[0, :, n_s:]

        def loss(cols_s, cols_t):
            diff = cols_s.mean(axis=1) - cols_t.mean(axis=1)
            return float(diff @ diff)

        fd_s = central_difference(lambda flat: loss(flat.reshape(d, n_s), phi_t), phi_s)
        fd_t = central_difference(lambda flat: loss(phi_s, flat.reshape(d, n_t)), phi_t)
        grad_s = _maybe_corrupt(grad_s, name, corrupt)
        grad_t = _maybe_corrupt(grad_t, name, corrupt)
        worst = max(worst, relative_gap(grad_s, fd_s), relative_gap(grad_t, fd_t))
    return ComponentReport(component=name, max_gap=worst, tolerance=GRAD_TOLERANCE)


@dataclass
class _ClassifierPair:
    classifier_source: Classifier
    classifier_target: Classifier


def _random_objective_instance(rng: np.random.Generator, kind: DistanceKind):
    d = int(rng.integers(3, 6))
    c = int(rng.integers(2, 4))
    n_s = int(rng.integers(c * 2, c * 3 + 1))
    n_t = int(rng.integers(c * 2, c * 3 + 1))
    labels_s = np.concatenate([np.arange(c), rng.integers(0, c, size=n_s - c)])
    labels_t = np.concatenate([np.arange(c), rng.integers(0, c, size=n_t - c)])
    config = AlignConfig(
        sigma1=float(rng.uniform(0.2, 1.0)),
        sigma2=float(rng.uniform(0.2, 1.0)),
        eta=float(rng.uniform(0.2, 1.0)),
        kind=kind,
        class_count=c,
        eps=float(10.0 ** rng.uniform(-3, -1)),
    )
    model = _ClassifierPair(
        classifier_source=Classifier(rng.normal(size=(d, c)), rng.normal(size=c)),
        classifier_target=Classifier(rng.normal(size=(d, c)), rng.normal(size=c)),
    )
    phi_s = rng.normal(size=(d, n_s))
    phi_t = rng.normal(size=(d, n_t))
    return model, phi_s, labels_s, phi_t, labels_t, config


def check_objective(
    kind: DistanceKind, trials: int, rng: np.random.Generator, corrupt: str | None = None
) -> ComponentReport:
    """Full objective: gradients to W, W*, biases, and both feature blocks."""
    name = f"objective/{kind.value}"
    worst = 0.0
    for _ in range(trials):
        model, phi_s, labels_s, phi_t, labels_t, config = _random_objective_instance(rng, kind)
        result = total_objective(
            model, FeatureBlock(phi_s, labels_s), FeatureBlock(phi_t, labels_t), config
        )

        def value_at(ws, bs, wt, bt, fs, ft):
            probe = _ClassifierPair(Classifier(ws, bs), Classifier(wt, bt))
            return total_objective(
                probe, FeatureBlock(fs, labels_s), FeatureBlock(ft, labels_t), config
            ).value

        ws = model.classifier_source.weights
        bs = model.classifier_source.bias
        wt = model.classifier_target.weights
        bt = model.classifier_target.bias
        pairs = [
            (result.grads.weights_source,
             central_difference(lambda v: value_at(v.reshape(ws.shape), bs, wt, bt, phi_s, phi_t), ws)),
            (result.grads.bias_source,
             central_difference(lambda v: value_at(ws, v, wt, bt, phi_s, phi_t), bs)),
            (result.grads.weights_target,
             central_difference(lambda v: value_at(ws, bs, v.reshape(wt.shape), bt, phi_s, phi_t), wt)),
            (result.grads.bias_target,
             central_difference(lambda v: value_at(ws, bs, wt, v, phi_s, phi_t), bt)),
            (result.grads.features_source,
             central_difference(lambda v: value_at(ws, bs, wt, bt, v.reshape(phi_s.shape), phi_t), phi_s)),
            (result.grads.features_target,
             central_difference(lambda v: value_at(ws, bs, wt, bt, phi_s, v.reshape(phi_t.shape)), phi_t)),
        ]
        for analytic, numeric in pairs:
            worst = max(worst, relative_gap(_maybe_corrupt(analytic, name, corrupt), numeric))
    return ComponentReport(component=name, max_gap=worst, tolerance=GRAD_TOLERANCE)


def run_gradient_checks(
    kinds: Sequence[DistanceKind],
    trials: int,
    seed: int,
    corrupt: str | None = None,
) -> CheckReport:
    """All gradient components for the requested distance kinds, one report each."""
    rng = np.random.default_rng(seed)
    components = []
    for kind in kinds:
        components.append(check_distance_gradients(kind, trials, rng, corrupt))
        components.append(check_scatter_chain(kind, trials, rng, corrupt))
        components.append(check_projected_chain(kind, trials, rng, corrupt))
    components.append(check_mean_alignment(trials, rng, corrupt))
    for kind in kinds:
        components.append(check_objective(kind, max(1, trials // 4), rng, corrupt))
    return CheckReport(components=components)


# ---------------------------------------------------------------------------
# Invariance suite
# ---------------------------------------------------------------------------

ROTATION_TOL = 1e-8
AFFINE_TOL = 1e-7
TRIANGLE_TOL = 1e-9
COINCIDENCE_TOL = 1e-12


def _rel_dev(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-30)


def check_rotation_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 9))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        rot = random_rotation(rng, side)
        base = dist_sq(kind, a, b)
        rotated = dist_sq(kind, symmetrize(rot @ a.entries @ rot.T), symmetrize(rot @ b.entries @ rot.T))
        worst = max(worst, _rel_dev(base, rotated))
    return ComponentReport(f"rotation/{kind.value}", worst, ROTATION_TOL)


def check_affine_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 9))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        # Keep the congruence well conditioned so rounding stays inside 1e-7.
        m = random_spd(rng, side, lo=0.5, hi=2.0)
        base = dist_sq(kind, a, b)
        mapped = dist_sq(kind, symmetrize(m.entries @ a.entries @ m.entries.T),
                         symmetrize(m.entries @ b.entries @ m.entries.T))
        worst = max(worst, _rel_dev(base, mapped))
    return ComponentReport(f"affine/{kind.value}", worst, AFFINE_TOL)


def check_inversion_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    from .spd import spd_fn

    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 9))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        base = dist_sq(kind, a, b)
        inverted = dist_sq(kind, spd_fn(a, "inv"), spd_fn(b, "inv"))
        worst = max(worst, _rel_dev(base, inverted))
    return ComponentReport(f"inversion/{kind.value}", worst, AFFINE_TOL)


def check_triangle_inequality(triples: int, rng: np.random.Generator) -> ComponentReport:
    """sqrt(AIRM) on random SPD triples; reports the worst violation."""
    worst = 0.0
    for _ in range(triples):
        side = int(rng.integers(2, 7))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        c = random_spd(rng, side)
        dab = np.sqrt(dist_sq(DistanceKind.AIRM, a, b))
        dbc = np.sqrt(dist_sq(DistanceKind.AIRM, b, c))
        dac = np.sqrt(dist_sq(DistanceKind.AIRM, a, c))
        worst = max(worst, dac - (dab + dbc))
    return ComponentReport("triangle/airm", worst, TRIANGLE_TOL)


def check_coincidence(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    """d^2(S, S) = 0 and both gradients vanish at coincident arguments."""
    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 9))
        s = random_spd(rng, side)
        worst = max(worst, abs(dist_sq(kind, s, s)))
        ga, gb = grad_dist_sq(kind, s, s)
        worst = max(worst, float(np.abs(ga.entries).max()), float(np.abs(gb.entries).max()))
    return ComponentReport(f"coincidence/{kind.value}", worst, COINCIDENCE_TOL)


def run_invariance_checks(trials: int, seed: int, triples: int = 1000) -> CheckReport:
    rng = np.random.default_rng(seed)
    components = []
    for kind in DistanceKind:
        components.append(check_rotation_invariance(kind, trials, rng))
    for kind in (DistanceKind.JBLD, DistanceKind.AIRM):
        components.append(check_affine_invariance(kind, trials, rng))
        components.append(check_inversion_invariance(kind, trials, rng))
    components.append(check_triangle_inequality(triples, rng))
    for kind in DistanceKind:
        components.append(check_coincidence(kind, trials, rng))
    return CheckReport(components=components)
