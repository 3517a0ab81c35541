"""Finite-difference oracles plus the gradient and invariance verification suites.

These back the ``gradcheck`` and ``invariance`` CLI commands and the acceptance
tests. Analytic gradients are compared entrywise against central differences;
the comparison is relative, with a small floor in the denominator so that
entries whose true value is essentially zero are judged on the absolute scale
of the finite-difference noise instead of blowing up the ratio.

Every component is a trial function: one random draw from the shared
generator, returning its deviations (gradient components return
(analytic, numeric) pairs, which ``_component`` turns into relative gaps).
One harness, ``_worst``, runs it the requested number of times and reports the
largest deviation against the component's tolerance. It rejects a count below
one, and a NaN deviation fails the component. Draws happen in a fixed order, so
a seed fixes every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .align import AlignConfig, Classifier, class_terms, total_objective
from .bench import ambient_distance_eval, projected_distance_eval
from .distances import DistanceKind, dist_sq, grad_dist_sq
from .errors import NumericalError, ParameterError
from .scatter import FeatureBlock, _feature_grad, mean_and_scatter
from .spd import SymMatrix, regularize, spd_fn, symmetrize

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
# Trial harness
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


def _worst(
    name: str, tolerance: float, trials: int, trial: Callable[[], Sequence[float]]
) -> ComponentReport:
    """Run ``trial`` (one random draw, returning its deviations) ``trials`` times.

    The report carries the largest deviation, floored at zero. A count below
    one is rejected rather than passed on no evidence, and a NaN deviation
    propagates into ``max_gap`` so that the component fails.
    """
    if trials < 1:
        raise ParameterError(f"{name}: trial count must be at least 1, got {trials}")
    deviations = [0.0]
    for _ in range(trials):
        deviations.extend(trial())
    # Builtin max() would step over a NaN.
    worst = np.nan if np.isnan(deviations).any() else max(deviations)
    return ComponentReport(name, float(worst), tolerance)


def _component(
    name: str, trials: int, trial: Callable[[], Sequence[tuple[np.ndarray, np.ndarray]]],
    corrupt: str | None,
) -> ComponentReport:
    """Gradient component: ``trial`` returns (analytic, numeric) gradient pairs.

    ``corrupt`` naming this component shifts every analytic gradient by 0.05,
    the negative control of the ``--corrupt`` flag.
    """
    shift = 0.05 if corrupt == name else 0.0
    return _worst(name, GRAD_TOLERANCE, trials, lambda: [
        relative_gap(analytic + shift, numeric) for analytic, numeric in trial()
    ])


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------

def check_distance_gradients(
    kind: DistanceKind, trials: int, rng: np.random.Generator, corrupt: str | None = None
) -> ComponentReport:
    """Matrix-level gradients of d^2 against finite differences on both slots."""
    def trial():
        side = int(rng.integers(2, 7))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        ga, gb = grad_dist_sq(kind, a, b)
        # d^2 is evaluated on the symmetrized perturbation, so the FD gradient
        # of f(sym(M)) equals the symmetric-matrix gradient.
        fd_a = central_difference(
            lambda flat: dist_sq(kind, symmetrize(flat.reshape(side, side)), b), a.entries
        )
        fd_b = central_difference(
            lambda flat: dist_sq(kind, a, symmetrize(flat.reshape(side, side))), b.entries
        )
        return [(ga.entries, fd_a), (gb.entries, fd_b)]

    return _component(f"distance/{kind.value}", trials, trial, corrupt)


def _feature_pair(rng: np.random.Generator, dims: tuple[int, int], counts: tuple[int, int]):
    """Regularizer from [1e-3, 1e-1], then one (d, N) and one (d, N*) normal block."""
    eps = float(10.0 ** rng.uniform(-3, -1))
    d = int(rng.integers(*dims))
    n_s = int(rng.integers(*counts))
    n_t = int(rng.integers(*counts))
    return eps, rng.normal(size=(d, n_s)), rng.normal(size=(d, n_t))


def _pair_differences(f, phi_s: np.ndarray, phi_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of ``f(phi_s, phi_t)`` in each block, the other held fixed."""
    return (
        central_difference(lambda flat: f(flat.reshape(phi_s.shape), phi_t), phi_s),
        central_difference(lambda flat: f(phi_s, flat.reshape(phi_t.shape)), phi_t),
    )


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
    def trial():
        eps, phi_s, phi_t = _feature_pair(rng, (2, 6), (2, 7))
        mean_s, scatter_s = mean_and_scatter(phi_s)
        mean_t, scatter_t = mean_and_scatter(phi_t)
        ga, gb = grad_dist_sq(
            kind, regularize(SymMatrix(scatter_s), eps), regularize(SymMatrix(scatter_t), eps)
        )
        fd_s, fd_t = _pair_differences(
            lambda s, t: ambient_distance_eval(s, t, kind, eps), phi_s, phi_t
        )
        return [(_feature_grad(ga.entries, phi_s, mean_s), fd_s),
                (_feature_grad(gb.entries, phi_t, mean_t), fd_t)]

    return _component(f"scatter/{kind.value}", trials, trial, corrupt)


def _one_class_grads(
    config: AlignConfig, phi_s: np.ndarray, phi_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feature gradients of the alignment kernel that training runs, on one class."""
    n_s = phi_s.shape[1]
    _, _, grad = class_terms(np.concatenate([phi_s, phi_t], axis=1)[None], n_s, config)
    return grad[0, :, :n_s], grad[0, :, n_s:]


def projected_distance_grads(
    kind: DistanceKind, phi_s: np.ndarray, phi_t: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the reduced-space distance, projector held constant."""
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=kind, class_count=1, eps=eps)
    return _one_class_grads(config, phi_s, phi_t)


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
    def trial():
        eps, phi_s, phi_t = _feature_pair(rng, (6, 12), (2, 5))
        fd = _pair_differences(
            lambda s, t: projected_distance_eval(s, t, kind, eps), phi_s, phi_t
        )
        return list(zip(projected_distance_grads(kind, phi_s, phi_t, eps), fd))

    return _component(f"projected/{kind.value}", trials, trial, corrupt)


def check_mean_alignment(
    trials: int, rng: np.random.Generator, corrupt: str | None = None
) -> ComponentReport:
    """Per-column gradients of the squared mean gap, both streams.

    The analytic side is the alignment kernel's mean term alone (sigma1 = 0,
    sigma2 = 1, C = 1); the oracle differentiates the plain mean-gap loss.
    """
    config = AlignConfig(
        sigma1=0.0, sigma2=1.0, eta=0.0, kind=DistanceKind.FROBENIUS, class_count=1
    )

    def loss(cols_s, cols_t):
        diff = cols_s.mean(axis=1) - cols_t.mean(axis=1)
        return float(diff @ diff)

    def trial():
        d = int(rng.integers(1, 8))
        n_s = int(rng.integers(1, 7))
        n_t = int(rng.integers(1, 7))
        phi_s = rng.normal(size=(d, n_s))
        phi_t = rng.normal(size=(d, n_t))
        return list(zip(_one_class_grads(config, phi_s, phi_t), _pair_differences(loss, phi_s, phi_t)))

    return _component("mean-align", trials, trial, corrupt)


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
    def trial():
        model, phi_s, labels_s, phi_t, labels_t, config = _random_objective_instance(rng, kind)
        clf_s, clf_t = model.classifier_source, model.classifier_target
        slots = [clf_s.weights, clf_s.bias, clf_t.weights, clf_t.bias, phi_s, phi_t]

        def objective(ws, bs, wt, bt, fs, ft):
            probe = _ClassifierPair(Classifier(ws, bs), Classifier(wt, bt))
            return total_objective(
                probe, FeatureBlock(fs, labels_s), FeatureBlock(ft, labels_t), config
            )

        def value_at(i, flat):
            return objective(*slots[:i], flat.reshape(slots[i].shape), *slots[i + 1:]).value

        grads = objective(*slots).grads
        analytic = [grads.weights_source, grads.bias_source, grads.weights_target,
                    grads.bias_target, grads.features_source, grads.features_target]
        return [
            (analytic[i], central_difference(lambda flat, i=i: value_at(i, flat), slot))
            for i, slot in enumerate(slots)
        ]

    return _component(f"objective/{kind.value}", trials, trial, corrupt)


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


def _invariance(
    name: str, kind: DistanceKind, tolerance: float, trials: int, rng: np.random.Generator,
    transform: Callable[[int], Callable[[SymMatrix], SymMatrix]],
) -> ComponentReport:
    """d^2(g(A), g(B)) against d^2(A, B) for random SPD pairs A, B.

    ``transform(side)`` draws the map g after the pair.
    """
    def trial():
        side = int(rng.integers(2, 9))
        a = random_spd(rng, side)
        b = random_spd(rng, side)
        g = transform(side)
        return [_rel_dev(dist_sq(kind, a, b), dist_sq(kind, g(a), g(b)))]

    return _worst(f"{name}/{kind.value}", tolerance, trials, trial)


def _congruence(m: np.ndarray) -> Callable[[SymMatrix], SymMatrix]:
    return lambda s: symmetrize(m @ s.entries @ m.T)


def check_rotation_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    return _invariance("rotation", kind, ROTATION_TOL, trials, rng,
                       lambda side: _congruence(random_rotation(rng, side)))


def check_affine_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    # Keep the congruence well conditioned so rounding stays inside 1e-7.
    return _invariance("affine", kind, AFFINE_TOL, trials, rng,
                       lambda side: _congruence(random_spd(rng, side, lo=0.5, hi=2.0).entries))


def check_inversion_invariance(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    return _invariance("inversion", kind, AFFINE_TOL, trials, rng,
                       lambda side: lambda s: spd_fn(s, "inv"))


def check_triangle_inequality(triples: int, rng: np.random.Generator) -> ComponentReport:
    """sqrt(AIRM) on random SPD triples; reports the worst violation."""
    def trial():
        side = int(rng.integers(2, 7))
        a, b, c = (random_spd(rng, side) for _ in range(3))
        dab, dbc, dac = (np.sqrt(dist_sq(DistanceKind.AIRM, x, y)) for x, y in ((a, b), (b, c), (a, c)))
        return [dac - (dab + dbc)]

    return _worst("triangle/airm", TRIANGLE_TOL, triples, trial)


def check_coincidence(kind: DistanceKind, trials: int, rng: np.random.Generator) -> ComponentReport:
    """d^2(S, S) = 0 and both gradients vanish at coincident arguments."""
    def trial():
        s = random_spd(rng, int(rng.integers(2, 9)))
        ga, gb = grad_dist_sq(kind, s, s)
        return [abs(dist_sq(kind, s, s)), float(np.abs(ga.entries).max()),
                float(np.abs(gb.entries).max())]

    return _worst(f"coincidence/{kind.value}", COINCIDENCE_TOL, trials, trial)


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
