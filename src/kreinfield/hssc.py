"""Certification pipeline for the Hilbert-space structure of the hierarchy.

Everything here turns analytic sup-bounds into numbers with explicit error
control: weighted Schwartz norms with bracketed sups, the singular auxiliary
integrals that cap the order-n momentum distributions, the partition-sum
constant chain, and finite-dimensional Gram/majorization/Krein reductions.
The end product is :func:`hssc_certify`, which emits a JSON-ready
certificate for a concrete noise model and a family of test functions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    InvalidMajorantError,
    PreconditionError,
    QuadratureError,
    SizeLimitError,
)
from .green import GreenSpec
from .levy import LevyTriple, cumulant_coeff
from .partitions import MAX_GROUND_SIZE, CorrelationTable, moments_from_cumulants
from .quadrature import gl_nodes, line_quadrature, refine, sine_nodes, tanh_sinh_nodes
from .testfunctions import TensorTestFunction, TestFunction
from .wightman import truncated_momentum_eval


# -- weighted Schwartz norms ------------------------------------------------------


@dataclass(frozen=True)
class SchwartzNormSpec:
    """Degree of smoothness and growth tested by a seminorm.

    ``max_derivative_order`` caps each component of the derivative
    multi-index; ``weight_power`` is the exponent N in the per-slot weight
    (1 + |x|^2)^(N/2).
    """

    max_derivative_order: int = 0
    weight_power: int = 0

    def __post_init__(self):
        if self.max_derivative_order < 0 or self.weight_power < 0:
            raise DomainError("norm orders must be nonnegative")


def _slot_weight(x: np.ndarray, slot_groups, power: float) -> np.ndarray:
    out = np.ones(x.shape[:-1])
    for axes in slot_groups:
        out = out * (1.0 + np.sum(x[..., list(axes)] ** 2, axis=-1)) ** (0.5 * power)
    return out


def _sup_one_term(df: TestFunction, slot_groups, power: float, rtol: float):
    """Bracketed sup of weight * |df| over its essential support box."""
    deg = df.degree()
    coeff_sum = sum(abs(v) for v in df.coeffs.values())
    if coeff_sum == 0.0:
        return 0.0, 0.0
    w = df.width
    total_power = power * len(slot_groups)
    cmax = max(abs(c) for c in df.center)
    half = w * (math.sqrt(2.0 * (total_power + deg + 2.0)) + 6.0)

    def envelope(r: float) -> float:
        # radial majorant: polynomial growth times the Gaussian envelope
        return (
            (1.0 + (cmax + r) ** 2) ** (0.5 * total_power)
            * coeff_sum
            * max(1.0, r) ** deg
            * math.exp(-0.5 * (r / w) ** 2)
        )

    def grid_sup(npts: int) -> float:
        axes = [np.linspace(c - half, c + half, npts) for c in df.center]
        if df.dim == 1:
            pts = axes[0][:, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = _slot_weight(pts, slot_groups, power) * np.abs(df(pts))
        return float(np.max(vals))

    coarse = grid_sup(31)
    floor = max(coarse, 1e-300)
    for _ in range(60):
        if envelope(half) <= 0.125 * rtol * floor and envelope(half) >= envelope(
            1.5 * half
        ):
            break
        half *= 1.25
    else:
        raise QuadratureError("support box for the weighted sup did not close")

    prev = grid_sup(31)
    gap = math.inf
    for npts in (61, 121, 241, 481):
        cur = grid_sup(npts)
        gap = abs(cur - prev) / max(cur, 1e-300)
        prev = cur
        if gap <= 0.25 * rtol:
            break
    else:
        raise QuadratureError("weighted sup not grid-stable", residual=gap)
    upper = prev * (1.0 + 2.0 * gap) + envelope(half)
    return prev, upper


def schwartz_norm(
    f: TestFunction,
    spec: SchwartzNormSpec,
    slots: Optional[Sequence[Sequence[int]]] = None,
    rtol: float = 0.01,
) -> float:
    """Weighted sup-norm  max_alpha sup_x  prod_s (1+|x_s|^2)^(N/2) |d^alpha f|.

    The derivative multi-index runs over {0..K}^dim componentwise.  The sup
    is taken on a refining grid inside a box that provably contains it, and
    the returned value is the certified upper end of a bracket whose
    relative width is at most ``rtol``.

    ``slots`` partitions the coordinate axes into weight groups; by default
    the whole argument is one slot.
    """
    if not isinstance(f, TestFunction):
        raise TypeError("schwartz_norm expects a TestFunction")
    if slots is None:
        slot_groups: Tuple[Tuple[int, ...], ...] = (tuple(range(f.dim)),)
    else:
        slot_groups = tuple(tuple(int(a) for a in g) for g in slots)
        seen = [a for g in slot_groups for a in g]
        if sorted(seen) != list(range(f.dim)):
            raise DomainError("slot groups must partition the coordinate axes")
    best = 0.0
    k = spec.max_derivative_order
    for alpha in itertools.product(range(k + 1), repeat=f.dim):
        df = f if not any(alpha) else f.derivative_multi(alpha)
        _, upper = _sup_one_term(df, slot_groups, float(spec.weight_power), rtol)
        best = max(best, upper)
    return best


def tensor_schwartz_norm(t: TensorTestFunction, spec: SchwartzNormSpec) -> float:
    """Product norm of a pure tensor: |prefactor| times the factor norms.

    Exact for slot-wise weights, since both the sup and the derivative cap
    factor across slots.
    """
    out = abs(t.prefactor)
    for g in t.factors:
        out *= schwartz_norm(g, spec)
    return out


# -- closed pair-level bound ------------------------------------------------------


def pair_bound(spec: GreenSpec, triple: LevyTriple, weight_power: int) -> float:
    """Constant A2 with |W2(f)| <= A2 * ||f||_{0,N} for pure tensors f.

    Uses the explicit support representation of the pair distribution: a
    mass-shell line integral at alpha = 1/2, a timelike-region density for
    alpha < 1/2 (one spatial dimension only).
    """
    if weight_power < 2 * spec.dim:
        raise DomainError("pair bound needs weight power at least twice the dimension")
    c2 = abs(cumulant_coeff(2, triple))
    m = spec.mass
    n = float(weight_power)
    if spec.alpha == 0.5:
        if spec.dim == 1:
            return 2.0 * math.pi * c2 / (2.0 * m) * (1.0 + m * m) ** (-n)
        q, wq = sine_nodes(0.0, 50.0, 400)
        om = np.hypot(q, m)
        integrand = (1.0 + om * om + q * q) ** (-n) / (2.0 * om)
        val = 2.0 * float(np.sum(integrand * wq))
        tail = 50.0 ** (-2.0 * n) / (2.0 * n)
        return 2.0 * math.pi * c2 * (val + tail)
    if spec.dim == 1:
        b = max(40.0, 12.0 * m)

        def g(k):
            return (k * k - m * m) ** (-2.0 * spec.alpha) * (1.0 + k * k) ** (-n)

        val = line_quadrature(g, m, b, npts=320)
        tail = b ** (-4.0 * spec.alpha - 2.0 * n + 1.0) / (
            4.0 * spec.alpha + 2.0 * n - 1.0
        )
        return 2.0 * c2 * math.sin(2.0 * math.pi * spec.alpha) * (val + tail)
    raise DomainError(
        "pair bound covers alpha = 1/2 in one or two dimensions and "
        "alpha < 1/2 on the line"
    )


# -- scalar bounding chain --------------------------------------------------------


def _overlap_origin(alpha: float, npts: int) -> float:
    """Overlap integral at zero shift from its one-line form, on npts nodes.

    I(0, 0, 0) = integral dx dy |x y (x+y)|^(-alpha) / ((1+x^2)(1+y^2)).
    Substituting y = x t and integrating x out with
    integral_0^inf x^(s-1) / (1+x^2) dx = (pi/2) / sin(pi s/2) leaves

        pi / sin(pi (2 - 3 alpha)/2) * integral_R g(t) dt,
        g(t) = |t|^(-alpha) |1+t|^(-alpha) (1 - |t|^(3 alpha)) / (1 - t^2),

    and g(t) dt is unchanged under t -> 1/t, so the line integral is twice
    that over [-1, 1].  Both halves are functions of u = |t| in [0, 1] and
    share one tanh-sinh rule; the removable point |t| = 1 is formed from the
    distance 1 - u, which the rule gives exactly.
    """
    u, d1, w = tanh_sinh_nodes(0.0, 1.0, npts)
    log_u = np.log(u)
    near = d1 < 0.5
    log_u[near] = np.log1p(-d1[near])
    ratio = -np.expm1(3.0 * alpha * log_u) / (d1 * (1.0 + u))
    # t = -u on [-1, 0], where |1 + t| = 1 - u; t = u on [0, 1]
    line = np.sum(u ** -alpha * (d1 ** -alpha + (1.0 + u) ** -alpha) * ratio * w)
    return float(2.0 * math.pi / math.sin(0.5 * math.pi * (2.0 - 3.0 * alpha)) * line)


def _overlap_ceiling(alpha: float, gamma: float) -> float:
    """Closed-form cap for the shifted overlap integral, any shifts.

    Splits the inner integral at distance 2 from the moving singularity.
    The near part contributes a |t|^(-gamma) spike, the far part a constant;
    integrating both against the remaining weight gives the ceiling.
    """
    if not 0.0 < gamma < 1.0 - alpha:
        raise DomainError("gamma must lie in (0, 1 - alpha)")
    if 2.0 * alpha - gamma >= 1.0:
        raise DomainError("gamma too small: inner spike not integrable")

    def f(x):
        return np.abs(x) ** -alpha / (1.0 + x * x)

    c1 = 2.0 * line_quadrature(f, -60.0, 60.0, cuts=(0.0,), npts=400)
    c1 = max(c1 + 4.0 * 60.0 ** (-alpha) / 60.0, math.pi)
    p = 2.0 * alpha - gamma
    c2 = 2.0 ** (1.0 - gamma) * (1.0 + 2.0 ** (1.0 - p)) / (1.0 - p)
    return c1 * (2.0 / (1.0 - alpha) + math.pi) + c2 * (
        4.0 / (1.0 - alpha - gamma) + 2.0 * math.pi
    )


def _energy_profile(s: float, spec: GreenSpec, npts: int) -> float:
    om = math.hypot(s, spec.mass)
    b = max(60.0, 12.0 * om)

    def f(k):
        return np.abs(k * k - om * om) ** -spec.alpha / (1.0 + k * k)

    val = line_quadrature(f, -b, b, cuts=(-om, om), npts=npts)
    tail = 2.0 * (b * b - om * om) ** -spec.alpha * (math.pi / 2.0 - math.atan(b))
    return float(val + tail)


@dataclass(frozen=True)
class ScalarChainFactors:
    """Model-level ingredients of the order-n scalar sup bounds."""

    spatial: float
    energy_sup: float
    overlap_sup: float
    overlap_ceiling: float
    third_factor: float
    gamma: float
    energy_history: Tuple[float, ...]
    overlap_history: Tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "spatial": self.spatial,
            "energy_sup": self.energy_sup,
            "overlap_sup": self.overlap_sup,
            "overlap_ceiling": self.overlap_ceiling,
            "third_factor": self.third_factor,
            "gamma": self.gamma,
            "energy_history": list(self.energy_history),
            "overlap_history": list(self.overlap_history),
        }


def compute_scalar_factors(spec: GreenSpec, gamma: float = 0.25) -> ScalarChainFactors:
    """Evaluate the three auxiliary integrals behind the scalar chain.

    The overlap sup over shifts (a, b, c) sits at the origin: by Riesz's
    rearrangement inequality and the Hardy-Littlewood inequality (Lieb &
    Loss, Analysis, Thms 3.4 and 3.7) no shift beats I(0, 0, 0), which
    :func:`_overlap_origin` reduces to one line integral.  It is refined at
    rtol 1e-12 and its values per round are kept as ``overlap_history``, so
    callers can verify the stability themselves; a sup above the closed-form
    ceiling is raised.
    """
    if not 0.0 < spec.alpha <= 0.5:
        raise DomainError("scalar chain requires alpha in (0, 1/2]")
    alpha, m = spec.alpha, spec.mass

    if spec.dim == 1:
        spatial = 1.0
    else:
        # transverse Lorentzian integral; sech substitution makes it entire
        u, wu = gl_nodes(-45.0, 45.0, 400)
        spatial = float(np.sum(wu / np.cosh(u))) + 2.0 * math.exp(-45.0)

    uniform = 2.0 * (2.0 / (1.0 - alpha) + math.pi)
    if spec.dim == 1:
        svals = np.array([0.0])
    else:
        smax = 8.0 * m
        while (smax * smax + m * m) ** (-0.5 * alpha) * uniform >= _energy_profile(
            0.0, spec, 160
        ):
            smax *= 2.0
            if smax > 4096.0 * m:
                raise QuadratureError("energy sup search window did not close")
        svals = np.concatenate(
            [np.linspace(0.0, 3.0 * m, 25), np.geomspace(3.0 * m, smax, 20)]
        )
    energy_history = tuple(
        max(_energy_profile(float(s), spec, npts) for s in svals)
        for npts in (160, 320)
    )
    energy_sup = energy_history[-1]

    record: List[dict] = []
    overlap_sup = float(refine(lambda npts: _overlap_origin(alpha, npts),
                               [24 << k for k in range(5)], 1e-12, 0.0,
                               "overlap_sup", record))
    ceiling = _overlap_ceiling(alpha, gamma)
    if overlap_sup > ceiling:
        raise QuadratureError(
            "overlap sup exceeds its analytic ceiling", residual=overlap_sup / ceiling
        )
    third = m ** (-3.0 * alpha) * 8.0 * overlap_sup
    return ScalarChainFactors(
        spatial=spatial,
        energy_sup=energy_sup,
        overlap_sup=overlap_sup,
        overlap_ceiling=ceiling,
        third_factor=third,
        gamma=gamma,
        energy_history=energy_history,
        overlap_history=tuple(row[1] for row in record[0]["history"]),
    )


@dataclass(frozen=True)
class ScalarBoundReport:
    order: int
    constant: float
    cumulant: float
    factors: ScalarChainFactors

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "constant": self.constant,
            "cumulant": self.cumulant,
            "factors": self.factors.as_dict(),
        }


def bound_integral_scalar(
    n: int,
    spec: GreenSpec,
    triple: LevyTriple,
    gamma: float = 0.25,
    factors: Optional[ScalarChainFactors] = None,
) -> ScalarBoundReport:
    """Order-n sup-bound constant A_n with |W_n(f)| <= A_n ||f||_{0,2d}.

    Valid from n = 3 up; the pair level has the sharper closed form in
    :func:`pair_bound`.  ``factors`` may carry precomputed auxiliary
    integrals so a whole chain of orders shares one evaluation.
    """
    if n < 3:
        raise DomainError("sup-bound chain starts at order 3; use pair_bound below")
    if factors is None:
        factors = compute_scalar_factors(spec, gamma)
    cn = abs(cumulant_coeff(n, triple))
    d = spec.dim
    constant = (
        n
        * cn
        * 2.0 ** (n - 1)
        * (2.0 * math.pi) ** (d - 0.5 * d * n)
        * factors.spatial ** (n - 1)
        * factors.energy_sup ** (n - 3)
        * factors.third_factor
    )
    return ScalarBoundReport(order=n, constant=constant, cumulant=cn, factors=factors)


# -- vector bounding integrals ----------------------------------------------------


def _shifted_radial_value(a: float, npts: int, cap: float = 60.0) -> float:
    """integral |k + a e|^-1 |k|^-1 (1+|k|^2)^(-3/2) d^3k, cylindrical form."""
    if cap < 2.0 * a:
        cap = 2.0 * a + 10.0
    lam, wl = sine_nodes(0.0, cap, npts)
    acc = np.zeros_like(lam)
    for lo, hi in ((-cap, min(-a, 0.0)), (min(-a, 0.0), 0.0), (0.0, cap)):
        if hi <= lo:
            continue
        z, wz = sine_nodes(lo, hi, npts)
        zz = z[None, :]
        ll = lam[:, None]
        rsq = zz * zz + ll * ll
        v = (
            ((zz + a) ** 2 + ll * ll) ** -0.5
            * rsq**-0.5
            * (1.0 + rsq) ** -1.5
        )
        acc = acc + np.sum(v * wz[None, :], axis=1)
    core = 2.0 * math.pi * float(np.sum(wl * lam * acc))
    tail = 8.0 * math.pi * (1.0 - cap / math.hypot(1.0, cap))
    return core + tail


@dataclass(frozen=True)
class VectorBoundReport:
    order: int
    slot: int
    constant: float
    linear_moment: float
    quadratic_moment: float
    shifted_sup: float
    shifted_history: Tuple[float, ...]
    stop_radius: float

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "slot": self.slot,
            "constant": self.constant,
            "linear_moment": self.linear_moment,
            "quadratic_moment": self.quadratic_moment,
            "shifted_sup": self.shifted_sup,
            "shifted_history": list(self.shifted_history),
            "stop_radius": self.stop_radius,
        }


@functools.lru_cache(maxsize=None)
def _shift_sup() -> Tuple[float, Tuple[float, ...], float]:
    """Sup over shifts of the mixed moment: (sup, history, stop radius).

    The search over an expanding radius stops once the derived decay cap
    8 pi / a + 8 pi / a^2 falls below the running sup.
    """
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    history: List[float] = []
    sup = 0.0
    amax = grid[-1]
    while True:
        for a in grid:
            v = _shifted_radial_value(float(a), 160)
            sup = max(sup, v)
            history.append(v)
        if 8.0 * math.pi / amax + 8.0 * math.pi / amax**2 < sup:
            break
        grid = [2.0 * amax]
        amax *= 2.0
        if amax > 512.0:
            raise QuadratureError("shift sup search window did not close")
    ceiling = 4.0 * math.pi**2
    if sup > ceiling:
        raise QuadratureError(
            "shifted moment exceeds its Cauchy-Schwarz cap", residual=sup / ceiling
        )
    return sup, tuple(history), amax


def bound_integral_vector(n: int, j: int) -> VectorBoundReport:
    """Quadrature constant for slot j of the order-n vector-model bound.

    The three ingredients are the |k|^-1 and |k|^-2 moments of the massless
    momentum weight, 4 pi * int_0^inf lambda^(2 - p) (1 + lambda^2)^(-3/2)
    dlambda for p = 1, 2 (both exactly 4 pi), and the sup over shifts of the
    mixed moment, bounded above by 4 pi^2.  The sup depends on neither n nor
    j, so it is searched once per process.
    """
    if n < 3:
        raise DomainError("vector bounds are assembled from order 3 up")
    if not 0 <= j <= n:
        raise DomainError("slot index out of range")
    r1 = r2 = 4.0 * math.pi
    sup, history, amax = _shift_sup()
    base = (2.0 * math.pi) ** (3 - n) * 2.0 ** (-n)
    if j in (0, n):
        constant = base * r1 ** (n - 3) * r2 * sup
    else:
        constant = base * r1 ** (n - 2) * sup
    return VectorBoundReport(
        order=n,
        slot=j,
        constant=constant,
        linear_moment=r1,
        quadratic_moment=r2,
        shifted_sup=sup,
        shifted_history=history,
        stop_radius=amax,
    )


# -- partition constant chain -----------------------------------------------------


def partition_sums(a: Sequence[float]) -> List[float]:
    """b_n = sum over set partitions of {1..n} of prod_B a_{|B|}.

    Splitting off the block that holds n + 1 gives the moment recurrence
    b_{n+1} = sum_{k=0}^{n} C(n, k) a_{k+1} b_{n-k} with b_0 = 1 (Smith,
    Amer. Statist. 49, 1995): exact and O(n^2).  With a identically one
    this is the Bell sequence.
    """
    avals = [float(x) for x in a]
    if any(x < 0.0 for x in avals):
        raise DomainError("order bounds must be nonnegative")
    if len(avals) > MAX_GROUND_SIZE:
        raise SizeLimitError(
            f"partition sums supported through order {MAX_GROUND_SIZE}"
        )
    b = [1.0]
    for n in range(len(avals)):
        b.append(sum(math.comb(n, k) * avals[k] * b[n - k] for k in range(n + 1)))
    return b[1:]


def norm_constants(b: Sequence[float]) -> List[float]:
    """c_n = max(b_1, ..., b_{2n}, 1), the running floor-one envelope.

    Products of the c's dominate partition sums of combined order:
    b_{m+n} <= c_m * c_n whenever both sides are defined.
    """
    if len(b) < 2:
        raise PreconditionError("need partition sums through order 2n to emit c_n")
    return [max(max(b[: 2 * n]), 1.0) for n in range(1, len(b) // 2 + 1)]


def constant_chain(a: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Partition sums of the order bounds and their norm constants.

    Returns (b, c) with len(b) = len(a) and len(c) = len(a) // 2.
    """
    b = partition_sums(a)
    return b, norm_constants(b)


# -- Gram pairs -------------------------------------------------------------------


@dataclass(frozen=True)
class GramPair:
    """Pairing matrix of a monomial basis with a candidate dominating form.

    ``form`` holds the full (untruncated) pairings W(F_i* x F_j);
    ``majorant`` is the diagonal of squared seminorms that is supposed to
    dominate it.  Both must be Hermitian; definiteness of the majorant is
    checked later, at majorization time.
    """

    form: np.ndarray
    majorant: np.ndarray
    basis: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.form, dtype=complex)
        p = np.asarray(self.majorant, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape != p.shape:
            raise DomainError("form and majorant must be square and same-shaped")
        for name, mat in (("form", w), ("majorant", p)):
            defect = float(np.max(np.abs(mat - mat.conj().T)))
            scale = max(1.0, float(np.max(np.abs(mat))))
            if defect > 1e-8 * scale:
                raise DomainError(
                    f"{name} asymmetry {defect:.3e} exceeds the hermiticity guard"
                )
        object.__setattr__(self, "form", w)
        object.__setattr__(self, "majorant", p)


def _factor_key(g: TestFunction):
    return (g.dim, g.center, g.width, tuple(sorted(g.coeffs.items())), g.freq)


def _star_factors(mono: Sequence[TestFunction]) -> Tuple[TestFunction, ...]:
    # momentum-space adjoint: reverse slot order, conjugate, flip momenta
    return tuple(g.conjugate().flip() for g in reversed(tuple(mono)))


def _full_pairing(
    slots: Sequence[TestFunction],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: Optional[float],
    cache: Dict,
) -> complex:
    """Full correlation of the slot list via its cumulant table."""
    t = len(slots)
    if t == 0:
        return 1.0 + 0.0j
    table = CorrelationTable(t)
    values: Dict[Tuple[int, ...], complex] = {}
    for key in table.all_keys():
        sub = tuple(slots[i - 1] for i in key)
        n = len(sub)
        if n == 1 or cumulant_coeff(n, triple) == 0.0:
            values[key] = 0.0 + 0.0j
            continue
        ck = tuple(_factor_key(g) for g in sub)
        if ck not in cache:
            cache[ck] = complex(
                truncated_momentum_eval(TensorTestFunction(sub), spec, triple, tol)
            )
        values[key] = cache[ck]
    full = moments_from_cumulants(CorrelationTable(t, values))
    return full[tuple(range(1, t + 1))]


def build_gram_pair(
    spec: GreenSpec,
    triple: LevyTriple,
    basis: Sequence[Sequence[TestFunction]],
    seminorm: Callable[[Sequence[TestFunction]], float],
    tol: Optional[float] = None,
) -> GramPair:
    """Assemble the pairing matrix of a monomial basis and its majorant.

    ``basis`` entries are tuples of momentum-space test functions (the
    empty tuple is the vacuum monomial, paired to one).  Only the upper
    triangle is evaluated; the mirror entries are taken by conjugation,
    which the adjoint symmetry of the pairing makes exact, so the result is
    Hermitian by construction.  ``seminorm`` maps a monomial to the
    dominating seminorm whose square enters the diagonal majorant.
    """
    monos = [tuple(m) for m in basis]
    for m in monos:
        if len(m) > 3:
            raise PreconditionError("monomial degree above three not supported")
    dim = len(monos)
    w = np.zeros((dim, dim), dtype=complex)
    cache: Dict = {}
    for i in range(dim):
        star = _star_factors(monos[i])
        for j in range(i, dim):
            val = _full_pairing(star + monos[j], spec, triple, tol, cache)
            w[i, j] = val
            w[j, i] = val.conjugate()
    p = np.diag([float(seminorm(m)) ** 2 for m in monos]).astype(complex)
    return GramPair(form=w, majorant=p, basis=tuple(monos))


def search_indefinite_gram(
    spec: GreenSpec,
    triple: LevyTriple,
    n_candidates: int = 3,
    seed: int = 7,
    tol: Optional[float] = None,
) -> dict:
    """Randomized hunt for a negative direction of the pairing form.

    Each candidate basis mixes the vacuum, a one-slot monomial, and a
    two-slot monomial with random centers, widths and modulations, so the
    quartic cumulant enters the two-particle block.  The report states
    plainly whether any candidate produced a negative eigenvalue; absence
    of a finding is evidence, not proof.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    found = False
    witness = None
    minima = []
    for idx in range(n_candidates):
        fs = []
        for _ in range(3):
            center = tuple(rng.uniform(-1.5, 1.5, size=d))
            freq = tuple(rng.uniform(-1.0, 1.0, size=d))
            fs.append(
                TestFunction.gaussian(center, float(rng.uniform(0.6, 1.2)), freq=freq)
            )
        basis = [(), (fs[0],), (fs[1], fs[2])]
        pair = build_gram_pair(spec, triple, basis, lambda m: 1.0, tol=tol)
        lam = np.linalg.eigvalsh(pair.form)
        scale = max(float(np.max(np.abs(lam))), 1e-300)
        minima.append(float(lam[0]))
        if lam[0] < -1e-9 * scale and not found:
            found = True
            witness = idx
    return {
        "found": found,
        "witness_index": witness,
        "min_eigenvalues": minima,
        "n_candidates": n_candidates,
        "seed": seed,
    }


# -- majorization and Krein reduction ---------------------------------------------


@dataclass(frozen=True)
class MajorizationReport:
    ratio: float
    passed: bool


def majorization_check(pair: GramPair) -> MajorizationReport:
    """Spectral norm of P^(-1/2) W P^(-1/2) and the <= 1 verdict.

    Raises :class:`InvalidMajorantError` when the majorant is not positive
    definite, since the whitened form is undefined there.
    """
    pvals, pvecs = np.linalg.eigh(pair.majorant)
    scale = max(float(pvals[-1]), 0.0)
    if pvals[0] <= 1e-12 * max(scale, 1.0):
        raise InvalidMajorantError(
            f"majorant lowest eigenvalue {pvals[0]:.3e} is not positive"
        )
    inv_half = pvecs @ np.diag(pvals**-0.5) @ pvecs.conj().T
    t = inv_half @ pair.form @ inv_half
    t = 0.5 * (t + t.conj().T)
    ratio = float(np.max(np.abs(np.linalg.eigvalsh(t))))
    return MajorizationReport(ratio=ratio, passed=ratio <= 1.0 + 1e-10)


def _matrix_sign(x: np.ndarray, tol: float = 1e-13, iters: int = 80) -> np.ndarray:
    """Newton iteration for the matrix sign of a Hermitian matrix."""
    s = x / max(float(np.linalg.norm(x, 2)), 1e-300)
    ident = np.eye(len(x), dtype=complex)
    err = math.inf
    for _ in range(iters):
        err = float(np.linalg.norm(s @ s - ident, 2))
        if err < tol:
            return 0.5 * (s + s.conj().T)
        s = 0.5 * (s + np.linalg.inv(s))
    raise QuadratureError("matrix sign iteration stalled", residual=err)


@dataclass(frozen=True)
class KreinResult:
    """Sign metric extracted from a majorized pairing.

    ``metric`` is the self-inverse sign operator on the non-degenerate
    complement, expressed in the complement's eigenbasis; ``factor`` maps
    that basis back so that  form ~= factor @ metric @ factor^*  up to the
    dropped kernel.  ``complement`` holds the orthonormal complement basis
    in whitened coordinates.
    """

    metric: np.ndarray
    factor: np.ndarray
    complement: np.ndarray
    spectral_norm_ratio: float
    degenerate_dim: int
    reconstruction_error: float
    remajorization_ratio: Optional[float]


def krein_reduce(pair: GramPair, kernel_tol: float = 1e-10) -> KreinResult:
    """Split the whitened pairing into a sign metric and a degenerate part.

    Requires the majorization check to pass.  The metric is computed by a
    Newton sign iteration on the deflated block (not read off a diagonal),
    so its self-inverse defect is a genuine numerical residual.
    """
    report = majorization_check(pair)
    if not report.passed:
        raise PreconditionError(
            f"majorization ratio {report.ratio:.6e} exceeds one; no reduction"
        )
    pvals, pvecs = np.linalg.eigh(pair.majorant)
    p_half = pvecs @ np.diag(pvals**0.5) @ pvecs.conj().T
    inv_half = pvecs @ np.diag(pvals**-0.5) @ pvecs.conj().T
    t = inv_half @ pair.form @ inv_half
    t = 0.5 * (t + t.conj().T)
    lam, u = np.linalg.eigh(t)
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    keep = np.abs(lam) > kernel_tol * scale
    k = int(len(lam) - np.count_nonzero(keep))
    u_r = u[:, keep]
    lam_r = lam[keep]
    if lam_r.size == 0:
        raise DomainError("pairing is entirely degenerate; nothing to reduce")
    t_red = u_r.conj().T @ t @ u_r
    metric = _matrix_sign(t_red)
    factor = p_half @ u_r @ np.diag(np.sqrt(np.abs(lam_r)).astype(complex))
    recon = factor @ metric @ factor.conj().T
    wscale = max(float(np.linalg.norm(pair.form, 2)), 1e-300)
    rec_err = float(np.linalg.norm(pair.form - recon, 2)) / wscale
    remaj: Optional[float] = None
    if k == 0:
        abs_t = u @ np.diag(np.abs(lam)) @ u.conj().T
        p_k = p_half @ abs_t @ p_half
        p_k = 0.5 * (p_k + p_k.conj().T)
        try:
            remaj = majorization_check(
                GramPair(pair.form, p_k, pair.basis)
            ).ratio
        except InvalidMajorantError:
            remaj = None
    return KreinResult(
        metric=metric,
        factor=factor,
        complement=u_r,
        spectral_norm_ratio=report.ratio,
        degenerate_dim=k,
        reconstruction_error=rec_err,
        remajorization_ratio=remaj,
    )


# -- end-to-end certification -----------------------------------------------------


def _is_quadratic(triple: LevyTriple, upto: int) -> bool:
    return all(cumulant_coeff(n, triple) == 0.0 for n in range(3, upto + 1))


def hssc_certify(
    spec: GreenSpec,
    triple: LevyTriple,
    family: Sequence[TensorTestFunction],
    n_max: int = 4,
    norm_spec: Optional[SchwartzNormSpec] = None,
    gamma: float = 0.25,
    pair_degree_cap: Optional[int] = None,
    tol: Optional[float] = None,
    out_path: Optional[str] = None,
) -> dict:
    """Certify the seminorm domination of the hierarchy on a test family.

    Assembles the order bounds A_n (closed pair form plus the singular
    chain for n >= 3, through order 2 * n_max), turns them into partition
    sums and norm constants, then checks two things on the family: that
    every member of order n obeys |W_n(f)| <= A_n ||f||, and that every
    pair of members with combined degree within ``pair_degree_cap`` obeys
    the two-sided seminorm bound |W(phi* x eta)| <= p(phi) p(eta) with
    p = c_deg * product norm.  The returned dict is JSON-ready; margins are
    reported as found, including failures.

    The default pair cap keeps combined degree at three in two dimensions
    (higher full pairings are quadrature-heavy there) unless every cumulant
    above the second vanishes, in which case the cap is n_max.
    """
    t0 = time.perf_counter()
    if n_max < 2:
        raise DomainError("certification needs n_max >= 2")
    if not family:
        raise PreconditionError("empty test family")
    for f in family:
        if not isinstance(f, TensorTestFunction):
            raise TypeError("family members must be tensor test functions")
    if norm_spec is None:
        norm_spec = SchwartzNormSpec(0, 2 * spec.dim)
    if norm_spec.weight_power < 2 * spec.dim:
        raise DomainError("weight power below twice the dimension: bounds invalid")
    quadratic = _is_quadratic(triple, 2 * n_max)
    if pair_degree_cap is None:
        pair_degree_cap = n_max if (spec.dim == 1 or quadratic) else min(n_max, 3)

    a: List[float] = [0.0, pair_bound(spec, triple, norm_spec.weight_power)]
    if quadratic:
        # no higher cumulants: every order bound above the pair vanishes and
        # the singular factor integrals are never needed
        factors = None
        a.extend(0.0 for _ in range(3, 2 * n_max + 1))
    else:
        factors = compute_scalar_factors(spec, gamma)
        for n in range(3, 2 * n_max + 1):
            a.append(bound_integral_scalar(n, spec, triple, gamma, factors).constant)
    b, c = constant_chain(a)

    norms = [tensor_schwartz_norm(f, norm_spec) for f in family]
    degrees = [f.n_points for f in family]

    def seminorm_of(idx: int) -> float:
        return c[degrees[idx] - 1] * norms[idx]

    per_order = []
    worst_margin = math.inf
    for n in range(2, n_max + 1):
        members = [i for i, deg in enumerate(degrees) if deg == n]
        if not members:
            continue
        ratios = []
        margins = []
        for i in members:
            if n >= 3 and cumulant_coeff(n, triple) == 0.0:
                lhs = 0.0
            else:
                lhs = abs(truncated_momentum_eval(family[i], spec, triple, tol))
            rhs = a[n - 1] * norms[i]
            margins.append(rhs - lhs)
            ratios.append(lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf))
        per_order.append(
            {
                "order": n,
                "count": len(members),
                "worst_ratio": float(max(ratios)),
                "min_margin": float(min(margins)),
            }
        )
        worst_margin = min(worst_margin, min(margins))

    cache: Dict = {}
    pair_count = 0
    pair_worst = 0.0
    pair_margin = math.inf
    for i in range(len(family)):
        for j in range(i, len(family)):
            if degrees[i] + degrees[j] > pair_degree_cap:
                continue
            phi, eta = family[i], family[j]
            slots = _star_factors(phi.factors) + tuple(eta.factors)
            val = _full_pairing(slots, spec, triple, tol, cache)
            lhs = abs(np.conj(phi.prefactor) * eta.prefactor * val)
            rhs = seminorm_of(i) * seminorm_of(j)
            pair_count += 1
            pair_worst = max(pair_worst, lhs / rhs if rhs > 0.0 else math.inf)
            pair_margin = min(pair_margin, rhs - lhs)
    if pair_count == 0:
        pair_margin = math.inf
    worst_margin = min(worst_margin, pair_margin)

    passed = worst_margin >= -1e-12 * max(1.0, *(abs(x) for x in a))
    certificate = {
        "model": {
            "dim": spec.dim,
            "alpha": spec.alpha,
            "mass": spec.mass,
            "drift": triple.drift,
            "variance": triple.variance,
            "atoms": [list(atom) for atom in triple.atoms],
            "quadratic": quadratic,
        },
        "norm": {
            "max_derivative_order": norm_spec.max_derivative_order,
            "weight_power": norm_spec.weight_power,
        },
        "gamma": gamma,
        "family_size": len(family),
        "family_orders": sorted(set(degrees)),
        "constants": {
            "order_bounds": a,
            "partition_sums": b,
            "norm_constants": c,
        },
        "scalar_factors": None if factors is None else factors.as_dict(),
        "per_order": per_order,
        "pairwise": {
            "degree_cap": pair_degree_cap,
            "count": pair_count,
            "worst_ratio": float(pair_worst),
            "min_margin": None if pair_count == 0 else float(pair_margin),
        },
        "passed": bool(passed),
        "runtime_seconds": time.perf_counter() - t0,
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(certificate, fh, indent=2)
    return certificate
