"""Certification pipeline for the Hilbert-space structure of the hierarchy.

Everything here turns analytic sup-bounds into numbers with explicit error
control: weighted Schwartz norms in closed form, the singular auxiliary
integrals that cap the order-n momentum distributions, the partition-sum
constant chain, and finite-dimensional Gram/majorization/Krein reductions.
The end product is :func:`hssc_certify`, which emits a JSON-ready
certificate for a concrete noise model and a family of test functions.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
from .quadrature import collect, refine, sine_nodes, tanh_sinh_nodes
from .testfunctions import TensorTestFunction, TestFunction
from .wightman import truncated_momentum_eval


# -- weighted Schwartz norms ------------------------------------------------------


def schwartz_norm(f: TestFunction, weight_power: float) -> float:
    """Weighted sup norm  ||f||_{0,N} = sup_x (1+|x|^2)^(N/2) |f(x)|, exactly.

    N is ``weight_power``.  For a Gaussian packet (degree 0) |f(x)| =
    |a| exp(-|x-c|^2 / 2w^2) and the weight depends on |x| alone, so in any
    dimension the sup lies on the ray through c: it is the max over r >= 0
    of (1+r^2)^(N/2) exp(-(r-|c|)^2 / 2w^2).  The stationary points of that
    profile are the roots of r^3 - |c| r^2 + (1 - N w^2) r - |c|.  The
    profile is taken at r = 0 and at the real part of each root, clipped to
    r >= 0: every candidate is a point of the ray, and the stationary ones
    are among them, so their max is the sup.  A root's error enters the
    value only at second order.  A polynomial prefactor (degree > 0) is not
    supported.
    """
    if not isinstance(f, TestFunction):
        raise TypeError("schwartz_norm expects a TestFunction")
    if weight_power < 0:
        raise DomainError("weight power must be nonnegative")
    if f.degree() > 0:
        raise PreconditionError("schwartz_norm needs a Gaussian packet (degree 0)")
    amp = sum(abs(v) for v in f.coeffs.values())
    power, w2 = float(weight_power), f.width**2
    c = math.hypot(*f.center)
    roots = np.roots([1.0, -c, 1.0 - power * w2, -c])
    r = np.append(np.maximum(roots.real, 0.0), 0.0)
    log_profile = 0.5 * power * np.log1p(r * r) - (r - c) ** 2 / (2.0 * w2)
    return amp * math.exp(float(np.max(log_profile)))


def tensor_schwartz_norm(t: TensorTestFunction, weight_power: float) -> float:
    """Norm of a pure tensor with the weight taken slot by slot.

    sup over (x_1, ..., x_n) of prod_s (1+|x_s|^2)^(N/2) |t(x)| factors into
    |prefactor| times the factors' :func:`schwartz_norm`, since both the
    weight and |t| are products over the slots.
    """
    out = abs(t.prefactor)
    for g in t.factors:
        out *= schwartz_norm(g, weight_power)
    return out


# -- closed pair-level bound ------------------------------------------------------


def pair_bound(spec: GreenSpec, triple: LevyTriple, weight_power: int) -> float:
    """Constant A2 with |W2(f)| <= A2 * ||f||_{0,N} for pure tensors f.

    Uses the explicit support representation of the pair distribution: a
    mass-shell line integral at alpha = 1/2, a timelike-region density for
    alpha < 1/2 (one spatial dimension only).  The line at alpha = 1/2 is
    closed; otherwise u = k^2 - m^2 (d = 1) or u = q^2 (d = 2) makes the
    integral one case of :func:`_line_integral`.
    """
    if weight_power < 2 * spec.dim:
        raise DomainError("pair bound needs weight power at least twice the dimension")
    c2 = abs(cumulant_coeff(2, triple))
    alpha, m = spec.alpha, spec.mass
    n = float(weight_power)
    if spec.dim == 1 and alpha == 0.5:
        return 2.0 * math.pi * c2 / (2.0 * m) * (1.0 + m * m) ** (-n)
    if spec.dim == 1:
        line = _line_integral(1.0 - 2.0 * alpha, 1.0 + m * m, n, m * m, 0.5, "pair_bound")
        return c2 * math.sin(2.0 * math.pi * alpha) * line
    if spec.dim == 2 and alpha == 0.5:
        line = _line_integral(0.5, 0.5 * (1.0 + m * m), n, m * m, 0.5, "pair_bound")
        return 2.0 * math.pi * c2 * 2.0 ** (-n - 1.0) * line
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


def _line_integral(nu: float, beta: float, mu: float, gamma: float, rho: float,
                   op: str) -> float:
    """G = integral_0^inf x^(nu-1) (beta+x)^(-mu) (gamma+x)^(-rho) dx, refined.

    Gradshteyn & Ryzhik 3.197.1 give G in closed form through 2F1; it is
    evaluated here by quadrature, split at x = 1.  On [0, 1], x = s^(1/nu)
    leaves the bounded integrand (beta+x)^(-mu) (gamma+x)^(-rho) / nu; on
    [1, inf), x = 1/s leaves s^(mu+rho-nu-1) (beta s+1)^(-mu) (gamma s+1)^(-rho),
    whose endpoint exponent stays above -1 for every caller here.  Both
    halves share one tanh-sinh rule on s in [0, 1] under :func:`refine` at
    rtol 1e-12.
    """
    def value(npts: int) -> float:
        s, _, w = tanh_sinh_nodes(0.0, 1.0, npts)
        x = s ** (1.0 / nu)
        low = (beta + x) ** -mu * (gamma + x) ** -rho / nu
        high = (s ** (mu + rho - nu - 1.0)
                * (beta * s + 1.0) ** -mu * (gamma * s + 1.0) ** -rho)
        return float(np.sum((low + high) * w))

    return float(refine(value, [24 << k for k in range(7)], 1e-12, 0.0, op))


def _overlap_ceiling(alpha: float) -> float:
    """Closed-form cap for the shifted overlap integral, any shifts.

    Splits the inner integral at distance 2 from the moving singularity.
    The near part contributes a |t|^(-gamma) spike, the far part a constant;
    integrating both against the remaining weight gives the ceiling.  The
    far constant c1 = 2 * integral_R |x|^(-alpha) / (1+x^2) dx is exactly
    2 pi / cos(pi alpha / 2), from integral_0^inf x^(s-1) / (1+x^2) dx =
    (pi/2) / sin(pi s/2) at s = 1 - alpha.  The split exponent gamma = 1/4
    meets both conditions of the bound, 0 < gamma < 1 - alpha and
    2 alpha - gamma < 1, for every alpha in (0, 1/2].
    """
    gamma = 0.25
    c1 = 2.0 * math.pi / math.cos(0.5 * math.pi * alpha)
    p = 2.0 * alpha - gamma
    c2 = 2.0 ** (1.0 - gamma) * (1.0 + 2.0 ** (1.0 - p)) / (1.0 - p)
    return c1 * (2.0 / (1.0 - alpha) + math.pi) + c2 * (
        4.0 / (1.0 - alpha - gamma) + 2.0 * math.pi
    )


@dataclass(frozen=True)
class ScalarChainFactors:
    """Model-level ingredients of the order-n scalar sup bounds."""

    spatial: float
    energy_sup: float
    overlap_sup: float
    overlap_ceiling: float
    third_factor: float
    energy_history: Tuple[float, ...]
    overlap_history: Tuple[float, ...]
    energy_residual: float
    overlap_residual: float

    def lower_end(self) -> "ScalarChainFactors":
        """The factors with each refined sup at its value minus its residual."""
        overlap = self.overlap_sup - self.overlap_residual
        return replace(
            self, energy_sup=self.energy_sup - self.energy_residual, overlap_sup=overlap,
            third_factor=self.third_factor * (overlap / self.overlap_sup),
            energy_residual=0.0, overlap_residual=0.0)


def compute_scalar_factors(spec: GreenSpec) -> ScalarChainFactors:
    """Evaluate the three auxiliary integrals behind the scalar chain.

    ``spatial`` is 1 on the line and integral sech = pi in the plane.  The
    energy sup over the transverse momentum s of E(hypot(s, m)), where
    E(w) = integral |k^2 - w^2|^(-alpha) / (1+k^2) dk, is E(m): closing a
    contour in the upper half-plane gives E(w) = pi (1+w^2)^(-alpha)
    + (1 - cos pi alpha) G(1 - alpha, 1 + w^2, 1, w^2, 1/2), both terms
    decreasing in w (G as in :func:`_line_integral`).  ``energy_history``
    holds E per refinement round, and ``energy_residual`` the accepted
    residual of E(m).

    The overlap sup over shifts (a, b, c) sits at the origin: by Riesz's
    rearrangement inequality and the Hardy-Littlewood inequality (Lieb &
    Loss, Analysis, Thms 3.4 and 3.7) no shift beats I(0, 0, 0), which
    :func:`_overlap_origin` reduces to one line integral.  It is refined at
    rtol 1e-12 and its values per round are kept as ``overlap_history``, so
    callers can verify the stability themselves, with its accepted residual
    as ``overlap_residual``; a sup above the closed-form ceiling is raised.
    """
    if not 0.0 < spec.alpha <= 0.5:
        raise DomainError("scalar chain requires alpha in (0, 1/2]")
    if spec.dim not in (1, 2):
        raise DomainError("scalar chain covers one and two dimensions")
    alpha, m = spec.alpha, spec.mass
    spatial = 1.0 if spec.dim == 1 else math.pi

    lead = math.pi * (1.0 + m * m) ** -alpha
    lift = 2.0 * math.sin(0.5 * math.pi * alpha) ** 2  # 1 - cos(pi alpha)
    with collect() as records:
        j_out = _line_integral(1.0 - alpha, 1.0 + m * m, 1.0, m * m, 0.5, "energy_sup")
        overlap_sup = float(refine(lambda npts: _overlap_origin(alpha, npts),
                                   [24 << k for k in range(5)], 1e-12, 0.0,
                                   "overlap_sup"))
    energy_sup = lead + lift * j_out
    ceiling = _overlap_ceiling(alpha)
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
        energy_history=tuple(lead + lift * row[1] for row in records[0]["history"]),
        overlap_history=tuple(row[1] for row in records[1]["history"]),
        energy_residual=lift * records[0]["residual"],
        overlap_residual=records[1]["residual"],
    )


@dataclass(frozen=True)
class ScalarBoundReport:
    order: int
    constant: float
    cumulant: float
    factors: ScalarChainFactors


def bound_integral_scalar(
    n: int,
    spec: GreenSpec,
    triple: LevyTriple,
    factors: ScalarChainFactors,
) -> ScalarBoundReport:
    """Order-n sup-bound constant A_n with |W_n(f)| <= A_n ||f||_{0,2d}.

    Valid from n = 3 up; the pair level has the sharper closed form in
    :func:`pair_bound`.  ``factors`` holds the auxiliary integrals of
    :func:`compute_scalar_factors`, so a whole chain of orders shares one
    evaluation.
    """
    if n < 3:
        raise DomainError("sup-bound chain starts at order 3; use pair_bound below")
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


@dataclass(frozen=True)
class VectorBoundReport:
    order: int
    slot: int
    constant: float
    linear_moment: float
    quadratic_moment: float
    shifted_sup: float


@functools.lru_cache(maxsize=None)
def _shift_sup() -> float:
    """Sup over shifts a of the mixed moment of the vector chain,

        M(a) = integral |k + a e|^-1 |k|^-1 (1+|k|^2)^(-3/2) d^3k.

    Both factors are symmetric decreasing, the first about -a e, so by
    Riesz's rearrangement inequality and the Hardy-Littlewood inequality
    (Lieb & Loss, Analysis, Thms 3.4 and 3.7) no shift beats M(0), as for
    the scalar overlap sup.  M(0) is taken in cylindrical coordinates
    (lambda, z) inside radius 60 on 160 sine nodes per axis, z split at 0,
    plus the closed tail beyond; a value above the Cauchy-Schwarz cap
    4 pi^2 is raised.
    """
    cap = 60.0
    lam, wl = sine_nodes(0.0, cap, 160)
    acc = np.zeros_like(lam)
    for lo, hi in ((-cap, 0.0), (0.0, cap)):
        z, wz = sine_nodes(lo, hi, 160)
        rsq = z[None, :] ** 2 + lam[:, None] ** 2
        acc = acc + np.sum(rsq**-1.0 * (1.0 + rsq) ** -1.5 * wz[None, :], axis=1)
    core = 2.0 * math.pi * float(np.sum(wl * lam * acc))
    sup = core + 8.0 * math.pi * (1.0 - cap / math.hypot(1.0, cap))
    ceiling = 4.0 * math.pi**2
    if sup > ceiling:
        raise QuadratureError(
            "shifted moment exceeds its Cauchy-Schwarz cap", residual=sup / ceiling
        )
    return sup


def bound_integral_vector(n: int, j: int) -> VectorBoundReport:
    """Quadrature constant for slot j of the order-n vector-model bound.

    The three ingredients are the |k|^-1 and |k|^-2 moments of the massless
    momentum weight, 4 pi * int_0^inf lambda^(2 - p) (1 + lambda^2)^(-3/2)
    dlambda for p = 1, 2 (both exactly 4 pi), and the sup over shifts of the
    mixed moment, which sits at zero shift (see :func:`_shift_sup`) and is
    bounded above by 4 pi^2.  The sup depends on neither n nor j, so it is
    evaluated once per process.
    """
    if n < 3:
        raise DomainError("vector bounds are assembled from order 3 up")
    if not 0 <= j <= n:
        raise DomainError("slot index out of range")
    r1 = r2 = 4.0 * math.pi
    sup = _shift_sup()
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


def _evaluate(test: TensorTestFunction, spec: GreenSpec, triple: LevyTriple,
              tol: Optional[float]) -> Tuple[complex, float]:
    """W(test) and the summed residual of the refinements behind it (0 where none ran)."""
    with collect() as records:
        val = complex(truncated_momentum_eval(test, spec, triple, tol))
    return val, math.fsum(r["residual"] for r in records)


def _full_pairing(
    slots: Sequence[TestFunction],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: Optional[float],
    cache: Dict,
) -> Tuple[complex, float]:
    """Full correlation of the slot list via its cumulant table, and its error bound.

    With T the truncated values, r their residuals and M the partition sum
    at the top key, the bound is M(|T| + r) - M(|T|), which holds term by
    term, so also where the signed sum cancels.
    """
    t = len(slots)
    if t == 0:
        return 1.0 + 0.0j, 0.0
    values: Dict[Tuple[int, ...], complex] = {}
    sizes: Dict[Tuple[int, ...], float] = {}
    padded: Dict[Tuple[int, ...], float] = {}
    for key in CorrelationTable(t).all_keys():
        sub = tuple(slots[i - 1] for i in key)
        ck = tuple(_factor_key(g) for g in sub)
        if ck not in cache:
            cache[ck] = _evaluate(TensorTestFunction(sub), spec, triple, tol)
        values[key], resid = cache[ck]
        sizes[key] = abs(values[key])
        padded[key] = sizes[key] + resid
    top = tuple(range(1, t + 1))
    full, low, high = (moments_from_cumulants(CorrelationTable(t, v))[top]
                       for v in (values, sizes, padded))
    return full, (high - low).real


def _pairings(monos: Sequence[Tuple[TestFunction, ...]], spec: GreenSpec,
              triple: LevyTriple, tol: Optional[float], degree_cap: float,
              ) -> Iterator[Tuple[int, int, complex, float]]:
    """(i, j, W(m_i* x m_j), error bound) for i <= j within the degree cap, one cache."""
    cache: Dict = {}
    for i, left in enumerate(monos):
        # momentum-space adjoint: reverse slot order, conjugate, flip momenta
        star = tuple(g.conjugate().flip() for g in reversed(left))
        for j in range(i, len(monos)):
            if len(left) + len(monos[j]) <= degree_cap:
                yield (i, j, *_full_pairing(star + monos[j], spec, triple, tol, cache))


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
    w = np.zeros((len(monos), len(monos)), dtype=complex)
    for i, j, val, _ in _pairings(monos, spec, triple, tol, math.inf):
        w[i, j] = val
        w[j, i] = val.conjugate()
    p = np.diag([float(seminorm(m)) ** 2 for m in monos]).astype(complex)
    return GramPair(form=w, majorant=p)


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


def _whiten(pair: GramPair):
    """(P^(1/2), lam, U, report) for the whitened form T = P^(-1/2) W P^(-1/2).

    One ``eigh`` gives T = U diag(lam) U^*; the report's ratio is max |lam|.

    Raises :class:`InvalidMajorantError` when the majorant is not positive
    definite, since the whitened form is undefined there.
    """
    pvals, pvecs = np.linalg.eigh(pair.majorant)
    scale = max(float(pvals[-1]), 0.0)
    if pvals[0] <= 1e-12 * max(scale, 1.0):
        raise InvalidMajorantError(
            f"majorant lowest eigenvalue {pvals[0]:.3e} is not positive"
        )
    p_half = pvecs @ np.diag(pvals**0.5) @ pvecs.conj().T
    inv_half = pvecs @ np.diag(pvals**-0.5) @ pvecs.conj().T
    t = inv_half @ pair.form @ inv_half
    t = 0.5 * (t + t.conj().T)
    lam, u = np.linalg.eigh(t)
    ratio = float(np.max(np.abs(lam)))
    return p_half, lam, u, MajorizationReport(ratio=ratio, passed=ratio <= 1.0 + 1e-10)


def majorization_check(pair: GramPair) -> MajorizationReport:
    """Spectral norm of P^(-1/2) W P^(-1/2) and the <= 1 verdict.

    Raises :class:`InvalidMajorantError` when the majorant is not positive
    definite, since the whitened form is undefined there.
    """
    return _whiten(pair)[3]


@dataclass(frozen=True)
class KreinResult:
    """Sign metric extracted from a majorized pairing.

    ``metric`` is the self-inverse sign operator on the non-degenerate
    complement, expressed in the complement's eigenbasis: the diagonal of
    the signs of the kept eigenvalues of the whitened pairing.
    """

    metric: np.ndarray
    spectral_norm_ratio: float
    degenerate_dim: int
    reconstruction_error: float
    remajorization_ratio: Optional[float]


def krein_reduce(pair: GramPair) -> KreinResult:
    """Split the whitened pairing into a sign metric and a degenerate part.

    Requires the majorization check to pass.  Eigenvalues of the whitened
    pairing of modulus at most 1e-10 times its spectral norm form the
    degenerate part.  ``eigh`` has already diagonalized the whitened
    pairing T = U diag(lam) U^*, so its sign on the complement is
    diag(sign lam) (Higham, *Functions of Matrices*, 2008, ch. 5), an
    exact +-1 diagonal; the reconstruction error measures the rest.
    """
    p_half, lam, u, report = _whiten(pair)
    if not report.passed:
        raise PreconditionError(
            f"majorization ratio {report.ratio:.6e} exceeds one; no reduction"
        )
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    keep = np.abs(lam) > 1e-10 * scale
    k = int(len(lam) - np.count_nonzero(keep))
    u_r = u[:, keep]
    lam_r = lam[keep]
    if lam_r.size == 0:
        raise DomainError("pairing is entirely degenerate; nothing to reduce")
    metric = np.diag(np.sign(lam_r)).astype(complex)
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
            remaj = majorization_check(GramPair(pair.form, p_k)).ratio
        except InvalidMajorantError:
            remaj = None
    return KreinResult(
        metric=metric,
        spectral_norm_ratio=report.ratio,
        degenerate_dim=k,
        reconstruction_error=rec_err,
        remajorization_ratio=remaj,
    )


# -- end-to-end certification -----------------------------------------------------


def _is_quadratic(triple: LevyTriple, upto: int) -> bool:
    return all(cumulant_coeff(n, triple) == 0.0 for n in range(3, upto + 1))


def _bound_row(checks: Sequence[Tuple[float, float]]) -> dict:
    """Count, worst ratio and least margin of the comparisons lhs <= bound.

    A ratio is 0 where lhs is 0, and None (JSON null) where the bound is 0
    and lhs is not; one None makes the worst ratio None.
    """
    ratios = [0.0 if lhs == 0.0 else (float(lhs / bound) if bound > 0.0 else None)
              for lhs, bound in checks]
    return {"count": len(checks),
            "worst_ratio": None if None in ratios else max(ratios, default=0.0),
            "min_margin": min((float(bound - lhs) for lhs, bound in checks), default=None)}


def hssc_certify(
    spec: GreenSpec,
    triple: LevyTriple,
    family: Sequence[TensorTestFunction],
    n_max: int = 4,
    tol: Optional[float] = None,
) -> dict:
    """Certify the seminorm domination of the hierarchy on a test family.

    Assembles the order bounds A_n (closed pair form plus the singular
    chain for n >= 3, through order 2 * n_max), turns them into partition
    sums and norm constants, then checks two things on the family: that
    every member of order n obeys |W_n(f)| <= A_n ||f||, and that every
    pair of members with combined degree within the pair cap obeys the
    two-sided seminorm bound |W(phi* x eta)| <= p(phi) p(eta) with
    p = c_deg * product norm.  The norm is :func:`tensor_schwartz_norm` at
    weight power 2 * dim, the weighted sup norm ||f||_{0,2d} the bounds
    need.  The returned dict is JSON-ready (``json.dumps`` writes the
    scalar factors' histories, tuples, as lists); margins are reported as
    found, including failures.

    Each comparison is |W| + err <= bound.  The bound takes each refined
    factor behind it (the pair bound's line integral, the energy and overlap
    sups) at its value minus its accepted residual, and the certificate's
    ``scalar_factors`` report the values and the residuals.  A member's err
    sums the accepted residuals in the records of the refinements behind W
    (0 where no route ran); a pair's is M(|T| + r) - M(|T|), M the
    partition sum over its truncated values T with residuals r.  The margin
    is bound - |W| - err; the ratio (|W| + err) / bound is 0 when |W| + err
    is 0, and None (JSON null) when the bound is 0 and |W| + err is not.

    The pair cap keeps combined degree at three in two dimensions
    (higher full pairings are quadrature-heavy there) unless every cumulant
    above the second vanishes, in which case the cap is n_max.  The pair
    row's ``skipped`` counts the pairs i <= j above the cap, and ``passed``
    covers the checked rows only.  A member of order above n_max is a
    DomainError: it lies outside the orders the certificate checks.
    """
    t0 = time.perf_counter()
    if n_max < 2:
        raise DomainError("certification needs n_max >= 2")
    if not family:
        raise PreconditionError("empty test family")
    for f in family:
        if not isinstance(f, TensorTestFunction):
            raise TypeError("family members must be tensor test functions")
        if f.n_points > n_max:
            raise DomainError(f"a member of order {f.n_points} is above n_max = {n_max}")
    weight_power = 2 * spec.dim
    quadratic = _is_quadratic(triple, 2 * n_max)
    pair_degree_cap = n_max if (spec.dim == 1 or quadratic) else min(n_max, 3)

    # every refined bound-side factor enters at its lower end, so no
    # quadrature error can turn a fail into a pass
    with collect() as records:
        pair = pair_bound(spec, triple, weight_power)
    # the pair bound is a multiple of its one refined factor, a line
    # integral, where it is not closed
    a: List[float] = [0.0, pair * (1.0 - math.fsum(
        r["residual"] / r["value"][0] for r in records))]
    if quadratic:
        # no higher cumulants: every order bound above the pair vanishes and
        # the singular factor integrals are never needed
        factors = None
        a.extend(0.0 for _ in range(3, 2 * n_max + 1))
    else:
        factors = compute_scalar_factors(spec)
        low = factors.lower_end()
        for n in range(3, 2 * n_max + 1):
            a.append(bound_integral_scalar(n, spec, triple, low).constant)
    b = partition_sums(a)
    c = norm_constants(b)

    norms = [tensor_schwartz_norm(f, weight_power) for f in family]
    degrees = [f.n_points for f in family]
    per_order = []
    for n in range(2, n_max + 1):
        checks = []
        for f, norm in zip(family, norms):
            if f.n_points == n:
                val, err = _evaluate(f, spec, triple, tol)
                checks.append((abs(val) + err, a[n - 1] * norm))
        if checks:
            per_order.append({"order": n, **_bound_row(checks)})

    checks = []
    for i, j, val, err in _pairings([f.factors for f in family], spec, triple, tol,
                                    pair_degree_cap):
        scale = np.conj(family[i].prefactor) * family[j].prefactor
        bound = (c[degrees[i] - 1] * norms[i]) * (c[degrees[j] - 1] * norms[j])
        checks.append((abs(scale * val) + abs(scale) * err, bound))
    pairs = len(family) * (len(family) + 1) // 2
    pairwise = {"degree_cap": pair_degree_cap, **_bound_row(checks),
                "skipped": pairs - len(checks)}

    worst_margin = min((row["min_margin"] for row in per_order + [pairwise]
                        if row["min_margin"] is not None), default=math.inf)
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
        "norm": {"max_derivative_order": 0, "weight_power": weight_power},
        "family_size": len(family),
        "family_orders": sorted(set(degrees)),
        "constants": {
            "order_bounds": a,
            "partition_sums": b,
            "norm_constants": c,
        },
        "scalar_factors": None if factors is None else asdict(factors),
        "per_order": per_order,
        "pairwise": pairwise,
        "passed": bool(passed),
        "runtime_seconds": time.perf_counter() - t0,
    }
    return certificate
