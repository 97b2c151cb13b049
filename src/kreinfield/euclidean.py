"""Lattice white noise, kernel convolution and Monte Carlo correlators.

The random field is built in two steps: draw an independent noise variable
per lattice cell (Gaussian part plus compensated Poisson jumps, scaled so the
law converges to the continuum white noise as the cell volume shrinks), then
convolve with a Green kernel by FFT.  Smeared truncated correlation functions
are estimated from replicates by turning joint moments of the smeared field
into joint cumulants, with jackknife-over-batches error bars propagated
through that nonlinear map.

Streams are counter-based: (seed, replicate) indexes a Philox generator, so
any replicate can be regenerated independently of the others.

The estimators never build a field.  A replicate's smeared values are the n
projections of the cell noise onto the rows of S, the (n, sites) matrix of
smeared kernels, and their law has an exact sampler.  Replicate r draws from
``noise_generator(seed, r)``, in this order:

1. for each atom (s, lam), in ``triple.atoms`` order, a total count
   ``N = poisson(lam v sites)`` and then ``integers(0, sites, N)``: given
   their total, independent Poisson counts are spread uniformly over the
   cells (Devroye, *Non-Uniform Random Variate Generation*, 1986).  The
   counts of the drawn sites add  (s / v) S counts;
2. if sigma^2 > 0, n standard normals z, adding  sqrt(sigma^2 / v) R^T z
   with R the triangular factor of S^T = Q R, so R^T R = S S^T.

With the drift  a_c S 1  these have exactly the law of the projections of a
``white_noise_field`` sample.  The atoms come first and R^T is lower
triangular, so the first n' projections do not depend on how many weights
follow: a moment table's subsets of its first n' weights and the estimate on
those n' weights use the same draws.

An atom's N points enter as the sum of their N gathered columns of S, in
O(n N) time and memory, and the normals of a slice of replicates are kept
and multiplied by R^T once.  On 4096 sites (one core of a 2-vCPU Xeon) the
gather beats a count per site and an (n, sites) mat-vec below about 1 point
per site at n = 2 and 0.3 at n = 6, and is 1.4-4 times dearer at 2-4
points per site; every caller here draws about 1/8 point per site.  What is
left per replicate is mostly fixed cost: about 1-2 us to re-key the stream,
about 8 us in ``integers`` (5 us of it numpy's cost per call,
``np.prod(size)`` included, whatever N is) and about 1 us each for the
Poisson total and the normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, LatticeMismatchError, SizeLimitError
from .lattice import Lattice, LatticeField
from .levy import LevyTriple, QuaternionLevyData
from .partitions import BOSE, CorrelationTable, cumulants_from_moments
from .quaternion import quaternion_mul


def noise_generator(seed: int, replicate: int) -> np.random.Generator:
    """Independent stream for one replicate of one experiment.

    Check: test_rekeyed_streams_match_fresh_generators, where it is the
    reference stream that the estimators' re-keyed generators must
    reproduce.
    """
    return np.random.Generator(np.random.Philox(key=[seed, replicate]))


def _noise_streams(seed: int):
    """``at(r)`` returns a generator in the state of ``noise_generator(seed, r)``.

    ``Philox(key=...)`` draws an OS-entropy SeedSequence that the key then
    replaces; re-keying one bit generator (counter 0, key [seed, r], empty
    buffer) gives the same stream without it.  Each call resets the one
    generator that all calls share.
    """
    bits = np.random.Philox(key=[seed, 0])
    fresh = bits.state
    rng = np.random.Generator(bits)

    def at(replicate: int) -> np.random.Generator:
        fresh["state"]["key"][1] = replicate
        bits.state = fresh
        return rng

    return at


def white_noise_field(lat: Lattice, triple: LevyTriple, rng) -> LatticeField:
    """One sample of scalar cell-averaged white noise.

    Per cell of volume v the value is  a_c + sigma Z / sqrt(v) + sum_j s_j N_j / v
    with N_j ~ Poisson(lam_j v) and a_c the compensated drift; its n-th
    cumulant is c_n v^(1-n), matching the continuum noise smeared with the
    cell indicator divided by v.  This is the field whose projections the
    estimators sample directly.

    Check: the field-level checks test_site_statistics_match_cumulants,
    test_convolve_translation_equivariance, test_adjoint_smearing_identity
    and test_full_moments_match_raw_mc; perfbench also traces it.
    """
    v = lat.cell_volume
    vals = np.full(lat.shape, triple.compensated_drift())
    if triple.variance > 0:
        vals = vals + math.sqrt(triple.variance / v) * rng.standard_normal(lat.shape)
    for s, lam in triple.atoms:
        vals = vals + (s / v) * rng.poisson(lam * v, lat.shape)
    return LatticeField(lat, vals)


def quaternion_noise_field(lat: Lattice, data: QuaternionLevyData, rng) -> LatticeField:
    """One sample of quaternion-valued cell-averaged noise.

    Jumps sit on the real axis; each imaginary component is an independent
    centered Gaussian.  Small jumps (|y| < 1) are compensated, matching the
    exponent convention of ``psi_eval_vector``.

    Check: test_quaternion_noise_channels, the vector model's noise law per
    channel.
    """
    v = lat.cell_volume
    comp = data.beta - sum(lam * y for y, lam in data.atoms if abs(y) < 1)
    vals = np.zeros(lat.shape + (4,))
    vals[..., 0] = comp
    if data.variance_real > 0:
        vals[..., 0] += math.sqrt(data.variance_real / v) * rng.standard_normal(lat.shape)
    for y, lam in data.atoms:
        vals[..., 0] += (y / v) * rng.poisson(lam * v, lat.shape)
    if data.variance_imag > 0:
        sd = math.sqrt(data.variance_imag / v)
        vals[..., 1:] = sd * rng.standard_normal(lat.shape + (3,))
    return LatticeField(lat, vals)


def convolve(kernel: LatticeField, field: LatticeField) -> LatticeField:
    """Circular lattice convolution (kernel * field)(x) = sum_y K(x-y) F(y) v.

    A scalar side takes a component axis of length 1, so scalar * scalar and
    scalar * quaternion work componentwise; for a quaternion kernel and field
    the components are combined with the (noncommutative) Hamilton product,
    kernel on the left.
    """
    kernel.check_same_lattice(field)
    lat = kernel.lattice
    axes = tuple(range(lat.dim))
    kv = kernel.values if kernel.is_quaternion else kernel.values[..., None]
    fv = field.values if field.is_quaternion else field.values[..., None]
    kf = np.fft.fftn(kv, axes=axes)
    ff = np.fft.fftn(fv, axes=axes)
    if kernel.is_quaternion and field.is_quaternion:
        prod = quaternion_mul(kf, ff)
    else:
        prod = kf * ff  # a scalar side has one component: broadcast
    out = np.fft.ifftn(prod, axes=axes) * lat.cell_volume
    if not (kernel.is_quaternion or field.is_quaternion):
        out = out[..., 0]
    if np.isrealobj(kernel.values) and np.isrealobj(field.values):
        out = out.real
    return LatticeField(lat, out)


def reflect(field: LatticeField) -> LatticeField:
    """x -> -x on the periodic lattice (index 0 stays put)."""
    vals = field.values
    axes = tuple(range(field.lattice.dim))
    flipped = np.flip(vals, axis=axes)
    flipped = np.roll(flipped, shift=(1,) * field.lattice.dim, axis=axes)
    return LatticeField(field.lattice, flipped)


def smear(field: LatticeField, weight: np.ndarray) -> complex:
    """sum_x field(x) w(x) v  (the lattice pairing).

    Check: test_adjoint_smearing_identity and
    test_full_moments_match_raw_mc, the lattice pairing of a sampled field.
    """
    if weight.shape != field.lattice.shape:
        raise LatticeMismatchError("weight grid does not match the lattice")
    return complex(np.sum(field.values * weight) * field.lattice.cell_volume)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    n_samples: int
    n_batches: int


def _cumulant_from_subset_moments(moments: np.ndarray, n: int, keys) -> complex:
    table = CorrelationTable(n, dict(zip(keys, moments)))
    return cumulants_from_moments(table, BOSE).values[tuple(range(1, n + 1))]


def _jackknife(value: float, loo: np.ndarray, n_samples: int) -> MCEstimate:
    """``value`` with the delete-one jackknife error of its leave-one-out estimates."""
    nb = len(loo)
    var = (nb - 1) / nb * np.sum(np.abs(loo - loo.mean()) ** 2)
    return MCEstimate(value=value, std_error=float(math.sqrt(var)),
                      n_samples=n_samples, n_batches=nb)


# subset products held at once (512 KiB): a batch is summed in slices of
# replicates, so memory grows neither with n_samples nor with the batch size
_SLICE_ENTRIES = 1 << 16
# the 2^n subset products of a slice grow with n; the CLI caps orders at 6 too
_MAX_WEIGHTS = 6


def _subset_moment_batches(
    lat: Lattice,
    kernel: LatticeField,
    weights: Sequence[np.ndarray],
    triple: LevyTriple,
    n_samples: int,
    seed: int,
    n_batches: int,
):
    """Batched sums of products of smeared values over all index subsets.

    Each replicate's n projections onto the smeared kernels are drawn
    directly, by the stream contract in the module docstring.  The 2^n
    subset products of a slice of replicates then come from the bitmask
    recurrence  P[:, 1<<j : 2<<j] = P[:, :1<<j] * m_j : column ``mask``
    holds the product over the set bits of ``mask``, multiplied in ascending
    index order.  Returns (keys, mean, loo): the subsets' CorrelationTable
    keys, their grand means and the (n_batches, subsets) array of their
    leave-one-batch-out means.
    """
    n = len(weights)
    if n < 1:
        raise ConfigurationError("need at least one test weight")
    if n > _MAX_WEIGHTS:
        raise SizeLimitError(f"Monte Carlo moments take at most {_MAX_WEIGHTS} weights")
    if n_samples < n_batches or n_batches < 2:
        raise ConfigurationError("need n_samples >= n_batches >= 2")
    if n_samples % n_batches:
        raise ConfigurationError("n_samples must be divisible by n_batches")
    if kernel.lattice != lat:
        raise LatticeMismatchError("kernel lives on a different lattice")

    kr = reflect(kernel)
    smeared = np.stack([
        convolve(kr, LatticeField(lat, np.asarray(w, dtype=float))).values.ravel()
        for w in weights
    ])
    v = lat.cell_volume
    sites = smeared.shape[1]
    mean = triple.compensated_drift() * smeared.sum(axis=1)
    gauss = None
    if triple.variance > 0:
        # lower triangular with gauss gauss^T = S S^T sigma^2 / v, also for
        # rank-deficient S; row j uses normals 0..j only
        gauss = math.sqrt(triple.variance / v) * np.linalg.qr(smeared.T, mode="r").T
    jumps = [(s / v, lam * v * sites) for s, lam in triple.atoms]

    keys = CorrelationTable(n).all_keys()
    columns = [sum(1 << (i - 1) for i in key) for key in keys]
    per_batch = n_samples // n_batches
    rows = min(per_batch, max(1, _SLICE_ENTRIES >> n))
    proj = np.empty((rows, n))
    normals = np.empty((rows, n))
    prods = np.empty((rows, 1 << n))
    prods[:, 0] = 1.0
    batch_sums = np.zeros((n_batches, len(keys)))
    stream = _noise_streams(seed)

    for b in range(n_batches):
        for lo in range(0, per_batch, rows):
            k = min(rows, per_batch - lo)
            for i in range(k):
                rng = stream(b * per_batch + lo + i)
                proj[i] = mean
                p = proj[i]
                for scale, total in jumps:
                    idx = rng.integers(0, sites, rng.poisson(total))
                    p += scale * smeared.take(idx, axis=1).sum(axis=1)
                if gauss is not None:
                    rng.standard_normal(out=normals[i])
            if gauss is not None:
                proj[:k] += normals[:k] @ gauss.T
            m = proj[:k] * v
            for j in range(n):
                np.multiply(prods[:k, : 1 << j], m[:, j : j + 1],
                            out=prods[:k, 1 << j : 2 << j])
            batch_sums[b] += prods[:k].sum(axis=0)[columns]
    grand = batch_sums.sum(axis=0)
    loo = (grand - batch_sums) / (n_samples - per_batch)
    return keys, grand / n_samples, loo


def estimate_schwinger_mc(
    lat: Lattice,
    kernel: LatticeField,
    weights: Sequence[np.ndarray],
    triple: LevyTriple,
    n_samples: int,
    seed: int,
    n_batches: int = 20,
) -> MCEstimate:
    """Monte Carlo joint cumulant of the smeared convolved field.

    Estimates  kappa(<K*F, w_1>, ..., <K*F, w_n>)  over replicates of the
    noise F.  Smearing is moved onto the test side (<K*F, w> = <F, K~ * w>
    with K~ the reflected kernel), and each replicate's n projections are
    drawn directly (module docstring) instead of from a noise field; its 2^n
    subset products are formed a slice of replicates at a time.  On a 64^2
    lattice with one atom (512 points on average) and a Gaussian part a
    replicate takes ~17-25 us for n = 2..6 (one core of a 2-vCPU Xeon),
    against ~0.4 ms through a field.
    The error bar is a delete-one-batch jackknife pushed through the
    moments-to-cumulants map.
    """
    n = len(weights)
    keys, mean, loo = _subset_moment_batches(
        lat, kernel, weights, triple, n_samples, seed, n_batches
    )
    theta = _cumulant_from_subset_moments(mean, n, keys)
    loo_theta = np.array([_cumulant_from_subset_moments(row, n, keys) for row in loo],
                         dtype=complex)
    return _jackknife(float(np.real(theta)), loo_theta, n_samples)


def estimate_moment_table(
    lat: Lattice,
    kernel: LatticeField,
    weights: Sequence[np.ndarray],
    triple: LevyTriple,
    n_samples: int,
    seed: int,
    n_batches: int = 20,
) -> Dict[Tuple[int, ...], MCEstimate]:
    """Raw joint moments of the smeared field for every index sub-tuple.

    Same sampling plan as :func:`estimate_schwinger_mc` but the per-subset
    moments are returned directly (jackknife errors per entry) instead of
    being folded into the top cumulant.  Keys match CorrelationTable keys, so
    the values slot straight into the moment/cumulant conversion.
    """
    keys, mean, loo = _subset_moment_batches(
        lat, kernel, weights, triple, n_samples, seed, n_batches
    )
    return {key: _jackknife(float(mean[i]), loo[:, i], n_samples)
            for i, key in enumerate(keys)}
