"""Time grid, spatial domain, problem coefficients, and reproducible noise.

The solver discretises a forward/backward pair on the uniform partition
t_i = i*h of [0, T], h = T/N.  Two independent Brownian drivers feed the
scheme:

    B   forward noise, one d-dimensional path per Monte Carlo sample,
        increments ``dB[m, i]`` with coordinatewise variance h;
    W   external (backward) noise, a single l-dimensional path shared by
        every sample and every regression within a run, increments ``dW[i]``.

Increment generation is counter-based: every Gaussian coordinate owns a fixed
position in a Philox word stream keyed by (seed, stream), so any single
increment can be regenerated in isolation, bit-exactly, without materialising
the rest of the bundle.  Word w maps to ndtri(((w >> 11) + 0.5) * 2^-53),
computed in place as (w >> 11) * 2^-53 + 2^-54 (see ``_gaussian_words``), so
determinism is independent of path order, thread scheduling and worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BdsdeError",
    "InvalidParameterError",
    "InvalidStartError",
    "EvaluationError",
    "ConfigError",
    "TimeGrid",
    "build_grid",
    "Domain",
    "CoefficientSet",
    "NoiseBundle",
    "sample_noise",
]


# ------------------------------- Errors ----------------------------------- #

class BdsdeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(BdsdeError, ValueError):
    """A constructor or operation received an out-of-contract argument."""


class InvalidStartError(InvalidParameterError):
    """The forward simulation start point is not inside the (shifted) domain."""


class EvaluationError(BdsdeError, ArithmeticError):
    """A user-supplied coefficient returned a non-finite or misshapen value."""


class ConfigError(BdsdeError):
    """An experiment configuration failed to parse or validate."""


# ------------------------------ Time grid --------------------------------- #

@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform partition t_i = t_0 + i*h, i = 0..N; the horizon is times[N].

    ``build_grid`` sets t_0 = 0 and ``times`` to (i*T)/N, so the right endpoint
    lands within 1 ulp of T instead of drifting by accumulated rounding, and
    spacing is uniform to 1 ulp.  A tail grid times[n:] keeps those times.
    """

    N: int
    h: float
    times: np.ndarray

    def index_of(self, t: float) -> int:
        """Index i with times[i] == t up to 1e-9*h, else an error."""
        i = int(np.clip(np.round((t - self.times[0]) / self.h), 0, self.N))
        if abs(self.times[i] - t) > 1e-9 * self.h:
            raise InvalidParameterError(f"t={t!r} is not a grid time")
        return i


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with step h = T/N.

    Raises
    ------
    InvalidParameterError
        For non-positive T or N < 1.
    """
    if not np.isfinite(T) or T <= 0:
        raise InvalidParameterError(f"horizon T must be positive, got {T!r}")
    if int(N) != N or N < 1:
        raise InvalidParameterError(f"step count N must be a positive integer, got {N!r}")
    N = int(N)
    times = (np.arange(N + 1, dtype=np.float64) * float(T)) / N
    times.setflags(write=False)
    return TimeGrid(N=N, h=float(T) / N, times=times)


# ------------------------------- Domain ----------------------------------- #

@dataclass(frozen=True, eq=False)
class Domain:
    """Open axis-aligned box {lower < x < upper}; R^d is the box with bounds
    -inf and +inf, so one set of box formulas serves both.  ``nearest_face``
    is the one face scan behind the exit test and the boundary shift."""

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def whole_space(d: int) -> "Domain":
        if d < 1:
            raise InvalidParameterError("dimension must be >= 1")
        lo = np.full(d, -np.inf)
        hi = np.full(d, np.inf)
        lo.setflags(write=False)
        hi.setflags(write=False)
        return Domain(lower=lo, upper=hi)

    @staticmethod
    def box(lower, upper) -> "Domain":
        lo = np.atleast_1d(np.asarray(lower, dtype=np.float64)).copy()
        hi = np.atleast_1d(np.asarray(upper, dtype=np.float64)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidParameterError("bounds must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InvalidParameterError("box bounds must be finite")
        if not np.all(lo < hi):
            raise InvalidParameterError(f"need lower < upper componentwise, got {lo} vs {hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        return Domain(lower=lo, upper=hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def is_whole_space(self) -> bool:
        """All of R^d: every bound infinite, so there is no boundary to exit."""
        return bool(np.all(self.lower == -np.inf) and np.all(self.upper == np.inf))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Strict membership in the open domain; shape (...,) bool."""
        x = np.asarray(x, dtype=np.float64)
        return np.all(x > self.lower, axis=-1) & np.all(x < self.upper, axis=-1)

    def nearest_face(self, x: np.ndarray) -> tuple:
        """Distance to the nearest face and that face's axis, shapes (...,).

        One scan over the faces (coord 0 lower, ..., coord d-1 lower,
        coord 0 upper, ...) with a strict <: the first minimal gap wins, so
        corner ties break toward the lowest coordinate index and, within a
        coordinate, toward the lower face.  The distance is negative outside
        the box and +inf for R^d; the inward normal is +-e_axis.
        """
        x = np.asarray(x, dtype=np.float64)
        faces = [(j, gaps[..., j]) for gaps in (x - self.lower, self.upper - x)
                 for j in range(self.d)]
        dist = faces[0][1]
        axis = np.zeros(dist.shape, dtype=np.intp)
        for j, gap in faces[1:]:
            if self.d > 1:  # with d = 1 every face lies on axis 0
                axis[gap < dist] = j
            dist = np.minimum(dist, gap)
        return dist, axis


# ----------------------------- Coefficients -------------------------------- #

# Vectorisation contract for the user-supplied callables (leading axis = the
# Monte Carlo sample axis of length M):
#   b(x)            (M, d) -> (M, d)
#   sigma(x)        (M, d) -> (M, d, d)
#   f(t, x, y, z)   scalar t, (M, d), (M, k), (M, k, d) -> (M, k)
#   g(t, x, y, z)   scalar t, (M, d), (M, k), (M, k, d) -> (M, k, l)
#   phi(t, x)       scalar or (M,) t, (M, d) -> (M, k)

Driver = Callable[..., np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    """Problem data (b, sigma, f, g, phi) with dimension metadata.

    ``g=None`` means the external-noise coefficient is absent (plain backward
    equation).
    """

    d: int
    k: int
    l: int
    b: Driver
    sigma: Driver
    f: Driver
    phi: Driver
    g: Optional[Driver] = None

    def __post_init__(self):
        for name, v in (("d", self.d), ("k", self.k), ("l", self.l)):
            if int(v) != v or v < 1:
                raise InvalidParameterError(f"dimension {name} must be a positive integer")

    # Each eval_* wrapper enforces the output shape and finiteness lazily,
    # naming the offending coefficient as required by the error contract.

    def eval_b(self, x: np.ndarray) -> np.ndarray:
        return _checked("b", self.b(x), x.shape[:-1] + (self.d,), x)

    def eval_sigma(self, x: np.ndarray) -> np.ndarray:
        return _checked("sigma", self.sigma(x), x.shape[:-1] + (self.d, self.d), x)

    def eval_f(self, t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _checked("f", self.f(t, x, y, z), x.shape[:-1] + (self.k,), x)

    def eval_g(self, t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.g is None:
            raise InvalidParameterError("coefficient g is not configured")
        return _checked("g", self.g(t, x, y, z), x.shape[:-1] + (self.k, self.l), x)

    def eval_phi(self, t, x: np.ndarray) -> np.ndarray:
        return _checked("phi", self.phi(t, x), x.shape[:-1] + (self.k,), x)


def _checked(name: str, out, shape: tuple, x: np.ndarray) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        raise EvaluationError(f"coefficient {name} returned shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(out))[0])
        where = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
        sample = where[min(bad[0], where.shape[0] - 1)] if where.size else None
        raise EvaluationError(f"coefficient {name} returned a non-finite value at index {bad} (x={sample})")
    return out


# -------------------------------- Noise ------------------------------------ #

_FORWARD_STREAM = 0
_BACKWARD_STREAM = 1
_CHUNK_WORDS = 2 ** 18   # a multiple of 4: every chunk starts a Philox block


def _fill_gaussians(out: np.ndarray, seed: int, stream: int, start: int) -> np.ndarray:
    """``_gaussian_words`` written in place into ``out``, which it returns."""
    block, offset = divmod(start, 4)
    bg = np.random.Philox(key=int(seed) + (int(stream) << 64), counter=block)
    bg.random_raw(offset)
    np.random.Generator(bg).random(out=out)
    out += 2.0 ** -54
    return ndtri(out, out=out)


def _gaussian_words(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """``count`` standard Gaussians from word positions start..start+count-1:
    the generator starts on the Philox block (4 words) of ``start`` and skips
    the offset.  u = (w >> 11) * 2^-53 + 2^-54 rounds as ((w >> 11) + 0.5) *
    2^-53 (scaling by 2^-53 is exact) and lies in (0, 1]: only w >> 11 =
    2^53 - 1 gives u = 1, hence +inf, under the inverse normal CDF."""
    return _fill_gaussians(np.empty(count), seed, stream, start)


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments for one run: forward (M, N, d), backward (N, l).

    Every coordinate is N(0, h), and any single entry can be regenerated
    bit-exactly from its own Philox words (see module docstring).
    """

    seed: int
    grid: TimeGrid
    M: int
    d: int
    l: int
    forward: np.ndarray
    backward: np.ndarray

    def with_backward(self, dW: np.ndarray) -> "NoiseBundle":
        """Copy of this bundle with the shared backward path replaced.

        Used by the pointwise field evaluation layer, which must reuse one
        externally supplied W segment across many solves.
        """
        dW = np.asarray(dW, dtype=np.float64)
        if dW.shape != (self.grid.N, self.l):
            raise InvalidParameterError(f"backward path shape {dW.shape}, expected {(self.grid.N, self.l)}")
        if not np.isfinite(dW).all():
            raise InvalidParameterError("backward path contains non-finite entries")
        dW = dW.copy()
        dW.setflags(write=False)
        return replace(self, backward=dW)


def sample_noise(seed: int, M: int, grid: TimeGrid, d: int, l: int) -> NoiseBundle:
    """Draw the full increment bundle for one run.

    Forward words are laid out C-contiguously as (m, i, coordinate) on stream
    0, the single shared backward path as (i, coordinate) on stream 1, so the
    output is identical for identical arguments regardless of how the caller
    parallelises the surrounding computation.
    """
    if int(M) != M or M < 1:
        raise InvalidParameterError(f"path count M must be a positive integer, got {M!r}")
    if int(seed) != seed or not 0 <= seed < 2 ** 64:
        raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if d < 1 or l < 1:
        raise InvalidParameterError("dimensions d and l must be >= 1")
    M, d, l = int(M), int(d), int(l)
    root_h = np.sqrt(grid.h)

    fwd = np.empty(M * grid.N * d)

    def fill(start: int) -> None:
        chunk = _fill_gaussians(fwd[start:start + _CHUNK_WORDS], seed, _FORWARD_STREAM, start)
        chunk *= root_h

    # disjoint slices of one array, each chunk on its own Philox counter; a
    # single worker fills in this thread, as a pool thread only adds start-up
    starts = range(0, fwd.size, _CHUNK_WORDS)
    workers = min(len(starts), os.cpu_count() or 1)
    if workers == 1:
        list(map(fill, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    fwd = fwd.reshape(M, grid.N, d)
    bwd = _gaussian_words(seed, _BACKWARD_STREAM, 0, grid.N * l).reshape(grid.N, l)
    bwd *= root_h
    fwd.setflags(write=False)
    bwd.setflags(write=False)
    return NoiseBundle(seed=int(seed), grid=grid, M=M, d=d, l=l, forward=fwd, backward=bwd)
