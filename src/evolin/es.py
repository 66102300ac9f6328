"""Ask/tell evolution strategies over a Gaussian search distribution.

Three variants share one parameter set and one state layout:

* ``csa``     -- step-size adaptation only, covariance fixed at identity.
* ``sep-cma`` -- diagonal covariance, per-coordinate variances, learning
                 rates scaled up by (n+2)/3 to exploit the restriction.
* ``cma``     -- full covariance with rank-one and rank-mu updates and a
                 lazily refreshed eigendecomposition.

Sampling is reproducible from ``(master_seed, generation, index)`` and the
distribution alone: ``sample`` draws any of a generation's candidates as
``(Z, X)`` arrays, and a row's bits do not depend on the rows drawn with it.
Candidate ``i`` of generation ``g`` is drawn from the stream of
``np.random.default_rng([master_seed, 0, g, i])``.  Building that
``SeedSequence`` and ``PCG64`` costs 13-18 us, ten times the draw itself,
so ``sample``'s one draw loop computes the same seeding in Python ints (a
port of NumPy's ``SeedSequence`` mixing, NEP 19, and of PCG64's
``srandom``, O'Neill 2014) and loads each row's state into a reused
generator; ``candidate_z`` is that loop for one row.  At n = 10 a row costs
about 7 us, 3.5 us of it the state load and the normals, so ``ask`` at
lambda = 10 takes about 85 us.  ``tell_arrays`` takes a generation as arrays
and ranks it with one ``lexsort``; ``tell`` is its ``Candidate``-list form
and takes 30-50 us at n = lambda = 10.  Both return a new state and never
mutate their inputs.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CSA", "SEP_CMA", "FULL_CMA", "VARIANTS", "Candidate", "StrategyParams",
    "DistributionState", "CovTransform", "NumericalDegeneracyError", "rl_popsize",
    "cma_popsize", "new_strategy", "candidate_z", "sample", "ask", "tell",
    "tell_arrays", "optimize", "OptimizeResult",
]

CSA = "csa"
SEP_CMA = "sep-cma"
FULL_CMA = "cma"
VARIANTS = (CSA, SEP_CMA, FULL_CMA)

# Domain tags keep the candidate-sampling streams disjoint from the episode
# seed streams derived elsewhere from the same master seed.
DOMAIN_SAMPLE = 0

_MAX_SEED = 2**64


class NumericalDegeneracyError(RuntimeError):
    """Search distribution lost positive-definiteness or finiteness."""

    def __init__(self, message: str, generation: int | None = None):
        super().__init__(message)
        self.generation = generation


@dataclass(slots=True)
class Candidate:
    index: int
    z: np.ndarray
    x: np.ndarray
    fitness: float | None = None


@dataclass(frozen=True)
class StrategyParams:
    """Fixed per-run constants; derived once by new_strategy."""

    variant: str
    n: int
    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_m: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float


@dataclass
class DistributionState:
    m: np.ndarray
    sigma: float
    p_sigma: np.ndarray
    p_c: np.ndarray
    g: int = 0
    c_diag: np.ndarray | None = None      # sep-cma per-coordinate variances
    c_full: np.ndarray | None = None      # full covariance matrix
    eig_basis: np.ndarray | None = None   # columns = eigenvectors of c_full
    eig_scale: np.ndarray | None = None   # sqrt of eigenvalues
    eig_age: int = 0                      # tells since last decomposition


def rl_popsize(n: int) -> int:
    """Large default population for noisy episodic objectives."""
    return min(128, max(32, math.ceil(n / 2)))


def cma_popsize(n: int) -> int:
    """Classic small default for smooth analytic objectives."""
    return 4 + int(3 * math.log(n))


def _resolve_lambda(lam: int | str | None, n: int) -> int:
    if lam is None or lam in ("rl", "default"):
        return rl_popsize(n)
    if lam == "cma":
        return cma_popsize(n)
    if isinstance(lam, int) and not isinstance(lam, bool):
        return lam
    raise ValueError(f"invalid population size: {lam!r}")


def _check_seed(master_seed: int) -> int:
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        raise ValueError("master_seed must be an int")
    if not 0 <= master_seed < _MAX_SEED:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    return master_seed


def _parse_seed(text) -> int:
    """The master seed a checkpoint or TASK carries as text, which must be
    ASCII decimal digits: ``int`` would also take signs, spaces, floats."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError("master_seed must be a string of decimal digits")
    return _check_seed(int(text))


def new_strategy(
    variant: str,
    n: int,
    sigma0: float,
    m0: np.ndarray | None = None,
    lam: int | str | None = None,
) -> tuple[StrategyParams, DistributionState]:
    """Build parameters and the generation-zero state.

    ``lam`` accepts an explicit population size, ``"rl"``/``"default"`` for
    min(128, max(32, ceil(n/2))), or ``"cma"`` for 4 + floor(3 ln n).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise ValueError("sigma0 must be positive and finite")
    lam_val = _resolve_lambda(lam, n)
    if lam_val < 2:
        raise ValueError("population size must be at least 2")
    if m0 is None:
        m0 = np.zeros(n)
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (n,) or not np.all(np.isfinite(m0)):
        raise ValueError("m0 must be a finite vector of length n")

    mu = lam_val // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float(np.sum(weights**2))

    c_m = 1.0
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    params = StrategyParams(
        variant=variant, n=n, lam=lam_val, mu=mu, weights=weights,
        mu_eff=mu_eff, c_m=c_m, c_sigma=c_sigma, d_sigma=d_sigma,
        c_c=c_c, c_1=c_1, c_mu=c_mu, chi_n=chi_n,
    )

    state = DistributionState(
        m=m0.copy(), sigma=float(sigma0),
        p_sigma=np.zeros(n), p_c=np.zeros(n), g=0,
    )
    if variant == SEP_CMA:
        state.c_diag = np.ones(n)
    elif variant == FULL_CMA:
        state.c_full = np.eye(n)
        state.eig_basis = np.eye(n)
        state.eig_scale = np.ones(n)
    return params, state


@dataclass(frozen=True)
class CovTransform:
    """Linear map A with A A^T = C, applied to unit-Gaussian draws.

    Built from the strategy state; ``ask`` maps a generation's draws through
    it and ``tell`` its selected draws.
    """

    kind: str                              # "unit" | "diag" | "full"
    sqrt_diag: np.ndarray | None = None
    basis: np.ndarray | None = None
    scale: np.ndarray | None = None

    @staticmethod
    def from_state(params: StrategyParams, state: DistributionState) -> "CovTransform":
        if params.variant == CSA:
            return CovTransform("unit")
        if params.variant == SEP_CMA:
            return CovTransform("diag", sqrt_diag=np.sqrt(state.c_diag))
        return CovTransform("full", basis=state.eig_basis, scale=state.eig_scale)

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "unit":
            return z.copy()
        if self.kind == "diag":
            return self.sqrt_diag * z
        # one expression for a draw and a stack of draws, so each row gets
        # the bits of ``basis @ (scale * row)``
        return np.matmul(self.basis, (self.scale * z)[..., None])[..., 0]


# NumPy's SeedSequence (NEP 19) hash constants and PCG64's 128-bit multiplier.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# ``v ^= v >> 16`` in each 32-bit lane of a packed int
_LANES_LOW16 = sum(0xFFFF << (32 * k) for k in range(4))


def _hash_consts(hc: int, mult: int, count: int) -> tuple[tuple[int, ...], int]:
    """The xor and multiply constants of a SeedSequence hash's next ``count``
    calls from constant ``hc``, flat, and the constant after them.  The
    constants do not depend on the data hashed."""
    flat = []
    for _ in range(count):
        flat += (hc, hc * mult & _M32)
        hc = flat[-1]
    return tuple(flat), hc


# generate_state(4, uint64) hashes the pool into 8 32-bit words
_STATE_HASH, _ = _hash_consts(_HASH_INIT_B, _HASH_MULT_B, 8)


def _words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int: 32-bit words, low first."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _absorb(pool: list[int], word: int, hc: int) -> int:
    """Mix an entropy word past the pool's four into every slot."""
    for dst in range(4):
        hc_next = hc * _HASH_MULT_A & _M32
        h = (word ^ hc) * hc_next & _M32
        pool[dst] = _mix(pool[dst], h ^ h >> 16)
        hc = hc_next
    return hc


# the pool's 16 hashes: one per slot's word, then three per slot as it mixes
_POOL_HASH, _HC_AFTER_POOL = _hash_consts(_HASH_INIT_A, _HASH_MULT_A, 16)


@functools.lru_cache(maxsize=16)
def _lane_mix(master_seed: int, generation: int) -> tuple:
    """Run SeedSequence's pool mixing over the entropy words all of a
    generation's candidates share, ``(master_seed, DOMAIN_SAMPLE,
    generation)``, up to the first step that reads a word of the index.

    Returns ``(pool, hc, fourth)``.  Four or more shared words fill the
    pool, which is mixed completely; ``fourth`` is None and the index's
    words are absorbed after the pool from hash constant ``hc``.  Three
    shared words leave the pool's fourth slot to the index's low word;
    ``fourth`` then holds, flat, that slot's hash constants, the feed the
    other slots send it while they mix (times ``mix``'s right multiplier),
    the hash constants of its sends to them, and those slots as it meets
    them (times ``mix``'s left multiplier).  ``hc`` is where the index's
    further words start.
    """
    words = _words(master_seed) + _words(DOMAIN_SAMPLE) + _words(generation)
    consts = iter(_POOL_HASH)
    pool = []
    for w in words[:4]:
        v = (w ^ next(consts)) * next(consts) & _M32
        pool.append(v ^ v >> 16)
    shared = len(pool)
    if shared == 3:
        hash4 = (next(consts), next(consts))     # slot 3's own hash
    feed = []       # what the shared slots send slot 3 while they mix
    for src in range(shared):
        for dst in range(4):
            if dst != src:
                h = (pool[src] ^ next(consts)) * next(consts) & _M32
                h ^= h >> 16
                if dst < shared:
                    pool[dst] = _mix(pool[dst], h)
                else:
                    feed.append(_MIX_MULT_R * h & _M32)
    hc = _HC_AFTER_POOL
    for w in words[4:]:
        hc = _absorb(pool, w, hc)
    if shared == 4:
        return tuple(pool), hc, None
    return (), hc, (*hash4, *feed, *consts, *(_MIX_MULT_L * p & _M32 for p in pool))


_thread = threading.local()   # one reused generator per thread


def candidate_z(master_seed: int, generation: int, index: int, n: int) -> np.ndarray:
    """Unit-Gaussian draw for one candidate: the first ``n`` normals of
    ``np.random.default_rng([master_seed, DOMAIN_SAMPLE, generation,
    index]).standard_normal``, bit for bit.  A one-row ``_draw``."""
    return _draw(master_seed, generation, (index,), n)[0]


def _draw(master_seed: int, generation: int, indexes, n: int) -> np.ndarray:
    """The ``candidate_z`` rows of ``indexes``, one generation's draw loop.
    ``_lane_mix`` mixes the shared words once.  Per index, the index's words
    finish the pool, ``generate_state(4, uint64)`` hashes it into PCG64's
    seed and sequence, ``srandom``'s two LCG steps give the state, and this
    thread's generator, loaded with it, writes the row in place."""
    generation = int(generation)
    if generation < 0:
        raise ValueError("generation and index must be non-negative")
    shared, hc0, fourth = _lane_mix(_check_seed(master_seed), generation)
    if fourth is not None:
        x, m, f0, f1, f2, x0, m0, x1, m1, x2, m2, lp0, lp1, lp2 = fourth
    sx0, sm0, sx1, sm1, sx2, sm2, sx3, sm3, sx4, sm4, sx5, sm5, sx6, sm6, sx7, sm7 = _STATE_HASH
    M32, L, R, LOW16, M128, PCG = _M32, _MIX_MULT_L, _MIX_MULT_R, _LANES_LOW16, _M128, _PCG_MULT
    try:
        gen = _thread.generator
    except AttributeError:
        gen = _thread.generator = np.random.Generator(np.random.PCG64(0))
    bitgen, normal = gen.bit_generator, gen.standard_normal
    out = np.empty((len(indexes), n))
    for row, index in enumerate(indexes):
        index = int(index)
        if index < 0:
            raise ValueError("generation and index must be non-negative")
        if fourth is None:
            pool, rest = list(shared), _words(index)
        else:
            # the index's low word fills slot 3, takes the shared slots'
            # feed, then mixes into each of them
            p3 = ((index & M32) ^ x) * m & M32
            p3 = (L * (p3 ^ p3 >> 16) - f0) & M32
            p3 = (L * (p3 ^ p3 >> 16) - f1) & M32
            p3 = (L * (p3 ^ p3 >> 16) - f2) & M32
            p3 ^= p3 >> 16
            h = (p3 ^ x0) * m0 & M32
            p0 = (lp0 - R * (h ^ h >> 16)) & M32
            h = (p3 ^ x1) * m1 & M32
            p1 = (lp1 - R * (h ^ h >> 16)) & M32
            h = (p3 ^ x2) * m2 & M32
            p2 = (lp2 - R * (h ^ h >> 16)) & M32
            pool = [p0 ^ p0 >> 16, p1 ^ p1 >> 16, p2 ^ p2 >> 16, p3]
            rest = _words(index >> 32) if index > M32 else ()
        hc = hc0
        for w in rest:
            hc = _absorb(pool, w, hc)
        p0, p1, p2, p3 = pool
        # generate_state's 8 words, packed as PCG64 reads them: the uint64
        # pairs (0, 1) and (2, 3) are the high and low halves of its seed,
        # the pairs (4, 5) and (6, 7) of its sequence
        seed = ((p2 ^ sx2) * sm2 & M32 | ((p3 ^ sx3) * sm3 & M32) << 32
                | ((p0 ^ sx0) * sm0 & M32) << 64 | ((p1 ^ sx1) * sm1 & M32) << 96)
        seq = ((p2 ^ sx6) * sm6 & M32 | ((p3 ^ sx7) * sm7 & M32) << 32
               | ((p0 ^ sx4) * sm4 & M32) << 64 | ((p1 ^ sx5) * sm5 & M32) << 96)
        seed ^= seed >> 16 & LOW16
        seq ^= seq >> 16 & LOW16
        # srandom: inc = 2 seq + 1; two LCG steps from 0, adding seed between
        inc = (seq << 1 | 1) & M128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": ((inc + seed) * PCG + inc) & M128, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        normal(out=out[row])
    return out


def sample(master_seed: int, generation: int, indexes, m: np.ndarray, sigma: float,
           transform: CovTransform) -> tuple[np.ndarray, np.ndarray]:
    """Draw candidates ``indexes`` of a generation from their seeds, as
    ``(Z, X)``: one ``candidate_z`` row per index and ``X = m + sigma * A Z``.
    A row's bits do not depend on which other indexes are drawn with it.
    A non-finite ``X``, from non-finite covariance factors or from a step
    size grown past float range, raises ``NumericalDegeneracyError``."""
    z = _draw(master_seed, generation, indexes, len(m))
    x = m + sigma * transform.apply(z)
    if not np.isfinite(x).all():
        raise NumericalDegeneracyError(f"non-finite candidates at generation {generation}",
                                       generation)
    return z, x


def ask(params: StrategyParams, state: DistributionState, master_seed: int) -> list[Candidate]:
    """Sample the generation's lambda candidates.

    Read-only on state; candidate i depends only on
    (master_seed, state.g, i) and the current distribution.  Each
    candidate's ``z`` and ``x`` are views of a row of ``sample``'s arrays.
    """
    if not (math.isfinite(state.sigma) and state.sigma > 0):
        raise ValueError("state.sigma must be positive and finite")
    if not np.isfinite(state.m).all():
        raise ValueError("state.m must be finite")
    z, x = sample(master_seed, state.g, range(params.lam), state.m, state.sigma,
                  CovTransform.from_state(params, state))
    return list(map(Candidate, range(params.lam), z, x))


def tell(params: StrategyParams, state: DistributionState, candidates: list[Candidate],
         mode: str = "maximize") -> DistributionState:
    """``tell_arrays`` for a list of evaluated ``Candidate``s."""
    if len(candidates) != params.lam:
        raise ValueError(f"expected {params.lam} candidates, got {len(candidates)}")
    index = [c.index for c in candidates]
    if len(set(index)) != params.lam:
        raise ValueError("candidate indexes must be unique")
    f = [math.nan if c.fitness is None else c.fitness for c in candidates]
    return tell_arrays(params, state, np.array(index), np.array([c.z for c in candidates]),
                       np.array([c.x for c in candidates]), np.array(f, dtype=float), mode)


def tell_arrays(params: StrategyParams, state: DistributionState, index: np.ndarray,
                Z: np.ndarray, X: np.ndarray, f: np.ndarray,
                mode: str = "maximize") -> DistributionState:
    """Consume one evaluated generation: row ``k`` is candidate ``index[k]``,
    drawn as ``Z[k]``, placed at ``X[k]`` and scored ``f[k]``, in any row
    order.  Fitness ties go to the lower index.  Returns the successor state
    and never mutates its inputs."""
    if mode not in ("maximize", "minimize"):
        raise ValueError(f"mode must be 'maximize' or 'minimize', got {mode!r}")
    finite = np.isfinite(f)
    if not finite.all():
        raise ValueError(f"candidate {index[finite.argmin()]} has no finite fitness")
    sel = np.lexsort((index, -f if mode == "maximize" else f))[: params.mu]
    n, w = params.n, params.weights
    xs, zs = X[sel], Z[sel]

    # mean: weighted recombination of the selected candidates themselves
    m_new = state.m + params.c_m * (w @ (xs - state.m))

    transform = CovTransform.from_state(params, state)
    zw = w @ zs

    # step-size path lives in the whitened coordinate system
    if params.variant == FULL_CMA:
        ps_in = state.eig_basis @ zw
    else:
        ps_in = zw
    cs = params.c_sigma
    p_sigma = (1.0 - cs) * state.p_sigma + math.sqrt(cs * (2.0 - cs) * params.mu_eff) * ps_in

    ps_norm = math.sqrt(p_sigma.dot(p_sigma))   # np.linalg.norm's own sum
    unbias = math.sqrt(1.0 - (1.0 - cs) ** (2 * (state.g + 1)))
    h_sigma = ps_norm / unbias < (1.4 + 2.0 / (n + 1.0)) * params.chi_n

    yw = transform.apply(zw)
    cc = params.c_c
    p_c = (1.0 - cc) * state.p_c + h_sigma * math.sqrt(cc * (2.0 - cc) * params.mu_eff) * yw

    sigma_new = state.sigma * math.exp((cs / params.d_sigma) * (ps_norm / params.chi_n - 1.0))

    g_new = state.g + 1
    if not (math.isfinite(sigma_new) and sigma_new > 0):
        raise NumericalDegeneracyError(
            f"step size became non-finite at generation {g_new}", g_new)
    if not np.isfinite(m_new).all():
        # finite candidates far apart can overflow the recombination
        raise NumericalDegeneracyError(
            f"mean became non-finite at generation {g_new}", g_new)

    new = DistributionState(
        m=m_new, sigma=sigma_new, p_sigma=p_sigma, p_c=p_c, g=g_new,
        eig_age=state.eig_age,
    )

    if params.variant == SEP_CMA:
        # variance loss from a stalled rank-one update is restored via the
        # (1 - h_sigma) correction term
        c1 = min(1.0, params.c_1 * (n + 2.0) / 3.0)
        cmu = min(1.0 - c1, params.c_mu * (n + 2.0) / 3.0)
        ys = transform.sqrt_diag * zs
        rank_mu = w @ (ys * ys)
        d_new = (
            (1.0 - c1 - cmu) * state.c_diag
            + c1 * (p_c * p_c + (1.0 - h_sigma) * cc * (2.0 - cc) * state.c_diag)
            + cmu * rank_mu
        )
        if not np.isfinite(d_new).all() or (d_new <= 0).any():
            raise NumericalDegeneracyError(
                f"diagonal covariance lost positivity at generation {g_new}", g_new)
        new.c_diag = d_new
    elif params.variant == FULL_CMA:
        c1, cmu = params.c_1, params.c_mu
        ys = (zs * state.eig_scale) @ state.eig_basis.T
        rank_mu = ys.T @ (w[:, None] * ys)
        c_new = (
            (1.0 - c1 - cmu) * state.c_full
            + c1 * (p_c[:, None] * p_c + (1.0 - h_sigma) * cc * (2.0 - cc) * state.c_full)
            + cmu * rank_mu
        )
        c_new = (c_new + c_new.T) * 0.5
        new.c_full = c_new
        new.eig_basis = state.eig_basis
        new.eig_scale = state.eig_scale
        new.eig_age = state.eig_age + 1
        if new.eig_age > 1.0 / (10.0 * n * (c1 + cmu)):
            _refresh_eigensystem(new, g_new)
    return new


def _refresh_eigensystem(state: DistributionState, generation: int) -> None:
    if not np.all(np.isfinite(state.c_full)):
        raise NumericalDegeneracyError(
            f"covariance became non-finite at generation {generation}", generation)
    eigvals, basis = np.linalg.eigh(state.c_full)
    if not np.all(np.isfinite(eigvals)) or eigvals[0] <= 0:
        raise NumericalDegeneracyError(
            f"covariance lost positive-definiteness at generation {generation}",
            generation)
    state.eig_basis = basis
    state.eig_scale = np.sqrt(eigvals)
    state.eig_age = 0


@dataclass
class OptRecord:
    generation: int
    evals: int
    best_f_gen: float
    best_f: float
    sigma: float


@dataclass
class OptimizeResult:
    best_x: np.ndarray
    best_f: float
    evals: int
    status: str          # "target_reached" | "budget_exhausted" | "degenerate"
    history: list[OptRecord] = field(default_factory=list)


def optimize(
    objective: Callable[[np.ndarray], float],
    variant: str,
    m0: np.ndarray,
    sigma0: float,
    budget_evals: int,
    target: float | None = None,
    seed: int = 0,
    lam: int | str | None = "cma",
    on_generation: Callable[[StrategyParams, DistributionState, list[Candidate]], None] | None = None,
) -> OptimizeResult:
    """Minimize a black-box function under an evaluation budget."""
    m0 = np.asarray(m0, dtype=float)
    params, state = new_strategy(variant, len(m0), sigma0, m0, lam)
    if budget_evals < params.lam:
        raise ValueError("budget must cover at least one generation")

    best_f = float(objective(m0.copy()))
    best_x = m0.copy()
    evals = 1
    history: list[OptRecord] = []
    if target is not None and best_f <= target:
        return OptimizeResult(best_x, best_f, evals, "target_reached", history)

    status = "budget_exhausted"
    while evals + params.lam <= budget_evals:
        try:
            cands = ask(params, state, seed)
            f = [float(objective(c.x)) for c in cands]
            for c, fc in zip(cands, f):
                c.fitness = fc
            evals += params.lam
            gen_best = min(f)
            if gen_best < best_f:   # the first of any ties
                best_f, best_x = gen_best, cands[f.index(gen_best)].x.copy()
            state = tell(params, state, cands, mode="minimize")
        except NumericalDegeneracyError:     # a diverging run ends with what it found
            status = "degenerate"
            break
        if on_generation is not None:
            on_generation(params, state, cands)
        history.append(OptRecord(state.g - 1, evals, gen_best, best_f, state.sigma))
        if target is not None and best_f <= target:
            status = "target_reached"
            break
    return OptimizeResult(best_x, best_f, evals, status, history)
