"""Ask/tell evolution strategies over a Gaussian search distribution.

Three variants share one parameter set and one state layout:

* ``csa``     -- step-size adaptation only, covariance fixed at identity.
* ``sep-cma`` -- diagonal covariance, per-coordinate variances, learning
                 rates scaled up by (n+2)/3 to exploit the restriction.
* ``cma``     -- full covariance with rank-one and rank-mu updates and a
                 lazily refreshed eigendecomposition.

Sampling is reproducible from ``(master_seed, generation, index)`` and the
distribution alone: ``sample(params, state, master_seed, indexes)`` draws
any of generation ``state.g``'s candidates as ``(Z, X)`` arrays, ``X = m +
sigma * A Z`` with the state's map A, A A^T = C, and a row's bits do not
depend on the rows drawn with it; ``ask``'s candidates are its rows.
Candidate ``i`` of generation ``g`` is drawn from the stream of
``np.random.default_rng([master_seed, 0, g, i])``.  Building that
``SeedSequence`` and ``PCG64`` costs 13-18 us, ten times the draw itself,
so ``sample`` computes the same seeding itself (a port of NumPy's
``SeedSequence`` mixing, NEP 19, and of PCG64's ``srandom``, O'Neill 2014)
for all its rows at once, on Python ints that hold a 256-bit lane per row.
It writes each row's state into a reused generator through ``ctypes`` and
lets ``standard_normal`` fill the row; ``candidate_z`` is a one-row draw.
On 2 shared cores with NumPy 2.4, at n = 10, a lone row costs about 13 us,
a row of a lambda = 10 draw 3.9 us and one of a lambda = 128 draw 2.5 us.
``tell_arrays`` takes a generation as arrays and ranks it with one
``lexsort``; ``tell`` is its ``Candidate``-list form and takes 30-70 us at
n = lambda = 10.  Both return a new state and never mutate their inputs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CSA", "SEP_CMA", "FULL_CMA", "VARIANTS", "Candidate", "StrategyParams",
    "DistributionState", "NumericalDegeneracyError", "rl_popsize",
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


def _sampling_map(params: StrategyParams, state: DistributionState,
                  z: np.ndarray) -> np.ndarray:
    """``A z`` for the state's map A with A A^T = C, over the last axis of a
    draw or a stack of draws: the identity for ``csa``, sqrt(C) for
    ``sep-cma`` and B D, the eigenbasis times the root eigenvalues, for
    ``cma`` (Hansen, arXiv:1604.00772).  ``sample`` maps a generation's
    draws through it and ``tell`` its selected draws."""
    if params.variant == CSA:
        return z
    if params.variant == SEP_CMA:
        return np.sqrt(state.c_diag) * z
    # one expression for a draw and a stack of draws, so each row gets the
    # bits of ``basis @ (scale * row)``
    return np.matmul(state.eig_basis, (state.eig_scale * z)[..., None])[..., 0]


# NumPy's SeedSequence (NEP 19) hash constants and PCG64's 128-bit multiplier.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# ``v ^= v >> 16`` in each 32-bit word of a 128-bit value
_WORDS_LOW16 = sum(0xFFFF << (32 * k) for k in range(4))


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
_STATE_XOR, _STATE_MULT = _STATE_HASH[::2], _STATE_HASH[1::2]


# The seeding runs on packed ints: row k's hash variables sit in bits
# [256 k, 256 k + 256) of one Python int, a 256-bit lane per row, so each
# big-int operation hashes every row at once.  ``one`` has a 1 in each lane,
# and ``c * one`` puts the constant c in each.  No operation may carry or
# borrow across a lane: right shifts are masked to their lane, a
# subtraction first adds 2**64 to each lane, and every multiplier is a hash
# constant below 2**32, so 32-bit lane values stay below 2**64, or PCG64's
# multiplier, below 2**126, applied to a sum below 2**129.  One lane is the
# scalar case.
@functools.lru_cache(maxsize=64)
def _lanes(rows: int) -> tuple[int, ...]:
    """``(one, k32, k16, borrow, k128, low16)`` for ``rows`` lanes: the unit,
    the 32-, 16- and 128-bit masks, 2**64 in each lane, and the 16-bit masks
    of the four 32-bit words of each lane's low 128 bits."""
    one = int.from_bytes(b"\x01".ljust(32, b"\0") * rows, "little")
    return (one, _M32 * one, 0xFFFF * one, one << 64, _M128 * one,
            _WORDS_LOW16 * one)


_SCALAR = _lanes(1)


def _words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int: 32-bit words, low first."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash(v: int, x: int, m: int, lanes: tuple) -> int:
    """SeedSequence's ``hashmix`` of each lane of ``v`` from hash constant
    ``x``, whose successor is ``m``."""
    one, k32, k16, _, _, _ = lanes
    h = (v ^ x * one) * m & k32
    return h ^ h >> 16 & k16


def _mix(x: int, y: int, lanes: tuple) -> int:
    _, k32, k16, borrow, _, _ = lanes
    r = (_MIX_MULT_L * x + borrow - _MIX_MULT_R * y) & k32
    return r ^ r >> 16 & k16


def _absorb(pool: list[int], word: int, hc: int, lanes: tuple) -> int:
    """Mix an entropy word past the pool's four into every slot."""
    for dst in range(4):
        hc_next = hc * _HASH_MULT_A & _M32
        pool[dst] = _mix(pool[dst], _hash(word, hc, hc_next, lanes), lanes)
        hc = hc_next
    return hc


# the pool's 16 hashes: one per slot's word, then three per slot as it mixes
_POOL_HASH, _HC_AFTER_POOL = _hash_consts(_HASH_INIT_A, _HASH_MULT_A, 16)


@functools.lru_cache(maxsize=16)
def _lane_mix(master_seed: int, generation: int) -> tuple:
    """Run SeedSequence's pool mixing over the entropy words all of a
    generation's candidates share, ``(master_seed, DOMAIN_SAMPLE,
    generation)``, as far as it goes without a word of the index.

    Returns ``(pool, hc, slot3)``.  Four or more shared words fill the pool,
    which is mixed completely; ``slot3`` is None and the index's words are
    absorbed after the pool from hash constant ``hc``.  Three shared words
    leave the pool's slot 3 to the index's low word; ``slot3`` then holds
    that slot's hash constants, the hashes the shared slots feed it while
    they mix, and the hash constants of its sends to them, ``pool`` holds
    the shared slots as those sends meet them, and ``hc`` is where the
    index's further words start.
    """
    words = _words(master_seed) + _words(DOMAIN_SAMPLE) + _words(generation)
    consts = iter(_POOL_HASH)
    pool = [_hash(w, next(consts), next(consts), _SCALAR) for w in words[:4]]
    shared = len(pool)
    own = (next(consts), next(consts)) if shared == 3 else None
    feeds = []
    for src in range(shared):
        for dst in range(4):
            if dst != src:
                h = _hash(pool[src], next(consts), next(consts), _SCALAR)
                if dst < shared:
                    pool[dst] = _mix(pool[dst], h, _SCALAR)
                else:
                    feeds.append(h)
    hc = _HC_AFTER_POOL
    for w in words[4:]:
        hc = _absorb(pool, w, hc, _SCALAR)
    if own is None:
        return tuple(pool), hc, None
    return tuple(pool), hc, (own, tuple(feeds), tuple(zip(consts, consts)))


def _pcg_states(shared: tuple, index_words: list[int], lanes: tuple) -> int:
    """Each lane's PCG64 state in its low 128 bits and increment in its high
    128, seeded from ``_lane_mix``'s ``shared`` and the lane's index, whose
    32-bit words, low first, ``index_words`` packs.  The index's words
    finish the pool, ``generate_state(4, uint64)`` hashes it into PCG64's
    seed and sequence, and ``srandom``'s two LCG steps give the state."""
    pool, hc, slot3 = shared
    one, k32, _, _, k128, low16 = lanes
    pool = [p * one for p in pool]
    if slot3 is not None:
        # the index's low word fills slot 3, takes the shared slots' feed,
        # then mixes into each of them
        own, feeds, sends = slot3
        p3 = _hash(index_words[0], *own, lanes)
        for h in feeds:
            p3 = _mix(p3, h * one, lanes)
        pool = [_mix(p, _hash(p3, x, m, lanes), lanes) for p, (x, m) in zip(pool, sends)]
        pool.append(p3)
        index_words = index_words[1:]
    for w in index_words:
        hc = _absorb(pool, w, hc, lanes)
    # generate_state's 8 words, packed as PCG64 reads them: the uint64 pairs
    # (0, 1) and (2, 3) are the high and low halves of its seed, the pairs
    # (4, 5) and (6, 7) of its sequence
    w = [(p ^ x * one) * m & k32 for p, x, m in zip(pool + pool, _STATE_XOR, _STATE_MULT)]
    seed = w[2] | w[3] << 32 | w[0] << 64 | w[1] << 96
    seq = w[6] | w[7] << 32 | w[4] << 64 | w[5] << 96
    seed ^= seed >> 16 & low16
    seq ^= seq >> 16 & low16
    # srandom: inc = 2 seq + 1; two LCG steps from 0, adding seed between
    inc = (seq << 1 | one) & k128
    return ((inc + seed) * _PCG_MULT + inc) & k128 | inc << 128


class _StateSetter:
    """Loads a generator through PCG64's public ``state`` setter, from the
    32 bytes a ``_state_view`` takes: where that view is not safe."""

    def __init__(self, bit_generator: np.random.PCG64):
        self.bit_generator = bit_generator

    def __setitem__(self, _, words) -> None:
        words = bytes(words)
        self.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": int.from_bytes(words[:16], "little"),
                      "inc": int.from_bytes(words[16:], "little")},
            "has_uint32": 0, "uinteger": 0}


# the fixed state and increment the probe loads
_PROBE_STATE = (0x0123456789ABCDEF_FEDCBA9876543210, 0x5851F42D4C957F2D_14057B7EF767814F)


def _state_view(gen: np.random.Generator) -> memoryview | None:
    """A writable view of the 32 bytes that hold ``gen``'s PCG64 state and
    increment, or None where they are not laid out as this host's NumPy does.

    ``bit_generator.ctypes.state_address`` points at NumPy's ``pcg64_state``,
    whose first field points at ``{state, inc}``, two 128-bit integers
    stored low half first where the compiler has ``__uint128_t`` on a
    little-endian host.  That is NumPy's C internals, not its API, so the
    view is used only if it lies inside the bit generator object, reads the
    state the ``state`` getter reports, and a fixed state written through it
    reads back through the getter, with no buffered 32-bit half, and gives
    the normals the setter-loaded state gives."""
    bitgen = gen.bit_generator
    base, size = id(bitgen), sys.getsizeof(bitgen)
    address = bitgen.ctypes.state_address
    if sys.byteorder != "little" or not base <= address <= base + size - 8:
        return None
    pointer = ctypes.c_void_p.from_address(address).value
    if pointer is None or not base <= pointer <= base + size - 32:
        return None
    view = memoryview((ctypes.c_char * 32).from_address(pointer)).cast("B")
    now = bitgen.state["state"]
    if bytes(view) != (now["state"] | now["inc"] << 128).to_bytes(32, "little"):
        return None
    state, inc = _PROBE_STATE
    view[:] = (state | inc << 128).to_bytes(32, "little")
    loaded = bitgen.state
    reference = np.random.PCG64(0)
    _StateSetter(reference)[:] = bytes(view)
    if (loaded["state"] != {"state": state, "inc": inc} or loaded["has_uint32"] != 0
            or not np.array_equal(gen.standard_normal(8),
                                  np.random.Generator(reference).standard_normal(8))):
        return None
    return view


_thread = threading.local()   # one reused generator per thread


def _thread_generator() -> tuple:
    """This thread's reused generator's state writer and ``standard_normal``:
    ``writer[:] = words`` loads the 32 bytes of a ``_pcg_states`` lane."""
    try:
        return _thread.generator
    except AttributeError:
        gen = np.random.Generator(np.random.PCG64(0))
        writer = _state_view(gen)
        if writer is None:
            writer = _StateSetter(gen.bit_generator)
        # the bound method keeps the generator, and so the viewed struct, alive
        _thread.generator = writer, gen.standard_normal
        return _thread.generator


def _check_count(value) -> int:
    """A generation or an index: a non-negative Python or NumPy integer."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0:
        return int(value)
    raise ValueError("generation and index must be non-negative integers")


def candidate_z(master_seed: int, generation: int, index: int, n: int) -> np.ndarray:
    """Unit-Gaussian draw for one candidate: the first ``n`` normals of
    ``np.random.default_rng([master_seed, DOMAIN_SAMPLE, generation,
    index]).standard_normal``, bit for bit.  A one-row ``_draw``."""
    return _draw(master_seed, generation, (index,), n)[0]


def _draw(master_seed: int, generation: int, indexes, n: int) -> np.ndarray:
    """The ``candidate_z`` rows of ``indexes``, which must be non-negative
    Python or NumPy integers, as must ``generation``.

    ``_lane_mix`` mixes the words every row shares once.  ``_pcg_states``
    then seeds, in one packed int, all rows whose indexes have the same
    number of 32-bit words: usually all of them.  Lane k of its result holds
    the k-th such row's PCG64 state and increment, and its 32 little-endian
    bytes are those of NumPy's ``{state, inc}`` struct.  Per row, this
    thread's generator takes those bytes, through a view of that struct
    where ``_state_view``'s probe accepted it and through the ``state``
    setter otherwise, and ``standard_normal`` writes the row in place."""
    shared = _lane_mix(_check_seed(master_seed), _check_count(generation))
    indexes = [i if type(i) is int and i >= 0 else _check_count(i) for i in indexes]
    out = np.empty((len(indexes), n))
    if not indexes:
        return out
    if max(indexes) <= _M32:
        groups = {1: range(len(indexes))}
    else:
        groups = {}
        for row, index in enumerate(indexes):
            groups.setdefault(len(_words(index)), []).append(row)
    writer, normal = _thread_generator()
    for count, rows in groups.items():
        index_words = [
            int.from_bytes(b"".join([(indexes[row] >> shift & _M32).to_bytes(32, "little")
                                     for row in rows]), "little")
            for shift in range(0, 32 * count, 32)]
        states = memoryview(_pcg_states(shared, index_words, _lanes(len(rows)))
                            .to_bytes(32 * len(rows), "little"))
        for row, start in zip(rows, range(0, len(states), 32)):
            writer[:] = states[start:start + 32]
            normal(out=out[row])
    return out


def sample(params: StrategyParams, state: DistributionState, master_seed: int,
           indexes) -> tuple[np.ndarray, np.ndarray]:
    """Draw candidates ``indexes`` of generation ``state.g`` from their
    seeds, as ``(Z, X)``: one ``candidate_z`` row per index and
    ``X = m + sigma * A Z``.  A row's bits do not depend on which other
    indexes are drawn with it.  A non-finite ``X``, from non-finite
    covariance factors or from a step size grown past float range, raises
    ``NumericalDegeneracyError``."""
    z = _draw(master_seed, state.g, indexes, params.n)
    x = state.m + state.sigma * _sampling_map(params, state, z)
    if not np.isfinite(x).all():
        raise NumericalDegeneracyError(f"non-finite candidates at generation {state.g}",
                                       state.g)
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
    z, x = sample(params, state, master_seed, range(params.lam))
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

    yw = _sampling_map(params, state, zw)
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
        ys = np.sqrt(state.c_diag) * zs
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
    """Minimize a black-box function under an evaluation budget.

    Ends with status ``degenerate``, and the best finite point found so far,
    when the distribution leaves float range or a generation's objective
    value is not finite; that generation's evaluations count in ``evals``.
    A non-finite value at ``m0`` ends it at once, with ``m0`` as the best."""
    m0 = np.asarray(m0, dtype=float)
    params, state = new_strategy(variant, len(m0), sigma0, m0, lam)
    if budget_evals < params.lam:
        raise ValueError("budget must cover at least one generation")

    best_f = float(objective(m0.copy()))
    best_x = m0.copy()
    evals = 1
    history: list[OptRecord] = []
    if not math.isfinite(best_f):
        return OptimizeResult(best_x, best_f, evals, "degenerate", history)
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
            # a sum of finite values is finite unless it overflows
            diverged = not math.isfinite(sum(f)) and not all(map(math.isfinite, f))
            if diverged:        # only finite values can be the best
                f = [fc if math.isfinite(fc) else math.inf for fc in f]
            gen_best = min(f)
            if gen_best < best_f:   # the first of any ties
                best_f, best_x = gen_best, cands[f.index(gen_best)].x.copy()
            if diverged:        # end as a run whose distribution diverged does
                status = "degenerate"
                break
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
