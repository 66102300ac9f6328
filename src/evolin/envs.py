"""Native implementations of three classic control tasks.

Dynamics, reset distributions, episode limits, and reward conventions follow
the standard v1 task definitions (cart-pole balance, acrobot swing-up,
pendulum swing-up) so returns are comparable to published numbers.  Each
environment is written once, as numpy operations over a batch of episodes
whose states are ``(k, L)`` float64 arrays; a single env is a batch of one.
A step is split into the part that feeds back (``transition``: the next
state) and the parts that do not (``terminal``: the termination flags of
states, and ``reward``), so a batched rollout can step only the first and
check or score a whole recorded block of states with one call of the
others.  Episodes are deterministic given the reset seed and the action
sequence, and bit-identical whatever else shares their batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import ActionSpace, Box, Discrete, _f64

__all__ = [
    "StepResult",
    "EnvSpec",
    "ENV_IDS",
    "env_spec",
    "make_env",
    "CartPole",
    "Acrobot",
    "Pendulum",
]


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    terminated: bool
    truncated: bool


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    obs_dim: int
    action_space: ActionSpace
    max_episode_steps: int
    solved_threshold: float


class _EnvBase:
    """One environment, written once over a batch of episodes.

    State arrays have shape ``(k, L)``: row ``i`` holds state variable ``i``
    of ``L`` episodes.  Actions are ``(L,)`` discrete indexes or
    ``(L, act_dim)`` box actions.  A subclass defines:

    * ``initial_state(rng)``: one episode's ``(k,)`` start state;
    * ``observe(state, out)``: writes the ``(L, obs_dim)`` observations into
      ``out`` and returns it;
    * ``transition(state, actions, out)``: writes the next ``(k, L)`` states
      into ``out`` (never ``state`` itself) and returns nothing;
    * ``terminal(state)``: the termination flags of states, elementwise over
      any trailing shape, so one call checks a recorded ``(k, T, L)`` block;
      None for an env that never terminates;
    * ``reward(state, actions, next_state)``: the rewards of transitions,
      elementwise over any trailing shape, so one call scores a recorded
      ``(k, T, L)`` trajectory with the bits of T single steps.

    The caller sees to the actions: discrete ones in range, box ones finite
    and within the bounds.  ``step`` checks a discrete action and clips a box
    one; ``act_batch`` gives in-range indexes and box actions within the
    bounds up to the rounding of ``high - low`` (exact for pendulum).  Every
    operation is elementwise per episode, so an episode's numbers do not
    depend on which others share its batch.  ``reset``/``step`` drive a
    batch of one; ``step`` calls ``transition``, then ``terminal`` on the
    next state, then ``reward``.

    Each elementwise numpy call in ``observe``, ``transition`` and
    ``terminal`` takes arrays of its output's shape or 0-d float64 arrays
    built once from the class's constants (``_f64``), never a Python scalar
    and never an array it must broadcast: numpy converts a Python scalar
    operand on every call, and on a few dozen lanes that costs as much as
    the operation.  A 0-d array holds the same float64 value, so every
    operation keeps its bits.
    """

    spec: EnvSpec

    def __init__(self):
        self._steps = 0
        self._done = True
        self._state = None

    def reset(self, seed=None) -> np.ndarray:
        self._state = self.initial_state(np.random.default_rng(seed))[:, None]
        self._steps = 0
        self._done = False
        return self._observe_one()

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        self._steps += 1
        state, actions = self._state, self._one_action(action)
        next_state = np.empty_like(state)
        self.transition(state, actions, next_state)
        terminated = self.terminal is not None and bool(self.terminal(next_state)[0])
        reward = self.reward(state, actions, next_state)
        self._state = next_state
        truncated = self._steps >= self.spec.max_episode_steps
        if terminated or truncated:
            self._done = True
        return StepResult(self._observe_one(), float(reward[0]), terminated, truncated)

    def _observe_one(self) -> np.ndarray:
        return self.observe(self._state, np.empty((1, self.spec.obs_dim)))[0]

    def _one_action(self, action) -> np.ndarray:
        space = self.spec.action_space
        if isinstance(space, Discrete):
            return np.array([_check_discrete(action, space.n)])
        actions = np.asarray(action, dtype=float).reshape(1, -1)
        if actions.shape[1] != space.act_dim or not np.isfinite(actions).all():
            raise ValueError(f"action must be {space.act_dim} finite number(s)")
        return np.minimum(np.maximum(actions, space.low), space.high)

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def observe(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transition(self, state: np.ndarray, actions: np.ndarray,
                   out: np.ndarray) -> None:
        raise NotImplementedError

    def terminal(self, state: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reward(self, state: np.ndarray, actions: np.ndarray,
               next_state: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_discrete(action, n: int) -> int:
    a = int(action)
    if a != action or not 0 <= a < n:
        raise ValueError(f"action must be an integer in [0, {n})")
    return a


class CartPole(_EnvBase):
    """Balance a pole on a force-controlled cart; +1 per step survived."""

    spec = EnvSpec("cartpole", 4, Discrete(2), 500, 475.0)

    GRAVITY = 9.8
    MASSCART = 1.0
    MASSPOLE = 0.1
    TOTAL_MASS = MASSCART + MASSPOLE
    LENGTH = 0.5                      # half the pole length
    POLEMASS_LENGTH = MASSPOLE * LENGTH
    FORCE_MAG = 10.0
    FORCES = np.array([-FORCE_MAG, FORCE_MAG])
    TAU = 0.02
    THETA_LIMIT = 12 * 2 * math.pi / 360
    X_LIMIT = 2.4
    # the step's constant operands (see _EnvBase)
    _GRAVITY, _TOTAL_MASS, _LENGTH, _MASSPOLE, _POLEMASS_LENGTH, _TAU = map(
        _f64, (GRAVITY, TOTAL_MASS, LENGTH, MASSPOLE, POLEMASS_LENGTH, TAU))
    _FOUR_THIRDS, _THETA_LIMIT, _X_LIMIT = map(_f64, (4.0 / 3.0, THETA_LIMIT, X_LIMIT))

    def initial_state(self, rng):
        return rng.uniform(-0.05, 0.05, size=4)

    def observe(self, state, out):
        out[...] = state.T
        return out

    def transition(self, state, actions, out):
        force = self.FORCES[actions]
        th, th_dot = state[2], state[3]

        costh = np.cos(th)
        sinth = np.sin(th)
        temp = (force + self._POLEMASS_LENGTH * th_dot * th_dot * sinth) / self._TOTAL_MASS
        th_acc = (self._GRAVITY * sinth - costh * temp) / (self._LENGTH * (
            self._FOUR_THIRDS - self._MASSPOLE * costh * costh / self._TOTAL_MASS))
        x_acc = temp - self._POLEMASS_LENGTH * th_acc * costh / self._TOTAL_MASS

        # semi-explicit Euler, positions advanced with the old velocities:
        # state + TAU * (x_dot, x_acc, th_dot, th_acc), whose two operations
        # commute, so taking their operands the other way round keeps the bits
        out[0::2] = state[1::2]
        out[1], out[3] = x_acc, th_acc
        out *= self._TAU
        out += state

    def terminal(self, state):
        return (np.abs(state[0]) > self._X_LIMIT) | (np.abs(state[2]) > self._THETA_LIMIT)

    def reward(self, state, actions, next_state):
        return np.ones(state.shape[1:])       # the falling step still pays


def _wrapper(lo: float, hi: float):
    """The function that shifts each entry of an array ``x`` into ``[lo,
    hi]`` one period ``hi - lo`` at a time; infinite and NaN entries pass
    through unchanged.  An entry more than 16 periods outside takes ``lo +
    remainder(x - lo, hi - lo)`` instead, since one period at a time may take
    forever (or never move it, once a period is below its spacing)."""
    diff = hi - lo
    lo, hi, diff, top, bottom = map(_f64, (lo, hi, diff, hi + 16 * diff, lo - 16 * diff))

    def wrap(x: np.ndarray) -> np.ndarray:
        finite = np.isfinite(x)
        far = finite & ((x > top) | (x < bottom))
        if far.any():
            x = x.copy()
            x[far] = lo + np.remainder(x[far] - lo, diff)
        while (over := finite & (x > hi)).any():
            x = np.where(over, x - diff, x)
        while (under := finite & (x < lo)).any():
            x = np.where(under, x + diff, x)
        return x
    return wrap


_wrap_angle = _wrapper(-math.pi, math.pi)


class Acrobot(_EnvBase):
    """Two-link underactuated swing-up; -1 per step until the tip is high."""

    spec = EnvSpec("acrobot", 6, Discrete(3), 500, -100.0)

    DT = 0.2
    LINK_LENGTH_1 = 1.0
    LINK_MASS_1 = 1.0
    LINK_MASS_2 = 1.0
    LINK_COM_1 = 0.5
    LINK_COM_2 = 0.5
    LINK_MOI = 1.0
    MAX_VEL_1 = 4 * math.pi
    MAX_VEL_2 = 9 * math.pi
    TORQUES = np.array([-1.0, 0.0, 1.0])
    GRAVITY = 9.8

    # the step's constant operands (see _EnvBase), each computed from the
    # attributes above as the Python-float expression the step used to form
    m1, m2, l1, lc1, lc2, g = (LINK_MASS_1, LINK_MASS_2, LINK_LENGTH_1,
                               LINK_COM_1, LINK_COM_2, GRAVITY)
    i1 = i2 = LINK_MOI
    _DSDT_FACTORS = tuple(map(_f64, (
        m2, i1, i2, m1 * lc1 * lc1, l1 * l1 + lc2 * lc2, 2 * l1 * lc2, lc2 * lc2, l1 * lc2,
        m2 * lc2 * g, math.pi / 2, -m2 * l1 * lc2, 2 * m2 * l1 * lc2,
        (m1 * lc1 + m2 * l1) * g, m2 * l1 * lc2, m2 * lc2 * lc2 + i2)))
    del m1, m2, l1, lc1, lc2, i1, i2, g
    _RK4_FACTORS = tuple(map(_f64, (DT, DT / 2, DT / 6, 2)))
    _VEL_LIMITS = tuple(map(_f64, (-MAX_VEL_1, MAX_VEL_1, -MAX_VEL_2, MAX_VEL_2)))
    _GOAL_HEIGHT = _f64(1.0)          # of the tip above the pivot, in link lengths

    def initial_state(self, rng):
        return rng.uniform(-0.1, 0.1, size=4)

    def observe(self, state, out):
        th1, th2 = state[0], state[1]
        np.cos(th1, out=out[:, 0])
        np.sin(th1, out=out[:, 1])
        np.cos(th2, out=out[:, 2])
        np.sin(th2, out=out[:, 3])
        out[:, 4:] = state[2:].T
        return out

    def _dsdt(self, s, torque):
        (m2, i1, i2, m1_lc1_lc1, l1_l1_lc2_lc2, two_l1_lc2, lc2_lc2, l1_lc2, m2_lc2_g,
         half_pi, neg_m2_l1_lc2, two_m2_l1_lc2, m1_lc1_m2_l1_g, m2_l1_lc2,
         m2_lc2_lc2_i2) = self._DSDT_FACTORS
        th1, th2, dth1, dth2 = s[0], s[1], s[2], s[3]
        cos2 = np.cos(th2)
        sin2 = np.sin(th2)

        d1 = m1_lc1_lc1 + m2 * (l1_l1_lc2_lc2 + two_l1_lc2 * cos2) + i1 + i2
        d2 = m2 * (lc2_lc2 + l1_lc2 * cos2) + i2
        phi2 = m2_lc2_g * np.cos(th1 + th2 - half_pi)
        phi1 = (neg_m2_l1_lc2 * dth2 * dth2 * sin2
                - two_m2_l1_lc2 * dth2 * dth1 * sin2
                + m1_lc1_m2_l1_g * np.cos(th1 - half_pi)
                + phi2)
        ddth2 = ((torque + d2 / d1 * phi1
                  - m2_l1_lc2 * dth1 * dth1 * sin2 - phi2)
                 / (m2_lc2_lc2_i2 - d2 * d2 / d1))
        ddth1 = -(d2 * ddth2 + phi1) / d1
        return np.array([dth1, dth2, ddth1, ddth2])

    def transition(self, state, actions, out):
        torque = self.TORQUES[actions]
        s = state
        dt, half_dt, sixth_dt, two = self._RK4_FACTORS

        # one classical Runge-Kutta step across the full control interval
        k1 = self._dsdt(s, torque)
        k2 = self._dsdt(s + half_dt * k1, torque)
        k3 = self._dsdt(s + half_dt * k2, torque)
        k4 = self._dsdt(s + dt * k3, torque)
        ns = s + sixth_dt * (k1 + two * k2 + two * k3 + k4)

        out[:2] = _wrap_angle(ns[:2])
        low1, high1, low2, high2 = self._VEL_LIMITS
        np.minimum(np.maximum(ns[2], low1), high1, out=out[2])
        np.minimum(np.maximum(ns[3], low2), high2, out=out[3])

    def reward(self, state, actions, next_state):
        return self.terminal(next_state) - 1.0    # 0 at the goal, else -1

    def terminal(self, state):
        """True where the tip is above the goal height."""
        th1, th2 = state[0], state[1]
        return -np.cos(th1) - np.cos(th2 + th1) > self._GOAL_HEIGHT


def _angle_normalize(x):
    return ((x + math.pi) % (2 * math.pi)) - math.pi


class Pendulum(_EnvBase):
    """Torque-limited swing-up; cost penalizes angle, speed, and effort."""

    MAX_TORQUE = 2.0                  # the action space's bounds
    spec = EnvSpec("pendulum", 3, Box(np.array([-MAX_TORQUE]), np.array([MAX_TORQUE])),
                   200, -100.0)

    MAX_SPEED = 8.0
    DT = 0.05
    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    # angular acceleration: 3 g / (2 l) sin(th) + 3 / (m l^2) u
    SIN_GAIN = 3 * GRAVITY / (2 * LENGTH)
    TORQUE_GAIN = 3.0 / (MASS * LENGTH * LENGTH)

    # the step's constant operands (see _EnvBase)
    _SIN_GAIN, _TORQUE_GAIN, _DT, _MAX_SPEED, _NEG_MAX_SPEED = map(
        _f64, (SIN_GAIN, TORQUE_GAIN, DT, MAX_SPEED, -MAX_SPEED))

    def initial_state(self, rng):
        th = rng.uniform(-math.pi, math.pi)
        return np.array([th, rng.uniform(-1.0, 1.0)])

    def observe(self, state, out):
        th = state[0]
        np.cos(th, out=out[:, 0])
        np.sin(th, out=out[:, 1])
        out[:, 2] = state[1]
        return out

    def transition(self, state, actions, out):
        th, thdot, newthdot = state[0], state[1], out[1]
        np.add(thdot, (self._SIN_GAIN * np.sin(th) + self._TORQUE_GAIN * actions[:, 0])
               * self._DT, out=newthdot)
        np.maximum(newthdot, self._NEG_MAX_SPEED, out=newthdot)
        np.minimum(newthdot, self._MAX_SPEED, out=newthdot)
        np.add(th, newthdot * self._DT, out=out[0])

    terminal = None                   # the swing-up never terminates

    def reward(self, state, actions, next_state):
        u = actions[..., 0]
        th, thdot = state[0], state[1]
        # float_power calls libm's pow, as float ** 2 does; x * x can differ
        cost = (np.float_power(_angle_normalize(th), 2.0) + 0.1 * thdot * thdot
                + 0.001 * u * u)
        return -cost


_ENV_CLASSES = {cls.spec.env_id: cls for cls in (CartPole, Acrobot, Pendulum)}
ENV_IDS = tuple(_ENV_CLASSES)


def env_spec(env_id: str) -> EnvSpec:
    try:
        return _ENV_CLASSES[env_id].spec
    except KeyError:
        raise ValueError(f"unknown environment: {env_id!r}") from None


def make_env(env_id: str) -> _EnvBase:
    return _ENV_CLASSES[env_id]() if env_id in _ENV_CLASSES else env_spec(env_id)
