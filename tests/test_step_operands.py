"""Every elementwise numpy call of a rollout step takes operands it need not
convert or broadcast: arrays of the call's output shape, or 0-d arrays.

numpy converts a Python scalar operand on every call and broadcasts a short
operand on every call; on a few dozen lanes either costs about as much as
the operation.  Each env's ``observe``, ``transition`` and ``terminal``,
``welford_update`` and ``act_batch`` run here on ``Recorded`` arrays, whose
``__array_ufunc__`` sees every ufunc call made on them.  Reductions (``any``,
``all``) and gufuncs such as ``matmul`` are exempt.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from evolin import envs
from evolin.envs import make_env
from evolin.policy import Box, Discrete, act_batch, welford_update

LANES = 5


class Recorded(np.ndarray):
    """An array whose elementwise ufunc calls append ``(name, inputs,
    output shape)`` to ``CALLS``; results made from it are Recorded too."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        outs = kwargs.get("out", ())
        if outs:
            kwargs["out"] = tuple(plain(o) for o in outs)
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if method == "__call__" and ufunc.signature is None:
            CALLS.append((ufunc.__name__, inputs, np.shape(result)))
        if outs:
            return outs[0]
        return result.view(Recorded) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        # np.where and friends: keep their results recorded
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(Recorded) if type(result) is np.ndarray else result


CALLS = []


def plain(x):
    return x.view(np.ndarray) if isinstance(x, Recorded) else x


class RecordedNumpy:
    """numpy for the env module, with ``np.array`` (which stacks acrobot's
    derivatives) giving Recorded arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array(*args, **kwargs):
        return np.array(*args, **kwargs).view(Recorded)


def rec(x) -> Recorded:
    return np.array(x, dtype=float).view(Recorded)


def bad_operands() -> list[str]:
    """The recorded calls with a scalar operand, or with an array operand
    neither 0-d nor of the output's shape."""
    bad = []
    for name, inputs, shape in CALLS:
        for x in inputs:
            if not isinstance(x, np.ndarray):
                bad.append(f"{name}: scalar operand {x!r}")
            elif x.ndim and x.shape != shape:
                bad.append(f"{name}: operand of shape {x.shape} for output {shape}")
    return bad


@pytest.fixture
def recorded(monkeypatch):
    monkeypatch.setattr(envs, "np", RecordedNumpy())
    CALLS.clear()
    yield CALLS
    CALLS.clear()


def start_states(env) -> np.ndarray:
    state = np.stack([env.initial_state(np.random.default_rng(s)) for s in range(LANES)],
                     axis=1)
    # lanes that wrap one period, and one far enough out for remainder
    state[:2, 1] = 3.1
    state[2:, 1] = 12.0
    state[:2, 2] = -3.1
    state[2:, 2] = -12.0
    state[:2, 3] = 1e6
    return state


@pytest.mark.parametrize("env_id", ["cartpole", "acrobot", "pendulum"])
def test_env_step_operands_are_lane_shaped_or_0d(recorded, env_id) -> None:
    env = make_env(env_id)
    space = env.spec.action_space
    state = rec(start_states(env))
    if isinstance(space, Discrete):
        actions = (np.arange(LANES) % space.n).view(Recorded)
    else:
        actions = rec(np.linspace(-2.0, 2.0, LANES)[:, None])
    env.observe(state, rec(np.empty((LANES, env.spec.obs_dim))))
    out = rec(np.empty_like(state))
    env.transition(state, actions, out)
    if env.terminal is not None:
        env.terminal(out)
        env.terminal(rec(np.stack([state, out], axis=1)))   # a (k, T, L) block
    assert len(recorded) > 5, "the recorder saw too few calls"
    assert bad_operands() == []


def test_welford_and_act_batch_operands_are_lane_shaped_or_0d(recorded) -> None:
    rng = np.random.default_rng(3)
    obs = rec(rng.standard_normal((LANES, 3)))
    mean, m2 = rec(np.zeros((LANES, 3))), rec(np.zeros((LANES, 3)))
    welford_update(rec(4.0), mean, m2, obs)
    weights = rec(rng.standard_normal((LANES, 1, 3)))
    box = Box(np.array([-2.0]), np.array([2.0]))
    # run_episodes passes the box's bounds tiled to the lanes
    bounds = SimpleNamespace(half_width=np.tile(box.half_width, (LANES, 1)),
                             low=np.tile(box.low, (LANES, 1)))
    act_batch(weights, bounds, obs, out=rec(np.empty((LANES, 1))))
    act_batch(rec(rng.standard_normal((LANES, 2, 3))), Discrete(2), obs,
              out=np.empty(LANES, dtype=np.intp))
    assert len(recorded) >= 7, "the recorder saw too few calls"
    assert bad_operands() == []


def test_recorder_flags_scalar_and_broadcast_operands(recorded) -> None:
    x = rec(np.ones((LANES, 3)))
    x * 0.5
    x + np.ones(3)
    (x + rec(np.ones((LANES, 3)))).any()        # fine, and a reduction
    assert bad_operands() == ["multiply: scalar operand 0.5",
                              f"add: operand of shape (3,) for output {(LANES, 3)}"]
