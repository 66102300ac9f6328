"""Evolution-strategy search for single-layer linear control policies."""

from .es import (CSA, SEP_CMA, FULL_CMA, VARIANTS, Candidate, CovTransform,
                 DistributionState, NumericalDegeneracyError, OptimizeResult,
                 StrategyParams, ask, candidate_z, cma_popsize, new_strategy,
                 optimize, rl_popsize, sample, tell, tell_arrays)
from .policy import (ActionSpace, Box, Checkpoint, Discrete, LinearPolicy,
                     ObsNormalizer, act, genome_dim, load_checkpoint,
                     save_checkpoint)
from .envs import ENV_IDS, EnvSpec, StepResult, env_spec, make_env
from .testfuncs import (TestFunction, ellipsoid, eval_test_function,
                        make_test_function, quadratic2d, rastrigin,
                        rotated_ellipsoid, sphere)
from .evaluate import (FitnessSpec, GenerationEval, Probe, Scores, Shaping,
                       TrainRecord, TrainResult, evaluate_candidate,
                       evaluate_generation, read_curve_csv, rollout,
                       shape_reward, test_policy, train, write_curve_csv)
from .distributed import (DesyncError, GenerationFailedError, MasterServer,
                          ProtocolError, serve_worker, train_distributed)

__version__ = "0.1.0"
