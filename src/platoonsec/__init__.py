"""Secure vehicle platooning under message falsification.

A longitudinal platoon runs a cooperative controller fed by V2V messages and
falls back to radar-only following when a game-theoretic supervisor, driven
by an imperfect anomaly detector, decides the channel is not worth trusting.
The package bundles the switched-system simulation engine, the certificate
machinery (common Lyapunov functions, exponential envelopes, minimum dwell
times), string-stability checks, and an exact solver for the attacker /
defender game that picks the switching policy.
"""

from .control import (ACC, CACC, AccGains, CaccGains, DEFAULT_ACC_GAINS,
                      DEFAULT_CACC_GAINS, assemble_closed_loop, closed_loop, law_terms)
from .engine import (ScenarioConfig, SimTrace, SwitchingConfig, cacc_entry_values,
                     run_scenario, trace_metrics, write_metrics_json, write_trace_csv)
from .config import ConfigError, load_scenario, scenario_from_dict
from .game import (BehavioralStrategy, DEFAULT_GAME, GameSpec, best_response_gap,
                   equilibrium_strategy, monte_carlo_play, solve_nash,
                   to_normal_form)
from .platoon import LeaderProfile, PlatoonConfig
from .stability import (LyapunovCandidate, check_bibo_lemma1, check_common_lyapunov,
                        check_gues_inequalities, find_common_lyapunov, hinf_norm,
                        impulse_response_nonneg, lyapunov_constants, min_dwell_time,
                        spacing_error_tf)
from .threat import AttackSignal, AttackSpec, attack_signal, detector_sample

__version__ = "0.1.0"

__all__ = [
    "ACC", "CACC", "AccGains", "CaccGains", "DEFAULT_ACC_GAINS",
    "DEFAULT_CACC_GAINS", "assemble_closed_loop", "closed_loop", "law_terms",
    "ScenarioConfig", "SimTrace", "SwitchingConfig", "cacc_entry_values",
    "run_scenario", "trace_metrics", "write_metrics_json", "write_trace_csv",
    "ConfigError", "load_scenario", "scenario_from_dict",
    "BehavioralStrategy", "DEFAULT_GAME", "GameSpec", "best_response_gap",
    "equilibrium_strategy", "monte_carlo_play", "solve_nash", "to_normal_form",
    "LeaderProfile", "PlatoonConfig",
    "LyapunovCandidate", "check_bibo_lemma1", "check_common_lyapunov",
    "check_gues_inequalities", "find_common_lyapunov", "hinf_norm",
    "impulse_response_nonneg", "lyapunov_constants", "min_dwell_time",
    "spacing_error_tf",
    "AttackSignal", "AttackSpec", "attack_signal", "detector_sample",
    "__version__",
]
