"""Estimators, synthetic designs, the odds-ratio audit, and report writers."""

from .estimators import (
    hajek_regret,
    ht_test_regret,
    ipw_value,
    true_regret,
    worst_case_regret,
    worst_case_weights,
)
from .simulation import (
    SimParamsBinary,
    SimParamsMulti,
    SimulatedData,
    simulate_binary,
    simulate_multi,
)
from .audit import odds_ratio_audit

__all__ = [
    "hajek_regret",
    "worst_case_regret",
    "worst_case_weights",
    "ipw_value",
    "ht_test_regret",
    "true_regret",
    "SimParamsBinary",
    "SimParamsMulti",
    "SimulatedData",
    "simulate_binary",
    "simulate_multi",
    "odds_ratio_audit",
]
