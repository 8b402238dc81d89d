"""ABR protocols evaluated by the paper (plus supporting baselines)."""

from repro.abr.protocols.base import AbrPolicy, run_session
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.buffer_based import BufferBased
from repro.abr.protocols.mpc import MPC
from repro.abr.protocols.optimal import (
    best_plans,
    optimal_plan_dp,
    optimal_qoe_exhaustive,
    plan_totals,
)
from repro.abr.protocols.pensieve import PensieveAgent, continue_training, train_pensieve
from repro.abr.protocols.rate_based import RateBased

__all__ = [
    "AbrPolicy",
    "Bola",
    "BufferBased",
    "MPC",
    "PensieveAgent",
    "RateBased",
    "best_plans",
    "continue_training",
    "optimal_plan_dp",
    "optimal_qoe_exhaustive",
    "plan_totals",
    "run_session",
    "train_pensieve",
]
