"""Omega-pushdown automata with good-for-games resolvers: membership and
emptiness analysis, Gale-Stewart game solving, and strategy synthesis."""

from .core import (
    BOTTOM,
    Configuration,
    LassoWord,
    OmegaPDA,
    RunPrefix,
    Transition,
    check_visibly,
    enabled,
    format_pda,
    is_deterministic,
    parse_lasso,
    parse_pda,
    replay,
    step,
    validate,
)
from .analysis import (
    EmptinessWitness,
    PAutomaton,
    UNKNOWN,
    accepts_tail_of,
    brute_force_lasso_oracle,
    lasso_membership,
    parity_nonempty,
    saturate_pre_star,
)
from .resolvers import (
    GuidedRun,
    MooreResolver,
    PDTResolver,
    Resolver,
    determinize_moore,
    ext,
    moore_lasso_acceptance,
    run_on_prefix,
    verify_resolver,
)
from .closure import DeterministicParityAutomaton, lift_resolver, product
from .games import (
    GaleStewartSpec,
    StrategyPDT,
    simulate_play,
    solve_claim_game,
    solve_gale_stewart,
    synthesize_strategy_pdt,
    universality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
