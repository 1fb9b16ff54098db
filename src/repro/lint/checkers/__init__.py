"""Checker registry: one module per rule family."""

from __future__ import annotations

from repro.lint.engine import Checker
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.loop_discipline import LoopDisciplineChecker
from repro.lint.checkers.exception_hygiene import ExceptionHygieneChecker
from repro.lint.checkers.instruments import InstrumentRegistrationChecker
from repro.lint.checkers.deep_loop import DeepLoopChecker
from repro.lint.checkers.durability import DurabilityChecker

__all__ = ["all_checkers"]


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker, in rule-id order."""
    return [
        DeterminismChecker(),
        LoopDisciplineChecker(),
        ExceptionHygieneChecker(),
        InstrumentRegistrationChecker(),
        DeepLoopChecker(),
        DurabilityChecker(),
    ]
