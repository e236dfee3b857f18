"""Rule registry: one module per checker, discovered statically.

SK001–SK005 are the original per-file syntactic passes; SK102, SK104 and
SK105 are the CFG/dataflow generation (interprocedural contract rules built on
:mod:`tools.sketchlint.cfg`, :mod:`tools.sketchlint.dataflow` and
:mod:`tools.sketchlint.symbols`); SK201–SK206 are the concurrency pack
built on the :mod:`tools.sketchlint.lockgraph` lock-order model.
"""

from __future__ import annotations

from typing import Dict, List, Type

from tools.sketchlint.engine import Rule
from tools.sketchlint.rules.sk001_field_arithmetic import FieldArithmeticRule
from tools.sketchlint.rules.sk002_rng import InjectedRngRule
from tools.sketchlint.rules.sk003_exceptions import ExceptionDisciplineRule
from tools.sketchlint.rules.sk004_merge_safety import MergeSafetyRule
from tools.sketchlint.rules.sk005_hot_path import HotPathPurityRule
from tools.sketchlint.rules.sk102_obs_guard import ObsGuardRule
from tools.sketchlint.rules.sk104_field_flow import FieldFlowRule
from tools.sketchlint.rules.sk105_policy_threading import PolicyThreadingRule
from tools.sketchlint.rules.sk201_lock_order import LockOrderCycleRule
from tools.sketchlint.rules.sk202_blocking_under_lock import (
    BlockingUnderLockRule,
)
from tools.sketchlint.rules.sk203_unguarded_shared_write import (
    UnguardedSharedWriteRule,
)
from tools.sketchlint.rules.sk204_fork_safety import ForkSafetyRule
from tools.sketchlint.rules.sk205_wait_predicate import ConditionWaitLoopRule
from tools.sketchlint.rules.sk206_record_under_lock import RecordUnderLockRule

#: the rule-pack version, folded into the result-cache signature so a
#: rule upgrade invalidates every cached finding even when the package
#: sources look unchanged (e.g. an installed wheel with frozen mtimes).
#: Bump on any behavior change to a rule or to the shared models.
RULE_PACK_VERSION = "4.0.0"

ALL_RULES: List[Type[Rule]] = [
    FieldArithmeticRule,
    InjectedRngRule,
    ExceptionDisciplineRule,
    MergeSafetyRule,
    HotPathPurityRule,
    ObsGuardRule,
    FieldFlowRule,
    PolicyThreadingRule,
    LockOrderCycleRule,
    BlockingUnderLockRule,
    UnguardedSharedWriteRule,
    ForkSafetyRule,
    ConditionWaitLoopRule,
    RecordUnderLockRule,
]


def rules_by_code() -> Dict[str, Type[Rule]]:
    """Map rule codes (``SK001`` ...) to their classes."""
    return {cls.code: cls for cls in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "RULE_PACK_VERSION",
    "rules_by_code",
    "FieldArithmeticRule",
    "InjectedRngRule",
    "ExceptionDisciplineRule",
    "MergeSafetyRule",
    "HotPathPurityRule",
    "ObsGuardRule",
    "FieldFlowRule",
    "PolicyThreadingRule",
    "LockOrderCycleRule",
    "BlockingUnderLockRule",
    "UnguardedSharedWriteRule",
    "ForkSafetyRule",
    "ConditionWaitLoopRule",
    "RecordUnderLockRule",
]
