"""Reward models the samplers are exercised against."""

from . import cmdp, logistic, mixture, switching, synthetic
from .cmdp import CmdpModel
from .logistic import LogisticModel, parse_libsvm
from .mixture import MixtureModel
from .switching import SwitchingReward
from .synthetic import quadratic_oracle

__all__ = [
    "cmdp",
    "logistic",
    "mixture",
    "switching",
    "synthetic",
    "CmdpModel",
    "LogisticModel",
    "MixtureModel",
    "SwitchingReward",
    "parse_libsvm",
    "quadratic_oracle",
]
