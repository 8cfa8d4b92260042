"""Exception types shared across the package, and the rules that check input
values: each ``Rule`` holds its test and the words of its message.

The config table, ``TrainSpec``, ``NoiseSpec``, the estimator constructors and
the checkpoint readers check integers and numbers through these rules. An
integer is an ``int``, never a ``bool``; a number is an ``int`` or a
``float``, finite and never a ``bool``.
"""

import sys
from collections.abc import Callable
from typing import NamedTuple


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or unattainable."""


class TrainingDiverged(ArithmeticError):
    """A training loss became NaN or infinite."""


class Rule(NamedTuple):
    """What a value must be: ``test`` passes it, ``must`` says it after
    "must be", and a list rule's ``each`` passes every entry."""

    test: Callable[[object], bool]
    must: str
    each: "Rule | None" = None

    def check(self, value, name: str, error: type = ConfigError,
              form: str = "{name} must be {must}, got {value!r}"):
        """``value``; else ``error`` with ``form`` filled in for it or for its
        first failing entry, entry i named ``name[i]``."""
        if not self.test(value):
            raise error(form.format(name=name, must=self.must, value=value))
        for i, entry in enumerate(value if self.each else ()):
            self.each.check(entry, f"{name}[{i}]", error, form)
        return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def integer(minimum: int | None = None, below: int | None = None) -> Rule:
    """An integer, at least ``minimum`` and below ``below`` when they are given."""
    must = ("an integer" if minimum is None else
            "a positive integer" if minimum == 1 else f"an integer >= {minimum}")
    return Rule(lambda x: (_is_int(x) and (minimum is None or x >= minimum)
                           and (below is None or x < below)),
                must if below is None else f"{must} and < {below}")


# Every seed: rng.stream keys on one 64-bit word, so a seed outside it would
# run as another seed while the outputs name this one.
SEED_RULE = integer(0, 2 ** 64)


def number(low: float = 0, below: float | None = None, positive: bool = False) -> Rule:
    """A number at least ``low`` (above 0 when ``positive``), and below
    ``below`` when one is given. An int past the float range is not finite."""
    return Rule(lambda x: ((_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max
                           and (x > 0 if positive else x >= low)
                           and (below is None or x < below)),
                "a positive number" if positive else f"a number >= {low:g}" if below is None
                else f"a number in [{low:g}, {below:g})")


def or_null(rule: Rule) -> Rule:
    return Rule(lambda x: x is None or rule.test(x), f"{rule.must} or null")


def one_of(choices: tuple) -> Rule:
    return Rule(lambda x: isinstance(x, str) and x in choices, f"one of {choices}")


def nonempty_list(each: Rule) -> Rule:
    return Rule(lambda x: isinstance(x, list) and len(x) > 0, "a nonempty list", each)
