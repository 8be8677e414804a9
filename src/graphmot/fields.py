"""The rule every configured value is checked by: a count is an integer, a
real a finite number in its interval (neither is a bool), a bool True or
False, a choice one of a tuple. A refused value raises a ValueError naming
the field and repeating the value. Imports nothing from the package."""

import math
import numbers


def check_count(name: str, value, least: int) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_real(value, low, high, ends) -> bool:
    """A finite real, not a bool, between low and high; ends is "()", "[)",
    "(]" or "[]" and marks, as in interval notation, the ends included."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    above = value >= low if ends[0] == "[" else value > low
    below = value <= high if ends[1] == "]" else value < high
    return above and below and -math.inf < value < math.inf  # NaN fails every comparison


def check_real(name: str, value, low: float, high: float = math.inf, ends: str = "()") -> None:
    """A finite real in an interval (_is_real), unbounded above without high."""
    if not _is_real(value, low, high, ends):
        if high == math.inf:
            rule = f"{'>=' if ends[0] == '[' else '>'} {low:g} and finite"
        else:
            rule = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_pair(name: str, value, ends: str = "()") -> None:
    """A tuple or list of two reals that check_real(name, v, 0, ends=ends)
    accepts: a size, or a range of sizes or speeds."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(_is_real(v, 0.0, math.inf, ends) for v in value)):
        rule = "positive numbers" if ends == "()" else "numbers >= 0"
        raise ValueError(f"{name} must be two finite {rule}, got {value!r}")


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
