"""Bundled theories: MLTT dependent products, a corpus variant with base
constants, the self-containing universe, the cyclic quantifier, and the
well-presented form of the products theory.

Each theory is the JSON file of its name in ``gtt/data``, the one copy of
it; ``fixtures/`` links to the same files.  A raw theory is decoded on
first use and cached, so importing this module decodes nothing.  Trust in
the files comes from the checks run on what they decode to: acceptability,
well-foundedness, and the elaboration of the well-presented spec.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from . import jsonio
from .foundations import FinitePoset
from .theories import RawTypeTheory, TheoryWitnesses

DATA = Path(__file__).parent / "data"


def _read(name: str):
    return jsonio.loads((DATA / f"{name}.json").read_text())


@lru_cache(maxsize=None)
def _theory(name: str) -> tuple[RawTypeTheory, TheoryWitnesses, FinitePoset | None]:
    return jsonio.theory_from_json(_read(name))


def order(name: str) -> FinitePoset | None:
    """The rule order shipped with the bundled theory ``name``, or None."""
    return _theory(name)[2]


def mltt_pi() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """Dependent products: formation, abstraction, application, beta."""
    return _theory("mltt_pi")[:2]


def mltt_base() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """MLTT products plus a base type and inhabitant, for closed derivations."""
    return _theory("mltt_base")[:2]


def type_in_type() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """A Tarski universe containing itself: u : El(u)."""
    return _theory("type_in_type")[:2]


def cyclic_quantifier() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """A quantifier whose premise context mentions the quantifier itself."""
    return _theory("cyclic_quantifier")[:2]


def mltt_pi_presented():
    """The well-presented form of the products theory: rule boundaries over
    staged signatures, with witnesses, elaborating to ``mltt_pi``'s rules."""
    from .presentation import spec_from_json

    return spec_from_json(_read("mltt_pi_presented"))
