"""Substitution under binders builds no per-binder table.

Counted, not timed: the entries of every ``Substitution`` and ``Renaming``
table built while checking a nested Pi.  Checking a node touches its
context and its terms, so the count may grow as n^2 in the depth n (a ratio
of 4 per doubling); rebuilding a table under every binder crossed makes it
grow as n^3 (a ratio near 8).
"""

from corpus import THEORY, nested_pi
from gtt.judgements import EMPTY_CONTEXT
from gtt.scopes import Renaming
from gtt.syntax import Substitution
from gtt.theories import check_theory_derivation


def test_nested_pi_table_entries_grow_quadratically(monkeypatch):
    derivations = {n: nested_pi(EMPTY_CONTEXT, n).d_type for n in (16, 32)}
    built = [0]
    for cls in (Substitution, Renaming):
        def post_init(self, original=cls.__post_init__):
            built[0] += len(self.table)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)
    entries = {}
    for n, d in derivations.items():
        built[0] = 0
        check_theory_derivation(THEORY, (), d)
        entries[n] = built[0]
    assert entries[16] > 0
    assert entries[32] / entries[16] <= 4.6, entries
    # a generic metavariable occurrence returns its entry without a table
    assert entries[32] <= 1000, entries
