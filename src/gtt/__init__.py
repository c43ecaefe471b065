"""gtt: a kernel in which dependent type theories are first-class data.

Users declare signatures and rules; the kernel checks derivations,
verifies acceptability and well-presentedness, generates congruence
rules, and runs constructive metatheorem transformers.

The package exports nothing itself: import from its submodules.  The raw
layer (``errors``, ``scopes``, ``syntax``, ``judgements``, ``foundations``,
``rules``, ``theories``, ``jsonio``) imports no higher layer, so a caller
that only checks derivations of a raw theory never loads a metatheorem,
``presentation`` or ``maps``.
"""
