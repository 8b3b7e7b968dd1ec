"""The one lookup of a model family, by file header or by model type.

A family is the module that implements it: ``lts`` reads the equalities
``VUX = X`` over the action-set semiring, ``mrc`` over the reals.  Both
define the same names, so the search engine and the command line call them
without branching on the model: ``parse_model``, ``format_model``,
``collector``, ``collectors`` (a stack of them, for the oracle),
``canonical_distributor``, ``conditions`` (the kind's table
``V -> [(name, X)]``: the family's reading of the one statement of every
kind, :func:`~matbisim.partition.kinds`), ``kernel`` (the block-constancy
reading of each ``VUX = X``; ``u`` None is the canonical distributor),
``require_collector`` (of a model) and ``require_distributor`` (of a
collector), its input checks, which return the validated matrix,
``signature_keys`` (refinement keys from evaluated rows), ``evaluate``,
``check``, ``lump``, ``read_distributor``, ``UNIQUE_COARSEST`` and
``STACKS_BY_RANK``.
Tables, distributors and kernels broadcast over leading stack axes of the
collector.  ``evaluate`` and ``check`` are stated once, in
:mod:`~matbisim.partition`, which also turns a family's kernel into a
verdict (``verdict``) or a pass flag per stacked collector (``passes``).
"""

from __future__ import annotations

from . import lts, mrc

#: Families by model-file header.
FAMILIES = {"lts": lts, "mrc": mrc}


def family_of(model):
    if isinstance(model, lts.Lts):
        return lts
    if isinstance(model, (mrc.Mrc, mrc.MrcFast)):
        return mrc
    raise TypeError(f"unsupported model type {type(model).__name__}")
