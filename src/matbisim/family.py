"""The one lookup of a model family, by file header or by model type.

A family is the module that implements it: ``lts`` reads the equalities
``VUX = X`` over the action-set semiring, ``mrc`` over the reals.  Both
define the same names, so the search engine and the command line call them
without branching on the model: ``parse_model``, ``format_model``,
``collector``, ``collectors`` (a stack of them, for the oracle),
``canonical_distributor``, ``conditions`` (the kind's table
``V -> [(name, X)]``: the family's reading of the one statement of every
kind, :func:`~matbisim.partition.kinds`), ``check_rows``, ``passes`` and
``signature_keys`` (a verdict, a pass flag per stacked collector and
refinement keys from evaluated rows), ``evaluate``, ``check``, ``lump``,
``read_distributor``, and ``UNIQUE_COARSEST``.  Tables, distributors and
``passes`` broadcast over leading stack axes of the collector.
``check_rows`` and ``passes`` decide each ``VUX = X`` as block-constancy
with the family's one kernel; ``u`` None is the canonical distributor.
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
