"""Both model families define the provider names that ``family.py`` lists,
with the same keyword-only parameters and defaults, so the engine and the
command line can call either without branching."""

import inspect

import pytest

from matbisim import family, lts, mrc, partition

PROVIDER = (
    "parse_model",
    "format_model",
    "collector",
    "collectors",
    "canonical_distributor",
    "conditions",
    "kernel",
    "require_collector",
    "require_distributor",
    "signature_keys",
    "evaluate",
    "check",
    "lump",
    "read_distributor",
    "UNIQUE_COARSEST",
)


def _parameters(fn):
    """Kind and default of every parameter; the names of the keyword-only ones."""
    return [
        (p.kind, p.name if p.kind is p.KEYWORD_ONLY else None, p.default)
        for p in inspect.signature(fn).parameters.values()
    ]


@pytest.mark.parametrize("name", PROVIDER)
def test_both_families_provide_the_listed_name(name):
    assert f"``{name}``" in family.__doc__
    ours, theirs = getattr(lts, name), getattr(mrc, name)
    if callable(ours):
        assert _parameters(ours) == _parameters(theirs)
    else:
        assert type(ours) is type(theirs)


def test_both_families_check_through_the_one_shared_path():
    assert lts.evaluate is mrc.evaluate is partition.evaluate
    assert lts.check is mrc.check is partition.check


def test_family_lookup_by_header_and_by_type(four_state, fast_absorbing):
    assert family.FAMILIES == {"lts": lts, "mrc": mrc}
    assert family.family_of(four_state) is lts
    assert family.family_of(fast_absorbing) is mrc
    with pytest.raises(TypeError, match="unsupported model type"):
        family.family_of(object())
