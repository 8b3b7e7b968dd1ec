"""Each family's parser reads a model file whole and reads it again line by
line only to name the first bad line.  On valid files and on mutations of
them, both readings must give bitwise-equal models or the same error."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matbisim import lts, mrc
from matbisim.partition import ModelFormatError, content_lines

# tokens that int() or float() read in surprising ways, or refuse
ODD = ["٣", "1_0", "+3", "1.0", "-1", "-0.5", "zz", "tau", "99999999999999999999", "nan", "inf", "-0.0", "1e400", "0", "2:0.5", "3:", "tau\0", "fast\0"]
SEPARATORS = ["\t", "\f", "\v", "  ", " \t "]


@st.composite
def lts_lines(draw):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    state = st.integers(0, n - 1)
    term = draw(st.lists(state, max_size=3))
    edges = draw(st.lists(st.tuples(state, st.sampled_from(labels + ["tau"]), state), max_size=10))
    head = [f"lts {n}", "alphabet " + " ".join(labels), f"init {draw(state)}", " ".join(["term", *map(str, term)])]
    return head + [f"{s} {label} {d}" for s, label, d in edges]


@st.composite
def mrc_lines(draw):
    n = draw(st.integers(1, 5))
    start = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    rewards = draw(st.lists(st.sampled_from(["0", "1.5", "-2", "3e5", "0.1", "1_0"]), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    rates = draw(st.lists(st.tuples(st.sampled_from(["rate", "fast"]), pairs, st.sampled_from(["1", "0.5", "2e3", "1e-3", "0"])), max_size=10 if n > 1 else 0))
    head = [f"mrc {n}", "init " + " ".join(f"{s}:{1 / len(start)!r}" for s in start), "reward " + " ".join(rewards)]
    return head + [f"{kind} {s} {d} {value}" for kind, (s, d), value in rates]


@st.composite
def mutated(draw, lines):
    lines = list(draw(lines))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        how = draw(st.sampled_from(["drop", "extra", "replace", "replace", "replace", "space", "comment", "blank", "repeat"]))
        if how == "drop" and len(tokens) > 1:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif how == "extra":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(ODD)))
        elif how == "replace":  # by an odd token, or by one of the line's own, which makes self-rates and the like
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD + tokens))
        elif how == "space" and len(tokens) > 1:
            i = draw(st.integers(1, len(tokens) - 1))
            tokens[i - 1 : i + 1] = [tokens[i - 1] + draw(st.sampled_from(SEPARATORS)) + tokens[i]]
        elif how == "comment":
            tokens.append("# " + draw(st.sampled_from(ODD)))
        elif how == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t", "# only a comment"])))
            continue
        elif how == "repeat":
            lines.insert(at, lines[at])
            continue
        lines[at] = " ".join(tokens)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["\n", "", "\r\n\n"]))


def outcome(parse, text):
    try:
        return parse(text)
    except (ModelFormatError, ValueError) as exc:  # ValueError: too many states to allocate
        return type(exc).__name__, str(exc)


def same_arrays(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def agree_lts(text):
    whole = outcome(lts.parse_lts, text)
    by_line = outcome(lambda t: lts._system(*lts._by_line(content_lines(t))), text)
    if isinstance(whole, tuple) or isinstance(by_line, tuple):
        assert whole == by_line, text
        return
    assert whole.alphabet == by_line.alphabet, text
    for name in ("initial", "visible", "internal", "terminating"):
        assert same_arrays(getattr(whole, name).planes, getattr(by_line, name).planes), (name, text)


def agree_mrc(text):
    whole = outcome(mrc.parse_mrc, text)
    by_line = outcome(lambda t: mrc._by_line(content_lines(t)), text)
    if isinstance(whole, tuple) or isinstance(by_line, tuple):
        assert whole == by_line, text
        return
    assert type(whole) is type(by_line), text
    for name in ("sigma", "rho", "q", "qs", "qf"):
        if hasattr(whole, name):
            a, b = getattr(whole, name), getattr(by_line, name)
            assert same_arrays(a, b) and not a.flags.writeable, (name, text)


@settings(max_examples=300, deadline=None)
@given(mutated(lts_lines()))
def test_lts_whole_text_and_line_by_line_agree(text):
    agree_lts(text)


@settings(max_examples=300, deadline=None)
@given(mutated(mrc_lines()))
def test_mrc_whole_text_and_line_by_line_agree(text):
    agree_mrc(text)


@settings(max_examples=60, deadline=None)
@given(lts_lines(), mrc_lines())
def test_valid_files_are_read_whole(system, chain):
    # the line-by-line reading is only for files the whole-text one refuses
    refuse = mock.Mock(side_effect=AssertionError("read line by line"))
    with mock.patch.object(lts, "_by_line", refuse), mock.patch.object(mrc, "_by_line", refuse):
        if len(system) > 4:
            lts.parse_lts("\n".join(system))
        if len(chain) > 3:
            mrc.parse_mrc("\n".join(chain))


def test_each_check_of_the_whole_text_agrees():
    # the casts follow int() and float(): "٣" and "1_0" are numbers, "1.0" is no state
    for text in (
        "lts ٣\nalphabet a\ninit 1_0\nterm\n0 a 1\n",
        "lts 1_0\nalphabet a\ninit +3\nterm ٣\n0 a 1.0\n",
        "lts 2\r\nalphabet a\r\ninit 0\r\nterm\r\n0\ta\f1\n",
        "lts 2\nalphabet a\ninit 0\nterm 1\n0 a 1\n1 zz 0\n",  # unknown label
        "lst 2\nalphabet a\ninit 0\nterm\n0 a 1\n",
        "lts 2\nalphabet\ninit 0\nterm\n0 tau 1\n",
        "lts 2\nalphabet a a\ninit 0\nterm\n0 a 1\n",
        "lts 2\nalphabet a\ninit -1\nterm\n0 a 1\n",
        "lts 2\nalphabet a\ninit 0\nterm 2\n0 a 1\n",
        "lts 2\nalphabet a\ninit 0\nterm\n0 a 1 1\n",
        "lts 0\nalphabet a\ninit 0\nterm\n0 a 0\n",
        "lts 1000000\nalphabet a\ninit 0\nterm\n0 a 1\n1 b 2\n",  # the label is refused before 2·10¹² planes are allocated
        # the edge lines go to NumPy's C reader, which refuses "1_0" and "٣" and reads some other non-ASCII tokens as numbers
        "lts 11\nalphabet a\ninit 0\nterm\n1_0 a 3\n",
        "lts 11\nalphabet a\ninit 0\nterm\n1_0 a ٣\n",
        "lts 500\nalphabet a\ninit 0\nterm\n1\u01ff a 1\n",  # the C reader reads "1ǿ" as 473
        # a NUL stays in its token
        "lts 2\nalphabet a\ninit 0\nterm\n0 tau\0 1\n",
        "lts 2\nalphabet a\ninit 0\nterm\n0 a\0 1\n",
        "lts 2\nalphabet a\ninit 0\nterm\n0 a 1\0\n",
        "lts 2\nalphabet a\ninit 0\nterm\n0\0 a 1\n",
        "lts 2\nalphabet a bb\ninit 0\nterm\n0 bbbbbbbbbbbbbbbbbbbbbbb 1\n",  # longer than any name
        "lts 2\nalphabet a\ninit 0\nterm\n0 a 1 # a NUL \0 in a comment\n",
        "lts 2\nalphabet a\ninit 0\nterm 1\n",  # no edge lines
        "lts 2\nalphabet a\ninit 0\nterm 1\n# none\n\n",
        "# a system\n\n  \nlts 2\nalphabet a # one label\n\ninit 0\nterm\n0 a 1 # an edge\n",
    ):
        agree_lts(text)
    assert lts.parse_lts("lts 11\nalphabet a\ninit 0\nterm\n1_0 a 3\n").visible.planes[0, 10, 3]
    for text in (
        "mrc 2\ninit 0:1_0e-1 1:0.0\nreward ٣ 1\nrate 0 1 1_0\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 -0.0\nfast 1 0 1e400\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 1e308\nrate 0 1 1e308\n",  # the rates out of 0 pass the largest float
        "mrc 1\ninit 0:1\nreward 2.5\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 0 1\nrate 0 1 1\n",  # self-rate
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 -1\n",
        "mrc 2\ninit 0:0.5 0:0.5\nreward 0 0\nrate 0 1 1\n",
        "mrc 2\ninit 0:0.5\nreward 0 0\nrate 0 1 1\n",
        "mrc 2\ninit 0:1 1\nreward 0 0\nrate 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 2 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nslow 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 nan\nrate 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0\nrate 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 1\n",
        "mrc 11\ninit 0:1\nreward" + " 0" * 11 + "\nrate 1_0 3 1_0\n",
        "mrc 11\ninit 0:1\nreward" + " 0" * 11 + "\nfast 1_0 ٣ 1_0\n",
        "mrc 500\ninit 0:1\nreward" + " 0" * 500 + "\nrate 0 1\u01ff 1\n",  # the C reader reads "1ǿ" as 473
        "mrc 2\ninit 0:1\nreward 0 0\nrate\0 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nfast\0 0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 1\0\n",
        "mrc 2\ninit 0:1\nreward 0 0\nrate 0\0 1 1\n",
        "mrc 2\ninit 0:1\nreward 0 0\nfast 0 1 1 # a NUL \0 in a comment\n",
        "mrc 2\ninit 0:1\nreward 0 0\n# none\n\n",  # no edge lines
        "# a chain\n\n\t\nmrc 2\ninit 0:1 # all mass\n\nreward 0 0\nrate 0 1 1 # slow\n",
    ):
        agree_mrc(text)
    assert mrc.parse_mrc("mrc 11\ninit 0:1\nreward" + " 0" * 11 + "\nrate 1_0 3 1_0\n").q[10, 3] == 10.0
    assert np.array_equal(mrc.parse_mrc("mrc 2\ninit 0:1_0e-1 1:0.0\nreward ٣ 1\nrate 0 1 1_0\n").rho, [3.0, 1.0])
