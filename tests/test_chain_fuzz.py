"""Exit contract of the commands that read a chain file, under random and
malformed input.

Hypothesis draws chain files, well formed or damaged in one place, and runs
``resolution boundary``, ``valuation value``, ``probe eta`` and ``probe gap``
on them through ``bnsr.cli.main``, over Q, F3 and Z, on windows of radius at
most 2.  None of these commands runs a check, so every run must return 0 or
3 without raising; an input error (3) writes ``error:`` to standard error
and no output; and two runs on the same file write the same structured
bytes.

Well-formed chains have at most three terms within distance 2 of the
identity; a third of the eta and gap runs get the boundary of such a chain,
which bounds inside a window that holds the chain, so the whole test runs
in a few seconds.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.cli import main
from bnsr.resolutions import chain_from_obj, chain_to_obj, parse_resolution
from bnsr.rings import RATIONALS

# (resolution spec, group spec of the same resolution)
SETTINGS = (("koszul:1", "abelian:1"), ("koszul:2", "abelian:2"), ("free:2", "free:2"))


@functools.cache
def resolution(spec):
    """The resolution of a spec over Q, built once; chain files do not depend on the ring."""
    return parse_resolution(spec, RATIONALS)


COEFF = st.one_of(st.integers(-3, 3), st.sampled_from(("1", "-2", "1/2", "2/3", "3")))

# a JSON value of the wrong shape or type for any slot of a chain
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-5, 5),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)

DAMAGE = ("top", "term", "key", "g", "cell", "coeff", "degrees")


@st.composite
def chain_obj(draw, spec, degree=None, damaged=True):
    """A serialized chain of one degree; if ``damaged``, about a quarter are
    damaged in one place."""
    F = resolution(spec)
    if degree is None:
        degree = draw(st.sampled_from(F.degrees()))
    ball = F.group.ball(draw(st.integers(0, 2)))
    labels = [cell.label for cell in F.cells(degree)]

    def term():
        return {
            "g": F.group.element_to_obj(draw(st.sampled_from(ball))),
            "cell": draw(st.sampled_from(labels)),
            "coeff": draw(COEFF),
        }

    terms = [term() for _ in range(draw(st.integers(0, 3)))]
    damage = draw(st.sampled_from(DAMAGE + ("none",) * 21)) if damaged else "none"
    if damage == "top":
        return draw(JUNK)
    if damage == "term":
        terms.append(draw(JUNK))
    elif damage == "key":
        bad = term()
        del bad[draw(st.sampled_from(sorted(bad)))]
        terms.append(bad)
    elif damage in ("g", "cell", "coeff"):
        bad = term()
        bad[damage] = draw(st.one_of(JUNK, st.just("zz"), st.just("1/0"), st.just(["a", "a^-1"])))
        terms.append(bad)
    elif damage == "degrees":
        other = [d for d in F.degrees() if d != degree]
        terms.extend(draw(chain_obj(spec, draw(st.sampled_from(other)), damaged=False)))
    return terms


@st.composite
def chain_run(draw):
    """(argv without the chain file and its flag, flag, chain file content)."""
    spec, group = draw(st.sampled_from(SETTINGS))
    F = resolution(spec)
    ring = draw(st.sampled_from(("Q", "F3", "Z")))
    char = ",".join(str(draw(st.integers(-2, 2))) for _ in range(F.group.char_dim))
    cmd = draw(st.sampled_from(("boundary", "value", "eta", "gap")))
    if cmd == "boundary":
        return ["resolution", "boundary", "--resolution", spec, "--ring", ring], "--chain", draw(chain_obj(spec))
    if cmd == "value":
        argv = ["valuation", "value", "--resolution", spec, "--ring", ring, f"--char={char}"]
        return argv, "--chain", draw(chain_obj(spec))
    window = str(draw(st.integers(0, 2)))
    argv = ["probe", cmd, "--group", group, "--ring", ring, f"--char={char}", "--window", window]
    flag = "--cycle" if cmd == "eta" else "--target"
    top = max(F.degrees())
    if draw(st.integers(0, 2)) or top == 0:
        return argv, flag, draw(chain_obj(spec))
    # the boundary of a well-formed chain: a cycle that bounds when the window holds the chain
    c = chain_from_obj(F, draw(chain_obj(spec, draw(st.integers(1, top)), damaged=False)))
    return argv, flag, chain_to_obj(F, F.boundary(c))


def _run(argv, out_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "structured", "--out", out_path])
    out = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out = fh.read()
        os.remove(out_path)
    return code, out, err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chain_run())
def test_chain_commands_keep_the_exit_contract(run):
    argv, flag, content = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        argv = argv + [flag, path]
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"{argv[1]} exit {code}")
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err
    if code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "" and json.loads(out) is not None, (out, err)
    assert second == first
