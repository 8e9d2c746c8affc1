"""Exit contract of ``witness run`` under random and malformed configs.

Hypothesis draws a config over a ring among Q, F3 and Z with random mu and
mu'.  A quarter are the splitter pair on F2 x F2, where every check can
hold; the rest take two groups among free:1, free:2, abelian:1 and
abelian:2, random characters, the cycles z and z' (zero, the boundary of a
random chain, or a random chain of degree 0, which need not bound), their
fillings c and c' given or left to the filling search, and a window of
radius 0-2.  About a fifth are damaged in one place.  Every run must exit 0, 1 or 3 without a traceback; exit 1 only
with ``"conclusion": false`` in the output (the pipeline ran and a check
was false); exit 3 with ``error:`` on standard error and no output; and two
runs write the same structured bytes.

Windows of radius at most 3 keep the tensor window at a few thousand group
elements, so the whole test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.cli import main
from bnsr.groups import parse_group
from bnsr.resolutions import Chain, chain_to_obj, resolution_for
from bnsr.rings import RATIONALS

GROUPS = ("free:1", "free:2", "abelian:1", "abelian:2")


def resolution(spec):
    """The shared resolution of a group spec over Q; configs do not depend on the ring."""
    return resolution_for(parse_group(spec), RATIONALS)


RATIONAL = st.sampled_from(("0", "1", "-1", "1/2", "2", "5/2", "-3/2"))
COEFF = st.sampled_from(("1", "-1", "2"))

# a JSON value of the wrong shape or type for any slot of a config
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-5, 5),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


@st.composite
def chain(draw, F, degree):
    """A chain of at most three terms within distance 1 of the identity."""
    ball = F.group.ball(draw(st.integers(0, 1)))
    cells = F.cells(degree)
    terms = [
        ((draw(st.sampled_from(ball)), draw(st.sampled_from(cells))), F.ring.parse(draw(COEFF)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return Chain(F.ring, terms)


@st.composite
def cycle_and_filling(draw, spec):
    """(z, c or None) as config objects: z is zero, a boundary (with its
    filling c, or with c left to the search) or a degree-0 chain."""
    F = resolution(spec)
    shape = draw(st.sampled_from(("zero", "boundary", "boundary", "boundary", "vertices")))
    if shape == "zero":
        return [], None
    if shape == "vertices":
        return chain_to_obj(F, draw(chain(F, 0))), None
    c = draw(chain(F, draw(st.integers(1, F.max_degree))))
    z = F.boundary(c)
    return chain_to_obj(F, z), (chain_to_obj(F, c) if draw(st.booleans()) else None)


DAMAGE = ("top", "drop", "junk", "ring", "group")


def splitter_cycle(k):
    """b a^k x0 - a^k x0 on F2: with character (1, 0), mu = k - 1/2 and a
    window of radius k + 1 the pipeline's checks all hold."""
    return [{"g": ["b"] + ["a"] * k, "cell": "x0", "coeff": "1"}, {"g": ["a"] * k, "cell": "x0", "coeff": "-1"}]


@st.composite
def witness_config(draw):
    cfg = {"ring": draw(st.sampled_from(("Q", "F3", "Z")))}
    if draw(st.integers(0, 3)) == 0:
        # the splitter pair, where a check can pass
        k = draw(st.integers(1, 2))
        mu = st.sampled_from((f"{2 * k - 1}/2",) * 3 + ("1", "5/2"))
        cfg.update(left_group="free:2", right_group="free:2", char_left=["1", "0"], char_right=["1", "0"],
                   z=splitter_cycle(k), z_prime=splitter_cycle(k), mu=draw(mu), mu_prime=draw(mu), window=k + 1)
    else:
        left, right = draw(st.sampled_from(GROUPS)), draw(st.sampled_from(GROUPS))
        cfg.update(
            left_group=left,
            right_group=right,
            char_left=[draw(RATIONAL) for _ in range(resolution(left).group.char_dim)],
            char_right=[draw(RATIONAL) for _ in range(resolution(right).group.char_dim)],
            mu=draw(RATIONAL),
            mu_prime=draw(RATIONAL),
            window=draw(st.integers(0, 2)),
        )
        for key, fill, spec in (("z", "c", left), ("z_prime", "c_prime", right)):
            cfg[key], c = draw(cycle_and_filling(spec))
            if c is not None:
                cfg[fill] = c
    damage = draw(st.sampled_from(DAMAGE + ("none",) * 20))
    if damage == "top":
        return draw(JUNK)
    key = draw(st.sampled_from(sorted(cfg)))
    if damage == "drop":
        del cfg[key]
    elif damage == "junk":
        cfg[key] = draw(JUNK)
    elif damage == "ring":
        cfg["ring"] = draw(st.sampled_from(("R", "F4", "")))
    elif damage == "group":
        cfg[draw(st.sampled_from(("left_group", "right_group")))] = draw(st.sampled_from(("free:x", "abelian:0")))
    return cfg


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(witness_config())
def test_witness_run_keeps_the_exit_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = ["witness", "run", "--config", path]
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"exit {code}")
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "", err
        assert json.loads(out)["conclusion"] is (code == 0), out
    assert second == first
