"""Exit contract of ``probe ca`` under random and malformed input.

Hypothesis draws a group spec (a few malformed ones among them), a
character (well formed, or of the wrong length, not rational or zero),
``--n`` 0-3, a window of radius 0-2, ``--lambda-max`` 0-3, ``--t-samples``
0-5 and a ring among Q, F3 and Z, and runs ``probe ca`` through
``bnsr.cli.main``.  Every run must exit 0, 1 or 3 without a traceback;
exit 1 only with ``"passed": false`` in the output; exit 3 with ``error:``
on standard error and no output; and two runs write the same structured
bytes.

The groups are those whose probes over Z stay cheap at radius 2 (the
Smith normal form confirmation of a rank-3 lattice takes seconds there), so
the whole test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.cli import main

# (group spec, character dimension), well formed ...
GROUPS = (
    ("abelian:1", 1),
    ("abelian:2", 2),
    ("free:1", 1),
    ("free:2", 2),
    ("free:3", 3),
    ("product:abelian:1,abelian:1", 2),
    ("product:abelian:1,free:1", 2),
)
# ... and specs that do not parse, about a fifth of the draws
MALFORMED = (("abelian:0", None), ("free:x", None), ("klein:2", None), ("product:", None))

ENTRY = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(("1/2", "-3/2")))
JUNK_ENTRY = st.sampled_from(("", "x", "1/0", "0.5", "nan", "1,2"))


@st.composite
def character(draw, dim):
    """A character string; about a quarter are malformed."""
    size = dim if dim is not None else 2
    shape = draw(st.sampled_from(("ok",) * 6 + ("length", "entry")))
    if shape == "length":
        size = draw(st.sampled_from([k for k in range(4) if k != size]))
    entries = [draw(ENTRY) for _ in range(size)]
    if shape == "entry" and entries:
        entries[draw(st.integers(0, size - 1))] = draw(JUNK_ENTRY)
    return ",".join(entries)


@st.composite
def probe_argv(draw):
    spec, dim = draw(st.sampled_from(GROUPS * 2 + MALFORMED))
    return [
        "probe", "ca", "--group", spec,
        "--ring", draw(st.sampled_from(("Q", "F3", "Z"))),
        f"--char={draw(character(dim))}",
        "--n", str(draw(st.integers(0, 3))),
        "--window", str(draw(st.integers(0, 2))),
        "--lambda-max", str(draw(st.integers(0, 3))),
        "--t-samples", str(draw(st.integers(0, 5))),
    ]


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
@given(probe_argv())
def test_probe_ca_keeps_the_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
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
        assert json.loads(out)["passed"] is (code == 0), out
    assert second == first
