"""Exit contract of ``resolution build`` and ``resolution check`` under
random and malformed input.

Hypothesis draws a resolution spec (Koszul, free and tensor specs of small
rank, or one damaged in one place) and a ring tag (Q, F2, F3, Z, or a
malformed or oversized one), and runs ``resolution build`` or ``resolution
check`` through ``bnsr.cli.main``.  Every run must exit 0, 1 or 3 without a
traceback (``build`` runs no check, so it exits 0 or 3); exit 1 only with
``"ok": false`` in the output; exit 3 with ``error:`` on standard error and
no output; and two runs write the same structured bytes.  The ranks stay
small, so the whole test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.cli import main

SIMPLE = st.builds(
    "{}:{}".format,
    st.sampled_from(("koszul", "free")),
    st.one_of(
        st.integers(0, 4).map(str),
        st.integers(1, 3).map(str),
        st.sampled_from(("", "-1", "x", "1.5", "²", "13", "9" * 30, "9" * 5000)),
    ),
)
# well formed and damaged specs: a bad kind, a missing or extra separator, a
# tensor of one factor or of too many cells
SPEC = st.one_of(
    SIMPLE,
    st.lists(SIMPLE, min_size=1, max_size=3).map(lambda parts: "tensor:" + ",".join(parts)),
    st.sampled_from(("", "koszul", "klein:2", "tensor:", " free:1", "koszul:1,free:1", "tensor:tensor:free:1,free:1",
                     "tensor:koszul:4,koszul:4")),
)
RING = st.sampled_from(("Q", "Z", "F2", "F3") * 6 + ("", "R", "F", "F1", "F4", "F-3", "F²", "F" + "7" * 5000,
                                                     "F1000000000000000003"))


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(("build", "check")), SPEC, RING)
def test_resolution_commands_keep_the_exit_contract(cmd, spec, ring):
    argv = ["resolution", cmd, "--resolution", spec, "--ring", ring]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"{cmd} exit {code}")
    assert code in ((0, 3) if cmd == "build" else (0, 1, 3)), (code, err)
    assert "Traceback" not in err
    if code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "", err
        obj = json.loads(out)
        if cmd == "check":
            assert obj["ok"] is (code == 0), out
        else:
            assert obj["cells"], out
    assert second == first
