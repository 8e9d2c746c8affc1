"""Exit contract of the ``valuation`` commands and ``sphere homotopical``
under random and malformed input.

Hypothesis draws resolution specs (Koszul, free and tensor specs of rank at
most 2, or damaged ones), ring tags (Q, F3, Z, or malformed and oversized
ones), characters (well formed, of the wrong length or not rational),
chain files and cone-set files (well formed or damaged in one place) and
group specs or group files, and runs ``valuation basic``, ``value``,
``split``, ``check-axioms`` and ``prop41`` and ``sphere homotopical``
through ``bnsr.cli.main``.  Every run must exit 0, 1 or 3 without a
traceback; exit 1 only from ``check-axioms`` with ``"ok": false`` or
``prop41`` with failures in the output; exit 3 with ``error:`` on standard
error and no output; and two runs write the same structured bytes.

Sample counts stay at most 4 and cone sets in dimension at most 4, so the
whole test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.groups import parse_group
from bnsr.cli import main
from test_chain_fuzz import JUNK, chain_obj
from test_probe_fuzz import character
from test_sphere_fuzz import cone_set_obj

# (resolution spec, character dimension of each tensor factor), well formed ...
SPECS = (
    ("koszul:1", (1,)),
    ("koszul:2", (2,)),
    ("free:1", (1,)),
    ("free:2", (2,)),
    ("tensor:koszul:1,free:1", (1, 1)),
    ("tensor:free:2,koszul:1", (2, 1)),
    ("tensor:free:1,free:2", (1, 2)),
)
# ... and damaged: a bad kind, rank or separator, a tensor of one factor, a rank above the limit
BAD_SPECS = tuple((spec, None) for spec in ("", "klein:2", "koszul", "free:x", "tensor:free:1", "koszul:13", " free:1"))
RING = st.sampled_from(("Q", "F3", "Z") * 5 + ("", "R", "F4", "F1000000000000000003"))

# group specs of character dimension 1 or 2, and malformed ones
GROUPS = (("abelian:1", 1), ("abelian:2", 2), ("free:1", 1), ("free:2", 2), ("product:abelian:1,free:1", 2))
BAD_GROUPS = ("abelian:x", "klein:2", "product:", "free:2.json")


@st.composite
def spec_and_dims(draw, tensor=False):
    """A resolution spec (a tensor one if ``tensor``) and its factor dimensions; about a quarter are damaged."""
    good = [s for s in SPECS if len(s[1]) > 1] * 2 if tensor else list(SPECS)
    return draw(st.sampled_from(good * 3 + list(BAD_SPECS)))


def chain_file(draw, spec, dims):
    """A chain file for the resolution of ``spec``; junk when the spec does not parse."""
    return draw(chain_obj(spec)) if dims is not None else draw(JUNK)


@st.composite
def valuation_run(draw):
    """(argv without its files, {flag: file content})."""
    cmd = draw(st.sampled_from(("basic", "value", "split", "check-axioms", "prop41")))
    ring = draw(RING)
    if cmd == "prop41":
        (left, ldims), (right, rdims) = draw(spec_and_dims()), draw(spec_and_dims())
        argv = ["valuation", "prop41", "--left", left, "--right", right, "--ring", ring,
                f"--char-left={draw(character(sum(ldims) if ldims else None))}",
                f"--char-right={draw(character(sum(rdims) if rdims else None))}",
                "--samples", str(draw(st.integers(0, 4))), "--seed", str(draw(st.integers(0, 3)))]
        return argv, {}
    spec, dims = draw(spec_and_dims(tensor=cmd == "split"))
    argv = ["valuation", cmd, "--resolution", spec, "--ring", ring]
    if cmd == "split":
        side = draw(st.sampled_from(("left", "bottom")))
        u = draw(st.one_of(st.integers(-2, 2).map(str), st.sampled_from(("1/2", "-3/2", "x", "1/0", ""))))
        char = draw(character(None if dims is None else dims[0 if side == "left" else 1]))
        return argv + [f"--char={char}", "--side", side, f"--u={u}"], {"--chain": chain_file(draw, spec, dims)}
    argv.append(f"--char={draw(character(None if dims is None else sum(dims)))}")
    if cmd == "value":
        return argv, {"--chain": chain_file(draw, spec, dims)}
    if cmd == "check-axioms":
        argv += ["--samples", str(draw(st.integers(0, 4))), "--seed", str(draw(st.integers(0, 3)))]
    return argv, {}


@st.composite
def homotopical_run(draw):
    """A ``sphere homotopical`` run; about half have one input damaged: a
    cone set, its dimension, or a group spec or group file."""
    damage = draw(st.sampled_from(("none",) * 4 + ("sigma-gh", "sigma-g", "sigma-h", "dims", "group", "file")))
    (left, dl), (right, dr) = draw(st.sampled_from(GROUPS)), draw(st.sampled_from(GROUPS))
    dgh = dl + dr + (draw(st.sampled_from((-1, 1))) if damage == "dims" else 0)
    files = {
        "--sigma-gh": draw(cone_set_obj(dgh, damaged=damage == "sigma-gh")),
        "--sigma-g": draw(cone_set_obj(dl, damaged=damage == "sigma-g")),
        "--sigma-h": draw(cone_set_obj(dr, damaged=damage == "sigma-h")),
    }
    groups = {"--left-group": left, "--right-group": right}
    flag = draw(st.sampled_from(sorted(groups)))
    if damage == "group":
        groups[flag] = draw(st.sampled_from(BAD_GROUPS))
    elif damage == "file" or draw(st.integers(0, 4)) == 0:
        # the group as a file: well formed, or junk when damaged
        files[flag] = draw(JUNK) if damage == "file" else parse_group(groups[flag]).to_dict()
        del groups[flag]
    argv = ["sphere", "homotopical"]
    for flag, spec in groups.items():
        argv += [flag, spec]
    return argv, files


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


def _check_ran(argv, out) -> bool:
    """Whether the output of a run that exited 0 or 1 reports a check that failed."""
    obj = json.loads(out)
    if argv[1] == "check-axioms":
        return obj["ok"] is False
    if argv[1] == "prop41":
        return obj["failures"] > 0
    return False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(valuation_run(), homotopical_run()))
def test_valuation_and_homotopical_commands_keep_the_exit_contract(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for i, (flag, content) in enumerate(files.items()):
            path = os.path.join(tmp, f"in{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
            argv = argv + [flag, path]
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"{argv[1]} exit {code}")
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "", err
        assert _check_ran(argv, out) is (code == 1), (argv, out)
    assert second == first
