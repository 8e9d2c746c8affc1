"""Exit contract of the ``catalog`` subcommands under random and malformed input.

Hypothesis draws one of ``list``, ``lookup``, ``validate``,
``product-check``, ``theorem2``, ``theorem3`` and ``cross-validate``, with
groups in and out of the built-in catalog (a few malformed), degrees and
``--n`` 0-4 (now and then not a nonnegative integer, a usage error), a ring
among Q, Z, F5 and homotopical, and for ``cross-validate`` a few directions
(some of the wrong length, zero or not integers) on windows of radius 0-2.
Half the runs add a ``--records`` file, most with ``--shadow``: copies of
built-in records of those groups, some with their complement replaced by
the whole sphere (which the checks then reject), records of a group the
catalog lacks, and files damaged in one place.

Every run must exit 0, 1, 2 or 3 without a traceback; exit 1 only from a
check that ran and was false (``validate``, ``product-check``,
``theorem2``, ``theorem3``, ``cross-validate``), as its report says; exit 2
with a usage message and exit 3 with ``error:`` on standard error, both
with no output; and two runs write the same structured bytes.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.catalog import builtin_catalog
from bnsr.cli import main
from bnsr.groups import parse_group
from bnsr.spheres import cone_set_to_obj, full_sphere_dim

# (group spec, character dimension): groups of the catalog, drawn three
# times as often as a group it lacks or a malformed spec
GROUP = st.sampled_from(
    (("abelian:1", 1), ("abelian:2", 2), ("free:2", 2), ("product:abelian:1,abelian:1", 2)) * 3
    + (("free:1", 1), ("free:x", 2), ("klein:2", 2))
)
# factor pairs whose product the catalog holds
PAIRS = (("abelian:1", "abelian:1"), ("abelian:2", "free:2"), ("free:2", "free:2"))
RING = st.sampled_from(("Q", "Z", "F5", "homotopical"))
DEGREE = st.sampled_from(("0", "1", "2", "3", "4") * 3 + ("-1", "x", "1.5"))

# a JSON value of the wrong shape or type for any slot of a record
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-5, 5),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


@functools.cache
def builtin_records():
    """The built-in records of the groups the commands are run on."""
    specs = [spec for spec, _ in GROUP.elements[:4]] + [f"product:{left},{right}" for left, right in PAIRS]
    groups = {parse_group(spec) for spec in specs}
    return [rec.to_dict() for rec in builtin_catalog().records if rec.group in groups]


@st.composite
def record_obj(draw):
    """A well-formed record: a built-in one as it is, one with the whole
    sphere as its degree-1 complement, or one of free:1, which the catalog
    lacks."""
    shape = draw(st.sampled_from(("copy", "full", "full", "new")))
    if shape == "new":
        full = cone_set_to_obj(full_sphere_dim(1))
        return {"group": parse_group("free:1").to_dict(), "degree": draw(st.integers(0, 3)), "ring": draw(RING),
                "complement": full if draw(st.booleans()) else {"dim": 1, "cells": []}}
    rec = dict(draw(st.sampled_from(builtin_records())))
    if shape == "full":  # in degree 1, where the whole sphere breaks monotonicity and the formula
        rec["degree"], rec["complement"] = 1, cone_set_to_obj(full_sphere_dim(rec["complement"]["dim"]))
    return rec


DAMAGE = ("top", "record", "key", "slot")


@st.composite
def records_obj(draw):
    """A records file: a list of one to three records; about a fifth are
    damaged in one place."""
    records = draw(st.lists(record_obj(), min_size=1, max_size=3))
    damage = draw(st.sampled_from(DAMAGE + ("none",) * 16))
    if damage == "top":
        return draw(JUNK)
    if damage == "record":
        records.append(draw(JUNK))
    elif damage in ("key", "slot"):
        bad = draw(record_obj())
        key = draw(st.sampled_from(sorted(bad)))
        if damage == "key":
            del bad[key]
        else:
            bad[key] = draw(st.one_of(JUNK, st.just(-1), st.just("1")))
        records.append(bad)
    return records


def _group_pair(draw):
    if draw(st.integers(0, 2)):
        left, right = draw(st.sampled_from(PAIRS))
    else:
        left, right = draw(GROUP)[0], draw(GROUP)[0]
    return ["--left", left, "--right", right]


@st.composite
def catalog_argv(draw):
    cmd = draw(st.sampled_from(("list", "lookup", "validate", "product-check", "theorem2", "theorem3",
                                "cross-validate")))
    argv = ["catalog", cmd]
    if cmd == "lookup":
        argv += ["--group", draw(GROUP)[0], "--degree", draw(DEGREE), "--ring", draw(RING)]
    elif cmd == "product-check":
        argv += _group_pair(draw) + ["--n", draw(DEGREE), "--ring", draw(RING)]
    elif cmd in ("theorem2", "theorem3"):
        argv += _group_pair(draw) + ["--n", draw(DEGREE)]
    elif cmd == "cross-validate":
        spec, dim = draw(GROUP)
        directions = []
        for _ in range(draw(st.integers(1, 2))):
            size = dim if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
            directions.append(",".join(draw(st.sampled_from(("-1", "0", "1", "2"))) for _ in range(size)))
        if not draw(st.integers(0, 9)):
            directions.append(draw(st.sampled_from(("x", "1/2,1", ""))))
        argv += ["--group", spec, "--degree", draw(DEGREE), "--ring", draw(RING), "--directions", ";".join(directions),
                 "--window", str(draw(st.integers(0, 2))), "--lambda-max", str(draw(st.integers(0, 2)))]
    records = draw(records_obj()) if draw(st.booleans()) else None
    shadow = draw(st.integers(0, 3)) > 0
    return argv, records, shadow


# the field of a check's report that is true exactly when the check passed
PASSED = {
    "validate": lambda out: out["ok"],
    "product-check": lambda out: out["equal"],
    "theorem2": lambda out: out["applicable"] and out["z_formula_equal"],
    "theorem3": lambda out: out["equal"],
    "cross-validate": lambda out: out["consistent"],
}


def _run(argv, out_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--format", "structured", "--out", out_path])
        except SystemExit as exc:  # a usage error, reported by argparse
            code = exc.code
    out = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out = fh.read()
        os.remove(out_path)
    return code, out, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(catalog_argv())
def test_catalog_commands_keep_the_exit_contract(run):
    argv, records, shadow = run
    cmd = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        if records is not None:
            path = os.path.join(tmp, "records.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(records, fh)
            argv = argv + ["--records", path]
        if shadow:
            argv = argv + ["--shadow"]
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"{cmd} exit {code}")
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out is None and "usage:" in err, (out, err)
    elif code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "", err
        data = json.loads(out)
        if cmd in PASSED:
            assert bool(PASSED[cmd](data)) is (code == 0), (cmd, out)
        else:
            assert code == 0, (cmd, out)
    assert second == first
