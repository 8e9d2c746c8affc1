"""Exit contract of the ``sphere`` commands under random and malformed input.

Hypothesis draws cone-set and formula-input files, well formed or damaged in
one place, and runs ``join``, ``union``, ``equals``, ``subset``,
``complement`` and ``product-rhs`` on them through ``bnsr.cli.main``.  Every
run must return 0, 1 or 3 without raising; only ``equals`` and ``subset``
may return 1 (a check ran and was false); an input error (3) writes
``error:`` to standard error and no output; and two runs on the same files
write the same structured bytes.

Well-formed sets live in dimensions 0-3 with at most three cells, so the
whole test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bnsr.cli import main

ENTRY = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3).map(str))

# a JSON value of the wrong shape or type for any slot of a cone set
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-5, 5),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)

DAMAGE = ("top", "dim", "cells", "cell", "forms", "form-length", "entry")


@st.composite
def cone_set_obj(draw, dim=None, damaged=True):
    """A serialized cone set; if ``damaged``, about a quarter are damaged in one place."""
    if dim is None:
        dim = draw(st.integers(0, 3))
    # nonzero forms; a dimension-0 cell has none
    form = st.lists(ENTRY, min_size=dim, max_size=dim).filter(lambda f: any(Fraction(x) for x in f))
    cell = st.fixed_dictionaries({"eq": st.lists(form, max_size=min(dim, 1)), "gt": st.lists(form, max_size=min(dim, 3))})
    cells = draw(st.lists(cell, max_size=3))
    obj = {"dim": dim, "cells": cells}
    damage = draw(st.sampled_from(DAMAGE + ("none",) * 21)) if damaged else "none"
    if damage == "top":
        return draw(JUNK)
    if damage == "dim":
        obj["dim"] = draw(st.one_of(JUNK, st.just(dim + 1), st.just(str(dim))))
    elif damage == "cells":
        obj["cells"] = draw(JUNK)
    elif damage == "cell":
        cells.append(draw(JUNK))
    elif damage == "forms":
        cells.append({draw(st.sampled_from(("eq", "gt"))): draw(JUNK)})
    elif damage == "form-length":
        cells.append({"eq": [], "gt": [draw(st.lists(ENTRY, max_size=4))]})
    elif damage == "entry":
        cells.append({"eq": [], "gt": [[draw(JUNK)] + [1] * max(dim - 1, 0)]})
    return obj


@st.composite
def formula_obj(draw):
    """A formula-input file: degree -> cone set tables for both factors, in
    degrees 0-2; about a third are damaged in one place."""
    def table(dim):
        return st.fixed_dictionaries({str(p): cone_set_obj(dim, damaged=False) for p in range(3)})

    obj = {"g_complements": draw(table(draw(st.integers(0, 2)))),
           "h_complements": draw(table(draw(st.integers(0, 2))))}
    damage = draw(st.sampled_from(("top", "table", "degree", "missing", "dims", "set") + ("none",) * 12))
    if damage == "top":
        return draw(JUNK)
    key, degree = draw(st.sampled_from(sorted(obj))), draw(st.sampled_from(("0", "1", "2")))
    if damage == "table":
        obj[key] = draw(JUNK)
    elif damage == "degree":
        obj[key][draw(st.sampled_from(("x", "-1", "", "1.5", " 1")))] = {"dim": 1, "cells": []}
    elif damage == "missing":
        del obj[key][degree]
    elif damage == "dims":
        obj[key][degree] = {"dim": 3, "cells": []}
    elif damage == "set":
        obj[key][degree] = draw(cone_set_obj())
    return obj


@st.composite
def sphere_run(draw):
    """(subcommand, {argument: file content}, extra arguments)."""
    cmd = draw(st.sampled_from(("join", "union", "equals", "subset", "complement", "product-rhs")))
    if cmd == "complement":
        return cmd, {"--set": draw(cone_set_obj())}, []
    if cmd == "product-rhs":
        return cmd, {"--inputs": draw(formula_obj())}, ["--n", str(draw(st.integers(0, 2)))]
    dim = draw(st.integers(0, 3))
    right_dim = dim if draw(st.integers(0, 4)) else draw(st.integers(0, 3))
    return cmd, {"--left": draw(cone_set_obj(dim)), "--right": draw(cone_set_obj(right_dim))}, []


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
@given(sphere_run())
def test_sphere_commands_keep_the_exit_contract(run):
    cmd, files, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sphere", cmd] + extra
        for i, (flag, content) in enumerate(files.items()):
            path = os.path.join(tmp, f"in{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
            argv += [flag, path]
        out_path = os.path.join(tmp, "out.json")
        first = _run(argv, out_path)
        second = _run(argv, out_path)
    code, out, err = first
    event(f"{cmd} exit {code}")
    assert code in (0, 1, 3), (code, err)
    assert code != 1 or cmd in ("equals", "subset"), (cmd, out)
    if code == 3:
        assert out is None and err.startswith("error:"), (out, err)
    else:
        assert err == "" and isinstance(json.loads(out), dict), (out, err)
    assert second == first
