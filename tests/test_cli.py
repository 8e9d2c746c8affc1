import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bnsr.cli import main
from bnsr.spheres import cone_set_to_obj, full_sphere_dim, empty_set


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sphere_files(tmp_path):
    full = write_json(tmp_path / "full.json", cone_set_to_obj(full_sphere_dim(2)))
    half = write_json(
        tmp_path / "half.json", {"dim": 2, "cells": [{"eq": [], "gt": [["1", "0"]]}]}
    )
    empty = write_json(tmp_path / "empty.json", cone_set_to_obj(empty_set(2)))
    return full, half, empty


def test_sphere_equals_exit_codes(sphere_files, capsys):
    full, half, empty = sphere_files
    code, out, _ = run_cli(["sphere", "equals", "--left", full, "--right", full], capsys)
    assert code == 0
    code, out, _ = run_cli(["sphere", "equals", "--left", full, "--right", half], capsys)
    assert code == 1
    code, out, _ = run_cli(["sphere", "subset", "--left", half, "--right", full], capsys)
    assert code == 0


def test_sphere_complement_roundtrip(sphere_files, tmp_path, capsys):
    full, half, empty = sphere_files
    out_path = tmp_path / "comp.json"
    code, _, _ = run_cli(
        ["sphere", "complement", "--set", half, "--format", "structured", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["sphere", "subset", "--left", str(out_path), "--right", full], capsys
    )
    assert code == 0


def test_structured_output_deterministic(sphere_files, tmp_path, capsys):
    full, half, _ = sphere_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            ["sphere", "join", "--left", half, "--right", half, "--format", "structured", "--out", str(target)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


SPHERE_GOLDEN_INPUTS = {
    "A": {"dim": 3, "cells": [{"eq": [["1", "0", "-1"]], "gt": [["0", "1", "2"]]}]},
    "P": {"dim": 2, "cells": [{"eq": [], "gt": [["1", "-1"], ["0", "1"]]}, {"eq": [["1", "1"]], "gt": [["1", "0"]]}]},
    "Q": {"dim": 1, "cells": [{"eq": [], "gt": [["-1"]]}]},
    "R": {
        "g_complements": {
            "0": {"dim": 2, "cells": []},
            "1": {"dim": 2, "cells": [{"eq": [], "gt": [["1", "2"]]}]},
            "2": {"dim": 2, "cells": [{"eq": [["0", "1"]], "gt": [["1", "0"]]}]},
        },
        "h_complements": {
            "0": {"dim": 1, "cells": []},
            "1": {"dim": 1, "cells": [{"eq": [], "gt": [["1"]]}]},
            "2": {"dim": 1, "cells": [{"eq": [], "gt": [["-1"]]}]},
        },
    },
}

# Structured output of the rational-kernel implementation on the inputs above.
SPHERE_GOLDEN = [
    (
        ["sphere", "complement", "--set", "A"],
        '{"cells":[{"eq":[["0","1","2"],["1","0","-1"]],"gt":[]},{"eq":[["0","1","2"]],"gt":[["1","0","-1"]]},'
        '{"eq":[["0","1","2"]],"gt":[["-1","0","1"]]},{"eq":[],"gt":[["0","1","2"],["1","0","-1"]]},'
        '{"eq":[],"gt":[["-1","0","1"],["0","1","2"]]},{"eq":[["1","0","-1"]],"gt":[["0","-1","-2"]]},'
        '{"eq":[],"gt":[["0","-1","-2"],["1","0","-1"]]},{"eq":[],"gt":[["-1","0","1"],["0","-1","-2"]]}],"dim":3}\n',
    ),
    (
        ["sphere", "join", "--left", "P", "--right", "Q"],
        '{"cells":[{"eq":[],"gt":[["0","0","-1"],["0","1","0"],["1","-1","0"]]},'
        '{"eq":[["1","1","0"]],"gt":[["0","0","-1"],["1","0","0"]]},{"eq":[["0","0","1"]],"gt":[["0","1","0"],["1","-1","0"]]},'
        '{"eq":[["0","0","1"],["1","1","0"]],"gt":[["1","0","0"]]},{"eq":[["0","1","0"],["1","0","0"]],"gt":[["0","0","-1"]]}],"dim":3}\n',
    ),
    (
        ["sphere", "product-rhs", "--inputs", "R", "--n", "2"],
        '{"cells":[{"eq":[["0","1","0"],["1","0","0"]],"gt":[["0","0","-1"]]},{"eq":[],"gt":[["0","0","1"],["1","2","0"]]},'
        '{"eq":[["0","0","1"]],"gt":[["1","2","0"]]},{"eq":[["0","1","0"],["1","0","0"]],"gt":[["0","0","1"]]},'
        '{"eq":[["0","0","1"],["0","1","0"]],"gt":[["1","0","0"]]}],"dim":3}\n',
    ),
]


@pytest.mark.parametrize("argv,expected", SPHERE_GOLDEN, ids=["complement", "join", "product-rhs"])
def test_sphere_structured_output_is_pinned(argv, expected, tmp_path, capsys):
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in SPHERE_GOLDEN_INPUTS.items()}
    argv = [paths.get(arg, arg) for arg in argv]
    code, out, _ = run_cli(argv + ["--format", "structured"], capsys)
    assert code == 0
    assert out == expected


GOLDEN_DIR = Path(__file__).parent / "golden"

PROBE_GOLDEN_INPUTS = {
    "CYCLE": [
        {"g": ["b", "a", "a"], "cell": "x0", "coeff": "1"},
        {"g": ["a", "a"], "cell": "x0", "coeff": "-1"},
    ],
    "TARGET": [
        {"g": [[1], [0]], "cell": "e⊗e", "coeff": "1"},
        {"g": [[0], [0]], "cell": "e⊗e", "coeff": "-1"},
    ],
    # no "c" or "c_prime": the filling search picks the chains
    "CONFIG": {
        "left_group": "free:2",
        "right_group": "free:2",
        "ring": "Q",
        "char_left": ["1", "0"],
        "char_right": ["1", "0"],
        "z": [
            {"g": ["b", "a", "a", "a"], "cell": "x0", "coeff": "1"},
            {"g": ["a", "a", "a"], "cell": "x0", "coeff": "-1"},
        ],
        "z_prime": [
            {"g": ["b", "a", "a", "a"], "cell": "x0", "coeff": "1"},
            {"g": ["a", "a", "a"], "cell": "x0", "coeff": "-1"},
        ],
        "mu": "5/2",
        "mu_prime": "5/2",
        "window": 4,
    },
}

# (golden file in tests/golden, argv, exit code) of runs whose structured
# output must stay byte-identical.
PROBE_GOLDEN = [
    ("probe-ca-f2", ["probe", "ca", "--group", "free:2", "--char", "2,-1", "--n", "1",
                     "--window", "4", "--lambda-max", "2"], 1),
    ("probe-ca-z2-integral", ["probe", "ca", "--group", "abelian:2", "--ring", "Z", "--char", "1,-1",
                              "--n", "2", "--window", "3", "--lambda-max", "2"], 0),
    ("probe-eta", ["probe", "eta", "--group", "free:2", "--char", "1,0", "--cycle", "CYCLE", "--window", "5"], 0),
    ("probe-gap", ["probe", "gap", "--group", "product:abelian:1,abelian:1", "--char", "1,1",
                   "--target", "TARGET", "--window", "3"], 0),
    ("witness-run", ["witness", "run", "--config", "CONFIG"], 0),
]


@pytest.mark.parametrize("name,argv,want_code", PROBE_GOLDEN, ids=[g[0] for g in PROBE_GOLDEN])
def test_probe_and_witness_structured_output_is_pinned(name, argv, want_code, tmp_path, capsys):
    paths = {key: write_json(tmp_path / f"{key}.json", obj) for key, obj in PROBE_GOLDEN_INPUTS.items()}
    argv = [paths.get(arg, arg) for arg in argv]
    code, out, _ = run_cli(argv + ["--format", "structured"], capsys)
    assert code == want_code
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


MALFORMED_CONE_SETS = {
    "form-is-a-string": {"dim": 2, "cells": [{"eq": [], "gt": ["10"]}]},
    "negative-dim": {"dim": -1, "cells": []},
    "fractional-dim": {"dim": 2.5, "cells": [{"eq": [], "gt": [["1", "0"]]}]},
    "missing-dim": {"cells": []},
    "float-entry": {"dim": 2, "cells": [{"eq": [], "gt": [[0.1, 1]]}]},
    "bool-entry": {"dim": 2, "cells": [{"eq": [], "gt": [[True, 1]]}]},
    "null-entry": {"dim": 2, "cells": [{"eq": [], "gt": [[None, "1"]]}]},
    "cells-not-a-list": {"dim": 2, "cells": 5},
    "cell-not-an-object": {"dim": 2, "cells": [5]},
    "null-cell": {"dim": 2, "cells": [None]},
    "top-level-list": [{"dim": 2, "cells": []}],
    "zero-denominator": {"dim": 2, "cells": [{"eq": [], "gt": [["1/0", "1"]]}]},
    "not-a-number": {"dim": 2, "cells": [{"eq": [], "gt": [["one", "1"]]}]},
    "zero-form": {"dim": 2, "cells": [{"eq": [], "gt": [["0", "0"]]}]},
    "wrong-length": {"dim": 2, "cells": [{"eq": [], "gt": [["1", "0", "0"]]}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONE_SETS))
def test_malformed_cone_set_is_an_input_error(name, tmp_path, capsys):
    path = write_json(tmp_path / "set.json", MALFORMED_CONE_SETS[name])
    code, out, err = run_cli(["sphere", "complement", "--set", path], capsys)
    assert code == 3 and out == "" and err.startswith("error:")


def test_resolution_build_and_check(capsys):
    code, out, _ = run_cli(
        ["resolution", "build", "--resolution", "koszul:2", "--ring", "Q", "--format", "structured"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "koszul"
    assert len(data["cells"]) == 4
    code, _, _ = run_cli(["resolution", "check", "--resolution", "tensor:free:2,koszul:1"], capsys)
    assert code == 0


def test_resolution_boundary_roundtrip(tmp_path, capsys):
    chain = [{"g": [3], "cell": "e_{1}", "coeff": "1"}]
    path = write_json(tmp_path / "chain.json", chain)
    code, out, _ = run_cli(
        ["resolution", "boundary", "--resolution", "koszul:1", "--chain", path, "--format", "structured"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert {tuple(item["g"]): item["coeff"] for item in data} == {(4,): "1", (3,): "-1"}


def test_valuation_commands(tmp_path, capsys):
    code, out, _ = run_cli(
        ["valuation", "basic", "--resolution", "koszul:1", "--char", "-3", "--format", "structured"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["cells"] == {"e": "0", "e_{1}": "-3"}
    chain = [{"g": [3], "cell": "e", "coeff": "1"}, {"g": [1], "cell": "e", "coeff": "-1"}]
    path = write_json(tmp_path / "c.json", chain)
    code, out, _ = run_cli(
        ["valuation", "value", "--resolution", "koszul:1", "--char", "1", "--chain", path, "--format", "structured"],
        capsys,
    )
    assert code == 0 and json.loads(out)["value"] == "1"
    code, _, _ = run_cli(
        ["valuation", "check-axioms", "--resolution", "koszul:2", "--char", "1,-2", "--samples", "40"],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        [
            "valuation", "prop41", "--left", "koszul:1", "--right", "free:2",
            "--char-left", "2", "--char-right", "1,0", "--samples", "60",
        ],
        capsys,
    )
    assert code == 0


def test_valuation_split(tmp_path, capsys):
    chain = [
        {"g": [[2], [0]], "cell": "e⊗e", "coeff": "1"},
        {"g": [[0], [1]], "cell": "e⊗e", "coeff": "1"},
    ]
    path = write_json(tmp_path / "y.json", chain)
    code, out, _ = run_cli(
        [
            "valuation", "split", "--resolution", "tensor:koszul:1,koszul:1",
            "--char", "1", "--u", "1", "--side", "left", "--chain", path,
            "--format", "structured",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["rho"]) == 1 and len(data["lambda"]) == 1


def test_probe_ca_exit_codes(capsys):
    code, out, _ = run_cli(
        [
            "probe", "ca", "--group", "abelian:2", "--char", "1,0", "--n", "2",
            "--window", "4", "--lambda-max", "2", "--t-samples", "5",
            "--format", "structured",
        ],
        capsys,
    )
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run_cli(
        [
            "probe", "ca", "--group", "free:2", "--char", "1,0", "--n", "1",
            "--window", "5", "--lambda-max", "3", "--format", "structured",
        ],
        capsys,
    )
    assert code == 1 and not json.loads(out)["passed"]


def test_probe_eta(tmp_path, capsys):
    cycle = [
        {"g": ["b", "a", "a"], "cell": "x0", "coeff": "1"},
        {"g": ["a", "a"], "cell": "x0", "coeff": "-1"},
    ]
    path = write_json(tmp_path / "z.json", cycle)
    code, out, _ = run_cli(
        ["probe", "eta", "--group", "free:2", "--char", "1,0", "--cycle", path, "--window", "5", "--format", "structured"],
        capsys,
    )
    assert code == 0 and json.loads(out)["eta"] == "2"


@pytest.mark.parametrize("cmd,flag", [("eta", "--cycle"), ("gap", "--target")])
def test_probe_eta_and_gap_over_z_match_q_on_a_non_incidence_filling(cmd, flag, tmp_path, capsys):
    # the boundary of the 2-cell of Z^2: its fillings are 2-cells, not edges
    square = [
        {"g": [0, 0], "cell": "e_{1}", "coeff": "1"},
        {"g": [0, 1], "cell": "e_{1}", "coeff": "-1"},
        {"g": [0, 0], "cell": "e_{2}", "coeff": "-1"},
        {"g": [1, 0], "cell": "e_{2}", "coeff": "1"},
    ]
    path = write_json(tmp_path / "z.json", square)
    outs = {}
    for ring in ("Q", "Z"):
        code, out, err = run_cli(
            ["probe", cmd, "--group", "abelian:2", "--ring", ring, "--char", "2,-1", flag, path, "--window", "3",
             "--format", "structured"],
            capsys,
        )
        assert code == 0 and err == "", err
        outs[ring] = out
    assert outs["Z"] == outs["Q"]


def test_witness_run(tmp_path, capsys):
    cfg = {
        "left_group": "free:2",
        "right_group": "free:2",
        "ring": "Q",
        "char_left": ["1", "0"],
        "char_right": ["1", "0"],
        "z": [
            {"g": ["b", "a", "a", "a"], "cell": "x0", "coeff": "1"},
            {"g": ["a", "a", "a"], "cell": "x0", "coeff": "-1"},
        ],
        "z_prime": [
            {"g": ["b", "a", "a", "a"], "cell": "x0", "coeff": "1"},
            {"g": ["a", "a", "a"], "cell": "x0", "coeff": "-1"},
        ],
        "mu": "5/2",
        "mu_prime": "5/2",
        "window": 4,
    }
    path = write_json(tmp_path / "config.json", cfg)
    code, out, _ = run_cli(["witness", "run", "--config", path, "--format", "structured"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["conclusion"] and data["gap"] == "3"


def test_catalog_commands(capsys):
    code, out, _ = run_cli(["catalog", "list", "--format", "structured"], capsys)
    assert code == 0 and len(json.loads(out)) > 20
    code, out, _ = run_cli(
        ["catalog", "lookup", "--group", "free:2", "--degree", "1", "--ring", "Q", "--format", "structured"],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["catalog", "product-check", "--left", "free:2", "--right", "free:2", "--n", "2", "--ring", "Q"],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(["catalog", "theorem2", "--left", "free:2", "--right", "free:2", "--n", "2"], capsys)
    assert code == 0
    code, _, _ = run_cli(["catalog", "theorem3", "--left", "abelian:2", "--right", "free:2", "--n", "2"], capsys)
    assert code == 0
    code, _, err = run_cli(["catalog", "theorem3", "--left", "free:2", "--right", "free:2", "--n", "4"], capsys)
    assert code == 3 and "degree 3" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sphere", "equals", "--left"])
    assert exc.value.code == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["sphere", "complement", "--set", "/nonexistent.json"], capsys)
    assert code == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bnsr.cli", "catalog", "validate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_probe_gap(tmp_path, capsys):
    target = [
        {"g": [[1], [0]], "cell": "e⊗e", "coeff": "1"},
        {"g": [[0], [0]], "cell": "e⊗e", "coeff": "-1"},
    ]
    path = write_json(tmp_path / "target.json", target)
    code, out, _ = run_cli(
        [
            "probe", "gap", "--group", "product:abelian:1,abelian:1",
            "--char", "1,1", "--target", path, "--window", "3",
            "--format", "structured",
        ],
        capsys,
    )
    assert code == 0
    from fractions import Fraction

    assert Fraction(json.loads(out)["gap_lower_bound"]) >= 0


def test_catalog_cross_validate_cli(capsys):
    code, out, _ = run_cli(
        [
            "catalog", "cross-validate", "--group", "abelian:2", "--degree", "1",
            "--ring", "Q", "--directions", "1,0;1,-1", "--window", "3",
            "--lambda-max", "2", "--format", "structured",
        ],
        capsys,
    )
    assert code == 0 and json.loads(out)["consistent"]


def test_valuation_roundtrip_through_obj():
    from bnsr import RATIONALS, Character, basic_valuation, koszul_resolution
    from bnsr.valuations import valuation_from_obj, valuation_to_obj

    K2 = koszul_resolution(2, RATIONALS)
    v = basic_valuation(K2, Character(K2.group, ["1/2", "-3"]))
    back = valuation_from_obj(K2, valuation_to_obj(v))
    assert back.cell_values == v.cell_values
    assert back.character == v.character and back.basic


PROBE_CA = ["probe", "ca", "--group", "abelian:2", "--char", "1,0", "--format", "structured"]


@pytest.mark.parametrize(
    "bad",
    [
        ["--n", "1", "--window", "-2", "--lambda-max", "2"],
        ["--n", "1", "--window", "3", "--lambda-max", "2", "--t-samples", "-3"],
        ["--n", "1", "--window", "3", "--lambda-max", "-1"],
        ["--n", "-1", "--window", "3", "--lambda-max", "2"],
    ],
    ids=["window", "t-samples", "lambda-max", "n"],
)
def test_probe_ca_negative_arguments_are_usage_errors(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(PROBE_CA + bad)
    assert exc.value.code == 2
    assert "negative" in capsys.readouterr().err


def test_probe_ca_zero_character_is_an_input_error(capsys):
    code, out, err = run_cli(
        ["probe", "ca", "--group", "abelian:2", "--char=0,0", "--n", "1", "--window", "3", "--lambda-max", "2"],
        capsys,
    )
    assert code == 3 and out == "" and "zero character" in err


@pytest.mark.parametrize("resolution", ["koszul:2", "free:2"])
@pytest.mark.parametrize(
    "chain,message",
    [
        ([{"g": 5, "cell": "e1", "coeff": "1"}], "not a group element"),
        ({"g": 1}, "list of terms"),
        ([5], "not an object"),
        ([{"g": [0, 0], "cell": "e1"}], "keys g, cell and coeff"),
        ([{"g": [0, 0], "cell": "e1", "coeff": True}], "string or integer coeff"),
        ([{"cell": "zz", "coeff": "1"}], "no cell is labelled 'zz'"),
    ],
    ids=["g-not-a-list", "not-a-list", "term-not-an-object", "missing-key", "bool-coeff", "unknown-cell"],
)
def test_malformed_chain_file_is_an_input_error(resolution, chain, message, tmp_path, capsys):
    # a term given without g gets a valid element of the resolution's group
    if isinstance(chain, list):
        g = {"koszul:2": [1, 2], "free:2": ["a", "b"]}[resolution]
        chain = [{"g": g, **t} if isinstance(t, dict) and "g" not in t else t for t in chain]
    path = write_json(tmp_path / "chain.json", chain)
    code, out, err = run_cli(["resolution", "boundary", "--resolution", resolution, "--chain", path], capsys)
    assert code == 3 and out == "" and message in err


CATALOG_COMMANDS = [
    ["list"],
    ["lookup", "--group", "free:2", "--degree", "1"],
    ["validate"],
    ["product-check", "--left", "free:2", "--right", "free:2", "--n", "2"],
    ["theorem2", "--left", "free:2", "--right", "free:2", "--n", "2"],
    ["theorem3", "--left", "abelian:2", "--right", "free:2", "--n", "2"],
    ["cross-validate", "--group", "product:free:2,free:2", "--degree", "1", "--directions", "1,0,0,0",
     "--window", "1", "--lambda-max", "1"],
]


@pytest.mark.parametrize("command", CATALOG_COMMANDS, ids=[c[0] for c in CATALOG_COMMANDS])
def test_catalog_commands_accept_records_and_shadow(command, tmp_path, capsys):
    # a copy of a built-in record: shadowing it changes no answer, adding it
    # without --shadow is refused
    code, out, _ = run_cli(["catalog", "lookup", "--group", "free:2", "--degree", "1", "--format", "structured"], capsys)
    assert code == 0
    records = write_json(tmp_path / "records.json", [json.loads(out)])
    base = ["catalog"] + command + ["--format", "structured"]
    want = run_cli(base, capsys)
    assert want[0] in (0, 1) and want[1]
    assert run_cli(base + ["--records", records, "--shadow"], capsys) == want
    code, out, err = run_cli(base + ["--records", records], capsys)
    assert code == 3 and "already exists" in err


@pytest.mark.parametrize(
    "resolution,g",
    [
        ("koszul:1", [1.5]),
        ("koszul:1", [True]),
        ("koszul:1", ["1"]),
        ("koszul:1", [None]),
        ("koszul:1", [1, 0]),
        ("free:2", ["c"]),
        ("free:2", [1]),
        ("free:2", "ab"),
        ("tensor:koszul:1,free:2", [[1], ["a"], []]),
        ("tensor:koszul:1,free:2", [[1]]),
    ],
    ids=["float", "bool", "string", "null", "too-long", "unknown-letter", "int-letter", "word-string",
         "extra-factor", "missing-factor"],
)
def test_malformed_group_element_is_an_input_error(resolution, g, tmp_path, capsys):
    cell = {"koszul:1": "e_{1}", "free:2": "x_a", "tensor:koszul:1,free:2": "e⊗x0"}[resolution]
    path = write_json(tmp_path / "chain.json", [{"g": g, "cell": cell, "coeff": "1"}])
    code, out, err = run_cli(["resolution", "boundary", "--resolution", resolution, "--chain", path], capsys)
    assert code == 3 and out == "" and "not a group element" in err


MALFORMED_INPUTS = {
    "formula-inputs-not-objects": (
        lambda f: ["sphere", "product-rhs", "--inputs", f({"g_complements": 5, "h_complements": {}}), "--n", "1"],
        "g_complements",
    ),
    "formula-degree-not-an-integer": (
        lambda f: ["sphere", "product-rhs", "--inputs",
                   f({"g_complements": {"one": {"dim": 1, "cells": []}}, "h_complements": {}}), "--n", "1"],
        "g_complements",
    ),
    "group-file-holds-a-list": (
        lambda f: ["probe", "ca", "--group", f([{"kind": "free", "rank": 2}]), "--char", "1,0", "--n", "1",
                   "--window", "2", "--lambda-max", "1"],
        "a group is an object",
    ),
    "group-rank-not-an-integer": (
        lambda f: ["catalog", "lookup", "--group", f({"kind": "free", "rank": "2"}), "--degree", "1"],
        "rank",
    ),
    "coeff-zero-denominator": (
        lambda f: ["resolution", "boundary", "--resolution", "koszul:1", "--chain",
                   f([{"g": [0], "cell": "e_{1}", "coeff": "1/0"}])],
        "coeff",
    ),
    "char-zero-denominator": (
        lambda f: ["probe", "ca", "--group", "abelian:2", "--char", "1/0,1", "--n", "1", "--window", "2",
                   "--lambda-max", "1"],
        "zero denominator",
    ),
    "records-file-holds-an-object": (
        lambda f: ["catalog", "list", "--records", f({"group": {"kind": "free", "rank": 2}})],
        "list of catalog records",
    ),
    "records-file-holds-ints": (
        lambda f: ["catalog", "list", "--records", f([1, 2])],
        "catalog record",
    ),
    "record-degree-not-an-integer": (
        lambda f: ["catalog", "list", "--records",
                   f([{"group": {"kind": "free", "rank": 2}, "degree": "1", "ring": "Q",
                       "complement": {"dim": 2, "cells": []}}])],
        "degree",
    ),
    "input-path-is-a-directory": (
        lambda f: ["sphere", "complement", "--set", str(Path(f({})).parent)],
        "cannot read",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_an_input_error(name, tmp_path, capsys):
    build, message = MALFORMED_INPUTS[name]
    argv = build(lambda obj: write_json(tmp_path / "input.json", obj))
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and err.startswith("error:") and message in err


def test_oversized_window_is_refused_before_enumeration(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        ["probe", "ca", "--group", "free:2", "--char", "1,1", "--n", "1", "--window", "200", "--lambda-max", "1"],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "limit" in err


def _witness_config(**changes):
    cfg = {key: val for key, val in PROBE_GOLDEN_INPUTS["CONFIG"].items() if key not in changes}
    cfg.update({key: val for key, val in changes.items() if val is not _DROP})
    return cfg


_DROP = object()

# (config, a phrase of the error) for every malformed shape of a witness config
MALFORMED_WITNESS_CONFIGS = {
    "config-is-a-list": ([PROBE_GOLDEN_INPUTS["CONFIG"]], "object"),
    "config-is-a-number": (5, "object"),
    "key-missing": (_witness_config(mu=_DROP), "lacks mu"),
    "left-group-is-an-int": (_witness_config(left_group=5), "group"),
    "right-group-is-a-list": (_witness_config(right_group=["free:2"]), "group"),
    "group-spec-unknown": (_witness_config(left_group="free:x"), "group spec"),
    "ring-is-an-int": (_witness_config(ring=5), "ring"),
    "ring-tag-unknown": (_witness_config(ring="R"), "ring tag"),
    "char-is-a-string": (_witness_config(char_left="1,0"), "character"),
    "char-entry-is-a-float": (_witness_config(char_right=[1.5, 0]), "rational"),
    "char-too-short": (_witness_config(char_left=["1"]), "coefficients"),
    "window-is-a-float": (_witness_config(window=4.5), "not a nonnegative integer"),
    "window-is-a-bool": (_witness_config(window=True), "not a nonnegative integer"),
    "window-is-negative": (_witness_config(window=-1), "not a nonnegative integer"),
    "window-is-a-string": (_witness_config(window="4"), "not a nonnegative integer"),
    "window-too-large": (_witness_config(window=40), "limit"),
    "cycle-is-an-object": (_witness_config(z={"g": [], "cell": "x0", "coeff": "1"}), "list of terms"),
    "mu-is-a-list": (_witness_config(mu_prime=[1]), "rational"),
    "filling-is-a-number": (_witness_config(c=5), "list of terms"),
    "product-filling-is-a-string": (_witness_config(d="x"), "list of terms"),
    "cycle-without-filling-does-not-bound": (
        _witness_config(z=[{"g": [], "cell": "x0", "coeff": "1"}]), "does not bound"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WITNESS_CONFIGS))
def test_malformed_witness_config_is_an_input_error(name, tmp_path, capsys):
    cfg, message = MALFORMED_WITNESS_CONFIGS[name]
    path = write_json(tmp_path / "config.json", cfg)
    code, out, err = run_cli(["witness", "run", "--config", path], capsys)
    assert code == 3 and out == "" and err.startswith("error:") and message in err


NEGATIVE_COUNTS = {
    "sphere-product-rhs-n": ["sphere", "product-rhs", "--inputs", "in.json", "--n", "-1"],
    "catalog-product-check-n": ["catalog", "product-check", "--left", "free:1", "--right", "free:1", "--n", "-1"],
    "catalog-theorem2-n": ["catalog", "theorem2", "--left", "free:1", "--right", "free:1", "--n", "-1"],
    "catalog-theorem3-n": ["catalog", "theorem3", "--left", "free:1", "--right", "free:1", "--n", "-1"],
    "catalog-lookup-degree": ["catalog", "lookup", "--group", "free:2", "--degree", "-1"],
    "catalog-cross-validate-degree": ["catalog", "cross-validate", "--group", "free:2", "--degree", "-1", "--directions", "1,0"],
    "check-axioms-samples": ["valuation", "check-axioms", "--resolution", "free:2", "--char", "1,0", "--samples", "-5"],
    "prop41-samples": [
        "valuation", "prop41", "--left", "free:1", "--right", "free:1",
        "--char-left", "1", "--char-right", "1", "--samples", "-5",
    ],
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_COUNTS))
def test_negative_counts_are_usage_errors(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(NEGATIVE_COUNTS[name])
    assert exc.value.code == 2
    assert "negative" in capsys.readouterr().err


HUGE_RANKS = {
    "koszul": lambda write: ["resolution", "build", "--resolution", "koszul:99999999"],
    "free-resolution": lambda write: ["resolution", "build", "--resolution", "free:99999999"],
    "abelian-group": lambda write: ["probe", "ca", "--group", "abelian:99999999", "--char", "1", "--n", "1", "--window", "1", "--lambda-max", "1"],
    "group-file": lambda write: [
        "probe", "ca", "--group", write({"kind": "free", "rank": 99999999}),
        "--char", "1", "--n", "1", "--window", "1", "--lambda-max", "1",
    ],
}


@pytest.mark.parametrize("name", sorted(HUGE_RANKS))
def test_huge_rank_is_refused_before_labels_are_built(name, tmp_path, capsys, monkeypatch):
    import bnsr.groups as groups

    def labels(rank):
        raise AssertionError(f"built labels for rank {rank}")

    # without the guard the command fails here, before it can allocate anything
    monkeypatch.setattr(groups, "_default_abelian_labels", labels)
    monkeypatch.setattr(groups, "_default_free_labels", labels)
    start = time.perf_counter()
    code, out, err = run_cli(HUGE_RANKS[name](lambda obj: write_json(tmp_path / "group.json", obj)), capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {groups.MAX_RANK}" in err


def test_oversized_smith_normal_form_is_an_input_error(tmp_path, capsys, monkeypatch):
    import bnsr.linalg as linalg

    def factor(M):
        raise AssertionError("factored an oversized matrix")

    monkeypatch.setattr(linalg, "smith_normal_form", factor)
    form = [1, -1] + [0] * 998  # one equation in dimension 1000: a 1 x 1000 kernel problem
    path = write_json(tmp_path / "big.json", {"dim": 1000, "cells": [{"eq": [form], "gt": []}]})
    start = time.perf_counter()
    code, out, err = run_cli(["sphere", "equals", "--left", path, "--right", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {linalg.MAX_SMITH_ENTRIES}" in err


def test_oversized_cone_set_dimension_is_an_input_error(tmp_path, capsys):
    from bnsr.spheres import MAX_SPHERE_DIM

    big = write_json(tmp_path / "big.json", {"dim": 2000, "cells": []})
    line = write_json(tmp_path / "line.json", {"dim": 1, "cells": [{"eq": [], "gt": [[1]]}]})
    start = time.perf_counter()
    code, out, err = run_cli(["sphere", "join", "--left", big, "--right", line], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {MAX_SPHERE_DIM}" in err


def test_oversized_fourier_motzkin_step_is_an_input_error(tmp_path, capsys):
    from bnsr.spheres import MAX_FM_PAIRS

    # 23 forms rising and 23 falling in the last coordinate: one step pairs 529 of them
    k = 23
    assert k * k > MAX_FM_PAIRS
    gts = [[str(i), "1"] for i in range(k)] + [[str(i), "-1"] for i in range(k)]
    path = write_json(tmp_path / "wide.json", {"dim": 2, "cells": [{"eq": [], "gt": gts}]})
    start = time.perf_counter()
    code, out, err = run_cli(["sphere", "complement", "--set", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {MAX_FM_PAIRS}" in err


OVERSIZED_TENSORS = {
    "resolution-spec": ["resolution", "build", "--resolution", "tensor:koszul:12,koszul:12"],
    "product-group": ["probe", "ca", "--group", "product:abelian:12,abelian:12", "--char", ",".join(["1"] * 24),
                      "--n", "1", "--window", "1", "--lambda-max", "1"],
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_TENSORS))
def test_oversized_tensor_product_is_refused_before_its_cells_are_built(name, capsys, monkeypatch):
    import bnsr.resolutions as resolutions

    def cells(F, G):
        raise AssertionError(f"built the cells of a {len(F.cell_by_label)} x {len(G.cell_by_label)} tensor product")

    # without the guard the command fails here, before it can allocate 2^24 cells
    monkeypatch.setattr(resolutions, "_tensor_cells", cells)
    start = time.perf_counter()
    code, out, err = run_cli(OVERSIZED_TENSORS[name], capsys)
    # both rank-12 factors (4096 cells each) are built before the guard runs
    assert time.perf_counter() - start < 3.0
    assert code == 3 and out == "" and f"limit of {resolutions.MAX_TENSOR_CELLS}" in err


def test_oversized_join_embedding_is_refused_before_its_cells_are_built(tmp_path, capsys, monkeypatch):
    import bnsr.spheres as spheres

    unit = [1] + [0] * 999
    one_cell = {"dim": 1000, "cells": [{"eq": [], "gt": [unit]}]}
    left = write_json(tmp_path / "left.json", one_cell)
    right = write_json(tmp_path / "right.json", one_cell)

    def pad(f, offset, total):
        raise AssertionError("built a cell of the join")

    # every cell of a join, product or embedded, pads its forms first
    monkeypatch.setattr(spheres, "_pad_form", pad)
    start = time.perf_counter()
    # each embedded cell would carry 1000 unit equations of length 2000
    code, out, err = run_cli(["sphere", "join", "--left", left, "--right", right], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {spheres.MAX_EMBED_ENTRIES}" in err


OVERSIZED_PROBES = {
    "lambda-max": (["--n", "1", "--lambda-max", "2000000"], "MAX_PROBE_LAGS"),
    "n": (["--n", "10000", "--lambda-max", "2"], "MAX_PROBE_DEGREE"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_PROBES))
def test_oversized_probe_grid_is_refused_before_the_window_is_enumerated(name, capsys, monkeypatch):
    import bnsr.homology as homology

    def elements(F, W, cell):
        raise AssertionError("enumerated the window")

    monkeypatch.setattr(homology, "window_cell_elements", elements)
    flags, limit = OVERSIZED_PROBES[name]
    start = time.perf_counter()
    code, out, err = run_cli(["probe", "ca", "--group", "free:2", "--char=1,2", "--window", "2", *flags], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {getattr(homology, limit)}" in err
