import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bnsr import spheres
from bnsr.cli import main
from bnsr.groups import parse_group
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


# resolution specs whose `resolution build` structured output must stay
# byte-identical, each in tests/golden/resolution-build-<spec>.json
RESOLUTION_GOLDEN = ["koszul:3", "free:2", "tensor:koszul:2,free:2"]


@pytest.mark.parametrize("spec", RESOLUTION_GOLDEN)
def test_resolution_build_structured_output_is_pinned(spec, capsys):
    code, out, _ = run_cli(["resolution", "build", "--resolution", spec, "--format", "structured"], capsys)
    assert code == 0
    name = "resolution-build-" + spec.replace(":", "-").replace(",", "-")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


def test_in_process_probes_in_a_row_share_the_window_and_keep_their_pinned_bytes(capsys):
    """``probe ca`` reads the one resolution of its (group, ring), so a
    second run in the same process reads the window complex the first one
    built, and both runs write the pinned bytes."""
    from bnsr import INTEGERS, RATIONALS, resolution_for
    from bnsr.groups import parse_group

    runs = [("probe-ca-f2", "free:2", RATIONALS, 4), ("probe-ca-z2-integral", "abelian:2", INTEGERS, 3)]
    for name, group, ring, radius in runs:
        _, argv, want_code = next(g for g in PROBE_GOLDEN if g[0] == name)
        expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        windows = []
        for _ in range(2):
            code, out, _ = run_cli(argv + ["--format", "structured"], capsys)
            assert code == want_code
            assert out == expected
            windows.append(resolution_for(parse_group(group), ring)._windows[(radius,)])
        assert windows[0] is windows[1]


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


def test_oversized_arrangement_is_refused_with_exit_3(tmp_path, capsys, monkeypatch):
    # the three coordinate half-spaces of dimension 3 refine over 26 cells
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 10)
    spheres._arrangement.cache_clear()
    cells = [{"eq": [], "gt": [[str(int(i == j)) for j in range(3)]]} for i in range(3)]
    path = write_json(tmp_path / "set.json", {"dim": 3, "cells": cells})
    code, out, err = run_cli(["sphere", "complement", "--set", path], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: an arrangement of 3 hyperplanes in dimension 3 has at least")
    assert "cells, above the limit of 10" in err


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


def test_a_sampled_pass_is_evidence_not_a_certificate(capsys):
    """Sigma^1(F2) is empty, yet two sampled thresholds of this window find
    a uniform lag: such a pass keeps its exit code but is worded as
    sampled-threshold evidence; the full grid fails."""
    argv = ["probe", "ca", "--group", "free:2", "--char", "2,-1", "--n", "1", "--window", "3", "--lambda-max", "4",
            "--format", "structured"]
    code, out, _ = run_cli(argv + ["--t-samples", "2"], capsys)
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert "certificate" not in report["note"]
    assert report["note"].startswith(f"sampled-threshold evidence: uniform lag {report['uniform_lambda']} works for the 2 ")
    code, out, _ = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 1 and not report["passed"]
    assert report["note"].startswith("window evidence against")


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


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_witness_run_on_zero_cycles_is_a_check_that_fails(ring, tmp_path, capsys):
    # a zero cycle's class is zero: the report says so over Z, with no
    # truncation in a degree the zero chain does not have
    cfg = {"ring": ring, "left_group": "free:1", "right_group": "free:1", "char_left": [1], "char_right": [1],
           "z": [], "z_prime": [], "mu": "1/2", "mu_prime": "1/2", "window": 1}
    path = write_json(tmp_path / "config.json", cfg)
    code, out, err = run_cli(["witness", "run", "--config", path, "--format", "structured"], capsys)
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["conclusion"] is False
    assert data["left_class_nonvanishing"] is False and data["right_class_nonvanishing"] is False
    assert data["class_orders"] == ({"z": "zero", "z'": "zero"} if ring == "Z" else {})


def test_witness_run_reports_cycles_outside_the_window(tmp_path, capsys):
    # b a^3 lies outside the radius-3 window: with both factor fillings
    # given, the report says so and the check fails; left out, a filling
    # cannot be searched for, and the config is refused
    from bnsr import RATIONALS, fox_filling, free_group_resolution
    from bnsr.resolutions import chain_to_obj

    F = free_group_resolution(2, RATIONALS)
    c = chain_to_obj(F, F.translate(F.group.word("a^3"), fox_filling(F.group.word("a^-3 b a^3"), F)))
    path = write_json(tmp_path / "config.json", _witness_config(window=3, c=c, c_prime=c))
    code, out, err = run_cli(["witness", "run", "--config", path, "--format", "structured"], capsys)
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["conclusion"] is False and data["preconditions"]["window_supported"] is False
    assert data["preconditions"]["mu_below_eta"] is False and data["preconditions"]["mup_below_eta"] is False
    assert data["notes"][:2] == [
        "eta(z) failed: target chain is not supported in the window",
        "eta(z') failed: target chain is not supported in the window",
    ]
    assert data["left_class_nonvanishing"] is False and data["class_orders"] == {}
    path = write_json(tmp_path / "config.json", _witness_config(window=3, c_prime=c))
    code, out, err = run_cli(["witness", "run", "--config", path], capsys)
    assert code == 3 and out == "" and "target chain is not supported in the window" in err
    assert "cycle z: " in err and "give its filling as c to run the check" in err
    path = write_json(tmp_path / "config.json", _witness_config(window=3, c=c))
    code, out, err = run_cli(["witness", "run", "--config", path], capsys)
    assert code == 3 and out == "" and "target chain is not supported in the window" in err
    assert "cycle z_prime: " in err and "give its filling as c_prime to run the check" in err


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


def test_one_parser_serves_a_sequence_of_commands(sphere_files, tmp_path, capsys):
    # the parser is built once per process; a sequence of calls across
    # subcommands must answer as fresh parsers do, usage and input errors included
    from bnsr.cli import build_parser

    full, half, _ = sphere_files
    usage = ["sphere", "equals", "--left", full]
    sequence = [
        ["probe", "ca", "--group", "free:2", "--char", "1,0", "--n", "1", "--window", "5", "--lambda-max", "3"],
        ["sphere", "equals", "--left", full, "--right", half, "--format", "structured"],
        usage,
        ["catalog", "lookup", "--group", "free:2", "--degree", "1", "--format", "structured"],
        ["sphere", "complement", "--set", str(tmp_path / "missing.json")],
        ["valuation", "basic", "--resolution", "koszul:1", "--char", "-3", "--seed", "5"],
        ["sphere", "complement", "--set", half, "--format", "structured"],
        ["resolution", "build", "--resolution", "free:2"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    assert [call(argv) for argv in sequence] == fresh
    assert [code for code, _, _ in fresh] == [1, 1, 2, 0, 3, 0, 0, 0]
    for argv in sequence:
        if argv is not usage:
            assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
    names = vars(build_parser().parse_args(sequence[1]))
    assert not {"ring", "group", "window", "resolution", "char"} & set(names) and names["seed"] == 0


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


@pytest.mark.parametrize("directions,bad", [("1,x", "'1,x'"), ("1/2,1", "'1/2,1'"), ("1,0;;0,1", "''")],
                         ids=["letter", "fraction", "empty"])
def test_catalog_cross_validate_malformed_directions_are_usage_errors(directions, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "cross-validate", "--group", "abelian:2", "--degree", "1", "--ring", "Q",
              "--directions", directions])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--directions" in err and bad in err


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


SPLIT_CHAIN = [{"g": [[2], [0]], "cell": "e⊗e", "coeff": "1"}]


@pytest.mark.parametrize(
    "argv,files,message",
    [
        (["probe", "ca", "--group", "abelian:2", "--char=1,x", "--n", "1", "--window", "2", "--lambda-max", "1"],
         {}, "error: --char: 'x' is not a rational number"),
        (["valuation", "prop41", "--left", "koszul:1", "--right", "koszul:2", "--char-left", "1/2/3",
          "--char-right", "1,0"], {}, "error: --char-left: '1/2/3' is not a rational number"),
        (["valuation", "prop41", "--left", "koszul:1", "--right", "koszul:2", "--char-left", "1",
          "--char-right", "1,"], {}, "error: --char-right: '' is not a rational number"),
        (["witness", "run", "--config", "config.json"],
         {"config.json": {**PROBE_GOLDEN_INPUTS["CONFIG"], "char_left": ["1", "x"]}},
         "error: char_left: 'x' is not a rational number"),
        (["witness", "run", "--config", "config.json"],
         {"config.json": {**PROBE_GOLDEN_INPUTS["CONFIG"], "mu": "q"}},
         "error: mu: 'q' is not a rational number"),
        (["valuation", "split", "--resolution", "tensor:koszul:1,koszul:1", "--char", "1", "--u", "x",
          "--side", "left", "--chain", "y.json"], {"y.json": SPLIT_CHAIN},
         "error: --u: 'x' is not a rational number"),
    ],
    ids=["char", "char-left", "char-right", "config-char-left", "config-mu", "split-u"],
)
def test_malformed_character_entry_names_its_option(argv, files, message, tmp_path, capsys):
    # a rational read from an option or a config key names it; ``files`` are
    # written to tmp_path under the names that argv gives them
    paths = {name: write_json(tmp_path / name, obj) for name, obj in files.items()}
    code, out, err = run_cli([paths.get(a, a) for a in argv], capsys)
    assert code == 3 and out == "" and err == message + "\n"


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "x", ""])
@pytest.mark.parametrize("source", ["set", "records"])
def test_a_form_entry_that_is_no_rational_is_named(source, entry, tmp_path, capsys):
    # a cone-set entry that Fraction rejects is named as a form entry, in a
    # --set file and in a record's complement alike
    cone = {"dim": 2, "cells": [{"eq": [], "gt": [[entry, "1"]]}]}
    if source == "set":
        argv = ["sphere", "complement", "--set", write_json(tmp_path / "set.json", cone)]
    else:
        record = {"group": {"kind": "free", "rank": 2}, "degree": 1, "ring": "Q", "complement": cone}
        argv = ["catalog", "list", "--records", write_json(tmp_path / "records.json", [record])]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and err == f"error: form entry {entry!r} is not a rational number\n"


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
    record = json.loads(out)
    records = write_json(tmp_path / "records.json", [record])
    base = ["catalog"] + command + ["--format", "structured"]
    want = run_cli(base, capsys)
    assert want[0] in (0, 1) and want[1]
    assert run_cli(base + ["--records", records, "--shadow"], capsys) == want
    code, out, err = run_cli(base + ["--records", records], capsys)
    assert code == 3 and "already exists" in err
    # the message names the group by its JSON spec and the CLI flag, not reprs
    assert json.dumps(record["group"], sort_keys=True) in err
    assert "--shadow" in err and "FreeAbelian(" not in err and "Free(" not in err


@pytest.mark.parametrize(
    "command",
    CATALOG_COMMANDS + [["lookup", "--group", "abelian:2", "--degree", "1"]],
    ids=[c[0] for c in CATALOG_COMMANDS] + ["lookup-the-record"],
)
def test_a_record_of_the_wrong_dimension_is_refused_at_load(command, tmp_path, capsys):
    # an abelian:2 record (character dimension 2) whose complement lives in dimension 3
    record = {"group": {"kind": "free_abelian", "rank": 2, "generators": ["t1", "t2"]}, "degree": 1, "ring": "Q",
              "complement": {"dim": 3, "cells": []}}
    records = write_json(tmp_path / "records.json", [record])
    code, out, err = run_cli(["catalog"] + command + ["--records", records, "--shadow"], capsys)
    assert code == 3 and out == ""
    assert "complement has dimension 3" in err and "character dimension 2" in err


@pytest.mark.parametrize(
    "command",
    CATALOG_COMMANDS + [["lookup", "--group", "abelian:2", "--degree", "1", "--ring", "bogus"]],
    ids=[c[0] for c in CATALOG_COMMANDS] + ["lookup-the-record"],
)
def test_a_record_of_an_unknown_ring_is_refused_at_load(command, tmp_path, capsys):
    # no probe or formula reads a ring tag that is neither "homotopical" nor a ring
    record = {"group": {"kind": "free_abelian", "rank": 2, "generators": ["t1", "t2"]}, "degree": 1, "ring": "bogus",
              "complement": {"dim": 2, "cells": []}}
    records = write_json(tmp_path / "records.json", [record])
    code, out, err = run_cli(["catalog"] + command + ["--records", records, "--shadow"], capsys)
    assert code == 3 and out == ""
    assert "ring 'bogus'" in err


def test_a_q_record_outside_the_z_record_breaks_the_cross_ring_law(tmp_path, capsys):
    """Sigma^n(G; Z) lies inside Sigma^n(G; Q): shadowing the Q records of
    abelian:2 in degrees 1-3 with the full circle, while the Z records keep
    an empty complement, is one violation per degree, naming both records;
    the builtin catalog alone validates."""
    assert run_cli(["catalog", "validate"], capsys)[:2] == (0, "catalog ok\n")
    code, out, _ = run_cli(["catalog", "lookup", "--group", "free:2", "--degree", "1", "--format", "structured"], capsys)
    circle = json.loads(out)["complement"]  # the full sphere of a character dimension 2 group
    group = {"kind": "free_abelian", "rank": 2, "generators": ["t1", "t2"]}
    records = write_json(tmp_path / "records.json", [
        {"group": group, "degree": n, "ring": "Q", "complement": circle, "provenance": "shadow"} for n in (1, 2, 3)
    ])
    code, out, _ = run_cli(["catalog", "validate", "--records", records, "--shadow", "--format", "structured"], capsys)
    assert code == 1
    violations = json.loads(out)["violations"]
    assert violations == [f"{group} degree {n}: the Q complement is not inside the Z complement" for n in (1, 2, 3)]


def test_a_record_keys_its_ring_by_the_canonical_tag(tmp_path, capsys):
    """"F05" names the ring F5, so a record with that tag clashes with the
    builtin F5 record at load, and with --shadow replaces it."""
    record = {"group": {"kind": "free_abelian", "rank": 2, "generators": ["t1", "t2"]}, "degree": 1, "ring": "F05",
              "complement": {"dim": 2, "cells": []}, "provenance": "F05 copy"}
    records = write_json(tmp_path / "records.json", [record])
    code, out, err = run_cli(["catalog", "validate", "--records", records], capsys)
    assert code == 3 and out == "" and "ring F5 already exists" in err
    lookup = ["catalog", "lookup", "--group", "abelian:2", "--degree", "1", "--ring", "F5", "--format", "structured"]
    code, out, _ = run_cli(lookup + ["--records", records, "--shadow"], capsys)
    assert code == 0 and json.loads(out)["provenance"] == "F05 copy" and json.loads(out)["ring"] == "F5"
    code, out, _ = run_cli(["catalog", "list", "--records", records, "--shadow", "--format", "structured"], capsys)
    assert [e["provenance"] for e in json.loads(out) if e["degree"] == 1 and e["ring"] == "F5"
            and e["group"]["kind"] == "free_abelian" and e["group"]["rank"] == 2] == ["F05 copy"]
    assert run_cli(["catalog", "validate", "--records", records, "--shadow"], capsys)[:2] == (0, "catalog ok\n")


@pytest.mark.parametrize(
    "command,group,ring",
    [
        (["lookup", "--group", "abelian:4", "--degree", "4"], "abelian:4", "Q"),
        (["product-check", "--left", "free:3", "--right", "free:3", "--n", "4"], "product:free:3,free:3", "Q"),
        (["theorem2", "--left", "abelian:1", "--right", "free:2", "--n", "4"], "product:abelian:1,free:2", "Z"),
    ],
    ids=["lookup", "product-check", "theorem2"],
)
def test_a_missing_record_is_named_without_quotes_or_escapes(command, group, ring, capsys):
    """The refusal prints the lookup's message itself, not the repr that
    str() of a KeyError gives (outer quotes, escaped inner quotes)."""
    code, out, err = run_cli(["catalog", *command], capsys)
    assert code == 3 and out == ""
    assert err == f"error: no catalog record for {parse_group(group).to_dict()}, degree 4, ring {ring}\n"


def test_a_user_chain_answers_above_its_top_only_when_stable(tmp_path, capsys):
    """A record holds up to the next record of its chain; the top one holds
    above its degree only when marked stable, and a chain without the mark is
    refused above its top degree, as a missing record is."""
    group = parse_group("free:1").to_dict()
    chain = [
        {"group": group, "degree": 0, "ring": "Q", "complement": {"dim": 1, "cells": []}},
        {"group": group, "degree": 2, "ring": "Q", "complement": cone_set_to_obj(full_sphere_dim(1)),
         "provenance": "top"},
    ]

    def lookup(degree, path):
        argv = ["catalog", "lookup", "--group", "free:1", "--degree", str(degree), "--records", path]
        code, out, err = run_cli(argv + ["--format", "structured"], capsys)
        return code, json.loads(out) if out else None, err

    unstable = write_json(tmp_path / "unstable.json", chain)
    code, rec, _ = lookup(1, unstable)
    assert code == 0 and rec["degree"] == 1 and rec["complement"]["cells"] == [] and "stable" not in rec
    code, rec, _ = lookup(2, unstable)
    assert code == 0 and rec["provenance"] == "top" and "stable" not in rec
    code, rec, err = lookup(3, unstable)
    assert code == 3 and rec is None and err == f"error: no catalog record for {group}, degree 3, ring Q\n"
    stable = write_json(tmp_path / "stable.json", chain[:1] + [dict(chain[1], stable=True)])
    for degree in (3, 50):
        code, rec, _ = lookup(degree, stable)
        assert code == 0 and rec["degree"] == degree and rec["provenance"] == "top" and rec["stable"] is True


def test_a_record_in_a_degree_a_stable_record_covers_needs_shadow(tmp_path, capsys):
    """The builtin free:2 chain is stable from degree 1, so it answers degree 4:
    a user record there needs --shadow, and then tops the chain; the
    builtin record still answers below it, and validation checks growth from
    it across the gap."""
    group = parse_group("free:2").to_dict()
    record = {"group": group, "degree": 4, "ring": "Q", "complement": {"dim": 2, "cells": []},
              "provenance": "degree-4 override"}
    path = write_json(tmp_path / "records.json", [record])
    lookup = ["catalog", "lookup", "--group", "free:2", "--records", path, "--format", "structured"]
    code, out, err = run_cli(lookup + ["--degree", "4"], capsys)
    assert code == 3 and out == "" and "degree 4, ring Q already exists" in err and "--shadow" in err
    code, out, _ = run_cli(lookup + ["--degree", "4", "--shadow"], capsys)
    assert code == 0 and json.loads(out)["provenance"] == "degree-4 override"
    code, out, _ = run_cli(lookup + ["--degree", "3", "--shadow"], capsys)
    assert code == 0 and json.loads(out)["provenance"].startswith("window probe failures")
    code, out, _ = run_cli(["catalog", "validate", "--records", path, "--shadow", "--format", "structured"], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == [f"{group} Q: complement in degree 1 is not inside degree 4"]


SHIPPED_PAIRS = [("abelian:1", "abelian:1"), ("abelian:2", "free:2"), ("free:2", "free:2")]


@pytest.mark.parametrize("left,right", SHIPPED_PAIRS, ids=[f"{a}x{b}" for a, b in SHIPPED_PAIRS])
def test_the_formula_checks_answer_above_degree_3(left, right, capsys):
    """Every shipped chain is stable, so product-check and theorem2 answer in
    degrees 4-6, where the paper's theorem over a field holds."""
    pair = ["--left", left, "--right", right, "--format", "structured"]
    for n in ("4", "5", "6"):
        for ring in ("Q", "F5", "Z"):
            code, out, _ = run_cli(["catalog", "product-check", *pair, "--n", n, "--ring", ring], capsys)
            assert code == 0 and json.loads(out)["degree"] == int(n), (n, ring)
        code, out, _ = run_cli(["catalog", "theorem2", *pair, "--n", n], capsys)
        assert code == 0 and json.loads(out)["degrees_checked"] == int(n) + 1, n


def test_a_product_check_in_a_high_degree_reads_the_factors_up_to_the_stable_sum(capsys):
    """Both factors of free:2 x free:2 are stable from degree 1, so the formula
    in degree 100000 reads them up to degree 2 and answers at once."""
    start = time.perf_counter()
    code, out, _ = run_cli(["catalog", "product-check", "--left", "free:2", "--right", "free:2", "--n", "100000",
                            "--format", "structured"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["degree"] == 100000 and json.loads(out)["equal"]


def test_catalog_list_holds_one_record_per_change_of_complement(capsys):
    """61 shipped records, and exactly the top record of each chain is stable."""
    code, out, _ = run_cli(["catalog", "list", "--format", "structured"], capsys)
    entries = json.loads(out)
    assert code == 0 and len(entries) == 61

    def chain(entry):
        return json.dumps(entry["group"], sort_keys=True), entry["ring"]

    tops = {}
    for entry in entries:
        tops[chain(entry)] = max(tops.get(chain(entry), 0), entry["degree"])
    assert [entry.get("stable", False) for entry in entries] == [entry["degree"] == tops[chain(entry)] for entry in entries]


@pytest.mark.parametrize(
    "command",
    [
        ["lookup", "--group", "abelian:2", "--degree", "1"],
        ["product-check", "--left", "abelian:1", "--right", "abelian:1", "--n", "2"],
        ["cross-validate", "--group", "abelian:2", "--degree", "1", "--directions", "1,0;1,-1", "--window", "3",
         "--lambda-max", "2"],
    ],
    ids=["lookup", "product-check", "cross-validate"],
)
def test_a_ring_tag_is_looked_up_as_its_canonical_tag(command, capsys):
    """--ring F05 names F5: each command finds the F5 records, answers as
    with --ring F5 and reports the ring as F5; a tag of no record (F7) or of
    no ring (bogus) exits 3."""
    base = ["catalog", *command, "--format", "structured"]
    code, expected, _ = run_cli(base + ["--ring", "F5"], capsys)
    assert code == 0
    code, out, err = run_cli(base + ["--ring", "F05"], capsys)
    assert code == 0 and err == ""
    got, want = json.loads(out), json.loads(expected)
    assert got["ring"] == "F5"
    assert got == want
    for tag in ("F7", "bogus"):
        code, out, err = run_cli(base + ["--ring", tag], capsys)
        assert code == 3 and out == "" and f"ring {tag}" in err, (tag, err)


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
    "record-stable-not-a-boolean": (
        lambda f: ["catalog", "list", "--records",
                   f([{"group": {"kind": "free", "rank": 2}, "degree": 1, "ring": "Q",
                       "complement": {"dim": 2, "cells": []}, "stable": "yes"}])],
        "stable mark",
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

    def build(group, ring):
        raise AssertionError("built a factor resolution")

    # without the guard the command fails here, before it can allocate 2^24 cells
    monkeypatch.setattr(resolutions, "_tensor_cells", cells)
    # both routes read the size off the factor groups, so neither builds a rank-12 factor (4096 cells)
    monkeypatch.setattr(resolutions, "clique_resolution", build)
    start = time.perf_counter()
    code, out, err = run_cli(OVERSIZED_TENSORS[name], capsys)
    assert time.perf_counter() - start < 1.0
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
    from bnsr import resolution_for

    def balls(group, W):
        raise AssertionError("enumerated the window")

    # every window enumeration starts with the factor balls; an earlier
    # probe in this process may have left this window on the shared
    # resolution, so the resolutions start afresh
    monkeypatch.setattr(homology, "_factor_balls", balls)
    resolution_for.cache_clear()
    flags, limit = OVERSIZED_PROBES[name]
    start = time.perf_counter()
    code, out, err = run_cli(["probe", "ca", "--group", "free:2", "--char=1,2", "--window", "2", *flags], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and f"limit of {getattr(homology, limit)}" in err
