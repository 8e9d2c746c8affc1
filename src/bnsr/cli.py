"""Command-line entry point with file-based IO and deterministic output.

Each subcommand is declared once, in ``build_parser``: its name, the option
groups it shares with other subcommands, its own options and its handler,
which ``main`` runs.

Exit codes: 0 success / check verified, 1 check ran and evaluated false,
2 usage error, 3 precondition or input failure.  Structured output is
byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import catalog as catalog_mod
from .groups import Character, group_from_dict, parse_group, sum_character
from .homology import (
    ca_probe,
    eta,
    gap_lower_bound,
    max_filling_value,
    window_for,
)
from .resolutions import (
    chain_from_obj,
    chain_to_obj,
    check_admissible,
    parse_resolution,
    resolution_for,
    tensor_chain,
    tensor_resolution,
)
from .rings import ring_from_tag
from .spheres import (
    SigmaFormulaInput,
    complement,
    cone_set_from_obj,
    cone_set_to_obj,
    equals,
    homotopical_combine,
    join,
    product_formula_rhs,
    subset,
    union,
)
from .valuations import (
    basic_valuation,
    check_axioms,
    split_bottom,
    split_left,
    valuation_to_obj,
)
from .witness import witness_pipeline


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _emit(args, payload, human_lines=None) -> None:
    if args.format == "structured":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        lines = human_lines if human_lines is not None else [json.dumps(payload, sort_keys=True, indent=2)]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fraction(x) -> Fraction:
    """An exact rational from a string or an integer; anything else raises ValueError."""
    if type(x) is not int and not isinstance(x, str):
        raise ValueError(f"{x!r} is not a rational number")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{x!r} is not a rational number") from None


@contextmanager
def _source(name: str):
    """Prefix a ValueError raised inside with ``name``, the option or config key being read."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_char(group, text: str, option: str) -> Character:
    """The character given to ``option`` as comma-separated rationals; errors name the option."""
    return _config_char(group, text.split(","), option)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _directions(text: str) -> list[tuple[int, ...]]:
    """Semicolon-separated integer vectors, as ``--directions`` takes them."""
    out = []
    for entry in text.split(";"):
        try:
            out.append(tuple(int(x) for x in entry.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(f"direction {entry!r} is not a comma-separated list of integers") from None
    return out


def _group_arg(spec: str):
    if spec.endswith(".json"):
        return group_from_dict(_load_json(spec))
    return parse_group(spec)


# ---------------------------------------------------------------------------
# sphere commands


def _complements_from_obj(data, key: str) -> dict:
    """The degree -> cone set table ``data[key]`` of a formula input file."""
    table = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(table, dict) and all(k.isdecimal() for k in table)):
        raise ValueError(f"formula inputs need an object {key!r} from degrees to cone sets")
    return {int(k): cone_set_from_obj(v) for k, v in table.items()}


def _set_pair(args):
    """The cone sets in the files ``--left`` and ``--right``, read in that order."""
    A = cone_set_from_obj(_load_json(args.left))
    return A, cone_set_from_obj(_load_json(args.right))


def _sphere_join(args) -> int:
    out = join(*_set_pair(args))
    _emit(args, cone_set_to_obj(out), [f"join: {len(out.cells)} cells in dimension {out.dim}"])
    return 0


def _sphere_union(args) -> int:
    out = union(*_set_pair(args))
    _emit(args, cone_set_to_obj(out), [f"union: {len(out.cells)} cells"])
    return 0


def _sphere_equals(args) -> int:
    ok = equals(*_set_pair(args))
    _emit(args, {"equal": ok}, [f"equal: {ok}"])
    return 0 if ok else 1


def _sphere_subset(args) -> int:
    ok = subset(*_set_pair(args))
    _emit(args, {"subset": ok}, [f"subset: {ok}"])
    return 0 if ok else 1


def _sphere_complement(args) -> int:
    out = complement(cone_set_from_obj(_load_json(args.set)))
    _emit(args, cone_set_to_obj(out), [f"complement: {len(out.cells)} cells"])
    return 0


def _sphere_product_rhs(args) -> int:
    data = _load_json(args.inputs)
    inputs = SigmaFormulaInput(_complements_from_obj(data, "g_complements"), _complements_from_obj(data, "h_complements"))
    out = product_formula_rhs(inputs, args.n)
    _emit(args, cone_set_to_obj(out), [f"formula rhs: {len(out.cells)} cells"])
    return 0


def _sphere_homotopical(args) -> int:
    left = _group_arg(args.left_group)
    right = _group_arg(args.right_group)
    out = homotopical_combine(
        cone_set_from_obj(_load_json(args.sigma_gh)),
        cone_set_from_obj(_load_json(args.sigma_g)),
        cone_set_from_obj(_load_json(args.sigma_h)),
        left,
        right,
    )
    _emit(args, cone_set_to_obj(out), [f"homotopical set: {len(out.cells)} cells"])
    return 0


# ---------------------------------------------------------------------------
# resolution commands


def _resolution_payload(F) -> dict:
    cells = []
    for d in F.degrees():
        for cell in F.cells(d):
            entry = {"label": cell.label, "degree": d, "index": cell.index}
            if d > 0:
                entry["boundary"] = chain_to_obj(F, F.boundary_table[cell])
            else:
                entry["augmentation"] = F.ring.format(F.augmentation_table[cell])
            cells.append(entry)
    return {"group": F.group.to_dict(), "ring": F.ring.tag, "kind": F.kind, "cells": cells}


def _resolution(args):
    """The resolution ``--resolution`` over the ring ``--ring``."""
    return parse_resolution(args.resolution, ring_from_tag(args.ring))


def _resolution_build(args) -> int:
    F = _resolution(args)
    _emit(args, _resolution_payload(F), [repr(F)])
    return 0


def _resolution_boundary(args) -> int:
    F = _resolution(args)
    out = F.boundary(chain_from_obj(F, _load_json(args.chain)))
    _emit(args, chain_to_obj(F, out), [f"boundary with {len(out.terms)} terms"])
    return 0


def _resolution_check(args) -> int:
    rep = check_admissible(_resolution(args))
    _emit(args, {"ok": rep.ok, "violations": rep.violations}, [f"admissible: {rep.ok}"] + rep.violations)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# valuation commands


def _valuation(args, F):
    """The basic valuation on ``F`` of the character ``--char``."""
    return basic_valuation(F, _parse_char(F.group, args.char, "--char"))


def _random_chain(F, rng, degree, radius=2, nterms=3):
    ring = F.ring
    terms = []
    ball = F.group.ball(radius)
    cells = F.cells(degree)
    for _ in range(nterms):
        g = rng.choice(ball)
        cell = rng.choice(cells)
        coeff = ring.from_int(rng.choice([-2, -1, 1, 2]))
        terms.append(((g, cell), coeff))
    return F.chain(terms)


def _valuation_prop41(args) -> int:
    ring = ring_from_tag(args.ring)
    left = parse_resolution(args.left, ring)
    right = parse_resolution(args.right, ring)
    T = tensor_resolution(left, right)
    v = basic_valuation(left, _parse_char(left.group, args.char_left, "--char-left"))
    vprime = basic_valuation(right, _parse_char(right.group, args.char_right, "--char-right"))
    # the tensor side is valued independently of the factors, so the identity is tested
    w = basic_valuation(T, sum_character(v.character, vprime.character))
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.samples):
        dl = rng.choice(left.degrees())
        dr = rng.choice(right.degrees())
        a = _random_chain(left, rng, dl)
        b = _random_chain(right, rng, dr)
        lhs = w.value(tensor_chain(T, a, b))
        rhs = v.value(a) + vprime.value(b)
        if lhs != rhs:
            failures += 1
    _emit(
        args,
        {"samples": args.samples, "failures": failures},
        [f"product-value identity: {args.samples - failures}/{args.samples} samples agree"],
    )
    return 0 if failures == 0 else 1


def _valuation_basic(args) -> int:
    obj = valuation_to_obj(_valuation(args, _resolution(args)))
    _emit(args, obj, [f"{cell}: {val}" for cell, val in sorted(obj["cells"].items())])
    return 0


def _valuation_value(args) -> int:
    F = _resolution(args)
    v = _valuation(args, F)
    val = v.value(chain_from_obj(F, _load_json(args.chain)))
    _emit(args, {"value": str(val)}, [f"value: {val}"])
    return 0


def _valuation_split(args) -> int:
    F = _resolution(args)
    if F.kind != "tensor":
        raise ValueError("split needs a tensor resolution")
    chain = chain_from_obj(F, _load_json(args.chain))
    with _source("--u"):
        u = _fraction(args.u)
    if args.side == "left":
        low, high = split_left(F, chain, u, _valuation(args, F.left))
        names = ("lambda", "rho")
    else:
        low, high = split_bottom(F, chain, u, _valuation(args, F.right))
        names = ("beta", "tau")
    _emit(
        args,
        {names[0]: chain_to_obj(F, low), names[1]: chain_to_obj(F, high)},
        [f"{names[0]}: {len(low.terms)} terms, {names[1]}: {len(high.terms)} terms"],
    )
    return 0


def _valuation_check_axioms(args) -> int:
    F = _resolution(args)
    v = _valuation(args, F)
    rng = random.Random(args.seed)
    samples = []
    degs = F.degrees()
    ball = F.group.ball(2)
    for _ in range(args.samples):
        d = rng.choice(degs)
        samples.append(
            (_random_chain(F, rng, d), _random_chain(F, rng, d), rng.choice(ball), F.ring.one())
        )
    rep = check_axioms(v, samples)
    _emit(
        args,
        {"ok": rep.ok, "checked": rep.checked, "failures": rep.failures},
        [f"axioms on {rep.checked} samples: {'ok' if rep.ok else 'FAILED'}"] + rep.failures,
    )
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# probe and witness commands


def _probe_setup(args):
    """(F, v, W): the resolution of ``--group`` over ``--ring``, the basic
    valuation of ``--char`` on it and its window of radius ``--window``."""
    ring = ring_from_tag(args.ring)
    F = resolution_for(_group_arg(args.group), ring)
    return F, _valuation(args, F), window_for(F, args.window)


def _probe_ca(args) -> int:
    F, v, W = _probe_setup(args)
    report = ca_probe(F, v, args.n, W, args.lambda_max, t_samples=args.t_samples or None)
    _emit(args, report.to_dict(), [report.note])
    return 0 if report.passed else 1


def _probe_eta(args) -> int:
    F, v, W = _probe_setup(args)
    val = eta(F, v, chain_from_obj(F, _load_json(args.cycle)), W)
    _emit(args, {"eta": str(val)}, [f"eta: {val}"])
    return 0


def _probe_gap(args) -> int:
    F, v, W = _probe_setup(args)
    val = gap_lower_bound(F, v, chain_from_obj(F, _load_json(args.target)), W)
    _emit(args, {"gap_lower_bound": str(val)}, [f"gap over the window: {val}"])
    return 0


_WITNESS_KEYS = ("left_group", "right_group", "char_left", "char_right", "z", "z_prime", "mu", "mu_prime", "window")


def _config_group(spec):
    if isinstance(spec, dict):
        return group_from_dict(spec)
    if isinstance(spec, str):
        return parse_group(spec)
    raise ValueError(f"a group is a spec string or an object, got {spec!r}")


def _config_char(group, coeffs, source: str) -> Character:
    """The character with the rationals ``coeffs``, read from the option or
    config key ``source``; errors name it."""
    with _source(source):
        if not isinstance(coeffs, list):
            raise ValueError(f"a character is a list of rationals, got {coeffs!r}")
        return Character(group, [_fraction(x) for x in coeffs])


def _check_witness_config(cfg) -> None:
    """Refuse a ``witness run`` config of the wrong shape with a ValueError."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a witness config is an object, got {type(cfg).__name__}")
    missing = [key for key in _WITNESS_KEYS if key not in cfg]
    if missing:
        raise ValueError(f"witness config lacks {', '.join(missing)}")
    if not isinstance(cfg.get("ring", "Q"), str):
        raise ValueError(f"a ring is a tag such as \"Q\", got {cfg['ring']!r}")
    window = cfg["window"]
    if type(window) is not int or window < 0:
        raise ValueError(f"window {window!r} is not a nonnegative integer")


def _witness_run(args) -> int:
    cfg = _load_json(args.config)
    _check_witness_config(cfg)
    ring = ring_from_tag(cfg.get("ring", "Q"))
    F = resolution_for(_config_group(cfg["left_group"]), ring)
    G = resolution_for(_config_group(cfg["right_group"]), ring)
    T = tensor_resolution(F, G)
    v = basic_valuation(F, _config_char(F.group, cfg["char_left"], "char_left"))
    vprime = basic_valuation(G, _config_char(G.group, cfg["char_right"], "char_right"))
    z = chain_from_obj(F, cfg["z"])
    zp = chain_from_obj(G, cfg["z_prime"])
    with _source("mu"):
        mu = _fraction(cfg["mu"])
    with _source("mu_prime"):
        mup = _fraction(cfg["mu_prime"])
    window = cfg["window"]
    W = window_for(T, window)
    c = chain_from_obj(F, cfg["c"]) if "c" in cfg else _best_chain(F, v, z, window, "z", "c")
    cp = chain_from_obj(G, cfg["c_prime"]) if "c_prime" in cfg else _best_chain(G, vprime, zp, window, "z_prime", "c_prime")
    d = chain_from_obj(T, cfg["d"]) if "d" in cfg else None
    report = witness_pipeline(T, v, vprime, z, zp, mu, mup, c, cp, d, W)
    _emit(args, report.to_dict(), [f"witness conclusion: {report.conclusion}"] + report.notes)
    return 0 if report.conclusion else 1


def _best_chain(F, v, z, window: int, name: str, key: str):
    """A best window filling of the cycle ``name``, for a config that leaves
    out its filling ``key``."""
    W = window_for(F, window)
    try:
        _, c = max_filling_value(F, v, z, W, return_chain=True)
    except ValueError as exc:  # the search cannot run: a cycle outside the window, or over Z
        raise ValueError(f"cycle {name}: {exc}; give its filling as {key} to run the check") from None
    if c is None:
        raise ValueError(f"{name} does not bound inside the window, so its filling must be given")
    return c


# ---------------------------------------------------------------------------
# catalog commands


def _catalog_from_args(args):
    cat = catalog_mod.builtin_catalog()
    if args.records:
        data = _load_json(args.records)
        if not isinstance(data, list):
            raise ValueError(f"{args.records} does not hold a list of catalog records")
        extra = [catalog_mod.SigmaRecord.from_dict(item) for item in data]
        cat = cat.merge(extra, shadow=args.shadow)
    return cat


def _catalog_list(args) -> int:
    entries = [
        {
            "group": rec.group.to_dict(),
            "degree": rec.degree,
            "ring": rec.ring_tag,
            "cells": len(rec.complement.cells),
            "provenance": rec.provenance,
            **({"stable": True} if rec.stable else {}),
        }
        for rec in _catalog_from_args(args).records
    ]
    _emit(args, entries, [f"{len(entries)} records"])
    return 0


def _catalog_lookup(args) -> int:
    rec = _catalog_from_args(args).lookup(_group_arg(args.group), args.degree, args.ring)
    _emit(args, rec.to_dict(), [f"complement with {len(rec.complement.cells)} cells: {rec.provenance}"])
    return 0


def _catalog_validate(args) -> int:
    violations = catalog_mod.catalog_violations(_catalog_from_args(args))
    _emit(args, {"ok": not violations, "violations": violations}, ["catalog ok" if not violations else "violations:"] + violations)
    return 0 if not violations else 1


def _catalog_product_check(args) -> int:
    cat = _catalog_from_args(args)
    rep = catalog_mod.verify_product_formula(cat, _group_arg(args.left), _group_arg(args.right), args.n, args.ring)
    _emit(args, rep.to_dict(), [f"formula equality: {rep.equal}"])
    return 0 if rep.equal else 1


def _catalog_theorem2(args) -> int:
    cat = _catalog_from_args(args)
    rep = catalog_mod.theorem2_applicability(cat, _group_arg(args.left), _group_arg(args.right), args.n)
    _emit(args, rep.to_dict(), [f"applicable: {rep.applicable}, integral formula: {rep.z_formula_equal}"])
    return 0 if rep.applicable and rep.z_formula_equal else 1


def _catalog_theorem3(args) -> int:
    cat = _catalog_from_args(args)
    rep = catalog_mod.theorem3_check(cat, _group_arg(args.left), _group_arg(args.right), args.n)
    _emit(args, rep.to_dict(), [f"integral formula equality at degree {args.n}: {rep.equal}"])
    return 0 if rep.equal else 1


def _catalog_cross_validate(args) -> int:
    rec = _catalog_from_args(args).lookup(_group_arg(args.group), args.degree, args.ring)
    rep = catalog_mod.cross_validate(rec, args.directions, args.window, args.lambda_max)
    _emit(args, rep.to_dict(), [f"consistent: {rep.consistent}"])
    return 0 if rep.consistent else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged.
    A parsed subcommand's handler is ``args.run``."""
    parser = argparse.ArgumentParser(prog="bnsr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = functools.partial(argparse.ArgumentParser, add_help=False)

    common = shared()
    common.add_argument("--format", choices=("human", "structured"), default="human")
    common.add_argument("--out", "-o", default=None, help="write output to a file")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    pair = shared()
    pair.add_argument("--left", required=True)
    pair.add_argument("--right", required=True)
    resolution = shared()
    resolution.add_argument("--resolution", required=True)
    resolution.add_argument("--ring", default="Q")
    char = shared()
    char.add_argument("--char", required=True)
    probe = shared()
    probe.add_argument("--group", required=True)
    probe.add_argument("--ring", default="Q")
    probe.add_argument("--char", required=True)
    probe.add_argument("--window", type=_nonnegative_int, required=True)
    records = shared()
    records.add_argument("--records", default=None, help="JSON list of extra catalog records")
    records.add_argument("--shadow", action="store_true", help="let the extra records replace built-in ones")

    def group(name, summary):
        return sub.add_parser(name, help=summary).add_subparsers(dest=f"{name}_cmd", required=True)

    def command(commands, name, run, *parents):
        p = commands.add_parser(name, parents=[common, *parents])
        p.set_defaults(run=run)
        return p

    sphere = group("sphere", "cone-set algebra on character spheres")
    command(sphere, "join", _sphere_join, pair)
    command(sphere, "union", _sphere_union, pair)
    command(sphere, "equals", _sphere_equals, pair)
    command(sphere, "subset", _sphere_subset, pair)
    p = command(sphere, "complement", _sphere_complement)
    p.add_argument("--set", required=True)
    p = command(sphere, "product-rhs", _sphere_product_rhs)
    p.add_argument("--inputs", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p = command(sphere, "homotopical", _sphere_homotopical)
    p.add_argument("--sigma-gh", required=True)
    p.add_argument("--sigma-g", required=True)
    p.add_argument("--sigma-h", required=True)
    p.add_argument("--left-group", required=True)
    p.add_argument("--right-group", required=True)

    res = group("resolution", "build and check resolutions")
    command(res, "build", _resolution_build, resolution)
    p = command(res, "boundary", _resolution_boundary, resolution)
    p.add_argument("--chain", required=True)
    command(res, "check", _resolution_check, resolution)

    val = group("valuation", "valuations and splitters")
    command(val, "basic", _valuation_basic, resolution, char)
    p = command(val, "value", _valuation_value, resolution, char)
    p.add_argument("--chain", required=True)
    p = command(val, "split", _valuation_split, resolution)
    p.add_argument("--char", required=True, help="character of the split side factor")
    p.add_argument("--u", required=True)
    p.add_argument("--side", choices=("left", "bottom"), default="left")
    p.add_argument("--chain", required=True)
    p = command(val, "check-axioms", _valuation_check_axioms, resolution, char)
    p.add_argument("--samples", type=_nonnegative_int, default=100)
    p = command(val, "prop41", _valuation_prop41, pair)
    p.add_argument("--ring", default="Q")
    p.add_argument("--char-left", required=True)
    p.add_argument("--char-right", required=True)
    p.add_argument("--samples", type=_nonnegative_int, default=200)

    prb = group("probe", "window probes for controlled acyclicity")
    p = command(prb, "ca", _probe_ca, probe)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--lambda-max", type=_nonnegative_int, required=True)
    p.add_argument("--t-samples", type=_nonnegative_int, default=0, help="thresholds to sample; 0 takes every window value")
    p = command(prb, "eta", _probe_eta, probe)
    p.add_argument("--cycle", required=True)
    p = command(prb, "gap", _probe_gap, probe)
    p.add_argument("--target", required=True)

    wit = group("witness", "splitter decomposition pipeline")
    p = command(wit, "run", _witness_run)
    p.add_argument("--config", required=True)

    cat = group("catalog", "curated invariant data and theorem checks")
    command(cat, "list", _catalog_list, records)
    p = command(cat, "lookup", _catalog_lookup, records)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=_nonnegative_int, required=True)
    p.add_argument("--ring", default="Q")
    command(cat, "validate", _catalog_validate, records)
    p = command(cat, "product-check", _catalog_product_check, records, pair)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--ring", default="Q")
    p = command(cat, "theorem2", _catalog_theorem2, records, pair)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p = command(cat, "theorem3", _catalog_theorem3, records, pair)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p = command(cat, "cross-validate", _catalog_cross_validate, records)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=_nonnegative_int, required=True)
    p.add_argument("--ring", default="Q")
    p.add_argument("--directions", type=_directions, required=True, help="semicolon-separated integer vectors")
    p.add_argument("--window", type=_nonnegative_int, default=4)
    p.add_argument("--lambda-max", type=_nonnegative_int, default=4)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its message, quotes and escapes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
