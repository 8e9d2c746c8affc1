"""Seeded jobs, their runners and their expected answers, per workload.

A workload is a fixed cycle of job kinds.  Round ``r`` holds one job of each
kind, in the order listed.  The job of kind ``k`` in round ``r`` draws its
instance from ``base = Random(f"{workload}:{r}:{k}")`` and then a symmetry
of that instance from ``sym = Random(f"{seed}:{workload}:{r}:{k}")``: a
signed permutation of the character coordinates, a swap of the free
generators, a swap of the factors, or row and column operations on an
integer matrix.  A symmetry maps the instance to an isomorphic one with the
same expected answer and the same amount of work, so the seed changes every
input while each seed does the same work; that keeps run-to-run spread low
without repeating inputs.

Inputs are plain data (tuples, ints, strings and files of JSON).  Every
library object a job needs beyond the shared resolutions and the catalog
built at set-up is built inside the job, through names exported from
``bnsr/__init__.py`` (plus ``bnsr.cli.main`` for the command-line share).

Each kind has four parts:

* ``gen(base, sym, ctx)`` makes the job's parameters (and any input files);
* ``run(ctx, params)`` is the timed job.  It returns ``(verdict, evidence)``:
  the verdict is JSON data that goes into the run's digest, the evidence is
  whatever the check needs;
* ``check(ctx, params, verdict, evidence)`` returns ``None`` when the answer
  agrees with the expected one, otherwise a one-line reason.  Expected
  answers come from the theory the package implements, from the oracles in
  this file, or from the same job over Q;
* ``size(ctx, params)`` returns the job's problem size for the manifest.

Checks and sizes run after the timed phase, with tracing off.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import bnsr
import bnsr.cli

# the rounds generated during set-up; later rounds are generated on demand,
# outside the job timers
PREGEN_ROUNDS = 16
# windows on larger balls are too slow to enumerate for the manifest; their
# cells per degree are reported as null
MANIFEST_MAX_BALL = 6000


@dataclass(frozen=True)
class Kind:
    name: str
    gen: Callable
    run: Callable
    check: Callable
    size: Callable


@dataclass
class Job:
    index: int
    kind: Kind
    params: dict


class Context:
    """Set-up state shared by the jobs of one run: resolutions, catalog,
    scratch directory for command-line files and the manifest caches."""

    def __init__(self, workload: str, tmpdir: str):
        self.tmpdir = tmpdir
        self.catalog = bnsr.builtin_catalog()
        self.rings = {tag: bnsr.ring_from_tag(tag) for tag in ("Q", "F5", "Z")}
        self.res: dict = {}
        for key in RESOLUTIONS[workload]:
            self.resolution(key)
        self._window_sizes: dict = {}
        self._files = 0
        # verdicts of Z probes rerun over Q, by job parameters
        self.q_verdicts: dict = {}

    def resolution(self, key):
        """Resolution for ("free", rank, tag), ("abelian", rank, tag) or
        ("tensor", left_key, right_key), built once per run."""
        got = self.res.get(key)
        if got is None:
            if key[0] == "tensor":
                got = bnsr.tensor_resolution(self.resolution(key[1]), self.resolution(key[2]))
            elif key[0] == "free":
                got = bnsr.free_group_resolution(key[1], self.rings[key[2]])
            else:
                got = bnsr.koszul_resolution(key[1], self.rings[key[2]])
            self.res[key] = got
        return got

    def write_json(self, stem: str, data) -> str:
        self._files += 1
        path = os.path.join(self.tmpdir, f"{stem}-{self._files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def out_path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.tmpdir, f"{stem}-{self._files}.out.json")

    def window_size(self, key, radii) -> dict:
        """Ball size and window cells per degree of a resolution's window
        (cells only up to MANIFEST_MAX_BALL group elements)."""
        F = self.resolution(key)
        W = bnsr.window_for(F, radii)
        # the window does not depend on the ring
        cache_key = (_group_label(F.group), W.radii)
        got = self._window_sizes.get(cache_key)
        if got is None:
            nfac = len(F.group.factors())
            ball = F.group.ball(W.radii if nfac > 1 else W.radii[0])
            got = {"group": _group_label(F.group), "radii": list(W.radii), "ball": len(ball),
                   "cells": _window_cells(F, W) if len(ball) <= MANIFEST_MAX_BALL else None}
            self._window_sizes[cache_key] = got
        return dict(got, ring=F.ring.tag)


def _window_cells(F, W) -> dict:
    """Admitted window cells per degree (the whole window complex)."""
    elements = getattr(bnsr.homology, "window_cell_elements", None)
    if elements is None:
        v0 = bnsr.basic_valuation(F, bnsr.zero_character(F.group))
        C = bnsr.truncate(F, v0, float("-inf"), W)
        return {str(d): C.dim(d) for d in C.degrees()}
    return {str(d): sum(sum(1 for _ in elements(F, W, cell)) for cell in F.cells(d)) for d in F.degrees()}


def _group_label(G) -> str:
    parts = G.factors()
    return "x".join(f"{type(p).__name__}{p.rank}" for p in parts)


def job_source(workload: str, seed: int, ctx: Context):
    """Function mapping a job index to its Job, generating rounds lazily."""
    kinds = WORKLOADS[workload]
    cache: dict = {}

    def make_round(r):
        return [
            Job(r * len(kinds) + i, kind, kind.gen(random.Random(f"{workload}:{r}:{kind.name}"),
                                                      random.Random(f"{seed}:{workload}:{r}:{kind.name}"), ctx))
            for i, kind in enumerate(kinds)
        ]

    for r in range(PREGEN_ROUNDS):
        cache[r] = make_round(r)

    def job(index: int) -> Job:
        r, i = divmod(index, len(kinds))
        if r not in cache:
            cache[r] = make_round(r)
        return cache[r][i]

    return job


# ---------------------------------------------------------------------------
# shared generators


def _nonzero_vec(rng, dim, lo=-3, hi=3):
    while True:
        vec = tuple(rng.randint(lo, hi) for _ in range(dim))
        if any(vec):
            return vec


def _signed_perm(sym, dim):
    """A random signed permutation of ``dim`` coordinates, as a function."""
    perm = sym.sample(range(dim), dim)
    signs = [sym.choice((1, -1)) for _ in range(dim)]
    return lambda vec: tuple(sg * vec[i] for sg, i in zip(signs, perm))


def _fr(x) -> str:
    return str(Fraction(x))


def _probe_verdict(rep) -> dict:
    lam = rep.uniform_lambda
    return {"passed": bool(rep.passed), "lambda": None if lam is None else _fr(lam)}


def _probe(ctx, key, chi, n, radius, lam_max, t_samples):
    F = ctx.resolution(key)
    v = bnsr.basic_valuation(F, bnsr.Character(F.group, list(chi)))
    W = bnsr.window_for(F, radius)
    return bnsr.ca_probe(F, v, n, W, lam_max, t_samples=t_samples)


# ---------------------------------------------------------------------------
# window probes: F2 fails, Z^k passes with a uniform lag <= 2


# One character shape for every F2 probe: its images under the signed
# permutations are related by automorphisms of F2, so all F2 probes of a kind
# cost the same and the median of a run does not hop between shapes.
F2_SHAPE = (1, 2)


def gen_f2_probe(radius, lam_max, ring):
    def gen(base, sym, ctx):
        return {"ring": ring, "chi": _signed_perm(sym, 2)(F2_SHAPE), "radius": radius,
                "lam_max": lam_max, "t_samples": None}
    return gen


def gen_abelian_probe(rank, radii, t_samples, ring):
    def gen(base, sym, ctx):
        return {"ring": ring, "rank": rank, "chi": _signed_perm(sym, rank)(_nonzero_vec(base, rank)),
                "radius": base.choice(radii), "lam_max": 2, "t_samples": t_samples}
    return gen


def run_f2_probe(ctx, p):
    rep = _probe(ctx, ("free", 2, p["ring"]), p["chi"], 1, p["radius"], p["lam_max"], p["t_samples"])
    return _probe_verdict(rep), None


def run_abelian_probe(ctx, p):
    rep = _probe(ctx, ("abelian", p["rank"], p["ring"]), p["chi"], 2, p["radius"], p["lam_max"], p["t_samples"])
    return _probe_verdict(rep), None


def check_fails(ctx, p, verdict, evidence):
    # Sigma^1(F2) is empty: no direction admits a uniform lag
    if verdict["passed"]:
        return f"free-group probe passed with lag {verdict['lambda']}; Sigma^1(F2) is empty"
    return None


def check_passes(ctx, p, verdict, evidence):
    # Sigma(Z^k) is the whole sphere, with the Koszul lag bounded by 2
    if not verdict["passed"]:
        return "lattice probe found no uniform lag"
    if Fraction(verdict["lambda"]) > 2:
        return f"lattice probe lag {verdict['lambda']} exceeds 2"
    return None


def size_f2_probe(ctx, p):
    return ctx.window_size(("free", 2, p["ring"]), p["radius"])


def size_abelian_probe(ctx, p):
    return ctx.window_size(("abelian", p["rank"], p["ring"]), p["radius"])


# Z probes: the same theory, and the verdict of the same job over Q


def _same_over_q(run, theory):
    def check(ctx, p, verdict, evidence):
        reason = theory(ctx, p, verdict, evidence)
        if reason:
            return reason
        key = json.dumps(p, sort_keys=True)
        if key not in ctx.q_verdicts:
            ctx.q_verdicts[key] = run(ctx, dict(p, ring="Q"))[0]
        q_verdict = ctx.q_verdicts[key]
        if q_verdict != verdict:
            return f"verdict over Z {verdict} differs from the verdict over Q {q_verdict}"
        return None
    return check


# ---------------------------------------------------------------------------
# product cross validation: F2 x F2 in degree 1, complement = both embedded
# factor spheres


def gen_xval_embedded(base, sym, ctx):
    # a direction inside one embedded factor sphere; the factor carrying the
    # filling defect gets the larger radius
    part = _signed_perm(sym, 2)(_nonzero_vec(base, 2))
    if sym.random() < 0.5:
        return {"direction": part + (0, 0), "radius": (3, 1), "lam_max": 1, "ring": "Q"}
    return {"direction": (0, 0) + part, "radius": (1, 3), "lam_max": 1, "ring": "Q"}


def gen_xval_generic(base, sym, ctx):
    # an axis direction in each factor: certified on the balanced (2, 2) window
    left, right = (0, 1) if base.random() < 0.5 else (1, 0), (0, 1) if base.random() < 0.5 else (1, 0)
    left, right = _signed_perm(sym, 2)(left), _signed_perm(sym, 2)(right)
    if sym.random() < 0.5:
        left, right = right, left
    return {"direction": left + right, "radius": (2, 2), "lam_max": 2, "ring": "Q"}


def run_xval(ctx, p):
    rec = ctx.catalog.lookup(bnsr.product(bnsr.Free(2), bnsr.Free(2)), 1, p["ring"])
    rep = bnsr.cross_validate(rec, [p["direction"]], p["radius"], p["lam_max"])
    entry = rep.entries[0]
    return {
        "consistent": bool(rep.consistent),
        "in_complement": bool(entry["in_complement"]),
        "probe_passed": bool(entry["probe_passed"]),
    }, None


def check_xval(ctx, p, verdict, evidence):
    d = p["direction"]
    expect_in = not any(d[:2]) or not any(d[2:])
    if verdict["in_complement"] != expect_in:
        return f"catalog membership of {d} is {verdict['in_complement']}, expected {expect_in}"
    if verdict["probe_passed"] == expect_in:
        return f"probe verdict {verdict['probe_passed']} contradicts membership {expect_in}"
    if not verdict["consistent"]:
        return "cross validation reports an inconsistency"
    return None


def size_xval(ctx, p):
    key = ("tensor", ("free", 2, p["ring"]), ("free", 2, p["ring"]))
    return ctx.window_size(key, p["radius"])


# ---------------------------------------------------------------------------
# command-line share of the probe workload


def gen_cli_probe(group, radius, lam_max, t_samples, expect_pass, ring):
    def gen(base, sym, ctx):
        shape = F2_SHAPE if group == "free:2" else _nonzero_vec(base, 2)
        return {"group": group, "chi": _signed_perm(sym, 2)(shape), "radius": radius,
                "lam_max": lam_max, "t_samples": t_samples, "ring": ring, "expect_pass": expect_pass,
                "out": ctx.out_path("probe")}
    return gen


def run_cli_probe(ctx, p):
    argv = ["probe", "ca", "--group", p["group"], "--ring", p["ring"],
            "--char=" + ",".join(str(x) for x in p["chi"]), "--n", "1" if p["group"] == "free:2" else "2",
            "--window", str(p["radius"]), "--lambda-max", str(p["lam_max"]),
            "--format", "structured", "--out", p["out"]]
    if p["t_samples"]:
        argv += ["--t-samples", str(p["t_samples"])]
    code = bnsr.cli.main(argv)
    with open(p["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    return {"exit": code, "passed": report["passed"], "lambda": report["uniform_lambda"]}, None


def check_cli_probe(ctx, p, verdict, evidence):
    want = 0 if p["expect_pass"] else 1
    if verdict["exit"] != want:
        return f"exit code {verdict['exit']}, expected {want}"
    if verdict["passed"] != p["expect_pass"]:
        return f"written report says passed={verdict['passed']}"
    if p["expect_pass"] and Fraction(verdict["lambda"]) > 2:
        return f"lattice lag {verdict['lambda']} exceeds 2"
    return None


def size_cli_probe(ctx, p):
    kind, rank = p["group"].split(":")
    key = ("free" if kind == "free" else "abelian", int(rank), p["ring"])
    return ctx.window_size(key, p["radius"])


# ---------------------------------------------------------------------------
# fillings on F2 and F2 (x) F2
#
# z_m = y x^(s m) - x^(s m) for the generator pair (x, y) and sign s; under
# the character k * s * e_x its filling defect is eta = k * m.


def _f2_variant(sym, m):
    """z_m up to the automorphisms of F2 that swap or invert the generators."""
    x = sym.choice("ab")
    return {"x": x, "y": "b" if x == "a" else "a", "s": sym.choice((1, -1)), "m": m}


def _f2_char(var, k=1):
    chi = [0, 0]
    chi["ab".index(var["x"])] = var["s"] * k
    return chi


def _z_m(F, var):
    G, x0, one = F.group, F.cells(0)[0], F.ring.one()
    e = var["s"] * var["m"]
    return bnsr.Chain(F.ring, [((G.word(f"{var['y']} {var['x']}^{e}"), x0), one),
                               ((G.word(f"{var['x']}^{e}"), x0), F.ring.neg(one))])


def _c_m(F, var):
    G, e = F.group, var["s"] * var["m"]
    x, y = var["x"], var["y"]
    return F.translate(G.word(f"{x}^{e}"), bnsr.fox_filling(G.word(f"{x}^{-e} {y} {x}^{e}"), F))


def gen_eta(radius):
    def gen(base, sym, ctx):
        m = base.randint(1, radius - 1)
        return {"ring": base.choice(("Q", "F5")), "radius": radius, "k": base.choice((1, 2)),
                "var": _f2_variant(sym, m)}
    return gen


def run_eta(ctx, p):
    F = ctx.resolution(("free", 2, p["ring"]))
    v = bnsr.basic_valuation(F, bnsr.Character(F.group, _f2_char(p["var"], p["k"])))
    val = bnsr.eta(F, v, _z_m(F, p["var"]), bnsr.window_for(F, p["radius"]))
    return _fr(val), None


def check_eta(ctx, p, verdict, evidence):
    want = p["k"] * p["var"]["m"]
    return None if Fraction(verdict) == want else f"eta {verdict}, expected {want}"


def size_eta(ctx, p):
    return ctx.window_size(("free", 2, p["ring"]), p["radius"])


def _tensor_instance(ctx, p):
    key = ("tensor", ("free", 2, p["ring"]), ("free", 2, p["ring"]))
    T = ctx.resolution(key)
    F, G = T.left, T.right
    v = bnsr.basic_valuation(F, bnsr.Character(F.group, _f2_char(p["var"])))
    vp = bnsr.basic_valuation(G, bnsr.Character(G.group, _f2_char(p["var_r"])))
    z, zp = _z_m(F, p["var"]), _z_m(G, p["var_r"])
    c, cp = _c_m(F, p["var"]), _c_m(G, p["var_r"])
    return T, v, vp, z, zp, c, cp


def gen_tensor(radii_of_m, ms, rings, known=None):
    def gen(base, sym, ctx):
        m = base.choice(ms)
        return {"ring": base.choice(rings), "var": _f2_variant(sym, m), "var_r": _f2_variant(sym, m),
                "radius": base.choice(radii_of_m(m)), "known": known}
    return gen


def run_gap(ctx, p):
    T, v, vp, z, zp, c, cp = _tensor_instance(ctx, p)
    w = bnsr.product_valuation(T, v, vp)
    cc = bnsr.tensor_chain(T, c, cp)
    target = T.boundary(cc)
    W = bnsr.window_for(T, p["radius"])
    gap = bnsr.gap_lower_bound(T, w, target, W, known_filling=cc if p["known"] else None)
    return _fr(gap), (w, cc, target)


def check_gap(ctx, p, verdict, evidence):
    # the splitter argument with mu = m - 1/2 < eta(z) = m bounds the gap
    # below; the elementary filling bounds it above
    w, cc, target = evidence
    gap, mu = Fraction(verdict), Fraction(2 * p["var"]["m"] - 1, 2)
    if gap < mu:
        return f"gap {gap} below mu = {mu}"
    per_candidate = w.value(target) - w.value(cc)
    if gap > per_candidate:
        return f"gap {gap} above the elementary filling's gap {per_candidate}"
    return None


def size_tensor(ctx, p):
    key = ("tensor", ("free", 2, p["ring"]), ("free", 2, p["ring"]))
    return ctx.window_size(key, p["radius"])


def run_witness(ctx, p):
    T, v, vp, z, zp, c, cp = _tensor_instance(ctx, p)
    mu = Fraction(2 * p["var"]["m"] - 1, 2)
    rep = bnsr.witness_pipeline(T, v, vp, z, zp, mu, mu, c, cp, None, bnsr.window_for(T, p["radius"]))
    gap = rep.gap
    return {
        "conclusion": bool(rep.conclusion),
        "gap": "inf" if gap == float("inf") else _fr(gap),
        "class_orders": dict(sorted(rep.class_orders.items())),
    }, None


def check_witness(ctx, p, verdict, evidence):
    if not verdict["conclusion"]:
        return "splitter pipeline did not conclude"
    if p["ring"] == "Z" and set(verdict["class_orders"].values()) != {"infinite"}:
        return f"factor class orders {verdict['class_orders']}, expected infinite"
    return None


# criterion-10 fillings on Z^2 (x) F2 carried back through the retraction


def gen_retraction(base, sym, ctx):
    act = _signed_perm(sym, 2)
    return {"chi": act(_nonzero_vec(base, 2)), "g": act(tuple(base.randint(-1, 1) for _ in range(2))),
            "radius": (3, 2), "ring": "Q"}


def run_retraction(ctx, p):
    key = ("tensor", ("abelian", 2, "Q"), ("free", 2, "Q"))
    T = ctx.resolution(key)
    K2, FR = T.left, T.right
    i_map, p_map = bnsr.retraction_maps(T)
    v = bnsr.basic_valuation(K2, bnsr.Character(K2.group, list(p["chi"])))
    w = bnsr.product_valuation(T, v, bnsr.basic_valuation(FR, bnsr.zero_character(FR.group)))
    z = K2.boundary(K2.basis_chain(K2.cells(1)[0], p["g"]))
    iz = i_map.apply(z)
    val, d = bnsr.max_filling_value(T, w, iz, bnsr.window_for(T, p["radius"]), return_chain=True)
    rep = bnsr.extreme_case_transfer(T, i_map, p_map, v, w, z, d, w.value(iz) - val)
    return {"ok": bool(rep.ok), "filling_value": _fr(val)}, None


def check_retraction(ctx, p, verdict, evidence):
    return None if verdict["ok"] else "transfer inequality failed"


def size_retraction(ctx, p):
    return ctx.window_size(("tensor", ("abelian", 2, "Q"), ("free", 2, "Q")), p["radius"])


# ---------------------------------------------------------------------------
# cone-set algebra


def _random_form(rng, dim):
    return _nonzero_vec(rng, dim, -2, 2)


def _act_on_sets(sym, datas):
    """The same signed coordinate permutation applied to every form."""
    act = _signed_perm(sym, datas[0]["dim"])
    return [{"dim": d["dim"], "cells": [([act(f) for f in e], [act(f) for f in g]) for e, g in d["cells"]]}
            for d in datas]


def _random_cone_sets(rng, dim, count, pool=4, max_cells=3):
    """``count`` nonempty presentations over one shared pool of forms.

    The pool bounds the common arrangement that set equality refines, so a
    job's cost stays within a second even in dimension 5.
    """
    forms = [_random_form(rng, dim) for _ in range(pool)]
    out = []
    for _ in range(count):
        cells = []
        for _ in range(rng.randint(1, max_cells)):
            eqs = [rng.choice(forms) for _ in range(rng.randint(0, 1))]
            gts = [rng.choice(forms) for _ in range(rng.randint(1, 2))]
            cells.append((eqs, gts))
        out.append({"dim": dim, "cells": cells})
    return out


def _cone(data):
    return bnsr.cone_set(data["dim"], [bnsr.make_cell(e, g) for e, g in data["cells"]], validate=True)


def _cone_size(*datas):
    forms = {tuple(f) for d in datas for e, g in d["cells"] for f in e + g}
    return {"dims": sorted({d["dim"] for d in datas}), "forms": len(forms),
            "cells": sum(len(d["cells"]) for d in datas)}


def gen_laws(dim):
    def gen(base, sym, ctx):
        return {"sets": _act_on_sets(sym, _random_cone_sets(base, dim, 3))}
    return gen


def run_laws(ctx, p):
    A, B, C = (_cone(d) for d in p["sets"])
    eq, un, it, co = bnsr.equals, bnsr.union, bnsr.intersect, bnsr.complement
    return [
        eq(it(A, un(B, C)), un(it(A, B), it(A, C))),
        eq(co(un(A, B)), it(co(A), co(B))),
        eq(co(co(A)), A),
    ], None


def check_all_true(ctx, p, verdict, evidence):
    return None if all(verdict) else f"identities {verdict} do not all hold"


def size_sets(ctx, p):
    return _cone_size(*p["sets"])


def gen_join(base, sym, ctx):
    dl, dr = base.choice(((1, 2), (2, 2), (1, 3)))
    left = _act_on_sets(sym, _random_cone_sets(base, dl, 2, pool=3))
    return {"sets": left + _act_on_sets(sym, _random_cone_sets(base, dr, 1, pool=3))}


def run_join(ctx, p):
    P, P2, Q = (_cone(d) for d in p["sets"])
    lhs = bnsr.join(bnsr.union(P, P2), Q)
    return [bnsr.equals(lhs, bnsr.union(bnsr.join(P, Q), bnsr.join(P2, Q)))], None


# the three catalog product pairs (Z, Z), (Z^2, F2), (F2, F2)
PAIRS = (("abelian", 1, "abelian", 1), ("abelian", 2, "free", 2), ("free", 2, "free", 2))


def _group(kind, rank):
    return bnsr.FreeAbelian(rank) if kind == "abelian" else bnsr.Free(rank)


def gen_catalog(base, sym, ctx):
    # the stored catalog data is fixed, so the seed has nothing to act on
    return {"pair": base.choice(PAIRS), "n": base.randint(1, 3), "tag": base.choice(("Q", "Z", "F5"))}


def run_catalog(ctx, p):
    kl, rl, kr, rr = p["pair"]
    G, H = _group(kl, rl), _group(kr, rr)
    cat = ctx.catalog
    return [
        bool(bnsr.verify_product_formula(cat, G, H, p["n"], p["tag"]).equal),
        bool(bnsr.meinert_report(cat, G, H, p["n"], p["tag"])),
        bool(bnsr.theorem3_check(cat, G, H, p["n"]).equal),
    ], None


def size_catalog(ctx, p):
    kl, rl, kr, rr = p["pair"]
    return {"group": f"{kl}{rl}x{kr}{rr}", "degree": p["n"], "ring": p["tag"]}


def _cone_obj(data):
    return {"dim": data["dim"],
            "cells": [{"eq": [[str(x) for x in f] for f in e], "gt": [[str(x) for x in f] for f in g]}
                      for e, g in data["cells"]]}


def gen_cli_sphere(base, sym, ctx):
    dim = base.choice((2, 3))
    a, b = _act_on_sets(sym, _random_cone_sets(base, dim, 2, pool=3))
    union_ab = {"dim": dim, "cells": a["cells"] + b["cells"]}
    return {"sets": [a, b], "a": ctx.write_json("A", _cone_obj(a)), "ab": ctx.write_json("AB", _cone_obj(union_ab)),
            "comp": ctx.out_path("compA"), "eq": ctx.out_path("eq"), "sub": ctx.out_path("sub")}


def run_cli_sphere(ctx, p):
    main = bnsr.cli.main
    fmt = ["--format", "structured"]
    codes = [
        main(["sphere", "complement", "--set", p["a"], "--out", p["comp"]] + fmt),
        main(["sphere", "equals", "--left", p["a"], "--right", p["comp"], "--out", p["eq"]] + fmt),
        main(["sphere", "subset", "--left", p["a"], "--right", p["ab"], "--out", p["sub"]] + fmt),
    ]
    with open(p["eq"], encoding="utf-8") as fh:
        equal = json.load(fh)["equal"]
    with open(p["sub"], encoding="utf-8") as fh:
        sub = json.load(fh)["subset"]
    return {"exit": codes, "equal": equal, "subset": sub}, None


def check_cli_sphere(ctx, p, verdict, evidence):
    # a set never equals its complement on a nonempty sphere; A lies in A u B
    if verdict["exit"] != [0, 1, 0]:
        return f"exit codes {verdict['exit']}, expected [0, 1, 0]"
    if verdict["equal"] or not verdict["subset"]:
        return f"written verdicts equal={verdict['equal']} subset={verdict['subset']}"
    return None


# ---------------------------------------------------------------------------
# integer class orders


def lattice_order(M, z):
    """Order of z modulo the column lattice of M, without a Smith form.

    Column-reduces M to an echelon basis of its lattice (Euclid on columns),
    solves z in that basis over Q, and reads the order off the denominators:
    ("zero", 1), ("torsion", k) or ("infinite", 0).
    """
    rows = len(z)
    cols = [list(c) for c in zip(*M)] if M and M[0] else []
    basis = []
    for r in range(rows):
        live = [c for c in cols if c[r] != 0]
        rest = [c for c in cols if c[r] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            pivot = live[0]
            nxt = [pivot]
            for c in live[1:]:
                q = c[r] // pivot[r]
                c = [a - q * b for a, b in zip(c, pivot)]
                (nxt if c[r] != 0 else rest).append(c)
            live = nxt
        if live:
            basis.append((r, live[0]))
        cols = rest
    coeffs = []
    resid = [Fraction(x) for x in z]
    for r, b in basis:
        c = resid[r] / b[r]
        coeffs.append(c)
        resid = [x - c * y for x, y in zip(resid, b)]
    if any(resid):
        return ("infinite", 0)
    k = 1
    for c in coeffs:
        k = k * c.denominator // gcd(k, c.denominator)
    return ("zero", 1) if k == 1 else ("torsion", k)


def gen_class_matrices(base, sym, ctx):
    mats = []
    for M, z in _base_matrices(base):
        # unimodular row and column operations keep the class order
        rows, cols = len(M), len(M[0])
        rp, cp = sym.sample(range(rows), rows), sym.sample(range(cols), cols)
        rs, cs = [sym.choice((1, -1)) for _ in range(rows)], [sym.choice((1, -1)) for _ in range(cols)]
        mats.append(([[rs[i] * cs[j] * M[rp[i]][cp[j]] for j in range(cols)] for i in range(rows)],
                     [rs[i] * z[rp[i]] for i in range(rows)]))
    return {"mats": mats}


def _base_matrices(rng):
    mats = []
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        z = [rng.randint(-2, 2) for _ in range(rows)]
        if rng.random() < 0.5:
            # a rational multiple of a column combination, so torsion shows up
            y = [rng.randint(-2, 2) for _ in range(cols)]
            k = rng.randint(2, 4)
            z = [sum(M[i][j] * y[j] for j in range(cols)) for i in range(rows)]
            g = 0
            for x in z:
                g = gcd(g, x)
            if g % k == 0 and g:
                z = [x // k for x in z]
        mats.append((M, z))
    return mats


def _matrix_complex(ctx, M, z):
    """An integer window-shaped complex whose degree-1 boundary is M."""
    K1 = ctx.resolution(("abelian", 1, "Z"))
    x0, e = K1.cells(0)[0], K1.cells(1)[0]
    rows, cols = len(M), len(M[0])
    basis = {0: [((i,), x0) for i in range(rows)], 1: [((j,), e) for j in range(cols)]}
    columns = {1: [{i: M[i][j] for i in range(rows) if M[i][j]} for j in range(cols)]}
    C = bnsr.FiniteComplex(K1.ring, basis, columns)
    chain = bnsr.Chain(K1.ring, [(basis[0][i], c) for i, c in enumerate(z) if c])
    return C, chain


def run_class_matrices(ctx, p):
    out = []
    for M, z in p["mats"]:
        C, chain = _matrix_complex(ctx, M, z)
        kind, k = bnsr.class_order(chain, C)
        out.append([kind, k])
    return out, None


def check_class_matrices(ctx, p, verdict, evidence):
    for (M, z), got in zip(p["mats"], verdict):
        want = list(lattice_order(M, z))
        if got != want:
            return f"class order {got} of {z} mod {M}, oracle says {want}"
    return None


def size_class_matrices(ctx, p):
    return {"matrices": len(p["mats"]), "entries": sum(len(M) * len(M[0]) for M, _ in p["mats"])}


def gen_class_window(base, sym, ctx):
    act = _signed_perm(sym, 2)
    return {"chi": act(_nonzero_vec(base, 2)), "radius": 3, "shift": base.choice((0, 1, 2)),
            "terms": [(act((base.randint(-1, 1), base.randint(-1, 1))), base.choice((1, -1, 2))) for _ in range(2)]}


def run_class_window(ctx, p):
    F = ctx.resolution(("abelian", 2, "Z"))
    v = bnsr.basic_valuation(F, bnsr.Character(F.group, list(p["chi"])))
    e12 = F.cells(2)[0]
    z = F.boundary(bnsr.Chain(F.ring, [((tuple(g), e12), c) for g, c in p["terms"]]))
    if z.is_zero:
        return ["zero", 1], None
    C = bnsr.truncate(F, v, v.value(z) - p["shift"], bnsr.window_for(F, p["radius"]), degrees=[1, 2])
    kind, k = bnsr.class_order(z, C)
    return [kind, k], (C, z)


def check_class_window(ctx, p, verdict, evidence):
    if evidence is None:
        return None if verdict == ["zero", 1] else f"zero cycle has class {verdict}"
    C, z = evidence
    rows = C.dim(1)
    M = [[0] * len(C.columns[2]) for _ in range(rows)]
    for j, col in enumerate(C.columns[2]):
        for i, c in col.items():
            M[i][j] = c
    zvec = [0] * rows
    for i, c in C.chain_vector(z, 1).items():
        zvec[i] = c
    want = list(lattice_order(M, zvec)) if M and M[0] else (["zero", 1] if not any(zvec) else ["infinite", 0])
    return None if verdict == want else f"window class order {verdict}, oracle says {want}"


def size_class_window(ctx, p):
    return ctx.window_size(("abelian", 2, "Z"), p["radius"])


# ---------------------------------------------------------------------------
# workloads


_z_f2 = _same_over_q(run_f2_probe, check_fails)
_z_abelian = _same_over_q(run_abelian_probe, check_passes)

def _gap_windows(m):
    # z_1 fits the smaller windows too; their spread of sizes keeps the
    # slow end of the job-time distribution continuous
    return ((3, 3), (3, 2), (2, 3)) if m == 1 else ((3, 3),)


WORKLOADS = {
    "probe": [
        Kind("f2_r3", gen_f2_probe(3, 1, "F5"), run_f2_probe, check_fails, size_f2_probe),
        Kind("f2_r4", gen_f2_probe(4, 2, "Q"), run_f2_probe, check_fails, size_f2_probe),
        Kind("z2_shared", gen_abelian_probe(2, (5,), 7, "Q"), run_abelian_probe, check_passes, size_abelian_probe),
        Kind("z2_distinct", gen_abelian_probe(2, (3, 4, 6), 7, "F5"), run_abelian_probe, check_passes,
             size_abelian_probe),
        Kind("z3", gen_abelian_probe(3, (2,), 3, "Q"), run_abelian_probe, check_passes, size_abelian_probe),
        Kind("xval_embedded", gen_xval_embedded, run_xval, check_xval, size_xval),
        Kind("xval_generic", gen_xval_generic, run_xval, check_xval, size_xval),
        Kind("cli_f2", gen_cli_probe("free:2", 3, 1, 0, False, "Q"), run_cli_probe, check_cli_probe, size_cli_probe),
        Kind("cli_z2", gen_cli_probe("abelian:2", 4, 2, 7, True, "F5"), run_cli_probe, check_cli_probe,
             size_cli_probe),
    ],
    "fill": [
        Kind("eta_r5", gen_eta(5), run_eta, check_eta, size_eta),
        Kind("eta_r6", gen_eta(6), run_eta, check_eta, size_eta),
        Kind("witness", gen_tensor(lambda m: (m + 1,), (1, 2, 3), ("Q", "F5")), run_witness, check_witness,
             size_tensor),
        Kind("witness_wide", gen_tensor(lambda m: (m + 2,), (1, 2, 3), ("Q", "F5")), run_witness, check_witness,
             size_tensor),
        Kind("retraction", gen_retraction, run_retraction, check_retraction, size_retraction),
        Kind("gap_known", gen_tensor(_gap_windows, (1, 2), ("Q", "F5"), known=True), run_gap, check_gap, size_tensor),
        Kind("gap_search", gen_tensor(_gap_windows, (1, 2), ("Q", "F5"), known=False), run_gap, check_gap, size_tensor),
    ],
    "sphere": [
        Kind("laws_d2", gen_laws(2), run_laws, check_all_true, size_sets),
        Kind("laws_d3", gen_laws(3), run_laws, check_all_true, size_sets),
        Kind("laws_d4", gen_laws(4), run_laws, check_all_true, size_sets),
        Kind("laws_d5", gen_laws(5), run_laws, check_all_true, size_sets),
        Kind("join", gen_join, run_join, check_all_true, size_sets),
        Kind("catalog", gen_catalog, run_catalog, check_all_true, size_catalog),
        Kind("cli_sphere", gen_cli_sphere, run_cli_sphere, check_cli_sphere, size_sets),
    ],
    "integral": [
        Kind("f2_z_r3", gen_f2_probe(3, 1, "Z"), run_f2_probe, _z_f2, size_f2_probe),
        Kind("f2_z_r4", gen_f2_probe(4, 2, "Z"), run_f2_probe, _z_f2, size_f2_probe),
        Kind("z2_z_t5", gen_abelian_probe(2, (3,), 5, "Z"), run_abelian_probe, _z_abelian, size_abelian_probe),
        Kind("z2_z_t7", gen_abelian_probe(2, (3,), 7, "Z"), run_abelian_probe, _z_abelian, size_abelian_probe),
        Kind("class_window", gen_class_window, run_class_window, check_class_window, size_class_window),
        Kind("class_matrices", gen_class_matrices, run_class_matrices, check_class_matrices, size_class_matrices),
        Kind("witness_z", gen_tensor(lambda m: (m + 1,), (1, 2, 3), ("Z",)), run_witness, check_witness, size_tensor),
    ],
}

# resolutions built during set-up, per workload
RESOLUTIONS = {
    "probe": [("free", 2, "Q"), ("free", 2, "F5"), ("abelian", 2, "Q"), ("abelian", 2, "F5"),
              ("abelian", 3, "Q"), ("abelian", 3, "F5")],
    "fill": [("free", 2, "Q"), ("free", 2, "F5"), ("tensor", ("free", 2, "Q"), ("free", 2, "Q")),
             ("tensor", ("free", 2, "F5"), ("free", 2, "F5")),
             ("tensor", ("abelian", 2, "Q"), ("free", 2, "Q"))],
    "sphere": [],
    "integral": [("free", 2, "Z"), ("abelian", 2, "Z"), ("abelian", 1, "Z"),
                 ("tensor", ("free", 2, "Z"), ("free", 2, "Z"))],
}
