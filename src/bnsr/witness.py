"""Retraction and splitter-decomposition witnesses on tensor resolutions.

Two evidence pipelines live here.  The retraction pair (section and
projection between a factor resolution and the tensor) carries filling
bounds back to the factor, with an explicit domination constant.  The
splitter pipeline takes a candidate filling of the boundary of an
elementary tensor, decomposes everything by two valuation thresholds,
verifies the four support-level claims plus the explicit homology between
the corner cycle and the product cycle, and checks the resulting gap bound.
It works on the sparse chains of :mod:`bnsr.resolutions` and the key values
of :class:`bnsr.valuations.Valuation`; its only window work is the support
test of its chains and one filling search per supported factor cycle.  The
support test (:func:`bnsr.homology.window_supported`) admits a term by the
window's one rule, the rule of the window inventory: each factor part of
the term's element, times each shift of its cell's per-factor shift set,
stays within that factor's radius.  All verdicts are recorded per-field in
a report; nothing is thrown for a failed check, and a factor cycle the
window does not support is reported (no filling search, no eta, no class
order), not thrown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import pair_element, split_element, sum_character, zero_character
from .homology import NEG_INF, Window, max_filling_value, window_supported
from .resolutions import Chain, ChainMap, Resolution, tensor_chain
from .rings import INTEGERS
from .valuations import (
    INF,
    Valuation,
    domination_constant,
    product_valuation,
    split_bottom,
    split_left,
)


def retraction_maps(T: Resolution) -> tuple[ChainMap, ChainMap]:
    """Section i(c) = c tensor x' and projection p(c tensor c') = aug(c') c.

    Requires the right factor to have a single degree-0 cell augmenting to 1
    (true for every construction shipped here); then p after i is the
    identity.
    """
    if T.kind != "tensor":
        raise ValueError("retraction_maps needs a tensor resolution")
    F, FH = T.left, T.right
    zero_cells = FH.cells(0)
    if len(zero_cells) != 1 or FH.augmentation_table[zero_cells[0]] != FH.ring.one():
        raise ValueError("right factor must have a single degree-0 cell with unit augmentation")
    xp = zero_cells[0]
    ident_r = FH.group.identity()

    i_images = {}
    for d in F.degrees():
        for x in F.cells(d):
            i_images[x] = T.basis_chain(T.pair_index[(x, xp)])
    i_map = ChainMap(F, T, lambda g: pair_element(F.group, FH.group, g, ident_r), i_images)

    p_images = {}
    for d in T.degrees():
        for cell in T.cells(d):
            x, y = T.cell_pairs[cell]
            if y.degree == 0:
                p_images[cell] = F.basis_chain(x).scale(FH.augmentation_table[y])
            else:
                p_images[cell] = F.zero_chain()
    p_map = ChainMap(T, F, lambda gh: split_element(F.group, FH.group, gh)[0], p_images)
    return i_map, p_map


def composite_valuation(T: Resolution, p_map: ChainMap, v: Valuation) -> Valuation:
    """The valuation v after p on the tensor resolution (extends (chi, 0))."""
    chi = sum_character(v.character, zero_character(T.right.group))
    cell_values = {}
    for d in T.degrees():
        for cell in T.cells(d):
            cell_values[cell] = v.value(p_map.cell_images[cell])
    return Valuation(T, chi, cell_values, basic=False)


@dataclass
class TransferReport:
    boundary_ok: bool
    value_v_z: object
    value_w_iz: object
    value_w_d: object
    lam: object
    mu: object
    value_v_pd: object
    inequality_ok: bool
    ok: bool

    def to_dict(self):
        return {
            "boundary_ok": self.boundary_ok,
            "v(z)": str(self.value_v_z),
            "w(i(z))": str(self.value_w_iz),
            "w(d)": str(self.value_w_d),
            "lambda": str(self.lam),
            "mu": str(self.mu),
            "v(p(d))": str(self.value_v_pd),
            "inequality_ok": self.inequality_ok,
            "ok": self.ok,
        }


def extreme_case_transfer(
    T: Resolution,
    i_map: ChainMap,
    p_map: ChainMap,
    v: Valuation,
    w: Valuation,
    z: Chain,
    d: Chain,
    lam,
) -> TransferReport:
    """Carry a filling bound for i(z) back to the factor through p.

    Verifies boundary(p(d)) = z and v(p(d)) >= v(z) - lam - mu, where mu is
    the computed domination constant of v after p against the basic
    valuation on the tensor.
    """
    F = T.left
    iz = i_map.apply(z)
    boundary_ok = T.boundary(d) == iz
    pd = p_map.apply(d)
    pd_boundary_ok = (F.boundary(pd) == z) if not pd.is_zero else z.is_zero
    vp_val = composite_valuation(T, p_map, v)
    mu = domination_constant(vp_val, T, T.max_degree)
    value_v_z = v.value(z)
    value_v_pd = v.value(pd)
    inequality_ok = value_v_pd >= value_v_z - lam - mu
    return TransferReport(
        boundary_ok=boundary_ok and pd_boundary_ok,
        value_v_z=value_v_z,
        value_w_iz=w.value(iz),
        value_w_d=w.value(d),
        lam=lam,
        mu=mu,
        value_v_pd=value_v_pd,
        inequality_ok=inequality_ok,
        ok=boundary_ok and pd_boundary_ok and inequality_ok,
    )


@dataclass
class WitnessReport:
    ring: str
    values: dict = field(default_factory=dict)
    preconditions: dict = field(default_factory=dict)
    claim1: bool = False
    claim2: bool = False
    claim3: bool = False
    claim4: bool = False
    sign: int = 0
    homologous_in_window: bool = False
    corner_cycle_nonzero: bool = False
    left_class_nonvanishing: bool = False
    right_class_nonvanishing: bool = False
    class_orders: dict = field(default_factory=dict)
    gap: object = None
    gap_ok: bool = False
    preliminary_bound_ok: bool = False
    conclusion: bool = False
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "ring": self.ring,
            "values": {k: str(vv) for k, vv in self.values.items()},
            "preconditions": dict(self.preconditions),
            "claims": {
                "claim1_left_split_of_boundary": self.claim1,
                "claim2_corner_is_rho_part": self.claim2,
                "claim3_c_tensor_zp_is_top": self.claim3,
                "claim4_lambda_beta_nonzero": self.claim4,
            },
            "sign": self.sign,
            "homologous_in_window": self.homologous_in_window,
            "corner_cycle_nonzero": self.corner_cycle_nonzero,
            "left_class_nonvanishing": self.left_class_nonvanishing,
            "right_class_nonvanishing": self.right_class_nonvanishing,
            "class_orders": dict(self.class_orders),
            "gap": str(self.gap),
            "gap_ok": self.gap_ok,
            "preliminary_bound_ok": self.preliminary_bound_ok,
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


def factor_windows(T: Resolution, W: Window) -> tuple[Window, Window]:
    """Split a tensor-resolution window into its factor windows."""
    nl = len(T.left.group.factors())
    return Window(W.radii[:nl]), Window(W.radii[nl:])


def witness_pipeline(
    T: Resolution,
    v: Valuation,
    vp: Valuation,
    z: Chain,
    zp: Chain,
    mu,
    mup,
    c: Chain,
    cp: Chain,
    d: Chain | None,
    W: Window,
) -> WitnessReport:
    """Run the splitter decomposition argument on one candidate filling.

    The filling d must bound the same chain as c tensor c'; when d is None
    the elementary tensor itself is used.  The report records precondition
    checks, the four claims, the explicit window homology between the
    corner cycle and z tensor z', factor-class nonvanishing, and the value
    gap.  One filling search per factor cycle decides its class: the class
    vanishes above the splitter exactly when the best filling value reaches
    it, over a field and over Z alike (:func:`_class_nonvanishing`), so
    no truncated complex is built.  Each search is handed that factor's
    filling, c or c'; in the factor's top degree, verified and supported by
    the window, it is the cycle's only filling, and its value answers the
    search with no window sweep.  A factor cycle the window does not
    support is not searched: its eta fails and its class is not found
    nonvanishing.  Each boundary and split is computed once.
    """
    F, G = T.left, T.right
    Wl, Wr = factor_windows(T, W)
    mu = Fraction(mu)
    mup = Fraction(mup)
    report = WitnessReport(ring=T.ring.tag)
    w = product_valuation(T, v, vp)

    cc = tensor_chain(T, c, cp)
    target = T.boundary(cc)
    if d is None:
        d, bd = cc, target
    else:
        bd = T.boundary(d)

    pre = report.preconditions
    pre["boundary_c_is_z"] = F.boundary(c) == z
    pre["boundary_cp_is_zp"] = G.boundary(cp) == zp
    pre["z_cycle"] = z.degree == 0 or F.boundary(z).is_zero
    pre["zp_cycle"] = zp.degree == 0 or G.boundary(zp).is_zero
    pre["mu_positive"] = mu > 0
    pre["mup_positive"] = mup > 0
    # one filling search per supported factor cycle serves eta and the class tests below
    sup_l, sup_r = window_supported(F, Wl, z), window_supported(G, Wr, zp)
    best_l = max_filling_value(F, v, z, Wl, known_filling=c) if sup_l else None
    best_r = max_filling_value(G, vp, zp, Wr, known_filling=cp) if sup_r else None
    for tag, key, is_cycle, vx, zx, best, m in (
        ("z", "mu_below_eta", pre["z_cycle"], v, z, best_l, mu),
        ("z'", "mup_below_eta", pre["zp_cycle"], vp, zp, best_r, mup),
    ):
        if best is None:
            failure = "target chain is not supported in the window"
        elif zx.is_zero:
            failure = "eta needs a nonzero cycle"
        elif not is_cycle:
            failure = "eta needs a cycle"
        elif best == NEG_INF:
            failure = "cycle does not bound inside the window"
        else:
            eta_x = vx.value(zx) - best
            pre[key] = m < eta_x
            report.values[f"eta({tag})"] = eta_x
            continue
        pre[key] = False
        report.notes.append(f"eta({tag}) failed: {failure}")

    vz = v.value(z)
    vzp = vp.value(zp)
    vc = v.value(c)
    vcp = vp.value(cp)
    u = vz - mu
    up = vzp - mup
    report.values.update(
        {"v(z)": vz, "v'(z')": vzp, "v(c)": vc, "v'(c')": vcp, "mu": mu, "mu'": mup, "u": u, "u'": up}
    )
    pre["c_value_in_range"] = vz - mu - 1 < vc <= vz - mu
    pre["cp_value_in_range"] = vzp - mup - 1 < vcp <= vzp - mup
    pre["d_fills_target"] = bd == target
    pre["window_supported"] = sup_l and sup_r and all(window_supported(T, W, ch) for ch in (d, cc, target))

    deg_c = c.degree if not c.is_zero else 0
    sigma = 1 if deg_c % 2 == 0 else -1
    report.sign = sigma

    d_lam, d_rho = split_left(T, d, u, v)
    bd_lam, bd_rho = split_left(T, bd, u, v)
    bd_of_lam = T.boundary(d_lam)
    b = bd_of_lam.sub(bd_lam)
    b_beta, b_tau = split_bottom(T, b, up, vp)
    e = T.boundary(b_beta)

    c_zp = tensor_chain(T, c, zp)
    c_zp_lam, c_zp_rho = split_left(T, c_zp, u, v)
    c_zp_beta, c_zp_tau = split_bottom(T, c_zp, up, vp)

    report.claim1 = bd_lam == (c_zp_lam.scale(T.ring.from_int(sigma)))
    report.claim2 = b == split_left(T, bd_of_lam, u, v)[1]
    report.claim3 = c_zp_beta.is_zero

    z_zp = tensor_chain(T, z, zp)
    homology_chain = c_zp_rho.sub(b_tau.scale(T.ring.from_int(sigma)))
    lhs = T.boundary(homology_chain)
    rhs = z_zp.add(e.scale(T.ring.from_int(sigma)))
    identity_ok = lhs == rhs
    in_window_complex = (
        split_left(T, homology_chain, u, v)[0].is_zero
        and split_bottom(T, homology_chain, up, vp)[0].is_zero
        and split_left(T, z_zp, u, v)[0].is_zero
        and split_bottom(T, z_zp, up, vp)[0].is_zero
    )
    report.homologous_in_window = identity_ok and in_window_complex
    if not identity_ok:
        report.notes.append("explicit homology identity failed")
    if not in_window_complex:
        report.notes.append("homology chain leaves the threshold window")

    report.corner_cycle_nonzero = not e.is_zero
    report.claim4 = not split_bottom(T, d_lam, up, vp)[0].is_zero

    integral = T.ring == INTEGERS
    report.left_class_nonvanishing = _class_nonvanishing(report, "z", "left", best_l, u, integral)
    report.right_class_nonvanishing = _class_nonvanishing(report, "z'", "right", best_r, up, integral)

    w_d = w.value(d)
    w_target = w.value(bd)
    report.values["w(d)"] = w_d
    report.values["w(boundary d)"] = w_target
    report.gap = w_target - w_d if w_d != INF else INF
    report.gap_ok = report.gap >= min(mu, mup)
    w_cc_target = w.value(target)
    w_zzp = w.value(z_zp)
    report.values["w(z tensor z')"] = w_zzp
    report.preliminary_bound_ok = w_cc_target > w_zzp - 1 - max(mu, mup)

    report.conclusion = (
        all(pre.values())
        and report.claim1
        and report.claim2
        and report.claim3
        and report.claim4
        and report.homologous_in_window
        and report.corner_cycle_nonzero
        and report.left_class_nonvanishing
        and report.right_class_nonvanishing
        and report.gap_ok
        and report.preliminary_bound_ok
    )
    return report


def _class_nonvanishing(report: WitnessReport, tag: str, side: str, best, threshold, integral: bool) -> bool:
    """Whether the class of the factor cycle ``tag`` is nonzero in the
    thresholded window, read off its best window filling value ``best``.

    The class vanishes exactly when ``best`` reaches the threshold.  Over Z
    this holds too, and the class is never torsion: :func:`max_filling_value`
    is exact there or raises (a verified top-degree filling is the only
    filling, incidence columns are totally unimodular, and on any other
    columns a level is returned only when the unit-pivot certificate frees
    the cokernel of the columns of value at least that level), so the class
    order recorded is "zero" or "infinite".  Over a
    field the best value is recorded instead.  ``best`` is None for a cycle
    the window does not support, which was not searched: nothing is
    recorded, and the class is not found nonvanishing.
    """
    if best is None:
        return False
    nonvanishing = best < threshold
    if not integral:
        report.values[f"best_{side}_filling"] = best
    elif nonvanishing:
        report.class_orders[tag] = "infinite"
    else:
        report.class_orders[tag] = "zero"
        report.notes.append(f"class of {tag} has zero order in the window complex")
    return nonvanishing
