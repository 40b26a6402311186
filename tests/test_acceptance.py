"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values tagged as derived are recomputed in place from their
stated closed forms; estimator checks run on rasterizations at the
stated resolutions.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from isoperim import oracle as orc
from isoperim import rearrange as rr
from isoperim.family import build_family

import oracles
from conftest import cone_grid, disk_indicator_grid, perimeter_of_opening, random_polygon

R9 = float(np.sqrt(0.1 / (4.0 - np.pi)))       # solves 1 - (4 - pi) r^2 = 0.9
P9 = 4.0 - (8.0 - 2.0 * np.pi) * R9


def _criterion(num, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} "
          f"[{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_square_closed_form(square):
    t0 = time.perf_counter()
    family = build_family(square)
    r = family.radius_for_volume(0.9)
    p = family.minimizer(0.9).perimeter
    elapsed = time.perf_counter() - t0
    ok = abs(r - R9) <= 1e-6 and abs(p - P9) <= 1e-6
    _criterion(1, ok, f"r={r:.9f} (ref {R9:.9f}), P={p:.9f} (ref {P9:.9f})",
               elapsed, 1.0)


def test_criterion_2_seam_continuity(rect_family):
    t0 = time.perf_counter()
    f = rect_family
    r = f.balls.inradius
    vb, vh = f.balls.ball_measure, f.balls.hull_measure
    disk_at_b = 2.0 * np.sqrt(np.pi * vb)
    stadium = lambda v: 2.0 * np.pi * r + (v - np.pi * r * r) / r
    rounded_at_h = float(perimeter_of_opening(f.structure, f.radius_for_volume(vh)))
    seam_b = abs(disk_at_b - stadium(vb))
    seam_h = abs(stadium(vh) - rounded_at_h)
    # curvature decreases with v while the minimizer is a growing free disk,
    # so the monotone sweep starts at the ball threshold
    vs = np.linspace(vb, f.v_max, 200)
    ps = f.perimeter(vs)
    ks = f.curvature(vs)
    mono = np.all(np.diff(ps) >= -1e-12) and np.all(np.diff(ks) >= -1e-12)
    elapsed = time.perf_counter() - t0
    ok = seam_b <= 1e-9 and seam_h <= 1e-9 and mono
    _criterion(2, ok, f"seam gaps {seam_b:.2e}, {seam_h:.2e}; 200-step sweep "
               f"monotone={bool(mono)}", elapsed, 5.0)


def test_criterion_3_nestedness_and_ball():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    nest_violations = 0
    ball_violations = 0
    per_poly = 20_000
    for _ in range(5):
        poly = random_polygon(rng, k=9)
        fam = build_family(poly)
        v = np.sort(rng.uniform(1e-3 * fam.v_max, fam.v_max, size=(per_poly, 2)), axis=1)
        lo = poly.vertices.min(axis=0) - 0.1
        hi = poly.vertices.max(axis=0) + 0.1
        pts = rng.uniform(lo, hi, size=(per_poly, 2))
        m1 = fam.member(v[:, 0], pts)
        m2 = fam.member(v[:, 1], pts)
        nest_violations += int(np.count_nonzero(m1 & ~m2))
        n_ball = 2000
        ang = rng.uniform(0, 2 * np.pi, n_ball)
        rad = fam.balls.inradius * np.sqrt(rng.uniform(0, 1, n_ball)) * (1 - 1e-9)
        bpts = fam.balls.midpoint + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        bv = rng.uniform(fam.balls.ball_measure, fam.v_max, n_ball)
        ball_violations += int(np.count_nonzero(~fam.member(bv, bpts)))
    elapsed = time.perf_counter() - t0
    ok = nest_violations == 0 and ball_violations == 0
    _criterion(3, ok, f"nestedness violations={nest_violations}/100000, "
               f"ball containment violations={ball_violations}/10000",
               elapsed, 30.0)


def test_criterion_4_competitor_sweep(square_family, rect_family):
    t0 = time.perf_counter()
    cases = [(square_family, 0.9), (rect_family, 1.2), (rect_family, 1.9)]
    total_viol = 0
    min_gaps = []
    for fam, v in cases:
        report = orc.verify_minimality(fam, v, 10_000, seed=100)
        total_viol += len(report.violations)
        min_gaps.append(report.min_gap)
    elapsed = time.perf_counter() - t0
    ok = total_viol == 0
    _criterion(4, ok, f"violations={total_viol}/30000, min gaps="
               + ", ".join(f"{g:.3e}" for g in min_gaps), elapsed, 60.0)


def test_criterion_5_annealing_oracle(square, square_family):
    t0 = time.perf_counter()
    best = None
    for seed in range(3):
        res = orc.anneal_discrete(square, 0.9, 64, seed=seed)
        if best is None or res.perimeter < best:
            best = res.perimeter
    ratio = best / P9
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1.0) <= 0.05
    _criterion(5, ok, f"best of 3 = {best:.6f}, analytic {P9:.6f}, "
               f"ratio {ratio:.4f}", elapsed, 300.0)


def test_criterion_6_rearrangement(square, square_family):
    t0 = time.perf_counter()
    u = cone_grid(square, 256)
    ut = rr.convex_rearrangement(u, square_family)
    rep = rr.rearrangement_report(u, ut, 256)
    gap = rep.bv_u[2] - rep.bv_ut[2]
    # reference gap: quadrature of the level-perimeter difference
    ts = (np.arange(4096) + 0.5) * (0.5 / 4096)
    ref = float(np.sum((4 - 8 * ts)
                       - square_family.perimeter((1 - 2 * ts) ** 2)) * (0.5 / 4096))
    elapsed = time.perf_counter() - t0
    ok = (rep.equimeasurable_pass and rep.bv_pass and rep.convexity_pass
          and rep.bv_ut[2] <= rep.bv_u[2] and gap >= 0.01 and ref > 0)
    _criterion(6, ok, f"eq defect max={rep.max_eq_defect:.2e} (bounds hold), "
               f"bv gap={gap:.4f} (closed-form reference {ref:.4f}), "
               f"convex levels={bool(rep.convexity_pass)}", elapsed, 120.0)


def test_criterion_7_fixed_point(square, square_family):
    t0 = time.perf_counter()
    u0 = rr.GridFunction.for_domain(square, 256)
    h = float(u0.spacing[0])
    centers = u0.centers().reshape(-1, 2)
    inside = square_family.member(0.9, centers).reshape(u0.values.shape)
    u = u0.with_values(inside.astype(float))
    ut = rr.convex_rearrangement(u, square_family)
    differ = ut.values != u.values
    layer_ok = True
    if differ.any():
        pts = u0.centers()[differ]
        r = square_family.radius_for_volume(0.9)
        d = square_family.structure.distance_to_core(pts, np.full(len(pts), r))
        layer_ok = bool(np.all(np.abs(d - r) <= 2.0 * h * np.sqrt(2.0)))
    bv_u = rr.bv_norm_estimate(u, 64)
    bv_t = rr.bv_norm_estimate(ut, 64)
    rel = abs(bv_t[2] - bv_u[2]) / bv_u[2]
    elapsed = time.perf_counter() - t0
    ok = layer_ok and rel <= 0.02
    _criterion(7, ok, f"{int(differ.sum())} differing cells all within a "
               f"2-cell boundary layer={layer_ok}, BV rel diff={rel:.4f}",
               elapsed, 30.0)


def test_criterion_8_estimator_sanity(square):
    t0 = time.perf_counter()
    u = disk_indicator_grid(square, 258, (0.5, 0.5), 0.3)  # h = 1/256
    h = float(u.spacing[0])
    ms = rr.level_perimeter(u, 0.5)
    cro = oracles.chain(u.values > 0.5, h).energy
    true = 2 * np.pi * 0.3
    ms_err = abs(ms / true - 1.0)
    cro_err = abs(cro / true - 1.0)
    n = 256
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs)
    axis = (np.abs(X - 0.5) <= 0.25) & (np.abs(Y - 0.5) <= 0.25)
    rot = (np.abs(X - 0.5) + np.abs(Y - 0.5)) <= 0.25 * np.sqrt(2)
    p_axis = oracles.chain(axis, 1.0 / n).energy
    p_rot = oracles.chain(rot, 1.0 / n).energy
    rot_dev = abs(p_rot / p_axis - 1.0)
    elapsed = time.perf_counter() - t0
    ok = ms_err <= 0.02 and cro_err <= 0.02 and rot_dev <= 0.03
    _criterion(8, ok, f"disk: marching-squares err={ms_err:.4f}, "
               f"crofton err={cro_err:.4f}; rotated-square dev={rot_dev:.4f}",
               elapsed, 10.0)
