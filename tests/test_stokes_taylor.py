"""Tests for the Taylor-recurrence continuation behind the numerical Stokes
oracle, and for bridge draws whose lattice coefficients reach 2e8 or whose
seed point lies near or below 1e-12.

Independent oracles: the exact solution e^{Uz} z^{Phi} of a diagonal system
on its tracked sheet, the Dormand-Prince integrator of ``ode_engine`` on a
non-diagonal system, and the closed-form Stokes pair through the bridge.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from isolab import stokes_numeric
from isolab.arrows import arrow_g, arrow_q
from isolab.cli_harness import (SampleSpec, U_BASE, bridged_phi_at_u0, sample_parameters,
                                stokes_checks)
from isolab.errors import BudgetError, DomainError
from isolab.ode_engine import integrate
from isolab.stokes_numeric import (IrregularSystem, canonical_frame, continue_frame,
                                   default_radius, formal_series_coefficients,
                                   stokes_matrices)

U3 = np.array([0.0, 1.0j, 3.0j])
PHI_DIAG = np.diag([0.21 + 0.1j, -0.33, 0.41 - 0.05j])
#: TOL_STOKES_ENTRY and TOL_STOKES_TRI of the acceptance gate
#: (tests/test_acceptance.py)
TOL_STOKES_ENTRY = 1e-6
TOL_STOKES_TRI = 1e-6


def _arc(rho, theta0, theta1, n=64):
    return [rho * cmath.exp(1j * th) for th in np.linspace(theta0, theta1, n + 1)]


def _integrate_polygon(rhs, vertices, y0, **tols):
    """Integrate dy/dz = rhs(z, y) along each straight segment by arclength."""
    y = y0
    for za, zb in zip(vertices[:-1], vertices[1:]):
        length = abs(zb - za)
        direction = (zb - za) / length
        y = integrate(lambda t, state: direction * rhs(za + direction * t, state),
                      0.0, length, y, **tols).y_end
    return y


def _exact(z, log_z):
    """e^{Uz} z^{Phi} for the diagonal residue, with log z given."""
    return np.diag(np.exp(U3 * z + np.diag(PHI_DIAG) * log_z))


def _nondiagonal_case():
    """A non-diagonal system, a lower dumbbell of radius 8 and a start frame."""
    rng = np.random.default_rng(11)
    phi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    contour = [8.0] + _arc(1.5, 0.0, -math.pi, 16) + [-8.0]
    return IrregularSystem(U3, phi), contour, np.eye(3, dtype=complex) + 0.1 * phi


class TestTaylorContinuation:
    """The frame continuation of ``continue_frame`` and ``stokes_matrices``."""

    @pytest.mark.parametrize("start, log_start, arc, end, log_end", [
        # plus frame: arg 0 -> -pi through the lower half-plane
        (60.0, math.log(60.0), (0.0, -math.pi), -60.0, math.log(60.0) - 1j * math.pi),
        # minus frame: arg -pi -> -2 pi through the upper half-plane
        (-60.0, math.log(60.0) - 1j * math.pi, (-math.pi, -2.0 * math.pi), 60.0,
         math.log(60.0) - 2j * math.pi),
    ])
    def test_diagonal_dumbbell_matches_exact_solution(self, start, log_start, arc,
                                                      end, log_end):
        system = IrregularSystem(U3, PHI_DIAG)
        contour = [start] + _arc(1.5, *arc) + [end]
        got = continue_frame(system, _exact(start, log_start), contour)
        want = _exact(end, log_end)
        assert np.all(got[~np.eye(3, dtype=bool)] == 0)
        rel = np.abs(np.diag(got) - np.diag(want)) / np.abs(np.diag(want))
        assert np.max(rel) < 1e-12

    def test_matches_dp5_on_nondiagonal_system(self):
        system, contour, f0 = _nondiagonal_case()

        def rhs(z, state):
            return ((np.diag(U3) + system.phi / z) @ state.reshape(3, 3)).ravel()

        ode = _integrate_polygon(rhs, contour, f0.ravel(), rtol=1e-12,
                                 atol=1e-14).reshape(3, 3)
        got = continue_frame(system, f0, contour)
        assert np.max(np.abs(got - ode)) / np.max(np.abs(ode)) < 1e-10

    def test_right_linear_in_the_frame(self):
        # each step's transition acts on the frame from the left, so a
        # frame F0 C continues to F C
        system, contour, f0 = _nondiagonal_case()
        c = np.array([[1.0, 0.5j, -0.2], [0.3, 2.0, 0.1 - 0.4j], [-0.7j, 0.2, 0.5]])
        want = continue_frame(system, f0, contour) @ c
        got = continue_frame(system, f0 @ c, contour)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_batches_of_steps_agree_with_one_batch(self, monkeypatch):
        # the 78 steps of the default contour (39 per frame sign) fit one
        # batch; batches of 5 steps end inside both legs
        system, _, _ = _nondiagonal_case()
        whole = stokes_matrices(system)
        monkeypatch.setattr(stokes_numeric, "_BATCH_STEPS", 5)
        split = stokes_matrices(system)
        assert split.steps == whole.steps == 78
        assert split.terms == whole.terms
        assert split.tail_bound == pytest.approx(whole.tail_bound, rel=1e-12)
        for got, want in ((split.s_plus, whole.s_plus), (split.s_minus, whole.s_minus)):
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13

    def test_term_cap_raises_budget_error(self, monkeypatch):
        system = IrregularSystem(U3, PHI_DIAG)
        monkeypatch.setattr(stokes_numeric, "_MAX_TERMS", 3)
        # the one step of the plan, from z = 4 to 2, is named
        with pytest.raises(BudgetError,
                           match=r"Taylor step -2\+0j at z = 4\+0j did not converge"):
            continue_frame(system, np.eye(3, dtype=complex), [4.0, 2.0])

    def test_contour_through_origin_rejected(self):
        system = IrregularSystem(U3, PHI_DIAG)
        with pytest.raises(DomainError, match="Fuchsian"):
            continue_frame(system, np.eye(3, dtype=complex), [2.0, -2.0])

    def test_nonpositive_rtol_rejected(self):
        system = IrregularSystem(U3, PHI_DIAG)
        with pytest.raises(DomainError, match="rtol"):
            continue_frame(system, np.eye(3, dtype=complex), [4.0, 2.0], rtol=0.0)

    def test_result_reports_repeatable_work(self):
        system = IrregularSystem(U3, PHI_DIAG)
        first = stokes_matrices(system)
        again = stokes_matrices(system)
        assert first.steps > 0 and first.terms > first.steps
        assert (first.steps, first.terms, first.tail_bound) == (
            again.steps, again.terms, again.tail_bound)
        # the step plan of the default contour (radius 20, 8-chord arcs),
        # counted over the four continuations
        assert first.steps == 78
        # four continuations, each holding its summed tail near rtol
        assert 0.0 < first.tail_bound < 4e-12

    def test_stokes_matrices_term_cap_raises_budget_error(self, monkeypatch):
        monkeypatch.setattr(stokes_numeric, "_MAX_TERMS", 3)
        with pytest.raises(BudgetError, match="did not converge"):
            stokes_matrices(IrregularSystem(U3, PHI_DIAG))

    def test_stokes_matrices_rejects_nonpositive_rtol(self):
        with pytest.raises(DomainError, match="rtol"):
            stokes_matrices(IrregularSystem(U3, PHI_DIAG), rtol=0.0)


def _four_continuations(system: IrregularSystem, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(S+, S-) composed from one-frame continuations on the contour of a
    ``stokes_matrices`` run: radius ``r``, 8-chord arcs, and the series order
    that both plan from the tail at 2r.

    Each canonical frame is made at its own base point, and each frame is
    continued along its own dumbbell, the upper one drawn from its own arc.
    """
    ln_r = math.log(r)
    f_plus = canonical_frame(system, r, ln_r)
    f_minus = canonical_frame(system, -r, ln_r - 1j * math.pi)
    fp_cont = continue_frame(system, f_plus, [r] + _arc(1.5, 0.0, -math.pi, 8) + [-r])
    fm_cont = continue_frame(system, f_minus,
                             [-r] + _arc(1.5, -math.pi, -2.0 * math.pi, 8) + [r])
    e_minus = np.exp(-1j * math.pi * np.diag(system.phi))
    return (e_minus[:, None] * np.linalg.solve(f_minus, fp_cont),
            np.linalg.solve(f_plus, fm_cont) / e_minus[None, :])


class TestStackedContinuation:
    """``stokes_matrices`` steps the mirrored continuations as one stack."""

    @pytest.mark.parametrize("which", ["diagonal", "bridged"])
    def test_matches_four_separate_continuations(self, which):
        if which == "diagonal":
            system = IrregularSystem(U3, PHI_DIAG)
        else:
            d = sample_parameters(SampleSpec(seed=2026, narrow=True), 0)
            system = IrregularSystem(U_BASE, bridged_phi_at_u0(d))
        got = stokes_matrices(system)
        for stacked, single in zip((got.s_plus, got.s_minus),
                                   _four_continuations(system, got.radius)):
            rel = np.max(np.abs(stacked - single)) / np.max(np.abs(single))
            assert rel <= 1e-12


def _bridged_system(seed: int, index: int) -> IrregularSystem:
    d = sample_parameters(SampleSpec(seed=seed, narrow=True), index)
    return IrregularSystem(U_BASE, bridged_phi_at_u0(d))


class TestContourPlan:
    """The default contour is planned from the formal series."""

    def test_order_is_smallest_meeting_the_tail(self):
        system = _bridged_system(2026, 0)
        got = stokes_matrices(system, rtol=1e-12)
        assert got.radius == default_radius(system) == 20.0
        hs = formal_series_coefficients(system, got.order)
        terms = [float(np.max(np.abs(h))) * (2.0 * got.radius) ** -m
                 for m, h in enumerate(hs, 1)]
        target = 1e-3 * 1e-12
        assert got.order == 21
        assert terms[-1] <= target
        assert all(t > target for t in terms[8:-1])
        assert got.series_tail_estimate == terms[-1]

    def test_step_tail_does_not_loosen_on_a_short_plan(self):
        # every step of the 78-step plan of the radius-20, 8-chord-arc
        # contour sums its terms down to rtol / 1000, not rtol / (steps in
        # the plan)
        rtol = 1e-12
        got = stokes_matrices(IrregularSystem(U3, PHI_DIAG), rtol=rtol)
        assert got.steps == 78
        assert got.tail_bound <= 1e-3 * rtol * got.steps

    def test_largest_radius_draw_agrees(self):
        # seed 1046 draw 2 has the largest default radius (74) of the narrow
        # draws 0-2 of seeds 1000-1199
        d = sample_parameters(SampleSpec(seed=1046, narrow=True), 2)
        closed = arrow_g(arrow_q(d))
        num = stokes_matrices(IrregularSystem(U_BASE, bridged_phi_at_u0(d)),
                              rtol=1e-12)
        assert num.radius > 70.0
        err = dict(stokes_checks(closed, num))
        assert err["stokes_entry"] < TOL_STOKES_ENTRY
        assert err["stokes_triangularity"] < TOL_STOKES_TRI


def _bridged_entry_error(seed: int, index: int) -> float:
    d = sample_parameters(SampleSpec(seed=seed, narrow=True), index)
    closed = arrow_g(arrow_q(d))
    num = stokes_matrices(IrregularSystem(U_BASE, bridged_phi_at_u0(d)), rtol=1e-12)
    return dict(stokes_checks(closed, num))["stokes_entry"]


class TestBridgeRegression:
    """Draws that once failed the bridge now bridge and agree with arrow_g."""

    def test_seed_1007_draw_1_bridges_and_agrees(self):
        # its lattice coefficients reach 2e8
        assert _bridged_entry_error(1007, 1) < TOL_STOKES_ENTRY

    @pytest.mark.parametrize("seed", [1038, 7005])
    def test_draw_1_seeded_near_1e_12_bridges_and_agrees(self, seed):
        # seeded at x0 ~ 1e-12, where a span-relative step floor
        # 1e-13 * (1/3 - x0) would be 1-3% of x0; a fifth-order pair needed
        # smaller steps than that and raised a false SingularityError
        assert _bridged_entry_error(seed, 1) < TOL_STOKES_ENTRY

    @pytest.mark.parametrize("seed, index", [(1002, 0), (1059, 1)])
    def test_seeded_below_1e_12_bridges_and_agrees(self, seed, index):
        # the seed's descent meets its target at 6e-13 and 3e-13; it once
        # gave up one halving early, at a floor of 1e-12
        assert _bridged_entry_error(seed, index) < TOL_STOKES_ENTRY
