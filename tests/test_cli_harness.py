"""End-to-end tests for the command-line harness.

Every subcommand is exercised in-process through ``main`` with a temporary
output directory, so the tests cover argument parsing, report
serialization, and exit-code mapping in one pass.  Heavy subcommands
run with deliberately small sample counts; the full-size configurations are
exercised by the acceptance suite.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from isolab import arrows, cli_harness, core_linalg, jmms_flow, pvi_trajectory, stokes_numeric
from isolab.arrows import arrow_q, genericity_margin
from isolab.cli_harness import (
    J_MODULUS,
    RE_SIGMA,
    TOLERANCES,
    U_BASE,
    SampleSpec,
    _build_parser,
    bridged_phi_at_u0,
    closed_form_checks,
    flow_checks,
    ladder_checks,
    main,
    sample_parameters,
    shrink_checks,
    shrink_sample,
    stokes_checks,
)
from isolab.errors import ConfigError, DomainError, SingularityError
from isolab.ode_engine import integrate

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_csv_mirrors_rows(path: Path, rows: list[dict], columns: list[str]) -> None:
    """The CSV has exactly ``columns``, in order, and the JSON rows' values, bools as 0/1."""
    header, *lines = read_csv(path)
    assert header == columns
    assert sorted(header) == sorted(rows[0])
    assert [dict(zip(header, line)) for line in lines] == [
        {k: str(int(v) if isinstance(v, bool) else v) for k, v in r.items()}
        for r in rows]


class TestSampleParameters:
    """Deterministic rejection sampler behind every subcommand."""

    def test_draws_are_generic_and_in_range(self):
        spec = SampleSpec()
        for index in range(20):
            d = sample_parameters(spec, index)
            assert genericity_margin(d) >= spec.margin
            assert RE_SIGMA[0] <= d.sigma.real <= RE_SIGMA[1]
            assert J_MODULUS[0] <= abs(d.J) <= J_MODULUS[1]

    def test_index_addressable_and_order_independent(self):
        # Each index seeds its own generator, so sample 7 does not depend
        # on whether samples 0..6 were drawn first.
        spec = SampleSpec()
        direct = sample_parameters(spec, 7)
        for i in range(7):
            sample_parameters(spec, i)
        again = sample_parameters(spec, 7)
        assert direct == again

    def test_seed_changes_the_draw(self):
        a = sample_parameters(SampleSpec(seed=2026), 0)
        b = sample_parameters(SampleSpec(seed=2027), 0)
        assert a.sigma != b.sigma

    def test_narrow_mode_tightens_the_window(self):
        spec = SampleSpec(narrow=True)
        for index in range(10):
            d = sample_parameters(spec, index)
            assert abs(d.sigma) >= 0.3
            assert min(d.sigma.real, 1.0 - d.sigma.real) >= 0.2
            assert 0.7 <= abs(d.J) <= 1.4

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            sample_parameters(SampleSpec(margin=0.0), 0)

    def test_unattainable_margin_exhausts_the_budget(self):
        with pytest.raises(ConfigError):
            sample_parameters(SampleSpec(margin=0.9), 0)


class TestShrinkSample:
    """Sampler used for the shrinking-band rays."""

    def test_filters_on_sigma_exponent(self):
        spec = SampleSpec()
        d, idx = shrink_sample(spec, 0)
        assert min(d.sigma.real, 1.0 - d.sigma.real) >= 0.3
        assert idx >= 0

    def test_deterministic_and_disjoint_scan_windows(self):
        spec = SampleSpec()
        first = shrink_sample(spec, 0)
        assert shrink_sample(spec, 0) == first
        other = shrink_sample(spec, 100)
        assert other[1] >= 100

    def test_impossible_filter_reports_exhaustion(self):
        with pytest.raises(ConfigError):
            shrink_sample(SampleSpec(), 0, min_exponent=0.499999)


class TestBridgeConstants:
    """Pinned defaults shared by the stokes and jmms subcommands."""

    def test_base_point_is_the_imaginary_axis_triple(self):
        assert np.array_equal(U_BASE, np.array([0.0, 1.0j, 3.0j]))

    def test_bridge_preserves_the_flow_invariants(self):
        # The bridge transports the residue along the isomonodromic flow to
        # the cross-ratio of U_BASE, so individual entries move; the diagonal
        # and the spectrum are conserved and must match the boundary value.
        d = sample_parameters(SampleSpec(narrow=True), 0)
        phi = bridged_phi_at_u0(d)
        phi0 = arrow_q(d).phi0
        np.testing.assert_allclose(np.diag(phi), np.diag(phi0), atol=1e-12)
        key = lambda v: sorted(v, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(key(np.linalg.eigvals(phi)),
                                   key(np.linalg.eigvals(phi0)), atol=1e-7)
        assert np.max(np.abs(phi - phi0)) > 1e-2


class TestBridgeIntegration:
    """The bridge steps in t = log x, in few steps and accurately at its defaults."""

    def test_narrow_draw_0_takes_few_steps(self, monkeypatch):
        # stepped in x at rtol 1e-11, the same bridge needs 238 steps
        seen = []

        def counting(*args, **kwargs):
            sol = integrate(*args, **kwargs)
            seen.append(sol.naccept + sol.nreject)
            return sol

        monkeypatch.setattr(pvi_trajectory, "integrate", counting)
        bridged_phi_at_u0(sample_parameters(SampleSpec(seed=2026, narrow=True), 0))
        assert 0 < sum(seen) <= 130

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_default_agrees_with_a_tight_reference(self, index, monkeypatch):
        d = sample_parameters(SampleSpec(seed=2026, narrow=True), index)
        got = bridged_phi_at_u0(d)
        monkeypatch.setattr(cli_harness, "_BRIDGE_RTOL", 1e-14)
        ref = bridged_phi_at_u0(d)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


class _Recorder:
    """A module whose calls keep their last result, by function name."""

    def __init__(self, module):
        self._module = module
        self.last = {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.last[name] = result = attr(*args, **kwargs)
            return result

        return call


class TestChecksMatchTheBenchmark:
    """The shared checks return the benchmark's (name, error) pairs, bit for bit.

    Each workload runs one seed-2026 item on the isolab modules already
    imported here; the recorded outputs of that run then go through the
    shared checks.
    """

    def test_one_item_of_each_kind(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        lib = SimpleNamespace(**{m.__name__.split(".")[-1]: _Recorder(m) for m in (
            arrows, cli_harness, jmms_flow, pvi_trajectory, stokes_numeric)})
        tol = defaultdict(float)  # the tolerances do not enter the errors

        def bench(name, item):
            run = workloads.WORKLOADS[name].run
            return [(check, err) for check, err, _ in run(lib, tol, item)]

        def first(name):
            return workloads.WORKLOADS[name].generate(lib, 2026, 1)

        d = first("closed_form")[0]
        got = bench("closed_form", d)
        # the Q^-1 checks that follow have no acceptance criterion, and the
        # benchmark does not compute the shared check's ungated fifth pair
        assert got[:4] == closed_form_checks(
            d, lib.arrows.last["arrow_p"], lib.arrows.last["arrow_f"])[:4]

        d = first("stokes_oracle")[0]
        got = bench("stokes_oracle", d)
        assert got == stokes_checks(lib.arrows.last["arrow_g"],
                                    lib.stokes_numeric.last["stokes_matrices"])

        # round 0: ladders at Re sigma 0.25, 0.5, 0.75, walks at n = 3, 4, rays
        items = first("ladder_flow")
        ladder, walk, ray = items[1], items[3], items[5]
        (_, d), (_, (_, phi)) = ladder, walk
        assert d.sigma.real == 0.5 and phi.shape == (3, 3)
        got = bench("ladder_flow", ladder)
        assert got == ladder_checks(d, lib.pvi_trajectory.last["regularized_limits"])
        got = bench("ladder_flow", walk)
        assert got == flow_checks(phi, lib.jmms_flow.last["flow_path"])
        got = bench("ladder_flow", ray)
        assert got == shrink_checks(ray[1], lib.jmms_flow.last["shrinking_check"])


class TestRoundtripCommand:
    def test_reports_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["roundtrip", "--samples", "4", "--out", str(out1)]) == 0
        line = capsys.readouterr().out
        assert "roundtrip: 4/4 samples passed" in line

        payload = read_json(out1 / "roundtrip.json")
        assert payload["command"] == "roundtrip"
        assert payload["failures"] == 0
        assert payload["samples"] == 4
        assert len(payload["results"]) == 4
        tol = payload["tolerances"]
        assert tol == {"roundtrip_err": 1e-8, "cubic": 1e-8, "p12_err": 1e-10,
                       "identity": 1e-9}
        for key, bound in tol.items():
            assert payload[f"max_{key}"] < bound

        row = payload["results"][0]
        assert set(row) == {"index", "roundtrip_err", "cubic", "p12_err",
                            "identity", "trace_closed_form_err", "pass"}

        assert_csv_mirrors_rows(out1 / "roundtrip.csv", payload["results"], [
            "index", "roundtrip_err", "cubic", "p12_err", "identity",
            "trace_closed_form_err", "pass"])

        # Same arguments produce byte-identical reports.
        main(["roundtrip", "--samples", "4", "--out", str(out2)])
        assert (out1 / "roundtrip.json").read_bytes() == \
            (out2 / "roundtrip.json").read_bytes()

    def test_unattainable_tolerance_fails_with_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(TOLERANCES, "roundtrip", 1e-30)
        rc = main(["roundtrip", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 1
        payload = read_json(tmp_path / "roundtrip.json")
        assert payload["failures"] == 2
        assert payload["tolerances"]["roundtrip_err"] == 1e-30
        assert not payload["results"][0]["pass"]

    def test_closed_form_traces_once_per_sample(self, monkeypatch):
        traces, calls = arrows._closed_form_traces, []

        def counting(d):
            calls.append(d)
            return traces(d)

        for module in (arrows, cli_harness):
            monkeypatch.setattr(module, "_closed_form_traces", counting)
        assert main(["roundtrip", "--samples", "3"]) == 0
        assert len(calls) == 3


class TestLimitsCommand:
    def test_ladder_report_passes(self, tmp_path, capsys):
        rc = main(["limits", "--sigma-re", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        payload = read_json(tmp_path / "limits.json")
        assert payload["pass"] is True
        assert payload["sigma"] == [0.5, 0.05]
        assert payload["tolerances"] == {"entrywise_err": 1e-4,
                                         "y_correction_exponent": 0.1}
        assert payload["entrywise_err"] < 1e-4
        assert payload["expected_exponent"] == 0.5
        assert abs(payload["y_correction_exponent"] - 0.5) < 0.1
        assert payload["ladder"][0] == pytest.approx(1e-6)
        assert "degraded" in payload
        # one row per ladder point; the unextrapolated value converges like
        # x^(1/2), and each is farther from Phi0 than the extrapolated limit
        header, *rows = read_csv(tmp_path / "limits.csv")
        assert header == ["x", "entrywise_err_vs_closed_form"]
        assert [float(x) for x, _ in rows] == payload["ladder"]
        errs = [float(e) for _, e in rows]
        assert errs == sorted(errs)
        assert payload["entrywise_err"] < errs[0] < 1e-3

    def test_movable_pole_produces_partial_report(self, tmp_path, monkeypatch,
                                                  capsys):
        def explode(d, **kwargs):
            raise SingularityError("movable pole near the seed",
                                   location=0.0371 + 0.002j)

        monkeypatch.setattr(cli_harness, "regularized_limits", explode)
        rc = main(["limits", "--sigma-re", "0.45", "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        payload = read_json(tmp_path / "limits.json")
        assert payload["partial"] is True
        assert payload["pass"] is False
        assert payload["pole_location"] == [0.0371, 0.002]

    def test_margin_violating_sigma_is_a_config_error(self, tmp_path):
        rc = main(["limits", "--sigma-re", "0.999", "--out", str(tmp_path)])
        assert rc == 2


class TestStokesCommand:
    def test_single_sample_run(self, tmp_path, capsys):
        rc = main(["stokes", "--samples", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "1/1 samples passed" in capsys.readouterr().out
        payload = read_json(tmp_path / "stokes.json")
        assert payload["failures"] == 0
        assert payload["tolerances"] == {"entrywise_err": 1e-6,
                                         "triangularity_residual": 1e-6,
                                         "diag_residual": 1e-8}
        assert payload["max_entrywise_err"] < 1e-6
        assert payload["max_triangularity_residual"] < 1e-6
        assert payload["max_diag_residual"] < 1e-8
        row = payload["results"][0]
        assert row["pass"] is True
        assert row["monodromy_mismatch"] < 1e-6

    @pytest.mark.parametrize("check", ["stokes_triangularity", "stokes_diagonal"])
    def test_structural_miss_fails_with_exit_1(self, check, tmp_path, monkeypatch):
        monkeypatch.setitem(TOLERANCES, check, 0.0)
        rc = main(["stokes", "--samples", "1", "--out", str(tmp_path)])
        assert rc == 1
        payload = read_json(tmp_path / "stokes.json")
        assert payload["failures"] == 1
        row = payload["results"][0]
        assert row["entrywise_err"] < TOLERANCES["stokes_entry"]
        assert row["pass"] is False

    def test_reports_contour_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["stokes", "--samples", "1", "--out", str(out)]) == 0
        for name in ("stokes.json", "stokes.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = read_json(out1 / "stokes.json")["results"]
        # narrow draw 0 at seed 2026: radius 20, series planned to order 21
        assert (rows[0]["radius"], rows[0]["series_order"]) == (20.0, 21)
        assert_csv_mirrors_rows(out1 / "stokes.csv", rows, [
            "index", "entrywise_err", "triangularity_residual", "diag_residual",
            "monodromy_mismatch", "radius", "series_order", "taylor_steps",
            "taylor_terms", "tail_bound", "pass"])


class TestJmmsCommand:
    def test_small_configuration_passes(self, tmp_path, capsys):
        rc = main(["jmms", "--samples", "1", "--shrink-samples", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "jmms.json")
        assert capsys.readouterr().out == (
            "jmms: 2/2 checks passed "
            f"(max equivalence {payload['max_equivalence']:.3e}, "
            f"max band err {payload['max_band_err']:.3e})\n")
        assert payload["failures"] == 0
        assert payload["tolerances"] == {"equivalence": 1e-13, "diag_drift": 1e-10,
                                         "spectral_drift": 1e-8, "band_err": 1e-3}
        assert payload["max_equivalence"] < 1e-13
        assert payload["max_diag_drift"] < 1e-10
        assert payload["max_spectral_drift"] < 1e-8
        assert payload["max_band_err"] < 1e-3
        assert len(payload["shrink_results"]) == 1
        assert payload["shrink_results"][0]["reach"] == 1e10
        assert_csv_mirrors_rows(tmp_path / "jmms.csv", payload["results"], [
            "index", "n", "equivalence", "diag_drift", "spectral_drift", "pass"])

    def test_no_ray_prints_none(self, capsys):
        assert main(["jmms", "--samples", "1", "--shrink-samples", "0"]) == 0
        assert capsys.readouterr().out.endswith(", max band err none)\n")

    def test_colliding_walk_is_retried_with_shorter_steps(self, tmp_path,
                                                           monkeypatch):
        walks = []

        def collide_once(pts, phi, **kwargs):
            walks.append(pts)
            if len(walks) == 1:
                raise DomainError("u-coordinates collide")
            return jmms_flow.flow_path(pts, phi, **kwargs)

        monkeypatch.setattr(cli_harness, "flow_path", collide_once)
        rc = main(["jmms", "--samples", "1", "--shrink-samples", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "jmms.json")["failures"] == 0
        first, retry = walks
        # the retry starts at the same point, and its 30 complex normal steps
        # are scaled by 0.15 instead of 0.3
        assert retry[0] is first[0]
        rms = [np.sqrt(np.mean(np.abs(np.diff(w, axis=0)) ** 2)) for w in walks]
        assert 0.35 < rms[1] / rms[0] < 0.7


class TestOptions:
    def test_each_subcommand_has_exactly_these_options(self):
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
        common = {"--seed", "--margin", "--out"}
        assert got == {
            "roundtrip": common | {"--samples"},
            "limits": common | {"--sigma-re", "--sigma-im"},
            "stokes": common | {"--samples"},
            "jmms": common | {"--samples", "--shrink-samples"},
        }

    def test_oracle_entry_points_have_exactly_these_keywords(self):
        def keywords(fn):
            return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                    if p.kind is p.KEYWORD_ONLY or p.default is not p.empty}

        got = {fn.__name__: keywords(fn) for fn in (
            jmms_flow.shrinking_check, stokes_numeric.stokes_matrices,
            cli_harness.bridged_phi_at_u0, pvi_trajectory.regularized_limits,
            pvi_trajectory.b_matrix, core_linalg.eigen3, jmms_flow.flow_path,
            pvi_trajectory.seed_asymptotic)}
        assert got == {
            "shrinking_check": {"reach": 1e8},
            "stokes_matrices": {"rtol": 1e-12},
            "bridged_phi_at_u0": {},
            "regularized_limits": {"x_small": 1e-6, "n_ladder": 14},
            "b_matrix": {},
            "eigen3": {},
            "flow_path": {"rtol": 1e-12},
            "seed_asymptotic": {"target_rel": None},
        }
        # every keyword the benchmark's workloads pass to these is accepted
        tree = ast.parse(WORKLOADS_PY.read_text(encoding="utf-8"))
        passed = {(node.func.attr, kw.arg) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in got for kw in node.keywords}
        assert passed == {("stokes_matrices", "rtol"), ("regularized_limits", "x_small"),
                          ("regularized_limits", "n_ladder"), ("flow_path", "rtol"),
                          ("shrinking_check", "reach")}
        assert all(kw in got[name] for name, kw in passed)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["roundtrip", "--samples", "1", "--margin", "0"],
        ["roundtrip", "--samples", "0"],
        ["stokes", "--samples", "0"],
        ["jmms", "--samples", "0", "--shrink-samples", "0"],
        ["jmms", "--samples", "1", "--shrink-samples", "-2"],
    ], ids=["margin_0", "roundtrip_samples_0", "stokes_samples_0", "jmms_samples_0",
            "jmms_shrink_samples_negative"])
    def test_configuration_errors_exit_2(self, argv, tmp_path, capsys):
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_subcommand_is_a_usage_error(self):
        for argv in ([], ["convert"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2


class TestModuleEntryPoint:
    def test_runs_as_main_module_without_runtime_warning(self):
        # runpy warns (here: fails) when the package has imported the module
        # it is asked to run as __main__
        src = str(Path(cli_harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "isolab.cli_harness", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout
