import inspect
from collections import Counter

import numpy as np
import pytest

from eitcool import ConfigurationError
from eitcool import liouvillian, physics, subspace, sweep

from conftest import bench_params


FAST = dict(n_max=6)


class TestSweepSpecValidation:
    def base(self):
        return bench_params(15.0, 15.0)

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="nu", grid=(1.0,),
                            base=self.base(), estimators=("eq1",))

    def test_empty_grid(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="omega_g", grid=(),
                            base=self.base(), estimators=("eq1",))

    def test_non_increasing_grid(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="omega_g", grid=(2.0, 2.0),
                            base=self.base(), estimators=("eq1",))

    def test_empty_estimators(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="omega_g", grid=(2.0, 3.0),
                            base=self.base(), estimators=())

    def test_unknown_estimator(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="omega_g", grid=(2.0, 3.0),
                            base=self.base(), estimators=("eq99",))

    def test_non_finite_grid(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="omega_g", grid=(2.0, float("nan")),
                            base=self.base(), estimators=("eq1",))

    def test_gamma_grid_exceeding_total(self):
        with pytest.raises(ConfigurationError):
            sweep.SweepSpec(vary="gamma_g", grid=(5.0, 25.0),
                            base=self.base(), estimators=("eq1",))


class TestLocks:
    def test_omega_ratio_lock(self):
        spec = sweep.builtin_figure3("a")
        p = sweep.params_at(spec, 6.0)
        assert p.omega_g == 6.0
        assert p.omega_r == pytest.approx(30.0)
        assert p.delta == pytest.approx((36.0 + 900.0) / 4.0)

    def test_eta_equal_lock(self):
        spec = sweep.builtin_figure3("c")
        p = sweep.params_at(spec, 0.2)
        assert p.eta_g == 0.2 and p.eta_r == 0.2

    def test_gamma_total_lock(self):
        spec = sweep.builtin_figure3("e")
        p = sweep.params_at(spec, 3.0)
        assert p.gamma_g == 3.0
        assert p.gamma_r == pytest.approx(17.0)
        assert p.gamma_total == pytest.approx(20.0)

    def test_delta_override_propagates(self):
        spec = sweep.builtin_figure3("a")
        spec = sweep.SweepSpec(**{**spec.__dict__, "delta_override": 99.0})
        assert sweep.params_at(spec, 6.0).delta == 99.0


class TestRunPoint:
    def test_equal_drive_benchmark_column(self):
        row = sweep.run_point(bench_params(15.0, 15.0), ("eq17",), **FAST)
        assert row.nbar["eq17"] == pytest.approx(1.885030864197531e-2, rel=1e-12)

    def test_degenerate_point_is_flagged_not_fatal(self):
        p = bench_params(15.0, 15.0, eta_g=0.0, eta_r=0.0)
        row = sweep.run_point(p, ("numeric_full", "eq1"), n_max=4)
        assert "numeric_full:degenerate-steady-state" in row.flags
        assert "numeric_full" not in row.nbar
        assert row.nbar["eq1"] > 0  # the zeroth-order column still evaluates

    def test_numeric_close_to_second_order_formula(self):
        row = sweep.run_point(
            bench_params(15.0, 15.0), ("numeric_full", "eq15"), n_max=8
        )
        gap = abs(row.nbar["numeric_full"] - row.nbar["eq15"])
        assert gap < 0.30 * row.nbar["eq15"]

    def test_point_uses_the_given_delta(self):
        p = bench_params(15.0, 15.0, delta=1.0)
        row = sweep.run_point(p, ("eq1",), **FAST)
        assert row.nbar["eq1"] == pytest.approx(400.0 / 16.0, rel=1e-12)

    def test_empty_estimators_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep.run_point(bench_params(15.0, 15.0), (), **FAST)

    def test_unknown_estimator_rejected_before_evaluation(self):
        with pytest.raises(ConfigurationError):
            sweep.run_point(bench_params(15.0, 15.0), ("eq1", "eq99"), **FAST)

    @pytest.mark.parametrize("options", [
        dict(n_max=4, hamiltonian="foo"),
        dict(n_max=1, hamiltonian="ld"),
    ])
    def test_bad_run_option_rejected_before_evaluation(self, options):
        with pytest.raises(ConfigurationError):
            sweep.run_point(bench_params(15.0, 15.0), ("numeric_full",), **options)

    def test_traced_names_stay_reachable(self, monkeypatch):
        # The benchmark times these functions by module and name, so a rename,
        # or a call that bypasses the module attribute, zeroes a layer metric.
        traced = {
            physics: ("hamiltonian_ld", "hamiltonian_full"),
            liouvillian: ("build_liouvillian", "nullspace_dimension",
                          "steady_state", "phonon_occupation"),
            subspace: ("build_projected", "solve_stationarity"),
            sweep: ("run_point", "run_sweep", "write_output"),
        }
        for module, names in traced.items():
            for name in names:
                fn = getattr(module, name)
                assert inspect.isfunction(fn), name
                assert fn.__module__ == module.__name__, name
        calls = Counter()
        for module, name in ((physics, "hamiltonian_ld"),
                             (physics, "hamiltonian_full"),
                             (subspace, "solve_stationarity")):
            def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        for hamiltonian in ("ld", "full"):
            row = sweep.run_point(
                bench_params(4.0, 20.0), ("numeric_full", "numeric_projected"),
                n_max=3, hamiltonian=hamiltonian,
            )
            assert row.flags == ()
        assert calls == {
            "hamiltonian_ld": 1, "hamiltonian_full": 1, "solve_stationarity": 2
        }


class TestBuiltinPanels:
    def test_panel_a_configuration(self):
        spec = sweep.builtin_figure3("a")
        assert spec.vary == "omega_g"
        assert spec.base.omega_g / spec.base.omega_r == pytest.approx(0.2)

    def test_panel_c_configuration(self):
        spec = sweep.builtin_figure3("c")
        assert spec.vary == "eta_g"
        assert spec.base.omega_g == 4.0
        assert spec.base.omega_r == 20.0

    def test_panel_f_configuration(self):
        spec = sweep.builtin_figure3("f")
        assert spec.vary == "gamma_g"
        assert spec.base.omega_g == spec.base.omega_r == 15.0
        assert spec.base.gamma_g + spec.base.gamma_r == pytest.approx(20.0)

    def test_panel_b_midpoint_is_the_benchmark_rabi(self):
        spec = sweep.builtin_figure3("b")
        assert spec.grid[len(spec.grid) // 2] == pytest.approx(15.0)

    def test_unknown_panel(self):
        with pytest.raises(ConfigurationError):
            sweep.builtin_figure3("z")

    def test_panel_f_formula_shift_is_constant(self):
        # the second-order and zeroth-order formulas differ by 3 eta^2 / 8
        # everywhere on the equal-Rabi branching sweep
        spec = sweep.builtin_figure3("f", estimators=("eq1", "eq15"), n_max=4)
        rows = sweep.run_sweep(spec)
        shifts = [row.nbar["eq15"] - row.nbar["eq1"] for row in rows]
        for shift in shifts:
            assert shift == pytest.approx(1.6875e-2, rel=1e-10)


class TestCsvRoundTrip:
    def run_small(self, tmp_path, estimators=("numeric_full", "eq1", "eq15"),
                  fmt="csv"):
        spec = sweep.SweepSpec(
            vary="gamma_g",
            grid=(2.0, 5.0, 10.0),
            base=bench_params(15.0, 15.0),
            estimators=estimators,
            n_max=6,
            output=str(tmp_path / f"out.{fmt}"),
            fmt=fmt,
        )
        return spec, sweep.run_sweep(spec)

    def test_header_layout(self, tmp_path):
        spec, _ = self.run_small(tmp_path)
        first = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert first == "vary,value,nbar_numeric,nbar_projected,nbar_eq1,nbar_eq15,eq15_term1,eq15_term2,flags"

    def test_extra_estimator_columns_before_flags(self, tmp_path):
        spec, _ = self.run_small(tmp_path, estimators=("eq1", "eq15", "eq17"))
        first = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert first.endswith("eq15_term2,nbar_eq17,flags")

    def test_round_trip_bit_for_bit(self, tmp_path):
        spec, rows = self.run_small(tmp_path)
        parsed = sweep.read_csv(str(tmp_path / "out.csv"))
        assert len(parsed) == len(rows)
        for mem, disk in zip(rows, parsed):
            assert disk.value == mem.value
            assert disk.nbar == mem.nbar
            assert disk.eq15_term1 == mem.eq15_term1
            assert disk.eq15_term2 == mem.eq15_term2
            assert disk.flags == mem.flags

    def test_rows_in_grid_order_and_rerun_identical(self, tmp_path):
        spec, _ = self.run_small(tmp_path)
        first = (tmp_path / "out.csv").read_bytes()
        sweep.run_sweep(spec)
        assert (tmp_path / "out.csv").read_bytes() == first
        values = [row.value for row in sweep.read_csv(str(tmp_path / "out.csv"))]
        assert values == sorted(values) == [2.0, 5.0, 10.0]

    def test_json_output(self, tmp_path):
        import json

        spec, rows = self.run_small(tmp_path, fmt="json")
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["estimators"] == list(spec.estimators)
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["nbar"]["numeric_full"] == rows[0].nbar["numeric_full"]
        assert payload["rows"][0]["nullspace_dim"] == 1
        assert payload["rows"][0]["rcond"] == rows[0].rcond > 1e-10
        assert payload["rows"][0]["residual"] < 1e-9

    def test_svg_output(self, tmp_path):
        import xml.etree.ElementTree as ET

        spec, _ = self.run_small(tmp_path, fmt="svg")
        tree = ET.parse(tmp_path / "out.svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = tree.getroot().findall(f".//{ns}polyline")
        assert len(polylines) == 3  # one per estimator

    def test_unwritable_output_is_config_error(self, tmp_path):
        spec = sweep.SweepSpec(
            vary="gamma_g", grid=(2.0,),
            base=bench_params(15.0, 15.0), estimators=("eq1",),
            n_max=4, output=str(tmp_path / "missing" / "out.csv"), fmt="csv",
        )
        with pytest.raises(ConfigurationError):
            sweep.run_sweep(spec)
