import argparse
import configparser
import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttkrylov
from ttkrylov.cli import (
    CSV_HEADER,
    build_preconditioner,
    build_problem,
    build_solver_config,
    main,
    parse_config,
)
from ttkrylov.solvers import PHASES, SolverConfig


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


BASE_PDE = """
[problem]
type = convection_diffusion
d = 3
n = 5

[solver]
type = tt_sgmres
maxit = 60
tol = 1e-7
ell = 1
eta = 0.3
seed = 3
solution_rank = 10

[output]
csv = run.csv
"""


class TestSolve:
    def test_converged_run_writes_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "a.cfg", BASE_PDE)
        rc = main(["solve", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) > 1
        # converged: fewer rows than maxit, res_true empty when untracked
        assert len(rows) - 1 < 60
        assert rows[1][2] == ""

    def test_forced_iterations_row_count(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "b.cfg",
            BASE_PDE.replace("maxit = 60", "maxit = 12\nforce_iterations = true"),
        )
        rc = main(["solve", cfg, "--out-dir", str(tmp_path)])
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 12

    def test_track_true_residual_flag(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_PDE)
        main(["solve", cfg, "--out-dir", str(tmp_path), "--track-true-residual"])
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["res_true"] != "" for r in rows)

    def test_unknown_solver_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "d.cfg", BASE_PDE.replace("tt_sgmres", "bogus"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", "[problem]\ntype = convection_diffusion\nd = 3\n\n[solver]\ntype = tt_sgmres\n")
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("max_rank", "0"), ("solution_rank", "0"), ("seed", "-1")],
    )
    def test_out_of_range_key_is_config_error(self, tmp_path, key, value):
        cp = configparser.ConfigParser()
        cp.read_string(BASE_PDE)
        cp["solver"][key] = value
        with open(tmp_path / "bad.cfg", "w") as fh:
            cp.write(fh)
        env = dict(os.environ, PYTHONPATH=str(Path(ttkrylov.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ttkrylov.cli", "solve", str(tmp_path / "bad.cfg"),
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error")
        assert key in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "tolerance_typo", "5"),
            ("preconditioner", "max_rnak", "3"),
            ("solver", "track_true_residual", "true"),  # an [output] key
            ("problem", "convection", "1, 0, 0"),  # a tuple field has no key
            ("preconditioner", "accumulate", "stream"),
            ("solver", "combine_mode", "stta"),
        ],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, section, key, value):
        cp = configparser.ConfigParser()
        cp.read_string(BASE_PDE + "\n[preconditioner]\ntype = expsum\nzeta = 3\n"
                       "\n[compare]\nvariants = tt_sgmres\n")
        cp[section][key] = value
        with open(tmp_path / "typo.cfg", "w") as fh:
            cp.write(fh)
        assert main(["compare", str(tmp_path / "typo.cfg"), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: unknown key '{key}' in [{section}]\n"
        assert not (tmp_path / "summary.csv").exists()

    def test_unknown_section_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", BASE_PDE + "\n[solvr]\nmaxit = 3\n")
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: unknown section [solvr]\n"

    def test_non_finite_problem_parameter_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "nan.cfg", BASE_PDE.replace("n = 5", "n = 5\ndiffusion = nan"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid problem configuration: "
            "diffusion must be positive and finite, got nan\n")

    def test_maxit_exhausted_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "f.cfg", BASE_PDE.replace("maxit = 60", "maxit = 3"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_deterministic_csv(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", BASE_PDE)
        main(["solve", cfg, "--out-dir", str(tmp_path / "r1")])
        main(["solve", cfg, "--out-dir", str(tmp_path / "r2")])
        reads = []
        for sub in ("r1", "r2"):
            with open(tmp_path / sub / "run.csv") as fh:
                rows = [r[:4] for r in csv.reader(fh)]  # drop timing columns
            reads.append(rows)
        assert reads[0] == reads[1]


class TestCompare:
    def test_two_variants(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "h.cfg",
            BASE_PDE + "\n[compare]\nvariants = tt_gmres, tt_sgmres\n",
        )
        rc = main(["compare", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tt_gmres.csv").exists()
        assert (tmp_path / "tt_sgmres.csv").exists()
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["tt_gmres", "tt_sgmres"]
        assert {"variant", "iterations", "time", "peak_rank", "kept_mb",
                "converged"} <= set(rows[0])
        assert all(float(r["kept_mb"]) > 0 for r in rows)

    def test_single_variant_matches_solve(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "i.cfg", BASE_PDE + "\n[compare]\nvariants = tt_sgmres\n"
        )
        main(["compare", cfg, "--out-dir", str(tmp_path / "cmp")])
        main(["solve", cfg, "--out-dir", str(tmp_path / "sol")])
        with open(tmp_path / "cmp" / "tt_sgmres.csv") as fh:
            a = [r[:4] for r in csv.reader(fh)]
        with open(tmp_path / "sol" / "run.csv") as fh:
            b = [r[:4] for r in csv.reader(fh)]
        assert a == b


class TestSweep:
    def test_axis_d(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "j.cfg",
            BASE_PDE + "\n[sweep]\naxis = d\nvalues = 2, 3\n",
        )
        rc = main(["sweep", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["2", "3"]
        assert list(rows[0]) == [
            "axis", "value", "variant", "time", "iterations",
            "peak_rank", "kept_mb", "res_sketched", "res_true", "converged",
        ]

    def test_empty_values_exit_1(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "k.cfg", BASE_PDE + "\n[sweep]\naxis = d\nvalues =\n"
        )
        assert main(["sweep", cfg, "--out-dir", str(tmp_path)]) == 1

    def test_max_rank_axis(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "l.cfg",
            BASE_PDE + "\n[sweep]\naxis = max_rank\nvalues = 4, none\n",
        )
        rc = main(["sweep", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2


# a rank-2 basis stalls tt_sgmres's sketched least squares: two warnings,
# every run; tt_gmres runs to maxit without one
RANK_CAPPED = BASE_PDE.replace("solution_rank = 10", "solution_rank = 10\nmax_rank = 2")
STALLED = "sketched basis stopped growing"
RANK_DEFICIENT = "sketched basis nearly rank-deficient"


class TestTableWarnings:
    @pytest.mark.parametrize("section", [
        "[compare]\nvariants = tt_sgmres, tt_gmres\n",
        "[sweep]\naxis = n\nvalues = 4, 5\n",
    ], ids=["compare", "sweep"])
    def test_each_run_prints_its_warnings(self, tmp_path, capsys, section):
        cfg = write_cfg(tmp_path / "w.cfg", RANK_CAPPED + "\n" + section)
        main([section[1:section.index("]")], cfg, "--out-dir", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        runs = [i for i, line in enumerate(lines) if "iterations=" in line]
        assert len(runs) == 2
        for i in runs:
            sgmres = "tt_sgmres:" in lines[i]
            assert lines[i + 1].startswith("warning: iteration") == sgmres
            if sgmres:
                assert RANK_DEFICIENT in lines[i + 1] and STALLED in lines[i + 2]

    def test_solve_prints_warnings_before_the_trace_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "w.cfg", RANK_CAPPED)
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("tt_sgmres: iterations=")
        assert STALLED in lines[-2]
        assert all(line.startswith("warning: iteration") for line in lines[1:-1])
        assert lines[-1] == f"trace written to {tmp_path / 'run.csv'}"


NO_OVERRIDES = argparse.Namespace(maxit=None, tol=None, seed=None, track_true_residual=False)

# a value other than the default for every SolverConfig field
FIELD_VALUES = {
    "maxit": 7, "tol": 1e-3, "ell": 2, "eta": 0.5, "max_rank": 9,
    "sketch_rows": 333, "solution_rank": 13,
    "seed": 42, "track_true_residual": True, "force_iterations": True,
}


class TestSolverConfigKeys:
    def test_type_only_gives_defaults(self):
        cp = configparser.ConfigParser()
        cp.read_dict({"solver": {"type": "tt_sgmres"}})
        assert build_solver_config(cp, NO_OVERRIDES) == SolverConfig()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)])
    def test_field_reaches_config(self, tmp_path, name):
        value = FIELD_VALUES[name]
        raw = str(value).lower() if isinstance(value, bool) else str(value)
        # track_true_residual is an [output] key
        section = "output" if name == "track_true_residual" else "solver"
        cp = configparser.ConfigParser()
        cp.read_dict({"problem": {"type": "markov_chain", "d": "3", "n": "4"},
                      "solver": {"type": "tt_sgmres"}, "output": {}})
        cp[section][name] = raw
        with open(tmp_path / "field.cfg", "w") as fh:
            cp.write(fh)
        cfg = build_solver_config(parse_config(tmp_path / "field.cfg"), NO_OVERRIDES)
        assert getattr(cfg, name) == value
        assert getattr(SolverConfig(), name) != value


class TestPreconditionerKeys:
    def test_stream_seed_follows_solve_seed(self):
        cp = configparser.ConfigParser()
        cp.read_string(BASE_PDE + "\n[preconditioner]\ntype = expsum\nzeta = 3\n")
        cfg = build_solver_config(cp, NO_OVERRIDES)
        p = build_preconditioner(cp, build_problem(cp)[2], cfg)
        assert p.stream_seed == cfg.seed + 7


class TestTraceColumns:
    def test_header_follows_phases(self, tmp_path):
        assert CSV_HEADER[:4] == ["iter", "res_sketched", "res_true", "max_rank"]
        assert CSV_HEADER[4:] == [f"t_{p}" for p in PHASES]
        assert "t_recovery" in CSV_HEADER
        cfg = write_cfg(tmp_path / "m.cfg", BASE_PDE)
        main(["solve", cfg, "--out-dir", str(tmp_path), "--track-true-residual"])
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["t_recovery"]) > 0 for r in rows)


class TestOverrides:
    def overrides(self, **kw):
        return argparse.Namespace(**{**vars(NO_OVERRIDES), **kw})

    def config(self, extra=""):
        cp = configparser.ConfigParser()
        cp.read_string(BASE_PDE.replace("[output]", extra + "\n[output]"))
        return cp

    def test_maxit_tol_seed_reach_config(self):
        cfg = build_solver_config(self.config(), self.overrides(maxit=80, tol=1e-4, seed=11))
        assert (cfg.maxit, cfg.tol, cfg.seed) == (80, 1e-4, 11)

    def test_unset_sketch_rows_follows_maxit(self):
        cfg = build_solver_config(self.config(), self.overrides(maxit=80))
        assert cfg.sketch_rows == 160

    def test_explicit_sketch_rows_kept(self):
        cfg = build_solver_config(self.config("sketch_rows = 400"), self.overrides(maxit=80))
        assert cfg.sketch_rows == 400

    def test_explicit_sketch_rows_below_maxit_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "rows.cfg",
                        BASE_PDE.replace("[output]", "sketch_rows = 100\n\n[output]"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path), "--maxit", "120"]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid solver configuration: sketch_rows must exceed maxit\n")
        assert not (tmp_path / "run.csv").exists()


class TestPreconditionedSolve:
    SPGMRES = BASE_PDE.replace("type = tt_sgmres", "type = tt_spgmres")

    def test_spgmres_writes_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg",
                        self.SPGMRES + "\n[preconditioner]\ntype = expsum\nzeta = 3\n")
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 0
        assert "tt_spgmres: iterations=" in capsys.readouterr().out
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) > 1

    @pytest.mark.parametrize("section", ["", "\n[preconditioner]\ntype = none\n"],
                             ids=["missing", "none"])
    def test_spgmres_without_preconditioner_exits_1(self, tmp_path, capsys, section):
        cfg = write_cfg(tmp_path / "q.cfg", self.SPGMRES + section)
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: tt_spgmres requires an expsum [preconditioner]\n")
