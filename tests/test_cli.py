"""Command-line interface: config resolution, exit codes, CSV output."""

import json

import numpy as np
import pytest

from hjvisc import cli
from hjvisc.core import Grid1D
from hjvisc.harness import run_sweep, sweep_to_csv
from hjvisc.inviscid import solve_pendulum_ode


def _stdout_value(out, key):
    """Pull `key=<float>` out of a printed status line."""
    for token in out.split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise AssertionError(f"{key}= not found in output: {out!r}")


# ---------------------------------------------------------------------------
# config resolution and --dump-config


def test_dump_config_round_trips(tmp_path, capsys):
    rc = cli.main(["solve-viscous", "--lambda", "0.1", "--epsilon", "0.05",
                   "--n", "64", "--dump-config"])
    assert rc == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["command"] == "solve-viscous"
    assert doc["lambda"] == 0.1
    assert doc["epsilon"] == 0.05
    assert doc["n"] == 64
    assert doc["hamiltonian"] == "pendulum"

    # feeding the dump back as a config file resolves to the same run
    path = tmp_path / "run.json"
    path.write_text(first)
    rc = cli.main(["solve-viscous", "--config", str(path), "--dump-config"])
    assert rc == 0
    assert capsys.readouterr().out == first


def test_dump_config_shows_sequence_defaults(capsys):
    rc = cli.main(["ergodic", "--epsilon", "0.1", "--dump-config"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda-seq"] == [1e-2, 5e-3, 2.5e-3]
    assert doc["n"] == 1024


def test_flags_override_config_values(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"command": "solve-viscous", "lambda": 0.1,
                                "epsilon": 0.05, "n": 32}))
    rc = cli.main(["solve-viscous", "--config", str(path),
                   "--epsilon", "0.2", "--dump-config"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["epsilon"] == 0.2
    assert doc["lambda"] == 0.1
    assert doc["n"] == 32


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"epsilon": 0.1, "bogus": 3}))
    rc = cli.main(["ergodic", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bogus" in err


def test_config_rejects_command_mismatch(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"command": "sweep", "alpha": 0.2}))
    rc = cli.main(["ergodic", "--config", str(path), "--epsilon", "0.1"])
    assert rc == 1
    assert "sweep" in capsys.readouterr().err


def test_config_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    assert cli.main(["ergodic", "--config", str(path), "--epsilon", "0.1"]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    path.write_text("[1, 2]")
    assert cli.main(["ergodic", "--config", str(path), "--epsilon", "0.1"]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_cached_parser_carries_nothing_between_calls(capsys):
    """One parser serves every main call in a process; a sequence of calls
    prints what each call prints with a freshly built parser."""
    assert cli._build_parser() is cli._build_parser()
    calls = [
        ["sweep", "--dump-config", "--alpha", "0.2", "--n", "64"],
        ["solve-viscous", "--dump-config", "--lambda", "0.1", "--epsilon", "0.01"],
        ["sweep", "--alpha", "0.2", "--no-such-flag"],
        ["sweep", "--dump-config", "--alpha", "0.6"],
    ]

    def run(argv):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 1, 0]
    assert json.loads(shared[3][1])["n"] == 2048  # the first call's --n 64 is gone


def test_config_rejects_wrong_types(tmp_path, capsys):
    path = tmp_path / "types.json"
    path.write_text(json.dumps({"lambda": 0.1, "epsilon": 0.05, "n": 64.5}))
    assert cli.main(["solve-viscous", "--config", str(path)]) == 1
    assert "integer" in capsys.readouterr().err

    path.write_text(json.dumps({"lambda": 0.1, "epsilon": True, "n": 64}))
    assert cli.main(["solve-viscous", "--config", str(path)]) == 1
    assert "number" in capsys.readouterr().err


@pytest.mark.parametrize("command, raw", [
    ("solve-viscous", {"lambda": 0.1, "epsilon": 0.05, "n": 64, "potential": [[1]]}),
    ("ergodic", {"epsilon": 0.1, "n": 64, "lambda-seq": [None, 0.1, 0.01]}),
    ("ergodic", {"epsilon": 0.1, "n": 64, "lambda-seq": [True, 0.5, 0.25]}),
])
def test_config_lists_hold_only_numbers(command, raw, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(path)]) == 1
    key = next(k for k in raw if isinstance(raw[k], list))
    assert f"{key} must be a list of numbers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "hjvisc" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["solve-viscous", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_missing_required_parameter_exits_one(capsys):
    rc = cli.main(["solve-viscous", "--epsilon", "0.05"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "lambda" in err


def test_nonpositive_parameter_exits_one(capsys):
    rc = cli.main(["solve-viscous", "--lambda", "-0.1", "--epsilon", "0.05"])
    assert rc == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve-viscous", "adjoint", "solve-inviscid"])
def test_tolerance_key_is_unknown(command, tmp_path, capsys):
    # Newton picks its own stop, so a config that still sets "tol" is rejected
    doc = {"lambda": 0.1, "n": 64, "tol": 1e-8}
    if command != "solve-inviscid":
        doc["epsilon"] = 0.05
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "field.csv"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "unknown config key(s): tol" in capsys.readouterr().err
    assert not out.exists()


def test_dump_config_still_validates(capsys):
    # resolution happens before the dump, so a broken config never prints
    assert cli.main(["sweep", "--dump-config"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_solver_divergence_exits_two(tmp_path, capsys):
    # the pendulum's samples as an inline potential take Lax-Friedrichs; sigma
    # far below the gradient bound breaks its monotonicity
    cfg = tmp_path / "pendulum-samples.json"
    cfg.write_text(json.dumps({"potential": (np.cos(Grid1D(256).x) - 1.0).tolist()}))
    rc = cli.main(["solve-inviscid", "--config", str(cfg), "--lambda", "0.05",
                   "--sigma", "0.05", "--n", "256"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "sigma" in err


# ---------------------------------------------------------------------------
# subcommand output


def test_solve_viscous_writes_field_csv(tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc = cli.main(["solve-viscous", "--lambda", "0.1", "--epsilon", "0.05",
                   "--n", "64", "--out", str(out)])
    assert rc == 0
    status = capsys.readouterr().out
    assert _stdout_value(status, "residual_inf") <= 1e-10
    assert _stdout_value(status, "iterations") >= 1

    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 1 + 64
    xs = np.array([float(row.split(",")[0]) for row in lines[1:]])
    vals = np.array([float(row.split(",")[1]) for row in lines[1:]])
    assert np.allclose(xs, Grid1D(64).x, rtol=0.0, atol=0.0)
    assert np.all(np.isfinite(vals))
    # zero is a subsolution for the pendulum, so the solve stays nonnegative
    assert np.min(vals) >= -1e-12
    assert np.argmax(vals) == 32  # potential well bottom at x = pi


def test_solve_inviscid_defaults_to_ode_for_pendulum(capsys):
    rc = cli.main(["solve-inviscid", "--lambda", "0.05", "--n", "64"])
    assert rc == 0
    printed = _stdout_value(capsys.readouterr().out, "max_u")
    expected = float(np.max(solve_pendulum_ode(0.05, 32).values))
    # 17 significant digits round-trip a double exactly
    assert printed == expected


def test_ergodic_flat_constant_is_zero(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = cli.main(["ergodic", "--hamiltonian", "flat", "--epsilon", "0.1",
                   "--out", str(out)])
    assert rc == 0
    assert abs(_stdout_value(capsys.readouterr().out, "c_eps")) <= 1e-8
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,c_eps"
    assert float(lines[1].split(",")[0]) == 0.1


def test_ergodic_constant_is_shift_invariant(tmp_path, capsys):
    # V and V + 0.3 shift lambda*u by -0.3 and c(H) = max V by +0.3
    x = Grid1D(256).x
    for eps in (0.1, 0.05):
        c_eps = []
        for potential in (0.3 * (np.cos(x) - 1.0), 0.3 * np.cos(x)):
            path = tmp_path / "ergodic.json"
            path.write_text(json.dumps({"command": "ergodic", "n": 256,
                                        "epsilon": eps,
                                        "potential": potential.tolist()}))
            assert cli.main(["ergodic", "--config", str(path)]) == 0
            c_eps.append(_stdout_value(capsys.readouterr().out, "c_eps"))
        assert abs(c_eps[0] - c_eps[1]) <= 1e-10, (eps, c_eps)


def test_adjoint_reports_unit_mass(capsys):
    rc = cli.main(["adjoint", "--lambda", "0.1", "--epsilon", "0.1",
                   "--n", "128"])
    assert rc == 0
    status = capsys.readouterr().out
    assert abs(_stdout_value(status, "mass") - 1.0) <= 1e-10
    assert abs(_stdout_value(status, "renorm_factor") - 1.0) <= 1e-6


def test_supconv_reports_small_defect(capsys):
    rc = cli.main(["supconv", "--lambda", "0.05", "--delta", "0.02",
                   "--n", "256"])
    assert rc == 0
    defect = _stdout_value(capsys.readouterr().out, "subsolution_defect")
    # delta-linear budget plus a grid term; generous cap either way
    assert 0.0 <= defect <= 0.2


def test_inline_potential_config(tmp_path, capsys):
    # zero potential behaves like the flat model: the solution vanishes
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({"command": "solve-viscous",
                                "potential": [0.0] * 16,
                                "lambda": 0.1, "epsilon": 0.1, "n": 16}))
    out = tmp_path / "u0.csv"
    rc = cli.main(["solve-viscous", "--config", str(path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    vals = [float(row.split(",")[1]) for row in
            out.read_text().splitlines()[1:]]
    assert max(abs(v) for v in vals) <= 1e-12


def test_sweep_csv_matches_library_output(tmp_path, capsys):
    lams = [0.1, 0.05, 0.025]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"command": "sweep", "alpha": 0.2,
                                "lambda-list": lams, "n": 64}))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()

    from hjvisc.core import pendulum_hamiltonian
    result = run_sweep(pendulum_hamiltonian(), 0.2, tuple(lams), 64)
    assert out.read_text() == sweep_to_csv(result)
