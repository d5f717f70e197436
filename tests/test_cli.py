"""End-to-end tests of the command-line surface."""

import ast
import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcpstats
from wcpstats.cli import build_parser, main
from wcpstats.coincidence import model_summary, read_summary_json
from wcpstats.config import RunConfig
from wcpstats.estimation import estimate_mu_rigorous
from wcpstats.fileio import read_json
from wcpstats.leakage import info_leakage, pairwise_leakage


def run(argv):
    return main([str(a) for a in argv])


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about a second of import time on every CLI call.
    code = "import sys, wcpstats.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, wcpstats.cli;"
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bounds", "--summary", "{summary}", "--out", "{out}"],
        ["coincidence", "--histogram", "{histogram}", "--out", "{out}"],
        ["leakage", "--mu", "0.5", "--source", "A=0.05,0.0025", "--source", "B=0.0525,0.0025"],
        ["estimate", "--summary", "{source_summary}", "--config", "{config}", "--out", "{out}"],
        ["estimate", "--summary", "{source_summary}", "--config", "{eta_config}", "--out", "{out}"],
    ],
    ids=["import", "bounds", "coincidence-histogram", "leakage", "estimate-config", "estimate-eta-config"],
)
def test_commands_without_arrays_load_no_numpy(tmp_path, argv):
    # numpy is most of the start-up time of a CLI call that does no array work.
    summary, histogram = tmp_path / "summary.json", tmp_path / "histogram.json"
    summary.write_text(json.dumps(SUMMARY))
    histogram.write_text(json.dumps({"total_pulses": 10, "counts": [9, 1] + [0] * 14}))
    config, eta_config = tmp_path / "config.json", tmp_path / "eta.json"
    config.write_text("{}")
    eta = RunConfig.from_dict({}).efficiency_set.eta
    eta_config.write_text(json.dumps({"eta": list(eta)}))
    source_summary = tmp_path / "source_summary.json"
    source_summary.write_text(json.dumps(model_summary(0.5, eta, 10**6).to_dict()))
    paths = {
        "summary": summary, "histogram": histogram, "config": config, "eta_config": eta_config,
        "source_summary": source_summary,
    }
    argv = [a.format(out=tmp_path / "out.json", **paths) for a in argv]
    code = "import sys; from wcpstats.cli import main;"
    code += f"assert main({argv!r}) == 0;" if argv else ""
    code += "sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(wcpstats.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["estimate", "--summary", "{summary}", "--config", "{config}", "--out", "{out}"],
        ["bounds", "--summary", "{summary}", "--out", "{out}"],
        ["coincidence", "--histogram", "{histogram}", "--out", "{out}"],
        ["leakage", "--mu", "0.5", "--source", "A=0.05,0.0025", "--source", "B=0.0525,0.0025"],
    ],
    ids=["import", "estimate-config", "bounds", "coincidence-histogram", "leakage"],
)
def test_commands_without_arrays_load_no_dataclasses_or_typing(tmp_path, argv):
    # dataclasses imports inspect, ast, dis and tokenize, and each record it builds execs its methods.
    # -S keeps site hooks from loading typing first, so every module found here is one wcpstats loaded.
    summary, histogram, config = tmp_path / "summary.json", tmp_path / "histogram.json", tmp_path / "config.json"
    summary.write_text(json.dumps(model_summary(0.5, RunConfig.from_dict({}).efficiency_set.eta, 10**6).to_dict()))
    histogram.write_text(json.dumps({"total_pulses": 10, "counts": [9, 1] + [0] * 14}))
    config.write_text("{}")
    argv = [a.format(out=tmp_path / "out.json", summary=summary, histogram=histogram, config=config) for a in argv]
    code = "import sys; from wcpstats.cli import main;"
    code += f"assert main({argv!r}) == 0;" if argv else ""
    code += "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(Path(wcpstats.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def fresh_python(code: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter on this wcpstats; an ``env`` value of None removes that variable."""
    child_env = {**os.environ, "PYTHONPATH": str(Path(wcpstats.__file__).parents[1])}
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["bounds", "--summary", "{summary}", "--out", "{out}"], ["leakage"]),
        (["coincidence", "--histogram", "{histogram}", "--out", "{out}"], ["bounds", "leakage"]),
        (["simulate", "--mu", "0.5", "--pulses", "100", "--seed", "1", "--out-histogram", "{out}"],
         ["bounds", "leakage", "estimation"]),
        (["estimate", "--summary", "{summary}", "--out", "{out}"], ["leakage", "bounds", "simulator"]),
    ],
    ids=["bounds", "coincidence-histogram", "simulate", "estimate"],
)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, absent):
    # Each module imported costs every CLI call its compile and run time.
    summary, histogram = tmp_path / "summary.json", tmp_path / "histogram.json"
    summary.write_text(json.dumps(SUMMARY))
    histogram.write_text(json.dumps({"total_pulses": 10, "counts": [9, 1] + [0] * 14}))
    argv = [a.format(out=tmp_path / "out.json", summary=summary, histogram=histogram) for a in argv]
    code = f"import sys; from wcpstats.cli import main; assert main({argv!r}) == 0;"
    code += f"print(sorted(m for m in {absent!r} if 'wcpstats.' + m in sys.modules))"
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# OpenBLAS also takes its thread count from these, so the default test clears them all.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts the threads of a process in /proc on a host with two or more CPUs",
)
def test_cli_runs_numpy_on_one_thread(tmp_path):
    # numpy's OpenBLAS starts a worker thread per extra CPU as it loads.
    stamps = tmp_path / "ts.csv"
    stamps.write_text("channel,time_ps\n1,100\n2,300\n")
    argv = ["coincidence", "--timestamps", str(stamps), "--pulses", "10", "--out", str(tmp_path / "out.json")]
    code = f"import os, sys; from wcpstats.cli import main; assert main({argv!r}) == 0;"
    code += "assert 'numpy' in sys.modules; print(len(os.listdir('/proc/self/task')))"
    result = fresh_python(code, **dict.fromkeys(BLAS_THREAD_VARIABLES))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "1"


def test_cli_keeps_a_blas_thread_count_the_user_set():
    code = "import os; from wcpstats.cli import main; main(['leakage', '--mu', '0.5']);"
    code += "print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = fresh_python(code, OPENBLAS_NUM_THREADS="2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "2"


# numpy names whose calls reach BLAS.
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "einsum", "tensordot", "kron"}


def test_package_makes_no_blas_call():
    # cli.main runs numpy on one BLAS thread; code that starts to use BLAS must revisit that default.
    calls = []
    for source in sorted(Path(wcpstats.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                names = {"matmul"} if isinstance(node.op, ast.MatMult) else set()
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = {part for alias in node.names for part in f"{module}.{alias.name}".split(".")}
            else:
                continue
            if names & BLAS_NAMES:
                calls.append(f"{source.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_output_files_follow_the_umask(tmp_path, umask):
    out = tmp_path / "leakage.json"
    code = f"import os; os.umask({umask}); from wcpstats.cli import main;"
    code += f"assert main(['leakage', '--mu', '0.5', '--out', {str(out)!r}]) == 0"
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_package_exports_resolve_to_their_home_modules():
    for name in wcpstats.__all__:
        value = getattr(wcpstats, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(wcpstats)
    with pytest.raises(AttributeError):
        wcpstats.no_such_name


def test_simulate_then_analyze_pipeline(tmp_path, capsys):
    hist_path = tmp_path / "hist.json"
    assert run(
        ["simulate", "--mu", "0.5", "--pulses", "200000", "--seed", "3",
         "--out-histogram", hist_path]
    ) == 0
    payload = read_json(hist_path)
    assert payload["total_pulses"] == 200000
    assert payload["meta"]["seed"] == 3

    summary_path = tmp_path / "summary.json"
    assert run(["coincidence", "--histogram", hist_path, "--out", summary_path]) == 0
    summary = read_summary_json(summary_path)
    assert summary.total_pulses == 200000

    est_path = tmp_path / "estimate.json"
    assert run(["estimate", "--summary", summary_path, "--out", est_path]) == 0
    estimate = read_json(est_path)
    assert estimate["mu_rigorous"] == pytest.approx(0.5, rel=0.05)
    assert estimate["mu_single"] < estimate["mu_rigorous"]
    assert estimate["poissonity"]["passed"] is True

    bounds_path = tmp_path / "bounds.json"
    assert run(["bounds", "--summary", summary_path, "--out", bounds_path]) == 0
    entries = read_json(bounds_path)["entries"]
    assert [e["n"] for e in entries] == ["0", "1", "2", "3", "ge4"]

    out = capsys.readouterr().out
    assert "simulate:" in out and "estimate:" in out and "bounds:" in out


def test_simulate_timestamps_roundtrip(tmp_path):
    hist_path = tmp_path / "hist.json"
    stamps_path = tmp_path / "stamps.csv"
    assert run(
        ["simulate", "--mu", "0.8", "--pulses", "20000", "--seed", "5",
         "--out-histogram", hist_path, "--out-timestamps", stamps_path]
    ) == 0
    summary_path = tmp_path / "summary.json"
    assert run(
        ["coincidence", "--timestamps", stamps_path, "--pulses", "20000",
         "--out", summary_path]
    ) == 0
    direct_path = tmp_path / "direct.json"
    assert run(["coincidence", "--histogram", hist_path, "--out", direct_path]) == 0
    assert read_summary_json(summary_path).subset_probs == read_summary_json(direct_path).subset_probs


@pytest.mark.parametrize("rate", [2e6, 1e7, 2e7, 1e9])
def test_timestamps_bin_at_the_config_period(tmp_path, capsys, rate):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rep_rate_hz": rate}))
    hist_path, stamps_path = tmp_path / "hist.json", tmp_path / "stamps.csv"
    assert run(
        ["simulate", "--config", config, "--mu", "0.8", "--pulses", "20000", "--seed", "5",
         "--out-histogram", hist_path, "--out-timestamps", stamps_path]
    ) == 0
    direct_path, binned_path = tmp_path / "direct.json", tmp_path / "binned.json"
    assert run(["coincidence", "--histogram", hist_path, "--out", direct_path]) == 0
    capsys.readouterr()
    assert run(
        ["coincidence", "--timestamps", stamps_path, "--pulses", "20000", "--config", config,
         "--out", binned_path]
    ) == 0
    assert "(0 records discarded)" in capsys.readouterr().out
    assert binned_path.read_bytes() == direct_path.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--pulses", "7"],
        ["--offset-ps", "0"],
        ["--window-ps", "5"],
        ["--pulses", "7", "--offset-ps", "123", "--window-ps", "5"],
    ],
    ids=["pulses", "offset", "window", "all"],
)
def test_histogram_with_binning_flags_exits_one(tmp_path, capsys, flags):
    hist_path, out = tmp_path / "hist.json", tmp_path / "summary.json"
    hist_path.write_text(json.dumps({"total_pulses": 10, "counts": [9, 1] + [0] * 14}))
    config = tmp_path / "run.json"
    config.write_text("{}")
    argv = ["coincidence", "--histogram", hist_path, "--config", config, "--out", out]
    assert run(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()
    assert run(argv) == 0


def test_timestamps_past_int64_exit_one_and_histograms_stay_allowed(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rep_rate_hz": 1e-3}))
    hist_path, stamps_path = tmp_path / "hist.json", tmp_path / "stamps.csv"
    argv = ["simulate", "--config", config, "--pulses", "20000", "--out-histogram", hist_path]
    assert run(argv + ["--out-timestamps", stamps_path]) == 1
    assert "int64" in capsys.readouterr().err
    assert not hist_path.exists() and not stamps_path.exists()
    assert run(argv) == 0


def test_estimate_vacuum_reports_insufficient_data(tmp_path, capsys):
    hist_path = tmp_path / "hist.json"
    assert run(
        ["simulate", "--mu", "1e-9", "--pulses", "5000", "--seed", "1",
         "--out-histogram", hist_path]
    ) == 0
    summary_path = tmp_path / "summary.json"
    assert run(["coincidence", "--histogram", hist_path, "--out", summary_path]) == 0
    code = run(["estimate", "--summary", summary_path])
    assert code == 1
    assert "insufficient data" in capsys.readouterr().err


def test_estimate_keeps_the_fit_when_the_poissonity_check_lacks_counts(tmp_path, capsys):
    # At mu = 0.02 over 2e5 pulses only c_1 expects 5 counts: no Poissonity verdict.
    hist_path, summary_path, est_path = tmp_path / "hist.json", tmp_path / "summary.json", tmp_path / "est.json"
    assert run(["simulate", "--mu", "0.02", "--pulses", "200000", "--seed", "4", "--out-histogram", hist_path]) == 0
    assert run(["coincidence", "--histogram", hist_path, "--out", summary_path]) == 0
    capsys.readouterr()
    assert run(["estimate", "--summary", summary_path, "--out", est_path]) == 0
    eta = RunConfig.from_dict({}).efficiency_set.eta
    fit = estimate_mu_rigorous(read_summary_json(summary_path), eta)
    estimate = read_json(est_path)
    assert estimate["mu_rigorous"] == fit.mu_hat
    assert estimate["mu_rigorous_se"] == fit.std_error
    assert estimate["mu_single"] == pytest.approx(0.02, rel=0.1)
    assert "poissonity" not in estimate
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "Poissonity" in warnings[0]


def test_estimate_refuses_a_mu_beyond_the_fit_range(tmp_path, capsys):
    hist_path, summary_path, est_path = tmp_path / "hist.json", tmp_path / "summary.json", tmp_path / "est.json"
    assert run(["simulate", "--mu", "20", "--pulses", "100000", "--seed", "3", "--out-histogram", hist_path]) == 0
    assert run(["coincidence", "--histogram", hist_path, "--out", summary_path]) == 0
    capsys.readouterr()
    assert run(["estimate", "--summary", summary_path, "--out", est_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[1e-06, 10]" in err
    assert not est_path.exists()


def test_estimate_refuses_total_pulses_past_the_fit_range(tmp_path, capsys):
    # The fit's arithmetic stays within float range for N below 2**250 (about 1.8e75).
    eta = RunConfig.from_dict({}).efficiency_set.eta
    summary_path, est_path = tmp_path / "summary.json", tmp_path / "est.json"
    summary_path.write_text(json.dumps(model_summary(0.5, eta, 10**20).to_dict()))
    assert run(["estimate", "--summary", summary_path, "--out", est_path]) == 0
    assert read_json(est_path)["mu_rigorous"] == pytest.approx(0.5, rel=1e-9)
    est_path.unlink()
    summary_path.write_text(json.dumps({**model_summary(0.5, eta, 10).to_dict(), "total_pulses": 10**155}))
    capsys.readouterr()
    assert run(["estimate", "--summary", summary_path, "--out", est_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "total_pulses" in err
    assert not est_path.exists()


def test_config_eta_of_the_default_vector_gives_the_default_outputs(tmp_path):
    eta = RunConfig.from_dict({}).efficiency_set.eta
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(model_summary(0.5, eta, 10**6).to_dict()))
    outputs = {}
    for name, payload in (("empty", {}), ("eta", {"eta": list(eta)})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(payload))
        paths = tmp_path / f"{name}-estimate.json", tmp_path / f"{name}-bounds.json"
        assert run(["estimate", "--summary", summary, "--config", config, "--out", paths[0]]) == 0
        assert run(["bounds", "--summary", summary, "--config", config, "--out", paths[1]]) == 0
        outputs[name] = [path.read_bytes() for path in paths]
    assert outputs["eta"] == outputs["empty"]


@pytest.mark.parametrize(
    "payload",
    [{"eta_d": 1e-100}, {"eta": [1e-90, 1e-75, 1e-75, 1e-75]}],
    ids=["eta_d-underflows", "eta-product-subnormal"],
)
def test_bounds_with_efficiency_products_below_normal_floats_exit_one(tmp_path, capsys, payload):
    # The bounds divide by s_4 = prod(eta), which must be a positive normal float.
    summary, config, out = tmp_path / "summary.json", tmp_path / "run.json", tmp_path / "bounds.json"
    summary.write_text(json.dumps(SUMMARY))
    config.write_text(json.dumps(payload))
    assert run(["bounds", "--summary", summary, "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "s_4" in err
    assert not out.exists()


def test_bounds_warns_when_no_four_fold_coincidence_was_observed(tmp_path, capsys):
    # Each lower bound differs from its upper one only in its c_4 term, so c_4 = 0 leaves zero-width intervals.
    eta = RunConfig.from_dict({}).efficiency_set.eta
    path, out = tmp_path / "summary.json", tmp_path / "bounds.json"
    for summary, warned in ((SUMMARY, True), (model_summary(0.5, eta, 10**6).to_dict(), False)):
        path.write_text(json.dumps(summary))
        assert run(["bounds", "--summary", path, "--out", out]) == 0
        assert ("warning: no four-fold coincidence was observed" in capsys.readouterr().err) == warned
        assert out.exists()


def test_estimate_with_efficiency_file(tmp_path):
    hist_path = tmp_path / "hist.json"
    run(["simulate", "--mu", "0.4", "--pulses", "100000", "--seed", "8",
         "--out-histogram", hist_path])
    summary_path = tmp_path / "summary.json"
    run(["coincidence", "--histogram", hist_path, "--out", summary_path])

    # The overall efficiencies eta_b,i * eta_c * eta_d of the default splitters, stated directly.
    eff_path = tmp_path / "eff.json"
    eff_path.write_text(json.dumps({"eta": [b * 1.0 * 0.65 for b in (0.234156, 0.220324, 0.208833, 0.206568)]}))
    est_path = tmp_path / "est.json"
    assert run(
        ["estimate", "--summary", summary_path, "--config", eff_path, "--out", est_path]
    ) == 0
    assert read_json(est_path)["mu_rigorous"] == pytest.approx(0.4, rel=0.05)


def test_leakage_pair_value(tmp_path, capsys):
    out_path = tmp_path / "leakage.json"
    assert run(["leakage", "--pair-r", "0.9904", "--out", out_path]) == 0
    assert "0.0027" in capsys.readouterr().out
    assert read_json(out_path)["pair_r"] == [{"R": 0.9904, "I_prime": pairwise_leakage(0.9904)}]


def test_leakage_sources_report(tmp_path, capsys):
    out_path = tmp_path / "leakage.json"
    assert run(
        ["leakage", "--source", "S1=62,5.0", "--source", "S2=62.5,5.4",
         "--mu", "0.5", "--mu-single", "0.48", "--mu-rigorous", "0.5",
         "--out", out_path]
    ) == 0
    payload = read_json(out_path)
    assert payload["pairs"][0]["pair"] == "S1&S2"
    assert payload["multi_photon"]["mu"] == 0.5
    assert payload["estimate_gap"]["delta_I"] > 0


@pytest.mark.parametrize(
    "flag, missing", [("--mu-single", "--mu-rigorous"), ("--mu-rigorous", "--mu-single")]
)
def test_leakage_half_an_estimate_pair_exits_one(tmp_path, capsys, flag, missing):
    out = tmp_path / "leakage.json"
    assert run(["leakage", "--mu", "0.5", flag, "0.48", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert not out.exists()


@pytest.mark.parametrize(
    "sources, expected",
    [
        (("A=1,1e-200", "B=1,1e-200"), 1.0),
        (("A=1,1e-170", "B=2,1e-170"), 0.0),
        (("A=0,1e200", "B=0,1e200"), 1.0),
        (("A=0,1.7e308", "B=0,1.7e308"), 1.0),
    ],
    ids=["sigma-squared-underflows", "separated-sigma-squared-underflows", "sigma-squared-overflows", "hypot-overflows"],
)
def test_leakage_sources_with_extreme_sigma(tmp_path, sources, expected):
    out = tmp_path / "leakage.json"
    assert run(["leakage", "--source", sources[0], "--source", sources[1], "--out", out]) == 0
    assert read_json(out)["pairs"][0]["R"] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (["--mu", "2000"], ("multi_photon", "I_AE"), 0.0),
        (["--mu-single", "3000", "--mu-rigorous", "1"], ("estimate_gap", "delta_I"), info_leakage(1.0)),
    ],
    ids=["mu", "estimate-gap"],
)
def test_leakage_at_large_mu(tmp_path, argv, key, expected):
    out = tmp_path / "leakage.json"
    assert run(["leakage", *argv, "--out", out]) == 0
    assert read_json(out)[key[0]][key[1]] == expected


def test_leakage_without_inputs_fails(capsys):
    assert run(["leakage"]) == 1
    assert "error" in capsys.readouterr().err


def test_fluct_generate_and_ingest(tmp_path):
    fit_path = tmp_path / "fit.json"
    series_dir = tmp_path / "series"
    assert run(
        ["fluct", "--mu-list", "0.3,0.6,0.9", "--cycles", "40",
         "--pulses-per-cycle", "20000", "--seed", "11", "--fluct-a", "0.1",
         "--series-dir", series_dir, "--out", fit_path]
    ) == 0
    fit = read_json(fit_path)
    assert fit["slope"] > 0
    assert len(fit["points"]) == 3
    assert fit["meta"]["seed"] == 11

    series_files = sorted(series_dir.glob("series_mu_*.csv"))
    assert len(series_files) == 3
    refit_path = tmp_path / "refit.json"
    args = ["fluct", "--out", refit_path]
    for mu, path in zip(("0.3", "0.6", "0.9"), series_files):
        args += ["--series", f"{mu}={path}"]
    assert run(args) == 0
    assert read_json(refit_path)["points"][0]["mu"] == 0.3


def test_fluct_two_point_fit_is_strict_json(tmp_path):
    fit_path = tmp_path / "fit.json"
    assert run(["fluct", "--mu-list", "0.2,0.4", "--cycles", "10", "--pulses-per-cycle", "10000", "--out", fit_path]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    fit = json.loads(fit_path.read_text(), parse_constant=reject)
    assert fit["slope_se"] is None and fit["intercept_se"] is None


def test_fluct_routes_fit_the_same_quantity(tmp_path):
    # Simulated counts and the same counts read back from their files are
    # converted to per-cycle intensities in one place, so both fits agree.
    series_dir = tmp_path / "series"
    run_args = ["--pulses-per-cycle", "20000", "--detector", "2"]
    assert run(
        ["fluct", "--mu-list", "0.2,0.5,0.8", "--cycles", "30", "--seed", "5",
         "--series-dir", series_dir, "--out", tmp_path / "simulated.json", *run_args]
    ) == 0
    argv = ["fluct", "--out", tmp_path / "files.json", *run_args]
    for mu in ("0.2", "0.5", "0.8"):
        argv += ["--series", f"{mu}={series_dir / f'series_mu_{mu}.csv'}"]
    assert run(argv) == 0
    simulated, files = read_json(tmp_path / "simulated.json"), read_json(tmp_path / "files.json")
    assert {k: v for k, v in simulated.items() if k != "meta"} == {k: v for k, v in files.items() if k != "meta"}
    for key in ("units", "pulses_per_cycle", "detector"):
        assert simulated["meta"][key] == files["meta"][key]
    assert files["meta"]["input"] == "series files"


def test_fluct_series_with_simulation_flags_exits_one(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("cycle_index,counts\n0,5\n1,7\n")
    argv = ["fluct", "--series", f"0.2={series}", "--series", f"0.4={series}",
            "--mu-list", "0.5,0.9", "--cycles", "999", "--seed", "1", "--out", tmp_path / "fit.json"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --series fits the given files; --mu-list, --cycles, --seed only apply")
    assert not (tmp_path / "fit.json").exists()


def test_fluct_negative_slope_warns_on_stderr(tmp_path, capsys):
    # Twenty short cycles per mu: counting noise swamps the fluctuation.
    fit_path = tmp_path / "fit.json"
    assert run(
        ["fluct", "--mu-list", "0.2,0.4", "--cycles", "20", "--pulses-per-cycle", "10000", "--seed", "2",
         "--out", fit_path]
    ) == 0
    assert read_json(fit_path)["slope"] < 0
    err = capsys.readouterr().err
    assert err.startswith("warning: fitted slope -") and "counting noise" in err and "--fluct-a" in err


def test_fluct_mu_list_series_draw_independent_streams(tmp_path):
    # Each mu of one run gets its own sub-seed, so its series shares no random stream with the others.
    series_dir = tmp_path / "series"
    assert run(
        ["fluct", "--mu-list", "0.2,0.4", "--cycles", "50", "--pulses-per-cycle", "20000",
         "--seed", "1", "--series-dir", series_dir]
    ) == 0
    low, high = (
        [int(row["counts"]) for row in csv.DictReader((series_dir / f"series_mu_{mu}.csv").read_text().splitlines())]
        for mu in ("0.2", "0.4")
    )
    assert abs(np.corrcoef(low, high)[0, 1]) < 0.5


def test_sweep_csv_columns(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert run(
        ["sweep", "--mu-min", "0.3", "--mu-max", "0.9", "--steps", "3",
         "--pulses", "50000", "--seed", "7", "--out", out_path]
    ) == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 3
    assert list(rows[0]) == [
        "mu_true", "mu_method1", "mu_method2", "delta_mu", "residual",
        "pulses", "seed", "delta_I",
    ]
    assert float(rows[0]["mu_true"]) == 0.3


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--pulses", "100", "--out-histogram", "{out}"],
        ["sweep", "--steps", "2", "--pulses", "100", "--out", "{out}"],
        ["fluct", "--mu-list", "0.5", "--cycles", "2", "--pulses-per-cycle", "100", "--out", "{out}"],
    ],
    ids=["simulate", "sweep", "fluct"],
)
def test_seed_outside_64_bits_exits_one(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    assert run([a.format(out=out) for a in argv] + ["--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: seed must be a 64-bit unsigned integer, got {seed}\n"
    assert not out.exists()


def test_identical_seed_gives_byte_identical_outputs(tmp_path):
    paths = []
    for name, workers in (("a.json", "1"), ("b.json", "4")):
        path = tmp_path / name
        assert run(
            ["simulate", "--mu", "0.5", "--pulses", "100000", "--seed", "9",
             "--workers", workers, "--out-histogram", path]
        ) == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_outdir_env_redirects_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("WCPSTATS_OUTDIR", str(tmp_path / "redirected"))
    assert run(
        ["simulate", "--mu", "0.5", "--pulses", "1000", "--seed", "1",
         "--out-histogram", "hist.json"]
    ) == 0
    assert (tmp_path / "redirected" / "hist.json").exists()


def test_config_file_overrides(tmp_path):
    config = {
        "eta_d": 0.6,
        "rep_rate_hz": 1.0e6,
        "sources": {"S2": {"mu": 0.25}},
        "pulses": 5000,
        "seed": 21,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    hist_path = tmp_path / "hist.json"
    assert run(
        ["simulate", "--config", config_path, "--label", "S2",
         "--out-histogram", hist_path]
    ) == 0
    payload = read_json(hist_path)
    assert payload["total_pulses"] == 5000
    assert payload["meta"]["mu"] == 0.25
    assert payload["meta"]["seed"] == 21


@pytest.mark.parametrize(
    "source, flags, resolved",
    [
        ({"mu": 0.5}, ["--dark-rate", "0.01", "--fluct-a", "0.2"], {"mu": 0.5, "dark_rate": 0.01, "fluct_a": 0.2}),
        ({"mu": 0.5, "dark_rate": 0.01}, ["--mu", "0.3"], {"mu": 0.3, "dark_rate": 0.01}),
    ],
    ids=["flags-without-mu", "mu-keeps-config-dark-rate"],
)
def test_simulate_flags_replace_only_their_own_fields(tmp_path, source, flags, resolved):
    # A run from the config's source with some flags given equals a run from
    # a config that holds the resolved source, meta included.
    paths = []
    for name, entry, extra in (("flags", source, flags), ("resolved", resolved, [])):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"sources": {"S1": entry}}))
        paths.append(tmp_path / f"{name}-hist.json")
        assert run(["simulate", "--config", config, "--pulses", "20000", "--seed", "3",
                    "--out-histogram", paths[-1], *extra]) == 0
    from_flags, from_resolved = read_json(paths[0]), read_json(paths[1])
    assert from_flags == from_resolved
    assert from_flags["meta"]["dark_rate"] == resolved["dark_rate"]
    assert from_flags["meta"]["fluct_a"] == resolved.get("fluct_a", 0.0)
    assert from_flags["meta"]["fluct_b"] == 0.0


def test_simulate_mu_for_a_label_outside_the_config(tmp_path):
    path = tmp_path / "hist.json"
    assert run(["simulate", "--label", "foo", "--mu", "0.5", "--pulses", "1000", "--out-histogram", path]) == 0
    assert read_json(path)["meta"]["label"] == "foo"


def test_unknown_flag_exits_with_usage_error():
    for argv in (
        ["simulate", "--no-such-flag"],
        ["estimate", "--summary", "summary.json", "--method", "both"],
        ["estimate", "--summary", "summary.json", "--eff", "eff.json"],
        ["bounds", "--summary", "summary.json", "--eff", "eff.json", "--out", "bounds.json"],
        ["fluct", "--mu-list", "0.2,0.4", "--label", "S1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mu", "-1", "--pulses", "100", "--seed", "1", "--out-histogram", "{out}"],
        ["coincidence", "--timestamps", "{csv}", "--pulses", "10",
         "--offset-ps", "100000000000000000000", "--out", "{out}"],
        ["coincidence", "--timestamps", "{csv}", "--pulses", "10",
         "--config", "{config}", "--out", "{out}"],
    ],
    ids=["negative-mu", "huge-offset", "huge-rep-period"],
)
def test_bad_values_exit_one(tmp_path, capsys, argv):
    path = tmp_path / "input.csv"
    path.write_text("channel,time_ps\n1,100\n2,300\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rep_rate_hz": 1e-8}))  # a period of 1e20 ps
    out = tmp_path / "x.json"
    assert run([a.format(csv=path, config=config, out=out) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{config}", "--pulses", "10", "--out-histogram", "{out}", "--out-timestamps", "{csv}"],
        ["coincidence", "--timestamps", "{csv}", "--pulses", "10", "--config", "{config}", "--out", "{out}"],
    ],
    ids=["simulate", "coincidence-timestamps"],
)
@pytest.mark.parametrize("rate", [1e-300, 3e12], ids=["period-overflows", "period-below-1ps"])
def test_rep_rate_without_a_whole_ps_period_exits_one(tmp_path, capsys, argv, rate):
    path = tmp_path / "input.csv"
    path.write_text("channel,time_ps\n1,100\n2,300\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rep_rate_hz": rate}))
    out = tmp_path / "x.json"
    assert run([a.format(csv=path, config=config, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rep_rate_hz" in err
    assert not out.exists()


SERIES_ARGV = ["fluct", "--series", "0.3={path}"]
TIMESTAMPS_ARGV = ["coincidence", "--timestamps", "{path}", "--pulses", "10", "--out", "{out}"]


@pytest.mark.parametrize(
    "text, argv",
    [
        ("cycle_index,counts\n0,5\n1\n", SERIES_ARGV),
        ("cycle_index,counts\n0,5\n1,x\n", SERIES_ARGV),
        ("channel,time_ps\n1,100\n2\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,300,7\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2\n300,4,500\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n9,300\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,-5\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,x\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,50\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,9000000000000000000\n2,-9000000000000000000\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,1_000\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,300,\n", TIMESTAMPS_ARGV),
    ],
    ids=[
        "series-short-row",
        "series-bad-count",
        "timestamps-short-row",
        "timestamps-long-row",
        "timestamps-short-then-long-row",
        "timestamps-bad-channel",
        "timestamps-negative-time",
        "timestamps-bad-time",
        "timestamps-out-of-order",
        "timestamps-difference-past-int64",
        "timestamps-digit-separator",
        "timestamps-trailing-comma",
    ],
)
def test_malformed_csv_row_exits_one_naming_the_line(tmp_path, capsys, text, argv):
    path = tmp_path / "input.csv"
    path.write_text(text)
    out = tmp_path / "out.json"
    assert run([a.format(path=path, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}, line 3" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "counts, total",
    [(3, 3), ([1.5, 1.5] + [0] * 14, 2), ([1] * 15, 15), ([True] * 3 + [0] * 13, 3)],
    ids=["scalar", "fraction", "short", "bool"],
)
def test_bad_histogram_counts_exit_one(tmp_path, capsys, counts, total):
    path = tmp_path / "hist.json"
    path.write_text(json.dumps({"total_pulses": total, "counts": counts}))
    assert run(["coincidence", "--histogram", path, "--out", tmp_path / "s.json"]) == 1
    assert "pattern counts" in capsys.readouterr().err


def test_fluct_series_with_more_clicks_than_pulses_exits_one(tmp_path, capsys):
    argv = ["fluct", "--pulses-per-cycle", "20000", "--out", tmp_path / "fit.json"]
    for mu, counts in (("0.3", 3_000), ("0.6", 30_000)):
        path = tmp_path / f"series_mu_{mu}.csv"
        path.write_text("cycle_index,counts\n" + "".join(f"{k},{counts + k}\n" for k in range(5)))
        argv += ["--series", f"{mu}={path}"]
    assert run(argv) == 1
    assert "got 30000" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("spec", ["nonsense", "x=series.csv"])
def test_bad_series_spec_exits_one(capsys, spec):
    assert run(["fluct", "--series", spec]) == 1
    assert "expected MU=PATH" in capsys.readouterr().err


SUMMARY = {
    "total_pulses": 10,
    "subsets": {"1": 0.1, "2": 0.1, "3": 0.1, "4": 0.1, "1,2": 0.0, "1,3": 0.0, "1,4": 0.0,
                "2,3": 0.0, "2,4": 0.0, "3,4": 0.0, "1,2,3": 0.0, "1,2,4": 0.0,
                "1,3,4": 0.0, "2,3,4": 0.0, "1,2,3,4": 0.0},
    "orders": [0.1, 0.0, 0.0, 0.0],
}


@pytest.mark.parametrize(
    "payload",
    [
        {**SUMMARY, "orders": 3},
        {**SUMMARY, "orders": [None] * 4},
        {**SUMMARY, "subsets": [1, 2]},
        {**SUMMARY, "total_pulses": None},
        {**SUMMARY, "total_pulses": 1000.7},
        {**SUMMARY, "total_pulses": True},
        [SUMMARY],
    ],
    ids=["scalar-orders", "null-orders", "list-subsets", "null-total", "fractional-total",
         "bool-total", "list-top-level"],
)
def test_malformed_summary_exits_one(tmp_path, capsys, payload):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    assert run(["estimate", "--summary", path]) == 1
    assert capsys.readouterr().err.startswith("error: malformed coincidence summary")


@pytest.mark.parametrize(
    "payload",
    [
        {"eta": 0.5},
        {"eta": "0.1,0.1,0.1,0.1"},
        {"eta_d": "x"},
        3,
    ],
    ids=["scalar-eta", "string-eta", "string-eta_d", "scalar-top-level"],
)
def test_malformed_efficiency_file_exits_one(tmp_path, capsys, payload):
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps(SUMMARY))
    eff_path = tmp_path / "eff.json"
    eff_path.write_text(json.dumps(payload))
    out = tmp_path / "bounds.json"
    assert run(["bounds", "--summary", summary_path, "--config", eff_path, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: malformed run config: ")
    assert not out.exists()


SIMULATE_CONFIG_ARGV = ["simulate", "--config", "{path}", "--pulses", "10", "--out-histogram", "{out}"]
BOUNDS_CONFIG_ARGV = ["bounds", "--summary", "{summary}", "--config", "{path}", "--out", "{out}"]
ESTIMATE_CONFIG_ARGV = ["estimate", "--summary", "{summary}", "--config", "{path}", "--out", "{out}"]
SUMMARY_ARGV = ["bounds", "--summary", "{path}", "--out", "{out}"]


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        ([1, 2], ["coincidence", "--histogram", "{path}", "--out", "{out}"], "pattern histogram"),
        ({"total_pulses": True, "counts": [1] + [0] * 15},
         ["coincidence", "--histogram", "{path}", "--out", "{out}"], "pattern histogram"),
        ([1, 2], SIMULATE_CONFIG_ARGV, "run config"),
        ({"sources": {"S1": 3}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": [1, 2]}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"pulses": 1.9}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"seed": 2.7}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"pulses": True}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"puls": 10}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"sources": {"S1": {"mu": 0.5, "fluct_A": 0.1}}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": {"root": [0.5, 0.4], "transmitted": {"transmittance": 0.5, "reflectance": 0.4,
                                                           "loss": 0.1}, "reflected": [0.5, 0.4]}},
         SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": {"root": [0.5, 0.4], "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4],
                       "detector_order": [True, 2, 3, 4]}}, SIMULATE_CONFIG_ARGV, "run config"),
        ('{"pulses": 5, "pulses": 10}', SIMULATE_CONFIG_ARGV, "JSON"),
        ('{"sources": {"S1": {"mu": 0.5, "mu": 0.6}}}', SIMULATE_CONFIG_ARGV, "JSON"),
        ({"rep_rate_hz": True}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"eta_d": "0.6"}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"eta_c": [1, 1, True, 1]}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"sources": {"S1": {"mu": "0.5"}}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"sources": {"S1": {"mu": 0.5, "dark_rate": False}}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": {"root": [True, False], "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4]}},
         SIMULATE_CONFIG_ARGV, "run config"),
        ({"eta": [0.1] * 4, "eta_d": 0.5}, BOUNDS_CONFIG_ARGV, "run config"),
        ({"eta_b": [0.2] * 4, "eta": [0.1] * 4}, BOUNDS_CONFIG_ARGV, "run config"),
        ({"eta": [0.1, 0.1, 0.1, True]}, BOUNDS_CONFIG_ARGV, "run config"),
        ({"eta": [0.3, 0.2, 0.2, True]}, ESTIMATE_CONFIG_ARGV, "run config"),
        ({"eta_d": "0.5"}, ESTIMATE_CONFIG_ARGV, "run config"),
        ({**SUMMARY, "subsets": {**SUMMARY["subsets"], "1": "0.1"}}, SUMMARY_ARGV, "coincidence summary"),
        ({**SUMMARY, "orders": [0.1, False, 0.0, 0.0]}, SUMMARY_ARGV, "coincidence summary"),
        ({**SUMMARY, "subsets": {**SUMMARY["subsets"], "a": 0.0}}, SUMMARY_ARGV, "coincidence summary"),
        ({**SUMMARY, "subsets": {**SUMMARY["subsets"], "1,,2": 0.0}}, SUMMARY_ARGV, "coincidence summary"),
        ({**SUMMARY, "subsets": {**SUMMARY["subsets"], "1,2": 0.9, "2,1": 0.0}}, SUMMARY_ARGV,
         "coincidence summary"),
        ({k: v for k, v in SUMMARY.items() if k != "orders"}, SUMMARY_ARGV, "coincidence summary"),
        ({**SUMMARY, "subsets": {k: v for k, v in SUMMARY["subsets"].items() if k != "1,2"}}, SUMMARY_ARGV,
         "coincidence summary"),
        ({"total_pulses": 1}, ["coincidence", "--histogram", "{path}", "--out", "{out}"], "pattern histogram"),
        ({"counts": [1] + [0] * 15}, ["coincidence", "--histogram", "{path}", "--out", "{out}"],
         "pattern histogram"),
        ({"sources": {"S1": {"fluct_a": 0.1}}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": {"transmitted": [0.5, 0.4], "reflected": [0.5, 0.4]}}, SIMULATE_CONFIG_ARGV, "run config"),
        ([0.1, 0.1, 0.1, 0.1], BOUNDS_CONFIG_ARGV, "run config"),
        ({"eta": [0.1] * 4, "geometry": {"root": [0.5, 0.4], "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4]}},
         ESTIMATE_CONFIG_ARGV, "run config"),
        ({"eta": 0.5}, BOUNDS_CONFIG_ARGV, "run config: eta must be a list, got 0.5"),
        ({"eta": None}, BOUNDS_CONFIG_ARGV, "run config: eta must be a list, got None"),
        ({"geometry": {"root": 0.5, "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4]}}, SIMULATE_CONFIG_ARGV,
         "run config: geometry root must be a list or an object, got 0.5"),
        ({"geometry": {"root": [0.5, 0.4], "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4], "detector_order": 3}},
         SIMULATE_CONFIG_ARGV, "run config: detector_order must be a list, got 3"),
        ({"sources": []}, SIMULATE_CONFIG_ARGV, "run config: sources must be an object, got []"),
        ({"geometry": {"root": [0.5], "transmitted": [0.5, 0.4], "reflected": [0.5, 0.4]}}, BOUNDS_CONFIG_ARGV,
         "run config: geometry root must hold 2 ratios, got [0.5]"),
        ({"geometry": {"root": [0.5, 0.4], "transmitted": [0.5, 0.4, 0.1], "reflected": [0.5, 0.4]}},
         BOUNDS_CONFIG_ARGV, "run config: geometry transmitted must hold 2 ratios, got [0.5, 0.4, 0.1]"),
        ({"eta_d": 10**400}, BOUNDS_CONFIG_ARGV, "run config: eta_d must be a number within the float range"),
        ({**SUMMARY, "subsets": {**SUMMARY["subsets"], "1": 10**400}}, SUMMARY_ARGV,
         "coincidence summary: subset 1 must be a number within the float range"),
    ],
    ids=["list-histogram", "bool-histogram-total", "list-config", "scalar-source", "list-geometry", "fractional-pulses",
         "fractional-seed", "bool-pulses", "unknown-key", "unknown-source-key",
         "unknown-splitter-key", "bool-detector-order", "repeated-key", "repeated-nested-key",
         "bool-rep-rate", "string-eta_d", "bool-eta_c-entry", "string-mu", "bool-dark-rate",
         "bool-splitter-ratio", "eta-with-eta_d", "eta_b-with-eta", "bool-eta-entry",
         "estimate-bool-eta-entry", "estimate-string-eta_d", "string-subset-prob", "bool-order-prob",
         "letter-subset-key", "empty-field-subset-key", "subset-spelled-twice", "summary-without-orders",
         "summary-without-subset", "histogram-without-counts", "histogram-without-total", "source-without-mu",
         "geometry-without-root", "list-efficiency", "eta-with-geometry", "scalar-eta", "null-eta",
         "scalar-splitter", "scalar-detector-order", "list-sources", "one-ratio-splitter", "three-ratio-splitter",
         "eta_d-beyond-float", "subset-prob-beyond-float"],
)
def test_malformed_json_shape_exits_one(tmp_path, capsys, payload, argv, message):
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(SUMMARY))
    out = tmp_path / "out.json"
    assert run([a.format(path=path, summary=summary, out=out) for a in argv]) == 1
    # A message may go on past the file kind, to the reason the error must give.
    what, _, reason = message.partition(": ")
    assert capsys.readouterr().err.startswith(f"error: malformed {what}: {reason}")
    assert not out.exists()


def test_missing_key_is_named_in_the_whole_error(tmp_path, capsys):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({k: v for k, v in SUMMARY.items() if k != "orders"}))
    assert run(SUMMARY_ARGV[:2] + [path, "--out", tmp_path / "out.json"]) == 1
    assert capsys.readouterr().err == "error: malformed coincidence summary: missing key 'orders'\n"


def test_json_syntax_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"pulses": 5,}')
    assert run(["simulate", "--config", path, "--out-histogram", tmp_path / "out.json"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed JSON: ")


def test_config_accepts_integral_floats(tmp_path):
    config = RunConfig.from_dict({"pulses": 1e6, "seed": 2.0})
    assert (config.pulses, config.seed) == (1_000_000, 2)
    assert isinstance(config.pulses, int) and isinstance(config.seed, int)


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("wcpstats ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    subcommands = {"simulate", "coincidence", "estimate", "bounds", "leakage", "fluct", "sweep"}
    assert {argv[0] for argv in commands} == subcommands


def test_readme_example_config_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration file", 1)[1].split("\n## ", 1)[0]
    examples = [json.loads(block.split("```", 1)[0]) for block in section.split("```json")[1:]]
    assert [("eta" in example) for example in examples] == [False, True]
    configs = [RunConfig.from_dict(example) for example in examples]
    for config in configs:
        assert config.rep_period_ps == 800_000
        assert config.source("S1").mu == 0.5
    # The eta form states the overall efficiencies that the tree form resolves to.
    assert configs[1].efficiency_set.eta == tuple(examples[1]["eta"])
    assert configs[0].efficiency_set.eta == pytest.approx(configs[1].efficiency_set.eta, abs=1e-15)


@pytest.mark.parametrize(
    "argv, repeat",
    [
        (["leakage", "--source", "S1=62,5", "--source", "S1=63,5", "--source", "S2=62,5.1",
          "--out", "{out}"], "S1"),
        (["fluct", "--mu-list", "0.2,0.2,0.4", "--out", "{out}"], "0.2"),
        (["fluct", "--series", "0.3={series}", "--series", "0.3={series}", "--out", "{out}"], "0.3"),
    ],
    ids=["leakage-source", "fluct-mu-list", "fluct-series"],
)
def test_repeated_label_or_mu_exits_one(tmp_path, capsys, argv, repeat):
    series = tmp_path / "series.csv"
    series.write_text("cycle_index,counts\n0,5\n1,7\n")
    out = tmp_path / "out.json"
    assert run([a.format(series=series, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repeat in err and "twice" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--summary", "{summary}", "--detector", "0"], "argument --detector: invalid choice"),
        (["fluct", "--mu-list", "0.2,0.4", "--detector", "5"], "argument --detector: invalid choice"),
        (["sweep", "--detector", "7", "--out", "{out}"], "argument --detector: invalid choice"),
        (["simulate", "--pulses", "0", "--out-histogram", "{out}"], "argument --pulses: must be > 0, got 0"),
        (["coincidence", "--timestamps", "{csv}", "--pulses", "0", "--out", "{out}"],
         "argument --pulses: must be > 0, got 0"),
        (["fluct", "--mu-list", "0.2,0.4", "--pulses-per-cycle", "0"],
         "argument --pulses-per-cycle: must be > 0, got 0"),
        (["sweep", "--pulses", "0", "--out", "{out}"], "argument --pulses: must be > 0, got 0"),
        (["simulate", "--pulses", str(10**30), "--out-histogram", "{out}"], "argument --pulses: must be below 2**63"),
        (["coincidence", "--timestamps", "{csv}", "--pulses", str(2**63), "--out", "{out}"],
         "argument --pulses: must be below 2**63"),
        (["fluct", "--mu-list", "0.2,0.4", "--cycles", "3", "--pulses-per-cycle", str(10**30)],
         "argument --pulses-per-cycle: must be below 2**63"),
        (["sweep", "--steps", "2", "--pulses", str(10**30), "--out", "{out}"], "argument --pulses: must be below 2**63"),
    ],
    ids=["estimate", "fluct", "sweep", "simulate-pulses", "coincidence-pulses", "fluct-pulses-per-cycle",
         "sweep-pulses", "simulate-pulses-past-int64", "coincidence-pulses-past-int64",
         "fluct-pulses-per-cycle-past-int64", "sweep-pulses-past-int64"],
)
def test_detector_outside_one_to_four_is_usage_error(tmp_path, capsys, argv, message):
    # A count flag <= 0 is a usage error too, named as typed like --detector.
    summary, csv = tmp_path / "summary.json", tmp_path / "stamps.csv"
    summary.write_text(json.dumps(SUMMARY))
    csv.write_text("channel,time_ps\n1,100\n")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run([a.format(summary=summary, csv=csv, out=out) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        (None, "No such file"), ('{"pulses": 5,}', "malformed JSON: "), ('{"bogus": 1}', "malformed run config: "),
        ('{"pulses": 1e30}', "pulses must be in 1..2**63 - 1"),
    ],
    ids=["missing", "syntax-error", "unknown-key", "pulses-past-int64"],
)
def test_coincidence_histogram_reads_its_config(tmp_path, capsys, config, message):
    hist_path, config_path, out = tmp_path / "hist.json", tmp_path / "run.json", tmp_path / "summary.json"
    hist_path.write_text(json.dumps({"total_pulses": 10, "counts": [9, 1] + [0] * 14}))
    if config is not None:
        config_path.write_text(config)
    assert run(["coincidence", "--histogram", hist_path, "--config", config_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()
