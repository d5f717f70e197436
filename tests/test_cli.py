"""End-to-end tests of the command-line surface."""

import json
import subprocess
import sys

import pytest

from wcpstats.cli import main
from wcpstats.coincidence import read_summary_json
from wcpstats.estimation import read_sweep_csv
from wcpstats.fileio import read_json


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
    assert run(
        ["estimate", "--summary", summary_path, "--method", "both", "--out", est_path]
    ) == 0
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


def test_estimate_vacuum_reports_insufficient_data(tmp_path, capsys):
    hist_path = tmp_path / "hist.json"
    assert run(
        ["simulate", "--mu", "1e-9", "--pulses", "5000", "--seed", "1",
         "--out-histogram", hist_path]
    ) == 0
    summary_path = tmp_path / "summary.json"
    assert run(["coincidence", "--histogram", hist_path, "--out", summary_path]) == 0
    code = run(["estimate", "--summary", summary_path, "--method", "both"])
    assert code == 1
    assert "insufficient data" in capsys.readouterr().err


def test_estimate_with_efficiency_file(tmp_path):
    hist_path = tmp_path / "hist.json"
    run(["simulate", "--mu", "0.4", "--pulses", "100000", "--seed", "8",
         "--out-histogram", hist_path])
    summary_path = tmp_path / "summary.json"
    run(["coincidence", "--histogram", hist_path, "--out", summary_path])

    eff_path = tmp_path / "eff.json"
    eff_path.write_text(json.dumps({
        "eta_b": [0.234156, 0.220324, 0.208833, 0.206568],
        "eta_c": 1.0,
        "eta_d": 0.65,
    }))
    est_path = tmp_path / "est.json"
    assert run(
        ["estimate", "--summary", summary_path, "--eff", eff_path,
         "--method", "rigorous", "--out", est_path]
    ) == 0
    assert read_json(est_path)["mu_rigorous"] == pytest.approx(0.4, rel=0.05)


def test_leakage_pair_value(capsys):
    assert run(["leakage", "--pair-r", "0.9904"]) == 0
    assert "0.0027" in capsys.readouterr().out


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


def test_sweep_csv_columns(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert run(
        ["sweep", "--mu-min", "0.3", "--mu-max", "0.9", "--steps", "3",
         "--pulses", "50000", "--seed", "7", "--out", out_path]
    ) == 0
    rows = read_sweep_csv(out_path)
    assert len(rows) == 3
    assert list(rows[0]) == [
        "mu_true", "mu_method1", "mu_method2", "delta_mu", "residual",
        "pulses", "seed", "delta_I",
    ]
    assert float(rows[0]["mu_true"]) == 0.3


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


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--no-such-flag"])
    assert exc.value.code == 2


def test_bad_values_exit_one(tmp_path, capsys):
    code = run(
        ["simulate", "--mu", "-1", "--pulses", "100", "--seed", "1",
         "--out-histogram", tmp_path / "x.json"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


SERIES_ARGV = ["fluct", "--series", "0.3={path}"]
TIMESTAMPS_ARGV = ["coincidence", "--timestamps", "{path}", "--pulses", "10", "--out", "{out}"]


@pytest.mark.parametrize(
    "text, argv",
    [
        ("cycle_index,counts\n0,5\n1\n", SERIES_ARGV),
        ("cycle_index,counts\n0,5\n1,x\n", SERIES_ARGV),
        ("channel,time_ps\n1,100\n2\n", TIMESTAMPS_ARGV),
        ("channel,time_ps\n1,100\n2,300,7\n", TIMESTAMPS_ARGV),
    ],
    ids=["series-short-row", "series-bad-count", "timestamps-short-row", "timestamps-long-row"],
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
    [(3, 3), ([1.5, 1.5] + [0] * 14, 2), ([1] * 15, 15)],
    ids=["scalar", "fraction", "short"],
)
def test_bad_histogram_counts_exit_one(tmp_path, capsys, counts, total):
    path = tmp_path / "hist.json"
    path.write_text(json.dumps({"total_pulses": total, "counts": counts}))
    assert run(["coincidence", "--histogram", path, "--out", tmp_path / "s.json"]) == 1
    assert "pattern counts" in capsys.readouterr().err


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
        [SUMMARY],
    ],
    ids=["scalar-orders", "null-orders", "list-subsets", "null-total", "list-top-level"],
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
        {"eta_b": 0.5},
        {"eta_b": [None, 0.1, 0.1, 0.1]},
        {"eta_b": [0.1] * 4, "eta_d": "x"},
        3,
    ],
    ids=["scalar-eta", "scalar-eta_b", "null-eta_b", "string-eta_d", "scalar-top-level"],
)
def test_malformed_efficiency_file_exits_one(tmp_path, capsys, payload):
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps(SUMMARY))
    eff_path = tmp_path / "eff.json"
    eff_path.write_text(json.dumps(payload))
    out = tmp_path / "bounds.json"
    assert run(["bounds", "--summary", summary_path, "--eff", eff_path, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


SIMULATE_CONFIG_ARGV = ["simulate", "--config", "{path}", "--pulses", "10", "--out-histogram", "{out}"]


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        ([1, 2], ["coincidence", "--histogram", "{path}", "--out", "{out}"], "pattern histogram"),
        ([1, 2], SIMULATE_CONFIG_ARGV, "run config"),
        ({"sources": {"S1": 3}}, SIMULATE_CONFIG_ARGV, "run config"),
        ({"geometry": [1, 2]}, SIMULATE_CONFIG_ARGV, "run config"),
    ],
    ids=["list-histogram", "list-config", "scalar-source", "list-geometry"],
)
def test_malformed_json_shape_exits_one(tmp_path, capsys, payload, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert run([a.format(path=path, out=out) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed {message}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--summary", "{summary}", "--detector", "0"],
        ["fluct", "--mu-list", "0.2,0.4", "--detector", "5"],
        ["sweep", "--detector", "7", "--out", "{out}"],
    ],
    ids=["estimate", "fluct", "sweep"],
)
def test_detector_outside_one_to_four_is_usage_error(tmp_path, capsys, argv):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(SUMMARY))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run([a.format(summary=summary, out=out) for a in argv])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()
