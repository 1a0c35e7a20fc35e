import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import starnoma.cli as cli
import starnoma.engine as engine
from starnoma import __version__, analytic, presets
from starnoma.cli import (
    CSV_HEADER,
    config_hash,
    config_to_dict,
    load_config,
    main,
    parse_config,
)
from starnoma.engine import (
    DEFAULT_BLOCK_SIZE,
    STAR_VARIANT,
    ScenarioConfig,
    UserSpec,
)
from starnoma.errors import ConfigError, InvalidParameterError, NumericError

STAR_CONFIG = {
    "system": {"variant": "star-ris-noma", "bs_ris_distance": 50.0,
               "transmit_power": 1.0, "sic_mode": "genie"},
    "users": [
        {"distance": 6.0, "zone": "transmission", "elements": 8,
         "power_coefficient": 0.7},
        {"distance": 4.0, "zone": "reflection", "elements": 8,
         "power_coefficient": 0.3},
    ],
    "sweep": {"axis": "snr_db", "values": [0.0, 5.0, 10.0], "users": [1, 2]},
}


# STAR_CONFIG with detected SIC: the cancelling user takes the imperfect-SIC
# analytic path.
DETECTED = {**STAR_CONFIG, "system": {**STAR_CONFIG["system"], "sic_mode": "detected"}}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(STAR_CONFIG))
    return path


def fast_args(extra=()):
    return list(extra) + ["--min-errors", "10", "--max-trials", "70000"]


def assert_run_conditions(manifest, workers):
    """The manifest names everything byte-identical output depends on."""
    assert manifest["block_size"] == DEFAULT_BLOCK_SIZE
    assert manifest["workers"] == workers
    assert manifest["stopping_rule"] == {"min_errors": 10, "max_trials": 70000,
                                         "target_ci_width": None}
    assert manifest["versions"] == {
        "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__}
    assert {"tool", "version", "config_hash", "seed", "timestamp", "outputs",
            "warnings"} <= set(manifest)


class TestConfigParsing:
    def test_round_trip(self):
        parsed, _ = parse_config(STAR_CONFIG)
        # Built in Python with int literals and a float element count.
        built = ScenarioConfig(variant=STAR_VARIANT, bs_ris_distance=50,
                               users=(UserSpec(6, "transmission", 8.0, 0.7),
                                      UserSpec(4, "reflection", 8, 0.3)))
        for config in (parsed, built):
            config2, _ = parse_config(json.loads(json.dumps(config_to_dict(config))))
            assert config == config2
            assert config_hash(config) == config_hash(config2)
        assert config_hash(built) == config_hash(parsed)
        assert type(built.users[0].elements) is int
        assert type(built.bs_ris_distance) is float
        assert type(built.users[0].distance) is float

    @pytest.mark.parametrize("field", ["distance", "classical_distance"])
    def test_null_named(self, field):
        bad = json.loads(json.dumps(STAR_CONFIG))
        bad["users"][1][field] = None
        with pytest.raises(ConfigError, match=rf"users\[1\]\.{field}"):
            parse_config(bad)

    def test_hash_insensitive_to_key_order(self):
        reordered = json.loads(json.dumps(STAR_CONFIG))
        reordered["system"] = dict(reversed(list(reordered["system"].items())))
        c1, _ = parse_config(STAR_CONFIG)
        c2, _ = parse_config(reordered)
        assert config_hash(c1) == config_hash(c2)

    def test_power_sum_violation_names_field(self):
        bad = json.loads(json.dumps(STAR_CONFIG))
        bad["users"][0]["power_coefficient"] = 0.8
        with pytest.raises(ConfigError, match="power_coefficient"):
            parse_config(bad)

    def test_unknown_field_named(self):
        bad = json.loads(json.dumps(STAR_CONFIG))
        bad["users"][0]["colour"] = "red"
        with pytest.raises(ConfigError, match="colour"):
            parse_config(bad)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config({"users": []})

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "system": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))


class TestPointCommand:
    def test_prints_labelled_values_per_user(self, config_path, capsys):
        rc = main(["point", "--config", str(config_path), "--snr-db", "5",
                   *fast_args()])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        for label in ("ber_mc=", "ci95=", "ber_closed_form=", "ber_numeric=",
                      "ber_asymptotic=", "trials=", "errors=", "stop="):
            assert label in out[0]

    def test_sole_occupant_prints_no_floor(self, config_path, capsys):
        rc = main(["point", "--config", str(config_path), "--snr-db", "5",
                   "--user", "2", *fast_args()])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ber_asymptotic=no-floor" in out

    def test_max_trials_is_exact(self, config_path, tmp_path, capsys):
        rc = main(["point", "--config", str(config_path), "--snr-db", "5",
                   "--min-errors", "1000000", "--max-trials", "1000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(" trials=1000 " in line for line in lines)
        assert all(line.endswith(" stop=max_trials") for line in lines)
        # A point that --min-errors stops after several blocks prints the same
        # bytes at one, two and five workers: blocks merge in index order, and
        # a block run past the stop gives no result.  Detected SIC on two users
        # takes the imperfect-SIC analytic path, so both routes are numbers.
        path = tmp_path / "detected.json"
        path.write_text(json.dumps(DETECTED))
        printed = []
        for workers in ("1", "2", "5"):
            rc = main(["point", "--config", str(path), "--user", "2", "--snr-db", "55",
                       "--min-errors", "20", "--workers", workers])
            assert rc == 0
            printed.append(capsys.readouterr())
        out = printed[0].out
        assert out.startswith("user=2 ") and out.endswith(" stop=min_errors\n")
        assert int(out.split(" trials=")[1].split()[0]) > 2 * DEFAULT_BLOCK_SIZE
        assert "ber_closed_form=nan" not in out and "ber_numeric=nan" not in out
        assert printed[1] == printed[0] and printed[2] == printed[0]

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = json.loads(json.dumps(STAR_CONFIG))
        bad["users"][0]["power_coefficient"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = main(["point", "--config", str(path), "--snr-db", "5"])
        assert rc == 1
        assert "power_coefficient" in capsys.readouterr().err

    def test_ordering_warning_goes_to_stderr(self, tmp_path, capsys):
        # User 1 takes the larger power share and is also the nearer user.
        doc = json.loads(json.dumps(STAR_CONFIG))
        doc["users"][0]["distance"], doc["users"][1]["distance"] = 4.0, 6.0
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(doc))
        rc = main(["point", "--config", str(path), "--snr-db", "5", *fast_args()])
        out, err = capsys.readouterr()
        assert rc == 0 and len(out.splitlines()) == 2
        assert err.startswith("warning: user 1 has higher power than user 2")

    def test_user_out_of_range_exits_one(self, config_path, capsys):
        rc = main(["point", "--config", str(config_path), "--snr-db", "5",
                   "--user", "7", *fast_args()])
        assert rc == 1
        assert "--user: user 7 out of range 1..2" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_schema_and_cardinality(self, config_path, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--seed", "4", *fast_args()])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert manifest["seed"] == 4
        assert len(manifest["config_hash"]) == 64

    def test_manifest_records_run_conditions(self, config_path, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--workers", "2", *fast_args()])
        assert rc == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert_run_conditions(manifest, workers=2)

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                       "--seed", "11", *fast_args()])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        # JSON rows on the detected-SIC config are the same bytes at one and
        # two workers; with two, a second block runs beside each point's first.
        path = tmp_path / "detected.json"
        path.write_text(json.dumps(DETECTED))
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            rc = main(["sweep", "--config", str(path), "--out", str(out), "--format", "json",
                       "--workers", workers, *fast_args()])
            assert rc == 0
            written.append(out.read_bytes())
        assert written[1] == written[0]

    def test_json_format_mirrors_schema(self, config_path, tmp_path):
        out = tmp_path / "curve.json"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--format", "json", *fast_args()])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert list(doc["rows"][0].keys()) == CSV_HEADER.split(",") + ["stop_reason"]
        # --min-errors 10 is reached long before --max-trials 70000
        assert {row["stop_reason"] for row in doc["rows"]} == {"min_errors"}

    def test_no_floor_column_value(self, config_path, tmp_path):
        out = tmp_path / "c.csv"
        main(["sweep", "--config", str(config_path), "--out", str(out),
              "--values", "5", "--users", "2", *fast_args()])
        row = out.read_text().splitlines()[1].split(",")
        assert row[7] == "no-floor"

    def test_unwritable_output_fails_before_compute(self, config_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        out = blocker / "sub" / "curve.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--max-trials", "1000000000", "--min-errors", "100000"])
        assert rc == 1

    def test_axis_from_flags_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "el.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--axis", "elements", "--values", "4,8", "--users", "2",
                   "--snr-db", "10", *fast_args()])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"


# The sweep config with detected SIC and both users in one zone: the
# cancelling user's asymptote is NaN with a note, the other's is a number.
DETECTED_SAME_ZONE = {**DETECTED,
                      "users": [{**u, "zone": "transmission"} for u in STAR_CONFIG["users"]]}


def run_sweep_outputs(path, tmp_path, extra=()):
    """The CSV text and JSON document of one sweep written in each format."""
    out = {}
    for fmt in ("csv", "json"):
        target = tmp_path / f"curve.{fmt}"
        rc = main(["sweep", "--config", str(path), "--out", str(target), "--format", fmt,
                   "--seed", "7", *extra, *fast_args()])
        assert rc == 0
        out[fmt] = target.read_text()
    return out["csv"], json.loads(out["json"])


class TestRouteTable:
    @pytest.mark.parametrize("doc", [STAR_CONFIG, DETECTED_SAME_ZONE],
                             ids=["genie", "detected-same-zone"])
    def test_csv_and_json_rows_carry_the_same_strings(self, doc, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        csv_text, json_doc = run_sweep_outputs(path, tmp_path)
        header, *lines = csv_text.splitlines()
        assert header == CSV_HEADER and len(lines) == len(json_doc["rows"]) == 3 * 2
        for line, row in zip(lines, json_doc["rows"]):
            assert line.split(",") == [str(row[name]) for name in header.split(",")]

    def test_added_route_reaches_json_and_point_but_not_csv(
            self, config_path, tmp_path, monkeypatch, capsys):
        csv_before, _ = run_sweep_outputs(config_path, tmp_path)

        def refused(params, stage, snr):
            raise InvalidParameterError("ber_refused is not derived here")

        names = [name for name, _ in engine.ANALYTIC_ROUTES]
        routes = dict(engine.ANALYTIC_ROUTES)
        monkeypatch.setattr(engine, "ANALYTIC_ROUTES", (
            (names[0], routes[names[0]]), ("ber_quarter", lambda params, stage, snr: 0.25),
            *[(name, routes[name]) for name in names[1:]], ("ber_refused", refused)))
        csv_after, json_doc = run_sweep_outputs(config_path, tmp_path)
        assert csv_after == csv_before
        table = [names[0], "ber_quarter", *names[1:], "ber_refused"]
        for row in json_doc["rows"]:
            assert list(row) == ["axis_value", "user", "ber_mc", "ci_low", "ci_high",
                                 *table, "trials", "errors", "stop_reason"]
            assert (row["ber_quarter"], row["ber_refused"]) == ("2.500000000000e-01", "nan")
        capsys.readouterr()
        assert main(["point", "--config", str(config_path), "--snr-db", "5", "--user", "1",
                     *fast_args()]) == 0
        out, err = capsys.readouterr()
        labels = [part.split("=")[0] for part in out.split()]
        assert labels == ["user", "ber_mc", "ci95", *table, "trials", "errors", "stop"]
        assert " ber_quarter=2.500000000000e-01 " in out and " ber_refused=nan " in out
        assert err == "note: ber_refused is not derived here\n"


class TestFigureCommand:
    def test_fig2_produces_star_and_classical_curves(self, tmp_path):
        rc = main(["figure", "fig2", "--out", str(tmp_path / "f2"),
                   "--snr-values", "0,10", "--elements", "4,8",
                   *fast_args()])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "f2").glob("*.csv"))
        assert files == ["fig2_classical.csv", "fig2_star_n4.csv", "fig2_star_n8.csv"]
        # every file carries both users' series
        for name in files:
            rows = (tmp_path / "f2" / name).read_text().splitlines()[1:]
            users = {r.split(",")[1] for r in rows}
            assert users == {"1", "2"}
        manifest = json.loads((tmp_path / "f2" / "fig2.manifest.json").read_text())
        assert len(manifest["outputs"]) == 3
        assert_run_conditions(manifest, workers=1)

    def test_fig3_requires_overrides(self, tmp_path, capsys):
        rc = main(["figure", "fig3", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "fig3" in err and "--allocations" in err and "--elements" in err

    def test_fig5_requires_element_split(self, tmp_path, capsys):
        rc = main(["figure", "fig5", "--out", str(tmp_path)])
        assert rc == 1
        assert "--elements" in capsys.readouterr().err

    def test_fig5_runs_with_overrides(self, tmp_path):
        rc = main(["figure", "fig5", "--out", str(tmp_path / "f5"),
                   "--elements", "4,4,4", "--snr-values", "0,10",
                   *fast_args()])
        assert rc == 0
        rows = (tmp_path / "f5" / "fig5_three_user.csv").read_text().splitlines()[1:]
        assert {r.split(",")[1] for r in rows} == {"1", "2", "3"}
        # Same-zone leakage and a three-user cancellation chain write the
        # same CSV bytes at one and two workers.
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            rc = main(["figure", "fig5", "--out", str(out), "--elements", "4,4,8",
                       "--snr-values", "0,20", "--workers", workers, *fast_args()])
            assert rc == 0
            written.append((out / "fig5_three_user.csv").read_bytes())
        assert written[1] == written[0]

    def test_fig4_default_allocations_differ_by_tenth(self, tmp_path):
        rc = main(["figure", "fig4", "--out", str(tmp_path / "f4"),
                   "--elements", "8,12", *fast_args()])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "f4").glob("*.csv"))
        assert files == ["fig4_a70.csv", "fig4_a80.csv"]

    def test_fig3_runs_with_overrides(self, tmp_path):
        rc = main(["figure", "fig3", "--out", str(tmp_path / "f3"),
                   "--allocations", "0.7:0.3,0.8:0.2", "--elements", "4",
                   "--snr-values", "0,10", *fast_args()])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "f3").glob("*.csv"))
        assert files == ["fig3_a70_n4_imperfect.csv", "fig3_a70_n4_perfect.csv",
                         "fig3_a80_n4_imperfect.csv", "fig3_a80_n4_perfect.csv"]

    def test_failed_run_leaves_directory_unchanged(self, tmp_path, monkeypatch):
        out = tmp_path / "f2"
        argv = ["figure", "fig2", "--out", str(out), "--snr-values", "0,10",
                "--elements", "4,8", *fast_args()]
        assert main(argv + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []

        def second_run_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise NumericError("quadrature did not converge")
            return real_run_sweep(*args, **kwargs)

        real_run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", second_run_fails)
        assert main(argv + ["--seed", "2"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_manifest_write_exits_two(self, tmp_path, monkeypatch, capsys):
        # A write that fails after the runs is a runtime error naming the
        # path, with no traceback and no temporary file left behind.
        real_replace = os.replace

        def full_disk(src, dst):
            if str(dst).endswith(".manifest.json"):
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk)
        out = tmp_path / "f2"
        rc = main(["figure", "fig2", "--out", str(out), "--snr-values", "0",
                   "--elements", "4", *fast_args()])
        err = capsys.readouterr().err
        assert rc == 2 and "fig2.manifest.json" in err and "Traceback" not in err
        assert not list(out.glob("*.tmp")) and not list(out.glob(".*.tmp"))

    def test_failed_output_write_leaves_every_old_file(self, tmp_path, monkeypatch,
                                                       capsys):
        # Every output is written before the first is renamed, so a write
        # that fails on the second output leaves the first output and the
        # manifest of the earlier run as they were.
        out = tmp_path / "f2"
        argv = ["figure", "fig2", "--out", str(out), "--snr-values", "0",
                "--elements", "4", *fast_args()]
        assert main(argv + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["fig2.manifest.json", "fig2_classical.csv",
                                  "fig2_star_n4.csv"]
        real_write_text, written = Path.write_text, []

        def second_write_fails(self, *args, **kwargs):
            written.append(self)
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_write_fails)
        capsys.readouterr()
        rc = main(argv + ["--seed", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and "fig2_classical.csv" in err and "Traceback" not in err
        assert len(written) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("rerun", [True, False])
    def test_failed_rename_restores_every_old_file(self, tmp_path, monkeypatch,
                                                   capsys, rerun):
        # The second rename fails after fig2_star_n4.csv has been replaced:
        # that output gets its old bytes back (or, on a first run, is
        # removed), the manifest still records seed 1, and no temporary or
        # kept-back file is left.
        out = tmp_path / "f2"
        argv = ["figure", "fig2", "--out", str(out), "--snr-values", "0",
                "--elements", "4", "--min-errors", "10", "--max-trials", "1000"]
        if rerun:
            assert main(argv + ["--seed", "1"]) == 0
        else:
            out.mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace, renamed = os.replace, []

        def second_rename_fails(src, dst, *args, **kwargs):
            renamed.append(Path(dst).name)
            if len(renamed) == 2:
                raise OSError(28, "No space left on device")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", second_rename_fails)
        capsys.readouterr()
        rc = main(argv + ["--seed", "2"])
        captured = capsys.readouterr()
        assert rc == 2 and "fig2_classical.csv" in captured.err
        assert "Traceback" not in captured.err and "wrote" not in captured.out
        assert renamed[:2] == ["fig2_star_n4.csv", "fig2_classical.csv"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # The commit's steps in order: each output, the manifest last, is
    # written to its temporary file, then each existing one is hard-linked
    # to a kept-back file, then each is renamed into place.
    OUTPUTS = ("fig2_star_n4.csv", "fig2_classical.csv", "fig2.manifest.json")
    COMMIT_FAULTS = [(rerun, step, i) for rerun in (True, False)
                     for step in ("write", "link", "replace") for i in range(3)
                     if rerun or step != "link"]  # a first run takes no link

    @pytest.mark.parametrize("rerun,step,index", COMMIT_FAULTS)
    def test_fault_at_each_commit_step(self, tmp_path, monkeypatch, capsys,
                                       rerun, step, index):
        # A full disk at any write, link or rename of the commit exits 2
        # naming that output, with no traceback; the directory is byte for
        # byte as before, and no temporary, kept-back or probe file is left.
        out = tmp_path / "f2"
        argv = ["figure", "fig2", "--out", str(out), "--snr-values", "0",
                "--elements", "4", *fast_args()]
        if rerun:
            assert main(argv + ["--seed", "1"]) == 0
        else:
            out.mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        seen = []

        def failing(real, is_commit_step):
            def call(*args, **kwargs):
                if is_commit_step(*args):
                    seen.append(args)
                    if len(seen) == index + 1:
                        raise OSError(28, "No space left on device")
                return real(*args, **kwargs)
            return call

        if step == "write":
            monkeypatch.setattr(Path, "write_text",
                                failing(Path.write_text, lambda *a: True))
        elif step == "link":
            monkeypatch.setattr(os, "link", failing(
                os.link, lambda src, dst: str(dst).endswith(".old")))
        else:
            monkeypatch.setattr(os, "replace", failing(
                os.replace, lambda src, dst: str(src).endswith(".tmp")))
        capsys.readouterr()
        rc = main(argv + ["--seed", "2"])
        captured = capsys.readouterr()
        assert len(seen) == index + 1
        assert rc == 2 and self.OUTPUTS[index] in captured.err
        assert "Traceback" not in captured.err and "wrote" not in captured.out
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_preset_rerun_byte_identical(self, tmp_path):
        for sub in ("r1", "r2"):
            rc = main(["figure", "fig4", "--out", str(tmp_path / sub),
                       "--elements", "6,10", "--seed", "21", *fast_args()])
            assert rc == 0
        for name in ("fig4_a70.csv", "fig4_a80.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())
        # A rerun over existing outputs records its own seed, and leaves no
        # temporary, kept-back or probe file (a dot-file).
        rc = main(["figure", "fig4", "--out", str(tmp_path / "r1"),
                   "--elements", "6,10", "--seed", "1", *fast_args()])
        assert rc == 0
        manifest = json.loads((tmp_path / "r1" / "fig4.manifest.json").read_text())
        assert manifest["seed"] == 1
        assert sorted(p.name for p in (tmp_path / "r1").iterdir()) == [
            "fig4.manifest.json", "fig4_a70.csv", "fig4_a80.csv"]


class TestUsageErrors:
    def test_unknown_figure_name(self, tmp_path):
        rc = main(["figure", "fig9", "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_required_flag(self):
        rc = main(["sweep"])
        assert rc == 1

    def test_figure_help_lists_only_its_options(self, capsys):
        # Each figure's subcommand is built from its preset's signature.
        rc = main(["figure", "fig3", "--help"])
        out = capsys.readouterr().out
        assert rc == 0 and "--allocations" in out and "--fixed-snr-db" not in out
        # Each option shows its help and a metavar of the form it takes, not
        # the name of the preset parameter it is stored under.
        rc = main(["figure", "fig4", "--help"])
        out = capsys.readouterr().out
        assert rc == 0 and "--snr-values" not in out
        assert "--fixed-snr-db DB " in out and "operating SNR of the element sweep (fig4)" in out
        assert "--elements N,..." in out and "--allocations A1:A2,..." in out
        assert not any(name in out for name in ("SNR_DB", "ELEMENT_COUNTS", "ALLOCATIONS"))


def fresh_python(code, *args):
    """Run ``code`` with ``args`` in a new interpreter that imports this
    checkout's package; return its stdout and stderr."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


# Imports the CLI, builds every preset, parses a config and evaluates the four
# analytic routes, then runs two commands that need no arrays.  With argv[1]
# == "block" importing numpy fails; either way no numpy module may be loaded.
ANALYTIC_ROUTES = """
import json, sys
from dataclasses import replace
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import starnoma, starnoma.cli
from starnoma import analytic, presets
from starnoma.cli import main, parse_config

plans = [presets.fig2(), presets.fig3([(0.7, 0.3)], [8]), presets.fig4(),
         presets.fig5([25, 25, 50])]
config, _ = parse_config(json.loads(sys.argv[2]))
shared = plans[3].runs[0].config.analytic_params(1)
detected = replace(config, sic_mode="detected").analytic_params(1)
bare = replace(config, users=(config.users[0], replace(config.users[1], elements=0)))
print(json.dumps([
    analytic.ber_closed_form(config.analytic_params(1), 100.0),
    analytic.ber_numeric(config.analytic_params(1), 100.0),
    analytic.ber_asymptotic(shared),
    analytic.ber_imperfect_sic(detected, replace(detected, index=0), 100.0),
    analytic.ber_numeric(bare.analytic_params(1), 100.0),
]))
print("rc", main(["point", "--config", sys.argv[3], "--snr-db", "0"]))
print("rc", main(["--version"]))
print("loaded", [m for m in sys.modules
                 if m.split(".")[0] == "numpy" and sys.modules[m] is not None])
"""


class TestImport:
    def test_package_import_leaves_scipy_special_out(self, config_path, tmp_path):
        # The package needs only numpy at run time: in an interpreter where
        # importing scipy fails, the CLI imports, runs a figure and a point,
        # and its manifest records the Python and numpy versions alone.
        code = ("import sys; sys.modules['scipy'] = None; "
                "import starnoma, starnoma.cli; "
                "print(starnoma.__file__); "
                "print('rc', starnoma.cli.main(['figure', 'fig2', '--elements', '4', "
                "'--snr-values', '0', '--min-errors', '10', '--max-trials', '1000', "
                "'--out', sys.argv[1]])); "
                "print('rc', starnoma.cli.main(['point', '--config', sys.argv[2], "
                "'--snr-db', '10', '--min-errors', '10', '--max-trials', '1000']))")
        out = fresh_python(code, tmp_path / "f2", config_path)[0].splitlines()
        src = Path(cli.__file__).resolve().parent.parent
        assert Path(out[0]).resolve().parent.parent == src
        assert [line for line in out if line.startswith("rc ")] == ["rc 0", "rc 0"]
        assert sum(line.startswith("user=") for line in out) == 2
        manifest = json.loads((tmp_path / "f2" / "fig2.manifest.json").read_text())
        assert sorted(manifest["versions"]) == ["numpy", "python"]

    @pytest.mark.parametrize("numpy_import", ["block", "allow"])
    def test_analytic_path_loads_no_numpy(self, numpy_import, tmp_path):
        # Configs, presets, validation errors and the paper's closed forms
        # are plain Python: numpy loads only when the first array is made.
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({
            "system": {"variant": "star-ris-noma"},
            "users": [{"distance": 6, "zone": "transmission", "elements": True,
                       "power_coefficient": 1}]}))
        out, err = fresh_python(ANALYTIC_ROUTES, numpy_import,
                                json.dumps(STAR_CONFIG), bad)
        lines = out.splitlines()
        config, _ = parse_config(STAR_CONFIG)
        shared = presets.fig5([25, 25, 50]).runs[0].config.analytic_params(1)
        detected = replace(config, sic_mode="detected").analytic_params(1)
        bare = replace(config, users=(config.users[0],
                                      replace(config.users[1], elements=0)))
        # Bit for bit the values computed with numpy loaded.
        assert json.loads(lines[0]) == [
            analytic.ber_closed_form(config.analytic_params(1), 100.0),
            analytic.ber_numeric(config.analytic_params(1), 100.0),
            analytic.ber_asymptotic(shared),
            analytic.ber_imperfect_sic(detected, replace(detected, index=0), 100.0),
            0.5,
        ]
        assert analytic.ber_numeric(bare.analytic_params(1), 100.0) == 0.5
        assert lines[1] == "rc 1" and "users[0].elements" in err
        assert lines[2:] == [__version__, "rc 0", "loaded []"]

    def test_pool_and_clock_load_on_first_use(self):
        # Start-up loads only what runs: the thread pool comes with the first
        # Monte Carlo point and the clock with the first manifest.
        code = ("import sys, starnoma.cli; "
                "print([m for m in ('concurrent.futures', 'datetime') if m in sys.modules])")
        assert fresh_python(code)[0].split() == ["[]"]

    def test_first_numpy_import_on_pool_threads(self, tmp_path):
        # The Monte Carlo blocks make the first arrays, so a fresh interpreter
        # imports numpy on a pool thread, with two workers possibly on both
        # at once.  The CSVs must match the one-worker run byte for byte.
        code = """
import sys, threading
import starnoma.cli
assert "numpy" not in sys.modules
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy imported on", threading.current_thread().name)
sys.meta_path.insert(0, Probe())
sys.exit(starnoma.cli.main(sys.argv[1:]))
"""
        outputs = {}
        for workers in (1, 2):
            out_dir = tmp_path / f"w{workers}"
            out = fresh_python(code, "figure", "fig2", "--elements", "4",
                               "--snr-values", "0,10", "--workers", workers,
                               "--seed", "5", "--out", out_dir, *fast_args())[0]
            first = [line for line in out.splitlines() if line.startswith("numpy ")]
            assert len(first) == 1 and "ThreadPoolExecutor" in first[0]
            outputs[workers] = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
            manifest = json.loads((out_dir / "fig2.manifest.json").read_text())
            assert manifest["versions"]["numpy"] == np.__version__
        assert sorted(outputs[1]) == ["fig2_classical.csv", "fig2_star_n4.csv"]
        assert outputs[2] == outputs[1]
