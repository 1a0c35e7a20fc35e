"""Field rules: the rules themselves, the constructors that call them, and
the command line's handling of malformed and non-finite input.

The command-line tests count Monte Carlo blocks through a patched
``engine._block_errors``: a rejected input must fail before any block runs.
"""

import errno
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import starnoma.cli as cli
import starnoma.engine as engine
from starnoma import presets
from starnoma.analytic import UserAnalyticParams
from starnoma.channel import clt_moments, path_gain
from starnoma.engine import (
    CLASSICAL_VARIANT,
    STAR_VARIANT,
    BerEstimate,
    Bernoulli,
    FigureRun,
    ScenarioConfig,
    StoppingRule,
    UserSpec,
    run_ber_point,
    run_classical_point,
)
from starnoma.errors import ConfigError, InvalidParameterError, NumericError
from starnoma.noma import PowerAllocation
from starnoma.rules import (count, nonnegative, number, one_of, positive, power_coefficients,
                            snr_from_db)

NON_FINITE = (math.nan, math.inf, -math.inf)
# Finite dB values whose linear SNR overflows to inf or underflows to 0.
EXTREME_DB = (3090.0, 4000.0, -4000.0)

CONFIG = {
    "system": {"variant": "star-ris-noma", "bs_ris_distance": 50.0,
               "bs_exponent": 2.0, "ris_user_exponent": 2.0,
               "transmit_power": 1.0, "sic_mode": "genie",
               "classical_exponent": 2.0},
    "users": [
        {"distance": 6.0, "zone": "transmission", "elements": 8,
         "power_coefficient": 0.7, "classical_distance": 17.3},
        {"distance": 4.0, "zone": "reflection", "elements": 8,
         "power_coefficient": 0.3, "classical_distance": 14.1},
    ],
    "sweep": {"axis": "snr_db", "values": [0.0, 5.0], "users": [1, 2],
              "snr_db": 10.0},
}
FAST = ["--min-errors", "10", "--max-trials", "70000"]

# Draws that every numeric rule refuses, by the rule's range.
non_finite = st.sampled_from(NON_FINITE)
not_positive = non_finite | st.floats(max_value=0.0, allow_nan=False)
negative = non_finite | st.floats(max_value=-1e-9, allow_nan=False)
not_a_count = (non_finite | st.integers(max_value=-1)
               | st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()))
# JSON values that Python's float() and int() would accept.
not_a_json_number = st.booleans() | st.sampled_from(["6", "0.3", "1e3"])


def star_config(**users0):
    return ScenarioConfig(
        variant=STAR_VARIANT,
        users=(UserSpec(**{"distance": 3.0, "zone": "transmission", "elements": 8,
                           "power_coefficient": 0.7, **users0}),
               UserSpec(2.5, "reflection", 8, 0.3)))


@pytest.fixture
def blocks(monkeypatch):
    """Monte Carlo blocks run during the test; every one is refused."""
    ran = []

    def refuse(*args):
        ran.append(args)
        raise AssertionError("a Monte Carlo block ran on rejected input")

    monkeypatch.setattr(engine, "_block_errors", refuse)
    return ran


def run_cli(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


def write_config(path, doc):
    path.write_text(json.dumps(doc))  # writes NaN and Infinity literals
    return str(path)


def with_field(section, field, value, index=None):
    doc = json.loads(json.dumps(CONFIG))
    target = doc[section] if index is None else doc[section][index]
    target[field] = value
    return doc


class _Float(float):
    pass


class TestRules:
    # Only an exact float or int skips the general check: bool, numpy
    # scalars, float subclasses and numeric strings keep their verdicts.
    @pytest.mark.parametrize("rule", [number, positive, nonnegative, count])
    @pytest.mark.parametrize("value", [
        *NON_FINITE, True, "6",
        pytest.param(np.float64("nan"), id="numpy-nan"),
        pytest.param(_Float(math.inf), id="float-subclass-inf"),
    ])
    def test_numeric_rules_refuse_non_finite(self, rule, value):
        with pytest.raises(ConfigError, match="the_field"):
            rule("the_field", value)

    def test_ranges(self):
        assert positive("d", 2) == 2.0
        assert nonnegative("e", 0) == 0.0
        assert count("n", 4.0) == 4 and isinstance(count("n", 4.0), int)
        assert positive("d", np.int64(3)) == 3.0 and count("n", np.int64(3)) == 3
        for call in (lambda: positive("d", 0.0), lambda: nonnegative("e", -0.5),
                     lambda: count("n", 2.5), lambda: count("n", 0, 1),
                     lambda: one_of("z", "sideways", ("a", "b")),
                     lambda: number("x", "ten")):
            with pytest.raises(ConfigError):
                call()

    @pytest.mark.parametrize("coeffs, message", [
        ((0.7, math.nan), r"c\[1\] must be finite"),
        ((math.inf, 0.3), r"c\[0\] must be finite"),
        ((0.3, 0.7), r"c\[0\] must be at least c\[1\]"),
        ((0.7, 0.2), r"c\[\*\] must sum to 1"),
        ((), r"c\[\*\] must be given"),
    ])
    def test_power_coefficients(self, coeffs, message):
        with pytest.raises(ConfigError, match=message):
            power_coefficients("c[{}]", coeffs)

    def test_rule_failures_are_parameter_errors(self):
        # Callers that catch InvalidParameterError keep catching rule failures.
        assert issubclass(ConfigError, InvalidParameterError)


class TestConstructorsRefuseNonFinite:
    def test_nan_power_coefficient(self):
        with pytest.raises(ConfigError, match=r"users\[1\]\.power_coefficient"):
            ScenarioConfig(variant=STAR_VARIANT,
                           users=(UserSpec(3.0, "transmission", 8, 0.7),
                                  UserSpec(2.5, "reflection", 8, math.nan)))
        with pytest.raises(InvalidParameterError):
            PowerAllocation((0.7, math.nan))

    def test_inf_distance(self):
        with pytest.raises(ConfigError, match=r"users\[0\]\.distance"):
            star_config(distance=math.inf)
        with pytest.raises(InvalidParameterError):
            path_gain(math.inf, 2.0)

    def test_nan_exponent(self):
        with pytest.raises(ConfigError, match=r"system\.bs_exponent"):
            ScenarioConfig(variant=STAR_VARIANT, bs_exponent=math.nan,
                           users=(UserSpec(3.0, "transmission", 8, 1.0),))

    def test_inf_transmit_power(self):
        with pytest.raises(ConfigError, match=r"system\.transmit_power"):
            ScenarioConfig(variant=STAR_VARIANT, transmit_power=math.inf,
                           users=(UserSpec(3.0, "transmission", 8, 1.0),))
        with pytest.raises(InvalidParameterError):
            PowerAllocation((1.0,), power=math.inf)

    def test_other_callers(self):
        alloc = PowerAllocation((0.7, 0.3))
        for call in (lambda: clt_moments(math.nan, 4),
                     lambda: UserAnalyticParams(0, alloc, math.inf, 8, 8),
                     lambda: UserAnalyticParams(0, alloc, 1e-4, 8, 4),
                     lambda: StoppingRule(min_errors=0),
                     lambda: StoppingRule(target_ci_width=math.nan)):
            with pytest.raises(InvalidParameterError):
                call()

    def test_point_and_sweep_entry_points(self, blocks):
        cfg = star_config()
        with pytest.raises(ConfigError, match="snr_db"):
            run_ber_point(cfg, math.nan, 0)
        with pytest.raises(ConfigError, match="seed"):
            run_ber_point(cfg, 10.0, 0, seed=-1)
        with pytest.raises(ConfigError, match="block_size"):
            run_ber_point(cfg, 10.0, 0, block_size=0)
        with pytest.raises(ConfigError, match=r"sweep\.values\[1\]"):
            FigureRun("", cfg, "snr_db", [0.0, math.inf], [0])
        with pytest.raises(ConfigError, match=r"sweep\.snr_db"):
            FigureRun("", cfg, "elements", [4, 8], [0], snr_db=math.nan)
        with pytest.raises(ConfigError, match=r"sweep\.users must be nonempty"):
            FigureRun("", cfg, "snr_db", [0.0], [])
        # A bad value late in the sweep fails before the first point runs.
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            FigureRun("", cfg, "elements", [4, 8.5], [0], snr_db=10.0)
        assert blocks == []

    @pytest.mark.parametrize("db", EXTREME_DB)
    def test_extreme_snr_db(self, db, blocks):
        cfg = star_config()
        with pytest.raises(ConfigError, match="snr_db"):
            run_ber_point(cfg, db, 0)
        with pytest.raises(ConfigError, match=r"sweep\.values\[0\]"):
            FigureRun("", cfg, "snr_db", [db], [0])
        with pytest.raises(ConfigError, match=r"sweep\.snr_db"):
            FigureRun("", cfg, "elements", [4, 8], [0], snr_db=db)
        assert blocks == []

    def test_snr_from_db_range(self):
        assert snr_from_db("s", 20.0) == 100.0
        assert snr_from_db("s", 3000.0) == 1e300
        assert 0.0 < snr_from_db("s", -3200.0) < 1e-319

    @pytest.mark.parametrize("user", [0.9, True, "1"])
    def test_sweep_users_are_counts(self, user, blocks):
        # int() maps each to a valid user, but none is a user index.
        with pytest.raises(ConfigError, match=r"sweep\.users\[0\]"):
            FigureRun("", star_config(), "snr_db", [0.0], [user])
        assert blocks == []

    def test_sweep_user_out_of_range(self, blocks):
        with pytest.raises(ConfigError, match=r"sweep\.users: user 3 out of range 1\.\.2"):
            FigureRun("", star_config(), "snr_db", [0.0], [2])
        assert blocks == []

    def test_sweep_user_repeated(self, blocks):
        # Both cells would draw stream (0, 1) and report the same estimate twice.
        with pytest.raises(ConfigError, match=r"sweep\.users: user 2 is repeated"):
            FigureRun("", star_config(), "snr_db", [0.0], [1, 0, 1])
        assert blocks == []

    @pytest.mark.parametrize("runner, variant", [(run_ber_point, STAR_VARIANT),
                                                 (run_classical_point, CLASSICAL_VARIANT)])
    @pytest.mark.parametrize("user", [-1, 2])
    def test_point_user_out_of_range(self, runner, variant, user, blocks):
        # users[-1] would otherwise simulate the last user without an error.
        cfg = ScenarioConfig(variant=variant, users=(
            UserSpec(3.0, "transmission", 8, 0.7, classical_distance=7.7),
            UserSpec(2.5, "reflection", 8, 0.3, classical_distance=7.1)))
        with pytest.raises(InvalidParameterError, match="user"):
            runner(cfg, 10.0, user)
        assert blocks == []

    def test_underflow_is_derived_from_errors(self):
        est = BerEstimate(Bernoulli(0, 100), 0, (), 100, 1, "max_trials")
        assert est.underflow
        assert not BerEstimate(Bernoulli(3, 100), 0, (), 100, 1, "max_trials").underflow
        with pytest.raises(TypeError):
            BerEstimate(Bernoulli(0, 100), 0, (), 100, 1, "max_trials", underflow=False)


class TestCommandLineDefects:
    def test_point_nan_snr(self, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["point", "--config", path, "--snr-db", "nan", *FAST], capsys)
        assert rc == 1 and "--snr-db" in err and blocks == []

    def test_point_nan_power_coefficient(self, tmp_path, capsys, blocks):
        doc = with_field("users", "power_coefficient", math.nan, index=1)
        path = write_config(tmp_path / "c.json", doc)
        rc, err = run_cli(["point", "--config", path, "--snr-db", "5", *FAST], capsys)
        assert rc == 1 and "users[1].power_coefficient" in err and blocks == []

    def test_sweep_infinite_value(self, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["sweep", "--config", path, "--values", "0,inf",
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and "--values[1]" in err and blocks == []

    def test_sweep_elements_nan(self, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["sweep", "--config", path, "--axis", "elements",
                           "--values", "4,nan", "--snr-db", "10",
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and "--values" in err and blocks == []

    def test_config_sweep_value_not_a_number(self, tmp_path, capsys, blocks):
        doc = with_field("sweep", "values", [0, "ten"])
        path = write_config(tmp_path / "c.json", doc)
        rc, err = run_cli(["sweep", "--config", path,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and "sweep.values[1]" in err and blocks == []

    @pytest.mark.parametrize("doc, named", [
        ({**CONFIG, "users": [{k: v for k, v in CONFIG["users"][0].items() if k != "zone"},
                              CONFIG["users"][1]]}, "users[0].zone: required field missing"),
        ([CONFIG], "top level: expected an object"),
        ({**CONFIG, "plot": {}}, "top level: unknown section(s) ['plot']"),
        ({k: v for k, v in CONFIG.items() if k != "users"}, "users: a nonempty list"),
        ({**CONFIG, "users": []}, "users: a nonempty list"),
        ({**CONFIG, "sweep": {**CONFIG["sweep"], "values": 5.0}}, "sweep.values: not a list"),
    ], ids=["missing-field", "not-an-object", "unknown-section",
            "users-absent", "users-empty", "values-not-a-list"])
    def test_malformed_config_is_named(self, doc, named, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", doc)
        rc, err = run_cli(["sweep", "--config", path, "--out", str(tmp_path / "o.csv"),
                           *FAST], capsys)
        assert rc == 1 and f"error: {named}" in err and blocks == []

    def test_unreadable_config(self, tmp_path, capsys, blocks):
        path = str(tmp_path / "absent.json")
        rc, err = run_cli(["point", "--config", path, "--snr-db", "5", *FAST], capsys)
        assert rc == 1 and f"error: cannot read config {path}" in err and blocks == []

    @pytest.mark.parametrize("flag", ["--min-errors", "--max-trials"])
    def test_zero_budget_is_a_validation_failure(self, tmp_path, capsys, flag, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["point", "--config", path, "--snr-db", "5", flag, "0"], capsys)
        assert rc == 1 and flag in err and blocks == []

    def test_negative_seed(self, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["point", "--config", path, "--snr-db", "5",
                           "--seed=-1", *FAST], capsys)
        assert rc == 1 and "seed" in err and blocks == []

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_bad_worker_count(self, tmp_path, capsys, workers, blocks):
        rc, err = run_cli(["figure", "fig2", "--out", str(tmp_path), "--elements", "4",
                           "--snr-values", "0", f"--workers={workers}", *FAST], capsys)
        assert rc == 1 and "--workers" in err and blocks == []

    def test_zero_workers_in_the_engine(self, blocks):
        with pytest.raises(ConfigError, match="workers"):
            run_ber_point(star_config(), 10.0, 0, workers=0)
        assert blocks == []

    @pytest.mark.parametrize("users, shown", [("3", "user 3"), ("0", "user 0")])
    def test_user_index_is_one_based(self, tmp_path, capsys, users, shown, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["sweep", "--config", path, "--users", users,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1
        assert f"--users: {shown} out of range 1..2" in err

    @pytest.mark.parametrize("argv, named", [
        (["--users", ","], "--users must be nonempty"),
        (["--users="], "--users must be nonempty"),
        ([], "sweep.users must be nonempty"),
    ])
    def test_empty_user_list_is_refused(self, tmp_path, capsys, argv, named, blocks):
        path = write_config(tmp_path / "c.json", with_field("sweep", "users", []))
        out = tmp_path / "o.csv"
        rc, err = run_cli(["sweep", "--config", path, *argv, "--out", str(out), *FAST],
                          capsys)
        assert rc == 1 and named in err and blocks == []
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    @pytest.mark.parametrize("argv, named", [
        (["--users", "2,2"], "--users: user 2 is repeated"),
        ([], "sweep.users: user 1 is repeated"),
    ])
    def test_repeated_user_is_refused(self, tmp_path, capsys, argv, named, blocks):
        path = write_config(tmp_path / "c.json", with_field("sweep", "users", [1, 2, 1]))
        rc, err = run_cli(["sweep", "--config", path, *argv,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and named in err and blocks == []

    def test_absent_user_list_means_every_user(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        del doc["sweep"]["users"]
        path = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o.csv"
        rc, err = run_cli(["sweep", "--config", path, "--out", str(out), *FAST], capsys)
        assert rc == 0, err
        assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"1", "2"}

    @pytest.mark.parametrize("user, shown", [
        (True, "sweep.users[0]"), (1.5, "sweep.users[0]"), ("1", "sweep.users[0]"),
        (0, "sweep.users: user 0 out of range 1..2"),
        (3, "sweep.users: user 3 out of range 1..2"),
    ])
    def test_config_sweep_users(self, tmp_path, capsys, user, shown, blocks):
        path = write_config(tmp_path / "c.json", with_field("sweep", "users", [user]))
        rc, err = run_cli(["sweep", "--config", path,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and shown in err and blocks == []

    def test_config_sweep_user_integral_float(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", with_field("sweep", "users", [2.0]))
        out = tmp_path / "o.csv"
        rc, err = run_cli(["sweep", "--config", path, "--out", str(out), *FAST], capsys)
        assert rc == 0, err
        assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"2"}

    def test_existing_output_survives_validation_failure(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", CONFIG)
        out = tmp_path / "keep.csv"
        out.write_bytes(b"earlier result\n")
        rc, _ = run_cli(["sweep", "--config", path, "--values", "5,1",
                         "--out", str(out), *FAST], capsys)
        assert rc == 1
        assert out.read_bytes() == b"earlier result\n"

    def test_existing_output_survives_runtime_failure(self, tmp_path, capsys,
                                                      monkeypatch):
        def fail(*args, **kwargs):
            raise NumericError("quadrature did not converge")

        monkeypatch.setattr(cli, "run_sweep", fail)
        path = write_config(tmp_path / "c.json", CONFIG)
        out = tmp_path / "keep.csv"
        out.write_bytes(b"earlier result\n")
        rc, _ = run_cli(["sweep", "--config", path, "--out", str(out), *FAST], capsys)
        assert rc == 2
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "keep.csv"]


# ---------------------------------------------------------------------------
# property tests: any non-finite or out-of-range value of any numeric field
# exits 1, names the field, and runs no Monte Carlo block.

PROPERTY = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

CONFIG_FIELDS = [
    ("system", None, "bs_ris_distance", not_positive, "system.bs_ris_distance"),
    ("system", None, "transmit_power", not_positive, "system.transmit_power"),
    ("system", None, "bs_exponent", negative, "system.bs_exponent"),
    ("system", None, "ris_user_exponent", negative, "system.ris_user_exponent"),
    ("system", None, "classical_exponent", negative, "system.classical_exponent"),
    ("users", 0, "distance", not_positive, "users[0].distance"),
    ("users", 1, "elements", not_a_count, "users[1].elements"),
    ("users", 1, "classical_distance", not_positive, "users[1].classical_distance"),
    ("users", 0, "power_coefficient", not_positive | st.floats(0.71, 1e3),
     "power_coefficient"),
    ("users", 1, "power_coefficient", not_positive | st.floats(0.31, 0.7),
     "power_coefficient"),
    ("sweep", None, "snr_db", non_finite, "sweep.snr_db"),
]


@pytest.mark.parametrize("section, index, field, values, named", CONFIG_FIELDS,
                         ids=[f[4] + ("" if f[1] is None else f"@{f[1]}")
                              for f in CONFIG_FIELDS])
def test_config_field_property(section, index, field, values, named, tmp_path,
                               capsys, blocks):
    @PROPERTY
    @given(value=values | not_a_json_number)
    @example(value=True)
    @example(value="6")
    def check(value):
        doc = with_field(section, field, value, index)
        path = write_config(tmp_path / "c.json", doc)
        # Every sweep checks a given sweep.snr_db; an elements sweep needs one.
        rc, err = run_cli(["sweep", "--config", path, "--axis", "elements",
                           "--values", "4,8", "--out", str(tmp_path / "o.csv"),
                           *FAST], capsys)
        assert rc == 1, err
        assert named in err
        assert blocks == []

    check()


@PROPERTY
@given(bad=non_finite, position=st.integers(0, 2))
def test_config_sweep_values_property(bad, position, tmp_path, capsys, blocks):
    values = [0.0, 5.0, 10.0]
    values[position] = bad
    path = write_config(tmp_path / "c.json", with_field("sweep", "values", values))
    rc, err = run_cli(["sweep", "--config", path, "--out", str(tmp_path / "o.csv"),
                       *FAST], capsys)
    assert rc == 1 and f"sweep.values[{position}]" in err and blocks == []


@PROPERTY
@given(users=st.lists(st.integers(-5, 5), min_size=1, max_size=3)
       .filter(lambda us: any(not 1 <= u <= 2 for u in us)))
def test_config_sweep_users_property(users, tmp_path, capsys, blocks):
    path = write_config(tmp_path / "c.json", with_field("sweep", "users", users))
    rc, err = run_cli(["sweep", "--config", path, "--out", str(tmp_path / "o.csv"),
                       *FAST], capsys)
    assert rc == 1 and "sweep.users" in err and blocks == []


def _list(values):
    return ",".join(repr(v) for v in values)


OPTION_COMMANDS = ("point", "sweep-snr", "sweep-snr-axis", "sweep-values",
                   "fig2-snr-values", "fig4-fixed-snr")


def _option_case(command, bad, tmp_path):
    """The argv that passes ``bad`` to one SNR option, and the name the
    error must show."""
    path = write_config(tmp_path / "c.json", CONFIG)
    out = str(tmp_path / "out")
    return {
        "point": (["point", "--config", path, f"--snr-db={bad!r}"], "--snr-db"),
        "sweep-snr": (["sweep", "--config", path, "--axis", "elements",
                       "--values", "4,8", f"--snr-db={bad!r}", "--out", out],
                      "--snr-db"),
        # An SNR sweep does not use --snr-db, but checks it when given.
        "sweep-snr-axis": (["sweep", "--config", path, "--axis", "snr_db",
                            f"--snr-db={bad!r}", "--out", out], "--snr-db"),
        "sweep-values": (["sweep", "--config", path,
                          f"--values={_list([0.0, bad])}", "--out", out],
                         "--values[1]"),
        "fig2-snr-values": (["figure", "fig2", "--elements", "4",
                             f"--snr-values={_list([0.0, bad])}", "--out", out],
                            "--snr-values[1]"),
        "fig4-fixed-snr": (["figure", "fig4", "--elements", "4,8",
                            f"--fixed-snr-db={bad!r}", "--out", out],
                           "--fixed-snr-db"),
    }[command]


# (figure, the list option given as ",", the other options it needs): an
# explicitly empty list is refused by name, not read as "use the default".
EMPTY_LIST_CASES = [
    ("fig2", "--elements", []),
    ("fig2", "--snr-values", []),
    ("fig3", "--allocations", ["--elements", "4"]),
    ("fig3", "--elements", ["--allocations", "0.7:0.3"]),
    ("fig4", "--allocations", ["--elements", "4,8"]),
    ("fig4", "--elements", []),
    ("fig5", "--snr-values", ["--elements", "4,4,8"]),
]


@pytest.mark.parametrize("figure,option,needs", EMPTY_LIST_CASES,
                         ids=[f"{c[0]}{c[1]}" for c in EMPTY_LIST_CASES])
def test_empty_list_option(figure, option, needs, tmp_path, capsys, blocks):
    argv = ["figure", figure, option, ",", *needs, "--out", str(tmp_path / "out")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and f"{option} must be nonempty" in err and blocks == []


@pytest.mark.parametrize("preset, kwargs, named", [
    (presets.fig2, {"element_counts": []}, "fig2 element_counts"),
    (presets.fig3, {"allocations": [], "element_counts": [4]}, "fig3 allocations"),
    (presets.fig3, {"allocations": [(0.7, 0.3)], "element_counts": []},
     "fig3 element_counts"),
    (presets.fig4, {"allocations": []}, "fig4 allocations"),
])
def test_empty_preset_arguments(preset, kwargs, named):
    # An empty list would silently drop every curve it spans.
    with pytest.raises(ConfigError, match=f"{named} must be nonempty"):
        preset(**kwargs)


@pytest.mark.parametrize("preset, args, named", [
    (presets.fig2, {"element_counts": [8.5]}, "fig2 element_counts[0]"),
    (presets.fig2, {"element_counts": [True]}, "fig2 element_counts[0]"),
    (presets.fig2, {"element_counts": [-0.5]}, "fig2 element_counts[0]"),
    (presets.fig3, {"allocations": [(0.7, 0.3)], "element_counts": [8.7]},
     "fig3 element_counts[0]"),
    (presets.fig4, {"element_counts": [6.5, 8]}, "fig4 element_counts[0]"),
    (presets.fig5, {"element_counts": (4.5, 4, 8)}, "fig5 element_counts[0]"),
], ids=["fig2-fraction", "fig2-bool", "fig2-negative", "fig3", "fig4", "fig5"])
def test_preset_refuses_a_non_integral_element_count(preset, args, named):
    # int() would run another count under a name made from the given one.
    with pytest.raises(ConfigError, match=f"^{re.escape(named)} must be an integer >= 0, got "):
        preset(**args)


@pytest.mark.parametrize("preset, args, named", [
    (presets.fig2, {"snr_values": [True, 10]}, "sweep.values[0]"),
    (presets.fig2, {"snr_values": ["10", "20"]}, "sweep.values[0]"),
    (presets.fig5, {"element_counts": (4, 4, 8), "snr_values": [False, True]},
     "sweep.values[0]"),
    (presets.fig3, {"allocations": [(math.nan, 0.5)], "element_counts": [4]},
     "fig3 allocations[0][0]"),
    (presets.fig4, {"allocations": [(0.3, 0.7)]}, "fig4 allocations[0][0]"),
    (presets.fig4, {"allocations": [(0.5, 0.3, 0.2)]}, "fig4 allocations[0]"),
    (presets.fig3, {"allocations": [(1.0,)], "element_counts": [4]}, "fig3 allocations[0]"),
], ids=["fig2-bool", "fig2-string", "fig5-bool", "fig3-nan", "fig4-order", "fig4-three",
        "fig3-one"])
def test_preset_refuses_what_it_would_convert(preset, args, named):
    # float() would run 1 dB for True and 10 dB for "10"; a NaN split would
    # fail in the run name, a reversed one under the config's field names,
    # and one of other than two coefficients where the run unpacks it.
    with pytest.raises(ConfigError, match=f"^{re.escape(named)} must "):
        preset(**args)


def test_empty_preset_grids():
    # The presets read an empty grid as empty too: the sweep refuses it.
    with pytest.raises(ConfigError, match="fig4 element_counts must be nonempty"):
        presets.fig4(element_counts=[])
    with pytest.raises(ConfigError, match="sweep.values must be nonempty"):
        presets.fig2(element_counts=[4], snr_values=[])


# (sweep options, the start of the error): a value refused by the sweep
# is named by the option that gave it, and so is a fixed SNR --axis needs.
SWEEP_OPTION_CASES = [
    (["--values", "nan"], "error: --values[0] must be a finite number"),
    (["--values", ""], "error: --values must be nonempty"),
    (["--snr-db", "nan"], "error: --snr-db must be a finite number"),
    (["--axis", "elements", "--values", "4,8"],
     "error: --snr-db must be given for a sweep over elements"),
    (["--axis", "elements", "--values", "4,8.5", "--snr-db", "10"],
     "error: --values[1] must be an integer >= 0, got 8.5"),
    (["--axis", "power", "--values", "0.6,1.2", "--snr-db", "10"],
     "error: --values[1]: the stronger-power coefficient must lie in [0.5, 1)"),
]


@pytest.mark.parametrize("options, message", SWEEP_OPTION_CASES,
                         ids=["values-nan", "values-empty", "snr-db-nan", "axis-without-snr-db",
                              "elements-fraction", "power-out-of-range"])
def test_sweep_option_names_its_refused_value(options, message, tmp_path, capsys, blocks):
    doc = json.loads(json.dumps(CONFIG))
    del doc["sweep"]["snr_db"]
    path = write_config(tmp_path / "c.json", doc)
    rc, err = run_cli(["sweep", "--config", path, *options,
                       "--out", str(tmp_path / "o.csv"), *FAST], capsys)
    assert rc == 1 and err.startswith(message) and blocks == []


def test_refused_sweep_value_creates_no_directory(tmp_path, capsys, blocks):
    # The run is checked before any output path, so no parent is made for one.
    path = write_config(tmp_path / "c.json", CONFIG)
    rc, err = run_cli(["sweep", "--config", path, "--axis", "snr_db", "--values", "0,nan",
                       "--out", str(tmp_path / "new" / "deep" / "x.csv"), *FAST], capsys)
    assert rc == 1 and "--values[1]" in err and blocks == []
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["point", "sweep"])
@pytest.mark.parametrize("distance", [1e200, 1e-200])  # the path gain underflows, overflows
@pytest.mark.parametrize("section, index, field, variant", [
    ("system", None, "bs_ris_distance", "star-ris-noma"),
    ("users", 1, "classical_distance", "classical-noma"),
])
def test_distance_without_a_path_gain_is_named(command, distance, section, index, field,
                                               variant, tmp_path, capsys, blocks):
    doc = with_field(section, field, distance, index)
    doc["system"]["variant"] = variant
    path = write_config(tmp_path / "c.json", doc)
    out = ["--out", str(tmp_path / "new" / "x.csv")] if command == "sweep" else \
        ["--snr-db", "10"]
    rc, err = run_cli([command, "--config", path, *out, *FAST], capsys)
    named = f"{section}.{field}" if index is None else f"{section}[{index}].{field}"
    assert rc == 1 and err.startswith(f"error: {named} must give a finite path gain > 0")
    assert "Traceback" not in err and blocks == []
    assert os.listdir(tmp_path) == ["c.json"]


def test_cascaded_gain_is_checked_per_user():
    # Each hop's gain is a float > 0, but their product underflows to 0.
    with pytest.raises(ConfigError, match=r"users\[0\]\.distance must give a finite path"):
        ScenarioConfig(variant=STAR_VARIANT, bs_ris_distance=1e100,
                       users=(UserSpec(1e100, "transmission", 8, 1.0),))
    assert star_config(distance=1e100).overall_gain(0) > 0.0


def test_sweep_option_names_the_axis_it_chose(tmp_path, capsys, blocks):
    doc = json.loads(json.dumps(CONFIG))
    doc["users"].append({**doc["users"][1], "power_coefficient": 0.1})
    doc["users"][1]["power_coefficient"] = 0.2
    path = write_config(tmp_path / "c.json", doc)
    rc, err = run_cli(["sweep", "--config", path, "--axis", "power", "--values", "0.6",
                       "--out", str(tmp_path / "o.csv"), *FAST], capsys)
    assert rc == 1 and blocks == []
    assert err.startswith("error: --axis=power supports exactly two users")


def test_sweep_section_names_its_missing_snr(tmp_path, capsys, blocks):
    doc = json.loads(json.dumps(CONFIG))
    del doc["sweep"]["snr_db"]
    doc["sweep"]["axis"] = "elements"
    doc["sweep"]["values"] = [4, 8]
    path = write_config(tmp_path / "c.json", doc)
    rc, err = run_cli(["sweep", "--config", path, "--out", str(tmp_path / "o.csv"),
                       *FAST], capsys)
    assert rc == 1 and blocks == []
    assert err.startswith("error: sweep.snr_db must be given for a sweep over elements")


@pytest.mark.parametrize("value", ["forty", math.nan])
def test_config_snr_db_on_snr_sweep(value, tmp_path, capsys, blocks):
    path = write_config(tmp_path / "c.json", with_field("sweep", "snr_db", value))
    rc, err = run_cli(["sweep", "--config", path, "--out", str(tmp_path / "o.csv"),
                       *FAST], capsys)
    assert rc == 1 and "sweep.snr_db" in err and blocks == []


# (figure, an option its preset has no parameter for, with its value, the
# options the figure needs): refused by name, not silently ignored.
UNTAKEN_OPTION_CASES = [
    ("fig2", ["--allocations", "0.9:0.1"], []),
    ("fig2", ["--fixed-snr-db", "nan"], []),
    ("fig4", ["--snr-values", "0,10"], []),
    ("fig5", ["--allocations", "0.7:0.3"], ["--elements", "4,4,8"]),
]


@pytest.mark.parametrize("figure,option,needs", UNTAKEN_OPTION_CASES,
                         ids=[f"{c[0]}{c[1][0]}" for c in UNTAKEN_OPTION_CASES])
def test_option_the_figure_does_not_take(figure, option, needs, tmp_path, capsys, blocks):
    argv = ["figure", figure, *option, *needs, "--out", str(tmp_path / "out")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and f"unrecognized arguments: {option[0]}" in err and blocks == []


# (figure, the options given, the option it needs that is missing): argparse
# refuses the command by the option's name before any output path is made.
MISSING_OPTION_CASES = [
    ("fig3", ["--elements", "4"], "--allocations"),
    ("fig5", ["--snr-values", "0,10"], "--elements"),
]


@pytest.mark.parametrize("figure,given,missing", MISSING_OPTION_CASES,
                         ids=[f"{c[0]}{c[2]}" for c in MISSING_OPTION_CASES])
def test_option_the_figure_needs(figure, given, missing, tmp_path, capsys, blocks):
    argv = ["figure", figure, *given, "--out", str(tmp_path / "new")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and f"the following arguments are required: {missing}" in err
    assert blocks == [] and not (tmp_path / "new").exists()


# (figure, an option with a value the preset refuses, the options the figure
# needs): the error names the option, not the sweep field or the parameter.
REFUSED_VALUE_CASES = [
    ("fig4", ["--elements", "8,4"], []),
    ("fig2", ["--snr-values", "10,0"], ["--elements", "4"]),
    ("fig5", ["--elements", "4,4"], []),
]


@pytest.mark.parametrize("figure,option,needs", REFUSED_VALUE_CASES,
                         ids=[f"{c[0]}{c[1][0]}" for c in REFUSED_VALUE_CASES])
def test_refused_value_names_its_option(figure, option, needs, tmp_path, capsys, blocks):
    argv = ["figure", figure, *option, *needs, "--out", str(tmp_path / "out")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and f"error: {option[0]} must" in err and blocks == []
    assert "sweep.values" not in err and "element_counts" not in err


# (figure, options whose runs would share a file name, the file): the second
# run would replace the first's curve, so the command is refused naming it.
REPEATED_OUTPUT_CASES = [
    ("fig2", ["--elements", "4,4"], "fig2_star_n4.csv"),
    ("fig3", ["--elements", "4,4", "--allocations", "0.7:0.3"], "fig3_a70_n4_perfect.csv"),
    # Both splits round to a70.
    ("fig3", ["--allocations", "0.705:0.295,0.704:0.296", "--elements", "4"],
     "fig3_a70_n4_perfect.csv"),
    ("fig4", ["--allocations", "0.7:0.3,0.7:0.3"], "fig4_a70.csv"),
]


@pytest.mark.parametrize("figure,options,repeated", REPEATED_OUTPUT_CASES,
                         ids=[f"{c[0]}{c[1][0]}={c[1][1]}" for c in REPEATED_OUTPUT_CASES])
def test_repeated_output_file_is_refused(figure, options, repeated, tmp_path, capsys,
                                         blocks):
    argv = ["figure", figure, *options, "--out", str(tmp_path / "out")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and str(tmp_path / "out" / repeated) in err and blocks == []
    assert "Traceback" not in err and list(tmp_path.rglob("*.csv")) == []


@PROPERTY
@given(bad=non_finite, command=st.sampled_from(OPTION_COMMANDS))
def test_option_property(bad, command, tmp_path, capsys, blocks):
    argv, named = _option_case(command, bad, tmp_path)
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and named in err and blocks == []


@pytest.mark.parametrize("command", OPTION_COMMANDS)
@pytest.mark.parametrize("db", EXTREME_DB)
def test_extreme_snr_db_option(command, db, tmp_path, capsys, blocks):
    argv, named = _option_case(command, db, tmp_path)
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and named in err and blocks == []


@pytest.mark.parametrize("command", OPTION_COMMANDS)
def test_negative_seed_names_its_option(command, tmp_path, capsys, blocks):
    argv, _ = _option_case(command, 10.0, tmp_path)
    rc, err = run_cli(argv + FAST + ["--seed=-1"], capsys)
    assert rc == 1 and "error: --seed must be an integer >= 0" in err and blocks == []


@pytest.mark.parametrize("command", ["sweep", "figure"])
def test_blocked_manifest_fails_before_the_first_block(command, tmp_path, capsys, request):
    # The manifest path is checked with the other outputs, so a run that
    # could not record its manifest runs no block and replaces no output.
    path = write_config(tmp_path / "c.json", CONFIG)
    if command == "sweep":
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "curve.csv")]
        manifest = tmp_path / "curve.csv.manifest.json"
    else:
        argv = ["figure", "fig2", "--elements", "4", "--snr-values", "0",
                "--out", str(tmp_path / "f2")]
        manifest = tmp_path / "f2" / "fig2.manifest.json"
    assert run_cli(argv + FAST, capsys)[0] == 0
    manifest.unlink()
    manifest.mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*.csv")}
    blocks = request.getfixturevalue("blocks")
    rc, err = run_cli(argv + FAST + ["--seed", "3"], capsys)
    assert rc == 1 and str(manifest) in err and blocks == []
    assert len(before) == (1 if command == "sweep" else 2)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*.csv")} == before


def test_rerun_without_hard_links_fails_before_the_first_block(tmp_path, capsys,
                                                              monkeypatch, request):
    # The commit keeps each existing output by a hard link until its new file
    # is in place.  On a filesystem without hard links (FAT, many SMB and FUSE
    # mounts) a rerun over existing outputs exits 1 naming the first of them,
    # runs no block and leaves every old file; a first run needs no link.
    def no_hard_links(*args, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted")

    argv = ["figure", "fig2", "--elements", "4", "--snr-values", "0", *FAST, "--out"]
    out = tmp_path / "f2"
    assert run_cli(argv + [str(out)], capsys)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(os, "link", no_hard_links)
    assert run_cli(argv + [str(tmp_path / "fresh")], capsys)[0] == 0
    blocks = request.getfixturevalue("blocks")
    rc, err = run_cli(argv + [str(out), "--seed", "1"], capsys)
    assert rc == 1 and str(out / "fig2_star_n4.csv") in err and blocks == []
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@PROPERTY
@given(pair=st.tuples(not_positive, st.floats(0.0, 1.0)).map(list)
       | st.tuples(st.floats(0.0, 1.0), not_positive).map(list)
       | st.tuples(st.floats(0.01, 0.49), st.floats(0.51, 0.99)).map(list),
       figure=st.sampled_from(["fig3", "fig4"]))
def test_allocations_property(pair, figure, tmp_path, capsys, blocks):
    argv = ["figure", figure, f"--allocations={pair[0]!r}:{pair[1]!r}",
            "--elements", "4", "--out", str(tmp_path / "out")]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and "--allocations" in err and blocks == []
