"""Field rules: the rules themselves, the constructors that call them, and
the command line's handling of malformed and non-finite input.

The command-line tests count Monte Carlo blocks through a patched
``engine._block_errors``: a rejected input must fail before any block runs.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starnoma.cli as cli
import starnoma.engine as engine
from starnoma.analytic import UserAnalyticParams
from starnoma.channel import PathLossParams, SubsurfaceAllocation, clt_moments, path_gain
from starnoma.engine import (
    STAR_VARIANT,
    BerEstimate,
    ScenarioConfig,
    StoppingRule,
    UserSpec,
    run_ber_point,
    run_sweep,
)
from starnoma.errors import ConfigError, InvalidParameterError, NumericError
from starnoma.noma import PowerAllocation
from starnoma.rules import count, nonnegative, number, one_of, positive, power_coefficients

NON_FINITE = (math.nan, math.inf, -math.inf)

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


class TestRules:
    @pytest.mark.parametrize("rule", [number, positive, nonnegative, count])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_numeric_rules_refuse_non_finite(self, rule, value):
        with pytest.raises(ConfigError, match="the_field"):
            rule("the_field", value)

    def test_ranges(self):
        assert positive("d", 2) == 2.0
        assert nonnegative("e", 0) == 0.0
        assert count("n", 4.0) == 4 and isinstance(count("n", 4.0), int)
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
            PathLossParams(math.inf, 6.0)
        with pytest.raises(InvalidParameterError):
            path_gain(math.inf, 2.0)

    def test_nan_exponent(self):
        with pytest.raises(ConfigError, match=r"system\.bs_exponent"):
            ScenarioConfig(variant=STAR_VARIANT, bs_exponent=math.nan,
                           users=(UserSpec(3.0, "transmission", 8, 1.0),))
        with pytest.raises(InvalidParameterError):
            PathLossParams(50.0, 6.0, bs_exponent=math.nan)

    def test_inf_transmit_power(self):
        with pytest.raises(ConfigError, match=r"system\.transmit_power"):
            ScenarioConfig(variant=STAR_VARIANT, transmit_power=math.inf,
                           users=(UserSpec(3.0, "transmission", 8, 1.0),))
        with pytest.raises(InvalidParameterError):
            PowerAllocation((1.0,), power=math.inf)

    def test_other_callers(self):
        alloc = PowerAllocation((0.7, 0.3))
        for call in (lambda: SubsurfaceAllocation((math.nan,), ("transmission",)),
                     lambda: clt_moments(math.nan, 4),
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
            run_sweep(cfg, "snr_db", [0.0, math.inf], [0])
        with pytest.raises(ConfigError, match=r"sweep\.snr_db"):
            run_sweep(cfg, "elements", [4, 8], [0], snr_db=math.nan)
        # A bad value late in the sweep fails before the first point runs.
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            run_sweep(cfg, "elements", [4, 8.5], [0], snr_db=10.0)
        assert blocks == []

    def test_underflow_is_derived_from_errors(self):
        est = BerEstimate.from_counts(0, 100, 0, (), 100, 1)
        assert est.underflow
        assert not BerEstimate.from_counts(3, 100, 0, (), 100, 1).underflow
        with pytest.raises(TypeError):
            BerEstimate.from_counts(0, 100, 0, (), 100, 1, underflow=False)


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
        assert rc == 1 and "sweep.values[1]" in err and blocks == []

    def test_sweep_elements_nan(self, tmp_path, capsys, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["sweep", "--config", path, "--axis", "elements",
                           "--values", "4,nan", "--snr-db", "10",
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and "sweep.values" in err and blocks == []

    def test_config_sweep_value_not_a_number(self, tmp_path, capsys, blocks):
        doc = with_field("sweep", "values", [0, "ten"])
        path = write_config(tmp_path / "c.json", doc)
        rc, err = run_cli(["sweep", "--config", path,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1 and "sweep.values[1]" in err and blocks == []

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

    @pytest.mark.parametrize("users, shown", [("3", "user 3"), ("0", "user 0")])
    def test_user_index_is_one_based(self, tmp_path, capsys, users, shown, blocks):
        path = write_config(tmp_path / "c.json", CONFIG)
        rc, err = run_cli(["sweep", "--config", path, "--users", users,
                           "--out", str(tmp_path / "o.csv"), *FAST], capsys)
        assert rc == 1
        assert f"sweep.users: {shown} out of range 1..2" in err

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
    @given(value=values)
    def check(value):
        doc = with_field(section, field, value, index)
        path = write_config(tmp_path / "c.json", doc)
        # An elements sweep reads sweep.snr_db; the others ignore it.
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


@PROPERTY
@given(bad=non_finite,
       command=st.sampled_from(["point", "sweep-snr", "sweep-values",
                                "fig2-snr-values", "fig4-fixed-snr"]))
def test_option_property(bad, command, tmp_path, capsys, blocks):
    path = write_config(tmp_path / "c.json", CONFIG)
    out = str(tmp_path / "out")
    argv, named = {
        "point": (["point", "--config", path, f"--snr-db={bad!r}"], "--snr-db"),
        "sweep-snr": (["sweep", "--config", path, "--axis", "elements",
                       "--values", "4,8", f"--snr-db={bad!r}", "--out", out],
                      "sweep.snr_db"),
        "sweep-values": (["sweep", "--config", path,
                          f"--values={_list([0.0, bad])}", "--out", out],
                         "sweep.values"),
        "fig2-snr-values": (["figure", "fig2", "--elements", "4",
                             f"--snr-values={_list([0.0, bad])}", "--out", out],
                            "--snr-values"),
        "fig4-fixed-snr": (["figure", "fig4", "--elements", "4,8",
                            f"--fixed-snr-db={bad!r}", "--out", out],
                           "--fixed-snr-db"),
    }[command]
    rc, err = run_cli(argv + FAST, capsys)
    assert rc == 1 and named in err and blocks == []


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
