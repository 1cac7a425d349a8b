import os

import pytest

from drsim.cli import main
from drsim.config import KEYS, ConfigError, parse_config
from drsim.protocols import ProtocolKind
from drsim.sim import INT_BOUNDS, SimConfig

# Every config key, with a non-default value as text and as parsed.
KEY_VALUES = [
    ("field_length", "200", 200.0),
    ("n_rings", "4", 4),
    ("node_count", "60", 60),
    ("initial_energy", "0.25", 0.25),
    ("packet_bits", "2000", 2000),
    ("protocol", "LEACH-C", ProtocolKind.LEACH_C),
    ("ch_probability", "0.1", 0.1),
    ("max_rounds", "700", 700),
    ("seed", "0", 0),
    ("runs", "7", 7),
    ("e_elec", "40e-9", 40e-9),
    ("e_fs", "12e-12", 12e-12),
    ("e_mp", "0.002e-12", 0.002e-12),
    ("e_da", "4e-9", 4e-9),
]
RADIO_KEYS = ("e_elec", "e_fs", "e_mp", "e_da")


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg == SimConfig()
        assert cfg.node_count == 100
        assert cfg.field_length == 100.0
        assert cfg.n_rings == 3
        assert cfg.protocol is ProtocolKind.DR

    def test_no_file_gives_defaults(self):
        assert parse_config(None) == SimConfig()

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "node_count = 60   # smaller network\n"
            "protocol = leach-c\n"
            "seed = 42\n"
            "e_fs = 12e-12\n")
        cfg = parse_config(str(path))
        assert cfg.node_count == 60
        assert cfg.protocol is ProtocolKind.LEACH_C
        assert cfg.seed == 42
        assert cfg.radio.e_fs == 12e-12
        assert cfg.radio.e_elec == 50e-9  # untouched default

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_count = 10\nnodecount = 10\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*nodecount"):
            parse_config(str(path))

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_count = 0\n")
        with pytest.raises(ConfigError, match="node_count"):
            parse_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_count\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            parse_config(str(path))

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("protocol = dr\n")
        cfg = parse_config(str(path), ["protocol=leach"])
        assert cfg.protocol is ProtocolKind.LEACH

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="override #1"):
            parse_config(None, ["bogus=1"])

    def test_bad_protocol_name(self):
        with pytest.raises(ConfigError, match="unknown protocol"):
            parse_config(None, ["protocol=teen"])

    @pytest.mark.parametrize("key,text,value", KEY_VALUES)
    def test_every_key_round_trips(self, key, text, value):
        # A renamed dataclass field renames a key: that must fail here.
        assert list(KEYS) == [k for k, _, _ in KEY_VALUES]
        default = SimConfig()
        cfg = parse_config(None, [f"{key}={text}"])
        if key in RADIO_KEYS:
            default, cfg = default.radio, cfg.radio
        assert getattr(default, key) != value
        assert getattr(cfg, key) == value
        assert type(getattr(cfg, key)) is type(value)


class TestCli:
    def test_partition_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["partition", "--out", str(out)]) == 0
        lines = (out / "partition.csv").read_text().splitlines()
        assert lines[0] == ("region_id,kind,ring,min_x,min_y,max_x,max_y,"
                            "mid_x,mid_y")
        assert len(lines) == 1 + 17
        assert lines[1].startswith("1,central,0,")

    def test_partition_row_count_follows_n(self, tmp_path):
        out = tmp_path / "out"
        assert main(["partition", "--out", str(out), "--set", "n_rings=4"]) == 0
        assert len((out / "partition.csv").read_text().splitlines()) == 1 + 25

    def test_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--out", str(out),
                   "--set", "node_count=30", "--set", "max_rounds=50",
                   "--set", "initial_energy=1000"])
        assert rc == 0
        lines = (out / "run.csv").read_text().splitlines()
        assert lines[0] == ("round,alive,ch_count,packets_to_bs,"
                            "energy_spent,cumulative_energy")
        assert len(lines) == 1 + 50
        assert "first node death" in (out / "run_summary.txt").read_text()

    def test_compare_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--out", str(out),
                   "--set", "node_count=25", "--set", "max_rounds=60",
                   "--set", "runs=2", "--set", "initial_energy=0.01"])
        assert rc == 0
        lines = (out / "experiment.csv").read_text().splitlines()
        assert lines[0] == "protocol,seed,fnd,hnd,lnd,total_packets"
        assert len(lines) == 1 + 3 * 2
        summary = (out / "compare_summary.txt").read_text()
        assert "FND improvement dr vs leach:" in summary
        assert "FND improvement dr vs leach-c:" in summary

    def test_analytic_sweep(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analytic", "--out", str(out)]) == 0
        lines = (out / "analytic.csv").read_text().splitlines()
        assert lines[0] == "rho,d,P,e_is,e_cr,e_ms,e_os,e_total"
        assert len(lines) == 1 + 21
        first = lines[1].split(",")
        assert first[2] == "0.00"
        assert lines[-1].split(",")[2] == "1.00"

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(out)])
        assert rc != 0
        assert "error" in capsys.readouterr().err
        assert not any(p.suffix == ".csv" for p in out.glob("*")) \
            if out.exists() else True

    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "o"),
                   "--set", "node_count=-3"])
        assert rc != 0
        assert "node_count" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "initial_energy=nan", "e_fs=inf", "field_length=inf", "e_da=nan",
        "ch_probability=nan", "ch_probability=1e-320",
        # finite, but a node's cost per round is not
        "field_length=1e200", "e_mp=1e300", "e_da=1e306",
        # the partition step L / (2 n_rings) is 0, or not a normal float
        "field_length=5e-324", "field_length=1e-307",
        pytest.param("node_count=" + "9" * 400, id="node_count=9x400"),
        pytest.param("n_rings=" + "9" * 400, id="n_rings=9x400"),
        pytest.param("max_rounds=" + "9" * 400, id="max_rounds=9x400"),
        pytest.param("runs=" + "9" * 400, id="runs=9x400"),
        pytest.param("packet_bits=" + "9" * 400, id="packet_bits=9x400"),
        "seed=-1",
        # one past each resource limit
        *(f"{name}={high + 1}" for name, (_, high) in INT_BOUNDS.items()
          if high != float("inf")),
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not (out / "run.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("n_rings", [2, 8])
    def test_analytic_rejects_other_ring_counts(self, tmp_path, capsys, n_rings):
        out = tmp_path / "out"
        assert main(["analytic", "--out", str(out),
                     "--set", f"n_rings={n_rings}"]) == 2
        err = capsys.readouterr().err
        assert "n_rings" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not (out / "analytic.csv").exists()

    # N / L^2 overflows at 1e-155, L^2 is 0 at 1e-170, and at 1e-153 the
    # density is finite but the closed forms overflow.
    @pytest.mark.parametrize("field_length", ["1e-155", "1e-170", "1e-153"])
    def test_analytic_rejects_tiny_fields(self, tmp_path, capsys, field_length):
        out = tmp_path / "out"
        assert main(["analytic", "--out", str(out),
                     "--set", f"field_length={field_length}"]) == 2
        err = capsys.readouterr().err
        assert "field_length" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not (out / "analytic.csv").exists()

    def test_config_file_not_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"node_count = 20\r\n# caf\xc3\xa9\nseed = \xff\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3:" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["--set", "node_count=20", "--set", "max_rounds=40",
                "--set", "initial_energy=0.02", "--set", "seed=77"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(out_a)] + args) == 0
        assert main(["run", "--out", str(out_b)] + args) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "out"
        assert main(["partition", "--out", str(out)]) == 0
        assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]
