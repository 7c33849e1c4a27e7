import os

import numpy as np
import pytest

from mhgnet.cli import main
from mhgnet.config import RunConfig, parse_config, render_config
from mhgnet.data import load_series
from mhgnet.errors import ConfigError, FormatError
from mhgnet.model import ForecastModel, ModelConfig, load_checkpoint, save_checkpoint
from mhgnet.train_eval import Schedule

# What render_config(RunConfig()) wrote before refresh_per_batch was retired;
# run directories from then must still load.
LEGACY_DEFAULT_CONFIG = """\
n = 0
p = 3
d = 10
d_s = 10
d_t = 10
t_h = 12
t_f = 12
k = 10
hops = 2
gamma = 0.05
alpha = 3.0
beta = 0.5
rnn_width_multiplier = 1
dropout = 0.15
seed = 1
graph_mode = full
single_cluster = false
lr = 0.006
warmup_epochs = 20
curriculum_length = 3
warmup_lr_ramp = true
warmup_horizon_floor = true
epochs = 100
batch_size = 64
train_ratio = 0.6
val_ratio = 0.2
test_ratio = 0.2
refresh_per_batch = false
"""


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "s.mhgt"
    assert (
        main(
            [
                "synth", "--nodes", "8", "--days", "4", "--patterns", "2",
                "--seed", "1", "--steps-per-day", "24", "--out", str(path),
            ]
        )
        == 0
    )
    return path


def _fast_config(tmp_path, **overrides):
    cfg = RunConfig(
        model=ModelConfig(p=2, d=4, d_s=4, d_t=4, t_h=6, t_f=6, k=4, dropout=0.1),
        schedule=Schedule(warmup_epochs=2, base_lr=0.004),
        epochs=2,
        batch_size=64,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "run.cfg"
    path.write_text(render_config(cfg))
    return path


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig(
            model=ModelConfig(p=2, gamma=0.123456789012345, single_cluster=True),
            schedule=Schedule(base_lr=3e-3),
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_legacy_default_config_parses(self):
        assert len(LEGACY_DEFAULT_CONFIG.splitlines()) == 28
        assert parse_config(LEGACY_DEFAULT_CONFIG) == RunConfig()

    def test_retired_key_rejects_true(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("p = 2\nrefresh_per_batch = true\n")
        assert "line 2" in str(exc.value) and "retired" in str(exc.value)

    def test_model_settings_checked_at_parse_time(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("hops = 0\n")
        assert "hops" in str(exc.value)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("p = 2\nbogus_key = 1\n")
        assert "line 2" in str(exc.value)

    def test_bad_value_with_line_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("epochs = soon\n")
        assert "line 1" in str(exc.value)

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\np = 2  # trailing\n")
        assert cfg.model.p == 2

    def test_booleans(self):
        assert parse_config("single_cluster = true\n").model.single_cluster
        assert not parse_config("single_cluster = false\n").model.single_cluster


class TestSynthConvert:
    def test_synth_writes_file_and_types(self, synth_file):
        series = load_series(synth_file)
        assert series.steps == 96 and series.nodes == 8
        sidecar = synth_file.parent / (synth_file.name + ".types")
        lines = sidecar.read_text().strip().splitlines()
        assert lines[0] == "node,type"
        assert len(lines) == 9

    def test_synth_spec_example_dimensions(self, tmp_path):
        out = tmp_path / "spec.mhgt"
        assert (
            main(
                ["synth", "--nodes", "24", "--days", "7", "--patterns", "2",
                 "--seed", "1", "--out", str(out)]
            )
            == 0
        )
        series = load_series(out)
        assert series.steps == 2016 and series.nodes == 24

    def test_convert(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("\n".join(",".join(str(float(i * 3 + j)) for j in range(3)) for i in range(8)))
        out = tmp_path / "r.mhgt"
        assert main(["convert", "--csv", str(csv), "--out", str(out), "--steps-per-day", "4"]) == 0
        series = load_series(out)
        assert series.steps == 8 and series.nodes == 3 and series.steps_per_day == 4


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        assert main(["synth", "--nodes", "4", "--days", "2", "--patterns", "1", "--bogus", "x"]) == 2

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_variant_exits_2(self, synth_file):
        assert main(["ablate", "--data", str(synth_file), "--variant", "nope"]) == 2

    def test_missing_data_file_exits_1(self, tmp_path):
        assert main(["eval", "--data", str(tmp_path / "none.mhgt"), "--checkpoint", "x"]) == 1


class TestTrainEvalFlow:
    @pytest.mark.slow
    def test_train_then_eval(self, synth_file, tmp_path):
        cfg_path = _fast_config(tmp_path)
        out_dir = tmp_path / "run"
        assert (
            main(["train", "--data", str(synth_file), "--config", str(cfg_path), "--out", str(out_dir)])
            == 0
        )
        assert (out_dir / "checkpoint.mhgc").exists()
        assert (out_dir / "config.cfg").exists()
        log_lines = (out_dir / "log.csv").read_text().strip().splitlines()
        assert len(log_lines) == 3  # header + 2 epochs

        assert (
            main(["eval", "--data", str(synth_file), "--checkpoint", str(out_dir / "checkpoint.mhgc")])
            == 0
        )

    @pytest.mark.slow
    def test_train_determinism_bitwise(self, synth_file, tmp_path):
        cfg_path = _fast_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert (
                main(
                    ["train", "--data", str(synth_file), "--config", str(cfg_path),
                     "--out", str(out_dir), "--seed", "5"]
                )
                == 0
            )
            blobs.append((out_dir / "checkpoint.mhgc").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.slow
    def test_seed_changes_checkpoint(self, synth_file, tmp_path):
        cfg_path = _fast_config(tmp_path)
        blobs = []
        for seed in ("5", "6"):
            out_dir = tmp_path / f"s{seed}"
            main(
                ["train", "--data", str(synth_file), "--config", str(cfg_path),
                 "--out", str(out_dir), "--seed", seed]
            )
            blobs.append((out_dir / "checkpoint.mhgc").read_bytes())
        assert blobs[0] != blobs[1]

    def test_env_seed_override(self, synth_file, tmp_path, monkeypatch):
        cfg_path = _fast_config(tmp_path, epochs=0)
        monkeypatch.setenv("MHGNET_SEED", "17")
        out_dir = tmp_path / "env"
        assert (
            main(["train", "--data", str(synth_file), "--config", str(cfg_path), "--out", str(out_dir)])
            == 0
        )
        written = parse_config((out_dir / "config.cfg").read_text())
        assert written.model.seed == 17

    def test_bad_env_seed_beside_checkpoint_exits_1(self, synth_file, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "m.mhgc"
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        save_checkpoint(ckpt, model.store.state(), model.assignment)
        monkeypatch.setenv("MHGNET_SEED", "abc")
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(ckpt)]) == 1
        assert "error:" in capsys.readouterr().err


class TestInspection:
    def test_cluster_inspect_output(self, synth_file, capsys, tmp_path):
        cfg_path = _fast_config(tmp_path)
        assert main(["cluster-inspect", "--data", str(synth_file), "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "# ratios" in out and "# limits" in out and "# pools" in out
        assert out.count("\n") >= 12

    def test_graph_dump_output(self, synth_file, capsys, tmp_path):
        cfg_path = _fast_config(tmp_path)
        assert main(["graph-dump", "--data", str(synth_file), "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "cluster,row,col,weight"
        for line in out[1:4]:
            cluster, row, col, weight = line.split(",")
            assert float(weight) >= 0.0


class TestMalformedCheckpoint:
    def test_truncated_or_corrupt_gives_format_error(self, synth_file, tmp_path, capsys):
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        good = tmp_path / "good.mhgc"
        save_checkpoint(good, model.store.state(), model.assignment)
        blob = good.read_bytes()
        tail = 4 + 4 * 8  # u32 N plus N u32 node types
        corrupt_name = bytearray(blob)
        corrupt_name[14] = 0xFF  # first byte of the first parameter name
        cases = {
            "six_bytes": blob[:6],
            "inside_header": blob[:10],
            "mid_payload": blob[: len(blob) // 2],
            "inside_assignment_count": blob[: len(blob) - tail + 2],
            "inside_assignment_types": blob[: len(blob) - 6],
            "corrupt_name": bytes(corrupt_name),
        }
        for name, data in cases.items():
            path = tmp_path / f"{name}.mhgc"
            path.write_bytes(data)
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert exc.value.offset is not None, name
            assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1, name
            assert "error:" in capsys.readouterr().err, name
