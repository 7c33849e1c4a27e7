import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mhgnet import clusterer
from mhgnet.cli import main
from mhgnet.clusterer import ClusterAssignment
from mhgnet.config import RunConfig, parse_config, render_config
from mhgnet.data import load_series
from mhgnet.errors import ConfigError, FormatError
from mhgnet.launch import BLAS_THREADS, one_blas_thread
from mhgnet.model import (
    ForecastModel,
    ModelConfig,
    load_checkpoint,
    restore,
    save_checkpoint,
)
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


class TestLauncher:
    def test_unset_blas_thread_counts_become_one(self):
        env = {name: value for name, value in os.environ.items() if name not in BLAS_THREADS}
        one_blas_thread(env)
        assert all(env[name] == "1" for name in BLAS_THREADS)

    def test_counts_the_environment_sets_are_kept(self):
        env = {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": ""}
        one_blas_thread(env)
        assert env == {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}

    def test_the_launcher_runs_before_numpy_is_imported(self):
        # the command imports mhgnet, then the launcher: neither may import numpy
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, mhgnet.launch; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "False", out.stderr


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

    @pytest.mark.parametrize(
        "key,old,other",
        [
            ("refresh_per_batch", "no", "true"),
            ("rnn_width_multiplier", "1", "2"),
            ("warmup_lr_ramp", "yes", "false"),
            ("warmup_horizon_floor", "1", "0"),
        ],
    )
    def test_retired_keys(self, key, old, other):
        assert parse_config(f"p = 2\n{key} = {old}\n") == parse_config("p = 2\n")
        for value in (other, "x"):
            with pytest.raises(ConfigError, match="line 2:"):
                parse_config(f"p = 2\n{key} = {value}\n")

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

    @pytest.mark.parametrize(
        "line", ["hops = 0", "graph_mode = bogus", "alpha = nan", "train_ratio = inf", "lr = -1"]
    )
    def test_invalid_value_names_its_line(self, line):
        with pytest.raises(ConfigError, match="^line 2: "):
            parse_config(f"p = 2\n{line}\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\np = 2  # trailing\n")
        assert cfg.model.p == 2

    @pytest.mark.parametrize(
        "line",
        ["beta = nan", "alpha = inf", "alpha = 0", "lr = nan", "lr = -1", "lr = 0",
         "train_ratio = nan", "val_ratio = inf"],
    )
    def test_nonfinite_or_nonpositive_values_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(f"p = 2\n{line}\n")

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

    def test_convert_takes_no_seed(self, tmp_path):
        args = ["convert", "--csv", str(tmp_path / "r.csv"), "--out", str(tmp_path / "r.mhgt")]
        assert main(args + ["--seed", "1"]) == 2

    def test_negative_steps_per_day_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.mhgt"
        args = ["synth", "--nodes", "4", "--days", "2", "--patterns", "2", "--out", str(out)]
        assert main(args + ["--steps-per-day", "-3"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_variant_exits_2(self, synth_file):
        assert main(["ablate", "--data", str(synth_file), "--variant", "nope"]) == 2

    def test_missing_data_file_exits_1(self, tmp_path):
        assert main(["eval", "--data", str(tmp_path / "none.mhgt"), "--checkpoint", "x"]) == 1

    def test_data_file_with_trailing_bytes_exits_1(self, synth_file, tmp_path, capsys):
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        checkpoint = tmp_path / "m.mhgc"
        save_checkpoint(checkpoint, model.store.state(), model.assignment)
        size = synth_file.stat().st_size
        with open(synth_file, "ab") as fh:
            fh.write(b"\x01" * 7)
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(checkpoint)]) == 1
        assert f"(at byte {size})" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_data_file_with_zero_nodes_exits_1(self, command, tmp_path, capsys):
        # numpy warnings raise here (pytest's filterwarnings), so none is printed either
        data = tmp_path / "z.mhgt"
        data.write_bytes(b"MHGT" + np.array([1, 48, 0, 1, 24, 0], "<u4").tobytes())
        extra = ["--out", str(tmp_path / "run")] if command == "train" else ["--checkpoint", "x"]
        assert main([command, "--data", str(data)] + extra) == 1
        err = capsys.readouterr().err
        assert "bad header: series needs at least one node (at byte 8)" in err
        assert "Warning" not in err and "Traceback" not in err


    def test_undecodable_config_exits_1(self, synth_file, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"p = 2\nseed = \xff3\n")
        argv = ["graph-dump", "--data", str(synth_file), "--config", str(cfg_path)]
        assert main(argv) == 1
        assert "line 2:" in capsys.readouterr().err

    def test_undecodable_csv_exits_1(self, tmp_path, capsys):
        csv_path, out = tmp_path / "r.csv", tmp_path / "r.mhgt"
        csv_path.write_bytes(b"1,2\n3,4\n5,\xe96\n")
        assert main(["convert", "--csv", str(csv_path), "--out", str(out), "--steps-per-day", "1"]) == 1
        assert "line 3:" in capsys.readouterr().err
        assert not out.exists()


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


class TestMismatchedRuns:
    """Runs the CLI must refuse with exit 1, leaving no checkpoint."""

    @staticmethod
    def _synth(tmp_path, nodes):
        path = tmp_path / f"s{nodes}.mhgt"
        argv = ["synth", "--nodes", str(nodes), "--days", "3", "--patterns", "2"]
        assert main(argv + ["--steps-per-day", "24", "--out", str(path)]) == 0
        return path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_training_writes_no_checkpoint(self, tmp_path, capsys):
        # at lr = 1e308 the training loss stays finite, but the first Adam step
        # takes every parameter to about 5e306, whose square overflows: the run
        # stops there with one line, before any forward overflows and warns
        data = self._synth(tmp_path, 6)
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text("p = 2\nd = 4\nd_s = 4\nd_t = 4\nt_h = 6\nt_f = 6\nk = 4\n"
                            "epochs = 1\nlr = 1e308\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: parameter embed.weight has a non-finite sum of squares "
                              "after the Adam step: epoch=0 batch=0 param_norms: embed.weight=inf")
        assert not (out / "checkpoint.mhgc").exists()

    @pytest.mark.parametrize("command", ["eval", "cluster-inspect", "graph-dump"])
    def test_node_count_must_match_the_checkpoint_config(self, command, tmp_path, capsys):
        cfg = RunConfig(model=ModelConfig(p=2, d=4, d_s=4, d_t=4, t_h=6, t_f=6, k=4))
        model = ForecastModel(cfg.to_model_config(6, 24))
        cfg.model.n = 6
        (tmp_path / "config.cfg").write_text(render_config(cfg))
        ckpt = tmp_path / "checkpoint.mhgc"
        save_checkpoint(ckpt, model.store.state(), model.assignment)
        data = self._synth(tmp_path, 7)
        capsys.readouterr()
        assert main([command, "--data", str(data), "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config n = 6 does not match the series' 7 nodes\n"
        assert captured.out == ""


class TestInspection:
    def test_cluster_inspect_output(self, synth_file, capsys, tmp_path):
        cfg_path = _fast_config(tmp_path)
        assert main(["cluster-inspect", "--data", str(synth_file), "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "# ratios" in out and "# limits" in out and "# pools" in out
        assert out.count("\n") >= 12

    def test_graph_dump_output(self, synth_file, capsys, tmp_path):
        cfg_path = _fast_config(tmp_path)
        argv = ["--data", str(synth_file), "--config", str(cfg_path), "--seed", "2"]
        assert main(["graph-dump"] + argv) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "cluster,row,col,weight"
        assert len(out) > 1  # at seed 2 the fused graph is not empty
        for line in out[1:4]:
            cluster, row, col, weight = line.split(",")
            assert float(weight) >= 0.0
        assert main(["cluster-inspect"] + argv) == 0
        inspected = capsys.readouterr().out.splitlines()
        pools = inspected[inspected.index("type,size,members") + 1 :]
        sizes = [size for size in (int(line.split(",")[1]) for line in pools) if size]
        rows = {}  # (cluster, row): [(col, weight)]
        for line in out[1:]:
            cluster, row, col, weight = line.split(",")
            c, i, j = int(cluster), int(row), int(col)
            assert c < len(sizes) and i < sizes[c] and j < sizes[c], line
            rows.setdefault((c, i), []).append((j, weight))
        # cluster c is the c-th nonempty pool, with pool-local indices
        assert {c for c, _ in rows} == set(range(len(sizes)))
        for (c, i), entries in rows.items():  # a constant row covers its whole pool
            assert [j for j, _ in entries] == list(range(sizes[c]))
            assert len({w for _, w in entries}) == 1

    @staticmethod
    def _all_type_1_checkpoint(tmp_path):
        """Every node of type 1: a refresh never derives that (the node holding
        the largest first ratio is at distance 0 from type 0), so an output
        shows the stored assignment only if it serves it."""
        model = ForecastModel(
            ModelConfig(n=8, p=2, d=4, d_s=4, d_t=4, t_h=6, t_f=6, k=4, steps_per_day=24)
        )
        stored = ClusterAssignment.from_types(np.ones(8, dtype=np.int64), 2)
        ckpt = tmp_path / "stored.mhgc"
        save_checkpoint(ckpt, model.store.state(), stored)
        return ckpt, stored

    def test_graph_dump_uses_the_checkpoint_clusters(self, synth_file, tmp_path, monkeypatch):
        cfg_path = _fast_config(tmp_path)
        ckpt, stored = self._all_type_1_checkpoint(tmp_path)
        seen = []
        build = ForecastModel.build_graph

        def recording_build(self, *args):
            seen.append(self.assignment.types.copy())
            return build(self, *args)

        monkeypatch.setattr(ForecastModel, "build_graph", recording_build)
        argv = ["graph-dump", "--data", str(synth_file), "--config", str(cfg_path)]
        assert main(argv + ["--checkpoint", str(ckpt)]) == 0
        assert len(seen) == 1 and np.array_equal(seen[0], stored.types)
        assert main(argv) == 0  # without a checkpoint the clusters are refreshed
        assert len(seen) == 2 and not np.array_equal(seen[1], stored.types)

    def test_cluster_inspect_prints_the_checkpoint_clusters(self, synth_file, capsys, tmp_path):
        cfg_path = _fast_config(tmp_path)
        ckpt, _ = self._all_type_1_checkpoint(tmp_path)
        argv = ["cluster-inspect", "--data", str(synth_file), "--config", str(cfg_path)]
        assert main(argv + ["--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out.splitlines()
        pools = out[out.index("type,size,members") + 1 :]
        assert [int(line.split(",")[1]) for line in pools] == [0, 8]
        rows = out[out.index("node,r0,r1,type") + 1 : out.index("# limits")]
        assert [line.rsplit(",", 1)[1] for line in rows] == ["1"] * 8


    @pytest.mark.parametrize("source", ["refresh", "checkpoint"])
    def test_cluster_inspect_builds_the_feature_space_once(
        self, source, synth_file, tmp_path, monkeypatch
    ):
        cfg_path = _fast_config(tmp_path)
        argv = ["cluster-inspect", "--data", str(synth_file), "--config", str(cfg_path)]
        if source == "checkpoint":
            ckpt, _ = self._all_type_1_checkpoint(tmp_path)
            argv += ["--checkpoint", str(ckpt)]
        calls = []
        build = clusterer.build_feature_space

        def counting_build(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(clusterer, "build_feature_space", counting_build)
        assert main(argv) == 0
        assert len(calls) == 1


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

    def test_repeated_parameter_name_gives_format_error(self, synth_file, tmp_path, capsys):
        # the first parameter listed twice, its second copy raised by 5.0
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        good = tmp_path / "good.mhgc"
        save_checkpoint(good, model.store.state(), model.assignment)
        blob = good.read_bytes()
        values = model.store.state()["embed.weight"]  # [1, D]: the first record
        end = 12 + 2 + len("embed.weight") + 1 + 4 * values.ndim + 4 * values.size
        repeated = blob[12 : end - 4 * values.size] + (values + 5.0).astype("<f4").tobytes()
        count = (len(model.store.state()) + 1).to_bytes(4, "little")
        path = tmp_path / "repeated.mhgc"
        path.write_bytes(blob[:8] + count + blob[12:end] + repeated + blob[end:])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == end + 2  # the second copy's name
        assert "repeated parameter name 'embed.weight'" in str(exc.value)
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1
        assert f"(at byte {end + 2})" in capsys.readouterr().err

    def test_renamed_parameter_gives_format_error_at_its_name(self, synth_file, tmp_path, capsys):
        cfg = RunConfig().to_model_config(8, 24)
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, ForecastModel(cfg).store.state(), ForecastModel(cfg).assignment)
        blob = path.read_bytes()
        at = blob.index(b"embed.weight")
        path.write_bytes(blob.replace(b"embed.weight", b"EMBED.weight", 1))
        with pytest.raises(FormatError) as exc:
            restore(ForecastModel(cfg), path)
        assert exc.value.offset == at
        assert "'EMBED.weight'" in str(exc.value)
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"(at byte {at})" in err and "Traceback" not in err

    def test_version_1_checkpoint_rejected(self, synth_file, tmp_path, capsys):
        # version 1 stored the clusterer's ratio weights, which are gone
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        path = tmp_path / "old.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 4
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("pattern", ["0000c07f", "0100807f", "0000807f"])  # qNaN, sNaN, inf
    def test_nonfinite_value_gives_format_error(self, tmp_path, pattern):
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"embed.weight") + len("embed.weight") + 1 + 4 * 2 + 4  # 2nd value
        blob[at : at + 4] = bytes.fromhex(pattern)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    @pytest.mark.parametrize("bad_type", [3, 7, 0xFFFFFFFF])
    def test_node_type_outside_pattern_count(self, synth_file, tmp_path, capsys, bad_type):
        cfg = RunConfig().to_model_config(8, 24)  # p = 3
        model = ForecastModel(cfg)
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)
        blob = bytearray(path.read_bytes())
        node = 5
        at = len(blob) - 4 * 8 + 4 * node  # types are the last N u32s
        blob[at : at + 4] = int(bad_type).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            restore(ForecastModel(cfg), path)
        assert exc.value.offset == at
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trailing_bytes_rejected(self, synth_file, tmp_path, capsys):
        path = tmp_path / "m.mhgc"
        model = ForecastModel(RunConfig().to_model_config(8, 24))
        save_checkpoint(path, model.store.state(), model.assignment)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 22)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == size
        assert main(["eval", "--data", str(synth_file), "--checkpoint", str(path)]) == 1
        assert "trailing" in capsys.readouterr().err
