"""CLI commands: artifacts, determinism, exit codes, config precedence."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from utal import cli
from utal.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    RunConfig,
    _format_map_row,
    apply_config_entries,
    main,
    parse_config_file,
)
from utal.data import load_dataset
from utal.detect import evaluate
from utal.errors import ConfigError
from utal.model import decode_arrays, encode_arrays, init_model, load_checkpoint, save_checkpoint
from utal.net import DenseLayer, L2NormalizeLayer, ReluLayer
from utal.verify import (
    verify_expectation,
    verify_gradients,
    verify_kl_minimizer,
    verify_monotonicity,
)


def _write_config(path, text):
    path.write_text(text)
    return str(path)


def _eval_checkpoint(workspace, checkpoint, capsys) -> tuple[int, str]:
    """`utal eval` of `checkpoint` on the workspace's data: exit code and stderr."""
    _, cfg_path, data_dir, _, _ = workspace
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--config", str(cfg_path),
            "--checkpoint", str(checkpoint),
            "--manifest", str(data_dir / "manifest.json"),
            "--out", str(checkpoint.parent / "x"),
        ]
    )
    return code, capsys.readouterr().err


def _run_capped(args: list[str], timeout: float = 300, env=os.environ) -> subprocess.CompletedProcess:
    """`utal ARGS` in a child under a 1 GiB address-space cap, so a regression that
    reads or allocates without bound fails the test instead of exhausting the host;
    a child still running after `timeout` seconds is killed and fails it too.
    The child gets `env`, with this checkout's package put first on PYTHONPATH."""
    child = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from utal.cli import entry; entry()")
    src = str(Path(cli.__file__).parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join([src, env.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", child, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


# one strategy per JSON kind, for retyping a sidecar value
_JSON_KINDS = (
    (type(None), st.none()),
    (bool, st.booleans()),
    (int, st.integers()),
    (float, st.floats()),
    (str, st.text(max_size=4)),
    (list, st.lists(st.integers(), max_size=2)),
    (dict, st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
)


def _retyped(value):
    """A JSON value of another kind than `value`; an int counts as a float unless
    it is too large for one."""
    if type(value) is not float:
        return st.one_of([strategy for kind, strategy in _JSON_KINDS if kind is not type(value)])
    return st.one_of([st.just(10**400)] + [s for kind, s in _JSON_KINDS if kind not in (int, float)])


SMALL_DATA = """
# desk-size run for tests
data.num_videos = 6
data.t_range = 48, 64
data.num_classes = 3
data.d_feat = 16
data.instances_per_video = 1
train.hidden = 32
train.epochs = 2
train.batch_size = 32
proposals.scales = 8, 16, 32
"""


class TestConfigFile:
    def test_device_is_refused_unread(self):
        """A character device is no config file; /dev/zero would be read without end."""
        with pytest.raises(ConfigError) as err:
            parse_config_file(os.devnull)
        assert str(err.value) == f"config file {os.devnull} is missing or not a regular file"

    def test_parse_and_apply(self, tmp_path):
        path = _write_config(tmp_path / "run.cfg", SMALL_DATA + "train.lr = 0.01\nseed = 3\n")
        entries = parse_config_file(path)
        cfg = apply_config_entries(RunConfig(), entries)
        assert cfg.data.num_videos == 6
        assert cfg.data.t_range == (48, 64)
        assert cfg.train.lr == 0.01
        assert cfg.seed == 3
        assert cfg.proposals.scales == (8, 16, 32)

    def test_unknown_key_rejected(self, tmp_path):
        """An unknown key, section or dotless key is an error naming the file and the key."""
        for line, named in [
            ("data.bogus_field = 1", "unknown config key 'data.bogus_field'"),
            ("trian.epochs = 1", "unknown config section 'trian'"),
            ("epochs = 1", "unknown config key 'epochs' (expected section.key)"),
        ]:
            path = _write_config(tmp_path / "run.cfg", line + "\n")
            with pytest.raises(ConfigError) as err:
                apply_config_entries(RunConfig(), parse_config_file(path), path)
            assert str(err.value) == f"{path}: {named}"

    def test_malformed_line_rejected(self, tmp_path):
        path = _write_config(tmp_path / "run.cfg", "data.num_videos 6\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    @pytest.mark.parametrize("line", ["train.epochs = three", "seed = x"])
    def test_unparsable_value_is_config_error(self, tmp_path, capsys, line):
        path = _write_config(tmp_path / "bad.cfg", line + "\n")
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        key, value = (part.strip() for part in line.split("="))
        assert err.startswith("error: ")
        assert path in err and key in err and repr(value) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        [
            "train.mining_ratio = nan",
            "train.mining_ratio = inf",
            "train.lr = nan",
            "train.lr = inf",
            "data.noise_level = nan",
            "data.t_range = 64",
            "proposals.overlap = 1",
            "proposals.scales = 0",
            "proposals.pos_thr = 0.2",  # below neg_thr 0.3
            "train.k = 0",
            "train.mining_ratio = 0",
            "train.momentum = 1",
            "detect.cascade_steps = 0",
        ],
    )
    def test_non_finite_or_negative_value_is_config_error(self, tmp_path, capsys, line):
        """Each value outside its range is refused by its config, before any work;
        the functions that use the value do not check it again."""
        path = _write_config(tmp_path / "bad.cfg", SMALL_DATA + line + "\n")
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        key = line.split("=")[0].strip().split(".")[1]
        assert err.startswith(f"error: {path}: ") and re.search(rf"\b{key}\b", err), err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, line",
        [("train", "train.hidden = 1000000000000"), ("gen-data", "data.d_feat = 10000000000000")],
    )
    def test_setting_too_large_to_allocate_is_config_error(
        self, cli_workspace, tmp_path, capsys, command, line
    ):
        """The first array each run asks for (466 and 218 TiB) lies past the 128 TiB
        user address space, so numpy refuses it before any memory is touched."""
        _, _, data_dir, _, _ = cli_workspace
        path = _write_config(tmp_path / "big.cfg", SMALL_DATA + line + "\n")
        argv = [command, "--config", path, "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--manifest", str(data_dir / "manifest.json")]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        ["train.w_bin = nan", "train.w_cls = inf", "train.w_reg = -1", "train.condition_mode = he"],
    )
    def test_removed_key_is_unknown_key(self, tmp_path, capsys, line):
        """The three terms are summed with unit weights, and kl_l1 trains on He et al.'s
        branches; there is no weight or convention to set."""
        path = _write_config(tmp_path / "bad.cfg", SMALL_DATA + line + "\n")
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        key = line.split("=")[0].strip()
        assert err.startswith(f"error: {path}: unknown config key {key!r}")
        assert "Traceback" not in err

    def test_train_seed_is_config_error_pointing_to_seed(self, tmp_path, capsys):
        """`seed` alone sets the training seed; train.seed used to be overwritten silently."""
        path = _write_config(tmp_path / "bad.cfg", SMALL_DATA + "train.seed = 9\n")
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: train.seed ") and "set seed instead" in err
        assert not (tmp_path / "o").exists()


class TestGenData:
    def test_deterministic_manifest_bytes(self, tmp_path):
        cfg = _write_config(tmp_path / "run.cfg", SMALL_DATA)
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()

    def test_zero_videos_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path / "run.cfg", "data.num_videos = 0\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_slots_a_unit_too_short_are_config_error(self, tmp_path, capsys):
        """61 units hold 5 slots of 12.2; rounding inward leaves one of them 7 units
        between its margins, less than the shortest instance, 8."""
        text = "data.t_range = 61, 61\ndata.instances_per_video = 5\n"
        cfg = _write_config(tmp_path / "run.cfg", text)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "instances_per_video" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_manifest_loads_cleanly(self, tmp_path):
        from utal.data import load_dataset

        cfg = _write_config(tmp_path / "run.cfg", SMALL_DATA)
        main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "d")])
        dataset = load_dataset(tmp_path / "d" / "manifest.json")
        assert dataset.num_videos == 6

    def test_missing_out_is_usage_error(self, tmp_path):
        assert main(["gen-data"]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One tiny gen-data + train + eval chain shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(SMALL_DATA)
    data_dir = root / "data"
    train_dir = root / "train"
    eval_dir = root / "eval"
    assert main(["gen-data", "--config", str(cfg_path), "--seed", "7", "--out", str(data_dir)]) == EXIT_OK
    assert (
        main(
            [
                "train",
                "--config", str(cfg_path),
                "--seed", "7",
                "--loss", "kl_l1",
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(train_dir),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "eval",
                "--config", str(cfg_path),
                "--checkpoint", str(train_dir / "checkpoint.utal"),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(eval_dir),
            ]
        )
        == EXIT_OK
    )
    return root, cfg_path, data_dir, train_dir, eval_dir


class TestTrainCommand:
    def test_artifacts_exist(self, cli_workspace):
        _, _, _, train_dir, _ = cli_workspace
        assert (train_dir / "checkpoint.utal").exists()
        assert (train_dir / "checkpoint.utal.json").exists()
        assert (train_dir / "loss_curve.csv").exists()
        assert (train_dir / "offset_stats.csv").exists()
        assert (train_dir / "run_config.json").exists()

    def test_loss_curve_has_sigma_columns_for_kl(self, cli_workspace):
        _, _, _, train_dir, _ = cli_workspace
        rows = list(csv.DictReader(open(train_dir / "loss_curve.csv")))
        assert len(rows) == 2
        assert float(rows[0]["mean_sigma_pos"]) > 0

    def test_offset_stats_schema_uncertainty(self, cli_workspace):
        _, _, _, train_dir, _ = cli_workspace
        header = open(train_dir / "offset_stats.csv").readline().strip()
        assert header == "d_start,sigma_start,d_end,sigma_end"

    def test_l1_mode_drops_sigma_columns(self, cli_workspace, tmp_path):
        root, cfg_path, data_dir, _, _ = cli_workspace
        out = tmp_path / "l1run"
        assert (
            main(
                [
                    "train",
                    "--config", str(cfg_path),
                    "--seed", "7",
                    "--loss", "l1",
                    "--manifest", str(data_dir / "manifest.json"),
                    "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        header = open(out / "offset_stats.csv").readline().strip()
        assert header == "d_start,d_end"
        rows = list(csv.DictReader(open(out / "loss_curve.csv")))
        assert rows[0]["mean_sigma_pos"] == ""

    def test_epochs_zero_checkpoint_equals_initialization(self, cli_workspace, tmp_path):
        root, cfg_path, data_dir, _, _ = cli_workspace
        outs = []
        for name in ("z1", "z2"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "train",
                        "--config", str(cfg_path),
                        "--seed", "11",
                        "--loss", "kl_l1",
                        "--manifest", str(data_dir / "manifest.json"),
                        "--out", str(out),
                    ]
                )
                == EXIT_OK
            )
            outs.append(out)
        # an epochs=0 run must reproduce the raw initialization
        cfg0 = tmp_path / "zero.cfg"
        cfg0.write_text(SMALL_DATA.replace("train.epochs = 2", "train.epochs = 0"))
        out0 = tmp_path / "z0"
        assert (
            main(
                [
                    "train",
                    "--config", str(cfg0),
                    "--seed", "11",
                    "--loss", "kl_l1",
                    "--manifest", str(data_dir / "manifest.json"),
                    "--out", str(out0),
                ]
            )
            == EXIT_OK
        )
        from utal.model import TrainConfig, init_model, load_checkpoint

        trained, _ = load_checkpoint(out0 / "checkpoint.utal")
        fresh = init_model(
            TrainConfig(loss_mode="kl_l1", hidden=32, epochs=0), 16, 3, 11
        )
        for la, lb in zip(trained.dense_layers, fresh.dense_layers):
            np.testing.assert_array_equal(la.weights, lb.weights.astype("<f4").astype(np.float64))
        assert (outs[0] / "checkpoint.utal").read_bytes() == (outs[1] / "checkpoint.utal").read_bytes()

    def test_bytes_do_not_depend_on_the_blas_thread_variables(self, tmp_path):
        """utal pins one BLAS thread over the environment, so a child whose thread
        variables are 1, 2 or unset trains to the same bytes (a second thread
        rounds the matmuls differently wherever a second core exists)."""
        cfg = _write_config(tmp_path / "run.cfg", "data.num_videos = 20\ntrain.epochs = 1\n")
        data = tmp_path / "data"
        child = _run_capped(["gen-data", "--config", cfg, "--seed", "7", "--out", str(data)])
        assert child.returncode == EXIT_OK, child.stderr
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {name: value for name, value in os.environ.items() if name not in variables}
        envs = {
            "one": {**unset, **dict.fromkeys(variables, "1")},
            "two": {**unset, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
            "unset": unset,
        }
        names = ("checkpoint.utal", "checkpoint.utal.json", "loss_curve.csv", "offset_stats.csv")
        written = {}
        for label, env in envs.items():
            out = tmp_path / label
            args = ["train", "--config", cfg, "--manifest", str(data / "manifest.json"),
                    "--out", str(out)]
            child = _run_capped(args, env=env)
            assert child.returncode == EXIT_OK, (label, child.stderr)
            written[label] = {name: (out / name).read_bytes() for name in names}
        for label in ("two", "unset"):
            assert [n for n in names if written[label][n] != written["one"][n]] == [], label

    def test_manifest_record_order_changes_no_byte(self, tmp_path):
        """A dataset's videos are walked in video_id order, whatever order its
        manifest lists them in: the records reversed train and evaluate to the
        same files, byte for byte."""
        cfg = _write_config(tmp_path / "run.cfg", "data.num_videos = 20\ntrain.epochs = 1\n")
        data = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(data)]) == EXIT_OK
        doc = json.loads((data / "manifest.json").read_text())
        doc["videos"].reverse()
        (data / "reversed.json").write_text(json.dumps(doc))
        written = {}
        for name in ("manifest", "reversed"):
            manifest, out = str(data / f"{name}.json"), tmp_path / name
            args = ["--config", cfg, "--manifest", manifest]
            assert main(["train", *args, "--seed", "7", "--loss", "kl_l1",
                         "--out", str(out / "train")]) == EXIT_OK
            assert main(["eval", *args, "--checkpoint", str(out / "train" / "checkpoint.utal"),
                         "--out", str(out / "eval")]) == EXIT_OK
            written[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.*")}
        assert len(written["manifest"]) == 8 and written["reversed"].keys() == written["manifest"].keys()
        assert [p for p, b in written["manifest"].items() if written["reversed"][p] != b] == []

    def test_no_positives_error(self, tmp_path):
        # instances are <= 22 units; a lone scale-64 window can never reach
        # tIoU 0.5, so labeling yields no positives
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(
            SMALL_DATA + "proposals.scales = 64\nproposals.pos_thr = 0.5\nproposals.neg_thr = 0.5\n"
        )
        data_dir = tmp_path / "d"
        main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(data_dir)])
        code = main(
            [
                "train",
                "--config", str(cfg),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(tmp_path / "t"),
            ]
        )
        assert code == EXIT_CONFIG

    def _copy_data(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir, _, _ = cli_workspace
        shutil.copytree(data_dir, tmp_path / "data")
        return cfg_path, tmp_path / "data" / "manifest.json"

    def _train_error(self, cfg_path, manifest, tmp_path, capsys) -> str:
        args = ["train", "--config", str(cfg_path), "--manifest", str(manifest)]
        assert main(args + ["--out", str(tmp_path / "t")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err
        return err

    def test_missing_feature_file_names_manifest_and_file(self, cli_workspace, tmp_path, capsys):
        cfg_path, manifest = self._copy_data(cli_workspace, tmp_path)
        (manifest.parent / "features" / "vid0002.f32").unlink()
        assert "vid0002.f32" in self._train_error(cfg_path, manifest, tmp_path, capsys)

    @pytest.mark.parametrize("key", ["T", "feature_file"])
    def test_video_record_without_key_names_manifest_and_key(
        self, cli_workspace, tmp_path, capsys, key
    ):
        cfg_path, manifest = self._copy_data(cli_workspace, tmp_path)
        doc = json.loads(manifest.read_text())
        del doc["videos"][1][key]
        manifest.write_text(json.dumps(doc))
        assert repr(key) in self._train_error(cfg_path, manifest, tmp_path, capsys)

    def test_version_1_manifest_ends_in_one_error_to_regenerate(
        self, cli_workspace, tmp_path, capsys
    ):
        """A set written before the class names moved into the manifest: a class table
        file, num_classes and d_feat in every video record."""
        cfg_path, manifest = self._copy_data(cli_workspace, tmp_path)
        doc = json.loads(manifest.read_text())
        names = doc.pop("class_names")
        (manifest.parent / "classes.txt").write_text("".join(n + "\n" for n in names))
        doc.update(format_version=1, num_classes=len(names), class_table="classes.txt")
        for record in doc["videos"]:
            record["d_feat"] = doc["d_feat"]
        manifest.write_text(json.dumps(doc))
        err = self._train_error(cfg_path, manifest, tmp_path, capsys)
        assert err == (f"error: manifest {manifest}: top level: format_version must be 2; "
                       "regenerate the set with utal gen-data\n")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_loss_is_numeric_failure(self, tmp_path, capsys):
        """A learning rate that blows up the first step stops training at the next batch."""
        cfg = _write_config(tmp_path / "run.cfg", "data.num_videos = 8\ntrain.hidden = 16\n"
                                                  "train.epochs = 1\ntrain.lr = 1e30\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_OK
        capsys.readouterr()
        args = ["--config", cfg, "--manifest", str(tmp_path / "d" / "manifest.json")]
        assert main(["train", *args, "--out", str(tmp_path / "t")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "numeric failure: non-finite total loss at epoch 0 batch 1"

    def test_repeated_video_id_names_manifest_and_id(self, cli_workspace, tmp_path, capsys):
        cfg_path, manifest = self._copy_data(cli_workspace, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["videos"][3]["video_id"] = doc["videos"][1]["video_id"]
        manifest.write_text(json.dumps(doc))
        err = self._train_error(cfg_path, manifest, tmp_path, capsys)
        assert "video record 3 repeats video_id 'vid0001'" in err


class TestEvalCommand:
    # each file eval reads, in the order it reads them, and the name its errors give it
    _INPUTS = {
        "config-file": ("run.cfg", "config file"),
        "sidecar": ("train/checkpoint.utal.json", "checkpoint sidecar"),
        "checkpoint": ("train/checkpoint.utal", "checkpoint"),
        "manifest": ("data/manifest.json", "manifest"),
        "feature-file": ("data/features/vid0002.f32", "video vid0002: feature file"),
    }

    @staticmethod
    def _eval_args_on_copy(cli_workspace, tmp_path) -> list[str]:
        """eval's arguments on a copy of the workspace's config, data and checkpoint."""
        _, cfg_path, data_dir, train_dir, _ = cli_workspace
        shutil.copy(cfg_path, tmp_path / "run.cfg")
        shutil.copytree(data_dir, tmp_path / "data")
        shutil.copytree(train_dir, tmp_path / "train")
        return ["eval", "--config", str(tmp_path / "run.cfg"),
                "--checkpoint", str(tmp_path / "train" / "checkpoint.utal"),
                "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--out", str(tmp_path / "e")]

    @pytest.mark.parametrize("victim", list(_INPUTS))
    def test_input_that_is_a_fifo_is_refused_unread(self, cli_workspace, tmp_path, victim):
        """Every input must be a regular file: reading a fifo that no one writes would
        block forever, so the capped child gets a short timeout."""
        args = self._eval_args_on_copy(cli_workspace, tmp_path)
        relative, what = self._INPUTS[victim]
        fifo = tmp_path / relative
        fifo.unlink()
        os.mkfifo(fifo)
        expected = f"{what} {fifo} is missing or not a regular file\n"
        if victim == "feature-file":  # the loader names the manifest and the record too
            expected = f"manifest {tmp_path / 'data' / 'manifest.json'}: video record 2: {expected}"
        run = _run_capped(args, timeout=30)
        assert (run.returncode, run.stderr) == (EXIT_CONFIG, f"error: {expected}")

    @pytest.mark.parametrize("victim", ["config-file", "manifest"])
    def test_text_input_that_is_not_utf8_is_one_error(
        self, cli_workspace, tmp_path, capsys, victim
    ):
        """A Latin-1 byte in a JSON or config file ends in one error naming the file."""
        args = self._eval_args_on_copy(cli_workspace, tmp_path)
        relative, what = self._INPUTS[victim]
        path = tmp_path / relative
        path.write_bytes(path.read_bytes() + "# café\n".encode("latin-1"))
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {path}: 'utf-8' codec can't decode ")
        assert "byte 0xe9" in err and err.count("\n") == 1

    def test_report_and_detections_written(self, cli_workspace):
        """`utal eval` writes the detections and scores of `detect.evaluate`, the one
        composition of inference and scoring, on its run config's settings."""
        _, cfg_path, data_dir, train_dir, eval_dir = cli_workspace
        report = json.loads((eval_dir / "report.json").read_text())
        assert set(report["map_by_tiou"]) == {"0.3", "0.4", "0.5", "0.6", "0.7"}
        header = open(eval_dir / "detections.csv").readline().strip()
        assert header == "video_id,class_id,start,end,score"
        cfg = apply_config_entries(RunConfig(), parse_config_file(cfg_path))
        model, _ = load_checkpoint(train_dir / "checkpoint.utal")
        dets, expected = evaluate(model, load_dataset(data_dir / "manifest.json"),
                                  cfg.detect, cfg.proposals)
        expected = json.loads(json.dumps(expected.to_dict()))
        keys = ("map_by_tiou", "per_class_ap", "num_detections", "num_ground_truths")
        assert {k: report[k] for k in keys} == {k: expected[k] for k in keys}
        with open(eval_dir / "detections.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert dets and rows == [
            [d.video_id, str(d.class_id), repr(d.start), repr(d.end), repr(d.score)] for d in dets
        ]

    def test_no_detection_above_the_score_floor_warns_and_writes_zeros(
        self, cli_workspace, tmp_path, capsys
    ):
        _, _, data_dir, train_dir, _ = cli_workspace
        path = _write_config(tmp_path / "floor.cfg", SMALL_DATA + "detect.score_floor = 2\n")
        capsys.readouterr()
        out = tmp_path / "e"
        code = main(["eval", "--config", path,
                     "--checkpoint", str(train_dir / "checkpoint.utal"),
                     "--manifest", str(data_dir / "manifest.json"), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            EXIT_OK, "warning: no detections above the score floor\n"
        )
        report = json.loads((out / "report.json").read_text())
        assert report["no_detections"] is True and report["num_detections"] == 0
        assert set(report["map_by_tiou"].values()) == {0.0}
        assert (out / "detections.csv").read_text() == "video_id,class_id,start,end,score\n"

    def test_report_records_the_checkpoints_train_config(self, cli_workspace):
        """eval reads no train.* setting of its run config; the model it evaluates was
        trained with kl_l1, not the default sampled_l1, and the report says so."""
        _, _, _, train_dir, eval_dir = cli_workspace
        config = json.loads((eval_dir / "report.json").read_text())["config"]
        sidecar = json.loads((train_dir / "checkpoint.utal.json").read_text())
        assert config["train"] == sidecar["train_config"]
        assert config["train"]["loss_mode"] == "kl_l1"
        assert config == json.loads((eval_dir / "run_config.json").read_text())

    def test_eval_deterministic_bytes(self, cli_workspace, tmp_path):
        root, cfg_path, data_dir, train_dir, eval_dir = cli_workspace
        again = tmp_path / "again"
        assert (
            main(
                [
                    "eval",
                    "--config", str(cfg_path),
                    "--checkpoint", str(train_dir / "checkpoint.utal"),
                    "--manifest", str(data_dir / "manifest.json"),
                    "--out", str(again),
                ]
            )
            == EXIT_OK
        )
        assert (again / "report.json").read_bytes() == (eval_dir / "report.json").read_bytes()

    def test_printed_row_matches_json_at_one_decimal(self, cli_workspace, capsys):
        root, cfg_path, data_dir, train_dir, _ = cli_workspace
        out = root / "rowcheck"
        main(
            [
                "eval",
                "--config", str(cfg_path),
                "--checkpoint", str(train_dir / "checkpoint.utal"),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(out),
            ]
        )
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads((out / "report.json").read_text())
        row = printed.split(":")[-1].split()
        expected = [f"{100.0 * report['map_by_tiou'][k]:.1f}" for k in sorted(report["map_by_tiou"], key=float)]
        assert row == expected

    @pytest.mark.parametrize(
        "line, key",
        [
            ("detect.tiou_thresholds = 50, nan", "tiou_thresholds"),
            ("detect.tiou_thresholds = 0.5, inf", "tiou_thresholds"),
            ("detect.tiou_thresholds = -0.1", "tiou_thresholds"),
            ("detect.score_floor = nan", "score_floor"),
        ],
    )
    def test_threshold_outside_unit_interval_or_nan_is_config_error(
        self, cli_workspace, tmp_path, capsys, line, key
    ):
        """Such values used to pass validation and report mAP 0."""
        _, cfg_path, data_dir, train_dir, _ = cli_workspace
        bad_cfg = _write_config(tmp_path / "bad.cfg", cfg_path.read_text() + line + "\n")
        code = main(
            [
                "eval",
                "--config", bad_cfg,
                "--checkpoint", str(train_dir / "checkpoint.utal"),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(tmp_path / "x"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_shape_mismatch_names_both(self, cli_workspace, tmp_path, capsys):
        """eval names the checkpoint and the manifest that do not fit."""
        root, cfg_path, data_dir, train_dir, _ = cli_workspace
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(SMALL_DATA.replace("data.d_feat = 16", "data.d_feat = 24"))
        other_data = tmp_path / "other"
        main(["gen-data", "--config", str(other_cfg), "--seed", "3", "--out", str(other_data)])
        checkpoint, manifest = train_dir / "checkpoint.utal", other_data / "manifest.json"
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--checkpoint", str(checkpoint),
                "--config", str(other_cfg),
                "--manifest", str(manifest),
                "--out", str(tmp_path / "x"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and "d_feat=16" in err and "d_feat=24" in err
        assert str(checkpoint) in err and str(manifest) in err

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("truncated-count", "checkpoint.utal"),
            ("truncated-header", "checkpoint.utal"),
            ("sidecar-not-json", "checkpoint.utal.json"),
            ("sidecar-with-padded-head-keys", "'pad_head_to_six'"),
            ("sidecar-with-condition-mode", "'condition_mode'"),
            ("sidecar-missing-key", "'hidden'"),
            ("checkpoint-missing-array", "'head.weights'"),
            ("checkpoint-nan-weight", "'fc1.weights'"),
            ("checkpoint-appended-byte", "checkpoint.utal"),
            ("checkpoint-from-another-save", "SHA-256"),
            ("sidecar-huge-hidden", "hidden"),
            ("checkpoint-extra-array", "extra array 'fc2.weights'"),
        ],
    )
    def test_damaged_checkpoint_is_config_error(self, cli_workspace, tmp_path, capsys, damage, named):
        _, _, _, train_dir, _ = cli_workspace
        ckpt, sidecar = tmp_path / "checkpoint.utal", tmp_path / "checkpoint.utal.json"
        shutil.copy(train_dir / ckpt.name, ckpt)
        shutil.copy(train_dir / sidecar.name, sidecar)
        doc = json.loads(sidecar.read_text())
        if damage == "truncated-count":
            ckpt.write_bytes(ckpt.read_bytes()[:7])
        elif damage == "truncated-header":
            ckpt.write_bytes(ckpt.read_bytes()[:20])
        elif damage == "sidecar-not-json":
            sidecar.write_text("{not json")
        elif damage == "sidecar-with-padded-head-keys":
            doc["pad_head_to_six"] = doc["train_config"]["pad_head_to_six"] = False
            sidecar.write_text(json.dumps(doc))
        elif damage == "sidecar-with-condition-mode":  # as every older sidecar has it
            doc["train_config"]["condition_mode"] = "he"
            sidecar.write_text(json.dumps(doc))
        elif damage == "sidecar-missing-key":
            del doc["train_config"]["hidden"]
            sidecar.write_text(json.dumps(doc))
        elif damage == "sidecar-huge-hidden":  # a model this size needs GiBs; the shapes refuse it
            doc["train_config"]["hidden"] = 10**7
            sidecar.write_text(json.dumps(doc))
        elif damage == "checkpoint-appended-byte":
            ckpt.write_bytes(ckpt.read_bytes() + b"\0")
        elif damage == "checkpoint-from-another-save":  # same shapes, other weights
            model, cfg = load_checkpoint(ckpt)
            other = init_model(cfg, model.d_feat, model.num_classes, seed=8)
            shutil.copy(save_checkpoint(other, tmp_path / "other.utal", cfg), ckpt)
        else:
            arrays = decode_arrays(ckpt.read_bytes(), ckpt)
            if damage == "checkpoint-nan-weight":
                arrays["fc1.weights"][3, 5] = np.nan
            elif damage == "checkpoint-extra-array":
                arrays["fc2.weights"] = arrays["fc1.weights"]
            else:
                del arrays["head.weights"]
            ckpt.write_bytes(encode_arrays(arrays))
        code, err = _eval_checkpoint(cli_workspace, ckpt, capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and str(ckpt) in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lr", "x"),
            pytest.param("lr", 10**400, id="lr-10**400"),  # an int too large for a float
            pytest.param("mining_ratio", 10**400, id="mining_ratio-10**400"),
            ("loss_mode", "bogus"),
            ("epochs", -1),
            ("hidden", 32.0),
        ],
    )
    def test_bad_train_config_in_sidecar_is_config_error(
        self, cli_workspace, tmp_path, capsys, key, value
    ):
        """The sidecar's train_config is validated, not shadowed by a second copy."""
        _, _, _, train_dir, _ = cli_workspace
        ckpt, sidecar = tmp_path / "checkpoint.utal", tmp_path / "checkpoint.utal.json"
        shutil.copy(train_dir / ckpt.name, ckpt)
        doc = json.loads((train_dir / sidecar.name).read_text())
        doc["train_config"][key] = value
        sidecar.write_text(json.dumps(doc))
        code, err = _eval_checkpoint(cli_workspace, ckpt, capsys)
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: checkpoint sidecar {sidecar}: {key} ")

    @given(data=st.data())
    @settings(  # each example rewrites both files in tmp_path
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_damage_ends_in_error_naming_a_file(self, cli_workspace, tmp_path, capsys, data):
        """Byte flips, truncations, appended bytes, sidecar keys deleted or retyped."""
        _, _, _, train_dir, _ = cli_workspace
        weights = (train_dir / "checkpoint.utal").read_bytes()
        sidecar = (train_dir / "checkpoint.utal.json").read_text()
        doc = json.loads(sidecar)
        fault = data.draw(
            st.sampled_from(["flip", "truncate", "append", "truncate-sidecar", "delete", "retype"])
        )
        if fault == "flip":
            at = data.draw(st.integers(0, len(weights) - 1))
            flipped = weights[at] ^ data.draw(st.integers(1, 255))
            weights = weights[:at] + bytes([flipped]) + weights[at + 1 :]
        elif fault == "truncate":
            weights = weights[: data.draw(st.integers(0, len(weights) - 1))]
        elif fault == "append":
            weights += data.draw(st.binary(min_size=1, max_size=8))
        elif fault == "truncate-sidecar":  # by more than its final newline
            sidecar = sidecar[: data.draw(st.integers(0, len(sidecar) - 2))]
        else:
            keys = [(key,) for key in doc]
            keys += [("train_config", key) for key in doc["train_config"]]
            *section, key = data.draw(st.sampled_from(keys))
            owner = doc["train_config"] if section else doc
            if fault == "delete":
                del owner[key]
            else:
                owner[key] = data.draw(_retyped(owner[key]))
            sidecar = json.dumps(doc)
        ckpt = tmp_path / "checkpoint.utal"
        ckpt.write_bytes(weights)
        (tmp_path / "checkpoint.utal.json").write_text(sidecar)
        code, err = _eval_checkpoint(cli_workspace, ckpt, capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and str(ckpt) in err and "Traceback" not in err

    def test_oracle_row_renders_all_hundreds(self):
        row = _format_map_row({t: 1.0 for t in (0.3, 0.4, 0.5, 0.6, 0.7)})
        assert row.endswith("100.0 100.0 100.0 100.0 100.0")


# a manifest value made huge, negative or non-finite
_EXTREME = st.sampled_from(
    [10**400, 10**12, 1e308, -1, -(10**12), -0.5, math.nan, math.inf, -math.inf]
)

# config values: in range, out of range, non-finite, too large for a float, unparsable
_CONFIG_VALUES = st.sampled_from(
    ["0", "1", "3", "-1", "0.5", "0.99", "1.5", "-0.25", "nan", "inf", "-inf", "1e400",
     "1" + "0" * 400, "", "x", "true", "0x10", "1, 2", "8, 16, 32", "1,,2", "0.3, 2"]
)
_CONFIG_KEYS = ["seed", "train.seed", "data.bogus", "bogus", "trian.epochs", *(
    f"{name}.{f.name}" for name in ("data", "proposals", "train", "detect")
    for f in fields(getattr(RunConfig(), name)))]


@st.composite
def _config_line(draw) -> str:
    """A `key = value` line, a line without `=` or with an empty key, or free text."""
    kinds = ["setting", "setting", "setting", "no-equals", "empty-key", "text"]
    kind = draw(st.sampled_from(kinds))
    if kind == "setting":
        key, values = draw(st.sampled_from(_CONFIG_KEYS)), _CONFIG_VALUES
        if key == "detect.cascade_steps":  # a huge step count is a valid request for long work
            values = values.filter(lambda v: not (v.isdigit() and len(v) > 3))
        return f"{key} = {draw(values)}"
    if kind == "no-equals":
        return draw(st.sampled_from(_CONFIG_KEYS))
    if kind == "empty-key":
        return f"= {draw(_CONFIG_VALUES)}"
    return draw(st.text(st.characters(blacklist_categories=["Cs"]), max_size=12))


class TestInputFuzz:
    """Random damage to each input `utal eval` reads besides the checkpoint, which
    TestEvalCommand damages: the manifest, the feature files and the config file."""

    @given(data=st.data())
    @settings(  # each example rewrites the copied inputs in tmp_path
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_damage_exits_0_or_ends_in_error_naming_a_file(self, cli_workspace, tmp_path, data):
        """Manifest keys deleted, retyped or made huge, negative or non-finite;
        feature files truncated, extended or holding NaN; random config lines.
        Each case runs in a child under an address-space cap and either exits 0
        or ends in one `error: ...` line with exit 1 that names an input file;
        a damaged feature file always ends in the error, naming that file."""
        _, cfg_path, data_dir, train_dir, _ = cli_workspace
        work = tmp_path / "in"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(data_dir, work)
        manifest, config = work / "manifest.json", work / "run.cfg"
        config.write_text(cfg_path.read_text())
        doc = json.loads(manifest.read_text())
        target = data.draw(st.sampled_from(["manifest", "features", "config"]))
        if target == "manifest":  # a key of the top level, or of two videos or annotations
            videos = doc["videos"][:2]
            owners = [doc, *videos, *(video["annotations"][0] for video in videos)]
            keys = [(i, key) for i, owner in enumerate(owners) for key in owner]
            i, key = data.draw(st.sampled_from(keys))
            fault = data.draw(st.sampled_from(["delete", "retype", "extreme"]))
            if fault == "delete":
                del owners[i][key]
            else:
                value = _retyped(owners[i][key]) if fault == "retype" else _EXTREME
                owners[i][key] = data.draw(value)
            manifest.write_text(json.dumps(doc))
        elif target == "features":
            video = data.draw(st.sampled_from(doc["videos"]))
            path = work / video["feature_file"]
            raw = path.read_bytes()
            fault = data.draw(st.sampled_from(["truncate", "extend", "nan"]))
            if fault == "truncate":
                raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
            elif fault == "extend":
                raw += data.draw(st.binary(min_size=1, max_size=64))
            else:
                values = np.frombuffer(raw, "<f4").copy()
                values[data.draw(st.integers(0, values.size - 1))] = np.nan
                raw = values.tobytes()
            path.write_bytes(raw)
        else:
            lines = data.draw(st.lists(_config_line(), min_size=1, max_size=3))
            config.write_text(cfg_path.read_text() + "\n".join(lines) + "\n")
        run = _run_capped(["eval", "--config", str(config), "--manifest", str(manifest),
                           "--checkpoint", str(train_dir / "checkpoint.utal"),
                           "--out", str(tmp_path / "out")])
        assert "Traceback" not in run.stderr, run.stderr
        if target == "features":
            assert run.returncode == EXIT_CONFIG and str(path) in run.stderr, run.stderr
        if run.returncode == EXIT_OK:
            assert run.stderr in ("", "warning: no detections above the score floor\n"), run.stderr
            return
        assert run.returncode == EXIT_CONFIG, run.stderr
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
        named = [str(manifest), str(config), str(work / "features")]
        assert any(name in run.stderr for name in named), run.stderr


class TestVerifyCommand:
    def test_suites_pass_on_correct_build(self):
        assert verify_expectation(n=200_000) == []
        assert verify_kl_minimizer() == []
        assert verify_monotonicity() == []

    def test_gradient_suite_passes(self):
        assert verify_gradients(points=30) == []

    def test_all_suites_at_their_defaults_exit_zero(self):
        assert main(["verify"]) == EXIT_OK

    @pytest.mark.parametrize(
        "target, position, factor, named",
        [
            # ten times the bound of 1e-5 that expected_l1's partials are checked to, or NaN
            ("expected_l1", 2, 1.0 + 1e-4, "expected_l1 d_sigma"),
            ("expected_l1", 2, float("nan"), "expected_l1 d_sigma"),
            # twice the bound of 1e-4 of the others
            ("kl_l1_loss", 2, 1.0 + 2e-4, "kl_l1[he] d_alpha"),
            ("sampled_l1_loss", 1, 1.0 + 2e-4, "sampled_l1 d_mu"),
            ("binary_loss", 1, 1.0 + 2e-4, "binary_loss d_scores"),
            ("multiclass_loss", 1, 1.0 + 2e-4, "multiclass d_logits"),
            ("l1_loss", 1, 1.0 + 2e-4, "l1 d_mu"),
            (DenseLayer, None, 1.0 + 2e-4, "dense dx"),
            (L2NormalizeLayer, None, 1.0 + 2e-4, "l2norm dx"),
            (ReluLayer, None, 1.0 + 2e-4, "relu dx"),
        ],
        ids=[
            "expected_l1", "expected_l1-nan", "kl_l1", "sampled_l1", "binary", "multiclass", "l1",
            "dense", "l2norm", "relu",
        ],
    )
    def test_gradient_suite_rejects_a_partial_off_by_1e_4(
        self, monkeypatch, target, position, factor, named
    ):
        import utal.verify as verify

        if position is None:  # a layer's dx
            exact = target.backward
            monkeypatch.setattr(target, "backward", lambda self, dy: exact(self, dy) * factor)
        else:  # the partial at `position`
            exact = getattr(verify, target)

            def off(*args):
                out = list(exact(*args))
                out[position] = out[position] * factor
                return tuple(out)

            monkeypatch.setattr(verify, target, off)
        assert any(f.startswith(named) for f in verify_gradients())

    def test_monotonicity_suite_rejects_nan_values(self, monkeypatch):
        import utal.verify as verify

        exact = verify.expected_l1

        def nan_on_grid(d, sigma):  # NaN on the sigma grid, exact at the sigma->0 limit
            value, d_d, d_sigma = exact(d, sigma)
            return np.where(np.asarray(sigma) > 1e-3, np.nan, value), d_d, d_sigma

        monkeypatch.setattr(verify, "expected_l1", nan_on_grid)
        failures = verify_monotonicity()
        assert sum("not increasing" in f for f in failures) == 11 * 59
        assert sum("below |d|" in f for f in failures) == 11 * 60
        assert not any("limit" in f for f in failures)

    def test_verify_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "kl-minimizer"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_injected_misprint_fails_expectation_suite(self, monkeypatch):
        import utal.losses as losses
        import utal.verify as verify

        monkeypatch.setattr(verify, "expected_l1", lambda d, s: (losses._expected_l1_foil(d, s), 0.0, 0.0))
        failures = verify.verify_expectation(n=150_000)
        assert failures
        assert any("analytic" in f for f in failures)

    def test_verify_exit_code_on_failure(self, monkeypatch):
        import utal.verify as verify

        monkeypatch.setitem(verify.SUITES, "monotonicity", lambda: ["synthetic failure"])
        assert main(["verify", "monotonicity"]) == EXIT_VERIFY


class TestCurvesCommand:
    def test_grid_shape(self, tmp_path):
        out = tmp_path / "curves"
        assert main(["curves", "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(open(out / "loss_surfaces.csv")))
        assert len(rows) == 3 * 121 * 60
        per_loss = {}
        for row in rows:
            per_loss.setdefault(row["loss_name"], set()).add((row["d"], row["sigma"]))
        for name, grid in per_loss.items():
            assert len(grid) == 121 * 60, name


@pytest.mark.parametrize("command", [["verify", "monotonicity"], ["curves"]], ids=["verify", "curves"])
@pytest.mark.parametrize(
    "flag", [["--config", "c.txt"], ["--seed", "3"], ["--loss", "l1"]], ids=["config", "seed", "loss"]
)
def test_run_config_flags_are_usage_errors_without_a_run_config(tmp_path, capsys, command, flag):
    """verify and curves read no run config, so a flag that would set one is refused."""
    assert main([*command, *flag, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0] in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["train", "--manifest", "m.json"], ["--resume", "checkpoint.utal"]),
        (["gen-data"], ["--condition-mode", "he"]),
        (["train", "--manifest", "m.json"], ["--condition-mode", "he"]),
        (["eval", "--manifest", "m.json", "--checkpoint", "c.utal"], ["--condition-mode", "he"]),
        (["gen-data"], ["--loss", "l1"]),
        (["eval", "--manifest", "m.json", "--checkpoint", "c.utal"], ["--seed", "3"]),
        (["eval", "--manifest", "m.json", "--checkpoint", "c.utal"], ["--loss", "l1"]),
        (["verify", "monotonicity"], ["--out", "verify"]),
    ],
    ids=["train-resume", "gen-data-condition-mode", "train-condition-mode", "eval-condition-mode",
         "gen-data-loss", "eval-seed", "eval-loss", "verify-out"],
)
def test_removed_flag_is_usage_error(tmp_path, capsys, command, flag):
    """train always starts from init_model, and kl_l1 always trains on He et al.'s branches;
    gen-data trains nothing, and eval takes the seed and loss the checkpoint was trained
    with; verify writes nothing, and `utal curves` writes the loss surfaces. The flag is
    refused before --out is made or any input read."""
    assert main([*command, *flag, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0] in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "step, sections",
    [("data", ["data", "seed"]), ("train", ["proposals", "seed", "train"]),
     ("eval", ["detect", "proposals", "train"])],
    ids=["gen-data", "train", "eval"],
)
def test_run_config_records_the_sections_its_command_reads(cli_workspace, step, sections):
    root = cli_workspace[0]
    record = json.loads((root / step / "run_config.json").read_text())
    assert sorted(record) == sections


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "curves"])
def test_out_naming_a_regular_file_is_config_error(
    cli_workspace, tmp_path, capsys, monkeypatch, command
):
    """The --out directory is made before any input is loaded or model trained."""
    _, cfg_path, data_dir, train_dir, _ = cli_workspace

    def too_early(*args, **kwargs):
        raise AssertionError("work started before --out was made")

    for name in ("load_dataset", "load_checkpoint", "train", "evaluate"):
        monkeypatch.setattr(cli, name, too_early)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    inputs = {
        "train": ["--manifest", str(data_dir / "manifest.json")],
        "eval": ["--manifest", str(data_dir / "manifest.json"),
                 "--checkpoint", str(train_dir / "checkpoint.utal")],
    }
    config = [] if command == "curves" else ["--config", str(cfg_path)]  # curves takes no run config
    args = [command, *config, *inputs.get(command, []), "--out", str(blocker)]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err
