import json

import pytest

from graphmot.cli import main
from graphmot.mpn import create_model, load_model, save_model


@pytest.fixture(scope="module")
def small_scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["synth", "--preset", "easy", "--seed", "7", "--frames", "30", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory, small_scene_dir):
    out = tmp_path_factory.mktemp("ckpt") / "model.npz"
    rc = main([
        "train", "--data", str(small_scene_dir), "--out", str(out),
        "--seed", "1", "--epochs", "2",
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_three_files_and_config_echo(self, small_scene_dir):
        for name in ("gt.txt", "det.txt", "features.txt", "effective-config.json"):
            assert (small_scene_dir / name).exists()
        config = json.loads((small_scene_dir / "effective-config.json").read_text())
        assert config["command"] == "synth"
        assert config["scene"]["seed"] == 7
        assert config["scene"]["n_frames"] == 30

    def test_creates_missing_out_dir(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        rc = main(["synth", "--preset", "easy", "--seed", "3", "--frames", "10",
                   "--out", str(out)])
        assert rc == 0 and (out / "det.txt").exists()

    def test_refuses_overwrite_without_force(self, small_scene_dir, capsys):
        before = (small_scene_dir / "det.txt").read_bytes()
        rc = main(["synth", "--preset", "easy", "--seed", "99", "--out", str(small_scene_dir)])
        assert rc != 0
        assert "force" in capsys.readouterr().err
        assert (small_scene_dir / "det.txt").read_bytes() == before

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth", "--preset", "easy", "--seed", "1", "--frames", "10",
                     "--out", str(out)]) == 0
        assert main(["synth", "--preset", "easy", "--seed", "2", "--frames", "10",
                     "--out", str(out), "--force"]) == 0
        config = json.loads((out / "effective-config.json").read_text())
        assert config["scene"]["seed"] == 2

    def test_same_seed_reproduces_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--preset", "crossing", "--seed", "5",
                         "--frames", "60", "--out", str(out)]) == 0
        for name in ("gt.txt", "det.txt", "features.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrain:
    def test_zero_epochs_writes_loadable_init_checkpoint(self, tmp_path, small_scene_dir):
        out = tmp_path / "init.npz"
        rc = main(["train", "--data", str(small_scene_dir), "--out", str(out),
                   "--seed", "4", "--epochs", "0"])
        assert rc == 0
        model = load_model(out)
        assert model.step_count == 0
        loss_table = (tmp_path / "init.npz.loss.txt").read_text().strip().splitlines()
        assert loss_table == ["epoch lr loss edge_accuracy"]

    def test_training_writes_loss_table_and_config(self, small_checkpoint):
        model = load_model(small_checkpoint)
        assert model.step_count > 0
        table = (small_checkpoint.parent / "model.npz.loss.txt").read_text().splitlines()
        assert len(table) == 3  # header + 2 epochs
        config = json.loads((small_checkpoint.parent / "model.npz.config.json").read_text())
        assert config["train"]["epochs"] == 2

    def test_resume_continues_step_counter(self, tmp_path, small_scene_dir, small_checkpoint):
        first = load_model(small_checkpoint).step_count
        out = tmp_path / "resumed.npz"
        rc = main(["train", "--data", str(small_scene_dir), "--out", str(out),
                   "--seed", "5", "--epochs", "1", "--resume", str(small_checkpoint)])
        assert rc == 0
        assert load_model(out).step_count > first

    def test_resume_refuses_negative_layers(self, tmp_path, small_scene_dir, small_checkpoint,
                                            capsys):
        out = tmp_path / "resumed.npz"
        rc = main(["train", "--data", str(small_scene_dir), "--out", str(out), "--seed", "5",
                   "--epochs", "1", "--resume", str(small_checkpoint), "--layers", "-2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: rounds must be an integer >= 0, got -2\n"
        assert not out.exists()

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "m.npz"), "--seed", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrack:
    def test_tracks_and_echoes_config(self, tmp_path, small_scene_dir, small_checkpoint):
        out = tmp_path / "hyp.txt"
        rc = main([
            "track", "--detections", str(small_scene_dir / "det.txt"),
            "--features", str(small_scene_dir / "features.txt"),
            "--checkpoint", str(small_checkpoint), "--out", str(out),
            "--integration", "iou", "--ratio", "app", "--alpha", "0.3",
            "--tau", "0.5", "--image-size", "960x600",
        ])
        assert rc == 0
        assert out.exists()
        config = json.loads((tmp_path / "hyp.txt.config.json").read_text())
        assert config["tracker"]["integration"] == "iou"
        assert config["tracker"]["ratio_variant"] == "app"
        assert tuple(config["tracker"]["image_size"]) == (960, 600)

    def test_byte_identical_reruns(self, tmp_path, small_scene_dir, small_checkpoint):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main([
                "track", "--detections", str(small_scene_dir / "det.txt"),
                "--features", str(small_scene_dir / "features.txt"),
                "--checkpoint", str(small_checkpoint), "--out", str(out),
                "--image-size", "960x600",
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_forecast_flag(self, tmp_path, small_scene_dir, small_checkpoint):
        out = tmp_path / "nf.txt"
        rc = main([
            "track", "--detections", str(small_scene_dir / "det.txt"),
            "--features", str(small_scene_dir / "features.txt"),
            "--checkpoint", str(small_checkpoint), "--out", str(out),
            "--no-forecast", "--image-size", "960x600",
        ])
        assert rc == 0
        config = json.loads((tmp_path / "nf.txt.config.json").read_text())
        assert config["tracker"]["emit_forecasts"] is False

    def test_bad_image_size(self, tmp_path, small_scene_dir, small_checkpoint, capsys):
        rc = main([
            "track", "--detections", str(small_scene_dir / "det.txt"),
            "--features", str(small_scene_dir / "features.txt"),
            "--checkpoint", str(small_checkpoint), "--out", str(tmp_path / "x.txt"),
            "--image-size", "huge",
        ])
        assert rc == 1
        assert "WxH" in capsys.readouterr().err

    def test_zero_image_size_is_refused(self, tmp_path, small_scene_dir, small_checkpoint,
                                        capsys):
        out = tmp_path / "x.txt"
        rc = main([
            "track", "--detections", str(small_scene_dir / "det.txt"),
            "--features", str(small_scene_dir / "features.txt"),
            "--checkpoint", str(small_checkpoint), "--out", str(out),
            "--image-size", "0x0",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: image_size must be two finite positive numbers, got (0, 0)\n")
        assert not out.exists()


    def test_negative_layers_refused(self, tmp_path, small_scene_dir, small_checkpoint, capsys):
        out = tmp_path / "x.txt"
        rc = main([
            "track", "--detections", str(small_scene_dir / "det.txt"),
            "--features", str(small_scene_dir / "features.txt"),
            "--checkpoint", str(small_checkpoint), "--out", str(out), "--layers", "-2",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: rounds must be an integer >= 0, got -2\n"
        assert not out.exists()


class TestEval:
    def test_gt_against_itself(self, tmp_path, small_scene_dir, capsys):
        out_dir = tmp_path / "report"
        rc = main(["eval", "--gt", str(small_scene_dir / "gt.txt"),
                   "--hyp", str(small_scene_dir / "gt.txt"), "--out", str(out_dir)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "MOTA" in printed and "IDF1" in printed
        summary = json.loads((out_dir / "metrics.json").read_text())
        assert summary["MOTA"] == pytest.approx(1.0)
        assert summary["IDF1"] == pytest.approx(1.0)
        assert summary["FP"] == 0 and summary["FN"] == 0 and summary["IDS"] == 0

    def test_malformed_hypothesis_reports_line(self, tmp_path, small_scene_dir, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,1,0,0,10,10,1\nnot,a,row\n")
        rc = main(["eval", "--gt", str(small_scene_dir / "gt.txt"), "--hyp", str(bad),
                   "--out", str(tmp_path / "report")])
        assert rc == 1
        assert ":2" in capsys.readouterr().err
        assert not (tmp_path / "report" / "metrics.txt").exists()  # no partial outputs


class TestRatioAndSparsity:
    def test_ratio_table_schema(self, tmp_path, small_scene_dir, capsys):
        out_dir = tmp_path / "ratio"
        rc = main(["ratio", "--data", str(small_scene_dir), "--variant", "both",
                   "--alphas", "0.2,0.3,0.4", "--out", str(out_dir)])
        assert rc == 0
        text = (out_dir / "ratio.txt").read_text()
        for token in ("a=0.2", "a=0.3", "a=0.4"):
            assert token in text
        for variant in ("iou", "app"):
            assert variant in text
        payload = json.loads((out_dir / "ratio.json").read_text())
        assert {p["variant"] for p in payload} == {"iou", "app"}
        for p in payload:
            for stat in ("T", "F", "I"):
                assert len(p[stat]) == 3

    def test_ratio_rejects_repeated_alpha(self, tmp_path, small_scene_dir, capsys):
        out_dir = tmp_path / "ratio"
        rc = main(["ratio", "--data", str(small_scene_dir), "--alphas", "0.3,0.3",
                   "--out", str(out_dir)])
        assert rc != 0
        assert "alpha 0.3 is given more than once" in capsys.readouterr().err
        assert not (out_dir / "ratio.txt").exists()

    def test_ratio_refuses_k_zero(self, tmp_path, small_scene_dir, capsys):
        out_dir = tmp_path / "ratio"
        rc = main(["ratio", "--data", str(small_scene_dir), "--k", "0", "--variant", "iou",
                   "--out", str(out_dir)])
        assert rc == 1
        assert "k must be >= 1, got 0" in capsys.readouterr().err
        assert not (out_dir / "ratio.txt").exists()

    @pytest.mark.parametrize("k, recorded", [(None, 20), (3, 3)])
    def test_ratio_records_k(self, tmp_path, small_scene_dir, k, recorded):
        out_dir = tmp_path / "ratio"
        k_args = [] if k is None else ["--k", str(k)]
        rc = main(["ratio", "--data", str(small_scene_dir), "--variant", "iou", *k_args,
                   "--out", str(out_dir)])
        assert rc == 0
        config = json.loads((out_dir / "effective-config.json").read_text())
        assert config["args"]["k_neighbors"] == recorded

    def test_sparsity_reports_three_variants(self, tmp_path, small_scene_dir,
                                             small_checkpoint, capsys):
        out_dir = tmp_path / "sparsity"
        rc = main(["sparsity", "--data", str(small_scene_dir),
                   "--checkpoint", str(small_checkpoint), "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "sparsity.json").read_text())
        assert [p["variant"] for p in payload] == ["none", "iou", "app"]
        assert all(p["mean_candidates"] >= p["mean_edges"] for p in payload)

    def test_sparsity_without_checkpoint_needs_seed(self, tmp_path, small_scene_dir, capsys):
        rc = main(["sparsity", "--data", str(small_scene_dir), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err


class TestFeatureDimension:
    def test_mismatched_checkpoint_fails_before_work(self, tmp_path, small_scene_dir, capsys):
        # The easy preset's features have 32 dimensions; this checkpoint takes 5.
        ckpt = tmp_path / "five.npz"
        save_model(ckpt, create_model(5, seed=0))
        d = small_scene_dir
        commands = [
            ["track", "--detections", str(d / "det.txt"), "--features", str(d / "features.txt"),
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "hyp.txt")],
            ["sparsity", "--data", str(d), "--checkpoint", str(ckpt), "--out", str(tmp_path / "sp")],
            ["train", "--data", str(d), "--out", str(tmp_path / "resumed.npz"), "--seed", "1",
             "--epochs", "1", "--resume", str(ckpt)],
        ]
        for argv in commands:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert str(ckpt) in err and "5-dim" in err and "have 32" in err, err
        assert not any(tmp_path.joinpath(name).exists() for name in ("hyp.txt", "sp", "resumed.npz"))


class TestConfigFile:
    def test_unknown_section_rejected(self, tmp_path, small_scene_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {}, "mystery": {}}))
        rc = main(["synth", "--preset", "easy", "--seed", "1",
                   "--out", str(tmp_path / "s"), "--config", str(cfg)])
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"n_frame": 10}}))
        rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "s"),
                   "--config", str(cfg)])
        assert rc == 1
        assert "n_frame" in capsys.readouterr().err

    # Greedy matching and the default verifier are the tracker's only ones.
    @pytest.mark.parametrize("key, value", [("matching", "hungarian"), ("verifier", "default")])
    def test_removed_tracker_keys_rejected(self, tmp_path, small_scene_dir, small_checkpoint,
                                           capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {key: value}}))
        out = tmp_path / "hyp.txt"
        rc = main(["track", "--detections", str(small_scene_dir / "det.txt"),
                   "--features", str(small_scene_dir / "features.txt"),
                   "--checkpoint", str(small_checkpoint), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown key {key!r} in config section 'tracker'\n"
        assert not out.exists()

    @pytest.mark.parametrize("train", [{"lr_decay_every": 0}, {"batch_graphs": 0},
                                       {"node_dropout": 1.5}, {"lr": -1},
                                       {"frames_per_graph": 2.5}, {"batch_graphs": True},
                                       {"epochs": 1.5}])
    def test_bad_train_value_exits_one(self, tmp_path, small_scene_dir, capsys, train):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": train}))
        out = tmp_path / "m.npz"
        rc = main(["train", "--data", str(small_scene_dir), "--out", str(out),
                   "--seed", "1", "--config", str(cfg)])
        assert rc == 1
        (field,) = train
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()

    @pytest.mark.parametrize("tracker", [{"fps": 0}, {"lost_frame_limit": -1},
                                         {"spawn_confidence": 2.0}])
    def test_bad_tracker_value_exits_one(self, tmp_path, small_scene_dir, small_checkpoint,
                                         capsys, tracker):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": tracker}))
        out = tmp_path / "hyp.txt"
        rc = main(["track", "--detections", str(small_scene_dir / "det.txt"),
                   "--features", str(small_scene_dir / "features.txt"),
                   "--checkpoint", str(small_checkpoint), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        (field,) = tracker
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"n_frames": 12, "n_targets": 3}}))
        out = tmp_path / "s"
        rc = main(["synth", "--seed", "1", "--out", str(out),
                   "--config", str(cfg), "--frames", "15"])
        assert rc == 0
        echo = json.loads((out / "effective-config.json").read_text())
        assert echo["scene"]["n_frames"] == 15  # flag wins
        assert echo["scene"]["n_targets"] == 3  # file value kept
