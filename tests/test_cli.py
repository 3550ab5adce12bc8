import time
import warnings

import pytest

from meshsort import kalman, motfiles, scenarios, synth
from meshsort.cli import main
from meshsort.motfiles import format_scene, parse_detections, parse_ground_truth
from meshsort.synth import generate


@pytest.fixture
def scene_file(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text(format_scene(scenarios.transient_occlusion_scene(3)))
    return p


def _synth_files(tmp_path, scene_file):
    gt = tmp_path / "gt.txt"
    dets = tmp_path / "dets.txt"
    assert main(["synth", "--scene", str(scene_file), "--out-gt", str(gt),
                 "--out-dets", str(dets)]) == 0
    return gt, dets


class TestBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--nope"])
        assert exc.value.code == 2

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        rc = main(["track", "--dets", str(tmp_path / "absent.txt"),
                   "--out", str(tmp_path / "out.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEndToEnd:
    def test_synth_track_eval(self, tmp_path, scene_file, capsys):
        gt, dets = _synth_files(tmp_path, scene_file)
        assert parse_ground_truth(gt)
        assert parse_detections(dets)

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame_width = 960\nframe_height = 540\n")
        res = tmp_path / "res.txt"
        mesh_out = tmp_path / "mesh.txt"
        rc = main(["track", "--config", str(cfg), "--dets", str(dets),
                   "--out", str(res), "--mesh-out", str(mesh_out)])
        assert rc == 0
        assert res.read_text().strip()
        assert mesh_out.read_text().startswith("mesh 4 4 frame ")

        rc = main(["eval", "--gt", str(gt), "--res", str(res)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "MOTA" in table

        rc = main(["eval", "--gt", str(gt), "--res", str(res), "--format", "kv"])
        assert rc == 0
        kv = capsys.readouterr().out
        lines = [l for l in kv.strip().splitlines()]
        assert all("=" in l for l in lines)
        mota = float(dict(l.split("=") for l in lines)["MOTA"])
        assert 0.5 < mota <= 1.0

    @pytest.mark.parametrize("config, text", [
        (None, "0 1 0 0\n0 2 0 0\n0 0 0 0\n0 0 0 0\nfrequent: (1,1)\n"),
        ("frame_width = 960\nframe_height = 540\n",
         "0 0 1 0\n0 0 0 0\n0 0 0 1\n0 0 1 0\nfrequent: (2,3)\n"),
    ])
    def test_mesh_out_of_the_demo_scene(self, tmp_path, config, text):
        # The demo scene of scripts/run_demo.py, at the default frame size and
        # at the scene's own.
        scene = tmp_path / "scene.txt"
        scene.write_text(format_scene(scenarios.transient_occlusion_scene(seed=1)))
        _, dets = _synth_files(tmp_path, scene)
        argv = ["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt"),
                "--mesh-out", str(tmp_path / "mesh.txt")]
        if config:
            (tmp_path / "cfg.txt").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.txt")]
        assert main(argv) == 0
        assert (tmp_path / "mesh.txt").read_text() == "mesh 4 4 frame 110\n" + text

    def test_track_emit_virtual_adds_boxes(self, tmp_path, scene_file):
        gt, dets = _synth_files(tmp_path, scene_file)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame_width = 960\nframe_height = 540\n")
        plain = tmp_path / "plain.txt"
        virtual = tmp_path / "virtual.txt"
        main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(plain)])
        main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(virtual),
              "--emit-virtual"])
        assert len(virtual.read_text().splitlines()) > len(plain.read_text().splitlines())

    def test_track_deterministic_bytes(self, tmp_path, scene_file):
        gt, dets = _synth_files(tmp_path, scene_file)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame_width = 960\nframe_height = 540\n")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(a)])
        main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestAblate:
    def test_two_value_grid_emits_two_rows(self, tmp_path, scene_file, capsys, monkeypatch):
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        table = tmp_path / "table.txt"
        rc = main(["ablate", "--grid", "lost_maintain_frames=0,3",
                   "--scene", str(scene_file), "--out", str(table)])
        assert rc == 0
        lines = table.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        header = lines[0].split("\t")
        assert header[0] == "lost_maintain_frames"
        assert "MOTA" in header and "FM" in header and "FPS" in header

    def test_parallel_matches_serial(self, tmp_path, scene_file, monkeypatch):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        main(["ablate", "--grid", "mesh_cols=3,4", "--scene", str(scene_file),
              "--out", str(serial)])
        monkeypatch.setenv("MESH_SORT_THREADS", "2")
        main(["ablate", "--grid", "mesh_cols=3,4", "--scene", str(scene_file),
              "--out", str(parallel)])
        def strip_fps(text):
            rows = [r.split("\t")[:-1] for r in text.strip().splitlines()]
            return rows
        assert strip_fps(serial.read_text()) == strip_fps(parallel.read_text())

    def test_requires_input_source(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--grid", "mesh_cols=4", "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("files", [("--dets",), ("--gt",), ("--dets", "--gt")])
    def test_scene_and_files_are_exclusive(self, tmp_path, scene_file, capsys, files):
        # The files were once ignored without a word when a scene was given.
        paths = [arg for flag in files for arg in (flag, str(tmp_path / f"absent{flag}.txt"))]
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--grid", "mesh_cols=4", "--scene", str(scene_file), *paths,
                  "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == 2
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_unknown_grid_key_fails(self, tmp_path, scene_file, capsys):
        rc = main(["ablate", "--grid", "bogus=1,2", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert "unknown grid key" in capsys.readouterr().err

    def test_repeated_grid_key_fails(self, tmp_path, scene_file, capsys):
        # The last value once won without a word, giving one row.
        rc = main(["ablate", "--grid", "max_age=10;max_age=40", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert "grid key 'max_age' given twice" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("key", ["frame_width", "frame_height"])
    def test_frame_size_grid_key_with_scene_fails(self, tmp_path, scene_file, capsys, key):
        # Each scene's own frame size once replaced the grid's values, so the
        # rows were labelled with sizes that never ran.
        rc = main(["ablate", "--grid", f"{key}=200,960", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert f"grid key {key!r} cannot vary with --scene" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_bad_late_cell_fails_before_any_cell_runs(self, tmp_path, scene_file, capsys,
                                                        monkeypatch):
        # The last cell's config was once checked only when its Tracker was
        # built, after the earlier cells had generated and tracked every scene.
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        generated = []

        def counting(scene):
            generated.append(scene)
            return generate(scene)

        monkeypatch.setattr(synth, "generate", counting)
        rc = main(["ablate", "--grid", "init_conf=0.7,0.75,0.8,0.85,2",
                   *["--scene", str(scene_file)] * 3, "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert "error: init_conf must lie in [0, 1]" in capsys.readouterr().err
        assert generated == []
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("grid, message", [
        ("max_age=10,10.0", "grid key 'max_age': bad int '10.0'"),
        ("enable_mesh=maybe", "grid key 'enable_mesh': bad boolean 'maybe'"),
        ("conf_high=0.5;max_age=x", "grid key 'max_age': bad int 'x'"),
    ])
    def test_bad_grid_value_names_its_key(self, tmp_path, scene_file, capsys, grid, message):
        # These were once reported as "config line 0: ...".
        rc = main(["ablate", "--grid", grid, "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" == err
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("grid, message", [
        ("max_age=10,10", "grid key 'max_age': value 10 given twice"),
        ("conf_high=0.5,0.7,0.50", "grid key 'conf_high': value 0.5 given twice"),
        ("enable_mesh=1,true", "grid key 'enable_mesh': value True given twice"),
    ])
    def test_repeated_grid_value_fails(self, tmp_path, scene_file, capsys, grid, message):
        # A repeated value once gave two identical rows.
        rc = main(["ablate", "--grid", grid, "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_grid_over_two_scenes_is_pinned(self, tmp_path, capsys, monkeypatch):
        # Every column but FPS, recorded before the scene inputs and the
        # pooling moved into shared helpers.
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        scenes = []
        for name, scene in (("a", scenarios.transient_occlusion_scene(1)), ("b", scenarios.exit_scene(2))):
            scenes += ["--scene", str(tmp_path / f"{name}.txt")]
            (tmp_path / f"{name}.txt").write_text(format_scene(scene))
        table = tmp_path / "table.txt"
        assert main(["ablate", "--grid", "enable_mesh=0,1;lost_maintain_frames=0,3", *scenes,
                     "--out", str(table)]) == 0
        rows = [line.split("\t")[:-1] for line in table.read_text().splitlines()]
        assert rows == [
            "enable_mesh lost_maintain_frames MOTA IDF1 HOTA FP FN IDSW FM MT ML".split(),
            "False 0 0.9445 0.9714 0.9395 0 130 0 3 25 0".split(),
            "False 3 0.9445 0.9714 0.9395 0 130 0 3 25 0".split(),
            "True 0 0.9445 0.9714 0.9395 0 130 0 3 25 0".split(),
            "True 3 0.9445 0.9714 0.9395 0 130 0 3 25 0".split(),
        ]

    def test_dets_gt_input_pair(self, tmp_path, scene_file, monkeypatch):
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        gt, dets = _synth_files(tmp_path, scene_file)
        table = tmp_path / "table.txt"
        rc = main(["ablate", "--grid", "conf_high=0.5,0.6",
                   "--dets", str(dets), "--gt", str(gt), "--out", str(table)])
        assert rc == 0
        assert len(table.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_thread_cap_fails_before_any_scene(self, tmp_path, scene_file, capsys, monkeypatch,
                                                   value):
        # "two" once failed with int()'s own message, and "0" and "-3" ran one
        # worker without a word.
        monkeypatch.setenv("MESH_SORT_THREADS", value)
        generated = []
        monkeypatch.setattr(synth, "generate", lambda scene: generated.append(scene) or generate(scene))
        rc = main(["ablate", "--grid", "max_age=10,20", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: MESH_SORT_THREADS must be a positive integer, got {value!r}\n"
        assert generated == []
        assert not (tmp_path / "t.txt").exists()

    def test_each_scene_is_generated_once(self, tmp_path, scene_file, monkeypatch):
        # Every grid cell once generated every scene again: 6 calls here.
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        generated = []
        monkeypatch.setattr(synth, "generate", lambda scene: generated.append(scene) or generate(scene))
        other = tmp_path / "other.txt"
        other.write_text(format_scene(scenarios.exit_scene(2)))
        assert main(["ablate", "--grid", "max_age=10,20,30", "--scene", str(scene_file),
                     "--scene", str(other), "--out", str(tmp_path / "t.txt")]) == 0
        assert len(generated) == 2

    def test_input_files_are_parsed_once(self, tmp_path, scene_file, monkeypatch):
        # Every grid cell once parsed both files again: 3 calls each here.
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        gt, dets = _synth_files(tmp_path, scene_file)
        calls = []
        for name in ("parse_detections", "parse_ground_truth"):
            parse = getattr(motfiles, name)
            monkeypatch.setattr(motfiles, name, lambda path, name=name, parse=parse: calls.append(name) or parse(path))
        assert main(["ablate", "--grid", "conf_high=0.5,0.6,0.7", "--dets", str(dets), "--gt", str(gt),
                     "--out", str(tmp_path / "t.txt")]) == 0
        assert sorted(calls) == ["parse_detections", "parse_ground_truth"]


class TestBench:
    def test_bench_reports_fps(self, tmp_path, scene_file, capsys):
        rc = main(["bench", "--scene", str(scene_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fps=" in out and "frames=110" in out

    def test_bench_requires_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    def test_bench_scene_and_dets_are_exclusive(self, tmp_path, scene_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scene", str(scene_file), "--dets", str(tmp_path / "absent.txt")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "Traceback" not in err


class TestErrors:
    def test_eval_rejects_threshold(self, tmp_path, scene_file, capsys):
        gt, dets = _synth_files(tmp_path, scene_file)
        res = tmp_path / "res.txt"
        assert main(["track", "--dets", str(dets), "--out", str(res)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--gt", str(gt), "--res", str(res), "--iou", "1.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "iou threshold" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("init_conf = 2", "init_conf must lie in [0, 1]"),
        ("gate_first = nan", "gate_first must lie in [0, 1]"),
        ("occlusion_iou = nan", "occlusion_iou must lie in [0, 1]"),
        ("conf_high = inf", "conf_high must lie in [0, 1]"),
        ("frame_width = inf", "frame_width must be finite and > 0"),
        ("mesh_threshold_slope = nan", "mesh_threshold_slope must be finite and >= 0"),
        # This grid once died allocating 29.1 TiB, with a traceback.
        ("mesh_cols = 1000000000000", "mesh_cols * mesh_rows must be at most 1,000,000 cells"),
    ])
    def test_track_config_out_of_range_exits_one(self, tmp_path, scene_file, capsys, line, message):
        # Each value once ran, giving an empty or a different result file.
        _, dets = _synth_files(tmp_path, scene_file)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        res = tmp_path / "res.txt"
        rc = main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(res)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not res.exists()

    @pytest.mark.parametrize("grid, message", [
        ("init_conf=0.7,2", "init_conf must lie in [0, 1]"),
        ("mesh_cols=4,1000000000000", "mesh_cols * mesh_rows must be at most 1,000,000 cells"),
    ])
    def test_ablate_grid_out_of_range_exits_one(self, tmp_path, scene_file, capsys, monkeypatch, grid, message):
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        rc = main(["ablate", "--grid", grid, "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_track_numerics_error_exits_one(self, tmp_path, scene_file, capsys, monkeypatch):
        _, dets = _synth_files(tmp_path, scene_file)

        def singular(*args, **kwargs):
            raise kalman.NumericsError("singular innovation covariance")

        monkeypatch.setattr(kalman, "update", singular)
        capsys.readouterr()
        rc = main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "singular" in err

    def test_synth_scene_longer_than_the_readers_accept(self, tmp_path, capsys):
        # synth once wrote these files, and track then refused frame 1000001.
        scene = tmp_path / "scene.txt"
        scene.write_text("frames = 1000001\n"
                         "agent = spawn:1000000 despawn:1000001 size:20x40 path:100,300@1000000\n")
        rc = main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                   "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: frames 1000001 above 1000000, the last frame index the MOT readers accept\n")
        assert not (tmp_path / "dets.txt").exists()

    def test_synth_agent_outliving_scene_names_its_line(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "agent = spawn:1 despawn:9 size:20x40 path:100,300@1\n"
            "agent = spawn:1 despawn:20 size:20x40 path:100,300@1 200,300@20\n"
            "frames = 10\n"
        )
        rc = main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                   "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene line 2: agent outlives the scene (despawn 20 > frames 10)")
        assert "Traceback" not in err
        assert not (tmp_path / "gt.txt").exists()

    def test_synth_noise_keeps_detections_readable(self, tmp_path, capsys):
        # Size noise once shrank this partly covered agent's width to 0.00 in
        # the detection file, which track then rejected.
        scene = tmp_path / "scene.txt"
        scene.write_text("frames = 20\nsigma_area = 100\nsigma_ratio = 100\noccluder = 100,280,10,20\n"
                         "agent = spawn:1 despawn:20 size:4x40 path:100,300@1 100,300@20\n")
        dets = tmp_path / "dets.txt"
        assert main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                     "--out-dets", str(dets)]) == 0
        assert ",0.01," in dets.read_text()  # the noise reached the bound
        assert main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")]) == 0

    def test_synth_agent_below_file_resolution_names_its_line(self, tmp_path, capsys):
        # Such an agent was once written with width 0.00, which track and eval reject.
        scene = tmp_path / "scene.txt"
        scene.write_text("frames = 5\nagent = spawn:1 despawn:5 size:0.004x40 path:100,300@1 120,300@5\n")
        rc = main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                   "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene line 2: agent box size 0.004x40.0 below 0.01 px")
        assert "Traceback" not in err
        assert not (tmp_path / "gt.txt").exists() and not (tmp_path / "dets.txt").exists()


_DET_LINE = "1,-1,10.00,20.00,30.00,60.00,0.90,-1,-1,-1\n"
_GT_LINE = "1,1,10.00,20.00,30.00,60.00,1,1,1.00\n"


def _assert_line_error(capsys, path, lineno):
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}:{lineno}:" in err
    assert "non-finite" in err
    assert "Traceback" not in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [
        "1,-1,nan,20.00,30.00,60.00,0.90,-1,-1,-1",
        "1,-1,10.00,20.00,inf,60.00,0.90,-1,-1,-1",
        "nan,-1,10.00,20.00,30.00,60.00,0.90,-1,-1,-1",
        "1,-1,10.00,20.00,30.00,60.00,-inf,-1,-1,-1",
    ])
    def test_track_dets(self, tmp_path, capsys, bad):
        dets = tmp_path / "dets.txt"
        dets.write_text(_DET_LINE + bad + "\n")
        rc = main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        _assert_line_error(capsys, dets, 2)

    @pytest.mark.parametrize("bad", ["1,1,10.00,nan,30.00,60.00,1,1,1.00", "inf,1,10.00,20.00,30.00,60.00,1,1,1.00"])
    def test_eval_gt(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.txt"
        res = tmp_path / "res.txt"
        gt.write_text(_GT_LINE + bad + "\n")
        res.write_text("1,1,10.00,20.00,30.00,60.00,1.00,-1,-1,-1\n")
        assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1
        _assert_line_error(capsys, gt, 2)

    @pytest.mark.parametrize("bad", ["2,1,10.00,20.00,NaN,60.00,1.00,-1,-1,-1", "2,inf,10.00,20.00,30.00,60.00,1.00,-1,-1,-1"])
    def test_eval_res(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.txt"
        res = tmp_path / "res.txt"
        gt.write_text(_GT_LINE)
        res.write_text("1,1,10.00,20.00,30.00,60.00,1.00,-1,-1,-1\n" + bad + "\n")
        assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1
        _assert_line_error(capsys, res, 2)

    @pytest.mark.parametrize("lineno,line", [
        (3, "agent = spawn:1 despawn:9 size:nanx40 path:100,300@1 200,300@9"),
        (3, "agent = spawn:1 despawn:9 size:20x40 path:100,300@1 nan,300@9"),
        (3, "agent = spawn:1 despawn:9 size:20xinf path:100,300@1"),
        (3, "occluder = 10,inf,40,40"),
        (3, "frame_width = nan"),
        (3, "sigma_area = inf"),
    ])
    def test_synth_scene(self, tmp_path, capsys, lineno, line):
        scene = tmp_path / "scene.txt"
        scene.write_text("frames = 10\n# a comment\n" + line + "\n")
        rc = main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                   "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"scene line {lineno}:" in err
        assert "non-finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gt.txt").exists()


class TestNonAsciiFlatFiles:
    # These once printed only "'ascii' codec can't decode byte 0xc2".
    def test_track_config(self, tmp_path, scene_file, capsys):
        _, dets = _synth_files(tmp_path, scene_file)
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"# tracker\nmax_age = 40 \xc2\xa0\n")
        rc = main(["track", "--config", str(cfg), "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: non-ASCII byte 0xc2\n"
        assert not (tmp_path / "res.txt").exists()

    def test_synth_scene(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_bytes(b"seed = 3\nframes = 10 \xc2\xa0\n")
        rc = main(["synth", "--scene", str(scene), "--out-gt", str(tmp_path / "gt.txt"),
                   "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {scene}:2: non-ASCII byte 0xc2\n"
        assert not (tmp_path / "gt.txt").exists()


class TestAbsurdMagnitudes:
    @pytest.mark.parametrize("lines,lineno", [
        (["1,-1,10,10,1e200,1e200,0.9,-1,-1,-1"], 1),
        ([f"{f},-1,1e150,1e150,30,60,0.9,-1,-1,-1" for f in range(1, 5)], 1),
        ([_DET_LINE.strip(), "2,-1,10.00,20.00,30.00,2e7,0.90,-1,-1,-1"], 2),
    ])
    def test_track_dets(self, tmp_path, capsys, lines, lineno):
        # Boxes far past any frame overflowed the filter; the reader now stops them.
        dets = tmp_path / "dets.txt"
        dets.write_text("\n".join(lines) + "\n")
        res = tmp_path / "res.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["track", "--dets", str(dets), "--out", str(res)])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{dets}:{lineno}:" in err
        assert "beyond" in err
        assert "Traceback" not in err
        assert not res.exists()

    @pytest.mark.parametrize("line", [
        "agent = spawn:1 despawn:5 size:1e150x1e150 path:100,300@1",
        "agent = spawn:1 despawn:5 size:20x40 path:100,300@1 3e7,300@5",
        "occluder = 10,10,40,2e7",
    ])
    def test_synth_scene(self, tmp_path, capsys, line):
        # Such a scene once gave a GT file that the GT reader then rejected.
        scene = tmp_path / "scene.txt"
        scene.write_text("frames = 10\n" + line + "\n")
        gt = tmp_path / "gt.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["synth", "--scene", str(scene), "--out-gt", str(gt),
                       "--out-dets", str(tmp_path / "dets.txt")])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: scene line 2:") and "beyond 1e+07 px" in err
        assert "Traceback" not in err
        assert not gt.exists()


@pytest.mark.parametrize("frame", ["1.0000000000000001", "1e-99999999", "0e999999999"])
def test_track_rejects_a_frame_whose_fraction_its_float_lost(tmp_path, capsys, frame):
    # 1.0000000000000001 reads as the float 1.0; it was once tracked as frame 1.
    # The other two read as 0.0; an exact reading that expands their exponent
    # builds 10**99999999 or more and takes minutes.
    dets = tmp_path / "dets.txt"
    dets.write_text(_DET_LINE + frame + ",-1,10,20,30,40,0.9,-1,-1,-1\n")
    res = tmp_path / "res.txt"
    start = time.perf_counter()
    assert main(["track", "--dets", str(dets), "--out", str(res)]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == f"error: {dets}:2: bad frame index {frame}\n"
    assert not res.exists()


def test_eval_rejects_an_id_below_float_range_quickly(tmp_path, capsys):
    # 1e-99999999 reads as id 0, but names a fraction.
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt.write_text(_GT_LINE)
    res.write_text("1,1e-99999999,10.00,20.00,30.00,60.00,1.00,-1,-1,-1\n")
    start = time.perf_counter()
    assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == f"error: {res}:1: bad id 1e-99999999\n"


class TestDegenerateBoxes:
    # Positive sizes whose area, extent or aspect ratio rounds to 0 or
    # overflows once crashed the evaluator ("matrix contains invalid numeric
    # entries") or the tracker ("non-finite box from the filter state").
    def _run(self, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert caught == []
        return rc

    @pytest.mark.parametrize("gt_box,res_box,bad", [
        ("10,20,0.5,5e-324", "10,20,0.5,5e-324", "gt"),   # the area underflows
        ("10,20,30,1e-320", "10,20,30,1e-320", "gt"),     # top + height rounds back to top
        ("10,20,30,40", "0,0,0.5,5e-324", "res"),
    ])
    def test_eval(self, tmp_path, capsys, gt_box, res_box, bad):
        files = {"gt": tmp_path / "gt.txt", "res": tmp_path / "res.txt"}
        files["gt"].write_text(f"1,1,{gt_box},1,1,1.0\n")
        files["res"].write_text(f"1,1,{res_box},0.9,-1,-1,-1\n")
        assert self._run(["eval", "--gt", str(files["gt"]), "--res", str(files["res"])]) == 1
        assert capsys.readouterr().err == f"error: {files[bad]}:1: degenerate box\n"

    def test_track(self, tmp_path, capsys):
        # The aspect ratio 30 / 1e-320 overflows in the filter state.
        dets = tmp_path / "dets.txt"
        dets.write_text("".join(f"{f},-1,10,20,30,1e-320,0.9,-1,-1,-1\n" for f in (1, 2, 3)))
        res = tmp_path / "res.txt"
        assert self._run(["track", "--dets", str(dets), "--out", str(res)]) == 1
        assert capsys.readouterr().err == f"error: {dets}:1: degenerate box\n"
        assert not res.exists()


@pytest.mark.parametrize("size", [
    "0.02,0.02",    # an area below the old 1e-3 floor
    "0.01,100.00",  # an aspect ratio of 1e-4, below the same floor
])
def test_track_keeps_the_size_of_small_and_thin_boxes(tmp_path, capsys, size):
    # Sizes the readers accept reach the output as they are; a floor on the
    # filter's area and aspect once grew the first box to 0.03 px and lost
    # the second altogether.
    dets, gt, res = tmp_path / "dets.txt", tmp_path / "gt.txt", tmp_path / "res.txt"
    dets.write_text("".join(f"{f},-1,100.00,100.00,{size},0.90,-1,-1,-1\n" for f in range(1, 7)))
    gt.write_text("".join(f"{f},1,100.00,100.00,{size},1,1,1.0\n" for f in range(1, 7)))
    assert main(["track", "--dets", str(dets), "--out", str(res)]) == 0
    # min_hits is 3, so the track is first shown at frame 3.
    assert res.read_text().splitlines() == [f"{f},1,100.00,100.00,{size},0.90,-1,-1,-1" for f in range(3, 7)]
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--format", "kv"]) == 0
    assert "MOTA=0.666667" in capsys.readouterr().out.split()


_REMOVED_KEYS = ["lm_region_rule", "vel_rollback", "freeze_size_velocity",
                 "mesh_refresh_interval", "lm_noise_scale"]


class TestRemovedKeys:
    @pytest.mark.parametrize("key", _REMOVED_KEYS)
    def test_track_config(self, tmp_path, scene_file, capsys, key):
        _, dets = _synth_files(tmp_path, scene_file)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = 1\n")
        rc = main(["track", "--config", str(cfg), "--dets", str(dets),
                   "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key" in err
        assert "Traceback" not in err

    def test_ablate_grid(self, tmp_path, scene_file, capsys):
        rc = main(["ablate", "--grid", "vel_rollback=mean", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert "unknown grid key" in capsys.readouterr().err
