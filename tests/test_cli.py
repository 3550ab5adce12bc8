import warnings

import pytest

from meshsort import kalman, pipeline, scenarios
from meshsort.cli import main
from meshsort.motfiles import parse_detections, parse_ground_truth
from meshsort.synth import format_scene


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

    def test_unknown_grid_key_fails(self, tmp_path, scene_file, capsys):
        rc = main(["ablate", "--grid", "bogus=1,2", "--scene", str(scene_file),
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 1
        assert "unknown grid key" in capsys.readouterr().err

    def test_dets_gt_input_pair(self, tmp_path, scene_file, monkeypatch):
        monkeypatch.setenv("MESH_SORT_THREADS", "1")
        gt, dets = _synth_files(tmp_path, scene_file)
        table = tmp_path / "table.txt"
        rc = main(["ablate", "--grid", "conf_high=0.5,0.6",
                   "--dets", str(dets), "--gt", str(gt), "--out", str(table)])
        assert rc == 0
        assert len(table.read_text().strip().splitlines()) == 3


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

    def test_track_duplicate_id_exits_one(self, tmp_path, scene_file, capsys, monkeypatch):
        _, dets = _synth_files(tmp_path, scene_file)

        def duplicate(self, fd):
            raise pipeline.DuplicateTrackIdError("track id 3 appears twice in one frame output")

        monkeypatch.setattr(pipeline.Tracker, "step", duplicate)
        capsys.readouterr()
        rc = main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "appears twice" in err
        assert "Traceback" not in err


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
