"""CLI dispatch, exit codes, serialization round-trips, and determinism."""

import json
from fractions import Fraction as F

import pytest

from liftfix.cli import main
from liftfix.gauge import v_psi
from liftfix.serialize import (
    dumps_canonical,
    instance_from_json,
    liftcert_from_json,
    liftcert_to_json,
    lattice_from_json,
    lattice_to_json,
    polygon_from_json,
    polygon_to_json,
)
from liftfix.exactgeo import Polygon2
from liftfix.lattice import Lattice
from liftfix.type3 import triangle_from_mixing

MIXING = {
    "body": {"type": "type3-mixing", "b": ["-1/4", "-3/4"]},
    "pstar": ["1/2", "7/8"],
    "budgets": {"n_max": 16, "window_radius": 12},
}


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "mixing.json"
    path.write_text(json.dumps(MIXING), encoding="utf-8")
    return str(path)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestCommands:
    def test_lift_value(self, instance_path, tmp_path):
        code, data = run_cli(["lift", "value", "--instance", instance_path], tmp_path, "v.json")
        assert code == 0
        report = json.loads(data)
        assert report["certificate"]["value"] == "1/5"
        assert [["-1/4", "1/4"], 1] in report["certificate"]["blocking"]

    def test_fix_cover(self, instance_path, tmp_path):
        code, data = run_cli(["fix", "cover", "--instance", instance_path], tmp_path, "c.json")
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["covered_area"] == "1"
        assert cert["is_full"] is True

    def test_gauge_eval_origin(self, instance_path, tmp_path):
        code, data = run_cli(
            ["gauge", "eval", "--instance", instance_path, "--r", "0", "0"],
            tmp_path, "g.json",
        )
        assert code == 0
        assert json.loads(data)["certificate"]["psi"] == "0"

    def test_type3_mixing_verify(self, instance_path, tmp_path):
        code, data = run_cli(
            ["type3", "mixing-verify", "--instance", instance_path], tmp_path, "m.json"
        )
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["split_cover_free"] and cert["enumeration_free"] and cert["agree"]
        assert set(cert["residual_areas"]) == {"0"}

    def test_lift_phi_and_psistar(self, instance_path, tmp_path):
        code, data = run_cli(
            ["lift", "phi", "--instance", instance_path, "--p", "0,0"], tmp_path, "p.json"
        )
        assert code == 0
        assert json.loads(data)["certificate"]["phi"] == "0"
        code, data = run_cli(
            ["lift", "psistar", "--instance", instance_path, "--point", "1/2,7/8,0"],
            tmp_path, "s.json",
        )
        assert code == 0
        assert json.loads(data)["certificate"]["psistar"] == "1/5"

    def test_tilt_command(self, instance_path, tmp_path):
        code, data = run_cli(
            ["type3", "tilt", "--instance", instance_path, "--beta", "4"],
            tmp_path, "t.json",
        )
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["alphas"] == ["0", "0", "13/16"]
        assert cert["apex"] == ["5/2", "35/8", "5"]


class TestExitCodes:
    def test_domain_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"body": {"type": "nope"}}), encoding="utf-8")
        code = main(["lift", "value", "--instance", str(bad)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"

    def test_budget_error_exits_three(self, tmp_path, capsys):
        inst = dict(MIXING)
        inst["pstar"] = ["0", "0"]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code = main(["lift", "value", "--instance", str(path)])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "NoPositiveValueWithinBudget"
        assert err["error"]["best"] == "0"

    def test_missing_flag_exits_two(self, instance_path, capsys):
        code = main(["lift", "seq", "--instance", instance_path])
        assert code == 2

    def test_rows_instance_must_be_lattice_free(self, tmp_path, capsys):
        inst = {
            "lattice": {"dim": 2, "shift": ["-1/4", "-3/4"], "tail": 0,
                        "truncation": None},
            # a huge box strictly containing lattice points
            "body": {"type": "rows", "rows": [["1/10", "0"], ["-1/10", "0"],
                                              ["0", "1/10"], ["0", "-1/10"]]},
            "pstar": ["1/2", "1/2"],
        }
        path = tmp_path / "notfree.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code = main(["lift", "value", "--instance", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert "not lattice-free" in err["error"]["message"]

    def test_bad_rational_flag_exits_two(self, instance_path, capsys):
        code = main(["lift", "value", "--instance", instance_path, "--pstar", "1/2,x"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"

    def test_missing_instance_file_exits_two(self, tmp_path, capsys):
        code = main(["lift", "value", "--instance", str(tmp_path / "absent.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps({"body": {"type": "rows", "rows": [["1", "0"], ["-1", "1"]]}}),
            json.dumps({"body": {"type": "type3-mixing", "b": ["-1/4", "three"]}}),
        ],
        ids=["not-json", "rows-without-lattice", "bad-rational"],
    )
    def test_malformed_instance_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        code = main(["lift", "value", "--instance", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"


def _strip_timing(data: bytes) -> bytes:
    obj = json.loads(data)
    obj.pop("timing", None)
    return dumps_canonical(obj).encode()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["lift", "value"],
            ["lift", "blocking"],
            ["fix", "cover"],
            ["fix", "region"],
            ["type3", "mixing-verify"],
            ["type3", "figure"],
            ["type3", "claim-check"],
        ],
    )
    def test_repeat_runs_byte_identical(self, args, instance_path, tmp_path):
        _, first = run_cli(args + ["--instance", instance_path], tmp_path, "a.json")
        _, second = run_cli(args + ["--instance", instance_path], tmp_path, "b.json")
        assert _strip_timing(first) == _strip_timing(second)

    def test_svg_byte_identical(self, instance_path, tmp_path):
        _, first = run_cli(
            ["type3", "figure", "--instance", instance_path, "--format", "svg"],
            tmp_path, "a.svg",
        )
        _, second = run_cli(
            ["type3", "figure", "--instance", instance_path, "--format", "svg"],
            tmp_path, "b.svg",
        )
        assert first == second and first.startswith(b"<?xml")

    def test_cover_svg_draws_pieces(self, instance_path, tmp_path):
        _, svg = run_cli(
            ["fix", "cover", "--instance", instance_path, "--format", "svg"],
            tmp_path, "cover.svg",
        )
        text = svg.decode()
        assert text.startswith("<?xml")
        assert text.count("<path") > 10  # the cell plus every piece

    def test_figure_svg_has_named_labels(self, instance_path, tmp_path):
        _, svg = run_cli(
            ["type3", "figure", "--instance", instance_path, "--format", "svg"],
            tmp_path, "labels.svg",
        )
        text = svg.decode()
        for label in ("o", "c1", "c2", "c3", "e1", "e2", "e3",
                      "g", "i", "j", "m", "k", "l", "u0", "pstar"):
            assert f">{label}</text>" in text

    def test_empty_piece_list_renders_valid_svg(self):
        from liftfix.svg import render_svg

        out = render_svg({"kind": "region", "pieces": []})
        assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")

    def test_plot_svg_from_report(self, instance_path, tmp_path):
        _, report = run_cli(
            ["fix", "region", "--instance", instance_path], tmp_path, "r.json"
        )
        payload = tmp_path / "payload.json"
        payload.write_bytes(report)
        code, svg = run_cli(
            ["plot", "svg", "--instance", str(payload)], tmp_path, "p.svg"
        )
        assert code == 0 and svg.startswith(b"<?xml")


class TestRoundTrips:
    def test_liftcert_round_trip(self):
        tri = triangle_from_mixing((F(-1, 4), F(-3, 4)))
        cert = v_psi(tri.gauge(), (F(1, 2), F(7, 8)))
        back = liftcert_from_json(json.loads(json.dumps(liftcert_to_json(cert))))
        assert back.pstar == cert.pstar
        assert back.value == cert.value
        assert back.blocking == cert.blocking

    def test_lattice_round_trip(self):
        lat = Lattice(2, (F(-1, 4), F(-3, 4)), tail=1)
        assert lattice_from_json(lattice_to_json(lat)) == lat

    def test_polygon_round_trip(self):
        poly = Polygon2(((F(0), F(0)), (F(1, 3), F(0)), (F(0), F(7, 5))))
        assert polygon_from_json(polygon_to_json(poly)) == poly

    def test_instance_parses_to_same_gauge(self):
        inst = instance_from_json(MIXING)
        tri = triangle_from_mixing((F(-1, 4), F(-3, 4)))
        assert inst.gauge.body.rows == tri.body.rows
        assert inst.pstar == (F(1, 2), F(7, 8))
