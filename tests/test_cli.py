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
from liftfix.lattice import Lattice, contains
from liftfix.rational import parse_vec
from liftfix.type3 import triangle_from_mixing

MIXING = {
    "body": {"type": "type3-mixing", "b": ["-1/4", "-3/4"]},
    "pstar": ["1/2", "7/8"],
    "budgets": {"n_max": 16, "window_radius": 12},
}

# x, y >= -1/2, x + y <= 1 over (-1/2, -1/2) + Z^2, truncated to x <= 1/2
TRIANGLE = {
    "body": {"type": "rows", "rows": [["-2", "0"], ["0", "-2"], ["1", "1"]]},
    "lattice": {"dim": 2, "shift": ["-1/2", "-1/2"], "truncation": [[["1", "0"], "1/2"]]},
}
# the mixing pyramid for b = (-1/4, -3/4) over ((-1/4, -3/4) + Z^2) x Z_+
PYRAMID = {
    "body": {"type": "rows", "rows": [["4/5", "8/5", "-8/5"], ["-12/5", "8/5", "0"],
                                      ["4/5", "-8/5", "6/5"]]},
    "lattice": {"dim": 2, "shift": ["-1/4", "-3/4"], "tail": 1},
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
        # within the default budget, where the descent once ran out of heights
        code, data = run_cli(
            ["lift", "psistar", "--instance", instance_path, "--point=-9/8,13/8,0"],
            tmp_path, "s.json",
        )
        assert code == 0
        assert json.loads(data)["certificate"]["psistar"] == "1/2"
        # value 1/40 at this pstar: the height walk needed 24 heights and exited 3
        code, data = run_cli(
            ["lift", "psistar", "--instance", instance_path, "--pstar=1/32,0",
             "--point=1/3,1/5,0"],
            tmp_path, "s.json",
        )
        assert code == 0
        assert json.loads(data)["certificate"]["psistar"] == "44/75"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("lift value", "--pstar", "-1/2,7/8"),
            ("lift phi", "--p", "-1/2,0"),
            ("lift seq", "--p2", "-1/2,15/8"),
            ("fix translate", "--m", "-1/16,0"),
            ("lift psistar", "--point", "-1/2,7/8,0"),
            ("gauge eval", "--r", "-1/2 0"),
        ],
        ids=["pstar", "p", "p2", "m", "point", "r"],
    )
    def test_negative_flag_values_in_either_spelling(self, command, flag, value, instance_path,
                                                     tmp_path):
        args = command.split() + ["--instance", instance_path]
        code, spaced = run_cli(args + [flag, *value.split()], tmp_path, "a.json")
        assert code == 0
        code, joined = run_cli(args + [f"{flag}={value.replace(' ', ',')}"], tmp_path, "b.json")
        assert code == 0
        assert _strip_timing(spaced) == _strip_timing(joined)
        if flag == "--pstar":
            assert json.loads(spaced)["certificate"]["value"] == "1/5"

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

    def test_instance_budget_is_the_budget(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({**MIXING, "pstar": ["0", "0"], "budgets": {"n_max": 3}}),
                        encoding="utf-8")
        assert main(["lift", "value", "--instance", str(path)]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["message"] == "no positive candidate for N <= 3"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauge", "eval", "--instance", "MIXING"],
            ["plot", "svg", "--instance", "MIXING"],
            [],
            ["lift", "value", "--instance", "MIXING", "--bogus"],
            ["lift", "value", "--instance", "MIXING", "--format", "pdf"],
            ["lift", "value", "--instance", "MIXING", "--budget-n", "3"],
        ],
        ids=["gauge-eval-without-r", "plot-an-instance", "no-command", "unknown-flag",
             "unknown-format", "removed-budget-flag"],
    )
    def test_usage_errors_exit_two(self, argv, instance_path, capsys):
        code = main([instance_path if a == "MIXING" else a for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert json.loads(out)["error"]["type"] == "DomainViolation"

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

    @pytest.mark.parametrize("argv", [["--pstar="], ["--pstar", ""]], ids=["joined", "spaced"])
    def test_empty_pstar_exits_two(self, argv, instance_path, capsys):
        # an explicit empty point is an error, not the instance's own pstar
        code = main(["lift", "value", "--instance", instance_path] + argv)
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "phi", "--p", "1/2"],
            ["lift", "seq", "--p2", "1/2"],
            ["lift", "value", "--pstar", "1/2"],
            ["fix", "translate", "--m", "1/2"],
            ["type3", "claim-check", "--pstar", "1/2"],
        ],
        ids=["lift-phi", "lift-seq", "lift-value", "fix-translate", "claim-check"],
    )
    def test_point_of_the_wrong_dimension_exits_two(self, argv, instance_path, capsys):
        code = main(argv[:2] + ["--instance", instance_path] + argv[2:])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DimensionMismatch"
        assert err["message"] == "expected a point of dimension 2, the body's"

    def test_missing_instance_file_exits_two(self, tmp_path, capsys):
        code = main(["lift", "value", "--instance", str(tmp_path / "absent.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainViolation"

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("{not json", "DomainViolation"),
            (json.dumps({"body": {"type": "rows", "rows": [["1", "0"], ["-1", "1"]]}}),
             "DomainViolation"),
            (json.dumps({"body": {"type": "type3-mixing", "b": ["-1/4", "three"]}}),
             "DomainViolation"),
            (json.dumps({"body": {"type": "rows", "rows": [["2"], ["-2"]]},
                         "lattice": {"dim": 1, "shift": ["1/2"]}}), "DomainViolation"),
        ] + [
            (json.dumps({**TRIANGLE, "lattice": {**TRIANGLE["lattice"], "truncation": trunc}}),
             "DimensionMismatch")
            for trunc in ([[["1"], "0"]], [["1", "0"]], [[["1", "0", "0"], "0"]])
        ] + [
            (json.dumps({**MIXING, "budgets": budgets}), "DomainViolation")
            for budgets in ({"n_max": 0}, {"window_radius": -3}, {"n_max": 3.5},
                            {"window_radius": "12"})
        ] + [
            (json.dumps({**TRIANGLE, "pstar": ["7/8", "-1/2"],
                         "lattice": {**TRIANGLE["lattice"], **field}}), "DomainViolation")
            for field in ({"dim": 2.5}, {"tail": 0.9}, {"dim": True})
        ],
        ids=["not-json", "rows-without-lattice", "bad-rational", "rows-1d-lattice",
             "truncation-short-row", "truncation-bare-row", "truncation-long-row",
             "budget-n-zero", "budget-window-negative", "budget-n-fraction",
             "budget-window-string", "lattice-dim-fraction", "lattice-tail-fraction",
             "lattice-dim-bool"],
    )
    def test_malformed_instance_exits_two(self, text, kind, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        code = main(["lift", "value", "--instance", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == kind


class TestTruncationAndTails:
    """`lift value` and `lift blocking` honour S; the descent commands refuse it."""

    @pytest.fixture(params=["triangle", "pyramid"])
    def case(self, request, tmp_path):
        inst, pstar, value = {
            "triangle": (TRIANGLE, "7/8,-1/2", "1/4"),
            "pyramid": (PYRAMID, "1/8,1/8,1/8", "1/10"),
        }[request.param]
        path = tmp_path / f"{request.param}.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        return str(path), pstar, value, lattice_from_json(inst["lattice"])

    def test_lift_value_and_blocking(self, case, tmp_path):
        path, pstar, value, lat = case
        code, data = run_cli(["lift", "value", "--instance", path, "--pstar", pstar],
                             tmp_path, "v.json")
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["value"] == value
        assert cert["blocking"]
        assert all(contains(lat, parse_vec(x)) for x, _ in cert["blocking"])
        code, data = run_cli(["lift", "blocking", "--instance", path, "--pstar", pstar],
                             tmp_path, "b.json")
        assert code == 0
        assert json.loads(data)["certificate"]["value"] == value

    def test_empty_truncation_cuts_nothing(self, tmp_path):
        untruncated = {**TRIANGLE, "lattice": {"dim": 2, "shift": ["-1/2", "-1/2"]}}
        empty = {**TRIANGLE, "lattice": {**untruncated["lattice"], "truncation": []}}
        for args in (["lift", "phi", "--p", "0,0"], ["lift", "psistar", "--point", "0,0,0"],
                     ["fix", "cover"], ["fix", "translate", "--m", "1/8,0"]):
            certs = []
            for name, inst in (("untruncated", untruncated), ("empty", empty)):
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(inst), encoding="utf-8")
                code, data = run_cli(args + ["--instance", str(path), "--pstar", "7/8,-1/2"],
                                     tmp_path, f"{name}-out.json")
                assert code == 0
                certs.append(json.loads(data)["certificate"])
            assert certs[0] == certs[1]

    def test_descent_exits_two(self, case, capsys):
        path, pstar, _, lat = case
        origin = ",".join(["0"] * lat.full_dim)
        for args in (["lift", "phi", "--p", origin], ["lift", "psistar", "--point", origin + ",0"]):
            code = main(args + ["--instance", path, "--pstar", pstar])
            assert code == 2
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "PreconditionViolated"


CROSS3 = {
    "body": {
        "type": "rows",
        "rows": [[f"{2 * s1}/3", f"{2 * s2}/3", f"{2 * s3}/3"]
                 for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)],
    },
    "lattice": {"dim": 3, "shift": ["-1/2", "-1/2", "-1/2"]},
}


class TestThreeDimensionalRows:
    """A 3-D rows body: gauge and lift commands run, fix commands exit 2."""

    @pytest.fixture()
    def cross_path(self, tmp_path):
        path = tmp_path / "cross.json"
        path.write_text(json.dumps(CROSS3), encoding="utf-8")
        return str(path)

    def test_gauge_free(self, cross_path, tmp_path):
        code, data = run_cli(["gauge", "free", "--instance", cross_path], tmp_path, "f.json")
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["free"] is True
        assert [len(hits) for hits in cert["facet_hits"]] == [1] * 8

    def test_lift_value(self, cross_path, tmp_path):
        args = ["lift", "value", "--instance", cross_path, "--pstar", "1/4,1/8,1/16"]
        code, data = run_cli(args, tmp_path, "v.json")
        assert code == 0
        cert = json.loads(data)["certificate"]
        assert cert["value"] == "7/24"
        assert cert["blocking"] == [[["1/2", "1/2", "1/2"], 1], [["1/2", "1/2", "1/2"], 2]]

    def test_fix_cover_needs_a_2d_body(self, cross_path, capsys):
        code = main(["fix", "cover", "--instance", cross_path, "--pstar", "1/4,1/8,1/16"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DimensionMismatch"
        assert "2-D body" in err["message"]

    @pytest.mark.parametrize("dim", [1, 4, True])
    def test_unsupported_lattice_dim_exits_two(self, dim, tmp_path, capsys):
        inst = {
            "body": {"type": "rows", "rows": [["2"] + ["0"] * (dim - 1), ["-2"] + ["0"] * (dim - 1)]},
            "lattice": {"dim": dim, "shift": ["1/2"] * dim},
        }
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code = main(["gauge", "free", "--instance", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "DomainViolation", "message": f"lattice dim must be 2 or 3, got {dim}"}


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
