import hashlib
import json
import os
import re

import pytest

from schoenberg.cli import _parse_complex_literal, main, parse_zeros
from schoenberg.sharpness import maximize_ratio, opnorm_lower_bound

from conftest import reference_json


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1+2i", 1 + 2j),
            ("-1.5", -1.5),
            ("0.3i", 0.3j),
            ("i", 1j),
            ("-i", -1j),
            ("2-i", 2 - 1j),
            ("1e-3+2.5e2i", 1e-3 + 2.5e2j),
            ("1+2j", 1 + 2j),
        ],
    )
    def test_parse(self, text, expected):
        assert _parse_complex_literal(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_complex_literal("one plus i")

    def test_inline_list(self):
        cfg = parse_zeros("1+2i, -1, 0.5i")
        assert cfg.zeros == (1 + 2j, -1 + 0j, 0.5j)

    def test_file_format(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("1.0 0.0\n-0.5 0.25\n\n-0.5 -0.25\n")
        cfg = parse_zeros(str(path))
        assert cfg.zeros == (1 + 0j, -0.5 + 0.25j, -0.5 - 0.25j)

    def test_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "zeros.txt"
        for text, where in (("1.0\n", "zeros.txt:1"), ("1 0\nabc 2\n", "zeros.txt:2")):
            path.write_text(text)
            with pytest.raises(ValueError, match=where):
                parse_zeros(str(path))


class TestCheckCommand:
    def test_passing_configuration(self, capsys):
        code = main(["check", "--zeros", "0,1,-1", "--p", "1,2,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schoenberg" in out
        assert "certificates hold" in out

    def test_exit_zero_iff_all_hold(self):
        assert main(["check", "--zeros", "1,-1", "--p", "2"]) == 0

    def test_scaled_low_family_holds(self, capsys):
        # the shadow of e_3(sigma) against the exact zero e_3(|z|) once made
        # this report an esf_k3 violation and exit 1
        assert main(["check", "--zeros", "0,0,1024,-1024", "--p", "2"]) == 0
        assert "NO" not in capsys.readouterr().out

    def test_rows_line_up_with_the_header(self, capsys):
        # quartic_dominance is the longest name, at 17 characters
        main(["check", "--zeros", "1,-1,0.5i,-0.5i", "--p", "2"])
        header, *rows, _summary = capsys.readouterr().out.splitlines()
        assert any(row.startswith("quartic_dominance ") for row in rows)

        def right_edges(line):
            return [m.end() for m in re.finditer(r"\S+", line)][1:]

        for row in rows:
            assert right_edges(row) == right_edges(header), row


class TestAuditCommand:
    def test_json_audit(self, tmp_path, capsys):
        spec = {
            "n_values": [3, 4],
            "p_grid": [1.0, 2.0],
            "distributions": ["disk"],
            "samples_per_cell": 3,
            "seed": 7,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "report.json"
        code = main(
            ["audit", "--spec", str(spec_path), "--out", str(out_path), "--format", "json"]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["spec"]["seed"] == 7
        assert data["violations"] == []

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_values": [3], "p_grid": [2.0],
                        "distributions": ["disk"], "samples_per_cell": 4, "seed": 1})
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["audit", "--spec", str(spec_path), "--out", str(a)]) == 0
        assert main(["audit", "--spec", str(spec_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sabotage_nonzero_exit(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_values": [4], "p_grid": [2.0],
                        "distributions": ["real"], "samples_per_cell": 5, "seed": 3})
        )
        out = tmp_path / "r.json"
        code = main(["audit", "--spec", str(spec_path), "--out", str(out), "--sabotage"])
        assert code == 1
        assert json.loads(out.read_text())["violations"]

    def test_null_device_out(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_values": [3], "p_grid": [2.0],
                        "distributions": ["disk"], "samples_per_cell": 4, "seed": 1})
        )
        assert main(["audit", "--spec", str(spec_path), "--out", os.devnull]) == 0

    def test_csv_format(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_values": [3], "p_grid": [2.0],
                        "distributions": ["disk"], "samples_per_cell": 2, "seed": 0})
        )
        out = tmp_path / "r.csv"
        assert main(["audit", "--spec", str(spec_path), "--out", str(out),
                     "--format", "csv"]) == 0
        assert out.read_text().splitlines()[0] == "name,n,p,lhs,rhs,slack,ratio,holds"


    def test_unknown_spec_key_is_an_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_values": [3], "sample_per_cell": 5}))
        out = tmp_path / "r.json"
        assert main(["audit", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "sample_per_cell" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n_values": 3}, "n_values must be a sequence"),
            ({"p_grid": 2.0}, "p_grid must be a sequence"),
            ({"distributions": {"disk": 1}}, "distributions must be a sequence"),
            ({"tolerances": 1e-12}, "tolerances must be a sequence"),
            ({"distributions": [{"disk": 1}]}, "unknown distribution"),
            ([3], "must be a mapping"),
        ],
    )
    def test_malformed_spec_is_an_error(self, tmp_path, capsys, spec, message):
        # a scalar where a list belongs ended in a TypeError traceback
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "r.json"
        assert main(["audit", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--zeros", "0,1,-1", "--grid", "1,1.5,2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,lhs,rhs,ratio"
        assert len(lines) == 4
        for line in lines[1:]:
            ratio = float(line.split(",")[-1])
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_table_bytes_pinned(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--zeros", "0,1,-1,0.5i,-0.5i",
                     "--grid", "1,1.25,1.5,2,3,10", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            363,
            "3d76949fdf6b0087eb1ab6186f0fd2c19e6176e15a74df349850bac9f106fe2e",
        )

    def test_rewrite_leaves_exactly_the_smaller_table(self, tmp_path):
        fresh, out = tmp_path / "fresh.csv", tmp_path / "sweep.csv"
        small = ["sweep", "--zeros", "0,1,-1", "--grid", "2"]
        assert main(small + ["--out", str(fresh)]) == 0
        assert main(["sweep", "--zeros", "0,1,-1", "--grid", "1,1.5,2,3,4",
                     "--out", str(out)]) == 0
        inode = out.stat().st_ino
        assert main(small + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_ino == inode

    def test_empty_grid_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--zeros", "0,1,-1", "--grid", "", "--out", str(out)]) == 2
        assert "grid must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_configuration_leaves_the_ratio_empty(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--zeros", "0,0,0", "--grid", "2", "--out", str(out)]) == 0
        assert out.read_text() == "p,lhs,rhs,ratio\n2,0,0,\n"

    def test_null_device_out(self):
        assert main(["sweep", "--zeros", "0,1,-1", "--grid", "2", "--out", os.devnull]) == 0

    def test_unwritable_path_is_named(self, tmp_path, capsys):
        out = tmp_path / "no" / "x.csv"
        assert main(["sweep", "--zeros", "0,1,-1", "--grid", "2", "--out", str(out)]) == 2
        assert f"cannot write report to {out}" in capsys.readouterr().err


class TestSharpnessCommand:
    def test_json_output(self, capsys):
        code = main(["sharpness", "--n", "3", "--p", "1.5", "--budget", "800", "--seed", "7"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["n"] == 3
        assert 0.9 <= data["best_ratio"] <= 1.0 + 1e-9


    def test_output_bytes(self, capsys):
        assert main(["sharpness", "--n", "4", "--p", "2", "--budget", "50"]) == 0
        result = maximize_ratio(4, 2.0, 50, 0)
        expected = {
            "n": result.n,
            "p": result.p,
            "best_ratio": result.best_ratio,
            "evaluations": result.evaluations,
            "restarts": result.restarts,
            "seed": result.seed,
            "best_zeros": [[z.real, z.imag] for z in result.best_config.zeros],
        }
        assert capsys.readouterr().out == reference_json(expected)

    def test_exceedance_exits_one(self, capsys):
        # the claimed constant is refuted at (5, 1.75); a found exceedance is
        # a result, told apart from an input error by its exit code
        code = main(["sharpness", "--n", "5", "--p", "1.75", "--budget", "1000", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["best_ratio"] > 1.0 + 1e-9
        assert "exceeds the claimed constant" in captured.err

    def test_bad_budget_exits_two(self, capsys):
        assert main(["sharpness", "--n", "5", "--p", "1.75", "--budget", "0"]) == 2
        assert "budget must be positive" in capsys.readouterr().err


class TestOpnormCommand:
    def test_json_output(self, capsys):
        code = main(["opnorm", "--n", "4", "--p", "4", "--budget", "150", "--seed", "0"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["estimate"] == pytest.approx(data["bound"], abs=1e-9)

    def test_output_bytes(self, capsys):
        assert main(["opnorm", "--n", "4", "--p", "2", "--budget", "50"]) == 0
        estimate, bound = opnorm_lower_bound(4, 2.0, 50, 0)
        expected = {"n": 4, "p": 2.0, "estimate": estimate, "bound": bound}
        assert capsys.readouterr().out == reference_json(expected)

    def test_exceedance_exits_one(self, capsys):
        code = main(["opnorm", "--n", "8", "--p", "1.5", "--budget", "100", "--seed", "0"])
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert code == 1
        assert data["estimate"] > data["bound"] * (1.0 + 1e-9)
        assert "exceeds the claimed constant" in captured.err

    def test_bad_budget_exits_two(self, capsys):
        assert main(["opnorm", "--n", "8", "--p", "1.5", "--budget", "0"]) == 2
        assert "budget must be positive" in capsys.readouterr().err


class TestExtremalCommand:
    def test_high_family_output(self, capsys):
        assert main(["extremal", "--family", "high", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ["-1.0 0.0", "-1.0 0.0", "1.0 0.0", "1.0 0.0"]

    def test_low_family_pipes_into_check(self, tmp_path, capsys):
        assert main(["extremal", "--family", "low", "--n", "5"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "zeros.txt"
        path.write_text(text)
        assert main(["check", "--zeros", str(path), "--p", "1,2"]) == 0

    def test_odd_n_high_fails(self, capsys):
        assert main(["extremal", "--family", "high", "--n", "5"]) == 2
        assert "error" in capsys.readouterr().err
