import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapspec.cli import main
from trapspec.eigensolver import DIRICHLET, Spectrum, exact_rectangle_spectrum


@pytest.fixture()
def square_json(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps({"a": 1.0, "c": 1.0}))
    return str(p)


@pytest.fixture()
def trap_json(tmp_path):
    p = tmp_path / "trap.json"
    p.write_text(
        json.dumps(
            {"B": 2.0, "h": 1.2, "alpha": math.pi / 3, "beta": math.pi / 3}
        )
    )
    return str(p)


@pytest.fixture()
def square_spectrum_csv(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text(exact_rectangle_spectrum(1, 1, 2000).to_csv())
    return str(p)


class TestSpectrumCommand:
    def test_exact_rectangle(self, square_json, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", square_json, "--exact", "--n", "50", "--out", str(out)])
        assert rc == 0
        s = Spectrum.from_csv(out.read_text())
        assert s.count == 50
        assert s.eigenvalues[0] == pytest.approx(2 * math.pi**2, rel=1e-12)
        assert "# config=" in out.read_text()

    def test_deterministic(self, square_json, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", square_json, "--exact", "--n", "30", "--out", str(a)])
        main(["spectrum", square_json, "--exact", "--n", "30", "--out", str(b)])
        assert a.read_text() == b.read_text()
        assert '"workers"' not in a.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "{square}", "--lmax", "3", "--svg", "{side}"],
            ["orbits", "{trap}", "--lmax", "3", "--period-max", "8", "--svg", "{side}"],
            ["wavetrace", "{square_csv}", "--t-lo", "1.5", "--t-hi", "3.5",
             "--probe-t0", "2.0", "--probe-out", "{side}"],
            ["reconstruct", "{square_csv}"],
            ["compare", "{trap}", "{trap}"],
            ["spectrum", "{square}", "--n", "20", "--mesh-size", "0.0625",
             "--refine-levels", "2", "--bc", "D"],
            ["spectrum", "{square}", "--n", "20", "--mesh-size", "0.0625",
             "--refine-levels", "2", "--bc", "N"],
        ],
        ids=["orbits-square", "orbits-trap", "wavetrace", "reconstruct", "compare",
             "spectrum-fem-D", "spectrum-fem-N"],
    )
    def test_other_subcommands_deterministic(
        self, argv, square_json, trap_json, square_spectrum_csv, tmp_path
    ):
        runs = []
        for name in ("a", "b"):
            side = tmp_path / f"{name}.side"
            paths = {"square": square_json, "trap": trap_json,
                     "square_csv": square_spectrum_csv, "side": str(side)}
            out = tmp_path / f"{name}.out"
            rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
            assert rc == 0
            runs.append((out.read_text(), side.read_text() if side.exists() else None))
        assert runs[0] == runs[1]
        assert '"workers"' not in runs[0][0]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["spectrum", str(tmp_path / "nope.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum"])  # missing domain argument
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "{csv}", "--t-min", "0.01"],
            ["invariants", "{csv}", "--t-max", "0.04"],
            ["reconstruct", "{csv}", "--fit-t-min", "0.01"],
            ["reconstruct", "{csv}", "--fit-t-max", "0.04"],
        ],
        ids=["t-min", "t-max", "fit-t-min", "fit-t-max"],
    )
    def test_half_window_is_usage_error(self, argv, square_spectrum_csv, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(csv=square_spectrum_csv) for a in argv] + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_exact_requires_rectangle(self, trap_json, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", trap_json, "--exact", "--n", "10", "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not out.exists()


class TestMalformedInput:
    """Bad counts and spectrum files exit 1 with a JSON error, never a traceback."""

    @pytest.fixture()
    def spectrum_files(self, tmp_path, square_spectrum_csv):
        text = Path(square_spectrum_csv).read_text()
        header = text.splitlines()[0]
        files = {
            "bad_tag": text.replace("# bc=D ", "# bc=X ", 1),
            "header_only": header + "\n",
            "no_domain": text.replace(header, "# bc=D", 1),
        }
        for name, body in files.items():
            (tmp_path / f"{name}.csv").write_text(body)
        return {name: str(tmp_path / f"{name}.csv") for name in files}

    @pytest.fixture()
    def domain_files(self, tmp_path):
        # NaN is a JSON extension that Python's json module reads
        files = {
            "nan_side": '{"a": NaN, "c": 1}',
            "null_side": '{"a": 1, "c": null}',
            "null_angle": '{"B": 2, "h": 1, "alpha": null, "beta": 1}',
            "null_vertex": '{"vertices": [[0, 0], [1, 0], [0, null]]}',
        }
        for name, body in files.items():
            (tmp_path / f"{name}.json").write_text(body)
        return {name: str(tmp_path / f"{name}.json") for name in files}

    @pytest.fixture()
    def trapezoid_spectrum_csv(self, tmp_path):
        # a stored FEM spectrum whose fitted q takes the trapezoid branch
        data = Path(__file__).parents[1] / "perfbench" / "data" / "band_2h_flagship.json"
        d = json.loads(data.read_text())
        spec = Spectrum(np.array(d["eigenvalues"]), DIRICHLET, accuracy=np.array(d["accuracy"]))
        p = tmp_path / "band_2h_flagship.csv"
        p.write_text(spec.to_csv())
        return str(p)

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["spectrum", "{square}", "--bc", "N", "--n", "0", "--mesh-size", "0.0625",
              "--refine-levels", "2"], "DomainError"),
            (["spectrum", "{square}", "--bc", "D", "--n", "-3", "--mesh-size", "0.0625",
              "--refine-levels", "2"], "DomainError"),
            (["invariants", "{bad_tag}"], "DomainError"),
            (["invariants", "{header_only}"], "DomainError"),
            (["invariants", "{no_domain}"], "DomainError"),
            (["wavetrace", "{header_only}", "--t-lo", "1.5", "--t-hi", "2.5",
              "--probe-t0", "2.0", "--probe-out", "{probe}"], "DomainError"),
            (["wavetrace", "{square_csv}", "--t-lo", "1.5", "--t-hi", "4.5", "--sigma", "0"],
             "DomainError"),
            (["wavetrace", "{square_csv}", "--t-lo", "1.5", "--t-hi", "4.5", "--sigma", "-0.1"],
             "DomainError"),
            (["wavetrace", "{square_csv}", "--t-lo", "1.5", "--t-hi", "4.5", "--sigma", "nan"],
             "DomainError"),
            (["reconstruct", "{trapezoid_csv}", "--sigma", "0"], "DomainError"),
            (["spectrum", "{nan_side}", "--exact", "--n", "10"], "ValueError"),
            (["spectrum", "{null_side}", "--exact", "--n", "10"], "ValueError"),
            (["orbits", "{null_angle}", "--lmax", "3"], "ValueError"),
            (["orbits", "{null_vertex}", "--lmax", "3"], "DomainError"),
        ],
        ids=["spectrum-N-n0", "spectrum-D-negative-n", "invariants-unknown-bc-tag",
             "invariants-header-only", "invariants-no-domain-field", "wavetrace-header-only",
             "wavetrace-sigma-0", "wavetrace-sigma-negative", "wavetrace-sigma-nan",
             "reconstruct-sigma-0", "spectrum-nan-side", "spectrum-null-side",
             "orbits-null-angle", "orbits-null-vertex"],
    )
    def test_exits_1_with_json_error(
        self, argv, error, square_json, square_spectrum_csv, spectrum_files, domain_files,
        trapezoid_spectrum_csv, tmp_path, capsys,
    ):
        paths = dict(
            spectrum_files, **domain_files, square=square_json, square_csv=square_spectrum_csv,
            trapezoid_csv=trapezoid_spectrum_csv, probe=str(tmp_path / "p.csv"),
        )
        out = tmp_path / "out"
        rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert not out.exists()


class TestInvariantsCommand:
    def test_square(self, square_spectrum_csv, tmp_path, capsys):
        rc = main(["invariants", square_spectrum_csv])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["invariants"]["area"] == pytest.approx(1.0, rel=0.01)
        assert d["invariants"]["perimeter"] == pytest.approx(4.0, rel=0.02)
        assert "config" in d


class TestOrbitsCommand:
    def test_trapezoid_contains_2h_and_2b(self, trap_json, tmp_path, capsys):
        rc = main(["orbits", trap_json, "--lmax", "6", "--period-max", "10"])
        assert rc == 0
        lines = [
            json.loads(s)
            for s in capsys.readouterr().out.splitlines()
            if s and not s.startswith("#")
        ]
        lengths = [e["length"] for e in lines]
        two_b = 2 * (2.0 - 1.2 * 2 / math.sqrt(3))  # top side of this trapezoid
        assert any(abs(x - 2.4) < 1e-9 for x in lengths)  # 2h
        assert any(abs(x - two_b) < 1e-9 for x in lengths)

    def test_svg_output(self, trap_json, tmp_path):
        svg = tmp_path / "orbits.svg"
        rc = main(
            ["orbits", trap_json, "--lmax", "3", "--period-max", "8",
             "--out", str(tmp_path / "o.json"), "--svg", str(svg)]
        )
        assert rc == 0
        assert svg.read_text().startswith("<svg")


class TestWavetraceCommand:
    def test_square_candidates(self, square_spectrum_csv, tmp_path):
        out = tmp_path / "cands.json"
        rc = main(
            ["wavetrace", square_spectrum_csv, "--t-lo", "1.5", "--t-hi", "3.5",
             "--out", str(out)]
        )
        assert rc == 0
        d = json.loads(out.read_text())
        t0s = sorted(c["t0"] for c in d["candidates"])
        assert abs(t0s[0] - 2.0) < 0.05
        assert abs(t0s[-1] - 2 * math.sqrt(2)) < 0.05

    def test_probe_csv(self, square_spectrum_csv, tmp_path):
        probe_out = tmp_path / "probe.csv"
        rc = main(
            ["wavetrace", square_spectrum_csv, "--t-lo", "1.5", "--t-hi", "2.5",
             "--probe-t0", "2.0", "--probe-out", str(probe_out),
             "--out", str(tmp_path / "c.json")]
        )
        assert rc == 0
        assert "k,absI,argI" in probe_out.read_text()


class TestReconstructCommand:
    def test_square(self, square_spectrum_csv, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["reconstruct", square_spectrum_csv, "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["branch"] == "Rectangle"
        assert d["shape"]["a"] == pytest.approx(1.0, abs=0.02)


class TestCompareCommand:
    def test_identical(self, trap_json, capsys):
        rc = main(["compare", trap_json, trap_json])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["verdict"] == "congruent"

    def test_distinct(self, trap_json, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps({"B": 2.0, "h": 1.0, "alpha": 1.3, "beta": 1.0})
        )
        rc = main(["compare", trap_json, str(other)])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["verdict"] == "distinct-invariants"


class TestPropsCommand:
    def test_gutkin_passes(self, tmp_path, capsys):
        rc = main(["props", "gutkin", "--n", "5", "--seed", "7"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["failures"] == []

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["props", "no-such-suite"])
        assert exc.value.code == 2
