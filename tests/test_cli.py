"""Command-line interface tests: exit codes, outputs, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oversmooth import cli, errors
from oversmooth.cli import EXIT_INSUFFICIENT, EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, main
from oversmooth.graph import barabasi_albert, constant_unit_vector, write_grf
from oversmooth.metrics import metric_suite
from oversmooth.pipeline import write_matrix

TOY_HEADER = (
    "scenario,e_dir,e_dir_norm,e_proj,e_proj_norm,mad,"
    "num_rank,stable_rank,erank,frob_norm,skipped_mad_edges"
)


def test_module_entry_point_prints_usage():
    # The child imports the package this process imported, installed or not.
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "oversmooth.cli", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: oversmooth")
    for command in ("synth", "toy", "rollout", "metrics", "correlate", "rate", "contraction"):
        assert command in proc.stdout


def test_toy_writes_scenario_table(tmp_path, capsys):
    out = tmp_path / "toys"
    assert main(["toy", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed == str(out / "toy_scenarios.csv")
    lines = (out / "toy_scenarios.csv").read_text().strip().split("\n")
    assert lines[0] == TOY_HEADER
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["identical_rows", "aligned_rows", "aligned_plus_outlier", "independent_rows"]
    identical = lines[1].split(",")
    assert float(identical[1]) == 0.0
    assert float(identical[5]) == 0.0


def graph_file(tmp_path, n=3, m=2, seed=0):
    g = barabasi_albert(n, m, seed)
    path = tmp_path / "g.grf"
    write_grf(g, path)
    return g, path


def test_metrics_prints_suite_matching_library(tmp_path, capsys):
    g, gpath = graph_file(tmp_path)
    x = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]])
    xpath = tmp_path / "x.dmat"
    write_matrix(x, xpath)
    code = main(["metrics", "--features", str(xpath), "--graph", str(gpath), "--u", "const"])
    assert code == EXIT_OK
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == TOY_HEADER.split(",", 1)[1]
    cells = row.split(",")
    rep = metric_suite(x, g, constant_unit_vector(g.n))
    assert float(cells[0]) == rep.e_dir
    assert float(cells[2]) == rep.e_proj
    assert float(cells[7]) == rep.erank
    assert cells[9] == "0"


def test_metrics_direction_file(tmp_path, capsys):
    g, gpath = graph_file(tmp_path)
    x = np.array([[1.0], [2.0], [3.0]])
    xpath = tmp_path / "x.dmat"
    write_matrix(x, xpath)
    upath = tmp_path / "u.dmat"
    write_matrix([[1.0], [1.0], [1.0]], upath)
    code = main(["metrics", "--features", str(xpath), "--graph", str(gpath), "--u", str(upath)])
    assert code == EXIT_OK
    row = capsys.readouterr().out.strip().split("\n")[1]
    rep = metric_suite(x, g, constant_unit_vector(g.n))
    assert float(row.split(",")[2]) == rep.e_proj
    # A file direction is normalized by math.sqrt, as for a run manifest's
    # {"file": ...} source; float ** 0.5 differs in the last bit for this v.
    v = np.array([0.5157334075684369, 1.7018597959718724, 1.7055318316519026])
    write_matrix(v[:, None], upath)
    x = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]])
    write_matrix(x, xpath)
    assert main(["metrics", "--features", str(xpath), "--graph", str(gpath), "--u", str(upath)]) == EXIT_OK
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    rep = metric_suite(x, g, v / math.sqrt(float(v @ v)))
    assert [float(c) for c in row[:9]] == [
        rep.e_dir, rep.e_dir_norm, rep.e_proj, rep.e_proj_norm, rep.mad,
        rep.num_rank, rep.stable_rank, rep.erank, rep.frob_norm,
    ]
    # A direction file scaled far up or down is normalized after an
    # exact power-of-two prescale, so it prints the same row.
    args = ["metrics", "--features", str(xpath), "--graph", str(gpath), "--u", str(upath)]
    for k in (600, -600):
        write_matrix(math.ldexp(1.0, k) * v[:, None], upath)
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.strip().split("\n")[1].split(",") == row


def test_metrics_eigensolver_failure_is_numeric_failure(tmp_path, capsys, monkeypatch):
    _, gpath = graph_file(tmp_path)
    xpath = tmp_path / "x.dmat"
    write_matrix(np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]]), xpath)

    def no_convergence(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code = main(["metrics", "--features", str(xpath), "--graph", str(gpath), "--u", "const"])
    assert code == EXIT_NUMERIC
    assert "error:" in capsys.readouterr().err


def test_metrics_missing_file_is_a_parse_failure(tmp_path, capsys):
    _, gpath = graph_file(tmp_path)
    code = main(["metrics", "--features", str(tmp_path / "nope.dmat"), "--graph", str(gpath)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error:")


def test_metrics_bad_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.grf"
    bad.write_text("grf 9 1 0\n")
    xpath = tmp_path / "x.dmat"
    write_matrix(np.ones((1, 1)), xpath)
    code = main(["metrics", "--features", str(xpath), "--graph", str(bad)])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_metrics_absurd_dmat_header_is_a_parse_failure(tmp_path, capsys):
    _, gpath = graph_file(tmp_path)
    xpath = tmp_path / "x.dmat"
    xpath.write_text("dmat 1 3000000000 3000000000\n1 2 3\n")
    code = main(["metrics", "--features", str(xpath), "--graph", str(gpath)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == "error: line 2: expected 3000000000 values, got 3\n"


# Exit code of every concrete error, as the CLI has mapped them since the
# error taxonomy was introduced.
EXIT_CODES = {
    "ParseError": 2, "ShapeMismatch": 2, "InvalidParameter": 2, "LengthMismatch": 2,
    "NonUnitVector": 2, "NonpositiveEigenvector": 2, "NonpositiveColumn": 2,
    "DisconnectedGraph": 2, "IoError": 2,
    "ConvergenceFailure": 3, "DegenerateSpectrum": 3, "ZeroMatrix": 3,
    "EigenvectorMismatch": 3, "AllSamplesDegenerate": 3, "RatioUnderflow": 3,
    "DegenerateInput": 3, "AllEdgesSkipped": 3,
    "InsufficientRuns": 4, "SeriesTooShort": 4, "NoEdges": 4,
}


def test_every_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch):
    def concrete(cls):
        for sub in cls.__subclasses__():
            if not sub.__name__.startswith("_"):
                yield sub
            yield from concrete(sub)

    classes = {cls.__name__: cls for cls in concrete(errors.OversmoothError)}
    assert sorted(classes) == sorted(EXIT_CODES)
    for name, cls in classes.items():
        def fail(_args, cls=cls):
            raise cls(f"stubbed {cls.__name__}")

        monkeypatch.setitem(cli._COMMANDS, "toy", fail)
        assert main(["toy", "--out", str(tmp_path)]) == EXIT_CODES[name], name
        assert capsys.readouterr().err == f"error: stubbed {name}\n"

    def missing(_args):
        raise FileNotFoundError("stubbed")

    monkeypatch.setitem(cli._COMMANDS, "toy", missing)
    assert main(["toy", "--out", str(tmp_path)]) == EXIT_PARSE


def test_rollout_trace_is_deterministic(tmp_path, capsys):
    args = [
        "rollout", "--ba", "8,2", "--arch", "gcn", "--act", "tanh",
        "--weights", "uniform-nonneg", "--scale", "0.1",
        "--depth", "25", "--width", "4", "--seed", "3",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    a = (tmp_path / "a" / "trace_gcn_3.csv").read_bytes()
    b = (tmp_path / "b" / "trace_gcn_3.csv").read_bytes()
    assert a == b
    lines = a.decode().strip().split("\n")
    assert len(lines) == 1 + 26
    assert lines[0].startswith("layer,e_dir,")


def test_rollout_graph_source_is_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "rollout", "--ba", "8,2", "--graph", "g.grf",
            "--out", str(tmp_path / "o"),
        ])
    with pytest.raises(SystemExit):
        main(["rollout", "--out", str(tmp_path / "o")])


def test_rollout_bad_ba_spec(tmp_path):
    with pytest.raises(SystemExit):
        main(["rollout", "--ba", "8", "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit):
        main(["rollout", "--ba", "a,b", "--out", str(tmp_path / "o")])


def test_rollout_from_graph_file(tmp_path, capsys):
    _, gpath = graph_file(tmp_path, n=6, m=2, seed=4)
    code = main([
        "rollout", "--graph", str(gpath), "--arch", "gat", "--depth", "10",
        "--width", "3", "--weights", "uniform-signed", "--scale", "0.5",
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("trace_gat_0.csv")


def test_rate_reports_both_rates(capsys):
    code = main(["rate", "--ba", "8,2", "--depth", "30", "--width", "8", "--seed", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    match = re.fullmatch(r"measured_rate=([0-9.e+-]+) predicted_rate=([0-9.e+-]+)", out)
    assert match
    assert 0.0 < float(match.group(1)) < 1.0
    assert 0.0 < float(match.group(2)) < 1.0
    # The weights' scale cancels in the per-layer renormalization: no option.
    with pytest.raises(SystemExit):
        main(["rate", "--ba", "8,2", "--scale", "0.5"])


def test_rate_disconnected_graph_is_a_parse_failure(tmp_path, capsys):
    gpath = tmp_path / "two_paths.grf"
    gpath.write_text("grf 1 6 4\n0 1\n1 2\n3 4\n4 5\n")
    assert main(["rate", "--graph", str(gpath), "--depth", "30", "--width", "4"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "connected" in captured.err


def test_contraction_strict_on_pinned_matrix(tmp_path, capsys):
    mpath = tmp_path / "a.dmat"
    upath = tmp_path / "u.dmat"
    write_matrix([[0.0, 1.0], [0.5, 0.5]], mpath)
    write_matrix([[1.0], [1.0]], upath)
    code = main([
        "contraction", "--matrix", str(mpath), "--u", str(upath),
        "--samples", "200", "--seed", "5",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    ratio = float(out.split("=")[1])
    assert 0.0 < ratio < 1.0


def test_contraction_unfixed_direction_is_numeric_failure(tmp_path, capsys):
    mpath = tmp_path / "a.dmat"
    upath = tmp_path / "u.dmat"
    write_matrix([[0.0, 1.0], [0.5, 0.5]], mpath)
    write_matrix([[2.0], [1.0]], upath)
    code = main(["contraction", "--matrix", str(mpath), "--u", str(upath)])
    assert code == EXIT_NUMERIC
    assert "error:" in capsys.readouterr().err


def test_synth_small_grid_run(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main([
        "synth", "--rows", "gcn_lrelu_identity", "--seeds", "1",
        "--depth", "19", "--width", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed == [
        str(out / "table3_grid.csv"),
        str(out / "trace_gcn_lrelu_identity_0.csv"),
    ]


def test_synth_unknown_row_is_parse_failure(tmp_path, capsys):
    code = main(["synth", "--rows", "resnet", "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def correlate_fixture(tmp_path, scale=1.0):
    g, gpath = graph_file(tmp_path)
    u = constant_unit_vector(3)
    w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for k, (t, acc) in enumerate(zip((0.5, 0.1, 0.02), (0.9, 0.7, 0.2))):
        x = np.outer(u, [1.0, 0.0]) + t * np.outer(w, [0.0, 1.0])
        write_matrix(scale * x, tmp_path / f"run{k}.dmat")
        (tmp_path / f"run{k}.json").write_text(json.dumps({
            "depth": k + 2,
            "accuracy": acc,
            "layer_paths": [f"run{k}.dmat"],
            "arch_label": "gcn",
            "u_source": "const",
        }))
    return gpath


def test_correlate_writes_csv_and_ratio(tmp_path, capsys):
    gpath = correlate_fixture(tmp_path)
    out = tmp_path / "corr"
    code = main([
        "correlate", "--manifests", str(tmp_path / "run*.json"),
        "--graph", str(gpath), "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == str(out / "correlations.csv")
    assert lines[1] == f"accuracy_ratio={0.2 / 0.9!r}"
    content = (out / "correlations.csv").read_text().strip().split("\n")
    assert content[0] == "metric,r"
    assert len(content) == 8


def test_correlate_leaves_out_only_the_infinite_metrics(tmp_path, capsys):
    # Features near 1e200 have absolute energies beyond the float range: those
    # two metrics are infinite on every run, the scale-free ones still correlate.
    gpath = correlate_fixture(tmp_path, scale=1e200)
    out = tmp_path / "corr"
    code = main([
        "correlate", "--manifests", str(tmp_path / "run*.json"),
        "--graph", str(gpath), "--out", str(out),
    ])
    assert code == EXIT_OK, capsys.readouterr().err
    rows = dict(line.split(",") for line in (out / "correlations.csv").read_text().split()[1:])
    assert rows["e_dir"] == rows["e_proj"] == "nan"
    assert -1.0 <= float(rows["e_proj_norm"]) <= 1.0


def test_correlate_empty_glob_is_insufficient(tmp_path, capsys):
    _, gpath = graph_file(tmp_path)
    code = main([
        "correlate", "--manifests", str(tmp_path / "none*.json"),
        "--graph", str(gpath), "--out", str(tmp_path / "o"),
    ])
    assert code == EXIT_INSUFFICIENT
    assert "error:" in capsys.readouterr().err


def test_correlate_too_few_runs_is_insufficient(tmp_path, capsys):
    gpath = correlate_fixture(tmp_path)
    (tmp_path / "run2.json").unlink()
    code = main([
        "correlate", "--manifests", str(tmp_path / "run*.json"),
        "--graph", str(gpath), "--out", str(tmp_path / "o"),
    ])
    assert code == EXIT_INSUFFICIENT
    assert "error:" in capsys.readouterr().err
