"""File-format and correlation-pipeline tests."""

import decimal
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import pipeline
from oversmooth.errors import (
    DegenerateInput,
    InsufficientRuns,
    InvalidParameter,
    IoError,
    LengthMismatch,
    OversmoothError,
    ParseError,
    ShapeMismatch,
)
from oversmooth.experiments import SynthConfig, synth_table
from oversmooth.graph import (
    Graph,
    barabasi_albert,
    constant_unit_vector,
    gcn_dominant_eigenvector,
    write_grf,
)
from oversmooth.metrics import CANONICAL_METRICS, MetricReport
from oversmooth.pipeline import (
    TRACE_COLUMNS,
    RunManifest,
    correlate,
    format_float,
    load_matrix,
    load_vector,
    pearson,
    read_manifest,
    write_matrix,
    write_report,
)
from oversmooth.rng import Xoshiro256pp


def test_format_float_round_trips():
    for v in (1.0 / 3.0, 1e300, 5e-324, -0.0, 0.1 + 0.2, 2.0):
        assert float(format_float(v)) == v
    assert format_float(float("nan")) == "nan"


def test_dmat_round_trip_is_bit_exact(tmp_path):
    m = np.array([[1.0 / 3.0, 1e300, 5e-324], [-0.0, 1.0, -2.5]])
    path = tmp_path / "m.dmat"
    write_matrix(m, path)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_dmat_header_layout(tmp_path):
    path = tmp_path / "m.dmat"
    write_matrix(np.zeros((2, 3)), path)
    first = path.read_text().split("\n")[0]
    assert first == "dmat 1 2 3"


def test_text_formats_are_pinned_byte_for_byte(tmp_path):
    write_grf(Graph.from_edges(4, [(2, 3), (0, 2), (1, 0)]), tmp_path / "g.grf")
    assert (tmp_path / "g.grf").read_bytes() == b"grf 1 4 3\n0 1\n0 2\n2 3\n"
    write_matrix([[1.0 / 3.0, 1e300, 5e-324], [-0.0, 1.0, -2.5]], tmp_path / "m.dmat")
    assert (tmp_path / "m.dmat").read_bytes() == (
        b"dmat 1 2 3\n0.3333333333333333 1e+300 5e-324\n-0.0 1.0 -2.5\n"
    )
    reports = [
        MetricReport(
            e_dir=0.1 + 0.2, e_dir_norm=0.5, e_proj=1e-300, e_proj_norm=0.25, mad=2.0,
            num_rank=1.5, stable_rank=1.25, erank=3.0, frob_norm=7.0, skipped_mad_edges=0,
        ),
        MetricReport(
            e_dir=0.0, e_dir_norm=None, e_proj=0.0, e_proj_norm=None, mad=None,
            num_rank=None, stable_rank=None, erank=None, frob_norm=0.0, skipped_mad_edges=3,
        ),
    ]
    (path,) = write_report(tmp_path / "out", traces={("gcn", 4): reports})
    assert open(path, "rb").read() == (
        b"layer,e_dir,e_dir_norm,e_proj,e_proj_norm,mad,erank,num_rank,frob_norm\n"
        b"0,0.30000000000000004,0.5,1e-300,0.25,2.0,3.0,1.5,7.0\n"
        b"1,0.0,nan,0.0,nan,nan,nan,nan,0.0\n"
    )


def test_write_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_matrix(np.ones(3), tmp_path / "v.dmat")
    # load_matrix would refuse these files, so the writer refuses them too.
    with pytest.raises(ShapeMismatch):
        write_matrix(np.ones((0, 3)), tmp_path / "e.dmat")
    with pytest.raises(InvalidParameter):
        write_matrix([[float("nan"), 1.0]], tmp_path / "n.dmat")
    assert not (tmp_path / "e.dmat").exists() and not (tmp_path / "n.dmat").exists()


def parse_error_line(tmp_path, content, fmt=None):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        load_matrix(path, fmt=fmt)
    return err.value.line


def test_dmat_parse_errors_carry_line_numbers(tmp_path):
    assert parse_error_line(tmp_path, "xmat 1 1 1\n1.0\n") == 1
    assert parse_error_line(tmp_path, "dmat 2 1 1\n1.0\n") == 1
    assert parse_error_line(tmp_path, "dmat 1 x 1\n1.0\n") == 1
    assert parse_error_line(tmp_path, "dmat 1 0 1\n") == 1
    assert parse_error_line(tmp_path, "dmat 1 1 2\n1.0\n") == 2
    assert parse_error_line(tmp_path, "dmat 1 1 1\nfoo\n") == 2
    assert parse_error_line(tmp_path, "dmat 1 1 1\ninf\n") == 2
    assert parse_error_line(tmp_path, "dmat 1 1 1\n1.0\n2.0\n") == 3
    assert parse_error_line(tmp_path, "dmat 1 2 1\n1.0\n") == 3


def test_dmat_ignores_blank_lines(tmp_path):
    path = tmp_path / "gaps.dmat"
    path.write_text("dmat 1 2 1\n\n1.0\n\n2.0\n")
    assert_allclose(load_matrix(path), [[1.0], [2.0]], rtol=0, atol=0)


def test_csv_matrix_and_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1, 2\n3,4\n")
    assert_allclose(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]], rtol=0, atol=0)
    assert parse_error_line(tmp_path, "1,2\n3\n") == 2
    assert parse_error_line(tmp_path, "1,2\n3,nan\n") == 2
    assert parse_error_line(tmp_path, "\n\n") == 1


def test_format_sniffing_and_forcing(tmp_path):
    path = tmp_path / "m.any"
    write_matrix(np.ones((1, 1)), path)
    assert load_matrix(path).shape == (1, 1)
    with pytest.raises(ParseError):
        load_matrix(path, fmt="csv")
    with pytest.raises(InvalidParameter):
        load_matrix(path, fmt="tsv")
    with pytest.raises(IoError):
        load_matrix(tmp_path / "missing.dmat")


# The C body walk of `.dmat` files must give `_load_dmat`'s bits for every
# file it vouches for, and leave every other file to it.

def dmat_bytes(rows) -> bytes:
    """A `.dmat` file whose rows are lists of token strings."""
    lines = [f"dmat 1 {len(rows)} {len(rows[0])}"] + [" ".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def random_doubles(seed: int, count: int) -> list[float]:
    """Finite doubles of uniformly random bits, drawn from the package RNG."""
    gen = Xoshiro256pp(seed)
    values = np.array([gen.next_u64() for _ in range(count)], dtype=np.uint64).view(np.float64)
    return [float(v) for v in values if math.isfinite(v)]


def every_exponent(seed: int) -> list[float]:
    """One normal double of random sign and mantissa for each binary exponent."""
    gen = Xoshiro256pp(seed)
    words = [(gen.next_u64() & ~(0x7FF << 52)) | (e << 52) for e in range(1, 2047)]
    return [float(v) for v in np.array(words, dtype=np.uint64).view(np.float64)]


def random_subnormals(seed: int, count: int) -> list[float]:
    """Doubles of random sign and mantissa with a zero exponent field."""
    gen = Xoshiro256pp(seed)
    words = [gen.next_u64() & ~(0x7FF << 52) for _ in range(count)]
    return [float(v) for v in np.array(words, dtype=np.uint64).view(np.float64)]


def near_halfway(v: float) -> list[str]:
    """The exact decimal midpoint between ``v`` and the next double up, and
    two numbers a relative 1e-60 below and above it."""
    with decimal.localcontext(decimal.Context(prec=1200)):
        mid = (decimal.Decimal(v) + decimal.Decimal(float(np.nextafter(v, math.inf)))) / 2
        return [f"{mid * (1 + k * decimal.Decimal('1e-60')):e}" for k in (0, -1, 1)]


def equivalence_cases() -> dict:
    big = [s * m * 1e300 for s in (1.0, -1.0) for m in (1.0, 3.7, 179.76931348623157)]
    tokens = {
        "repr of random bits": [repr(v) for v in random_doubles(11, 4096)],
        "every exponent": [repr(v) for v in every_exponent(5)],
        "signed zeros": ["0.0", "-0.0", "0", "-0", "+0", "0e5", "-0.000e-99", ".0", "0."],
        "above 1e300": [repr(v) for v in big] + ["1.7976931348623157e308", "1.7976931348623158e308"],
        "17-digit mantissas": [f"{v:.16e}" for v in random_doubles(13, 512)],
        "30-digit mantissas": [f"{v:.29e}" for v in random_doubles(17, 512)],
        "near halfway": ["9007199254740993", "9007199254740995", "2.2250738585072014e-308",
                         "0.1000000000000000055511151231257827", "1e23", "8.988465674311579e307",
                         "+.5E+0", "5."]
        + [tok for v in every_exponent(7)[1:-1:97] for tok in near_halfway(v)],
        "subnormals and underflow": [repr(v) for v in random_subnormals(19, 512)]
        + [f"{v:.29e}" for v in random_subnormals(23, 64)]
        + [tok for v in random_subnormals(29, 32) for tok in near_halfway(v)]
        + ["5e-324", "-5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
           "2.2250738585072011e-308", "-2.2250738585072009e-308", "1e-400", "-1e-400",
           "-2e-99999", "0.000001e-318"],
    }
    cases = {}
    for name, toks in tokens.items():
        cols = 8
        toks += toks[: -len(toks) % cols]
        cases[name] = dmat_bytes([toks[i:i + cols] for i in range(0, len(toks), cols)])
    return cases


@pytest.mark.needs_cc
@pytest.mark.parametrize("name", sorted(equivalence_cases()))
def test_dmat_kernel_matches_python_reader(name, tmp_path):
    data = equivalence_cases()[name]
    want = pipeline._load_dmat(data.decode("ascii").split("\n"))
    kernel = pipeline._dmat_kernel()
    assert kernel is not None
    got = kernel(data, data.index(b"\n") + 1, *want.shape)
    assert got is not None, "the kernel did not vouch for a file of float() literals"
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    path = tmp_path / "m.dmat"
    path.write_bytes(data)
    assert load_matrix(path).tobytes() == want.tobytes()


def load_outcome(path, fmt=None):
    """What ``load_matrix`` gives: the shape and bytes, or the error and its line."""
    try:
        m = load_matrix(path, fmt)
    except (OversmoothError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return m.shape, m.tobytes()


# 35 odd token spellings: each one either parses as float() does or is refused.
ODD_SPELLINGS = (
    "1_0", "\t2 ", "4\r", "-Infinity", "1E-320", "\u0661\u0662", "\uff11\uff12", "0x1p3",
    "1d5", "", "inf", "nan", "-nan", "NaN", "+Infinity", "1e400", "-1e400", "1e-400",
    "5e-324", "2.2250738585072011e-308", "0x10", "1e", "1e+", ".", "+.", "-", "e5",
    ".e5", "1.2.3", "++1", "1,5", "1\xa0", "\x0b3", "1f", "0b1",
)

MALFORMED = {
    "crlf": b"dmat 1 2 2\r\n1 2\r\n3 4\r\n",
    "cr only": b"dmat 1 2 2\r1 2\r3 4\r",
    "cr in header": b"dmat 1 1 2\r1 2\n",
    "cr splits header": b"dmat 1 1\r2\n3 4\n",
    "bom": b"\xef\xbb\xbfdmat 1 1 2\n1 2\n",
    "trailing spaces": b"dmat 1 2 2 \n1 2  \n  3 4 \n \n",
    "tab separated": b"dmat 1 1 2\n1\t2\n",
    "too few rows": b"dmat 1 3 2\n1 2\n3 4\n",
    "too many rows": b"dmat 1 1 2\n1 2\n3 4\n",
    "ragged rows": b"dmat 1 2 2\n1 2 3\n4\n",
    "short row": b"dmat 1 2 2\n1 2\n3\n",
    "no final newline": b"dmat 1 1 2\n1 2",
    "header only": b"dmat 1 1 1",
    "invalid utf-8": b"dmat 1 1 2\n1 \xff\n",
    "non-ascii space": "dmat 1 1 2\n1\u20032\n".encode(),
    "huge header": b"dmat 1 3000000000 3000000000\n1\n",
    "header counts below 1": b"dmat 1 1 0\n\n",
}
LINE_NUMBER_CASES = (
    "xmat 1 1 1\n1.0\n", "dmat 2 1 1\n1.0\n", "dmat 1 x 1\n1.0\n", "dmat 1 0 1\n",
    "dmat 1 1 2\n1.0\n", "dmat 1 1 1\nfoo\n", "dmat 1 1 1\ninf\n", "dmat 1 1 1\n1.0\n2.0\n",
    "dmat 1 2 1\n1.0\n",
)
DEFERRAL_CASES = {
    **{f"odd {tok!r}": f"dmat 1 2 2\n1.5 {tok}\n-2 3\n".encode() for tok in ODD_SPELLINGS},
    **MALFORMED,
    **{f"line number {text!r}": text.encode() for text in LINE_NUMBER_CASES},
}


@pytest.mark.parametrize("name", sorted(DEFERRAL_CASES))
def test_dmat_outcome_is_the_same_with_the_kernel_off(name, tmp_path, monkeypatch):
    path = tmp_path / "m.dmat"
    path.write_bytes(DEFERRAL_CASES[name])
    on = [load_outcome(path, fmt) for fmt in (None, "dmat")]
    monkeypatch.setattr(pipeline, "_dmat_kernel", lambda: None)
    assert [load_outcome(path, fmt) for fmt in (None, "dmat")] == on


def test_dmat_header_counts_reserve_nothing_before_the_body(tmp_path, monkeypatch):
    # Neither reader may size an array from a header the body cannot fill.
    path = tmp_path / "m.dmat"
    path.write_bytes(b"dmat 1 3000000000 3000000000\n1 2 3\n")
    requested = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        requested.append(int(np.prod(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    outcomes = [load_outcome(path)]
    monkeypatch.setattr(pipeline, "_dmat_kernel", lambda: None)
    outcomes.append(load_outcome(path))
    assert outcomes == [("ParseError", "line 2: expected 3000000000 values, got 3", 2)] * 2
    assert max(requested, default=0) < 1000


@pytest.mark.needs_cc
def test_unusable_dmat_kernel_falls_back_with_one_warning(unusable_kernel, tmp_path):
    files = [tmp_path / "a.dmat", tmp_path / "b.dmat"]
    mats = [np.array([[0.1, -2.5], [1e300, 7.0]]), np.arange(12.0).reshape(4, 3) / 3.0]
    for path, m in zip(files, mats):
        write_matrix(m, path)
    cause = unusable_kernel("dmat")
    with pytest.warns(RuntimeWarning) as record:
        loaded = [load_matrix(path) for path in files]
    assert len(record) == 1
    assert cause in str(record[0].message)
    assert record[0].filename == __file__
    assert pipeline._dmat_kernel() is None
    for got, m in zip(loaded, mats):
        assert got.tobytes() == m.tobytes()


def test_load_vector_accepts_row_or_column(tmp_path):
    row = tmp_path / "row.dmat"
    col = tmp_path / "col.dmat"
    write_matrix([[1.0, 2.0, 3.0]], row)
    write_matrix([[1.0], [2.0], [3.0]], col)
    assert_allclose(load_vector(row), [1.0, 2.0, 3.0], rtol=0, atol=0)
    assert_allclose(load_vector(col), [1.0, 2.0, 3.0], rtol=0, atol=0)
    square = tmp_path / "square.dmat"
    write_matrix(np.eye(2), square)
    with pytest.raises(ShapeMismatch):
        load_vector(square)


def write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_read_manifest_resolves_relative_paths(tmp_path):
    payload = {
        "depth": 4,
        "accuracy": 0.75,
        "layer_paths": ["layers/x0.dmat", "/abs/x1.dmat"],
        "arch_label": "gcn",
        "u_source": {"file": "u.dmat"},
    }
    manifest = read_manifest(write_manifest(tmp_path / "run.json", payload))
    assert manifest.depth == 4
    assert manifest.accuracy == 0.75
    assert manifest.layer_paths == (str(tmp_path / "layers/x0.dmat"), "/abs/x1.dmat")
    assert manifest.u_source == "file"
    assert manifest.u_path == str(tmp_path / "u.dmat")


def test_read_manifest_named_direction_sources(tmp_path):
    base = {"depth": 1, "accuracy": 0.5, "layer_paths": ["x.dmat"], "arch_label": "gat"}
    for source in ("gcn", "const"):
        manifest = read_manifest(
            write_manifest(tmp_path / f"{source}.json", {**base, "u_source": source})
        )
        assert manifest.u_source == source
        assert manifest.u_path is None


def test_read_manifest_rejects_bad_payloads(tmp_path):
    good = {
        "depth": 2, "accuracy": 0.5, "layer_paths": ["x.dmat"],
        "arch_label": "gcn", "u_source": "const",
    }
    bad_payloads = [
        {**good, "depth": 0},
        {**good, "depth": True},
        {**good, "depth": "2"},
        {**good, "accuracy": 1.5},
        {**good, "accuracy": "high"},
        {**good, "accuracy": True},
        {**good, "layer_paths": []},
        {**good, "layer_paths": "x.dmat"},
        {**good, "layer_paths": ["x.dmat", 3]},
        {**good, "arch_label": 7},
        {**good, "u_source": "random"},
        {**good, "u_source": {"path": "u.dmat"}},
    ]
    for k, payload in enumerate(bad_payloads):
        with pytest.raises(ParseError):
            read_manifest(write_manifest(tmp_path / f"bad{k}.json", payload))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ParseError):
        read_manifest(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ParseError):
        read_manifest(listy)


def test_pearson_pinned_values():
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]) == -1.0


def test_pearson_validation():
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameter):
        pearson([1.0, 2.0, float("inf")], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        pearson([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])


def build_projection_fixture(tmp_path, ts, accs):
    """Runs whose final-layer off-direction energy is exactly t^2.

    Features are u (x) (1,0) + t * w (x) (0,1) with w orthogonal to the
    constant unit direction, so e_proj = t^2 up to rounding.
    """
    g = barabasi_albert(3, 2, seed=0)
    u = constant_unit_vector(3)
    w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    manifests = []
    for k, (t, acc) in enumerate(zip(ts, accs)):
        x = np.outer(u, [1.0, 0.0]) + t * np.outer(w, [0.0, 1.0])
        layer = tmp_path / f"run{k}_final.dmat"
        write_matrix(x, layer)
        payload = {
            "depth": 2 * (k + 1),
            "accuracy": acc,
            "layer_paths": [f"run{k}_missing_earlier_layer.dmat", layer.name],
            "arch_label": "gcn",
            "u_source": "const",
        }
        manifests.append(read_manifest(write_manifest(tmp_path / f"run{k}.json", payload)))
    return g, manifests


def test_correlate_matches_hand_computed_pearson(tmp_path):
    ts = (0.5, 0.1, 0.02)
    accs = (0.9, 0.7, 0.2)
    g, manifests = build_projection_fixture(tmp_path, ts, accs)
    report = correlate(manifests, g)

    xs = [2.0 * math.log(t) for t in ts]
    mx = sum(xs) / 3.0
    my = sum(accs) / 3.0
    num = sum((x - mx) * (y - my) for x, y in zip(xs, accs))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in accs))
    assert abs(report.correlations["e_proj"] - num / den) <= 1e-12
    # The singular values are 1 and t, so num_rank - 1 is t^2 as well: rank
    # metrics are correlated after the shift by -1.
    assert abs(report.correlations["num_rank"] - num / den) <= 1e-12
    assert report.run_count == 3
    assert report.accuracy_ratio == 0.2 / 0.9
    assert set(report.correlations) == set(CANONICAL_METRICS)
    assert report.transform["log"] == "natural"


def test_correlate_only_reads_the_final_layer(tmp_path):
    # Earlier layer_paths entries point at files that do not exist; the
    # pipeline must not touch them.
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.9, 0.7, 0.2))
    report = correlate(manifests, g)
    assert report.correlations["e_proj"] is not None


def test_correlate_run_validation(tmp_path):
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.9, 0.7, 0.2))
    with pytest.raises(InsufficientRuns):
        correlate(manifests[:2], g)
    clash = [
        manifests[0],
        manifests[1],
        RunManifest(
            depth=manifests[0].depth, accuracy=0.5,
            layer_paths=("nowhere.dmat",), arch_label="gcn", u_source="const",
        ),
    ]
    with pytest.raises(InsufficientRuns):
        correlate(clash, g)


def test_correlate_rejects_wrong_row_count(tmp_path):
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.9, 0.7, 0.2))
    write_matrix(np.ones((2, 2)), manifests[0].layer_paths[-1])
    with pytest.raises(ShapeMismatch):
        correlate(manifests, g)


def test_correlate_rejects_zero_accuracy_baseline(tmp_path):
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.0, 0.7, 0.2))
    with pytest.raises(DegenerateInput):
        correlate(manifests, g)


def test_correlate_reports_undefined_metrics(tmp_path):
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.9, 0.7, 0.2))
    write_matrix(np.zeros((3, 2)), manifests[1].layer_paths[-1])
    # Features near 1e200 have an absolute energy beyond the float range.
    deep = manifests[2].layer_paths[-1]
    write_matrix(1e200 * load_matrix(deep), deep)
    report = correlate(manifests, g)
    assert report.correlations["e_dir_norm"] is None
    assert report.failures["e_dir_norm"] == "undefined at depth 4"
    assert report.correlations["mad"] is None
    assert report.correlations["e_proj"] is None
    assert report.failures["e_proj"] == "infinite at depth 6"


def test_correlate_resolves_each_direction_source_once(tmp_path, monkeypatch):
    g = barabasi_albert(40, 2, seed=3)
    u = gcn_dominant_eigenvector(g)
    w = np.arange(40.0) - 20.0
    w -= u * (u @ w)
    write_matrix(u[:, None], tmp_path / "u.dmat")
    runs = []
    for k in range(8):
        x = np.outer(u, [1.0, 0.5]) + 0.5**k * np.outer(w, [0.25, -1.0])
        write_matrix(x, tmp_path / f"x{k}.dmat")
        runs.append({"depth": k + 1, "accuracy": 0.9 - 0.1 * k, "layer_paths": [f"x{k}.dmat"],
                     "arch_label": "gcn"})

    def manifests(source):
        return [read_manifest(write_manifest(tmp_path / f"run{k}.json",
                                             {**run, "u_source": source(k)}))
                for k, run in enumerate(runs)]

    def counted(monkeypatch, name):
        calls = []
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def correlations_csv(out, ms):
        (path,) = write_report(tmp_path / out, correlation=correlate(ms, g))
        return open(path, "rb").read()

    # Every run is handed the vector each used to resolve for itself.
    gcn_calls = counted(monkeypatch, "gcn_dominant_eigenvector")
    suite_calls = counted(monkeypatch, "metric_suite")
    correlations_csv("gcn", manifests(lambda k: "gcn"))
    assert len(gcn_calls) == 1
    assert [args[2].tobytes() for args in suite_calls] == [u.tobytes()] * 8
    # Eight spellings of one file are eight sources: the same file bytes out.
    loads = counted(monkeypatch, "load_vector")
    shared = correlations_csv("shared", manifests(lambda k: {"file": "u.dmat"}))
    assert len(loads) == 1
    distinct = correlations_csv("distinct", manifests(lambda k: {"file": "./" * k + "u.dmat"}))
    assert len(loads) == 1 + 8
    assert shared == distinct


def test_write_report_trace_columns(tmp_path):
    assert TRACE_COLUMNS == (
        "layer", "e_dir", "e_dir_norm", "e_proj", "e_proj_norm",
        "mad", "erank", "num_rank", "frob_norm",
    )
    config = SynthConfig(depth=19, width=4, seeds=1, rows=("gcn_lrelu_identity",))
    grid = synth_table(config)
    paths = write_report(tmp_path / "out", grid=grid, traces=grid.traces)
    names = [p.split("/")[-1] for p in paths]
    assert names == ["table3_grid.csv", "trace_gcn_lrelu_identity_0.csv"]
    trace_lines = (tmp_path / "out" / "trace_gcn_lrelu_identity_0.csv").read_text().split("\n")
    assert trace_lines[0] == ",".join(TRACE_COLUMNS)
    assert len(trace_lines) == 1 + 20 + 1
    assert trace_lines[1].split(",")[0] == "0"
    grid_lines = (tmp_path / "out" / "table3_grid.csv").read_text().split("\n")
    assert grid_lines[0] == "row,metric,verdict"
    assert len(grid_lines) == 1 + len(CANONICAL_METRICS) + 1
    assert grid_lines[1].startswith("gcn_lrelu_identity,e_dir,")
    assert grid_lines[1].split(",")[2] in ("yes", "no")


def test_write_report_correlations_file(tmp_path):
    ts = (0.5, 0.1, 0.02)
    accs = (0.9, 0.7, 0.2)
    g, manifests = build_projection_fixture(tmp_path, ts, accs)
    report = correlate(manifests, g)
    paths = write_report(tmp_path / "out", correlation=report)
    lines = (tmp_path / "out" / "correlations.csv").read_text().split("\n")
    assert lines[0] == "metric,r"
    assert len(lines) == 1 + len(CANONICAL_METRICS) + 1
    parsed = dict(line.split(",") for line in lines[1 : 1 + len(CANONICAL_METRICS)])
    assert set(parsed) == set(CANONICAL_METRICS)
    assert float(parsed["e_proj"]) == report.correlations["e_proj"]


def test_write_report_is_byte_identical_across_reruns(tmp_path):
    g, manifests = build_projection_fixture(tmp_path, (0.5, 0.1, 0.02), (0.9, 0.7, 0.2))
    report = correlate(manifests, g)
    write_report(tmp_path / "a", correlation=report)
    write_report(tmp_path / "b", correlation=correlate(manifests, g))
    a = (tmp_path / "a" / "correlations.csv").read_bytes()
    b = (tmp_path / "b" / "correlations.csv").read_bytes()
    assert a == b
