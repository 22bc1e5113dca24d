"""CLI reports: fixture comparison, determinism, formats, and exit codes."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hilbertkunz
from hilbertkunz.cli import main, run_problem, to_csv, to_json
from hilbertkunz.errors import ResourceLimit

from conftest import CORPUS, load_problem

# one (stem, subcommand) run per fixture <stem>.<subcommand>.json
RUNS = [
    tuple(path.name.removesuffix(".json").split(".", 1))
    for path in sorted(CORPUS.glob("*.*.json"))
]

REPORT_KEYS = ["input", "samples", "analysis", "timing", "warnings", "error"]


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing")
    return out


@pytest.mark.parametrize("stem,subcommand", RUNS)
def test_corpus_fixtures_byte_for_byte(stem, subcommand, corpus_report):
    """Reports must be byte-identical to the stored fixtures once the
    timing block is removed."""
    report = strip_timing(corpus_report(stem, subcommand))
    got = json.dumps(report, indent=2) + "\n"
    expected = (CORPUS / f"{stem}.{subcommand}.json").read_text()
    assert got == expected


def test_regen_script_names_every_fixture():
    """scripts/regen_fixtures.py rewrites, and scripts/engine_digest.py
    hashes, only the runs in its RUNS list: it must name each fixture
    once and nothing else."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "regen_fixtures.py"
    spec = importlib.util.spec_from_file_location("regen_fixtures", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    assert sorted(regen.RUNS) == sorted(RUNS)
    assert regen.CORPUS.resolve() == CORPUS.resolve()


def test_report_key_order():
    report = run_problem("compute", load_problem("regular"))
    assert list(report.keys()) == REPORT_KEYS
    assert report["error"] is None
    assert list(report["timing"].keys()) == ["per_n", "total_seconds"]


def test_reports_are_deterministic():
    pf = load_problem("monsky_p2")
    first = strip_timing(run_problem("fit", pf))
    second = strip_timing(run_problem("fit", pf))
    assert to_json(first) == to_json(second)


def test_lex_and_grevlex_agree_on_lengths():
    pf = load_problem("regular")
    grev = run_problem("compute", pf, order="grevlex")
    lex = run_problem("compute", pf, order="lex")
    assert grev["samples"] == lex["samples"]
    assert grev["input"]["order"] == "grevlex"
    assert lex["input"]["order"] == "lex"


def test_problem_echo_is_faithful():
    report = run_problem("compute", load_problem("omega"))
    assert report["input"]["problem"] == {
        "p": 2,
        "vars": ["u", "v", "w", "x", "y", "z"],
        "ring": ["v*z + w*y", "w*x + u*z", "u*y + v*x"],
        "ideal": ["u", "v", "w", "x", "y", "z"],
        "module": [["u"], ["x"]],
        "module_rank": None,
        "rank": 1,
        "dim": 4,
        "n": [1, 3],
        "sequence": None,
    }
    assert report["input"]["engine"].startswith("hilbertkunz ")


def test_time_budget_truncates_or_errors():
    """A microscopic per-sample budget either truncates the series with a
    warning or kills every sample; both must be reported honestly."""
    pf = load_problem("determinantal")
    report = run_problem("compute", pf, n_max_seconds=1e-6)
    if report["error"] is None:
        assert len(report["samples"]) < 5
        assert any("skipped" in w for w in report["warnings"])
    else:
        assert report["error"]["type"] == "ResourceLimit"
    assert list(report.keys()) == REPORT_KEYS


def test_a_first_sample_failure_reports_its_cause(monkeypatch):
    """When not even n_min completes, the error keeps the limit that
    stopped it, here a basis cap with no time budget at all."""
    import hilbertkunz.groebner as groebner

    monkeypatch.setattr(groebner, "MAX_BASIS", 10)
    # from n = 1 on: the corpus's n = 0 sample fits in ten basis elements
    pf = replace(load_problem("determinantal"), n_min=1)
    report = run_problem("compute", pf)
    assert report["error"] == {
        "type": "ResourceLimit",
        "message": "no samples completed; "
        "sample n=1 skipped: basis size cap exceeded",
    }
    assert report["samples"] == [] and report["warnings"] == []


@pytest.mark.parametrize("stem,subcommand,error", [
    ("omega", "tau", "InsufficientSamples"),
    ("additive_error", "additive-error", None),
])
def test_one_limit_stops_every_series(stem, subcommand, error, monkeypatch):
    """The second module sampled at n=2 runs out: every series stops
    there, the report keeps n=1 only, and nothing is sampled at n=3.
    One sample is too few for tau's analysis; the report still says why
    sampling stopped."""
    import hilbertkunz.analysis as analysis

    engine = analysis.length_mod_frobenius
    calls = []

    def flaky_length(module, ideal, n, **kw):
        calls.append(n)
        if calls.count(2) == 2:
            raise ResourceLimit("time budget exceeded")
        return engine(module, ideal, n, **kw)

    monkeypatch.setattr(analysis, "length_mod_frobenius", flaky_length)
    report = run_problem(subcommand, load_problem(stem))
    assert [s["n"] for s in report["samples"]] == [1]
    assert [w for w in report["warnings"] if "sample n=2 skipped" in w] == [
        "sample n=2 skipped: time budget exceeded"
    ]
    assert max(calls) == 2
    assert (report["error"] or {}).get("type") == error


def test_quintic_fits_a_half_second_budget():
    """With the Frobenius tower, q = 7^8 on x^5 - y^5 is a handful of small
    reductions, so every sample fits a 0.5 s budget."""
    report = run_problem("compute", load_problem("monsky_p7"), n_max_seconds=0.5)
    assert report["error"] is None
    assert [s["n"] for s in report["samples"]] == list(range(1, 9))
    assert report["warnings"] == []


# -- subcommand requirements --------------------------------------------------


def test_tau_requires_module_and_rank():
    report = run_problem("tau", load_problem("regular"))
    assert report["error"]["type"] == "SemanticError"
    assert "module" in report["error"]["message"]
    assert report["samples"] == []


def test_additive_error_requires_sequence():
    report = run_problem("additive-error", load_problem("regular"))
    assert report["error"]["type"] == "SemanticError"
    assert "sequence" in report["error"]["message"]


def test_unknown_subcommand_is_reported():
    report = run_problem("solve", load_problem("regular"))
    assert report["error"]["type"] == "SemanticError"


# -- output formats ------------------------------------------------------------


def parse_csv(text: str):
    return list(csv.reader(io.StringIO(text)))


def test_csv_shape_for_fit(corpus_report):
    rows = parse_csv(to_csv(corpus_report("monsky_p2", "fit")))
    assert rows[0] == ["n", "q", "length", "alpha_n", "beta_n", "delta_n", "tau_n"]
    assert len(rows) == 9
    assert rows[1][:3] == ["1", "2", "4"]
    assert rows[8][:3] == ["8", "256", "1276"]
    assert rows[1][3] == "2"  # alpha_1 = 4/2
    assert all(r[5] == "" and r[6] == "" for r in rows[1:])  # no delta/tau in fit


def test_csv_shape_for_tau(corpus_report):
    rows = parse_csv(to_csv(corpus_report("omega", "tau")))
    assert [r[5] for r in rows[1:]] == ["5", "34", "260"]
    assert [r[6] for r in rows[1:]] == ["5/8", "17/32", "65/128"]


def test_csv_for_compute_leaves_analysis_columns_empty():
    report = run_problem("compute", load_problem("regular"))
    rows = parse_csv(to_csv(report))
    assert len(rows) == 5
    assert all(r[3:] == ["", "", "", ""] for r in rows[1:])


# -- the executable entry point -------------------------------------------------


def write_problem(tmp_path, text: str):
    path = tmp_path / "problem.hk"
    path.write_text(text)
    return str(path)


TINY = "p = 2\nvars = x y\nideal = x, y\nn = 1..2\n"


def test_main_json_success(tmp_path, capsys):
    path = write_problem(tmp_path, TINY)
    code = main(["compute", path])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert list(report.keys()) == REPORT_KEYS
    assert [s["length"] for s in report["samples"]] == ["4", "16"]
    assert report["error"] is None


def test_main_csv_success(tmp_path, capsys):
    path = write_problem(tmp_path, TINY)
    code = main(["compute", path, "--format", "csv"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == 0
    assert rows[1][:3] == ["1", "2", "4"]
    assert rows[2][:3] == ["2", "4", "16"]
    assert captured.err == ""


def test_main_exit_code_on_semantic_error(tmp_path, capsys):
    path = write_problem(tmp_path, TINY)
    code = main(["tau", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "SemanticError"


def test_main_csv_error_goes_to_stderr(tmp_path, capsys):
    path = write_problem(tmp_path, TINY)
    code = main(["tau", path, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    rows = parse_csv(captured.out)
    assert rows == [["n", "q", "length", "alpha_n", "beta_n", "delta_n", "tau_n"]]
    assert json.loads(captured.err)["error"]["type"] == "SemanticError"


def test_main_missing_file(capsys):
    code = main(["compute", "/no/such/file.hk"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "IOError"
    assert report["input"]["problem"] == {"path": "/no/such/file.hk"}


def test_main_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, "p = 4\nvars = x\nideal = x\nn = 1..1\n")
    code = main(["compute", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    assert "not prime" in report["error"]["message"]


def test_main_oracle_check_agrees(tmp_path, capsys):
    path = write_problem(tmp_path, "p = 5\nvars = x y\nideal = x^2, y^3\nn = 0..0\n")
    code = main(["oracle-check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    analysis = report["analysis"]
    assert analysis["engine_length"] == "6"
    assert analysis["oracle_count"] == "6"
    assert analysis["stable"] is True
    assert analysis["agree"] is True


def test_oracle_check_skips_the_q_1_sample(tmp_path, capsys):
    """At n = 0 the length is l(M/IM), which checks nothing, so a range
    from n = 0 cross-checks n = 1: (x^4, y^6) over F_2 has length 24."""
    path = write_problem(tmp_path, "p = 2\nvars = x y\nideal = x^2, y^3\nn = 0..1\n")
    code = main(["oracle-check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    analysis = report["analysis"]
    assert (analysis["n"], analysis["q"]) == (1, "2")
    assert analysis["engine_length"] == "24"
    assert analysis["agree"] is True


def test_main_oracle_check_budget_stops_the_oracle_walk(tmp_path, capsys):
    """The engine finishes (two monomials leave no S-pairs to time), so the
    only thing the budget can stop is the oracle's degree walk."""
    path = write_problem(tmp_path, "p = 5\nvars = x y\nideal = x^2, y^3\nn = 0..0\n")
    code = main(["oracle-check", path, "--n-max-seconds", "1e-9"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["samples"][0]["length"] == "6"
    assert report["warnings"] == [
        "oracle stopped at degree 3: time budget exceeded"
    ]
    analysis = report["analysis"]
    assert analysis["oracle_count"] is None
    assert analysis["stable"] is False
    assert analysis["agree"] is None


def test_main_oracle_check_on_quotient_ring(tmp_path, capsys):
    text = "p = 2\nvars = x y\nring = x^5 + y^5\nideal = x^2, y^2\nn = 0..0\n"
    path = write_problem(tmp_path, text)
    code = main(["oracle-check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["analysis"]["engine_length"] == "4"
    assert report["analysis"]["agree"] is True


def test_cli_import_pulls_in_no_numpy():
    """The package has no runtime dependencies; numpy in particular."""
    src = str(Path(hilbertkunz.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = "import sys, hilbertkunz.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
