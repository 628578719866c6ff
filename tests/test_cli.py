"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.json"
    assert main(["generate", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_writes_file(self, corpus_file, capsys):
        with open(corpus_file, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        assert set(dump) >= {"station", "sensor"}

    def test_stdout_mode(self, capsys):
        assert main(["generate", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "station" in payload


class TestLoad:
    def test_stats_report(self, corpus_file, capsys):
        assert main(["load", "--corpus", corpus_file]) == 0
        out = capsys.readouterr().out
        assert "pages: 338" in out
        assert "property coverage" in out
        assert "top project" in out

    def test_missing_file(self, capsys):
        assert main(["load", "--corpus", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_real_too_large_for_a_float_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"sensor": [{"title": "Sensor:BIG", "accuracy": 1' + "0" * 400 + "}]}")
        assert main(["load", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 1:") and "too large for a float" in err


class TestSearch:
    def test_results_table(self, corpus_file, capsys):
        code = main(
            ["search", "keyword=wind kind=sensor limit=3", "--corpus", corpus_file]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "candidates" in out and "Sensor:" in out

    def test_recommendations(self, corpus_file, capsys):
        main(
            [
                "search",
                "keyword=wind kind=sensor limit=3",
                "--corpus",
                corpus_file,
                "--recommend",
                "2",
            ]
        )
        assert "recommended:" in capsys.readouterr().out

    def test_no_results_exit_code(self, corpus_file, capsys):
        assert main(["search", "keyword=qqqqqq", "--corpus", corpus_file]) == 1
        assert "no results" in capsys.readouterr().out

    def test_bad_query_is_error(self, corpus_file, capsys):
        assert main(["search", "limit=abc kind=x", "--corpus", corpus_file]) == 2
        assert "error" in capsys.readouterr().err


class TestPagerankAndSolvers:
    def test_pagerank_top(self, corpus_file, capsys):
        assert main(["pagerank", "--corpus", corpus_file, "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        scores = [float(line.split()[0]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_solvers_table(self, capsys):
        assert main(["solvers", "--sizes", "200", "--tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "gauss_seidel" in out and "n=200" in out

    def test_unknown_method_is_error(self, corpus_file, capsys):
        assert main(["pagerank", "--corpus", corpus_file, "--method", "magic"]) == 2


class TestTags:
    def test_synthetic_cloud(self, capsys):
        assert main(["tags", "--seed", "3", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "maximal cliques" in out
        assert out.count("size=") == 5

    def test_cloud_from_smr(self, corpus_file, capsys):
        assert main(["tags", "--corpus", corpus_file, "--top", "5"]) == 0
        assert "size=" in capsys.readouterr().out
