"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_commands_parse(self):
        p = build_parser()
        assert p.parse_args(["figures"]).command == "figures"
        assert p.parse_args(["catalog"]).command == "catalog"
        args = p.parse_args(["certify", "plus_times", "--seed", "3"])
        assert args.pair == "plus_times" and args.seed == 3
        args = p.parse_args(["music", "--pair", "max_min", "--weighted"])
        assert args.weighted is True
        assert p.parse_args(["render", "fig3"]).figure == "fig3"

    @pytest.mark.parametrize("verb", ["bench", "loadgen"])
    def test_retired_verbs_exit_two(self, verb, capsys):
        # Benchmarks run through adjbench/run.py, not a CLI verb.
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCatalog:
    def test_catalog_lists_pairs(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "plus_times" in out
        assert "UNSAFE" in out and "SAFE" in out


class TestCertify:
    def test_safe_pair_exit_zero(self, capsys):
        assert main(["certify", "plus_times"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_unsafe_pair_exit_one_with_witness(self, capsys):
        assert main(["certify", "gf2_xor_and"]) == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "witness graph edges" in out
        assert "Eout" in out

    def test_unknown_pair_exit_two(self, capsys):
        assert main(["certify", "no_such_pair"]) == 2
        assert "unknown op-pair" in capsys.readouterr().err


class TestMusic:
    def test_fig3_values(self, capsys):
        assert main(["music", "--pair", "plus_times"]) == 0
        out = capsys.readouterr().out
        assert "Genre|Electronic" in out
        assert "13" in out  # the Pop row value

    def test_fig5_weighted(self, capsys):
        assert main(["music", "--pair", "plus_times", "--weighted"]) == 0
        out = capsys.readouterr().out
        assert "26" in out  # Pop row ×2

    def test_nonzero_zero_pair(self, capsys):
        assert main(["music", "--pair", "min_plus"]) == 0
        assert "2" in capsys.readouterr().out

    def test_unknown_pair(self, capsys):
        assert main(["music", "--pair", "bogus"]) == 2


class TestRender:
    @pytest.mark.parametrize("figure", ["fig2", "fig4", "structured"])
    def test_render_figures(self, capsys, figure):
        assert main(["render", figure]) == 0
        assert len(capsys.readouterr().out) > 50


class TestFigures:
    def test_full_run_exit_zero(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "ALL MATCHED" in out


class TestServeParser:
    def test_serve_args(self):
        p = build_parser()
        args = p.parse_args(["serve", "--source", "adj.tsv",
                             "--port", "0", "--cache-size", "64"])
        assert args.command == "serve"
        assert args.source == "adj.tsv" and args.port == 0
        assert args.cache_size == 64 and args.unsafe_ok is False

    def test_query_args(self):
        p = build_parser()
        args = p.parse_args(["query", "khop", "alice", "-k", "2",
                             "--query-pair", "min_plus"])
        assert args.command == "query"
        assert args.kind == "khop" and args.vertex == "alice"
        assert args.k == 2 and args.query_pair == "min_plus"

    def test_query_kinds_constrained(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "pagerank"])


class TestServeCommand:
    def test_missing_source_exit_two(self, capsys):
        assert main(["serve", "--source", "/no/such/file.tsv"]) == 2
        assert "no such source" in capsys.readouterr().err

    def test_unsafe_pair_refused_exit_one(self, tmp_path, capsys):
        p = tmp_path / "adj.tsv"
        p.write_text("a\tb\t1\n", encoding="utf-8")
        assert main(["serve", "--source", str(p),
                     "--pair", "int_plus_times"]) == 1
        assert "refused" in capsys.readouterr().err

    def test_unknown_pair_exit_one(self, tmp_path, capsys):
        p = tmp_path / "adj.tsv"
        p.write_text("a\tb\t1\n", encoding="utf-8")
        assert main(["serve", "--source", str(p),
                     "--pair", "bogus"]) == 1
        assert "unknown op-pair" in capsys.readouterr().err


class TestLoadService:
    def test_tsv_source(self, tmp_path):
        from repro.cli import load_service
        p = tmp_path / "adj.tsv"
        p.write_text("a\tb\t2.5\n", encoding="utf-8")
        svc = load_service(str(p), "plus_times")
        assert svc.neighbors("a") == {"b": 2.5}

    def test_manifest_source_uses_recorded_pair(self, tmp_path):
        from repro.cli import load_service
        from repro.shard import ShardedAdjacencyPlan
        from repro.values.semiring import get_op_pair
        wd = tmp_path / "shards"
        plan = ShardedAdjacencyPlan(get_op_pair("max_min"), n_shards=2,
                                    workdir=wd, keep_workdir=True)
        plan.partition([("e1", "a", "b", 5.0, 9.0),
                        ("e2", "a", "b", 2.0, 3.0)])
        # --pair not passed → manifest's max_min wins.
        svc = load_service(str(wd))
        assert svc.op_pair.name == "max_min"
        assert svc.neighbors("a") == {"b": 5.0}
        # An explicit --pair overrides the manifest.
        svc = load_service(str(wd), "plus_times")
        assert svc.op_pair.name == "plus_times"


class TestExplain:
    @staticmethod
    def _incidence_pair(tmp_path):
        from repro.arrays.io import write_tsv_triples
        from repro.graphs.generators import rmat_multigraph
        from repro.graphs.incidence import incidence_arrays
        graph = rmat_multigraph(6, 80, seed=4)
        eout, ein = incidence_arrays(graph)
        po, pi = tmp_path / "eout.tsv", tmp_path / "ein.tsv"
        write_tsv_triples(eout, po)
        write_tsv_triples(ein, pi)
        return str(po), str(pi)

    def test_explain_names_rewrites_and_licenses(self, tmp_path, capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi]) == 0
        out = capsys.readouterr().out
        assert "fuse_incidence_adjacency" in out
        assert "licensed by:" in out
        assert "zero-sum-free" in out
        assert "incidence_to_adjacency[+.×]" in out

    def test_explain_khop_shares_subtree_and_executes(self, tmp_path,
                                                      capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi, "--khop", "3", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "(shared node" in out      # CSE across the hop chain
        assert "executed in" in out

    def test_explain_execute_leaves_home_untouched(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        import repro
        po, pi = tmp_path / "eout.tsv", tmp_path / "ein.tsv"
        po.write_text("e1\talice\t2\ne2\talice\t3\ne3\tbob\t5\n")
        pi.write_text("e1\tbob\t1\ne2\tbob\t1\ne3\tcarol\t1\n")
        home = tmp_path / "home"
        home.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(HOME=str(home), PYTHONPATH=str(
            Path(repro.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "explain", str(po), str(pi),
             "--pair", "min_plus", "--execute"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "[min_plus] kernel=generic" in proc.stdout
        assert "(dict backend)" in proc.stdout      # generic ran
        # ... so the plan names and sizes a dict-backed result.
        assert proc.stdout.splitlines()[0].endswith("~3 entries (dict)")
        assert "kernel=generic  ~480 B" in proc.stdout   # 3 × 160 B
        assert not any(home.iterdir())

    def test_explain_reduce_fusion(self, tmp_path, capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi, "--reduce", "rows"]) == 0
        assert "reduce_into_matmul" in capsys.readouterr().out

    def test_explain_budget_routes_to_shard(self, tmp_path, capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi, "--budget", "1"]) == 0
        assert "shard executor" in capsys.readouterr().out

    def test_explain_no_optimize_keeps_shape(self, tmp_path, capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi, "--no-optimize"]) == 0
        out = capsys.readouterr().out
        assert "applied rewrites: none" in out
        assert "transpose" in out

    def test_explain_unknown_pair_exit_two(self, tmp_path, capsys):
        po, pi = self._incidence_pair(tmp_path)
        assert main(["explain", po, pi, "--pair", "bogus"]) == 2
        assert "unknown op-pair" in capsys.readouterr().err

    def test_explain_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.tsv"),
                     str(tmp_path / "nada.tsv")]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestTraceCLI:
    def _adjacency_tsv(self, tmp_path):
        path = tmp_path / "adj.tsv"
        path.write_text("a\tb\t1.0\nb\tc\t1.0\nc\td\t1.0\na\tc\t1.0\n",
                        encoding="utf-8")
        return str(path)

    def test_trace_prints_span_tree(self, tmp_path, capsys):
        src = self._adjacency_tsv(tmp_path)
        assert main(["trace", "--source", src, "--vertex", "a",
                     "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "khop(vertex='a', k=3)" in out
        assert "trace t" in out
        assert "service.query" in out
        assert "expr.plan" in out and "expr.execute" in out
        assert "kernel" in out

    def test_trace_default_vertex_and_json(self, tmp_path, capsys):
        import json as _json
        src = self._adjacency_tsv(tmp_path)
        assert main(["trace", "--source", src, "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["name"] == "service.query"
        assert doc["attrs"]["kind"] == "khop"
        assert doc["children"]

    def test_trace_missing_source_exit_two(self, tmp_path, capsys):
        assert main(["trace", "--source",
                     str(tmp_path / "nope.tsv")]) == 2
        assert "no such source" in capsys.readouterr().err

    def test_trace_unsafe_pair_refused(self, tmp_path, capsys):
        src = self._adjacency_tsv(tmp_path)
        assert main(["trace", "--source", src,
                     "--pair", "gf2_xor_and"]) == 1
        err = capsys.readouterr().err
        assert "refused" in err and "--unsafe-ok" in err


class TestProfileCLI:
    @pytest.fixture(autouse=True)
    def _no_leftover_session(self):
        from repro.obs.profile import ProfileError, stop_profile
        yield
        try:
            stop_profile()
        except ProfileError:
            pass

    @pytest.fixture()
    def tsv(self, tmp_path):
        p = tmp_path / "adj.tsv"
        p.write_text("".join(f"v{i}\tv{(i * 3 + 1) % 60}\t1.0\n"
                             for i in range(60)), encoding="utf-8")
        return p

    def test_profile_args_parse(self):
        parser = build_parser()
        args = parser.parse_args(["profile", "start", "--hz", "50",
                                  "--memory"])
        assert args.profile_command == "start"
        assert args.hz == 50.0 and args.memory is True
        args = parser.parse_args(["profile", "dump", "--source", "x.tsv",
                                  "--seconds", "0.5", "-k", "2"])
        assert args.seconds == 0.5 and args.k == 2
        args = parser.parse_args(["profile", "diff", "a.json", "b.json",
                                  "--top", "5"])
        assert args.baseline == "a.json" and args.top == 5

    def test_dump_local_workload(self, tsv, tmp_path, capsys):
        collapsed = tmp_path / "prof.collapsed"
        flame = tmp_path / "prof.html"
        assert main(["profile", "dump", "--source", str(tsv),
                     "--seconds", "0.5", "-k", "3",
                     "-o", str(collapsed), "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "khop(k=3)" in out and "uncached" in out
        assert "sampler overhead" in out
        assert "hottest functions" in out
        text = collapsed.read_text()
        assert text.strip(), "collapsed dump is empty"
        # Every line parses back; the dump round-trips into diff input.
        from repro.obs.profile import parse_collapsed
        assert parse_collapsed(text)
        assert "<!doctype html" in flame.read_text().lower()

    def test_dump_local_json(self, tsv, capsys):
        import json as _json
        assert main(["profile", "dump", "--source", str(tsv),
                     "--seconds", "0.4", "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["samples"] >= 0
        assert "overhead_ratio" in doc and "top_functions" in doc

    def test_dump_needs_exactly_one_target(self, tsv, capsys):
        assert main(["profile", "dump"]) == 2
        assert "one of --url or --source" in capsys.readouterr().err
        assert main(["profile", "dump", "--source", str(tsv),
                     "--url", "http://127.0.0.1:1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dump_missing_source_exit_two(self, tmp_path, capsys):
        assert main(["profile", "dump", "--source",
                     str(tmp_path / "nope.tsv")]) == 2

    def test_diff_collapsed_files(self, tmp_path, capsys):
        base = tmp_path / "base.collapsed"
        cand = tmp_path / "cand.collapsed"
        base.write_text("main;hot 50\nmain;warm 50\n")
        cand.write_text("main;hot 90\nmain;warm 10\n")
        assert main(["profile", "diff", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "most regressed first" in out
        assert "+40.00" in out and "hot" in out

    def test_diff_unreadable_exit_two(self, tmp_path, capsys):
        ok = tmp_path / "ok.collapsed"
        ok.write_text("main 1\n")
        assert main(["profile", "diff", str(ok),
                     str(tmp_path / "missing.json")]) == 2

    def test_start_unreachable_server_exit_one(self, capsys):
        assert main(["profile", "start",
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_trace_list_unreachable_exit_one(self, capsys):
        assert main(["trace", "--list",
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err
