"""The command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(
        "main:\n"
        "    li a0, 20\n"
        "    li a1, 22\n"
        "    fadd.h a0, a0, a1\n"
        "    add a0, a0, a1\n"
        "    ret\n"
    )
    return str(path)


class TestAsm:
    def test_lists_words_and_symbols(self, asm_file, capsys):
        assert main(["asm", asm_file]) == 0
        out = capsys.readouterr().out
        assert "fadd.h" in out
        assert "# main = 0x0" in out


class TestDis:
    def test_disassembles_hex_words(self, capsys):
        assert main(["dis", "0x00500093"]) == 0
        assert "addi ra, zero, 5" in capsys.readouterr().out

    def test_unknown_word_renders_as_data(self, capsys):
        main(["dis", "0xffffffff"])
        assert ".word" in capsys.readouterr().out


class TestRun:
    def test_runs_program(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        out = capsys.readouterr().out
        assert "exit: halt" in out
        assert "a0" in out

    def test_initial_registers(self, tmp_path, capsys):
        path = tmp_path / "add.s"
        path.write_text("main: add a0, a0, a1\nret\n")
        main(["run", str(path), "--reg", "a0=30", "--reg", "a1=12"])
        assert "(42)" in capsys.readouterr().out

    def test_breakdown_flag(self, asm_file, capsys):
        main(["run", asm_file, "--breakdown"])
        out = capsys.readouterr().out
        assert "fp16" in out


class TestKernel:
    def test_runs_benchmark_kernel(self, capsys):
        assert main(["kernel", "gemm", "--ftype", "float16",
                     "--mode", "auto"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "SQNR" in out

    def test_unknown_kernel(self, capsys):
        assert main(["kernel", "nonesuch"]) == 1

    def test_asm_flag_prints_assembly(self, capsys):
        main(["kernel", "gemm", "--mode", "manual", "--asm"])
        assert "vf" in capsys.readouterr().out


class TestLint:
    @pytest.fixture()
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.s"
        path.write_text(
            "kernel:\n"
            "    fadd.h t1, t2, t3\n"
            "    fcvt.b.h t4, t1\n"
            "    fadd.h t5, t4, t1\n"
            "    sw t5, 0(a0)\n"
            "    ret\n"
        )
        return str(path)

    def test_file_with_errors_exits_nonzero(self, broken_file, capsys):
        assert main(["lint", broken_file]) == 1
        out = capsys.readouterr().out
        assert "use-before-def" in out
        assert "format-mismatch" in out
        assert "line 2" in out and "line 4" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.s"
        path.write_text("kernel:\n    add a0, a0, a1\n    ret\n")
        assert main(["lint", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_fail_on_warning_tightens_exit(self, tmp_path):
        path = tmp_path / "warn.s"
        path.write_text("kernel:\n    li t0, 7\n    ret\n")  # dead write
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1

    def test_json_output(self, broken_file, capsys):
        import json

        main(["lint", broken_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["use-before-def"] >= 1
        assert any(f["check"] == "format-mismatch"
                   for f in payload["findings"])
        assert "elapsed_ms" in payload

    def test_min_severity_hides_notes(self, tmp_path, capsys):
        path = tmp_path / "dead.s"
        path.write_text("kernel:\n    ret\n    addi t0, t0, 1\n    ret\n")
        main(["lint", str(path), "--min-severity", "warning"])
        assert "unreachable-code" not in capsys.readouterr().out

    def test_disable_check(self, broken_file, capsys):
        main(["lint", broken_file, "--disable", "use-before-def"])
        assert "use-before-def" not in capsys.readouterr().out

    def test_kernel_mode_names_expanding_op(self, capsys):
        assert main(["lint", "--kernel", "atax", "--ftype", "float8",
                     "--mode", "auto"]) == 0
        assert "vfdotpex.s.b" in capsys.readouterr().out

    def test_kernel_mode_validate(self, capsys):
        main(["lint", "--kernel", "atax", "--ftype", "float8",
              "--mode", "auto", "--validate"])
        out = capsys.readouterr().out
        assert "[confirmed]" in out
        assert "executed" in out

    def test_unknown_kernel(self, capsys):
        assert main(["lint", "--kernel", "nonesuch"]) == 2

    def test_no_input_given(self, capsys):
        assert main(["lint"]) == 2


class TestProfile:
    def test_text_report_with_vector_alias(self, capsys):
        assert main(["profile", "gemm", "--ftype", "float16",
                     "--mode", "vector"]) == 0
        out = capsys.readouterr().out
        assert "hot loops" in out and "hot blocks" in out
        assert "mode=auto" in out  # 'vector' aliases the auto build

    def test_json_payload_validates(self, capsys):
        import json

        from repro.profile import PROFILE_SCHEMA_VERSION, validate_payload

        assert main(["profile", "gemm", "--ftype", "float16",
                     "--mode", "vector", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_payload(payload)
        assert payload["schema"]["version"] == PROFILE_SCHEMA_VERSION
        assert payload["context"]["kernel"] == "gemm"

    def test_chrome_trace_export(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "gemm.trace.json"
        assert main(["profile", "gemm", "--trace", str(trace_file)]) == 0
        trace = json.loads(trace_file.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_annotated_disassembly(self, capsys):
        assert main(["profile", "atax", "--mode", "scalar",
                     "--annotate", "--latency", "10"]) == 0
        out = capsys.readouterr().out
        assert "instruction" in out
        assert "mem" in out  # mem stalls appear in the margin at L2

    def test_unknown_kernel(self, capsys):
        assert main(["profile", "nonesuch"]) == 1

    def test_no_timeline_flag_is_gone(self, capsys):
        # A timeline is only recorded with --trace, so there is nothing
        # to switch off.
        with pytest.raises(SystemExit) as info:
            main(["profile", "gemm", "--no-timeline"])
        assert info.value.code == 2

    def test_kernel_profile_flag(self, capsys):
        assert main(["kernel", "gemm", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "SQNR" in out and "hot loops" in out


class TestExperiments:
    def test_table2(self, capsys):
        assert main(["experiments", "table2"]) == 0
        assert "FLEN=32" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["experiments", "fig5"]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_profile_dir_writes_payloads(self, tmp_path, capsys):
        import json

        from repro.profile import validate_payload

        out_dir = tmp_path / "profiles"
        assert main(["experiments", "--profile-dir", str(out_dir)]) == 0
        assert "wrote" in capsys.readouterr().out
        index = json.loads((out_dir / "index.json").read_text())
        assert index
        written = [row for row in index if row["file"]]
        assert written
        payload = json.loads((out_dir / written[0]["file"]).read_text())
        validate_payload(payload)


class TestServe:
    def test_parser_accepts_serving_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "3", "--max-queue", "7",
             "--deadline-ms", "250", "--cache-dir", "/tmp/x"])
        assert args.port == 0 and args.jobs == 3
        assert args.max_queue == 7 and args.deadline_ms == 250
        assert args.cache_dir == "/tmp/x"
        # Full boot/drain behaviour is covered by
        # tests/serve/test_server.py and examples/serve_client.py.


class TestTune:
    def test_case_study(self, capsys):
        assert main(["tune"]) == 0
        out = capsys.readouterr().out
        assert "strict" in out and "relaxed" in out
        assert "'accumulator': 'float'" in out


class TestNN:
    def test_list(self, capsys):
        assert main(["nn", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("nn_mlp_fwd", "nn_attention"):
            assert name in out

    def test_run_scalar(self, capsys):
        assert main(["nn", "nn_softmax", "--ftype", "float8"]) == 0
        out = capsys.readouterr().out
        assert "SQNR" in out and "max |err|" in out

    def test_run_fused_block(self, capsys):
        assert main(["nn", "nn_mlp_fwd", "--ftype", "mx8",
                     "--mode", "block"]) == 0
        out = capsys.readouterr().out
        assert "fused-block" in out
        assert "vfdotpmx calls:" in out

    def test_block_mode_rejects_scalar_format(self, capsys):
        assert main(["nn", "nn_mlp_fwd", "--ftype", "float8",
                     "--mode", "block"]) == 1
        err = capsys.readouterr().err
        assert "no block dot product" in err

    def test_unknown_kernel(self, capsys):
        assert main(["nn", "gemm"]) == 1
        assert "unknown NN kernel" in capsys.readouterr().err

    def test_formats_table_names_fused_block_kernels(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "fused-block NN" in out
        assert "mlp_fwd,conv2d,attention" in out
