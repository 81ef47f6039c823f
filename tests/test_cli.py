"""Command-line behavior: exit codes, stream separation, determinism."""

import os
import subprocess
import sys

import pytest

import genspec
from scckit import pretty_print
from scckit.decls import MAX_PULL_DEPTH

FROZEN_DEMO_LINE = 'Screen <- picture(640x480,seed=7,overlays=["Ads Inc"]) taints={Camera,IP}\n'


def test_check_valid_spec_is_silent(run_cli, webcam_scc):
    code, out, err = run_cli("check", str(webcam_scc))
    assert (code, out, err) == (0, "", "")


def test_check_contracts_prints_derived_signatures(run_cli, webcam_scc):
    code, out, err = run_cli("check", str(webcam_scc), "--contracts")
    assert code == 0 and err == ""
    assert out == (
        "ProcessPicture: (-> picture? (-> picture? void?) none/c)\n"
        "MakeAd: (-> (-> string?) string?)\n"
        "ComposeDisplay: (-> picture? (-> string?) (-> picture? void?) (-> void?) none/c)\n"
        "Display: (-> picture? (-> picture? void?) void?)\n"
    )


def test_check_missing_file_is_a_usage_error(run_cli, tmp_path):
    code, out, err = run_cli("check", str(tmp_path / "missing.scc"))
    assert code == 2
    assert out == ""
    assert "missing.scc" in err


def test_check_reports_diagnostics_with_positions(run_cli, tmp_path):
    bad = tmp_path / "bad.scc"
    bad.write_text("(define-source Camera Picture)\n(define-source Camera Picture)\n")
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert out == ""
    assert err == f"{bad}:2:1: DUP_NAME: 'Camera' is already declared\n"


def test_check_rejects_publish_cycles(run_cli, tmp_path):
    bad = tmp_path / "looped.scc"
    bad.write_text(
        "(define-source S Int)\n"
        "(define-context P1 Int\n  [when-provided P2 always_publish])\n"
        "(define-context P2 Int\n  [when-provided P1 always_publish])\n"
    )
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert out == ""
    assert err == (f"{bad}:2:1: PUBLISH_CYCLE: publish triggers of 'P1' form a cycle\n"
                   f"{bad}:4:1: PUBLISH_CYCLE: publish triggers of 'P2' form a cycle\n")


def test_check_rejects_pull_chains_over_the_depth_limit(run_cli, tmp_path):
    deep = tmp_path / "deep.scc"
    deep.write_text(pretty_print(genspec.pull_chain(MAX_PULL_DEPTH + 1)).content)
    code, out, err = run_cli("check", str(deep))
    assert code == 1
    assert out == ""
    assert err == (f"{deep}:{MAX_PULL_DEPTH + 4}:1: PULL_TOO_DEEP: get chain of 'P' nests "
                   f"{MAX_PULL_DEPTH + 1} when-required contexts; the limit is {MAX_PULL_DEPTH}\n")
    deep.write_text(pretty_print(genspec.pull_chain(MAX_PULL_DEPTH)).content)
    assert run_cli("check", str(deep)) == (0, "", "")


def test_check_reports_parse_errors(run_cli, tmp_path):
    bad = tmp_path / "broken.scc"
    bad.write_text("(define-source Camera Float)\n")
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert f"{bad}:1:23: UNKNOWN_TYPE:" in err


def test_graph_dot_to_stdout_matches_golden(run_cli, webcam_scc, golden_dir):
    code, out, err = run_cli("graph", str(webcam_scc), "--format", "dot")
    assert (code, err) == (0, "")
    assert out == (golden_dir / "webcam.dot").read_text(encoding="utf-8")
    assert '"MakeAd" -> "ComposeDisplay" [label="pull", style=dashed];' in out


def test_graph_json_matches_golden(run_cli, webcam_scc, golden_dir):
    code, out, _ = run_cli("graph", str(webcam_scc), "--format", "json")
    assert code == 0
    assert out == (golden_dir / "webcam.json").read_text(encoding="utf-8")


def test_graph_default_format_is_dot(run_cli, webcam_scc, golden_dir):
    _, out, _ = run_cli("graph", str(webcam_scc))
    assert out == (golden_dir / "webcam.dot").read_text(encoding="utf-8")


def test_graph_out_writes_file_and_keeps_stdout_clean(run_cli, webcam_scc, golden_dir, tmp_path):
    target = tmp_path / "flow.dot"
    code, out, err = run_cli("graph", str(webcam_scc), "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8") == (golden_dir / "webcam.dot").read_text(encoding="utf-8")


def test_graph_out_to_a_missing_directory_is_an_io_error(run_cli, webcam_scc, tmp_path):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run_cli("graph", str(webcam_scc), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"scc: cannot write {target}: No such file or directory\n"


def test_graph_rejects_unknown_format(run_cli, webcam_scc):
    code, _, err = run_cli("graph", str(webcam_scc), "--format", "svg")
    assert code == 2
    assert "invalid choice" in err


def test_graph_refuses_invalid_spec(run_cli, tmp_path):
    bad = tmp_path / "bad.scc"
    bad.write_text("(define-context X Int [when-provided Ghost always_publish])\n")
    code, out, err = run_cli("graph", str(bad))
    assert code == 1
    assert out == ""
    assert "UNRESOLVED_REF" in err


def test_demo_default_scenario(run_cli):
    code, out, err = run_cli("demo")
    assert (code, err) == (0, "")
    assert out == FROZEN_DEMO_LINE


_CHECK_THEN_GRAPH = """
import sys
from scckit.cli import main
assert main(["check", sys.argv[1], "--contracts"]) == 0
assert main(["graph", sys.argv[1]]) == 0
demo_side = ("scckit.runtime", "scckit.scenario", "scckit.values", "scckit.webcam")
print([name for name in demo_side if name in sys.modules], file=sys.stderr)
"""


def test_check_and_graph_never_import_the_demo_side(repo_root, webcam_scc):
    env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
    probe = subprocess.run([sys.executable, "-c", _CHECK_THEN_GRAPH, str(webcam_scc)],
                           cwd=repo_root, env=env, capture_output=True, text=True)
    assert (probe.returncode, probe.stderr) == (0, "[]\n")
    demo = subprocess.run([sys.executable, "-m", "scckit", "demo"],
                          cwd=repo_root, env=env, capture_output=True, text=True)
    assert (demo.returncode, demo.stdout, demo.stderr) == (0, FROZEN_DEMO_LINE, "")


def test_demo_with_shipped_scenario_file(run_cli, default_scn):
    code, out, _ = run_cli("demo", "--scenario", str(default_scn))
    assert code == 0
    assert out == FROZEN_DEMO_LINE


def test_demo_empty_ad_yields_empty_log(run_cli, tmp_path):
    scn = tmp_path / "noad.scn"
    scn.write_text('set IP ""\nemit Camera picture(640x480,seed=7)\n')
    code, out, err = run_cli("demo", "--scenario", str(scn))
    assert (code, out, err) == (0, "", "")


def test_demo_wrong_type_emission_fails(run_cli, tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("set IP 42\n")
    code, out, err = run_cli("demo", "--scenario", str(scn))
    assert code == 1
    assert out == ""
    assert "TYPE_MISMATCH" in err


def test_demo_scenario_parse_error(run_cli, tmp_path):
    scn = tmp_path / "junk.scn"
    scn.write_text("please IP now\n")
    code, _, err = run_cli("demo", "--scenario", str(scn))
    assert code == 1
    assert "SCENARIO_PARSE_ERROR" in err


def test_demo_missing_scenario_file(run_cli, tmp_path):
    code, _, err = run_cli("demo", "--scenario", str(tmp_path / "nowhere.scn"))
    assert code == 2
    assert "nowhere.scn" in err


def test_demo_trace_shows_activations_and_pulls(run_cli):
    code, out, _ = run_cli("demo", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert "* activate ProcessPicture <- picture(640x480,seed=7,overlays=[]) taints={Camera}" in lines
    assert '* pull ComposeDisplay <- MakeAd = "Ads Inc" taints={IP}' in lines
    assert lines[-1] == FROZEN_DEMO_LINE.rstrip("\n")


def test_demo_trace_matches_golden(run_cli, golden_dir):
    # The script covers an empty ad (frame withheld), a set ad, and an
    # emitted ad that has no subscriber but changes what later pulls see.
    code, out, err = run_cli("demo", "--trace", "--scenario", str(golden_dir / "webcam_trace.scn"))
    assert (code, err) == (0, "")
    assert out == (golden_dir / "webcam_trace.txt").read_text(encoding="utf-8")


def test_cli_output_is_byte_deterministic(run_cli, webcam_scc):
    for argv in (("check", str(webcam_scc), "--contracts"),
                 ("graph", str(webcam_scc), "--format", "json"),
                 ("demo", "--trace")):
        first = run_cli(*argv)
        second = run_cli(*argv)
        # Two identical usage errors would also compare equal.
        assert first[0] == 0 and first[2] == ""
        assert first == second


def test_usage_errors_exit_2(run_cli):
    assert run_cli()[0] == 2
    assert run_cli("frobnicate")[0] == 2
