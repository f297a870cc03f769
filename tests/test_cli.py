import subprocess
import sys

import pytest

from fmclab.cli import main

CORPUS = "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt(capsys, tmp_path):
    src = tmp_path / "t.fmc"
    src.write_text("<x>  .  [ x ]\n")
    code, out, _ = run_cli(capsys, "fmt", str(src))
    assert code == 0 and out.strip() == "<x>.[x]"


def test_run_with_trace(capsys):
    code, out, _ = run_cli(capsys, "run", f"{CORPUS}/increment.fmc",
                           "--mem", "rnd = 9 7 3 ; c = 5", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert len([l for l in lines if "||" in l]) == 8
    assert "steps: 7" in out
    assert "c = 8" in out


def test_check_golden(capsys):
    code, out, _ = run_cli(capsys, "check", f"{CORPUS}/increment.fmc",
                           "--type", "rnd(Z) c(Z) > c(Z)")
    assert code == 0


def test_check_rejects(capsys):
    code, _, err = run_cli(capsys, "check", f"{CORPUS}/increment.fmc",
                           "--type", "rnd(Z) c(Z) > out(Z)")
    assert code == 3 and "error" in err


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.fmc"
    bad.write_text("<x>.[x\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 3 and "error" in err


def test_run_stuck_exit(capsys, tmp_path):
    src = tmp_path / "stuck.fmc"
    src.write_text("<x>.*\n")
    code, _, err = run_cli(capsys, "run", str(src))
    assert code == 4 and "PopOnEmpty" in err


def test_normalize_fuel_exit(capsys):
    code, _, err = run_cli(capsys, "normalize", f"{CORPUS}/omega.fmc", "--fuel", "100")
    assert code == 4 and "fuel" in err


def test_normalize_strategy(capsys, tmp_path):
    src = tmp_path / "t.fmc"
    src.write_text("[1].<x>.[x].[x]\n")
    code, out, _ = run_cli(capsys, "normalize", str(src), "--strategy", "rightmost-innermost")
    assert code == 0 and out.strip() == "[1].[1]"


def test_measure_prints_decimal(capsys, tmp_path):
    src = tmp_path / "t.fmc"
    src.write_text("[*].<x>.*\n")
    code, out, _ = run_cli(capsys, "measure", str(src), "--type", ">")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "measure", str(src), "--type", ">", "--variant")
    assert code == 0 and out.strip() == "2"


def test_graph_dot(capsys, tmp_path):
    src = tmp_path / "t.fmc"
    src.write_text("[1].<x>.[x]\n")
    code, out, _ = run_cli(capsys, "graph", str(src))
    assert code == 0 and out.startswith("digraph")
    target = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "graph", str(src), "--dot", str(target))
    assert code == 0 and target.read_text().startswith("digraph")


def test_equiv_exit_codes(capsys, tmp_path):
    one, two = tmp_path / "one.fmc", tmp_path / "two.fmc"
    one.write_text("[1]\n")
    two.write_text("[2]\n")
    code, out, _ = run_cli(capsys, "equiv", str(one), str(one), "--type", "> Z")
    assert code == 0 and "not distinguished" in out
    code, out, _ = run_cli(capsys, "equiv", str(one), str(two), "--type", "> Z")
    assert code == 1 and "distinguished" in out
    bad = tmp_path / "bad.fmc"
    bad.write_text("<x>.[x]\n")
    code, _, err = run_cli(capsys, "equiv", str(one), str(bad), "--type", "> Z")
    assert code == 2


def test_to_lambda(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "to-lambda", f"{CORPUS}/swap.fmc", "--type", "Z B > B Z")
    assert code == 0 and out.strip() == "\\(s1, s2).(s2, s1)"
    lam = tmp_path / "swap.lam"
    lam.write_text(out)
    code, out, _ = run_cli(capsys, "from-lambda", str(lam))
    assert code == 0 and "<g1>" in out


def test_from_lambda(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "from-lambda", f"{CORPUS}/pair_first.lam")
    assert code == 0 and out.strip() == "[<g2>.<g1>.[g1]]"
    fmc = tmp_path / "pair_first.fmc"
    fmc.write_text(out)
    code, out, _ = run_cli(capsys, "infer", str(fmc))
    assert code == 0 and ">" in out


def test_to_lambda_rejects_effects(capsys, tmp_path):
    src = tmp_path / "effect.fmc"
    src.write_text("a<x>.[x]a\n")
    code, _, err = run_cli(capsys, "to-lambda", str(src), "--type", "a(Z) > a(Z)")
    assert code == 3 and "sequential" in err and "Traceback" not in err
    src.write_text("[1]a.<x>.[x]\n")
    code, _, err = run_cli(capsys, "to-lambda", str(src), "--type", "Z > a(Z) Z")
    assert code == 3 and "sequential" in err


def test_from_lambda_rejects_bad_input(capsys, tmp_path):
    src = tmp_path / "bad.lam"
    for text in ("\\(x,x).x", "\\s%1.s%1"):
        src.write_text(text)
        code, _, err = run_cli(capsys, "from-lambda", str(src))
        assert code == 3 and "error" in err
    src.write_text("\\x'.x'")
    code, out, _ = run_cli(capsys, "from-lambda", str(src))
    assert code == 0 and out.strip() == "[<g1>.[g1]]"


def test_translations_parse_back_through_the_cli(capsys, tmp_path):
    from fmclab.bridge import fmc_to_lambda_closed, lambda_to_fmc, lambda_type_vector
    from fmclab.gen import random_lambda_corpus
    from fmclab.lambda_calc import infer_lambda, parse_lambda, print_lambda
    from fmclab.parser import parse_term, parse_type, print_type
    from fmclab.syntax import MAIN
    from fmclab.typesys import Arrow, Vector, check_infer, mem

    lam_file, fmc_file = tmp_path / "t.lam", tmp_path / "t.fmc"
    corpus = random_lambda_corpus(seed=424242, count=500, max_size=15)
    for lam, _ in corpus:
        lam_file.write_text(print_lambda(lam))
        code, out, err = run_cli(capsys, "from-lambda", str(lam_file))
        assert code == 0, err
        ty = infer_lambda(lam)
        assert parse_term(out) == lambda_to_fmc(lam, [], ty)
        fmc_ty = print_type(Arrow(mem({}), mem({MAIN: Vector(lambda_type_vector(ty))})))
        fmc_file.write_text(out)
        code, out, err = run_cli(capsys, "to-lambda", str(fmc_file), "--type", fmc_ty)
        assert code == 0, err
        back, _ = fmc_to_lambda_closed(check_infer({}, parse_term(fmc_file.read_text()),
                                                   parse_type(fmc_ty)))
        assert parse_lambda(out) == back
    for path, ty in (("identity.fmc", "Z > Z"), ("swap.fmc", "Z B > B Z")):
        code, out, err = run_cli(capsys, "to-lambda", f"{CORPUS}/{path}", "--type", ty)
        assert code == 0, err
        lam_file.write_text(out)
        code, out, err = run_cli(capsys, "from-lambda", str(lam_file))
        assert code == 0 and parse_term(out) == lambda_to_fmc(parse_lambda(lam_file.read_text()))
    code, out, err = run_cli(capsys, "from-lambda", f"{CORPUS}/pair_first.lam")
    fmc_file.write_text(out)
    assert code == 0 and run_cli(capsys, "infer", str(fmc_file))[0] == 0


def test_encode_cbv(capsys):
    code, out, _ = run_cli(capsys, "encode-cbv", f"{CORPUS}/cbv_example.cbv")
    assert code == 0 and "out" in out


def test_deterministic_output():
    cmd = [sys.executable, "-m", "fmclab.cli", "run", f"{CORPUS}/increment.fmc",
           "--mem", "rnd = 9 7 3 ; c = 5", "--trace"]
    first = subprocess.run(cmd, capture_output=True, cwd=".")
    second = subprocess.run(cmd, capture_output=True, cwd=".")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing file and --type
    assert exc.value.code == 2


def test_trace_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trace", f"{CORPUS}/arith.fmc")
    assert code == 0
    assert len([l for l in out.splitlines() if "||" in l]) == 8


def test_equiv_seed_flag(capsys, tmp_path):
    one = tmp_path / "one.fmc"
    one.write_text("<x>.[x]\n")
    code, out, _ = run_cli(capsys, "equiv", str(one), str(one),
                           "--type", "Z > Z", "--seed", "5")
    assert code == 0


def run_fmc(*argv):
    return subprocess.run([sys.executable, "-m", "fmclab.cli", *argv],
                          capture_output=True, text=True, cwd=".")


def binder_chain(n: int) -> str:
    """`[5].<x0>.[x0].<x1>.[x1]...`: 2n + 1 actions, each one machine step."""
    return "[5]." + ".".join(f"<x{i}>.[x{i}]" for i in range(n)) + "\n"


def test_run_long_program(tmp_path):
    src = tmp_path / "long.fmc"
    src.write_text(binder_chain(5000))
    done = run_fmc("run", str(src))
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stdout.splitlines() == ["final: lam = 5", "steps: 10001"]


def test_trace_long_program(tmp_path):
    src = tmp_path / "long.fmc"
    src.write_text(binder_chain(500))
    done = run_fmc("trace", str(src))
    assert done.returncode == 0 and "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    assert len([l for l in lines if "||" in l]) == 1002
    assert lines[-2:] == ["final: lam = 5", "steps: 1001"]


def test_infer_long_program(tmp_path):
    src = tmp_path / "long.fmc"
    src.write_text("[1]." + "[1].+." * 4999 + "[1].+\n")  # 10,001 actions
    done = run_fmc("infer", str(src))
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stdout.strip() == "~r1 > ~r1 Z"
