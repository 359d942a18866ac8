import json

import pytest

from charsumlab import LinearSystem, VinogradovParams, build_field
from charsumlab.campaigns import CampaignConfig, run_campaign
from charsumlab.cli import main
from charsumlab.errors import OutOfRange
from oracles import (ff_box_energy_reference, linear_forms_energy_reference,
                     vinogradov_count_naive)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_factor(capsys):
    code, out = run_cli(capsys, "factor", "4199")
    assert code == 0
    assert json.loads(out) == {"q": 4199, "primes": [13, 17, 19]}


def test_factor_error(capsys):
    code = main(["factor", "12"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_char_eval(capsys):
    code, out = run_cli(capsys, "char", "eval", "--q", "15",
                        "--indices", "1,2", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(-1.0)
    assert payload["primitive"] is True
    assert payload["order"] == 2


def test_jcount_methods_agree(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CSL_CACHE_DIR", str(tmp_path))
    count = vinogradov_count_naive(VinogradovParams(2, 2, 9))
    assert count == 2 * 81 - 9
    for flags in ([], ["--no-cache"]):
        code, out = run_cli(capsys, "jcount", "--r", "2", "--d", "2", "--V", "9", *flags)
        assert code == 0
        assert json.loads(out) == {"r": 2, "d": 2, "V": 9, "count": count}
    # count is now cached
    code, out = run_cli(capsys, "cache", "ls")
    entries = json.loads(out)["entries"]
    assert entries == [{"r": 2, "d": 2, "V": 9, "count": count}]
    code, out = run_cli(capsys, "cache", "clear")
    assert json.loads(out)["removed"] is True


def test_energy_commands(capsys):
    code, out = run_cli(capsys, "energy", "cong", "--q", "5", "--N", "2", "--U", "2")
    assert code == 0
    assert json.loads(out)["count"] == 6
    code, out = run_cli(capsys, "energy", "ffbox", "--q", "5", "--n", "2",
                        "--H", "2", "--U", "2")
    assert code == 0
    assert json.loads(out)["count"] == ff_box_energy_reference(build_field(5, 2), 2, 2)
    code, out = run_cli(capsys, "energy", "linforms", "--q", "7",
                        "--matrix", "1,1,0,1", "--H", "2", "--U", "2")
    assert code == 0
    L = LinearSystem(((1, 1), (0, 1)))
    assert json.loads(out)["count"] == linear_forms_energy_reference(7, L, 2, 2) >= 16


@pytest.mark.parametrize("argv", [
    ["energy", "cong", "--q", "101", "--N", "9", "--U", "9", "--method", "naive"],
    ["energy", "ffbox", "--q", "5", "--n", "2", "--H", "2", "--U", "2",
     "--method", "hashed"],
    ["energy", "linforms", "--q", "7", "--matrix", "1,1,0,1", "--H", "2", "--U", "2",
     "--method", "naive"],
    ["jcount", "--r", "2", "--d", "2", "--V", "5", "--method", "naive"]])
def test_method_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_energy_hypothesis_flag(capsys):
    code = main(["energy", "cong", "--q", "5", "--N", "3", "--U", "3"])
    capsys.readouterr()
    assert code == 2
    code, out = run_cli(capsys, "--override-hypotheses", "energy", "cong",
                        "--q", "5", "--N", "3", "--U", "3")
    assert code == 0


def test_verify_writes_deterministic_report(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "thm1", "--r-d", "5", "--d", "2", "--samples", "2",
            "--q-max", "120"]
    assert main(["--seed", "9", "--out", str(out1)] + args) == 0
    assert main(["--seed", "9", "--out", str(out2)] + args) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True
    assert payload["records"]


def test_verify_defaults_come_from_campaign_config(capsys, tmp_path):
    for target, flags, settings in [("thm3", ["--r-d", "5"], {"r_d": 5}),
                                    ("lemma5", [], {})]:
        out = tmp_path / f"{target}.json"
        assert main(["--out", str(out), "verify", target, *flags]) == 0
        capsys.readouterr()
        report = run_campaign(CampaignConfig(target=target, **settings))
        assert out.read_bytes() == report.to_json_bytes(), target


def test_verify_exit_code_on_fail(capsys, tmp_path):
    # an absurdly small threshold forces a ratio regression failure
    code = main(["verify", "lemma7", "--constant", "1e-9"])
    capsys.readouterr()
    assert code == 1


def test_cross_process_report_determinism(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import charsumlab

    # the child imports the same charsumlab as this process
    src = str(Path(charsumlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "charsumlab.cli", "--seed", "21",
               "--out", str(out), "verify", "thm3", "--r-d", "5", "--d", "2",
               "--samples", "2"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_compare_exponents_cli(capsys):
    code, out = run_cli(capsys, "compare-exponents", "--N", "1000",
                        "--q", "100003", "--d", "2", "--r", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["chang_epsilon"] == pytest.approx(0.0025 / 48.4, abs=1e-12)
    code = main(["compare-exponents", "--N", "1000", "--q", "100003",
                 "--d", "2", "--r", "3"])
    capsys.readouterr()
    assert code == 2  # r = D pole


def test_verify_threads_share_fresh_j_cache(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CSL_CACHE_DIR", str(tmp_path / "fresh"))
    code = main(["verify", "lemma3", "--threads", "4", "--use-cache"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    code, out = run_cli(capsys, "cache", "ls")
    assert json.loads(out)["entries"]


def test_verify_rejects_singular_basis(capsys):
    code = main(["verify", "thm3", "--r-d", "5", "--basis", "1,1,2,2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "singular" in err


def test_thm4_rejects_q_max_with_one_prime(capsys):
    code = main(["verify", "thm4", "--r-d", "5", "--q-max", "12"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stray_value_error_exits_2(capsys):
    # VinogradovParams rejects V = 0 with a plain ValueError
    code = main(["jcount", "--r", "2", "--d", "2", "--V", "0", "--no-cache"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify", "phi", "--V-phi", "0"],
                                  ["verify", "thm1", "--r-d", "5", "--d", "0"],
                                  ["verify", "smoothing", "--grid", "0"],
                                  ["verify", "thm1", "--r-d", "5", "--samples", "-1"]])
def test_degenerate_config_exits_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_thm1_above_the_enumeration_bound(capsys):
    # q = 200005 = 5 * 13 * 17 * 181 has 3 * 11 * 15 * 179 primitive characters
    code = main(["verify", "thm1", "--r-d", "5", "--d", "2", "--q-min", "200005",
                 "--q-max", "200005", "--chars-per-modulus", "10"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "records=10" in captured.out


def test_verify_thm1_prime_factor_past_table_bound_exits_2(capsys):
    code = main(["verify", "thm1", "--r-d", "4", "--q-min", "16777259",
                 "--q-max", "16777259"])  # a prime above 2^24
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "table bound" in err
    with pytest.raises(OutOfRange):
        run_campaign(CampaignConfig(target="thm1", r_d=4, q_min=16777259, q_max=16777259))
