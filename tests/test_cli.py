"""End-to-end command-line behavior: exit codes, JSON schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import varcert
from varcert.cli import main
from varcert.polyring import PrimeField, form_to_str, monomial_count, parse_form

P = "1048573"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings_ms")
    return doc


def test_hilbert_fermat_json_golden(capsys):
    code, doc, _ = run_json(capsys, "hilbert", "--fermat", "3", "4", "--prime", P)
    assert code == 0
    assert set(doc) == {"command", "input", "config", "verdict", "dims",
                        "rank", "timings_ms"}
    assert doc["command"] == "hilbert"
    assert doc["verdict"] == "Certified"
    assert doc["dims"] == [1, 4, 10, 16, 19, 16, 10, 4, 1, 0]
    assert doc["rank"] is None
    assert doc["config"] == {"prime": 1048573, "seed": 0, "trials": 3}
    assert doc["input"]["form"] == "x0^4 + x1^4 + x2^4 + x3^4"
    assert doc["input"]["n"] == 3 and doc["input"]["d"] == 4


def test_hilbert_singular_exit_2(capsys, tmp_path):
    f = tmp_path / "singular.txt"
    f.write_text("x0^2*x2 + x1^3\n")
    code, doc, _ = run_json(capsys, "hilbert", str(f), "--prime", P)
    assert code == 2
    assert doc["verdict"] == "NotCertified"
    assert doc["input"]["n"] == 2


def test_hilbert_reads_form_file_with_inferred_n(capsys, tmp_path):
    f = tmp_path / "cubic.txt"
    f.write_text("x0^3 + x1^3 + x2^3 + x3^3")
    code, doc, _ = run_json(capsys, "hilbert", str(f), "--prime", P)
    assert code == 0
    assert doc["input"]["n"] == 3
    assert doc["dims"] == [1, 4, 6, 4, 1, 0]


def test_parse_error_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("x0^4 + + x1^4")
    code, out, err = run(capsys, "hilbert", str(f), "--prime", P)
    assert code == 1
    assert out == "" and "position" in err


def test_no_variables_exit_1(capsys, tmp_path):
    f = tmp_path / "none.txt"
    f.write_text("5")
    code, _, err = run(capsys, "hilbert", str(f), "--prime", P)
    assert code == 1 and "no variables" in err


def test_variable_past_x8_exit_1(capsys, tmp_path):
    f = tmp_path / "ten.txt"
    f.write_text("x9^2 + x0^2")
    for command in (("hilbert",), ("wlp",), ("maxvar", "hypersurface"),
                    ("maxvar", "double-cover")):
        code, out, err = run(capsys, *command, str(f), "--prime", P)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "x0..x8" in err and err.count("\n") == 1


def test_module_entry_point_reports_one_line(tmp_path):
    # `python -m varcert.cli` runs main() and exits with its code
    f = tmp_path / "ten.txt"
    f.write_text("x9^2 + x0^2")
    src = str(Path(varcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "varcert.cli", "hilbert", str(f)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "hilbert", str(tmp_path / "ghost.txt"))
    assert code == 1 and "cannot read" in err


def test_composite_prime_exit_1(capsys):
    code, _, err = run(capsys, "hilbert", "--fermat", "3", "4", "--prime", "10")
    assert code == 1 and "not prime" in err


def test_prime_not_exceeding_degree_exit_1(capsys):
    code, _, err = run(capsys, "hilbert", "--fermat", "3", "4", "--prime", "3")
    assert code == 1 and "exceed" in err


def test_fermat_bounds_exit_1(capsys):
    code, _, err = run(capsys, "hilbert", "--fermat", "0", "4", "--prime", P)
    assert code == 1 and "--fermat" in err


@pytest.mark.parametrize("command", [("hilbert",), ("wlp",), ("maxvar", "hypersurface")],
                         ids=["hilbert", "wlp", "maxvar"])
def test_form_file_with_fermat_exit_1(capsys, tmp_path, command):
    # the two form sources exclude each other: neither may be dropped
    form = tmp_path / "quartic.txt"
    form.write_text("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *command, str(form), "--fermat", "2", "3",
                             "--prime", "101", "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: give either a form file or --fermat N D, not both\n"


def test_wlp_text_certified(capsys):
    code, out, _ = run(capsys, "wlp", "--fermat", "4", "3", "--prime", P)
    assert code == 0
    assert "weak Lefschetz: WLPCertified" in out


def test_wlp_singular_exit_2(capsys, tmp_path):
    f = tmp_path / "cone.txt"
    f.write_text("x0^4 + x1^4 + x2^4 + 0*x3^4")
    code, doc, _ = run_json(capsys, "wlp", str(f), "--prime", P)
    assert code == 2 and doc["verdict"] == "SmoothnessNotCertified"


def test_maxvar_exit_codes(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "maxvar", "hypersurface",
                            "--fermat", "3", "4", "--prime", P)
    assert code == 0 and doc["verdict"] == "MaximalVariationCertified"
    assert doc["dims"] == [16, 19] and doc["rank"] == 16

    code, doc, _ = run_json(capsys, "maxvar", "hypersurface",
                            "--fermat", "3", "4", "-e", "9", "--prime", P)
    assert code == 0 and doc["verdict"] == "TriviallyCertified"

    code, doc, _ = run_json(capsys, "maxvar", "hypersurface",
                            "--fermat", "2", "4", "--prime", P)
    assert code == 3 and doc["verdict"] == "PreconditionViolated"

    cone = tmp_path / "cone.txt"
    cone.write_text("x0^4 + x1^4 + x2^4 + 0*x3^4")
    code, doc, _ = run_json(capsys, "maxvar", "hypersurface", str(cone),
                            "--prime", P)
    assert code == 4 and doc["verdict"] == "SmoothnessNotCertified"

    code, doc, _ = run_json(capsys, "maxvar", "hypersurface",
                            "--fermat", "3", "4", "--prime", "5")
    assert code == 2 and doc["verdict"] == "NoEvidence"
    assert doc["failure_bound"] == "1"


def test_maxvar_form_file_follows_the_options(capsys, tmp_path):
    # the options may come before the form file as well as after it
    f = tmp_path / "quartic.txt"
    f.write_text("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3")
    for kind in ("hypersurface", "double-cover"):
        code, want, _ = run_json(capsys, "maxvar", kind, str(f), "-e", "2", "--prime", P)
        assert code == 0
        for argv in (("-e", "2", "--prime", P, str(f)), ("--prime", P, "-e", "2", str(f))):
            code, doc, err = run_json(capsys, "maxvar", kind, *argv)
            assert (code, err) == (0, "")
            assert strip_timings(doc) == strip_timings(want)


def test_maxvar_witness_round_trips(capsys):
    code, doc, _ = run_json(capsys, "maxvar", "hypersurface",
                            "--fermat", "3", "4", "--prime", "5")
    assert code == 2
    w = doc["witness"]
    parsed = parse_form(w, 3, PrimeField(5))
    assert form_to_str(parsed) == w
    assert parsed.degree == 3


def test_maxvar_kind_double_cover(capsys):
    code, doc, _ = run_json(capsys, "maxvar", "double-cover",
                            "--fermat", "2", "6", "--prime", P)
    assert code == 0
    assert doc["detail"]["criterion"] == "double cover e=1 (iff)"
    assert doc["dims"] == [18, 19]


def test_json_deterministic_modulo_timings(capsys):
    argv = ("maxvar", "hypersurface", "--fermat", "3", "4", "--prime", P,
            "--seed", "7")
    _, a, _ = run_json(capsys, *argv)
    _, b, _ = run_json(capsys, *argv)
    assert json.dumps(strip_timings(a), sort_keys=True) == \
        json.dumps(strip_timings(b), sort_keys=True)


def test_maxvar_eliminates_each_map_matrix_once(capsys, monkeypatch):
    # at p=5 every trial of x h: R_3 -> R_4 on the Fermat quartic (16 -> 19)
    # misses full rank; the kernel witness reuses the last map's echelon
    from varcert import exactla, jacobian, lefschetz
    shapes = []

    def counting(mat, _rref=exactla.rref):
        shapes.append((mat.nrows, mat.ncols))
        return _rref(mat)

    for module in (exactla, jacobian, lefschetz):
        monkeypatch.setattr(module, "rref", counting)
    code, _, _ = run(capsys, "maxvar", "hypersurface", "--fermat", "3", "4",
                     "--prime", "5")
    assert code == 2
    assert shapes.count((19, 16)) == 3


def test_rank_oracle_agreement_and_bad_modulus(capsys, tmp_path):
    good = tmp_path / "m.txt"
    good.write_text("2 3 10007\n0 0 4\n0 2 1\n1 1 5\n")
    code, doc, _ = run_json(capsys, "rank-oracle", str(good))
    assert code == 0 and doc["verdict"] == "RankAgreement" and doc["rank"] == 2

    composite = tmp_path / "c.txt"
    composite.write_text("2 2 10\n0 0 3\n1 1 7\n")
    code, _, err = run(capsys, "rank-oracle", str(composite))
    assert code == 1 and "not prime" in err

    corrupt = tmp_path / "bad.txt"
    corrupt.write_text("2 2 10007\n0 5 3\n")
    code, _, err = run(capsys, "rank-oracle", str(corrupt))
    assert code == 1 and "bad matrix dump" in err

    # moduli past 62 bits, one with an entry too wide for int64, are refused
    # before any array is built
    for text in (f"1 1 {(1 << 89) - 1}\n0 0 3\n",
                 f"1 1 {(1 << 63) - 25}\n0 0 3\n",
                 f"1 2 {(1 << 89) - 1}\n0 0 3\n0 1 {(1 << 63) + 5}\n"):
        wide = tmp_path / "wide.txt"
        wide.write_text(text)
        code, out, err = run(capsys, "rank-oracle", str(wide))
        assert code == 1 and out == ""
        assert err.startswith("error: matrix modulus") and "exceeds 62 bits" in err
        assert err.count("\n") == 1


def test_rank_oracle_refuses_an_oversized_dump_before_allocating(capsys, tmp_path,
                                                                  monkeypatch):
    # 2000000 x 10 is over the oracle's 10^7 cells; neither the echelon nor
    # one row per header line may be built first
    from varcert import cli, exactla
    big = tmp_path / "big.txt"
    big.write_text("2000000 10 7\n0 0 3\n")
    for module in (cli, exactla):
        monkeypatch.setattr(module, "rref", lambda mat: pytest.fail("rref called"))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "rank-oracle", str(big))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (5, "")
    assert err == "refused: oracle limited to 10000000 cells, got 2000000x10\n"
    assert peak < 1 << 20


def test_rank_oracle_counts_a_row_without_columns_as_a_cell(capsys, tmp_path):
    # a zero-column header still costs one indptr entry per row, so 2 * 10^7
    # empty rows are over the cell limit and are refused before allocating
    empty = tmp_path / "empty.txt"
    empty.write_text("20000000 0 7\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "rank-oracle", str(empty))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (5, "")
    assert err == "refused: oracle limited to 10000000 cells, got 20000000x0\n"
    assert peak < 1 << 20


def test_argparse_errors_exit_1(capsys):
    for argv in (("hilbert", "--fermat", "3", "4", "--format", "xml"),
                 ("maxvar", "hypersurface", "--fermat", "3", "4", "-e", "x")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: argument") and err.count("\n") == 1


def test_parser_is_built_once_and_each_call_parses_afresh(capsys, tmp_path, monkeypatch):
    from varcert import cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    form = tmp_path / "q.txt"
    form.write_text("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3\n")
    code, first, _ = run_json(capsys, "maxvar", "hypersurface", "--fermat", "3", "4",
                              "-e", "2", "--prime", P, "--seed", "5", "--trials", "2")
    assert code == 0
    assert first["input"]["source"] == "fermat(3,4)" and first["input"]["e"] == 2
    assert first["config"] == {"prime": int(P), "seed": 5, "trials": 2}
    # neither --fermat, -e, --seed nor --trials carries over to later calls
    code, second, _ = run_json(capsys, "maxvar", "hypersurface", str(form), "--prime", P)
    assert code == 0
    assert second["input"]["source"] == str(form) and second["input"]["e"] == 1
    assert second["config"] == {"prime": int(P), "seed": 0, "trials": 3}
    # a command rebound after the parser was built (as a tracer does) is the
    # one that runs
    ran = []
    real_cmd = cli.cmd_hilbert
    monkeypatch.setattr(cli, "cmd_hilbert", lambda run: ran.append(1) or real_cmd(run))
    code, third, _ = run_json(capsys, "hilbert", str(form), "--prime", P)
    assert code == 0 and third["command"] == "hilbert" and ran == [1]
    assert third["input"]["source"] == str(form) and "e" not in third["input"]
    assert built == [1]


def test_trials_below_one_exit_1(capsys, tmp_path):
    good = tmp_path / "m.txt"
    good.write_text("1 1 10007\n0 0 4\n")
    for argv in (("hilbert", "--fermat", "3", "4"),
                 ("wlp", "--fermat", "3", "4"),
                 ("maxvar", "hypersurface", "--fermat", "3", "4"),
                 ("rank-oracle", str(good))):
        code, out, err = run(capsys, *argv, "--prime", P, "--trials", "0")
        assert code == 1 and out == "" and "--trials" in err


def test_degree_one_form_exit_1(capsys, tmp_path):
    f = tmp_path / "linear.txt"
    f.write_text("x0 + x1 + x2")
    for command in ("hilbert", "wlp"):
        code, out, err = run(capsys, command, str(f), "--prime", P)
        assert code == 1 and out == "" and "degree >= 2" in err


def test_size_guard_exit_5(capsys):
    code, out, err = run(capsys, "maxvar", "hypersurface", "--fermat", "8", "30")
    assert code == 5 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1


def test_low_degree_size_guard_keeps_its_refusal(capsys):
    # degrees 0..7 below d-1 keep no identity normal forms; degree 8 is
    # still refused by the bytes its identity would take
    code, out, err = run(capsys, "hilbert", "--fermat", "8", "30")
    assert (code, out) == (5, "")
    assert err == ("refused: degree-8 ideal step needs 1325095200 bytes, "
                   "over the 1073741824 limit\n")


def test_fermat_6_6_is_refused_at_its_first_oversized_relation_step(capsys):
    # the chain starts at the partials in degree 5 and reaches degree 8
    # through two relation steps at most 1667 columns wide; the degree-8
    # step's arrays are counted and refused before any is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "hilbert", "--fermat", "6", "6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (5, "")
    assert err == ("refused: degree-8 relation step needs 1276299024 bytes, "
                   "over the 1073741824 limit\n")
    assert peak < 1 << 28


SINGULAR_QUARTIC = "x0^2*x1^2 + x1^4 + x2^4 + x3^4"


def test_hilbert_mismatch_exit_6(capsys, tmp_path, monkeypatch):
    # a smoothness certificate wrongly granted to a singular quartic must be
    # caught by the series check
    from varcert.jacobian import JacobianRing
    monkeypatch.setattr(JacobianRing, "certify_smooth", lambda self: True)
    form = tmp_path / "singular.txt"
    form.write_text(SINGULAR_QUARTIC)
    code, out, err = run(capsys, "hilbert", str(form), "--prime", P)
    assert code == 6 and out == ""
    assert err.startswith("internal error: HilbertMismatch") and err.count("\n") == 1


@pytest.mark.parametrize("prime", [P, str((1 << 62) - 57)])
def test_corrupted_product_exits_6(capsys, tmp_path, monkeypatch, prime):
    # one wrong entry in every exact product must end the run as an internal
    # error, at a small prime and at the default one alike
    from varcert import exactla
    exact = exactla.matmul_modp

    def corrupted(a, b, q):
        out = exact(a, b, q)
        if out.size:
            out.flat[0] = (int(out.flat[0]) + 1) % q
        return out

    monkeypatch.setattr(exactla, "matmul_modp", corrupted)
    form = tmp_path / "quartic.txt"
    form.write_text("x0^4 + 2*x0*x1^3 - x1^2*x2*x3 + x2^4 + 3*x2*x3^3 + x3^4 + x0*x1*x2*x3")
    code, out, err = run(capsys, "hilbert", str(form), "--prime", prime)
    assert code == 6 and out == ""
    assert err.startswith("internal error: AssertionError: nonzero residue")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [("hilbert",), ("wlp",), ("maxvar", "hypersurface"),
                                     ("rank-oracle",)], ids=lambda c: c[0])
def test_rank_cache_lines_are_not_accepted(capsys, tmp_path, command):
    # a forged socle+1 line claiming R_9 = 0 (rank 220 of 220 columns) would
    # certify the singular quartic smooth; no dim behind a verdict may come
    # from outside the run, so no command may accept such a file
    form = parse_form(SINGULAR_QUARTIC, 3, PrimeField(1048573))
    text = f"{form.n}|{form.degree}|{form_to_str(form)}"
    forged = tmp_path / "ranks.jsonl"
    forged.write_text(json.dumps({
        "form": hashlib.sha256(text.encode()).hexdigest()[:16], "prime": 1048573,
        "degree": 9, "cols": monomial_count(3, 9), "rank": 220}) + "\n")
    if command == ("rank-oracle",):
        target = tmp_path / "m.txt"
        target.write_text("1 1 10007\n0 0 4\n")
    else:
        target = tmp_path / "singular.txt"
        target.write_text(SINGULAR_QUARTIC)
    code, out, err = run(capsys, *command, str(target), "--prime", P,
                         "--cache", str(forged))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--cache" in err and err.count("\n") == 1


def test_stages_report_each_degree_and_its_route(capsys):
    code, doc, _ = run_json(capsys, "maxvar", "hypersurface", "--fermat", "3", "4",
                            "--prime", P)
    assert code == 0
    stages = doc["timings_ms"]["stages"]
    assert [s["degree"] for s in stages] == list(range(3, 10))
    assert [s["route"] for s in stages] == ["ideal"] + ["relation"] * 6
    assert [s["dim"] for s in stages] == [16, 19, 16, 10, 4, 1, 0]
    for s in stages:
        rows, cols = s["shape"]
        assert s["rank"] <= min(rows, cols) and s["rows_read"] <= rows and s["ms"] >= 0
        if s["route"] == "ideal":
            assert s["dim"] == cols - s["rank"]


STAGE_KEYS = {"degree", "route", "shape", "rows_read", "rank", "dim", "ms"}


def test_timings_show_mirrored_degrees_and_one_record_per_stage(capsys):
    # wlp on Fermat (3,4), socle 8: degrees 1..3 descend from the map into
    # degree 4 and 5..8 are read from 4..1, so the only map built is the one
    # into degree 4; every stage, in wlp and in hilbert, records its one
    # elimination and nothing else
    code, doc, _ = run_json(capsys, "wlp", "--fermat", "3", "4", "--prime", P)
    assert code == 0
    timings = doc["timings_ms"]
    assert timings["descended"] == [1, 2, 3]
    assert timings["mirrored"] == [5, 6, 7, 8]
    assert [s["degree"] for s in timings["stages"] if s["route"] == "relation"] == [4, 5, 6, 7, 8, 9]
    assert all(set(s) == STAGE_KEYS for s in timings["stages"])
    code, doc, _ = run_json(capsys, "hilbert", "--fermat", "3", "4", "--prime", P)
    assert code == 0 and not {"descended", "mirrored"} & set(doc["timings_ms"])
    assert all(set(s) == STAGE_KEYS for s in doc["timings_ms"]["stages"])


def test_relation_step_over_the_byte_limit_exits_5(capsys, monkeypatch):
    import varcert.jacobian as jacobian
    monkeypatch.setattr(jacobian, "ENGINE_BYTES_LIMIT", 10 ** 5)
    code, out, err = run(capsys, "hilbert", "--fermat", "3", "4", "--prime", P)
    assert code == 5 and out == ""
    assert err.startswith("refused: degree-5 relation step")
