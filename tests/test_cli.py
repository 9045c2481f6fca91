import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import sequential_ascent
from walshlab import cli, linalg, schauder
from walshlab.cli import BASIS_HEADER, SIGN_HEADER, TENSOR_HEADER, fmt, run_command
from walshlab.linalg import matrix_from_json


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_walsh_stdout_identity(capsys):
    code, out, _ = run(capsys, "gen-walsh", "--index", "0", "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert np.array_equal(matrix_from_json(payload), np.eye(4))


def test_gen_walsh_writes_file_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "w5.json"
    code, _, _ = run(
        capsys, "gen-walsh", "--index", "5", "--level", "2", "--out", str(out_path)
    )
    assert code == 0
    mat = matrix_from_json(json.loads(out_path.read_text()))
    assert np.array_equal(mat, np.diag([1.0, -1.0, -1.0, 1.0]))
    manifest = json.loads((tmp_path / "w5.json.manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["argv"][0] == "gen-walsh"
    assert str(out_path) in manifest["outputs"]


def test_norm_of_walsh_matrix_is_one(tmp_path, capsys):
    out_path = tmp_path / "w1.json"
    run(capsys, "gen-walsh", "--index", "1", "--level", "1", "--out", str(out_path))
    code, out, _ = run(capsys, "norm", "--in", str(out_path), "--p", "2", "--alpha", "0.3")
    assert code == 0
    assert abs(float(out.strip()) - 1.0) < 1e-12


def test_coeffs_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "w3.json"
    run(capsys, "gen-walsh", "--index", "3", "--level", "1", "--out", str(out_path))
    code, out, _ = run(capsys, "coeffs", "--in", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1
    coeffs = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    assert np.allclose(coeffs, [0, 0, 0, 1])


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "--suite", "walsh", "--level", "2", "--alpha", "0.5")[0] == 0
    assert run(capsys, "verify", "--suite", "expectations", "--level", "2", "--alpha", "0.3")[0] == 0
    assert run(capsys, "verify", "--suite", "blocks", "--level", "2", "--alpha", "0.5")[0] == 0


def test_verify_walsh_orthonormality_reads_the_walsh_matrices(capsys, monkeypatch):
    # One wrong Walsh matrix (w_3 replaced by the unitary w_2) must fail the
    # orthonormality row, which is taken from the suite's own Walsh stack.
    real = cli.walsh_matrix
    monkeypatch.setattr(cli, "walsh_matrix", lambda n, m, *args: real(2 if n == 3 else n, m, *args))
    code, out, _ = run(capsys, "verify", "--suite", "walsh", "--level", "1", "--alpha", "0.3")
    assert code == 1
    row = next(line for line in out.splitlines() if "orthonormality" in line)
    assert row.startswith("FAIL"), row


def test_verify_identity_tracial_asserts(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "identity", "--level", "2", "--alpha", "0.5",
        "--tol", "1e-12",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_identity_biased_reports_without_failing(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identity", "--level", "2", "--alpha", "0.3")
    assert code == 0
    assert "REPORT" in out
    assert "FAIL" not in out
    # the two documented residual probes appear with the derived value 0.4
    for line in out.splitlines():
        if "residual[x=w1,n=0]" in line or "residual[x=w4,n=1]" in line:
            assert abs(float(line.split("value=")[1]) - 0.4) < 1e-10


def test_basis_constants_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "bc.csv"
    code, _, _ = run(
        capsys, "basis-constants", "--level", "1", "--alpha", "0.5", "--p", "2",
        "--method", "exact2", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == BASIS_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        value = float(line.split(",")[5])
        assert abs(value - 1) < 1e-10


def test_basis_constants_estimate_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys, "basis-constants", "--level", "1", "--alpha", "0.5", "--p", "2",
        "--method", "estimate", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "--seed" in err


def test_unconditionality_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "uc.csv"
    code, _, _ = run(
        capsys, "unconditionality", "--level", "2", "--alpha", "0.3", "--p", "2",
        "--mode", "exhaustive", "--trials", "50", "--seed", "4", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SIGN_HEADER
    ratio = float(lines[1].split(",")[-1])
    assert abs(ratio - 1) < 1e-8


def test_tensor_sweep_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "ts.csv"
    code, _, _ = run(
        capsys, "tensor-sweep", "--level", "1", "--level2", "1", "--alpha", "0.5",
        "--alpha2", "0.5", "--p", "2", "--nmax", "15", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == TENSOR_HEADER
    assert len(lines) == 17
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1]) - 1) < 1e-10


def test_classical_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "cl.csv"
    code, _, _ = run(
        capsys, "classical", "--level", "3", "--alpha", "0.5", "--p", "2",
        "--nmax", "7", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == BASIS_HEADER
    for line in lines[1:]:
        assert abs(float(line.split(",")[5]) - 1) < 1e-10


def test_unknown_command_and_flags_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "gen-walsh", "--index", "0", "--level", "2", "--bogus")[0] == 2


def test_invalid_parameter_ranges_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "walsh", "--level", "2", "--alpha", "0.7")
    assert code == 2
    assert "alpha" in err or "bias" in err
    code, _, err = run(
        capsys, "norm", "--in", "/nonexistent.json", "--p", "2", "--alpha", "0.3"
    )
    assert code == 2


def test_csv_reproducible_across_runs_and_workers(tmp_path, capsys):
    base = [
        "basis-constants", "--level", "1", "--alpha", "0.3", "--p", "3",
        "--method", "estimate", "--restarts", "4", "--seed", "11",
    ]
    paths = []
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out_path = tmp_path / f"{tag}.csv"
        code, _, _ = run(capsys, *base, "--workers", workers, "--out", str(out_path))
        assert code == 0
        paths.append(out_path)
    bodies = [p.read_bytes() for p in paths]
    assert bodies[0] == bodies[1] == bodies[2]


def test_sign_sweep_csv_identical_across_workers_over_several_blocks(tmp_path, capsys, monkeypatch):
    # At level 3 with 200 trials one block holds 49 patterns; the 256 sampled
    # patterns hold 62 distinct ones, so the sweep takes two blocks.
    from walshlab import schauder

    stacks = []
    norm = schauder.batched_weighted_lp_norm

    def recording(xs, *args, **kwargs):
        stacks.append(np.asarray(xs).nbytes)
        return norm(xs, *args, **kwargs)

    monkeypatch.setattr(schauder, "batched_weighted_lp_norm", recording)
    bodies = []
    for tag, workers in (("a", "1"), ("b", "2")):
        stacks.clear()
        out_path = tmp_path / f"{tag}.csv"
        code, _, _ = run(
            capsys, "unconditionality", "--level", "3", "--alpha", "0.1", "--p", "3",
            "--mode", "sampled", "--trials", "200", "--seed", "17",
            "--workers", workers, "--out", str(out_path),
        )
        assert code == 0
        bodies.append(out_path.read_bytes())
        blocks = stacks[1:]  # the first call takes the probes' own norms
        assert len(blocks) >= 2
        assert max(blocks) <= schauder.SIGN_BLOCK_BYTES
    assert bodies[0] == bodies[1]


def test_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    out_path = tmp_path / "uc.csv"
    argv = [
        "unconditionality", "--level", "2", "--alpha", "0.3", "--p", "4",
        "--mode", "sampled", "--trials", "64", "--seed", "9", "--out", str(out_path),
    ]
    assert run(capsys, *argv)[0] == 0
    body_one = out_path.read_bytes()
    manifest = json.loads((tmp_path / "uc.csv.manifest.json").read_text())
    assert run(capsys, *manifest["argv"])[0] == 0
    assert out_path.read_bytes() == body_one


@pytest.mark.parametrize(
    "argv, parameters, seed",
    [
        ("gen-walsh --index 5 --level 2", {"index": 5, "level": 2, "alpha": 0.5, "mode": "paper"}, None),
        ("coeffs --in {w}", {"infile": "{w}"}, None),
        (
            "basis-constants --level 1 --alpha 0.3 --p 3 --method estimate --restarts 2 --seed 7",
            {"level": 1, "alpha": 0.3, "p": 3.0, "restarts": 2, "workers": 1,
             "method": "estimate", "side": "left", "nmax": 3},
            7,
        ),
        (
            "unconditionality --level 1 --alpha 0.3 --p 3 --mode sampled --trials 4 --seed 5 --workers 2",
            {"level": 1, "alpha": 0.3, "p": 3.0, "mode": "sampled", "trials": 4, "workers": 2},
            5,
        ),
        (
            "tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 2 --nmax 2",
            {"level": 1, "alpha": 0.3, "level2": 1, "alpha2": 0.1, "nmax": 2, "p": 2.0,
             "restarts": 32, "workers": 1},
            None,
        ),
        (
            "classical --level 2 --alpha 0.3 --p 4 --nmax 1 --restarts 1 --seed 0",
            {"level": 2, "alpha": 0.3, "nmax": 1, "p": 4.0, "restarts": 1, "workers": 1},
            0,
        ),
    ],
    ids=lambda case: case.split()[0] if isinstance(case, str) else None,
)
def test_manifest_records_every_parsed_flag(tmp_path, capsys, argv, parameters, seed):
    # Every flag but --out and --seed is a parameter; basis-constants records its resolved --nmax.
    w = str(tmp_path / "w.json")
    assert run(capsys, "gen-walsh", "--index", "1", "--level", "1", "--out", w)[0] == 0
    out_path = tmp_path / "out"
    assert run(capsys, *argv.format(w=w).split(), "--out", str(out_path))[0] == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["parameters"] == {k: v.format(w=w) if isinstance(v, str) else v for k, v in parameters.items()}
    assert manifest["seed"] == seed
    assert manifest["outputs"] == [str(out_path)]


def test_manifest_records_blas_and_leaves_the_csv_alone(tmp_path, capsys, monkeypatch):
    # The benchmark's reference CSV was written on OpenBLAS's default two threads.
    argv = "unconditionality --level 3 --alpha 0.1 --p 3 --mode sampled --trials 100 --seed 2067789227 --out sa.csv"
    references = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
    reference = json.loads(references.read_text())["outputs"][argv]
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv.split())[0] == 0
    assert (tmp_path / "sa.csv").read_text() == reference
    manifest = json.loads((tmp_path / "sa.csv.manifest.json").read_text())
    name, openblas = linalg._openblas()
    assert manifest["blas"] == {"name": name, "threads": None if openblas is None else 1}


def test_run_command_pins_blas_to_one_thread(capsys):
    _, openblas = linalg._openblas()
    if openblas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    set_threads, get_threads = openblas
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS runs at most one thread here")
        assert run(capsys, "gen-walsh", "--index", "0", "--level", "1")[0] == 0
        assert get_threads() == 1
    finally:
        linalg.pin_blas_threads()


def test_fmt_17_digits():
    assert fmt(0.3) == "0.29999999999999999"
    assert fmt(1.0) == "1"
    assert fmt(float("inf")) == "inf"
    assert fmt(True) == "true"


def _refuse_work(*args, **kwargs):
    raise AssertionError("the command started work it should have refused")


@pytest.mark.parametrize(
    "argv, flags",
    [
        ("basis-constants --level 2 --alpha 0.3 --p 2 --method exact2 --nmax 99", ("--nmax",)),
        ("basis-constants --level 2 --alpha 0.3 --p 3 --method exact2", ("--method", "--p")),
        ("gen-walsh --index 99999 --level 2", ("--index",)),
    ],
)
def test_out_of_range_flags_are_refused_by_name(tmp_path, capsys, monkeypatch, argv, flags):
    monkeypatch.setattr(cli, "basis_constant_sweep", _refuse_work)
    monkeypatch.setattr(cli, "walsh_matrix", _refuse_work)
    out_path = tmp_path / "out.csv"
    extra = ("--out", str(out_path)) if argv.startswith("basis-constants") else ()
    code, out, err = run(capsys, *argv.split(), *extra)
    assert code == 2
    assert all(flag in err for flag in flags), err
    assert out == "" and not out_path.exists()


def test_basis_constants_refuses_level_above_explicit_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "basis_constant_sweep", _refuse_work)
    for method in ("exact2", "estimate"):
        code, _, err = run(
            capsys, "basis-constants", "--level", "5", "--alpha", "0.3", "--p", "2",
            "--method", method, "--seed", "1", "--out", str(tmp_path / "bc.csv"),
        )
        assert code == 2
        assert "--level" in err
    assert not (tmp_path / "bc.csv").exists()


def test_tensor_sweep_refuses_joint_level_above_explicit_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "exact_norm_p2", _refuse_work)
    code, _, err = run(
        capsys, "tensor-sweep", "--level", "3", "--level2", "2", "--alpha", "0.3",
        "--alpha2", "0.1", "--p", "2", "--nmax", "1", "--out", str(tmp_path / "ts.csv"),
    )
    assert code == 2
    assert "--level" in err and "--level2" in err
    assert not (tmp_path / "ts.csv").exists()


def test_verify_walsh_refuses_oversized_walsh_stack(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "walsh", _refuse_work)
    for level in ("7", "8"):
        code, out, err = run(capsys, "verify", "--suite", "walsh", "--level", level, "--alpha", "0.3")
        assert code == 2
        assert "--level" in err
        assert out == ""


def test_verify_identity_refuses_level_above_explicit_cap(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "identity", _refuse_work)
    code, out, err = run(capsys, "verify", "--suite", "identity", "--level", "5", "--alpha", "0.3")
    assert code == 2
    assert "--level" in err
    assert out == ""


def test_verify_expectations_refuses_level_above_six(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "expectations", _refuse_work)
    code, out, err = run(capsys, "verify", "--suite", "expectations", "--level", "7", "--alpha", "0.3")
    assert code == 2
    assert "--level" in err
    assert out == ""


def test_verify_tol_replaces_every_assertion_threshold(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "walsh", "--level", "1", "--alpha", "0.3", "--tol", "1e-300")
    assert code == 1
    judged = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert any(line.startswith("FAIL") for line in judged)
    assert judged and all(line.endswith("tol=1e-300") for line in judged)


def test_verify_tol_leaves_report_rows_alone(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "blocks", "--level", "1", "--alpha", "0.3", "--tol", "1e-300")
    assert code == 0
    reports = [line for line in out.splitlines() if line.startswith("REPORT")]
    assert reports and not any("tol=" in line for line in reports)


def test_unconditionality_refuses_oversized_difference_stack(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "unconditionality_constant", _refuse_work)
    tracemalloc.start()
    try:
        code, _, err = run(
            capsys, "unconditionality", "--level", "6", "--alpha", "0.3", "--p", "3",
            "--mode", "sampled", "--trials", "1", "--seed", "1", "--out", str(tmp_path / "uc.csv"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "--level" in err and "--trials" in err
    assert peak < 1 << 20
    assert not (tmp_path / "uc.csv").exists()


@pytest.mark.parametrize(
    "argv, column",
    [
        ("basis-constants --level 2 --alpha 0.3 --p 1000 --method estimate --nmax 1", 5),
        ("classical --level 4 --alpha 0.3 --p 1000 --nmax 3", 5),
        ("tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 1000 --nmax 3", 6),
    ],
)
def test_estimates_stay_finite_at_large_p(tmp_path, capsys, argv, column):
    # Every projection here keeps the identity, so its norm is at least 1; a
    # power sum that underflows reports 0.  The bound leaves room for the
    # iteration's tolerance only.
    out_path = tmp_path / "large_p.csv"
    code, _, _ = run(capsys, *argv.split(), "--restarts", "4", "--seed", "0", "--out", str(out_path))
    assert code == 0
    for line in out_path.read_text().splitlines()[1:]:
        value = float(line.split(",")[column])
        assert np.isfinite(value) and value >= 1 - 1e-4, line


@pytest.mark.parametrize(
    "argv, column",
    [
        ("basis-constants --level 2 --alpha 0.3 --p inf --method estimate --restarts 4 --nmax 15 --seed 4", 5),
        ("tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p inf --nmax 15 --restarts 4 --seed 4", 6),
    ],
)
def test_p_inf_estimates_reach_one(tmp_path, capsys, argv, column):
    # Every projection here keeps the identity, so its norm is at least 1.
    out_path = tmp_path / "inf.csv"
    assert run(capsys, *argv.split(), "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines()[1:]
    assert len(lines) == 16
    for line in lines:
        assert float(line.split(",")[column]) >= 1 - 1e-12, line


def _csv_values(path, column):
    return [(float(line.split(",")[column]), line.split(",")[-1]) for line in path.read_text().splitlines()[1:]]


def test_tensor_sweep_lockstep_matches_sequential_oracle(tmp_path, capsys, monkeypatch):
    # The estimate cells of one sweep climb in one block; each restart keeps its own path.
    argv = "tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --nmax 3 --restarts 2 --seed 2".split()
    for p in ("1.5", "3"):
        assert run(capsys, *argv, "--p", p, "--out", str(tmp_path / f"lockstep{p}.csv"))[0] == 0
    monkeypatch.setattr(schauder, "multistart_ascent", sequential_ascent)
    for p in ("1.5", "3"):
        assert run(capsys, *argv, "--p", p, "--out", str(tmp_path / f"oracle{p}.csv"))[0] == 0
        lockstep = _csv_values(tmp_path / f"lockstep{p}.csv", 6)
        oracle = _csv_values(tmp_path / f"oracle{p}.csv", 6)
        assert len(lockstep) == len(oracle) == 4
        for (value, _), (oracle_value, _) in zip(lockstep, oracle):
            assert abs(value - oracle_value) <= 1e-12 * oracle_value, p


@pytest.mark.parametrize(
    "argv",
    [
        "basis-constants --level 2 --alpha 0.3 --p 3 --method estimate --restarts 5",
        "classical --level 5 --alpha 0.3 --p 3 --restarts 8",
    ],
)
def test_estimate_rows_do_not_depend_on_their_block(tmp_path, capsys, argv):
    # At --nmax 15 the sweep climbs in more and larger blocks than at --nmax 3.
    for nmax in (3, 15):
        out = tmp_path / f"n{nmax}.csv"
        assert run(capsys, *argv.split(), "--nmax", str(nmax), "--seed", "4", "--out", str(out))[0] == 0
    short, long = _csv_values(tmp_path / "n3.csv", 5), _csv_values(tmp_path / "n15.csv", 5)
    assert len(short) == 4 and len(long) == 16
    for (value, converged), (long_value, long_converged) in zip(short, long):
        assert abs(value - long_value) <= 1e-12 * long_value and converged == long_converged


def test_level4_estimate_sweep_holds_one_block_of_matrices(tmp_path, capsys, monkeypatch):
    # Each operator matrix is 1 MiB at level 4: a block holds at most 16 of them,
    # and one more is built only after the block before it has climbed.
    alive, peak, rows = [0], [0], []
    matrix = schauder.OperatorHandle.matrix

    def tracked(handle):
        mat = matrix(handle)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        weakref.finalize(mat, lambda: alive.__setitem__(0, alive[0] - 1))
        return mat

    norm = schauder.batched_weighted_lp_norm

    def counted(xs, *args):
        rows.append(len(xs))
        return norm(xs, *args)

    monkeypatch.setattr(schauder.OperatorHandle, "matrix", tracked)
    monkeypatch.setattr(schauder, "batched_weighted_lp_norm", counted)
    argv = "basis-constants --level 4 --alpha 0.5 --p 3 --method estimate --restarts 1 --nmax 8 --seed 0"
    assert run(capsys, *argv.split(), "--out", str(tmp_path / "bc.csv"))[0] == 0
    assert peak[0] == 16
    assert 0 < max(rows) <= min(16, schauder.ASCENT_BLOCK)


@pytest.mark.parametrize("command", [["coeffs"], ["norm", "--p", "2", "--alpha", "0.3"]])
@pytest.mark.parametrize("m", [0, 9])
def test_matrix_file_outside_levels_1_to_8_is_refused(tmp_path, capsys, command, m):
    in_path = tmp_path / f"level{m}.json"
    dim = 1 << m
    in_path.write_text(json.dumps({"m": m, "re": np.eye(dim).tolist(), "im": np.zeros((dim, dim)).tolist()}))
    out_path = tmp_path / "out.json"
    argv = [*command, "--in", str(in_path)] + (["--out", str(out_path)] if command == ["coeffs"] else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "--in" in err and f"level-{m}" in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [in_path.name]


def test_parser_is_built_once_and_reused_without_state(tmp_path, capsys):
    # One parser serves every command of a process; a flag given to one command
    # must not leak into the next, which resolves --nmax itself.
    assert cli.build_parser() is cli.build_parser()
    base = "basis-constants --level 2 --alpha 0.3 --p 2 --method exact2".split()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(capsys, *base, "--nmax", "3", "--out", str(first))[0] == 0
    assert run(capsys, *base, "--out", str(second))[0] == 0
    assert len(first.read_text().splitlines()) == 1 + 4
    assert len(second.read_text().splitlines()) == 1 + 16
    manifest = json.loads((tmp_path / "second.csv.manifest.json").read_text())
    assert manifest["parameters"]["nmax"] == 4**2 - 1
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "basis-constants" in out
