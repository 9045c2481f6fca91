"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the names in BENCHMARK.json and the names the benchmark prints
are the same sets, that a planted wrong reference makes the failure count
non-zero, and the tolerances of the output comparison.  Takes about a minute.
"""

import copy
import json
import re
import subprocess
import sys

from checks import ESTIMATE_RTOL, EXACT_RTOL, compare, load_references
from run import HERE, ROOT, measure
from workloads import WORKLOADS


def last_json_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json_line("sign-sweep", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, (
            f"{section}: printed but not declared {sorted(set(printed) - set(declared))}, "
            f"declared but not printed {sorted(set(declared) - set(printed))}, "
            f"unit mismatches {sorted(k for k in printed if k in declared and printed[k] != declared[k])}"
        )


def test_planted_reference_counts_as_failure() -> None:
    references = load_references()
    planted = copy.deepcopy(references)
    key = "verify --suite blocks --level 7 --alpha 0.3"
    value = re.search(r"^REPORT .* value=(\S+)$", planted["outputs"][key], re.M).group(1)
    wrong = repr(float(value) * (1 + 1e-6))
    planted["outputs"][key] = planted["outputs"][key].replace(value, wrong, 1)
    result = measure("verify-suites", 0, 0, False, references=planted)
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0, result


def test_comparison_tolerances() -> None:
    ref = "n,value,converged\n0,1.25,true\n"
    assert not compare("n,value,converged\n0,1.2500000000001,true\n", ref, EXACT_RTOL)
    assert compare("n,value,converged\n0,1.2500001,true\n", ref, EXACT_RTOL)
    assert not compare("n,value,converged\n0,1.25001,false\n", ref, ESTIMATE_RTOL, flags=False)
    assert compare("n,value,converged\n0,1.2502,true\n", ref, ESTIMATE_RTOL, flags=False)
    assert compare("n,value,converged\n0,1.25,false\n", ref, EXACT_RTOL)
    # a passing assertion row is judged by its own tolerance, a report row by the reference
    verify_ref = "PASS   unitarity value=1e-16 tol=1e-12\nREPORT leak value=0.5\n"
    assert not compare("PASS   unitarity value=3e-15 tol=1e-12\nREPORT leak value=0.5\n",
                       verify_ref, EXACT_RTOL, verify=True)
    assert compare("PASS   unitarity value=1e-16 tol=1e-12\nREPORT leak value=0.51\n",
                   verify_ref, EXACT_RTOL, verify=True)


if __name__ == "__main__":
    for test in (test_comparison_tolerances, test_planted_reference_counts_as_failure,
                 test_names_match_benchmark_json):
        test()
        print(f"ok {test.__name__}")
