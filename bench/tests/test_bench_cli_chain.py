"""The cli-pipeline chain: expected exit codes and recorded output digests."""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src"))

import workloads  # noqa: E402


def test_exit_code_table():
    codes = {name: code for name, _, code, _ in workloads.CHAIN}
    assert codes == {
        "convert": 0, "normalize": 0, "classify": 0, "convert-back": 0,
        "normalize-fallback": 0, "hitchin": 0, "kernel": 0, "kernel-check": 0,
        "dims": 0, "selftest": 0, "malformed": 1, "not-hill": 2, "hitchin-planck": 2,
    }


def test_chain_in_process_matches_table_and_digests():
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.CliPipeline(tmp, in_process=True)
        for v in (0, 1, 2):  # one variant per operator kind
            path, fields = w.prepare(v)
            for step in range(len(workloads.CHAIN)):
                w.run(w.job(v, step, path, fields))  # raises CheckFailed on a mismatch
