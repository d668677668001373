"""The gradient-check suites and the ``grad-check`` command."""

import pytest

from fairtopk import gradcheck
from fairtopk.cli import run


def test_check_lambda_errors_are_small():
    errs = gradcheck.check_lambda(7)
    assert set(errs) == {"smoothed_grad", "smoothed_hess", "implicit_lambda"}
    assert all(0.0 <= e <= 1e-5 for e in errs.values())


@pytest.mark.parametrize("worst, code", [(5e-4, 0), (1e-3, 0), (2e-3, 2), (float("nan"), 2)])
def test_grad_check_exit_code_follows_the_worst_error(monkeypatch, capsys, worst, code):
    errs = {"rank_losses.ndcg": 1e-8, "fairness.g2_full_implicit": worst,
            "lambda.implicit_lambda": 2e-7}
    seeds = []
    monkeypatch.setattr(gradcheck, "run_all", lambda seed: seeds.append(seed) or errs)
    assert run(["grad-check", "--seed", "3"]) == code
    assert seeds == [3]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name}: max relative error {errs[name]:.3e}" for name in sorted(errs)]
