"""The contract between the library, the benchmark's tracer and the byte comparison.

perfbench/tracing.py wraps the library functions it names in TRACED and reads
the dimension of each dense-kernel call from its arguments.  It is loaded
here as it is, installed over the five modules, and driven through one call of
each CLI command and one direct call each of fockrep.uncertainty_product and
gup.kempf_rescale, which no command makes, so that a rename or a changed
argument in the library shows up here and not only in a benchmark run.
It also holds that tests/compare_cli.py makes every call of the symbolic-mix
workload and every builtin symbolic call, so its byte comparison covers them.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

from conftest import perfbench_workloads
from deformalg import BUILTIN_IDENTITIES, cli, fockrep, gup, spectral, symorder

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"cli": cli, "fockrep": fockrep, "gup": gup, "spectral": spectral, "symorder": symorder}
CALLS = [
    ["verify", "--case", "arik-coon", "--q", "0.7", "--dim", "8"],
    ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "0.95", "--dim", "8", "--n-to", "4"],
    ["gup-scan", "--case", "arik-coon", "--q", "0.5", "--dim", "8", "--q-from", "0.25", "--q-to", "1.75"],
    ["symbolic", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--check", "lh_x"],
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_name_and_counts_the_kernels():
    tracing = load_tracing()
    originals = {
        (mod, fn): getattr(MODULES[mod], fn) for mod, fns in tracing.TRACED.items() for fn in fns
    }
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        for (mod, fn), original in originals.items():
            assert getattr(MODULES[mod], fn) is not original, f"{mod}.{fn} not wrapped"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [tracer.root(cli.main, argv) for argv in CALLS]
        for nf in tracer.normal_forms:
            symorder.nf_to_matrix(nf, fockrep.DEFAULT_DIM)
        # no command takes the moments of a single state any more
        quads = fockrep.quadratures(fockrep.build_rep(spectral.make_case("arik-coon", q=0.7), 8))
        fockrep.uncertainty_product(fockrep.number_state(8, 2), quads)
        # nor calls the forward the tracer wraps; it must stay the library's rescaling
        rescaled = gup.kempf_rescale(quads)
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    for (mod, fn), original in originals.items():
        assert getattr(MODULES[mod], fn) is original, f"{mod}.{fn} not restored"
    assert tracer.normal_forms and tracer.calls["symorder.nf_to_matrix"] == len(tracer.normal_forms)
    for name in tracing.DENSE_PRODUCTS:
        assert tracer.calls[name] > 0 and tracer.cmadd[name] > 0, name
    assert tracer.calls["cli.run_verify_checks"] == 1
    assert tracer.calls["gup.kempf_rescale"] == 1
    direct = fockrep.kempf_rescale(quads)
    for name in ("mat_x", "mat_p"):
        got, want = getattr(rescaled, name).diagonals, getattr(direct, name).diagonals
        assert got.keys() == want.keys() and all(got[d].tobytes() == want[d].tobytes() for d in want), name
    # the symbolic call evaluates each side once per evaluator and compares once
    calls = {fn: tracer.calls[f"symorder.{fn}"] for fn in ("normal_order", "expr_to_matrix", "nf_equal")}
    assert calls == {"normal_order": 2, "expr_to_matrix": 2, "nf_equal": 1}


def test_the_byte_comparison_makes_every_symbolic_mix_call_and_every_builtin_call(monkeypatch):
    # tests/compare_cli.py reads its call list from the workloads, so a changed workload moves it too
    monkeypatch.setattr(sys, "path", list(sys.path))
    import compare_cli

    calls = list(compare_cli.call_list().values())
    workloads = perfbench_workloads()
    wanted = [op.argv for seed in (1, 2) for op in workloads.build("symbolic-mix", seed)]
    wanted += [
        ["symbolic", "--case", case, *params, "--check", name]
        for case, params in workloads.CASES.items()
        for name in BUILTIN_IDENTITIES
    ]
    assert len({tuple(argv) for argv in wanted}) == 30
    assert [argv for argv in wanted if argv not in calls] == []
