"""The contract between the library and the benchmark's tracer.

perfbench/tracing.py wraps the library functions it names in TRACED and reads
the dimension of each dense-kernel call from its arguments.  It is loaded
here as it is, installed over the five modules, and driven through one call of
each CLI command and one direct call of fockrep.uncertainty_product, which no
command makes, so that a rename or a changed argument in the library shows up
here and not only in a benchmark run.
"""

import contextlib
import importlib.util
import io
import pathlib

from deformalg import cli, fockrep, gup, spectral, symorder

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
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    for (mod, fn), original in originals.items():
        assert getattr(MODULES[mod], fn) is original, f"{mod}.{fn} not restored"
    assert tracer.normal_forms and tracer.calls["symorder.nf_to_matrix"] == len(tracer.normal_forms)
    for name in tracing.DENSE_PRODUCTS:
        assert tracer.calls[name] > 0 and tracer.cmadd[name] > 0, name
    assert tracer.calls["cli.run_verify_checks"] == 1
    # the symbolic call evaluates each side once per evaluator and compares once
    calls = {fn: tracer.calls[f"symorder.{fn}"] for fn in ("normal_order", "expr_to_matrix", "nf_equal")}
    assert calls == {"normal_order": 2, "expr_to_matrix": 2, "nf_equal": 1}
