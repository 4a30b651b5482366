"""Properties of `cli.main` over its config space: every run of `solve`,
`compare` and both certify types, on any of the six entropies, either
built-in family, the pulse or the constant, any quadrature and any band,
ends in an exit code the README names, with no stray exception, no warning
and no NaN in an artifact but the one it documents.  A solve's exit code
is its audit's, and the two certificates end alike on one config whose
band lies in the entropy's domain, but in the three ways the README names.

Hypothesis draws the configs under the derandomized profile of
`tests/conftest.py`, so every run draws the same ones.
"""

import json
import math
import re
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_digests import run_cli
from entromin import builtin_entropy

ENTROPIES = ["l2_norm", "boltzmann_shannon", "translated_boltzmann_shannon", "burg", "cosh",
             "fermi_dirac"]
KINDS = ["monomial", "piecewise_flat"]
COMMANDS = ["solve", "compare", "core", "qri"]
HYPOTHESES = ("admissible band", "margin interval", "linear independence",
              "witness acceptance", "moment match")


def _basis(section, kind, n):
    return f"[{section}]\nkind = {kind}\nn = {n}\n" + ("split = 0.5\n" if kind != "monomial" else "")


def _any_band(draw):
    """A band that may be empty or leave any entropy's domain."""
    band = {}
    if draw(st.booleans()):
        band["alpha"] = draw(st.floats(-1.0, 0.5))
    if draw(st.booleans()):
        band["beta"] = draw(st.one_of(st.just(math.inf),
                                      st.floats(0.05, 3.0).map(
                                          lambda w: band.get("alpha", 0.0) + w)))
    return band


def _domain_band(draw, entropy, rho):
    """A band inside the domain of `entropy`: `alpha` is set wherever the
    domain's lower end is infinite or open, and a finite upper end (Fermi-Dirac's
    1) bounds `beta`.  In about half the draws, where the domain allows, the
    band holds the values of the density `rho`: `alpha` at or below their
    minimum and `beta` above their maximum, or unset."""
    domain = builtin_entropy(entropy).f_domain
    values = (0.0, 1.0) if rho == "pulse" else (0.5, 0.5)
    holds = domain.contains_interval(*values) and values[1] < domain.hi and draw(st.booleans())
    least, most = (values[0] - 1.0, values[0]) if holds else (-1.0, 0.5)
    band = {}
    if not (math.isfinite(domain.lo) and domain.closed_lo) or draw(st.booleans()):
        band["alpha"] = draw(st.floats(max(domain.lo, least), most,
                                       exclude_min=domain.lo > least and not domain.closed_lo))
    if draw(st.booleans()):
        lower = values[1] if holds else band.get("alpha", domain.lo)
        finite = st.floats(lower + 0.05, min(lower + 3.0, domain.hi))
        band["beta"] = draw(finite if math.isfinite(domain.hi)
                            else st.one_of(st.just(math.inf), finite))
    return band


@st.composite
def configs(draw, command, in_domain=False):
    """The INI text, without [output], of one random run of `command`; a
    certify band anywhere, or with `in_domain` inside the entropy's domain."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    kinds = draw(st.permutations(KINDS))
    entropy = draw(st.sampled_from(ENTROPIES))
    rho = draw(st.sampled_from(["pulse", "constant"]))
    text = (f"[problem]\nentropy = {entropy}\ninterval = 0 1\n"
            + (_basis("basis_a", kinds[0], n) + _basis("basis_b", kinds[1], n)
               if command == "compare" else _basis("basis", kinds[0], n))
            + f"[rho]\nkind = {rho}\n"
            f"split = 0.5\nc = 0.5\n[quad]\norder = {draw(st.sampled_from([4, 8, 20]))}\n"
            f"panels = {draw(st.sampled_from([1, 2, 8]))}\n")
    if command in ("core", "qri"):
        band = _domain_band(draw, entropy, rho) if in_domain else _any_band(draw)
        text += "[certify]\n" + "".join(f"{key} = {value!r}\n" for key, value in band.items())
    return text


@st.composite
def runs(draw):
    """(command, INI text without [output]) of one random run."""
    command = draw(st.sampled_from(COMMANDS))
    return command, draw(configs(command))


def _non_finite(obj, key=None):
    """(key, text) of each non-finite number a JSON artifact holds: the CLI
    writes them as the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _non_finite(value, name)
    elif isinstance(obj, list):
        for value in obj:
            yield from _non_finite(value, key)
    elif isinstance(obj, str) and obj in ("nan", "inf", "-inf"):
        yield key, obj


def _run(command, text):
    """Run `command` on the config `text` with every warning an error: its
    exit code, stderr, and artifacts by name."""
    args = ("certify", "--type", command) if command in ("core", "qri") else (command,)
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr, artifacts = run_cli(args, text, directory)
    return code, stderr, {name: data.decode() for name, data in artifacts.items()}


@settings(max_examples=300, deadline=None)
@given(runs())
def test_every_run_ends_in_a_named_outcome(run):
    """Each run exits 0-3 without raising or warning.  No artifact holds a
    NaN, but compare's overshoot of a basis whose solve did not converge,
    and no infinity, but qri's `upper_clearance` under a band unbounded
    above.  A certify exit 3 names a hypothesis or a failed verification."""
    command, text = run
    code, stderr, artifacts = _run(command, text)
    assert code in (0, 1, 2, 3), (text, stderr)
    assert "Traceback" not in stderr
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            values = content.partition("\n")[2]   # below the header: trace.csv's names `residual_inf`
            assert "nan" not in values and "inf" not in values, (text, name)   # as %.17g writes them
            continue
        payload = json.loads(content)
        for key, value in _non_finite(payload):
            assert (key, value) in {("upper_clearance", "inf"), ("overshoot", "nan"),
                                    ("overshoot_a", "nan"), ("overshoot_b", "nan")}, (text, key)
        if name == "comparison.json":
            for label in "ab":
                measured = payload[f"basis_{label}"]["overshoot"] != "nan"
                assert measured or not payload[f"basis_{label}"]["converged"], text
                assert payload[f"overshoot_{label}"] == payload[f"basis_{label}"]["overshoot"]
    if code == 3:
        assert command in ("core", "qri"), text
        named = re.search(r"failed hypothesis \[(.*?)\]", stderr)
        assert (named and named.group(1) in HYPOTHESES) or (
            command == "core" and "verification failed" in stderr), (text, stderr)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["solve", "compare"]), data=st.data(),
       tol=st.sampled_from([1e-6, 1e-10, 1e-13]), max_iter=st.sampled_from([0, 2, 8, 100]))
def test_a_solve_exits_as_its_audit_reads(command, data, tol, max_iter):
    """A `solve` or `compare` exit 0 means every basis converged with
    `residual_inf` <= tol.  An exit 2 means one did not, with its residual
    above tol, and `solve`, or `compare` for each basis that did not
    converge, names the iteration budget or the stalled line search."""
    text = data.draw(configs(command)) + f"[solver]\ntol = {tol!r}\nmax_iter = {max_iter}\n"
    code, stderr, artifacts = _run(command, text)
    assert code in (0, 1, 2), (text, stderr)
    if code == 1:
        return
    if command == "solve":
        summary = json.loads(artifacts["summary.json"])
        audits = [("solve:", summary["converged"], summary["residual_inf"])]
    else:
        payload = json.loads(artifacts["comparison.json"])
        audits = [(f"compare: basis {label}", payload[f"basis_{label}"]["converged"],
                   payload[f"basis_{label}"]["residual"]) for label in "ab"]
    for name, converged, residual in audits:
        assert converged == (residual <= tol), (text, audits)
        assert converged or re.search(re.escape(name) + r" not converged: "
                                      r"(iteration budget \d+ exhausted|line search stalled)",
                                      stderr), (text, stderr)
    assert all(converged for _, converged, _ in audits) == (code == 0), (text, audits)


def _certify_outcome(code, stderr):
    """A certify run's outcome: its exit code, or on exit 3 the hypothesis it
    names, "verification" for a core verification that failed, followed by
    the names of the certificate-level checks that failed."""
    if code != 3:
        return code
    named = re.search(r"failed hypothesis \[(.*?)\]", stderr)
    failed = re.search(r"; failed: (.*)\)", stderr)
    return named.group(1) if named else "verification" + (f": {failed.group(1)}" if failed else "")


@settings(max_examples=100, deadline=None)
@given(configs("core", in_domain=True))
@example("[problem]\nentropy = cosh\ninterval = 0 1\n[basis]\nkind = monomial\nn = 2\n"
         "[rho]\nkind = constant\nsplit = 0.5\nc = 0.5\n[quad]\norder = 8\npanels = 1\n"
         "[certify]\nalpha = 0.49999999999999994\nbeta = 0.55\n")
def test_core_and_qri_agree_but_as_named(text):
    """Both certificate types on one config, its band inside the entropy's
    domain, end alike: both pass, both fail the config, or both fail the
    same hypothesis.  They differ in three named ways alone: core fails
    `[admissible band]` where the density leaves the band, which qri clips
    it into; core passes where qri spends its clip-level budget, `[witness
    acceptance]`; and core's radius is not positive where qri spends its
    budget, because the density clears the band by less than the rounding of
    the target moments (the example: cosh, the constant 0.5 in a band whose
    `alpha` is one ulp below it)."""
    core, qri = (_certify_outcome(*_run(command, text)[:2]) for command in ("core", "qri"))
    assert core == qri or core == "admissible band" or (core, qri) in {
        (0, "witness acceptance"), ("verification: radius", "witness acceptance")}, (
        text, core, qri)
