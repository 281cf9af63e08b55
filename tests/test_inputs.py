"""Input surfaces: JSON round trips, one-field mutations of the command
line's input files, and a fixed pool of awkward values fed to every public
constructor and scalar parameter.

An out-of-model value must raise a ValidationError subclass, which the
command line turns into exit 2; no other exception may escape.  Hypothesis
runs derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import ValidationError
from infocost.errors import DimensionMismatch, IncompleteInput, StateSpaceMismatch
from infocost.cli import main

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# a string, a number, a bool, None, NaN, +-inf, an integer too large for a
# float, a ragged and a nested list, 2.5 for integer parameters, and lists of
# bools and of numeric strings for array fields
COMMON = ("x", 3, True, None, math.nan, math.inf, -math.inf, 10**400, [[1.0, 2.0], [3.0]])
COMMON += ([[1.0]], 2.5, [True, False], ["0.5", "0.5"])
JSON_POOL = COMMON + ({},)  # and an object, as JSON has them
POOL = COMMON + (object(), Fraction(1, 3))

# ---------------------------------------------------------------- round trips


def _labels(n, prefix):
    """n distinct labels of one kind: strings, integers, tuples or nested tuples."""
    return st.sampled_from(
        [
            [f"{prefix}{k}" for k in range(n)],
            list(range(n)),
            [(k, prefix) for k in range(n)],
            [((k, prefix), (k,)) for k in range(n)],
        ]
    )


def _rows(n, m):
    entry = st.floats(0.05, 1.0)
    rows = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)
    return rows.map(lambda r: np.array(r) / np.sum(r, axis=1, keepdims=True))


@st.composite
def _states(draw, n, valued=None):
    labels = tuple(draw(_labels(n, "s")))
    if valued is None:
        valued = draw(st.booleans())
    if not valued:
        return ic.StateSpace(labels)
    value = st.floats(-1e6, 1e6, allow_nan=False)
    return ic.StateSpace(labels, draw(st.lists(value, min_size=n, max_size=n, unique=True)))


def _json_again(obj):
    return json.loads(json.dumps(obj))


@SETTINGS
@given(st.data())
def test_experiment_json_round_trip(data):
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    mu = ic.Experiment(data.draw(_states(n)), data.draw(_labels(m, "t")), data.draw(_rows(n, m)))
    back = ic.experiment_from_json(_json_again(ic.experiment_to_json(mu)))
    assert back.states == mu.states and back.signals == mu.signals
    np.testing.assert_array_equal(back.probs, mu.probs)


@SETTINGS
@given(st.data())
def test_beta_json_round_trip(data):
    n = data.draw(st.integers(2, 4))
    if data.draw(st.booleans()):
        states = data.draw(_states(n, valued=True))
        rule = data.draw(st.sampled_from(["one_dimensional", "inverse_square"]))
        beta = ic.BetaMatrix(states, None, (rule, data.draw(st.floats(1e-6, 1e6))))
        back = ic.beta_from_json(_json_again(ic.beta_to_json(beta)), states)
        assert back.rule == beta.rule
    else:
        states = data.draw(_states(n))
        entry = st.floats(0.0, 1e6)
        coef = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        beta = ic.BetaMatrix(states, coef)
        back = ic.beta_from_json(_json_again(ic.beta_to_json(beta)))
    assert back.states == beta.states
    np.testing.assert_array_equal(back.dense(), beta.dense())


@SETTINGS
@given(st.data())
def test_problem_json_round_trip(data):
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    entry = st.floats(-1e6, 1e6, allow_nan=False)
    utility = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    prior = data.draw(_rows(1, n))[0]
    problem = ic.DecisionProblem(data.draw(_states(n)), data.draw(_labels(m, "a")), utility, prior)
    back = ic.problem_from_json(_json_again(ic.problem_to_json(problem)))
    assert back.states == problem.states and back.actions == problem.actions
    np.testing.assert_array_equal(back.utility, problem.utility)
    np.testing.assert_array_equal(back.prior, problem.prior)


# ------------------------------------------------ mutations of the input files

PROBLEM = {
    "states": ["lo", "hi"],
    "values": [0.0, 1.0],
    "actions": ["keep", "move"],
    "utility": [[1.0, -0.2], [0.1, 0.9]],
    "prior": [0.4, 0.6],
}
EXPERIMENT = {
    "states": ["lo", "hi"],
    "values": [0.0, 1.0],
    "signals": ["h", "t"],
    "probs": [[0.8, 0.2], [0.3, 0.7]],
}
DENSE_BETA = {"states": ["lo", "hi"], "values": [0.0, 1.0], "coef": [[0.0, 1.0], [2.0, 0.0]]}
RULE_BETA = {"rule": "inverse_square", "kappa": 0.5}
CONSTANT_BETA = {"rule": "constant", "value": 1.0}
DOCUMENTS = {
    "problem": PROBLEM,
    "experiment": EXPERIMENT,
    "dense beta": DENSE_BETA,
    "rule beta": RULE_BETA,
    "constant beta": CONSTANT_BETA,
}
DELETE = "<deleted>"


def _paths(obj, at=()):
    """Every field of a JSON document, entries of its lists included."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in keys:
        yield at + (key,)
        if isinstance(obj[key], (dict, list)):
            yield from _paths(obj[key], at + (key,))


MUTATIONS = [
    (doc, path, value)
    for doc, obj in DOCUMENTS.items()
    for path in _paths(obj)
    for value in JSON_POOL + (DELETE,)
]


def _mutated(obj, path, value):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _commands(doc, files):
    if doc == "problem":
        solve = ["solve", "--problem", files[doc], "--out", files["out"]]
        return [solve + ["--cost", "mi"], solve + ["--cost", "llr", "--beta", files["dense beta"]]]
    cost = ["cost", "--experiment", files["experiment"], "--prior", "0.5,0.5"]
    cost += ["--out", files["out"]]
    if doc == "experiment":
        return [cost + ["--beta", files[b]] for b in ("dense beta", "rule beta")]
    return [cost + ["--beta", files[doc]]]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {"out": str(root / "out")}
    for doc, obj in DOCUMENTS.items():
        paths[doc] = str(root / f"{doc.replace(' ', '_')}.json")
        with open(paths[doc], "w") as fh:
            json.dump(obj, fh)
    return paths


def test_unmutated_documents_run(files):
    for doc in DOCUMENTS:
        for argv in _commands(doc, files):
            assert main(argv) == 0, argv


@settings(SETTINGS, max_examples=120)
@given(st.sampled_from(MUTATIONS))
def test_one_field_mutations_exit_0_2_or_3(files, mutation):
    doc, path, value = mutation
    bad = dict(files, **{doc: files[doc] + ".bad"})
    with open(bad[doc], "w") as fh:
        json.dump(_mutated(DOCUMENTS[doc], path, value), fh)
    for argv in _commands(doc, bad):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), (argv, rc)
        if rc == 2:
            assert "input error" in err.getvalue()


# ------------------------------------------- the pool, fed to every surface

STATES = ic.StateSpace(("lo", "hi"), (0.0, 1.0))
MU = ic.binary_experiment(0.8, STATES)
BETA = ic.constant_betas(STATES, 1.0)
DIST = ic.llr_distribution(MU)
FD = ic.finite_distribution_from_llr(DIST, 0)
PROBLEM_2X2 = ic.problem_from_json(PROBLEM)
RULE = ic.ChoiceRule([[0.5, 0.5], [0.5, 0.5]])
HALF = [0.5, 0.5]
BETA_AB = ic.constant_betas(ic.StateSpace(("a", "b")), 1.0)
BETA_3 = ic.constant_betas(ic.StateSpace(("a", "b", "c")), 1.0)
VALUED_3 = ic.StateSpace(("a", "b", "c"), (0.0, 1.0, 2.0))
MU_3 = ic.uninformative_experiment(BETA_3.states, [0.5, 0.5])
MOMENTS = ic.moments(FD, 2).values

# one call per public constructor field and scalar parameter, the pool
# value in that place and valid values elsewhere.  Fields that take package
# objects (a StateSpace, an Experiment, ...) are left out, and so are
# Xoshiro256, whose seed run_suite checks, and gdp_rows, whose only
# parameter goes straight to inverse_square_betas on a 60,001-state grid.
SURFACES = {
    "StateSpace.labels": lambda x: ic.StateSpace(x),
    "StateSpace.values": lambda x: ic.StateSpace(("lo", "hi"), x),
    "Experiment.signals": lambda x: ic.Experiment(STATES, x, MU.probs),
    "Experiment.probs": lambda x: ic.Experiment(STATES, ("h", "t"), x),
    "make_experiment.signals": lambda x: ic.make_experiment(STATES, x, MU.probs),
    "make_normalized_experiment.probs": lambda x: ic.make_normalized_experiment(
        STATES, ("h", "t"), x
    ),
    "binary_experiment.p": lambda x: ic.binary_experiment(x),
    "uninformative_experiment.weights": lambda x: ic.uninformative_experiment(STATES, x),
    "GarblingMatrix.probs": lambda x: ic.GarblingMatrix(x),
    "dilute.alpha": lambda x: ic.dilute(MU, x),
    "kl_divergence.p": lambda x: ic.kl_divergence(x, HALF),
    "posterior_distribution.prior": lambda x: ic.posterior_distribution(MU, x),
    "LLRDistribution.atoms": lambda x: ic.LLRDistribution(x, DIST.weights),
    "LLRDistribution.weights": lambda x: ic.LLRDistribution(DIST.atoms, x),
    "check_admissible.tol": lambda x: ic.check_admissible(DIST, x),
    "blackwell_dominates.tol": lambda x: ic.blackwell_dominates(MU, MU, x),
    "experiment_from_json": lambda x: ic.experiment_from_json(x),
    "BetaMatrix.coef": lambda x: ic.BetaMatrix(STATES, x),
    "BetaMatrix.rule": lambda x: ic.BetaMatrix(STATES, None, x),
    "BetaMatrix.kappa": lambda x: ic.BetaMatrix(STATES, None, ("inverse_square", x)),
    "constant_betas.value": lambda x: ic.constant_betas(STATES, x),
    "one_dimensional_betas.kappa": lambda x: ic.one_dimensional_betas(STATES, x),
    "beta_from_json": lambda x: ic.beta_from_json(x, STATES),
    "beta_from_json.kappa": lambda x: ic.beta_from_json(dict(RULE_BETA, kappa=x), STATES),
    "beta_from_json.value": lambda x: ic.beta_from_json(dict(CONSTANT_BETA, value=x), STATES),
    "Hypothesis.members": lambda x: ic.Hypothesis(STATES, x),
    "binary_cost.p": lambda x: ic.binary_cost(x, BETA),
    "normal_cost.means": lambda x: ic.normal_cost(x, 1.0, BETA),
    "normal_cost.sigma": lambda x: ic.normal_cost(HALF, x, BETA),
    "mutual_information_cost.prior": lambda x: ic.mutual_information_cost(MU, x),
    "mutual_information_cost.lam": lambda x: ic.mutual_information_cost(MU, HALF, x),
    "posterior_separable_value.prior": lambda x: ic.posterior_separable_value(BETA, x, HALF),
    "posterior_separable_value.p": lambda x: ic.posterior_separable_value(BETA, HALF, x),
    "llr_cost_via_posteriors.prior": lambda x: ic.llr_cost_via_posteriors(MU, BETA, x),
    "hypothesis_test_cost.alpha": lambda x: ic.hypothesis_test_cost(
        BETA, ic.Hypothesis(STATES, {0}), x
    ),
    "partition_experiment.alpha": lambda x: ic.partition_experiment(
        ic.Hypothesis(STATES, {0}), x
    ),
    "verification_asymmetry.epsilon": lambda x: ic.verification_asymmetry(x),
    "verification_asymmetry.kappa": lambda x: ic.verification_asymmetry(0.1, x),
    "DecisionProblem.actions": lambda x: ic.DecisionProblem(
        STATES, x, PROBLEM["utility"], HALF
    ),
    "DecisionProblem.utility": lambda x: ic.DecisionProblem(STATES, ("a", "b"), x, HALF),
    "DecisionProblem.prior": lambda x: ic.DecisionProblem(
        STATES, ("a", "b"), PROBLEM["utility"], x
    ),
    "problem_from_json": lambda x: ic.problem_from_json(x),
    "ChoiceRule.probs": lambda x: ic.ChoiceRule(x),
    "SolveOptions.tol": lambda x: ic.SolveOptions(tol=x),
    "SolveOptions.max_iter": lambda x: ic.SolveOptions(max_iter=x),
    "solve_mutual_information.lam": lambda x: ic.solve_mutual_information(PROBLEM_2X2, x),
    "perception_problem.r": lambda x: ic.perception_problem(x),
    "psychometric_curve.r": lambda x: ic.psychometric_curve(x, 1.0, "mi"),
    "psychometric_curve.kappa": lambda x: ic.psychometric_curve(2, x, "llr"),
    "psychometric_curve.cost_kind": lambda x: ic.psychometric_curve(2, 1.0, x),
    "psychometric_curve.lam": lambda x: ic.psychometric_curve(2, 1.0, "mi", x),
    "lipschitz_check.values": lambda x: ic.lipschitz_check(RULE, x, 1.0),
    "lipschitz_check.u_norm": lambda x: ic.lipschitz_check(RULE, [0.0, 1.0], x),
    "lipschitz_check.gamma": lambda x: ic.lipschitz_check(RULE, [0.0, 1.0], 1.0, x),
    "coinflip_rows.k_max": lambda x: ic.coinflip_rows(x),
    "coinflip_rows.kappa": lambda x: ic.coinflip_rows(2, x),
    "coinflip_rows.lam": lambda x: ic.coinflip_rows(2, 1.0, x),
    "perception_rows.r": lambda x: ic.perception_rows(x),
    "swans_rows.kappa": lambda x: ic.swans_rows(x),
    "swans_rows.epsilon": lambda x: ic.swans_rows(1.0, x),
    "reproduce_rows.name": lambda x: ic.reproduce_rows(x),
    "run_suite.suite": lambda x: ic.run_suite(x, trials=1),
    "run_suite.seed": lambda x: ic.run_suite("axioms", seed=x, trials=1),
    "run_suite.trials": lambda x: ic.run_suite("axioms", trials=x),
    "Xoshiro256.seed": lambda x: ic.Xoshiro256(x),
    "FiniteDistribution.atoms": lambda x: ic.FiniteDistribution(x, [1.0]),
    "FiniteDistribution.weights": lambda x: ic.FiniteDistribution([[0.0]], x),
    "finite_distribution.points": lambda x: ic.finite_distribution(x, [1.0]),
    "finite_distribution.weights": lambda x: ic.finite_distribution([[0.0]], x),
    "finite_distribution_from_llr.state": lambda x: ic.finite_distribution_from_llr(DIST, x),
    "multi_indices.n": lambda x: ic.multi_indices(x, 2),
    "multi_indices.order": lambda x: ic.multi_indices(1, x),
    "moments.order": lambda x: ic.moments(FD, x),
    "cumulants.order": lambda x: ic.cumulants(FD, x),
    "MomentVector.dim": lambda x: ic.MomentVector(x, 2, MOMENTS),
    "MomentVector.order": lambda x: ic.MomentVector(1, x, MOMENTS),
    "MomentVector.values": lambda x: ic.MomentVector(1, 2, x),
    "MomentVector.value": lambda x: ic.MomentVector(1, 2, {**MOMENTS, (2,): x}),
    "lambda_count.alpha": lambda x: ic.lambda_count(x),
    "lambda_count.component": lambda x: ic.lambda_count((1, x)),
    "enumerate_lambda.component": lambda x: ic.enumerate_lambda((x,)),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_pool_raises_only_validation_errors(surface):
    for x in POOL:
        try:
            SURFACES[surface](x)
        except ValidationError:
            pass
        except Exception as exc:  # noqa: BLE001 - the test is that none escapes
            pytest.fail(f"{surface} at {x!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ic.perception_problem(2.7), ValidationError),
        (lambda: ic.lambda_count((1.7,)), ValidationError),
        (lambda: ic.enumerate_lambda((2.9,)), ValidationError),
        (lambda: ic.SolveOptions(max_iter=10**400), ValidationError),
        (lambda: ic.binary_cost("0.5", BETA), ValidationError),
        (lambda: ic.dilute(MU, "0.5"), ValidationError),
        (lambda: ic.normal_cost(HALF, "1", BETA), ValidationError),
        (lambda: ic.solve_mutual_information(PROBLEM_2X2, "1"), ValidationError),
        (lambda: ic.blackwell_dominates(MU, MU, 0.0), ValidationError),
        (lambda: ic.check_admissible(DIST, -1.0), ValidationError),
        (lambda: ic.Xoshiro256(2.7), ValidationError),
        (lambda: ic.Xoshiro256("12"), ValidationError),
        (lambda: ic.Xoshiro256(True), ValidationError),
        (lambda: ic.StateSpace(("lo", "hi"), [True, False]), ValidationError),
        (
            lambda: ic.DecisionProblem(STATES, ("a", "b"), [[True, False], [0.0, 1.0]], HALF),
            ValidationError,
        ),
        (
            lambda: ic.Experiment(STATES, ("h", "t"), [["0.5", "0.5"], ["0.2", "0.8"]]),
            ValidationError,
        ),
        (
            lambda: ic.DecisionProblem(
                STATES, ("a", "b"), PROBLEM["utility"], np.array(["0.5"] * 2)
            ),
            ValidationError,
        ),
        (lambda: ic.BetaMatrix(STATES, np.array([[False, True], [True, False]])), ValidationError),
        # members: past int64 and uint64, a negative narrow integer, a float,
        # and every state as a numpy array or as a list with repeats
        (lambda: ic.Hypothesis(STATES, {2**63}), ValidationError),
        (lambda: ic.Hypothesis(STATES, {np.uint64(2**64 - 1)}), ValidationError),
        (lambda: ic.Hypothesis(STATES, {np.int8(-1)}), ValidationError),
        (lambda: ic.Hypothesis(STATES, [1.0]), ValidationError),
        (lambda: ic.Hypothesis(STATES, np.array([1, 0])), ValidationError),
        (lambda: ic.Hypothesis(STATES, [1, 0, 1]), ValidationError),
        # inputs that disagree with each other, or are missing
        (lambda: ic.llr_cost_from_distribution(DIST, BETA_3), DimensionMismatch),
        (lambda: ic.binary_cost(0.8, BETA_3), DimensionMismatch),
        (lambda: ic.llr_cost_via_posteriors(MU, BETA_AB, HALF), StateSpaceMismatch),
        (lambda: ic.partition_coefficient(BETA_AB, ic.Hypothesis(STATES, {0})), StateSpaceMismatch),
        (lambda: ic.beta_from_json({"states": ["lo", "hi"]}), IncompleteInput),
        # a matrix and a rule would price one test two ways
        (
            lambda: ic.BetaMatrix(VALUED_3, np.ones((3, 3)), ("inverse_square", 5.0)),
            ValidationError,
        ),
        (lambda: ic.binary_experiment(0.8, BETA_3.states), DimensionMismatch),
        (lambda: ic.LLRDistribution(DIST.atoms, DIST.weights[:1]), DimensionMismatch),
        (lambda: ic.convolve_llr(DIST, ic.llr_distribution(MU_3)), DimensionMismatch),
        (lambda: ic.blackwell_dominates(MU, ic.binary_experiment(0.8)), StateSpaceMismatch),
        (lambda: ic.FiniteDistribution(np.zeros((0, 1)), []), ValidationError),
    ],
    ids=[
        "r-2.7",
        "component-1.7",
        "component-2.9",
        "max_iter-huge",
        "p-string",
        "alpha-string",
        "sigma-string",
        "lambda-string",
        "dominance-tol-0",
        "admissible-tol-negative",
        "seed-2.7",
        "seed-string",
        "seed-true",
        "values-bools",
        "utility-bools",
        "probs-strings",
        "prior-string-array",
        "coef-bool-array",
        "members-beyond-int64",
        "members-uint64-max",
        "members-int8-negative",
        "members-float",
        "members-int-array-all-states",
        "members-repeats-all-states",
        "distribution-state-count",
        "binary-cost-3-states",
        "posterior-route-states",
        "partition-states",
        "beta-json-no-coef-no-rule",
        "beta-matrix-and-rule",
        "binary-experiment-3-states",
        "llr-weight-rows",
        "convolve-state-count",
        "dominance-states",
        "no-atoms",
    ],
)
def test_values_are_refused_not_coerced(call, error):
    with pytest.raises(error):
        call()


READERS = {
    "experiment": ic.experiment_from_json,
    "problem": ic.problem_from_json,
    "beta": lambda obj: ic.beta_from_json(obj, STATES),
}
# every key a reader needs, left out of a document that has it; "values" is
# optional, and a beta file without "rule" is read as a matrix
MISSING_KEYS = [
    (doc.split()[-1], doc, key)
    for doc, obj in DOCUMENTS.items()
    for key in obj
    if key not in ("values", "rule")
]


@pytest.mark.parametrize("obj", [5, []], ids=["number", "list"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_refuse_a_document_that_is_no_object(kind, obj):
    with pytest.raises(ValidationError, match=f"^{kind} JSON must be an object$"):
        READERS[kind](obj)


@pytest.mark.parametrize(
    "kind, doc, key", MISSING_KEYS, ids=[f"{doc}-{key}" for _, doc, key in MISSING_KEYS]
)
def test_readers_name_the_missing_key(kind, doc, key):
    obj = {k: v for k, v in DOCUMENTS[doc].items() if k != key}
    with pytest.raises(IncompleteInput, match=f"^{kind} JSON missing '{key}'$"):
        READERS[kind](obj)


def test_integral_reals_are_integers():
    assert ic.perception_problem(2.0).states.n == 4
    assert ic.lambda_count((np.int64(1), Fraction(2, 2))) == ic.lambda_count((1, 1))
    assert ic.SolveOptions(max_iter=np.float64(5.0)).max_iter == 5
    assert ic.MomentVector(1.0, 2, MOMENTS).dim == 1
