"""Model document round trips and validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulabn.cbn import CbnModel, fit_complete, log_density_rows, lower_bound_rows
from copulabn.copula import rho_bounds
from copulabn.dag import Dag
from copulabn.data import MaskedDataset
from copulabn.errors import ParseError, ValidationError
from copulabn.gaussian_bn import LinearGaussianBn, log_marginal_lg_rows
from copulabn.marginals import KdeMarginal
from copulabn.model_io import deserialize, load_model, save_model, serialize

from conftest import chain_scores, cycle_warps, model_document, warp_columns


def _cbn_model(seed=0):
    rng = np.random.default_rng(seed)
    z = chain_scores(0.5, 3, 200, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(3)))
    return fit_complete(data, Dag.chain(3)), data


def _lg_model():
    return LinearGaussianBn(
        dag=Dag.from_edges(3, [(0, 2), (1, 2)]),
        intercepts=(0.5, -1.0, 1.0),
        coefficients=((), (), (0.8, -0.5)),
        variances=(1.0, 2.0, 0.49),
        column_names=("a", "b", "c"),
    )


def test_cbn_round_trip_reproduces_predictions_exactly():
    model, data = _cbn_model()
    restored = deserialize(serialize(model))
    np.testing.assert_array_equal(
        log_density_rows(restored, data.values), log_density_rows(model, data.values)
    )
    np.testing.assert_array_equal(
        lower_bound_rows(restored, data), lower_bound_rows(model, data)
    )
    assert restored.column_names == model.column_names
    assert restored.dag == model.dag
    assert restored.rho == model.rho
    assert [type(r) for r in restored.rho] == [type(None), float, float]
    for got, want in zip(restored.marginals, model.marginals):
        assert got.bandwidth == want.bandwidth
        np.testing.assert_array_equal(got.samples, want.samples)


def test_lgbn_round_trip_is_exact():
    model = _lg_model()
    restored = deserialize(serialize(model))
    assert restored == model
    x = np.array([[0.3, -0.1, 1.2], [2.0, 0.5, -0.7]])
    data = MaskedDataset.from_values(x, model.column_names)
    np.testing.assert_array_equal(
        log_marginal_lg_rows(restored, data), log_marginal_lg_rows(model, data)
    )


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialize_then_deserialize_is_the_identity(kind, n, seed):
    # Random parameters at scales from 1e-6 to 1e6 on a random DAG.
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    parents = [()] * n
    for pos, node in enumerate(order):
        earlier = order[:pos]
        parents[node] = tuple(sorted(int(p) for p in earlier[rng.random(pos) < 0.5]))
    dag = Dag(n, tuple(parents))
    names = tuple(f"c{i}" for i in range(n))

    def scaled(size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size)

    if kind == "cbn":
        marginals = tuple(
            KdeMarginal.from_params(scaled(int(rng.integers(2, 30))), abs(scaled(1)[0]) + 1e-9)
            for _ in range(n)
        )
        rho = tuple(float(rng.uniform(*rho_bounds(len(ps) + 1))) if ps else None for ps in parents)
        model = CbnModel(dag, marginals, rho, names)
    else:
        model = LinearGaussianBn(
            dag=dag,
            intercepts=tuple(scaled(n)),
            coefficients=tuple(tuple(scaled(len(ps))) for ps in parents),
            variances=tuple(np.abs(scaled(n)) + 1e-9),
            column_names=names,
        )
    text = serialize(model)
    restored = deserialize(text)
    assert serialize(restored) == text
    assert restored.dag == model.dag and restored.column_names == model.column_names
    if kind == "cbn":
        for got, want in zip(restored.rho, model.rho):
            assert (got is None) == (want is None)
            if got is not None:
                assert _bits(got) == _bits(want)
        for got, want in zip(restored.marginals, model.marginals):
            assert _bits(got.bandwidth) == _bits(want.bandwidth)
            np.testing.assert_array_equal(_bits(got.samples), _bits(want.samples))
    else:
        for field in ("intercepts", "variances"):
            np.testing.assert_array_equal(
                _bits(getattr(restored, field)), _bits(getattr(model, field))
            )
        for got, want in zip(restored.coefficients, model.coefficients):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_save_and_load_files(tmp_path):
    model, data = _cbn_model(seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    np.testing.assert_array_equal(
        log_density_rows(restored, data.values), log_density_rows(model, data.values)
    )
    lg = _lg_model()
    lg_path = tmp_path / "lg.json"
    save_model(lg, lg_path)
    assert load_model(lg_path) == lg


def test_document_shape():
    model = _lg_model()
    doc = json.loads(serialize(model))
    assert doc["format"] == "copulabn-model"
    assert doc["version"] == 1
    assert doc["model_kind"] == "lgbn"
    assert doc["column_names"] == ["a", "b", "c"]
    assert doc["parents"] == [[], [], [0, 1]]


def test_model_files_are_the_bytes_json_dumps_writes():
    # serialize joins the samples apart from json.dumps; its text stays what
    # json.dumps(indent=2) writes of the whole document, at awkward floats
    # and at names that quote, escape or mimic the document's own text.
    fitted, _ = _cbn_model(seed=2)
    edge = KdeMarginal.from_params(
        [-0.0, 5e-324, 1e23, float(2**53 + 1), float(2**53 + 2), 1.7e308, -1.7e308, 0.1], 0.5
    )
    names = ('say "hi", then \\ go', "Zürich µ 日本", '"samples": []')
    odd = CbnModel(fitted.dag, (edge, *fitted.marginals[1:]), fitted.rho, names)
    lg = _lg_model()
    odd_lg = LinearGaussianBn(lg.dag, lg.intercepts, lg.coefficients, lg.variances, names)
    for model in (fitted, odd, lg, odd_lg):
        assert serialize(model) == model_document(model)
    assert json.loads(serialize(odd))["column_names"] == list(names)


def test_rejects_non_model_documents():
    with pytest.raises(ParseError):
        deserialize("{not json")
    with pytest.raises(ParseError):
        deserialize(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ParseError):
        deserialize(json.dumps([1, 2, 3]))


def test_rejects_bad_documents():
    model = _lg_model()
    doc = json.loads(serialize(model))

    bad_version = dict(doc, version=2)
    with pytest.raises(ValidationError):
        deserialize(json.dumps(bad_version))

    self_loop = dict(doc, parents=[[0], [], [0, 1]])
    with pytest.raises(ValidationError):
        deserialize(json.dumps(self_loop))

    cycle = dict(doc, parents=[[2], [], [0, 1]])
    with pytest.raises(ValidationError):
        deserialize(json.dumps(cycle))

    unknown_kind = dict(doc, model_kind="mystery")
    with pytest.raises(ValidationError):
        deserialize(json.dumps(unknown_kind))

    missing_field = {k: v for k, v in doc.items() if k != "variances"}
    with pytest.raises(ValidationError):
        deserialize(json.dumps(missing_field))

    negative_variance = dict(doc, variances=[1.0, -2.0, 0.49])
    with pytest.raises(ValidationError):
        deserialize(json.dumps(negative_variance))


def test_rejects_bad_cbn_documents():
    model, _ = _cbn_model(seed=2)
    doc = json.loads(serialize(model))

    r1, r2 = doc["rho"][1:]
    # Out of range, a rho at the root (node 0), a null at a node with a
    # parent, and a list one entry short.
    for rho in ([None, 1.5, r2], [0.0, r1, r2], [0.3, r1, r2], [None, None, r2], [None, r1]):
        with pytest.raises(ValidationError):
            deserialize(json.dumps(dict(doc, rho=rho)))

    short_marginals = dict(doc, marginals=doc["marginals"][:2])
    with pytest.raises(ValidationError):
        deserialize(json.dumps(short_marginals))

    empty_samples = dict(
        doc,
        marginals=[{"bandwidth": 0.1, "samples": []}] + doc["marginals"][1:],
    )
    with pytest.raises(ValidationError):
        deserialize(json.dumps(empty_samples))


@pytest.mark.parametrize(
    "names", ["ab", {"a": 1, "b": 2}, [1, None]], ids=["string", "object", "non-strings"]
)
def test_rejects_column_names_that_are_not_a_list_of_strings(names):
    # str() of each item would read these as ('a', 'b'), ('a', 'b') and ('1', 'None').
    model = LinearGaussianBn(
        dag=Dag.chain(2),
        intercepts=(0.0, 1.0),
        coefficients=((), (0.5,)),
        variances=(1.0, 2.0),
        column_names=("a", "b"),
    )
    doc = json.loads(serialize(model))
    assert deserialize(json.dumps(doc)).column_names == ("a", "b")
    with pytest.raises(ValidationError, match="column_names"):
        deserialize(json.dumps(dict(doc, column_names=names)))


@pytest.mark.parametrize(
    "kind, field, bad",
    [
        ("cbn", "rho", "0.5"),
        ("cbn", "rho", True),
        ("cbn", "bandwidth", "0.1"),
        ("cbn", "bandwidth", True),
        ("cbn", "samples", "0.5"),
        ("cbn", "samples", False),
        ("cbn", "parents", 1.0),
        ("cbn", "parents", "1"),
        ("cbn", "parents", True),
        ("lgbn", "intercepts", "0.5"),
        ("lgbn", "intercepts", True),
        ("lgbn", "coefficients", "0.8"),
        ("lgbn", "coefficients", True),
        ("lgbn", "variances", "2.0"),
        ("lgbn", "variances", True),
        ("lgbn", "parents", 0.0),
    ],
)
def test_rejects_non_numeric_values(kind, field, bad):
    # Each case replaces one value that a v1 file writes as a JSON number.
    doc = json.loads(serialize(_cbn_model(seed=2)[0] if kind == "cbn" else _lg_model()))
    if field == "bandwidth":
        doc["marginals"][1]["bandwidth"] = bad
    elif field == "samples":
        doc["marginals"][1]["samples"][0] = bad
    elif field in ("parents", "coefficients"):
        doc[field][2][0] = bad  # node 2 has a parent in both models
    else:
        doc[field][1] = bad
    with pytest.raises(ValidationError):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("field", ["intercepts", "coefficients"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_lgbn_parameters(field, bad):
    # Python's json reads NaN and Infinity; a model holding one would score
    # NaN or fail to factor its precision.
    doc = json.loads(serialize(_lg_model()))
    if field == "coefficients":
        doc[field][2][0] = bad
    else:
        doc[field][1] = bad
    with pytest.raises(ValidationError, match="finite"):
        deserialize(json.dumps(doc))


def test_serialize_rejects_foreign_objects():
    with pytest.raises(ValidationError):
        serialize({"not": "a model"})
