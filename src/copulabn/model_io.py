"""Model serialization.

One JSON document per model, shared by both model kinds through a
``model_kind`` discriminator.  Floats are written with Python's shortest
round-trip representation, so a serialize/deserialize cycle reproduces
every parameter bit for bit.  Deserialization validates structure: cyclic
graphs, mismatched dimensions, out-of-range correlations, and strings or
booleans where numbers belong are rejected.
"""

import json

from .cbn import CbnModel
from .dag import Dag
from .errors import CopulaBnError, ParseError, ValidationError
from .gaussian_bn import LinearGaussianBn
from .marginals import KdeMarginal

__all__ = ["serialize", "deserialize", "save_model", "load_model"]

_FORMAT = "copulabn-model"
_VERSION = 1


def serialize(model):
    """Render a fitted model as a JSON text document, indented by 2.

    Every float is written as its shortest round-trip ``repr``, as
    ``json.dumps`` writes it.  A cbn model's samples, nearly all of its
    bytes, are joined as their reprs at C speed rather than through the
    pure-Python encoder that ``indent`` selects; the text is the same.
    """
    if isinstance(model, CbnModel):
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "model_kind": "cbn",
            "column_names": list(model.column_names),
            "parents": [list(ps) for ps in model.dag.parents],
            "rho": list(model.rho),
            "marginals": [{"bandwidth": m.bandwidth, "samples": []} for m in model.marginals],
        }
        # Each samples list is set into the text where json.dumps wrote it
        # empty.  No JSON string holds '"samples": []': it escapes its quotes.
        head, *tails = json.dumps(doc, indent=2).split('"samples": []')
        lists = (",\n        ".join(map(float.__repr__, m.samples.tolist())) for m in model.marginals)
        return head + "".join(f'"samples": [\n        {v}\n      ]{tail}' for v, tail in zip(lists, tails)) + "\n"
    elif isinstance(model, LinearGaussianBn):
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "model_kind": "lgbn",
            "column_names": list(model.column_names),
            "parents": [list(ps) for ps in model.dag.parents],
            "intercepts": list(model.intercepts),
            "coefficients": [list(cs) for cs in model.coefficients],
            "variances": list(model.variances),
        }
    else:
        raise ValidationError(f"cannot serialize object of type {type(model).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def _numbers(values, field, kinds=(int, float)):
    """``values`` if it is a list of JSON values whose types are in ``kinds``; booleans never are."""
    if not isinstance(values, list) or not all(type(v) in kinds for v in values):
        raise ValidationError(f"field {field!r} must be a list of numbers")
    return values


def _require(doc, key):
    if key not in doc:
        raise ValidationError(f"model document is missing field {key!r}")
    return doc[key]


def deserialize(text):
    """Parse a model document back into a model object.

    Raises
    ------
    ParseError
        Not valid JSON, or not a model document.
    ValidationError
        Structurally invalid content (cycles, bad rho, length mismatches).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ParseError(f"not a {_FORMAT} document")
    if doc.get("version") != _VERSION:
        raise ValidationError(f"unsupported model version {doc.get('version')!r}")
    kind = _require(doc, "model_kind")
    names = _require(doc, "column_names")
    if not isinstance(names, list) or not all(isinstance(c, str) for c in names):
        raise ValidationError("field 'column_names' must be a list of strings")
    names = tuple(names)
    parents = _require(doc, "parents")
    try:
        dag = Dag(len(names), tuple(tuple(_numbers(ps, "parents", (int,))) for ps in parents))
        if kind == "cbn":
            rho = _numbers(_require(doc, "rho"), "rho", (int, float, type(None)))
            marg = _require(doc, "marginals")
            for m in marg:
                _numbers([m["bandwidth"], *m["samples"]], "marginals")
            marginals = tuple(
                KdeMarginal.from_params(m["samples"], m["bandwidth"]) for m in marg
            )
            return CbnModel(dag=dag, marginals=marginals, rho=rho, column_names=names)
        if kind == "lgbn":
            return LinearGaussianBn(
                dag=dag,
                intercepts=tuple(_numbers(_require(doc, "intercepts"), "intercepts")),
                coefficients=tuple(
                    tuple(_numbers(cs, "coefficients")) for cs in _require(doc, "coefficients")
                ),
                variances=tuple(_numbers(_require(doc, "variances"), "variances")),
                column_names=names,
            )
        raise ValidationError(f"unknown model_kind {kind!r}")
    except (ParseError, ValidationError):
        raise
    except CopulaBnError as e:
        # Construction-level complaints (bad rho, degenerate marginal, ...)
        # all surface as document validation failures here.
        raise ValidationError(str(e)) from None
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed model document: {e}") from None


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(model))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    return deserialize(text)
