"""The package's public names."""

import charzeta


def test_every_export_resolves_once():
    assert len(set(charzeta.__all__)) == len(charzeta.__all__)
    missing = [name for name in charzeta.__all__ if not hasattr(charzeta, name)]
    assert missing == []


def test_exports_resolve_lazily_and_are_listed():
    # `import charzeta` loads no module; each name comes from its module on
    # first access, and the package's own lookup returns the same object
    for name in charzeta.__all__:
        value = charzeta.__getattr__(name)
        assert value is getattr(charzeta, name), name
        assert getattr(value, "__module__", "").startswith("charzeta."), name
    assert set(charzeta.__all__) <= set(dir(charzeta))
    try:
        charzeta.__getattr__("no_such_name")
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def test_counts_come_as_one_totals_record_per_method():
    # brute force, the fiberwise descent and the closed formula each give
    # all three spaces in one surfaces.CountTotals
    field = charzeta.make_field(5)
    totals = [charzeta.brute_totals("L1", field), charzeta.fiberwise_totals("L1", field),
              charzeta.count_formula("L1", 5, 1)]
    assert [type(t) for t in totals] == [charzeta.CountTotals] * 3
    assert charzeta.CountTotals.__module__ == "charzeta.surfaces"
    counters = {name for name in charzeta.__all__ if name.startswith("count_") or "Totals" in name}
    assert counters == {"count_formula", "CountTotals"}
